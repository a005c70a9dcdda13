//! `nevload` — the load-generator client and round-trip checker.
//!
//! ```text
//! nevload --self-check [--seed S] [--instances I] [--requests N]
//! nevload --addr HOST:PORT [--seed S] [--instances I] [--requests N]
//! ```
//!
//! Drives the seeded workload of `nev_serve::client::workload` through a server —
//! either one it spawns in-process on an ephemeral port (`--self-check`, the CI
//! smoke mode) or an already-running `nevd` (`--addr`) — and checks **every**
//! `EVAL` response byte-for-byte against a bare in-process `CertainEngine`
//! evaluation of the same snapshot. Exits non-zero on any mismatch.

use nev_serve::cli::parse_flag_value;
use nev_serve::client::{run_load, self_check};

fn usage_and_exit(code: i32) -> ! {
    println!(
        "usage: nevload --self-check [--seed S] [--instances I] [--requests N]\n\
         \x20      nevload --addr HOST:PORT [--seed S] [--instances I] [--requests N]"
    );
    std::process::exit(code);
}

fn main() {
    let mut addr: Option<String> = None;
    let mut do_self_check = false;
    let mut seed: u64 = 20130622;
    let mut instances: usize = 2;
    let mut requests: usize = 24;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = Some(parse_flag_value("--addr", args.next())),
            "--self-check" => do_self_check = true,
            "--seed" => seed = parse_flag_value("--seed", args.next()),
            "--instances" => instances = parse_flag_value("--instances", args.next()),
            "--requests" => requests = parse_flag_value("--requests", args.next()),
            "--help" | "-h" => usage_and_exit(0),
            other => {
                eprintln!("unknown option: {other}");
                std::process::exit(2);
            }
        }
    }

    let report = match (do_self_check, addr) {
        (true, None) => self_check(seed, instances, requests),
        (false, Some(addr)) => run_load(&addr, seed, instances, requests),
        _ => usage_and_exit(2),
    };
    match report {
        Ok(report) => {
            println!("{report}");
            if report.all_match() {
                println!(
                    "nevload: all {} answers byte-identical to the in-process engine",
                    report.answered
                );
            } else {
                eprintln!("nevload: {} mismatch(es)", report.mismatches.len());
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("nevload: {e}");
            std::process::exit(1);
        }
    }
}
