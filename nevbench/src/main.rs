//! `nevbench` — the repository's benchmark of the `nevd` certain-answer
//! service.
//!
//! ```text
//! cargo run --release -q --manifest-path nevbench/Cargo.toml -- \
//!     --workload <hot_join|cold_prepare|core_check|oracle_mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release -q --manifest-path nevbench/Cargo.toml -- --self-test [--seed <n>]
//! ```
//!
//! Run from the repository root. It builds the release `nevd` from source
//! (into `$CARGO_TARGET_DIR`, default `target`), generates the workload from
//! the seed, and then:
//!
//! * `--trace 0` — the end-to-end run ([`e2e`]): 20 fresh servers, each set
//!   up and then driven by a closed loop over loopback TCP for a twentieth of
//!   `--seconds`, every answer checked. Reports `qps`, `eval_p50_us`,
//!   `eval_p99_us`, `load_p50_us`, `setup_s` and `server_rss_mb`, timings
//!   scaled by the host's slowdown ([`calibrate`]). The process pins itself,
//!   and so `nevd`, to one CPU once the build is done.
//! * `--trace 1` — half the time end to end, half in the in-process traced
//!   replay ([`traced`]), which reports the per-layer metrics.
//! * `--self-test` — traced first passes only: at one seed every count metric
//!   must repeat exactly across two runs, and at the next seed every workload
//!   must still spend most of its time in the layer it was built for.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}`.
//! A failed request is an `ERR`, an I/O error or a response that differs from
//! the reference; `error_rate` is `failed / attempted`.

mod calibrate;
mod e2e;
mod stats;
mod traced;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use workloads::{Kind, Workload, NAMES};

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

const USAGE: &str = "usage: nevbench --workload <hot_join|cold_prepare|core_check|oracle_mix> \
                     --seed <n> --seconds <s> --trace <0|1>\n       nevbench --self-test [--seed <n>]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("invalid {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Some(Kind::parse(&value).ok_or_else(|| bad(&format!("not one of {NAMES:?}")))?);
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err(bad(&"must be in (0, 120]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if args.workload.is_none() && !args.self_test {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// Where cargo puts the release binaries.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Builds the release `nevd` of the checkout this runs in and returns its
/// path.
fn build_nevd() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--manifest-path",
            "Cargo.toml",
            "-p",
            "nev-serve",
            "--bin",
            "nevd",
        ])
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building nevd failed ({status})"));
    }
    let nevd = target_dir().join("release").join("nevd");
    if nevd.is_file() {
        Ok(nevd)
    } else {
        Err(format!("no nevd at {}", nevd.display()))
    }
}

fn spans_path(kind: Kind, seed: u64) -> PathBuf {
    target_dir()
        .join("nevbench")
        .join(format!("spans-{}-seed{seed}.tsv", kind.name()))
}

/// The one-line result, last on standard output.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn describe(workload: &Workload) {
    println!(
        "workload {}: {} snapshot(s), {} facts, longest LOAD line {} bytes, \
         {} requests per stream cycle",
        workload.kind.name(),
        workload.snapshots.len(),
        workload.facts(),
        workload.max_load_line_bytes(),
        workload.stream.len()
    );
}

fn print_layers(trace: &traced::TraceResult) {
    let total: f64 = trace.self_us.values().sum();
    println!(
        "self time per layer over the traced run (dominant: {}):",
        trace.dominant_layer()
    );
    for (layer, us) in &trace.self_us {
        println!(
            "  {layer:<20} {:>12.0} us  {:>5.1} %",
            us,
            100.0 * us / total.max(1e-9)
        );
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let kind = args.workload.expect("checked by parse_args");
    let workload = Workload::generate(kind, args.seed)?;
    describe(&workload);
    let nevd = build_nevd()?;
    match calibrate::pin_to_one_cpu() {
        Ok(cpu) => println!("pinned to CPU {cpu}, with every process it starts"),
        Err(e) => println!("not pinned to one CPU ({e}); scaled times track the host less well"),
    }
    let mut checker = e2e::Checker::new();
    let e2e_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let e2e = e2e::run(&nevd, &workload, e2e_seconds, &mut checker)
        .map_err(|e| format!("end-to-end run: {e}"))?;
    let mut attempted = checker.attempted;
    let mut failed = checker.failed;
    let mut correct = failed == 0 && checker.truncated == 0;
    if let Some(failure) = checker.first_failure() {
        println!("first failed check: {failure}");
    }
    if checker.truncated > 0 {
        println!("{} response(s) were truncated", checker.truncated);
    }
    println!(
        "end to end: {} EVALs, {:.1} req/s, EVAL p50 {:.1} us, p99 {:.1} us, LOAD p50 {:.1} us, \
         set-up {:.4} s, peak RSS {:.2} MiB, error_rate {}",
        e2e.evals,
        e2e.qps,
        e2e.eval_p50_us,
        e2e.eval_p99_us,
        e2e.load_p50_us,
        e2e.setup_s,
        e2e.server_rss_mb,
        failed as f64 / attempted.max(1) as f64
    );
    println!(
        "unscaled: {:.1} req/s, EVAL p50 {:.1} us, LOAD p50 {:.1} us; host slowdown {:.3} \
         (median over {} s windows)",
        e2e.raw_qps,
        e2e.raw_eval_p50_us,
        e2e.raw_load_p50_us,
        e2e.slowdown,
        e2e::SCALE_WINDOW_S
    );
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let trace = traced::run(&workload, args.seconds / 2.0, &spans_path(kind, args.seed))
            .map_err(|e| format!("traced run: {e}"))?;
        print_layers(&trace);
        if let Some(mismatch) = &trace.first_mismatch {
            println!("first replay mismatch: {mismatch}");
        }
        attempted += trace.replayed;
        failed += trace.mismatches;
        correct &= trace.mismatches == 0;
        let mut metrics = vec![(
            "server.transport_us",
            // The in-process handler time is unscaled, so the client's is too.
            e2e.raw_eval_p50_us - trace.handler_p50_us,
            "us",
        )];
        metrics.extend(trace.metrics);
        metrics
    } else {
        vec![
            ("qps", e2e.qps, "1/s"),
            ("eval_p50_us", e2e.eval_p50_us, "us"),
            ("eval_p99_us", e2e.eval_p99_us, "us"),
            ("load_p50_us", e2e.load_p50_us, "us"),
            ("setup_s", e2e.setup_s, "s"),
            ("server_rss_mb", e2e.server_rss_mb, "MiB"),
        ]
    };
    println!("{}", result_json(correct, attempted, failed, &metrics));
    Ok(ExitCode::SUCCESS)
}

/// The layers each workload is built to load; its largest self time must be
/// in one of them.
fn expected_layers(kind: Kind) -> &'static [&'static str] {
    match kind {
        Kind::HotJoin => &["exec.naive", "exec.intern", "wire.render"],
        Kind::ColdPrepare => &["prepare", "cache.lookup"],
        Kind::CoreCheck => &["core.is_core"],
        Kind::OracleMix => &["symbolic", "oracle"],
    }
}

/// The count self-test: exact repeats at `seed`, cost classes at `seed + 1`.
fn self_test(seed: u64) -> Result<ExitCode, String> {
    let mut ok = true;
    for name in NAMES {
        let kind = Kind::parse(name).expect("known name");
        let workload = Workload::generate(kind, seed)?;
        let spans = spans_path(kind, seed);
        let first = traced::run(&workload, 0.0, &spans).map_err(|e| e.to_string())?;
        let second = traced::run(&workload, 0.0, &spans).map_err(|e| e.to_string())?;
        let repeats = first.counts == second.counts;
        let next = Workload::generate(kind, seed + 1)?;
        let other =
            traced::run(&next, 0.0, &spans_path(kind, seed + 1)).map_err(|e| e.to_string())?;
        let class_kept = [&first, &other]
            .iter()
            .all(|t| expected_layers(kind).contains(&t.dominant_layer()));
        let replays_match = first.mismatches + second.mismatches + other.mismatches == 0;
        println!(
            "{name}: counts repeat at seed {seed}: {repeats}; dominant layer {} at seed {seed}, \
             {} at seed {}: {}; replay byte-identical: {replays_match}",
            first.dominant_layer(),
            other.dominant_layer(),
            seed + 1,
            if class_kept {
                "as built"
            } else {
                "NOT as built"
            },
        );
        for (metric, value, unit) in first.counts.metrics() {
            println!("  {metric:<24} {value} {unit}");
        }
        ok &= repeats && class_kept && replays_match;
    }
    println!("self-test {}", if ok { "passed" } else { "FAILED" });
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    // The in-process states must trace exactly like the spawned nevd, which
    // runs without NEV_TRACE.
    std::env::remove_var("NEV_TRACE");
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("nevbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.self_test {
        self_test(args.seed)
    } else {
        run(&args)
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("nevbench: {e}");
        ExitCode::FAILURE
    })
}
