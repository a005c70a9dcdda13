//! A worked `nevd` session: spawn the service in-process on an ephemeral loopback
//! port, drive it over real TCP with the line protocol, and cross-check one answer
//! against the in-process engine.
//!
//! ```sh
//! cargo run --release --example serve_session
//! ```

use std::sync::Arc;

use naive_eval::core::engine::CertainEngine;
use naive_eval::core::Semantics;
use naive_eval::serve::state::{ServeConfig, ServeState};
use naive_eval::serve::wire::{parse_instance, render_answers};
use naive_eval::serve::{Client, Server};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A service: catalog + plan cache + engine behind a TCP listener.
    let state = Arc::new(ServeState::new(ServeConfig::default()));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&state))?;
    let addr = server.local_addr()?;
    let mut handle = server.spawn()?;
    println!("nevd listening on {addr}\n");

    let mut client = Client::connect(&addr.to_string())?;
    let session = [
        // The paper's introduction: R = {(1,⊥1),(⊥2,⊥3)}, S = {(⊥1,4),(⊥3,5)}.
        "LOAD intro R(1,?1);R(?2,?3);S(?1,4);S(?3,5)",
        // D0 = {(⊥,⊥′),(⊥′,⊥)} from §2.3/§2.4.
        "LOAD d0 D(?1,?2);D(?2,?1)",
        // Warm the plan cache: parse + classify + compile once, all semantics.
        "PREPARE Q(x, y) :- exists z . R(x, z) & S(z, y)",
        // ∃Pos × OWA is certified: compiled naïve pass, no world enumerated.
        "EVAL intro owa Q(x, y) :- exists z . R(x, z) & S(z, y)",
        // Pos × CWA is certified; the same query under OWA needs the oracle,
        // which refutes it — the §2.4 counterexample, served.
        "EVAL d0 cwa forall u . exists v . D(u, v)",
        "EVAL d0 owa forall u . exists v . D(u, v)",
        // EXPLAIN: the dispatch decision plus the nev-opt plan pair (logical
        // and optimised), without executing anything.
        "EXPLAIN intro owa Q(x, y) :- exists z . R(x, z) & S(z, y)",
        // TRACE: one request's stage timeline (parse/classify/compile on a
        // cache miss, then the exec or oracle stages) as a one-liner.
        "TRACE intro owa Q(x, y) :- exists z . R(x, z) & S(z, y)",
        // PROFILE: a real evaluation whose compiled plan comes back annotated
        // per operator — wall time, output rows, and the nev-opt cost model's
        // estimate (the estimated-vs-actual feedback loop, on the wire).
        "PROFILE intro owa Q(x, y) :- exists z . R(x, z) & S(z, y)",
        "STATS",
        // TOP: trailing-window QPS/error/latency rates in one line — the
        // payload `nevtop` polls for its header.
        "TOP",
    ];
    for request in session {
        let response = client.send(request)?;
        println!("> {request}");
        println!("< {response}");
        if request.starts_with("EXPLAIN") {
            assert!(
                response.starts_with("OK dispatch=compiled") && response.contains("optimized=("),
                "EXPLAIN must expose the optimised plan: {response}"
            );
        }
        if request.starts_with("TRACE") {
            assert!(
                response.starts_with("OK trace plan=compiled total_us=")
                    && response.contains("spans="),
                "TRACE must report the stage timeline: {response}"
            );
        }
        if request.starts_with("PROFILE") {
            assert!(
                response.starts_with("OK profile plan=compiled")
                    && response.contains(" ops=[")
                    && response.contains("est=")
                    && response.contains("HashJoin["),
                "PROFILE must annotate the compiled plan: {response}"
            );
        }
        if request == "STATS" {
            assert!(
                response.contains(" uptime_us=")
                    && response.contains(" p50_us=")
                    && response.contains(" p95_us="),
                "STATS must carry the latency digest: {response}"
            );
        }
        if request == "TOP" {
            assert!(
                response.starts_with("OK top uptime_us=") && response.contains(" qps_1s="),
                "TOP must carry the windowed rates: {response}"
            );
        }
    }

    // METRICS: the sole multi-line response — a Prometheus-style exposition of
    // every counter, the per-plan/per-stage latency histograms and the
    // slow-query log, terminated by `# EOF` and shape-checked here.
    let exposition = client.metrics()?;
    naive_eval::obs::validate_exposition(&exposition)
        .map_err(|violation| format!("METRICS exposition: {violation}"))?;
    println!(
        "\n> METRICS ({} lines, grammar-valid; excerpt)",
        exposition.len()
    );
    for line in exposition.iter().filter(|l| {
        l.starts_with("nev_evals_total") || l.starts_with("nev_request_latency_us_count")
    }) {
        println!("< {line}");
    }

    println!("> QUIT");
    println!("< {}", client.send("QUIT")?);

    // The round-trip property the load generator checks on every request: the
    // served answer is byte-identical to an in-process engine evaluation.
    let engine = CertainEngine::new();
    let intro = parse_instance("R(1,?1);R(?2,?3);S(?1,4);S(?3,5)")?;
    let q = engine.prepare("Q(x, y) :- exists z . R(x, z) & S(z, y)")?;
    let reference = engine.evaluate(&intro, Semantics::Owa, &q);
    println!(
        "\nin-process reference: plan=compiled certain={}",
        render_answers(&reference.certain)
    );
    assert_eq!(render_answers(&reference.certain), "{(1,4)}");

    handle.shutdown();
    println!("server shut down cleanly");
    Ok(())
}
