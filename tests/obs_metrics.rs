//! Observability acceptance suite: the wire `METRICS`/`TRACE`/`STATS` surface
//! under real concurrency.
//!
//! The properties pinned here are the ones PR 8 promises:
//!
//! * **exact reconciliation** — the per-plan request-latency histogram counts
//!   sum to the `evals` counter, and `evals` to the dispatch counters, in
//!   every `METRICS` and `STATS` response, even mid-flight while many clients
//!   hammer the server at once (both are read off one registry snapshot);
//! * **grammar-valid exposition** — `METRICS` always shape-validates against
//!   [`naive_eval::obs::validate_exposition`], terminated by `# EOF`;
//! * **trace sanity** — a `TRACE` stage timeline's depth-0 durations can never
//!   exceed the request total;
//! * **tracing never changes answers** — repeated served requests are
//!   byte-identical, and the engine answers the same under a live recorder
//!   and under [`TraceRecorder::disabled`].
//!
//! PR 9 adds the windowed/profiled surface:
//!
//! * **window/lifetime reconciliation** — after a `METRICS RESET` baseline,
//!   the 60s trailing-window deltas equal the lifetime-counter deltas
//!   *exactly*, even under concurrent clients (every tracked quantity is a
//!   monotone counter, so the subtraction cannot drift);
//! * **profile accuracy** — a compiled `PROFILE` reports every operator with
//!   per-op self times telescoping to the plan root, the root bounded by the
//!   surrounding exec span, and flagged row counts reconciling exactly with
//!   `ExecStats::intermediate_rows`.

use std::sync::Arc;
use std::thread;

use naive_eval::core::engine::{CertainEngine, DispatchOptions};
use naive_eval::core::{Semantics, Snapshot};
use naive_eval::obs::{validate_exposition, Counter, Timer, TraceRecorder};
use naive_eval::serve::state::{ServeConfig, ServeState};
use naive_eval::serve::{Client, Server, ServerHandle};

fn spawn_server(workers: usize) -> (Arc<ServeState>, ServerHandle) {
    let state = Arc::new(ServeState::new(ServeConfig {
        workers,
        ..ServeConfig::default()
    }));
    let handle = Server::bind("127.0.0.1:0", Arc::clone(&state))
        .expect("bind loopback ephemeral port")
        .spawn()
        .expect("spawn accept loop");
    (state, handle)
}

/// The value of the unlabelled sample `name` in an exposition.
fn sample(exposition: &[String], name: &str) -> u64 {
    exposition
        .iter()
        .find_map(|line| line.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("{name} sample in the exposition"))
        .parse()
        .expect("u64 sample")
}

/// Σ `nev_request_latency_us_count{…}` over the plan labels of an exposition.
fn plan_counts(exposition: &[String]) -> u64 {
    exposition
        .iter()
        .filter_map(|line| line.strip_prefix("nev_request_latency_us_count{"))
        .filter_map(|line| line.split_once("} "))
        .map(|(_, value)| value.parse::<u64>().expect("u64 count"))
        .sum()
}

/// The value of the `name=` token of a `STATS` line.
fn stat(line: &str, name: &str) -> u64 {
    line.split_whitespace()
        .find_map(|token| token.strip_prefix(&format!("{name}=")))
        .unwrap_or_else(|| panic!("{name}= token in {line}"))
        .parse()
        .expect("u64 token")
}

const QUERIES: [(&str, &str); 4] = [
    ("cwa", "exists u v . D(u, v) & D(v, u)"),
    ("owa", "forall u . exists v . D(u, v)"),
    ("owa", "exists u . !D(u, u)"),
    ("cwa", "forall u . exists v . D(u, v)"),
];

#[test]
fn concurrent_clients_reconcile_histograms_with_counters() {
    let (state, mut handle) = spawn_server(4);
    let addr = handle.addr().to_string();

    {
        let mut seed = Client::connect(&addr).expect("connect");
        assert_eq!(
            seed.send("LOAD d0 D(?1,?2);D(?2,?1)").unwrap(),
            "OK loaded d0 facts=2"
        );
    }

    const CLIENTS: usize = 6;
    const ROUNDS: usize = 5;
    let workers: Vec<_> = (0..CLIENTS)
        .map(|id| {
            let addr = addr.clone();
            thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                for round in 0..ROUNDS {
                    let (semantics, query) = QUERIES[(id + round) % QUERIES.len()];
                    let line = format!("EVAL d0 {semantics} {query}");
                    let response = client.send(&line).expect("eval");
                    assert!(response.starts_with("OK plan="), "{response}");
                    if round % 2 == 0 {
                        client.send(&format!("PREPARE {query}")).expect("prepare");
                    }
                    // METRICS mid-flight must still validate, and its counters
                    // must agree with its histograms: both are rendered from
                    // one registry snapshot, never torn.
                    let exposition = client.metrics().expect("metrics");
                    validate_exposition(&exposition).expect("mid-flight exposition");
                    assert_eq!(
                        plan_counts(&exposition),
                        sample(&exposition, "nev_evals_total"),
                        "mid-flight METRICS: per-plan counts vs evals"
                    );
                    // So must STATS: `evals` is the sum of the dispatch counters.
                    let stats = client.send("STATS").expect("stats");
                    let dispatched: u64 =
                        ["certified", "normalized_upgrades", "symbolic", "oracle"]
                            .iter()
                            .map(|name| stat(&stats, name))
                            .sum();
                    assert_eq!(stat(&stats, "evals"), dispatched, "{stats}");
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("client thread");
    }

    // Exact reconciliation: every eval landed in exactly one per-plan histogram.
    let evals = state.metrics().snapshot().evals();
    assert_eq!(evals, (CLIENTS * ROUNDS) as u64);

    // The final exposition validates and carries the reconciled counter.
    let mut client = Client::connect(&addr).expect("connect");
    let exposition = client.metrics().expect("metrics");
    validate_exposition(&exposition).expect("final exposition");
    assert_eq!(sample(&exposition, "nev_evals_total"), evals);
    assert_eq!(plan_counts(&exposition), evals);
    assert_eq!(exposition.last().map(String::as_str), Some("# EOF"));

    // STATS carries the latency digest derived from the same histograms.
    let stats = client.send("STATS").expect("stats");
    assert!(stats.contains(" uptime_us="), "{stats}");
    assert!(stats.contains(" p50_us="), "{stats}");
    assert!(stats.contains(" p99_us="), "{stats}");

    handle.shutdown();
}

#[test]
fn windowed_deltas_reconcile_exactly_with_lifetime_counters() {
    let (state, mut handle) = spawn_server(4);
    let addr = handle.addr().to_string();
    {
        let mut seed = Client::connect(&addr).expect("connect");
        seed.send("LOAD d0 D(?1,?2);D(?2,?1)").expect("load");
        // Some pre-baseline traffic the windows must NOT count after reset.
        for (semantics, query) in QUERIES.iter().take(2) {
            seed.send(&format!("EVAL d0 {semantics} {query}"))
                .expect("warmup");
        }
        assert_eq!(seed.send("METRICS RESET").unwrap(), "OK metrics reset");
    }
    let baseline = state.metrics().snapshot();

    const CLIENTS: usize = 5;
    const ROUNDS: usize = 4;
    let workers: Vec<_> = (0..CLIENTS)
        .map(|id| {
            let addr = addr.clone();
            thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                for round in 0..ROUNDS {
                    let (semantics, query) = QUERIES[(id + round) % QUERIES.len()];
                    let response = client
                        .send(&format!("EVAL d0 {semantics} {query}"))
                        .expect("eval");
                    assert!(response.starts_with("OK plan="), "{response}");
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("client thread");
    }

    // The 60s trailing window baselines at the reset sample (nothing in the
    // ring is 60s old), so its deltas must equal the lifetime deltas exactly.
    let now = state.metrics().snapshot();
    let delta = state.metrics().series().window(&now, 60_000_000);
    let counter_delta = |c| now.counter(c) - baseline.counter(c);
    assert_eq!(delta.evals, now.evals() - baseline.evals());
    assert_eq!(delta.evals, (CLIENTS * ROUNDS) as u64);
    assert_eq!(delta.requests, counter_delta(Counter::Requests));
    assert_eq!(delta.errors, counter_delta(Counter::Errors));
    assert_eq!(
        delta.latency.count,
        now.latency().count - baseline.latency().count
    );
    let per_plan: u64 = delta.plans.iter().map(|(_, snap)| snap.count).sum();
    assert_eq!(
        per_plan, delta.evals,
        "every windowed eval has a plan label"
    );

    // TOP condenses the same arithmetic into one line.
    let mut client = Client::connect(&addr).expect("connect");
    let top = client.send("TOP").expect("top");
    assert!(top.starts_with("OK top uptime_us="), "{top}");
    for token in [
        "qps_1s=",
        "err_10s=",
        "p50_us_60s=",
        "p95_us_60s=",
        "p99_us_60s=",
    ] {
        assert!(top.contains(token), "{top}");
    }

    // The reset emptied the slow log; the post-reset traffic refilled it.
    assert!(!state.metrics().slow_queries().is_empty());
    // Lifetime counters survived the reset: the histograms still count every
    // eval of the process lifetime, the pre-reset ones included.
    assert_eq!(now.evals(), (2 + CLIENTS * ROUNDS) as u64);
    handle.shutdown();
}

#[test]
fn profile_reconciles_with_the_exec_accounting() {
    // In-process: the profile's row accounting must match the executor's own
    // ExecStats counter, and its times must telescope and stay inside the
    // surrounding span.
    let d = naive_eval::incomplete::inst! {
        "R" => [
            [naive_eval::incomplete::builder::x(1), naive_eval::incomplete::builder::x(2)],
            [naive_eval::incomplete::builder::x(2), naive_eval::incomplete::builder::x(3)],
            [naive_eval::incomplete::builder::x(3), naive_eval::incomplete::builder::x(4)],
        ]
    };
    let engine = CertainEngine::new();
    let prepared = engine
        .prepare("Q(x) :- exists y z . R(x, y) & R(y, z)")
        .expect("a join chain compiles");
    let span = Timer::start();
    let options = DispatchOptions {
        profile: true,
        ..DispatchOptions::default()
    };
    let evaluation = engine.dispatch(&Snapshot::new(&d), Semantics::Owa, &prepared, &options);
    let (answers, stats, profile) = (evaluation.certain, evaluation.exec, evaluation.profile);
    let span_us = span.elapsed_us();
    let profile = profile.expect("compiled dispatch yields a profile");
    // Rows: the flagged samples sum to exactly the executor's counter.
    assert_eq!(profile.intermediate_rows(), stats.intermediate_rows);
    // Times: per-op self times telescope to the root, which the span bounds.
    assert_eq!(profile.total_self_us(), profile.root_wall_us());
    assert!(
        profile.root_wall_us() <= span_us,
        "root {} exceeds the surrounding span {span_us}",
        profile.root_wall_us()
    );
    // Every operator carries a cost-model estimate and the fold is visible.
    assert!(profile.ops.iter().all(|op| op.estimated_rows >= 0.0));
    assert!(profile
        .ops
        .iter()
        .any(|op| op.label.starts_with("HashJoin[")));
    // The profiled run computed the same answers as the plain engine path.
    let reference = engine.evaluate(&d, Semantics::Cwa, &prepared);
    assert_eq!(answers, reference.certain);

    // Over the wire: every per-op inclusive time is bounded by the reported
    // exec span, and the annotated plan covers the whole operator tree.
    let (state, mut handle) = spawn_server(2);
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
    client
        .send("LOAD chain R(?1,?2);R(?2,?3);R(?3,?4)")
        .expect("load");
    let line = client
        .send("PROFILE chain cwa Q(x) :- exists y z . R(x, y) & R(y, z)")
        .expect("profile");
    assert!(line.starts_with("OK profile plan=compiled"), "{line}");
    let exec_us: u64 = line
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix("exec_us="))
        .expect("exec_us token")
        .parse()
        .unwrap();
    let ops = line
        .split_once("ops=[")
        .expect("ops list")
        .1
        .strip_suffix(']')
        .expect("ops list closes");
    for op_us in ops
        .split_whitespace()
        .filter_map(|tok| tok.strip_prefix("us="))
    {
        let op_us: u64 = op_us.trim_end_matches(']').parse().unwrap();
        assert!(
            op_us <= exec_us,
            "op time {op_us} exceeds exec span {exec_us}"
        );
    }
    for label in ["Scan R(", "HashJoin[", "est="] {
        assert!(ops.contains(label), "{ops}");
    }
    // PROFILE counted as a real evaluation.
    assert_eq!(state.metrics().snapshot().evals(), 1);
    handle.shutdown();
}

#[test]
fn trace_stage_durations_never_exceed_the_total() {
    let (state, mut handle) = spawn_server(2);
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
    client.send("LOAD d0 D(?1,?2);D(?2,?1)").unwrap();

    for (semantics, query) in QUERIES {
        let line = client
            .send(&format!("TRACE d0 {semantics} {query}"))
            .expect("trace");
        assert!(line.starts_with("OK trace plan="), "{line}");
        assert!(!line.contains('\n'), "TRACE is one line: {line}");
    }
    // TRACE runs real evals: they count in the same histograms.
    assert_eq!(state.metrics().snapshot().evals(), QUERIES.len() as u64);

    // The depth-0 invariant, checked on the trace object itself (the wire line
    // reports the rendered spans; the object carries the structure).
    for (semantics, query) in QUERIES {
        let semantics: Semantics = semantics.parse().unwrap();
        let (_, trace) = state.eval_with_trace("d0", semantics, query).expect("eval");
        assert!(
            trace.top_level_us() <= trace.total_us(),
            "stage sum {} exceeds total {}",
            trace.top_level_us(),
            trace.total_us()
        );
    }
    handle.shutdown();
}

#[test]
fn tracing_never_perturbs_served_answers() {
    // Evaluate the same requests twice and demand byte-identical renderings;
    // then run the engine under a live and a disabled recorder.
    let (state, mut handle) = spawn_server(2);
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
    client.send("LOAD d0 D(?1,?2);D(?2,?1)").unwrap();

    for (semantics, query) in QUERIES {
        let line = format!("EVAL d0 {semantics} {query}");
        let first = client.send(&line).expect("eval");
        let second = client.send(&line).expect("eval again");
        assert_eq!(first, second, "repeat evals are byte-identical");
    }

    // The recorder itself, enabled vs disabled, over the engine: same results.
    let engine = state.engine();
    let prepared = engine.prepare(QUERIES[0].1).expect("prepare");
    let d0 = naive_eval::incomplete::inst! {
        "D" => [
            [naive_eval::incomplete::builder::x(1), naive_eval::incomplete::builder::x(2)],
            [naive_eval::incomplete::builder::x(2), naive_eval::incomplete::builder::x(1)],
        ]
    };
    let on = TraceRecorder::new();
    let off = TraceRecorder::disabled();
    let (answers_on, _) = engine.naive_answers_traced(&d0, &prepared, &on);
    let (answers_off, _) = engine.naive_answers_traced(&d0, &prepared, &off);
    assert_eq!(answers_on, answers_off);
    assert!(off.finish().is_empty(), "disabled recorder records nothing");
    handle.shutdown();
}
