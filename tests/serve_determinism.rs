//! The determinism suite for `nev-serve` and `figure1`.
//!
//! Scheduling and replay must never change an answer. Two layers of proof:
//!
//! 1. **Figure 1 determinism** — validating the cells on scoped threads (the
//!    `figure1 --threads` path) renders a byte-identical Markdown table at 0,
//!    1, 2 and 8 threads for the same seed;
//! 2. **service determinism** — the seeded load-generator workload produces
//!    byte-identical response lines (certain-answer sets included) and the
//!    same `worlds=` count when replayed on a fresh service, on the oracle and
//!    the certified compiled paths alike.

use naive_eval::bench::figure1::{render_markdown, run_cells, Figure1Config};
use naive_eval::bench::workloads::cell_workload;
use naive_eval::core::engine::{CertainEngine, DispatchOptions, PreparedQuery};
use naive_eval::core::summary::Expectation;
use naive_eval::core::{Semantics, WorldBounds};
use naive_eval::incomplete::builder::x;
use naive_eval::incomplete::inst;
use naive_eval::logic::Fragment;
use naive_eval::serve::state::{ServeConfig, ServeState};
use naive_eval::serve::workload;

// Zero threads runs every cell on the calling thread, so every threaded
// rendering is checked against a no-thread baseline.
const THREAD_COUNTS: [usize; 4] = [0, 1, 2, 8];

fn bounds() -> WorldBounds {
    WorldBounds {
        owa_max_extra_tuples: 1,
        wcwa_max_extra_tuples: 2,
        ..WorldBounds::default()
    }
}

/// Figure 1 on scoped threads: the rendered table must not depend on the
/// thread count — scheduling decides who validates a cell, never what the cell
/// reports.
#[test]
fn figure1_tables_are_byte_identical_across_worker_counts() {
    let config = Figure1Config {
        trials: 2,
        ..Figure1Config::quick()
    };
    let tables: Vec<String> = THREAD_COUNTS
        .iter()
        .map(|&threads| render_markdown(&run_cells(&config, None, None, threads)))
        .collect();
    for (threads, table) in THREAD_COUNTS.iter().zip(&tables).skip(1) {
        assert_eq!(
            &tables[0], table,
            "threads={threads} diverged from threads=0"
        );
    }
    assert!(tables[0].contains("OWA"), "the table rendered");
}

/// Replays the seeded `workload(seed, 2, 18)` on a fresh service: its
/// response lines, then the `worlds=` field of `STATS`.
fn replay(seed: u64) -> Vec<String> {
    let generated = workload(seed, 2, 18);
    let state = ServeState::new(ServeConfig {
        bounds: bounds(),
        ..ServeConfig::default()
    });
    for (name, instance) in &generated.instances {
        state.load(name.clone(), instance.clone());
    }
    let mut transcript: Vec<String> = generated
        .requests
        .iter()
        .map(|request| {
            state
                .eval(&request.instance, request.semantics, &request.query)
                .map(|r| r.render())
                .unwrap_or_else(|e| format!("ERR {e}"))
        })
        .collect();
    let stats = state.render_stats();
    let worlds = stats
        .split_whitespace()
        .find(|kv| kv.starts_with("worlds="))
        .expect("a worlds= field");
    transcript.push(worlds.to_string());
    transcript
}

/// The served workload end to end: replaying one request stream on a fresh
/// service must yield identical response bytes (certified and oracle paths
/// both) and count the same worlds.
#[test]
fn served_responses_are_byte_identical_across_replays() {
    let first = replay(20130622);
    assert_eq!(first, replay(20130622));
    assert!(
        first.iter().any(|r| r.contains("plan=oracle")),
        "the workload exercised the oracle: {first:?}"
    );
    assert_ne!(first.last().map(String::as_str), Some("worlds=0"));
}

/// The certified exec path: the compiled executor runs on the thread serving
/// the request, and replaying one request stream on a fresh service must
/// render byte-identical certain-answer sets.
#[test]
fn compiled_exec_responses_are_byte_identical_across_replays() {
    let first = replay(20130701);
    assert_eq!(first, replay(20130701));
    assert!(
        first.iter().any(|r| r.contains("plan=compiled")),
        "the workload exercised the certified exec path: {first:?}"
    );
}

/// Derived state cached on a catalog entry changes no answer: repeated
/// requests on one snapshot — the first builds its interned form and core
/// bit, the rest reuse them — equal a fresh `CertainEngine::evaluate` on the
/// bare instance, for every Figure 1 workload query under every semantics:
/// the whole `Evaluation` compares equal, world counts and exec counters
/// included.
#[test]
fn cached_snapshot_state_matches_fresh_evaluations_on_every_figure1_query() {
    let engine = CertainEngine::with_bounds(bounds());
    let state = ServeState::new(ServeConfig {
        bounds: bounds(),
        ..ServeConfig::default()
    });
    let mut compared = 0;
    for fragment in FRAGMENTS {
        for (trial, (instance, query)) in
            cell_workload(fragment, 20130622, 2).into_iter().enumerate()
        {
            let name = format!("f{}t{trial}", fragment as u8);
            state.load(name.clone(), instance.clone());
            let text = query.to_string();
            let prepared = PreparedQuery::parse(&text).expect("the rendering parses");
            for semantics in Semantics::ALL {
                let fresh = engine.evaluate(&instance, semantics, &prepared);
                for request in 0..2 {
                    let (_, served) = state
                        .dispatch(&name, semantics, &text, &DispatchOptions::default())
                        .expect("served");
                    let context = format!("{semantics} × {text} request {request} on\n{instance}");
                    assert_eq!(served, fresh, "{context}");
                    compared += 1;
                }
            }
        }
    }
    assert_eq!(compared, 5 * 2 * 6 * 2);

    // A minimal-semantics request whose symbolic ladder decides the core bit
    // first, then a certified WorksOverCores request that reuses it.
    let core = inst! { "D" => [[x(1), x(2)], [x(2), x(1)]] };
    state.load("core", core.clone());
    let entry = state.catalog().entry("core").expect("loaded");
    assert!(!entry.is_core_known());
    let ladder = "exists u . !D(u, u)";
    let (_, served) = state
        .dispatch(
            "core",
            Semantics::MinimalCwa,
            ladder,
            &DispatchOptions::default(),
        )
        .expect("served");
    assert!(!served.plan.is_certified(), "FO has no Figure 1 guarantee");
    assert!(entry.is_core_known(), "the ladder decided the core bit");
    let fresh = engine.evaluate(
        &core,
        Semantics::MinimalCwa,
        &PreparedQuery::parse(ladder).unwrap(),
    );
    assert_eq!(served, fresh, "{ladder}");
    let certified = "forall u v . D(u, v) -> exists w . D(v, w)";
    let (_, served) = state
        .dispatch(
            "core",
            Semantics::MinimalCwa,
            certified,
            &DispatchOptions::default(),
        )
        .expect("served");
    let cert = served.plan.certificate().expect("certified over the core");
    assert_eq!(cert.expectation, Expectation::WorksOverCores);
    assert!(cert.core_checked);
    let fresh = engine.evaluate(
        &core,
        Semantics::MinimalCwa,
        &PreparedQuery::parse(certified).unwrap(),
    );
    assert_eq!(served, fresh, "{certified}");
}

const FRAGMENTS: [Fragment; 5] = [
    Fragment::ExistentialPositive,
    Fragment::Positive,
    Fragment::PositiveGuarded,
    Fragment::ExistentialPositiveBooleanGuarded,
    Fragment::FullFirstOrder,
];
