//! The determinism suite for `nev-serve` and `figure1`.
//!
//! Scheduling and replay must never change an answer. Two layers of proof:
//!
//! 1. **Figure 1 determinism** — routing cell validation through the worker pool
//!    (the `figure1 --threads` path) renders a byte-identical Markdown table at
//!    0, 1, 2 and 8 workers for the same seed;
//! 2. **service determinism** — the seeded load-generator workload produces
//!    byte-identical response lines (certain-answer sets included) and the
//!    same `worlds=` count when replayed on a fresh service, on the oracle and
//!    the certified compiled paths alike. `ServeConfig::workers` is accepted
//!    and ignored, so no value of it changes a served byte either.

use std::sync::Arc;

use naive_eval::bench::figure1::{cell_pairs, render_markdown, run_cell, Figure1Config};
use naive_eval::bench::workloads::cell_workload;
use naive_eval::core::engine::{CertainEngine, DispatchOptions, Evaluation, PreparedQuery};
use naive_eval::core::summary::Expectation;
use naive_eval::core::{Semantics, WorldBounds};
use naive_eval::incomplete::builder::x;
use naive_eval::incomplete::inst;
use naive_eval::logic::Fragment;
use naive_eval::serve::state::{ServeConfig, ServeState};
use naive_eval::serve::{workload, WorkerPool};

// Zero workers is the caller-helps degenerate pool: genuinely sequential, so
// every parallel rendering is checked against a no-thread baseline too.
const WORKER_COUNTS: [usize; 4] = [0, 1, 2, 8];

/// Every transcript must match the first (the workers=0 sequential baseline).
fn assert_all_identical<T: PartialEq + std::fmt::Debug>(outputs: &[T]) {
    for (i, output) in outputs.iter().enumerate().skip(1) {
        assert_eq!(
            &outputs[0], output,
            "workers={} diverged from workers={}",
            WORKER_COUNTS[i], WORKER_COUNTS[0]
        );
    }
}

fn bounds() -> WorldBounds {
    WorldBounds {
        owa_max_extra_tuples: 1,
        wcwa_max_extra_tuples: 2,
        ..WorldBounds::default()
    }
}

/// Figure 1 through the pool: the rendered table must not depend on the worker
/// count — scheduling decides who validates a cell, never what the cell reports.
#[test]
fn figure1_tables_are_byte_identical_across_worker_counts() {
    let config = Figure1Config {
        trials: 2,
        ..Figure1Config::quick()
    };
    let mut tables = Vec::new();
    for workers in WORKER_COUNTS {
        let pool = WorkerPool::new(workers);
        let config = Arc::new(config.clone());
        let outcomes = pool.run(cell_pairs(None, None), move |_, (semantics, fragment)| {
            run_cell(semantics, fragment, &config)
        });
        tables.push(render_markdown(&outcomes));
    }
    assert_all_identical(&tables);
    assert!(tables[0].contains("OWA"), "the table rendered");
}

/// The served workload end to end: replaying one request stream on a fresh
/// service must yield identical response bytes (certified and oracle paths
/// both) and count the same worlds.
#[test]
fn served_responses_are_byte_identical_across_replays() {
    let generated = workload(20130622, 2, 18);
    let replay = || {
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
    };
    let first = replay();
    assert_eq!(first, replay());
    assert!(
        first.iter().any(|r| r.contains("plan=oracle")),
        "the workload exercised the oracle: {first:?}"
    );
    assert_ne!(first.last().map(String::as_str), Some("worlds=0"));
}

/// The certified exec path: the compiled executor runs on the thread serving
/// the request, and the rendered certain-answer sets must be byte-identical
/// whatever the (ignored) worker count says.
#[test]
fn compiled_exec_responses_are_byte_identical_across_worker_counts() {
    let generated = workload(20130701, 2, 18);
    let mut transcripts: Vec<Vec<String>> = Vec::new();
    for workers in WORKER_COUNTS {
        let state = ServeState::new(ServeConfig {
            workers,
            bounds: bounds(),
            ..ServeConfig::default()
        });
        for (name, instance) in &generated.instances {
            state.load(name.clone(), instance.clone());
        }
        let responses: Vec<String> = generated
            .requests
            .iter()
            .map(|request| {
                state
                    .eval(&request.instance, request.semantics, &request.query)
                    .map(|r| r.render())
                    .unwrap_or_else(|e| format!("ERR {e}"))
            })
            .collect();
        transcripts.push(responses);
    }
    assert_all_identical(&transcripts);
    assert!(
        transcripts[0].iter().any(|r| r.contains("plan=compiled")),
        "the workload exercised the certified exec path: {transcripts:?}"
    );
}

/// Batched evaluation is deterministic too: the same batch under every
/// (ignored) worker count answers with identical per-request responses.
#[test]
fn batched_responses_are_byte_identical_across_worker_counts() {
    let generated = workload(7, 2, 18);
    let requests: Vec<_> = generated
        .requests
        .iter()
        .map(|r| naive_eval::serve::EvalRequest {
            instance: r.instance.clone(),
            semantics: r.semantics,
            query: r.query.clone(),
        })
        .collect();
    let mut transcripts: Vec<Vec<String>> = Vec::new();
    for workers in WORKER_COUNTS {
        let state = ServeState::new(ServeConfig {
            workers,
            bounds: bounds(),
            ..ServeConfig::default()
        });
        for (name, instance) in &generated.instances {
            state.load(name.clone(), instance.clone());
        }
        transcripts.push(
            state
                .eval_batch(&requests)
                .into_iter()
                .map(|r| {
                    r.map(|ok| ok.render())
                        .unwrap_or_else(|e| format!("ERR {e}"))
                })
                .collect(),
        );
    }
    assert_all_identical(&transcripts);
}

/// Field-by-field agreement of two evaluations: plan (with its certificate,
/// `core_checked` included), naïve and certain answers, worlds visited and
/// truncation.
fn assert_same_evaluation(served: &Evaluation, fresh: &Evaluation, context: &str) {
    assert_eq!(served.plan, fresh.plan, "{context}");
    assert_eq!(served.naive, fresh.naive, "{context}");
    assert_eq!(served.certain, fresh.certain, "{context}");
    assert_eq!(
        served.worlds_enumerated, fresh.worlds_enumerated,
        "{context}"
    );
    assert_eq!(served.truncated, fresh.truncated, "{context}");
}

/// Derived state cached on a catalog entry changes no answer: repeated
/// requests on one snapshot — the first builds its interned form and core
/// bit, the rest reuse them — equal a fresh `CertainEngine::evaluate` on the
/// bare instance, for every Figure 1 workload query under every semantics,
/// world counts included.
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
                    assert_same_evaluation(&served, &fresh, &context);
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
    assert_same_evaluation(&served, &fresh, ladder);
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
    assert_same_evaluation(&served, &fresh, certified);
}

const FRAGMENTS: [Fragment; 5] = [
    Fragment::ExistentialPositive,
    Fragment::Positive,
    Fragment::PositiveGuarded,
    Fragment::ExistentialPositiveBooleanGuarded,
    Fragment::FullFirstOrder,
];
