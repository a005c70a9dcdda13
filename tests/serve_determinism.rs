//! The determinism and parallel-equivalence suite for `nev-serve`.
//!
//! Concurrency must never change an answer. Three layers of proof:
//!
//! 1. **Figure 1 determinism** — routing cell validation through the worker pool
//!    (the `figure1 --threads` path) renders a byte-identical Markdown table at
//!    0, 1, 2 and 8 workers for the same seed;
//! 2. **service determinism** — the seeded load-generator workload produces
//!    byte-identical response lines (certain-answer sets included) at 0, 1, 2
//!    and 8 workers, on the oracle and the certified compiled paths alike;
//! 3. **parallel ≡ sequential** — a proptest over seeded workloads of all five
//!    fragments: the chunked parallel oracle's verdict equals the engine's
//!    sequential oracle on every trial, for every chunk size tried.

use std::sync::Arc;

use proptest::prelude::*;

use naive_eval::bench::figure1::{cell_pairs, render_markdown, run_cell, Figure1Config};
use naive_eval::bench::workloads::cell_workload;
use naive_eval::core::engine::CertainEngine;
use naive_eval::core::{Semantics, WorldBounds};
use naive_eval::logic::Fragment;
use naive_eval::serve::oracle::parallel_certain_answers;
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

/// The served workload end to end: identical request streams must yield identical
/// response bytes at every worker count (certified and oracle paths both).
#[test]
fn served_responses_are_byte_identical_across_worker_counts() {
    let generated = workload(20130622, 2, 18);
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
        transcripts[0].iter().any(|r| r.contains("plan=oracle")),
        "the workload exercised the parallel oracle: {transcripts:?}"
    );
}

/// The certified exec path on a pooled service: the compiled executor runs on
/// the thread serving the request, and the rendered certain-answer sets must be
/// byte-identical at every worker count.
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

/// Batched evaluation is deterministic too: the same batch at different worker
/// counts scatter-gathers into identical per-request responses.
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

const FRAGMENTS: [Fragment; 5] = [
    Fragment::ExistentialPositive,
    Fragment::Positive,
    Fragment::PositiveGuarded,
    Fragment::ExistentialPositiveBooleanGuarded,
    Fragment::FullFirstOrder,
];

proptest! {
    // Each case sweeps 5 fragments × 3 semantics through both oracles.
    #![proptest_config(ProptestConfig { cases: 4, .. ProptestConfig::default() })]

    /// The chunked parallel oracle's verdict equals the sequential oracle's on
    /// seeded workloads of every fragment, across chunk sizes and worker counts.
    #[test]
    fn parallel_oracle_verdicts_equal_sequential_verdicts(seed in 0u64..10_000) {
        let engine = CertainEngine::with_bounds(bounds());
        let pool = WorkerPool::new(3);
        for fragment in FRAGMENTS {
            let trial_seed = seed.wrapping_mul(97).wrapping_add(fragment as u64);
            let (instance, query) = cell_workload(fragment, trial_seed, 1)
                .pop()
                .expect("one trial");
            let prepared = Arc::new(naive_eval::core::PreparedQuery::new(query));
            for semantics in [Semantics::Owa, Semantics::Cwa, Semantics::PowersetCwa] {
                let sequential = engine.certain_answers(&instance, semantics, &prepared);
                for chunk in [1, 4, 32] {
                    let parallel = parallel_certain_answers(
                        &pool, &engine, &instance, semantics, &prepared, chunk,
                    );
                    prop_assert_eq!(
                        &parallel.certain,
                        &sequential,
                        "{} × {} chunk={} on\n{}",
                        semantics,
                        fragment,
                        chunk,
                        instance
                    );
                }
            }
        }
    }
}
