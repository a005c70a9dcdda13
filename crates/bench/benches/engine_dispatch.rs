//! Experiment E12: the cost model of the `CertainEngine` dispatch table.
//!
//! Three ways of answering the same seeded Figure 1 workloads, on the same engine:
//!
//! * **certified_naive** — `CertainEngine::evaluate` on cells Figure 1 guarantees:
//!   the plan is `EvalPlan::Naive`, so each query costs one naïve evaluation pass and
//!   zero world enumerations;
//! * **bounded_enumeration** — `CertainEngine::compare` on the same queries: the
//!   ground-truth oracle the engine avoids when the theorem applies;
//! * **batched** — `CertainEngine::evaluate_all` over a whole query batch under a
//!   semantics where the queries need the oracle: one shared world pass folds every
//!   per-query intersection, versus one pass per query when evaluated sequentially.

use criterion::{criterion_group, criterion_main, Criterion};

use nev_bench::workloads::{cell_workload, DEFAULT_SEED};
use nev_core::engine::{CertainEngine, PreparedQuery};
use nev_core::{Semantics, Snapshot, WorldBounds};
use nev_logic::Fragment;

fn dispatch_bounds() -> WorldBounds {
    WorldBounds {
        owa_max_extra_tuples: 1,
        wcwa_max_extra_tuples: 2,
        ..WorldBounds::default()
    }
}

/// Certified fast path vs the bounded oracle it replaces, on ∃Pos under OWA — the
/// canonical `Works` cell of Figure 1.
fn bench_certified_vs_bounded(c: &mut Criterion) {
    let engine = CertainEngine::with_bounds(dispatch_bounds());
    let workload: Vec<_> = cell_workload(Fragment::ExistentialPositive, DEFAULT_SEED, 8)
        .into_iter()
        .map(|(d, q)| (d, PreparedQuery::new(q)))
        .collect();
    let mut group = c.benchmark_group("engine_dispatch");
    group.bench_function("certified_naive", |b| {
        b.iter(|| {
            workload
                .iter()
                .map(|(d, q)| engine.evaluate(d, Semantics::Owa, q).certain.len())
                .sum::<usize>()
        })
    });
    group.bench_function("bounded_enumeration", |b| {
        b.iter(|| {
            workload
                .iter()
                .map(|(d, q)| engine.compare(d, Semantics::Owa, q).certain.len())
                .sum::<usize>()
        })
    });
    group.finish();
}

/// Batched single-pass evaluation vs sequential per-query oracle passes: the same
/// Pos-fragment queries on one instance under OWA, where no certificate applies.
fn bench_batched_vs_sequential(c: &mut Criterion) {
    let engine = CertainEngine::with_bounds(dispatch_bounds());
    let workload = cell_workload(Fragment::Positive, DEFAULT_SEED, 6);
    // One shared instance, many queries — the batch API's target shape.
    let instance = workload[0].0.clone();
    let queries: Vec<PreparedQuery> = workload
        .into_iter()
        .map(|(_, q)| PreparedQuery::new(q))
        .collect();
    let mut group = c.benchmark_group("engine_batch");
    group.bench_function("sequential_oracle_passes", |b| {
        b.iter(|| {
            queries
                .iter()
                .map(|q| engine.compare(&instance, Semantics::Owa, q).certain.len())
                .sum::<usize>()
        })
    });
    group.bench_function("single_pass_evaluate_all", |b| {
        b.iter(|| {
            engine
                .evaluate_all(&Snapshot::new(&instance), Semantics::Owa, &queries)
                .worlds_enumerated
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_certified_vs_bounded,
    bench_batched_vs_sequential
);
criterion_main!(benches);
