//! Experiment E12: the cost model of the `CertainEngine` dispatch table.
//!
//! Two ways of answering the same seeded Figure 1 workloads, on the same engine:
//!
//! * **certified_naive** — `CertainEngine::evaluate` on cells Figure 1 guarantees:
//!   the plan is `EvalPlan::Naive`, so each query costs one naïve evaluation pass and
//!   zero world enumerations;
//! * **bounded_enumeration** — `CertainEngine::compare` on the same queries: the
//!   ground-truth oracle the engine avoids when the theorem applies.

use criterion::{criterion_group, criterion_main, Criterion};

use nev_bench::workloads::{cell_workload, DEFAULT_SEED};
use nev_core::engine::{CertainEngine, PreparedQuery};
use nev_core::{Semantics, WorldBounds};
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

criterion_group!(benches, bench_certified_vs_bounded);
criterion_main!(benches);
