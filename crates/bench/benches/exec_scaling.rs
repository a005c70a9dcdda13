//! Experiment E16: morsel-driven parallel execution vs the sequential
//! vectorised pipeline, on the skewed join workload.
//!
//! The baseline (`sequential`) is `CompiledQuery::execute` with no pool —
//! exactly the PR 5 configuration every earlier measurement used. The `workers_N`
//! variants attach an `N`-worker `nev-runtime` pool through `ExecOptions` with a
//! morsel size small enough that the workload actually fans out; answers are
//! asserted identical before anything is timed (the determinism suite pins this
//! across worker counts).
//!
//! `workers_1` pins the pay-as-you-go guarantee: a pool with fewer than two
//! background workers cannot add parallel capacity, so `ExecOptions` runs the
//! sequential kernels unchanged and the variant must match `sequential` up to
//! noise. Read the multi-worker numbers with the container's CPU budget in
//! mind: on a single-core runner `workers_2`/`workers_4` measure coordination
//! overhead, not speed-up — `BENCH.md` records which kind of machine produced
//! each table.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use nev_bench::workloads::{join_chain_query, skewed_join_workload, DEFAULT_SEED};
use nev_exec::{CompiledQuery, ExecOptions, RunOptions};
use nev_serve::WorkerPool;

const BIG: usize = 2400;
const SMALL: usize = 40;
/// Small enough that the 2 400-row scans and probes split into several morsels.
const MORSEL_ROWS: usize = 512;

fn bench_exec_scaling(c: &mut Criterion) {
    let d = skewed_join_workload(DEFAULT_SEED, BIG, SMALL);
    let q = join_chain_query();
    let compiled = CompiledQuery::compile(&q).expect("the join chain compiles");

    // Answer-identity sanity check before timing anything.
    let reference = compiled.execute(&d, &RunOptions::naive());
    assert!(
        !reference.answers.is_empty(),
        "the seeded workload has answers"
    );
    for workers in [1, 2, 4] {
        let options = ExecOptions {
            pool: Some(Arc::new(WorkerPool::new(workers))),
            morsel_rows: MORSEL_ROWS,
        };
        let out = compiled.execute(&d, &RunOptions::naive().on(&options));
        assert_eq!(out.answers, reference.answers, "workers={workers}");
        if workers >= 2 {
            assert!(out.stats.morsels_dispatched > 0, "the morsel path engaged");
        } else {
            assert_eq!(out.stats.morsels_dispatched, 0, "no capacity, no fan-out");
        }
    }

    let mut group = c.benchmark_group("exec_scaling");
    group.bench_function("sequential", |b| {
        b.iter(|| compiled.execute(&d, &RunOptions::naive()).answers.len())
    });
    for workers in [1usize, 2, 4] {
        let options = ExecOptions {
            pool: Some(Arc::new(WorkerPool::new(workers))),
            morsel_rows: MORSEL_ROWS,
        };
        group.bench_function(format!("workers_{workers}"), |b| {
            b.iter(|| {
                compiled
                    .execute(&d, &RunOptions::naive().on(&options))
                    .answers
                    .len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_exec_scaling);
criterion_main!(benches);
