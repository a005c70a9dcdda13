//! Experiment E13: the compiled `nev-exec` pipeline vs the tree-walking
//! interpreter, on the seeded join-heavy workload.
//!
//! Both sides compute exactly the same naïve answers (the differential suite
//! `tests/exec_equivalence.rs` proves answer-identity); this benchmark measures the
//! cost gap between candidate-at-a-time evaluation (`O(|adom|⁴)` candidate checks
//! for the two-join chain) and two set-at-a-time hash joins over interned codes:
//!
//! * **interpreter** — `nev_logic::naive_eval_query`, the path every certified
//!   cell used before `nev-exec` existed (and the fallback path today);
//! * **compiled_cold** — `CompiledQuery::execute` under `RunOptions::naive()`, interning the instance on
//!   every call (the engine's per-world usage pattern);
//! * **compiled_warm** — plan + interning amortised, execution only (the repeated
//!   same-instance usage pattern);
//! * **engine_certified** — the full `CertainEngine::evaluate` dispatch on the
//!   guaranteed ∃Pos × OWA cell, certificate checks included.

use criterion::{criterion_group, criterion_main, Criterion};

use nev_bench::workloads::{join_chain_query, join_workload, DEFAULT_SEED};
use nev_core::engine::{CertainEngine, PreparedQuery};
use nev_core::Semantics;
use nev_exec::{CompiledQuery, InternedInstance, RunOptions};
use nev_logic::naive_eval_query;

const TUPLES_PER_RELATION: usize = 24;

fn bench_interpreter_vs_compiled(c: &mut Criterion) {
    let d = join_workload(DEFAULT_SEED, TUPLES_PER_RELATION);
    let q = join_chain_query();
    let compiled = CompiledQuery::compile(&q).expect("the join chain compiles");
    let interned = InternedInstance::new(&d);

    // Answer-identity sanity check before timing anything.
    let reference = naive_eval_query(&d, &q);
    assert_eq!(
        compiled.execute(&interned, &RunOptions::naive()).answers,
        reference
    );
    assert!(!reference.is_empty(), "the seeded workload has answers");

    let mut group = c.benchmark_group("exec_pipeline");
    group.bench_function("interpreter", |b| b.iter(|| naive_eval_query(&d, &q).len()));
    group.bench_function("compiled_cold", |b| {
        b.iter(|| {
            compiled
                .execute(&InternedInstance::new(&d), &RunOptions::naive())
                .answers
                .len()
        })
    });
    group.bench_function("compiled_warm", |b| {
        b.iter(|| {
            compiled
                .execute(&interned, &RunOptions::naive())
                .answers
                .len()
        })
    });
    group.finish();
}

fn bench_engine_dispatch_on_joins(c: &mut Criterion) {
    let d = join_workload(DEFAULT_SEED, TUPLES_PER_RELATION);
    let engine = CertainEngine::new();
    let q = PreparedQuery::new(join_chain_query());
    assert!(q.compiles());

    let mut group = c.benchmark_group("exec_pipeline");
    group.bench_function("engine_certified", |b| {
        b.iter(|| {
            let eval = engine.evaluate(&d, Semantics::Owa, &q);
            assert!(eval.plan.is_compiled());
            eval.certain.len()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_interpreter_vs_compiled,
    bench_engine_dispatch_on_joins
);
criterion_main!(benches);
