//! Experiment E14: the `nev-opt` optimiser vs the PR 3 compiled baseline.
//!
//! Both sides run the same `nev-exec` executor; the only difference is the
//! plan. `baseline` compiles with `optimize: false` (the literal syntactic
//! lowering, exactly what PR 3 executed) and `optimized` with the default
//! config (rule stage at compile time + cost-based join ordering at execution
//! time). Answer-identity is asserted before anything is timed.
//!
//! * **join_chain** — [`skewed_join_workload`]: `R`, `S` big, `T` tiny. The
//!   written order joins `R ⋈ S` first; the greedy cost order starts from `T`.
//! * **negation** — [`negation_workload`]: `R(u,v) ∧ (E(u) ∨ ¬S(v))`. The
//!   literal lowering materialises active-domain pads and a complement; the
//!   rule stage rewrites them into `(R ⋈ E) ∪ (R ▷ S)`.

use criterion::{criterion_group, criterion_main, Criterion};

use nev_bench::workloads::{
    join_chain_query, negation_query, negation_workload, skewed_join_workload, DEFAULT_SEED,
};
use nev_exec::{CompiledQuery, CompilerConfig, InternedInstance, RunOptions};
use nev_incomplete::Instance;
use nev_logic::Query;

const SKEW_BIG: usize = 600;
const SKEW_SMALL: usize = 4;
const NEGATION_TUPLES: usize = 400;

fn baseline_config() -> CompilerConfig {
    CompilerConfig {
        optimize: false,
        ..CompilerConfig::default()
    }
}

fn bench_pair(c: &mut Criterion, group_name: &str, d: &Instance, q: &Query) {
    let baseline = CompiledQuery::compile_with(q, &baseline_config()).expect("compiles");
    let optimized = CompiledQuery::compile(q).expect("compiles");
    let interned = InternedInstance::new(d);

    // Answer-identity sanity check before timing anything.
    let reference = baseline.execute(&interned, &RunOptions::naive()).answers;
    assert_eq!(
        optimized.execute(&interned, &RunOptions::naive()).answers,
        reference
    );
    assert!(!reference.is_empty(), "the seeded workload has answers");

    let mut group = c.benchmark_group(group_name);
    // Cold: intern + execute per call (the engine's per-world usage pattern).
    group.bench_function("baseline_cold", |b| {
        b.iter(|| {
            baseline
                .execute(&InternedInstance::new(d), &RunOptions::naive())
                .answers
                .len()
        })
    });
    group.bench_function("optimized_cold", |b| {
        b.iter(|| {
            optimized
                .execute(&InternedInstance::new(d), &RunOptions::naive())
                .answers
                .len()
        })
    });
    // Warm: interning amortised, plan execution only (the repeated
    // same-instance pattern — interning is identical on both sides).
    group.bench_function("baseline_warm", |b| {
        b.iter(|| {
            baseline
                .execute(&interned, &RunOptions::naive())
                .answers
                .len()
        })
    });
    group.bench_function("optimized_warm", |b| {
        b.iter(|| {
            optimized
                .execute(&interned, &RunOptions::naive())
                .answers
                .len()
        })
    });
    group.finish();
}

fn bench_join_chain(c: &mut Criterion) {
    let d = skewed_join_workload(DEFAULT_SEED, SKEW_BIG, SKEW_SMALL);
    bench_pair(c, "opt_pipeline/join_chain", &d, &join_chain_query());
}

fn bench_negation(c: &mut Criterion) {
    let d = negation_workload(DEFAULT_SEED, NEGATION_TUPLES);
    bench_pair(c, "opt_pipeline/negation", &d, &negation_query());
}

criterion_group!(benches, bench_join_chain, bench_negation);
criterion_main!(benches);
