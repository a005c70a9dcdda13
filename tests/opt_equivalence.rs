//! Differential property suite for **`nev-opt`**: the optimised plan, the
//! unoptimised (literal syntactic) plan and the tree-walking interpreter agree
//! on every answer — raw, naïve and certain — across seeded workloads of all
//! five fragments and three semantics.
//!
//! * `optimised ≡ unoptimised ≡ interpreter` on raw answers
//!   (`execute` vs `evaluate_query`) and naïve answers (naïve `execute` vs
//!   `naive_eval_query`), on the generated instance and on the empty instance;
//! * certain answers under OWA / CWA / WCWA: a `CertainEngine` dispatching on
//!   the optimised plan, one on the unoptimised plan, and an
//!   interpreter-only world-intersection oracle built from public primitives
//!   all coincide;
//! * plans where **zero rules fire** stay byte-identical to the logical
//!   lowering and still agree;
//! * plans where **join reordering changes the shape** (skewed cardinalities)
//!   report `joins_reordered > 0` and still agree.

use proptest::prelude::*;

use nev_bench::workloads::{
    cell_workload, join_chain_query, negation_query, negation_workload, skewed_join_workload,
    DEFAULT_SEED,
};
use nev_core::engine::{boolean_answers, CertainEngine, PreparedQuery};
use nev_core::{Semantics, WorldBounds};
use nev_exec::{CompiledQuery, CompilerConfig, InternedInstance, RunOptions};
use nev_incomplete::{Instance, Tuple};
use nev_logic::eval::{evaluate_boolean, evaluate_query, naive_eval_query};
use nev_logic::{Fragment, Query};
use std::collections::BTreeSet;

fn unoptimized_config() -> CompilerConfig {
    CompilerConfig {
        optimize: false,
        ..CompilerConfig::default()
    }
}

/// The three semantics the suite sweeps (one per homomorphism family of the
/// paper's Figure 1 rows with distinct world streams).
const SEMANTICS: [Semantics; 3] = [Semantics::Owa, Semantics::Cwa, Semantics::Wcwa];

fn small_bounds() -> WorldBounds {
    WorldBounds {
        owa_max_extra_tuples: 1,
        wcwa_max_extra_tuples: 1,
        ..WorldBounds::default()
    }
}

/// Certain answers via the tree-walking interpreter only: intersect
/// `evaluate_query` (restricted to the allowed constants, complete tuples) over
/// the streamed worlds. This shares no executor code with the compiled paths.
fn interpreter_certain(
    engine: &CertainEngine,
    d: &Instance,
    semantics: Semantics,
    prepared: &PreparedQuery,
) -> BTreeSet<Tuple> {
    let bounds = prepared.bounds(engine.bounds());
    let allowed = prepared.allowed_constants(d);
    let mut certain: Option<BTreeSet<Tuple>> = None;
    for world in semantics.worlds(d, &bounds) {
        let answers: BTreeSet<Tuple> = if prepared.is_boolean() {
            boolean_answers(evaluate_boolean(&world, prepared.query().formula()))
        } else {
            evaluate_query(&world, prepared.query())
                .into_iter()
                .filter(|t| t.constants().all(|c| allowed.contains(c)) && t.is_complete())
                .collect()
        };
        let next = match certain.take() {
            None => answers,
            Some(prev) => prev.intersection(&answers).cloned().collect(),
        };
        let empty = next.is_empty();
        certain = Some(next);
        if empty {
            break;
        }
    }
    certain.unwrap_or_default()
}

/// Asserts optimised ≡ unoptimised ≡ interpreter on raw and naïve answers.
/// Returns the optimised plan when the query compiles.
fn assert_exec_equivalent(d: &Instance, q: &Query) -> Option<CompiledQuery> {
    let Ok(optimized) = CompiledQuery::compile(q) else {
        // Rejection is shape-based, so the unoptimised compile must agree.
        assert!(CompiledQuery::compile_with(q, &unoptimized_config()).is_err());
        return None;
    };
    let unoptimized =
        CompiledQuery::compile_with(q, &unoptimized_config()).expect("same shape gate");
    let raw = evaluate_query(d, q);
    assert_eq!(
        optimized
            .execute(&InternedInstance::new(d), &RunOptions::default())
            .answers,
        raw,
        "optimised raw on `{q}`"
    );
    assert_eq!(
        unoptimized
            .execute(&InternedInstance::new(d), &RunOptions::default())
            .answers,
        raw,
        "unoptimised raw on `{q}`"
    );
    let naive = naive_eval_query(d, q);
    assert_eq!(
        optimized
            .execute(&InternedInstance::new(d), &RunOptions::naive())
            .answers,
        naive,
        "optimised naive on `{q}`"
    );
    assert_eq!(
        unoptimized
            .execute(&InternedInstance::new(d), &RunOptions::naive())
            .answers,
        naive,
        "unoptimised naive on `{q}`"
    );
    Some(optimized)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// Raw + naïve equivalence across all five fragments, on the generated
    /// instance and the empty instance.
    #[test]
    fn optimised_plans_match_unoptimised_and_interpreter(seed in 0u64..10_000) {
        let mut fired = 0u64;
        for fragment in Fragment::ALL {
            for (instance, query) in cell_workload(fragment, seed, 3) {
                if let Some(plan) = assert_exec_equivalent(&instance, &query) {
                    fired += plan.rules_fired();
                }
                assert_exec_equivalent(&Instance::new(), &query);
            }
        }
        // The sweep should exercise the optimiser, not just trivial plans.
        prop_assert!(fired > 0, "no rule fired across the whole sweep");
    }

    /// Certain answers across 5 fragments × 3 semantics: optimised dispatch,
    /// unoptimised dispatch and the interpreter-only oracle coincide.
    #[test]
    fn certain_answers_survive_optimisation(seed in 0u64..1_000) {
        let engine = CertainEngine::with_bounds(small_bounds());
        for fragment in Fragment::ALL {
            for semantics in SEMANTICS {
                let cell_seed = seed
                    .wrapping_mul(131)
                    .wrapping_add(semantics as u64 * 17 + fragment as u64);
                for (instance, query) in cell_workload(fragment, cell_seed, 1) {
                    let optimized = PreparedQuery::new(query.clone());
                    let unoptimized =
                        PreparedQuery::with_compiler_config(query, &unoptimized_config());
                    let a = engine.evaluate(&instance, semantics, &optimized);
                    let b = engine.evaluate(&instance, semantics, &unoptimized);
                    prop_assert_eq!(&a.certain, &b.certain, "{} × {}", semantics, fragment);
                    prop_assert_eq!(&a.naive, &b.naive, "{} × {}", semantics, fragment);
                    let oracle = interpreter_certain(&engine, &instance, semantics, &optimized);
                    prop_assert_eq!(
                        &a.certain,
                        &oracle,
                        "{} × {} vs interpreter oracle on\n{}",
                        semantics,
                        fragment,
                        &instance
                    );
                }
            }
        }
    }
}

#[test]
fn zero_rule_plans_stay_byte_identical_to_the_logical_lowering() {
    // A plain join pipeline: nothing to flatten, absorb, dedup or push — the
    // optimiser must leave it alone and say so.
    let q = nev_logic::parse_query("Q(x, y) :- exists z . R(x, z) & S(z, y)").expect("valid");
    let plan = CompiledQuery::compile(&q).expect("compiles");
    assert_eq!(plan.rules_fired(), 0);
    assert_eq!(plan.plan(), plan.logical_plan());
    assert!(plan.explain().contains("0 rules fired"));
    let d = nev_bench::workloads::intro_instance();
    assert_exec_equivalent(&d, &q);
}

#[test]
fn projections_already_on_their_leaves_fire_no_rule() {
    // The pushdown passes each of these projections through unchanged, so it
    // must not count a push: `rules=0` and the two plans are identical.
    for text in [
        "exists u . S(u)",
        "!(exists u . S(u))",
        "Q(x) :- exists y . R(x, y)",
    ] {
        let q = nev_logic::parse_query(text).expect("valid");
        let plan = CompiledQuery::compile(&q).expect("compiles");
        assert_eq!(plan.rules_fired(), 0, "{text}: {:?}", plan.rules());
        assert_eq!(plan.plan(), plan.logical_plan(), "{text}");
    }
}

#[test]
fn rules_fire_on_the_negation_workload_and_answers_agree() {
    let d = negation_workload(DEFAULT_SEED, 40);
    let q = negation_query();
    let plan = assert_exec_equivalent(&d, &q).expect("compiles");
    assert!(plan.rules_fired() > 0, "{}", plan.explain());
    let report = plan.rules();
    assert!(report.complements_rewritten > 0, "{report:?}");
    assert!(report.pads_absorbed > 0, "{report:?}");
    assert!(report.joins_distributed > 0, "{report:?}");
    // The optimised shape replaced the complement with an anti-join.
    assert!(
        plan.explain_compact().contains("AntiJoin"),
        "{}",
        plan.explain_compact()
    );
    assert!(plan.logical_plan().compact().contains("Complement"));
}

#[test]
fn join_reordering_changes_the_shape_and_answers_agree() {
    let d = skewed_join_workload(DEFAULT_SEED, 90, 2);
    let q = join_chain_query();
    let plan = assert_exec_equivalent(&d, &q).expect("compiles");
    let interned = InternedInstance::new(&d);
    let out = plan.execute(&interned, &RunOptions::naive());
    let (answers, stats) = (out.answers, out.stats);
    assert_eq!(answers, naive_eval_query(&d, &q));
    assert!(
        stats.joins_reordered > 0,
        "the skewed cardinalities must trigger a reorder: {stats}"
    );
    assert!(stats.estimated_rows > 0);
    // The unoptimised baseline executes in written order.
    let baseline = CompiledQuery::compile_with(&q, &unoptimized_config()).expect("compiles");
    let base = baseline.execute(&interned, &RunOptions::naive());
    let (base_answers, base_stats) = (base.answers, base.stats);
    assert_eq!(base_answers, answers);
    assert_eq!(base_stats.joins_reordered, 0);
    assert!(
        base_stats.intermediate_rows > stats.intermediate_rows,
        "reordering must shrink intermediates: {base_stats} vs {stats}"
    );
}

#[test]
fn dispatched_answers_match_the_interpreter_oracle_under_optimisation() {
    // The bounded oracle's per-world executions run the optimised plan too —
    // spot-check the dispatched answers against the interpreter oracle.
    let engine = CertainEngine::with_bounds(small_bounds());
    let d = nev_bench::workloads::d0();
    let queries = [
        engine.prepare("exists u . !D(u, u)").expect("valid"),
        engine
            .prepare("forall u . exists v . D(u, v)")
            .expect("valid"),
        engine
            .prepare("Q(u) :- exists v . D(u, v) & !D(v, u)")
            .expect("valid"),
    ];
    for semantics in SEMANTICS {
        for (i, q) in queries.iter().enumerate() {
            let solo = engine.evaluate(&d, semantics, q);
            let oracle = interpreter_certain(&engine, &d, semantics, q);
            assert_eq!(solo.certain, oracle, "query {i} under {semantics}");
        }
    }
}
