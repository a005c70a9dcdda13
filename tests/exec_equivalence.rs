//! Differential property suite: the compiled `nev-exec` executor is
//! answer-identical to the tree-walking interpreter.
//!
//! * On seeded generated workloads across **all five fragments**, every query the
//!   compiler accepts satisfies `execute ≡ evaluate_query` (raw answers, nulls
//!   included) and naïve `execute ≡ naive_eval_query` (naïve answers) — on the
//!   generated instance, on its empty-schema variant, and on the empty instance.
//! * Handcrafted edge cases: empty instances, constants in atoms (present and
//!   absent from the instance), answer variables absent from the formula, repeated
//!   variables, equality atoms, shadowed quantifiers.
//! * Fallback behaviour: queries the compiler rejects (wide active-domain
//!   complements) route to the interpreter — `PreparedQuery::compiles()` is false,
//!   the engine's plan is certified (not compiled) on guaranteed
//!   cells, `ExecStats::fallbacks > 0`, and the answers are identical to the
//!   oracle's.

use proptest::prelude::*;

use nev_bench::workloads::cell_workload;
use nev_core::engine::{CertainEngine, EvalPlan, PreparedQuery};
use nev_core::{Semantics, WorldBounds};
use nev_exec::{CompileError, CompiledQuery, InternedInstance, RunOptions};
use nev_incomplete::Instance;
use nev_logic::eval::{evaluate_query, naive_eval_query};
use nev_logic::{parse_query, Fragment, Query};

/// Asserts compiled ≡ interpreter on one (instance, query) pair; returns whether
/// the query compiled.
fn assert_equivalent(d: &Instance, q: &Query) -> bool {
    let Ok(compiled) = CompiledQuery::compile(q) else {
        return false;
    };
    assert_eq!(
        compiled
            .execute(&InternedInstance::new(d), &RunOptions::default())
            .answers,
        evaluate_query(d, q),
        "raw answers differ for `{q}` on\n{d}"
    );
    assert_eq!(
        compiled
            .execute(&InternedInstance::new(d), &RunOptions::naive())
            .answers,
        naive_eval_query(d, q),
        "naive answers differ for `{q}` on\n{d}"
    );
    true
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, .. ProptestConfig::default() })]

    /// Compiled execution matches the interpreter on seeded workloads of every
    /// fragment, including on the empty instance.
    #[test]
    fn compiled_executor_matches_the_interpreter(seed in 0u64..10_000) {
        let mut compiled_count = 0usize;
        let mut total = 0usize;
        for fragment in Fragment::ALL {
            for (instance, query) in cell_workload(fragment, seed, 4) {
                total += 1;
                if assert_equivalent(&instance, &query) {
                    compiled_count += 1;
                }
                // The same query on an empty instance: quantifiers over an empty
                // active domain are the classic off-by-one in both engines.
                assert_equivalent(&Instance::new(), &query);
            }
        }
        // The guard only rejects wide complements, so the generated workloads
        // should compile overwhelmingly; an empty sample would make this suite
        // vacuous.
        prop_assert!(compiled_count * 2 >= total, "{compiled_count}/{total} compiled");
    }
}

#[test]
fn edge_cases_match_the_interpreter() {
    use nev_incomplete::builder::{c, x};
    use nev_incomplete::inst;

    let instances = [
        Instance::new(),
        inst! { "R" => [[c(1), c(2)]] },
        inst! { "R" => [[c(1), x(1)], [x(2), x(3)]], "S" => [[x(1), c(4)], [x(3), c(5)]] },
        inst! { "R" => [[x(1), x(1)], [x(1), x(2)]] },
        inst! { "R" => [[c(1), c(1)]], "S" => [[c(2), c(2)]] },
    ];
    let queries = [
        // Constants in atoms, present and absent from the instance.
        "exists u . R(1, u)",
        "exists u . R(9, u)",
        "Q(u) :- R(u, 2)",
        // Answer variables absent from the formula range over adom.
        "Q(u, v) :- R(u, u)",
        "Q(v) :- exists u . R(u, u)",
        // Repeated variables and equality atoms.
        "Q(u) :- R(u, u)",
        "exists u v . R(u, v) & u = v",
        "exists u . R(u, u) & u = 1",
        "exists u . u = u",
        // Shadowed quantifier: the inner u is independent of the outer one.
        "Q(u) :- R(u, u) & (exists u . S(u, u))",
        // Negation, guarded universals, plain universals.
        "exists u . !R(u, u)",
        "forall u v . R(u, v) -> R(v, u)",
        "forall u . exists v . R(u, v)",
        "Q(u) :- exists v . R(u, v) & !S(v, u)",
        // Disjunction with differing free-variable sets per disjunct.
        "Q(u, v) :- R(u, v) | S(v, u)",
        "Q(u, v) :- R(u, u) | S(v, v)",
    ];
    for d in &instances {
        for text in queries {
            let q = parse_query(text).expect("valid query");
            assert!(assert_equivalent(d, &q), "`{text}` should compile");
        }
    }
}

/// Universals with a guard, or with a body pushed into a conjunction: each
/// lowers `∀x̄ ψ` to `¬∃x̄ ν(ψ)`, so a guarded body becomes anti-joins.
const GUARDED_UNIVERSALS: [&str; 14] = [
    // Disjunctive bodies, one anti-join per disjunct.
    "forall u v . (R(u, v) -> (R(v, u) | S(u)))",
    "forall u v . (R(u, v) -> (S(u) | S(v) | u = v))",
    "forall u . (!S(u) | exists v . R(u, v))",
    // Nested guards.
    "forall v5 . (S(v5) -> (forall v6 . (S(v6) -> S(v6))))",
    "forall u . (S(u) -> (forall v . (R(u, v) -> S(v))))",
    "forall u v . (R(u, v) -> (R(v, v) -> R(v, u)))",
    // Guards with repeated variables or constants.
    "forall u . (R(u, u) -> S(u))",
    "forall u . (R(1, u) -> S(u))",
    "forall u . (R(u, 2) -> (S(u) | R(u, u)))",
    // A guard atom wider than the quantified variables.
    "Q(x) :- forall u . (R(x, u) -> S(u))",
    // A body with an outer free variable the guard does not bind.
    "Q(x) :- forall u . (S(u) -> R(x, u))",
    // Boolean guards and guards with a false consequent.
    "forall u v . (R(u, v) -> false)",
    "(exists u . S(u)) & (forall u v . (R(u, v) -> exists w . R(v, w)))",
    // Unguarded: once a 4-column complement, now two 2-column ones.
    "forall u v w t . R(u, v) | R(w, t)",
];

#[test]
fn guarded_universals_match_the_interpreter() {
    use nev_incomplete::builder::{c, x};
    use nev_incomplete::inst;

    let instances = [
        Instance::new(),
        inst! { "R" => [[c(1), c(2)]] },
        inst! { "R" => [[c(1), x(1)], [x(2), x(3)]], "S" => [[x(1)], [c(4)]] },
        inst! { "R" => [[x(1), x(1)], [x(1), x(2)]], "S" => [[x(1)]] },
        inst! { "R" => [[c(1), c(1)], [c(1), c(2)], [c(2), c(1)]], "S" => [[c(1)], [c(2)]] },
    ];
    for text in GUARDED_UNIVERSALS {
        let q = parse_query(text).expect("valid query");
        for d in &instances {
            assert!(assert_equivalent(d, &q), "`{text}` should compile");
        }
    }
}

/// The generated `Pos+∀G` and `∃Pos+∀G_bool` corpora compile without a single
/// interpreter fallback: every universal there is guarded, and a guarded
/// universal needs no complement wider than its unguarded body.
#[test]
fn generated_guarded_corpora_compile_without_fallbacks() {
    for fragment in [
        Fragment::PositiveGuarded,
        Fragment::ExistentialPositiveBooleanGuarded,
    ] {
        let rejected: Vec<String> = (0..2_000)
            .flat_map(|seed| cell_workload(fragment, seed, 1))
            .filter(|(_, q)| CompiledQuery::compile(q).is_err())
            .map(|(_, q)| q.to_string())
            .collect();
        assert!(rejected.is_empty(), "{fragment}: {rejected:?}");
    }
}

/// Queries whose lowering needs an active-domain complement wider than the
/// default limit: the compiler must reject them with `ComplementTooWide`.
fn rejected_queries() -> Vec<Query> {
    [
        "forall u v w t . R(u, v) & R(w, t)",
        "forall u v w t . ((R(u, v) & R(w, t)) | S(u))",
        "Q(a, b, e, f) :- !(R(a, b) & R(e, f))",
    ]
    .into_iter()
    .map(|text| parse_query(text).expect("valid query"))
    .collect()
}

#[test]
fn wide_complements_are_rejected_with_a_typed_error() {
    for q in rejected_queries() {
        let err = CompiledQuery::compile(&q).expect_err("must reject");
        assert!(
            matches!(
                err,
                CompileError::ComplementTooWide {
                    columns: 4,
                    limit: 3
                }
            ),
            "`{q}`: {err:?}"
        );
    }
}

#[test]
fn rejected_queries_fall_back_to_the_interpreter_with_identical_answers() {
    use nev_incomplete::builder::{c, x};
    use nev_incomplete::inst;

    let engine = CertainEngine::with_bounds(WorldBounds {
        owa_max_extra_tuples: 1,
        wcwa_max_extra_tuples: 1,
        ..WorldBounds::default()
    });
    let instances = [
        inst! { "R" => [[c(1), c(1)]] },
        inst! { "R" => [[c(1), x(1)], [x(1), c(1)]] },
    ];
    for query in rejected_queries() {
        let prepared = PreparedQuery::new(query.clone());
        assert!(!prepared.compiles(), "`{query}` must not compile");
        for d in &instances {
            for semantics in Semantics::ALL {
                let eval = engine.evaluate(d, semantics, &prepared);
                // The fallback is visible in the telemetry...
                assert!(
                    eval.exec.fallbacks > 0,
                    "`{query}` under {semantics}: {}",
                    eval.exec
                );
                assert!(!eval.plan.is_compiled());
                if let EvalPlan::Naive(cert) = eval.plan {
                    assert_eq!(
                        cert.executor,
                        nev_core::engine::Executor::Interpreter,
                        "`{query}` under {semantics}"
                    );
                }
                // ...and the answers are exactly the interpreter's.
                assert_eq!(
                    eval.naive,
                    naive_eval_query(d, &query),
                    "`{query}` under {semantics}"
                );
                let oracle = engine.compare(d, semantics, &prepared);
                assert_eq!(
                    eval.certain, oracle.certain,
                    "`{query}` under {semantics}: dispatch changed the answer"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 5, .. ProptestConfig::default() })]

    /// The engine's planned dispatch (compiled fast path included) never changes an
    /// answer relative to its own forced oracle, on any Figure 1 cell — the
    /// compiled-executor extension of the PR 2 equivalence property.
    #[test]
    fn engine_dispatch_with_compiled_plans_is_answer_preserving(seed in 0u64..1_000) {
        let engine = CertainEngine::with_bounds(WorldBounds {
            owa_max_extra_tuples: 1,
            wcwa_max_extra_tuples: 2,
            ..WorldBounds::default()
        });
        for semantics in Semantics::ALL {
            for fragment in Fragment::ALL {
                let cell_seed = seed
                    .wrapping_mul(97)
                    .wrapping_add(semantics as u64 * 13 + fragment as u64);
                for (instance, query) in cell_workload(fragment, cell_seed, 1) {
                    let prepared = PreparedQuery::new(query);
                    let planned = engine.evaluate(&instance, semantics, &prepared);
                    let oracle = engine.compare(&instance, semantics, &prepared);
                    prop_assert_eq!(&planned.naive, &oracle.naive, "{} × {}", semantics, fragment);
                    if planned.plan.is_certified() {
                        prop_assert_eq!(planned.worlds_enumerated, 0);
                        prop_assert_eq!(
                            &planned.certain,
                            &oracle.certain,
                            "{} × {} on\n{}",
                            semantics,
                            fragment,
                            &instance
                        );
                    }
                    if planned.plan.is_compiled() {
                        prop_assert_eq!(planned.exec.fallbacks, 0);
                    } else if prepared.compiles() {
                        // Bounded cells with a compiled plan still use it per world.
                        prop_assert_eq!(planned.exec.fallbacks, 0);
                    } else {
                        prop_assert!(planned.exec.fallbacks > 0);
                    }
                }
            }
        }
    }
}
