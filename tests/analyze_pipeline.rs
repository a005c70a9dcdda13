//! End-to-end acceptance for the static analyser (`nev-analyze`): on seeded
//! generated instances, an FO-classified query whose normal form is ∃Pos
//!
//! * is **widened** by the normalization pipeline (`FO → ∃Pos`, non-empty
//!   replayable trace),
//! * dispatches on the **certified naïve path over its normal form**
//!   (`EvalPlan::Naive` with a normalized certificate, zero worlds enumerated),
//! * carries a certificate that **re-checks** — both the trace replay and the
//!   differential run on the concrete instance — and
//! * returns answers **byte-identical** to the *untruncated* bounded oracle's.

use nev_core::engine::{CertainEngine, PreparedQuery};
use nev_core::summary::{expectation, Expectation};
use nev_core::{Semantics, WorldBounds};
use nev_gen::{InstanceGenerator, InstanceGeneratorConfig};
use nev_incomplete::Instance;
use nev_logic::parser::parse_formula;
use nev_logic::{Fragment, Query};

/// A seeded incomplete instance over the default R/2, S/1 schema.
fn seeded_instance(seed: u64) -> Instance {
    InstanceGenerator::new(InstanceGeneratorConfig::default(), seed).generate()
}

/// An FO-classified sentence (double negation) whose normal form is the plain
/// ∃Pos sentence inside it.
fn widened_query() -> PreparedQuery {
    let formula = parse_formula("!(!(exists u v . R(u, v) & S(v)))").expect("fixture parses");
    PreparedQuery::new(Query::boolean(formula))
}

#[test]
fn fo_query_is_widened_certified_and_matches_the_untruncated_oracle() {
    let query = widened_query();

    // Static side: classification says FO, normalization lands in ∃Pos, and the
    // trace replays (machine-checkable certificate, no instance needed).
    assert_eq!(query.fragment(), Fragment::FullFirstOrder);
    assert_eq!(query.normalized_fragment(), Fragment::ExistentialPositive);
    assert!(query.normalization_changed());
    assert!(!query.analysis().trace().is_empty());
    query
        .check_normalization()
        .expect("normalization trace replays");

    // The raw cell carries no guarantee — the upgrade is the analyser's doing.
    for semantics in [Semantics::Cwa, Semantics::Owa] {
        assert_eq!(
            expectation(semantics, query.fragment()),
            Expectation::NotGuaranteed
        );
        assert_eq!(
            expectation(semantics, query.normalized_fragment()),
            Expectation::Works
        );
    }

    let bounds = WorldBounds {
        owa_max_extra_tuples: 1,
        ..WorldBounds::default()
    };
    let engine = CertainEngine::with_bounds(bounds);

    for seed in [7u64, 23, 4242] {
        let instance = seeded_instance(seed);
        // Differential certificate: the normal form agrees with the original's
        // naïve answers on this concrete instance.
        query
            .check_normalization_on(&instance)
            .expect("certificate re-checks on the instance");

        for semantics in [Semantics::Cwa, Semantics::Owa] {
            let plan = engine.plan(&instance, semantics, &query);
            assert!(
                plan.is_normalized(),
                "{semantics} seed {seed}: expected a normalized-naïve plan, got {plan:?}"
            );
            let cert = plan
                .certificate()
                .expect("normalized plans carry a certificate");
            assert!(
                cert.check(),
                "{semantics} seed {seed}: certificate re-check"
            );

            // Certified side: naïve pass over the normal form, zero worlds.
            let planned = engine.evaluate(&instance, semantics, &query);
            assert!(planned.plan.is_normalized());
            assert_eq!(planned.worlds_enumerated, 0, "{semantics} seed {seed}");
            assert!(!planned.truncated);
            assert!(
                planned.agrees(),
                "{semantics} seed {seed}: naive == certain"
            );

            // Oracle side: the forced bounded enumeration must not have been
            // truncated (its verdict is exact) and must agree byte-for-byte.
            let oracle = engine.compare(&instance, semantics, &query);
            assert!(
                !oracle.truncated,
                "{semantics} seed {seed}: oracle was truncated — bounds too tight \
                 for an exact reference"
            );
            assert!(oracle.worlds_enumerated > 0, "{semantics} seed {seed}");
            assert_eq!(
                planned.certain, oracle.certain,
                "{semantics} seed {seed}: normalized dispatch changed the answer"
            );
            assert_eq!(
                format!("{:?}", planned.certain),
                format!("{:?}", oracle.certain),
                "{semantics} seed {seed}: rendered answers differ"
            );
        }
    }
}

#[test]
fn statically_false_queries_prune_to_the_empty_answer() {
    let formula = parse_formula("exists u . R(u, u) & !R(u, u)").expect("fixture parses");
    let query = PreparedQuery::new(Query::boolean(formula));
    assert_eq!(query.analysis().static_truth(), Some(false));

    let engine = CertainEngine::new();
    for seed in [7u64, 23] {
        let instance = seeded_instance(seed);
        for semantics in Semantics::ALL {
            let result = engine.evaluate(&instance, semantics, &query);
            assert!(
                result.certain.is_empty(),
                "{semantics} seed {seed}: a statically-false query has no certain answers"
            );
            assert_eq!(
                result.worlds_enumerated, 0,
                "{semantics} seed {seed}: pruned queries never enumerate"
            );
        }
    }
}
