//! Property tests for the `CertainEngine`: on seeded generated workloads across all
//! 6 semantics × 5 fragments,
//!
//! * the engine's planned dispatch returns **identical answers** to its forced
//!   bounded oracle and to the raw interpreter's naïve pass — the certified naïve
//!   fast path never changes a result, it only skips work;
//! * certified naïve plans are chosen **only** for cells Figure 1 guarantees
//!   (`Works` unconditionally, `WorksOverCores` after verifying the instance is a
//!   core), and every issued certificate passes its own `check()`.

use proptest::prelude::*;

use nev_bench::workloads::cell_workload;
use nev_core::engine::{CertainEngine, PreparedQuery};
use nev_core::summary::{expectation, Expectation, FRAGMENTS};
use nev_core::{Semantics, WorldBounds};
use nev_hom::{core_of, is_core};

fn bounds() -> WorldBounds {
    WorldBounds {
        owa_max_extra_tuples: 1,
        wcwa_max_extra_tuples: 2,
        ..WorldBounds::default()
    }
}

/// One seeded trial per Figure 1 cell; `WorksOverCores` cells are exercised on the
/// core of the generated instance, mirroring the Figure 1 harness.
fn cell_trials(
    seed: u64,
) -> impl Iterator<Item = (Semantics, PreparedQuery, nev_incomplete::Instance)> {
    Semantics::ALL.into_iter().flat_map(move |semantics| {
        FRAGMENTS.into_iter().map(move |fragment| {
            let cell_seed = seed
                .wrapping_mul(131)
                .wrapping_add(semantics as u64 * 31 + fragment as u64);
            let (instance, query) = cell_workload(fragment, cell_seed, 1)
                .pop()
                .expect("one trial");
            let instance = if expectation(semantics, fragment) == Expectation::WorksOverCores {
                core_of(&instance)
            } else {
                instance
            };
            (semantics, PreparedQuery::new(query), instance)
        })
    })
}

proptest! {
    // Plans never enumerate worlds, so this property can afford many seeds.
    #![proptest_config(ProptestConfig { cases: 25, .. ProptestConfig::default() })]

    /// A certified naïve plan is chosen exactly where Figure 1 guarantees it, and every
    /// certificate re-checks against the machine-readable table.
    #[test]
    fn certified_plans_only_on_guaranteed_cells(seed in 0u64..10_000) {
        let engine = CertainEngine::with_bounds(bounds());
        for (semantics, query, instance) in cell_trials(seed) {
            let plan = engine.plan(&instance, semantics, &query);
            // The generator targets a fragment but classification picks the smallest
            // one, so consult the table for the query's *actual* fragment.
            let cell = expectation(semantics, query.fragment());
            let should_certify = match cell {
                Expectation::Works => true,
                Expectation::WorksOverCores => is_core(&instance),
                Expectation::NotGuaranteed => false,
            };
            if plan.is_normalized() {
                // A normalized upgrade is only legal where the raw cell carries
                // no guarantee but the normal form's cell does.
                prop_assert!(!should_certify, "{} × {}", semantics, query.fragment());
                let upgraded = expectation(semantics, query.normalized_fragment());
                let upgrade_ok = match upgraded {
                    Expectation::Works => true,
                    Expectation::WorksOverCores => is_core(&instance),
                    Expectation::NotGuaranteed => false,
                };
                prop_assert!(
                    upgrade_ok,
                    "{} × {} normalized to {}",
                    semantics,
                    query.fragment(),
                    query.normalized_fragment()
                );
            } else {
                prop_assert_eq!(
                    plan.is_certified(),
                    should_certify,
                    "{} × {} on core={}",
                    semantics,
                    query.fragment(),
                    is_core(&instance)
                );
            }
            if let Some(cert) = plan.certificate() {
                prop_assert!(cert.check(), "{} × {}", semantics, query.fragment());
            }
        }
    }
}

proptest! {
    // Each case sweeps all 30 cells through the bounded oracle — keep the count low.
    #![proptest_config(ProptestConfig { cases: 3, .. ProptestConfig::default() })]

    /// The planned dispatch (certified fast path included) returns exactly the same
    /// answers as the forced bounded oracle, and its naïve side matches the raw
    /// tree-walking interpreter, on every cell of Figure 1.
    #[test]
    fn engine_answers_match_the_oracle_path(seed in 0u64..1_000) {
        let engine = CertainEngine::with_bounds(bounds());
        for (semantics, query, instance) in cell_trials(seed) {
            let planned = engine.evaluate(&instance, semantics, &query);
            let oracle = engine.compare(&instance, semantics, &query);
            let interpreter = nev_logic::naive_eval_query(&instance, query.query());
            prop_assert_eq!(
                &planned.certain,
                &oracle.certain,
                "{} × {}: dispatch changed the answer on\n{}",
                semantics,
                query.fragment(),
                instance
            );
            prop_assert_eq!(&planned.naive, &interpreter, "{}", semantics);
            prop_assert_eq!(&oracle.naive, &interpreter, "{}", semantics);
            if planned.plan.is_certified() {
                prop_assert_eq!(planned.worlds_enumerated, 0);
                prop_assert!(oracle.agrees(), "{} × {}", semantics, query.fragment());
            }
        }
    }
}
