//! Certain answers and the naïve-evaluation comparison (paper §2.4, §8).
//!
//! Given an incomplete database `D`, a semantics `⟦·⟧` and a query `Q`, the *certain
//! answers* are `certain(Q, D) = ⋂ { Q(D') | D' ∈ ⟦D⟧ }` — the answers true in every
//! possible world. *Naïve evaluation works* for `Q` when evaluating `Q` directly on
//! `D` (treating nulls as values) and discarding answer tuples with nulls produces
//! exactly `certain(Q, D)` on every `D`.
//!
//! Certain answers are computed against the bounded possible-world enumeration of
//! [`crate::semantics`] and compared with naïve evaluation by
//! [`crate::engine::CertainEngine`] — **the** evaluation API:
//!
//! * [`crate::engine::CertainEngine::certain_answers`] — the bounded oracle
//!   (Boolean queries use the `{()} / ∅` encoding, so "certainly true" is
//!   "non-empty");
//! * [`crate::engine::CertainEngine::compare`] — naïve evaluation **and** the
//!   bounded oracle side by side, the validation primitive behind the Figure 1
//!   harness;
//! * [`crate::engine::CertainEngine::evaluate`] — plan-then-execute dispatch that
//!   skips the oracle entirely on guaranteed Figure 1 cells;
//! * [`crate::engine::Evaluation::agrees`] — "naïve evaluation works" on one
//!   instance.
//!
//! The free functions that used to live here (`certain_answers`,
//! `certain_answers_boolean`, `compare_naive_and_certain`,
//! `naive_evaluation_works`) were deprecated shims over the engine since the
//! plan-then-execute API landed; every caller has migrated, and they are gone.
//!
//! The exactness guarantees of the bounded enumeration (exact for the CWA family,
//! sound over-approximation of certain answers otherwise) translate as follows:
//!
//! * a reported **disagreement** where the naïve answer is *not contained* in the
//!   bounded certain answers is always a genuine failure of naïve evaluation, because
//!   the true certain answers are a subset of the bounded ones;
//! * a reported **agreement** `naïve = certain_bounded`, combined with the paper's
//!   preservation theorem for the query's fragment (which gives
//!   `naïve ⊆ certain_true`), pins `certain_true` between two equal sets and hence
//!   certifies exact agreement.

use nev_logic::Query;

use crate::semantics::WorldBounds;

/// Bounds pre-populated with the constants mentioned by a query, so that the world
/// enumeration is generic relative to them: the bounds of the monotonicity checks
/// in [`crate::monotone`].
///
/// The oracle takes its bounds from the cached equivalent,
/// [`crate::engine::PreparedQuery::bounds`]; both delegate to
/// [`WorldBounds::extended_with`], so the derivation cannot diverge.
pub fn bounds_for_query(query: &Query, base: &WorldBounds) -> WorldBounds {
    base.extended_with(query.formula().constants())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CertainEngine;
    use crate::semantics::Semantics;
    use nev_incomplete::builder::{c, x};
    use nev_incomplete::{inst, Instance, Tuple};
    use nev_logic::eval::naive_eval_boolean;
    use nev_logic::parse_query;

    fn d0() -> Instance {
        inst! { "D" => [[x(1), x(2)], [x(2), x(1)]] }
    }

    fn engine() -> CertainEngine {
        CertainEngine::new()
    }

    /// The certain-answer decision for a Boolean query, via the engine's oracle.
    fn certainly(d: &Instance, text: &str, sem: Semantics) -> bool {
        let e = engine();
        let q = e.prepare(text).expect("valid query");
        !e.certain_answers(d, sem, &q).is_empty()
    }

    /// Does naïve evaluation compute the bounded certain answers here?
    fn naive_works(d: &Instance, text: &str, sem: Semantics) -> bool {
        let e = engine();
        let q = e.prepare(text).expect("valid query");
        e.compare(d, sem, &q).agrees()
    }

    #[test]
    fn bounds_for_query_collects_the_constants() {
        let q = parse_query("exists u . R(u) & u = 5").unwrap();
        let bounds = bounds_for_query(&q, &WorldBounds::default());
        assert_eq!(bounds.extra_constants.len(), 1);
        // … and matches the prepared query's cached derivation.
        let prepared = engine().prepare("exists u . R(u) & u = 5").unwrap();
        assert_eq!(
            prepared.bounds(&WorldBounds::default()).extra_constants,
            bounds.extra_constants
        );
    }

    #[test]
    fn intro_example_certain_answers_under_owa_and_cwa() {
        // Q(x,y) = ∃z (R(x,z) ∧ S(z,y)) on the introduction's instance: the certain
        // answer is {(1,4)} and naïve evaluation finds it.
        let d = inst! {
            "R" => [[c(1), x(1)], [x(2), x(3)]],
            "S" => [[x(1), c(4)], [x(3), c(5)]],
        };
        let e = engine();
        let q = e
            .prepare("Q(x, y) :- exists z . R(x, z) & S(z, y)")
            .unwrap();
        for sem in [Semantics::Owa, Semantics::Cwa] {
            let report = e.compare(&d, sem, &q);
            assert!(report.agrees(), "{sem}: {report:?}");
            assert_eq!(report.certain.len(), 1);
            assert!(report.certain.contains(&Tuple::new(vec![c(1), c(4)])));
        }
    }

    #[test]
    fn section_2_4_examples_on_d0() {
        let d0 = d0();
        // ∃x,y (D(x,y) ∧ D(y,x)): certain under both OWA and CWA, naïve evaluation true.
        let sym = "exists u v . D(u, v) & D(v, u)";
        assert!(naive_eval_boolean(&d0, &parse_query(sym).unwrap()));
        assert!(certainly(&d0, sym, Semantics::Owa));
        assert!(certainly(&d0, sym, Semantics::Cwa));
        // ∀x∃y D(x,y): naïve evaluation true; certain under CWA, NOT certain under OWA.
        let total = "forall u . exists v . D(u, v)";
        assert!(naive_eval_boolean(&d0, &parse_query(total).unwrap()));
        assert!(certainly(&d0, total, Semantics::Cwa));
        assert!(!certainly(&d0, total, Semantics::Owa));
        // Hence naïve evaluation works for it under CWA but not under OWA.
        assert!(naive_works(&d0, total, Semantics::Cwa));
        assert!(!naive_works(&d0, total, Semantics::Owa));
        let e = engine();
        let q = e.prepare(total).unwrap();
        let report = e.compare(&d0, Semantics::Owa, &q);
        assert!(report.naive_overshoots());
        assert!(!report.naive_undershoots());
    }

    #[test]
    fn negation_fails_under_cwa_too() {
        // Q = ∃x ¬D(x,x) on D0: naïvely true (no self-loops syntactically), but the
        // world collapsing both nulls has only a self-loop, so not certain under CWA.
        let d0 = d0();
        let q = "exists u . !D(u, u)";
        assert!(naive_eval_boolean(&d0, &parse_query(q).unwrap()));
        assert!(!certainly(&d0, q, Semantics::Cwa));
        assert!(!naive_works(&d0, q, Semantics::Cwa));
    }

    #[test]
    fn kary_certain_answers_drop_null_only_answers() {
        // Q(u) = R(u): naïve answers {1}; under CWA the null's value varies, so the
        // certain answers are also {1}.
        let d = inst! { "R" => [[c(1)], [x(1)]] };
        let e = engine();
        let q = e.prepare("Q(u) :- R(u)").unwrap();
        let report = e.compare(&d, Semantics::Cwa, &q);
        assert!(report.agrees());
        assert_eq!(report.certain.len(), 1);
        // Under OWA the same holds (it is a conjunctive query).
        assert!(naive_works(&d, "Q(u) :- R(u)", Semantics::Owa));
    }

    #[test]
    fn repeated_null_certain_answer() {
        // D = {R(⊥,⊥)}: Q = ∃u R(u,u) is certainly true under every semantics, because
        // the repeated null forces a self-loop in every world.
        let d = inst! { "R" => [[x(1), x(1)]] };
        let q = "exists u . R(u, u)";
        for sem in Semantics::ALL {
            assert!(
                certainly(&d, q, sem),
                "{sem} should certainly satisfy ∃u R(u,u)"
            );
        }
        // Whereas with two distinct nulls it is not certain (they may differ) — except
        // under the minimal semantics, where minimality forces the collapse.
        let d2 = inst! { "R" => [[x(1), x(2)]] };
        assert!(!certainly(&d2, q, Semantics::Cwa));
        assert!(!certainly(&d2, q, Semantics::Owa));
    }

    #[test]
    fn query_constants_enter_the_budget() {
        // Q = ∃u (R(u) ∧ u = 5): not certain under CWA because ⊥ need not be 5; the
        // budget must contain the constant 5 for the counterexample world to exist.
        let d = inst! { "R" => [[x(1)]] };
        let q = "exists u . R(u) & u = 5";
        assert!(!naive_eval_boolean(&d, &parse_query(q).unwrap()));
        assert!(!certainly(&d, q, Semantics::Cwa));
        // The dual query ∃u (R(u) ∧ ¬(u = 5)) is naïvely true but not certain.
        let q2 = "exists u . R(u) & !(u = 5)";
        assert!(naive_eval_boolean(&d, &parse_query(q2).unwrap()));
        assert!(!certainly(&d, q2, Semantics::Cwa));
    }

    #[test]
    fn boolean_report_encoding() {
        let d = inst! { "R" => [[c(1)]] };
        let e = engine();
        let q = e.prepare("exists u . R(u)").unwrap();
        let report = e.compare(&d, Semantics::Cwa, &q);
        assert!(report.agrees());
        assert_eq!(report.naive.len(), 1);
        assert_eq!(report.naive.iter().next().unwrap().arity(), 0);
    }

    #[test]
    fn complete_instance_certain_answers_equal_evaluation() {
        let d = inst! { "R" => [[c(1), c(2)], [c(2), c(3)]] };
        let e = engine();
        let q = e
            .prepare("Q(a, b) :- R(a, b) | exists z . R(a, z) & R(z, b)")
            .unwrap();
        for sem in Semantics::ALL {
            let report = e.compare(&d, sem, &q);
            assert!(report.agrees(), "{sem} must agree on complete instances");
            assert_eq!(report.certain.len(), 3);
        }
    }

    #[test]
    fn wcwa_positive_universal_query_works() {
        // Q = ∀x ∃y D(x,y) on D0 is certain under WCWA (the active domain cannot grow)
        // and naive evaluation agrees — a Pos query, per Theorem 5.2.
        assert!(naive_works(
            &d0(),
            "forall u . exists v . D(u, v)",
            Semantics::Wcwa
        ));
    }
}
