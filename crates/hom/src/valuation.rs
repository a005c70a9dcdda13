//! Valuations: database homomorphisms whose image consists of constants only.
//!
//! A valuation assigns a constant to each null of an instance (paper §2.3). Applying
//! a valuation `v` to `D` yields the complete instance `v(D)`, the building block of
//! every semantics considered in the paper:
//! `⟦D⟧_CWA = { v(D) }`, `⟦D⟧_OWA = { D' ⊇ v(D) }`, and so on.
//!
//! The possible-world sets are infinite because `Const` is; the enumeration functions
//! here take an explicit, finite *constant budget* — the genericity argument for why a
//! bounded budget suffices as a certain-answer oracle is spelled out in the
//! `nev_core::oracle` module documentation.

use std::collections::BTreeSet;

use nev_incomplete::{Constant, Instance, NullId, Value};

use crate::mapping::ValueMap;

/// Returns `true` iff `map` is a valuation *for `d`*: it binds every null of `d` to a
/// constant and does not move any constant.
pub fn is_valuation(map: &ValueMap, d: &Instance) -> bool {
    map.preserves_constants()
        && d.nulls()
            .iter()
            .all(|n| map.apply(&Value::Null(*n)).is_const())
}

/// Applies a valuation to an instance, producing the complete instance `v(D)`.
///
/// # Panics
/// Panics if `map` is not a valuation for `d` (the result would not be complete).
pub fn apply_valuation(map: &ValueMap, d: &Instance) -> Instance {
    assert!(
        is_valuation(map, d),
        "apply_valuation: mapping is not a valuation for the instance"
    );
    map.apply_instance(d)
}

/// Enumerates **all** valuations of the nulls of `d` into the given constant budget.
///
/// The number of valuations is `|budget|^|Null(D)|`; callers control the blow-up by
/// keeping instances and budgets small (this is the ground-truth oracle, not the
/// naïve evaluator). [`Valuations::new`] streams the same list in the same order.
pub fn enumerate_valuations(d: &Instance, budget: &BTreeSet<Constant>) -> Vec<ValueMap> {
    Valuations::new(d, budget).collect()
}

/// A lazy stream of the valuations of an instance's nulls into a constant budget,
/// one [`ValueMap`] per step.
///
/// The stream is a mixed-radix counter over the nulls in `Null(D)` order, the first
/// null turning fastest and each digit walking the budget in its `Ord` order.
/// [`Valuations::up_to_renaming`] additionally names a set of *interchangeable*
/// budget constants and keeps one valuation per orbit of their permutations.
#[derive(Clone, Debug)]
pub struct Valuations {
    nulls: Vec<NullId>,
    constants: Vec<Constant>,
    /// Per budget position: the constant's rank among the interchangeable ones.
    ranks: Vec<Option<usize>>,
    /// The digits of the next valuation; `None` once the stream is exhausted.
    digits: Option<Vec<usize>>,
}

impl Valuations {
    /// Every valuation of the nulls of `d` into `budget`: `|budget|^|Null(D)|` of
    /// them, or none when `d` has nulls and the budget is empty.
    pub fn new(d: &Instance, budget: &BTreeSet<Constant>) -> Self {
        Valuations::up_to_renaming(d, budget, &BTreeSet::new())
    }

    /// The valuations of the nulls of `d` into `budget` in *restricted-growth*
    /// form for the `interchangeable` budget constants: reading the nulls from
    /// the last to the first, the `j`-th interchangeable constant (in `Ord`
    /// order) is used only once the `(j−1)`-th already is. Every valuation into
    /// `budget` is the image of exactly one of these under a permutation of the
    /// interchangeable constants, so a query that cannot tell those constants
    /// apart sees every world of the full stream. Two nulls over two other
    /// constants and two interchangeable ones give 10 valuations, not 16.
    pub fn up_to_renaming(
        d: &Instance,
        budget: &BTreeSet<Constant>,
        interchangeable: &BTreeSet<Constant>,
    ) -> Self {
        let nulls: Vec<NullId> = d.nulls().into_iter().collect();
        let constants: Vec<Constant> = budget.iter().cloned().collect();
        let mut next_rank = 0;
        let ranks = constants
            .iter()
            .map(|c| {
                interchangeable.contains(c).then(|| {
                    next_rank += 1;
                    next_rank - 1
                })
            })
            .collect();
        let empty = constants.is_empty() && !nulls.is_empty();
        Valuations {
            digits: (!empty).then(|| vec![0; nulls.len()]),
            nulls,
            constants,
            ranks,
        }
    }

    /// May the null at `pos` take budget position `idx`, given the digits of the
    /// nulls after it? Budget position 0 always may: it holds either a constant
    /// that is not interchangeable or the first interchangeable one.
    fn allowed(&self, digits: &[usize], pos: usize, idx: usize) -> bool {
        let Some(rank) = self.ranks[idx] else {
            return true;
        };
        let used = digits[pos + 1..]
            .iter()
            .filter_map(|&later| self.ranks[later])
            .max();
        rank <= used.map_or(0, |r| r + 1)
    }
}

impl Iterator for Valuations {
    type Item = ValueMap;

    fn next(&mut self) -> Option<ValueMap> {
        let mut digits = self.digits.take()?;
        let map = ValueMap::from_pairs(
            self.nulls
                .iter()
                .zip(&digits)
                .map(|(n, &idx)| (Value::Null(*n), Value::Const(self.constants[idx].clone()))),
        );
        // Advance the mixed-radix counter to the next allowed digit string: bump
        // the lowest digit that has an allowed successor and zero those below it
        // (zero is always allowed). A digit's constraint reads only the digits
        // above it, which this step leaves unchanged.
        for pos in 0..digits.len() {
            let successor = (digits[pos] + 1..self.constants.len())
                .find(|&idx| self.allowed(&digits, pos, idx));
            if let Some(idx) = successor {
                digits[pos] = idx;
                digits[..pos].iter_mut().for_each(|digit| *digit = 0);
                self.digits = Some(digits);
                break;
            }
        }
        Some(map)
    }
}

/// The default constant budget for enumerating the CWA worlds of `d` up to
/// isomorphism fixing `Const(D) ∪ extra`: the constants of `d`, the given extra
/// constants (e.g. constants mentioned by the query), and one fresh constant per null.
pub fn standard_budget(d: &Instance, extra: &BTreeSet<Constant>) -> BTreeSet<Constant> {
    let mut budget = d.constants();
    budget.extend(extra.iter().cloned());
    let fresh = nev_incomplete::instance::fresh_constants(d.nulls().len(), &budget);
    budget.extend(fresh);
    budget
}

/// Enumerates the CWA worlds `v(D)` of `d` over the standard budget extended by
/// `extra` constants; deduplicates equal worlds.
pub fn enumerate_cwa_worlds(d: &Instance, extra: &BTreeSet<Constant>) -> Vec<Instance> {
    let budget = standard_budget(d, extra);
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for v in enumerate_valuations(d, &budget) {
        let world = v.apply_instance(d);
        if seen.insert(world.clone()) {
            out.push(world);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nev_incomplete::builder::{c, x};
    use nev_incomplete::inst;

    #[test]
    fn is_valuation_checks_nulls_and_constants() {
        let d = inst! { "R" => [[c(1), x(1)], [x(2), x(2)]] };
        let good = ValueMap::from_pairs([(x(1), c(4)), (x(2), c(1))]);
        assert!(is_valuation(&good, &d));
        let partial = ValueMap::from_pairs([(x(1), c(4))]);
        assert!(!is_valuation(&partial, &d));
        let to_null = ValueMap::from_pairs([(x(1), c(4)), (x(2), x(3))]);
        assert!(!is_valuation(&to_null, &d));
        let moves_const = ValueMap::from_pairs([(x(1), c(4)), (x(2), c(1)), (c(1), c(9))]);
        assert!(!is_valuation(&moves_const, &d));
    }

    #[test]
    fn apply_valuation_produces_complete_world() {
        let d = inst! { "R" => [[c(1), x(1)]] };
        let v = ValueMap::from_pairs([(x(1), c(7))]);
        let world = apply_valuation(&v, &d);
        assert!(world.is_complete());
        assert_eq!(world.fact_count(), 1);
    }

    #[test]
    #[should_panic(expected = "not a valuation")]
    fn apply_valuation_panics_on_non_valuation() {
        let d = inst! { "R" => [[x(1)]] };
        let not_val = ValueMap::new();
        let _ = apply_valuation(&not_val, &d);
    }

    #[test]
    fn enumerate_valuations_counts() {
        let d = inst! { "R" => [[x(1), x(2)]] };
        let budget: BTreeSet<Constant> = [Constant::int(1), Constant::int(2), Constant::int(3)]
            .into_iter()
            .collect();
        let vals = enumerate_valuations(&d, &budget);
        assert_eq!(vals.len(), 9); // 3^2
        for v in &vals {
            assert!(is_valuation(v, &d));
        }
        // No nulls: exactly one (empty) valuation, regardless of the budget.
        let complete = inst! { "R" => [[c(1)]] };
        assert_eq!(enumerate_valuations(&complete, &budget).len(), 1);
        assert_eq!(enumerate_valuations(&complete, &BTreeSet::new()).len(), 1);
        // Nulls but empty budget: no valuations.
        assert!(enumerate_valuations(&d, &BTreeSet::new()).is_empty());
    }

    #[test]
    fn restricted_growth_keeps_one_valuation_per_renaming_orbit() {
        let d = inst! { "R" => [[x(1), x(2)]] };
        let fresh = [Constant::str("f0"), Constant::str("f1")];
        let budget: BTreeSet<Constant> = [Constant::int(1), Constant::int(2)]
            .into_iter()
            .chain(fresh.iter().cloned())
            .collect();
        let interchangeable: BTreeSet<Constant> = fresh.iter().cloned().collect();
        let pruned: Vec<ValueMap> =
            Valuations::up_to_renaming(&d, &budget, &interchangeable).collect();
        assert_eq!(pruned.len(), 10, "2 nulls over 2 fixed + 2 fresh constants");
        assert_eq!(Valuations::new(&d, &budget).count(), 16);
        // The pruned stream is a subsequence of the full one, and swapping the two
        // fresh constants maps every full valuation onto a kept one.
        let full = enumerate_valuations(&d, &budget);
        let mut rest = full.iter();
        assert!(pruned.iter().all(|v| rest.any(|w| w == v)));
        let swap = |v: &Value| match v {
            Value::Const(c) if *c == fresh[0] => Value::Const(fresh[1].clone()),
            Value::Const(c) if *c == fresh[1] => Value::Const(fresh[0].clone()),
            other => other.clone(),
        };
        for v in &full {
            let image = v.apply_instance(&d);
            assert!(
                pruned.iter().any(|p| {
                    let kept = p.apply_instance(&d);
                    kept == image || kept == image.map_values(swap)
                }),
                "{image}"
            );
        }
        // Three nulls over three fresh constants: the Bell number B(3) = 5.
        let three = inst! { "R" => [[x(1), x(2), x(3)]] };
        let all_fresh: BTreeSet<Constant> =
            ["f0", "f1", "f2"].into_iter().map(Constant::str).collect();
        assert_eq!(
            Valuations::up_to_renaming(&three, &all_fresh, &all_fresh).count(),
            5
        );
        // Edge cases match the full stream.
        let complete = inst! { "R" => [[c(1)]] };
        assert_eq!(
            Valuations::up_to_renaming(&complete, &budget, &interchangeable).count(),
            1
        );
        assert_eq!(
            Valuations::up_to_renaming(&d, &BTreeSet::new(), &BTreeSet::new()).count(),
            0
        );
    }

    #[test]
    fn standard_budget_has_fresh_constants_per_null() {
        let d = inst! { "R" => [[c(1), x(1)], [x(2), x(3)]] };
        let budget = standard_budget(&d, &BTreeSet::new());
        // 1 constant of D + 3 fresh ones.
        assert_eq!(budget.len(), 4);
        assert!(budget.contains(&Constant::int(1)));
        let extra: BTreeSet<Constant> = [Constant::int(42)].into_iter().collect();
        let budget = standard_budget(&d, &extra);
        assert_eq!(budget.len(), 5);
        assert!(budget.contains(&Constant::int(42)));
    }

    #[test]
    fn cwa_worlds_of_d0() {
        // D0 = {(⊥,⊥′),(⊥′,⊥)}: its CWA worlds are all {(c,c′),(c′,c)} with possibly c=c′.
        let d0 = inst! { "D" => [[x(1), x(2)], [x(2), x(1)]] };
        let worlds = enumerate_cwa_worlds(&d0, &BTreeSet::new());
        assert!(!worlds.is_empty());
        for w in &worlds {
            assert!(w.is_complete());
            // Each world is symmetric: (a,b) present iff (b,a) present.
            let rel = w.relation("D").unwrap();
            for t in rel.tuples() {
                let rev: Vec<Value> = t.values().iter().rev().cloned().collect();
                assert!(rel.contains(&rev.into_iter().collect()));
            }
            // Worlds have 1 or 2 tuples depending on whether the two nulls collapse.
            assert!(w.fact_count() == 1 || w.fact_count() == 2);
        }
        // Both shapes occur.
        assert!(worlds.iter().any(|w| w.fact_count() == 1));
        assert!(worlds.iter().any(|w| w.fact_count() == 2));
    }

    #[test]
    fn enumerate_cwa_worlds_deduplicates() {
        // Both nulls mapping to the same constants in different orders can produce the
        // same world; the enumeration deduplicates exact duplicates.
        let d = inst! { "R" => [[x(1)], [x(2)]] };
        let worlds = enumerate_cwa_worlds(&d, &BTreeSet::new());
        let unique: BTreeSet<_> = worlds.iter().cloned().collect();
        assert_eq!(worlds.len(), unique.len());
    }
}
