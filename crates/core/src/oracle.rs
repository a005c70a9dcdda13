//! The bounded world oracle: intersect a query's answers over the streamed
//! possible worlds, exiting early once the intersection is empty.
//!
//! [`world_pass`] is one **sequential** pass of one query over a pruned world
//! stream, folding the per-world step [`PreparedQuery::answers_in_world`]
//! into one running intersection. It is the oracle behind
//! [`CertainEngine::dispatch`], [`CertainEngine::compare`] and
//! [`CertainEngine::certain_answers`]. Worlds are visited in stream order, so
//! the verdict *and* the worlds counted are the same on every run.
//!
//! Over an empty enumeration (a world cap of zero) a Boolean query is
//! vacuously certain, a k-ary intersection is empty, and either verdict is
//! flagged truncated when the cap suppressed worlds.
//!
//! # Why a finite constant budget suffices
//!
//! Write `A = Const(D) ∪ Const(Q)`. Certain answers are *generic*: for a
//! permutation π of `Const` fixing `A` pointwise, `Q(π(W)) = π(Q(W))`, and
//! every semantics here is closed under π (its worlds are built from
//! valuations and homomorphisms, which commute with π). A certain answer uses
//! only constants of `A`, and [`PreparedQuery::answers_in_world`] keeps only
//! such tuples, which π fixes; so a world and its π-image contribute the same
//! factor to the intersection. A valuation of `n` nulls uses at most `n`
//! constants outside `A`, and some π maps them onto `n` fixed fresh ones, so
//! the budget `A` plus `n` fresh constants ([`WorldBounds::budget_parts`])
//! reaches every world up to such a π. Hence the bounded oracle is:
//!
//! * **exact** for CWA and minimal CWA;
//! * exact for the powerset semantics over unions of at most `union_width`
//!   images (each unioned valuation gets its own `n` fresh constants), and an
//!   over-approximation for wider unions;
//! * exact for WCWA when `wcwa_max_extra_tuples` covers every missing fact over
//!   `adom(v(D))`, and an over-approximation otherwise;
//! * a sound **over-approximation** for OWA, whose worlds may add unboundedly
//!   many facts over unboundedly many new constants.
//!
//! Every visited world is a genuine possible world, so an intersection over
//! fewer worlds can only be larger: a bounded answer never misses a certain
//! answer.
//!
//! # Pruning the stream
//!
//! The pass runs over a pruned version of [`Semantics::worlds`]' stream.
//! Every world it visits is a world of the full stream, and a world `W` of
//! the full stream is left out only when a world `W′` the pruned stream keeps
//! *covers* it: `Q(W′) ∩ Aᵏ ⊆ Q(W) ∩ Aᵏ`. Then the intersection is
//! unchanged, and so is the verdict of an uncapped pass; under a world cap
//! the pruned pass is truncated less often. Let `F` be the fresh constants of
//! the budget: those outside `Const(D)` and `Const(Q)`.
//!
//! 1. **Restricted growth** (CWA, minimal CWA, WCWA, OWA). Permutations of `F`
//!    fix `A`, so by the genericity argument above a world and its image
//!    under one contribute the same factor. The streams are closed under
//!    them: π∘v is again a valuation into the budget, and π preserves
//!    `adom(v(D))`, the OWA extension domain (its extra values lie outside the
//!    budget) and minimality. Each valuation has exactly one image π∘v in
//!    restricted-growth form ([`Valuations::up_to_renaming`]: reading the nulls
//!    from last to first, the `j`-th fresh constant appears only after the
//!    `(j−1)`-th), so only those valuations are streamed.
//! 2. **Polarity** (WCWA, OWA). Let `N` be the query's
//!    [`negative_relations`]. For an extension world `W = v(D) ∪ E`, let `E′`
//!    keep the facts of `E` that belong to `N` or use a value outside
//!    `adom(v(D))`. Then `W′ = v(D) ∪ E′` is in the stream (`E′ ⊆ E`, so it is
//!    within the size cap), and `adom(W′) = adom(W)`, so every quantifier
//!    ranges over the same domain in both. Over a fixed domain a formula is
//!    monotone in each relation outside `N`, since every occurrence of one sits
//!    under an even number of negations (induction on the formula). `W` adds to
//!    `W′` only facts of such relations, so `Q(W′) ⊆ Q(W)`. The stream
//!    therefore never adds a fact outside `N` whose values all lie in
//!    `adom(v(D))`; a relation the query does not mention is outside `N`.
//!    The two rules compose: π preserves `N`-membership and `adom`.
//! 3. **Powerset renaming** (powerset CWA, minimal powerset CWA). Rule 1 does
//!    not apply per image, since a union needs independent fresh constants in
//!    each image. A union of at most `w = union_width` images is instead one
//!    valuation of `w` null-disjoint copies of `D` (a repeated image fills the
//!    width), with every copy's image minimal for the minimal variant. The
//!    budget holds `w · n` fresh constants, so rule 1 applies to the copies'
//!    valuations as a whole. A union world equal to an emitted one up to a
//!    permutation of `F` is then skipped, by the same genericity argument. Its
//!    key renames the constants of `F` to nulls in order of first appearance;
//!    worlds hold no nulls, so equal keys mean equal worlds up to such a
//!    permutation.
//!
//! [`Semantics::worlds`] itself stays unpruned: it is the reference that
//! `enumerate_worlds`, the monotonicity and core checks and the differential
//! tests read.
//!
//! [`CertainEngine::dispatch`]: crate::engine::CertainEngine::dispatch
//! [`CertainEngine::compare`]: crate::engine::CertainEngine::compare
//! [`CertainEngine::certain_answers`]: crate::engine::CertainEngine::certain_answers
//! [`Valuations::up_to_renaming`]: nev_hom::valuation::Valuations::up_to_renaming
//! [`negative_relations`]: nev_logic::Formula::negative_relations

use std::collections::BTreeSet;

use nev_exec::ExecStats;
use nev_incomplete::{Instance, Tuple};

use crate::engine::{boolean_answers, PreparedQuery};
use crate::semantics::{Semantics, WorldBounds};

/// The outcome of one query's oracle run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OracleOutcome {
    /// The certain answers over the bounded enumeration (Boolean queries use the
    /// `{()} / ∅` encoding).
    pub certain: BTreeSet<Tuple>,
    /// Worlds actually evaluated.
    pub worlds_considered: usize,
    /// Whether the intersection went empty and cut the stream short.
    pub cancelled: bool,
    /// Whether the world stream was cut off by the world cap with the verdict
    /// still drawing on it. A cancelled run exited on definitive evidence (a
    /// counter-world, an emptied intersection), so it is never truncated; an
    /// exhausted run over a capped stream is an over-approximation and is.
    pub truncated: bool,
    /// Aggregated executor counters across all per-world evaluations.
    pub exec: ExecStats,
}

/// One sequential pass over the worlds of `d` for `query`: its answers are
/// intersected world by world, and the pass stops once the intersection is
/// empty. The stream runs over `base` extended with the query's constants
/// ([`PreparedQuery::bounds`]), pruned for the query's negative relations
/// (see the module docs).
pub fn world_pass(
    base: &WorldBounds,
    d: &Instance,
    semantics: Semantics,
    query: &PreparedQuery,
) -> OracleOutcome {
    let bounds = query.bounds(base);
    let allowed = query.allowed_constants(d);
    let negative = query.query().formula().negative_relations();
    let mut worlds = semantics.pruned_worlds(d, &bounds, &negative);
    let mut exec = ExecStats::new();
    // `None` until the first world.
    let mut acc: Option<BTreeSet<Tuple>> = None;
    let mut visited = 0usize;
    for world in worlds.by_ref() {
        visited += 1;
        let answers = query.answers_in_world(&world, &allowed, &mut exec);
        let next = match acc {
            None => answers,
            Some(prev) => prev.intersection(&answers).cloned().collect(),
        };
        let emptied = next.is_empty();
        acc = Some(next);
        if emptied {
            break;
        }
    }
    // With no world seen, a Boolean query is vacuously certain and a k-ary
    // intersection is empty; an emptied intersection is definitive, anything
    // else leans on the whole (possibly capped) stream.
    let cancelled = acc.as_ref().is_some_and(BTreeSet::is_empty);
    OracleOutcome {
        certain: acc.unwrap_or_else(|| boolean_answers(query.is_boolean())),
        worlds_considered: visited,
        cancelled,
        truncated: !cancelled && worlds.truncated(),
        exec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CertainEngine;
    use nev_incomplete::builder::{c, x};
    use nev_incomplete::inst;

    #[test]
    fn zero_worlds_is_vacuously_certain_for_boolean_queries() {
        // A complete instance under CWA has exactly one world; trivially certain.
        let d = inst! { "R" => [[c(1)]] };
        let engine = CertainEngine::new();
        let query = engine.prepare("exists u . R(u)").unwrap();
        let out = world_pass(engine.bounds(), &d, Semantics::Cwa, &query);
        assert_eq!(out.certain.len(), 1);
        assert_eq!(out.worlds_considered, 1);
        // An empty enumeration (max_worlds = 0): vacuously true for Boolean
        // queries, empty for k-ary ones, and truncated either way.
        let engine = CertainEngine::with_bounds(WorldBounds {
            max_worlds: 0,
            ..WorldBounds::default()
        });
        let boolean = engine.prepare("exists u . R(u)").unwrap();
        let kary = engine.prepare("Q(u) :- R(u)").unwrap();
        for (query, expected) in [(&boolean, 1), (&kary, 0)] {
            let out = world_pass(engine.bounds(), &d, Semantics::Cwa, query);
            assert_eq!(out.certain.len(), expected, "{query}");
            assert_eq!(out.worlds_considered, 0);
            assert!(out.truncated, "{query}");
        }
    }

    #[test]
    fn respects_the_engine_world_bounds() {
        let d = inst! { "R" => [[x(1), x(2), x(3)]] };
        let engine = CertainEngine::with_bounds(WorldBounds {
            max_worlds: 5,
            ..WorldBounds::default()
        });
        let query = engine.prepare("exists u v w . R(u, v, w)").unwrap();
        let out = world_pass(engine.bounds(), &d, Semantics::Cwa, &query);
        assert!(out.worlds_considered <= 5);
        assert_eq!(out.certain.len(), 1, "every truncated world satisfies ∃R");
    }
}
