//! The bounded world oracle: intersect a query's answers over the streamed
//! possible worlds, exiting early once the intersection is empty.
//!
//! [`world_pass`] is one **sequential** pass over the [`Semantics::worlds`]
//! stream shared by a slice of queries, folding the per-world step
//! [`PreparedQuery::answers_in_world`]. With one query it is the oracle behind
//! [`CertainEngine::dispatch`], [`CertainEngine::compare`] and
//! [`CertainEngine::certain_answers`]; with many it is the shared pass of
//! [`CertainEngine::evaluate_all`]. Worlds are visited in stream order, so
//! the verdict *and* the worlds counted are the same on every run.
//!
//! Over an empty enumeration (a world cap of zero) a Boolean query is
//! vacuously certain, a k-ary intersection is empty, and either verdict is
//! flagged truncated when the cap suppressed worlds.
//!
//! [`CertainEngine::dispatch`]: crate::engine::CertainEngine::dispatch
//! [`CertainEngine::compare`]: crate::engine::CertainEngine::compare
//! [`CertainEngine::certain_answers`]: crate::engine::CertainEngine::certain_answers
//! [`CertainEngine::evaluate_all`]: crate::engine::CertainEngine::evaluate_all

use std::collections::BTreeSet;

use nev_exec::ExecStats;
use nev_incomplete::{Constant, Instance, Tuple};

use crate::engine::{boolean_answers, PreparedQuery};
use crate::semantics::{Semantics, WorldBounds};

/// The outcome of one query's oracle run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OracleOutcome {
    /// The certain answers over the bounded enumeration (Boolean queries use the
    /// `{()} / ∅` encoding).
    pub certain: BTreeSet<Tuple>,
    /// Worlds actually evaluated. A shared pass reports the worlds the whole
    /// pass visited.
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

/// One sequential pass over the worlds of `d`, shared by `queries`: each
/// query's answers are intersected world by world, a query whose intersection
/// empties drops out, and the pass stops once every query has. The stream runs
/// over `base` extended with the union of the queries' constants, so with one
/// query it is exactly that query's own enumeration. Returns one outcome per
/// query, in order.
pub fn world_pass(
    base: &WorldBounds,
    d: &Instance,
    semantics: Semantics,
    queries: &[&PreparedQuery],
) -> Vec<OracleOutcome> {
    let bounds = base.extended_with(queries.iter().flat_map(|q| q.constants().iter().cloned()));
    let allowed: Vec<BTreeSet<Constant>> = queries.iter().map(|q| q.allowed_constants(d)).collect();
    let mut folds: Vec<Fold<'_>> = allowed.iter().map(Fold::new).collect();
    let mut worlds = semantics.worlds(d, &bounds);
    let mut visited = 0usize;
    for world in worlds.by_ref() {
        visited += 1;
        for (query, fold) in queries.iter().zip(&mut folds) {
            if !fold.emptied() {
                fold.add(query, &world);
            }
        }
        if folds.iter().all(Fold::emptied) {
            break;
        }
    }
    let stream_truncated = worlds.truncated();
    queries
        .iter()
        .zip(folds)
        .map(|(query, fold)| fold.outcome(query, visited, stream_truncated))
        .collect()
}

/// One query's running intersection over the worlds seen so far.
struct Fold<'a> {
    allowed: &'a BTreeSet<Constant>,
    /// `None` until the first world.
    acc: Option<BTreeSet<Tuple>>,
    exec: ExecStats,
}

impl<'a> Fold<'a> {
    fn new(allowed: &'a BTreeSet<Constant>) -> Self {
        Fold {
            allowed,
            acc: None,
            exec: ExecStats::new(),
        }
    }

    fn emptied(&self) -> bool {
        self.acc.as_ref().is_some_and(BTreeSet::is_empty)
    }

    /// Intersects the query's answers in one more world.
    fn add(&mut self, query: &PreparedQuery, world: &Instance) {
        let answers = query.answers_in_world(world, self.allowed, &mut self.exec);
        self.acc = Some(match self.acc.take() {
            None => answers,
            Some(prev) => prev.intersection(&answers).cloned().collect(),
        });
    }

    /// The verdict. With no world seen, a Boolean query is vacuously certain
    /// and a k-ary intersection is empty; an emptied intersection is
    /// definitive, anything else leans on the whole (possibly capped) stream.
    fn outcome(
        self,
        query: &PreparedQuery,
        worlds_considered: usize,
        stream_truncated: bool,
    ) -> OracleOutcome {
        let cancelled = self.emptied();
        OracleOutcome {
            certain: self
                .acc
                .unwrap_or_else(|| boolean_answers(query.is_boolean())),
            worlds_considered,
            cancelled,
            truncated: !cancelled && stream_truncated,
            exec: self.exec,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CertainEngine;
    use nev_incomplete::builder::{c, x};
    use nev_incomplete::inst;

    /// One query's solo pass under `engine`'s bounds.
    fn solo(
        engine: &CertainEngine,
        d: &Instance,
        semantics: Semantics,
        query: &PreparedQuery,
    ) -> OracleOutcome {
        world_pass(engine.bounds(), d, semantics, &[query])
            .pop()
            .expect("one outcome per query")
    }

    #[test]
    fn zero_worlds_is_vacuously_certain_for_boolean_queries() {
        // A complete instance under CWA has exactly one world; trivially certain.
        let d = inst! { "R" => [[c(1)]] };
        let engine = CertainEngine::new();
        let query = engine.prepare("exists u . R(u)").unwrap();
        let out = solo(&engine, &d, Semantics::Cwa, &query);
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
            let out = solo(&engine, &d, Semantics::Cwa, query);
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
        let out = solo(&engine, &d, Semantics::Cwa, &query);
        assert!(out.worlds_considered <= 5);
        assert_eq!(out.certain.len(), 1, "every truncated world satisfies ∃R");
    }

    #[test]
    fn a_shared_pass_matches_each_solo_pass() {
        let d0 = inst! { "D" => [[x(1), x(2)], [x(2), x(1)]] };
        let engine = CertainEngine::new();
        let queries: Vec<PreparedQuery> = [
            "forall u . exists v . D(u, v)",
            "exists u . !D(u, u)",
            "Q(u) :- exists v . D(u, v)",
        ]
        .iter()
        .map(|text| engine.prepare(text).expect("valid query"))
        .collect();
        let refs: Vec<&PreparedQuery> = queries.iter().collect();
        let shared = world_pass(engine.bounds(), &d0, Semantics::Owa, &refs);
        for (query, outcome) in queries.iter().zip(&shared) {
            let solo = engine.compare(&d0, Semantics::Owa, query);
            assert_eq!(outcome.certain, solo.certain, "{query}");
            assert_eq!(outcome.truncated, solo.truncated, "{query}");
        }
    }
}
