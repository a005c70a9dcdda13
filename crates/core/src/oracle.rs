//! The bounded world oracles: intersect a query's answers over the streamed
//! possible worlds, exiting early once the intersection is empty.
//!
//! There are two, and both fold the same per-world step,
//! [`PreparedQuery::answers_in_world`]:
//!
//! * [`world_pass`] — one **sequential** pass over the [`Semantics::worlds`]
//!   stream shared by a slice of queries. With one query it is the reference
//!   oracle behind [`CertainEngine::compare`] and
//!   [`CertainEngine::certain_answers`]; with many it is the shared pass of
//!   [`CertainEngine::evaluate_all`].
//! * [`parallel_certain_answers`] — the stream of one query split into chunks
//!   evaluated across a [`WorkerPool`], which [`CertainEngine::dispatch`] runs
//!   when the engine carries a pool:
//!   1. the calling thread drives [`Semantics::worlds`] (world *generation* is
//!      cheap and inherently sequential — each world is one valuation image or
//!      extension), batching worlds into fixed-size chunks;
//!   2. each chunk becomes a pool task intersecting the per-world answers over
//!      its worlds — the expensive per-world query evaluation is where the
//!      parallelism pays;
//!   3. a shared cancellation flag is raised the moment any chunk's
//!      intersection goes empty (for a Boolean query: a counter-world was
//!      found); queued chunks then return immediately and the stream stops,
//!      mirroring the sequential pass's early exit.
//!
//! **The verdict is scheduling-independent.** If any world refutes a tuple, the
//! final intersection excludes it no matter which worker saw the world first; if the
//! intersection ever goes empty the result is the empty set on every schedule; and
//! if no early exit triggers, every enumerated world was intersected, which is
//! exactly the sequential result. `worlds_considered` *is* schedule-dependent (a
//! cancelled run may have evaluated a few more or fewer worlds) — it is telemetry,
//! not part of the answer. The property suite checks parallel ≡ sequential verdicts
//! across every fragment, and the determinism suite checks byte-identical answers at
//! 1, 2 and 8 workers.
//!
//! Over an empty enumeration (a world cap of zero) both oracles agree: a
//! Boolean query is vacuously certain, a k-ary intersection is empty, and
//! either verdict is flagged truncated when the cap suppressed worlds.

use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use nev_exec::ExecStats;
use nev_incomplete::{Constant, Instance, Tuple};
use nev_runtime::WorkerPool;

use crate::engine::{boolean_answers, CertainEngine, PreparedQuery};
use crate::semantics::{Semantics, WorldBounds};

/// Worlds per pool task. Small enough to rebalance across workers, large enough to
/// amortise task overhead; fixed so runs are reproducible.
pub const DEFAULT_CHUNK: usize = 32;

/// The outcome of one query's oracle run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OracleOutcome {
    /// The certain answers over the bounded enumeration (Boolean queries use the
    /// `{()} / ∅` encoding). Identical across the two oracles.
    pub certain: BTreeSet<Tuple>,
    /// Worlds actually evaluated (telemetry; schedule-dependent under early
    /// exit). A shared pass reports the worlds the whole pass visited.
    pub worlds_considered: usize,
    /// Chunks dispatched to the pool (`0` for the sequential pass).
    pub chunks: usize,
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
        .map(|(query, fold)| fold.outcome(query, visited, 0, stream_truncated))
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

    /// Intersects `answers` into the running result.
    fn meet(&mut self, answers: BTreeSet<Tuple>) {
        self.acc = Some(match self.acc.take() {
            None => answers,
            Some(prev) => prev.intersection(&answers).cloned().collect(),
        });
    }

    /// Intersects the query's answers in one more world.
    fn add(&mut self, query: &PreparedQuery, world: &Instance) {
        let answers = query.answers_in_world(world, self.allowed, &mut self.exec);
        self.meet(answers);
    }

    /// The verdict. With no world seen, a Boolean query is vacuously certain
    /// and a k-ary intersection is empty; an emptied intersection is
    /// definitive, anything else leans on the whole (possibly capped) stream.
    fn outcome(
        self,
        query: &PreparedQuery,
        worlds_considered: usize,
        chunks: usize,
        stream_truncated: bool,
    ) -> OracleOutcome {
        let cancelled = self.emptied();
        OracleOutcome {
            certain: self
                .acc
                .unwrap_or_else(|| boolean_answers(query.is_boolean())),
            worlds_considered,
            chunks,
            cancelled,
            truncated: !cancelled && stream_truncated,
            exec: self.exec,
        }
    }
}

/// Intersects `query`'s answers over the bounded worlds of `d` under `semantics`,
/// splitting the stream into `chunk`-sized pool tasks. Uses `engine` only for its
/// world bounds; plan dispatch is the caller's business (run this exactly where the
/// engine would pick `EvalPlan::BoundedEnumeration`). The query is taken by
/// [`Borrow`], so an `Arc<PreparedQuery>` reaches the pool tasks without a deep
/// clone.
pub fn parallel_certain_answers<Q>(
    pool: &WorkerPool,
    engine: &CertainEngine,
    d: &Instance,
    semantics: Semantics,
    query: &Q,
    chunk: usize,
) -> OracleOutcome
where
    Q: Borrow<PreparedQuery> + Clone + Send + Sync + 'static,
{
    let chunk = chunk.max(1);
    let prepared = query.borrow();
    let bounds = prepared.bounds(engine.bounds());
    let allowed = Arc::new(prepared.allowed_constants(d));
    let cancel = Arc::new(AtomicBool::new(false));
    let mut total = Fold::new(&allowed);
    let mut worlds = semantics.worlds(d, &bounds);
    let mut worlds_considered = 0usize;
    let mut chunks = 0usize;
    // One wave = one chunk per potential runner (workers + the helping caller), so
    // the stream never materialises more worlds than the pool can chew on.
    let wave_width = pool.workers() + 1;

    'stream: loop {
        let mut wave: Vec<Vec<Instance>> = Vec::with_capacity(wave_width);
        for _ in 0..wave_width {
            let batch: Vec<Instance> = worlds.by_ref().take(chunk).collect();
            let exhausted = batch.len() < chunk;
            if !batch.is_empty() {
                wave.push(batch);
            }
            if exhausted {
                break;
            }
        }
        if wave.is_empty() {
            break;
        }
        chunks += wave.len();
        let results = pool.run(wave, {
            let query = query.clone();
            let allowed = Arc::clone(&allowed);
            let cancel = Arc::clone(&cancel);
            move |_, batch: Vec<Instance>| evaluate_chunk(query.borrow(), &allowed, &cancel, &batch)
        });
        for (answers, chunk_worlds, exec) in results {
            worlds_considered += chunk_worlds;
            total.exec.merge(&exec);
            // A chunk cancelled before its first world contributes nothing.
            let Some(answers) = answers else { continue };
            total.meet(answers);
            if total.emptied() {
                // relaxed: advisory flag — a late observer only does spare work.
                cancel.store(true, Ordering::Relaxed);
                break 'stream;
            }
        }
    }

    let stream_truncated = worlds.truncated();
    total.outcome(prepared, worlds_considered, chunks, stream_truncated)
}

/// One pool task: the chunk's intersection (`None` when cancelled before its
/// first world), the worlds it evaluated, and its executor counters. An
/// emptied intersection raises the shared cancellation flag.
fn evaluate_chunk(
    query: &PreparedQuery,
    allowed: &BTreeSet<Constant>,
    cancel: &AtomicBool,
    batch: &[Instance],
) -> (Option<BTreeSet<Tuple>>, usize, ExecStats) {
    let mut fold = Fold::new(allowed);
    let mut worlds = 0usize;
    for world in batch {
        // relaxed: advisory cancellation probe; a missed flag costs one extra world.
        if cancel.load(Ordering::Relaxed) {
            // Another chunk already refuted everything; whatever we intersected so
            // far is still a sound factor, so report it rather than discard it.
            break;
        }
        worlds += 1;
        fold.add(query, world);
        if fold.emptied() {
            // relaxed: advisory flag — a late observer only does spare work.
            cancel.store(true, Ordering::Relaxed);
            break;
        }
    }
    (fold.acc, worlds, fold.exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nev_incomplete::builder::{c, x};
    use nev_incomplete::inst;

    fn pool() -> WorkerPool {
        WorkerPool::new(3)
    }

    fn engine() -> CertainEngine {
        CertainEngine::new()
    }

    fn outcome(d: &Instance, semantics: Semantics, text: &str, chunk: usize) -> OracleOutcome {
        let engine = engine();
        let query = Arc::new(engine.prepare(text).expect("valid query"));
        parallel_certain_answers(&pool(), &engine, d, semantics, &query, chunk)
    }

    #[test]
    fn matches_the_sequential_oracle_on_the_owa_counterexample() {
        let d0 = inst! { "D" => [[x(1), x(2)], [x(2), x(1)]] };
        let text = "forall u . exists v . D(u, v)";
        for chunk in [1, 2, 7, 64] {
            let parallel = outcome(&d0, Semantics::Owa, text, chunk);
            let sequential = engine()
                .compare(&d0, Semantics::Owa, &engine().prepare(text).unwrap())
                .certain;
            assert_eq!(parallel.certain, sequential, "chunk={chunk}");
            assert!(parallel.certain.is_empty());
            assert!(parallel.cancelled, "a counter-world exists");
        }
    }

    #[test]
    fn matches_the_sequential_oracle_on_kary_queries() {
        // Two nulls and tight extension bounds keep the WCWA enumeration small;
        // the cross-fragment sweep lives in the release-mode determinism suite.
        let d = inst! {
            "R" => [[c(1), x(1)], [x(1), c(2)]],
        };
        let text = "Q(x, y) :- exists z . R(x, z) & R(z, y)";
        let bounds = WorldBounds {
            owa_max_extra_tuples: 1,
            wcwa_max_extra_tuples: 1,
            ..WorldBounds::default()
        };
        for semantics in [Semantics::Owa, Semantics::Cwa, Semantics::Wcwa] {
            let engine = CertainEngine::with_bounds(bounds.clone());
            let query = Arc::new(engine.prepare(text).expect("valid query"));
            let parallel = parallel_certain_answers(&pool(), &engine, &d, semantics, &query, 8);
            let sequential = engine.certain_answers(&d, semantics, &query);
            assert_eq!(parallel.certain, sequential, "{semantics}");
            assert!(!parallel.certain.is_empty(), "{semantics}");
            assert!(!parallel.cancelled, "{semantics}: every world keeps (1,2)");
            assert!(parallel.worlds_considered > 0);
            assert!(parallel.chunks > 0);
        }
    }

    #[test]
    fn zero_worlds_is_vacuously_certain_for_boolean_queries() {
        // A complete instance under CWA has exactly one world; trivially certain.
        let d = inst! { "R" => [[c(1)]] };
        let parallel = outcome(&d, Semantics::Cwa, "exists u . R(u)", 4);
        assert_eq!(parallel.certain.len(), 1);
        assert_eq!(parallel.worlds_considered, 1);
        // An empty enumeration (max_worlds = 0) matches the sequential oracle:
        // vacuously true for Boolean queries, empty for k-ary ones.
        let engine = CertainEngine::with_bounds(WorldBounds {
            max_worlds: 0,
            ..WorldBounds::default()
        });
        let boolean = Arc::new(engine.prepare("exists u . R(u)").unwrap());
        let kary = Arc::new(engine.prepare("Q(u) :- R(u)").unwrap());
        for query in [&boolean, &kary] {
            let out = parallel_certain_answers(&pool(), &engine, &d, Semantics::Cwa, query, 4);
            let sequential = engine.certain_answers(&d, Semantics::Cwa, query);
            assert_eq!(out.certain, sequential);
            assert_eq!(out.worlds_considered, 0);
        }
    }

    #[test]
    fn respects_the_engine_world_bounds() {
        let d = inst! { "R" => [[x(1), x(2), x(3)]] };
        let engine = CertainEngine::with_bounds(WorldBounds {
            max_worlds: 5,
            ..WorldBounds::default()
        });
        let query = Arc::new(engine.prepare("exists u v w . R(u, v, w)").unwrap());
        let out = parallel_certain_answers(&pool(), &engine, &d, Semantics::Cwa, &query, 2);
        assert!(out.worlds_considered <= 5);
        assert_eq!(out.certain.len(), 1, "every truncated world satisfies ∃R");
    }

    #[test]
    fn a_shared_pass_matches_each_solo_pass() {
        let d0 = inst! { "D" => [[x(1), x(2)], [x(2), x(1)]] };
        let engine = engine();
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
            assert_eq!(
                outcome.chunks, 0,
                "the sequential pass dispatches no chunks"
            );
        }
    }
}
