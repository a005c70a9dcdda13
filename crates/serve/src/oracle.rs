//! The compat block: names the separately built `nevbench` package still
//! compiles against, each read by nevbench until its next benchmark PR.
//! Nothing in the service calls them. Its bounded oracle is the engine's one
//! sequential world pass ([`nev_core::oracle::world_pass`]), and `nevd` runs
//! no worker pool.

use std::sync::OnceLock;

use nev_core::engine::{CertainEngine, PreparedQuery};
use nev_core::oracle::{world_pass, OracleOutcome};
use nev_core::Semantics;
use nev_incomplete::Instance;

use crate::state::ServeState;
use crate::WorkerPool;

/// Read by nevbench until its next benchmark PR; nothing reads it otherwise.
pub const DEFAULT_CHUNK: usize = 32;

/// Read by nevbench until its next benchmark PR: the sequential world pass
/// under `engine`'s bounds. The pool and the chunk size are ignored.
pub fn parallel_certain_answers(
    _pool: &WorkerPool,
    engine: &CertainEngine,
    d: &Instance,
    semantics: Semantics,
    query: &PreparedQuery,
    _chunk: usize,
) -> OracleOutcome {
    world_pass(engine.bounds(), d, semantics, &[query])
        .pop()
        .expect("one outcome per query")
}

impl ServeState {
    /// Read by nevbench until its next benchmark PR: a pool with no worker
    /// thread, for the argument [`parallel_certain_answers`] ignores.
    pub fn pool(&self) -> &WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| WorkerPool::new(0))
    }
}
