//! The compat block: names the separately built `nevbench` package still
//! compiles against, each read by nevbench until its next benchmark PR.
//! Nothing in the service calls them. Its bounded oracle is the engine's one
//! sequential world pass ([`nev_core::oracle::world_pass`]), and `nevd` runs
//! no worker pool.

use nev_core::engine::{CertainEngine, PreparedQuery};
use nev_core::oracle::{world_pass, OracleOutcome};
use nev_core::Semantics;
use nev_incomplete::Instance;

use crate::state::ServeState;

/// Read by nevbench until its next benchmark PR; nothing reads it otherwise.
pub const DEFAULT_CHUNK: usize = 32;

/// Read by nevbench until its next benchmark PR: the sequential world pass
/// under `engine`'s bounds. The placeholder pool and the chunk size are
/// ignored.
pub fn parallel_certain_answers(
    _pool: &(),
    engine: &CertainEngine,
    d: &Instance,
    semantics: Semantics,
    query: &PreparedQuery,
    _chunk: usize,
) -> OracleOutcome {
    world_pass(engine.bounds(), d, semantics, query)
}

impl ServeState {
    /// Read by nevbench until its next benchmark PR: a placeholder for the
    /// argument [`parallel_certain_answers`] ignores.
    pub fn pool(&self) -> &'static () {
        &()
    }
}
