//! Compatibility shim: the chunked parallel oracle moved to
//! [`nev_core::oracle`], next to the sequential world pass, so the engine's
//! Figure 1 dispatch can run it whenever the engine carries a worker pool.
//! Existing `nev_serve::oracle` imports keep working through this re-export.

pub use nev_core::oracle::{parallel_certain_answers, OracleOutcome, DEFAULT_CHUNK};
