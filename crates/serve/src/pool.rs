//! Compatibility shim: the work-stealing [`WorkerPool`] moved to the
//! `nev-runtime` crate so the engine's chunked oracle can run on the same pool
//! without a `serve → core` dependency cycle. Existing
//! `nev_serve::pool::WorkerPool` (and `nev_serve::WorkerPool`) imports keep
//! working through this re-export.

pub use nev_runtime::pool::WorkerPool;
