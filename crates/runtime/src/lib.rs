//! `nev-runtime` — the work-stealing worker pool of the `naive-eval` workspace.
//!
//! A [`WorkerPool`] with caller-helps semantics and deterministic,
//! order-preserving parallel maps. Its one user is the `figure1` harness,
//! which fans its Figure 1 cells out on it (`--threads`), through the
//! `nev_serve::{WorkerPool, env_workers}` re-exports. The engine and `nevd`
//! run sequentially: a certified naïve pass, the symbolic ladder and the
//! bounded world oracle all run on the calling thread.
//!
//! It lives below every other `nev-*` crate (dependencies: `std` and the
//! telemetry layer `nev-obs` only).
//!
//! The pool records queue-wait and run-time latency histograms per task
//! ([`PoolMetrics`]).

pub mod pool;

pub use pool::{PoolMetrics, WorkerPool};

/// The worker count configured through the `NEV_WORKERS` environment variable,
/// if set to a parseable `usize`: the default of the `figure1` harness's
/// `--threads`.
pub fn env_workers() -> Option<usize> {
    std::env::var("NEV_WORKERS").ok()?.trim().parse().ok()
}
