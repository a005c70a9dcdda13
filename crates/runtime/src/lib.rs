//! `nev-runtime` — the shared execution runtime of the `naive-eval` workspace.
//!
//! This crate holds the infrastructure the engine (`nev-core`, for the chunked
//! possible-world oracle) and the serving layer (`nev-serve`, for parallel
//! request handling) share: a work-stealing [`WorkerPool`] with caller-helps
//! semantics and deterministic, order-preserving parallel maps. A certified
//! naïve pass (`nev-exec`) runs sequentially on the calling thread.
//!
//! It lives below every other `nev-*` crate (dependencies: `std` and the
//! telemetry layer `nev-obs` only), so no crate that uses the pool has to
//! depend on the serving layer. `nev-serve` re-exports [`WorkerPool`] for
//! backwards compatibility, so existing `nev_serve::pool::WorkerPool` imports
//! keep working.
//!
//! The pool records queue-wait and run-time latency histograms per task
//! ([`PoolMetrics`]).

pub mod pool;

pub use pool::{PoolMetrics, WorkerPool};

/// The worker count configured through the `NEV_WORKERS` environment variable,
/// if set to a parseable `usize`. This is the **one** knob every consumer of
/// the shared pool reads: `nev-serve` defaults its pool size to it, and the
/// `figure1` harness defaults `--threads` to it — so thread counts are
/// configured in exactly one place.
pub fn env_workers() -> Option<usize> {
    std::env::var("NEV_WORKERS").ok()?.trim().parse().ok()
}
