//! # `nev-serve` — the concurrent certain-answer service
//!
//! The paper's headline is that on the guaranteed Figure 1 cells certain answers
//! cost exactly one naïve evaluation pass — cheap enough to *serve*. This crate is
//! the serving layer the rest of the workspace plugs into: a shared catalog of
//! incomplete instances, a plan cache that amortises preparation across requests,
//! a work-stealing worker pool, a parallel bounded oracle for the cells that still
//! need possible-world enumeration, and a loopback TCP line-protocol server
//! (`nevd`) with a load-generator client (`nevload`) and a live terminal
//! dashboard (`nevtop`).
//!
//! The module DAG, bottom to top:
//!
//! ```text
//! server (nevd accept loop, one thread per connection)
//!   └──► state    (ServeState: LOAD/PREPARE/EVAL/EXPLAIN/TRACE/PROFILE/
//!         │        STATS/TOP/METRICS handlers rendering the engine's one
//!         │        Figure 1 dispatch, grouped batch evaluation over
//!         │        evaluate_all)
//!         ├──► catalog  (named Arc<Instance> snapshots, copy-on-write swaps)
//!         ├──► cache    (LRU of Arc<PreparedQuery> holding the nev-opt
//!         │              optimised plan, keyed on the canonical rendering,
//!         │              single-flight preparation)
//!         ├──► oracle   (re-export of nev_core::oracle: the possible-world
//!         │              stream chunked across the pool, early-exit
//!         │              cancellation; verdicts ≡ sequential)
//!         ├──► pool     (re-export of nev_runtime::WorkerPool: work-stealing
//!         │              deques, caller-helps, deterministic maps — shared by
//!         │              request batches and oracle chunks)
//!         ├──► stats    (relaxed atomic counters behind STATS)
//!         └──► wire     (line-protocol grammar, canonical rendering)
//! client (blocking protocol client, seeded load generator, self-check)
//! ```
//!
//! Observability rides on the **`nev-obs`** crate at the bottom of the
//! workspace DAG: every `EVAL` runs under a [`nev_obs::TraceRecorder`] whose
//! per-stage spans feed a [`nev_obs::MetricsRegistry`] on the state — per-plan
//! request-latency histograms (reconciling exactly with the `evals` counter),
//! per-stage latency histograms, the pool's queue-wait/run split, and a
//! bounded top-K slow-query log. `TRACE` answers one request's stage timeline
//! as a one-liner; `PROFILE` runs one real evaluation and annotates every
//! executed operator of a compiled plan with wall time, output rows and the
//! `nev-opt` cost model's estimate; `METRICS` emits the whole registry — plus
//! trailing-window `nev_window_*` gauges off a lazily-sampled
//! [`nev_obs::TimeSeries`] — as a Prometheus-style exposition (the protocol's
//! sole multi-line response, terminated by `# EOF`); `TOP` condenses the
//! windowed rates into one line for `nevtop`; `METRICS RESET` re-baselines
//! the windows and empties the slow log without touching lifetime counters;
//! and `STATS` carries an `uptime_us=`/`p50_us=`/`p95_us=`/`p99_us=` digest.
//! Setting `NEV_TRACE=0` disables span collection; request latencies, served
//! bytes and all results are identical either way (`PROFILE` times on its own
//! explicit-request clock, exempt from the kill switch).
//!
//! The pool itself lives in the **`nev-runtime`** crate, below `nev-core` in
//! the dependency order, so the engine's chunked oracle runs on the *same*
//! threads that serve requests: one `ServeState` holds one `Arc<WorkerPool>`,
//! hands it to its engine ([`nev_core::engine::CertainEngine::with_pool`]),
//! and sizes it from [`ServeConfig::workers`] (defaulting to the
//! `NEV_WORKERS` environment variable via [`env_workers`]). Certified naïve
//! passes run sequentially on the thread serving the request.
//!
//! Correctness invariants, each backed by a test suite:
//!
//! * **snapshot isolation** — an `EVAL` runs entirely against the `Arc<Instance>`
//!   snapshot it resolved; concurrent `LOAD`s swap the catalog map copy-on-write
//!   and never mutate a shared instance;
//! * **schedule-independent answers** — certain answers are intersections over
//!   world streams, so worker count and stealing order never change a result:
//!   the determinism suite pins byte-identical responses at 1, 2 and 8 workers,
//!   and the property suite pins parallel ≡ sequential oracle verdicts on all
//!   five fragments;
//! * **round-trip fidelity** — every server response renders canonically, and the
//!   load generator asserts byte-identity against an in-process
//!   [`nev_core::engine::CertainEngine`] run on the same snapshots.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod catalog;
pub mod cli;
pub mod client;
pub mod oracle;
pub mod pool;
pub mod server;
pub mod state;
pub mod stats;
pub mod wire;

pub use cache::PlanCache;
pub use catalog::Catalog;
pub use client::{run_load, self_check, workload, Client, LoadReport};
pub use nev_runtime::env_workers;
pub use oracle::{parallel_certain_answers, OracleOutcome};
pub use pool::WorkerPool;
pub use server::{Server, ServerHandle};
pub use state::{
    EvalRequest, EvalResponse, PlanKind, ServeConfig, ServeError, ServeState, PLAN_LABELS,
    SLOW_LOG_CAPACITY,
};
pub use stats::{ServeStats, StatsSnapshot};

#[cfg(test)]
mod thread_safety {
    //! `static_assertions`-style compile tests: if this module compiles, the
    //! service types are `Send + Sync` and safe to share across the pool and the
    //! connection threads.
    use super::*;

    fn require_send_sync<T: Send + Sync>() {}

    #[test]
    fn service_types_are_send_and_sync() {
        require_send_sync::<Catalog>();
        require_send_sync::<PlanCache>();
        require_send_sync::<WorkerPool>();
        require_send_sync::<ServeState>();
        require_send_sync::<ServeStats>();
        require_send_sync::<OracleOutcome>();
        require_send_sync::<EvalResponse>();
    }
}
