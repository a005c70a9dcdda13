//! # `nev-serve` — the concurrent certain-answer service
//!
//! The paper's headline is that on the guaranteed Figure 1 cells certain answers
//! cost exactly one naïve evaluation pass — cheap enough to *serve*. This crate is
//! the serving layer the rest of the workspace plugs into: a shared catalog of
//! incomplete instances, a plan cache that amortises preparation across requests,
//! handlers that run the engine's Figure 1 dispatch (its bounded oracle is one
//! sequential world pass), and a loopback TCP line-protocol server (`nevd`)
//! with a load-generator client (`nevload`) and a live terminal dashboard
//! (`nevtop`).
//!
//! The module DAG, bottom to top:
//!
//! ```text
//! server (nevd accept loop, one thread per connection)
//!   └──► state    (ServeState: LOAD/PREPARE/EVAL/EXPLAIN/TRACE/PROFILE/
//!         │        STATS/TOP/METRICS handlers rendering the engine's one
//!         │        Figure 1 dispatch and one nev-obs MetricsRegistry
//!         │        snapshot)
//!         ├──► catalog  (named Arc<Instance> snapshots, copy-on-write swaps)
//!         ├──► cache    (LRU of Arc<PreparedQuery> holding the nev-opt
//!         │              optimised plan, keyed on the canonical rendering,
//!         │              single-flight preparation)
//!         └──► wire     (line-protocol grammar, canonical rendering)
//! client (blocking protocol client, seeded load generator, self-check)
//! ```
//!
//! Observability rides on the **`nev-obs`** crate at the bottom of the
//! workspace DAG. The state's one telemetry store is a
//! [`nev_obs::MetricsRegistry`]: the independent [`nev_obs::Counter`]
//! tallies, per-plan request-latency histograms, per-stage latency
//! histograms fed by the [`nev_obs::TraceRecorder`] every `EVAL`, `TRACE`
//! and `PROFILE` runs under,
//! a bounded top-K slow-query log, and a lazily-sampled
//! [`nev_obs::TimeSeries`] ring. `STATS`, `TOP` and `METRICS` each render
//! one [`nev_obs::MetricsSnapshot`] of it, and `evals` and the dispatch
//! counters (`certified`, `compiled`, `normalized_upgrades`, `symbolic`,
//! `oracle`) are the per-plan histogram counts of that snapshot, so the three
//! commands agree by construction. `TRACE` answers one request's stage
//! timeline as a one-liner; `PROFILE` runs one real evaluation and annotates
//! every executed operator of a compiled plan with wall time, output rows and
//! the `nev-opt` cost model's estimate; `METRICS` emits the whole registry
//! and the trailing-window `nev_window_*` gauges as a Prometheus-style exposition (the protocol's sole multi-line
//! response, terminated by `# EOF`); `TOP` condenses the windowed rates into
//! one line for `nevtop`; `METRICS RESET` re-baselines the windows and
//! empties the slow log without touching lifetime counters; and `STATS`
//! carries an `uptime_us=`/`p50_us=`/`p95_us=`/`p99_us=` digest.
//! Timing never changes a served byte or a result: traces, executor timings
//! and operator profiles go to sinks the caller owns, never into an
//! `Evaluation`.
//!
//! Every request — certified naïve pass, symbolic ladder, oracle world pass —
//! runs sequentially on the thread serving its connection, so
//! `nevd` starts one thread per connection and no other.
//!
//! Correctness invariants, each backed by a test suite:
//!
//! * **snapshot isolation** — an `EVAL` runs entirely against the `Arc<Instance>`
//!   snapshot it resolved; concurrent `LOAD`s swap the catalog map copy-on-write
//!   and never mutate a shared instance;
//! * **repeatable answers** — the oracle visits worlds in stream order, so a
//!   replayed request stream gives byte-identical responses and the same
//!   `worlds=` counts on every run (the determinism suite pins both);
//! * **round-trip fidelity** — every server response renders canonically, and the
//!   load generator asserts byte-identity against an in-process
//!   [`nev_core::engine::CertainEngine`] run on the same snapshots.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod catalog;
pub mod cli;
pub mod client;
#[doc(hidden)]
pub mod oracle;
pub mod server;
pub mod state;
pub mod wire;

pub use cache::PlanCache;
pub use catalog::Catalog;
pub use client::{run_load, self_check, workload, Client, LoadReport};
pub use server::{Server, ServerHandle};
pub use state::{
    EvalResponse, PlanKind, ServeConfig, ServeError, ServeState, PLAN_LABELS, SLOW_LOG_CAPACITY,
};

#[cfg(test)]
mod thread_safety {
    //! `static_assertions`-style compile tests: if this module compiles, the
    //! service types are `Send + Sync` and safe to share across the connection
    //! threads.
    use super::*;

    fn require_send_sync<T: Send + Sync>() {}

    #[test]
    fn service_types_are_send_and_sync() {
        require_send_sync::<Catalog>();
        require_send_sync::<PlanCache>();
        require_send_sync::<ServeState>();
        require_send_sync::<EvalResponse>();
    }
}
