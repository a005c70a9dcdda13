//! # `nev-obs` — spans, latency histograms, and the metrics registry
//!
//! The engine has four dispatch regimes (certified-naive, compiled, symbolic
//! sandwich, bounded oracle) and a vectorised executor; this crate is the
//! telemetry layer that makes their costs *visible* without ever changing an
//! answer. It is zero-dependency (std only) and splits into four pieces:
//!
//! * [`hist`] — HDR-style latency [`Histogram`]s with power-of-two buckets.
//!   Recording is one relaxed atomic increment per sample, so histograms can
//!   sit on hot paths (the worker pool records every task) and be shared
//!   across threads without locks. Snapshots are plain values: mergeable,
//!   comparable, and renderable as Prometheus `_bucket`/`_sum`/`_count`
//!   series with p50/p95/p99/max readout.
//! * [`span`] — per-request stage timelines. A [`TraceRecorder`] hands out
//!   RAII [`Span`] guards (`recorder.span(Stage::Exec)`), nesting tracked by
//!   depth, bounded at [`MAX_SPANS`] records; [`TraceRecorder::finish`]
//!   freezes it into a [`Trace`] that rides on evaluation results. `Trace`
//!   compares equal to every other `Trace` by design: timing is telemetry,
//!   never part of a result's value, so derived `Eq` on result types and
//!   byte-identity determinism pins stay exact.
//! * [`registry`] — the serving layer's one telemetry store, the
//!   [`MetricsRegistry`]: the independent [`Counter`] tallies, per-stage and
//!   per-dispatch-kind histograms, a bounded top-K slow-query log, the
//!   time-series ring, and the text exposition behind the wire `METRICS`
//!   command (shape-checkable with [`validate_exposition`]). A
//!   [`MetricsSnapshot`] copies the counters and per-plan histograms at one
//!   instant; `STATS`, `TOP` and `METRICS` each render one, and the
//!   per-dispatch-kind evaluation counts are read off its histograms rather
//!   than tallied twice.
//! * [`timeseries`] — a fixed-size ring of lazy, rate-limited
//!   [`MetricsSnapshot`]s, giving QPS, error rate and interpolated
//!   p50/p95/p99 over trailing 1 s / 10 s / 60 s windows
//!   ([`TimeSeries::window`]) — the data behind the wire `TOP` summary and
//!   the `nevtop` dashboard.
//!
//! ## The kill switch
//!
//! `NEV_TRACE=0` (also `off`/`false`) disables all time measurement: [`Timer`]
//! and [`TraceRecorder`] become inert — no `Instant::now()` calls, no span
//! records, no histogram samples — so the instrumented hot paths cost one
//! branch per probe point. The flag is read once per process ([`enabled`]).
//! Tracing never changes served bytes either way; the CI determinism suite
//! runs under both settings to pin that.
//!
//! ```
//! use nev_obs::{Histogram, Stage, TraceRecorder};
//!
//! let recorder = TraceRecorder::with_enabled(true);
//! {
//!     let _exec = recorder.span(Stage::Exec);
//!     recorder.leaf(Stage::Scan, 7); // replayed child timing, depth 1
//! }
//! let trace = recorder.finish();
//! assert_eq!(trace.spans().len(), 2);
//!
//! let hist = Histogram::new();
//! hist.record(120);
//! hist.record(3_500);
//! let snap = hist.snapshot();
//! assert_eq!(snap.count, 2);
//! assert!(snap.p99() >= 3_500);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod registry;
pub mod span;
pub mod timeseries;

pub use hist::{bucket_bound, Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{validate_exposition, Counter, MetricsRegistry, MetricsSnapshot, SlowQuery};
pub use span::{Span, SpanRecord, Stage, Trace, TraceRecorder, MAX_SPANS};
pub use timeseries::{TimeSeries, WindowDelta, WINDOWS};

use std::sync::OnceLock;
use std::time::Instant;

static ENABLED: OnceLock<bool> = OnceLock::new();

/// Whether instrumentation is live for this process.
///
/// Defaults to `true`; set `NEV_TRACE=0` (or `off` / `false`) to disable every
/// timer and span in the workspace. Read once and cached — flipping the
/// environment variable mid-process has no effect, which keeps concurrent
/// probe points consistent with each other.
pub fn enabled() -> bool {
    *ENABLED.get_or_init(|| {
        !matches!(
            std::env::var("NEV_TRACE").as_deref(),
            Ok("0") | Ok("off") | Ok("false")
        )
    })
}

/// A start-time capture that is inert when instrumentation is disabled.
///
/// [`Timer::start`] consults [`enabled`] once: when tracing is off it never
/// calls `Instant::now()`, and [`Timer::is_running`] lets call sites skip the
/// recording branch entirely — the "provably near-zero overhead" contract.
#[derive(Clone, Copy, Debug)]
pub struct Timer(Option<Instant>);

impl Timer {
    /// Starts a timer, or an inert one when the kill switch is set.
    pub fn start() -> Self {
        if enabled() {
            Timer(Some(Instant::now()))
        } else {
            Timer(None)
        }
    }

    /// Starts a timer regardless of the kill switch (for reporting tools that
    /// always want wall-clock numbers, e.g. the load generator).
    pub fn start_always() -> Self {
        Timer(Some(Instant::now()))
    }

    /// An inert timer: [`Timer::is_running`] is `false`, elapsed time is 0.
    pub fn disabled() -> Self {
        Timer(None)
    }

    /// Whether this timer captured a start instant.
    pub fn is_running(&self) -> bool {
        self.0.is_some()
    }

    /// Microseconds since the timer started (0 when inert).
    pub fn elapsed_us(&self) -> u64 {
        self.0
            .map(|at| at.elapsed().as_micros().min(u128::from(u64::MAX)) as u64)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_timer_is_inert() {
        let t = Timer::disabled();
        assert!(!t.is_running());
        assert_eq!(t.elapsed_us(), 0);
    }

    #[test]
    fn always_on_timer_runs() {
        let t = Timer::start_always();
        assert!(t.is_running());
        // Elapsed time is monotone, not negative — just probe it compiles/runs.
        let _ = t.elapsed_us();
    }
}
