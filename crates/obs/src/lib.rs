//! # `nev-obs` — spans, latency histograms, and the metrics registry
//!
//! The engine has four dispatch regimes (certified-naive, compiled, symbolic
//! sandwich, bounded oracle) and a vectorised executor; this crate is the
//! telemetry layer that makes their costs *visible* without ever changing an
//! answer. It is zero-dependency (std only) and splits into four pieces:
//!
//! * [`hist`] — HDR-style latency [`Histogram`]s with power-of-two buckets.
//!   Recording is one relaxed atomic increment per sample, so histograms can
//!   sit on hot paths (every served request records its stages) and be shared
//!   across threads without locks. Snapshots are plain values: mergeable,
//!   comparable, and renderable as Prometheus `_bucket`/`_sum`/`_count`
//!   series with p50/p95/p99/max readout.
//! * [`span`] — per-request stage timelines. A [`TraceRecorder`] hands out
//!   RAII [`Span`] guards (`recorder.span(Stage::Exec)`), nesting tracked by
//!   depth, bounded at [`MAX_SPANS`] records; [`TraceRecorder::finish`]
//!   freezes it into a [`Trace`]. The caller that serves a request owns its
//!   recorder and hands it to the code it times; no result value carries a
//!   timeline, so timing never enters a result's equality.
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
//! ## One instrumentation mode
//!
//! Every [`Timer`] reads the clock and every [`TraceRecorder::new`] records;
//! there is no process-wide switch. An entry point that wants no stage
//! timeline says so at the call site with [`TraceRecorder::disabled`] (or, in
//! `nev-core`'s dispatch, by passing no recorder). Timing never changes an
//! answer or a served byte: a [`Trace`] lives beside a result, never inside
//! it, and so do the executor's timings and operator profiles.
//!
//! ```
//! use nev_obs::{Histogram, Stage, TraceRecorder};
//!
//! let recorder = TraceRecorder::new();
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

use std::time::Instant;

/// A start-time capture: microseconds elapsed since [`Timer::start`].
#[derive(Clone, Copy, Debug)]
pub struct Timer(Instant);

impl Timer {
    /// Starts a timer.
    pub fn start() -> Self {
        Timer(Instant::now())
    }

    /// Microseconds since the timer started.
    pub fn elapsed_us(&self) -> u64 {
        self.0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_on_timer_runs() {
        let t = Timer::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(t.elapsed_us() >= 1_000, "the timer reads the clock");
    }
}
