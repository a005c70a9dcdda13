//! Windowed time-series telemetry: rates over trailing windows, not just
//! counters-since-boot.
//!
//! A [`TimeSeries`] is a fixed-size ring of periodic [`MetricsSnapshot`]s —
//! each a timestamped copy of the registry's monotone counters plus its
//! per-dispatch-kind latency [`HistogramSnapshot`]s. Subtracting a ring
//! snapshot from the current one ([`TimeSeries::window`]) yields a
//! [`WindowDelta`]: exactly the traffic of the trailing window, from which
//! QPS, error rate and interpolated p50/p95/p99 follow.
//!
//! Two design constraints shape the API:
//!
//! * **no background thread** — the serving layer has no ticker, so sampling
//!   is *lazy*: callers offer a sample on their own hot path and the ring
//!   keeps it only when the previous sample is at least
//!   [`TimeSeries::min_interval_us`] old ([`TimeSeries::record`]). Between
//!   offers the ring simply holds its last samples; window arithmetic always
//!   reports the *actual* elapsed span ([`WindowDelta::span_us`]), so rates
//!   stay honest even under bursty sampling.
//! * **no internal clock** — timestamps are the snapshots' own
//!   ([`MetricsSnapshot::at_us`], microseconds on any monotone clock), which
//!   keeps the structure fully deterministic under test.
//!
//! Because every tracked quantity is a monotone counter, a window delta over
//! the whole ring reconciles *exactly* with the lifetime counters — the
//! invariant the umbrella metrics suite pins under concurrent load.
//! [`TimeSeries::reset`] clears history and re-baselines at the supplied
//! sample (it never touches the lifetime counters themselves).

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::hist::HistogramSnapshot;
use crate::registry::{Counter, MetricsSnapshot};

/// The trailing windows the serving layer reports, as `(label, span_us)`.
pub const WINDOWS: [(&str, u64); 3] = [("1s", 1_000_000), ("10s", 10_000_000), ("60s", 60_000_000)];

/// Default minimum spacing between retained samples: 250 ms (4 Hz).
pub const DEFAULT_SAMPLE_INTERVAL_US: u64 = 250_000;

/// Default ring capacity: 256 samples × 250 ms ≈ 64 s of history — enough to
/// cover the longest [`WINDOWS`] entry with slack.
pub const DEFAULT_SAMPLE_CAPACITY: usize = 256;

/// The traffic of one trailing window: the current snapshot minus a
/// baseline snapshot.
#[derive(Clone, Debug)]
pub struct WindowDelta {
    /// Actual elapsed span between baseline and current sample, microseconds
    /// (the denominator of every rate — may be shorter than the nominal
    /// window on a young server, longer under sparse sampling).
    pub span_us: u64,
    /// Wire requests in the window.
    pub requests: u64,
    /// Evaluations in the window: the per-plan window counts summed.
    pub evals: u64,
    /// Request errors in the window.
    pub errors: u64,
    /// Window request-latency histogram, merged across dispatch kinds.
    pub latency: HistogramSnapshot,
    /// Per-dispatch-kind window latency histograms.
    pub plans: Vec<(&'static str, HistogramSnapshot)>,
}

impl WindowDelta {
    /// Evaluations per second over the window (0 on an empty span).
    pub fn qps(&self) -> f64 {
        if self.span_us == 0 {
            return 0.0;
        }
        self.evals as f64 / (self.span_us as f64 / 1_000_000.0)
    }

    /// Errors per wire request over the window (0 when no requests landed).
    pub fn error_rate(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.errors as f64 / self.requests as f64
    }
}

/// A fixed-size ring of [`MetricsSnapshot`]s with lazy, rate-limited
/// admission.
#[derive(Debug)]
pub struct TimeSeries {
    min_interval_us: u64,
    capacity: usize,
    ring: Mutex<VecDeque<MetricsSnapshot>>,
}

impl Default for TimeSeries {
    fn default() -> Self {
        TimeSeries::new()
    }
}

impl TimeSeries {
    /// A ring with the default 250 ms spacing and 256-sample capacity.
    pub fn new() -> Self {
        TimeSeries::with_config(DEFAULT_SAMPLE_INTERVAL_US, DEFAULT_SAMPLE_CAPACITY)
    }

    /// A ring keeping at most `capacity` samples spaced at least
    /// `min_interval_us` apart.
    pub fn with_config(min_interval_us: u64, capacity: usize) -> Self {
        TimeSeries {
            min_interval_us,
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Minimum spacing between retained samples, microseconds.
    pub fn min_interval_us(&self) -> u64 {
        self.min_interval_us
    }

    /// Whether a snapshot taken at `at_us` would be retained — the cheap
    /// guard callers check before taking a full [`MetricsSnapshot`].
    pub fn due(&self, at_us: u64) -> bool {
        let ring = self.ring.lock().expect("time-series ring poisoned");
        ring.back().map_or(true, |newest| {
            at_us.saturating_sub(newest.at_us) >= self.min_interval_us
        })
    }

    /// Offers a sample to the ring; it is kept iff it is [`TimeSeries::due`]
    /// (the oldest sample is evicted at capacity). Returns whether it was
    /// retained.
    pub fn record(&self, sample: MetricsSnapshot) -> bool {
        let mut ring = self.ring.lock().expect("time-series ring poisoned");
        let due = ring.back().map_or(true, |newest| {
            sample.at_us.saturating_sub(newest.at_us) >= self.min_interval_us
        });
        if !due {
            return false;
        }
        if ring.len() >= self.capacity {
            ring.pop_front();
        }
        ring.push_back(sample);
        true
    }

    /// Retained samples currently in the ring.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("time-series ring poisoned").len()
    }

    /// Whether the ring holds no samples yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clears history and re-baselines at `baseline` (normally the current
    /// snapshot): subsequent windows report traffic since the reset, while
    /// the lifetime counters themselves are untouched.
    pub fn reset(&self, baseline: MetricsSnapshot) {
        let mut ring = self.ring.lock().expect("time-series ring poisoned");
        ring.clear();
        ring.push_back(baseline);
    }

    /// The trailing window of `window_us` microseconds ending at `current`:
    /// the baseline is the youngest ring sample at least `window_us` old
    /// (falling back to the oldest sample on a young ring, and to zeroed
    /// counters at time 0 on an empty ring, i.e. "since boot").
    pub fn window(&self, current: &MetricsSnapshot, window_us: u64) -> WindowDelta {
        let ring = self.ring.lock().expect("time-series ring poisoned");
        let baseline = ring
            .iter()
            .rev()
            .find(|sample| current.at_us.saturating_sub(sample.at_us) >= window_us)
            .or_else(|| ring.front())
            .cloned()
            .unwrap_or_default();
        drop(ring);
        let plans: Vec<(&'static str, HistogramSnapshot)> = current
            .plans
            .iter()
            .map(|(label, snap)| {
                let earlier = baseline
                    .plans
                    .iter()
                    .find(|(base_label, _)| base_label == label)
                    .map(|(_, base)| *base)
                    .unwrap_or_default();
                (*label, snap.delta(&earlier))
            })
            .collect();
        let counter_delta = |counter| {
            current
                .counter(counter)
                .saturating_sub(baseline.counter(counter))
        };
        WindowDelta {
            span_us: current.at_us.saturating_sub(baseline.at_us),
            requests: counter_delta(Counter::Requests),
            evals: plans.iter().map(|(_, snap)| snap.count).sum(),
            errors: counter_delta(Counter::Errors),
            latency: current.latency().delta(&baseline.latency()),
            plans,
        }
    }

    /// Every standard trailing window ([`WINDOWS`]) ending at `current`.
    pub fn windows(&self, current: &MetricsSnapshot) -> Vec<(&'static str, WindowDelta)> {
        WINDOWS
            .iter()
            .map(|&(label, span)| (label, self.window(current, span)))
            .collect()
    }
}

/// Renders the standard windows as exposition gauge lines (one `# TYPE` per
/// metric name, all values `u64` — QPS is left to readers as
/// `evals / span_us`, keeping the grammar integral). The output is part of
/// [`crate::MetricsRegistry::expose`] and stays
/// [`crate::validate_exposition`]-clean.
pub fn render_window_gauges(windows: &[(&str, WindowDelta)], out: &mut String) {
    use std::fmt::Write;
    type DeltaReader = fn(&WindowDelta) -> u64;
    type SnapshotReader = fn(&HistogramSnapshot) -> u64;
    let overall: [(&str, DeltaReader); 7] = [
        ("nev_window_span_us", |w| w.span_us),
        ("nev_window_requests", |w| w.requests),
        ("nev_window_evals", |w| w.evals),
        ("nev_window_errors", |w| w.errors),
        ("nev_window_p50_us", |w| w.latency.p50()),
        ("nev_window_p95_us", |w| w.latency.p95()),
        ("nev_window_p99_us", |w| w.latency.p99()),
    ];
    for (name, read) in overall {
        let _ = writeln!(out, "# TYPE {name} gauge");
        for (label, delta) in windows {
            let _ = writeln!(out, "{name}{{window=\"{label}\"}} {}", read(delta));
        }
    }
    let per_plan: [(&str, SnapshotReader); 4] = [
        ("nev_window_plan_evals", |s| s.count),
        ("nev_window_plan_p50_us", |s| s.p50()),
        ("nev_window_plan_p95_us", |s| s.p95()),
        ("nev_window_plan_p99_us", |s| s.p99()),
    ];
    for (name, read) in per_plan {
        let _ = writeln!(out, "# TYPE {name} gauge");
        for (label, delta) in windows {
            for (plan, snap) in &delta.plans {
                let _ = writeln!(
                    out,
                    "{name}{{window=\"{label}\",plan=\"{plan}\"}} {}",
                    read(snap)
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    fn sample(at_us: u64, evals: u64) -> MetricsSnapshot {
        let hist = Histogram::new();
        for i in 0..evals {
            hist.record(10 + i);
        }
        let mut counters = [0; Counter::COUNT];
        counters[Counter::Requests.index()] = evals * 2;
        counters[Counter::Errors.index()] = evals / 4;
        MetricsSnapshot {
            at_us,
            counters,
            plans: vec![("compiled", hist.snapshot())],
            ..MetricsSnapshot::default()
        }
    }

    #[test]
    fn admission_is_rate_limited_and_capacity_bounded() {
        let series = TimeSeries::with_config(1_000, 3);
        assert!(series.is_empty());
        assert!(series.record(sample(0, 1)));
        assert!(!series.record(sample(500, 2)), "too soon: dropped");
        assert!(series.record(sample(1_000, 2)));
        assert!(series.record(sample(2_000, 3)));
        assert_eq!(series.len(), 3);
        // Capacity 3: the next admission evicts the oldest sample.
        assert!(series.record(sample(3_000, 4)));
        assert_eq!(series.len(), 3);
        // With the t=0 sample evicted, a full-history window baselines at t=1000.
        let window = series.window(&sample(3_500, 5), u64::MAX);
        assert_eq!(window.span_us, 2_500);
    }

    #[test]
    fn windows_subtract_the_youngest_sufficiently_old_sample() {
        let series = TimeSeries::with_config(0, 16);
        for (at, evals) in [(0, 0), (500_000, 4), (1_000_000, 7), (1_500_000, 9)] {
            assert!(series.record(sample(at, evals)));
        }
        let current = sample(2_000_000, 12);
        // 1s window: the youngest sample ≥ 1s old is t=1.0s (evals=7).
        let one_s = series.window(&current, 1_000_000);
        assert_eq!(one_s.span_us, 1_000_000);
        assert_eq!(one_s.evals, 5);
        assert_eq!(one_s.requests, 10);
        assert_eq!(one_s.latency.count, 5);
        assert_eq!(one_s.plans[0].1.count, 5);
        assert!((one_s.qps() - 5.0).abs() < 1e-9);
        // 60s window on a 2s-old ring: falls back to the oldest sample.
        let sixty_s = series.window(&current, 60_000_000);
        assert_eq!(sixty_s.span_us, 2_000_000);
        assert_eq!(sixty_s.evals, 12);
        // Empty ring: baseline is zeroed counters at time 0 ("since boot").
        let fresh = TimeSeries::new();
        let boot = fresh.window(&current, 1_000_000);
        assert_eq!(boot.evals, 12);
        assert_eq!(boot.span_us, 2_000_000);
    }

    #[test]
    fn reset_rebaselines_without_touching_lifetime_counters() {
        let series = TimeSeries::with_config(0, 16);
        series.record(sample(0, 0));
        let current = sample(5_000_000, 40);
        assert_eq!(series.window(&current, 1_000_000).evals, 40);
        // Reset at the current counters: windows restart from zero, while the
        // counters themselves (inside `current`) keep their lifetime values.
        series.reset(current.clone());
        assert_eq!(series.len(), 1);
        let after = series.window(&current, 1_000_000);
        assert_eq!(after.evals, 0);
        assert_eq!(after.span_us, 0);
        let later = sample(6_000_000, 46);
        let delta = series.window(&later, 60_000_000);
        assert_eq!(delta.evals, 6);
        assert_eq!(delta.span_us, 1_000_000);
    }

    #[test]
    fn rendered_window_gauges_validate() {
        let series = TimeSeries::with_config(0, 8);
        series.record(sample(0, 0));
        let current = sample(2_000_000, 10);
        let windows = series.windows(&current);
        assert_eq!(windows.len(), WINDOWS.len());
        let mut out = String::from("# nev-obs exposition v1\n");
        render_window_gauges(&windows, &mut out);
        out.push_str("# EOF\n");
        let lines: Vec<String> = out.lines().map(str::to_string).collect();
        crate::validate_exposition(&lines).expect("window gauges are grammar-valid");
        assert!(out.contains("nev_window_evals{window=\"1s\"} 10"));
        assert!(out.contains("nev_window_plan_evals{window=\"60s\",plan=\"compiled\"} 10"));
    }

    #[test]
    fn error_and_qps_rates_guard_empty_denominators() {
        let zero = WindowDelta {
            span_us: 0,
            requests: 0,
            evals: 0,
            errors: 0,
            latency: HistogramSnapshot::default(),
            plans: Vec::new(),
        };
        assert_eq!(zero.qps(), 0.0);
        assert_eq!(zero.error_rate(), 0.0);
    }
}
