//! Log-bucketed latency histograms: lock-free to record, mergeable to read.
//!
//! Buckets follow the HDR convention of power-of-two upper bounds: bucket `i`
//! covers `(2^(i-1), 2^i]` microseconds (bucket 0 covers `[0, 1]`), so a
//! sample lands in its bucket with one `leading_zeros` instruction and the
//! Prometheus `le` labels are exact powers of two. Forty buckets reach
//! 2³⁹ µs ≈ 6.4 days — far past any request this engine serves; larger
//! samples clamp into the last bucket (the exact `max` is tracked
//! separately).

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two buckets per histogram.
pub const BUCKETS: usize = 40;

/// Upper bound (inclusive, microseconds) of bucket `index`: `2^index`.
pub fn bucket_bound(index: usize) -> u64 {
    1u64 << index.min(BUCKETS - 1)
}

/// Bucket index for a sample of `us` microseconds.
fn bucket_index(us: u64) -> usize {
    if us <= 1 {
        0
    } else {
        ((64 - (us - 1).leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// A concurrent latency histogram: every field is a relaxed atomic, so
/// recording from any number of threads needs no lock and costs a handful of
/// uncontended atomic increments. Readers take a [`HistogramSnapshot`].
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample of `us` microseconds.
    pub fn record(&self, us: u64) {
        // relaxed: independent telemetry tallies; readers tolerate skew between them.
        self.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(us, Ordering::Relaxed);
        self.max.fetch_max(us, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters. Concurrent recorders may land
    /// between the individual loads, so a snapshot is *consistent enough* for
    /// telemetry (counts monotone, never torn within a bucket) rather than a
    /// linearisable cut. The sample count is the bucket total, so the
    /// buckets always add up to it; `sum` and `max` may lag or lead it.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        // relaxed: monotone counter reads; the snapshot is a fuzzy cut by contract.
        for (slot, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        // relaxed: same fuzzy-cut contract as the bucket loads above.
        HistogramSnapshot {
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            count: buckets.iter().sum(),
        }
    }
}

/// A plain-value copy of a [`Histogram`]: mergeable, comparable, renderable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (bucket `i` ≤ `2^i` µs).
    pub buckets: [u64; BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples, microseconds.
    pub sum: u64,
    /// Largest single sample, microseconds.
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Adds `other`'s samples into this snapshot (bucket-wise sum).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (slot, more) in self.buckets.iter_mut().zip(&other.buckets) {
            *slot += more;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (0 < q ≤ 1), linearly interpolated within the bucket
    /// holding that rank (assuming samples spread uniformly across the
    /// bucket's `(lower, upper]` range) and capped at the exact recorded
    /// maximum. The estimate never leaves the winning bucket, so it is exact
    /// for dense integer-uniform data and off by less than one bucket width
    /// otherwise. 0 when the histogram is empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &bucket) in self.buckets.iter().enumerate() {
            seen += bucket;
            if seen >= rank {
                let lower = if index == 0 {
                    0
                } else {
                    bucket_bound(index - 1)
                };
                let width = bucket_bound(index) - lower;
                // 1-based position of the rank within this bucket's samples.
                let into = rank - (seen - bucket);
                // Integer interpolation, rounding up: `into == bucket` lands
                // exactly on the bucket's upper bound.
                let offset = (u128::from(into) * u128::from(width)).div_ceil(u128::from(bucket));
                return (lower + offset as u64).min(self.max);
            }
        }
        self.max
    }

    /// Median latency (interpolated), microseconds.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile latency (interpolated), microseconds.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile latency (interpolated), microseconds.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// The samples recorded in `self` but not in `earlier` — the windowed
    /// delta of two snapshots of one **monotone** histogram (`earlier` taken
    /// first). Buckets, `count` and `sum` subtract (saturating, so a torn
    /// concurrent read can never underflow); `max` keeps the lifetime maximum
    /// because per-window maxima are not recoverable from monotone counters.
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (slot, (now, then)) in buckets
            .iter_mut()
            .zip(self.buckets.iter().zip(&earlier.buckets))
        {
            *slot = now.saturating_sub(*then);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
        }
    }

    /// Renders this snapshot as Prometheus histogram series: cumulative
    /// `_bucket{le=…}` lines up to the highest occupied bucket, the `+Inf`
    /// bucket, then `_sum` and `_count`. `labels` is either empty or a
    /// comma-separated `key="value"` list to splice before `le`.
    pub fn render_prometheus(&self, name: &str, labels: &str, out: &mut String) {
        use std::fmt::Write;
        let highest = self
            .buckets
            .iter()
            .rposition(|&b| b > 0)
            .map(|i| i + 1)
            .unwrap_or(0);
        let mut cumulative = 0u64;
        for index in 0..highest {
            cumulative += self.buckets[index];
            let _ = writeln!(
                out,
                "{name}_bucket{{{labels}{}le=\"{}\"}} {cumulative}",
                if labels.is_empty() { "" } else { "," },
                bucket_bound(index)
            );
        }
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{}le=\"+Inf\"}} {}",
            if labels.is_empty() { "" } else { "," },
            self.count
        );
        if labels.is_empty() {
            let _ = writeln!(out, "{name}_sum {}", self.sum);
            let _ = writeln!(out, "{name}_count {}", self.count);
        } else {
            let _ = writeln!(out, "{name}_sum{{{labels}}} {}", self.sum);
            let _ = writeln!(out, "{name}_count{{{labels}}} {}", self.count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_cover_powers_of_two_exactly() {
        // Bucket i covers (2^(i-1), 2^i]: the bound itself lands in bucket i,
        // one past it in bucket i+1.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        for i in 1..BUCKETS - 1 {
            let bound = bucket_bound(i);
            assert_eq!(bucket_index(bound), i, "bound {bound} in its own bucket");
            assert_eq!(bucket_index(bound + 1), i + 1, "bound+1 spills over");
        }
        // Oversized samples clamp into the last bucket.
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_are_conservative_and_capped_at_max() {
        let h = Histogram::new();
        for _ in 0..98 {
            h.record(10);
        }
        h.record(900);
        h.record(5_000);
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.max, 5_000);
        // Rank 50 of 98 tens interpolates inside bucket (8, 16]: 8 + ⌈50·8/98⌉.
        assert_eq!(s.p50(), 13);
        assert!(s.p50() > 8 && s.p50() <= 16, "stays inside its bucket");
        assert!(s.p99() >= 900);
        assert!(s.quantile(1.0) <= 8_192);
        assert_eq!(
            s.quantile(1.0),
            5_000,
            "tail quantiles cap at the exact max"
        );
    }

    #[test]
    fn interpolated_quantiles_are_exact_on_dense_uniform_data() {
        // 1..=2^k integer-uniform data fills every bucket (2^(b-1), 2^b]
        // completely, so within-bucket linear interpolation recovers the
        // exact rank statistic: quantile(q) == ⌈q·N⌉ for every q. (On a
        // partially filled top bucket the estimate stays within that bucket —
        // off by less than one bucket width, vs the old upper-bound readout's
        // systematic 2× inflation.)
        let h = Histogram::new();
        const N: u64 = 1_024;
        for us in 1..=N {
            h.record(us);
        }
        let s = h.snapshot();
        for q in [0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.0] {
            let exact = (q * N as f64).ceil() as u64;
            assert_eq!(s.quantile(q), exact, "q={q}");
        }
        assert_eq!(s.p50(), 512);
        assert_eq!(s.p95(), 973);
        assert_eq!(s.p99(), 1_014);
    }

    #[test]
    fn snapshot_delta_subtracts_monotone_counters() {
        let h = Histogram::new();
        h.record(10);
        h.record(100);
        let earlier = h.snapshot();
        h.record(100);
        h.record(7_000);
        let delta = h.snapshot().delta(&earlier);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.sum, 7_100);
        assert_eq!(delta.buckets.iter().sum::<u64>(), 2);
        assert_eq!(delta.max, 7_000, "max is the lifetime maximum");
        // A stale "earlier" (counters ahead of "now") saturates to zero.
        let stale = earlier.delta(&h.snapshot());
        assert_eq!(stale.count, 0);
        assert_eq!(stale.sum, 0);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!((s.count, s.sum, s.max), (0, 0, 0));
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
    }

    #[test]
    fn merge_is_bucketwise_addition() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(3);
        a.record(100);
        b.record(100);
        b.record(40_000);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count, 4);
        assert_eq!(merged.sum, 3 + 100 + 100 + 40_000);
        assert_eq!(merged.max, 40_000);
        assert_eq!(merged.buckets[bucket_index(100)], 2);
    }

    #[test]
    fn concurrent_recording_loses_no_samples() {
        let h = std::sync::Arc::new(Histogram::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1_000u64 {
                        h.record(t * 1_000 + i);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("recorder thread");
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4_000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 4_000);
    }

    #[test]
    fn prometheus_rendering_is_cumulative_and_terminated() {
        let h = Histogram::new();
        h.record(1);
        h.record(3);
        h.record(3);
        let mut out = String::new();
        h.snapshot().render_prometheus("t_us", "", &mut out);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "t_us_bucket{le=\"1\"} 1");
        assert_eq!(lines[1], "t_us_bucket{le=\"2\"} 1");
        assert_eq!(lines[2], "t_us_bucket{le=\"4\"} 3");
        assert_eq!(lines[3], "t_us_bucket{le=\"+Inf\"} 3");
        assert_eq!(lines[4], "t_us_sum 7");
        assert_eq!(lines[5], "t_us_count 3");
        // Labelled form splices before `le`.
        let mut labelled = String::new();
        h.snapshot()
            .render_prometheus("t_us", "plan=\"oracle\"", &mut labelled);
        assert!(labelled.contains("t_us_bucket{plan=\"oracle\",le=\"1\"} 1"));
        assert!(labelled.contains("t_us_count{plan=\"oracle\"} 3"));
    }
}
