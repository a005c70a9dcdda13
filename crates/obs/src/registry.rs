//! The serving-layer metrics registry and its text exposition.
//!
//! A [`MetricsRegistry`] is the one store of a serving process's telemetry:
//! the independent [`Counter`] tallies, request latency bucketed **per
//! dispatch kind** (the plan label), stage latency bucketed **per span
//! stage**, a bounded top-K slow-query log, and the [`TimeSeries`] ring of
//! past snapshots. [`MetricsRegistry::snapshot`] copies the counters and the
//! per-plan histograms into one [`MetricsSnapshot`]; every count the wire
//! reports is read off such a snapshot, and a count of evaluations by
//! dispatch kind is the matching histogram's sample count rather than a
//! second tally, so the two can never disagree.
//! [`MetricsRegistry::expose`] renders a snapshot — plus caller-supplied
//! counters and gauges — as Prometheus-style text, the payload behind the
//! wire `METRICS` command. The grammar is fixed and machine-checkable with
//! [`validate_exposition`]; the exposition always ends with a `# EOF` line so
//! clients of the line-oriented protocol know where the (sole) multi-line
//! response stops.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::hist::{Histogram, HistogramSnapshot};
use crate::span::{Stage, Trace};
use crate::timeseries::{render_window_gauges, TimeSeries};

/// The independent tallies of a serving process: everything it counts that
/// is not already the sample count of a per-plan latency histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Counter {
    /// Protocol requests handled (any command, including failed ones).
    Requests,
    /// `LOAD` commands that registered or replaced a catalog instance.
    Loads,
    /// `PREPARE` commands served.
    Prepares,
    /// `EXPLAIN` requests answered successfully.
    Explains,
    /// Requests rejected with an `ERR` response.
    Errors,
    /// Oracle runs cut short by early-exit cancellation.
    OracleCancelled,
    /// Symbolic answers certified by the Kleene/naïve sandwich.
    SandwichExact,
    /// Oracle answers whose world stream was cut off by the world cap with the
    /// verdict still drawing on it (over-approximations, flagged on the wire).
    Truncated,
    /// `ANALYZE` requests answered successfully.
    Analyzed,
    /// Requests whose query static analysis proved constantly true or false,
    /// so the exec layer could short-circuit to `∅`/`adomᵏ`.
    StaticPrunes,
}

impl Counter {
    /// Number of counters.
    pub const COUNT: usize = 10;

    /// Every counter, in declaration order (indexable by [`Counter::index`]).
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::Requests,
        Counter::Loads,
        Counter::Prepares,
        Counter::Explains,
        Counter::Errors,
        Counter::OracleCancelled,
        Counter::SandwichExact,
        Counter::Truncated,
        Counter::Analyzed,
        Counter::StaticPrunes,
    ];

    /// Position in [`Counter::ALL`].
    pub fn index(self) -> usize {
        Counter::ALL
            .iter()
            .position(|&c| c == self)
            .expect("every counter is in ALL")
    }

    /// The wire/exposition name (snake_case, stable).
    pub fn name(self) -> &'static str {
        match self {
            Counter::Requests => "requests",
            Counter::Loads => "loads",
            Counter::Prepares => "prepares",
            Counter::Explains => "explains",
            Counter::Errors => "errors",
            Counter::OracleCancelled => "oracle_cancelled",
            Counter::SandwichExact => "sandwich_exact",
            Counter::Truncated => "truncated",
            Counter::Analyzed => "analyzed",
            Counter::StaticPrunes => "static_prunes",
        }
    }
}

/// One point-in-time copy of a registry's monotone telemetry: the counters,
/// the per-plan request-latency histograms and the worlds-per-oracle-request
/// histogram, stamped with the uptime it was taken at. It is also what the [`TimeSeries`] ring keeps, so window
/// arithmetic is a subtraction of two snapshots.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Snapshot time, microseconds of registry uptime.
    pub at_us: u64,
    /// Counter values, indexed by [`Counter::index`].
    pub counters: [u64; Counter::COUNT],
    /// Per-dispatch-kind request-latency snapshots.
    pub plans: Vec<(&'static str, HistogramSnapshot)>,
    /// Worlds enumerated per oracle request; its sum is every world the
    /// oracle runs visited.
    pub worlds: HistogramSnapshot,
}

impl MetricsSnapshot {
    /// The value of one counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()]
    }

    /// Requests answered under plan `label` (0 for a label not in the set).
    pub fn plan_count(&self, label: &str) -> u64 {
        self.plans
            .iter()
            .find(|(l, _)| *l == label)
            .map_or(0, |(_, snap)| snap.count)
    }

    /// Evaluating requests answered: the per-plan sample counts summed.
    pub fn evals(&self) -> u64 {
        self.plans.iter().map(|(_, snap)| snap.count).sum()
    }

    /// The request-latency snapshot merged across dispatch kinds.
    pub fn latency(&self) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for (_, snap) in &self.plans {
            merged.merge(snap);
        }
        merged
    }
}

/// One entry of the slow-query log: everything needed to reproduce and
/// attribute the request without holding the instance.
#[derive(Clone, Debug)]
pub struct SlowQuery {
    /// End-to-end request latency, microseconds.
    pub latency_us: u64,
    /// Canonical query text.
    pub query: String,
    /// Semantics the query ran under (`owa` / `cwa` / `rigid`).
    pub semantics: String,
    /// Figure 1 cell of the (semantics, fragment) classification.
    pub cell: String,
    /// Dispatch kind that served it (compiled / certified / symbolic / oracle).
    pub plan: String,
    /// Per-stage breakdown from the request's trace (stage, µs).
    pub stages: Vec<(Stage, u64)>,
}

/// Aggregated telemetry for one serving process.
#[derive(Debug)]
pub struct MetricsRegistry {
    start: Instant,
    counters: [AtomicU64; Counter::COUNT],
    stage: Vec<Histogram>,
    plans: Vec<(&'static str, Histogram)>,
    worlds: Histogram,
    slow: Mutex<Vec<SlowQuery>>,
    slow_capacity: usize,
    series: TimeSeries,
}

impl MetricsRegistry {
    /// A registry with zeroed counters, one request-latency histogram per
    /// plan label, a slow-query log keeping the `slow_capacity`
    /// highest-latency requests, and a default [`TimeSeries`] ring.
    pub fn new(plan_labels: &[&'static str], slow_capacity: usize) -> Self {
        MetricsRegistry {
            start: Instant::now(),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            stage: (0..Stage::COUNT).map(|_| Histogram::new()).collect(),
            plans: plan_labels
                .iter()
                .map(|&label| (label, Histogram::new()))
                .collect(),
            worlds: Histogram::new(),
            slow: Mutex::new(Vec::new()),
            slow_capacity,
            series: TimeSeries::new(),
        }
    }

    /// Microseconds since the registry (i.e. the server) started.
    pub fn uptime_us(&self) -> u64 {
        self.start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }

    /// Adds one to a counter.
    pub fn bump(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Adds `n` to a counter.
    pub fn add(&self, counter: Counter, n: u64) {
        // relaxed: counters are telemetry, not synchronisation.
        self.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Records one sample into a stage histogram.
    pub fn observe_stage(&self, stage: Stage, us: u64) {
        self.stage[stage.index()].record(us);
    }

    /// Records every span of a finished trace into the stage histograms.
    pub fn observe_trace(&self, trace: &Trace) {
        for span in trace.spans() {
            self.observe_stage(span.stage, span.dur_us);
        }
    }

    /// Records one request latency under its dispatch-kind label. Unknown
    /// labels are ignored (the label set is fixed at construction).
    pub fn observe_plan(&self, label: &str, us: u64) {
        if let Some((_, hist)) = self.plans.iter().find(|(l, _)| *l == label) {
            hist.record(us);
        }
    }

    /// Records the worlds one oracle request enumerated.
    pub fn observe_worlds(&self, worlds: u64) {
        self.worlds.record(worlds);
    }

    /// Snapshot of one stage histogram.
    pub fn stage_snapshot(&self, stage: Stage) -> HistogramSnapshot {
        self.stage[stage.index()].snapshot()
    }

    /// The counters and the per-plan and worlds histograms as they stand now.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            at_us: self.uptime_us(),
            // relaxed: a fuzzy point-in-time copy of independent monotone tallies.
            counters: std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed)),
            plans: self
                .plans
                .iter()
                .map(|(label, hist)| (*label, hist.snapshot()))
                .collect(),
            worlds: self.worlds.snapshot(),
        }
    }

    /// The ring of past snapshots behind the trailing windows.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// Lazy sampling for callers on a request path: offers a snapshot to the
    /// ring when the previous one is old enough. Cheap when not due (one
    /// lock, one clock read).
    pub fn sample_if_due(&self) {
        if self.series.due(self.uptime_us()) {
            self.series.record(self.snapshot());
        }
    }

    /// Offers a request of latency `latency_us` to the slow-query log; it is
    /// kept only while it ranks among the top-K by latency. `entry` builds
    /// the log entry, whose latency is `latency_us`, and runs only when the
    /// request ranks.
    pub fn record_slow(&self, latency_us: u64, entry: impl FnOnce() -> SlowQuery) {
        if self.slow_capacity == 0 {
            return;
        }
        let mut slow = self.slow.lock().expect("slow-query log poisoned");
        if slow.len() >= self.slow_capacity
            && slow
                .last()
                .is_some_and(|worst| worst.latency_us >= latency_us)
        {
            return;
        }
        let entry = entry();
        debug_assert_eq!(entry.latency_us, latency_us);
        slow.push(entry);
        slow.sort_by_key(|kept| std::cmp::Reverse(kept.latency_us));
        slow.truncate(self.slow_capacity);
    }

    /// The current slow-query log, highest latency first.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.slow.lock().expect("slow-query log poisoned").clone()
    }

    /// The wire `METRICS RESET` action: empties the slow-query log and
    /// re-baselines the ring at the current snapshot, so trailing windows
    /// restart from zero. Counters and histograms are deliberately untouched:
    /// reconciliation invariants must survive a reset.
    pub fn reset(&self) {
        self.slow.lock().expect("slow-query log poisoned").clear();
        self.series.reset(self.snapshot());
    }

    /// Renders the full exposition of `snap`: uptime and caller gauges,
    /// caller counters (suffixed `_total`), the per-plan request-latency,
    /// worlds-per-oracle-request and per-stage latency histograms, the trailing-window `nev_window_*`
    /// gauges ending at `snap`, the slow-query log as comment lines, and the
    /// `# EOF` terminator. Empty histograms are elided.
    pub fn expose(
        &self,
        snap: &MetricsSnapshot,
        counters: &[(&str, u64)],
        gauges: &[(&str, u64)],
    ) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(4096);
        out.push_str("# nev-obs exposition v1\n");
        let _ = writeln!(out, "# TYPE nev_uptime_us gauge");
        let _ = writeln!(out, "nev_uptime_us {}", snap.at_us);
        for &(name, value) in gauges {
            let _ = writeln!(out, "# TYPE nev_{name} gauge");
            let _ = writeln!(out, "nev_{name} {value}");
        }
        for &(name, value) in counters {
            let _ = writeln!(out, "# TYPE nev_{name}_total counter");
            let _ = writeln!(out, "nev_{name}_total {value}");
        }
        if snap.plans.iter().any(|(_, plan)| plan.count > 0) {
            let _ = writeln!(out, "# TYPE nev_request_latency_us histogram");
            for (label, plan) in &snap.plans {
                if plan.count > 0 {
                    plan.render_prometheus(
                        "nev_request_latency_us",
                        &format!("plan=\"{label}\""),
                        &mut out,
                    );
                }
            }
        }
        if snap.worlds.count > 0 {
            let _ = writeln!(out, "# TYPE nev_oracle_worlds histogram");
            snap.worlds
                .render_prometheus("nev_oracle_worlds", "", &mut out);
        }
        let stages: Vec<(Stage, HistogramSnapshot)> = Stage::ALL
            .iter()
            .map(|&stage| (stage, self.stage_snapshot(stage)))
            .filter(|(_, hist)| hist.count > 0)
            .collect();
        if !stages.is_empty() {
            let _ = writeln!(out, "# TYPE nev_stage_latency_us histogram");
            for (stage, hist) in &stages {
                hist.render_prometheus(
                    "nev_stage_latency_us",
                    &format!("stage=\"{}\"", stage.name()),
                    &mut out,
                );
            }
        }
        render_window_gauges(&self.series.windows(snap), &mut out);
        for entry in self.slow_queries() {
            let stages: Vec<String> = entry
                .stages
                .iter()
                .map(|(stage, us)| format!("{}:{us}", stage.name()))
                .collect();
            let _ = writeln!(
                out,
                "# slow_query latency_us={} plan={} semantics={} cell={} stages={} query={}",
                entry.latency_us,
                entry.plan,
                entry.semantics,
                entry.cell,
                if stages.is_empty() {
                    "-".to_string()
                } else {
                    stages.join(",")
                },
                entry.query.replace(['\n', '\r'], " "),
            );
        }
        out.push_str("# EOF\n");
        out
    }
}

/// Shape-validates a `METRICS` exposition against the fixed grammar.
///
/// Checks, per line: comments are one of the known forms (`# nev-obs …`
/// header first, `# TYPE name counter|gauge|histogram`, `# slow_query …`,
/// `# EOF` last); samples are `name value` or `name{key="v",…} value` with a
/// well-formed metric name and a `u64` value. Across lines: every histogram
/// series has cumulative, non-decreasing `_bucket` counts ending at a `+Inf`
/// bucket that equals its `_count` sample. Returns the first violation.
pub fn validate_exposition(lines: &[String]) -> Result<(), String> {
    if lines.first().map(String::as_str) != Some("# nev-obs exposition v1") {
        return Err("missing exposition header".to_string());
    }
    if lines.last().map(String::as_str) != Some("# EOF") {
        return Err("missing # EOF terminator".to_string());
    }
    // (series key = name + labels-without-le) → (cumulative buckets, count/sum seen)
    use std::collections::BTreeMap;
    let mut buckets: BTreeMap<String, Vec<(String, u64)>> = BTreeMap::new();
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for (number, line) in lines.iter().enumerate() {
        let context = |msg: &str| format!("line {}: {msg}: {line}", number + 1);
        if let Some(comment) = line.strip_prefix("# ") {
            let known = comment.starts_with("nev-obs exposition")
                || comment.starts_with("slow_query ")
                || comment == "EOF"
                || comment
                    .strip_prefix("TYPE ")
                    .and_then(|rest| rest.split_once(' '))
                    .is_some_and(|(name, kind)| {
                        valid_metric_name(name) && matches!(kind, "counter" | "gauge" | "histogram")
                    });
            if !known {
                return Err(context("unknown comment form"));
            }
            continue;
        }
        // A sample line: name[{labels}] value
        let Some((series, value)) = line.rsplit_once(' ') else {
            return Err(context("sample line needs a value"));
        };
        let Ok(value) = value.parse::<u64>() else {
            return Err(context("sample value is not a u64"));
        };
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => {
                let Some(labels) = rest.strip_suffix('}') else {
                    return Err(context("unterminated label set"));
                };
                (name, labels)
            }
            None => (series, ""),
        };
        if !valid_metric_name(name) {
            return Err(context("invalid metric name"));
        }
        let mut le = None;
        let mut other_labels = Vec::new();
        for pair in labels.split(',').filter(|p| !p.is_empty()) {
            let Some((key, quoted)) = pair.split_once('=') else {
                return Err(context("label needs key=\"value\""));
            };
            let Some(value) = quoted.strip_prefix('"').and_then(|v| v.strip_suffix('"')) else {
                return Err(context("label value must be quoted"));
            };
            if key == "le" {
                le = Some(value.to_string());
            } else {
                other_labels.push(format!("{key}={value}"));
            }
        }
        if let Some(base) = name.strip_suffix("_bucket") {
            let Some(le) = le else {
                return Err(context("_bucket sample needs an le label"));
            };
            let key = format!("{base}|{}", other_labels.join(","));
            buckets.entry(key).or_default().push((le, value));
        } else if let Some(base) = name.strip_suffix("_count") {
            let key = format!("{base}|{}", other_labels.join(","));
            counts.insert(key, value);
        }
    }
    for (key, series) in &buckets {
        let mut previous = 0u64;
        for (le, cumulative) in series {
            if *cumulative < previous {
                return Err(format!("histogram {key}: bucket le={le} not cumulative"));
            }
            previous = *cumulative;
        }
        let Some((le, last)) = series.last() else {
            continue;
        };
        if le != "+Inf" {
            return Err(format!("histogram {key}: missing +Inf bucket"));
        }
        match counts.get(key) {
            Some(count) if count == last => {}
            Some(count) => {
                return Err(format!(
                    "histogram {key}: +Inf bucket {last} != _count {count}"
                ));
            }
            None => return Err(format!("histogram {key}: missing _count sample")),
        }
    }
    Ok(())
}

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        && !name.starts_with(|c: char| c.is_ascii_digit())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::TraceRecorder;

    fn lines(text: &str) -> Vec<String> {
        text.lines().map(str::to_string).collect()
    }

    #[test]
    fn exposition_validates_and_reconciles() {
        let registry = MetricsRegistry::new(&["compiled", "oracle"], 4);
        registry.observe_plan("compiled", 120);
        registry.observe_plan("compiled", 4_000);
        registry.observe_plan("oracle", 90_000);
        registry.observe_plan("unknown", 1); // ignored: fixed label set
        let rec = TraceRecorder::new();
        drop(rec.span(Stage::Exec));
        registry.observe_trace(&rec.finish());
        let snap = registry.snapshot();
        let text = registry.expose(
            &snap,
            &[("evals", snap.evals()), ("requests", 5)],
            &[("instances", 2)],
        );
        let lines = lines(&text);
        validate_exposition(&lines).expect("well-formed exposition");
        assert!(lines.iter().any(|l| l == "nev_evals_total 3"));
        assert!(lines.iter().any(|l| l == "nev_instances 2"));
        // Histogram counts reconcile with the counter read off them.
        let plan_count: u64 = lines
            .iter()
            .filter_map(|l| l.strip_prefix("nev_request_latency_us_count{"))
            .filter_map(|l| l.split_once("} "))
            .map(|(_, v)| v.parse::<u64>().expect("count value"))
            .sum();
        assert_eq!(plan_count, 3);
    }

    #[test]
    fn snapshot_reflects_bumps() {
        let registry = MetricsRegistry::new(&["compiled", "oracle"], 0);
        registry.bump(Counter::Requests);
        registry.bump(Counter::Requests);
        registry.observe_worlds(7);
        registry.observe_worlds(0);
        registry.observe_plan("oracle", 40);
        let snap = registry.snapshot();
        assert_eq!(snap.counter(Counter::Requests), 2);
        assert_eq!((snap.worlds.count, snap.worlds.sum), (2, 7));
        assert_eq!(snap.counter(Counter::Errors), 0);
        assert_eq!(snap.plan_count("oracle"), 1);
        assert_eq!(snap.plan_count("compiled"), 0);
        assert_eq!(snap.plan_count("unknown"), 0);
        assert_eq!(snap.evals(), snap.latency().count);
    }

    #[test]
    fn counter_all_is_consistent_with_index_and_names() {
        assert_eq!(Counter::ALL.len(), Counter::COUNT);
        for (i, counter) in Counter::ALL.iter().enumerate() {
            assert_eq!(counter.index(), i);
        }
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::COUNT, "counter names are unique");
    }

    #[test]
    fn slow_query_log_keeps_top_k_by_latency() {
        let registry = MetricsRegistry::new(&["oracle"], 2);
        let mut built = Vec::new();
        for (latency, name) in [(50, "a"), (500, "b"), (5, "c"), (900, "d")] {
            registry.record_slow(latency, || {
                built.push(name);
                SlowQuery {
                    latency_us: latency,
                    query: format!("Q{name}"),
                    semantics: "owa".to_string(),
                    cell: "coNP".to_string(),
                    plan: "oracle".to_string(),
                    stages: vec![(Stage::OracleWorlds, latency)],
                }
            });
        }
        let slow = registry.slow_queries();
        let latencies: Vec<u64> = slow.iter().map(|s| s.latency_us).collect();
        assert_eq!(latencies, vec![900, 500]);
        // An entry is built only when its request ranks: `c` never did.
        assert_eq!(built, ["a", "b", "d"]);
        // The log renders as comment lines the validator accepts.
        let text = registry.expose(&registry.snapshot(), &[], &[]);
        validate_exposition(&lines(&text)).expect("slow log keeps grammar valid");
        assert!(text.contains("# slow_query latency_us=900"));
        // Reset empties the log without touching the latency histograms.
        registry.observe_plan("oracle", 77);
        registry.reset();
        assert!(registry.slow_queries().is_empty());
        assert_eq!(registry.snapshot().evals(), 1, "histograms survive");
    }

    #[test]
    fn window_gauges_precede_the_slow_log() {
        let registry = MetricsRegistry::new(&["oracle"], 2);
        registry.record_slow(9, || SlowQuery {
            latency_us: 9,
            query: "Q".to_string(),
            semantics: "owa".to_string(),
            cell: "coNP".to_string(),
            plan: "oracle".to_string(),
            stages: Vec::new(),
        });
        registry.observe_plan("oracle", 9);
        let text = registry.expose(&registry.snapshot(), &[], &[]);
        validate_exposition(&lines(&text)).expect("window gauges keep grammar valid");
        let window_at = text
            .find("nev_window_evals{window=\"60s\"} 1")
            .expect("window gauges rendered");
        let slow_at = text.find("# slow_query").expect("slow log rendered");
        assert!(
            window_at < slow_at,
            "window gauges precede the slow-query log"
        );
    }

    #[test]
    fn validator_rejects_malformed_expositions() {
        let empty = MetricsRegistry::new(&[], 0);
        let ok = empty.expose(&empty.snapshot(), &[], &[]);
        validate_exposition(&lines(&ok)).expect("empty registry exposes fine");
        assert!(
            validate_exposition(&lines("nev_x 1\n# EOF")).is_err(),
            "no header"
        );
        assert!(
            validate_exposition(&lines("# nev-obs exposition v1\nnev_x 1")).is_err(),
            "no terminator"
        );
        let bad_value = "# nev-obs exposition v1\nnev_x abc\n# EOF";
        assert!(validate_exposition(&lines(bad_value)).is_err());
        let bad_hist = "# nev-obs exposition v1\n\
                        nev_h_bucket{le=\"1\"} 5\n\
                        nev_h_bucket{le=\"+Inf\"} 3\n\
                        nev_h_count 3\n\
                        # EOF";
        assert!(
            validate_exposition(&lines(bad_hist)).is_err(),
            "non-cumulative buckets rejected"
        );
    }

    #[test]
    fn uptime_is_monotone() {
        let registry = MetricsRegistry::new(&[], 0);
        let first = registry.uptime_us();
        std::thread::sleep(std::time::Duration::from_micros(300));
        assert!(registry.uptime_us() >= first);
    }
}
