//! Per-request stage timelines: RAII spans recorded into a bounded trace.
//!
//! A [`TraceRecorder`] lives for one request. Probe points open RAII [`Span`]
//! guards (`recorder.span(Stage::Exec)`); nested opens record at increasing
//! depth, and sub-phase timings measured elsewhere (e.g. the executor's
//! scan/join split) replay as [`TraceRecorder::leaf`] children of whichever
//! span is open. [`TraceRecorder::finish`] freezes everything into a
//! [`Trace`], the value that rides on evaluation results.
//!
//! The recorder is inert when built disabled (or when the process-wide
//! [`crate::enabled`] kill switch is off): no clock reads, no records, and
//! `finish` returns the empty trace.

use std::sync::Mutex;
use std::time::Instant;

/// Maximum span records per trace; later spans are counted, not stored.
pub const MAX_SPANS: usize = 64;

/// The span taxonomy: every timed stage of a request's life, across layers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Query-text parsing (`nev-logic`).
    Parse,
    /// Figure 1 cell classification of the parsed query (`nev-core`).
    Classify,
    /// Plan-cache lookup in the serving layer (children replay on a miss).
    CacheProbe,
    /// Compilation + `nev-opt` plan optimisation into the executable form.
    Optimize,
    /// The naive/compiled evaluation pass (`nev-exec`).
    Exec,
    /// Relation scans inside the exec pass.
    Scan,
    /// Hash-join build sides inside the exec pass.
    JoinBuild,
    /// Hash-join probe sides inside the exec pass.
    JoinProbe,
    /// Bounded world enumeration (the oracle fallback).
    OracleWorlds,
    /// The symbolic sandwich approximation pass (`nev-symbolic`).
    Symbolic,
}

impl Stage {
    /// Number of stages in the taxonomy.
    pub const COUNT: usize = 10;

    /// Every stage, in declaration order (indexable by [`Stage::index`]).
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Parse,
        Stage::Classify,
        Stage::CacheProbe,
        Stage::Optimize,
        Stage::Exec,
        Stage::Scan,
        Stage::JoinBuild,
        Stage::JoinProbe,
        Stage::OracleWorlds,
        Stage::Symbolic,
    ];

    /// Position in [`Stage::ALL`].
    pub fn index(self) -> usize {
        Stage::ALL
            .iter()
            .position(|&s| s == self)
            .expect("every stage is in ALL")
    }

    /// The wire/exposition name (snake_case, stable).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Classify => "classify",
            Stage::CacheProbe => "cache_probe",
            Stage::Optimize => "optimize",
            Stage::Exec => "exec",
            Stage::Scan => "scan",
            Stage::JoinBuild => "join_build",
            Stage::JoinProbe => "join_probe",
            Stage::OracleWorlds => "oracle_worlds",
            Stage::Symbolic => "symbolic",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One finished span: a stage, when it started (µs since the request began),
/// how long it ran, and how deeply it was nested (0 = top level).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Which stage this span timed.
    pub stage: Stage,
    /// Start offset from the recorder's epoch, microseconds.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Nesting depth (0 for top-level spans).
    pub depth: u8,
}

/// A frozen per-request timeline.
///
/// `Trace` intentionally compares **equal to every other `Trace`**: it is
/// telemetry carried on result types that derive `PartialEq`/`Eq`, and two
/// evaluations that computed the same answers *are* equal no matter how long
/// their stages took. Determinism pins (byte-identical answers across worker
/// counts, with tracing on or off) rely on this.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    spans: Vec<SpanRecord>,
    total_us: u64,
    dropped: u32,
}

impl PartialEq for Trace {
    fn eq(&self, _other: &Trace) -> bool {
        true // telemetry: never part of a result's value (see type docs)
    }
}

impl Eq for Trace {}

impl Trace {
    /// The recorded spans, ordered by start offset (parents before children).
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Wall-clock from recorder creation to [`TraceRecorder::finish`], µs.
    pub fn total_us(&self) -> u64 {
        self.total_us
    }

    /// Spans that exceeded [`MAX_SPANS`] and were counted but not stored.
    pub fn dropped(&self) -> u32 {
        self.dropped
    }

    /// Whether anything was recorded (false for disabled recorders).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.total_us == 0
    }

    /// Total duration recorded for one stage across all its spans, µs.
    pub fn stage_us(&self, stage: Stage) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.dur_us)
            .sum()
    }

    /// Sum of the top-level (depth 0) span durations, µs. Because top-level
    /// spans never overlap within one request, this is ≤ [`Trace::total_us`].
    pub fn top_level_us(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.depth == 0)
            .map(|s| s.dur_us)
            .sum()
    }

    /// One-line rendering for the wire `TRACE` response: comma-separated
    /// `stage:µs` entries, nesting shown by `>` prefixes (one per depth
    /// level); `-` for an empty trace.
    pub fn render(&self) -> String {
        if self.spans.is_empty() {
            return "-".to_string();
        }
        let mut parts = Vec::with_capacity(self.spans.len());
        for span in &self.spans {
            let mut part = String::new();
            for _ in 0..span.depth {
                part.push('>');
            }
            part.push_str(span.stage.name());
            part.push(':');
            part.push_str(&span.dur_us.to_string());
            parts.push(part);
        }
        parts.join(",")
    }
}

struct RecorderInner {
    spans: Vec<SpanRecord>,
    depth: u8,
    dropped: u32,
}

/// Collects spans for one request. Cheap to create; inert when disabled.
pub struct TraceRecorder {
    epoch: Option<Instant>,
    inner: Mutex<RecorderInner>,
}

impl TraceRecorder {
    /// A recorder honouring the process-wide kill switch.
    pub fn new() -> Self {
        TraceRecorder::with_enabled(crate::enabled())
    }

    /// An explicitly disabled recorder (every operation is a no-op).
    pub fn disabled() -> Self {
        TraceRecorder::with_enabled(false)
    }

    /// A recorder with the given enablement, independent of the environment —
    /// what unit tests use so they never race on the global switch.
    pub fn with_enabled(enabled: bool) -> Self {
        TraceRecorder {
            epoch: enabled.then(Instant::now),
            inner: Mutex::new(RecorderInner {
                spans: Vec::new(),
                depth: 0,
                dropped: 0,
            }),
        }
    }

    /// Whether this recorder is live.
    pub fn is_enabled(&self) -> bool {
        self.epoch.is_some()
    }

    fn now_us(&self, epoch: Instant) -> u64 {
        epoch.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }

    /// Opens a span for `stage`; it records when the returned guard drops.
    /// Spans opened while another is live nest one level deeper.
    pub fn span(&self, stage: Stage) -> Span<'_> {
        let Some(epoch) = self.epoch else {
            return Span { open: None };
        };
        let start_us = self.now_us(epoch);
        let depth = {
            let mut inner = self.inner.lock().expect("trace recorder poisoned");
            let depth = inner.depth;
            inner.depth = inner.depth.saturating_add(1);
            depth
        };
        Span {
            open: Some(SpanOpen {
                recorder: self,
                stage,
                start_us,
                depth,
            }),
        }
    }

    /// Replays an externally measured duration as a child of the currently
    /// open span (depth = current nesting). Used for sub-phase timings the
    /// recorder cannot wrap directly, e.g. the executor's scan/join split.
    pub fn leaf(&self, stage: Stage, dur_us: u64) {
        let Some(epoch) = self.epoch else {
            return;
        };
        let now = self.now_us(epoch);
        let mut inner = self.inner.lock().expect("trace recorder poisoned");
        let depth = inner.depth;
        push_span(
            &mut inner,
            SpanRecord {
                stage,
                start_us: now.saturating_sub(dur_us),
                dur_us,
                depth,
            },
        );
    }

    /// Freezes the timeline. Spans sort by start offset (ties broken by
    /// depth, parents first) so the rendering reads chronologically.
    pub fn finish(self) -> Trace {
        let Some(epoch) = self.epoch else {
            return Trace::default();
        };
        let total_us = self.now_us(epoch);
        let inner = self.inner.into_inner().expect("trace recorder poisoned");
        let mut spans = inner.spans;
        spans.sort_by_key(|s| (s.start_us, s.depth));
        Trace {
            spans,
            total_us,
            dropped: inner.dropped,
        }
    }
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder::new()
    }
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

fn push_span(inner: &mut RecorderInner, record: SpanRecord) {
    if inner.spans.len() < MAX_SPANS {
        inner.spans.push(record);
    } else {
        inner.dropped += 1;
    }
}

struct SpanOpen<'a> {
    recorder: &'a TraceRecorder,
    stage: Stage,
    start_us: u64,
    depth: u8,
}

/// RAII guard from [`TraceRecorder::span`]: the span's duration is the
/// guard's lifetime.
pub struct Span<'a> {
    open: Option<SpanOpen<'a>>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let epoch = open.recorder.epoch.expect("live span implies epoch");
        let now = open.recorder.now_us(epoch);
        let mut inner = open.recorder.inner.lock().expect("trace recorder poisoned");
        inner.depth = inner.depth.saturating_sub(1);
        push_span(
            &mut inner,
            SpanRecord {
                stage: open.stage,
                start_us: open.start_us,
                dur_us: now.saturating_sub(open.start_us),
                depth: open.depth,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_all_is_consistent_with_index_and_names() {
        assert_eq!(Stage::ALL.len(), Stage::COUNT);
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
        }
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::COUNT, "stage names are unique");
    }

    #[test]
    fn nested_spans_record_depths_and_order() {
        let rec = TraceRecorder::with_enabled(true);
        {
            let _outer = rec.span(Stage::Exec);
            rec.leaf(Stage::Scan, 5);
            let _inner = rec.span(Stage::JoinBuild);
        }
        let _top = rec.span(Stage::OracleWorlds);
        drop(_top);
        let trace = rec.finish();
        assert_eq!(trace.spans().len(), 4);
        let depths: Vec<(Stage, u8)> = trace.spans().iter().map(|s| (s.stage, s.depth)).collect();
        assert!(depths.contains(&(Stage::Exec, 0)));
        assert!(depths.contains(&(Stage::Scan, 1)));
        assert!(depths.contains(&(Stage::JoinBuild, 1)));
        assert!(depths.contains(&(Stage::OracleWorlds, 0)));
        // Parents sort before their children (same start, smaller depth).
        let exec_at = trace
            .spans()
            .iter()
            .position(|s| s.stage == Stage::Exec)
            .unwrap();
        let join_at = trace
            .spans()
            .iter()
            .position(|s| s.stage == Stage::JoinBuild)
            .unwrap();
        assert!(exec_at < join_at);
    }

    #[test]
    fn top_level_sum_is_bounded_by_total() {
        let rec = TraceRecorder::with_enabled(true);
        for _ in 0..3 {
            let _span = rec.span(Stage::Exec);
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        let trace = rec.finish();
        assert!(trace.top_level_us() <= trace.total_us());
        assert!(trace.total_us() > 0);
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = TraceRecorder::disabled();
        {
            let _span = rec.span(Stage::Exec);
            rec.leaf(Stage::Scan, 99);
        }
        let trace = rec.finish();
        assert!(trace.is_empty());
        assert_eq!(trace.render(), "-");
    }

    #[test]
    fn traces_always_compare_equal() {
        let rec = TraceRecorder::with_enabled(true);
        let _span = rec.span(Stage::Parse);
        drop(_span);
        let a = rec.finish();
        let b = Trace::default();
        assert_eq!(a, b, "telemetry never affects value equality");
    }

    #[test]
    fn span_count_is_bounded() {
        let rec = TraceRecorder::with_enabled(true);
        for _ in 0..(MAX_SPANS + 10) {
            let _span = rec.span(Stage::Scan);
        }
        let trace = rec.finish();
        assert_eq!(trace.spans().len(), MAX_SPANS);
        assert_eq!(trace.dropped(), 10);
    }

    #[test]
    fn render_shows_nesting_markers() {
        let rec = TraceRecorder::with_enabled(true);
        {
            let _outer = rec.span(Stage::Exec);
            rec.leaf(Stage::Scan, 3);
        }
        let rendered = rec.finish().render();
        assert!(rendered.starts_with("exec:"), "rendered: {rendered}");
        assert!(rendered.contains(">scan:3"), "rendered: {rendered}");
    }
}
