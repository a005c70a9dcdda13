//! Per-request stage timelines: RAII spans recorded into a bounded trace.
//!
//! A [`TraceRecorder`] lives for one request. Probe points open RAII [`Span`]
//! guards (`recorder.span(Stage::Exec)`); nested opens record at increasing
//! depth, and sub-phase timings measured elsewhere (e.g. the executor's
//! scan/join split) replay as [`TraceRecorder::leaf`] children of whichever
//! span is open. [`TraceRecorder::finish`] freezes everything into a
//! [`Trace`]. The recorder belongs to the caller that serves the request
//! (`nev-serve` builds one per `EVAL`, `TRACE` and `PROFILE`); evaluation
//! results carry no timeline.
//!
//! Order follows the work, not the clock: a span takes its place in the
//! trace when it opens and a leaf when it is replayed, so every span precedes
//! its children and siblings keep the order they ran in, however coarse the
//! µs clock. A leaf is also never dated before the span it is replayed under.
//! A recorder built with [`TraceRecorder::disabled`] is inert: no clock
//! reads, no records, and `finish` returns the empty trace.

use std::sync::Mutex;
use std::time::Instant;

/// Maximum span records per trace; later spans are counted, not stored.
pub const MAX_SPANS: usize = 64;

/// The span taxonomy: every timed stage of a request's life, across layers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Figure 1 cell classification of the parsed query (`nev-core`).
    Classify,
    /// Plan-cache lookup in the serving layer (children replay on a miss).
    CacheProbe,
    /// Parsing the query text into the plan cache's canonical key, paid by
    /// every lookup, hit or miss.
    Parse,
    /// Compilation + `nev-opt` plan optimisation into the executable form.
    Optimize,
    /// The `nev-analyze` static pass: normalization, re-classification and
    /// null-flow, plus compiling the normal form when it differs.
    Normalize,
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
    /// Interning a snapshot for the compiled executor (`nev-exec`), paid by
    /// the first compiled pass over it.
    Intern,
    /// The snapshot's core check (`nev-hom`), paid by the first request that
    /// needs its core bit.
    CoreCheck,
}

impl Stage {
    /// Number of stages in the taxonomy.
    pub const COUNT: usize = 13;

    /// Every stage, in declaration order (indexable by [`Stage::index`]).
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Classify,
        Stage::CacheProbe,
        Stage::Parse,
        Stage::Optimize,
        Stage::Normalize,
        Stage::Exec,
        Stage::Scan,
        Stage::JoinBuild,
        Stage::JoinProbe,
        Stage::OracleWorlds,
        Stage::Symbolic,
        Stage::Intern,
        Stage::CoreCheck,
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
            Stage::Classify => "classify",
            Stage::CacheProbe => "cache_probe",
            Stage::Parse => "parse",
            Stage::Optimize => "optimize",
            Stage::Normalize => "normalize",
            Stage::Exec => "exec",
            Stage::Scan => "scan",
            Stage::JoinBuild => "join_build",
            Stage::JoinProbe => "join_probe",
            Stage::OracleWorlds => "oracle_worlds",
            Stage::Symbolic => "symbolic",
            Stage::Intern => "intern",
            Stage::CoreCheck => "core_check",
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
#[derive(Clone, Debug, Default)]
pub struct Trace {
    spans: Vec<SpanRecord>,
    total_us: u64,
    dropped: u32,
}

impl Trace {
    /// The recorded spans in pre-order: each span before its children,
    /// siblings in the order they opened or were replayed.
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
    /// Records in the order their spans opened (leaves: were replayed), so
    /// every span precedes its children. An open span's record has
    /// `dur_us == 0` until its guard drops.
    spans: Vec<SpanRecord>,
    /// Start offsets of the spans still open, outermost first; the length is
    /// the current nesting depth.
    open: Vec<u64>,
    dropped: u32,
}

impl RecorderInner {
    /// Appends `record` unless the trace is full; returns its slot.
    fn push(&mut self, record: SpanRecord) -> Option<usize> {
        if self.spans.len() < MAX_SPANS {
            self.spans.push(record);
            Some(self.spans.len() - 1)
        } else {
            self.dropped += 1;
            None
        }
    }

    fn depth(&self) -> u8 {
        self.open.len().min(usize::from(u8::MAX)) as u8
    }
}

/// Collects spans for one request. Cheap to create; inert when disabled.
pub struct TraceRecorder {
    epoch: Option<Instant>,
    inner: Mutex<RecorderInner>,
}

impl TraceRecorder {
    /// A live recorder; its epoch is now.
    pub fn new() -> Self {
        TraceRecorder::with_epoch(Some(Instant::now()))
    }

    /// A disabled recorder (every operation is a no-op).
    pub fn disabled() -> Self {
        TraceRecorder::with_epoch(None)
    }

    fn with_epoch(epoch: Option<Instant>) -> Self {
        TraceRecorder {
            epoch,
            inner: Mutex::new(RecorderInner {
                spans: Vec::new(),
                open: Vec::new(),
                dropped: 0,
            }),
        }
    }

    fn now_us(&self, epoch: Instant) -> u64 {
        epoch.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }

    /// Opens a span for `stage`; its duration is set when the returned guard
    /// drops. Spans opened while another is live nest one level deeper.
    pub fn span(&self, stage: Stage) -> Span<'_> {
        let Some(epoch) = self.epoch else {
            return Span { open: None };
        };
        let start_us = self.now_us(epoch);
        let mut inner = self.inner.lock().expect("trace recorder poisoned");
        let depth = inner.depth();
        inner.open.push(start_us);
        let slot = inner.push(SpanRecord {
            stage,
            start_us,
            dur_us: 0,
            depth,
        });
        Span {
            open: Some(SpanOpen {
                recorder: self,
                slot,
            }),
        }
    }

    /// Replays an externally measured duration as a child of the currently
    /// open span (depth = current nesting). Used for sub-phase timings the
    /// recorder cannot wrap directly, e.g. the executor's scan/join split.
    ///
    /// The leaf is dated `dur_us` before now, but never before the start of
    /// the innermost open span: a summed sub-phase duration can exceed the
    /// time its parent has been open, and a child never starts before it.
    pub fn leaf(&self, stage: Stage, dur_us: u64) {
        let Some(epoch) = self.epoch else {
            return;
        };
        let now = self.now_us(epoch);
        let mut inner = self.inner.lock().expect("trace recorder poisoned");
        let parent_start = inner.open.last().copied().unwrap_or(0);
        let depth = inner.depth();
        inner.push(SpanRecord {
            stage,
            start_us: now.saturating_sub(dur_us).max(parent_start),
            dur_us,
            depth,
        });
    }

    /// Freezes the timeline, spans in the order they were opened.
    pub fn finish(self) -> Trace {
        let Some(epoch) = self.epoch else {
            return Trace::default();
        };
        let total_us = self.now_us(epoch);
        let inner = self.inner.into_inner().expect("trace recorder poisoned");
        Trace {
            spans: inner.spans,
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
            .field("enabled", &self.epoch.is_some())
            .finish()
    }
}

struct SpanOpen<'a> {
    recorder: &'a TraceRecorder,
    /// The span's record, or `None` when the trace was full at open.
    slot: Option<usize>,
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
        inner.open.pop();
        if let Some(slot) = open.slot {
            let record = &mut inner.spans[slot];
            record.dur_us = now.saturating_sub(record.start_us);
        }
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
        let rec = TraceRecorder::new();
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
        // Parents precede their children.
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
        let rec = TraceRecorder::new();
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
    fn span_count_is_bounded() {
        let rec = TraceRecorder::new();
        for _ in 0..(MAX_SPANS + 10) {
            let _span = rec.span(Stage::Scan);
        }
        let trace = rec.finish();
        assert_eq!(trace.spans().len(), MAX_SPANS);
        assert_eq!(trace.dropped(), 10);
    }

    #[test]
    fn render_shows_nesting_markers() {
        let rec = TraceRecorder::new();
        {
            let _outer = rec.span(Stage::Exec);
            rec.leaf(Stage::Scan, 3);
        }
        let rendered = rec.finish().render();
        assert!(rendered.starts_with("exec:"), "rendered: {rendered}");
        assert!(rendered.contains(">scan:3"), "rendered: {rendered}");
    }

    #[test]
    fn a_leaf_longer_than_its_open_parent_still_renders_after_it() {
        let rec = TraceRecorder::new();
        // Open the parent well after the epoch, then replay a child whose
        // duration reaches back before the parent's start.
        std::thread::sleep(std::time::Duration::from_millis(2));
        {
            let _outer = rec.span(Stage::Exec);
            rec.leaf(Stage::Scan, 1_000_000);
        }
        let trace = rec.finish();
        let rendered = trace.render();
        assert!(rendered.starts_with("exec:"), "rendered: {rendered}");
        assert!(rendered.contains(">scan:1000000"), "rendered: {rendered}");
        assert_eq!(trace.spans()[0].start_us, trace.spans()[1].start_us);
    }

    #[test]
    fn siblings_keep_the_order_they_ran_in_whatever_their_durations() {
        let rec = TraceRecorder::new();
        {
            let _probe = rec.span(Stage::CacheProbe);
            // Replayed in the order the phases ran; the later one was longer.
            rec.leaf(Stage::Classify, 0);
            rec.leaf(Stage::Optimize, 1_000_000);
        }
        {
            let _exec = rec.span(Stage::Exec);
            rec.leaf(Stage::Scan, 0);
        }
        // Opened right after the exec span closed, often within the same µs
        // as its last child's replay: it still follows that child.
        drop(rec.span(Stage::Symbolic));
        let stages: Vec<(Stage, u8)> = rec
            .finish()
            .spans()
            .iter()
            .map(|s| (s.stage, s.depth))
            .collect();
        assert_eq!(
            stages,
            [
                (Stage::CacheProbe, 0),
                (Stage::Classify, 1),
                (Stage::Optimize, 1),
                (Stage::Exec, 0),
                (Stage::Scan, 1),
                (Stage::Symbolic, 0),
            ]
        );
    }
}
