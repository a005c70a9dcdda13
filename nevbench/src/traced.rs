//! The traced run: the per-layer numbers.
//!
//! One thread replays the workload's seeded request sequence against two
//! in-process `ServeState`s configured like the spawned server and fed the
//! same commands:
//!
//! 1. `handled` answers each line through `ServeState::handle_line`, timed
//!    with no spans around it — `serve.handler_us`;
//! 2. `replayed` answers the same line by calling the layers' public
//!    functions in the order the dispatch uses them, each call inside a span
//!    that carries the request's id. The replay's response must be byte
//!    identical to `handle_line`'s, or the run fails.
//!
//! Two states are needed because both paths write: a shared plan cache would
//! turn the replay's misses into hits. Spans stay in memory and are written
//! out when the run ends. This is the only module that calls into the layers;
//! it chooses the path from the `EvalPlan` predicates (`is_certified`,
//! `is_compiled`, …), never from variant names, and runs the naïve pass
//! through `naive_answers`, so the dispatch's internals can change without
//! breaking the replay.
//!
//! Calls the dispatch makes inside another layer's call — parsing inside the
//! plan-cache lookup, `is_core` inside `CertainEngine::plan`, interning inside
//! `naive_answers` — are timed by a second, stand-alone call after the
//! request, and their time is charged as a child span of the call that
//! contains them. Preparation on a cache miss reports its own phase times.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use nev_core::summary::Expectation;
use nev_core::Semantics;
use nev_exec::InternedInstance;
use nev_incomplete::Instance;
use nev_serve::cache::canonical;
use nev_serve::oracle::{parallel_certain_answers, DEFAULT_CHUNK};
use nev_serve::state::{ServeConfig, ServeState};
use nev_serve::wire::{self, Command};

use crate::e2e::plan_label;
use crate::stats::median;
use crate::workloads::{load_line, Request, Workload};

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Clone, Debug)]
struct Span {
    request: u32,
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The in-memory span store.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    request: u32,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            request: self.request,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now();
    }

    /// A child of `parent` whose duration was measured elsewhere, placed at
    /// the parent's start.
    fn child(&mut self, parent: usize, name: &'static str, dur_ns: u64) {
        let start_ns = self.spans[parent].start_ns;
        self.spans.push(Span {
            request: self.request,
            name,
            parent: Some(parent),
            start_ns,
            end_ns: start_ns + dur_ns,
        });
    }
}

/// A call the dispatch makes inside another layer's call.
enum Nested {
    /// Parsing the text to its canonical key, inside the plan-cache lookup.
    Parse(Arc<str>),
    /// `is_core`, inside `CertainEngine::plan` on a `WorksOverCores` cell.
    IsCore(Arc<Instance>),
    /// `InternedInstance::new`, inside a compiled `naive_answers`.
    Intern(Arc<Instance>),
}

/// Exact counts over the first pass of the replay, which has a fixed length:
/// at a fixed seed these repeat run after run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    pub evals: u64,
    pub lookups: u64,
    pub hits: u64,
    pub evictions: u64,
    pub zero_worlds: u64,
    pub naive_passes: u64,
    pub rows_out: u64,
    pub symbolic_calls: u64,
    pub symbolic_settled: u64,
    pub oracle_calls: u64,
    pub oracle_worlds: u64,
    pub resp_bytes: u64,
}

impl Counts {
    fn ratio(num: u64, den: u64) -> f64 {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    }

    /// The count metrics the self-test pins, by name.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            (
                "cache.hit_ratio",
                Self::ratio(self.hits, self.lookups),
                "ratio",
            ),
            (
                "cache.evict_ratio",
                Self::ratio(self.evictions, self.lookups),
                "ratio",
            ),
            (
                "core.zero_worlds_ratio",
                Self::ratio(self.zero_worlds, self.evals),
                "ratio",
            ),
            (
                "exec.rows_out",
                Self::ratio(self.rows_out, self.naive_passes),
                "count",
            ),
            (
                "symbolic.hit_ratio",
                Self::ratio(self.symbolic_settled, self.symbolic_calls),
                "ratio",
            ),
            (
                "oracle.worlds",
                Self::ratio(self.oracle_worlds, self.oracle_calls),
                "count",
            ),
            (
                "wire.resp_bytes",
                Self::ratio(self.resp_bytes, self.evals),
                "bytes",
            ),
        ]
    }
}

/// Samples that are not span self times.
#[derive(Default)]
struct Samples {
    handler_us: Vec<f64>,
    /// Parse plus preparation of each cache miss, in µs.
    prepare_total_us: Vec<f64>,
    oracle_seq_us: Vec<f64>,
    oracle_calls: u64,
    oracle_early_exits: u64,
    /// `handle_line` time summed over every replayed request, the base of
    /// `trace.coverage`.
    handler_ns_total: u64,
}

/// What the traced run reports.
pub struct TraceResult {
    /// `(name, value, unit)` for every per-layer metric but
    /// `server.transport_us`, which needs the end-to-end p50.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub counts: Counts,
    /// Total self time per layer, in µs, over the replayed stream.
    pub self_us: BTreeMap<&'static str, f64>,
    pub handler_p50_us: f64,
    pub replayed: u64,
    pub mismatches: u64,
    pub first_mismatch: Option<String>,
}

impl TraceResult {
    /// The layer with the largest total self time.
    pub fn dominant_layer(&self) -> &'static str {
        self.self_us
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(name, _)| *name)
            .unwrap_or("none")
    }
}

/// The service configuration of the spawned `nevd --workers 2`.
fn server_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }
}

struct Replay {
    handled: ServeState,
    replayed: ServeState,
    tracer: Tracer,
    samples: Samples,
    counts: Counts,
    /// Whether the current pass counts into `counts`.
    counting: bool,
    mismatches: u64,
    first_mismatch: Option<String>,
}

impl Replay {
    /// Feeds a set-up line to both states, untraced.
    fn set_up(&mut self, line: &str) {
        let a = self.handled.handle_line(line);
        let b = self.replayed.handle_line(line);
        if a != b || !a.starts_with("OK") {
            self.mismatch(line, &a, &b);
        }
    }

    fn mismatch(&mut self, line: &str, handled: &str, replayed: &str) {
        self.mismatches += 1;
        if self.first_mismatch.is_none() {
            let line: String = line.chars().take(120).collect();
            self.first_mismatch = Some(format!(
                "`{line}`: handle_line gave `{handled}`, the replay `{replayed}`"
            ));
        }
    }

    /// Times `handle_line`, then replays the line layer by layer.
    fn request(&mut self, line: &str) {
        let is_eval = line.starts_with("EVAL ");
        let start = Instant::now();
        let expected = self.handled.handle_line(line);
        let handler_ns = start.elapsed().as_nanos() as u64;
        self.tracer.request += 1;
        let replayed = self.replay(line).unwrap_or_else(|e| format!("ERR {e}"));
        if replayed != expected {
            self.mismatch(line, &expected, &replayed);
        }
        self.samples.handler_ns_total += handler_ns;
        if is_eval {
            self.samples.handler_us.push(handler_ns as f64 / 1e3);
            if self.counting {
                self.counts.evals += 1;
                self.counts.resp_bytes += expected.len() as u64;
            }
        }
    }

    fn replay(&mut self, line: &str) -> Result<String, String> {
        let state = &self.replayed;
        let root = self.tracer.open("serve.replay", None);
        let parse_name = if line.starts_with("LOAD ") {
            "wire.parse_instance"
        } else {
            "wire.parse"
        };
        let span = self.tracer.open(parse_name, Some(root));
        let command = wire::parse_command(line).map_err(|e| e.to_string())?;
        self.tracer.close(span);
        // Calls made inside another layer's call, timed once the request is
        // done: (the containing span, the call, its instance).
        let mut nested: Vec<(usize, Nested)> = Vec::new();
        let mut miss_prepare_us = None;
        let mut oracle_query = None;
        let response = match command {
            Command::Load { name, instance } => {
                let facts = instance.fact_count();
                let span = self.tracer.open("catalog.register", Some(root));
                let replaced = state.catalog().register(&name, instance).is_some();
                self.tracer.close(span);
                let verb = if replaced { "replaced" } else { "loaded" };
                format!("OK {verb} {name} facts={facts}")
            }
            Command::Eval {
                name,
                semantics,
                query,
            } => {
                let semantics: Semantics = semantics
                    .parse()
                    .map_err(|_| format!("unknown semantics `{semantics}`"))?;
                let instance = state
                    .catalog()
                    .get(&name)
                    .ok_or_else(|| format!("unknown instance `{name}`"))?;
                let evictions_before = state.cache().evictions();
                let span = self.tracer.open("cache.lookup", Some(root));
                let (plan, hit) = state
                    .cache()
                    .get_or_prepare_with_status(&query, semantics)
                    .map_err(|e| e.to_string())?;
                self.tracer.close(span);
                // Hit or miss, the lookup parses the text to its canonical key.
                nested.push((span, Nested::Parse(Arc::from(query.as_str()))));
                if !hit {
                    // A miss also prepared the parsed query inside the lookup;
                    // the preparation reports its own phase times.
                    let prep = plan.prepared.prep_timings();
                    let us = prep.classify_us + prep.compile_us + prep.analyze_us;
                    self.tracer.child(span, "prepare", us * 1000);
                    miss_prepare_us = Some(us);
                }
                if self.counting {
                    self.counts.lookups += 1;
                    self.counts.hits += u64::from(hit);
                    self.counts.evictions += state.cache().evictions() - evictions_before;
                }
                let prepared = &plan.prepared;
                let span = self.tracer.open("core.plan", Some(root));
                let dispatch = state.engine().plan(&instance, semantics, prepared);
                self.tracer.close(span);
                if plan.cell == Expectation::WorksOverCores {
                    nested.push((span, Nested::IsCore(Arc::clone(&instance))));
                }
                let (label, certain, truncated) = if dispatch.is_certified() {
                    let span = self.tracer.open("exec.naive", Some(root));
                    let (certain, _) = if dispatch.is_normalized() {
                        state.engine().normalized_naive_answers_traced(
                            &instance,
                            prepared,
                            &nev_obs::TraceRecorder::disabled(),
                        )
                    } else {
                        state.engine().naive_answers(&instance, prepared)
                    };
                    self.tracer.close(span);
                    if dispatch.is_compiled() {
                        nested.push((span, Nested::Intern(Arc::clone(&instance))));
                    }
                    if self.counting {
                        self.counts.zero_worlds += 1;
                        self.counts.naive_passes += 1;
                        self.counts.rows_out += certain.len() as u64;
                    }
                    (plan_label(&dispatch), certain, false)
                } else {
                    let span = self.tracer.open("symbolic", Some(root));
                    let symbolic = state
                        .engine()
                        .evaluate_symbolic(&instance, semantics, prepared);
                    self.tracer.close(span);
                    if self.counting {
                        self.counts.symbolic_calls += 1;
                    }
                    match symbolic {
                        Some(evaluation) => {
                            if self.counting {
                                self.counts.symbolic_settled += 1;
                                self.counts.zero_worlds += 1;
                            }
                            (plan_label(&evaluation.plan), evaluation.certain, false)
                        }
                        None => {
                            let span = self.tracer.open("oracle", Some(root));
                            let outcome = parallel_certain_answers(
                                state.pool(),
                                state.engine(),
                                &instance,
                                semantics,
                                prepared,
                                DEFAULT_CHUNK,
                            );
                            self.tracer.close(span);
                            self.samples.oracle_calls += 1;
                            self.samples.oracle_early_exits += u64::from(outcome.cancelled);
                            oracle_query =
                                Some((Arc::clone(&instance), semantics, Arc::clone(prepared)));
                            ("oracle", outcome.certain, outcome.truncated)
                        }
                    }
                };
                let span = self.tracer.open("wire.render", Some(root));
                let response = format!(
                    "OK plan={label} certain={}{}",
                    wire::render_answers(&certain),
                    if truncated { " truncated=true" } else { "" }
                );
                self.tracer.close(span);
                response
            }
            _ => return Err(format!("the replay handles LOAD and EVAL only: `{line}`")),
        };
        self.tracer.close(root);
        for (parent, call) in nested {
            let is_parse = matches!(call, Nested::Parse(_));
            let start = Instant::now();
            let name = match call {
                Nested::Parse(text) => {
                    let _ = black_box(canonical(&text));
                    "prepare.parse"
                }
                Nested::IsCore(instance) => {
                    black_box(nev_hom::is_core(&instance));
                    "core.is_core"
                }
                Nested::Intern(instance) => {
                    black_box(InternedInstance::new(&instance));
                    "exec.intern"
                }
            };
            let dur_ns = start.elapsed().as_nanos() as u64;
            self.tracer.child(parent, name, dur_ns);
            if let (true, Some(us)) = (is_parse, miss_prepare_us) {
                self.samples
                    .prepare_total_us
                    .push(dur_ns as f64 / 1e3 + us as f64);
            }
        }
        if let Some((instance, semantics, prepared)) = oracle_query {
            // The sequential oracle, for a schedule-independent world count.
            let start = Instant::now();
            let evaluation = self
                .replayed
                .engine()
                .compare(&instance, semantics, &prepared);
            self.samples
                .oracle_seq_us
                .push(start.elapsed().as_secs_f64() * 1e6);
            if self.counting {
                self.counts.oracle_calls += 1;
                self.counts.oracle_worlds += evaluation.worlds_enumerated as u64;
            }
        }
        Ok(response)
    }
}

/// Runs the traced replay for about `seconds` (at least one full pass of the
/// stream). Writes the spans to `spans_out`.
pub fn run(workload: &Workload, seconds: f64, spans_out: &Path) -> io::Result<TraceResult> {
    let mut replay = Replay {
        handled: ServeState::new(server_config()),
        replayed: ServeState::new(server_config()),
        tracer: Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            request: 0,
        },
        samples: Samples::default(),
        counts: Counts::default(),
        counting: true,
        mismatches: 0,
        first_mismatch: None,
    };
    for (i, snapshot) in workload.snapshots.iter().enumerate() {
        replay.set_up(&load_line(i, snapshot));
    }
    for text in &workload.prepares {
        replay.set_up(&format!("PREPARE {text}"));
    }
    for request in &workload.warmup {
        replay.set_up(&request.line());
    }
    let lines: Vec<String> = workload.stream.iter().map(Request::line).collect();
    let start = Instant::now();
    loop {
        for line in &lines {
            replay.request(line);
        }
        replay.counting = false;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    write_spans(&replay.tracer.spans, spans_out)?;
    Ok(summarise(replay))
}

/// Self time of every span: its duration minus its children's.
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.dur_ns());
        }
    }
    own
}

fn summarise(replay: Replay) -> TraceResult {
    let spans = &replay.tracer.spans;
    let own = self_times(spans);
    let mut per_call: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut self_us: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut covered_ns = 0u64;
    for (span, own_ns) in spans.iter().zip(&own) {
        let us = *own_ns as f64 / 1e3;
        per_call.entry(span.name).or_default().push(us);
        *self_us.entry(span.name).or_default() += us;
        if span.parent.is_some_and(|p| spans[p].parent.is_none()) {
            covered_ns += span.dur_ns();
        }
    }
    let per_call_median = |name: &str| per_call.get(name).map_or(0.0, |v| median(v));
    let samples = &replay.samples;
    let handler_p50_us = median(&samples.handler_us);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let mut metrics = vec![
        ("wire.parse_us", per_call_median("wire.parse"), "us"),
        ("wire.render_us", per_call_median("wire.render"), "us"),
        (
            "wire.parse_instance_us",
            per_call_median("wire.parse_instance"),
            "us",
        ),
        (
            "catalog.register_us",
            per_call_median("catalog.register"),
            "us",
        ),
        ("cache.lookup_us", per_call_median("cache.lookup"), "us"),
        ("prepare.parse_us", per_call_median("prepare.parse"), "us"),
        ("prepare.total_us", median(&samples.prepare_total_us), "us"),
        ("core.plan_us", per_call_median("core.plan"), "us"),
        ("core.is_core_us", per_call_median("core.is_core"), "us"),
        ("exec.intern_us", per_call_median("exec.intern"), "us"),
        ("exec.run_us", per_call_median("exec.naive"), "us"),
        ("symbolic.us", per_call_median("symbolic"), "us"),
        ("oracle.us", per_call_median("oracle"), "us"),
        ("oracle.seq_us", median(&samples.oracle_seq_us), "us"),
        (
            "oracle.early_exit_ratio",
            ratio(samples.oracle_early_exits, samples.oracle_calls),
            "ratio",
        ),
        ("serve.handler_us", handler_p50_us, "us"),
        ("serve.self_us", per_call_median("serve.replay"), "us"),
        (
            "trace.coverage",
            ratio(covered_ns, samples.handler_ns_total),
            "ratio",
        ),
    ];
    metrics.extend(replay.counts.metrics());
    self_us.remove("serve.replay");
    TraceResult {
        metrics,
        counts: replay.counts,
        self_us,
        handler_p50_us,
        replayed: u64::from(replay.tracer.request),
        mismatches: replay.mismatches,
        first_mismatch: replay.first_mismatch,
    }
}

/// Writes the spans as tab-separated lines:
/// `request name parent start_ns end_ns`.
fn write_spans(spans: &[Span], path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::from("request\tname\tparent\tstart_ns\tend_ns\n");
    for span in spans {
        let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{}\t{}\t{parent}\t{}\t{}",
            span.request, span.name, span.start_ns, span.end_ns
        );
    }
    std::fs::write(path, out)
}
