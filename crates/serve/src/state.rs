//! The shared service state: catalog + plan cache + engine, and the
//! request handlers (`LOAD` / `PREPARE` / `EVAL` / `EXPLAIN` / `ANALYZE` /
//! `PROFILE` / `STATS` / `TOP` / `METRICS`) built on them.
//!
//! One [`ServeState`] is shared (behind an `Arc`) by every connection thread of a
//! [`crate::server::Server`] and by in-process callers (benchmarks, tests, the
//! load generator's reference run). It is `Send + Sync` by construction: the
//! catalog hands out immutable snapshots, the cache hands out `Arc`s, and the
//! engine is immutable configuration.
//!
//! Figure 1 dispatch is the engine's ([`CertainEngine::dispatch`]); the handlers
//! resolve the snapshot and the cached plan, call it, and render its
//! [`Evaluation`]: a cell the symbolic ladder leaves open runs the engine's
//! **sequential world pass**, with early exit.
//!
//! Every evaluating request is recorded through one function into the
//! state's one telemetry store, the [`MetricsRegistry`]; `STATS`, `TOP` and
//! `METRICS` each render one [`MetricsSnapshot`] of it.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

pub use nev_core::engine::PlanKind;
use nev_core::engine::{
    CertainEngine, DispatchOptions, EngineError, Evaluation, PreparedQuery, SymbolicTechnique,
};
use nev_core::{Semantics, WorldBounds};
use nev_incomplete::{Instance, Tuple};
use nev_obs::{
    Counter, MetricsRegistry, MetricsSnapshot, SlowQuery, Stage, Timer, Trace, TraceRecorder,
};

use crate::cache::{CachedPlan, PlanCache};
use crate::catalog::Catalog;
use crate::wire::{self, Command};

/// Configuration of a service instance.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Read by nevbench until its next benchmark PR: accepted and ignored
    /// (see the compat block in `nev_serve::oracle`).
    #[doc(hidden)]
    pub workers: usize,
    /// Plan-cache capacity in distinct queries.
    pub cache_capacity: usize,
    /// World-enumeration bounds used by every evaluation.
    pub bounds: WorldBounds,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            cache_capacity: 256,
            bounds: WorldBounds::default(),
        }
    }
}

/// A service-level error (rendered as an `ERR` line by the server).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ServeError {
    /// The request line failed to parse.
    Wire(wire::WireError),
    /// `EVAL`/`LOAD` referenced a name the catalog does not hold.
    UnknownInstance(String),
    /// The semantics spelling was not recognised.
    UnknownSemantics(String),
    /// The query failed to parse or classify.
    Engine(EngineError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Wire(e) => write!(f, "{e}"),
            ServeError::UnknownInstance(name) => {
                write!(f, "unknown instance `{name}` (LOAD it first)")
            }
            ServeError::UnknownSemantics(s) => write!(f, "unknown semantics `{s}`"),
            ServeError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<wire::WireError> for ServeError {
    fn from(e: wire::WireError) -> Self {
        ServeError::Wire(e)
    }
}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> Self {
        ServeError::Engine(e)
    }
}

/// The fixed dispatch-kind label set of the metrics registry — one
/// request-latency histogram per [`PlanKind`].
pub const PLAN_LABELS: &[&str] = &["compiled", "certified", "normalized", "symbolic", "oracle"];

/// How many top-latency requests the slow-query log retains.
pub const SLOW_LOG_CAPACITY: usize = 8;

/// The ` reason=<code>` suffix for `compiled=false` responses: the compiler's
/// own rejection when the query failed to compile, empty when there simply is
/// no pipeline to show (symbolic/oracle dispatch of a compilable query).
fn render_compile_reason(prepared: &PreparedQuery) -> String {
    match prepared.compile_error() {
        Some(e) => format!(" reason={}", e.reason_code()),
        None => String::new(),
    }
}

/// The [`Semantics`] a request line spells, or the typed error `ERR` renders.
fn parse_semantics(spelling: String) -> Result<Semantics, ServeError> {
    spelling
        .parse()
        .map_err(|_| ServeError::UnknownSemantics(spelling))
}

/// One `EVAL` answer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EvalResponse {
    /// How the request was answered.
    pub plan: PlanKind,
    /// The certain answers (Boolean queries use the `{()} / ∅` encoding).
    pub certain: BTreeSet<Tuple>,
    /// Whether an oracle answer drew on a world stream cut off by the world
    /// cap (see [`nev_core::Evaluation::truncated`]); such an answer is an
    /// over-approximation from a world sample, and the wire says so.
    pub truncated: bool,
}

impl EvalResponse {
    /// The response an evaluation renders to.
    pub fn of(evaluation: Evaluation) -> Self {
        EvalResponse {
            plan: evaluation.plan.kind(),
            certain: evaluation.certain,
            truncated: evaluation.truncated,
        }
    }

    /// The canonical wire payload: `plan=<plan> certain=<answers>`, extended
    /// with ` truncated=true` exactly when the oracle verdict was cut short —
    /// untruncated responses render byte-identically to before the flag
    /// existed.
    pub fn render(&self) -> String {
        format!(
            "plan={} certain={}{}",
            self.plan,
            wire::render_answers(&self.certain),
            if self.truncated {
                " truncated=true"
            } else {
                ""
            }
        )
    }
}

/// The shared state of one `nevd` service.
#[derive(Debug)]
pub struct ServeState {
    engine: CertainEngine,
    catalog: Catalog,
    cache: PlanCache,
    metrics: MetricsRegistry,
}

impl ServeState {
    /// Builds a service from its configuration.
    pub fn new(config: ServeConfig) -> Self {
        ServeState {
            engine: CertainEngine::with_bounds(config.bounds),
            catalog: Catalog::new(),
            cache: PlanCache::new(config.cache_capacity),
            metrics: MetricsRegistry::new(PLAN_LABELS, SLOW_LOG_CAPACITY),
        }
    }

    /// The instance catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The plan cache.
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// The underlying engine (bounds included).
    pub fn engine(&self) -> &CertainEngine {
        &self.engine
    }

    /// The service's one telemetry store: counters, latency histograms,
    /// slow-query log and time-series ring behind `STATS`, `TOP` and
    /// `METRICS`.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Registers (or replaces) a named instance; returns `true` on replacement.
    pub fn load(&self, name: impl Into<String>, instance: Instance) -> bool {
        self.metrics.bump(Counter::Loads);
        self.catalog.register(name, instance).is_some()
    }

    /// Parses, classifies and compiles a query into the plan cache.
    pub fn prepare(&self, text: &str) -> Result<Arc<PreparedQuery>, ServeError> {
        self.metrics.bump(Counter::Prepares);
        Ok(self.cache.prepare_all(text)?)
    }

    /// Resolves the named snapshot and the cached plan — recording the cache
    /// probe, with the preparation phases of a miss as children, when
    /// `options` traces — and runs the engine's Figure 1 dispatch on the
    /// catalog entry, whose interned form and core bit every request on the
    /// same version shares. Every request handler evaluates through this; it
    /// counts nothing itself.
    pub fn dispatch(
        &self,
        name: &str,
        semantics: Semantics,
        query_text: &str,
        options: &DispatchOptions<'_>,
    ) -> Result<(CachedPlan, Evaluation), ServeError> {
        let snapshot = self
            .catalog
            .entry(name)
            .ok_or_else(|| ServeError::UnknownInstance(name.to_string()))?;
        let probe = options
            .trace
            .map(|recorder| recorder.span(Stage::CacheProbe));
        let (plan, hit) = self
            .cache
            .get_or_prepare_with_status(query_text, semantics)?;
        if let Some(recorder) = options.trace {
            // Every lookup parsed the text into its cache key. A miss also
            // paid the full preparation inside the probe span; replay its
            // classify, compile and analyze phases as children, one leaf each
            // whatever the clock read. Hits skip those — their preparation
            // happened on some earlier request.
            recorder.leaf(Stage::Parse, plan.parse_us);
            if !hit {
                let prep = plan.prepared.prep_timings();
                recorder.leaf(Stage::Classify, prep.classify_us);
                recorder.leaf(Stage::Optimize, prep.compile_us);
                recorder.leaf(Stage::Normalize, prep.analyze_us);
            }
        }
        drop(probe);
        let evaluation = self
            .engine
            .dispatch(&snapshot, semantics, &plan.prepared, options);
        Ok((plan, evaluation))
    }

    /// One evaluating request (`EVAL`, `TRACE`, `PROFILE`): the dispatch and
    /// its [`ServeState::record`]. Returns the latency too.
    fn evaluate(
        &self,
        name: &str,
        semantics: Semantics,
        query_text: &str,
        options: &DispatchOptions<'_>,
    ) -> Result<(CachedPlan, Evaluation, u64), ServeError> {
        let total = Timer::start();
        let (plan, evaluation) = self.dispatch(name, semantics, query_text, options)?;
        let latency = total.elapsed_us();
        self.record(&plan.prepared, &evaluation, latency);
        Ok((plan, evaluation, latency))
    }

    /// Answers one `EXPLAIN` request: the Figure 1 dispatch decision for the
    /// query on the named instance (the core check and the symbolic probe need
    /// real data, but no world is enumerated) plus the `nev-opt` plan pair —
    /// `rules=<fired> logical=(…) optimized=(…)`. Compiler-rejected shapes report
    /// `compiled=false reason=<code>` instead of plans, where the reason is the
    /// compiler's own rejection (e.g. `complement_too_wide(columns=4,limit=3)`).
    pub fn explain(
        &self,
        name: &str,
        semantics: Semantics,
        query_text: &str,
    ) -> Result<String, ServeError> {
        let (plan, evaluation) = self.dispatch(
            name,
            semantics,
            query_text,
            &DispatchOptions::STOP_BEFORE_ORACLE,
        )?;
        let dispatch = evaluation.plan.kind();
        self.metrics.bump(Counter::Explains);
        Ok(match plan.prepared.compiled() {
            Some(compiled) => format!("dispatch={dispatch} {}", compiled.explain_compact()),
            None => format!(
                "dispatch={dispatch} compiled=false{}",
                render_compile_reason(&plan.prepared)
            ),
        })
    }

    /// Answers one `ANALYZE` request: the static analyser's verdict for the
    /// query on the named instance — raw vs normalized Figure 1 fragment, the
    /// rewrite-trace length, the dispatch the engine would pick (so upgrades
    /// are visible), the re-checked certificate status, per-answer-column
    /// null-safety, and the analyser's diagnostics. Enumerates no world.
    pub fn analyze(
        &self,
        name: &str,
        semantics: Semantics,
        query_text: &str,
    ) -> Result<String, ServeError> {
        let (plan, evaluation) = self.dispatch(
            name,
            semantics,
            query_text,
            &DispatchOptions::STOP_BEFORE_ORACLE,
        )?;
        let analysis = plan.prepared.analysis();
        let dispatch = evaluation.plan.kind();
        // The wire never trusts the analyzer blindly: the trace is replayed
        // and both fragments re-classified before the verdict is reported.
        let certificate = match plan.prepared.check_normalization() {
            Ok(()) => "ok".to_string(),
            Err(e) => format!("invalid({e})"),
        };
        let nullability = if analysis.nullability().columns.is_empty() {
            "-".to_string()
        } else {
            analysis
                .nullability()
                .columns
                .iter()
                .map(|c| format!("{}={}", c.column, c.nullability))
                .collect::<Vec<_>>()
                .join(",")
        };
        let diagnostics = analysis
            .diagnostics()
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(",");
        self.metrics.bump(Counter::Analyzed);
        if analysis.static_truth().is_some() {
            self.metrics.bump(Counter::StaticPrunes);
        }
        Ok(format!(
            "analysis fragment={} normalized_fragment={} steps={} widened={} dispatch={dispatch} \
             certificate={certificate} nullability={nullability} diagnostics=[{diagnostics}]",
            analysis.original_fragment().short_name(),
            analysis.normalized_fragment().short_name(),
            analysis.trace().len(),
            analysis.widened(),
        ))
    }

    /// Answers one `EVAL` request through the engine's dispatch: certified
    /// naïve pass when Figure 1 guarantees it, else the symbolic ladder, else
    /// the bounded oracle's **sequential world pass**. The certain answers are
    /// identical to `CertainEngine::evaluate` on the same inputs.
    pub fn eval(
        &self,
        name: &str,
        semantics: Semantics,
        query_text: &str,
    ) -> Result<EvalResponse, ServeError> {
        self.eval_with_trace(name, semantics, query_text)
            .map(|(response, _trace)| response)
    }

    /// [`ServeState::eval`] returning the request's stage timeline alongside the
    /// answer (the `TRACE` command). The trace covers the whole request — the
    /// plan-cache probe (with parse/classify/compile replayed as children on a
    /// miss), the engine's exec pass, the symbolic probe, and the oracle — and
    /// is also what feeds the metrics registry: the per-plan latency histogram
    /// records exactly once per successful request (its counts are the `evals`
    /// and dispatch counters); the per-stage histograms and the slow-query log
    /// absorb the finished trace.
    pub fn eval_with_trace(
        &self,
        name: &str,
        semantics: Semantics,
        query_text: &str,
    ) -> Result<(EvalResponse, Trace), ServeError> {
        let recorder = TraceRecorder::new();
        let options = DispatchOptions {
            trace: Some(&recorder),
            ..DispatchOptions::default()
        };
        let (plan, evaluation, latency) = self.evaluate(name, semantics, query_text, &options)?;
        let trace = recorder.finish();
        self.metrics.observe_trace(&trace);
        self.metrics.record_slow(SlowQuery {
            latency_us: latency,
            query: plan.prepared.query().to_string(),
            semantics: semantics.to_string(),
            cell: format!("{:?}", plan.cell),
            plan: evaluation.plan.label().to_string(),
            stages: trace
                .spans()
                .iter()
                .filter(|s| s.depth == 0)
                .map(|s| (s.stage, s.dur_us))
                .collect(),
        });
        Ok((EvalResponse::of(evaluation), trace))
    }

    /// Answers one `PROFILE` request: a **real** evaluation (it counts in
    /// `evals` and feeds the latency histograms, exactly like `TRACE`) that
    /// additionally returns the per-operator annotated plan when a certified
    /// naïve pass ran on a compiled plan (the query as written, or its normal
    /// form on a normalized dispatch) — inclusive wall time, output rows, and
    /// the `nev-opt` cost model's estimate for every executed operator,
    /// including each pairwise join fold in the greedy order. Other dispatches
    /// (interpreter fallback, symbolic, oracle) run normally and report
    /// `compiled=false`.
    pub fn profile(
        &self,
        name: &str,
        semantics: Semantics,
        query_text: &str,
    ) -> Result<String, ServeError> {
        let options = DispatchOptions {
            profile: true,
            ..DispatchOptions::default()
        };
        let (plan, mut evaluation, _) = self.evaluate(name, semantics, query_text, &options)?;
        let profile = evaluation.profile.take();
        let response = EvalResponse::of(evaluation);
        Ok(match profile {
            Some(profile) => format!(
                "profile plan={} certain={} exec_us={} ops=[{}]",
                response.plan,
                wire::render_answers(&response.certain),
                profile.exec_us,
                profile.render()
            ),
            None => format!(
                "profile {} compiled=false{}",
                response.render(),
                render_compile_reason(&plan.prepared)
            ),
        })
    }

    /// Records one answered evaluating request: the tallies that are not plan kinds, the worlds an oracle
    /// evaluation drew on, and last its latency under its plan label. The
    /// per-plan histogram counts *are* the `evals` and dispatch counters, so
    /// a request shows in them only once everything else about it has been
    /// counted.
    fn record(&self, prepared: &PreparedQuery, evaluation: &Evaluation, latency_us: u64) {
        let metrics = &self.metrics;
        if prepared.analysis().static_truth().is_some() {
            // The normal form is ⊤/⊥: whatever the dispatch, the exec layer's
            // empty-annihilation rules answer without scanning data.
            metrics.bump(Counter::StaticPrunes);
        }
        if evaluation
            .plan
            .symbolic_certificate()
            .is_some_and(|c| c.technique == SymbolicTechnique::Sandwich)
        {
            metrics.bump(Counter::SandwichExact);
        }
        if evaluation.exited_early() {
            metrics.bump(Counter::OracleCancelled);
        }
        if evaluation.truncated {
            metrics.bump(Counter::Truncated);
        }
        if evaluation.plan.kind() == PlanKind::Oracle {
            metrics.observe_worlds(evaluation.worlds_enumerated as u64);
        }
        metrics.observe_plan(evaluation.plan.label(), latency_us);
    }

    /// The counters `STATS` and `METRICS` report, in wire order, read off
    /// one snapshot: the registry's tallies, the dispatch counters derived
    /// from its per-plan histogram counts (so `evals` is always the sum of
    /// `certified`, `normalized_upgrades`, `symbolic` and `oracle`), `worlds`
    /// as the sum of the worlds-per-oracle-request histogram, and the plan
    /// cache's own hit/miss/eviction counts.
    fn counters(&self, snap: &MetricsSnapshot) -> [(&'static str, u64); 20] {
        let counter = |c: Counter| (c.name(), snap.counter(c));
        let plan = |kind: PlanKind| snap.plan_count(kind.label());
        [
            counter(Counter::Requests),
            counter(Counter::Loads),
            counter(Counter::Prepares),
            ("evals", snap.evals()),
            counter(Counter::Explains),
            counter(Counter::Errors),
            (
                "certified",
                plan(PlanKind::Compiled) + plan(PlanKind::Certified),
            ),
            ("compiled", plan(PlanKind::Compiled)),
            ("oracle", plan(PlanKind::Oracle)),
            ("worlds", snap.worlds.sum),
            counter(Counter::OracleCancelled),
            ("symbolic", plan(PlanKind::Symbolic)),
            counter(Counter::SandwichExact),
            counter(Counter::Truncated),
            counter(Counter::Analyzed),
            ("normalized_upgrades", plan(PlanKind::Normalized)),
            counter(Counter::StaticPrunes),
            ("cache_hits", self.cache.hits()),
            ("cache_misses", self.cache.misses()),
            ("cache_evictions", self.cache.evictions()),
        ]
    }

    /// The cache and catalog gauges `STATS` and `METRICS` report.
    fn gauges(&self) -> [(&'static str, u64); 2] {
        [
            ("cache_entries", self.cache.len() as u64),
            ("instances", self.catalog.len() as u64),
        ]
    }

    /// The canonical `STATS` payload, from one snapshot: the counters, the
    /// gauges, and the request-latency digest (`uptime_us=` / `p50_us=` /
    /// `p95_us=` / `p99_us=` over all dispatch kinds; zeros before the first
    /// `EVAL`).
    pub fn render_stats(&self) -> String {
        let snap = self.metrics.snapshot();
        let latency = snap.latency();
        let digest = [
            ("uptime_us", snap.at_us),
            ("p50_us", latency.p50()),
            ("p95_us", latency.p95()),
            ("p99_us", latency.p99()),
        ];
        self.counters(&snap)
            .iter()
            .chain(&self.gauges())
            .chain(&digest)
            .map(|(name, value)| format!("{name}={value}"))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// The `TOP` one-liner, from one snapshot: lifetime totals plus, per
    /// trailing window ([`nev_obs::WINDOWS`]), eval throughput, error rate and
    /// interpolated latency percentiles — everything `nevtop` needs for its
    /// header in one cheap request. Rates are computed against the window's
    /// **actual** elapsed span, so a young server reports honest since-boot
    /// rates.
    pub fn render_top(&self) -> String {
        use std::fmt::Write;
        let snap = self.metrics.snapshot();
        let mut out = format!(
            "top uptime_us={} requests={} evals={} errors={}",
            snap.at_us,
            snap.counter(Counter::Requests),
            snap.evals(),
            snap.counter(Counter::Errors)
        );
        for (label, delta) in &self.metrics.series().windows(&snap) {
            let _ = write!(
                out,
                " qps_{label}={:.2} err_{label}={:.4} p50_us_{label}={} p95_us_{label}={} p99_us_{label}={}",
                delta.qps(),
                delta.error_rate(),
                delta.latency.p50(),
                delta.latency.p95(),
                delta.latency.p99()
            );
        }
        out
    }

    /// The full `METRICS` exposition of one snapshot: every `STATS` counter
    /// and gauge, the per-plan request-latency, worlds-per-oracle-request and
    /// per-stage histograms, the
    /// trailing-window `nev_window_*` gauges, and the slow-query log —
    /// Prometheus-style text ending with a `# EOF` line (see
    /// [`nev_obs::validate_exposition`]).
    pub fn render_metrics(&self) -> String {
        let snap = self.metrics.snapshot();
        self.metrics
            .expose(&snap, &self.counters(&snap), &self.gauges())
    }

    /// Handles one protocol line, returning the response line (always exactly one
    /// line, `OK …` or `ERR …`). `QUIT` returns `OK bye`; closing the connection is
    /// the server loop's business.
    pub fn handle_line(&self, line: &str) -> String {
        self.metrics.bump(Counter::Requests);
        let response = match self.handle_command(line) {
            Ok(payload) => format!("OK {payload}"),
            Err(e) => {
                self.metrics.bump(Counter::Errors);
                format!("ERR {e}")
            }
        };
        // Lazy time-series sampling rides the request path (no ticker
        // thread): after the command so the sample sees its effects.
        self.metrics.sample_if_due();
        response
    }

    fn handle_command(&self, line: &str) -> Result<String, ServeError> {
        match wire::parse_command(line)? {
            Command::Load { name, instance } => {
                let facts = instance.fact_count();
                let replaced = self.load(&name, instance);
                Ok(format!(
                    "{} {name} facts={facts}",
                    if replaced { "replaced" } else { "loaded" }
                ))
            }
            Command::Prepare { query } => {
                let prepared = self.prepare(&query)?;
                Ok(format!(
                    "prepared fragment={} arity={} compiles={}",
                    prepared.fragment().short_name(),
                    prepared.arity(),
                    prepared.compiles()
                ))
            }
            Command::Eval {
                name,
                semantics,
                query,
            } => {
                let semantics = parse_semantics(semantics)?;
                let response = self.eval(&name, semantics, &query)?;
                Ok(response.render())
            }
            Command::Explain {
                name,
                semantics,
                query,
            } => {
                let semantics = parse_semantics(semantics)?;
                self.explain(&name, semantics, &query)
            }
            Command::Analyze {
                name,
                semantics,
                query,
            } => {
                let semantics = parse_semantics(semantics)?;
                self.analyze(&name, semantics, &query)
            }
            Command::Trace {
                name,
                semantics,
                query,
            } => {
                let semantics = parse_semantics(semantics)?;
                let (response, trace) = self.eval_with_trace(&name, semantics, &query)?;
                Ok(format!(
                    "trace plan={} total_us={} dropped={} spans={}",
                    response.plan,
                    trace.total_us(),
                    trace.dropped(),
                    trace.render()
                ))
            }
            Command::Profile {
                name,
                semantics,
                query,
            } => {
                let semantics = parse_semantics(semantics)?;
                self.profile(&name, semantics, &query)
            }
            Command::Stats => Ok(self.render_stats()),
            Command::Metrics => {
                // The sole multi-line payload: `OK metrics`, then the
                // exposition, whose final line is the `# EOF` terminator.
                Ok(format!("metrics\n{}", self.render_metrics().trim_end()))
            }
            Command::MetricsReset => {
                self.metrics.reset();
                Ok("metrics reset".to_string())
            }
            Command::Top => Ok(self.render_top()),
            Command::Quit => Ok("bye".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nev_incomplete::builder::{c, x};
    use nev_incomplete::inst;

    fn state() -> ServeState {
        ServeState::new(ServeConfig::default())
    }

    /// One `STATS` counter, read the way `STATS` reads it.
    fn stat(state: &ServeState, name: &str) -> u64 {
        let snap = state.metrics().snapshot();
        state
            .counters(&snap)
            .iter()
            .find(|(counter, _)| *counter == name)
            .map(|(_, value)| *value)
            .expect("a STATS counter")
    }

    fn d0() -> Instance {
        inst! { "D" => [[x(1), x(2)], [x(2), x(1)]] }
    }

    #[test]
    fn eval_matches_the_in_process_engine_on_both_paths() {
        let state = state();
        state.load("d0", d0());
        let engine = CertainEngine::new();
        for (text, semantics) in [
            // Certified cell (∃Pos × CWA) and oracle cells (Pos/FO × OWA).
            ("exists u v . D(u, v) & D(v, u)", Semantics::Cwa),
            ("forall u . exists v . D(u, v)", Semantics::Owa),
            ("exists u . !D(u, u)", Semantics::Owa),
        ] {
            let served = state.eval("d0", semantics, text).expect("served");
            let reference = engine.evaluate(&d0(), semantics, &engine.prepare(text).unwrap());
            assert_eq!(served.certain, reference.certain, "{text}");
            assert_eq!(served.plan, reference.plan.kind(), "{text}");
        }
        assert_eq!(stat(&state, "evals"), 3);
        assert_eq!(stat(&state, "certified"), 1);
        assert_eq!(stat(&state, "oracle"), 2);
        assert!(stat(&state, "worlds") > 0);
    }

    #[test]
    fn unknown_names_and_semantics_are_typed_errors() {
        let state = state();
        assert_eq!(
            state.eval("nope", Semantics::Owa, "exists u . D(u, u)"),
            Err(ServeError::UnknownInstance("nope".into()))
        );
        state.load("d0", d0());
        assert!(matches!(
            state.handle_line("EVAL d0 nonsense exists u . D(u, u)").as_str(),
            s if s.starts_with("ERR unknown semantics")
        ));
        assert!(state
            .handle_line("EVAL d0 owa exists u . D(u")
            .starts_with("ERR"));
        assert_eq!(stat(&state, "errors"), 2);
    }

    #[test]
    fn protocol_round_trip_session() {
        let state = state();
        assert_eq!(
            state.handle_line("LOAD d0 D(?1,?2);D(?2,?1)"),
            "OK loaded d0 facts=2"
        );
        assert_eq!(
            state.handle_line("LOAD d0 D(?1,?2);D(?2,?1)"),
            "OK replaced d0 facts=2"
        );
        let prepared = state.handle_line("PREPARE forall u . exists v . D(u, v)");
        assert_eq!(prepared, "OK prepared fragment=Pos arity=0 compiles=true");
        let eval = state.handle_line("EVAL d0 cwa forall u . exists v . D(u, v)");
        assert_eq!(eval, "OK plan=compiled certain={()}");
        let owa = state.handle_line("EVAL d0 owa forall u . exists v . D(u, v)");
        assert_eq!(owa, "OK plan=oracle certain={}");
        let stats = state.handle_line("STATS");
        assert!(stats.starts_with("OK requests="), "{stats}");
        assert!(stats.contains(" instances=1 "), "{stats}");
        assert_eq!(state.handle_line("QUIT"), "OK bye");
    }

    #[test]
    fn explain_exposes_the_optimised_plan_over_the_protocol() {
        let state = state();
        state.load("d0", d0());
        // A compiled certified cell: dispatch decision plus both plans.
        let line = state.handle_line("EXPLAIN d0 cwa exists u v . D(u, v)");
        assert!(line.starts_with("OK dispatch=compiled rules="), "{line}");
        assert!(line.contains("logical=("), "{line}");
        assert!(line.contains("optimized=("), "{line}");
        assert!(!line.contains('\n'), "one line per response: {line}");
        // A compiler-rejected shape reports the interpreter fallback, with the
        // compiler's own rejection as the reason.
        let fallback = state.handle_line("EXPLAIN d0 wcwa forall u v w t . D(u, v) & D(w, t)");
        assert!(
            fallback.contains("compiled=false reason=complement_too_wide(columns=4,limit=3)"),
            "{fallback}"
        );
        assert!(fallback.starts_with("OK dispatch=certified"), "{fallback}");
        // Unknown instances are typed errors, exactly like EVAL.
        assert!(state
            .handle_line("EXPLAIN nope owa exists u . D(u, u)")
            .starts_with("ERR unknown instance"));
        assert_eq!(stat(&state, "explains"), 2);
        assert_eq!(stat(&state, "evals"), 0, "EXPLAIN executes nothing");
        // EXPLAIN warms the same plan cache EVAL uses.
        state.handle_line("EVAL d0 cwa exists u v . D(u, v)");
        assert!(state.cache().hits() >= 1);
    }

    #[test]
    fn explain_counts_only_rules_that_change_the_plan() {
        let state = state();
        assert_eq!(
            state.handle_line("LOAD d R(1,?1);S(?1)"),
            "OK loaded d facts=2"
        );
        for text in [
            "exists u . S(u)",
            "!(exists u . S(u))",
            "Q(x) :- exists y . R(x, y)",
        ] {
            let line = state.handle_line(&format!("EXPLAIN d cwa {text}"));
            assert!(line.contains(" rules=0 "), "{text}: {line}");
        }
    }

    #[test]
    fn evals_and_batches_share_the_catalog_entrys_derived_state() {
        let state = state();
        state.load("d0", d0());
        let entry = state.catalog().entry("d0").expect("loaded");
        assert!(
            !entry.is_interned() && !entry.is_core_known(),
            "LOAD derives nothing"
        );
        // Four minimal-CWA EVALs on a core: every query is a certified
        // WorksOverCores cell, answered from the entry's one core bit and one
        // interned form.
        let texts = [
            "forall u . exists v . D(u, v)",
            "forall u . exists v . D(u, v) & D(v, u)",
            "forall u v . D(u, v) -> exists w . D(v, w)",
            "forall u v . D(u, v) -> D(v, u)",
        ];
        let mut first = None;
        for text in texts {
            let response = state
                .eval("d0", Semantics::MinimalCwa, text)
                .expect("served");
            assert_eq!(response.plan, PlanKind::Compiled, "{text}");
            assert!(entry.is_interned() && entry.is_core_known());
            // Later requests on the same version reuse both.
            let interned: *const _ = entry.interned();
            assert!(std::ptr::eq(*first.get_or_insert(interned), interned));
        }
        // A re-LOAD starts the new version from nothing.
        state.load("d0", d0());
        let fresh = state.catalog().entry("d0").expect("reloaded");
        assert!(!fresh.is_interned() && !fresh.is_core_known());
    }

    #[test]
    fn interning_and_the_core_check_show_in_the_trace_that_pays_for_them() {
        let state = state();
        let load = "LOAD d0 D(?1,?2);D(?2,?1)";
        let trace = "TRACE d0 minimal-cwa forall u . exists v . D(u, v)";
        assert_eq!(state.handle_line(load), "OK loaded d0 facts=2");
        // The first request on a version interns it and decides its core
        // bit; the second finds both and shows neither.
        let first = state.handle_line(trace);
        assert!(first.contains("intern:"), "{first}");
        assert!(first.contains("core_check:"), "{first}");
        let second = state.handle_line(trace);
        assert!(!second.contains("intern:"), "{second}");
        assert!(!second.contains("core_check:"), "{second}");
        // A re-LOAD starts a new version, which pays for both again.
        state.handle_line(load);
        let third = state.handle_line(trace);
        assert!(third.contains("intern:"), "{third}");
        assert!(third.contains("core_check:"), "{third}");
        let metrics = state.handle_line("METRICS");
        assert!(
            metrics.contains("nev_stage_latency_us_count{stage=\"intern\"} 2\n"),
            "{metrics}"
        );
        assert!(
            metrics.contains("nev_stage_latency_us_count{stage=\"core_check\"} 2\n"),
            "{metrics}"
        );
    }

    #[test]
    fn stage_counts_follow_the_phases_run_not_the_clock() {
        let state = state();
        let facts = "R(1,2);R(2,3);R(3,?1);S(2)";
        state.handle_line(&format!("LOAD d {facts}"));
        let entry = state.catalog().entry("d").expect("loaded");
        let script = [
            ("owa", "Q(x, y) :- exists z . R(x, z) & R(z, y)"),
            ("owa", "Q(x) :- S(x)"),
            ("cwa", "Q(x, y) :- exists z . R(x, z) & R(z, y)"),
            // Scans of a relation the instance lacks: they finish well inside
            // a microsecond, and still ran.
            ("owa", "Q(x) :- T(x)"),
            ("cwa", "Q(x) :- T(x)"),
            // Compiler-rejected: the interpreter runs, no executor phase does.
            ("wcwa", "forall u v w t . R(u, v) & R(w, t)"),
        ];
        // Per compiled pass, each of scan / join build / join probe that the
        // plan ran counts once, however fast it was.
        let mut expected = [0u64; 3];
        for (semantics, text) in script {
            let response = state.handle_line(&format!("EVAL d {semantics} {text}"));
            let prepared = PreparedQuery::parse(text).expect("valid query");
            let Some(compiled) = prepared.compiled() else {
                assert!(response.starts_with("OK plan=certified"), "{response}");
                continue;
            };
            assert!(response.starts_with("OK plan=compiled"), "{response}");
            let t = compiled
                .execute(entry.interned(), &nev_exec::RunOptions::naive())
                .timings;
            for (count, runs) in expected
                .iter_mut()
                .zip([t.scans, t.join_builds, t.join_probes])
            {
                *count += u64::from(runs > 0);
            }
        }
        assert_eq!(expected, [5, 2, 2], "five compiled passes, two with a join");
        let recorded = [Stage::Scan, Stage::JoinBuild, Stage::JoinProbe]
            .map(|stage| state.metrics().stage_snapshot(stage).count);
        assert_eq!(recorded, expected);
    }

    /// The `worlds` counter a `STATS` line reports.
    fn stats_worlds(line: &str) -> u64 {
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix("worlds="))
            .and_then(|v| v.parse().ok())
            .expect("a worlds= field")
    }

    #[test]
    fn replayed_oracle_requests_count_the_same_worlds() {
        let requests = [
            ("EVAL", "forall u . exists v . D(u, v)"),
            ("EVAL", "exists u . !D(u, u)"),
            ("PROFILE", "exists u . !D(u, u)"),
        ];
        // The worlds the reference oracle enumerates for each request.
        let engine = CertainEngine::new();
        let expected: Vec<u64> = requests
            .iter()
            .map(|(_, text)| {
                let query = engine.prepare(text).expect("valid query");
                engine
                    .compare(&d0(), Semantics::Owa, &query)
                    .worlds_enumerated as u64
            })
            .collect();
        for replay in 0..50 {
            let state = state();
            state.load("d0", d0());
            let mut before = stats_worlds(&state.handle_line("STATS"));
            let steps: Vec<u64> = requests
                .iter()
                .map(|(command, text)| {
                    let response = state.handle_line(&format!("{command} d0 owa {text}"));
                    assert!(response.contains("plan=oracle"), "{response}");
                    let after = stats_worlds(&state.handle_line("STATS"));
                    let step = after - before;
                    before = after;
                    step
                })
                .collect();
            assert_eq!(steps, expected, "replay {replay}");
            for ((_, text), &worlds) in requests.iter().zip(&expected) {
                let (_, evaluation) = state
                    .dispatch("d0", Semantics::Owa, text, &DispatchOptions::default())
                    .expect("served");
                assert_eq!(evaluation.worlds_enumerated as u64, worlds, "{text}");
            }
        }
    }

    #[test]
    fn preparation_stage_counts_follow_the_cache_misses_not_the_clock() {
        let state = state();
        state.handle_line("LOAD d R(1,2);R(2,?1);S(2)");
        for line in [
            "EVAL d owa Q(x) :- S(x)",
            "EVAL d owa Q(x) :- S(x)",
            "EVAL d cwa Q(x, y) :- exists z . R(x, z) & R(z, y)",
            "EVAL d owa Q(x) :- T(x)",
            "TRACE d owa Q(x) :- T(x)",
            "EVAL d wcwa forall u v w t . R(u, v) & R(w, t)",
        ] {
            assert!(state.handle_line(line).starts_with("OK "), "{line}");
        }
        // Every miss classified, compiled and normalized its query, however
        // fast; every hit prepared nothing.
        let misses = stat(&state, "cache_misses");
        assert_eq!(misses, 4, "two repeated texts hit the cache");
        let recorded = [Stage::Classify, Stage::Optimize, Stage::Normalize]
            .map(|stage| state.metrics().stage_snapshot(stage).count);
        assert_eq!(recorded, [misses; 3]);
        // Every probe, hit or miss, parsed its text.
        assert_eq!(state.metrics().stage_snapshot(Stage::Parse).count, 6);
    }

    #[test]
    fn symbolic_dispatch_retires_the_oracle_and_shows_on_the_wire() {
        let state = state();
        // A broken chain: Pos × OWA carries no Figure 1 guarantee, but the
        // Kleene/naïve sandwich closes on "certainly false" — zero worlds.
        state.load("chain", inst! { "R" => [[c(1), x(1)]] });
        let eval = state.handle_line("EVAL chain owa forall u . exists v . R(u, v)");
        assert_eq!(eval, "OK plan=symbolic certain={}");
        let explain = state.handle_line("EXPLAIN chain owa forall u . exists v . R(u, v)");
        assert!(explain.starts_with("OK dispatch=symbolic"), "{explain}");
        assert_eq!(
            stat(&state, "symbolic"),
            1,
            "EXPLAIN probes but does not evaluate"
        );
        assert_eq!(stat(&state, "sandwich_exact"), 1);
        assert_eq!(stat(&state, "oracle"), 0);
        assert_eq!(
            stat(&state, "worlds"),
            0,
            "the oracle was retired for this request"
        );
        let stats = state.handle_line("STATS");
        assert!(stats.contains("symbolic=1"), "{stats}");
        assert!(stats.contains("sandwich_exact=1"), "{stats}");
        assert!(stats.contains("truncated=0"), "{stats}");
    }

    #[test]
    fn analyze_round_trips_and_normalized_dispatch_shows_on_the_wire() {
        let state = state();
        state.load("d0", d0());
        // `¬¬∃uv D(u,v)` classifies FO (no CWA guarantee), but its normal form
        // is ∃Pos — ANALYZE reports the widening and the upgraded dispatch.
        let line = state.handle_line("ANALYZE d0 cwa !(!(exists u v . D(u, v)))");
        assert!(line.starts_with("OK analysis fragment=FO"), "{line}");
        assert!(line.contains("normalized_fragment=∃Pos"), "{line}");
        assert!(line.contains("widened=true"), "{line}");
        assert!(line.contains("dispatch=normalized"), "{line}");
        assert!(line.contains("certificate=ok"), "{line}");
        assert!(line.contains("nullability=-"), "{line}");
        assert!(line.contains("diagnostics=[widened(FO→∃Pos)]"), "{line}");
        assert!(!line.contains('\n'), "ANALYZE is a one-liner: {line}");
        // ANALYZE executed nothing, but it counted.
        assert_eq!(stat(&state, "analyzed"), 1);
        assert_eq!(stat(&state, "evals"), 0);
        // EVAL on the same query answers by the certified normalized pass —
        // byte-identical to the raw ∃Pos query's answer, zero worlds.
        let eval = state.handle_line("EVAL d0 cwa !(!(exists u v . D(u, v)))");
        assert_eq!(eval, "OK plan=normalized certain={()}");
        let plain = state.handle_line("EVAL d0 cwa exists u v . D(u, v)");
        assert_eq!(plain, "OK plan=compiled certain={()}");
        assert_eq!(stat(&state, "normalized_upgrades"), 1);
        assert_eq!(stat(&state, "worlds"), 0, "no worlds were enumerated");
        // An unchanged query reports an empty trace and no widening.
        let noop = state.handle_line("ANALYZE d0 cwa exists u v . D(u, v)");
        assert!(noop.contains("steps=0"), "{noop}");
        assert!(noop.contains("widened=false"), "{noop}");
        assert!(noop.contains("diagnostics=[]"), "{noop}");
        // A statically-false query is diagnosed and counted as a prune.
        let pruned = state.handle_line("ANALYZE d0 cwa exists u . D(u, u) & !D(u, u)");
        assert!(pruned.contains("statically-false"), "{pruned}");
        assert!(stat(&state, "static_prunes") >= 1, "{pruned}");
        // The STATS line carries all three analyzer counters.
        let stats = state.handle_line("STATS");
        assert!(stats.contains("analyzed=3"), "{stats}");
        assert!(stats.contains("normalized_upgrades=1"), "{stats}");
        assert!(stats.contains("static_prunes="), "{stats}");
        // Unknown instances are typed errors, exactly like EVAL.
        assert!(state
            .handle_line("ANALYZE nope owa exists u . D(u, u)")
            .starts_with("ERR unknown instance"));
    }

    #[test]
    fn truncated_oracle_verdicts_are_flagged_on_the_wire() {
        let state = ServeState::new(ServeConfig {
            bounds: WorldBounds {
                max_worlds: 4,
                ..WorldBounds::default()
            },
            ..ServeConfig::default()
        });
        state.load("nulls", inst! { "R" => [[x(1)], [x(2)], [x(3)]] });
        // FO × WCWA, sandwich open (naïvely true, Kleene unknown on the absent
        // S), and every sampled world satisfies the sentence: the capped
        // stream is exhausted and the verdict must carry the flag.
        let line = state.handle_line("EVAL nulls wcwa exists u . R(u) & !S(u)");
        assert_eq!(line, "OK plan=oracle certain={()} truncated=true");
        assert_eq!(stat(&state, "truncated"), 1);
    }

    #[test]
    fn stats_carries_the_request_latency_digest() {
        let state = state();
        state.load("d0", d0());
        let before = state.render_stats();
        assert!(before.contains(" uptime_us="), "{before}");
        assert!(before.contains(" p50_us=0"), "{before}");
        assert!(before.contains(" p95_us=0"), "{before}");
        assert!(before.contains(" p99_us=0"), "{before}");
        state
            .eval("d0", Semantics::Cwa, "exists u v . D(u, v)")
            .unwrap();
        let after = state.render_stats();
        let digit = |prefix: &str| -> u64 {
            after
                .split_whitespace()
                .find_map(|tok| tok.strip_prefix(prefix))
                .unwrap_or_else(|| panic!("{prefix} token in {after}"))
                .parse()
                .unwrap()
        };
        assert!(digit("p50_us=") > 0, "one eval recorded: {after}");
        // One sample: every percentile reads the same bucket.
        assert!(digit("p95_us=") >= digit("p50_us="), "{after}");
        assert!(digit("p99_us=") >= digit("p95_us="), "{after}");
    }

    #[test]
    fn profile_annotates_every_operator_of_a_compiled_plan() {
        let state = state();
        state.load("d0", d0());
        // A certified compiled cell with a join: the profile must carry the
        // join group, its scans, and the pairwise fold with estimates.
        let line = state.handle_line("PROFILE d0 cwa exists u v . D(u, v) & D(v, u)");
        assert!(
            line.starts_with("OK profile plan=compiled certain={()} exec_us="),
            "{line}"
        );
        assert!(line.contains(" ops=["), "{line}");
        assert!(line.contains("Scan D("), "{line}");
        assert!(line.contains("HashJoin["), "{line}");
        assert!(line.contains("est="), "{line}");
        assert!(!line.contains('\n'), "PROFILE is a one-liner: {line}");
        // PROFILE is a real evaluation: it counts and feeds the histograms.
        assert_eq!(stat(&state, "evals"), 1);
        assert_eq!(stat(&state, "compiled"), 1);
        assert_eq!(state.metrics().snapshot().latency().count, 1);
        // The answer is byte-identical to EVAL's.
        let eval = state.handle_line("EVAL d0 cwa exists u v . D(u, v) & D(v, u)");
        assert_eq!(eval, "OK plan=compiled certain={()}");
    }

    #[test]
    fn profile_annotates_the_normal_form_on_normalized_dispatches() {
        let state = state();
        state.load("d0", d0());
        // ¬¬∃ is FO as written but ∃Pos once normalized: the normal form's
        // compiled plan is the pass that ran, so it is the one annotated.
        let line = state.handle_line("PROFILE d0 owa !!exists u v . D(u, v)");
        assert!(
            line.starts_with("OK profile plan=normalized certain={()} exec_us="),
            "{line}"
        );
        assert!(line.contains(" ops=["), "{line}");
        assert!(line.contains("Scan D("), "{line}");
        assert!(!line.contains("compiled=false"), "{line}");
        assert_eq!(
            state.handle_line("EVAL d0 owa !!exists u v . D(u, v)"),
            "OK plan=normalized certain={()}"
        );
    }

    #[test]
    fn profile_reports_compiled_false_on_uncompiled_dispatches() {
        let state = state();
        state.load("d0", d0());
        // An oracle cell: PROFILE still answers (real dispatch), but there is
        // no operator pipeline to annotate.
        let oracle = state.handle_line("PROFILE d0 owa exists u . !D(u, u)");
        assert!(
            oracle.starts_with("OK profile plan=oracle certain="),
            "{oracle}"
        );
        assert!(oracle.ends_with("compiled=false"), "{oracle}");
        assert!(!oracle.contains("ops=["), "{oracle}");
        // An interpreter-fallback certified cell reports the same flag, plus
        // the compiler's rejection so the operator can see *why* there is no
        // pipeline (the bare `compiled=false` used to be indistinguishable
        // from the symbolic/oracle case).
        let fallback = state.handle_line("PROFILE d0 wcwa forall u v w t . D(u, v) & D(w, t)");
        assert!(
            fallback.starts_with("OK profile plan=certified certain="),
            "{fallback}"
        );
        assert!(
            fallback.ends_with("compiled=false reason=complement_too_wide(columns=4,limit=3)"),
            "{fallback}"
        );
        assert_eq!(stat(&state, "evals"), 2);
        // Unknown instances stay typed errors.
        assert!(state
            .handle_line("PROFILE nope owa exists u . D(u, u)")
            .starts_with("ERR unknown instance"));
    }

    #[test]
    fn top_renders_trailing_window_rates() {
        let state = state();
        state.load("d0", d0());
        state.handle_line("EVAL d0 cwa exists u v . D(u, v)");
        let top = state.handle_line("TOP");
        assert!(top.starts_with("OK top uptime_us="), "{top}");
        for window in ["1s", "10s", "60s"] {
            assert!(top.contains(&format!(" qps_{window}=")), "{top}");
            assert!(top.contains(&format!(" err_{window}=")), "{top}");
            assert!(top.contains(&format!(" p95_us_{window}=")), "{top}");
        }
        assert!(top.contains(" evals=1 "), "{top}");
        assert!(!top.contains('\n'), "TOP is a one-liner: {top}");
    }

    #[test]
    fn metrics_reset_zeroes_windows_but_never_lifetime_counters() {
        let state = state();
        state.load("d0", d0());
        state.handle_line("EVAL d0 cwa exists u v . D(u, v)");
        assert_eq!(state.metrics().slow_queries().len(), 1);
        let evals_before = stat(&state, "evals");
        let totals_before = state.metrics().snapshot().latency().count;
        assert_eq!(state.handle_line("METRICS RESET"), "OK metrics reset");
        // The slow log and the window baselines are gone...
        assert!(state.metrics().slow_queries().is_empty());
        let metrics = state.metrics();
        let delta = metrics.series().window(&metrics.snapshot(), 60_000_000);
        assert_eq!(delta.evals, 0, "windows restart at the reset baseline");
        // ...while every lifetime quantity survives.
        assert_eq!(stat(&state, "evals"), evals_before);
        assert_eq!(state.metrics().snapshot().latency().count, totals_before);
    }

    #[test]
    fn metrics_exposition_validates_and_reconciles_with_evals() {
        let state = state();
        state.load("d0", d0());
        for (text, semantics) in [
            ("exists u v . D(u, v) & D(v, u)", Semantics::Cwa),
            ("forall u . exists v . D(u, v)", Semantics::Owa),
            ("exists u . !D(u, u)", Semantics::Owa),
            ("exists u v . D(u, v) & D(v, u)", Semantics::Cwa),
        ] {
            state.eval("d0", semantics, text).expect("served");
        }
        let exposition = state.render_metrics();
        let lines: Vec<String> = exposition.lines().map(str::to_string).collect();
        nev_obs::validate_exposition(&lines).expect("grammar-valid exposition");
        assert_eq!(lines.last().map(String::as_str), Some("# EOF"));
        // Every request lands in exactly one per-plan histogram, and `evals`
        // and the dispatch counters are read off those same counts.
        assert_eq!(state.metrics().snapshot().latency().count, 4);
        assert_eq!(stat(&state, "evals"), 4);
        let dispatched: u64 = ["certified", "normalized_upgrades", "symbolic", "oracle"]
            .iter()
            .map(|name| stat(&state, name))
            .sum();
        assert_eq!(dispatched, 4);
        assert!(
            exposition.contains("nev_evals_total 4"),
            "counter block present:\n{exposition}"
        );
        // The trailing-window gauges ride the same exposition.
        assert!(
            exposition.contains("nev_window_evals{window=\"1s\"}"),
            "window gauges present:\n{exposition}"
        );
        assert!(
            exposition.contains("nev_window_plan_p95_us{window=\"60s\",plan=\"compiled\"}"),
            "per-plan window gauges present:\n{exposition}"
        );
    }

    #[test]
    fn trace_command_runs_a_real_eval_and_renders_a_stage_timeline() {
        let state = state();
        state.load("d0", d0());
        let line = state.handle_line("TRACE d0 cwa exists u v . D(u, v) & D(v, u)");
        assert!(
            line.starts_with("OK trace plan=compiled total_us="),
            "{line}"
        );
        assert!(line.contains(" dropped=0 "), "{line}");
        assert!(!line.contains('\n'), "TRACE is a one-liner: {line}");
        assert!(line.contains("exec:"), "{line}");
        // Depth-0 stage durations can never exceed the request total.
        let total: u64 = line
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix("total_us="))
            .unwrap()
            .parse()
            .unwrap();
        let trace = state
            .eval_with_trace("d0", Semantics::Cwa, "exists u v . D(u, v) & D(v, u)")
            .unwrap()
            .1;
        assert!(trace.top_level_us() <= trace.total_us().max(total));
        // TRACE is an eval: it counts, and it feeds the same histograms.
        assert!(stat(&state, "evals") >= 1);
        assert!(state.metrics().snapshot().latency().count >= 1);
    }

    #[test]
    fn slow_query_log_captures_the_worst_requests() {
        let state = state();
        state.load("d0", d0());
        state
            .eval("d0", Semantics::Owa, "exists u . !D(u, u)")
            .unwrap();
        let slow = state.metrics().slow_queries();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].plan, "oracle");
        assert_eq!(slow[0].semantics, "OWA");
        assert!(slow[0].query.contains('D'), "{:?}", slow[0]);
        let exposition = state.render_metrics();
        assert!(exposition.contains("# slow_query "), "{exposition}");
    }

    #[test]
    fn worlds_histogram_sums_to_the_stats_worlds() {
        let state = state();
        state.load("d0", d0());
        for text in ["exists u . !D(u, u)", "forall u . exists v . D(u, v)"] {
            state.handle_line(&format!("EVAL d0 owa {text}"));
        }
        state.handle_line("EVAL d0 cwa exists u v . D(u, v)"); // no oracle
        let worlds = stat(&state, "worlds");
        assert!(worlds > 0);
        let exposition = state.render_metrics();
        let sample = |name: &str| -> u64 {
            exposition
                .lines()
                .find_map(|l| l.strip_prefix(&format!("{name} ")))
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} in {exposition}"))
        };
        assert_eq!(sample("nev_oracle_worlds_sum"), worlds);
        assert_eq!(sample("nev_oracle_worlds_count"), stat(&state, "oracle"));
        assert_eq!(sample("nev_worlds_total"), worlds);
    }

    #[test]
    fn metrics_over_the_wire_is_the_sole_multiline_response() {
        let state = state();
        state.load("d0", d0());
        state.handle_line("EVAL d0 cwa exists u v . D(u, v)");
        let response = state.handle_line("METRICS");
        assert!(response.starts_with("OK metrics\n"), "{response}");
        assert!(response.ends_with("# EOF"), "{response}");
        let body: Vec<String> = response.lines().skip(1).map(str::to_string).collect();
        nev_obs::validate_exposition(&body).expect("wire body validates");
        assert!(state.handle_line("METRICS please").starts_with("ERR"));
    }
}
