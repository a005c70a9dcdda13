//! The shared service state: catalog + plan cache + worker pool + engine, and the
//! request handlers (`LOAD` / `PREPARE` / `EVAL` / `EXPLAIN` / `ANALYZE` /
//! `PROFILE` / `STATS` / `TOP` / `METRICS`) built on them.
//!
//! One [`ServeState`] is shared (behind an `Arc`) by every connection thread of a
//! [`crate::server::Server`] and by in-process callers (benchmarks, tests, the
//! load generator's reference run). It is `Send + Sync` by construction: the
//! catalog hands out immutable snapshots, the cache hands out `Arc`s, the pool is
//! its own synchronisation, and the engine is immutable configuration.
//!
//! Figure 1 dispatch is the engine's ([`CertainEngine::dispatch`]); the handlers
//! resolve the snapshot and the cached plan, call it, and render its
//! [`Evaluation`]. Two evaluation paths exist:
//!
//! * [`ServeState::eval`] — one request: the engine carries this state's pool, so
//!   a cell the symbolic ladder leaves open runs the **parallel oracle** (the
//!   world stream chunked across the pool with early-exit cancellation);
//! * [`ServeState::eval_batch`] — many requests: requests are grouped by (instance,
//!   semantics), each group's distinct queries are folded into **one shared world
//!   pass** (`CertainEngine::evaluate_all`), and the groups run in parallel across
//!   the pool. Repeated queries hit the plan cache and duplicate (query, instance,
//!   semantics) triples are answered by a single evaluation.
//!
//! Both paths bump the `STATS` dispatch counters from the returned evaluations
//! through one function.

use std::collections::BTreeSet;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

pub use nev_core::engine::PlanKind;
use nev_core::engine::{
    CertainEngine, DispatchOptions, EngineError, Evaluation, PreparedQuery, SymbolicTechnique,
};
use nev_core::{Semantics, WorldBounds};
use nev_incomplete::{Instance, Tuple};
use nev_obs::timeseries::render_window_gauges;
use nev_obs::{
    MetricsRegistry, SlowQuery, Stage, TimeSeries, Timer, Trace, TraceRecorder, WindowSample,
};
use nev_runtime::env_workers;

use crate::cache::{CachedPlan, PlanCache};
use crate::catalog::Catalog;
use crate::pool::WorkerPool;
use crate::stats::{ServeStats, StatsSnapshot};
use crate::wire::{self, Command};

/// Configuration of a service instance.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Background worker threads (callers help, so `0` is sequential).
    pub workers: usize,
    /// Plan-cache capacity in distinct queries.
    pub cache_capacity: usize,
    /// World-enumeration bounds used by every evaluation.
    pub bounds: WorldBounds,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            // Thread counts are configured in exactly one place: NEV_WORKERS
            // (when set) sizes the shared pool for the request path and the
            // parallel oracle alike.
            workers: env_workers().unwrap_or(4),
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

/// One `EVAL` request, as consumed by [`ServeState::eval_batch`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EvalRequest {
    /// Catalog name of the instance.
    pub instance: String,
    /// Semantics to evaluate under.
    pub semantics: Semantics,
    /// Query text.
    pub query: String,
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
    pool: Arc<WorkerPool>,
    stats: ServeStats,
    metrics: MetricsRegistry,
    series: TimeSeries,
}

impl ServeState {
    /// Builds a service from its configuration. The worker pool is **shared**:
    /// the same threads serve batched requests and parallel-oracle world
    /// chunks (the engine holds an `Arc` of the pool).
    pub fn new(config: ServeConfig) -> Self {
        let pool = Arc::new(WorkerPool::new(config.workers));
        let engine = CertainEngine::with_bounds(config.bounds).with_pool(Arc::clone(&pool));
        ServeState {
            engine,
            catalog: Catalog::new(),
            cache: PlanCache::new(config.cache_capacity),
            pool,
            stats: ServeStats::new(),
            metrics: MetricsRegistry::new(PLAN_LABELS, SLOW_LOG_CAPACITY),
            series: TimeSeries::new(),
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

    /// The worker pool.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// The underlying engine (bounds included).
    pub fn engine(&self) -> &CertainEngine {
        &self.engine
    }

    /// The service counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// The latency/trace metrics registry behind `METRICS` and the `STATS`
    /// percentile tokens.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The windowed time-series ring behind `TOP` and the `nev_window_*`
    /// gauges of `METRICS`.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// The current monotone telemetry as a [`WindowSample`] — the "now" end
    /// of every trailing-window subtraction, timestamped on the metrics
    /// registry's uptime clock.
    pub fn window_sample(&self) -> WindowSample {
        let snap = self.stats.snapshot();
        WindowSample {
            at_us: self.metrics.uptime_us(),
            requests: snap.requests,
            evals: snap.evals,
            errors: snap.errors,
            plans: self.metrics.plan_snapshots(),
        }
    }

    /// Lazy sampling on the request path: offers the current counters to the
    /// time-series ring when the previous sample is old enough. Cheap when
    /// not due (one lock, one clock read).
    fn maybe_sample(&self) {
        if self.series.due(self.metrics.uptime_us()) {
            self.series.record(self.window_sample());
        }
    }

    /// Registers (or replaces) a named instance; returns `true` on replacement.
    pub fn load(&self, name: impl Into<String>, instance: Instance) -> bool {
        ServeStats::bump(&self.stats.loads);
        self.catalog.register(name, instance).is_some()
    }

    /// Parses, classifies and compiles a query into the plan cache.
    pub fn prepare(&self, text: &str) -> Result<Arc<PreparedQuery>, ServeError> {
        ServeStats::bump(&self.stats.prepares);
        Ok(self.cache.prepare_all(text)?)
    }

    /// Resolves the named snapshot and the cached plan — recording the cache
    /// probe, with the preparation phases of a miss as children, when
    /// `options` traces — and runs the engine's Figure 1 dispatch.
    fn dispatch(
        &self,
        name: &str,
        semantics: Semantics,
        query_text: &str,
        options: &DispatchOptions<'_>,
    ) -> Result<(CachedPlan, Evaluation), ServeError> {
        let instance = self
            .catalog
            .get(name)
            .ok_or_else(|| ServeError::UnknownInstance(name.to_string()))?;
        let probe = options
            .trace
            .map(|recorder| recorder.span(Stage::CacheProbe));
        let (plan, hit) = self
            .cache
            .get_or_prepare_with_status(query_text, semantics)?;
        if let Some(recorder) = options.trace.filter(|r| !hit && r.is_enabled()) {
            // A miss paid the full preparation inside the probe span; replay
            // its phases as children. Hits skip this — their preparation
            // happened on some earlier request.
            let prep = plan.prepared.prep_timings();
            for (stage, us) in [
                (Stage::Parse, prep.parse_us),
                (Stage::Classify, prep.classify_us),
                (Stage::Optimize, prep.compile_us),
            ] {
                if us > 0 {
                    recorder.leaf(stage, us);
                }
            }
        }
        drop(probe);
        let evaluation = self
            .engine
            .dispatch(&instance, semantics, &plan.prepared, options);
        Ok((plan, evaluation))
    }

    /// One evaluating request (`EVAL`, `TRACE`, `PROFILE`): the dispatch, its
    /// `STATS` counters, and one sample in the per-plan latency histogram, so
    /// histogram counts reconcile with `evals`. Returns the latency too.
    fn evaluate(
        &self,
        name: &str,
        semantics: Semantics,
        query_text: &str,
        options: &DispatchOptions<'_>,
    ) -> Result<(CachedPlan, Evaluation, u64), ServeError> {
        let total = Timer::start_always();
        let (plan, evaluation) = self.dispatch(name, semantics, query_text, options)?;
        self.record(&plan.prepared, &evaluation);
        ServeStats::add(&self.stats.worlds, evaluation.worlds_enumerated as u64);
        ServeStats::bump(&self.stats.evals);
        let latency = total.elapsed_us();
        self.metrics.observe_plan(evaluation.plan.label(), latency);
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
        ServeStats::bump(&self.stats.explains);
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
        ServeStats::bump(&self.stats.analyzed);
        if analysis.static_truth().is_some() {
            ServeStats::bump(&self.stats.static_prunes);
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
    /// the chunked **parallel oracle**. The certain answers are identical to
    /// `CertainEngine::evaluate` on the same inputs — only the oracle's
    /// schedule differs.
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
    /// miss), the engine's exec pass, the symbolic probe, and the parallel
    /// oracle — and is also what feeds the metrics registry: the per-plan
    /// latency histogram records exactly once per successful request, so
    /// histogram counts reconcile with the `evals` counter; the per-stage
    /// histograms and the slow-query log absorb the finished trace.
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

    /// Bumps the `STATS` dispatch counters for one evaluation — shared by the
    /// solo and batch paths. World counts are the caller's: a batch's shared
    /// pass is counted once, not once per query drawing on it.
    fn record(&self, prepared: &PreparedQuery, evaluation: &Evaluation) {
        let stats = &self.stats;
        if prepared.analysis().static_truth().is_some() {
            // The normal form is ⊤/⊥: whatever the dispatch, the exec layer's
            // empty-annihilation rules answer without scanning data.
            ServeStats::bump(&stats.static_prunes);
        }
        let counter = match evaluation.plan.kind() {
            PlanKind::Compiled => {
                ServeStats::bump(&stats.compiled);
                &stats.certified
            }
            PlanKind::Certified => &stats.certified,
            PlanKind::Normalized => &stats.normalized_upgrades,
            PlanKind::Symbolic => &stats.symbolic,
            PlanKind::Oracle => &stats.oracle,
        };
        ServeStats::bump(counter);
        if evaluation
            .plan
            .symbolic_certificate()
            .is_some_and(|c| c.technique == SymbolicTechnique::Sandwich)
        {
            ServeStats::bump(&stats.sandwich_exact);
        }
        if evaluation.exited_early() {
            ServeStats::bump(&stats.oracle_cancelled);
        }
        if evaluation.truncated {
            ServeStats::bump(&stats.truncated);
        }
    }

    /// Answers a batch of `EVAL` requests, amortising across them:
    ///
    /// * the plan cache prepares each distinct query text once;
    /// * requests are grouped by (instance, semantics) and each group's distinct
    ///   queries share **one** bounded world pass (`CertainEngine::evaluate_all`);
    /// * groups execute in parallel on the worker pool.
    ///
    /// Responses come back in request order. Note the engine's documented batching
    /// caveat: the shared pass runs under the union of the group's query constants,
    /// so a request's answer coincides with its solo [`ServeState::eval`] answer
    /// whenever the grouped queries mention the same constants (in particular, no
    /// constants at all) or the world cap does not truncate.
    pub fn eval_batch(&self, requests: &[EvalRequest]) -> Vec<Result<EvalResponse, ServeError>> {
        // Resolve instances + plans up front: each request becomes a (group,
        // query-in-group) slot, each group one (instance, semantics) pair with
        // its distinct queries.
        let mut groups: Vec<(Arc<Instance>, Semantics, Vec<Arc<PreparedQuery>>)> = Vec::new();
        let mut group_index: HashMap<(String, Semantics), usize> = HashMap::new();
        let mut query_index: HashMap<(usize, String), usize> = HashMap::new();
        let slots: Vec<Result<(usize, usize), ServeError>> = requests
            .iter()
            .map(|request| {
                let instance = self
                    .catalog
                    .get(&request.instance)
                    .ok_or_else(|| ServeError::UnknownInstance(request.instance.clone()))?;
                let plan = self
                    .cache
                    .get_or_prepare(&request.query, request.semantics)?;
                let key = (request.instance.clone(), request.semantics);
                let gi = *group_index.entry(key).or_insert_with(|| {
                    groups.push((instance, request.semantics, Vec::new()));
                    groups.len() - 1
                });
                // Dedup on the same canonical rendering the cache keys on, so
                // spelling variants collapse to one evaluation too. The Arc from
                // the cache is batched as-is: evaluate_all takes queries by
                // Borrow, so no plan is deep-cloned.
                let queries = &mut groups[gi].2;
                let key = (gi, plan.prepared.query().to_string());
                let qi = *query_index.entry(key).or_insert_with(|| {
                    queries.push(plan.prepared);
                    queries.len() - 1
                });
                Ok((gi, qi))
            })
            .collect();

        // One pool task per group: a single shared world pass for its queries.
        let engine = self.engine.clone();
        let batch_results = self
            .pool
            .run(groups, move |_, (instance, semantics, queries)| {
                let group_timer = Timer::start_always();
                let batch = engine.evaluate_all(&instance, semantics, &queries);
                (queries, batch, group_timer.elapsed_us())
            });

        // Telemetry parity with the solo path: per evaluation actually performed
        // (one per unique query of each group), plus the shared-pass world counts.
        let responses: Vec<(Vec<EvalResponse>, u64)> = batch_results
            .into_iter()
            .map(|(queries, batch, group_us)| {
                ServeStats::add(&self.stats.worlds, batch.worlds_enumerated as u64);
                let group = queries
                    .iter()
                    .zip(batch.results)
                    .map(|(query, evaluation)| {
                        self.record(query, &evaluation);
                        EvalResponse::of(evaluation)
                    })
                    .collect();
                (group, group_us)
            })
            .collect();

        slots
            .into_iter()
            .map(|slot| match slot {
                Ok((gi, qi)) => {
                    ServeStats::bump(&self.stats.evals);
                    let response = responses[gi].0[qi].clone();
                    // One histogram sample per answered request, so histogram
                    // counts stay reconcilable with `evals`. Batched requests
                    // are attributed their group's shared-pass wall time (the
                    // latency the slowest request of the group experienced).
                    self.metrics
                        .observe_plan(response.plan.label(), responses[gi].1);
                    Ok(response)
                }
                Err(e) => {
                    ServeStats::bump(&self.stats.errors);
                    Err(e)
                }
            })
            .collect()
    }

    /// The `STATS` counters (the cache/catalog gauges are appended by
    /// [`ServeState::render_stats`]).
    pub fn snapshot(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// The canonical `STATS` payload: the counter block, the cache/catalog/pool
    /// gauges, and the request-latency digest (`uptime_us=` / `p50_us=` /
    /// `p95_us=` / `p99_us=` over all dispatch kinds; zeros before the first
    /// `EVAL`).
    pub fn render_stats(&self) -> String {
        let latency = self.metrics.request_totals();
        format!(
            "{} cache_hits={} cache_misses={} cache_evictions={} cache_entries={} \
             instances={} pool_workers={} uptime_us={} p50_us={} p95_us={} p99_us={}",
            self.stats.snapshot(),
            self.cache.hits(),
            self.cache.misses(),
            self.cache.evictions(),
            self.cache.len(),
            self.catalog.len(),
            self.pool.workers(),
            self.metrics.uptime_us(),
            latency.p50(),
            latency.p95(),
            latency.p99()
        )
    }

    /// The `TOP` one-liner: lifetime totals plus, per trailing window
    /// ([`nev_obs::WINDOWS`]), eval throughput, error rate and interpolated
    /// latency percentiles — everything `nevtop` needs for its header in one
    /// cheap request. Rates are computed against the window's **actual**
    /// elapsed span, so a young server reports honest since-boot rates.
    pub fn render_top(&self) -> String {
        use std::fmt::Write;
        let current = self.window_sample();
        let windows = self.series.windows(&current);
        let mut out = format!(
            "top uptime_us={} requests={} evals={} errors={}",
            current.at_us, current.requests, current.evals, current.errors
        );
        for (label, delta) in &windows {
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

    /// The `METRICS RESET` action: empties the slow-query log and re-baselines
    /// the time-series ring at the current counters, so trailing windows
    /// restart from zero. Lifetime counters and histograms are deliberately
    /// untouched — every reconciliation invariant (per-plan histogram counts
    /// summing to `evals`) survives a reset.
    pub fn metrics_reset(&self) {
        self.metrics.reset_slow();
        self.series.reset(self.window_sample());
    }

    /// The full `METRICS` exposition: every `STATS` counter and gauge, the
    /// per-plan request-latency and per-stage histograms, the worker pool's
    /// queue-wait/run split, the trailing-window `nev_window_*` gauges, and
    /// the slow-query log — Prometheus-style text ending with a `# EOF` line
    /// (see [`nev_obs::validate_exposition`]).
    pub fn render_metrics(&self) -> String {
        let snap = self.snapshot();
        let counters = [
            ("requests", snap.requests),
            ("loads", snap.loads),
            ("prepares", snap.prepares),
            ("evals", snap.evals),
            ("explains", snap.explains),
            ("errors", snap.errors),
            ("certified", snap.certified),
            ("compiled", snap.compiled),
            ("oracle", snap.oracle),
            ("worlds", snap.worlds),
            ("oracle_cancelled", snap.oracle_cancelled),
            ("symbolic", snap.symbolic),
            ("sandwich_exact", snap.sandwich_exact),
            ("truncated", snap.truncated),
            ("analyzed", snap.analyzed),
            ("normalized_upgrades", snap.normalized_upgrades),
            ("static_prunes", snap.static_prunes),
            ("cache_hits", self.cache.hits()),
            ("cache_misses", self.cache.misses()),
            ("cache_evictions", self.cache.evictions()),
        ];
        let gauges = [
            ("cache_entries", self.cache.len() as u64),
            ("instances", self.catalog.len() as u64),
            ("pool_workers", self.pool.workers() as u64),
        ];
        let pool = self.pool.metrics();
        let extra = [
            ("pool_queue_wait_us", pool.queue_wait.snapshot()),
            ("pool_task_run_us", pool.task_run.snapshot()),
        ];
        let mut appendix = String::new();
        render_window_gauges(&self.series.windows(&self.window_sample()), &mut appendix);
        self.metrics
            .expose_with(&counters, &gauges, &extra, &appendix)
    }

    /// Handles one protocol line, returning the response line (always exactly one
    /// line, `OK …` or `ERR …`). `QUIT` returns `OK bye`; closing the connection is
    /// the server loop's business.
    pub fn handle_line(&self, line: &str) -> String {
        ServeStats::bump(&self.stats.requests);
        let response = match self.handle_command(line) {
            Ok(payload) => format!("OK {payload}"),
            Err(e) => {
                ServeStats::bump(&self.stats.errors);
                format!("ERR {e}")
            }
        };
        // Lazy time-series sampling rides the request path (no ticker
        // thread): after the command so the sample sees its effects.
        self.maybe_sample();
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
                let semantics: Semantics = semantics
                    .parse()
                    .map_err(|_| ServeError::UnknownSemantics(semantics))?;
                let response = self.eval(&name, semantics, &query)?;
                Ok(response.render())
            }
            Command::Explain {
                name,
                semantics,
                query,
            } => {
                let semantics: Semantics = semantics
                    .parse()
                    .map_err(|_| ServeError::UnknownSemantics(semantics))?;
                self.explain(&name, semantics, &query)
            }
            Command::Analyze {
                name,
                semantics,
                query,
            } => {
                let semantics: Semantics = semantics
                    .parse()
                    .map_err(|_| ServeError::UnknownSemantics(semantics))?;
                self.analyze(&name, semantics, &query)
            }
            Command::Trace {
                name,
                semantics,
                query,
            } => {
                let semantics: Semantics = semantics
                    .parse()
                    .map_err(|_| ServeError::UnknownSemantics(semantics))?;
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
                let semantics: Semantics = semantics
                    .parse()
                    .map_err(|_| ServeError::UnknownSemantics(semantics))?;
                self.profile(&name, semantics, &query)
            }
            Command::Stats => Ok(self.render_stats()),
            Command::Metrics => {
                // The sole multi-line payload: `OK metrics`, then the
                // exposition, whose final line is the `# EOF` terminator.
                Ok(format!("metrics\n{}", self.render_metrics().trim_end()))
            }
            Command::MetricsReset => {
                self.metrics_reset();
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

    fn state(workers: usize) -> ServeState {
        ServeState::new(ServeConfig {
            workers,
            ..ServeConfig::default()
        })
    }

    fn d0() -> Instance {
        inst! { "D" => [[x(1), x(2)], [x(2), x(1)]] }
    }

    #[test]
    fn eval_matches_the_in_process_engine_on_both_paths() {
        let state = state(2);
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
        let snap = state.snapshot();
        assert_eq!(snap.evals, 3);
        assert_eq!(snap.certified, 1);
        assert_eq!(snap.oracle, 2);
        assert!(snap.worlds > 0);
    }

    #[test]
    fn unknown_names_and_semantics_are_typed_errors() {
        let state = state(0);
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
        assert_eq!(state.snapshot().errors, 2);
    }

    #[test]
    fn protocol_round_trip_session() {
        let state = state(1);
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
        assert!(stats.contains("pool_workers=1"), "{stats}");
        assert_eq!(state.handle_line("QUIT"), "OK bye");
    }

    #[test]
    fn explain_exposes_the_optimised_plan_over_the_protocol() {
        let state = state(0);
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
        assert_eq!(state.snapshot().explains, 2);
        assert_eq!(state.snapshot().evals, 0, "EXPLAIN executes nothing");
        // EXPLAIN warms the same plan cache EVAL uses.
        state.handle_line("EVAL d0 cwa exists u v . D(u, v)");
        assert!(state.cache().hits() >= 1);
    }

    #[test]
    fn eval_batch_amortises_and_preserves_request_order() {
        let state = state(3);
        state.load("d0", d0());
        state.load("loops", inst! { "D" => [[x(1), x(1)], [x(1), x(2)]] });
        let texts = [
            "exists u v . D(u, v) & D(v, u)",
            "forall u . exists v . D(u, v)",
            "exists u . !D(u, u)",
        ];
        // 18 requests: 3 queries × 2 instances × OWA/CWA, plus 6 duplicates.
        let mut requests = Vec::new();
        for name in ["d0", "loops"] {
            for semantics in [Semantics::Owa, Semantics::Cwa] {
                for text in texts {
                    requests.push(EvalRequest {
                        instance: name.into(),
                        semantics,
                        query: text.into(),
                    });
                }
            }
        }
        requests.extend(requests.clone().into_iter().take(6));
        let responses = state.eval_batch(&requests);
        assert_eq!(responses.len(), requests.len());
        // Every response matches the solo path (no constants ⇒ batching is exact),
        // and duplicates are byte-identical to their originals.
        for (request, response) in requests.iter().zip(&responses) {
            let response = response.as_ref().expect("batch request served");
            let solo = state
                .eval(&request.instance, request.semantics, &request.query)
                .expect("solo request served");
            assert_eq!(response.certain, solo.certain, "{request:?}");
            assert_eq!(response.plan, solo.plan, "{request:?}");
        }
        for (dup, original) in responses[18..].iter().zip(&responses[..6]) {
            assert_eq!(dup.as_ref().unwrap(), original.as_ref().unwrap());
        }
        // The distinct texts were prepared once each (per semantics row they hit).
        assert!(state.cache().misses() <= (texts.len() * 2) as u64);
    }

    #[test]
    fn symbolic_dispatch_retires_the_oracle_and_shows_on_the_wire() {
        let state = state(2);
        // A broken chain: Pos × OWA carries no Figure 1 guarantee, but the
        // Kleene/naïve sandwich closes on "certainly false" — zero worlds.
        state.load("chain", inst! { "R" => [[c(1), x(1)]] });
        let eval = state.handle_line("EVAL chain owa forall u . exists v . R(u, v)");
        assert_eq!(eval, "OK plan=symbolic certain={}");
        let explain = state.handle_line("EXPLAIN chain owa forall u . exists v . R(u, v)");
        assert!(explain.starts_with("OK dispatch=symbolic"), "{explain}");
        let snap = state.snapshot();
        assert_eq!(snap.symbolic, 1, "EXPLAIN probes but does not evaluate");
        assert_eq!(snap.sandwich_exact, 1);
        assert_eq!(snap.oracle, 0);
        assert_eq!(snap.worlds, 0, "the oracle was retired for this request");
        let stats = state.handle_line("STATS");
        assert!(stats.contains("symbolic=1"), "{stats}");
        assert!(stats.contains("sandwich_exact=1"), "{stats}");
        assert!(stats.contains("truncated=0"), "{stats}");
    }

    #[test]
    fn analyze_round_trips_and_normalized_dispatch_shows_on_the_wire() {
        let state = state(1);
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
        let snap = state.snapshot();
        assert_eq!(snap.analyzed, 1);
        assert_eq!(snap.evals, 0);
        // EVAL on the same query answers by the certified normalized pass —
        // byte-identical to the raw ∃Pos query's answer, zero worlds.
        let eval = state.handle_line("EVAL d0 cwa !(!(exists u v . D(u, v)))");
        assert_eq!(eval, "OK plan=normalized certain={()}");
        let plain = state.handle_line("EVAL d0 cwa exists u v . D(u, v)");
        assert_eq!(plain, "OK plan=compiled certain={()}");
        let snap = state.snapshot();
        assert_eq!(snap.normalized_upgrades, 1);
        assert_eq!(snap.worlds, 0, "no worlds were enumerated");
        // An unchanged query reports an empty trace and no widening.
        let noop = state.handle_line("ANALYZE d0 cwa exists u v . D(u, v)");
        assert!(noop.contains("steps=0"), "{noop}");
        assert!(noop.contains("widened=false"), "{noop}");
        assert!(noop.contains("diagnostics=[]"), "{noop}");
        // A statically-false query is diagnosed and counted as a prune.
        let pruned = state.handle_line("ANALYZE d0 cwa exists u . D(u, u) & !D(u, u)");
        assert!(pruned.contains("statically-false"), "{pruned}");
        assert!(state.snapshot().static_prunes >= 1, "{pruned}");
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
            workers: 1,
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
        assert_eq!(state.snapshot().truncated, 1);
        // The same verdict through the batch path carries the same flag.
        let responses = state.eval_batch(&[EvalRequest {
            instance: "nulls".into(),
            semantics: Semantics::Wcwa,
            query: "exists u . R(u) & !S(u)".into(),
        }]);
        let response = responses[0].as_ref().expect("served");
        assert!(response.truncated);
        assert_eq!(response.render(), "plan=oracle certain={()} truncated=true");
        assert_eq!(state.snapshot().truncated, 2);
    }

    #[test]
    fn eval_batch_reports_per_request_errors_in_place() {
        let state = state(1);
        state.load("d0", d0());
        let requests = [
            EvalRequest {
                instance: "missing".into(),
                semantics: Semantics::Owa,
                query: "exists u . D(u, u)".into(),
            },
            EvalRequest {
                instance: "d0".into(),
                semantics: Semantics::Owa,
                query: "exists u . D(u, u)".into(),
            },
        ];
        let responses = state.eval_batch(&requests);
        assert!(matches!(responses[0], Err(ServeError::UnknownInstance(_))));
        assert!(responses[1].is_ok());
    }

    #[test]
    fn stats_carries_the_request_latency_digest() {
        let state = state(0);
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
        let state = state(0);
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
        let snap = state.snapshot();
        assert_eq!(snap.evals, 1);
        assert_eq!(snap.compiled, 1);
        assert_eq!(state.metrics().request_totals().count, 1);
        // The answer is byte-identical to EVAL's.
        let eval = state.handle_line("EVAL d0 cwa exists u v . D(u, v) & D(v, u)");
        assert_eq!(eval, "OK plan=compiled certain={()}");
    }

    #[test]
    fn profile_annotates_the_normal_form_on_normalized_dispatches() {
        let state = state(1);
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
        let state = state(1);
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
        assert_eq!(state.snapshot().evals, 2);
        // Unknown instances stay typed errors.
        assert!(state
            .handle_line("PROFILE nope owa exists u . D(u, u)")
            .starts_with("ERR unknown instance"));
    }

    #[test]
    fn top_renders_trailing_window_rates() {
        let state = state(1);
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
        let state = state(0);
        state.load("d0", d0());
        state.handle_line("EVAL d0 cwa exists u v . D(u, v)");
        assert_eq!(state.metrics().slow_queries().len(), 1);
        let evals_before = state.snapshot().evals;
        let totals_before = state.metrics().request_totals().count;
        assert_eq!(state.handle_line("METRICS RESET"), "OK metrics reset");
        // The slow log and the window baselines are gone...
        assert!(state.metrics().slow_queries().is_empty());
        let delta = state.series().window(&state.window_sample(), 60_000_000);
        assert_eq!(delta.evals, 0, "windows restart at the reset baseline");
        // ...while every lifetime quantity survives.
        assert_eq!(state.snapshot().evals, evals_before);
        assert_eq!(state.metrics().request_totals().count, totals_before);
    }

    #[test]
    fn metrics_exposition_validates_and_reconciles_with_evals() {
        let state = state(2);
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
        // Every request lands in exactly one per-plan histogram: the totals
        // must reconcile exactly with the `evals` counter.
        let totals = state.metrics().request_totals();
        assert_eq!(totals.count, state.snapshot().evals);
        let per_plan: u64 = state
            .metrics()
            .plan_snapshots()
            .iter()
            .map(|(_, snap)| snap.count)
            .sum();
        assert_eq!(per_plan, state.snapshot().evals);
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
        let state = state(1);
        state.load("d0", d0());
        let line = state.handle_line("TRACE d0 cwa exists u v . D(u, v) & D(v, u)");
        assert!(
            line.starts_with("OK trace plan=compiled total_us="),
            "{line}"
        );
        assert!(line.contains(" dropped=0 "), "{line}");
        assert!(!line.contains('\n'), "TRACE is a one-liner: {line}");
        if nev_obs::enabled() {
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
        } else {
            assert!(line.ends_with("spans=-"), "{line}");
        }
        // TRACE is an eval: it counts, and it feeds the same histograms.
        assert!(state.snapshot().evals >= 1);
        assert!(state.metrics().request_totals().count >= 1);
    }

    #[test]
    fn slow_query_log_captures_the_worst_requests() {
        let state = state(0);
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
    fn metrics_over_the_wire_is_the_sole_multiline_response() {
        let state = state(1);
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
