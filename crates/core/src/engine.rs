//! `CertainEngine` — the plan-then-execute query-evaluation API (Figure 1 as a
//! dispatch table).
//!
//! The rest of `nev-core` *validates* the paper's central result — naïve evaluation
//! computes certain answers exactly when the query's fragment is preserved under the
//! semantics' homomorphisms. This module *operationalises* it:
//!
//! 1. a [`PreparedQuery`] parses, classifies **and compiles** a query once
//!    (fragment, constants, arity, and — when the `nev-exec` compiler accepts its
//!    shape — a physical relational-algebra plan) instead of re-deriving them per
//!    call;
//! 2. [`CertainEngine::dispatch`] decides Figure 1 — in one place. On a cell
//!    the machine-readable Figure 1 ([`crate::summary::expectation`])
//!    guarantees, for the query as written or for its `nev-analyze` normal
//!    form, it answers by one polynomial naïve pass ([`EvalPlan::Naive`]),
//!    whose [`Certificate`] names the justifying theorem and the executor (the
//!    compiled `nev-exec` pipeline when the query has a plan, the tree-walking
//!    interpreter otherwise). Elsewhere it climbs the PTIME symbolic ladder
//!    ([`EvalPlan::Symbolic`]) and only then runs the bounded world oracle
//!    ([`EvalPlan::BoundedEnumeration`]). Every other entry point —
//!    [`CertainEngine::evaluate`], [`CertainEngine::plan_with_symbolic`],
//!    [`CertainEngine::evaluate_symbolic`] and the `nev-serve` request
//!    handlers — is a thin caller of it;
//! 3. the oracle ([`crate::oracle`]) streams worlds from the lazy
//!    [`Semantics::worlds`] iterator with early exit (a Boolean query stops at
//!    the first counter-world, a k-ary intersection stops when it becomes
//!    empty), in one sequential pass per query whose verdict and world count
//!    are the same on every run; each per-world evaluation routes through the
//!    compiled plan when one exists.
//!
//! Every [`Evaluation`] carries an [`ExecStats`] counter block (rows scanned, hash
//! probes, interpreter fallbacks) next to its `worlds_enumerated` count, so
//! callers can see *how* an answer was produced.
//!
//! This engine **is** the evaluation API (the legacy free functions of
//! [`crate::certain`] were removed once every caller migrated). The per-world
//! primitive the oracle is built from — [`PreparedQuery::answers_in_world`] —
//! is public, so external schedulers can reassemble the exact same
//! certain-answer intersection.
//!
//! ```
//! use nev_core::engine::CertainEngine;
//! use nev_core::Semantics;
//! use nev_incomplete::builder::{c, x};
//! use nev_incomplete::inst;
//!
//! // The paper's introduction: R = {(1,⊥1),(⊥2,⊥3)}, S = {(⊥1,4),(⊥3,5)}.
//! let d = inst! {
//!     "R" => [[c(1), x(1)], [x(2), x(3)]],
//!     "S" => [[x(1), c(4)], [x(3), c(5)]],
//! };
//! let engine = CertainEngine::new();
//! let q = engine.prepare("Q(x, y) :- exists z . R(x, z) & S(z, y)")?;
//!
//! // A union of conjunctive queries under OWA: Figure 1 certifies naïve evaluation,
//! // so no possible world is ever enumerated — and the join pipeline compiles, so
//! // the pass runs on the nev-exec hash-join executor, not the interpreter.
//! let eval = engine.evaluate(&d, Semantics::Owa, &q);
//! assert!(eval.plan.is_compiled());
//! assert_eq!(eval.worlds_enumerated, 0);
//! assert_eq!(eval.certain.len(), 1);
//! assert!(eval.exec.hash_probes > 0);
//! assert_eq!(eval.exec.fallbacks, 0);
//! # Ok::<(), nev_core::engine::EngineError>(())
//! ```

use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::fmt;

use nev_analyze::{CheckError, QueryAnalysis};
use nev_exec::{
    CompileError, CompiledQuery, CompilerConfig, ExecStats, InternedInstance, OpProfile, RunOptions,
};
use nev_incomplete::{Constant, Instance, Tuple};
use nev_logic::eval::{evaluate_boolean, evaluate_query, naive_eval_query};
use nev_logic::fragment::classify;
use nev_logic::parser::ParseError;
use nev_logic::query::QueryError;
use nev_logic::{parse_query, Fragment, Query};
use nev_obs::{Stage, Timer, Trace, TraceRecorder};
use nev_symbolic::{complete_candidates, cwa_certain_answers, under_approximation, EvalProfile};

use crate::oracle::{self, OracleOutcome};
use crate::semantics::{Semantics, WorldBounds};
use crate::snapshot::Snapshot;
use crate::summary::{expectation, Expectation};

/// Errors surfaced by the engine API (replacing the `assert!`-based panics of the
/// legacy free functions).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EngineError {
    /// The query text failed to parse.
    Parse(ParseError),
    /// The parsed formula was not a well-formed query (free-variable problems).
    Query(QueryError),
    /// A Boolean-only entry point was called with a k-ary query.
    NotBoolean {
        /// The arity of the offending query.
        arity: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse(e) => write!(f, "query parse error: {e}"),
            EngineError::Query(e) => write!(f, "ill-formed query: {e}"),
            EngineError::NotBoolean { arity } => {
                write!(f, "expected a Boolean query, got one of arity {arity}")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Parse(e) => Some(e),
            EngineError::Query(e) => Some(e),
            EngineError::NotBoolean { .. } => None,
        }
    }
}

impl From<ParseError> for EngineError {
    fn from(e: ParseError) -> Self {
        EngineError::Parse(e)
    }
}

impl From<QueryError> for EngineError {
    fn from(e: QueryError) -> Self {
        EngineError::Query(e)
    }
}

/// A query prepared for repeated evaluation: parsed and classified **once**, with the
/// fragment, the mentioned constants and the arity cached.
///
/// ```
/// use nev_core::engine::PreparedQuery;
/// use nev_logic::Fragment;
///
/// let q = PreparedQuery::parse("forall u . exists v . D(u, v)")?;
/// assert_eq!(q.fragment(), Fragment::Positive);
/// assert!(q.is_boolean());
/// # Ok::<(), nev_core::engine::EngineError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PreparedQuery {
    query: Query,
    fragment: Fragment,
    constants: BTreeSet<Constant>,
    compiled: Option<CompiledQuery>,
    compile_error: Option<CompileError>,
    analysis: QueryAnalysis,
    normalized_compiled: Option<CompiledQuery>,
    prep: PrepTimings,
}

/// Wall-clock telemetry for the three preparation stages of a [`PreparedQuery`]:
/// parse, classify and compile. `parse_us` is zero when the query was built from
/// an already-parsed [`Query`] (no parse stage).
///
/// Telemetry never participates in equality: two `PreparedQuery`s that prepared
/// the same query compare equal regardless of how long preparation took, so
/// plan-cache lookups and the differential suites stay timing-independent.
#[derive(Clone, Copy, Debug, Default)]
pub struct PrepTimings {
    /// Microseconds spent in `parse_query` (zero for pre-parsed queries).
    pub parse_us: u64,
    /// Microseconds spent classifying the formula into its Figure 1 fragment.
    pub classify_us: u64,
    /// Microseconds spent in the `nev-exec` compiler (including `nev-opt` rewrites).
    pub compile_us: u64,
    /// Microseconds spent in the `nev-analyze` static pass (normalization,
    /// re-classification, null-flow), including compiling the normal form when
    /// it differs.
    pub analyze_us: u64,
}

impl PartialEq for PrepTimings {
    fn eq(&self, _other: &Self) -> bool {
        true // telemetry is not part of a prepared query's identity
    }
}

impl Eq for PrepTimings {}

impl PreparedQuery {
    /// Prepares an already-built [`Query`]: classifies it into the smallest Figure 1
    /// fragment, caches its constants, and attempts to compile it into a `nev-exec`
    /// physical plan (kept as `None` when the compiler rejects the shape — every
    /// later evaluation then falls back to the tree-walking interpreter and records
    /// the fallback in [`ExecStats::fallbacks`]).
    pub fn new(query: Query) -> Self {
        PreparedQuery::with_compiler_config(query, &CompilerConfig::default())
    }

    /// Prepares a query under an explicit [`CompilerConfig`] — e.g. with
    /// `optimize: false` to pin the literal syntactic lowering as a baseline
    /// (the differential suite compares optimised against exactly this).
    pub fn with_compiler_config(query: Query, config: &CompilerConfig) -> Self {
        let classify_timer = Timer::start();
        let fragment = classify(query.formula());
        let constants = query.formula().constants();
        let classify_us = classify_timer.elapsed_us();
        let compile_timer = Timer::start();
        let (compiled, compile_error) = match CompiledQuery::compile_with(&query, config) {
            Ok(compiled) => (Some(compiled), None),
            Err(e) => (None, Some(e)),
        };
        let compile_us = compile_timer.elapsed_us();
        let analyze_timer = Timer::start();
        let analysis = QueryAnalysis::new(&query);
        // The normal form gets its own compiled plan when it differs: the
        // widened dispatch path runs *that* pass, and a shape the compiler
        // rejected as written (e.g. behind a wide `∀`) often compiles after
        // normalization.
        let normalized_compiled = if analysis.changed() {
            CompiledQuery::compile_with(analysis.normalized(), config).ok()
        } else {
            None
        };
        let prep = PrepTimings {
            parse_us: 0,
            classify_us,
            compile_us,
            analyze_us: analyze_timer.elapsed_us(),
        };
        PreparedQuery {
            query,
            fragment,
            constants,
            compiled,
            compile_error,
            analysis,
            normalized_compiled,
            prep,
        }
    }

    /// Parses and prepares a query from the text syntax of `nev-logic`.
    pub fn parse(text: &str) -> Result<Self, EngineError> {
        let parse_timer = Timer::start();
        let query = parse_query(text)?;
        let parse_us = parse_timer.elapsed_us();
        let mut prepared = PreparedQuery::new(query);
        prepared.prep.parse_us = parse_us;
        Ok(prepared)
    }

    /// Wall-clock telemetry for the parse/classify/compile preparation stages.
    /// Never part of equality.
    pub fn prep_timings(&self) -> PrepTimings {
        self.prep
    }

    /// The underlying query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The smallest Figure 1 fragment containing the query's formula.
    pub fn fragment(&self) -> Fragment {
        self.fragment
    }

    /// The constants mentioned by the query's formula.
    pub fn constants(&self) -> &BTreeSet<Constant> {
        &self.constants
    }

    /// The arity of the query (`0` for Boolean queries).
    pub fn arity(&self) -> usize {
        self.query.arity()
    }

    /// Returns `true` iff the query is Boolean.
    pub fn is_boolean(&self) -> bool {
        self.query.is_boolean()
    }

    /// The compiled physical plan, when the `nev-exec` compiler accepted the
    /// query's shape.
    pub fn compiled(&self) -> Option<&CompiledQuery> {
        self.compiled.as_ref()
    }

    /// Returns `true` iff the query has a compiled physical plan.
    pub fn compiles(&self) -> bool {
        self.compiled.is_some()
    }

    /// Why the compiler rejected the query's shape (`None` when it compiled).
    pub fn compile_error(&self) -> Option<&CompileError> {
        self.compile_error.as_ref()
    }

    /// The static analysis of this query: normal form, rewrite trace,
    /// re-classified fragment, diagnostics and null-flow typing.
    pub fn analysis(&self) -> &QueryAnalysis {
        &self.analysis
    }

    /// The Figure 1 fragment of the query's *normal form* (equal to
    /// [`PreparedQuery::fragment`] when normalization changed nothing).
    pub fn normalized_fragment(&self) -> Fragment {
        self.analysis.normalized_fragment()
    }

    /// Did normalization rewrite the formula at all?
    pub fn normalization_changed(&self) -> bool {
        self.analysis.changed()
    }

    /// Returns `true` iff the widened dispatch path would run on the compiled
    /// pipeline (the normal form's own plan, or the original's when the
    /// formula was already normal).
    pub fn normalized_compiles(&self) -> bool {
        self.pass(true).0.is_some()
    }

    /// Re-checks the static analysis behind any normalized-dispatch
    /// certificate: replays the rewrite trace and re-runs the classifier (see
    /// [`QueryAnalysis::check`]).
    pub fn check_normalization(&self) -> Result<(), CheckError> {
        self.analysis.check()
    }

    /// [`PreparedQuery::check_normalization`] plus a differential run of the
    /// original vs the normalized query on `d`.
    pub fn check_normalization_on(&self, d: &Instance) -> Result<(), CheckError> {
        self.analysis.check_on(d)
    }

    /// The `EXPLAIN` rendering of the compiled plan — both the logical lowering
    /// and the `nev-opt` rule-optimised plan the executor runs — or `None` when
    /// the compiler rejected the query's shape (interpreter fallback).
    pub fn explain(&self) -> Option<String> {
        self.compiled.as_ref().map(CompiledQuery::explain)
    }

    /// World-enumeration bounds extended with this query's constants, so that the
    /// enumeration is generic relative to them: the bounds of the oracle's
    /// [`crate::oracle::world_pass`]. [`crate::certain::bounds_for_query`], which
    /// the monotonicity checks of [`crate::monotone`] use, derives the same bounds
    /// from an unprepared query.
    pub fn bounds(&self, base: &WorldBounds) -> WorldBounds {
        base.extended_with(self.constants.iter().cloned())
    }

    /// The constants an answer tuple may mention on instance `d`: the instance's
    /// constants plus the query's own. Certain answers are restricted to this set —
    /// renaming any other constant yields another world where the tuple is not an
    /// answer — which keeps the bounded enumeration's internal fresh constants out
    /// of results. This is the `allowed` argument of
    /// [`PreparedQuery::answers_in_world`].
    pub fn allowed_constants(&self, d: &Instance) -> BTreeSet<Constant> {
        let mut allowed = d.constants();
        allowed.extend(self.constants.iter().cloned());
        allowed
    }

    /// The query's answers in one complete world, restricted to the `allowed`
    /// constants (Boolean queries use the `{()} / ∅` encoding — the answer set is
    /// non-empty iff the sentence holds in the world). Runs on the compiled plan
    /// when one exists, merging its counters into `exec`; an interpreter evaluation
    /// counts as one fallback.
    ///
    /// The bounded oracle is *exactly* the intersection of this set over a world
    /// stream — for Boolean and k-ary queries alike, since `{()} ∩ {()} = {()}` and
    /// any empty factor empties the product. Exposing the per-world step lets
    /// external callers compute the same certain answers over their own world
    /// streams.
    pub fn answers_in_world(
        &self,
        world: &Instance,
        allowed: &BTreeSet<Constant>,
        exec: &mut ExecStats,
    ) -> BTreeSet<Tuple> {
        let raw = match &self.compiled {
            Some(compiled) => {
                let out = compiled.execute(&InternedInstance::new(world), &RunOptions::default());
                exec.merge(&out.stats);
                out.answers
            }
            None => {
                exec.fallbacks += 1;
                if self.is_boolean() {
                    return boolean_answers(evaluate_boolean(world, self.query.formula()));
                }
                evaluate_query(world, &self.query)
            }
        };
        raw.into_iter()
            .filter(|t| t.constants().all(|c| allowed.contains(c)) && t.is_complete())
            .collect()
    }

    /// The plan and formula a naïve pass runs: the normal form's when
    /// `normalized` asks for it and normalization changed the formula, the
    /// query's own otherwise.
    fn pass(&self, normalized: bool) -> (Option<&CompiledQuery>, &Query) {
        if normalized && self.analysis.changed() {
            (
                self.normalized_compiled.as_ref(),
                self.analysis.normalized(),
            )
        } else {
            (self.compiled.as_ref(), &self.query)
        }
    }
}

impl fmt::Display for PreparedQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.query, self.fragment)
    }
}

/// Which engine executes the certified naïve evaluation pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Executor {
    /// The `nev-exec` compiled relational-algebra pipeline (interned codes, hash
    /// joins, set-at-a-time operators).
    CompiledAlgebra,
    /// The tree-walking active-domain interpreter of `nev-logic::eval`.
    Interpreter,
}

impl fmt::Display for Executor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Executor::CompiledAlgebra => write!(f, "nev-exec compiled algebra"),
            Executor::Interpreter => write!(f, "tree-walking interpreter"),
        }
    }
}

/// A machine-checkable justification for skipping world enumeration: the Figure 1
/// cell that guarantees naïve evaluation, the paper result behind it, and the
/// executor that will run the single naïve pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Certificate {
    /// The semantics of the cell.
    pub semantics: Semantics,
    /// The query fragment of the cell (the normal form's when `normalized`).
    pub fragment: Fragment,
    /// The guarantee Figure 1 records for the cell.
    pub expectation: Expectation,
    /// For `WorksOverCores` cells: the instance was verified to be a core, which is
    /// the side condition of the guarantee (Corollary 10.12).
    pub core_checked: bool,
    /// The paper result justifying the certified shortcut.
    pub theorem: &'static str,
    /// The engine executing the naïve pass this certificate authorises.
    pub executor: Executor,
    /// The query as *written* has no Figure 1 guarantee, but its `nev-analyze`
    /// normal form classifies into `fragment`, which has one: the naïve pass
    /// runs on the **normalized** query (semantics-preserving by construction —
    /// the rewrite trace is replayable via
    /// [`PreparedQuery::check_normalization`]).
    pub normalized: bool,
}

impl Certificate {
    /// Re-derives the certificate from the machine-readable Figure 1 and confirms the
    /// shortcut was justified: the cell really carries a guarantee, and the
    /// over-cores side condition was discharged where required.
    pub fn check(&self) -> bool {
        let cell = expectation(self.semantics, self.fragment);
        cell == self.expectation
            && match cell {
                Expectation::Works => true,
                Expectation::WorksOverCores => self.core_checked,
                Expectation::NotGuaranteed => false,
            }
    }
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} × {}: {}{} [executor: {}]",
            self.semantics,
            self.fragment,
            self.theorem,
            if self.core_checked {
                " [instance verified to be a core]"
            } else {
                ""
            },
            self.executor
        )
    }
}

/// The paper result behind each semantics' Figure 1 guarantee.
fn theorem_for(semantics: Semantics) -> &'static str {
    match semantics {
        Semantics::Owa => {
            "Theorem 4.8 + Corollary 4.9: ∃Pos is preserved under homomorphisms \
             (optimal by Libkin 2011)"
        }
        Semantics::Wcwa => "Theorem 5.2: Pos is preserved under onto homomorphisms",
        Semantics::Cwa => "Theorem 5.2: Pos+∀G is preserved under strong onto homomorphisms",
        Semantics::PowersetCwa => {
            "Proposition 7.4: ∃Pos+∀G_bool is preserved under unions of strong onto \
             homomorphisms"
        }
        Semantics::MinimalCwa => {
            "Corollary 10.12: Pos+∀G is naïvely evaluable over cores under ⟦ ⟧min_CWA"
        }
        Semantics::MinimalPowersetCwa => {
            "Corollary 10.12: ∃Pos+∀G_bool is naïvely evaluable over cores under ⦅ ⦆min_CWA"
        }
    }
}

/// Whether a symbolic answer is the exact certain-answer set or a sound subset.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SymbolicMode {
    /// The symbolic answers **are** the certain answers.
    Exact,
    /// The symbolic answers are a sound under-approximation: every returned
    /// tuple is certain, but certain tuples may be missing.
    UnderApprox,
}

impl fmt::Display for SymbolicMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymbolicMode::Exact => write!(f, "exact"),
            SymbolicMode::UnderApprox => write!(f, "under-approx"),
        }
    }
}

/// Which PTIME symbolic technique produced the answer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SymbolicTechnique {
    /// CWA conditional tables: per-candidate `=`/`≠` conditions whose validity
    /// decides certainty; exact when every surviving condition is
    /// equality-only ([`nev_symbolic::ctable`]).
    ConditionalTables,
    /// The sandwich: the Kleene under-approximation coincided with the naïve
    /// over-approximation, pinning the certain answers from both sides.
    Sandwich,
    /// Plain unknown-as-false Kleene evaluation, reported as an
    /// under-approximation without an exactness claim.
    Kleene,
}

impl fmt::Display for SymbolicTechnique {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymbolicTechnique::ConditionalTables => write!(f, "conditional tables"),
            SymbolicTechnique::Sandwich => write!(f, "sandwich"),
            SymbolicTechnique::Kleene => write!(f, "3-valued Kleene"),
        }
    }
}

/// A machine-checkable justification for answering a non-guaranteed Figure 1
/// cell without enumerating worlds: which PTIME technique ran and what it
/// proved (exactness or mere soundness).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SymbolicCertificate {
    /// The semantics of the cell.
    pub semantics: Semantics,
    /// The query fragment of the cell.
    pub fragment: Fragment,
    /// Exactness claim of the answer.
    pub mode: SymbolicMode,
    /// The technique that produced it.
    pub technique: SymbolicTechnique,
    /// For minimal-semantics sandwiches: the instance was verified to be a
    /// core, the side condition under which the naïve answers over-approximate
    /// the certain answers (the fresh-injective image is then a possible
    /// world).
    pub core_checked: bool,
}

impl SymbolicCertificate {
    /// Confirms the certificate's claims are internally consistent: exactness
    /// is only ever claimed by the techniques that can prove it, and the
    /// minimal-semantics sandwich carries its core side condition.
    pub fn check(&self) -> bool {
        match self.technique {
            SymbolicTechnique::ConditionalTables => {
                self.semantics == Semantics::Cwa && self.mode == SymbolicMode::Exact
            }
            SymbolicTechnique::Sandwich => {
                self.mode == SymbolicMode::Exact
                    && (!self.semantics.is_minimal() || self.core_checked)
            }
            SymbolicTechnique::Kleene => self.mode == SymbolicMode::UnderApprox,
        }
    }
}

impl fmt::Display for SymbolicCertificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} × {}: {} via {}{}",
            self.semantics,
            self.fragment,
            self.mode,
            self.technique,
            if self.core_checked {
                " [instance verified to be a core]"
            } else {
                ""
            }
        )
    }
}

/// The per-semantics soundness profile the Kleene evaluator runs under (see
/// `nev-symbolic`'s [`EvalProfile`] docs for the proofs): OWA closes nothing,
/// WCWA closes the domain, CWA closes both, and the powerset semantics close
/// atoms only — via renamed unification — because unions of valuation images
/// defeat domain closure. The minimal variants inherit their parent's profile
/// (minimal worlds are a subset of the parent's, so every ∀-world invariant
/// carries over).
pub fn symbolic_profile(semantics: Semantics) -> EvalProfile {
    match semantics {
        Semantics::Owa => EvalProfile::open_world(),
        Semantics::Wcwa => EvalProfile::weak_closed(),
        Semantics::Cwa | Semantics::MinimalCwa => EvalProfile::closed(),
        Semantics::PowersetCwa | Semantics::MinimalPowersetCwa => EvalProfile::powerset(),
    }
}

/// How the engine answers a query on a given instance and semantics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EvalPlan {
    /// Figure 1 guarantees naïve evaluation computes the certain answers —
    /// for the query as written, or for its normal form
    /// ([`Certificate::normalized`]): one naïve pass on the certificate's
    /// executor, no world enumeration.
    Naive(Certificate),
    /// No Figure 1 guarantee applies, but a PTIME symbolic technique settled the
    /// answer without enumerating a single world (see [`SymbolicCertificate`]).
    /// [`CertainEngine::plan`] never returns this statically — it is the
    /// evaluation-time upgrade of [`EvalPlan::BoundedEnumeration`] reported by
    /// [`CertainEngine::evaluate`] and [`CertainEngine::plan_with_symbolic`].
    Symbolic(SymbolicCertificate),
    /// No guarantee applies: intersect query answers over the bounded possible-world
    /// enumeration.
    BoundedEnumeration,
}

impl EvalPlan {
    /// Returns the certificate of a certified naïve plan. Symbolic plans carry
    /// a [`SymbolicCertificate`] instead — see [`EvalPlan::symbolic_certificate`].
    pub fn certificate(&self) -> Option<&Certificate> {
        match self {
            EvalPlan::Naive(cert) => Some(cert),
            EvalPlan::Symbolic(_) | EvalPlan::BoundedEnumeration => None,
        }
    }

    /// Returns the certificate of a symbolic plan.
    pub fn symbolic_certificate(&self) -> Option<&SymbolicCertificate> {
        match self {
            EvalPlan::Symbolic(cert) => Some(cert),
            _ => None,
        }
    }

    /// How the plan answers, as one of the five wire labels.
    pub fn kind(&self) -> PlanKind {
        match self {
            EvalPlan::Naive(cert) if cert.normalized => PlanKind::Normalized,
            EvalPlan::Naive(cert) if cert.executor == Executor::CompiledAlgebra => {
                PlanKind::Compiled
            }
            EvalPlan::Naive(_) => PlanKind::Certified,
            EvalPlan::Symbolic(_) => PlanKind::Symbolic,
            EvalPlan::BoundedEnumeration => PlanKind::Oracle,
        }
    }

    /// The wire label of [`EvalPlan::kind`]: `compiled`, `certified`,
    /// `normalized`, `symbolic` or `oracle`.
    pub fn label(&self) -> &'static str {
        self.kind().label()
    }

    /// Returns `true` for the certified naïve fast path (compiled,
    /// interpreted, or via the normalized formula). Symbolic plans answer
    /// without enumeration too, but by a different argument — test them with
    /// [`EvalPlan::is_symbolic`].
    pub fn is_certified(&self) -> bool {
        matches!(self, EvalPlan::Naive(_))
    }

    /// Returns `true` iff dispatch was upgraded by normalization-based
    /// fragment widening.
    pub fn is_normalized(&self) -> bool {
        self.kind() == PlanKind::Normalized
    }

    /// Returns `true` for the PTIME symbolic path.
    pub fn is_symbolic(&self) -> bool {
        matches!(self, EvalPlan::Symbolic(_))
    }

    /// Returns `true` iff the plan runs the query as written on the compiled
    /// `nev-exec` pipeline.
    pub fn is_compiled(&self) -> bool {
        self.kind() == PlanKind::Compiled
    }
}

/// How an evaluation was answered — the wire `plan=` token.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlanKind {
    /// Certified naïve pass on the compiled `nev-exec` pipeline.
    Compiled,
    /// Certified naïve pass on the tree-walking interpreter.
    Certified,
    /// Certified naïve pass on the **normal form**: the raw query had no
    /// Figure 1 guarantee, but static normalization landed it in a guaranteed
    /// fragment.
    Normalized,
    /// PTIME symbolic certificate (conditional tables or the sandwich) on a
    /// non-guaranteed cell — exact, zero worlds enumerated.
    Symbolic,
    /// Bounded possible-world oracle.
    Oracle,
}

impl PlanKind {
    /// The wire token.
    pub fn label(&self) -> &'static str {
        match self {
            PlanKind::Compiled => "compiled",
            PlanKind::Certified => "certified",
            PlanKind::Normalized => "normalized",
            PlanKind::Symbolic => "symbolic",
            PlanKind::Oracle => "oracle",
        }
    }
}

impl fmt::Display for PlanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The outcome of evaluating one prepared query on one instance.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Evaluation {
    /// The semantics used.
    pub semantics: Semantics,
    /// The plan the engine executed.
    pub plan: EvalPlan,
    /// The naïve answers `Q^C(D)`; for Boolean queries a singleton empty tuple
    /// encodes `true` and the empty set encodes `false`.
    pub naive: BTreeSet<Tuple>,
    /// The certain answers: equal to `naive` on the certified path, the bounded
    /// possible-world intersection otherwise.
    pub certain: BTreeSet<Tuple>,
    /// Number of possible worlds visited to produce this answer (`0` on the
    /// certified path).
    pub worlds_enumerated: usize,
    /// Whether the bounded oracle's world stream was cut off by
    /// [`WorldBounds::max_worlds`] *and* the verdict depended on exhausting it.
    /// A truncated answer is an over-approximation drawn from a world sample,
    /// not an exact oracle verdict. Early exits (a Boolean counter-world, an
    /// emptied k-ary intersection) are definitive regardless of the cap, and
    /// the certified and symbolic paths never enumerate, so those all report
    /// `false`.
    pub truncated: bool,
    /// Compiled-execution counters for this answer: rows scanned, hash probes,
    /// and the number of evaluations that fell back to the interpreter because
    /// the query has no compiled plan.
    pub exec: ExecStats,
    /// The per-request stage timeline (exec pass, symbolic probe, world
    /// enumeration, …), bounded by [`nev_obs::MAX_SPANS`]. Empty when the entry
    /// point ran under [`TraceRecorder::disabled`] or recorded none. Like
    /// [`nev_exec::ExecTimings`], traces never participate in equality — two
    /// evaluations that computed the same answers compare equal whatever their
    /// timelines — so the determinism suites hold with tracing on or off.
    pub trace: Trace,
    /// The per-operator profile of the naïve pass, when
    /// [`DispatchOptions::profile`] asked for one and the plan runs the query
    /// as written on the compiled pipeline ([`EvalPlan::is_compiled`]).
    pub profile: Option<OpProfile>,
}

impl Evaluation {
    /// An evaluation that enumerated no worlds.
    fn settled(
        semantics: Semantics,
        plan: EvalPlan,
        naive: BTreeSet<Tuple>,
        certain: BTreeSet<Tuple>,
        exec: ExecStats,
    ) -> Self {
        Evaluation {
            semantics,
            plan,
            naive,
            certain,
            worlds_enumerated: 0,
            truncated: false,
            exec,
            trace: Trace::default(),
            profile: None,
        }
    }

    /// Folds an oracle verdict into an evaluation planned for the oracle.
    fn resolve(&mut self, outcome: OracleOutcome) {
        self.certain = outcome.certain;
        self.worlds_enumerated = outcome.worlds_considered;
        self.truncated = outcome.truncated;
        self.exec.merge(&outcome.exec);
    }

    /// Returns `true` iff naïve evaluation agrees with the certain answers.
    pub fn agrees(&self) -> bool {
        self.naive == self.certain
    }

    /// Boolean decoding of the certain answers (`true` iff the empty tuple is
    /// certain). Meaningful for Boolean queries only.
    pub fn is_certainly_true(&self) -> bool {
        !self.certain.is_empty()
    }

    /// Returns `true` iff naïve evaluation produced an answer that is not certain.
    pub fn naive_overshoots(&self) -> bool {
        !self.naive.is_subset(&self.certain)
    }

    /// Returns `true` iff every naïve answer is certain but some certain answer is
    /// missed.
    pub fn naive_undershoots(&self) -> bool {
        self.naive.is_subset(&self.certain) && self.naive != self.certain
    }

    /// Returns `true` iff the oracle stopped on definitive evidence: some
    /// visited world emptied the intersection (for a Boolean query, a
    /// counter-world). This is the early exit that cancels the rest of the
    /// world stream.
    pub fn exited_early(&self) -> bool {
        self.worlds_enumerated > 0 && self.certain.is_empty()
    }
}

/// What one [`CertainEngine::dispatch`] records and how far it runs. The
/// default records nothing, profiles nothing and runs to a verdict.
#[derive(Clone, Copy, Default)]
pub struct DispatchOptions<'a> {
    /// The recorder the stage spans go to (`None`: no timeline).
    pub trace: Option<&'a TraceRecorder>,
    /// Profile the certified naïve pass per operator when it runs on a
    /// compiled plan — the query as written or its normal form (the wire
    /// `PROFILE` command).
    pub profile: bool,
    /// Stop before the oracle: an open symbolic ladder returns the
    /// [`EvalPlan::BoundedEnumeration`] plan with its naïve answers and no
    /// certain answers, having enumerated no world (`EXPLAIN`, `ANALYZE`,
    /// [`CertainEngine::evaluate_symbolic`] and
    /// [`CertainEngine::plan_with_symbolic`]).
    pub stop_before_oracle: bool,
}

impl DispatchOptions<'static> {
    /// Decide the plan, enumerating no world.
    pub const STOP_BEFORE_ORACLE: Self = DispatchOptions {
        trace: None,
        profile: false,
        stop_before_oracle: true,
    };
}

/// The reusable query-evaluation engine: world-enumeration bounds plus the Figure 1
/// dispatch table.
///
/// ```
/// use nev_core::engine::CertainEngine;
/// use nev_core::Semantics;
/// use nev_incomplete::builder::x;
/// use nev_incomplete::inst;
///
/// // D0 = {(⊥,⊥′),(⊥′,⊥)} and the §2.4 query ∀x∃y D(x,y): naïvely true, certain
/// // under CWA (certified, no enumeration), refuted by enumeration under OWA.
/// let d0 = inst! { "D" => [[x(1), x(2)], [x(2), x(1)]] };
/// let engine = CertainEngine::new();
/// let q = engine.prepare("forall u . exists v . D(u, v)")?;
/// assert_eq!(engine.certainly_true(&d0, Semantics::Cwa, &q)?, true);
/// assert_eq!(engine.certainly_true(&d0, Semantics::Owa, &q)?, false);
/// # Ok::<(), nev_core::engine::EngineError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct CertainEngine {
    bounds: WorldBounds,
}

impl CertainEngine {
    /// An engine with the default [`WorldBounds`].
    pub fn new() -> Self {
        CertainEngine::default()
    }

    /// An engine with explicit world-enumeration bounds.
    pub fn with_bounds(bounds: WorldBounds) -> Self {
        CertainEngine { bounds }
    }

    /// The engine's base world-enumeration bounds (query constants are added per
    /// query at evaluation time).
    pub fn bounds(&self) -> &WorldBounds {
        &self.bounds
    }

    /// Parses and prepares a query (convenience for [`PreparedQuery::parse`]).
    pub fn prepare(&self, text: &str) -> Result<PreparedQuery, EngineError> {
        PreparedQuery::parse(text)
    }

    /// Chooses the static evaluation plan for a query on an instance by
    /// consulting the machine-readable Figure 1: certified naïve evaluation
    /// exactly when the (semantics, fragment) cell carries a guarantee —
    /// unconditionally for `Works` cells, after verifying the instance is a
    /// core for `WorksOverCores` cells — for the query as written or, failing
    /// that, for its normal form; [`EvalPlan::BoundedEnumeration`] otherwise.
    pub fn plan(&self, d: &Instance, semantics: Semantics, query: &PreparedQuery) -> EvalPlan {
        self.certify(
            &Snapshot::new(d),
            semantics,
            query,
            &TraceRecorder::disabled(),
        )
        .map_or(EvalPlan::BoundedEnumeration, EvalPlan::Naive)
    }

    /// The Figure 1 certificate for the query as written, else for its normal
    /// form when that widens the fragment. The core check is the snapshot's,
    /// so it runs at most once per snapshot, timed on `recorder` when it does.
    fn certify<D: Borrow<Instance>>(
        &self,
        snapshot: &Snapshot<D>,
        semantics: Semantics,
        query: &PreparedQuery,
        recorder: &TraceRecorder,
    ) -> Option<Certificate> {
        let written = Some((query.fragment(), false, query.compiles()));
        let widened = query.analysis().widened().then(|| {
            (
                query.normalized_fragment(),
                true,
                query.normalized_compiles(),
            )
        });
        [written, widened]
            .into_iter()
            .flatten()
            .find_map(|(fragment, normalized, compiles)| {
                let cell = expectation(semantics, fragment);
                let core_checked = match cell {
                    Expectation::Works => false,
                    Expectation::WorksOverCores if snapshot.is_core_traced(recorder) => true,
                    _ => return None,
                };
                Some(Certificate {
                    semantics,
                    fragment,
                    expectation: cell,
                    core_checked,
                    theorem: theorem_for(semantics),
                    executor: if compiles {
                        Executor::CompiledAlgebra
                    } else {
                        Executor::Interpreter
                    },
                    normalized,
                })
            })
    }

    /// Figure 1 dispatch — the one function every evaluation entry point
    /// calls. A certified cell is answered by one naïve pass; elsewhere the
    /// PTIME symbolic ladder runs on the naïve answers, and only when it stays
    /// open the bounded oracle, one sequential world pass
    /// ([`oracle::world_pass`]).
    ///
    /// The instance comes as a [`Snapshot`], whose interned form and core bit
    /// are computed at most once and shared with every other evaluation of the
    /// same snapshot: a catalog entry pays for each once, however many
    /// requests it answers.
    pub fn dispatch<D: Borrow<Instance>>(
        &self,
        snapshot: &Snapshot<D>,
        semantics: Semantics,
        prepared: &PreparedQuery,
        options: &DispatchOptions<'_>,
    ) -> Evaluation {
        let disabled = TraceRecorder::disabled();
        let recorder = options.trace.unwrap_or(&disabled);
        if let Some(cert) = self.certify(snapshot, semantics, prepared, recorder) {
            let plan = EvalPlan::Naive(cert);
            let (naive, exec, profile) = self.naive_pass(
                snapshot,
                prepared,
                cert.normalized,
                options.profile,
                recorder,
            );
            let mut eval = Evaluation::settled(semantics, plan, naive.clone(), naive, exec);
            eval.profile = profile;
            return eval;
        }
        // The ladder starts from the naïve answers, so its span covers the
        // naïve pass too (recorded as a child exec span).
        let symbolic_span = recorder.span(Stage::Symbolic);
        let (naive, exec, _) = self.naive_pass(snapshot, prepared, false, false, recorder);
        let symbolic = self.symbolic_ladder(snapshot, semantics, prepared, &naive, recorder);
        drop(symbolic_span);
        if let Some((cert, certain)) = symbolic {
            return Evaluation::settled(semantics, EvalPlan::Symbolic(cert), naive, certain, exec);
        }
        let mut eval = Evaluation::settled(
            semantics,
            EvalPlan::BoundedEnumeration,
            naive,
            BTreeSet::new(),
            exec,
        );
        if !options.stop_before_oracle {
            let oracle_span = recorder.span(Stage::OracleWorlds);
            eval.resolve(oracle::world_pass(
                &self.bounds,
                snapshot.instance(),
                semantics,
                prepared,
            ));
            drop(oracle_span);
        }
        eval
    }

    /// Evaluates a query with plan dispatch (see [`CertainEngine::dispatch`]),
    /// recording the stage timeline into [`Evaluation::trace`].
    pub fn evaluate(
        &self,
        d: &Instance,
        semantics: Semantics,
        query: &PreparedQuery,
    ) -> Evaluation {
        let recorder = TraceRecorder::new();
        let options = DispatchOptions {
            trace: Some(&recorder),
            ..DispatchOptions::default()
        };
        let mut eval = self.dispatch(&Snapshot::new(d), semantics, query, &options);
        eval.trace = recorder.finish();
        eval
    }

    /// The evaluation when the PTIME symbolic ladder certifies the certain
    /// answers — with `worlds_enumerated == 0` and an [`EvalPlan::Symbolic`]
    /// plan — and `None` when the query would fall back to the bounded
    /// oracle. Certified Figure 1 cells also return `None`: naïve evaluation
    /// already answers them exactly without any symbolic machinery.
    pub fn evaluate_symbolic(
        &self,
        d: &Instance,
        semantics: Semantics,
        query: &PreparedQuery,
    ) -> Option<Evaluation> {
        let snapshot = Snapshot::new(d);
        Some(self.dispatch(
            &snapshot,
            semantics,
            query,
            &DispatchOptions::STOP_BEFORE_ORACLE,
        ))
        .filter(|eval| eval.plan.is_symbolic())
    }

    /// The unconditional Kleene under-approximation: every returned tuple is a
    /// certain answer under any semantics (sound for full FO), but certain
    /// tuples may be missing — the plan carries
    /// [`SymbolicMode::UnderApprox`] to say so. PTIME, zero worlds enumerated.
    pub fn symbolic_under_approximation(
        &self,
        d: &Instance,
        semantics: Semantics,
        query: &PreparedQuery,
    ) -> Evaluation {
        let (naive, exec) = self.naive_answers(d, query);
        let under = under_approximation(d, query.query(), symbolic_profile(semantics));
        let plan = EvalPlan::Symbolic(SymbolicCertificate {
            semantics,
            fragment: query.fragment(),
            mode: SymbolicMode::UnderApprox,
            technique: SymbolicTechnique::Kleene,
            core_checked: false,
        });
        Evaluation::settled(semantics, plan, naive, under, exec)
    }

    /// The plan [`CertainEngine::evaluate`] would report, without enumerating
    /// a world: [`CertainEngine::plan`] upgraded to [`EvalPlan::Symbolic`]
    /// when conditional tables or the sandwich certify the answer. Costs one
    /// naïve pass plus, on non-guaranteed cells, the symbolic evaluation.
    pub fn plan_with_symbolic(
        &self,
        d: &Instance,
        semantics: Semantics,
        query: &PreparedQuery,
    ) -> EvalPlan {
        let snapshot = Snapshot::new(d);
        self.dispatch(
            &snapshot,
            semantics,
            query,
            &DispatchOptions::STOP_BEFORE_ORACLE,
        )
        .plan
    }

    /// The symbolic ladder over an already-computed naïve pass: (1) under
    /// CWA, conditional tables — exact whenever the surviving conditions are
    /// equality-only; (2) the sandwich — the Kleene under-approximation `U`
    /// satisfies `U ⊆ certain`, and `certain ⊆ naive` whenever the
    /// fresh-injective image of `d` is a possible world (always, except under
    /// the minimal semantics off cores), so `U == naive` pins the certain
    /// answers exactly. Returns `None` when neither technique certifies.
    fn symbolic_ladder<D: Borrow<Instance>>(
        &self,
        snapshot: &Snapshot<D>,
        semantics: Semantics,
        query: &PreparedQuery,
        naive: &BTreeSet<Tuple>,
        recorder: &TraceRecorder,
    ) -> Option<(SymbolicCertificate, BTreeSet<Tuple>)> {
        let d = snapshot.instance();
        let certificate = |technique, core_checked| SymbolicCertificate {
            semantics,
            fragment: query.fragment(),
            mode: SymbolicMode::Exact,
            technique,
            core_checked,
        };
        if semantics == Semantics::Cwa {
            let report = cwa_certain_answers(d, query.query());
            if report.exact {
                let cert = certificate(SymbolicTechnique::ConditionalTables, false);
                return Some((cert, report.answers));
            }
        }
        let core_checked = semantics.is_minimal() && snapshot.is_core_traced(recorder);
        if semantics.is_minimal() && !core_checked {
            return None;
        }
        let under = under_approximation(d, query.query(), symbolic_profile(semantics));
        // Tighten the sandwich upper bound before comparing: a certain answer
        // must hold in every world, so it can contain no nulls, and
        // `under ⊆ certain ⊆ complete(naive)`. When null-flow analysis proves
        // every answer column null-safe the filter is a no-op and we skip the
        // extra pass.
        let candidates = if query.analysis().nullability().all_null_safe() {
            naive.clone()
        } else {
            complete_candidates(naive)
        };
        (under == candidates).then(|| {
            let cert = certificate(SymbolicTechnique::Sandwich, core_checked);
            (cert, candidates)
        })
    }

    /// Decides a Boolean query with plan dispatch. Returns
    /// [`EngineError::NotBoolean`] for k-ary queries instead of panicking.
    pub fn certainly_true(
        &self,
        d: &Instance,
        semantics: Semantics,
        query: &PreparedQuery,
    ) -> Result<bool, EngineError> {
        if !query.is_boolean() {
            return Err(EngineError::NotBoolean {
                arity: query.arity(),
            });
        }
        Ok(self.evaluate(d, semantics, query).is_certainly_true())
    }

    /// The naïve answers `Q^C(D)` of one prepared query (Boolean queries use
    /// the `{()} / ∅` encoding) — one compiled pass, or one recorded
    /// interpreter fallback when the query has no plan.
    pub fn naive_answers(
        &self,
        d: &Instance,
        query: &PreparedQuery,
    ) -> (BTreeSet<Tuple>, ExecStats) {
        self.naive_answers_traced(d, query, &TraceRecorder::disabled())
    }

    /// [`CertainEngine::naive_answers`] wrapped in a [`Stage::Exec`] span on the
    /// caller's recorder, with the executor's scan / join-build / join-probe
    /// phase timings replayed as child spans. A no-op recorder (tracing
    /// disabled) records nothing and adds no timing calls.
    pub fn naive_answers_traced(
        &self,
        d: &Instance,
        query: &PreparedQuery,
        recorder: &TraceRecorder,
    ) -> (BTreeSet<Tuple>, ExecStats) {
        let (naive, exec, _) = self.naive_pass(&Snapshot::new(d), query, false, false, recorder);
        (naive, exec)
    }

    /// The naïve answers of the query's `nev-analyze` *normal form* — the
    /// single pass behind a normalized [`Certificate`] — wrapped in a
    /// [`Stage::Exec`] span like [`CertainEngine::naive_answers_traced`].
    /// Every rewrite preserves naïve evaluation, so these are also the
    /// original query's naïve answers.
    pub fn normalized_naive_answers_traced(
        &self,
        d: &Instance,
        query: &PreparedQuery,
        recorder: &TraceRecorder,
    ) -> (BTreeSet<Tuple>, ExecStats) {
        let (naive, exec, _) = self.naive_pass(&Snapshot::new(d), query, true, false, recorder);
        (naive, exec)
    }

    /// The one naïve pass: over the normal form when `normalized`, on its
    /// compiled plan when it has one (optionally profiled) and the snapshot's
    /// interned form, else one interpreter fallback. Interning the snapshot,
    /// when this pass does it, and each executor phase that ran (scan, join
    /// build, join probe) are recorded as one leaf span each, however short.
    fn naive_pass<D: Borrow<Instance>>(
        &self,
        snapshot: &Snapshot<D>,
        query: &PreparedQuery,
        normalized: bool,
        profile: bool,
        recorder: &TraceRecorder,
    ) -> (BTreeSet<Tuple>, ExecStats, Option<OpProfile>) {
        let span = recorder.span(Stage::Exec);
        let (compiled, formula) = query.pass(normalized);
        let Some(compiled) = compiled else {
            let naive = naive_eval_query(snapshot.instance(), formula);
            return (naive, ExecStats::fallback(), None);
        };
        let interned = snapshot.interned_traced(recorder);
        let out = compiled.execute(
            interned,
            &RunOptions {
                naive: true,
                profile,
            },
        );
        let t = out.timings;
        for (stage, runs, us) in [
            (Stage::Scan, t.scans, t.scan_us),
            (Stage::JoinBuild, t.join_builds, t.join_build_us),
            (Stage::JoinProbe, t.join_probes, t.join_probe_us),
        ] {
            if runs > 0 {
                recorder.leaf(stage, us);
            }
        }
        drop(span);
        (out.answers, out.stats, out.profile)
    }

    /// Runs the ground-truth oracle unconditionally — naïve evaluation **and** the
    /// sequential bounded possible-world intersection — regardless of what Figure 1
    /// guarantees.
    ///
    /// This is the validation entry point: the Figure 1 harness uses it to *check*
    /// the theorems that [`CertainEngine::evaluate`] *assumes*.
    pub fn compare(&self, d: &Instance, semantics: Semantics, query: &PreparedQuery) -> Evaluation {
        let recorder = TraceRecorder::new();
        let (naive, exec) = self.naive_answers_traced(d, query, &recorder);
        let mut eval = Evaluation::settled(
            semantics,
            EvalPlan::BoundedEnumeration,
            naive,
            BTreeSet::new(),
            exec,
        );
        let oracle_span = recorder.span(Stage::OracleWorlds);
        eval.resolve(oracle::world_pass(&self.bounds, d, semantics, query));
        drop(oracle_span);
        eval.trace = recorder.finish();
        eval
    }

    /// The certain answers over the sequential bounded world enumeration (the
    /// oracle side of [`CertainEngine::compare`], without the naïve pass). For
    /// Boolean queries the singleton-empty-tuple encoding is used.
    pub fn certain_answers(
        &self,
        d: &Instance,
        semantics: Semantics,
        query: &PreparedQuery,
    ) -> BTreeSet<Tuple> {
        oracle::world_pass(&self.bounds, d, semantics, query).certain
    }
}

/// The `{()} / ∅` Boolean answer encoding used throughout the engine: `true` is the
/// singleton empty tuple, `false` the empty set.
pub fn boolean_answers(value: bool) -> BTreeSet<Tuple> {
    if value {
        [Tuple::new(Vec::new())].into_iter().collect()
    } else {
        BTreeSet::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::FRAGMENTS;
    use nev_incomplete::builder::{c, x};
    use nev_incomplete::inst;

    fn d0() -> Instance {
        inst! { "D" => [[x(1), x(2)], [x(2), x(1)]] }
    }

    #[test]
    fn prepare_caches_fragment_and_constants() {
        let engine = CertainEngine::new();
        let q = engine
            .prepare("exists u . R(u) & u = 5")
            .expect("valid query");
        assert_eq!(q.fragment(), Fragment::ExistentialPositive);
        assert_eq!(q.constants().len(), 1);
        assert!(q.is_boolean());
        let extended = q.bounds(&WorldBounds::default());
        assert_eq!(extended.extra_constants.len(), 1);
        assert!(q.to_string().contains("∃Pos"));
    }

    #[test]
    fn prepare_reports_parse_and_query_errors() {
        let engine = CertainEngine::new();
        let parse_err = engine.prepare("exists u . R(u").unwrap_err();
        assert!(matches!(parse_err, EngineError::Parse(_)));
        assert!(parse_err.to_string().contains("parse error"));
        // Free-variable problems surface through the parser's error path.
        let query_err = engine.prepare("Q(a) :- R(a, b)").unwrap_err();
        assert!(query_err.to_string().contains("not listed"));
        // Building directly from an ill-formed Query is reported as EngineError::Query.
        let raw = Query::new(["a"], nev_logic::parse_formula("R(a, b)").unwrap());
        assert!(matches!(
            raw.map_err(EngineError::from),
            Err(EngineError::Query(_))
        ));
    }

    #[test]
    fn plan_follows_figure_1_exactly() {
        // On a non-core instance the plan must be certified exactly on Works cells.
        let engine = CertainEngine::new();
        let d = inst! { "D" => [[x(1), x(1)], [x(1), x(2)]] };
        assert!(!nev_hom::is_core(&d));
        for semantics in Semantics::ALL {
            for fragment in FRAGMENTS {
                let query = match fragment {
                    Fragment::ExistentialPositive => "exists u v . D(u, v)",
                    Fragment::Positive => "forall u . exists v . D(u, v)",
                    Fragment::PositiveGuarded => "forall u v . D(u, v) -> exists w . D(v, w)",
                    // An unguarded ∃ wrapping a Boolean guard is outside Pos+∀G, so
                    // classify() cannot tie-break this one away from ∃Pos+∀G_bool.
                    Fragment::ExistentialPositiveBooleanGuarded => {
                        "exists u . D(u, u) & (forall v w . D(v, w) -> D(w, v))"
                    }
                    Fragment::FullFirstOrder => "exists u . !D(u, u)",
                };
                let prepared = engine.prepare(query).expect("valid query");
                assert_eq!(prepared.fragment(), fragment, "{query}");
                let plan = engine.plan(&d, semantics, &prepared);
                let expected = expectation(semantics, fragment) == Expectation::Works;
                assert_eq!(plan.is_certified(), expected, "{semantics} × {fragment}");
                if let Some(cert) = plan.certificate() {
                    assert!(cert.check(), "{semantics} × {fragment}");
                    assert!(!cert.theorem.is_empty());
                }
            }
        }
    }

    #[test]
    fn works_over_cores_cells_certify_on_cores_only() {
        let engine = CertainEngine::new();
        let q = engine.prepare("forall u . D(u, u)").expect("valid query");
        assert_eq!(q.fragment(), Fragment::Positive);
        // Off cores: bounded enumeration.
        let d = inst! { "D" => [[x(1), x(1)], [x(1), x(2)]] };
        assert!(!engine.plan(&d, Semantics::MinimalCwa, &q).is_certified());
        // On the core: certified with the core side condition recorded.
        let core = inst! { "D" => [[x(1), x(1)]] };
        let plan = engine.plan(&core, Semantics::MinimalCwa, &q);
        let cert = plan.certificate().expect("certified on cores");
        assert!(cert.core_checked);
        assert_eq!(cert.expectation, Expectation::WorksOverCores);
        assert!(cert.check());
        assert!(cert.to_string().contains("core"));
    }

    #[test]
    fn forged_certificates_fail_the_check() {
        let forged = Certificate {
            semantics: Semantics::Owa,
            fragment: Fragment::FullFirstOrder,
            expectation: Expectation::Works,
            core_checked: false,
            theorem: "made up",
            executor: Executor::Interpreter,
            normalized: false,
        };
        assert!(!forged.check());
        let missing_core_check = Certificate {
            semantics: Semantics::MinimalCwa,
            fragment: Fragment::PositiveGuarded,
            expectation: Expectation::WorksOverCores,
            core_checked: false,
            theorem: theorem_for(Semantics::MinimalCwa),
            executor: Executor::CompiledAlgebra,
            normalized: false,
        };
        assert!(!missing_core_check.check());
    }

    #[test]
    fn certified_path_matches_the_oracle_on_the_intro_example() {
        let engine = CertainEngine::new();
        let d = inst! {
            "R" => [[c(1), x(1)], [x(2), x(3)]],
            "S" => [[x(1), c(4)], [x(3), c(5)]],
        };
        let q = engine
            .prepare("Q(x, y) :- exists z . R(x, z) & S(z, y)")
            .expect("valid query");
        for semantics in [Semantics::Owa, Semantics::Cwa] {
            let fast = engine.evaluate(&d, semantics, &q);
            let oracle = engine.compare(&d, semantics, &q);
            assert!(fast.plan.is_certified(), "{semantics}");
            assert_eq!(fast.worlds_enumerated, 0, "{semantics}");
            assert!(oracle.worlds_enumerated > 0, "{semantics}");
            assert_eq!(fast.certain, oracle.certain, "{semantics}");
            assert!(oracle.agrees(), "{semantics}");
        }
    }

    #[test]
    fn certified_cells_route_through_the_compiled_pipeline() {
        let engine = CertainEngine::new();
        let d = inst! {
            "R" => [[c(1), x(1)], [x(2), x(3)]],
            "S" => [[x(1), c(4)], [x(3), c(5)]],
        };
        let q = engine
            .prepare("Q(x, y) :- exists z . R(x, z) & S(z, y)")
            .expect("valid query");
        assert!(q.compiles());
        let eval = engine.evaluate(&d, Semantics::Owa, &q);
        assert!(eval.plan.is_compiled());
        assert!(eval.plan.is_certified());
        assert_eq!(eval.exec.fallbacks, 0);
        assert!(eval.exec.hash_probes > 0, "{}", eval.exec);
        let cert = eval.plan.certificate().expect("certified");
        assert_eq!(cert.executor, Executor::CompiledAlgebra);
        assert!(cert.to_string().contains("compiled algebra"));
        assert!(cert.check());
    }

    #[test]
    fn compiler_rejected_queries_fall_back_to_the_interpreter() {
        let engine = CertainEngine::new();
        // A Pos query whose ∀ block needs a 4-column active-domain complement: the
        // compiler rejects it, but Pos × WCWA is still a Works cell — the engine
        // must answer via the interpreter, record the fallback, and stay correct.
        let q = engine
            .prepare("forall u v w t . R(u, v) & R(w, t)")
            .expect("valid query");
        assert_eq!(q.fragment(), Fragment::Positive);
        assert!(!q.compiles());
        assert!(q.compiled().is_none());
        let d = inst! { "R" => [[c(1), c(1)]] };
        let eval = engine.evaluate(&d, Semantics::Wcwa, &q);
        assert!(eval.plan.is_certified());
        assert!(!eval.plan.is_compiled());
        assert!(eval.exec.fallbacks > 0);
        let oracle = engine.compare(&d, Semantics::Wcwa, &q);
        assert_eq!(eval.certain, oracle.certain);
        assert!(
            oracle.exec.fallbacks > 0,
            "oracle world passes fell back too"
        );
        let cert = eval.plan.certificate().expect("certified");
        assert_eq!(cert.executor, Executor::Interpreter);
        assert!(cert.to_string().contains("interpreter"));
    }

    #[test]
    fn bounded_oracle_worlds_run_on_the_compiled_plan() {
        let engine = CertainEngine::new();
        // FO under OWA: no certificate, but the 1-column complement compiles, so
        // every per-world evaluation uses the executor (no fallbacks).
        let q = engine.prepare("exists u . !D(u, u)").expect("valid query");
        assert!(q.compiles());
        let eval = engine.evaluate(&d0(), Semantics::Owa, &q);
        assert_eq!(eval.plan, EvalPlan::BoundedEnumeration);
        assert!(eval.worlds_enumerated > 0);
        assert_eq!(eval.exec.fallbacks, 0);
        assert!(eval.exec.rows_scanned > 0, "{}", eval.exec);
    }

    #[test]
    fn bounded_plan_detects_the_owa_counterexample() {
        let engine = CertainEngine::new();
        let q = engine
            .prepare("forall u . exists v . D(u, v)")
            .expect("valid query");
        let eval = engine.evaluate(&d0(), Semantics::Owa, &q);
        assert_eq!(eval.plan, EvalPlan::BoundedEnumeration);
        assert!(eval.worlds_enumerated > 0);
        assert!(!eval.agrees());
        assert!(eval.naive_overshoots());
        assert!(!eval.naive_undershoots());
        assert!(!eval.is_certainly_true());
    }

    #[test]
    fn certainly_true_replaces_the_boolean_panic_with_an_error() {
        let engine = CertainEngine::new();
        let kary = engine.prepare("Q(u) :- R(u)").expect("valid query");
        let err = engine
            .certainly_true(&inst! { "R" => [[c(1)]] }, Semantics::Cwa, &kary)
            .unwrap_err();
        assert_eq!(err, EngineError::NotBoolean { arity: 1 });
        assert!(err.to_string().contains("arity 1"));
    }

    #[test]
    fn prepared_queries_explain_both_plans() {
        let engine = CertainEngine::new();
        let q = engine
            .prepare("Q(x, y) :- exists z . R(x, z) & S(z, y)")
            .expect("valid query");
        let explain = q.explain().expect("the join chain compiles");
        assert!(explain.contains("HashJoin"), "{explain}");
        // Compiler-rejected shapes have no plan to explain.
        let rejected = engine
            .prepare("forall u v w t . R(u, v) & R(w, t)")
            .expect("valid query");
        assert_eq!(rejected.explain(), None);
        // An explicit config pins the unoptimised lowering as a baseline: same
        // answers, rules_fired == 0.
        let query = parse_query("Q(u) :- exists v . R(u, v) & (S(u) | !T(v))").expect("valid");
        let optimised = PreparedQuery::new(query.clone());
        let baseline = PreparedQuery::with_compiler_config(
            query,
            &CompilerConfig {
                optimize: false,
                ..CompilerConfig::default()
            },
        );
        let plan = optimised.compiled().expect("compiles");
        let raw = baseline.compiled().expect("compiles");
        assert!(plan.rules_fired() > 0);
        assert_eq!(raw.rules_fired(), 0);
        let d = inst! { "R" => [[c(1), c(2)]], "S" => [[c(1)]], "T" => [[c(2)]] };
        assert_eq!(
            plan.execute(&InternedInstance::new(&d), &RunOptions::naive())
                .answers,
            raw.execute(&InternedInstance::new(&d), &RunOptions::naive())
                .answers
        );
    }

    #[test]
    fn a_batch_derives_the_instance_state_once_for_all_its_queries() {
        // Four compiled Pos / Pos+∀G queries on a core under minimal CWA: each
        // certificate needs the core bit and each naïve pass the interned
        // form. Both come from the one snapshot every dispatch was given.
        let engine = CertainEngine::new();
        let queries: Vec<PreparedQuery> = [
            "forall u . exists v . D(u, v)",
            "forall u . exists v . D(u, v) & D(v, u)",
            "forall u v . D(u, v) -> exists w . D(v, w)",
            "forall u v . D(u, v) -> D(v, u)",
        ]
        .iter()
        .map(|text| engine.prepare(text).expect("valid query"))
        .collect();
        let snapshot = Snapshot::new(d0());
        let round = || -> Vec<Evaluation> {
            queries
                .iter()
                .map(|query| {
                    let options = DispatchOptions::default();
                    engine.dispatch(&snapshot, Semantics::MinimalCwa, query, &options)
                })
                .collect()
        };
        assert!(!snapshot.is_core_known() && !snapshot.is_interned());
        let first = round();
        for (query, result) in queries.iter().zip(&first) {
            let cert = result.plan.certificate().expect("certified on the core");
            assert_eq!(cert.expectation, Expectation::WorksOverCores, "{query}");
            assert!(cert.core_checked && result.plan.is_compiled(), "{query}");
        }
        assert!(snapshot.is_core_known() && snapshot.is_interned());
        // A later round on the same snapshot rebuilds neither.
        let interned: *const InternedInstance = snapshot.interned();
        assert_eq!(round(), first);
        assert!(std::ptr::eq(interned, snapshot.interned()));
    }

    #[test]
    fn cwa_conditional_tables_retire_the_oracle_on_fo_queries() {
        let engine = CertainEngine::new();
        // FO × CWA is NotGuaranteed, but the intro sentence's conditions stay
        // equality-only on d0, so conditional tables certify it exactly.
        let q = engine.prepare("exists u . D(u, u)").expect("valid query");
        assert_eq!(q.fragment(), Fragment::ExistentialPositive);
        // Force a non-guaranteed cell with a genuinely FO query instead.
        let q = engine
            .prepare("exists u v . D(u, v) & !(u = v)")
            .expect("valid query");
        assert_eq!(q.fragment(), Fragment::FullFirstOrder);
        let d = inst! { "D" => [[c(1), c(2)]] };
        let eval = engine.evaluate(&d, Semantics::Cwa, &q);
        let cert = eval.plan.symbolic_certificate().expect("symbolic");
        assert_eq!(cert.technique, SymbolicTechnique::ConditionalTables);
        assert_eq!(cert.mode, SymbolicMode::Exact);
        assert!(cert.check());
        assert_eq!(eval.worlds_enumerated, 0);
        assert!(!eval.truncated);
        assert_eq!(eval.certain, engine.compare(&d, Semantics::Cwa, &q).certain);
        assert!(cert.to_string().contains("conditional tables"));
    }

    #[test]
    fn sandwich_certifies_a_false_universal_with_zero_worlds() {
        let engine = CertainEngine::new();
        // Pos × OWA is NotGuaranteed. On a broken chain the naïve answer is
        // already false, and U = N = ∅ pins "not certain" with zero worlds.
        let q = engine
            .prepare("forall u . exists v . R(u, v)")
            .expect("valid query");
        let d = inst! { "R" => [[c(1), x(1)]] };
        let eval = engine.evaluate(&d, Semantics::Owa, &q);
        let cert = eval.plan.symbolic_certificate().expect("symbolic");
        assert_eq!(cert.technique, SymbolicTechnique::Sandwich);
        assert_eq!(cert.mode, SymbolicMode::Exact);
        assert!(cert.check());
        assert_eq!(eval.worlds_enumerated, 0);
        assert!(!eval.is_certainly_true());
        assert_eq!(
            eval.certain,
            engine.compare(&d, Semantics::Owa, &q).certain,
            "sandwich agrees with the oracle"
        );
    }

    #[test]
    fn open_sandwiches_still_fall_back_to_the_oracle() {
        let engine = CertainEngine::new();
        // On d0 the naïve answer to the §2.4 sentence is true but the OWA
        // under-approximation cannot close the ∀: the sandwich stays open and
        // the oracle refutes — the existing counterexample must survive.
        let q = engine
            .prepare("forall u . exists v . D(u, v)")
            .expect("valid query");
        let eval = engine.evaluate(&d0(), Semantics::Owa, &q);
        assert_eq!(eval.plan, EvalPlan::BoundedEnumeration);
        assert!(eval.worlds_enumerated > 0);
        assert!(!eval.is_certainly_true());
    }

    #[test]
    fn minimal_sandwich_requires_the_core_side_condition() {
        let engine = CertainEngine::new();
        let q = engine
            .prepare("forall u . exists v . D(v, u)")
            .expect("valid query");
        assert_eq!(q.fragment(), Fragment::Positive);
        // Pos × minimal-CWA is WorksOverCores; off cores the plan is the
        // oracle and the sandwich is *not allowed* to certify (the
        // fresh-injective image need not be a minimal world).
        let non_core = inst! { "D" => [[x(1), x(1)], [x(1), x(2)]] };
        let eval = engine.evaluate(&non_core, Semantics::MinimalCwa, &q);
        assert!(!eval.plan.is_symbolic(), "no core, no sandwich");
        // A forged certificate claiming a minimal sandwich without the core
        // check must fail verification.
        let forged = SymbolicCertificate {
            semantics: Semantics::MinimalCwa,
            fragment: Fragment::Positive,
            mode: SymbolicMode::Exact,
            technique: SymbolicTechnique::Sandwich,
            core_checked: false,
        };
        assert!(!forged.check());
    }

    #[test]
    fn under_approximation_entry_point_is_sound_everywhere() {
        let engine = CertainEngine::new();
        let q = engine.prepare("exists u . !D(u, u)").expect("valid query");
        for semantics in Semantics::ALL {
            let under = engine.symbolic_under_approximation(&d0(), semantics, &q);
            let cert = under.plan.symbolic_certificate().expect("symbolic");
            assert_eq!(cert.technique, SymbolicTechnique::Kleene);
            assert_eq!(cert.mode, SymbolicMode::UnderApprox);
            assert!(cert.check());
            assert_eq!(under.worlds_enumerated, 0);
            let oracle = engine.compare(&d0(), semantics, &q);
            assert!(
                under.certain.is_subset(&oracle.certain) || oracle.truncated,
                "{semantics}: under-approximation must stay below the oracle"
            );
        }
    }

    #[test]
    fn plan_with_symbolic_upgrades_only_certifiable_cells() {
        let engine = CertainEngine::new();
        let certifiable = engine
            .prepare("forall u . exists v . R(u, v)")
            .expect("valid query");
        let d = inst! { "R" => [[c(1), x(1)]] };
        assert_eq!(
            engine.plan(&d, Semantics::Owa, &certifiable),
            EvalPlan::BoundedEnumeration,
            "the static plan never claims symbolic"
        );
        assert!(engine
            .plan_with_symbolic(&d, Semantics::Owa, &certifiable)
            .is_symbolic());
        let open = engine
            .prepare("forall u . exists v . D(u, v)")
            .expect("valid query");
        assert_eq!(
            engine.plan_with_symbolic(&d0(), Semantics::Owa, &open),
            EvalPlan::BoundedEnumeration
        );
        // Certified cells are untouched — and evaluate_symbolic declines them.
        let certified = engine.prepare("exists u v . D(u, v)").expect("valid");
        assert!(engine
            .plan_with_symbolic(&d0(), Semantics::Owa, &certified)
            .is_certified());
        assert!(engine
            .evaluate_symbolic(&d0(), Semantics::Owa, &certified)
            .is_none());
    }

    #[test]
    fn truncated_oracle_verdicts_carry_the_flag() {
        // Three nulls under OWA exceed a 4-world cap, and the sentence below
        // holds in every sampled world, so the "certain" verdict leans on the
        // cut-off stream and must be flagged.
        let engine = CertainEngine::with_bounds(WorldBounds {
            max_worlds: 4,
            ..WorldBounds::default()
        });
        let d = inst! { "R" => [[x(1)], [x(2)], [x(3)]] };
        let q = engine.prepare("exists u . R(u)").expect("valid query");
        let eval = engine.compare(&d, Semantics::Owa, &q);
        assert!(eval.is_certainly_true());
        assert!(eval.truncated, "exhausted a capped stream");
        // A definitive counter-world clears the flag even under the same cap
        // (this sentence fails in every world, so the first one refutes it).
        let refuted = engine.prepare("forall u . R(u) -> !R(u)").expect("valid");
        let eval = engine.compare(&d, Semantics::Owa, &refuted);
        assert!(!eval.is_certainly_true());
        assert!(!eval.truncated, "early exit is definitive");
        // Untruncated streams never set the flag.
        let roomy = CertainEngine::new();
        let eval = roomy.compare(&d0(), Semantics::Owa, &q);
        assert!(!eval.truncated);
    }

    #[test]
    fn batch_and_solo_oracles_agree_on_an_empty_world_stream() {
        // A zero world cap leaves the oracle nothing to intersect: a Boolean
        // query is then vacuously certain, and the verdict is truncated.
        let engine = CertainEngine::with_bounds(WorldBounds {
            max_worlds: 0,
            ..WorldBounds::default()
        });
        let d = inst! { "D" => [[x(1), x(2)], [x(2), x(1)]], "R" => [[c(1)]] };
        let q = engine
            .prepare("exists u . R(u) & !D(u, u)")
            .expect("valid query");
        for semantics in [Semantics::Owa, Semantics::Wcwa, Semantics::Cwa] {
            let solo = engine.evaluate(&d, semantics, &q);
            assert_eq!(solo.plan, EvalPlan::BoundedEnumeration, "{semantics}");
            assert!(solo.truncated && solo.is_certainly_true(), "{semantics}");
        }
    }

    #[test]
    fn evaluate_records_a_stage_trace_when_enabled() {
        let engine = CertainEngine::new();
        let q = engine
            .prepare("forall u . exists v . D(u, v)")
            .expect("valid query");
        // OWA × Pos is not guaranteed: exec pass, symbolic probe, then worlds.
        let eval = engine.evaluate(&d0(), Semantics::Owa, &q);
        let stages: Vec<Stage> = eval.trace.spans().iter().map(|s| s.stage).collect();
        assert!(stages.contains(&Stage::Exec), "stages: {stages:?}");
        assert!(stages.contains(&Stage::Symbolic), "stages: {stages:?}");
        assert!(stages.contains(&Stage::OracleWorlds), "stages: {stages:?}");
        // Depth-0 stages partition the request wall-clock from below.
        assert!(eval.trace.top_level_us() <= eval.trace.total_us());
        assert_eq!(eval.trace.dropped(), 0);
        // The certified path records just the exec pass.
        let eval = engine.evaluate(&d0(), Semantics::Cwa, &q);
        assert_eq!(eval.worlds_enumerated, 0);
        assert!(eval.trace.spans().iter().any(|s| s.stage == Stage::Exec));
        assert!(!eval
            .trace
            .spans()
            .iter()
            .any(|s| s.stage == Stage::OracleWorlds));
    }

    #[test]
    fn telemetry_never_perturbs_result_equality() {
        // Traces and prep timings differ run to run; equality must not see them.
        let engine = CertainEngine::new();
        let q = engine
            .prepare("forall u . exists v . D(u, v)")
            .expect("valid query");
        assert_eq!(
            q,
            PreparedQuery::parse("forall u . exists v . D(u, v)").expect("valid query")
        );
        let a = engine.evaluate(&d0(), Semantics::Owa, &q);
        let mut b = engine.evaluate(&d0(), Semantics::Owa, &q);
        b.trace = Trace::default();
        assert_eq!(a, b, "a stripped trace must not break equality");
        // Prep timings are observable but inert.
        let t = q.prep_timings();
        assert!(t.parse_us + t.classify_us + t.compile_us < u64::MAX);
    }
}
