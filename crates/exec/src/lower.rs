//! Lowering `Formula`/`Query` ASTs into the physical operator DAG.
//!
//! The lowering is a literal, bottom-up translation of the active-domain semantics
//! (`nev_logic::eval`) into set-at-a-time operators:
//!
//! * atoms become indexed scans (constants and repeated variables turn into
//!   selections), `∧` becomes natural hash joins, `∨` becomes domain-padded unions,
//!   `∃` becomes projection (after padding quantified variables missing from the
//!   body — `∃u.true` is false on an empty active domain, and padding preserves
//!   exactly that);
//! * `¬` inside a conjunction becomes an **anti-join** against the positive part
//!   whenever the negated subformula's variables are already bound; a Boolean
//!   `¬φ` becomes the anti-join `{()} ▷ φ`; everywhere else `¬` becomes an
//!   active-domain **complement** `adom^k ∖ φ` with `k ≥ 1`;
//! * `→` and `∀` are first rewritten away by [`nev_logic::rewrite`]: `¬φ ∨ ψ`, and
//!   `∀x̄ ψ ⇒ ¬∃x̄ ν(ψ)` with the negation pushed into the body. A guarded
//!   universal `∀x̄ (G → φ₁ ∨ … ∨ φₙ)` thus lowers to `{()} ▷ π∅(G ▷ φ₁ ▷ … ▷ φₙ)`
//!   whenever each `φᵢ`'s variables are bound by the guard, with no complement;
//!   a body the guard does not bind joins the complement of only that body.
//!
//! The only shapes the compiler rejects are complements whose column count exceeds
//! [`MAX_COMPLEMENT_COLUMNS`]: those would materialise `adom(D)^k`,
//! where the tree-walking interpreter's candidate-at-a-time strategy is the better
//! plan. Rejection is how the engine decides to fall back — see
//! `nev-core::engine`'s `ExecStats::fallbacks`.

use std::collections::BTreeSet;
use std::fmt;

use nev_incomplete::Value;
use nev_logic::ast::{Formula, Term};
use nev_logic::rewrite::to_executable_core;
use nev_logic::Query;

use crate::algebra::{merge_schemas, PlanNode, ScanTerm};

/// Maximum number of columns an active-domain complement may have. A complement
/// over `k` columns materialises up to `|adom|^k` rows, so wide complements are
/// the one shape where the interpreter's candidate-at-a-time evaluation wins;
/// queries needing one are rejected and routed to the interpreter.
pub const MAX_COMPLEMENT_COLUMNS: usize = 3;

/// How the compiler lowers a query.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CompilerConfig {
    /// Run the `nev-opt` rule stage ([`crate::optimize`]) over the lowered plan.
    /// Disabling it yields the literal syntactic lowering — the baseline the
    /// differential suite (`tests/opt_equivalence.rs`) and the `opt_pipeline`
    /// benchmark compare against.
    pub optimize: bool,
}

impl Default for CompilerConfig {
    fn default() -> Self {
        CompilerConfig { optimize: true }
    }
}

/// Why a query has no compiled form.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CompileError {
    /// A negation (or a `∀` via `¬∃x̄ ν(ψ)`) requires an active-domain complement over
    /// more columns than the limit.
    ComplementTooWide {
        /// Columns the complement would have.
        columns: usize,
        /// The limit, [`MAX_COMPLEMENT_COLUMNS`].
        limit: usize,
    },
}

impl CompileError {
    /// Compact machine-readable rendering for wire responses, e.g.
    /// `complement_too_wide(columns=4,limit=3)`.
    pub fn reason_code(&self) -> String {
        match self {
            CompileError::ComplementTooWide { columns, limit } => {
                format!("complement_too_wide(columns={columns},limit={limit})")
            }
        }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::ComplementTooWide { columns, limit } => write!(
                f,
                "active-domain complement over {columns} columns exceeds the limit of {limit}; \
                 the interpreter is the better plan for this shape"
            ),
        }
    }
}

impl std::error::Error for CompileError {}

/// A lowered subplan: the operator plus its sorted output schema.
struct Lowered {
    node: PlanNode,
    schema: Vec<String>,
}

impl Lowered {
    fn new(node: PlanNode, schema: Vec<String>) -> Self {
        Lowered { node, schema }
    }
}

/// Returns `true` iff sorted `a` is a subset of sorted `b`.
fn is_subset(a: &[String], b: &[String]) -> bool {
    let mut j = 0;
    for v in a {
        loop {
            if j == b.len() {
                return false;
            }
            match b[j].cmp(v) {
                std::cmp::Ordering::Less => j += 1,
                std::cmp::Ordering::Equal => {
                    j += 1;
                    break;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
    }
    true
}

/// Natural join smart constructor (`Unit` is the join identity).
fn join(a: Lowered, b: Lowered) -> Lowered {
    if matches!(a.node, PlanNode::Unit) {
        return b;
    }
    if matches!(b.node, PlanNode::Unit) {
        return a;
    }
    let schema = merge_schemas(&a.schema, &b.schema);
    Lowered::new(
        PlanNode::Join {
            left: Box::new(a.node),
            right: Box::new(b.node),
        },
        schema,
    )
}

/// Pads a subplan up to a (sorted) superset schema with active-domain columns.
fn pad_to(l: Lowered, target: &[String]) -> Lowered {
    debug_assert!(is_subset(&l.schema, target), "target must cover the schema");
    let missing: Vec<String> = target
        .iter()
        .filter(|v| l.schema.binary_search(v).is_err())
        .cloned()
        .collect();
    if missing.is_empty() {
        return l;
    }
    Lowered::new(
        PlanNode::DomainPad {
            input: Box::new(l.node),
            vars: missing,
        },
        target.to_vec(),
    )
}

/// Negation smart constructor: `{()} ▷ φ` for a Boolean `φ`, otherwise the
/// active-domain complement, applying the cost guard.
fn complement(l: Lowered) -> Result<Lowered, CompileError> {
    if l.schema.is_empty() {
        return Ok(Lowered::new(
            PlanNode::AntiJoin {
                left: Box::new(PlanNode::Unit),
                right: Box::new(l.node),
            },
            Vec::new(),
        ));
    }
    if l.schema.len() > MAX_COMPLEMENT_COLUMNS {
        return Err(CompileError::ComplementTooWide {
            columns: l.schema.len(),
            limit: MAX_COMPLEMENT_COLUMNS,
        });
    }
    let schema = l.schema.clone();
    Ok(Lowered::new(
        PlanNode::Complement {
            input: Box::new(l.node),
        },
        schema,
    ))
}

fn lower(f: &Formula) -> Result<Lowered, CompileError> {
    match f {
        Formula::True => Ok(Lowered::new(PlanNode::Unit, Vec::new())),
        Formula::False => Ok(Lowered::new(
            PlanNode::Empty { schema: Vec::new() },
            Vec::new(),
        )),
        Formula::Atom { relation, terms } => Ok(lower_atom(relation, terms)),
        Formula::Eq(a, b) => Ok(lower_eq(a, b)),
        Formula::Not(inner) => complement(lower(inner)?),
        Formula::And(parts) => lower_and(parts),
        Formula::Or(parts) => lower_or(parts),
        Formula::Exists(vars, body) => lower_exists(vars, body),
        // `→` and `∀` are definable; delegate to the nev-logic rewrites (compile()
        // already eliminates them up front, this keeps `lower` total).
        Formula::Implies(_, _) | Formula::Forall(_, _) => lower(&to_executable_core(f)),
    }
}

fn lower_atom(relation: &str, terms: &[Term]) -> Lowered {
    let pattern: Vec<ScanTerm> = terms
        .iter()
        .map(|t| match t {
            Term::Var(v) => ScanTerm::Var(v.clone()),
            Term::Const(c) => ScanTerm::Const(Value::Const(c.clone())),
        })
        .collect();
    let schema: Vec<String> = terms
        .iter()
        .filter_map(|t| t.as_var().map(str::to_string))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    Lowered::new(
        PlanNode::Scan {
            relation: relation.to_string(),
            pattern,
            schema: schema.clone(),
        },
        schema,
    )
}

fn lower_eq(a: &Term, b: &Term) -> Lowered {
    match (a, b) {
        (Term::Const(ca), Term::Const(cb)) => {
            if ca == cb {
                Lowered::new(PlanNode::Unit, Vec::new())
            } else {
                Lowered::new(PlanNode::Empty { schema: Vec::new() }, Vec::new())
            }
        }
        (Term::Var(v), Term::Const(c)) | (Term::Const(c), Term::Var(v)) => Lowered::new(
            PlanNode::AdomConst {
                var: v.clone(),
                value: Value::Const(c.clone()),
            },
            vec![v.clone()],
        ),
        (Term::Var(x), Term::Var(y)) if x == y => {
            // x = x holds for every active-domain value of x.
            Lowered::new(
                PlanNode::DomainPad {
                    input: Box::new(PlanNode::Unit),
                    vars: vec![x.clone()],
                },
                vec![x.clone()],
            )
        }
        (Term::Var(x), Term::Var(y)) => {
            let mut vars = [x.clone(), y.clone()];
            vars.sort();
            let schema = vars.to_vec();
            Lowered::new(PlanNode::AdomEq { vars }, schema)
        }
    }
}

fn lower_and(parts: &[Formula]) -> Result<Lowered, CompileError> {
    // Join the positive conjuncts first, then apply each negated conjunct as an
    // anti-join when its variables are already bound (the common, cheap case) and
    // as a complement join otherwise.
    let mut acc = Lowered::new(PlanNode::Unit, Vec::new());
    let mut negatives = Vec::new();
    for p in parts {
        match p {
            Formula::Not(inner) => negatives.push(inner.as_ref()),
            positive => acc = join(acc, lower(positive)?),
        }
    }
    for inner in negatives {
        let li = lower(inner)?;
        if is_subset(&li.schema, &acc.schema) {
            let schema = acc.schema.clone();
            acc = Lowered::new(
                PlanNode::AntiJoin {
                    left: Box::new(acc.node),
                    right: Box::new(li.node),
                },
                schema,
            );
        } else {
            acc = join(acc, complement(li)?);
        }
    }
    Ok(acc)
}

fn lower_or(parts: &[Formula]) -> Result<Lowered, CompileError> {
    if parts.is_empty() {
        return Ok(Lowered::new(
            PlanNode::Empty { schema: Vec::new() },
            Vec::new(),
        ));
    }
    let lowered: Vec<Lowered> = parts.iter().map(lower).collect::<Result<_, _>>()?;
    let target = lowered
        .iter()
        .fold(Vec::new(), |acc, l| merge_schemas(&acc, &l.schema));
    let mut padded: Vec<Lowered> = lowered.into_iter().map(|l| pad_to(l, &target)).collect();
    if padded.len() == 1 {
        return Ok(padded.pop().expect("one element"));
    }
    Ok(Lowered::new(
        PlanNode::Union {
            inputs: padded.into_iter().map(|l| l.node).collect(),
        },
        target,
    ))
}

fn lower_exists(vars: &[String], body: &Formula) -> Result<Lowered, CompileError> {
    let lb = lower(body)?;
    if vars.is_empty() {
        return Ok(lb);
    }
    let mut quantified: Vec<String> = vars.to_vec();
    quantified.sort();
    quantified.dedup();
    // Quantified variables not free in the body still range over the active domain
    // (∃u.φ is false on an empty domain even when u is unused in φ).
    let target = merge_schemas(&lb.schema, &quantified);
    let padded = pad_to(lb, &target);
    let keep: Vec<String> = target
        .iter()
        .filter(|v| quantified.binary_search(v).is_err())
        .cloned()
        .collect();
    Ok(Lowered::new(
        PlanNode::Project {
            input: Box::new(padded.node),
            keep: keep.clone(),
        },
        keep,
    ))
}

/// A query compiled to a physical plan, ready for repeated execution against
/// different instances (or different possible worlds of one instance).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CompiledQuery {
    /// The plan the executor runs: the logical lowering after the `nev-opt`
    /// rule stage (or the logical plan itself with `optimize: false`).
    pub(crate) plan: PlanNode,
    /// The literal syntactic lowering, kept for `EXPLAIN`-style introspection.
    pub(crate) logical: PlanNode,
    /// Which rules fired while optimising `logical` into `plan`.
    pub(crate) rules: crate::rules::RuleReport,
    /// Whether the executor may run the stage-2 cost-based join reorder
    /// (`CompilerConfig::optimize`; off = the literal written join order).
    pub(crate) reorder: bool,
    /// Answer variables in output order.
    pub(crate) answer_vars: Vec<String>,
    /// The plan's sorted schema (== sorted answer variables).
    pub(crate) schema: Vec<String>,
    /// `output_positions[i]` is the schema column holding `answer_vars[i]`.
    pub(crate) output_positions: Vec<usize>,
}

impl CompiledQuery {
    /// Compiles a query with the default [`CompilerConfig`].
    pub fn compile(query: &Query) -> Result<Self, CompileError> {
        CompiledQuery::compile_with(query, &CompilerConfig::default())
    }

    /// Compiles a query: rewrites `→`/`∀` away (universals as `¬∃` over the
    /// negated body, see [`nev_logic::rewrite`]), lowers the executable core into the
    /// operator DAG, pads the plan so that unused answer variables range over
    /// the active domain (exactly as the interpreter enumerates them), and —
    /// unless disabled — runs the `nev-opt` rule stage over the result.
    pub fn compile_with(query: &Query, config: &CompilerConfig) -> Result<Self, CompileError> {
        let core = to_executable_core(query.formula());
        let lowered = lower(&core)?;
        let mut sorted_answers: Vec<String> = query.answer_variables().to_vec();
        sorted_answers.sort();
        let padded = pad_to(lowered, &sorted_answers);
        let output_positions = query
            .answer_variables()
            .iter()
            .map(|v| {
                padded
                    .schema
                    .binary_search(v)
                    .expect("answer variables form the schema")
            })
            .collect();
        let logical = padded.node;
        let (plan, rules) = if config.optimize {
            crate::optimize::optimize(logical.clone())
        } else {
            (logical.clone(), crate::rules::RuleReport::default())
        };
        debug_assert_eq!(
            plan.schema(),
            padded.schema,
            "optimisation preserves schema"
        );
        Ok(CompiledQuery {
            plan,
            logical,
            rules,
            reorder: config.optimize,
            answer_vars: query.answer_variables().to_vec(),
            schema: padded.schema,
            output_positions,
        })
    }

    /// The root of the physical plan the executor runs (rule-optimised by
    /// default).
    pub fn plan(&self) -> &PlanNode {
        &self.plan
    }

    /// The literal syntactic lowering, before the rule stage ran.
    pub fn logical_plan(&self) -> &PlanNode {
        &self.logical
    }

    /// The rule firings recorded while optimising this query.
    pub fn rules(&self) -> &crate::rules::RuleReport {
        &self.rules
    }

    /// Total number of optimiser rules fired at compile time.
    pub fn rules_fired(&self) -> u64 {
        self.rules.total()
    }

    /// The answer variables, in output order.
    pub fn answer_variables(&self) -> &[String] {
        &self.answer_vars
    }

    /// An EXPLAIN-style rendering: the logical plan and, when it differs, the
    /// rule-optimised plan the executor actually runs.
    pub fn explain(&self) -> String {
        if self.plan == self.logical {
            format!(
                "CompiledQuery({}) [{} operators, 0 rules fired]\n{}",
                self.answer_vars.join(", "),
                self.plan.node_count(),
                self.plan
            )
        } else {
            format!(
                "CompiledQuery({}) [{} rules fired]\nlogical [{} operators]:\n{}optimized [{} operators]:\n{}",
                self.answer_vars.join(", "),
                self.rules_fired(),
                self.logical.node_count(),
                self.logical,
                self.plan.node_count(),
                self.plan
            )
        }
    }

    /// A one-line `EXPLAIN` rendering (what the `nevd` wire protocol ships):
    /// `rules=<n> logical=(…) optimized=(…)`.
    pub fn explain_compact(&self) -> String {
        format!(
            "rules={} logical=({}) optimized=({})",
            self.rules_fired(),
            self.logical.compact(),
            self.plan.compact()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nev_logic::parse_query;

    fn compiled(text: &str) -> CompiledQuery {
        CompiledQuery::compile(&parse_query(text).expect("valid query")).expect("compiles")
    }

    #[test]
    fn join_queries_lower_to_hash_joins() {
        let q = compiled("Q(x, y) :- exists z . R(x, z) & S(z, y)");
        let s = q.explain();
        assert!(s.contains("HashJoin"), "{s}");
        assert!(s.contains("Project"), "{s}");
        assert!(!s.contains("Complement"), "{s}");
        assert_eq!(q.answer_variables(), ["x", "y"]);
    }

    #[test]
    fn negation_in_conjunction_lowers_to_anti_join() {
        let q = compiled("exists u . R(u, u) & !S(u)");
        assert!(q.explain().contains("AntiJoin"), "{}", q.explain());
    }

    #[test]
    fn bare_negation_lowers_to_complement() {
        let q = compiled("exists u . !S(u)");
        assert!(q.explain().contains("Complement"), "{}", q.explain());
    }

    #[test]
    fn forall_lowers_via_not_exists_not() {
        let q = compiled("forall u . exists v . D(u, v)");
        // ∀u φ ≡ ¬∃u ¬φ: the unguarded body keeps its one-column complement,
        // and the Boolean negation around the projection is an anti-join.
        assert_eq!(
            q.logical_plan().compact(),
            "AntiJoin(Unit, Project[](Complement(Project[u](Scan D(u,v)))))"
        );
    }

    #[test]
    fn guarded_universals_lower_to_anti_joins() {
        for text in [
            "forall u v . (E(u, v) -> exists w . E(v, w))",
            "forall u v . (E(u, v) -> (E(v, u) | E(u, u)))",
            "forall u . (S(u) -> (forall v . (S(v) -> S(v))))",
            "forall u . (E(u, u) -> false)",
        ] {
            let s = compiled(text).explain();
            assert!(!s.contains("Complement"), "`{text}`:\n{s}");
            assert!(s.contains("AntiJoin"), "`{text}`:\n{s}");
        }
    }

    #[test]
    fn boolean_negation_is_an_anti_join_from_unit() {
        let q = compiled("!(exists u . S(u))");
        assert_eq!(
            q.logical_plan().compact(),
            "AntiJoin(Unit, Project[](Scan S(u)))"
        );
    }

    #[test]
    fn wide_complements_are_rejected() {
        let q = parse_query("forall u v w t . R(u, v) & R(w, t)").expect("valid query");
        let err = CompiledQuery::compile(&q).expect_err("4-column complement");
        assert_eq!(
            err,
            CompileError::ComplementTooWide {
                columns: 4,
                limit: 3
            }
        );
        assert!(err.to_string().contains("4 columns"));
    }

    #[test]
    fn unused_answer_variables_are_domain_padded() {
        let q = compiled("Q(u, v) :- R(u)");
        assert!(q.explain().contains("DomainPad [v]"), "{}", q.explain());
        assert_eq!(q.answer_variables(), ["u", "v"]);
    }

    #[test]
    fn output_positions_follow_answer_order() {
        // Answer order (y, x) vs sorted schema [x, y].
        let q = compiled("Q(y, x) :- R(x, y)");
        assert_eq!(q.answer_variables(), ["y", "x"]);
        assert_eq!(q.output_positions, [1, 0]);
    }

    #[test]
    fn equality_shapes() {
        assert!(compiled("exists u . u = u").explain().contains("DomainPad"));
        assert!(compiled("exists u v . u = v").explain().contains("AdomEq"));
        assert!(compiled("exists u . u = 3").explain().contains("AdomConst"));
    }
}
