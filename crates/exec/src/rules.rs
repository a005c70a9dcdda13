//! Stage 1 of the `nev-opt` optimiser: rule-based plan rewrites.
//!
//! Every rule is a set-semantics identity over the active-domain algebra of
//! [`crate::algebra`], so rewriting can never change an answer — only the work
//! done to produce it. The rules:
//!
//! * **Union flattening** — nested unions splice into their parent, `Empty`
//!   inputs and duplicate inputs are dropped, single-input unions unwrap;
//! * **Self-join deduplication** — a natural join of two *identical* subplans is
//!   idempotent (`X ⋈ X = X`), so self-joins introduced by repeated conjuncts
//!   collapse to one evaluation;
//! * **Pad absorption** — `l ⋈ pad_vs(x) = l ⋈ x` whenever `vs ⊆ schema(l)`:
//!   the join immediately pins every padded column to `l`'s values, so crossing
//!   with `adom^vs` first is pure waste;
//! * **Complement → anti-join** — `l ⋈ (adom^k ∖ x) = l ▷ x` whenever
//!   `schema(x) ⊆ schema(l)`: the conjunction binds the negated variables, so
//!   the `adom^k` materialisation is never needed;
//! * **Join-over-union distribution** — `l ⋈ (a ∪ b) = (l ⋈ a) ∪ (l ⋈ b)`,
//!   applied only when a union input is a `DomainPad`/`Complement` (and the
//!   plans are small), because its sole purpose is to expose the two rules
//!   above inside disjunctions;
//! * **Projection pushdown** — columns not needed upstream are projected away
//!   as early as possible (with duplicate elimination), *without* inserting
//!   projections between the members of one join group — those stay flat so the
//!   cost-based stage ([`crate::optimize`]/[`crate::exec`]) can still reorder
//!   them.

use crate::algebra::{flatten_join_refs, merge_schemas, PlanNode};

/// Per-rule firing counts for one optimisation run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RuleReport {
    /// Nested/empty/duplicate union inputs simplified.
    pub unions_flattened: u64,
    /// Identical-subplan self-joins collapsed.
    pub self_joins_deduped: u64,
    /// `DomainPad`s absorbed into a binding join.
    pub pads_absorbed: u64,
    /// `Complement`s rewritten into anti-joins.
    pub complements_rewritten: u64,
    /// Joins distributed over unions (to expose the two rules above).
    pub joins_distributed: u64,
    /// Projections pushed below their original position (or pad columns
    /// trimmed).
    pub projections_pushed: u64,
    /// `Empty` inputs propagated through joins, anti-joins, pads and
    /// projections (statically-unsat subplans collapsing to zero scans).
    pub empties_propagated: u64,
}

impl RuleReport {
    /// Total number of rule firings.
    pub fn total(&self) -> u64 {
        self.unions_flattened
            + self.self_joins_deduped
            + self.pads_absorbed
            + self.complements_rewritten
            + self.joins_distributed
            + self.projections_pushed
            + self.empties_propagated
    }

    fn merge(&mut self, other: &RuleReport) {
        self.unions_flattened += other.unions_flattened;
        self.self_joins_deduped += other.self_joins_deduped;
        self.pads_absorbed += other.pads_absorbed;
        self.complements_rewritten += other.complements_rewritten;
        self.joins_distributed += other.joins_distributed;
        self.projections_pushed += other.projections_pushed;
        self.empties_propagated += other.empties_propagated;
    }
}

/// Distribution is only worthwhile (and only safe against plan-size blowup)
/// within these limits.
const MAX_DISTRIBUTED_INPUTS: usize = 4;
const MAX_DISTRIBUTED_NODE_COUNT: usize = 24;
/// Structural rewriting runs to a fixpoint; this caps pathological ping-pong.
const MAX_PASSES: usize = 8;

/// Applies every rule to a fixpoint, then pushes projections down, then cleans
/// up once more. The returned plan has the same output schema and the same
/// output rows as the input on every instance.
pub fn apply_rules(plan: PlanNode) -> (PlanNode, RuleReport) {
    let mut report = RuleReport::default();
    let mut plan = structural_fixpoint(plan, &mut report);
    let needed = plan.schema();
    plan = push_projections(plan, &needed, &mut report);
    plan = structural_fixpoint(plan, &mut report);
    (plan, report)
}

fn structural_fixpoint(mut plan: PlanNode, report: &mut RuleReport) -> PlanNode {
    for _ in 0..MAX_PASSES {
        let mut pass = RuleReport::default();
        plan = rewrite(plan, &mut pass);
        let progress = pass.total() > 0;
        report.merge(&pass);
        if !progress {
            break;
        }
    }
    plan
}

/// One bottom-up structural rewrite pass.
fn rewrite(node: PlanNode, report: &mut RuleReport) -> PlanNode {
    match node {
        PlanNode::Join { left, right } => {
            let left = rewrite(*left, report);
            let right = rewrite(*right, report);
            rewrite_join(left, right, report)
        }
        PlanNode::AntiJoin { left, right } => {
            let left = rewrite(*left, report);
            let right = rewrite(*right, report);
            // ∅ ▷ x = ∅; l ▷ ∅ = l.
            if matches!(left, PlanNode::Empty { .. }) {
                report.empties_propagated += 1;
                return left;
            }
            if matches!(right, PlanNode::Empty { .. }) {
                report.empties_propagated += 1;
                return left;
            }
            PlanNode::AntiJoin {
                left: Box::new(left),
                right: Box::new(right),
            }
        }
        PlanNode::Union { inputs } => rewrite_union(inputs, report),
        PlanNode::Project { input, keep } => {
            let input = rewrite(*input, report);
            if matches!(input, PlanNode::Empty { .. }) {
                report.empties_propagated += 1;
                return PlanNode::Empty { schema: keep };
            }
            if input.schema() == keep {
                report.projections_pushed += 1;
                input
            } else {
                PlanNode::Project {
                    input: Box::new(input),
                    keep,
                }
            }
        }
        PlanNode::DomainPad { input, vars } => {
            let input = rewrite(*input, report);
            // pad_vs(∅) = ∅: padding cannot resurrect an empty input.
            if matches!(input, PlanNode::Empty { .. }) {
                report.empties_propagated += 1;
                let schema = PlanNode::DomainPad {
                    input: Box::new(input),
                    vars,
                }
                .schema();
                return PlanNode::Empty { schema };
            }
            PlanNode::DomainPad {
                input: Box::new(input),
                vars,
            }
        }
        PlanNode::Complement { input } => PlanNode::Complement {
            input: Box::new(rewrite(*input, report)),
        },
        leaf => leaf,
    }
}

fn rewrite_join(left: PlanNode, right: PlanNode, report: &mut RuleReport) -> PlanNode {
    // Unit is the join identity (rule applications can re-expose it).
    if matches!(left, PlanNode::Unit) {
        return right;
    }
    if matches!(right, PlanNode::Unit) {
        return left;
    }
    // ∅ is the join annihilator: a statically-empty side empties the join.
    if matches!(left, PlanNode::Empty { .. }) || matches!(right, PlanNode::Empty { .. }) {
        report.empties_propagated += 1;
        let schema = merge_schemas(&left.schema(), &right.schema());
        return PlanNode::Empty { schema };
    }
    // Self-join dedup: X ⋈ X = X under set semantics.
    if left == right {
        report.self_joins_deduped += 1;
        return left;
    }
    // Pad absorption, both orientations.
    if let PlanNode::DomainPad { input, vars } = &right {
        if !vars.is_empty() && is_subset_of(vars, &left.schema()) {
            report.pads_absorbed += 1;
            let inner = (**input).clone();
            return rewrite_join(left, inner, report);
        }
    }
    if let PlanNode::DomainPad { input, vars } = &left {
        if !vars.is_empty() && is_subset_of(vars, &right.schema()) {
            report.pads_absorbed += 1;
            let inner = (**input).clone();
            return rewrite_join(inner, right, report);
        }
    }
    // Complement → anti-join when the other side binds the negated columns.
    if let PlanNode::Complement { input } = &right {
        if is_subset_of(&input.schema(), &left.schema()) {
            report.complements_rewritten += 1;
            return PlanNode::AntiJoin {
                right: Box::new((**input).clone()),
                left: Box::new(left),
            };
        }
    }
    if let PlanNode::Complement { input } = &left {
        if is_subset_of(&input.schema(), &right.schema()) {
            report.complements_rewritten += 1;
            return PlanNode::AntiJoin {
                left: Box::new(right),
                right: Box::new((**input).clone()),
            };
        }
    }
    // Join-over-union distribution, gated on it exposing pads/complements.
    for (unioned, other) in [(&right, &left), (&left, &right)] {
        if let PlanNode::Union { inputs } = unioned {
            if inputs.len() <= MAX_DISTRIBUTED_INPUTS
                && other.node_count() <= MAX_DISTRIBUTED_NODE_COUNT
                && inputs.iter().any(is_expensive)
            {
                report.joins_distributed += 1;
                let inputs = inputs.clone();
                let other = other.clone();
                let distributed: Vec<PlanNode> = inputs
                    .into_iter()
                    .map(|input| rewrite_join(other.clone(), input, report))
                    .collect();
                return rewrite_union(distributed, report);
            }
        }
    }
    PlanNode::Join {
        left: Box::new(left),
        right: Box::new(right),
    }
}

/// A node the distribution rule wants to expose to absorption/anti-join.
fn is_expensive(node: &PlanNode) -> bool {
    matches!(
        node,
        PlanNode::Complement { .. } | PlanNode::DomainPad { .. }
    )
}

fn rewrite_union(inputs: Vec<PlanNode>, report: &mut RuleReport) -> PlanNode {
    let schema = inputs.first().map(PlanNode::schema).unwrap_or_default();
    let mut flat: Vec<PlanNode> = Vec::with_capacity(inputs.len());
    for input in inputs {
        let input = rewrite(input, report);
        match input {
            PlanNode::Union { inputs: nested } => {
                report.unions_flattened += 1;
                for n in nested {
                    if matches!(n, PlanNode::Empty { .. }) || flat.contains(&n) {
                        continue;
                    }
                    flat.push(n);
                }
            }
            PlanNode::Empty { .. } => {
                report.unions_flattened += 1;
            }
            other => {
                if flat.contains(&other) {
                    report.unions_flattened += 1;
                } else {
                    flat.push(other);
                }
            }
        }
    }
    match flat.len() {
        0 => PlanNode::Empty { schema },
        1 => {
            report.unions_flattened += 1;
            flat.pop().expect("one input")
        }
        _ => PlanNode::Union { inputs: flat },
    }
}

/// Returns `true` iff sorted `a` ⊆ sorted `b`.
fn is_subset_of(a: &[String], b: &[String]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() {
        if j == b.len() {
            return false;
        }
        match b[j].cmp(&a[i]) {
            std::cmp::Ordering::Less => j += 1,
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Greater => return false,
        }
    }
    true
}

fn sorted_intersection(a: &[String], b: &[String]) -> Vec<String> {
    a.iter()
        .filter(|v| b.binary_search(v).is_ok())
        .cloned()
        .collect()
}

/// Projection pushdown: returns a plan computing exactly `π_needed(node)`
/// (`needed` must be a sorted subset of `node.schema()`). Projections are
/// **not** inserted between the members of a join group — the group stays flat
/// for the cost-based reorderer — but are pushed onto the group's leaves, into
/// union inputs, below existing projections, and used to trim pad columns.
/// A push is counted where it changes the plan: where a projection is placed
/// on a leaf, an existing one is replaced by another, or pad columns are
/// trimmed — never where the walk merely passes a projection through.
fn push_projections(node: PlanNode, needed: &[String], report: &mut RuleReport) -> PlanNode {
    match node {
        PlanNode::Project { input, keep } if needed == keep.as_slice() && is_leaf(&input) => {
            // Already pushed onto its leaf: rebuilding it would change nothing.
            PlanNode::Project { input, keep }
        }
        PlanNode::Project { input, keep } => {
            if needed != keep.as_slice() {
                report.projections_pushed += 1;
            }
            push_projections(*input, needed, report)
        }
        PlanNode::Join { .. } => {
            // Flatten the group (the shared group definition from `algebra`),
            // compute what each leaf must keep (columns needed upstream plus
            // every column shared with a sibling leaf), push into the leaves,
            // and rebuild the group in written order.
            let mut leaf_refs = Vec::new();
            flatten_join_refs(&node, &mut leaf_refs);
            let schemas: Vec<Vec<String>> = leaf_refs.iter().map(|l| l.schema()).collect();
            let leaves: Vec<PlanNode> = leaf_refs.into_iter().cloned().collect();
            let mut rebuilt: Option<PlanNode> = None;
            let mut group_schema: Vec<String> = Vec::new();
            for (i, leaf) in leaves.into_iter().enumerate() {
                let mut keep: Vec<String> = sorted_intersection(&schemas[i], needed);
                for (j, other) in schemas.iter().enumerate() {
                    if j != i {
                        let shared = sorted_intersection(&schemas[i], other);
                        keep = merge_schemas(&keep, &shared);
                    }
                }
                let pushed = push_projections(leaf, &keep, report);
                group_schema = merge_schemas(&group_schema, &keep);
                rebuilt = Some(match rebuilt {
                    None => pushed,
                    Some(acc) => PlanNode::Join {
                        left: Box::new(acc),
                        right: Box::new(pushed),
                    },
                });
            }
            let rebuilt = rebuilt.expect("a join group has leaves");
            wrap(rebuilt, needed, &group_schema)
        }
        PlanNode::AntiJoin { left, right } => {
            let right_schema = right.schema();
            let left_needed = merge_schemas(needed, &right_schema);
            let left = push_projections(*left, &left_needed, report);
            let right = push_projections(*right, &right_schema, report);
            wrap(
                PlanNode::AntiJoin {
                    left: Box::new(left),
                    right: Box::new(right),
                },
                needed,
                &left_needed,
            )
        }
        PlanNode::Union { inputs } => PlanNode::Union {
            inputs: inputs
                .into_iter()
                .map(|i| push_projections(i, needed, report))
                .collect(),
        },
        PlanNode::DomainPad { input, vars } => {
            let input_schema = input.schema();
            let mut vars_needed: Vec<String> = vars
                .iter()
                .filter(|v| needed.binary_search(v).is_ok())
                .cloned()
                .collect();
            vars_needed.sort();
            let input_needed = sorted_intersection(&input_schema, needed);
            if vars_needed.len() == vars.len() {
                let input = push_projections(*input, &input_needed, report);
                return PlanNode::DomainPad {
                    input: Box::new(input),
                    vars,
                };
            }
            report.projections_pushed += 1;
            if !input_needed.is_empty() {
                // Surviving input columns witness a non-empty active domain, so
                // unneeded pad columns can simply be dropped.
                let input = push_projections(*input, &input_needed, report);
                if vars_needed.is_empty() {
                    input
                } else {
                    PlanNode::DomainPad {
                        input: Box::new(input),
                        vars: vars_needed,
                    }
                }
            } else {
                // Zero-column input (`∃u.true`-like): keep one pad column as the
                // "active domain is non-empty" guard, projecting it away above.
                let input = push_projections(*input, &[], report);
                let guard = if vars_needed.is_empty() {
                    vec![vars[0].clone()]
                } else {
                    vars_needed
                };
                let guard_schema = guard.clone();
                wrap(
                    PlanNode::DomainPad {
                        input: Box::new(input),
                        vars: guard,
                    },
                    needed,
                    &guard_schema,
                )
            }
        }
        PlanNode::Complement { input } => {
            // π does not commute with complement: optimise inside, wrap above.
            let input_schema = input.schema();
            let inner = push_projections(*input, &input_schema, report);
            wrap(
                PlanNode::Complement {
                    input: Box::new(inner),
                },
                needed,
                &input_schema,
            )
        }
        PlanNode::Empty { .. } => PlanNode::Empty {
            schema: needed.to_vec(),
        },
        leaf => {
            let schema = leaf.schema();
            if needed.len() < schema.len() {
                report.projections_pushed += 1;
            }
            wrap(leaf, needed, &schema)
        }
    }
}

/// A node without inputs: the catch-all arm of [`push_projections`].
fn is_leaf(node: &PlanNode) -> bool {
    matches!(
        node,
        PlanNode::Scan { .. }
            | PlanNode::Unit
            | PlanNode::AdomConst { .. }
            | PlanNode::AdomEq { .. }
    )
}

/// Projects `node` (of schema `schema`) down to `needed` when they differ.
fn wrap(node: PlanNode, needed: &[String], schema: &[String]) -> PlanNode {
    if needed == schema {
        node
    } else {
        PlanNode::Project {
            input: Box::new(node),
            keep: needed.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::ScanTerm;

    fn scan(rel: &str, vars: &[&str]) -> PlanNode {
        let mut schema: Vec<String> = vars.iter().map(|v| v.to_string()).collect();
        schema.sort();
        schema.dedup();
        PlanNode::Scan {
            relation: rel.into(),
            pattern: vars.iter().map(|v| ScanTerm::Var(v.to_string())).collect(),
            schema,
        }
    }

    fn join(l: PlanNode, r: PlanNode) -> PlanNode {
        PlanNode::Join {
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    #[test]
    fn self_joins_collapse() {
        let (plan, report) = apply_rules(join(scan("R", &["x", "y"]), scan("R", &["x", "y"])));
        assert_eq!(plan, scan("R", &["x", "y"]));
        assert_eq!(report.self_joins_deduped, 1);
        assert_eq!(report.total(), 1);
    }

    #[test]
    fn pads_absorb_into_binding_joins() {
        let padded = PlanNode::DomainPad {
            input: Box::new(scan("S", &["y"])),
            vars: vec!["x".into()],
        };
        let (plan, report) = apply_rules(join(scan("R", &["x", "y"]), padded));
        assert_eq!(plan, join(scan("R", &["x", "y"]), scan("S", &["y"])));
        assert_eq!(report.pads_absorbed, 1);
    }

    #[test]
    fn bound_complements_become_anti_joins() {
        let complement = PlanNode::Complement {
            input: Box::new(scan("S", &["y"])),
        };
        let (plan, report) = apply_rules(join(complement, scan("R", &["x", "y"])));
        assert_eq!(
            plan,
            PlanNode::AntiJoin {
                left: Box::new(scan("R", &["x", "y"])),
                right: Box::new(scan("S", &["y"])),
            }
        );
        assert_eq!(report.complements_rewritten, 1);
    }

    #[test]
    fn unbound_complements_survive() {
        let complement = PlanNode::Complement {
            input: Box::new(scan("S", &["y", "z"])),
        };
        let (plan, report) = apply_rules(join(scan("R", &["x"]), complement.clone()));
        assert_eq!(plan, join(scan("R", &["x"]), complement));
        assert_eq!(report.complements_rewritten, 0);
    }

    #[test]
    fn unions_flatten_dedup_and_drop_empties() {
        let nested = PlanNode::Union {
            inputs: vec![
                PlanNode::Union {
                    inputs: vec![scan("A", &["x"]), scan("B", &["x"])],
                },
                PlanNode::Empty {
                    schema: vec!["x".into()],
                },
                scan("A", &["x"]),
            ],
        };
        let (plan, report) = apply_rules(nested);
        assert_eq!(
            plan,
            PlanNode::Union {
                inputs: vec![scan("A", &["x"]), scan("B", &["x"])],
            }
        );
        assert!(report.unions_flattened >= 2, "{report:?}");
    }

    #[test]
    fn joins_distribute_over_expensive_unions_and_simplify() {
        // R(x,y) ⋈ (pad_y(E(x)) ∪ pad_x(¬S(y))) — the disjunction-with-negation
        // shape: distribution exposes one pad absorption and one anti-join.
        let union = PlanNode::Union {
            inputs: vec![
                PlanNode::DomainPad {
                    input: Box::new(scan("E", &["x"])),
                    vars: vec!["y".into()],
                },
                PlanNode::DomainPad {
                    input: Box::new(PlanNode::Complement {
                        input: Box::new(scan("S", &["y"])),
                    }),
                    vars: vec!["x".into()],
                },
            ],
        };
        let (plan, report) = apply_rules(join(scan("R", &["x", "y"]), union));
        assert_eq!(
            plan,
            PlanNode::Union {
                inputs: vec![
                    join(scan("R", &["x", "y"]), scan("E", &["x"])),
                    PlanNode::AntiJoin {
                        left: Box::new(scan("R", &["x", "y"])),
                        right: Box::new(scan("S", &["y"])),
                    },
                ],
            }
        );
        assert_eq!(report.joins_distributed, 1);
        assert_eq!(report.pads_absorbed, 2);
        assert_eq!(report.complements_rewritten, 1);
    }

    #[test]
    fn projections_push_onto_group_leaves_but_not_between_them() {
        // π_x(R(x,y) ⋈ S(y,z) ⋈ T(z,w)): w is projected away inside T's leaf,
        // but the three-way group stays flat (no Project between joins).
        let group = join(
            join(scan("R", &["x", "y"]), scan("S", &["y", "z"])),
            scan("T", &["z", "w"]),
        );
        let plan = PlanNode::Project {
            input: Box::new(group),
            keep: vec!["x".into()],
        };
        let (optimised, report) = apply_rules(plan);
        assert!(report.projections_pushed > 0, "{report:?}");
        assert_eq!(optimised.schema(), vec!["x".to_string()]);
        // The T leaf lost its w column behind a leaf-level projection…
        let rendered = optimised.compact();
        assert!(rendered.contains("Project[z](Scan T(z,w))"), "{rendered}");
        // …and the group is still a flat nested-join chain under one Project.
        assert!(rendered.starts_with("Project[x](HashJoin("), "{rendered}");
    }

    #[test]
    fn empty_inputs_annihilate_joins_pads_and_projections() {
        // R(x,y) ⋈ ∅(y,z) = ∅(x,y,z), with zero scans left in the plan.
        let empty = PlanNode::Empty {
            schema: vec!["y".into(), "z".into()],
        };
        let (plan, report) = apply_rules(join(scan("R", &["x", "y"]), empty.clone()));
        assert_eq!(
            plan,
            PlanNode::Empty {
                schema: vec!["x".into(), "y".into(), "z".into()],
            }
        );
        assert!(report.empties_propagated >= 1, "{report:?}");

        // pad_w(∅) then π empties all the way up.
        let padded = PlanNode::Project {
            input: Box::new(PlanNode::DomainPad {
                input: Box::new(empty),
                vars: vec!["w".into()],
            }),
            keep: vec!["w".into()],
        };
        let (plan, report) = apply_rules(padded);
        assert_eq!(
            plan,
            PlanNode::Empty {
                schema: vec!["w".into()],
            }
        );
        assert!(report.empties_propagated >= 2, "{report:?}");
    }

    #[test]
    fn empty_sides_simplify_anti_joins() {
        // ∅ ▷ S = ∅.
        let empty = PlanNode::Empty {
            schema: vec!["y".into()],
        };
        let (plan, report) = apply_rules(PlanNode::AntiJoin {
            left: Box::new(empty.clone()),
            right: Box::new(scan("S", &["y"])),
        });
        assert_eq!(plan, empty);
        assert_eq!(report.empties_propagated, 1);

        // R ▷ ∅ = R.
        let (plan, report) = apply_rules(PlanNode::AntiJoin {
            left: Box::new(scan("R", &["x", "y"])),
            right: Box::new(empty),
        });
        assert_eq!(plan, scan("R", &["x", "y"]));
        assert_eq!(report.empties_propagated, 1);
    }

    #[test]
    fn pad_columns_trim_but_the_empty_domain_guard_survives() {
        // π_∅(pad_u(Unit)) — the ∃u.true shape: the pad must survive as the
        // "adom is non-empty" guard.
        let plan = PlanNode::Project {
            input: Box::new(PlanNode::DomainPad {
                input: Box::new(PlanNode::Unit),
                vars: vec!["u".into(), "v".into()],
            }),
            keep: vec![],
        };
        let (optimised, _) = apply_rules(plan);
        assert_eq!(
            optimised,
            PlanNode::Project {
                input: Box::new(PlanNode::DomainPad {
                    input: Box::new(PlanNode::Unit),
                    vars: vec!["u".into()],
                }),
                keep: vec![],
            }
        );
    }
}
