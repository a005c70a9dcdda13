//! Per-operator profiling: the EXPLAIN-ANALYZE-style collector behind the wire
//! `PROFILE` command.
//!
//! A profiled execution records one [`OpSample`] per operator the executor
//! actually runs, in **pre-order**: inclusive wall time, output rows, and the
//! `nev-opt` cost model's cardinality estimate for the node — the feedback
//! loop that makes estimated-vs-actual drift observable per plan node. Join
//! groups additionally record one `HashJoin` sample per pairwise fold in the
//! cost-chosen order, with the running [`crate::cost::join_estimate`] as the
//! estimate, so a reordered chain shows where the greedy search's guesses
//! land against real intermediate cardinalities.
//!
//! Profiling is strictly opt-in per execution: the default path through
//! [`crate::exec`] checks one `Option` per node and records nothing, so
//! unprofiled runs (and their served bytes) are untouched.

use crate::algebra::{flatten_join_refs, PlanNode, ScanTerm};

/// One profiled operator: where it sits in the plan, what it produced, and
/// what the cost model expected it to produce.
#[derive(Clone, Debug, PartialEq)]
pub struct OpSample {
    /// Nesting depth below the plan root (the root is depth 0). Join-fold
    /// samples sit at the same depth as the group's leaves.
    pub depth: usize,
    /// The operator head (no children), e.g. `Scan R(x,y)` or `Project[x]`.
    pub label: String,
    /// Inclusive wall time of the operator and everything beneath it, in
    /// microseconds. Subtract the direct children ([`OpProfile::self_us`]) for
    /// the operator's own share.
    pub wall_us: u64,
    /// Rows the operator emitted.
    pub rows: u64,
    /// The `nev-opt` cost model's output-cardinality estimate for this node.
    pub estimated_rows: f64,
    /// Whether `rows` is one of the increments summed into
    /// [`crate::ExecStats::intermediate_rows`] — the hook the profile-accuracy
    /// test uses to reconcile the two accountings.
    pub counts_intermediate: bool,
}

/// The per-operator profile of one plan execution: [`OpSample`]s in pre-order.
///
/// A profile is wall-clock telemetry and has no equality. It is handed to the
/// caller beside the answers, never inside a result value.
#[derive(Clone, Debug, Default)]
pub struct OpProfile {
    /// The recorded samples, pre-order over the executed operator tree.
    pub ops: Vec<OpSample>,
    /// Wall time of the whole profiled pass in microseconds: interning the
    /// instance plus running the plan. Bounds [`OpProfile::root_wall_us`].
    pub exec_us: u64,
}

impl OpProfile {
    /// Inclusive wall time of the plan root (0 for an empty profile).
    pub fn root_wall_us(&self) -> u64 {
        self.ops.first().map_or(0, |op| op.wall_us)
    }

    /// The operator's own wall time at `index`: its inclusive time minus the
    /// inclusive times of its **direct** children (saturating, since two
    /// clock reads of the same interval can disagree by a microsecond).
    pub fn self_us(&self, index: usize) -> u64 {
        let depth = self.ops[index].depth;
        let children: u64 = self.ops[index + 1..]
            .iter()
            .take_while(|op| op.depth > depth)
            .filter(|op| op.depth == depth + 1)
            .map(|op| op.wall_us)
            .sum();
        self.ops[index].wall_us.saturating_sub(children)
    }

    /// Sum of every operator's own ([`OpProfile::self_us`]) time. Telescopes
    /// to (at most) the root's inclusive time, which in turn is bounded by the
    /// surrounding exec stage span — the reconciliation the profile-accuracy
    /// test pins.
    pub fn total_self_us(&self) -> u64 {
        (0..self.ops.len()).map(|i| self.self_us(i)).sum()
    }

    /// Sum of `rows` over the samples that count toward
    /// [`crate::ExecStats::intermediate_rows`], for reconciling the profile
    /// against the executor's own accounting.
    pub fn intermediate_rows(&self) -> u64 {
        self.ops
            .iter()
            .filter(|op| op.counts_intermediate)
            .map(|op| op.rows)
            .sum()
    }

    /// One-line rendering for the wire: samples joined with ` | `, nesting
    /// shown as a `>` per depth level, estimates rounded to whole rows —
    /// `Project[x] est=1 rows=2 us=40 | >Scan R(x,y) est=3 rows=3 us=12 | …`.
    pub fn render(&self) -> String {
        let parts: Vec<String> = self
            .ops
            .iter()
            .map(|op| {
                format!(
                    "{}{} est={} rows={} us={}",
                    ">".repeat(op.depth),
                    op.label,
                    op.estimated_rows.round() as u64,
                    op.rows,
                    op.wall_us,
                )
            })
            .collect();
        parts.join(" | ")
    }
}

/// The operator-head label an [`OpSample`] carries: the node kind plus its
/// defining detail, never its children (the profile's depth field carries the
/// shape). A `Join` node labels the whole flattened group — its pairwise
/// folds appear as separate `HashJoin[schema]` samples.
pub(crate) fn op_label(node: &PlanNode) -> String {
    match node {
        PlanNode::Scan {
            relation, pattern, ..
        } => {
            let args: Vec<String> = pattern
                .iter()
                .map(|t| match t {
                    ScanTerm::Var(v) => v.clone(),
                    ScanTerm::Const(c) => c.to_string(),
                })
                .collect();
            format!("Scan {relation}({})", args.join(","))
        }
        PlanNode::Unit => "Unit".to_string(),
        PlanNode::Empty { .. } => "Empty".to_string(),
        PlanNode::AdomConst { var, value } => format!("AdomConst {var}={value}"),
        PlanNode::AdomEq { vars } => format!("AdomEq {}={}", vars[0], vars[1]),
        PlanNode::Join { .. } => {
            let mut leaves = Vec::new();
            flatten_join_refs(node, &mut leaves);
            format!("JoinGroup(leaves={})", leaves.len())
        }
        PlanNode::AntiJoin { .. } => "AntiJoin".to_string(),
        PlanNode::Union { inputs } => format!("Union(arms={})", inputs.len()),
        PlanNode::Project { keep, .. } => format!("Project[{}]", keep.join(",")),
        PlanNode::DomainPad { vars, .. } => format!("DomainPad[{}]", vars.join(",")),
        PlanNode::Complement { .. } => "Complement".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(depth: usize, label: &str, wall_us: u64, rows: u64, counts: bool) -> OpSample {
        OpSample {
            depth,
            label: label.to_string(),
            wall_us,
            rows,
            estimated_rows: rows as f64,
            counts_intermediate: counts,
        }
    }

    #[test]
    fn self_times_subtract_direct_children_and_telescope() {
        let profile = OpProfile {
            ops: vec![
                sample(0, "Project[x]", 100, 2, true),
                sample(1, "JoinGroup(leaves=2)", 80, 4, false),
                sample(2, "Scan R(x,y)", 30, 3, false),
                sample(2, "Scan S(y,z)", 20, 2, false),
                sample(2, "HashJoin[x,y,z]", 25, 4, true),
            ],
            ..OpProfile::default()
        };
        assert_eq!(profile.root_wall_us(), 100);
        assert_eq!(profile.self_us(0), 20); // 100 - 80
        assert_eq!(profile.self_us(1), 5); // 80 - (30 + 20 + 25)
        assert_eq!(profile.self_us(2), 30); // leaves keep their own time
                                            // The self times telescope back to exactly the root's inclusive time.
        assert_eq!(profile.total_self_us(), 100);
        // Only the flagged samples reconcile with intermediate_rows.
        assert_eq!(profile.intermediate_rows(), 6);
    }

    #[test]
    fn clock_jitter_saturates_instead_of_underflowing() {
        let profile = OpProfile {
            ops: vec![
                sample(0, "Union(arms=2)", 10, 1, true),
                sample(1, "Unit", 12, 1, false),
            ],
            ..OpProfile::default()
        };
        assert_eq!(profile.self_us(0), 0);
        assert!(profile.total_self_us() >= profile.self_us(0));
    }

    #[test]
    fn render_is_one_line_with_depth_markers() {
        let profile = OpProfile {
            ops: vec![
                sample(0, "Project[x]", 7, 2, true),
                sample(1, "Scan R(x)", 3, 3, false),
            ],
            ..OpProfile::default()
        };
        let line = profile.render();
        assert_eq!(
            line,
            "Project[x] est=2 rows=2 us=7 | >Scan R(x) est=3 rows=3 us=3"
        );
        assert!(!line.contains('\n'));
        assert_eq!(OpProfile::default().render(), "");
    }
}
