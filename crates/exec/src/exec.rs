//! Vectorised, set-at-a-time execution of compiled plans over interned instances.
//!
//! Intermediates are **column-major** `Batch`es — one flat `Vec<u32>` per
//! schema column plus a row count — so operators run as tight per-column loops
//! over dense code vectors instead of pushing one heap-allocated row at a time.
//! Hash keys are gathered into reusable buffers and looked up through
//! `Borrow<[u32]>`, so the probe loops of joins, anti-joins and dedup allocate
//! only when they *insert*. Sets appear exactly once, at the final
//! [`ExecOutput`] boundary, which keeps answers canonical (`BTreeSet`) without
//! paying ordered-set maintenance inside the pipeline.
//!
//! This is also where stage 2 of the `nev-opt` optimiser lives: join groups
//! (kept flat by the rule stage) are re-ordered **here**, per instance, by the
//! greedy cost-based search of [`crate::optimize`] seeded from the actual
//! base-relation cardinalities of the [`InternedInstance`] at hand. The chosen
//! order is memoised in the per-execution context, alongside the hash index
//! cache (keyed on interned relation *ids*, never cloned names), and an empty
//! intermediate short-circuits the rest of its group.
//!
//! # One sequential pass
//!
//! Every plan runs on the calling thread. The paper's payoff is that a
//! guaranteed Figure 1 cell is answered by one ordinary relational evaluation,
//! and at the sizes this system serves a single pass beats fanning scans and
//! joins out across threads (BENCH.md records the crossover measurement that
//! retired the parallel scan and join kernels). Inter-request parallelism and
//! the chunked world oracle live above this crate.

use std::collections::{BTreeSet, HashMap, HashSet};

use nev_incomplete::Tuple;
use nev_obs::Timer;

use crate::algebra::{flatten_join_refs, merge_schemas, PlanNode, ScanTerm};
use crate::cost;
use crate::intern::{ColumnarRelation, InternedInstance};
use crate::lower::CompiledQuery;
use crate::optimize::greedy_join_order;
use crate::profile::{op_label, OpProfile, OpSample};
use crate::stats::{ExecStats, ExecTimings};

/// The result of executing a compiled query on one instance.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ExecOutput {
    /// The answer tuples (Boolean queries use the `{()} / ∅` encoding).
    pub answers: BTreeSet<Tuple>,
    /// Execution counters for this pass.
    pub stats: ExecStats,
    /// Phase timings for this pass (always-equal telemetry).
    pub timings: ExecTimings,
    /// The per-operator profile, when [`RunOptions::profile`] asked for one.
    pub profile: Option<OpProfile>,
}

/// How one [`CompiledQuery::execute`] call runs. The default returns raw,
/// unprofiled answers.
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// Keep only the all-constant answers — **naïve evaluation**.
    pub naive: bool,
    /// Record an [`OpProfile`] of every executed operator (the wire `PROFILE`
    /// command). Answers and counters are the same either way.
    pub profile: bool,
}

impl RunOptions {
    /// Naïve evaluation, unprofiled.
    pub fn naive() -> Self {
        RunOptions {
            naive: true,
            ..RunOptions::default()
        }
    }
}

/// An intermediate binding relation, column-major: `cols[i][r]` is the code of
/// schema variable `i` in row `r`. The explicit `rows` count carries the
/// cardinality of zero-column (Boolean) batches, where `{()}` vs `∅` is the
/// whole answer.
struct Batch {
    schema: Vec<String>,
    cols: Vec<Vec<u32>>,
    rows: usize,
}

impl Batch {
    fn empty(schema: Vec<String>) -> Self {
        let cols = vec![Vec::new(); schema.len()];
        Batch {
            schema,
            cols,
            rows: 0,
        }
    }

    fn unit() -> Self {
        Batch {
            schema: Vec::new(),
            cols: Vec::new(),
            rows: 1,
        }
    }

    /// Gathers the key of row `r` over `positions` into `buf` (reused across rows).
    fn key_into(&self, r: usize, positions: &[usize], buf: &mut Vec<u32>) {
        buf.clear();
        buf.extend(positions.iter().map(|&p| self.cols[p][r]));
    }
}

/// A base-relation hash index: key codes (one per bound column) → row ids.
type RelationIndex = HashMap<Vec<u32>, Vec<usize>>;

/// Per-execution state: the interned instance, the counters, the cache of base
/// hash indexes keyed on (relation id, bound column positions) — shared by every
/// scan of the same relation with the same bound shape (e.g. self-joins) — and
/// the memoised cost-based join orders.
struct ExecContext<'a> {
    inst: &'a InternedInstance,
    stats: ExecStats,
    timings: ExecTimings,
    indexes: HashMap<u32, HashMap<Vec<usize>, RelationIndex>>,
    /// Keyed on the group node's address within the plan: the plan outlives the
    /// context, so an address identifies one group node for the whole
    /// execution. Structurally identical groups at different addresses decide
    /// their (identical, deterministic) order independently — a cheap repeat
    /// instead of a deep `PlanNode` clone per cache key.
    join_orders: HashMap<usize, Vec<usize>>,
    /// Stage-2 cost-based reordering enabled (`CompilerConfig::optimize`).
    reorder: bool,
    /// `Some` when this execution records a per-operator profile (the wire
    /// `PROFILE` command). `None` — the default — keeps every probe point to a
    /// single branch, so unprofiled runs are untouched.
    profile: Option<OpProfile>,
    /// Current operator nesting depth of the profiled recursion.
    profile_depth: usize,
}

impl<'a> ExecContext<'a> {
    fn new(inst: &'a InternedInstance, reorder: bool) -> Self {
        ExecContext {
            inst,
            stats: ExecStats::new(),
            timings: ExecTimings::default(),
            indexes: HashMap::new(),
            join_orders: HashMap::new(),
            reorder,
            profile: None,
            profile_depth: 0,
        }
    }

    /// The execution order for one flattened join group, decided by the greedy
    /// cost-based search on this instance's real cardinalities and memoised per
    /// group node. `joins_reordered` is bumped when the decision (not each
    /// reuse) deviates from the written order.
    fn join_order(&mut self, group: &PlanNode, leaves: &[&PlanNode]) -> Vec<usize> {
        if !self.reorder {
            return (0..leaves.len()).collect();
        }
        let key = group as *const PlanNode as usize;
        if let Some(order) = self.join_orders.get(&key) {
            return order.clone();
        }
        let schemas: Vec<Vec<String>> = leaves.iter().map(|l| l.schema()).collect();
        let estimates: Vec<f64> = leaves
            .iter()
            .map(|l| cost::estimate(l, self.inst))
            .collect();
        let adom = (self.inst.dictionary().len() as f64).max(1.0);
        let order = greedy_join_order(&schemas, &estimates, adom);
        if order.iter().enumerate().any(|(pos, &i)| pos != i) {
            self.stats.joins_reordered += 1;
        }
        self.join_orders.insert(key, order.clone());
        order
    }

    /// Rows of `rel` (interned id `id`) whose `cols` hold exactly `key`, via a
    /// cached hash index. Lookups borrow `cols` as a slice — no key is cloned
    /// unless the index is actually built.
    fn probe_index(
        &mut self,
        id: u32,
        rel: &ColumnarRelation,
        cols: &[usize],
        key: &[u32],
    ) -> Vec<usize> {
        let per_relation = self.indexes.entry(id).or_default();
        if !per_relation.contains_key(cols) {
            let mut index: RelationIndex = HashMap::new();
            let mut k: Vec<u32> = Vec::with_capacity(cols.len());
            for r in 0..rel.len() {
                k.clear();
                k.extend(cols.iter().map(|&c| rel.col(c)[r]));
                match index.get_mut(k.as_slice()) {
                    Some(rows) => rows.push(r),
                    None => {
                        index.insert(k.clone(), vec![r]);
                    }
                }
            }
            self.stats.index_builds += 1;
            self.stats.rows_scanned += rel.len() as u64;
            per_relation.insert(cols.to_vec(), index);
        }
        self.stats.hash_probes += 1;
        self.indexes[&id][cols]
            .get(key)
            .cloned()
            .unwrap_or_default()
    }
}

/// Evaluates one plan node, recording a pre-order [`OpSample`] around the
/// operator when this execution is profiled. The default (unprofiled) path is
/// one `Option` check and otherwise identical to calling [`eval_node`]
/// directly — profiling can never change answers, stats or served bytes.
fn eval(node: &PlanNode, ctx: &mut ExecContext<'_>) -> Batch {
    if ctx.profile.is_none() {
        return eval_node(node, ctx);
    }
    let estimated_rows = cost::estimate(node, ctx.inst);
    let depth = ctx.profile_depth;
    let index = {
        let profile = ctx.profile.as_mut().expect("profiled execution");
        profile.ops.push(OpSample {
            depth,
            label: op_label(node),
            wall_us: 0,
            rows: 0,
            estimated_rows,
            counts_intermediate: false,
        });
        profile.ops.len() - 1
    };
    ctx.profile_depth = depth + 1;
    let timer = Timer::start();
    let batch = eval_node(node, ctx);
    let wall_us = timer.elapsed_us();
    ctx.profile_depth = depth;
    let counts_intermediate = counted_as_intermediate(node, &batch);
    let profile = ctx.profile.as_mut().expect("profiled execution");
    let op = &mut profile.ops[index];
    op.wall_us = wall_us;
    op.rows = batch.rows as u64;
    op.counts_intermediate = counts_intermediate;
    batch
}

/// Whether the node's output rows are one of the increments summed into
/// [`ExecStats::intermediate_rows`]. `Join` groups are excluded here because
/// their pairwise folds are recorded (and flagged) as separate `HashJoin`
/// samples by [`eval_join_group`]; a Boolean complement short-circuits before
/// the counter and is likewise excluded.
fn counted_as_intermediate(node: &PlanNode, batch: &Batch) -> bool {
    match node {
        PlanNode::AdomEq { .. }
        | PlanNode::Union { .. }
        | PlanNode::Project { .. }
        | PlanNode::AntiJoin { .. }
        | PlanNode::DomainPad { .. } => true,
        PlanNode::Complement { .. } => !batch.schema.is_empty(),
        _ => false,
    }
}

fn eval_node(node: &PlanNode, ctx: &mut ExecContext<'_>) -> Batch {
    match node {
        PlanNode::Scan {
            relation,
            pattern,
            schema,
        } => {
            let timer = Timer::start();
            let batch = eval_scan(relation, pattern, schema, ctx);
            ctx.timings.scans += 1;
            ctx.timings.scan_us += timer.elapsed_us();
            batch
        }
        PlanNode::Unit => Batch::unit(),
        PlanNode::Empty { schema } => Batch::empty(schema.clone()),
        PlanNode::AdomConst { var, value } => {
            let (cols, rows) = match ctx.inst.dictionary().code(value) {
                Some(code) => (vec![vec![code]], 1),
                None => (vec![Vec::new()], 0),
            };
            Batch {
                schema: vec![var.clone()],
                cols,
                rows,
            }
        }
        PlanNode::AdomEq { vars } => {
            let n = ctx.inst.dictionary().len() as u32;
            ctx.stats.intermediate_rows += u64::from(n);
            let column: Vec<u32> = (0..n).collect();
            Batch {
                schema: vars.to_vec(),
                cols: vec![column.clone(), column],
                rows: n as usize,
            }
        }
        PlanNode::Join { .. } => eval_join_group(node, ctx),
        PlanNode::AntiJoin { left, right } => {
            let l = eval(left, ctx);
            let r = eval(right, ctx);
            eval_anti_join(l, r, ctx)
        }
        PlanNode::Union { inputs } => {
            let mut out: Option<Batch> = None;
            let mut seen: HashSet<Vec<u32>> = HashSet::new();
            let mut key: Vec<u32> = Vec::new();
            for input in inputs {
                let b = eval(input, ctx);
                let acc = out.get_or_insert_with(|| Batch::empty(b.schema.clone()));
                let all: Vec<usize> = (0..b.cols.len()).collect();
                for r in 0..b.rows {
                    b.key_into(r, &all, &mut key);
                    if !seen.contains(key.as_slice()) {
                        seen.insert(key.clone());
                        for (ci, col) in acc.cols.iter_mut().enumerate() {
                            col.push(b.cols[ci][r]);
                        }
                        acc.rows += 1;
                    }
                }
            }
            let out = out.unwrap_or_else(|| Batch::empty(Vec::new()));
            ctx.stats.intermediate_rows += out.rows as u64;
            out
        }
        PlanNode::Project { input, keep } => {
            let b = eval(input, ctx);
            let positions: Vec<usize> = keep
                .iter()
                .map(|v| {
                    b.schema
                        .binary_search(v)
                        .expect("projection keeps schema columns")
                })
                .collect();
            let mut out = Batch::empty(keep.clone());
            let mut seen: HashSet<Vec<u32>> = HashSet::new();
            let mut key: Vec<u32> = Vec::with_capacity(positions.len());
            for r in 0..b.rows {
                b.key_into(r, &positions, &mut key);
                if !seen.contains(key.as_slice()) {
                    seen.insert(key.clone());
                    for (ci, &p) in positions.iter().enumerate() {
                        out.cols[ci].push(b.cols[p][r]);
                    }
                    out.rows += 1;
                }
            }
            ctx.stats.intermediate_rows += out.rows as u64;
            out
        }
        PlanNode::DomainPad { input, vars } => {
            let b = eval(input, ctx);
            eval_domain_pad(b, vars, ctx)
        }
        PlanNode::Complement { input } => {
            let b = eval(input, ctx);
            eval_complement(b, ctx)
        }
    }
}

/// Evaluates one flattened join group in the cost-chosen order, folding joins
/// pairwise and short-circuiting to an empty batch (over the group's full
/// schema) as soon as the accumulator empties — unevaluated members cannot
/// resurrect an empty join.
///
/// When profiled, every pairwise fold records a `HashJoin[schema]` sample at
/// the leaves' depth: actual fold output rows against the running
/// [`cost::join_estimate`] in the chosen order — the estimated-vs-actual
/// feedback that shows where the greedy reorder's guesses drift.
fn eval_join_group(group: &PlanNode, ctx: &mut ExecContext<'_>) -> Batch {
    let mut leaves = Vec::new();
    flatten_join_refs(group, &mut leaves);
    let order = ctx.join_order(group, &leaves);
    let full_schema = leaves
        .iter()
        .fold(Vec::new(), |acc, l| merge_schemas(&acc, &l.schema()));
    let profiled = ctx.profile.is_some();
    let adom = if profiled {
        (ctx.inst.dictionary().len() as f64).max(1.0)
    } else {
        1.0
    };
    let mut est_acc = 0.0f64;
    let mut acc: Option<Batch> = None;
    for &i in &order {
        if let Some(batch) = &acc {
            if batch.rows == 0 {
                return Batch::empty(full_schema);
            }
        }
        let leaf_est = if profiled {
            cost::estimate(leaves[i], ctx.inst)
        } else {
            0.0
        };
        let next = eval(leaves[i], ctx);
        acc = Some(match acc {
            None => {
                est_acc = leaf_est;
                next
            }
            Some(prev) => {
                let fold_est =
                    cost::join_estimate(est_acc, &prev.schema, leaf_est, &leaves[i].schema(), adom);
                let timer = profiled.then(Timer::start);
                let joined = eval_join(prev, next, ctx);
                if let Some(timer) = timer {
                    let depth = ctx.profile_depth;
                    let profile = ctx.profile.as_mut().expect("profiled execution");
                    profile.ops.push(OpSample {
                        depth,
                        label: format!("HashJoin[{}]", joined.schema.join(",")),
                        wall_us: timer.elapsed_us(),
                        rows: joined.rows as u64,
                        estimated_rows: fold_est,
                        counts_intermediate: true,
                    });
                }
                est_acc = fold_est;
                joined
            }
        });
    }
    acc.expect("a join group has at least two members")
}

fn eval_scan(
    relation: &str,
    pattern: &[ScanTerm],
    schema: &[String],
    ctx: &mut ExecContext<'_>,
) -> Batch {
    let Some(id) = ctx.inst.relation_id(relation) else {
        return Batch::empty(schema.to_vec());
    };
    let rel = ctx.inst.relation_by_id(id);
    if rel.arity() != pattern.len() {
        // A same-named relation of a different arity never matches the atom —
        // exactly the interpreter's `contains` behaviour.
        return Batch::empty(schema.to_vec());
    }
    // Resolve constant positions to codes; a constant absent from the instance
    // makes the whole selection empty.
    let mut bound_cols = Vec::new();
    let mut bound_codes = Vec::new();
    let mut first_occurrence: HashMap<&str, usize> = HashMap::new();
    let mut eq_checks = Vec::new();
    for (i, t) in pattern.iter().enumerate() {
        match t {
            ScanTerm::Const(v) => match ctx.inst.dictionary().code(v) {
                Some(code) => {
                    bound_cols.push(i);
                    bound_codes.push(code);
                }
                None => return Batch::empty(schema.to_vec()),
            },
            ScanTerm::Var(v) => match first_occurrence.get(v.as_str()) {
                Some(&f) => eq_checks.push((f, i)),
                None => {
                    first_occurrence.insert(v, i);
                }
            },
        }
    }
    let out_positions: Vec<usize> = schema
        .iter()
        .map(|v| first_occurrence[v.as_str()])
        .collect();
    // Filter by the repeated-variable equality checks and gather the output
    // columns: over every row of a full scan, over the index's candidates
    // when constants bind some columns.
    let mut out = Batch::empty(schema.to_vec());
    let mut gather = |r: usize| {
        if eq_checks
            .iter()
            .all(|&(a, b)| rel.col(a)[r] == rel.col(b)[r])
        {
            for (ci, &p) in out_positions.iter().enumerate() {
                out.cols[ci].push(rel.col(p)[r]);
            }
            out.rows += 1;
        }
    };
    if bound_cols.is_empty() {
        ctx.stats.rows_scanned += rel.len() as u64;
        (0..rel.len()).for_each(&mut gather);
    } else {
        ctx.probe_index(id, rel, &bound_cols, &bound_codes)
            .into_iter()
            .for_each(&mut gather);
    }
    out
}

fn eval_join(l: Batch, r: Batch, ctx: &mut ExecContext<'_>) -> Batch {
    let schema = merge_schemas(&l.schema, &r.schema);
    // Shared variables and their positions on each side.
    let shared_vars: Vec<&String> = l
        .schema
        .iter()
        .filter(|v| r.schema.binary_search(v).is_ok())
        .collect();
    let lkey: Vec<usize> = shared_vars
        .iter()
        .map(|v| l.schema.binary_search(v).expect("shared"))
        .collect();
    let rkey: Vec<usize> = shared_vars
        .iter()
        .map(|v| r.schema.binary_search(v).expect("shared"))
        .collect();
    // For every output column, where it comes from: `(from_left, position)` —
    // left wins on shared columns.
    let sources: Vec<(bool, usize)> = schema
        .iter()
        .map(|v| match l.schema.binary_search(v) {
            Ok(p) => (true, p),
            Err(_) => (false, r.schema.binary_search(v).expect("from one side")),
        })
        .collect();
    // Build on the smaller side, probe with the larger.
    let build_left = l.rows <= r.rows;
    let (build_key, probe_key) = if build_left {
        (lkey, rkey)
    } else {
        (rkey, lkey)
    };
    let (build, probe) = if build_left { (&l, &r) } else { (&r, &l) };
    ctx.stats.hash_probes += probe.rows as u64;
    let build_timer = Timer::start();
    let mut table: HashMap<Vec<u32>, Vec<usize>> = HashMap::with_capacity(build.rows);
    let mut key: Vec<u32> = Vec::with_capacity(build_key.len());
    for i in 0..build.rows {
        build.key_into(i, &build_key, &mut key);
        match table.get_mut(key.as_slice()) {
            Some(rows) => rows.push(i),
            None => {
                table.insert(key.clone(), vec![i]);
            }
        }
    }
    ctx.timings.join_builds += 1;
    ctx.timings.join_build_us += build_timer.elapsed_us();
    let probe_timer = Timer::start();
    let mut cols: Vec<Vec<u32>> = vec![Vec::new(); sources.len()];
    let mut rows = 0usize;
    for prow in 0..probe.rows {
        probe.key_into(prow, &probe_key, &mut key);
        let Some(matches) = table.get(key.as_slice()) else {
            continue;
        };
        for &b in matches {
            let (li, ri) = if build_left { (b, prow) } else { (prow, b) };
            for (ci, &(from_left, p)) in sources.iter().enumerate() {
                cols[ci].push(if from_left {
                    l.cols[p][li]
                } else {
                    r.cols[p][ri]
                });
            }
            rows += 1;
        }
    }
    ctx.timings.join_probes += 1;
    ctx.timings.join_probe_us += probe_timer.elapsed_us();
    ctx.stats.intermediate_rows += rows as u64;
    Batch { schema, cols, rows }
}

fn eval_anti_join(l: Batch, r: Batch, ctx: &mut ExecContext<'_>) -> Batch {
    // The lowering guarantees r.schema ⊆ l.schema.
    let positions: Vec<usize> = r
        .schema
        .iter()
        .map(|v| l.schema.binary_search(v).expect("anti-join schema subset"))
        .collect();
    let all_r: Vec<usize> = (0..r.cols.len()).collect();
    let mut exclude: HashSet<Vec<u32>> = HashSet::with_capacity(r.rows);
    let mut key: Vec<u32> = Vec::with_capacity(all_r.len());
    for i in 0..r.rows {
        r.key_into(i, &all_r, &mut key);
        if !exclude.contains(key.as_slice()) {
            exclude.insert(key.clone());
        }
    }
    ctx.stats.hash_probes += l.rows as u64;
    let mut out = Batch::empty(l.schema.clone());
    for i in 0..l.rows {
        l.key_into(i, &positions, &mut key);
        if !exclude.contains(key.as_slice()) {
            for (ci, col) in out.cols.iter_mut().enumerate() {
                col.push(l.cols[ci][i]);
            }
            out.rows += 1;
        }
    }
    ctx.stats.intermediate_rows += out.rows as u64;
    out
}

fn eval_domain_pad(b: Batch, vars: &[String], ctx: &mut ExecContext<'_>) -> Batch {
    let mut sorted_vars: Vec<String> = vars.to_vec();
    sorted_vars.sort();
    let schema = merge_schemas(&b.schema, &sorted_vars);
    let n = ctx.inst.dictionary().len();
    if n == 0 {
        return Batch::empty(schema);
    }
    enum Src {
        Input(usize),
        Pad(usize),
    }
    let sources: Vec<Src> = schema
        .iter()
        .map(|v| match b.schema.binary_search(v) {
            Ok(p) => Src::Input(p),
            Err(_) => Src::Pad(sorted_vars.binary_search(v).expect("padded")),
        })
        .collect();
    let k = sorted_vars.len();
    // Each input row expands into adom^k padded rows; pad column `p` cycles
    // with period n^(p+1) (position 0 fastest), matching the little-endian
    // odometer the row-at-a-time executor ran. Every output column is filled
    // with one arithmetic loop — no per-row materialisation.
    let reps = n
        .checked_pow(k as u32)
        .expect("domain pad cardinality overflows usize");
    let total = b.rows * reps;
    let mut cols: Vec<Vec<u32>> = Vec::with_capacity(sources.len());
    for src in &sources {
        let mut col: Vec<u32> = Vec::with_capacity(total);
        match src {
            Src::Input(p) => {
                for i in 0..b.rows {
                    let v = b.cols[*p][i];
                    col.resize(col.len() + reps, v);
                }
            }
            Src::Pad(p) => {
                let stride = n.pow(*p as u32);
                for _ in 0..b.rows {
                    for j in 0..reps {
                        col.push(((j / stride) % n) as u32);
                    }
                }
            }
        }
        cols.push(col);
    }
    ctx.stats.intermediate_rows += total as u64;
    Batch {
        schema,
        cols,
        rows: total,
    }
}

fn eval_complement(b: Batch, ctx: &mut ExecContext<'_>) -> Batch {
    let k = b.schema.len();
    if k == 0 {
        // Boolean negation under the {()} / ∅ encoding.
        let rows = usize::from(b.rows == 0);
        return Batch {
            schema: b.schema,
            cols: b.cols,
            rows,
        };
    }
    let n = ctx.inst.dictionary().len();
    let all: Vec<usize> = (0..k).collect();
    let mut present: HashSet<Vec<u32>> = HashSet::with_capacity(b.rows);
    let mut key: Vec<u32> = Vec::with_capacity(k);
    for i in 0..b.rows {
        b.key_into(i, &all, &mut key);
        if !present.contains(key.as_slice()) {
            present.insert(key.clone());
        }
    }
    let mut out = Batch::empty(b.schema);
    if n > 0 {
        let total = n
            .checked_pow(k as u32)
            .expect("complement cardinality overflows usize");
        let mut current = vec![0u32; k];
        for _ in 0..total {
            if !present.contains(current.as_slice()) {
                for (ci, &v) in current.iter().enumerate() {
                    out.cols[ci].push(v);
                }
                out.rows += 1;
            }
            // Advance the little-endian odometer over adom^k.
            for value in current.iter_mut() {
                *value += 1;
                if (*value as usize) < n {
                    break;
                }
                *value = 0;
            }
        }
    }
    ctx.stats.intermediate_rows += out.rows as u64;
    out
}

impl CompiledQuery {
    /// Executes the plan on an interned instance under `options`: raw answers
    /// (nulls included, like [`nev_logic::eval::evaluate_query`]) or naïve ones
    /// (all-constant rows only, like [`nev_logic::eval::naive_eval_query`] — the
    /// "discard tuples with nulls" half of naïve evaluation, one integer
    /// comparison per position), optionally with a per-operator [`OpProfile`].
    ///
    /// The instance is taken interned so that a caller evaluating the same
    /// data repeatedly interns it once; a caller holding a plain
    /// [`nev_incomplete::Instance`] interns it with [`InternedInstance::new`].
    pub fn execute(&self, inst: &InternedInstance, options: &RunOptions) -> ExecOutput {
        let wall = options.profile.then(Timer::start);
        let mut ctx = ExecContext::new(inst, self.reorder);
        ctx.profile = options.profile.then(OpProfile::default);
        // Replay the compile-time rule count and the root cardinality estimate
        // into this execution's telemetry (`as` saturates, never panics).
        ctx.stats.rules_fired = self.rules.total();
        ctx.stats.estimated_rows = cost::estimate(&self.plan, inst) as u64;
        let batch = eval(&self.plan, &mut ctx);
        debug_assert_eq!(batch.schema, self.schema, "plan schema must match");
        let dict = inst.dictionary();
        let mut answers = BTreeSet::new();
        for r in 0..batch.rows {
            if options.naive && !batch.cols.iter().all(|col| dict.is_const(col[r])) {
                continue;
            }
            let tuple: Tuple = self
                .output_positions
                .iter()
                .map(|&p| dict.value(batch.cols[p][r]).clone())
                .collect();
            answers.insert(tuple);
        }
        if let (Some(profile), Some(wall)) = (ctx.profile.as_mut(), wall) {
            profile.exec_us = wall.elapsed_us();
        }
        ExecOutput {
            answers,
            stats: ctx.stats,
            timings: ctx.timings,
            profile: ctx.profile,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nev_incomplete::builder::{c, x};
    use nev_incomplete::{inst, Instance};
    use nev_logic::eval::{evaluate_query, naive_eval_query};
    use nev_logic::parse_query;

    fn check(text: &str, d: &Instance) -> ExecOutput {
        let q = parse_query(text).expect("valid query");
        let compiled = CompiledQuery::compile(&q).expect("compiles");
        let out = compiled.execute(&InternedInstance::new(d), &RunOptions::default());
        assert_eq!(out.answers, evaluate_query(d, &q), "raw answers on {text}");
        let naive = compiled.execute(&InternedInstance::new(d), &RunOptions::naive());
        assert_eq!(
            naive.answers,
            naive_eval_query(d, &q),
            "naive answers on {text}"
        );
        out
    }

    fn intro() -> Instance {
        inst! {
            "R" => [[c(1), x(1)], [x(2), x(3)]],
            "S" => [[x(1), c(4)], [x(3), c(5)]],
        }
    }

    #[test]
    fn intro_join_matches_the_interpreter() {
        let out = check("Q(x, y) :- exists z . R(x, z) & S(z, y)", &intro());
        assert_eq!(out.answers.len(), 2);
        assert!(out.stats.rows_scanned > 0);
        assert!(out.stats.hash_probes > 0);
    }

    #[test]
    fn constants_in_atoms_use_the_index() {
        let d = inst! { "R" => [[c(1), c(2)], [c(1), c(3)], [c(2), c(3)]] };
        let out = check("Q(u) :- R(1, u)", &d);
        assert_eq!(out.answers.len(), 2);
        assert_eq!(out.stats.index_builds, 1);
        assert!(out.stats.hash_probes >= 1);
    }

    #[test]
    fn self_joins_share_one_index() {
        let d = inst! { "R" => [[c(1), c(2)], [c(2), c(3)]] };
        // Two scans of R bound on column 0 share the cached index.
        let out = check("Q(u) :- exists v . R(1, v) & R(2, u)", &d);
        assert_eq!(out.stats.index_builds, 1);
    }

    #[test]
    fn repeated_variables_select_within_rows() {
        let d = inst! { "R" => [[c(1), c(1)], [c(1), c(2)], [x(1), x(1)]] };
        let out = check("Q(u) :- R(u, u)", &d);
        assert_eq!(out.answers.len(), 2);
    }

    #[test]
    fn negation_forall_and_equality_match_the_interpreter() {
        let d0 = inst! { "D" => [[x(1), x(2)], [x(2), x(1)]] };
        let loops = inst! { "D" => [[x(1), x(1)], [x(1), x(2)]] };
        for d in [&d0, &loops, &Instance::new()] {
            check("forall u . exists v . D(u, v)", d);
            check("exists u . !D(u, u)", d);
            check("forall u v . D(u, v) -> D(v, u)", d);
            check("Q(u) :- exists v . D(u, v) & !D(v, u)", d);
            check("exists u v . D(u, v) & u = v", d);
            check("exists u . D(u, u) & u = 1", d);
        }
    }

    #[test]
    fn empty_instances_and_missing_relations() {
        let empty = Instance::new();
        check("exists u . T(u)", &empty);
        check("Q(u) :- T(u)", &empty);
        check("forall u . T(u)", &empty);
        let d = inst! { "R" => [[c(1)]] };
        check("exists u . T(u)", &d);
        // A constant absent from the instance: empty selection, not an error.
        check("exists u . R(9)", &d);
    }

    #[test]
    fn answer_variables_absent_from_the_formula_range_over_adom() {
        let d = inst! { "R" => [[c(1)], [c(2)]] };
        let out = check("Q(u, v) :- R(u)", &d);
        assert_eq!(out.answers.len(), 4);
    }

    #[test]
    fn boolean_encoding_round_trips() {
        let d = inst! { "R" => [[c(1)]] };
        let t = check("exists u . R(u)", &d);
        assert_eq!(t.answers.len(), 1);
        let f = check("exists u . S(u)", &d);
        assert!(f.answers.is_empty());
    }

    /// A join-chain workload of `rows` rows per relation.
    fn chain_instance(rows: usize) -> Instance {
        let mut d = Instance::new();
        for i in 0..rows {
            let a = c((i % 17) as i64);
            let b = c((i % 13) as i64);
            d.add_tuple("R", vec![a.clone(), b.clone()]).unwrap();
            d.add_tuple("S", vec![b, c((i % 7) as i64)]).unwrap();
        }
        d
    }

    #[test]
    fn profiled_runs_match_unprofiled_and_reconcile_accounting() {
        let d = chain_instance(300);
        let q = parse_query("Q(u, w) :- exists v . R(u, v) & S(v, w)").expect("valid query");
        let compiled = CompiledQuery::compile(&q).expect("compiles");
        let interned = InternedInstance::new(&d);
        let plain = compiled.execute(&interned, &RunOptions::naive());
        let out = compiled.execute(
            &interned,
            &RunOptions {
                profile: true,
                ..RunOptions::naive()
            },
        );
        let profile = out
            .profile
            .clone()
            .expect("a profiled run returns its profile");
        // Profiling changes nothing about the evaluation itself.
        assert_eq!(out.answers, plain.answers);
        assert_eq!(out.stats, plain.stats);
        // Every executed operator was sampled: the join group, its leaves and
        // the pairwise fold, each with a cost-model estimate attached.
        assert!(profile
            .ops
            .iter()
            .any(|op| op.label.starts_with("JoinGroup")));
        assert!(profile.ops.iter().any(|op| op.label.starts_with("Scan R")));
        assert!(profile
            .ops
            .iter()
            .any(|op| op.label.starts_with("HashJoin[")));
        assert!(profile.ops.iter().all(|op| op.estimated_rows >= 0.0));
        // The flagged samples reconcile exactly with the executor's own
        // intermediate-row counter, and the per-operator self times telescope
        // to the root's inclusive wall time (children nest inside parents on
        // one monotone clock, so no saturation can fire).
        assert_eq!(profile.intermediate_rows(), out.stats.intermediate_rows);
        assert_eq!(profile.total_self_us(), profile.root_wall_us());
        assert!(!profile.render().contains('\n'));
    }

    #[test]
    fn timings_populate_scan_and_join_phases_when_enabled() {
        let d = chain_instance(300);
        let q = parse_query("Q(u, w) :- exists v . R(u, v) & S(v, w)").expect("valid query");
        let compiled = CompiledQuery::compile(&q).expect("compiles");
        let out = compiled.execute(&InternedInstance::new(&d), &RunOptions::naive());
        // The phase counts do not depend on the clock: two scans, one join.
        let t = out.timings;
        assert_eq!((t.scans, t.join_builds, t.join_probes), (2, 1, 1));
        // A scan and a hash join ran: their phases were measured. (µs clocks
        // can legitimately read 0 on a fast pass, so nothing is asserted
        // about the values here.)
        let _ = out.timings.total_us();
        // Timings never affect output equality — the run-to-run equality
        // pins across the workspace rely on this.
        let again = compiled.execute(&InternedInstance::new(&d), &RunOptions::naive());
        assert_eq!(out, again);
    }
}
