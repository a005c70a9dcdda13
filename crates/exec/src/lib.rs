//! # `nev-exec` — compiled relational-algebra execution for the certified path
//!
//! The paper's headline (Figure 1) is that on guaranteed (semantics, fragment)
//! cells *one* naïve evaluation pass computes the certain answers. Making that pass
//! fast is a classical database problem, and this crate gives it the classical
//! database answer: compile the query **once** into a physical operator DAG and
//! execute it set-at-a-time over dictionary-encoded data, instead of walking the
//! formula tree per candidate tuple.
//!
//! * [`intern`] — per-instance `Value → u32` dictionaries (constants in the low
//!   codes) and column-major code batches for every relation;
//! * [`algebra`] — the operator DAG: indexed scan, selection, projection, hash
//!   join, anti-join, union, active-domain padding and complement;
//! * [`lower`] — the `Formula`/`Query` → algebra compiler (safe, active-domain
//!   faithful; `→`/`∀` eliminated via [`nev_logic::rewrite`]), with a cost guard
//!   that rejects wide complements so the engine can fall back to the interpreter;
//! * [`rules`], [`cost`], [`optimize`] — **`nev-opt`**, the two-stage plan
//!   optimiser: compile-time rewrite rules (projection pushdown, self-join
//!   deduplication, complement → anti-join, pad absorption, union flattening)
//!   plus an execution-time greedy join-order search seeded from real
//!   base-relation cardinalities;
//! * [`exec`] — the vectorised executor: column-major batches and
//!   allocation-free hash kernels in one sequential pass, with the
//!   [`ExecStats`] counter block (rows scanned, hash probes, index builds,
//!   fallbacks, rules fired, joins reordered);
//! * [`stats`] — the counters themselves;
//! * [`profile`] — the opt-in per-operator [`OpProfile`] collector behind the
//!   wire `PROFILE` command: inclusive wall time, output rows and the cost
//!   model's estimate for every executed operator (including each pairwise
//!   join fold in the cost-chosen order).
//!
//! The crate is semantics-complete over the executable core: for every query it
//! *accepts*, [`CompiledQuery::execute`] returns exactly
//! [`nev_logic::eval::evaluate_query`]'s answers, and exactly
//! [`nev_logic::eval::naive_eval_query`]'s under [`RunOptions::naive`] — the
//! differential property suite
//! in the workspace root (`tests/exec_equivalence.rs`) holds this equation under
//! seeded workloads across all five fragments.
//!
//! ```
//! use nev_exec::{CompiledQuery, RunOptions};
//! use nev_incomplete::builder::{c, x};
//! use nev_incomplete::inst;
//! use nev_logic::parse_query;
//!
//! let d = inst! {
//!     "R" => [[c(1), x(1)], [x(2), x(3)]],
//!     "S" => [[x(1), c(4)], [x(3), c(5)]],
//! };
//! let q = parse_query("Q(x, y) :- exists z . R(x, z) & S(z, y)")?;
//! let compiled = CompiledQuery::compile(&q).expect("a join pipeline compiles");
//! let out = compiled.execute(&d, &RunOptions::naive());
//! assert_eq!(out.answers.len(), 1); // {(1, 4)} — the paper's §1 answer
//! assert!(out.stats.hash_probes > 0);
//! # Ok::<(), nev_logic::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algebra;
pub mod cost;
pub mod exec;
pub mod intern;
pub mod lower;
pub mod optimize;
pub mod profile;
pub mod rules;
pub mod stats;

pub use algebra::{PlanNode, ScanTerm};
pub use exec::{ExecOutput, RunOptions};
pub use intern::{ColumnarRelation, Dictionary, InternedInstance};
pub use lower::{CompileError, CompiledQuery, CompilerConfig};
pub use optimize::greedy_join_order;
pub use profile::{OpProfile, OpSample};
pub use rules::RuleReport;
pub use stats::{ExecStats, ExecTimings};
