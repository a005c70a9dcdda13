//! # `nev-logic` — first-order queries over incomplete databases
//!
//! This crate provides the query-language layer of the `naive-eval` workspace:
//!
//! * [`ast`] — the abstract syntax of relational first-order logic (with equality and
//!   a primitive implication connective used for the *universal guards* of §5);
//! * [`parser`] — a small text syntax for formulas, used by tests, examples and the
//!   experiment harness;
//! * [`fragment`] — the syntactic fragments of the paper: `∃Pos` (unions of
//!   conjunctive queries), `Pos`, `Pos+∀G` and `∃Pos+∀G_bool` (§5, §7);
//! * [`eval`] — active-domain evaluation of FO formulas over (possibly incomplete)
//!   instances, treating nulls as ordinary values, and **naïve evaluation** (§2.4):
//!   evaluate, then discard answer tuples containing nulls;
//! * [`query`] — k-ary queries (a formula plus an ordered tuple of free variables);
//! * [`cq`] — conjunctive queries and unions of conjunctive queries as first-class
//!   data, their canonical (frozen) instances, and evaluation by homomorphism;
//! * [`rewrite`] — semantics-preserving rewrites into the executable core
//!   (`→` elimination, `∀x̄ ψ ⇒ ¬∃x̄ ν(ψ)` with the negation pushed into the
//!   body) used by the `nev-exec` compiler.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod cq;
pub mod eval;
pub mod fragment;
pub mod parser;
pub mod query;
pub mod rewrite;

pub use ast::{Formula, Term};
pub use eval::{evaluate_boolean, evaluate_query, naive_eval_boolean, naive_eval_query};
pub use fragment::{Fragment, ParseFragmentError};
pub use parser::{parse_formula, parse_query, ParseError};
pub use query::Query;
