//! # `naive-eval` — umbrella crate for the PODS 2013 reproduction
//!
//! This workspace reproduces Gheerbrant, Libkin and Sirangelo's *"When is Naïve
//! Evaluation Possible?"* (PODS 2013). The umbrella crate re-exports every layer so
//! the whole system can be browsed from one documentation root, and it owns the
//! root-level integration tests (`tests/`) and worked examples (`examples/`).
//!
//! The layers, bottom to top:
//!
//! * [`obs`] — zero-dependency observability: log-bucketed latency histograms,
//!   RAII stage spans and per-request traces, the metrics registry behind the
//!   wire `METRICS`/`TRACE` commands;
//! * [`incomplete`] — incomplete databases with labelled nulls (naïve and Codd
//!   tables), orderings on tuples and instances;
//! * [`hom`] — homomorphisms, valuations, minimality, cores and isomorphism;
//! * [`logic`] — first-order queries, syntactic fragments, naïve evaluation;
//! * [`exec`] — the compiled relational-algebra execution engine behind the
//!   certified naïve path (interned codes, hash joins, `ExecStats`);
//! * [`core`] — the paper's semantics of incompleteness, certain answers,
//!   semantic orderings, update systems and the Figure 1 summary;
//! * [`gen`] — seeded random instance and formula generators;
//! * [`sql`] — SQL-style three-valued logic (the motivating paradox);
//! * [`serve`] — the concurrent certain-answer service: shared catalog, plan
//!   cache, Figure 1 request handlers, and the `nevd` line-protocol server with
//!   its `nevload` load generator;
//! * [`mod@bench`] — the experiment harness behind the `figure1` binary and the
//!   Criterion benchmarks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use nev_bench as bench;
pub use nev_core as core;
pub use nev_exec as exec;
pub use nev_gen as gen;
pub use nev_hom as hom;
pub use nev_incomplete as incomplete;
pub use nev_logic as logic;
pub use nev_obs as obs;
pub use nev_serve as serve;
pub use nev_sql as sql;
