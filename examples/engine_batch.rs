//! Batched certain-answer evaluation with the `CertainEngine`.
//!
//! ```text
//! cargo run --example engine_batch
//! ```
//!
//! A workload of queries over one incomplete database, answered three ways:
//! per-query bounded oracle passes, per-query engine dispatch (certified naïve where
//! Figure 1 allows), and `evaluate_all` — which enumerates the instance's possible
//! worlds **at most once** and folds every remaining per-query intersection into
//! that single pass.

use nev_core::engine::{CertainEngine, EngineError, PreparedQuery};
use nev_core::{Semantics, Snapshot};
use nev_incomplete::builder::x;
use nev_incomplete::inst;

fn main() -> Result<(), EngineError> {
    // D0 = {(⊥,⊥′),(⊥′,⊥)} from §2.3 of the paper.
    let d0 = inst! { "D" => [[x(1), x(2)], [x(2), x(1)]] };
    println!("Incomplete database D0:\n{d0}\n");

    let engine = CertainEngine::new();
    // All queries are constant-free, so the batch's shared (merged-constants) world
    // pass visits exactly the worlds each solo evaluation would — see the
    // `evaluate_all` docs for what changes when queries mention constants.
    let queries: Vec<PreparedQuery> = [
        "exists u v . D(u, v) & D(v, u)",  // ∃Pos: certified everywhere
        "exists u . D(u, u)",              // ∃Pos: certified everywhere
        "forall u . exists v . D(u, v)",   // Pos: needs the oracle under OWA
        "forall u v . D(u, v) -> D(v, u)", // guarded: needs the oracle under OWA
        "exists u . !D(u, u)",             // FO: never certified
    ]
    .into_iter()
    .map(|text| engine.prepare(text))
    .collect::<Result<_, _>>()?;

    for semantics in [Semantics::Owa, Semantics::Cwa] {
        println!("== {} ==", semantics.short_name());
        let batch = engine.evaluate_all(&Snapshot::new(&d0), semantics, &queries);
        println!(
            "batch: {} queries, {} enumeration pass(es), {} worlds visited",
            queries.len(),
            batch.enumeration_passes,
            batch.worlds_enumerated
        );
        let mut solo_worlds = 0usize;
        for (query, result) in queries.iter().zip(&batch.results) {
            let solo = engine.compare(&d0, semantics, query);
            solo_worlds += solo.worlds_enumerated;
            println!(
                "  [{}] {:<42} plan = {:<17} certain = {}",
                query.fragment(),
                query.query().to_string(),
                if result.plan.is_certified() {
                    "certified naive"
                } else {
                    "bounded (shared)"
                },
                if result.is_certainly_true() {
                    "true"
                } else {
                    "false"
                },
            );
        }
        println!(
            "sequential oracle passes would have visited {solo_worlds} worlds; \
             the batch visited {}\n",
            batch.worlds_enumerated
        );
        assert!(batch.enumeration_passes <= 1);
        assert!(batch.worlds_enumerated <= solo_worlds);
    }

    println!("Figure 1 as a dispatch table: guaranteed cells answer in one naive pass,");
    println!("everything else shares a single possible-world enumeration.");
    Ok(())
}
