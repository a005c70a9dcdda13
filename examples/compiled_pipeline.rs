//! The compiled execution pipeline: from query text to a relational-algebra plan
//! to hash-join execution, with the interpreter as differential baseline.
//!
//! ```text
//! cargo run --example compiled_pipeline
//! ```
//!
//! Shows the whole `nev-exec` path on the seeded join workload: the physical plan
//! (EXPLAIN-style), the execution telemetry (`ExecStats`), the answer-identity
//! check against the tree-walking interpreter, the engine's compiled naïve
//! dispatch on a guaranteed Figure 1 cell, and a query the compiler *rejects* —
//! demonstrating the automatic interpreter fallback.

use std::time::Instant;

use nev_bench::workloads::{
    join_chain_query, join_workload, negation_query, negation_workload, DEFAULT_SEED,
};
use nev_core::engine::{CertainEngine, EngineError};
use nev_core::Semantics;
use nev_exec::{CompiledQuery, InternedInstance, RunOptions};
use nev_logic::naive_eval_query;

fn main() -> Result<(), EngineError> {
    // A seeded join-heavy instance: R, S, T over a shared constant pool + nulls.
    let d = join_workload(DEFAULT_SEED, 24);
    let q = join_chain_query();
    println!("Workload: {} facts over relations R, S, T", d.fact_count());
    println!("Query:    {q}\n");

    // 1. Compile: Formula → relational algebra (scan, hash join, project).
    let compiled = CompiledQuery::compile(&q).expect("the join chain compiles");
    println!("{}", compiled.explain());

    // 2. Execute set-at-a-time over interned codes, and time the interpreter on
    //    the same input as the differential baseline.
    let t0 = Instant::now();
    let out = compiled.execute(&InternedInstance::new(&d), &RunOptions::naive());
    let compiled_time = t0.elapsed();
    let t1 = Instant::now();
    let reference = naive_eval_query(&d, &q);
    let interpreter_time = t1.elapsed();
    assert_eq!(out.answers, reference, "compiled ≡ interpreter");
    println!(
        "Compiled executor:  {} answers in {compiled_time:?}  [{}]",
        out.answers.len(),
        out.stats
    );
    println!(
        "Interpreter:        {} answers in {interpreter_time:?}  (identical answers)\n",
        reference.len()
    );

    // 3. The engine dispatch: ∃Pos × OWA is a guaranteed cell and the query
    //    compiles, so the plan is a compiled naïve pass with a certificate naming both the
    //    theorem and the executor.
    let engine = CertainEngine::new();
    let prepared = engine.prepare("Q(x, w) :- exists y z . R(x, y) & S(y, z) & T(z, w)")?;
    let eval = engine.evaluate(&d, Semantics::Owa, &prepared);
    println!("Engine plan is compiled: {}", eval.plan.is_compiled());
    if let Some(cert) = eval.plan.certificate() {
        println!("Certificate: {cert}");
    }
    println!(
        "Telemetry: worlds enumerated = {}, exec = {}\n",
        eval.worlds_enumerated, eval.exec
    );

    // 4. A shape the compiler rejects: a ∀ block needing a 4-column active-domain
    //    complement. The engine still answers (Pos × WCWA is guaranteed) — on the
    //    interpreter, recording the fallback.
    let wide = engine.prepare("forall u v w t . R(u, v) & R(w, t)")?;
    println!("Wide-complement query compiles: {}", wide.compiles());
    let fallback = engine.evaluate(&d, Semantics::Wcwa, &wide);
    println!(
        "Fallback evaluation: certified = {}, compiled = {}, exec = {}",
        fallback.plan.is_certified(),
        fallback.plan.is_compiled(),
        fallback.exec
    );
    // 5. The nev-opt optimiser at work: a disjunction carrying a negation lowers
    //    to active-domain pads around a complement; the rule stage distributes
    //    the join, absorbs the pads and rewrites the bound complement into an
    //    anti-join — explain() shows both plans side by side.
    let neg_d = negation_workload(DEFAULT_SEED, 40);
    let neg_q = negation_query();
    let optimised = CompiledQuery::compile(&neg_q).expect("the negation query compiles");
    println!("\n{}", optimised.explain());
    println!("Rule report: {:?}", optimised.rules());
    let out = optimised.execute(&InternedInstance::new(&neg_d), &RunOptions::naive());
    assert_eq!(
        out.answers,
        naive_eval_query(&neg_d, &neg_q),
        "optimised ≡ interpreter"
    );
    println!(
        "Optimised run: {} answers [{}]  (identical to the interpreter)",
        out.answers.len(),
        out.stats
    );

    println!("\nSame answers, three orders of magnitude apart: the certified cell of");
    println!("Figure 1 now runs on a database engine instead of a logician's notebook.");
    Ok(())
}
