//! `static_assertions`-style thread-safety audit: compile-time proof that every
//! type shared across `nev-serve`'s connection threads is `Send + Sync`.
//!
//! These are *compile tests*: if this file builds, the properties hold. They pin
//! the workspace's concurrency contract — instances are plain immutable data once
//! built, prepared/compiled queries carry no interior mutability, and the engine
//! is pure configuration. The executor's per-execution index cache stays inside
//! `nev_exec`'s `ExecContext`, which is created per call and never shared, so
//! `CompiledQuery::execute` can run on any thread concurrently (that is also why
//! `InternedInstance` is safely shareable: executions only read it). The one
//! piece of interior mutability on the shared path is a `Snapshot`'s derived
//! state, two `OnceLock`s that are written once and read thereafter.

use naive_eval::core::engine::{CertainEngine, Certificate, EvalPlan, Evaluation, PreparedQuery};
use naive_eval::core::oracle::OracleOutcome;
use naive_eval::core::{Semantics, Snapshot, WorldBounds, Worlds};
use naive_eval::exec::{CompiledQuery, ExecStats, InternedInstance};
use naive_eval::incomplete::{Instance, Relation, Schema, Tuple, Value};
use naive_eval::obs::{MetricsRegistry, MetricsSnapshot};
use naive_eval::serve::state::{EvalResponse, ServeConfig, ServeState};
use naive_eval::serve::{Catalog, LoadReport, PlanCache};

fn require_send_sync<T: Send + Sync>() {}
fn require_send<T: Send>() {}

#[test]
fn data_layer_is_send_and_sync() {
    require_send_sync::<Value>();
    require_send_sync::<Tuple>();
    require_send_sync::<Relation>();
    require_send_sync::<Schema>();
    require_send_sync::<Instance>();
}

#[test]
fn query_and_executor_layer_is_send_and_sync() {
    require_send_sync::<PreparedQuery>();
    require_send_sync::<CompiledQuery>();
    require_send_sync::<InternedInstance>();
    require_send_sync::<ExecStats>();
}

#[test]
fn engine_layer_is_send_and_sync() {
    require_send_sync::<CertainEngine>();
    require_send_sync::<Semantics>();
    require_send_sync::<WorldBounds>();
    require_send_sync::<EvalPlan>();
    require_send_sync::<Certificate>();
    require_send_sync::<Evaluation>();
    require_send_sync::<Snapshot>();
    require_send_sync::<Snapshot<&'static Instance>>();
    // The lazy world stream borrows the instance immutably; nothing about the
    // type forbids handing it to another thread.
    require_send::<Worlds<'static>>();
}

#[test]
fn service_layer_is_send_and_sync() {
    require_send_sync::<Catalog>();
    require_send_sync::<PlanCache>();
    require_send_sync::<ServeState>();
    require_send_sync::<ServeConfig>();
    require_send_sync::<MetricsRegistry>();
    require_send_sync::<MetricsSnapshot>();
    require_send_sync::<EvalResponse>();
    require_send_sync::<OracleOutcome>();
    require_send_sync::<LoadReport>();
}

#[test]
fn shared_state_is_usable_from_spawned_threads() {
    // The runtime counterpart of the compile-time assertions: one ServeState
    // shared by threads that load, evaluate and read stats concurrently.
    use naive_eval::incomplete::builder::x;
    use naive_eval::incomplete::inst;
    use std::sync::Arc;

    let state = Arc::new(ServeState::new(ServeConfig::default()));
    state.load("d0", inst! { "D" => [[x(1), x(2)], [x(2), x(1)]] });
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                state
                    .eval("d0", Semantics::Cwa, "exists u v . D(u, v) & D(v, u)")
                    .expect("shared eval succeeds")
                    .certain
                    .len()
            })
        })
        .collect();
    for handle in handles {
        assert_eq!(handle.join().expect("no panics"), 1);
    }
    assert_eq!(state.metrics().snapshot().evals(), 4);
}

#[test]
fn evals_racing_reloads_pair_every_answer_with_one_version() {
    // Readers evaluate one catalog name while a writer keeps replacing it with
    // the other of two versions. A reader answers from whichever version it
    // resolved, with that version's own interned form and core bit: every
    // served evaluation equals the bare engine's on one version.
    use naive_eval::core::engine::DispatchOptions;
    use naive_eval::incomplete::builder::{c, x};
    use naive_eval::incomplete::inst;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    // A constants-only instance is a core; the second folds ⊥2 onto ⊥1.
    let versions = [
        inst! { "D" => [[c(1), c(2)], [c(2), c(1)]] },
        inst! { "D" => [[c(1), x(1)], [c(1), x(2)], [x(1), c(3)]] },
    ];
    let requests = [
        (Semantics::Owa, "Q(u) :- exists v . D(u, v)"),
        (
            Semantics::MinimalCwa,
            "forall u v . D(u, v) -> exists w . D(v, w)",
        ),
        (Semantics::Cwa, "Q(u, w) :- exists v . D(u, v) & D(v, w)"),
    ];
    let engine = CertainEngine::new();
    let reference: Vec<[Evaluation; 2]> = requests
        .iter()
        .map(|(semantics, text)| {
            let query = PreparedQuery::parse(text).expect("valid query");
            versions
                .clone()
                .map(|version| engine.evaluate(&version, *semantics, &query))
        })
        .collect();
    for (i, pair) in reference.iter().enumerate() {
        assert_ne!(
            (pair[0].plan, &pair[0].certain),
            (pair[1].plan, &pair[1].certain),
            "request {i} tells the versions apart"
        );
    }

    let state = Arc::new(ServeState::new(ServeConfig::default()));
    state.load("d", versions[0].clone());
    let done = Arc::new(AtomicBool::new(false));
    let total = Arc::new(AtomicUsize::new(0));
    let reference = Arc::new(reference);
    let readers: Vec<_> = (0..3)
        .map(|reader| {
            let (state, done, total, reference) = (
                Arc::clone(&state),
                Arc::clone(&done),
                Arc::clone(&total),
                Arc::clone(&reference),
            );
            let core = versions[0].clone();
            std::thread::spawn(move || {
                let mut served = 0usize;
                while !done.load(Ordering::Relaxed) {
                    let (semantics, text) = requests[(reader + served) % requests.len()];
                    let (_, evaluation) = state
                        .dispatch("d", semantics, text, &DispatchOptions::default())
                        .expect("served");
                    let pair = &reference[(reader + served) % requests.len()];
                    assert!(
                        pair.iter().any(|r| r.plan == evaluation.plan
                            && r.certain == evaluation.certain
                            && r.naive == evaluation.naive),
                        "{text} under {semantics}: {evaluation:?}"
                    );
                    // Whatever version a reader resolves carries derived state
                    // built from that version.
                    let entry = state.catalog().entry("d").expect("bound");
                    assert_eq!(*entry.interned(), InternedInstance::new(entry.instance()));
                    assert_eq!(entry.is_core(), *entry.instance() == core);
                    served += 1;
                    total.fetch_add(1, Ordering::Relaxed);
                }
                served
            })
        })
        .collect();
    // Keep replacing the version until the readers have answered 300
    // requests between them (or one has stopped on a failed assertion).
    let mut loads = 0usize;
    while total.load(Ordering::Relaxed) < 300 && !readers.iter().any(|r| r.is_finished()) {
        loads += 1;
        state.load("d", versions[loads % 2].clone());
    }
    done.store(true, Ordering::Relaxed);
    let served: usize = readers
        .into_iter()
        .map(|reader| reader.join().expect("no reader panicked"))
        .sum();
    assert!(served >= 300 && loads > 0);
}
