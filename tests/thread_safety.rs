//! `static_assertions`-style thread-safety audit: compile-time proof that every
//! type shared across `nev-serve`'s worker pool and connection threads is
//! `Send + Sync`.
//!
//! These are *compile tests*: if this file builds, the properties hold. They pin
//! the workspace's concurrency contract — instances are plain immutable data once
//! built, prepared/compiled queries carry no interior mutability, and the engine
//! is pure configuration. The executor's per-execution index cache stays inside
//! `nev_exec`'s `ExecContext`, which is created per call and never shared, so
//! `CompiledQuery::execute` can run on any thread concurrently (that is also why
//! `InternedInstance` is safely shareable: executions only read it).

use naive_eval::core::engine::{CertainEngine, Certificate, EvalPlan, Evaluation, PreparedQuery};
use naive_eval::core::{Semantics, WorldBounds, Worlds};
use naive_eval::exec::{CompiledQuery, ExecStats, InternedInstance};
use naive_eval::incomplete::{Instance, Relation, Schema, Tuple, Value};
use naive_eval::serve::state::{EvalRequest, EvalResponse, ServeConfig, ServeState};
use naive_eval::serve::{
    Catalog, LoadReport, OracleOutcome, PlanCache, ServeStats, StatsSnapshot, WorkerPool,
};

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
    // The engine carries an optional Arc<WorkerPool> for the chunked oracle,
    // so pooled engines stay shareable across connection threads.
    require_send_sync::<CertainEngine>();
    require_send_sync::<Semantics>();
    require_send_sync::<WorldBounds>();
    require_send_sync::<EvalPlan>();
    require_send_sync::<Certificate>();
    require_send_sync::<Evaluation>();
    // The lazy world stream borrows the instance immutably; it can migrate to a
    // worker thread (the parallel oracle drives it from the submitting thread,
    // but nothing about the type forbids handing it off).
    require_send::<Worlds<'static>>();
}

#[test]
fn service_layer_is_send_and_sync() {
    require_send_sync::<Catalog>();
    require_send_sync::<PlanCache>();
    require_send_sync::<WorkerPool>();
    require_send_sync::<ServeState>();
    require_send_sync::<ServeConfig>();
    require_send_sync::<ServeStats>();
    require_send_sync::<StatsSnapshot>();
    require_send_sync::<EvalRequest>();
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

    let state = Arc::new(ServeState::new(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }));
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
    assert_eq!(state.snapshot().evals, 4);
}
