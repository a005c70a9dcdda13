//! Experiment E14: service-layer throughput — `nev-serve` batch evaluation vs the
//! pre-service single-thread request loop, on an **oracle-bound** workload.
//!
//! The workload is deliberately the hard case: Boolean Pos/Pos+∀G/FO sentences
//! under OWA, i.e. cells Figure 1 does **not** guarantee, where every request must
//! intersect answers over the bounded possible-world enumeration. The queries
//! mention no constants, so (per the `evaluate_all` contract) batched answers
//! provably coincide with solo answers — asserted before anything is timed.
//!
//! * **single_thread_baseline** — what serving looked like before `nev-serve`:
//!   every request parses + classifies + compiles its query afresh and runs its
//!   own sequential world pass (`CertainEngine::evaluate`);
//! * **serve_batch** — `ServeState::eval_batch`: the *amortisation* wins (plan
//!   cache, one shared world pass per (instance, semantics) group, the groups
//!   run one after another).

use criterion::{criterion_group, criterion_main, Criterion};

use nev_core::engine::{CertainEngine, PreparedQuery};
use nev_core::Semantics;
use nev_incomplete::builder::x;
use nev_incomplete::{inst, Instance};
use nev_serve::state::{EvalRequest, ServeConfig, ServeState};

/// Constant-free Boolean queries landing in OWA cells without a Figure 1
/// guarantee: every one of them is oracle-bound.
const QUERIES: [&str; 8] = [
    "forall u . exists v . D(u, v)",
    "exists u . !D(u, u)",
    "forall u v . D(u, v) -> D(v, u)",
    "exists u . D(u, u) | forall v . exists w . D(v, w)",
    "forall u . D(u, u)",
    "exists u v . D(u, v) & !D(v, u)",
    "forall u . exists v . D(v, u)",
    "exists u . forall v . D(u, v)",
];

const REPEATS: usize = 6;

fn instances() -> Vec<(String, Instance)> {
    vec![
        (
            "d0".to_string(),
            inst! { "D" => [[x(1), x(2)], [x(2), x(1)]] },
        ),
        (
            "chain".to_string(),
            inst! { "D" => [[x(1), x(2)], [x(2), x(3)]] },
        ),
    ]
}

/// The request stream: every query on every instance, `REPEATS` times over — the
/// repetition is the point, it is what a cache and grouped world passes amortise.
fn requests() -> Vec<EvalRequest> {
    let names: Vec<String> = instances().into_iter().map(|(n, _)| n).collect();
    let mut out = Vec::new();
    for _ in 0..REPEATS {
        for name in &names {
            for query in QUERIES {
                out.push(EvalRequest {
                    instance: name.clone(),
                    semantics: Semantics::Owa,
                    query: query.to_string(),
                });
            }
        }
    }
    out
}

fn serve_state() -> ServeState {
    let state = ServeState::new(ServeConfig::default());
    for (name, instance) in instances() {
        state.load(name, instance);
    }
    state
}

/// The pre-service request loop: prepare-per-request + solo sequential oracle.
fn baseline_answers(requests: &[EvalRequest], instances: &[(String, Instance)]) -> usize {
    let engine = CertainEngine::new();
    let mut total = 0usize;
    for request in requests {
        let instance = &instances
            .iter()
            .find(|(n, _)| *n == request.instance)
            .expect("known instance")
            .1;
        let prepared = PreparedQuery::parse(&request.query).expect("valid query");
        total += engine
            .evaluate(instance, request.semantics, &prepared)
            .certain
            .len();
    }
    total
}

fn bench_batch_throughput(c: &mut Criterion) {
    let requests = requests();
    let instances = instances();

    // Answer-identity check before timing: the served batch must be byte-identical
    // to the single-thread baseline on every request (constant-free queries, so
    // the grouped shared pass is exact).
    let engine = CertainEngine::new();
    let amortised = serve_state();
    let responses = amortised.eval_batch(&requests);
    for (request, response) in requests.iter().zip(&responses) {
        let response = response.as_ref().expect("served");
        let instance = &instances
            .iter()
            .find(|(n, _)| *n == request.instance)
            .expect("known instance")
            .1;
        let prepared = PreparedQuery::parse(&request.query).expect("valid query");
        let reference = engine.evaluate(instance, request.semantics, &prepared);
        assert_eq!(response.certain, reference.certain, "{request:?}");
    }

    let mut group = c.benchmark_group("serve_throughput");
    group.bench_function("single_thread_baseline", |b| {
        b.iter(|| baseline_answers(&requests, &instances))
    });
    group.bench_function("serve_batch", |b| {
        b.iter(|| amortised.eval_batch(&requests).len())
    });
    group.finish();
}

criterion_group!(benches, bench_batch_throughput);
criterion_main!(benches);
