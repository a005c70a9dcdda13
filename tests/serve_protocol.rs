//! End-to-end protocol test: a real `nevd` server on a loopback ephemeral port,
//! driven over TCP, with every `EVAL` answer checked byte-for-byte against an
//! in-process `CertainEngine` evaluation of the same instance — the acceptance
//! property "server round-trip answers are byte-identical to
//! `CertainEngine::evaluate`".

use std::sync::Arc;

use naive_eval::core::engine::CertainEngine;
use naive_eval::core::Semantics;
use naive_eval::incomplete::builder::{c, x};
use naive_eval::incomplete::{inst, Instance};
use naive_eval::serve::state::{PlanKind, ServeConfig, ServeState};
use naive_eval::serve::wire::render_answers;
use naive_eval::serve::{self_check, Client, Server};

fn spawn_server() -> naive_eval::serve::ServerHandle {
    let state = Arc::new(ServeState::new(ServeConfig::default()));
    Server::bind("127.0.0.1:0", state)
        .expect("bind loopback ephemeral port")
        .spawn()
        .expect("spawn accept loop")
}

fn intro() -> Instance {
    inst! {
        "R" => [[c(1), x(1)], [x(2), x(3)]],
        "S" => [[x(1), c(4)], [x(3), c(5)]],
    }
}

#[test]
fn tcp_round_trip_matches_the_in_process_engine_byte_for_byte() {
    let handle = spawn_server();
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");

    // LOAD the paper's intro instance and D0 over the wire.
    assert_eq!(
        client
            .send("LOAD intro R(1,?1);R(?2,?3);S(?1,4);S(?3,5)")
            .unwrap(),
        "OK loaded intro facts=4"
    );
    assert_eq!(
        client.send("LOAD d0 D(?1,?2);D(?2,?1)").unwrap(),
        "OK loaded d0 facts=2"
    );

    // Every EVAL answer must equal the in-process engine's answer, rendered
    // canonically — plan kind included.
    let engine = CertainEngine::new();
    let cases: [(&str, &Instance, Semantics, &str); 5] = [
        (
            "intro",
            &intro(),
            Semantics::Owa,
            "Q(x, y) :- exists z . R(x, z) & S(z, y)",
        ),
        ("d0", &d0(), Semantics::Cwa, "forall u . exists v . D(u, v)"),
        ("d0", &d0(), Semantics::Owa, "forall u . exists v . D(u, v)"),
        ("d0", &d0(), Semantics::Cwa, "exists u . !D(u, u)"),
        (
            "d0",
            &d0(),
            Semantics::Owa,
            "exists u v . D(u, v) & D(v, u)",
        ),
    ];
    fn d0() -> Instance {
        inst! { "D" => [[x(1), x(2)], [x(2), x(1)]] }
    }
    for (name, instance, semantics, query) in cases {
        let spelling = naive_eval::serve::client::semantics_spelling(semantics);
        let served = client
            .send(&format!("EVAL {name} {spelling} {query}"))
            .unwrap();
        let reference = engine.evaluate(instance, semantics, &engine.prepare(query).unwrap());
        let plan = match reference.plan {
            p if p.is_compiled() => PlanKind::Compiled,
            p if p.is_certified() => PlanKind::Certified,
            _ => PlanKind::Oracle,
        };
        let expected = format!(
            "OK plan={plan} certain={}",
            render_answers(&reference.certain)
        );
        assert_eq!(served, expected, "{name} × {semantics} × {query}");
    }

    // STATS reflects the session; errors are ERR lines, not disconnects.
    let stats = client.send("STATS").unwrap();
    assert!(stats.starts_with("OK requests="), "{stats}");
    assert!(stats.contains("evals=5"), "{stats}");
    assert!(stats.contains("instances=2"), "{stats}");
    assert!(client
        .send("EVAL missing owa exists u . D(u, u)")
        .unwrap()
        .starts_with("ERR unknown instance"));
    assert!(client
        .send("NONSENSE")
        .unwrap()
        .starts_with("ERR unknown command"));
    assert_eq!(client.send("QUIT").unwrap(), "OK bye");
}

#[test]
fn replacement_loads_are_snapshot_isolated() {
    let handle = spawn_server();
    let addr = handle.addr().to_string();
    let mut a = Client::connect(&addr).expect("connect a");
    let mut b = Client::connect(&addr).expect("connect b");
    assert_eq!(a.send("LOAD g D(?1,?1)").unwrap(), "OK loaded g facts=1");
    // Client b replaces g; client a's next EVAL sees the replacement (each EVAL
    // resolves a fresh snapshot), and both clients agree from then on.
    assert_eq!(
        b.send("LOAD g D(?1,?2);D(?2,?1)").unwrap(),
        "OK replaced g facts=2"
    );
    // ∃Pos × CWA is a certified (compiled) cell; on the replaced instance the two
    // distinct nulls no longer force a self-loop, so the answer flips to false.
    let from_a = a.send("EVAL g cwa exists u . D(u, u)").unwrap();
    let from_b = b.send("EVAL g cwa exists u . D(u, u)").unwrap();
    assert_eq!(from_a, from_b);
    assert_eq!(from_a, "OK plan=compiled certain={}");
}

#[test]
fn self_check_passes_on_several_seeds() {
    for seed in [99, 7] {
        let report = self_check(seed, 2, 12).expect("self-check runs");
        assert!(report.all_match(), "seed={seed}: {report}");
        assert_eq!(report.answered, 12, "seed={seed}");
    }
}
