//! The blocking line-protocol client and the seeded load generator.
//!
//! [`Client`] is the minimal building block: send one request line, read one
//! response line. [`run_load`] drives a whole seeded [`workload`] through a
//! server and checks every answer **against a bare in-process
//! `CertainEngine` evaluation** of the same snapshot — deliberately bypassing
//! the serve layer's catalog and cache so a serve-layer bug cannot cancel out —
//! the round-trip correctness check behind `nevload` and the CI smoke run.

use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use nev_core::Semantics;
use nev_gen::{
    FormulaGenerator, FormulaGeneratorConfig, InstanceGenerator, InstanceGeneratorConfig,
};
use nev_incomplete::{Instance, Schema};
use nev_logic::Fragment;
use nev_obs::{validate_exposition, Histogram, HistogramSnapshot, Timer};

use crate::state::{ServeConfig, ServeState};
use crate::wire::render_instance;

/// A blocking client for the `nevd` line protocol.
#[derive(Debug)]
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:7878`).
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // A request is one small write followed by a read: Nagle would hold
        // the line back waiting for the previous response's delayed ACK,
        // turning µs-scale server work into ~40 ms round trips. (Found by the
        // nevload latency histograms.)
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request line and reads the one response line.
    pub fn send(&mut self, line: &str) -> io::Result<String> {
        // One write per request (terminator included), so the kernel never
        // sees a torn line to coalesce or delay.
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer.write_all(framed.as_bytes())?;
        self.writer.flush()?;
        self.read_line()
    }

    /// Sends `METRICS` and reads the protocol's sole multi-line response: the
    /// `OK metrics` status line, then exposition lines up to and including the
    /// `# EOF` terminator. Returns the exposition lines (terminator included),
    /// ready for [`nev_obs::validate_exposition`].
    pub fn metrics(&mut self) -> io::Result<Vec<String>> {
        let status = self.send("METRICS")?;
        if status != "OK metrics" {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected METRICS status line: {status}"),
            ));
        }
        let mut lines = Vec::new();
        loop {
            let line = self.read_line()?;
            let done = line == "# EOF";
            lines.push(line);
            if done {
                return Ok(lines);
            }
        }
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(response.trim_end().to_string())
    }
}

/// One request of a generated workload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WorkloadRequest {
    /// Catalog name of the target instance.
    pub instance: String,
    /// Semantics to evaluate under.
    pub semantics: Semantics,
    /// Query text (rendered from a generated formula).
    pub query: String,
}

/// A seeded service workload: named instances plus a request stream over them.
///
/// Queries are generated **without constants** so batched evaluation provably
/// coincides with solo evaluation (the engine's merged-bounds caveat) and mix the
/// guaranteed fragments (certified, cheap) with Pos/FO under OWA and CWA (oracle
/// bound — the traffic the world oracle answers).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Workload {
    /// Named instances to `LOAD`.
    pub instances: Vec<(String, Instance)>,
    /// `EVAL` requests over them.
    pub requests: Vec<WorkloadRequest>,
}

/// Generates the seeded workload: `instances` named instances over the `R/2, S/1`
/// schema and `requests` EVAL requests cycling over them. Deterministic in
/// `(seed, instances, requests)`.
pub fn workload(seed: u64, instances: usize, requests: usize) -> Workload {
    let schema = Schema::from_relations([("R", 2), ("S", 1)]);
    let mut instance_gen = InstanceGenerator::new(
        InstanceGeneratorConfig {
            schema: schema.clone(),
            tuples_per_relation: (1, 3),
            constant_pool: 2,
            null_pool: 2,
            null_probability: 0.5,
            codd: false,
        },
        seed,
    );
    let named: Vec<(String, Instance)> = (0..instances.max(1))
        .map(|i| (format!("inst{i}"), instance_gen.generate()))
        .collect();

    // A rotating mix of fragments; each gets its own deterministic generator.
    let fragments = [
        Fragment::ExistentialPositive,
        Fragment::Positive,
        Fragment::PositiveGuarded,
        Fragment::ExistentialPositiveBooleanGuarded,
        Fragment::FullFirstOrder,
    ];
    let mut generators: Vec<FormulaGenerator> = fragments
        .iter()
        .map(|&fragment| {
            FormulaGenerator::new(
                FormulaGeneratorConfig {
                    fragment,
                    schema: schema.clone(),
                    constant_pool: 2,
                    constant_probability: 0.0,
                    max_depth: 2,
                },
                seed ^ (0x5e17e + fragment as u64),
            )
        })
        .collect();
    let semantics = [Semantics::Owa, Semantics::Cwa, Semantics::Wcwa];
    let n_generators = generators.len();
    let requests = (0..requests)
        .map(|i| {
            let query = generators[i % n_generators].generate_sentence();
            WorkloadRequest {
                instance: named[i % named.len()].0.clone(),
                semantics: semantics[(i / n_generators) % semantics.len()],
                query: query.to_string(),
            }
        })
        .collect();
    Workload {
        instances: named,
        requests,
    }
}

/// The outcome of one load-generator run.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LoadReport {
    /// Instances loaded.
    pub loaded: usize,
    /// Requests answered.
    pub answered: usize,
    /// `EXPLAIN` cross-checks that matched the in-process reference.
    pub explained: usize,
    /// Server responses that differed from the in-process reference (each entry is
    /// `(request line, server response, expected response)`).
    pub mismatches: Vec<(String, String, String)>,
    /// The server's final `STATS` line.
    pub server_stats: String,
    /// Client-side round-trip latency per command kind (`LOAD` / `EVAL` /
    /// `EXPLAIN`), measured at the socket — network and queueing included —
    /// into `nev-obs` histograms.
    pub latencies: Vec<(&'static str, HistogramSnapshot)>,
}

impl LoadReport {
    /// Did every server answer match the in-process reference?
    pub fn all_match(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// The latency digest lines (`<kind>: n=… p50_us=… p95_us=… p99_us=…
    /// max_us=…`), one per command kind that saw traffic.
    pub fn latency_digest(&self) -> Vec<String> {
        self.latencies
            .iter()
            .filter(|(_, snap)| snap.count > 0)
            .map(|(kind, snap)| {
                format!(
                    "{kind}: n={} p50_us={} p95_us={} p99_us={} max_us={}",
                    snap.count,
                    snap.p50(),
                    snap.p95(),
                    snap.p99(),
                    snap.max
                )
            })
            .collect()
    }
}

impl fmt::Display for LoadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "loaded {} instance(s), answered {} request(s), explained {}, {} mismatch(es)",
            self.loaded,
            self.answered,
            self.explained,
            self.mismatches.len()
        )?;
        for (request, got, expected) in &self.mismatches {
            writeln!(
                f,
                "  MISMATCH {request}\n    server:   {got}\n    expected: {expected}"
            )?;
        }
        for line in self.latency_digest() {
            writeln!(f, "  {line}")?;
        }
        write!(f, "server {}", self.server_stats)
    }
}

/// Drives the seeded workload against the server at `addr`, checking every `EVAL`
/// response against a **bare** in-process [`nev_core::engine::CertainEngine`]
/// evaluation of the same
/// snapshot — deliberately *not* a second `ServeState`, so a bug common to the
/// whole serve layer (catalog, cache, handlers) cannot cancel out: the
/// reference path shares only the engine itself with the code under test.
/// Assumes the server runs the default [`ServeConfig`] world bounds. Returns the
/// report; `all_match()` is the pass/fail signal.
pub fn run_load(
    addr: &str,
    seed: u64,
    instances: usize,
    requests: usize,
) -> io::Result<LoadReport> {
    use std::collections::HashMap;

    use nev_core::engine::{CertainEngine, PreparedQuery};

    let workload = workload(seed, instances, requests);
    let engine = CertainEngine::with_bounds(ServeConfig::default().bounds);
    let mut loaded: HashMap<&str, &Instance> = HashMap::new();
    let mut client = Client::connect(addr)?;
    let mut report = LoadReport::default();
    // Client-side latency per command kind: wall-clock around each round trip.
    let load_hist = Histogram::new();
    let eval_hist = Histogram::new();
    let explain_hist = Histogram::new();
    let timed_send = |client: &mut Client, hist: &Histogram, line: &str| {
        let timer = Timer::start();
        let response = client.send(line);
        hist.record(timer.elapsed_us());
        response
    };

    for (name, instance) in &workload.instances {
        let line = format!("LOAD {name} {}", render_instance(instance));
        let response = timed_send(&mut client, &load_hist, &line)?;
        if !response.starts_with("OK") {
            report
                .mismatches
                .push((line, response, "OK loaded/replaced …".to_string()));
            continue;
        }
        loaded.insert(name, instance);
        report.loaded += 1;
    }

    for request in &workload.requests {
        let line = format!(
            "EVAL {} {} {}",
            request.instance,
            semantics_spelling(request.semantics),
            request.query
        );
        let response = timed_send(&mut client, &eval_hist, &line)?;
        // Prepare afresh per request (no plan cache) and evaluate sequentially:
        // the reference must exercise none of the serve-layer machinery.
        let expected = match loaded.get(request.instance.as_str()) {
            None => format!(
                "ERR unknown instance `{}` (LOAD it first)",
                request.instance
            ),
            Some(instance) => match PreparedQuery::parse(&request.query) {
                Err(e) => format!("ERR {e}"),
                Ok(prepared) => {
                    let evaluation = engine.evaluate(instance, request.semantics, &prepared);
                    format!(
                        "OK plan={} certain={}{}",
                        evaluation.plan.label(),
                        crate::wire::render_answers(&evaluation.certain),
                        if evaluation.truncated {
                            " truncated=true"
                        } else {
                            ""
                        }
                    )
                }
            },
        };
        if response == expected {
            report.answered += 1;
        } else {
            report.mismatches.push((line, response, expected));
        }
    }

    // Cross-check EXPLAIN on a sample of the workload: the served dispatch
    // decision and `nev-opt` plan rendering must be byte-identical to the bare
    // in-process engine's (same philosophy as the EVAL check above).
    for request in workload.requests.iter().take(EXPLAIN_SAMPLE) {
        let line = format!(
            "EXPLAIN {} {} {}",
            request.instance,
            semantics_spelling(request.semantics),
            request.query
        );
        let response = timed_send(&mut client, &explain_hist, &line)?;
        let expected = match loaded.get(request.instance.as_str()) {
            None => format!(
                "ERR unknown instance `{}` (LOAD it first)",
                request.instance
            ),
            Some(instance) => match PreparedQuery::parse(&request.query) {
                Err(e) => format!("ERR {e}"),
                Ok(prepared) => {
                    let dispatch = engine
                        .plan_with_symbolic(instance, request.semantics, &prepared)
                        .label();
                    match prepared.compiled() {
                        Some(compiled) => {
                            format!("OK dispatch={dispatch} {}", compiled.explain_compact())
                        }
                        None => {
                            let reason = prepared
                                .compile_error()
                                .map(|e| format!(" reason={}", e.reason_code()))
                                .unwrap_or_default();
                            format!("OK dispatch={dispatch} compiled=false{reason}")
                        }
                    }
                }
            },
        };
        if response == expected {
            report.explained += 1;
        } else {
            report.mismatches.push((line, response, expected));
        }
    }

    // Shape-check the telemetry exposition: the METRICS payload must satisfy
    // its own fixed grammar (header, sample syntax, cumulative histogram
    // buckets, `# EOF` terminator) on every run.
    let metrics = client.metrics()?;
    if let Err(violation) = validate_exposition(&metrics) {
        report.mismatches.push((
            "METRICS".to_string(),
            violation,
            "a grammar-valid exposition".to_string(),
        ));
    }

    report.latencies = vec![
        ("LOAD", load_hist.snapshot()),
        ("EVAL", eval_hist.snapshot()),
        ("EXPLAIN", explain_hist.snapshot()),
    ];
    report.server_stats = client.send("STATS")?;
    let _ = client.send("QUIT");
    Ok(report)
}

/// How many workload requests [`run_load`] re-issues as `EXPLAIN` cross-checks.
const EXPLAIN_SAMPLE: usize = 4;

/// Runs the load generator against a freshly spawned in-process server (the
/// `nevload --self-check` mode): returns the report and tears the server down.
pub fn self_check(seed: u64, instances: usize, requests: usize) -> io::Result<LoadReport> {
    let state = Arc::new(ServeState::new(ServeConfig::default()));
    let server = crate::server::Server::bind("127.0.0.1:0", state)?;
    let mut handle = server.spawn()?;
    let report = run_load(&handle.addr().to_string(), seed, instances, requests);
    handle.shutdown();
    report
}

/// The ASCII spelling of a semantics accepted by `Semantics::from_str` (the wire
/// form used in `EVAL` lines).
pub fn semantics_spelling(semantics: Semantics) -> &'static str {
    match semantics {
        Semantics::Owa => "owa",
        Semantics::Cwa => "cwa",
        Semantics::Wcwa => "wcwa",
        Semantics::PowersetCwa => "powerset-cwa",
        Semantics::MinimalCwa => "minimal-cwa",
        Semantics::MinimalPowersetCwa => "minimal-powerset-cwa",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_seed_deterministic() {
        let a = workload(42, 2, 12);
        let b = workload(42, 2, 12);
        assert_eq!(a, b);
        assert_eq!(a.instances.len(), 2);
        assert_eq!(a.requests.len(), 12);
        let c = workload(43, 2, 12);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn self_check_round_trips_byte_identically() {
        let report = self_check(7, 2, 10).expect("self-check runs");
        assert_eq!(report.loaded, 2);
        assert!(report.all_match(), "{report}");
        assert_eq!(report.answered, 10);
        assert_eq!(report.explained, 4, "EXPLAIN sample cross-checked");
        assert!(
            report.server_stats.contains("evals=10"),
            "{}",
            report.server_stats
        );
        assert!(
            report.server_stats.contains("explains=4"),
            "{}",
            report.server_stats
        );
    }

    #[test]
    fn spellings_round_trip_through_from_str() {
        for semantics in Semantics::ALL {
            assert_eq!(
                semantics_spelling(semantics).parse::<Semantics>(),
                Ok(semantics)
            );
        }
    }
}
