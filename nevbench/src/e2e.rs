//! The end-to-end run: a release `nevd` in its own process, driven over
//! loopback TCP by a closed loop on one connection.
//!
//! This module knows the wire protocol and the reference engine and nothing
//! else of the program: requests are protocol lines, and every response is
//! checked byte for byte against a bare in-process
//! [`CertainEngine::evaluate`] on the snapshot version the request saw.
//! Every timing is scaled by the host's slowdown, measured between requests
//! with the kernel of [`crate::calibrate`].

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nev_core::engine::{CertainEngine, EvalPlan, PreparedQuery};
use nev_core::Semantics;
use nev_incomplete::Instance;
use nev_serve::wire::render_answers;

use crate::calibrate::{self, REFERENCE_US};
use crate::stats::{median, quantile, window_quantiles};
use crate::workloads::{load_line, snapshot_name, Request, Workload};

/// Server processes per run, each set up and driven for an equal share of
/// the timed phase; `setup_s` is the median of their set-ups.
const SERVERS: usize = 20;
/// `EVAL`s per window of `eval_p99_us`: ten samples lie beyond each
/// window's p99.
const P99_WINDOW: usize = 1000;
/// Seconds between two runs of the calibration kernel in the timed phase.
const CALIBRATE_EVERY_S: f64 = 0.02;
/// Windows of the timed phase, in seconds, over whose kernel median each
/// round trip is scaled: the host's state holds for about that long.
pub const SCALE_WINDOW_S: f64 = 0.5;

/// A spawned `nevd`, killed and reaped on drop.
struct Nevd {
    child: Child,
    addr: String,
}

impl Nevd {
    /// Spawns `binary` on an ephemeral loopback port with exactly two
    /// workers, whatever `NEV_WORKERS` or `NEV_TRACE` say in this
    /// environment, and waits for its "listening" line.
    fn spawn(binary: &Path) -> io::Result<Nevd> {
        let child = Command::new(binary)
            .args(["--port", "0", "--workers", "2"])
            .env_remove("NEV_WORKERS")
            .env_remove("NEV_TRACE")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut nevd = Nevd {
            addr: String::new(),
            child,
        };
        let stdout = nevd.child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        // "nevd listening on 127.0.0.1:PORT (2 workers)"
        nevd.addr = line
            .strip_prefix("nevd listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| io::Error::other(format!("unexpected nevd banner `{line}`")))?
            .to_string();
        Ok(nevd)
    }

    /// Peak resident set size (`VmHWM`) of the process so far, in MiB.
    fn peak_rss_mib(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }
}

impl Drop for Nevd {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One protocol connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
    response: String,
}

impl Conn {
    fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            out: Vec::new(),
            response: String::new(),
        })
    }

    /// Sends one request line and reads its one-line response (without the
    /// newline).
    fn send(&mut self, line: &str) -> io::Result<&str> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.writer.write_all(&self.out)?;
        self.response.clear();
        if self.reader.read_line(&mut self.response)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "nevd closed the connection",
            ));
        }
        Ok(self.response.trim_end_matches('\n'))
    }
}

/// The wire `plan=` token for an engine plan, chosen by the plan's
/// predicates.
pub fn plan_label(plan: &EvalPlan) -> &'static str {
    if plan.is_symbolic() {
        "symbolic"
    } else if plan.is_normalized() {
        "normalized"
    } else if plan.is_compiled() {
        "compiled"
    } else if plan.is_certified() {
        "certified"
    } else {
        "oracle"
    }
}

/// The response `nevd` owes an `EVAL`, from a bare in-process engine: fresh
/// preparation, no plan cache, no pool, the sequential oracle.
fn reference_eval(
    engine: &CertainEngine,
    instance: &Instance,
    semantics: Semantics,
    text: &str,
) -> String {
    match PreparedQuery::parse(text) {
        Err(e) => format!("ERR {e}"),
        Ok(prepared) => {
            let evaluation = engine.evaluate(instance, semantics, &prepared);
            format!(
                "OK plan={} certain={}{}",
                plan_label(&evaluation.plan),
                render_answers(&evaluation.certain),
                if evaluation.truncated {
                    " truncated=true"
                } else {
                    ""
                }
            )
        }
    }
}

/// The response to a `LOAD` of `instance` as snapshot `i`.
fn reference_load(i: usize, instance: &Instance, replaced: bool) -> String {
    format!(
        "OK {} {} facts={}",
        if replaced { "replaced" } else { "loaded" },
        snapshot_name(i),
        instance.fact_count()
    )
}

/// The answer check: expected responses memoised per distinct (snapshot
/// version, semantics, text), so a key is evaluated once however often it is
/// sent. A snapshot version is the address of its `Arc<Instance>`; every
/// version stays alive in the workload for the whole run, so no address is
/// reused. Responses to check are queued during the timed phase and compared
/// after it, so reference evaluation never runs inside a timing.
pub struct Checker {
    engine: CertainEngine,
    memo: HashMap<(usize, Semantics, Arc<str>), String>,
    pending: Vec<Pending>,
    pub attempted: u64,
    pub failed: u64,
    pub truncated: u64,
    first_failure: Option<String>,
}

fn mismatch(got: &str, expected: &str) -> String {
    let cut = |s: &str| s.chars().take(200).collect::<String>();
    format!("got `{}`, expected `{}`", cut(got), cut(expected))
}

/// A response awaiting its check.
struct Pending {
    instance: Arc<Instance>,
    semantics: Semantics,
    text: Arc<str>,
    response: Result<String, String>,
}

impl Checker {
    pub fn new() -> Checker {
        Checker {
            engine: CertainEngine::new(),
            memo: HashMap::new(),
            pending: Vec::new(),
            attempted: 0,
            failed: 0,
            truncated: 0,
            first_failure: None,
        }
    }

    fn expected(
        &mut self,
        instance: &Arc<Instance>,
        semantics: Semantics,
        text: &Arc<str>,
    ) -> &str {
        let key = (Arc::as_ptr(instance) as usize, semantics, Arc::clone(text));
        let engine = &self.engine;
        self.memo
            .entry(key)
            .or_insert_with(|| reference_eval(engine, instance, semantics, text))
    }

    /// Computes and memoises the expected response of a key ahead of a timed
    /// phase, so [`Checker::check_now`] never evaluates.
    fn precompute(&mut self, instance: &Arc<Instance>, semantics: Semantics, text: &Arc<str>) {
        self.expected(instance, semantics, text);
    }

    /// Checks a response against a memoised expectation, or queues it when
    /// the key has not been computed yet.
    fn check_now(
        &mut self,
        instance: &Arc<Instance>,
        semantics: Semantics,
        text: &Arc<str>,
        response: Result<&str, String>,
    ) {
        let key = (Arc::as_ptr(instance) as usize, semantics, Arc::clone(text));
        if let (Some(expected), Ok(got)) = (self.memo.get(&key), &response) {
            let failure = (expected != got).then(|| mismatch(got, expected));
            self.tally(got.contains("truncated=true"), failure);
            return;
        }
        self.pending.push(Pending {
            instance: Arc::clone(instance),
            semantics,
            text: Arc::clone(text),
            response: response.map(str::to_string),
        });
    }

    /// Checks a response that must equal `expected`.
    fn check_exact(&mut self, expected: &str, response: Result<&str, String>) {
        match response {
            Ok(got) => self.record(got == expected, got, expected),
            Err(e) => self.record(false, &e, expected),
        }
    }

    /// Checks a response that must start with `prefix`.
    fn check_prefix(&mut self, prefix: &str, got: &str) {
        self.record(got.starts_with(prefix), got, &format!("{prefix}…"));
    }

    fn record(&mut self, ok: bool, got: &str, expected: &str) {
        let failure = (!ok).then(|| mismatch(got, expected));
        self.tally(got.contains("truncated=true"), failure);
    }

    fn tally(&mut self, truncated: bool, failure: Option<String>) {
        self.attempted += 1;
        self.truncated += u64::from(truncated);
        if let Some(failure) = failure {
            self.failed += 1;
            self.first_failure.get_or_insert(failure);
        }
    }

    /// Checks every queued response.
    fn finish(&mut self) {
        for p in std::mem::take(&mut self.pending) {
            let expected = self.expected(&p.instance, p.semantics, &p.text).to_string();
            match p.response {
                Ok(got) => self.record(got == expected, &got, &expected),
                Err(e) => self.record(false, &e, &expected),
            }
        }
    }

    /// The first mismatch, for the run's diagnostics.
    pub fn first_failure(&self) -> Option<&str> {
        self.first_failure.as_deref()
    }
}

/// A live `nevd` after set-up: its connection and the snapshot versions the
/// catalog holds.
struct Live {
    nevd: Nevd,
    conn: Conn,
    current: Vec<Arc<Instance>>,
}

/// Spawns `nevd` and brings it to the timed phase's starting state: `LOAD`s,
/// `PREPARE`s and the untimed warm-up pass, each response checked. Returns
/// the live server and the seconds the whole set-up took.
fn set_up(binary: &Path, workload: &Workload, checker: &mut Checker) -> io::Result<(Live, f64)> {
    let start = Instant::now();
    let nevd = Nevd::spawn(binary)?;
    let mut conn = Conn::connect(&nevd.addr)?;
    for (i, snapshot) in workload.snapshots.iter().enumerate() {
        let response = conn.send(&load_line(i, snapshot))?;
        checker.check_exact(&reference_load(i, snapshot, false), Ok(response));
    }
    for text in &workload.prepares {
        let response = conn.send(&format!("PREPARE {text}"))?;
        checker.check_prefix("OK prepared ", response);
    }
    let mut current = workload.snapshots.clone();
    for request in &workload.warmup {
        send_checked(&mut conn, request, &request.line(), &mut current, checker)?;
    }
    let seconds = start.elapsed().as_secs_f64();
    Ok((
        Live {
            nevd,
            conn,
            current,
        },
        seconds,
    ))
}

/// Sends one request, checks its response (now or after the phase), and
/// returns the round trip.
fn send_checked(
    conn: &mut Conn,
    request: &Request,
    line: &str,
    current: &mut [Arc<Instance>],
    checker: &mut Checker,
) -> io::Result<Duration> {
    let start = Instant::now();
    let response = conn.send(line);
    let rtt = start.elapsed();
    let response = response.map_err(|e| e.to_string());
    match request {
        Request::Eval {
            snapshot,
            semantics,
            text,
        } => checker.check_now(
            &current[*snapshot],
            *semantics,
            text,
            response.as_deref().map_err(Clone::clone),
        ),
        Request::Load { snapshot, instance } => {
            let expected = reference_load(*snapshot, instance, true);
            checker.check_exact(&expected, response.as_deref().map_err(Clone::clone));
            current[*snapshot] = Arc::clone(instance);
        }
    }
    Ok(rtt)
}

/// Samples of the timed phase, gathered over every set-up server. Times are
/// scaled to the calibration kernel's reference speed; `raw_*` keep them as
/// the clock read them.
#[derive(Default)]
struct Samples {
    /// `EVAL` round trips in µs, in send order.
    eval_us: Vec<f64>,
    /// `LOAD` round trips in µs.
    load_us: Vec<f64>,
    /// Requests per second of each server's segment.
    segment_qps: Vec<f64>,
    /// `EVAL` p50 of each server's segment, in µs.
    segment_p50_us: Vec<f64>,
    raw_eval_us: Vec<f64>,
    raw_load_us: Vec<f64>,
    raw_segment_qps: Vec<f64>,
    /// The host's slowdown in each scaling window: the kernel's median time
    /// there over [`REFERENCE_US`].
    slowdown: Vec<f64>,
}

/// One timed request of a segment.
struct Timed {
    /// Seconds from the segment's start to the response.
    at_s: f64,
    eval: bool,
    rtt_us: f64,
    /// µs from the previous response (or kernel run) to this response:
    /// the request's share of the segment's time.
    slot_us: f64,
}

/// One segment of the closed-loop timed phase: the connection sends its
/// next request only after the previous response, cycling the workload's
/// stream, for `seconds`. The calibration kernel runs every
/// [`CALIBRATE_EVERY_S`], outside every round trip and slot.
fn timed_phase(
    live: &mut Live,
    workload: &Workload,
    lines: &[String],
    seconds: f64,
    checker: &mut Checker,
    samples: &mut Samples,
) -> io::Result<()> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let every = Duration::from_secs_f64(CALIBRATE_EVERY_S);
    let mut kernels: Vec<(f64, f64)> = Vec::new();
    let mut timed: Vec<Timed> = Vec::new();
    let mut next_kernel = start;
    let mut slot_start = start;
    while Instant::now() < deadline {
        if Instant::now() >= next_kernel {
            let us = calibrate::kernel_us();
            kernels.push((start.elapsed().as_secs_f64(), us));
            slot_start = Instant::now();
            next_kernel = slot_start + every;
        }
        let i = timed.len() % workload.stream.len();
        let request = &workload.stream[i];
        let rtt = send_checked(
            &mut live.conn,
            request,
            &lines[i],
            &mut live.current,
            checker,
        )?;
        let end = Instant::now();
        timed.push(Timed {
            at_s: (end - start).as_secs_f64(),
            eval: matches!(request, Request::Eval { .. }),
            rtt_us: rtt.as_secs_f64() * 1e6,
            slot_us: (end - slot_start).as_secs_f64() * 1e6,
        });
        slot_start = end;
    }
    let windows = ((seconds / SCALE_WINDOW_S).ceil() as usize).max(1);
    let window = |at_s: f64| ((at_s / SCALE_WINDOW_S) as usize).min(windows - 1);
    let mut per_window = vec![Vec::new(); windows];
    for &(at_s, us) in &kernels {
        per_window[window(at_s)].push(us);
    }
    let all: Vec<f64> = kernels.iter().map(|&(_, us)| us).collect();
    let slowdown: Vec<f64> = per_window
        .iter()
        .map(|w: &Vec<f64>| median(if w.is_empty() { &all } else { w }) / REFERENCE_US)
        .collect();
    let (mut evals, mut slots_us, mut raw_slots_us) = (Vec::new(), 0.0, 0.0);
    for t in &timed {
        let slow = slowdown[window(t.at_s)];
        slots_us += t.slot_us / slow;
        raw_slots_us += t.slot_us;
        if t.eval {
            evals.push(t.rtt_us / slow);
            samples.raw_eval_us.push(t.rtt_us);
        } else {
            samples.load_us.push(t.rtt_us / slow);
            samples.raw_load_us.push(t.rtt_us);
        }
    }
    let requests = timed.len() as f64;
    samples.segment_qps.push(requests / (slots_us / 1e6));
    samples
        .raw_segment_qps
        .push(requests / (raw_slots_us / 1e6));
    samples.segment_p50_us.push(median(&evals));
    samples.eval_us.extend(evals);
    samples.slowdown.extend(slowdown);
    Ok(())
}

/// The end-to-end metrics of one run.
pub struct E2eResult {
    pub qps: f64,
    pub eval_p50_us: f64,
    pub eval_p99_us: f64,
    pub load_p50_us: f64,
    pub setup_s: f64,
    pub server_rss_mb: f64,
    pub evals: usize,
    /// `qps`, `eval_p50_us` and `load_p50_us` as the clock read them,
    /// unscaled, for the run's diagnostics.
    pub raw_qps: f64,
    pub raw_eval_p50_us: f64,
    pub raw_load_p50_us: f64,
    /// Median of the host's slowdown over the scaling windows.
    pub slowdown: f64,
}

/// Precomputes the expected response of every key a fixed-key stream sends,
/// outside any timing. Streams that load new snapshot versions are checked
/// after their phase instead.
fn precompute(workload: &Workload, checker: &mut Checker) {
    if workload.writes() {
        return;
    }
    for request in workload.warmup.iter().chain(&workload.stream) {
        if let Request::Eval {
            snapshot,
            semantics,
            text,
        } = request
        {
            checker.precompute(&workload.snapshots[*snapshot], *semantics, text);
        }
    }
}

/// The whole end-to-end run. [`SERVERS`] times: set up a fresh `nevd`, run
/// a `1 / SERVERS` segment of the timed phase on it, read its peak RSS, and
/// stop it. Then the deferred answer checks.
///
/// Twenty set-ups give `setup_s` and `server_rss_mb` a median. On a shared
/// virtual machine the host also slows the guest down in episodes, so `qps`
/// and `eval_p50_us` are medians over the segments and `eval_p99_us` a
/// median over windows: an episode that covers less than half the run moves
/// none of them.
pub fn run(
    binary: &Path,
    workload: &Workload,
    seconds: f64,
    checker: &mut Checker,
) -> io::Result<E2eResult> {
    precompute(workload, checker);
    let lines: Vec<String> = workload.stream.iter().map(Request::line).collect();
    let mut samples = Samples::default();
    let mut setup_s = Vec::with_capacity(SERVERS);
    let mut rss_mb = Vec::with_capacity(SERVERS);
    for _ in 0..SERVERS {
        let (mut live, secs) = set_up(binary, workload, checker)?;
        setup_s.push(secs);
        timed_phase(
            &mut live,
            workload,
            &lines,
            seconds / SERVERS as f64,
            checker,
            &mut samples,
        )?;
        rss_mb.push(live.nevd.peak_rss_mib()?);
    }
    checker.finish();
    let evals = &samples.eval_us;
    // A stall of the host lands in a window or two; the median window p99
    // reads the tail of the workload itself.
    let windows = window_quantiles(evals, P99_WINDOW, 0.99);
    Ok(E2eResult {
        qps: median(&samples.segment_qps),
        eval_p50_us: median(&samples.segment_p50_us),
        eval_p99_us: if windows.is_empty() {
            quantile(evals, 0.99).unwrap_or(0.0)
        } else {
            median(&windows)
        },
        load_p50_us: median(&samples.load_us),
        setup_s: median(&setup_s),
        server_rss_mb: median(&rss_mb),
        evals: evals.len(),
        raw_qps: median(&samples.raw_segment_qps),
        raw_eval_p50_us: median(&samples.raw_eval_us),
        raw_load_p50_us: median(&samples.raw_load_us),
        slowdown: median(&samples.slowdown),
    })
}
