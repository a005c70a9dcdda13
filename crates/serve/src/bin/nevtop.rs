//! `nevtop` — a live terminal dashboard over a running `nevd`.
//!
//! ```text
//! nevtop [--addr HOST:PORT] [--interval-ms N] [--once]
//! ```
//!
//! Polls the server's `TOP`, `STATS` and `METRICS` commands and renders one
//! frame per interval: trailing-window throughput and latency percentiles
//! (1s / 10s / 60s), a per-dispatch-kind window table read off the
//! `nev_window_plan_*` gauges, the slow-query log, and a digest of the
//! lifetime `STATS` line. Frames are hash-diffed — an idle server redraws
//! nothing — and `--once` prints a single frame and exits (the scripting/CI
//! mode). Connection failures exit non-zero.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::io;

use nev_serve::cli::parse_flag_value;
use nev_serve::client::Client;
use nev_serve::PLAN_LABELS;

/// The trailing windows the server reports (mirrors `nev_obs::WINDOWS`).
const WINDOW_LABELS: [&str; 3] = ["1s", "10s", "60s"];

fn usage_and_exit(code: i32) -> ! {
    println!("usage: nevtop [--addr HOST:PORT] [--interval-ms N] [--once]");
    std::process::exit(code);
}

fn main() {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut interval_ms: u64 = 1000;
    let mut once = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = parse_flag_value("--addr", args.next()),
            "--interval-ms" => interval_ms = parse_flag_value("--interval-ms", args.next()),
            "--once" => once = true,
            "--help" | "-h" => usage_and_exit(0),
            other => {
                eprintln!("unknown option: {other}");
                std::process::exit(2);
            }
        }
    }

    let mut client = match Client::connect(&addr) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("nevtop: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };

    let mut last_hash: Option<u64> = None;
    loop {
        let frame = match render_frame(&mut client, &addr) {
            Ok(frame) => frame,
            Err(e) => {
                eprintln!("nevtop: {addr}: {e}");
                std::process::exit(1);
            }
        };
        if once {
            print!("{frame}");
            return;
        }
        // Hash-diffed refresh: an idle server costs three requests and zero
        // terminal writes per tick.
        let mut hasher = DefaultHasher::new();
        frame.hash(&mut hasher);
        let hash = hasher.finish();
        if last_hash != Some(hash) {
            // Clear screen + home, then the frame.
            print!("\x1b[2J\x1b[H{frame}");
            use io::Write;
            let _ = io::stdout().flush();
            last_hash = Some(hash);
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(50)));
    }
}

/// One full dashboard frame, assembled from a `TOP` + `STATS` + `METRICS`
/// round trip.
fn render_frame(client: &mut Client, addr: &str) -> io::Result<String> {
    use std::fmt::Write;

    let top = expect_ok(client.send("TOP")?, "top")?;
    let stats = expect_ok(client.send("STATS")?, "")?;
    let metrics = client.metrics()?;

    let top_kv = key_values(&top);
    let stats_kv = key_values(&stats);
    let read = |kv: &BTreeMap<String, String>, key: &str| -> String {
        kv.get(key).cloned().unwrap_or_else(|| "-".to_string())
    };

    let mut out = String::with_capacity(2048);
    let uptime_s = read(&top_kv, "uptime_us").parse::<u64>().unwrap_or(0) as f64 / 1_000_000.0;
    let _ = writeln!(
        out,
        "nevd {addr} — uptime {uptime_s:.1}s  requests {}  evals {}  errors {}",
        read(&top_kv, "requests"),
        read(&top_kv, "evals"),
        read(&top_kv, "errors"),
    );

    // Trailing-window header table, straight off the TOP tokens.
    let _ = writeln!(
        out,
        "\n{:<8}{:>10}{:>10}{:>10}{:>10}{:>10}",
        "window", "qps", "err", "p50_us", "p95_us", "p99_us"
    );
    for window in WINDOW_LABELS {
        let _ = writeln!(
            out,
            "{window:<8}{:>10}{:>10}{:>10}{:>10}{:>10}",
            read(&top_kv, &format!("qps_{window}")),
            read(&top_kv, &format!("err_{window}")),
            read(&top_kv, &format!("p50_us_{window}")),
            read(&top_kv, &format!("p95_us_{window}")),
            read(&top_kv, &format!("p99_us_{window}")),
        );
    }

    // Per-dispatch-kind window table from the nev_window_plan_* gauges.
    let gauges = window_plan_gauges(&metrics);
    let cell = |metric: &str, window: &str, plan: &str| -> String {
        gauges
            .get(&(metric.to_string(), window.to_string(), plan.to_string()))
            .map_or_else(|| "-".to_string(), u64::to_string)
    };
    let _ = writeln!(
        out,
        "\n{:<12}{:>10}{:>11}{:>11}{:>12}{:>12}{:>12}",
        "plan", "evals/1s", "evals/10s", "evals/60s", "p50_us/60s", "p95_us/60s", "p99_us/60s"
    );
    for plan in PLAN_LABELS {
        let _ = writeln!(
            out,
            "{plan:<12}{:>10}{:>11}{:>11}{:>12}{:>12}{:>12}",
            cell("nev_window_plan_evals", "1s", plan),
            cell("nev_window_plan_evals", "10s", plan),
            cell("nev_window_plan_evals", "60s", plan),
            cell("nev_window_plan_p50_us", "60s", plan),
            cell("nev_window_plan_p95_us", "60s", plan),
            cell("nev_window_plan_p99_us", "60s", plan),
        );
    }

    // The slow-query log rides the exposition as comment lines.
    let slow: Vec<&str> = metrics
        .iter()
        .filter_map(|line| line.strip_prefix("# slow_query "))
        .collect();
    let _ = writeln!(out, "\nslow queries ({}):", slow.len());
    for entry in slow {
        let _ = writeln!(out, "  {entry}");
    }

    // A digest of the lifetime STATS counters.
    let _ = writeln!(
        out,
        "\nlifetime: p50_us={} p95_us={} p99_us={} cache_hits={} cache_misses={} \
         cache_entries={}",
        read(&stats_kv, "p50_us"),
        read(&stats_kv, "p95_us"),
        read(&stats_kv, "p99_us"),
        read(&stats_kv, "cache_hits"),
        read(&stats_kv, "cache_misses"),
        read(&stats_kv, "cache_entries"),
    );
    Ok(out)
}

/// Strips the `OK <head>` prefix from a one-line response, failing loudly on
/// `ERR` (a protocol error means the dashboard's assumptions are stale).
fn expect_ok(response: String, head: &str) -> io::Result<String> {
    let Some(rest) = response.strip_prefix("OK ") else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected response: {response}"),
        ));
    };
    let rest = rest.strip_prefix(head).unwrap_or(rest);
    Ok(rest.trim_start().to_string())
}

/// Parses the space-separated `key=value` tokens of a one-line payload.
fn key_values(payload: &str) -> BTreeMap<String, String> {
    payload
        .split_whitespace()
        .filter_map(|token| token.split_once('='))
        .map(|(key, value)| (key.to_string(), value.to_string()))
        .collect()
}

/// Collects the `nev_window_plan_*{window="…",plan="…"} value` gauge samples
/// of a `METRICS` exposition, keyed by (metric, window, plan).
fn window_plan_gauges(lines: &[String]) -> BTreeMap<(String, String, String), u64> {
    let mut gauges = BTreeMap::new();
    for line in lines {
        if !line.starts_with("nev_window_plan_") {
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = value.parse::<u64>() else {
            continue;
        };
        let Some((name, labels)) = series.split_once('{') else {
            continue;
        };
        let Some(labels) = labels.strip_suffix('}') else {
            continue;
        };
        let mut window = None;
        let mut plan = None;
        for pair in labels.split(',') {
            if let Some((key, quoted)) = pair.split_once('=') {
                let bare = quoted.trim_matches('"').to_string();
                match key {
                    "window" => window = Some(bare),
                    "plan" => plan = Some(bare),
                    _ => {}
                }
            }
        }
        if let (Some(window), Some(plan)) = (window, plan) {
            gauges.insert((name.to_string(), window, plan), value);
        }
    }
    gauges
}
