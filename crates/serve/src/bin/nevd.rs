//! `nevd` — the certain-answer service daemon.
//!
//! ```text
//! nevd [--port P] [--workers N] [--cache-capacity C]
//! ```
//!
//! Binds a loopback TCP listener (`--port 0`, the default, picks an ephemeral
//! port and prints it) and serves the line protocol documented in
//! `nev_serve::wire`: `LOAD`, `PREPARE`, `EVAL`, `STATS`, `QUIT`. The
//! parallel oracle splits world streams into chunks of
//! `nev_serve::oracle::DEFAULT_CHUNK` worlds.

use std::sync::Arc;

use nev_serve::cli::parse_flag_value;
use nev_serve::server::Server;
use nev_serve::state::{ServeConfig, ServeState};

fn usage_and_exit(code: i32) -> ! {
    println!("usage: nevd [--port P] [--workers N] [--cache-capacity C]");
    std::process::exit(code);
}

fn main() {
    let mut port: u16 = 0;
    let mut config = ServeConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--port" => port = parse_flag_value("--port", args.next()),
            "--workers" => config.workers = parse_flag_value("--workers", args.next()),
            "--cache-capacity" => {
                config.cache_capacity = parse_flag_value("--cache-capacity", args.next());
            }
            "--help" | "-h" => usage_and_exit(0),
            other => {
                eprintln!("unknown option: {other}");
                std::process::exit(2);
            }
        }
    }

    let workers = config.workers;
    let state = Arc::new(ServeState::new(config));
    let server = match Server::bind(&format!("127.0.0.1:{port}"), state) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("nevd: bind failed: {e}");
            std::process::exit(1);
        }
    };
    match server.local_addr() {
        Ok(addr) => println!("nevd listening on {addr} ({workers} workers)"),
        Err(e) => eprintln!("nevd: local_addr failed: {e}"),
    }
    if let Err(e) = server.run() {
        eprintln!("nevd: accept loop failed: {e}");
        std::process::exit(1);
    }
}
