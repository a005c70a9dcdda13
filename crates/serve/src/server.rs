//! The `nevd` TCP server: a loopback line-protocol front end over
//! [`crate::state::ServeState`].
//!
//! One thread accepts connections; each connection gets its own thread reading
//! request lines and writing one response line per request (see [`crate::wire`]
//! for the grammar). All connection threads share the same `Arc<ServeState>` —
//! the catalog and plan cache amortise across clients exactly as they do
//! across requests.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::state::ServeState;

/// A bound, not-yet-running server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
}

/// A handle to a server running on a background thread (used by tests, the
/// `nevload --self-check` mode and the worked examples).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServeState>,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds to `addr` (`127.0.0.1:0` picks an ephemeral port).
    pub fn bind(addr: &str, state: Arc<ServeState>) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server { listener, state })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared state this server fronts.
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Runs the accept loop on the current thread, forever (the `nevd` binary).
    pub fn run(self) -> io::Result<()> {
        for stream in self.listener.incoming() {
            match stream {
                Ok(stream) => spawn_connection(stream, Arc::clone(&self.state)),
                Err(e) => eprintln!("nevd: accept failed: {e}"),
            }
        }
        Ok(())
    }

    /// Runs the accept loop on a background thread and returns a handle that stops
    /// it on [`ServerHandle::shutdown`] (or drop).
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let state = Arc::clone(&self.state);
        let accept_state = Arc::clone(&self.state);
        let accept_shutdown = Arc::clone(&shutdown);
        let listener = self.listener;
        let accept_thread = std::thread::Builder::new()
            .name("nevd-accept".to_string())
            .spawn(move || {
                // A blocking accept: shutdown sets the flag, then connects once
                // to wake this loop, which drops that connection and the listener.
                for stream in listener.incoming() {
                    if accept_shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    match stream {
                        Ok(stream) => spawn_connection(stream, Arc::clone(&accept_state)),
                        Err(_) => break,
                    }
                }
            })?;
        Ok(ServerHandle {
            addr,
            state,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }
}

impl ServerHandle {
    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state behind the running server.
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Stops accepting new connections (established connections run to `QUIT`/EOF).
    pub fn shutdown(&mut self) {
        let Some(handle) = self.accept_thread.take() else {
            return;
        };
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept loop blocked in `accept`.
        let _ = TcpStream::connect(self.addr);
        let _ = handle.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn spawn_connection(stream: TcpStream, state: Arc<ServeState>) {
    let _ = std::thread::Builder::new()
        .name("nevd-conn".to_string())
        .spawn(move || {
            let _ = serve_connection(stream, &state);
        });
}

/// Reads request lines until `QUIT` or EOF, answering each with one line.
fn serve_connection(stream: TcpStream, state: &ServeState) -> io::Result<()> {
    use crate::wire::{parse_command, Command};

    // A response is one small write answering a small request: without
    // TCP_NODELAY, Nagle holds it back waiting for the request's delayed ACK
    // and every round trip inflates to ~40 ms of kernel timers. (Found by the
    // request-latency histograms this layer now keeps.)
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        // Decide the close from the same parse the handler uses, so any spelling
        // the protocol accepts as QUIT also actually closes the connection.
        let quitting = matches!(parse_command(&line), Ok(Command::Quit));
        let mut response = state.handle_line(&line);
        response.push('\n');
        writer.write_all(response.as_bytes())?;
        writer.flush()?;
        if quitting {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::state::ServeConfig;

    #[test]
    fn spawned_server_answers_and_shuts_down() {
        let state = Arc::new(ServeState::new(ServeConfig::default()));
        let server = Server::bind("127.0.0.1:0", state).expect("bind ephemeral");
        let mut handle = server.spawn().expect("spawn accept loop");
        let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
        assert_eq!(
            client.send("LOAD d D(?1,?2)").unwrap(),
            "OK loaded d facts=1"
        );
        assert_eq!(
            client.send("EVAL d cwa exists u v . D(u, v)").unwrap(),
            "OK plan=compiled certain={()}"
        );
        assert_eq!(client.send("QUIT").unwrap(), "OK bye");
        handle.shutdown();
    }

    #[test]
    fn shutdown_returns_with_no_client_ever_connected() {
        let state = Arc::new(ServeState::new(ServeConfig::default()));
        let server = Server::bind("127.0.0.1:0", state).expect("bind ephemeral");
        let mut handle = server.spawn().expect("spawn accept loop");
        let addr = handle.addr();
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            handle.shutdown();
            let _ = done.send(());
        });
        finished
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("shutdown woke the blocking accept and returned");
        // The listener went away with the accept loop.
        assert!(TcpStream::connect(addr).is_err());
    }

    #[test]
    fn concurrent_clients_share_catalog_and_cache() {
        let state = Arc::new(ServeState::new(ServeConfig::default()));
        let server = Server::bind("127.0.0.1:0", Arc::clone(&state)).expect("bind");
        let handle = server.spawn().expect("spawn");
        let addr = handle.addr().to_string();
        let mut loader = Client::connect(&addr).expect("connect loader");
        loader.send("LOAD shared D(?1,?2);D(?2,?1)").unwrap();
        let clients: Vec<_> = (0..4)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut client = Client::connect(&addr).expect("connect");
                    client
                        .send("EVAL shared owa forall u . exists v . D(u, v)")
                        .unwrap()
                })
            })
            .collect();
        for c in clients {
            assert_eq!(c.join().unwrap(), "OK plan=oracle certain={}");
        }
        // Four EVALs of one text under one semantics: at most one cache miss.
        assert!(state.cache().hits() >= 3, "hits={}", state.cache().hits());
    }
}
