//! The networked face of the `vcountd` service: listeners, connections,
//! and the concurrent accept loop.
//!
//! The [`crate::service::RunManager`] is a pure request → responses core;
//! this module is everything around it that touches a socket. Two
//! transports speak the same newline-delimited JSON framing contract —
//! Unix domain sockets and TCP — and the transport is a deployment knob,
//! never a semantics knob, exactly like the stdin mode.
//!
//! ## Concurrency model
//!
//! [`serve_connections`] accepts connections and serves each on its own
//! thread over one shared `Arc<Mutex<RunManager>>`:
//!
//! * **One lock per request, around `handle` only.** A connection thread
//!   parses a request line outside the lock, locks the manager only for
//!   [`RunManager::handle`], and releases it before serializing and
//!   writing the responses — requests from concurrent feeders interleave
//!   at request granularity, a tenant's megabyte `Snapshot` parse never
//!   blocks the others, and each tenant's event stream stays
//!   byte-identical to its solo run (tenants share the manager, never
//!   state).
//! * **Per-connection write serialization.** Every connection owns its
//!   stream writer exclusively: a request's Event lines and terminal
//!   response are written by the one thread that read the request, so
//!   interleaved tenants can never corrupt each other's framing.
//! * **No Nagle stall.** Both ends of a TCP connection set `TCP_NODELAY`,
//!   and a frame leaves in one write: the server buffers a request's
//!   Event lines and terminal response and flushes them once, the client
//!   sends a request and its newline as one buffer. A line split across
//!   two segments would otherwise wait on the peer's delayed ACK on every
//!   round trip.
//! * **Disconnect and shutdown guards.** When a connection ends — EOF,
//!   error, or a feeder killed mid-run — that thread flushes every
//!   tenant's sinks, so server-side trace files are complete and the
//!   runs stay alive for a reconnect. The accept loop joins finished
//!   connection threads as it accepts new ones, so a long-lived daemon
//!   holds handles only for live connections; on the way out it joins
//!   every remaining thread and flushes again: graceful shutdown never
//!   leaves a buffered tail behind.
//!
//! A malformed or hostile feeder is answered with
//! [`ServiceResponse::Error`] by the manager's wire validation (see
//! [`crate::service`]) and at worst kills its own connection thread —
//! never the daemon, never another tenant.

use crate::service::{RunManager, ServiceRequest, ServiceResponse};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Consecutive `accept` failures tolerated before the loop gives up. A
/// transient error (EMFILE under load, an aborted handshake) must not
/// kill the daemon, but a persistently broken listener must not spin.
const MAX_CONSECUTIVE_ACCEPT_ERRORS: u32 = 16;

/// A bound service endpoint: Unix domain socket or TCP.
pub enum Listener {
    /// A Unix domain socket listener.
    Unix(UnixListener),
    /// A TCP listener.
    Tcp(TcpListener),
}

impl Listener {
    /// Binds a Unix domain socket at `path`. A stale socket file from a
    /// previous daemon is removed first — it cannot be a live listener we
    /// would disturb, because binding a bound path errors either way.
    pub fn bind_unix(path: &str) -> Result<Self, String> {
        let _ = std::fs::remove_file(path);
        UnixListener::bind(path)
            .map(Listener::Unix)
            .map_err(|e| format!("{path}: {e}"))
    }

    /// Binds a TCP listener at `addr` (`HOST:PORT`; port 0 picks a free
    /// port — read it back with [`Listener::local_addr`]).
    pub fn bind_tcp(addr: &str) -> Result<Self, String> {
        TcpListener::bind(addr)
            .map(Listener::Tcp)
            .map_err(|e| format!("{addr}: {e}"))
    }

    /// The bound address, printable (the socket path, or `IP:PORT`).
    pub fn local_addr(&self) -> String {
        match self {
            Listener::Unix(l) => l
                .local_addr()
                .ok()
                .and_then(|a| a.as_pathname().map(|p| p.display().to_string()))
                .unwrap_or_else(|| "<unix>".to_string()),
            Listener::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "<tcp>".to_string()),
        }
    }

    fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
            Listener::Tcp(l) => l.accept().and_then(|(s, _)| Conn::tcp(s)),
        }
    }
}

/// One accepted (or dialed) connection, transport-erased.
pub enum Conn {
    /// A Unix domain socket stream.
    Unix(UnixStream),
    /// A TCP stream.
    Tcp(TcpStream),
}

impl Conn {
    /// Dials a `vcountd` Unix socket.
    pub fn connect_unix(path: &str) -> Result<Self, String> {
        UnixStream::connect(path)
            .map(Conn::Unix)
            .map_err(|e| format!("{path}: {e}"))
    }

    /// Dials a `vcountd` TCP endpoint (`HOST:PORT`).
    pub fn connect_tcp(addr: &str) -> Result<Self, String> {
        TcpStream::connect(addr)
            .and_then(Conn::tcp)
            .map_err(|e| format!("{addr}: {e}"))
    }

    /// Wraps a TCP stream with Nagle's algorithm off: every round trip
    /// waits on its answer, so holding back a small segment only stalls
    /// on the peer's delayed ACK.
    fn tcp(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        Ok(Conn::Tcp(stream))
    }

    /// A second handle onto the same stream (reader/writer split).
    pub fn try_clone(&self) -> std::io::Result<Self> {
        match self {
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

/// A feeder's line-framed connection to a service: send one request, read
/// zero or more `Event` lines closed by exactly one terminal response.
pub struct WireClient {
    reader: BufReader<Conn>,
    writer: Conn,
}

impl WireClient {
    /// Wraps a dialed connection into a framed client.
    pub fn new(conn: Conn) -> Result<Self, String> {
        let reader = BufReader::new(conn.try_clone().map_err(|e| format!("socket: {e}"))?);
        Ok(WireClient {
            reader,
            writer: conn,
        })
    }

    /// Sends one request and collects its full answer per the framing
    /// contract: zero or more [`ServiceResponse::Event`] lines followed by
    /// exactly one terminal (non-`Event`) response.
    pub fn call(&mut self, req: &ServiceRequest) -> Result<Vec<ServiceResponse>, String> {
        // The request and its newline leave in one write (one frame).
        let mut line = serde_json::to_string(req).map_err(|e| e.to_string())?;
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut out = Vec::new();
        loop {
            let mut line = String::new();
            let n = self
                .reader
                .read_line(&mut line)
                .map_err(|e| format!("receive: {e}"))?;
            if n == 0 {
                return Err("service closed the connection".into());
            }
            let resp: ServiceResponse =
                serde_json::from_str(line.trim_end()).map_err(|e| format!("bad response: {e}"))?;
            let is_event = matches!(resp, ServiceResponse::Event { .. });
            out.push(resp);
            if !is_event {
                return Ok(out);
            }
        }
    }
}

/// Answers newline-delimited requests from `reader` on `writer` until EOF,
/// then flushes every tenant's sinks — the disconnect guard: a feeder
/// going away mid-run leaves complete trace files behind. Each request is
/// parsed outside the manager's lock, which is held only to handle it, and
/// its responses leave in one write at the per-request flush, so
/// concurrent connections interleave at request granularity.
pub fn serve_stream(
    mgr: &Mutex<RunManager>,
    reader: impl BufRead,
    writer: impl Write,
) -> Result<(), String> {
    let result = pump_requests(mgr, reader, writer);
    mgr.lock().expect("run manager poisoned").flush_all();
    result
}

fn pump_requests(
    mgr: &Mutex<RunManager>,
    reader: impl BufRead,
    writer: impl Write,
) -> Result<(), String> {
    // One write per frame at the flush below. A response larger than the
    // buffer passes straight through it: a Snapshot's JSON is never copied.
    let mut writer = BufWriter::new(writer);
    let mut out = Vec::new();
    for line in reader.lines() {
        let line = line.map_err(|e| format!("read: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        out.clear();
        match RunManager::parse_line(&line) {
            Ok(req) => mgr
                .lock()
                .expect("run manager poisoned")
                .handle(req, &mut out),
            Err(malformed) => out.push(malformed),
        }
        for resp in &out {
            let json = serde_json::to_string(resp).map_err(|e| e.to_string())?;
            writeln!(writer, "{json}").map_err(|e| format!("write: {e}"))?;
        }
        // Flush per request: the client decides what to send next from
        // these responses (backpressure, done), so they cannot sit in a
        // buffer.
        writer.flush().map_err(|e| format!("write: {e}"))?;
    }
    Ok(())
}

/// The concurrent accept loop: serves each accepted connection on its own
/// thread over the shared manager, until `max_conns` connections have been
/// accepted (`None` = forever) or the listener breaks persistently. One
/// broken feeder kills at most its own connection thread. On the way out —
/// limit reached or listener dead — every connection thread is joined and
/// every tenant's sinks are flushed: graceful shutdown, complete traces.
pub fn serve_connections(
    listener: &Listener,
    mgr: &Arc<Mutex<RunManager>>,
    max_conns: Option<u64>,
) -> Result<(), String> {
    accept_loop(listener, mgr, max_conns).map(|_| ())
}

/// [`serve_connections`], returning the most connection-thread handles it
/// retained at any accept, not counting the connection just accepted.
fn accept_loop(
    listener: &Listener,
    mgr: &Arc<Mutex<RunManager>>,
    max_conns: Option<u64>,
) -> Result<usize, String> {
    let mut handles: Vec<JoinHandle<()>> = Vec::new();
    let mut most_retained = 0;
    let mut accepted = 0u64;
    let mut consecutive_errors = 0u32;
    let mut fatal: Option<String> = None;
    while max_conns.is_none_or(|n| accepted < n) {
        let conn = match listener.accept() {
            Ok(conn) => {
                consecutive_errors = 0;
                conn
            }
            Err(e) => {
                // A transient accept failure must not kill the daemon (or
                // skip the shutdown path below) — log and keep accepting,
                // up to a persistence limit.
                eprintln!("accept error: {e}");
                consecutive_errors += 1;
                if consecutive_errors >= MAX_CONSECUTIVE_ACCEPT_ERRORS {
                    fatal = Some(format!("accept failed {consecutive_errors} times: {e}"));
                    break;
                }
                continue;
            }
        };
        accepted += 1;
        // Reap before spawning: a long-lived daemon must hold handles only
        // for live connections, not one per connection it ever served.
        reap_finished(&mut handles);
        most_retained = most_retained.max(handles.len());
        let mgr = Arc::clone(mgr);
        handles.push(std::thread::spawn(move || {
            let reader = match conn.try_clone() {
                Ok(r) => BufReader::new(r),
                Err(e) => {
                    eprintln!("connection error: socket: {e}");
                    return;
                }
            };
            if let Err(e) = serve_stream(&mgr, reader, conn) {
                eprintln!("connection error: {e}");
            }
        }));
    }
    // Graceful shutdown: every in-flight connection finishes, then every
    // tenant's sinks are flushed once more (connection threads flush on
    // their own exit too; flushing twice is harmless).
    for handle in handles {
        join_connection(handle);
    }
    mgr.lock().expect("run manager poisoned").flush_all();
    match fatal {
        Some(e) => Err(e),
        None => Ok(most_retained),
    }
}

/// Joins every connection thread that has already finished.
fn reap_finished(handles: &mut Vec<JoinHandle<()>>) {
    let mut i = 0;
    while i < handles.len() {
        if handles[i].is_finished() {
            join_connection(handles.swap_remove(i));
        } else {
            i += 1;
        }
    }
}

/// Joins one connection thread; a panic in it has already printed its
/// message through the panic hook.
fn join_connection(handle: JoinHandle<()>) {
    if handle.join().is_err() {
        eprintln!("connection thread panicked");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use crate::source::{ObservationBatch, ObservationSource, SimulatorSource};
    use crate::Scenario;
    use std::net::Shutdown;

    fn manager() -> Arc<Mutex<RunManager>> {
        Arc::new(Mutex::new(RunManager::new(ServiceConfig::default())))
    }

    #[test]
    fn tcp_connections_disable_nagle_on_both_ends() {
        let listener = Listener::bind_tcp("127.0.0.1:0").expect("bind");
        let dialed = Conn::connect_tcp(&listener.local_addr()).expect("connect");
        let accepted = listener.accept().expect("accept");
        for conn in [dialed, accepted] {
            let Conn::Tcp(stream) = conn else {
                panic!("a TCP endpoint produced a non-TCP connection");
            };
            assert!(stream.nodelay().expect("nodelay"));
        }
    }

    /// Keeps every `write` call it receives as one chunk.
    #[derive(Default)]
    struct Chunks(Vec<Vec<u8>>);

    impl Write for Chunks {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_request_frame_leaves_in_one_write() {
        let scen = Scenario::fig1_walkthrough(7);
        let mut lines = vec![serde_json::to_string(&ServiceRequest::Start {
            run: "t".into(),
            scenario: Box::new(scen.clone()),
            goal: None,
            shards: 0,
            eager_decode: false,
            faults: None,
            trace: None,
        })
        .expect("encode")];
        let mut source = SimulatorSource::from_scenario(&scen, 1);
        let mut batch = ObservationBatch::default();
        for _ in 0..300 {
            assert!(source.next_batch(&mut batch));
            let req = ServiceRequest::Observe {
                run: "t".into(),
                batch: batch.clone(),
            };
            lines.push(serde_json::to_string(&req).expect("encode"));
        }
        lines.push("not json".into());

        // The frames as a manager answers them, one JSON line per response.
        let mut reference = RunManager::new(ServiceConfig::default());
        let mut frames = Vec::new();
        let mut out = Vec::new();
        for line in &lines {
            out.clear();
            reference.handle_line(line, &mut out);
            let mut frame = Vec::new();
            for resp in &out {
                frame.extend(serde_json::to_string(resp).expect("encode").bytes());
                frame.push(b'\n');
            }
            frames.push(frame);
        }
        assert!(
            frames[1..]
                .iter()
                .any(|f| f.iter().filter(|&&b| b == b'\n').count() > 1),
            "no Observe answered with Event lines"
        );

        let mut wire = lines.join("\n");
        wire.push('\n');
        let mut chunks = Chunks::default();
        serve_stream(&manager(), wire.as_bytes(), &mut chunks).expect("serve");
        assert_eq!(chunks.0.len(), frames.len(), "one write per request frame");
        for (i, (chunk, frame)) in chunks.0.iter().zip(&frames).enumerate() {
            assert_eq!(chunk.last(), Some(&b'\n'), "frame {i} ends mid-line");
            assert!(
                chunk == frame,
                "frame {i} differs from the manager's answer"
            );
        }
    }

    #[test]
    fn tcp_round_trips_do_not_stall() {
        let listener = Listener::bind_tcp("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr();
        let mgr = manager();
        let server = std::thread::spawn(move || serve_connections(&listener, &mgr, Some(1)));
        let mut client =
            WireClient::new(Conn::connect_tcp(&addr).expect("connect")).expect("client");
        // A Nagle plus delayed-ACK stall costs ~40 ms per held-back
        // segment, ~17 s over these round trips; unstalled they take well
        // under a second.
        let started = std::time::Instant::now();
        for _ in 0..200 {
            let answer = client
                .call(&ServiceRequest::Pump { budget: Some(0) })
                .expect("pump");
            assert!(matches!(
                answer.as_slice(),
                [ServiceResponse::Pumped { ingested: 0 }]
            ));
        }
        let elapsed = started.elapsed();
        drop(client);
        server.join().expect("server thread").expect("serve");
        assert!(
            elapsed.as_secs_f64() < 3.0,
            "200 round trips took {elapsed:?}"
        );
    }

    #[test]
    fn finished_connection_threads_are_reaped() {
        const CONNS: u64 = 20;
        let listener = Listener::bind_tcp("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr();
        let mgr = manager();
        let server = std::thread::spawn(move || accept_loop(&listener, &mgr, Some(CONNS)));
        for _ in 0..CONNS {
            let Conn::Tcp(mut stream) = Conn::connect_tcp(&addr).expect("connect") else {
                unreachable!("connect_tcp dials TCP");
            };
            // Hang up, then wait for the server to close its end: the
            // connection's thread has returned by then.
            stream.shutdown(Shutdown::Write).expect("shutdown");
            let mut rest = Vec::new();
            stream.read_to_end(&mut rest).expect("read");
            assert!(rest.is_empty());
        }
        let most_retained = server.join().expect("server thread").expect("serve");
        assert!(
            most_retained <= 1,
            "{most_retained} finished connection threads were kept"
        );
    }
}
