//! The daemon: step thread + UDP query workers + optional HTTP
//! `/metrics` listener, glued by a [`SnapshotCell`].
//!
//! Threading model (std only — no async runtime in the vendored tree):
//!
//! * **step thread** — advances the protocol arm one [`Step`] at a
//!   time, captures a [`MapSnapshot`] after every step, publishes it
//!   through the cell. Pacing via [`ServeConfig::step_interval`].
//! * **query workers** — N threads sharing one bound `UdpSocket`
//!   (cloned handles, short read timeouts so shutdown is prompt); each
//!   datagram is parsed, answered from one `cell.load()` clone, and
//!   replied to its sender.
//! * **http thread** — a nonblocking `TcpListener` answering
//!   `GET /metrics` with the Prometheus exposition of the shared
//!   [`Metrics`] registry (plus `GET /` with a one-line status).
//!
//! Metrics (all under the registry's `agentnet_` exposition prefix):
//! `serve_queries_total`, `serve_query_errors_total`,
//! `serve_query_micros` (histogram), `serve_snapshot_staleness_micros`
//! (histogram), `serve_step_micros` / `serve_capture_micros`
//! (histograms), `serve_steps_total`, `serve_snapshot_seq` (gauge),
//! and `serve_snapshot_rejects_total` for monotonicity rejections
//! (expected to stay 0).

use crate::clock;
use crate::snapshot::{MapSnapshot, SnapshotCell};
use crate::wire;
use agentnet_baselines::zoo::{build_protocol, ZooParams};
use agentnet_core::routing::{ProtocolKind, RoutingProtocol};
use agentnet_engine::obs::Metrics;
use agentnet_engine::Step;
use agentnet_radio::NetworkBuilder;
use std::fmt;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Query-latency histogram bounds in microseconds: loopback round
/// trips are sub-millisecond, so the buckets start at 1µs.
pub const QUERY_MICROS_BUCKETS: &[f64] = &[
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1_000.0, 2_000.0, 5_000.0, 10_000.0,
    50_000.0, 100_000.0,
];

/// Snapshot-staleness histogram bounds in microseconds: from "fresh
/// this millisecond" up to multi-second frozen-map serving.
pub const STALENESS_MICROS_BUCKETS: &[f64] = &[
    100.0,
    1_000.0,
    5_000.0,
    10_000.0,
    50_000.0,
    100_000.0,
    500_000.0,
    1_000_000.0,
    5_000_000.0,
    30_000_000.0,
];

/// How long blocked reads wait before re-checking the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Daemon configuration; [`Default`] serves the 1k preset's legacy
/// agents arm frozen at step 0 on an ephemeral loopback port.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Nodes in the [`NetworkBuilder::scaled_preset`] substrate.
    pub nodes: usize,
    /// The protocol-zoo arm to serve.
    pub protocol: ProtocolKind,
    /// Zoo knobs (population / cache) for the arm.
    pub params: ZooParams,
    /// Substrate + protocol seed.
    pub seed: u64,
    /// Steps executed *before* serving begins (lets tables form so a
    /// frozen daemon still has routes to answer).
    pub warmup_steps: u64,
    /// Steps the step thread executes while serving; `0` freezes the
    /// map at the warmup state.
    pub steps: u64,
    /// Pause between serving steps (`ZERO` = free-run).
    pub step_interval: Duration,
    /// UDP query worker threads (min 1).
    pub query_threads: usize,
    /// UDP bind address (port 0 = ephemeral; read back via
    /// [`Server::udp_addr`]).
    pub udp_addr: SocketAddr,
    /// Optional HTTP bind address for `GET /metrics`.
    pub http_addr: Option<SocketAddr>,
    /// Metrics registry (disabled by default; pass
    /// [`Metrics::enabled`] to record).
    pub metrics: Metrics,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            nodes: 1_000,
            protocol: ProtocolKind::Agents,
            params: ZooParams::default(),
            seed: 42,
            warmup_steps: 0,
            steps: 0,
            step_interval: Duration::ZERO,
            query_threads: 4,
            udp_addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            http_addr: None,
            metrics: Metrics::disabled(),
        }
    }
}

/// Why the daemon failed to start.
#[derive(Debug)]
pub enum ServeError {
    /// Substrate or protocol construction failed.
    Build(String),
    /// Socket setup failed.
    Io(std::io::Error),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Build(msg) => write!(f, "build failed: {msg}"),
            ServeError::Io(e) => write!(f, "socket setup failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// A running daemon. Threads run until [`Server::shutdown`] (or drop,
/// which signals stop without joining).
pub struct Server {
    cell: Arc<SnapshotCell>,
    stop: Arc<AtomicBool>,
    stepping_done: Arc<AtomicBool>,
    udp_addr: SocketAddr,
    http_addr: Option<SocketAddr>,
    metrics: Metrics,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Builds the substrate + arm, runs the warmup, publishes the
    /// initial snapshot, binds the sockets, and spawns all threads.
    ///
    /// # Errors
    ///
    /// [`ServeError::Build`] for substrate/arm construction failures,
    /// [`ServeError::Io`] for socket setup failures.
    pub fn start(config: ServeConfig) -> Result<Server, ServeError> {
        let net = NetworkBuilder::scaled_preset(config.nodes)
            .build(config.seed)
            .map_err(|e| ServeError::Build(e.to_string()))?;
        let mut protocol = build_protocol(config.protocol, net, &config.params, config.seed)
            .map_err(ServeError::Build)?;
        for s in 0..config.warmup_steps {
            protocol.step(Step::new(s));
        }
        let initial = MapSnapshot::capture(protocol.as_ref(), Step::new(config.warmup_steps));
        let cell = Arc::new(SnapshotCell::new(initial));
        let stop = Arc::new(AtomicBool::new(false));
        let stepping_done = Arc::new(AtomicBool::new(config.steps == 0));
        let metrics = config.metrics.clone();
        let mut threads = Vec::new();

        let socket = UdpSocket::bind(config.udp_addr)?;
        socket.set_read_timeout(Some(POLL_INTERVAL))?;
        let udp_addr = socket.local_addr()?;
        for worker in 0..config.query_threads.max(1) {
            let socket = socket.try_clone()?;
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            let metrics = metrics.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-udp-{worker}"))
                    .spawn(move || query_worker(&socket, &cell, &stop, &metrics))
                    .map_err(ServeError::Io)?,
            );
        }

        let http_addr = match config.http_addr {
            Some(addr) => {
                let listener = TcpListener::bind(addr)?;
                listener.set_nonblocking(true)?;
                let bound = listener.local_addr()?;
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                let metrics = metrics.clone();
                threads.push(
                    std::thread::Builder::new()
                        .name("serve-http".to_string())
                        .spawn(move || http_worker(&listener, &cell, &stop, &metrics))
                        .map_err(ServeError::Io)?,
                );
                Some(bound)
            }
            None => None,
        };

        {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            let done = Arc::clone(&stepping_done);
            let metrics = metrics.clone();
            let steps = config.steps;
            let warmup = config.warmup_steps;
            let interval = config.step_interval;
            threads.push(
                std::thread::Builder::new()
                    .name("serve-step".to_string())
                    .spawn(move || {
                        step_loop(
                            protocol.as_mut(),
                            &cell,
                            &stop,
                            &metrics,
                            warmup,
                            steps,
                            interval,
                        );
                        // Release, paired with the Acquire in
                        // `stepping_done`: observing done == true
                        // happens-after the final publish, so the next
                        // `cell.load()` returns the final snapshot
                        // (`stepping_daemon_advances_the_published_snapshot`).
                        done.store(true, Ordering::Release);
                    })
                    .map_err(ServeError::Io)?,
            );
        }

        Ok(Server { cell, stop, stepping_done, udp_addr, http_addr, metrics, threads })
    }

    /// The bound UDP query address.
    pub fn udp_addr(&self) -> SocketAddr {
        self.udp_addr
    }

    /// The bound HTTP address, when one was configured.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// The shared metrics handle.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The currently published snapshot.
    pub fn snapshot(&self) -> Arc<MapSnapshot> {
        self.cell.load()
    }

    /// Whether the step thread has executed its full step budget.
    pub fn stepping_done(&self) -> bool {
        // Acquire, paired with the step thread's Release: true implies
        // every publish of the budget is visible (callers read the
        // final map right after this returns true).
        self.stepping_done.load(Ordering::Acquire)
    }

    /// Blocks until the step budget is exhausted or `timeout` elapses;
    /// returns whether stepping finished.
    pub fn wait_stepping_done(&self, timeout: Duration) -> bool {
        let deadline = clock::now() + timeout;
        while !self.stepping_done() {
            if clock::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    /// Signals every thread to stop and joins them.
    pub fn shutdown(mut self) {
        // Release, paired with the workers' Acquire polls: a worker
        // that observes the stop flag also observes everything the
        // shutdown caller did before raising it. (For the flag alone
        // Relaxed would do — the join below is the real barrier — but
        // Release keeps the flag safe for callers that don't join.)
        self.stop.store(true, Ordering::Release);
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Same Release handshake as `shutdown`, minus the joins:
        // detached threads still observe a consistent pre-stop state.
        self.stop.store(true, Ordering::Release);
    }
}

/// The step thread body: advance, capture, publish, pace — until the
/// budget is spent or stop is raised.
fn step_loop(
    protocol: &mut dyn RoutingProtocol,
    cell: &SnapshotCell,
    stop: &AtomicBool,
    metrics: &Metrics,
    warmup: u64,
    steps: u64,
    interval: Duration,
) {
    for k in 0..steps {
        // Acquire, paired with the Release in shutdown/drop: observing
        // stop also observes the caller's pre-shutdown writes.
        if stop.load(Ordering::Acquire) {
            break;
        }
        let stepped = {
            let _span = metrics.span("serve_step_micros");
            protocol.step(Step::new(warmup + k));
            warmup + k + 1
        };
        {
            let _span = metrics.span("serve_capture_micros");
            let snap = MapSnapshot::capture(protocol, Step::new(stepped));
            match cell.publish(snap) {
                Ok(seq) => metrics.gauge_set("serve_snapshot_seq", seq as f64),
                Err(_) => metrics.counter_add("serve_snapshot_rejects_total", 1),
            }
        }
        metrics.counter_add("serve_steps_total", 1);
        if !interval.is_zero() {
            std::thread::sleep(interval);
        }
    }
}

/// One UDP worker: receive, answer from one snapshot clone, reply.
fn query_worker(socket: &UdpSocket, cell: &SnapshotCell, stop: &AtomicBool, metrics: &Metrics) {
    let mut buf = [0u8; 1500];
    // Acquire poll of the stop flag: see `Server::shutdown`.
    while !stop.load(Ordering::Acquire) {
        let (len, peer) = match socket.recv_from(&mut buf) {
            Ok(pair) => pair,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        };
        let started = clock::now();
        let snap = cell.load();
        let datagram = buf.get(..len).unwrap_or(&[]);
        let reply = match std::str::from_utf8(datagram) {
            Ok(text) => match wire::parse(text) {
                Ok((id, req)) => wire::respond(id, req, &snap),
                Err((id, msg)) => {
                    metrics.counter_add("serve_query_errors_total", 1);
                    wire::error_reply(id, &msg)
                }
            },
            Err(_) => {
                metrics.counter_add("serve_query_errors_total", 1);
                wire::error_reply(0, "request is not utf-8")
            }
        };
        let _ = socket.send_to(reply.as_bytes(), peer);
        metrics.counter_add("serve_queries_total", 1);
        metrics.observe(
            "serve_query_micros",
            started.elapsed().as_micros() as f64,
            QUERY_MICROS_BUCKETS,
        );
        metrics.observe(
            "serve_snapshot_staleness_micros",
            snap.staleness_micros(started),
            STALENESS_MICROS_BUCKETS,
        );
    }
}

/// The HTTP thread: minimal `GET`-only responder for metric scrapes.
fn http_worker(listener: &TcpListener, cell: &SnapshotCell, stop: &AtomicBool, metrics: &Metrics) {
    // Acquire poll of the stop flag: see `Server::shutdown`.
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => handle_http(stream, cell, metrics),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => break,
        }
    }
}

/// Answers one HTTP connection (request head read in one shot — ample
/// for the `GET /metrics` scrapes this exists for).
fn handle_http(mut stream: TcpStream, cell: &SnapshotCell, metrics: &Metrics) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(1)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let mut buf = [0u8; 1024];
    let len = stream.read(&mut buf).unwrap_or(0);
    let head = String::from_utf8_lossy(buf.get(..len).unwrap_or(&[])).into_owned();
    let mut tokens = head.split_ascii_whitespace();
    let method = tokens.next().unwrap_or("");
    let path = tokens.next().unwrap_or("/");
    let (status, body) = if method != "GET" {
        ("405 Method Not Allowed", "only GET is served\n".to_string())
    } else {
        match path {
            "/metrics" => ("200 OK", metrics.snapshot().to_prometheus()),
            "/" | "/info" => {
                let snap = cell.load();
                let h = snap.header();
                (
                    "200 OK",
                    format!(
                        "agentnet-serve step={} topo={} seq={} nodes={} gateways={} reachable={:.6}\n",
                        h.step,
                        h.topology_version,
                        h.seq,
                        snap.node_count(),
                        snap.gateways().len(),
                        snap.reachable_fraction()
                    ),
                )
            }
            _ => ("404 Not Found", "unknown path (try /metrics)\n".to_string()),
        }
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ServeConfig {
        ServeConfig {
            nodes: 100,
            warmup_steps: 40,
            query_threads: 2,
            metrics: Metrics::enabled(),
            ..ServeConfig::default()
        }
    }

    fn ask(socket: &UdpSocket, server: &SocketAddr, request: &str) -> String {
        socket.send_to(request.as_bytes(), server).unwrap();
        let mut buf = [0u8; 4096];
        let (len, _) = socket.recv_from(&mut buf).unwrap();
        String::from_utf8_lossy(&buf[..len]).into_owned()
    }

    fn client() -> UdpSocket {
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        socket.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        socket
    }

    #[test]
    fn frozen_daemon_answers_queries_from_the_warmup_snapshot() {
        let server = Server::start(tiny_config()).unwrap();
        let addr = server.udp_addr();
        let socket = client();
        let info = ask(&socket, &addr, "1 INFO");
        assert!(info.starts_with("1 OK step=40 "), "{info}");
        assert!(info.contains("nodes=100"), "{info}");

        let snap = server.snapshot();
        snap.validate().unwrap();
        for v in 0..snap.node_count() {
            let reply = ask(&socket, &addr, &format!("7 ROUTE {v}"));
            let expected =
                wire::respond(7, wire::Request::Route(agentnet_graph::NodeId::new(v)), &snap);
            assert_eq!(reply, expected, "served answer must equal the snapshot's answer");
        }
        let errors = ask(&socket, &addr, "9 ROUTE 100000");
        assert!(errors.starts_with("9 ERR"), "{errors}");
        let parse_err = ask(&socket, &addr, "garbage");
        assert!(parse_err.starts_with("0 ERR"), "{parse_err}");

        let metrics = server.metrics().snapshot();
        assert!(metrics.counters["serve_queries_total"] >= 100);
        assert!(metrics.histograms.contains_key("serve_query_micros"));
        assert!(metrics.histograms.contains_key("serve_snapshot_staleness_micros"));
        server.shutdown();
    }

    #[test]
    fn stepping_daemon_advances_the_published_snapshot() {
        let config = ServeConfig { steps: 30, ..tiny_config() };
        let server = Server::start(config).unwrap();
        assert!(server.wait_stepping_done(Duration::from_secs(60)), "step budget must finish");
        let snap = server.snapshot();
        assert_eq!(snap.header().step, 70, "warmup 40 + 30 served steps");
        assert!(snap.header().seq >= 31, "every step publishes");
        snap.validate().unwrap();
        let metrics = server.metrics().snapshot();
        assert_eq!(metrics.counters["serve_steps_total"], 30);
        assert_eq!(metrics.counters.get("serve_snapshot_rejects_total"), None);
        server.shutdown();
    }

    #[test]
    fn http_listener_serves_metrics_and_info() {
        let config =
            ServeConfig { http_addr: Some(SocketAddr::from(([127, 0, 0, 1], 0))), ..tiny_config() };
        let server = Server::start(config).unwrap();
        let http = server.http_addr().unwrap();

        // Prime one query so the latency histogram exists.
        let socket = client();
        let _ = ask(&socket, &server.udp_addr(), "1 INFO");

        let fetch = |path: &str| {
            let mut stream = TcpStream::connect(http).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            stream.write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes()).unwrap();
            let mut body = String::new();
            let _ = stream.read_to_string(&mut body);
            body
        };
        let metrics = fetch("/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
        assert!(metrics.contains("agentnet_serve_query_micros_bucket"), "{metrics}");
        let info = fetch("/");
        assert!(info.contains("agentnet-serve step=40"), "{info}");
        assert!(fetch("/nope").starts_with("HTTP/1.1 404"));
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_all_threads_promptly() {
        let started = clock::now();
        let server = Server::start(ServeConfig {
            steps: 1_000_000,
            step_interval: Duration::from_millis(1),
            ..tiny_config()
        })
        .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        server.shutdown();
        assert!(started.elapsed() < Duration::from_secs(30));
    }
}
