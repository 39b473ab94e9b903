//! `serve_live_10k`: the route-query daemon answering an open-loop
//! query stream while its step thread keeps advancing the map.
//!
//! It is the only workload on which the query path and snapshot
//! capture/publish run, and they compete with stepping for the cores.
//! Load is open loop: request `i` is due at `start + i / QPS` whatever
//! happened to earlier requests, and its latency runs from that due time
//! to its reply, so a stall in the daemon is charged to every request
//! queued behind it. A closed-loop client (one request in flight, next
//! sent on reply) would slow down with the daemon and hide that tail.

use crate::procfs::{self, CpuWindow};
use crate::stats::{median, percentile};
use crate::trace::Trace;
use crate::{Metric, Outcome, Phase, RunSpec, SETUP_REPEATS};
use agentnet_baselines::zoo::ZooParams;
use agentnet_core::routing::ProtocolKind;
use agentnet_engine::obs::Metrics;
use agentnet_serve::{wire, MapSnapshot, ServeConfig, Server};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

/// Offered load. On a 2-core machine whose neighbours were busy, 20k/s
/// overflowed the daemon's or the client's default-sized socket buffer
/// (≈10 ms of datagrams) in some runs; at 10k/s no datagram was lost
/// even beside two CPU-bound processes, so the failure share stays at
/// zero and latency is the only thing measured.
pub const QPS: f64 = 10_000.0;
/// A query unanswered this long after its due time has failed.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(1);
/// Steps the daemon runs before serving, as `repro serve --warmup 20`.
pub const WARMUP_STEPS: u64 = 20;
/// UDP worker threads of the daemon.
pub const QUERY_THREADS: usize = 2;
/// The query-latency percentile reported as `latency_ms_tail`, per
/// [`TAIL_WINDOW`]: a window of 10 000 queries has a hundred beyond it.
pub const TAIL_PERCENTILE: f64 = 99.0;
/// Queries per tail window: one second of load, by due time.
/// `latency_ms_tail` is the median over windows of each window's p99.
/// The whole run's p99 moves with how many millisecond stalls the run
/// happened to contain (34 to 969 queries over 1 ms in twenty runs of
/// one commit), so its run-to-run spread was 0.24–0.27 where the
/// windowed p99's was 0.10–0.13; it is reported as `query_us_p99_run`.
pub const TAIL_WINDOW: usize = QPS as usize;
/// Every this many requests, the traced run keeps the request's spans.
const SPAN_EVERY: usize = 50;
/// Requests answered by [`wire_answer_ns_p50`].
pub const WIRE_REQUESTS: usize = 100_000;
/// Requests per timed batch: one pair of clock reads is spread over the
/// batch, since a single answer costs about as much as a clock read.
const WIRE_BATCH: usize = 100;

/// A query verb of the wire protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    /// `ROUTE <node>`.
    Route,
    /// `LINKS <node>`.
    Links,
    /// `REACH <node>`.
    Reach,
    /// `INFO`.
    Info,
}

/// A generated request stream, wire-encoded back to back.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestTrace {
    verbs: Vec<Verb>,
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl RequestTrace {
    /// Number of requests.
    pub fn len(&self) -> usize {
        self.verbs.len()
    }

    /// `true` with no requests.
    pub fn is_empty(&self) -> bool {
        self.verbs.is_empty()
    }

    /// The whole encoded stream.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Request `i`'s datagram.
    pub fn datagram(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }

    /// Request `i` as text.
    pub fn text(&self, i: usize) -> &str {
        std::str::from_utf8(self.datagram(i)).expect("requests are ASCII")
    }

    /// Request `i`'s verb.
    pub fn verb(&self, i: usize) -> Verb {
        self.verbs[i]
    }
}

/// `count` requests with ids `0..count`, drawn from `seed`: 70% ROUTE,
/// 15% LINKS, 10% REACH and 5% INFO, over uniformly chosen nodes.
pub fn request_trace(seed: u64, nodes: usize, count: usize) -> RequestTrace {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut trace = RequestTrace {
        verbs: Vec::with_capacity(count),
        bytes: Vec::with_capacity(count * 16),
        ends: Vec::with_capacity(count),
    };
    for id in 0..count {
        let pick = rng.random_range(0..100u32);
        let node = rng.random_range(0..nodes);
        let (verb, text) = match pick {
            0..=69 => (Verb::Route, format!("{id} ROUTE {node}")),
            70..=84 => (Verb::Links, format!("{id} LINKS {node}")),
            85..=94 => (Verb::Reach, format!("{id} REACH {node}")),
            _ => (Verb::Info, format!("{id} INFO")),
        };
        trace.verbs.push(verb);
        trace.bytes.extend_from_slice(text.as_bytes());
        trace.ends.push(trace.bytes.len());
    }
    trace
}

/// The daemon as `repro serve` runs it: the agents arm on the scaled
/// preset, metrics on, a free-running step thread.
pub fn serve_config(nodes: usize, seed: u64) -> ServeConfig {
    ServeConfig {
        nodes,
        protocol: ProtocolKind::Agents,
        params: ZooParams::default(),
        seed,
        warmup_steps: WARMUP_STEPS,
        steps: u64::MAX,
        step_interval: Duration::ZERO,
        query_threads: QUERY_THREADS,
        metrics: Metrics::enabled(),
        ..ServeConfig::default()
    }
}

/// Checks one reply against the request it answers; returns the id.
///
/// # Errors
///
/// When the reply is not `<id> OK step=<s> topo=<t> seq=<q> <body>` with
/// a known id and the body shape of that request's verb.
pub fn check_reply(reply: &str, trace: &RequestTrace, nodes: usize) -> Result<usize, String> {
    let bad = |why: &str| Err(format!("{why}: {reply:?}"));
    let mut tokens = reply.split_ascii_whitespace();
    let Some(id) = tokens.next().and_then(|t| t.parse::<usize>().ok()) else {
        return bad("no request id");
    };
    if id >= trace.len() {
        return bad("unknown request id");
    }
    if tokens.next() != Some("OK") {
        return bad("not OK");
    }
    for key in ["step=", "topo=", "seq="] {
        if !tokens.next().is_some_and(|t| t.strip_prefix(key).is_some_and(is_uint)) {
            return bad("malformed header");
        }
    }
    let node = |t: Option<&str>, key: &str| {
        t.and_then(|t| t.strip_prefix(key))
            .and_then(|v| v.parse::<usize>().ok())
            .is_some_and(|v| v < nodes)
    };
    let rest: Vec<&str> = tokens.collect();
    let shaped = match (trace.verb(id), rest.as_slice()) {
        (Verb::Route, ["route", "none"]) => true,
        (Verb::Route, ["route", gw, next, hops, age]) => {
            node(Some(gw), "gw=")
                && node(Some(next), "next=")
                && hops.strip_prefix("hops=").is_some_and(is_uint)
                && age.strip_prefix("age=").is_some_and(is_uint)
        }
        (Verb::Links, ["links", count, neighbours @ ..]) => {
            count.strip_prefix("n=").and_then(|c| c.parse::<usize>().ok()) == Some(neighbours.len())
                && neighbours.iter().all(|v| node(Some(v), ""))
        }
        (Verb::Reach, ["reach", flag]) => matches!(*flag, "0" | "1"),
        (Verb::Info, ["info", n, gateways, reachable]) => {
            n.strip_prefix("nodes=") == Some(nodes.to_string().as_str())
                && gateways.strip_prefix("gateways=").is_some_and(is_uint)
                && reachable.strip_prefix("reachable=").is_some_and(|f| f.parse::<f64>().is_ok())
        }
        _ => false,
    };
    if shaped {
        Ok(id)
    } else {
        bad("body does not fit the verb")
    }
}

fn is_uint(s: &str) -> bool {
    !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit())
}

/// What the generator and receiver saw.
struct Load {
    /// Microseconds from due time to reply; `NaN` when none came.
    latency_us: Vec<f64>,
    /// Microseconds from due time to the send call.
    lag_us: Vec<f64>,
    /// Malformed or duplicate replies.
    malformed: Vec<String>,
    /// Due time of request 0.
    start: Instant,
}

/// Due time of request `i`.
fn due(start: Instant, i: usize) -> Instant {
    start + Duration::from_secs_f64(i as f64 / QPS)
}

/// Makes the calling client thread wake promptly, so the latency it
/// records is the daemon's and not its own.
///
/// * Timer slack 1 ns instead of Linux's default 50 µs: with the default,
///   every request left about 50 µs late, longer than the daemon takes
///   to answer it.
/// * A 0.1 ms scheduler slice (Linux 6.12 and later; older kernels ignore
///   it): a thread woken on the core the daemon's step thread is using
///   otherwise waits for that thread's default slice. Without it, some
///   runs' generator lag p99 read 50–120 µs instead of 10–20 µs.
///
/// Both change only the calling thread and need no privilege. When a
/// call fails, the thread keeps the default and the larger lag shows in
/// `loadgen.lag_us_*`.
#[allow(unsafe_code)]
fn prompt_wakeups() {
    use std::ffi::{c_int, c_long, c_ulong};
    const PR_SET_TIMERSLACK: c_int = 29;
    #[cfg(target_arch = "x86_64")]
    const SYS_SCHED_SETATTR: Option<c_long> = Some(314);
    #[cfg(target_arch = "aarch64")]
    const SYS_SCHED_SETATTR: Option<c_long> = Some(274);
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    const SYS_SCHED_SETATTR: Option<c_long> = None;
    /// `struct sched_attr`, first version (48 bytes).
    #[repr(C)]
    struct SchedAttr {
        size: u32,
        policy: u32,
        flags: u64,
        nice: i32,
        priority: u32,
        runtime_ns: u64,
        deadline_ns: u64,
        period_ns: u64,
    }
    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
        fn syscall(number: c_long, ...) -> c_long;
    }
    // SAFETY: PR_SET_TIMERSLACK reads one unsigned long by value (the
    // slack in nanoseconds) and changes only the calling thread's timer
    // slack; no pointer crosses the call.
    let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1 as c_ulong) };
    let attr = SchedAttr {
        size: std::mem::size_of::<SchedAttr>() as u32,
        policy: 0, // SCHED_OTHER, nice 0: the thread's defaults
        flags: 0,
        nice: 0,
        priority: 0,
        runtime_ns: 100_000,
        deadline_ns: 0,
        period_ns: 0,
    };
    if let Some(number) = SYS_SCHED_SETATTR {
        // SAFETY: sched_setattr(0, attr, 0) reads `attr.size` bytes from
        // a live, properly laid out `struct sched_attr` and changes only
        // the calling thread (pid 0); the kernel keeps no pointer to it.
        let _ = unsafe { syscall(number, 0 as c_long, &attr as *const SchedAttr, 0 as c_ulong) };
    }
}

/// Sends every request at its due time from one thread while a second
/// thread collects and checks the replies.
fn drive(server: SocketAddr, trace: &RequestTrace, nodes: usize) -> Result<Load, String> {
    let socket = UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("client bind: {e}"))?;
    socket.connect(server).map_err(|e| format!("client connect: {e}"))?;
    socket.set_read_timeout(Some(Duration::from_millis(20))).map_err(|e| e.to_string())?;
    let receiver = socket.try_clone().map_err(|e| format!("client clone: {e}"))?;
    let n = trace.len();
    let start = Instant::now() + Duration::from_millis(10);
    let deadline = due(start, n) + REPLY_TIMEOUT;

    std::thread::scope(|scope| {
        let replies = scope.spawn(move || {
            prompt_wakeups();
            let mut latency_us = vec![f64::NAN; n];
            let mut malformed = Vec::new();
            let (mut answered, mut buf) = (0usize, [0u8; 2048]);
            while answered < n && Instant::now() < deadline {
                let len = match receiver.recv(&mut buf) {
                    Ok(len) => len,
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        continue
                    }
                    Err(e) => return Err(format!("client receive: {e}")),
                };
                let arrived = Instant::now();
                let text = String::from_utf8_lossy(&buf[..len]);
                match check_reply(&text, trace, nodes) {
                    Ok(id) if latency_us[id].is_nan() => {
                        latency_us[id] = arrived.duration_since(due(start, id)).as_secs_f64() * 1e6;
                        answered += 1;
                    }
                    Ok(_) => malformed.push(format!("duplicate reply {text:?}")),
                    Err(e) => malformed.push(e),
                }
            }
            Ok((latency_us, malformed))
        });

        prompt_wakeups();
        let mut lag_us = Vec::with_capacity(n);
        for i in 0..n {
            let at = due(start, i);
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            lag_us.push(Instant::now().saturating_duration_since(at).as_secs_f64() * 1e6);
            socket.send(trace.datagram(i)).map_err(|e| format!("client send: {e}"))?;
        }
        let (latency_us, malformed) = replies.join().map_err(|_| "receiver panicked")??;
        Ok(Load { latency_us, lag_us, malformed, start })
    })
}

/// Runs `serve_live_10k`.
///
/// # Errors
///
/// When the daemon cannot start or the client sockets fail.
pub fn run(spec: &RunSpec) -> Result<Outcome, String> {
    let nodes = spec.scale.serve_nodes;
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut server = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = server.take() {
            Server::shutdown(previous);
        }
        let started = Instant::now();
        server =
            Some(Server::start(serve_config(nodes, spec.seed)).map_err(|e| format!("serve: {e}"))?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let server = server.ok_or("no set-up ran")?;
    let count = (QPS * spec.seconds).round() as usize;
    let trace = request_trace(spec.seed, nodes, count);

    // Request spans are recorded after the load, from its timings; the
    // epoch must precede them.
    let mut spans = Trace::new(spec.trace, 2 * count / SPAN_EVERY + 2);
    let cpu = CpuWindow::open()?;
    let started = Instant::now();
    let step_at_start = server.snapshot().header().step;
    let load = drive(server.udp_addr(), &trace, nodes);
    let step_at_end = server.snapshot().header().step;
    let window_s = started.elapsed().as_secs_f64();
    let utilisation = cpu.utilisation()?;
    let final_snapshot = server.snapshot();
    let registry = server.metrics().snapshot();
    Server::shutdown(server);
    let load = load?;

    let mut out = Outcome { attempted: count as u64, ..Outcome::default() };
    // A lost or late query misses every latency limit: it enters the
    // percentiles as infinitely late.
    let timeout_us = REPLY_TIMEOUT.as_secs_f64() * 1e6;
    let latency_us: Vec<f64> = load
        .latency_us
        .iter()
        .map(|&l| if l.is_finite() && l <= timeout_us { l } else { f64::INFINITY })
        .collect();
    let answered = latency_us.iter().filter(|l| l.is_finite()).count();
    out.failed = (count - answered) as u64;
    out.check(
        "every reply echoes its id, says OK, and fits its verb",
        match load.malformed.first() {
            None => Ok(()),
            Some(first) => Err(format!("{} bad replies, first: {first}", load.malformed.len())),
        },
    );
    out.check("final snapshot validates", final_snapshot.validate());

    let window_tails = latency_us
        .chunks_exact(TAIL_WINDOW)
        .map(|window| percentile(window, TAIL_PERCENTILE))
        .collect::<Result<Vec<f64>, _>>()
        .map_err(|e| e.to_string())?;
    if window_tails.is_empty() {
        return Err(format!("{count} queries do not fill one {TAIL_WINDOW}-query tail window"));
    }
    let tail = median(&window_tails);
    Outcome::push(&mut out.end_to_end, "setup_s", median(&setup_s), "s");
    Outcome::push(&mut out.end_to_end, "peak_rss_mib", procfs::peak_rss_mib()?, "MiB");
    Outcome::push(&mut out.end_to_end, "latency_ms_p50", median(&latency_us) / 1e3, "ms");
    Outcome::push(&mut out.end_to_end, "latency_ms_tail", tail / 1e3, "ms");
    Outcome::push(
        &mut out.end_to_end,
        "throughput_per_s",
        step_at_end.saturating_sub(step_at_start) as f64 / window_s,
        "1/s",
    );

    let hist = |name: &str, q: f64| {
        registry.histograms.get(name).and_then(|h| h.quantile(q)).unwrap_or(f64::NAN)
    };
    let handle_p50 = hist("serve_query_micros", 0.5);
    let lag_p50 = median(&load.lag_us);
    Outcome::push(&mut out.per_layer, "proc.cpu_util", utilisation, "ratio");
    // The daemon's own handling of a query, inside its latency.
    Outcome::push(&mut out.per_layer, "layer.inner_ms", handle_p50 / 1e3, "ms");
    let extra = &mut out.extra;
    Outcome::push(
        extra,
        "query_us_p99_run",
        percentile(&latency_us, TAIL_PERCENTILE).map_err(|e| e.to_string())?,
        "us",
    );
    Outcome::push(
        extra,
        "queries_over_1ms",
        latency_us.iter().filter(|&&l| l > 1_000.0).count() as f64,
        "count",
    );
    Outcome::push(extra, "serve.query_handle_us_p50", handle_p50, "us");
    Outcome::push(extra, "serve.query_handle_us_p99", hist("serve_query_micros", 0.99), "us");
    Outcome::push(
        extra,
        "serve.staleness_ms_p50",
        hist("serve_snapshot_staleness_micros", 0.5) / 1e3,
        "ms",
    );
    Outcome::push(
        extra,
        "serve.staleness_ms_p99",
        hist("serve_snapshot_staleness_micros", 0.99) / 1e3,
        "ms",
    );
    Outcome::push(extra, "serve.step_ms_p50", hist("serve_step_micros", 0.5) / 1e3, "ms");
    Outcome::push(extra, "serve.capture_ms_p50", hist("serve_capture_micros", 0.5) / 1e3, "ms");
    Outcome::push(
        extra,
        "loadgen.lag_us_p99",
        percentile(&load.lag_us, 99.0).map_err(|e| e.to_string())?,
        "us",
    );
    Outcome::push(
        extra,
        "loadgen.lag_us_max",
        load.lag_us.iter().copied().fold(0.0, f64::max),
        "us",
    );
    Outcome::push(extra, "queries_answered", answered as f64, "count");
    out.phases = Some((
        Metric { name: "query_us_p50".into(), value: median(&latency_us), unit: "us" },
        vec![
            Phase { name: "loadgen.lag_us_p50".into(), value: lag_p50 },
            Phase { name: "serve.query_handle_us_p50".into(), value: handle_p50 },
        ],
    ));

    if spec.trace {
        for i in (0..count).step_by(SPAN_EVERY) {
            let at = due(load.start, i);
            let latency = load.latency_us[i];
            if latency.is_finite() {
                let end = at + Duration::from_secs_f64(latency / 1e6);
                let query = spans.record("query", at, end, None, i as u64);
                let sent = at + Duration::from_secs_f64(load.lag_us[i] / 1e6);
                spans.record("loadgen.lag", at, sent, query, i as u64);
            }
        }
        Outcome::push(
            &mut out.extra,
            "serve.wire_answer_ns_p50",
            wire_answer_ns_p50(&final_snapshot, spec.seed)?,
            "ns",
        );
        out.trace = Some(spans);
    }
    Ok(out)
}

/// Median per-request cost of `wire::parse` + `wire::respond` over
/// [`WIRE_REQUESTS`] generated requests against `snapshot`, in ns.
///
/// # Errors
///
/// When a generated request does not parse or is answered with `ERR`.
pub fn wire_answer_ns_p50(snapshot: &MapSnapshot, seed: u64) -> Result<f64, String> {
    let requests = request_trace(seed, snapshot.node_count(), WIRE_REQUESTS);
    let mut per_request_ns = Vec::with_capacity(WIRE_REQUESTS / WIRE_BATCH);
    let mut replies = Vec::with_capacity(WIRE_BATCH);
    for first in (0..requests.len()).step_by(WIRE_BATCH) {
        let batch = first..(first + WIRE_BATCH).min(requests.len());
        replies.clear();
        let started = Instant::now();
        for i in batch.clone() {
            let parsed = wire::parse(requests.text(i));
            replies.push(parsed.map(|(id, request)| wire::respond(id, request, snapshot)));
        }
        per_request_ns.push(started.elapsed().as_nanos() as f64 / batch.len() as f64);
        for (i, reply) in batch.zip(black_box(&replies)) {
            let text = requests.text(i);
            match reply {
                Ok(reply) if reply.split_ascii_whitespace().nth(1) == Some("OK") => {}
                Ok(reply) => return Err(format!("{text:?} answered {reply:?}")),
                Err((_, e)) => return Err(format!("{text:?} did not parse: {e}")),
            }
        }
    }
    Ok(median(&per_request_ns))
}
