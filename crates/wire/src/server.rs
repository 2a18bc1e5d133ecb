//! The framed-stream server front end: TCP and Unix-domain accept loops
//! feeding the serve runtime through the overload gate.
//!
//! One reader thread per connection decodes frames with the streaming
//! [`WireDecoder`] (read timeouts make every blocking
//! read resumable, so shutdown is never stuck behind a silent peer), runs
//! each batch through its connection's [`IngestGate`], and either submits
//! to the runtime and ACKs, or NACKs with a typed
//! [`ShedReason`] — the bounded shard queues still provide backpressure,
//! but a shed decision never touches them, so overload shows up as NACKs
//! and counters instead of unbounded latency.
//!
//! Shutdown is a drain, not a drop: the flag flips, accept loops stop,
//! connections finish (within a grace period) the frame they are mid-way
//! through — NACKing it `Draining` rather than processing it — and the
//! runtime is handed back to the caller untouched, ready for its own
//! graceful [`ServeRuntime::shutdown`].

use crate::frame::{
    encode_ack, encode_health_reply, encode_nack, encode_stats_reply, FramePoll, HealthFormat,
    WireDecoder, WireError, WireFrame,
};
use crate::shed::{GateDecision, IngestGate, OverloadPolicy, ShedReason};
use lad_serve::{render_prometheus, ServeRuntime};
use lad_telemetry::{EventKind, Stage};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a [`WireServer`]. At least one listener (TCP or UDS)
/// must be set.
#[derive(Debug, Clone, Default)]
pub struct WireServerConfig {
    /// TCP listen address (e.g. `"127.0.0.1:0"` to let the OS pick).
    pub tcp_addr: Option<String>,
    /// Unix-domain socket path (removed on shutdown).
    pub uds_path: Option<PathBuf>,
    /// The overload policy every connection's gate enforces.
    pub policy: OverloadPolicy,
    /// Read-timeout granularity of the connection threads — the latency
    /// with which an idle connection notices shutdown. Default 25 ms.
    pub poll_interval: Option<Duration>,
    /// How long shutdown waits for a connection's *partial* frame to
    /// finish arriving before closing on it. Default 500 ms.
    pub drain_grace: Option<Duration>,
}

impl WireServerConfig {
    /// A TCP-only configuration with the default policy (accept all).
    pub fn tcp(addr: impl Into<String>) -> Self {
        Self {
            tcp_addr: Some(addr.into()),
            ..Self::default()
        }
    }

    /// A Unix-domain-only configuration with the default policy.
    pub fn uds(path: impl Into<PathBuf>) -> Self {
        Self {
            uds_path: Some(path.into()),
            ..Self::default()
        }
    }

    /// Returns a copy with an overload policy.
    pub fn with_policy(mut self, policy: OverloadPolicy) -> Self {
        self.policy = policy;
        self
    }
}

struct ServerShared {
    runtime: Arc<ServeRuntime>,
    policy: OverloadPolicy,
    shutdown: AtomicBool,
    poll_interval: Duration,
    drain_grace: Duration,
    /// Reader threads of live connections (plus those that ended since
    /// the last accept). Joined on shutdown.
    conns: Mutex<Vec<JoinHandle<()>>>,
}

/// The wire front door: accept loops plus per-connection reader threads
/// around a shared [`ServeRuntime`]. Start with [`WireServer::start`],
/// stop with [`WireServer::shutdown`] — the runtime itself is left
/// running either way (callers own its lifecycle).
pub struct WireServer {
    shared: Arc<ServerShared>,
    tcp_addr: Option<SocketAddr>,
    uds_path: Option<PathBuf>,
    acceptors: Vec<JoinHandle<()>>,
}

impl WireServer {
    /// Binds the configured listeners and starts accepting connections
    /// that feed `runtime`.
    pub fn start(runtime: Arc<ServeRuntime>, config: WireServerConfig) -> Result<Self, WireError> {
        if config.tcp_addr.is_none() && config.uds_path.is_none() {
            return Err(WireError::Config(
                "at least one of tcp_addr / uds_path must be set".into(),
            ));
        }
        let shared = Arc::new(ServerShared {
            runtime,
            policy: config.policy,
            shutdown: AtomicBool::new(false),
            poll_interval: config.poll_interval.unwrap_or(Duration::from_millis(25)),
            drain_grace: config.drain_grace.unwrap_or(Duration::from_millis(500)),
            conns: Mutex::new(Vec::new()),
        });
        let mut acceptors = Vec::new();
        let mut tcp_addr = None;
        if let Some(addr) = &config.tcp_addr {
            let listener = TcpListener::bind(addr)?;
            listener.set_nonblocking(true)?;
            tcp_addr = Some(listener.local_addr()?);
            let shared = Arc::clone(&shared);
            acceptors.push(std::thread::spawn(move || {
                accept_loop(&shared, || {
                    let (stream, _) = listener.accept()?;
                    let _ = stream.set_nodelay(true);
                    Ok(stream)
                });
            }));
        }
        let mut uds_path = None;
        if let Some(path) = &config.uds_path {
            // A stale socket file from a crashed predecessor would make
            // bind fail; remove it (nothing can be listening on it now).
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)?;
            listener.set_nonblocking(true)?;
            uds_path = Some(path.clone());
            let shared = Arc::clone(&shared);
            acceptors.push(std::thread::spawn(move || {
                accept_loop(&shared, || listener.accept().map(|(s, _)| s));
            }));
        }
        Ok(Self {
            shared,
            tcp_addr,
            uds_path,
            acceptors,
        })
    }

    /// The bound TCP address (with the OS-assigned port when the config
    /// asked for port 0), if a TCP listener was configured.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The bound Unix-domain socket path, if one was configured.
    pub fn uds_path(&self) -> Option<&PathBuf> {
        self.uds_path.as_ref()
    }

    /// Graceful drain: stop accepting, let every connection finish (or
    /// NACK `Draining`) its in-flight frame, join all threads, remove the
    /// UDS file. The serve runtime keeps running — shut it down separately
    /// to collect its [`ShutdownReport`](lad_serve::ShutdownReport).
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for acceptor in self.acceptors {
            let _ = acceptor.join();
        }
        let conns = std::mem::take(&mut *self.shared.conns.lock().expect("conns lock"));
        for conn in conns {
            let _ = conn.join();
        }
        if let Some(path) = &self.uds_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Polls a nonblocking `accept` until the shutdown flag flips, spawning a
/// reader thread per connection. Connections that have ended are joined
/// at each accept, so the handle list tracks the live connections, not
/// every connection the server has ever taken.
fn accept_loop<S>(shared: &Arc<ServerShared>, mut accept: impl FnMut() -> std::io::Result<S>)
where
    S: ConnStream + Send + 'static,
{
    while !shared.shutdown.load(Ordering::Acquire) {
        match accept() {
            Ok(stream) => {
                let shared2 = Arc::clone(shared);
                let handle = std::thread::spawn(move || {
                    serve_conn(&shared2, stream);
                });
                let mut conns = shared.conns.lock().expect("conns lock");
                for ended in conns.extract_if(.., |conn| conn.is_finished()) {
                    let _ = ended.join();
                }
                conns.push(handle);
            }
            // WouldBlock is the idle case; other accept errors (e.g. a peer
            // resetting mid-handshake) are transient and must not kill the
            // listener. Both just wait out the next tick.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// The two stream types a connection thread handles, unified so
/// `serve_conn` is written once.
trait ConnStream: Read + Write {
    fn set_read_timeout_(&self, timeout: Duration) -> std::io::Result<()>;
    /// Human-readable peer identity for telemetry events (never consulted
    /// by any decision).
    fn peer_label(&self) -> String;
}

impl ConnStream for TcpStream {
    fn set_read_timeout_(&self, timeout: Duration) -> std::io::Result<()> {
        self.set_read_timeout(Some(timeout))
    }

    fn peer_label(&self) -> String {
        self.peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "tcp:?".to_string())
    }
}

impl ConnStream for UnixStream {
    fn set_read_timeout_(&self, timeout: Duration) -> std::io::Result<()> {
        self.set_read_timeout(Some(timeout))
    }

    fn peer_label(&self) -> String {
        "uds".to_string()
    }
}

/// Per-source event sampling rate for Shed events: a connection's
/// **first** one is always recorded — the transition
/// into overload is the high-signal moment — then every Nth after it.
/// Skipped events are one relaxed counter add
/// ([`lad_telemetry::EventRing::note_sampled_out`]): no `String`
/// formatting, no ring lock, so a NACK flood cannot make the event ring
/// itself part of the overload. True rates live in the counters; the ring
/// only carries exemplars.
const EVENT_SAMPLE_EVERY: u64 = 16;

/// One connection's read-decode-gate-submit loop.
fn serve_conn<S: ConnStream>(shared: &ServerShared, mut stream: S) {
    if stream.set_read_timeout_(shared.poll_interval).is_err() {
        return;
    }
    let runtime = &shared.runtime;
    let telemetry = Arc::clone(runtime.telemetry());
    // Resolved once: the label that ties this connection's Shed /
    // DecodeError events back to a source address.
    let peer = if telemetry.enabled() {
        stream.peer_label()
    } else {
        String::new()
    };
    let mut decoder = WireDecoder::new(runtime.group_count());
    let mut gate = IngestGate::new(shared.policy);
    let mut out = Vec::new();
    // Per-source (per-connection) shed count driving the
    // first-then-every-Nth event sampling.
    let mut shed_seen = 0u64;
    let epoch = Instant::now();
    // Once the shutdown flag is seen, a partial frame gets until `deadline`
    // to finish arriving (it will be NACKed `Draining`) before the
    // connection closes on it.
    let mut drain_deadline: Option<Instant> = None;
    loop {
        if drain_deadline.is_none() && shared.shutdown.load(Ordering::Acquire) {
            if !decoder.has_partial() {
                return;
            }
            drain_deadline = Some(Instant::now() + shared.drain_grace);
        }
        if let Some(deadline) = drain_deadline {
            if Instant::now() >= deadline {
                return;
            }
        }
        // The decode span covers the poll that *completes* a frame; polls
        // that come back Pending/Closed are cancelled (idle waiting is not
        // decode work). See `Stage::Decode` for the accuracy caveat.
        let decode_span = telemetry.span(Stage::Decode);
        match decoder.poll_frame(&mut stream) {
            Ok(FramePoll::Pending) => {
                decode_span.cancel();
                continue;
            }
            Ok(FramePoll::Closed) => {
                decode_span.cancel();
                return;
            }
            Ok(FramePoll::Frame(WireFrame::Batch { round, rows })) => {
                decode_span.stop();
                // The gate span covers decide + submit hand-off + receipt
                // write: everything between a decoded batch and its ACK/NACK
                // leaving the socket.
                let _gate_span = telemetry.span(Stage::Gate);
                out.clear();
                if drain_deadline.is_some() {
                    runtime.record_shed(rows as u64);
                    if telemetry.enabled() {
                        let detail = format!("{peer} {:?}", ShedReason::Draining);
                        telemetry.event(EventKind::Shed, round, rows as u64, 0, &detail);
                    }
                    let shed_total = runtime.counters().shed;
                    encode_nack(&mut out, round, rows, ShedReason::Draining, shed_total);
                    let _ = stream.write_all(&out);
                    return;
                }
                let now_nanos = epoch.elapsed().as_nanos() as u64;
                let depth = runtime.counters().queue_depth();
                match gate.decide(rows as u64, depth, now_nanos) {
                    GateDecision::Accept => {
                        runtime.submit_rows(round, decoder.nodes(), decoder.batch());
                        encode_ack(&mut out, round, rows);
                    }
                    GateDecision::Shed(reason) => {
                        runtime.record_shed(rows as u64);
                        if telemetry.enabled() {
                            shed_seen += 1;
                            if (shed_seen - 1).is_multiple_of(EVENT_SAMPLE_EVERY) {
                                let detail = format!("{peer} {reason:?}");
                                telemetry.event(EventKind::Shed, round, rows as u64, 0, &detail);
                            } else {
                                // The flood path: one relaxed add, no
                                // allocation, no lock.
                                telemetry.ring().note_sampled_out(1);
                            }
                        }
                        encode_nack(&mut out, round, rows, reason, runtime.counters().shed);
                    }
                }
                if stream.write_all(&out).is_err() {
                    return;
                }
            }
            // The observability query: answered even while draining, so an
            // operator can watch a shutdown converge.
            Ok(FramePoll::Frame(WireFrame::StatsRequest)) => {
                decode_span.stop();
                out.clear();
                let json = runtime.stats().to_json();
                encode_stats_reply(&mut out, json.as_bytes());
                if stream.write_all(&out).is_err() {
                    return;
                }
            }
            // The health query (also answered while draining): refresh the
            // drift verdict first — the accumulator fold rides the shard
            // queues, so like `sync` it waits behind in-flight batches —
            // then answer in the asked-for encoding.
            Ok(FramePoll::Frame(WireFrame::HealthRequest { format })) => {
                decode_span.stop();
                out.clear();
                runtime.refresh_drift();
                let stats = runtime.stats();
                let body = match format {
                    HealthFormat::Report => stats.health.to_json(),
                    HealthFormat::Prometheus => render_prometheus(&stats),
                };
                encode_health_reply(&mut out, body.as_bytes());
                if stream.write_all(&out).is_err() {
                    return;
                }
            }
            // A client must not send Ack/Nack/StatsReply; protocol error.
            Ok(FramePoll::Frame(frame)) => {
                decode_span.cancel();
                runtime.record_decode_error();
                if telemetry.enabled() {
                    let detail = format!("{peer} unexpected frame {frame:?}");
                    telemetry.event(EventKind::DecodeError, 0, 0, 0, &detail);
                }
                return;
            }
            Err(err) => {
                // A length-prefixed stream cannot resynchronise after a bad
                // frame: count it and close (the client sees EOF and its
                // typed error locally).
                decode_span.cancel();
                runtime.record_decode_error();
                if telemetry.enabled() {
                    let detail = format!("{peer} {err}");
                    telemetry.event(EventKind::DecodeError, 0, 0, 0, &detail);
                }
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WireClient;
    use lad_core::{LadEngine, MetricKind};
    use lad_deployment::DeploymentConfig;
    use lad_serve::ServeConfig;
    use lad_stats::SequentialDetector;

    #[test]
    fn finished_connections_do_not_accumulate() {
        const CYCLES: usize = 200;
        const SLACK: usize = 4;
        let engine = Arc::new(
            LadEngine::builder()
                .deployment(&DeploymentConfig::small_test())
                .metrics(&[MetricKind::Diff])
                .score_only()
                .build()
                .unwrap(),
        );
        let detector = SequentialDetector::Cusum {
            reference: 1.0,
            threshold: 10.0,
        };
        let config = ServeConfig::new(MetricKind::Diff, detector);
        let runtime = Arc::new(ServeRuntime::start(engine, config).unwrap());
        let server = WireServer::start(runtime, WireServerConfig::tcp("127.0.0.1:0")).unwrap();
        let addr = server.tcp_addr().unwrap();
        for cycle in 0..CYCLES {
            // A stats round trip proves the server took the connection
            // before the client closes it.
            let mut client = WireClient::connect_tcp(addr).unwrap();
            client.query_stats().unwrap();
            drop(client);
            // One connection is live at most (the one just closed, until
            // its reader sees EOF), plus the slack.
            let tracked = server.shared.conns.lock().unwrap().len();
            assert!(
                tracked <= 1 + SLACK,
                "cycle {cycle}: {tracked} reader handles tracked"
            );
        }
        server.shutdown();
    }
}
