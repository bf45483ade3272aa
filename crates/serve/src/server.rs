//! The sharded online daemon: listeners, connection readers, shard
//! workers, and the `/metrics` HTTP endpoint.
//!
//! # Thread architecture
//!
//! ```text
//! acceptor (per endpoint) ──spawns──▶ reader (per connection)
//!                                        │ decode, hash-route
//!                                        ▼
//!                   bounded mpsc queue (per shard, blocking send)
//!                                        │
//!                                        ▼
//!                             shard worker (per shard)
//!                    sessions: (conn, device) → Manager + builder
//!                                        │ evaluate at RunEnd
//!                                        ▼
//!                          connection writer (mutexed half)
//! ```
//!
//! * **Routing**: shard = `splitmix64(device) % shards`. A device's
//!   frames always land on one shard in arrival order, so per-device
//!   state needs no locks and decisions stay ordered per device.
//! * **Backpressure**: each shard queue is a bounded
//!   [`std::sync::mpsc::sync_channel`]; when a shard falls behind,
//!   readers block in `send`, stop draining their sockets, and the
//!   kernel's TCP/UDS flow control pushes back on clients. No frame is
//!   ever dropped for load reasons.
//! * **Decision granularity**: [`RunStreams`](pcap_sim::RunStreams)
//!   derives every gap from the *next* access's timestamp, so a
//!   decision for access `i` is computable only once its successor is
//!   known. The server therefore evaluates at `RunEnd` — online at run
//!   granularity — which is also what makes the emitted decision
//!   stream byte-identical to the offline audit stream.
//! * **Session lifetime**: sessions are keyed by (connection, device);
//!   a disconnect retires all of the connection's sessions, so a
//!   reconnecting client starts its devices from fresh predictor
//!   state. `DeviceEnd` retires one device early and answers with its
//!   table statistics.

use crate::frame::{self, ClientFrame, ServerFrame};
use crate::metrics::ServeMetrics;
use pcap_obs::log::{self, RateGate};
use pcap_obs::{FlightKind, FlightRecorder};
use pcap_sim::{
    DecisionObserver, DecisionRecord, GapEnergy, Manager, PowerManagerKind, ShardEvaluator,
    SimConfig,
};
use pcap_trace::TraceRunBuilder;
use pcap_types::wire::{self, WireError};
use pcap_types::{Pid, TraceEvent};
use pcap_workload::splitmix64;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Where the daemon listens for event streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP socket address.
    Tcp(SocketAddr),
    /// A Unix-domain socket path.
    Uds(PathBuf),
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Simulation parameters shared by every shard.
    pub sim: SimConfig,
    /// The power manager every device runs.
    pub kind: PowerManagerKind,
    /// Shard worker count (must be ≥ 1).
    pub shards: usize,
    /// Bounded per-shard queue capacity, in messages.
    pub queue_depth: usize,
    /// Keep one full audit record per this many decisions (0 = off).
    pub sample_every: u64,
    /// Flight-recorder slots per ring (one ring per shard plus one for
    /// the reader threads; 0 disables recording entirely).
    pub flight_capacity: usize,
    /// Record per-shard stage-latency histograms
    /// (decode / queue-wait / evaluate / encode).
    pub stage_metrics: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            sim: SimConfig::paper(),
            kind: PowerManagerKind::PCAP,
            shards: std::thread::available_parallelism().map_or(2, |n| n.get()),
            queue_depth: 1024,
            sample_every: 64,
            flight_capacity: 4096,
            stage_metrics: true,
        }
    }
}

/// The shard a device's frames are routed to. Public so tests can pin
/// that routing is a pure function of (device, shard count).
pub fn shard_of(device: u64, shards: usize) -> usize {
    (splitmix64(device) % shards as u64) as usize
}

/// One connection's reply channel: the socket's write half behind a
/// mutex. Shards on different threads may interleave *frames* of
/// different devices, never bytes within a frame.
struct Reply {
    stream: Mutex<Box<dyn Write + Send>>,
    dead: AtomicBool,
}

impl Reply {
    fn send(&self, bytes: &[u8]) {
        if bytes.is_empty() || self.dead.load(Ordering::Relaxed) {
            return;
        }
        let mut stream = self.stream.lock().expect("reply half poisoned");
        if stream
            .write_all(bytes)
            .and_then(|()| stream.flush())
            .is_err()
        {
            // Client is gone; decisions for its in-flight runs are
            // dropped, state cleanup happens via the reader's EOF.
            self.dead.store(true, Ordering::Relaxed);
        }
    }
}

/// What a reader sends to a shard worker.
enum ShardMsg {
    Op {
        conn: u64,
        device: u64,
        op: DeviceOp,
        reply: Arc<Reply>,
    },
    /// The connection closed; retire all its sessions on this shard.
    ConnClosed { conn: u64 },
}

enum DeviceOp {
    RunStart {
        root: Pid,
    },
    Event(TraceEvent),
    /// `enqueued_at` is stamped by the reader just before the blocking
    /// send, so the shard can attribute queue-wait separately from
    /// evaluation. Only run-completing messages carry a stamp — they
    /// are the ones whose end-to-end latency the client observes.
    RunEnd {
        enqueued_at: Instant,
    },
    DeviceEnd,
}

/// Per-(connection, device) server state.
struct Session {
    manager: Manager,
    builder: Option<TraceRunBuilder>,
    run: u32,
}

/// Collects one record per engine decision into a per-shard scratch
/// buffer, stamping the device's run index exactly as the offline
/// `AuditCollector` does. Encoding happens afterwards in a separately
/// timed pass ([`handle_op`]), so evaluate and encode are attributable
/// stages — the emitted byte stream is unchanged because records are
/// encoded in decision order before the run summary.
struct EmitObserver<'a> {
    run: u32,
    records: &'a mut Vec<DecisionRecord>,
    metrics: &'a ServeMetrics,
}

impl DecisionObserver for EmitObserver<'_> {
    fn on_decision(&mut self, mut record: DecisionRecord, _energy: &GapEnergy) {
        record.run = self.run;
        self.metrics.observe_decision(&record);
        self.records.push(record);
    }
}

/// A handle to a running server: join/stop control plus the shared
/// metrics and the resolved listen addresses.
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    metrics: Arc<ServeMetrics>,
    flight: Arc<FlightRecorder>,
    tcp_addr: Option<SocketAddr>,
    metrics_addr: Option<SocketAddr>,
    uds_paths: Vec<PathBuf>,
    threads: Vec<JoinHandle<()>>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    shard_txs: Vec<SyncSender<ShardMsg>>,
    shard_joins: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The shared metrics registry.
    pub fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.metrics
    }

    /// The shared flight recorder (ring `shards` is the reader-thread
    /// ring; rings `0..shards` belong to the shard workers). Clone the
    /// `Arc` to dump from signal or panic handlers.
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        &self.flight
    }

    /// The bound TCP address, if a TCP endpoint was requested (useful
    /// with port 0).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The bound `/metrics` HTTP address, if requested.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Stops every thread, drains the shard queues, joins everything,
    /// and removes Unix socket files.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
        let readers: Vec<_> = {
            let mut guard = self.readers.lock().expect("reader registry poisoned");
            guard.drain(..).collect()
        };
        for handle in readers {
            let _ = handle.join();
        }
        // All reader-held senders are gone; dropping ours ends the
        // shard workers' recv loops after the queues drain.
        drop(std::mem::take(&mut self.shard_txs));
        for handle in std::mem::take(&mut self.shard_joins) {
            let _ = handle.join();
        }
        for path in &self.uds_paths {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Starts a server on `endpoints`, optionally with an HTTP `/metrics`
/// listener on `metrics_http`.
///
/// # Errors
///
/// Any bind failure; `shards == 0` or empty `endpoints` are reported
/// as [`std::io::ErrorKind::InvalidInput`].
pub fn start(
    config: ServeConfig,
    endpoints: &[Endpoint],
    metrics_http: Option<SocketAddr>,
) -> std::io::Result<ServerHandle> {
    use std::io::{Error, ErrorKind};
    if config.shards == 0 {
        return Err(Error::new(
            ErrorKind::InvalidInput,
            "shard count must be >= 1",
        ));
    }
    if endpoints.is_empty() {
        return Err(Error::new(ErrorKind::InvalidInput, "no listen endpoints"));
    }
    let metrics = Arc::new(ServeMetrics::new(config.shards, config.sample_every));
    // One flight ring per shard (single-writer) plus one shared ring
    // for all reader threads.
    let flight = Arc::new(FlightRecorder::new(
        config.shards + 1,
        config.flight_capacity,
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let conn_ids = Arc::new(AtomicU64::new(0));

    // Shard workers.
    let mut shard_txs = Vec::with_capacity(config.shards);
    let mut shard_joins = Vec::with_capacity(config.shards);
    for shard in 0..config.shards {
        let (tx, rx) = sync_channel::<ShardMsg>(config.queue_depth.max(1));
        shard_txs.push(tx);
        let metrics = Arc::clone(&metrics);
        let flight = Arc::clone(&flight);
        let config = config.clone();
        shard_joins.push(
            std::thread::Builder::new()
                .name(format!("pcap-shard-{shard}"))
                .spawn(move || shard_worker(shard, rx, &config, &metrics, &flight))
                .expect("spawn shard worker"),
        );
    }
    let shared = Arc::new(ReaderShared {
        stop: Arc::clone(&stop),
        metrics: Arc::clone(&metrics),
        flight: Arc::clone(&flight),
        shard_txs: shard_txs.clone(),
        stage_metrics: config.stage_metrics,
    });

    let mut threads = Vec::new();
    let mut tcp_addr = None;
    let mut uds_paths = Vec::new();
    for endpoint in endpoints {
        match endpoint {
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr)?;
                listener.set_nonblocking(true)?;
                tcp_addr = Some(listener.local_addr()?);
                threads.push(spawn_acceptor(
                    listener,
                    Arc::clone(&shared),
                    Arc::clone(&readers),
                    Arc::clone(&conn_ids),
                    |stream| {
                        stream.set_nodelay(true).ok();
                        let write: Box<dyn Write + Send> = Box::new(stream.try_clone()?);
                        Ok((Box::new(stream) as Box<dyn ReadHalf>, write))
                    },
                ));
            }
            Endpoint::Uds(path) => {
                // A stale socket file from a dead process blocks bind;
                // taking it over is standard daemon behavior.
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                listener.set_nonblocking(true)?;
                uds_paths.push(path.clone());
                threads.push(spawn_acceptor(
                    listener,
                    Arc::clone(&shared),
                    Arc::clone(&readers),
                    Arc::clone(&conn_ids),
                    |stream| {
                        let write: Box<dyn Write + Send> = Box::new(stream.try_clone()?);
                        Ok((Box::new(stream) as Box<dyn ReadHalf>, write))
                    },
                ));
            }
        }
    }

    let mut metrics_addr = None;
    if let Some(addr) = metrics_http {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        metrics_addr = Some(listener.local_addr()?);
        let stop = Arc::clone(&stop);
        let metrics = Arc::clone(&metrics);
        let flight = Arc::clone(&flight);
        threads.push(
            std::thread::Builder::new()
                .name("pcap-metrics-http".to_owned())
                .spawn(move || metrics_http_loop(listener, &stop, &metrics, &flight))
                .expect("spawn metrics http"),
        );
    }

    Ok(ServerHandle {
        stop,
        metrics,
        flight,
        tcp_addr,
        metrics_addr,
        uds_paths,
        threads,
        readers,
        shard_txs,
        shard_joins,
    })
}

/// Abstracts TCP and Unix streams for the reader loop.
trait ReadHalf: Read + Send {
    fn set_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()>;
}

impl ReadHalf for TcpStream {
    fn set_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.set_read_timeout(timeout)
    }
}

impl ReadHalf for UnixStream {
    fn set_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.set_read_timeout(timeout)
    }
}

trait Acceptable: Send + 'static {
    type Stream: Send + 'static;
    fn try_accept(&self) -> std::io::Result<Self::Stream>;
}

impl Acceptable for TcpListener {
    type Stream = TcpStream;
    fn try_accept(&self) -> std::io::Result<TcpStream> {
        self.accept().map(|(s, _)| s)
    }
}

impl Acceptable for UnixListener {
    type Stream = UnixStream;
    fn try_accept(&self) -> std::io::Result<UnixStream> {
        self.accept().map(|(s, _)| s)
    }
}

type SplitFn<S> = fn(S) -> std::io::Result<(Box<dyn ReadHalf>, Box<dyn Write + Send>)>;

/// Immutable state shared by every acceptor and reader thread.
struct ReaderShared {
    stop: Arc<AtomicBool>,
    metrics: Arc<ServeMetrics>,
    flight: Arc<FlightRecorder>,
    shard_txs: Vec<SyncSender<ShardMsg>>,
    stage_metrics: bool,
}

impl ReaderShared {
    /// The flight ring shared by all reader threads (the last one;
    /// rings `0..shards` are single-writer shard rings).
    fn io_ring(&self) -> usize {
        self.flight.rings() - 1
    }
}

fn spawn_acceptor<L: Acceptable>(
    listener: L,
    shared: Arc<ReaderShared>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    conn_ids: Arc<AtomicU64>,
    split: SplitFn<L::Stream>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("pcap-acceptor".to_owned())
        .spawn(move || loop {
            if shared.stop.load(Ordering::Relaxed) {
                return;
            }
            match listener.try_accept() {
                Ok(stream) => {
                    let Ok((read, write)) = split(stream) else {
                        continue;
                    };
                    shared.metrics.connections.fetch_add(1, Ordering::Relaxed);
                    let conn = conn_ids.fetch_add(1, Ordering::Relaxed);
                    let shared = Arc::clone(&shared);
                    let handle = std::thread::Builder::new()
                        .name(format!("pcap-conn-{conn}"))
                        .spawn(move || {
                            connection_reader(conn, read, write, &shared);
                        })
                        .expect("spawn connection reader");
                    let mut readers = readers.lock().expect("reader registry poisoned");
                    // Drop the handles of exited readers: an exited
                    // thread keeps its stack mapped until it is joined
                    // or detached, and dropping its handle detaches it.
                    readers.retain(|h| !h.is_finished());
                    readers.push(handle);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        })
        .expect("spawn acceptor")
}

/// Sample one frame decode per this many frames per connection: dense
/// enough to keep per-shard decode histograms live under load, sparse
/// enough that the two clock reads stay invisible in the budget.
const DECODE_SAMPLE_EVERY: u64 = 64;

/// At most this many bad-frame warn lines per second process-wide;
/// the rest are counted and reported on the next admitted line.
static BAD_FRAME_LOG: RateGate = RateGate::new(5, 1_000_000);

fn warn_bad_frame(shared: &ReaderShared, conn: u64, what: &str) {
    if let Some(suppressed) = BAD_FRAME_LOG.admit(shared.flight.now_ns() / 1_000) {
        log::warn(
            "serve",
            "bad frame",
            &[
                ("conn", &conn.to_string()),
                ("what", what),
                ("suppressed", &suppressed.to_string()),
            ],
        );
    }
}

/// Reads frames off one connection, decodes, and hash-routes to the
/// shard queues. Malformed-frame policy:
///
/// * unknown tag / truncated payload (length known) → count
///   `bad_frames`, skip the frame, keep reading — device state is
///   untouched;
/// * oversized length prefix → count `bad_frames`, close the
///   connection (the byte stream cannot be resynchronized);
/// * EOF with a partial frame buffered (truncated header) → count
///   `bad_frames` on the way out.
///
/// Every malformed frame also lands a `bad_frame` flight event and a
/// rate-limited structured warn line.
fn connection_reader(
    conn: u64,
    mut read: Box<dyn ReadHalf>,
    write: Box<dyn Write + Send>,
    shared: &ReaderShared,
) {
    let metrics = &*shared.metrics;
    let reply = Arc::new(Reply {
        stream: Mutex::new(write),
        dead: AtomicBool::new(false),
    });
    let _ = read.set_timeout(Some(Duration::from_millis(50)));
    shared
        .flight
        .record(shared.io_ring(), FlightKind::ConnOpen, conn, 0, 0);
    let mut buf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut chunk = [0u8; 64 * 1024];
    let mut frames_seen: u64 = 0;
    'conn: loop {
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        let n = match read.read(&mut chunk) {
            Ok(0) => break, // EOF
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        buf.extend_from_slice(&chunk[..n]);
        let mut consumed = 0;
        loop {
            match wire::read_frame(&buf[consumed..]) {
                Ok(None) => break,
                Ok(Some((payload, used))) => {
                    frames_seen += 1;
                    // Sampled decode timing: two clock reads every
                    // 64th frame keeps the hot path flat.
                    let timed = (shared.stage_metrics || shared.flight.enabled())
                        && frames_seen.is_multiple_of(DECODE_SAMPLE_EVERY);
                    let decode_start = timed.then(Instant::now);
                    match frame::decode_client(payload) {
                        Ok(frame) => {
                            let decode_ns = decode_start.map(|t| t.elapsed().as_nanos() as u64);
                            metrics.frames.fetch_add(1, Ordering::Relaxed);
                            route(conn, frame, decode_ns, &reply, shared);
                        }
                        Err(_) => {
                            // The frame boundary is known: drop just
                            // this frame, keep the connection.
                            metrics.bad_frames.fetch_add(1, Ordering::Relaxed);
                            shared.flight.record(
                                shared.io_ring(),
                                FlightKind::BadFrame,
                                conn,
                                0,
                                0,
                            );
                            warn_bad_frame(shared, conn, "undecodable payload");
                        }
                    }
                    consumed += used;
                }
                Err(WireError::Oversized { .. }) => {
                    metrics.bad_frames.fetch_add(1, Ordering::Relaxed);
                    shared
                        .flight
                        .record(shared.io_ring(), FlightKind::BadFrame, conn, 1, 0);
                    warn_bad_frame(shared, conn, "oversized length prefix");
                    buf.clear();
                    break 'conn;
                }
                Err(_) => unreachable!("read_frame only fails with Oversized"),
            }
        }
        buf.drain(..consumed);
    }
    if !buf.is_empty() {
        // Truncated header or mid-frame EOF.
        metrics.bad_frames.fetch_add(1, Ordering::Relaxed);
        shared
            .flight
            .record(shared.io_ring(), FlightKind::BadFrame, conn, 2, 0);
        warn_bad_frame(shared, conn, "truncated at EOF");
    }
    metrics.disconnects.fetch_add(1, Ordering::Relaxed);
    shared.flight.record(
        shared.io_ring(),
        FlightKind::ConnClose,
        conn,
        frames_seen,
        0,
    );
    reply.dead.store(true, Ordering::Relaxed);
    for tx in &shared.shard_txs {
        let _ = tx.send(ShardMsg::ConnClosed { conn });
    }
}

fn route(
    conn: u64,
    frame: ClientFrame,
    decode_ns: Option<u64>,
    reply: &Arc<Reply>,
    shared: &ReaderShared,
) {
    let metrics = &*shared.metrics;
    let (device, op) = match frame {
        // The hello is connection-scoped; nothing to route. Version
        // mismatches are tolerated within v1 (there is only v1).
        ClientFrame::Hello { .. } => return,
        ClientFrame::RunStart { device, root } => (device, DeviceOp::RunStart { root }),
        ClientFrame::Event { device, event } => (device, DeviceOp::Event(event)),
        ClientFrame::RunEnd { device } => (
            device,
            DeviceOp::RunEnd {
                enqueued_at: Instant::now(),
            },
        ),
        ClientFrame::DeviceEnd { device } => (device, DeviceOp::DeviceEnd),
    };
    let shard = shard_of(device, shared.shard_txs.len());
    if let Some(ns) = decode_ns {
        if shared.stage_metrics {
            metrics.shards[shard].decode_ns.record(ns);
        }
        shared
            .flight
            .record(shared.io_ring(), FlightKind::FrameDecode, device, ns, 0);
    }
    if matches!(op, DeviceOp::RunEnd { .. }) {
        shared.flight.record(
            shared.io_ring(),
            FlightKind::Enqueue,
            device,
            shard as u64,
            0,
        );
    }
    metrics.shards[shard]
        .enqueued
        .fetch_add(1, Ordering::Release);
    // A full queue blocks here — that is the backpressure contract.
    if shared.shard_txs[shard]
        .send(ShardMsg::Op {
            conn,
            device,
            op,
            reply: Arc::clone(reply),
        })
        .is_err()
    {
        // Shard is gone (shutdown); account the message as processed
        // so depth drains to zero.
        metrics.shards[shard]
            .processed
            .fetch_add(1, Ordering::Release);
    }
}

fn shard_worker(
    shard: usize,
    rx: Receiver<ShardMsg>,
    config: &ServeConfig,
    metrics: &ServeMetrics,
    flight: &FlightRecorder,
) {
    let mut evaluator = ShardEvaluator::new(&config.sim);
    let mut sessions: HashMap<(u64, u64), Session> = HashMap::new();
    let mut out = Vec::with_capacity(64 * 1024);
    let mut records: Vec<DecisionRecord> = Vec::with_capacity(1024);
    let stats = &metrics.shards[shard];
    while let Ok(msg) = rx.recv() {
        match msg {
            ShardMsg::ConnClosed { conn } => {
                let before = sessions.len();
                sessions.retain(|&(c, _), _| c != conn);
                let removed = (before - sessions.len()) as u64;
                metrics.devices_active.fetch_sub(removed, Ordering::Relaxed);
            }
            ShardMsg::Op {
                conn,
                device,
                op,
                reply,
            } => {
                handle_op(
                    conn,
                    device,
                    op,
                    &reply,
                    config,
                    metrics,
                    flight,
                    shard,
                    &mut evaluator,
                    &mut sessions,
                    &mut out,
                    &mut records,
                );
                stats.processed.fetch_add(1, Ordering::Release);
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn handle_op(
    conn: u64,
    device: u64,
    op: DeviceOp,
    reply: &Arc<Reply>,
    config: &ServeConfig,
    metrics: &ServeMetrics,
    flight: &FlightRecorder,
    shard: usize,
    evaluator: &mut ShardEvaluator,
    sessions: &mut HashMap<(u64, u64), Session>,
    out: &mut Vec<u8>,
    records: &mut Vec<DecisionRecord>,
) {
    let key = (conn, device);
    match op {
        DeviceOp::RunStart { root } => {
            let session = sessions.entry(key).or_insert_with(|| {
                metrics.devices_active.fetch_add(1, Ordering::Relaxed);
                Session {
                    manager: config.kind.manager(&config.sim),
                    builder: None,
                    run: 0,
                }
            });
            if session.builder.is_some() {
                // RunStart with a run already open: the open run can
                // never be completed coherently; discard it.
                metrics.stray_frames.fetch_add(1, Ordering::Relaxed);
                flight.record(shard, FlightKind::StrayFrame, device, 0, 0);
            }
            session.builder = Some(TraceRunBuilder::new(root));
        }
        DeviceOp::Event(event) => match sessions.get_mut(&key).and_then(|s| s.builder.as_mut()) {
            Some(builder) => {
                builder.event(event);
                metrics.events.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                metrics.stray_frames.fetch_add(1, Ordering::Relaxed);
                flight.record(shard, FlightKind::StrayFrame, device, 1, 0);
            }
        },
        DeviceOp::RunEnd { enqueued_at } => {
            let Some(session) = sessions.get_mut(&key) else {
                metrics.stray_frames.fetch_add(1, Ordering::Relaxed);
                return;
            };
            let Some(builder) = session.builder.take() else {
                metrics.stray_frames.fetch_add(1, Ordering::Relaxed);
                return;
            };
            out.clear();
            let stats = &metrics.shards[shard];
            let started = Instant::now();
            let queue_wait_us = started.duration_since(enqueued_at).as_micros() as u64;
            if config.stage_metrics {
                stats.queue_wait_us.record(queue_wait_us);
            }
            flight.record(shard, FlightKind::Dequeue, device, queue_wait_us, 0);
            match builder.finish() {
                Ok(trace_run) => {
                    let mut observer = EmitObserver {
                        run: session.run,
                        records,
                        metrics,
                    };
                    observer.on_run_start(session.run);
                    evaluator.evaluate_run_observed(
                        &trace_run,
                        &mut session.manager,
                        &mut observer,
                    );
                    let evaluated = Instant::now();
                    // Encode as a separately-timed stage: decision
                    // frames in decision order, then the run summary —
                    // byte-identical to the former inline encoding.
                    let decisions = records.len() as u32;
                    for record in records.iter() {
                        frame::encode_server(
                            &ServerFrame::Decision {
                                device,
                                record: *record,
                            },
                            out,
                        );
                    }
                    frame::encode_server(
                        &ServerFrame::RunSummary {
                            device,
                            run: session.run,
                            decisions,
                            accesses: evaluator.last_run_accesses() as u32,
                        },
                        out,
                    );
                    let done = Instant::now();
                    let eval_us = evaluated.duration_since(started).as_micros() as u64;
                    let encode_us = done.duration_since(evaluated).as_micros() as u64;
                    let elapsed = done.duration_since(started).as_micros() as u64;
                    if config.stage_metrics {
                        stats.eval_us.record(eval_us);
                        stats.encode_us.record(encode_us);
                    }
                    metrics.run_eval_us.record(elapsed);
                    metrics.runs.fetch_add(1, Ordering::Relaxed);
                    stats.runs.fetch_add(1, Ordering::Relaxed);
                    stats.busy_us.fetch_add(elapsed, Ordering::Relaxed);
                    let ts = flight.now_ns();
                    flight.record_at(
                        shard,
                        ts,
                        FlightKind::RunEval,
                        device,
                        eval_us,
                        decisions as u64,
                    );
                    flight.record_at(
                        shard,
                        ts,
                        FlightKind::Emit,
                        device,
                        out.len() as u64,
                        encode_us,
                    );
                    records.clear();
                    session.run += 1;
                }
                Err(_) => {
                    // Invalid run: device state is as if the run never
                    // happened (the manager was never touched).
                    metrics.run_rejects.fetch_add(1, Ordering::Relaxed);
                    flight.record(shard, FlightKind::RunReject, device, 0, 0);
                    frame::encode_server(
                        &ServerFrame::RunRejected {
                            device,
                            run: session.run,
                        },
                        out,
                    );
                }
            }
            reply.send(out);
        }
        DeviceOp::DeviceEnd => {
            let Some(session) = sessions.remove(&key) else {
                metrics.stray_frames.fetch_add(1, Ordering::Relaxed);
                return;
            };
            metrics.devices_active.fetch_sub(1, Ordering::Relaxed);
            out.clear();
            frame::encode_server(
                &ServerFrame::DeviceSummary {
                    device,
                    runs: session.run,
                    table_entries: session.manager.table_entries().map(|n| n as u64),
                    table_aliases: session.manager.table_aliases(),
                },
                out,
            );
            reply.send(out);
        }
    }
}

/// Longest request head the metrics endpoint accepts; anything larger
/// is answered `431` and closed (no buffering of unbounded garbage).
const HTTP_MAX_HEAD: usize = 8 * 1024;

/// Concurrent metrics-HTTP handler cap; excess connections get `503`
/// immediately instead of queueing behind slow readers.
const HTTP_MAX_INFLIGHT: u64 = 32;

/// Reads one request head (through the `\r\n\r\n` terminator) and
/// returns the request path, or an error status line to answer with.
/// Byte soup, truncation, slow-loris stalls, and oversized heads all
/// map to error responses — never a panic, never a wedged listener.
fn read_request_path(stream: &mut TcpStream) -> Result<String, &'static str> {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut head: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    loop {
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.windows(2).any(|w| w == b"\n\n") {
            break;
        }
        if head.len() > HTTP_MAX_HEAD {
            return Err("431 Request Header Fields Too Large");
        }
        if Instant::now() > deadline {
            return Err("408 Request Timeout");
        }
        match stream.read(&mut chunk) {
            Ok(0) => break, // client closed; judge what we have
            Ok(n) => head.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                continue;
            }
            Err(_) => return Err("400 Bad Request"),
        }
    }
    let head = String::from_utf8_lossy(&head);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    match (parts.next(), parts.next()) {
        (Some(method), Some(path)) if method.chars().all(|c| c.is_ascii_alphabetic()) => {
            Ok(path.to_owned())
        }
        _ => Err("400 Bad Request"),
    }
}

fn answer(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
}

/// Minimal HTTP/1.1 responder for `/metrics` (Prometheus text),
/// `/audit` (sampled decision records as JSONL) and `/debug/flight`
/// (the flight-recorder dump as JSONL). Each accepted connection is
/// handled on a short-lived thread with read/write deadlines, so one
/// stalled or malicious client cannot wedge the scrape path.
fn metrics_http_loop(
    listener: TcpListener,
    stop: &AtomicBool,
    metrics: &Arc<ServeMetrics>,
    flight: &Arc<FlightRecorder>,
) {
    let inflight = Arc::new(AtomicU64::new(0));
    loop {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        match listener.accept() {
            Ok((mut stream, _)) => {
                if inflight.load(Ordering::Relaxed) >= HTTP_MAX_INFLIGHT {
                    answer(
                        &mut stream,
                        "503 Service Unavailable",
                        "text/plain",
                        "too many connections\n",
                    );
                    continue;
                }
                inflight.fetch_add(1, Ordering::Relaxed);
                let handler_inflight = Arc::clone(&inflight);
                let metrics = Arc::clone(metrics);
                let flight = Arc::clone(flight);
                let spawned = std::thread::Builder::new()
                    .name("pcap-metrics-req".to_owned())
                    .spawn(move || {
                        match read_request_path(&mut stream) {
                            Ok(path) => {
                                let (status, content_type, body) = match path.as_str() {
                                    "/metrics" => (
                                        "200 OK",
                                        "text/plain; version=0.0.4",
                                        metrics.render_prometheus(),
                                    ),
                                    "/audit" => (
                                        "200 OK",
                                        "application/jsonl",
                                        pcap_sim::records_to_jsonl(&metrics.sampled_records()),
                                    ),
                                    "/debug/flight" => {
                                        ("200 OK", "application/jsonl", flight.dump_jsonl())
                                    }
                                    _ => ("404 Not Found", "text/plain", "not found\n".to_owned()),
                                };
                                answer(&mut stream, status, content_type, &body);
                            }
                            Err(status) => {
                                answer(&mut stream, status, "text/plain", "bad request\n");
                            }
                        }
                        handler_inflight.fetch_sub(1, Ordering::Relaxed);
                    });
                if spawned.is_err() {
                    inflight.fetch_sub(1, Ordering::Relaxed);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finished_readers_leave_the_registry() {
        let sock =
            std::env::temp_dir().join(format!("pcap-serve-readers-{}.sock", std::process::id()));
        let config = ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        };
        let handle = start(config, &[Endpoint::Uds(sock.clone())], None).expect("start");
        for cycle in 1..=64 {
            drop(UnixStream::connect(&sock).expect("connect"));
            // The reader has seen EOF before the next connection is
            // accepted, so every earlier reader has exited by then.
            let deadline = Instant::now() + Duration::from_secs(10);
            while handle.metrics.disconnects.load(Ordering::Relaxed) < cycle {
                assert!(Instant::now() < deadline, "reader {cycle} never saw EOF");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let kept = handle.readers.lock().expect("reader registry").len();
        handle.shutdown();
        assert!(
            kept <= 4,
            "{kept} reader handles kept after 64 closed connections"
        );
    }
}
