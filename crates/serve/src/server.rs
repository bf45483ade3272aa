//! The sharded online daemon: listeners, connection readers and
//! writers, shard workers, and the `/metrics` HTTP endpoint.
//!
//! # Thread architecture
//!
//! ```text
//! acceptor (per endpoint) ──spawns──▶ reader + writer (per connection)
//!                                        │ reader: decode, hash-route
//!                                        │ into one open batch per shard
//!                                        ▼
//!          bounded mpsc queue (per shard, batches of ≤ 64 frames, blocking send)
//!                                        │
//!                                        ▼
//!                             shard worker (per shard)
//!                    sessions: (conn, device) → Manager + builder
//!                                        │ evaluate at RunEnd, encode into
//!                                        │ one of the shard's 3 reply buffers
//!                                        ▼
//!              connection writer: write_all, then the empty buffer
//!              goes back to its shard (shard-owned free list)
//! ```
//!
//! * **Routing**: shard = `splitmix64(device) % shards`. A device's
//!   frames always land on one shard in arrival order, so per-device
//!   state needs no locks and decisions stay ordered per device.
//! * **Batching**: a reader appends the frames it decodes from one
//!   `read()` to an inline batch per shard and sends a batch when it
//!   holds `min(64, queue_depth)` frames and after each read's frames
//!   are consumed. One queue message, shard wake-up, reply-handle clone
//!   and counter update then serve a whole batch; every counter still
//!   counts frames. Batches are FIFO per shard, so per-device order is
//!   the arrival order.
//! * **Backpressure**: each shard queue is a bounded
//!   [`std::sync::mpsc::sync_channel`] of `queue_depth / batch` batches,
//!   so at most `queue_depth` frames wait in it; when a shard falls
//!   behind, readers block in `send`, stop draining their sockets, and
//!   the kernel's TCP/UDS flow control pushes back on clients. No frame
//!   is ever dropped for load reasons.
//! * **Replies**: a shard encodes a run's reply into one of its
//!   `REPLY_BUFFERS` (3) buffers and hands it to the connection's writer
//!   thread, which writes it and sends it back empty. The shard waits
//!   only when every buffer is out, so it evaluates the next run while
//!   the last one's replies drain, and at most `shards × REPLY_BUFFERS`
//!   encoded replies exist however many connections there are. A write
//!   that makes no progress for `REPLY_WRITE_TIMEOUT` (5 s) drops its
//!   connection, so a client that stops reading holds its shard for
//!   about that long, not for good.
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
use crate::metrics::{ServeMetrics, ShardStats};
use crate::net::{Listener, Stream};
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
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, SendError, Sender, SyncSender};
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
    /// Bounded per-shard queue capacity, in frames (DESIGN.md §13).
    pub queue_depth: usize,
    /// Keep one full audit record per this many decisions (0 = off).
    pub sample_every: u64,
    /// Run the flight recorder (4,096 slots per ring, one ring per
    /// shard plus one for the connection threads) and the per-shard
    /// stage-latency histograms (decode / queue-wait / evaluate /
    /// encode / write). Off, neither records anything.
    pub instrumented: bool,
}

/// Flight-recorder slots per ring when [`ServeConfig::instrumented`].
const FLIGHT_SLOTS: usize = 4096;

/// Reply buffers each shard owns: one being encoded, the rest out with
/// connection writers (DESIGN.md §13 measures two and three).
const REPLY_BUFFERS: usize = 3;

/// Initial capacity of each reply buffer. The largest reply measured,
/// an mplayer run's decisions, is about 1.5 MB, so a buffer reserved
/// whole does not regrow: a doubling buffer leaves its outgrown chunks
/// on the shard's heap, freed but still resident. Pages not yet written
/// cost no memory.
const REPLY_BUFFER_BYTES: usize = 2 << 20;

/// A reply write that makes no progress for this long drops its
/// connection (DESIGN.md §13).
const REPLY_WRITE_TIMEOUT: Duration = Duration::from_secs(5);

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            sim: SimConfig::paper(),
            kind: PowerManagerKind::PCAP,
            shards: std::thread::available_parallelism().map_or(2, |n| n.get()),
            queue_depth: 1024,
            sample_every: 64,
            instrumented: true,
        }
    }
}

/// The shard a device's frames are routed to. Public so tests can pin
/// that routing is a pure function of (device, shard count).
pub fn shard_of(device: u64, shards: usize) -> usize {
    (splitmix64(device) % shards as u64) as usize
}

/// One connection's reply path: the queue into its writer thread and
/// whether the connection is dead. Shards on different threads hand the
/// writer whole encoded buffers, so replies of different devices
/// interleave by buffer, never within a frame. The writer exits once
/// the reader's handle and every clone riding in a shard queue message
/// are gone.
struct Reply {
    writer: Sender<Outgoing>,
    /// Set by the reader at EOF and by the writer when a write fails;
    /// shards then keep their buffers instead of handing them over.
    dead: Arc<AtomicBool>,
}

/// An encoded reply on its way to a connection's writer.
struct Outgoing {
    bytes: Vec<u8>,
    /// The shard that owns the buffer; its write is timed there.
    shard: usize,
    /// Takes the buffer back to the shard's free list.
    home: SyncSender<Vec<u8>>,
}

/// What a reader sends to a shard worker.
// `Ops` carries its batch inline on purpose: boxing it would allocate
// once per batch (`tests/zero_alloc_serve.rs`), and the small
// `ConnClosed` goes once per connection and shard.
#[allow(clippy::large_enum_variant)]
enum ShardMsg {
    /// A batch of one connection's frames for this shard.
    Ops {
        conn: u64,
        reply: Arc<Reply>,
        /// Stamped by the reader just before the blocking send, so the
        /// shard can attribute a `RunEnd`'s queue wait separately from
        /// its evaluation.
        sent_at: Instant,
        batch: Batch,
    },
    /// The connection closed; retire all its sessions on this shard.
    ConnClosed { conn: u64 },
}

/// Most frames one queue message carries; a smaller `queue_depth`
/// caps it at `queue_depth`.
const MAX_BATCH: usize = 64;

/// Up to [`MAX_BATCH`] decoded frames in arrival order, stored inline
/// so that handing a batch to a shard allocates nothing.
#[derive(Clone, Copy)]
struct Batch {
    len: usize,
    frames: [ClientFrame; MAX_BATCH],
}

impl Batch {
    const EMPTY: Batch = Batch {
        len: 0,
        frames: [ClientFrame::Hello { version: 0 }; MAX_BATCH],
    };

    fn frames(&self) -> &[ClientFrame] {
        &self.frames[..self.len]
    }
}

/// Frames per batch and batches per shard queue for `queue_depth`: the
/// queue holds at most `queue_depth` frames (DESIGN.md §13).
fn batch_layout(queue_depth: usize) -> (usize, usize) {
    let queue_depth = queue_depth.max(1);
    let batch = MAX_BATCH.min(queue_depth);
    (batch, queue_depth / batch)
}

/// Per-(connection, device) server state.
struct Session {
    manager: Manager,
    builder: Option<TraceRunBuilder>,
    run: u32,
}

/// Collects one record per engine decision into the shard's scratch
/// buffer, stamping the device's run index exactly as the offline
/// `AuditCollector` does. Encoding happens afterwards in a separately
/// timed pass ([`Shard::run_end`]), so evaluate and encode are
/// attributable stages — the emitted byte stream is unchanged because
/// records are encoded in decision order before the run summary.
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
    shared: Arc<ReaderShared>,
    tcp_addr: Option<SocketAddr>,
    metrics_addr: Option<SocketAddr>,
    /// Acceptors and the metrics listener.
    threads: Vec<JoinHandle<()>>,
    shard_joins: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The shared metrics registry.
    pub fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.shared.metrics
    }

    /// The shared flight recorder (ring `shards` is the ring of the
    /// connection reader and writer threads; rings `0..shards` belong to
    /// the shard workers). Clone the `Arc` to dump from signal or panic
    /// handlers.
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        &self.shared.flight
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

    /// Stops every thread, drains the shard queues, writes the replies
    /// they produce, joins everything, and removes Unix socket files.
    pub fn shutdown(self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Each acceptor drops its listener (and socket file) on exit.
        for handle in self.threads {
            let _ = handle.join();
        }
        let take = |registry: &Mutex<Vec<JoinHandle<()>>>| {
            std::mem::take(&mut *registry.lock().expect("thread registry"))
        };
        for handle in take(&self.shared.readers) {
            let _ = handle.join();
        }
        let writers = take(&self.shared.writers);
        // No acceptor or reader is left, so this drops the last shard
        // senders: the shard workers' recv loops end once the queues
        // drain.
        drop(self.shared);
        for handle in self.shard_joins {
            let _ = handle.join();
        }
        // The shards dropped every reply handle, so each writer ends
        // once it has written (or, past a write timeout, returned) what
        // it was handed.
        for handle in writers {
            let _ = handle.join();
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
    // Bind everything before any thread starts, so a failed bind
    // leaves nothing running and no socket file behind.
    let listeners = endpoints
        .iter()
        .map(Listener::bind)
        .collect::<std::io::Result<Vec<_>>>()?;
    let tcp_addr = listeners
        .iter()
        .rev()
        .find_map(Listener::tcp_addr)
        .transpose()?;
    let metrics_listener = metrics_http.map(TcpListener::bind).transpose()?;
    let metrics_addr = match &metrics_listener {
        Some(listener) => {
            listener.set_nonblocking(true)?;
            Some(listener.local_addr()?)
        }
        None => None,
    };

    let metrics = Arc::new(ServeMetrics::new(config.shards, config.sample_every));
    // One flight ring per shard (single-writer) plus one shared ring
    // for all connection reader and writer threads.
    let flight_slots = if config.instrumented { FLIGHT_SLOTS } else { 0 };
    let flight = Arc::new(FlightRecorder::new(config.shards + 1, flight_slots));
    let (batch, queued_batches) = batch_layout(config.queue_depth);
    let mut shard_txs = Vec::with_capacity(config.shards);
    let mut shard_joins = Vec::with_capacity(config.shards);
    for index in 0..config.shards {
        let (tx, rx) = sync_channel::<ShardMsg>(queued_batches);
        shard_txs.push(tx);
        // Managers are not `Send`: each shard is built on its thread.
        let (config, metrics, flight) = (config.clone(), Arc::clone(&metrics), Arc::clone(&flight));
        shard_joins.push(spawn(format!("pcap-shard-{index}"), move || {
            Shard::new(index, config, metrics, flight).run(&rx);
        }));
    }
    let shared = Arc::new(ReaderShared {
        stop: AtomicBool::new(false),
        metrics,
        flight,
        shard_txs,
        batch,
        instrumented: config.instrumented,
        readers: Mutex::new(Vec::new()),
        writers: Mutex::new(Vec::new()),
        conn_ids: AtomicU64::new(0),
    });
    let mut threads: Vec<JoinHandle<()>> = listeners
        .into_iter()
        .map(|listener| {
            let shared = Arc::clone(&shared);
            spawn("pcap-acceptor".to_owned(), move || {
                accept_loop(&listener, &shared);
            })
        })
        .collect();
    if let Some(listener) = metrics_listener {
        let shared = Arc::clone(&shared);
        threads.push(spawn("pcap-metrics-http".to_owned(), move || {
            metrics_http_loop(&listener, &shared);
        }));
    }
    Ok(ServerHandle {
        shared,
        tcp_addr,
        metrics_addr,
        threads,
        shard_joins,
    })
}

fn spawn(name: String, body: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name)
        .spawn(body)
        .expect("spawn a daemon thread")
}

/// State shared by the acceptor, reader and metrics-listener threads.
/// Writers hold none of it: the shard queues close when it drops.
struct ReaderShared {
    stop: AtomicBool,
    metrics: Arc<ServeMetrics>,
    flight: Arc<FlightRecorder>,
    shard_txs: Vec<SyncSender<ShardMsg>>,
    /// Frames per batch: `min(MAX_BATCH, queue_depth)`.
    batch: usize,
    instrumented: bool,
    /// Live reader threads, joined at shutdown.
    readers: Mutex<Vec<JoinHandle<()>>>,
    /// Live writer threads, joined at shutdown after the shards.
    writers: Mutex<Vec<JoinHandle<()>>>,
    /// The next connection id.
    conn_ids: AtomicU64,
}

/// The flight ring shared by all connection reader and writer threads
/// (the last one; rings `0..shards` are single-writer shard rings).
fn io_ring(flight: &FlightRecorder) -> usize {
    flight.rings() - 1
}

impl ReaderShared {
    fn io_ring(&self) -> usize {
        io_ring(&self.flight)
    }
}

/// Accepts connections until shutdown, one reader and one writer
/// thread each.
fn accept_loop(listener: &Listener, shared: &Arc<ReaderShared>) {
    while !shared.stop.load(Ordering::Relaxed) {
        let Ok(stream) = listener.accept() else {
            // Nothing pending (the listener never blocks) or a failed
            // accept.
            std::thread::sleep(Duration::from_millis(5));
            continue;
        };
        let Ok(write_half) = stream.try_clone() else {
            continue;
        };
        shared.metrics.connections.fetch_add(1, Ordering::Relaxed);
        let conn = shared.conn_ids.fetch_add(1, Ordering::Relaxed);
        let (writer, queue) = channel();
        let dead = Arc::new(AtomicBool::new(false));
        let reply = Reply {
            writer,
            dead: Arc::clone(&dead),
        };
        let (metrics, flight) = (Arc::clone(&shared.metrics), Arc::clone(&shared.flight));
        let instrumented = shared.instrumented;
        let writer = spawn(format!("pcap-reply-{conn}"), move || {
            connection_writer(
                conn,
                write_half,
                &queue,
                &dead,
                &metrics,
                &flight,
                instrumented,
            );
        });
        let reader_shared = Arc::clone(shared);
        let reader = spawn(format!("pcap-conn-{conn}"), move || {
            connection_reader(conn, stream, reply, &reader_shared);
        });
        // Drop the handles of exited threads: an exited thread keeps
        // its stack mapped until it is joined or detached, and dropping
        // its handle detaches it.
        for (registry, handle) in [(&shared.readers, reader), (&shared.writers, writer)] {
            let mut threads = registry.lock().expect("thread registry poisoned");
            threads.retain(|h| !h.is_finished());
            threads.push(handle);
        }
    }
}

/// Sample one frame decode per this many frames per connection: dense
/// enough to keep per-shard decode histograms live under load, sparse
/// enough that the two clock reads stay invisible in the budget.
const DECODE_SAMPLE_EVERY: u64 = 64;

/// At most this many warn lines (bad frames and reply timeouts) per
/// second process-wide; the rest are counted and reported on the next
/// admitted line.
static WARN_LOG: RateGate = RateGate::new(5, 1_000_000);

fn warn(flight: &FlightRecorder, msg: &str, conn: u64, what: &str) {
    if let Some(suppressed) = WARN_LOG.admit(flight.now_ns() / 1_000) {
        log::warn(
            "serve",
            msg,
            &[
                ("conn", &conn.to_string()),
                ("what", what),
                ("suppressed", &suppressed.to_string()),
            ],
        );
    }
}

fn warn_bad_frame(shared: &ReaderShared, conn: u64, what: &str) {
    warn(&shared.flight, "bad frame", conn, what);
}

/// Reads frames off one connection, decodes them, and hash-routes them
/// into one open [`Batch`] per shard; a batch goes to its shard's queue
/// when full and after each read's frames are consumed, so every frame
/// is queued before the reader reads again or closes. Shards hand
/// replies to the connection's writer through `reply`. Malformed-frame
/// policy:
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
fn connection_reader(conn: u64, mut stream: Stream, reply: Reply, shared: &ReaderShared) {
    let metrics = &*shared.metrics;
    let reply = Arc::new(reply);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    shared
        .flight
        .record(shared.io_ring(), FlightKind::ConnOpen, conn, 0, 0);
    let mut buf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut chunk = [0u8; 64 * 1024];
    let mut frames_seen: u64 = 0;
    let mut open = vec![Batch::EMPTY; shared.shard_txs.len()];
    'conn: loop {
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => break, // EOF
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                continue;
            }
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
                    let timed =
                        shared.instrumented && frames_seen.is_multiple_of(DECODE_SAMPLE_EVERY);
                    let decode_start = timed.then(Instant::now);
                    match frame::decode_client(payload) {
                        Ok(frame) => {
                            let decode_ns = decode_start.map(|t| t.elapsed().as_nanos() as u64);
                            match route(&frame, decode_ns, shared) {
                                Some(shard) => {
                                    let batch = &mut open[shard];
                                    batch.frames[batch.len] = frame;
                                    batch.len += 1;
                                    if batch.len == shared.batch {
                                        send_batch(conn, shard, batch, &reply, shared);
                                    }
                                }
                                // The connection-scoped `Hello`; routed
                                // frames are counted per batch.
                                None => {
                                    metrics.frames.fetch_add(1, Ordering::Relaxed);
                                }
                            }
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
        send_open(conn, &mut open, &reply, shared);
    }
    // The frames decoded before an oversized prefix.
    send_open(conn, &mut open, &reply, shared);
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

/// Writes one connection's replies in hand-off order and sends each
/// buffer back to its shard, until the reader's reply handle and every
/// clone in a shard queue message are gone. A failed write drops the
/// connection: later buffers go back unwritten, shards stop handing
/// any over, and the socket is shut down, so the reader sees EOF and
/// retires the connection's sessions. A write that failed because it
/// made no progress for [`REPLY_WRITE_TIMEOUT`] (a client that stopped
/// reading) is counted in `reply_timeouts`, recorded as a
/// `reply_timeout` flight event and logged.
fn connection_writer(
    conn: u64,
    mut stream: Stream,
    queue: &Receiver<Outgoing>,
    dead: &AtomicBool,
    metrics: &ServeMetrics,
    flight: &FlightRecorder,
    instrumented: bool,
) {
    let _ = stream.set_write_timeout(Some(REPLY_WRITE_TIMEOUT));
    let mut open = true;
    for Outgoing { bytes, shard, home } in queue {
        if open {
            let started = instrumented.then(Instant::now);
            match stream.write_all(&bytes) {
                Ok(()) => {
                    if let Some(started) = started {
                        let us = started.elapsed().as_micros() as u64;
                        metrics.shards[shard].write_us.record(us);
                    }
                }
                Err(e) => {
                    open = false;
                    dead.store(true, Ordering::Relaxed);
                    let _ = stream.shutdown();
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) {
                        metrics.reply_timeouts.fetch_add(1, Ordering::Relaxed);
                        flight.record(
                            io_ring(flight),
                            FlightKind::ReplyTimeout,
                            conn,
                            bytes.len() as u64,
                            shard as u64,
                        );
                        warn(
                            flight,
                            "reply write timed out",
                            conn,
                            "client stopped reading",
                        );
                    }
                }
            }
        }
        // Never blocks: the free list has room for all of its shard's
        // buffers. A shard that has exited no longer takes it.
        let _ = home.send(bytes);
    }
}

/// The shard of a decoded frame (`None` for the connection-scoped
/// `Hello`), recording its sampled decode latency.
fn route(frame: &ClientFrame, decode_ns: Option<u64>, shared: &ReaderShared) -> Option<usize> {
    // `Hello` names no device and leaves nothing to route. Version
    // mismatches are tolerated within v1 (there is only v1).
    let device = frame.device()?;
    let shard = shard_of(device, shared.shard_txs.len());
    if let Some(ns) = decode_ns {
        shared.metrics.shards[shard].decode_ns.record(ns);
        shared
            .flight
            .record(shared.io_ring(), FlightKind::FrameDecode, device, ns, 0);
    }
    if matches!(frame, ClientFrame::RunEnd { .. }) {
        shared.flight.record(
            shared.io_ring(),
            FlightKind::Enqueue,
            device,
            shard as u64,
            0,
        );
    }
    Some(shard)
}

/// Sends every non-empty open batch to its shard.
fn send_open(conn: u64, open: &mut [Batch], reply: &Arc<Reply>, shared: &ReaderShared) {
    for (shard, batch) in open.iter_mut().enumerate() {
        if batch.len > 0 {
            send_batch(conn, shard, batch, reply, shared);
        }
    }
}

/// Hands `batch` to `shard` as one queue message and empties it. The
/// `frames` and `enqueued` counters move by the batch's frame count
/// before the send, so a batch blocked in `send` already counts toward
/// the shard's depth.
fn send_batch(
    conn: u64,
    shard: usize,
    batch: &mut Batch,
    reply: &Arc<Reply>,
    shared: &ReaderShared,
) {
    let frames = batch.len as u64;
    let stats = &shared.metrics.shards[shard];
    shared.metrics.frames.fetch_add(frames, Ordering::Relaxed);
    stats.enqueued.fetch_add(frames, Ordering::Release);
    let msg = ShardMsg::Ops {
        conn,
        reply: Arc::clone(reply),
        sent_at: Instant::now(),
        batch: *batch,
    };
    batch.len = 0;
    // A full queue blocks here — that is the backpressure contract.
    if shared.shard_txs[shard].send(msg).is_err() {
        // Shard is gone (shutdown); account the frames as processed so
        // depth drains to zero.
        stats.processed.fetch_add(frames, Ordering::Release);
    }
}

/// One shard worker's state: its evaluator, the sessions of the devices
/// routed to it, its reply buffers and its scratch. Its thread alone
/// touches it.
struct Shard {
    index: usize,
    config: ServeConfig,
    metrics: Arc<ServeMetrics>,
    flight: Arc<FlightRecorder>,
    evaluator: ShardEvaluator,
    sessions: HashMap<(u64, u64), Session>,
    /// The reply buffers not out with a connection writer.
    free: Receiver<Vec<u8>>,
    /// Returns a buffer to `free`; each hand-off carries a clone.
    home: SyncSender<Vec<u8>>,
    records: Vec<DecisionRecord>,
    /// The event buffer of the last finished run, which the next run
    /// to start on the shard streams into.
    spare_events: Vec<TraceEvent>,
}

impl Shard {
    fn new(
        index: usize,
        config: ServeConfig,
        metrics: Arc<ServeMetrics>,
        flight: Arc<FlightRecorder>,
    ) -> Shard {
        let (home, free) = sync_channel(REPLY_BUFFERS);
        for _ in 0..REPLY_BUFFERS {
            home.send(Vec::with_capacity(REPLY_BUFFER_BYTES))
                .expect("the free list has room for every buffer");
        }
        Shard {
            index,
            evaluator: ShardEvaluator::new(&config.sim),
            config,
            metrics,
            flight,
            sessions: HashMap::new(),
            free,
            home,
            records: Vec::with_capacity(1024),
            spare_events: Vec::new(),
        }
    }

    /// An empty reply buffer from `free`. When all are out with
    /// writers, waits for one to come back and counts the wait in the
    /// shard's `reply_wait_us`.
    fn take_reply_buffer(free: &Receiver<Vec<u8>>, stats: &ShardStats) -> Vec<u8> {
        let mut out = free.try_recv().unwrap_or_else(|_| {
            let waited = Instant::now();
            // The shard holds a sender of its own, so this only waits.
            let out = free.recv().expect("the shard's free list");
            stats
                .reply_wait_us
                .fetch_add(waited.elapsed().as_micros() as u64, Ordering::Relaxed);
            out
        });
        out.clear();
        out
    }

    /// Hands an encoded reply to the connection's writer, or keeps the
    /// buffer when the connection is dead.
    fn reply(&self, reply: &Reply, out: Vec<u8>) {
        let out = if reply.dead.load(Ordering::Relaxed) {
            out
        } else {
            let outgoing = Outgoing {
                bytes: out,
                shard: self.index,
                home: self.home.clone(),
            };
            match reply.writer.send(outgoing) {
                Ok(()) => return,
                Err(SendError(outgoing)) => outgoing.bytes,
            }
        };
        // Never blocks: this buffer is not in the free list.
        let _ = self.home.send(out);
    }

    /// Serves the shard's queue until every sender is gone.
    fn run(mut self, rx: &Receiver<ShardMsg>) {
        while let Ok(msg) = rx.recv() {
            match msg {
                ShardMsg::ConnClosed { conn } => {
                    let before = self.sessions.len();
                    self.sessions.retain(|&(c, _), _| c != conn);
                    let removed = (before - self.sessions.len()) as u64;
                    self.metrics
                        .devices_active
                        .fetch_sub(removed, Ordering::Relaxed);
                }
                ShardMsg::Ops {
                    conn,
                    reply,
                    sent_at,
                    batch,
                } => {
                    let mut events = 0;
                    for &frame in batch.frames() {
                        match frame {
                            ClientFrame::RunStart { device, root } => {
                                self.run_start((conn, device), root);
                            }
                            ClientFrame::Event { device, event } => {
                                events += u64::from(self.event((conn, device), event));
                            }
                            ClientFrame::RunEnd { device } => {
                                self.run_end((conn, device), sent_at, &reply);
                            }
                            ClientFrame::DeviceEnd { device } => {
                                self.device_end((conn, device), &reply);
                            }
                            // Readers never route the connection-scoped
                            // `Hello`.
                            ClientFrame::Hello { .. } => {}
                        }
                    }
                    self.metrics.events.fetch_add(events, Ordering::Relaxed);
                    self.metrics.shards[self.index]
                        .processed
                        .fetch_add(batch.len as u64, Ordering::Release);
                }
            }
        }
    }

    /// Counts and records a frame that does not fit its device's
    /// session state. `code` names the check that failed: 0 a
    /// `RunStart` over an open run, 1 an `Event` with no open run, 2 a
    /// `RunEnd` with no session, 3 a `RunEnd` with no open run, 4 a
    /// `DeviceEnd` with no session.
    fn stray(&self, device: u64, code: u64) {
        self.metrics.stray_frames.fetch_add(1, Ordering::Relaxed);
        self.flight
            .record(self.index, FlightKind::StrayFrame, device, code, 0);
    }

    /// Opens a run in the shard's spare event buffer, creating the
    /// device's session on first sight.
    fn run_start(&mut self, key: (u64, u64), root: Pid) {
        let session = self.sessions.entry(key).or_insert_with(|| {
            self.metrics.devices_active.fetch_add(1, Ordering::Relaxed);
            Session {
                manager: self.config.kind.manager(&self.config.sim),
                builder: None,
                run: 0,
            }
        });
        // A RunStart with a run already open: the open run can never
        // be completed coherently; discard it.
        let events = std::mem::take(&mut self.spare_events);
        if session
            .builder
            .replace(TraceRunBuilder::with_buffer(root, events))
            .is_some()
        {
            self.stray(key.1, 0);
        }
    }

    /// Appends an event to the device's open run. Returns whether there
    /// was one; the caller counts accepted events per batch.
    fn event(&mut self, key: (u64, u64), event: TraceEvent) -> bool {
        match self.sessions.get_mut(&key).and_then(|s| s.builder.as_mut()) {
            Some(builder) => {
                builder.event(event);
                true
            }
            None => {
                self.stray(key.1, 1);
                false
            }
        }
    }

    /// Closes the device's open run: evaluates it, then encodes its
    /// decisions and summary (or its rejection) into a reply buffer and
    /// hands that to the connection's writer. The run's event buffer
    /// becomes the shard's spare.
    fn run_end(&mut self, key: (u64, u64), sent_at: Instant, reply: &Reply) {
        let device = key.1;
        let Some(session) = self.sessions.get_mut(&key) else {
            return self.stray(device, 2);
        };
        let Some(builder) = session.builder.take() else {
            return self.stray(device, 3);
        };
        let (shard, metrics, flight) = (self.index, &*self.metrics, &*self.flight);
        let stats = &metrics.shards[shard];
        let started = Instant::now();
        let queue_wait_us = started.duration_since(sent_at).as_micros() as u64;
        if self.config.instrumented {
            stats.queue_wait_us.record(queue_wait_us);
        }
        flight.record(shard, FlightKind::Dequeue, device, queue_wait_us, 0);
        let out = match builder.finish() {
            Ok(trace_run) => {
                let mut observer = EmitObserver {
                    run: session.run,
                    records: &mut self.records,
                    metrics,
                };
                observer.on_run_start(session.run);
                self.evaluator.evaluate_run_observed(
                    &trace_run,
                    &mut session.manager,
                    &mut observer,
                );
                self.spare_events = trace_run.events;
                let evaluated = Instant::now();
                // Waiting for a free buffer is neither stage: it is
                // counted in `reply_wait_us`.
                let mut out = Shard::take_reply_buffer(&self.free, stats);
                let encoding = Instant::now();
                // Encode as a separately-timed stage: decision frames
                // in decision order, then the run summary.
                let decisions = self.records.len() as u32;
                for record in &self.records {
                    frame::encode_server(
                        &ServerFrame::Decision {
                            device,
                            record: *record,
                        },
                        &mut out,
                    );
                }
                frame::encode_server(
                    &ServerFrame::RunSummary {
                        device,
                        run: session.run,
                        decisions,
                        accesses: self.evaluator.last_run_accesses() as u32,
                    },
                    &mut out,
                );
                let done = Instant::now();
                let eval = evaluated.duration_since(started);
                let encode = done.duration_since(encoding);
                let (eval_us, encode_us) = (eval.as_micros() as u64, encode.as_micros() as u64);
                let elapsed = (eval + encode).as_micros() as u64;
                if self.config.instrumented {
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
                self.records.clear();
                session.run += 1;
                out
            }
            Err(_) => {
                // Invalid run: device state is as if the run never
                // happened (the manager was never touched).
                metrics.run_rejects.fetch_add(1, Ordering::Relaxed);
                flight.record(shard, FlightKind::RunReject, device, 0, 0);
                let mut out = Shard::take_reply_buffer(&self.free, stats);
                frame::encode_server(
                    &ServerFrame::RunRejected {
                        device,
                        run: session.run,
                    },
                    &mut out,
                );
                out
            }
        };
        self.reply(reply, out);
    }

    /// Retires the device's session and answers with its table
    /// statistics.
    fn device_end(&mut self, key: (u64, u64), reply: &Reply) {
        let Some(session) = self.sessions.remove(&key) else {
            return self.stray(key.1, 4);
        };
        self.metrics.devices_active.fetch_sub(1, Ordering::Relaxed);
        let mut out = Shard::take_reply_buffer(&self.free, &self.metrics.shards[self.index]);
        frame::encode_server(
            &ServerFrame::DeviceSummary {
                device: key.1,
                runs: session.run,
                table_entries: session.manager.table_entries().map(|n| n as u64),
                table_aliases: session.manager.table_aliases(),
            },
            &mut out,
        );
        self.reply(reply, out);
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
fn metrics_http_loop(listener: &TcpListener, shared: &ReaderShared) {
    let inflight = Arc::new(AtomicU64::new(0));
    loop {
        if shared.stop.load(Ordering::Relaxed) {
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
                let metrics = Arc::clone(&shared.metrics);
                let flight = Arc::clone(&shared.flight);
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
            // Nothing pending (the listener never blocks) or a failed
            // accept.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::UnixStream;

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
            while handle.metrics().disconnects.load(Ordering::Relaxed) < cycle {
                assert!(Instant::now() < deadline, "reader {cycle} never saw EOF");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let kept = handle.shared.readers.lock().expect("reader registry").len();
        handle.shutdown();
        assert!(
            kept <= 4,
            "{kept} reader handles kept after 64 closed connections"
        );
    }

    #[test]
    fn every_stray_frame_is_counted_and_recorded_with_its_code() {
        let sock =
            std::env::temp_dir().join(format!("pcap-serve-stray-{}.sock", std::process::id()));
        let config = ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        };
        let handle = start(config, &[Endpoint::Uds(sock.clone())], None).expect("start");
        let root = Pid(1);
        let event = TraceEvent::Exit {
            time: pcap_types::SimTime::from_secs(1),
            pid: root,
        };
        let script = [
            ClientFrame::RunStart { device: 1, root },
            // 0: a RunStart over an open run.
            ClientFrame::RunStart { device: 1, root },
            // 1: an Event with no open run.
            ClientFrame::Event { device: 2, event },
            // 2: a RunEnd with no session.
            ClientFrame::RunEnd { device: 3 },
            // Closes device 1's run (rejected: it has no exit).
            ClientFrame::RunEnd { device: 1 },
            // 3: a RunEnd with no open run.
            ClientFrame::RunEnd { device: 1 },
            ClientFrame::DeviceEnd { device: 1 },
            // 4: a DeviceEnd with no session.
            ClientFrame::DeviceEnd { device: 1 },
        ];
        let mut bytes = Vec::new();
        for frame in &script {
            frame::encode_client(frame, &mut bytes);
        }
        let mut client = UnixStream::connect(&sock).expect("connect");
        client.write_all(&bytes).expect("write script");
        let metrics = Arc::clone(handle.metrics());
        let deadline = Instant::now() + Duration::from_secs(10);
        while metrics.shards[0].processed.load(Ordering::Acquire) < script.len() as u64 {
            assert!(Instant::now() < deadline, "the shard never drained");
            std::thread::sleep(Duration::from_millis(1));
        }
        let dump = handle.flight().dump_jsonl();
        drop(client);
        handle.shutdown();
        assert_eq!(metrics.stray_frames.load(Ordering::Relaxed), 5);
        let mut codes: Vec<u64> = dump
            .lines()
            .filter(|line| line.contains("\"kind\":\"stray_frame\""))
            .map(|line| {
                let a = &line[line.find("\"a\":").expect("a field") + 4..];
                a[..a.find(',').expect("b follows a")]
                    .parse()
                    .expect("numeric a")
            })
            .collect();
        codes.sort_unstable();
        assert_eq!(codes, [0, 1, 2, 3, 4], "stray_frame codes in {dump}");
    }
}
