//! `serve-saturate` and `serve-paced`: an in-process `pcap_serve`
//! daemon fed over one Unix-domain connection by the benchmark's own
//! open-loop client.
//!
//! The client pre-encodes every frame during set-up (with the public
//! `encode_client`), so nothing competes with the daemon for the two
//! cores while the window runs: one writer thread sends the bytes, on
//! a fixed event-rate schedule or unthrottled, and one reader thread
//! splits the response stream with `wire::read_frame`, decodes it with
//! `decode_server`, stamps each `RunSummary`'s arrival and folds every
//! device's response bytes into a digest.
//!
//! The same pre-encoded bytes are replayed offline through
//! `decode_client` → `TraceRunBuilder` → `ShardEvaluator` →
//! `encode_server`. That replay is the correctness reference (each
//! device's digest must match the daemon's) and, with spans around
//! each call, the per-layer decomposition of the daemon's cost. A
//! probe pass times filter, rebuild and evaluation back to back on each
//! decoded run; their ratios split the traced evaluation into filter,
//! stream build and engine.

use crate::layers::{fold, self_ns};
use crate::stats::Samples;
use crate::{
    cpu_seconds, peak_rss_mb, ratio, record_shares, seconds, within, Metrics, Outcome, Spec,
    WorkDir,
};
use pcap_cache::{filter_run_into, FileCache};
use pcap_obs::{
    render_chrome_trace, span, LogHistogram, NullPipeline, PipelineObserver, TraceRecorder,
};
use pcap_serve::{
    decode_client, decode_server, encode_client, encode_server, start, ClientFrame, Endpoint,
    ServeConfig, ServerFrame, ServerHandle, PROTOCOL_VERSION,
};
use pcap_sim::{
    DecisionObserver, DecisionRecord, EnergyBreakdown, GapEnergy, Manager, RunStreams,
    ShardEvaluator,
};
use pcap_trace::{TraceError, TraceRun, TraceRunBuilder};
use pcap_types::wire::read_frame;
use pcap_workload::DevicePopulation;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::ops::Range;
use std::os::unix::net::UnixStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Sizes of a serve workload.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Devices replayed: the lowest fleet indices whose app (index into
    /// `PaperApp::ALL`, `device % 6`) is in `apps`.
    pub devices: usize,
    /// Apps the devices are drawn from.
    pub apps: Vec<u64>,
    /// Runs per device, interleaved: run 0 of every device, then run 1…
    pub max_runs: usize,
    /// Open-loop event rate; `None` sends unthrottled.
    pub events_per_s: Option<u64>,
}

impl ServeSpec {
    /// `serve-saturate`: 24 devices (four per app) × 6 runs, sent
    /// unthrottled. mplayer's ~15k-event runs dominate.
    pub fn saturate() -> ServeSpec {
        ServeSpec {
            devices: 24,
            apps: (0..6).collect(),
            max_runs: 6,
            events_per_s: None,
        }
    }

    /// `serve-paced`: 400 short-run devices (mozilla, xemacs, nedit) ×
    /// up to 5 runs at a fixed 100k events/s, about a fifth of
    /// capacity; the load stops at the end of the window (~1700 runs
    /// in 20 s).
    pub fn paced() -> ServeSpec {
        ServeSpec {
            devices: 400,
            apps: vec![0, 3, 4],
            max_runs: 5,
            events_per_s: Some(100_000),
        }
    }
}

/// Daemon shard workers. One, because two shards plus the client
/// oversubscribe two cores and spread the throughput by ~17%.
const SHARDS: usize = 1;

/// Events per write of a paced schedule.
const PACE_EVENTS: u64 = 32;

/// How long the client waits for a repeat's last response.
const ACK_TIMEOUT: Duration = Duration::from_secs(30);

/// One scheduled run of the pre-encoded load.
#[derive(Debug, Clone)]
struct RunSlot {
    device: u64,
    run: u32,
    /// The run's frames (`RunStart`, events, `RunEnd`) in `Load::bytes`.
    bytes: Range<usize>,
    /// Events sent before this run's `RunEnd` is due.
    due_events: u64,
}

/// A write unit: bytes up to `end`, due once `due_events` events are.
#[derive(Debug, Clone, Copy)]
struct Chunk {
    end: usize,
    due_events: u64,
    /// Whether the chunk ends with a run's `RunEnd`.
    closes_run: bool,
}

/// One repeat's frames, pre-encoded.
#[derive(Debug, Default)]
struct Load {
    bytes: Vec<u8>,
    chunks: Vec<Chunk>,
    runs: Vec<RunSlot>,
    /// Devices with at least one run, in first-run order; each gets a
    /// `DeviceEnd` after the last run.
    devices: Vec<u64>,
    /// The `DeviceEnd` frames.
    tail: Range<usize>,
    frames: u64,
    events: u64,
}

/// Generates and encodes one repeat's frames. A paced load stops
/// before the first run that would be due after `seconds`.
fn build_load<P: PipelineObserver>(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    recorder: &P,
) -> Result<Load, TraceError> {
    let ids: Vec<u64> = (0u64..)
        .filter(|d| spec.apps.contains(&(d % 6)))
        .take(spec.devices)
        .collect();
    let pop = DevicePopulation::new(ids.last().map_or(0, |d| d + 1), seed);
    let mut load = Load::default();
    'schedule: for run in 0..spec.max_runs {
        for &device in &ids {
            if run >= pop.runs(device) {
                continue;
            }
            let trace = {
                let _span = span(recorder, "generate");
                pop.generate_run(device, run)?
            };
            if let Some(rate) = spec.events_per_s {
                let due = (load.events + trace.events.len() as u64) as f64 / rate as f64;
                if due > seconds && !load.runs.is_empty() {
                    break 'schedule;
                }
            }
            let _span = span(recorder, "loadgen_encode");
            let start = load.bytes.len();
            let root = trace.root;
            encode_client(&ClientFrame::RunStart { device, root }, &mut load.bytes);
            for (i, &event) in trace.events.iter().enumerate() {
                encode_client(&ClientFrame::Event { device, event }, &mut load.bytes);
                load.events += 1;
                if spec.events_per_s.is_some() && (i as u64 + 1).is_multiple_of(PACE_EVENTS) {
                    load.chunks.push(Chunk {
                        end: load.bytes.len(),
                        due_events: load.events,
                        closes_run: false,
                    });
                }
            }
            encode_client(&ClientFrame::RunEnd { device }, &mut load.bytes);
            load.frames += trace.events.len() as u64 + 2;
            load.chunks.push(Chunk {
                end: load.bytes.len(),
                due_events: load.events,
                closes_run: true,
            });
            load.runs.push(RunSlot {
                device,
                run: run as u32,
                bytes: start..load.bytes.len(),
                due_events: load.events,
            });
            if !load.devices.contains(&device) {
                load.devices.push(device);
            }
        }
    }
    let start = load.bytes.len();
    for &device in &load.devices {
        encode_client(&ClientFrame::DeviceEnd { device }, &mut load.bytes);
    }
    load.frames += load.devices.len() as u64;
    load.tail = start..load.bytes.len();
    load.chunks.push(Chunk {
        end: load.bytes.len(),
        due_events: load.events,
        closes_run: false,
    });
    Ok(load)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into `device`'s FNV-1a digest.
fn digest(digests: &mut HashMap<u64, u64>, device: u64, bytes: &[u8]) {
    let hash = digests.entry(device).or_insert(FNV_OFFSET);
    for &b in bytes {
        *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// What the reader saw of one repeat.
#[derive(Debug)]
struct Received {
    digests: HashMap<u64, u64>,
    arrivals: HashMap<(u64, u32), Instant>,
    decisions: u64,
    rejected: u64,
    undecodable: u64,
    /// Arrival of the repeat's last `DeviceSummary`.
    done: Instant,
}

impl Received {
    fn new() -> Received {
        Received {
            digests: HashMap::new(),
            arrivals: HashMap::new(),
            decisions: 0,
            rejected: 0,
            undecodable: 0,
            done: Instant::now(),
        }
    }
}

/// The client's reader thread: hands over one [`Received`] per repeat,
/// once `devices` `DeviceSummary` frames arrived, until EOF.
fn reader_loop(mut stream: UnixStream, devices: usize, tx: mpsc::Sender<Received>) {
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let mut current = Received::new();
    let mut summaries = 0;
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        buf.extend_from_slice(&chunk[..n]);
        let mut consumed = 0;
        loop {
            let (payload, used) = match read_frame(&buf[consumed..]) {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(_) => return,
            };
            let frame = &buf[consumed..consumed + used];
            match decode_server(payload) {
                Ok(ServerFrame::Decision { device, .. }) => {
                    current.decisions += 1;
                    digest(&mut current.digests, device, frame);
                }
                Ok(ServerFrame::RunSummary { device, run, .. }) => {
                    current.arrivals.insert((device, run), Instant::now());
                    digest(&mut current.digests, device, frame);
                }
                Ok(ServerFrame::RunRejected { .. }) => current.rejected += 1,
                Ok(ServerFrame::DeviceSummary { device, .. }) => {
                    digest(&mut current.digests, device, frame);
                    summaries += 1;
                    if summaries == devices {
                        current.done = Instant::now();
                        summaries = 0;
                        if tx
                            .send(std::mem::replace(&mut current, Received::new()))
                            .is_err()
                        {
                            return;
                        }
                    }
                }
                Err(_) => current.undecodable += 1,
            }
            consumed += used;
        }
        buf.drain(..consumed);
    }
}

/// One online repeat as the client saw it.
#[derive(Debug)]
struct Repeat {
    started: Instant,
    /// When each run's `RunEnd` left the client, in load order.
    sent: Vec<Instant>,
    received: Received,
}

/// The online window: repeats the load over one connection until the
/// window closes (a paced load runs once).
#[derive(Debug, Default)]
struct Online {
    repeats: Vec<Repeat>,
    /// Time spent blocked in `write_all`.
    blocked: Duration,
    window: Duration,
    cpu_s: f64,
}

fn online(
    load: &Load,
    spec: &ServeSpec,
    seconds: f64,
    stream: &mut UnixStream,
    rx: &mpsc::Receiver<Received>,
    out: &mut Outcome,
) -> Online {
    let mut online = Online::default();
    let cpu = cpu_seconds();
    let window = Instant::now();
    within(seconds, || {
        out.attempted += load.runs.len() as u64;
        let started = Instant::now();
        let mut sent = Vec::with_capacity(load.runs.len());
        let mut from = 0;
        for chunk in &load.chunks {
            if let Some(rate) = spec.events_per_s {
                let due = started + Duration::from_secs_f64(chunk.due_events as f64 / rate as f64);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
            }
            let write = Instant::now();
            if let Err(e) = stream.write_all(&load.bytes[from..chunk.end]) {
                out.failed += load.runs.len() as u64;
                out.errors.push(format!("send: {e}"));
                return None;
            }
            let written = Instant::now();
            online.blocked += written - write;
            from = chunk.end;
            if chunk.closes_run {
                sent.push(written);
            }
        }
        match rx.recv_timeout(ACK_TIMEOUT) {
            Ok(received) => {
                let wall = received.done - started;
                online.repeats.push(Repeat {
                    started,
                    sent,
                    received,
                });
                spec.events_per_s.is_none().then_some(wall)
            }
            Err(_) => {
                out.failed += load.runs.len() as u64;
                out.errors.push(format!(
                    "responses not complete within {}s",
                    ACK_TIMEOUT.as_secs()
                ));
                None
            }
        }
    });
    online.window = window.elapsed();
    online.cpu_s = cpu_seconds() - cpu;
    online
}

/// Collects a run's decision records, stamped with the device's run
/// index as the daemon stamps them.
struct Collect<'a> {
    run: u32,
    records: &'a mut Vec<DecisionRecord>,
}

impl DecisionObserver for Collect<'_> {
    fn on_decision(&mut self, mut record: DecisionRecord, _energy: &GapEnergy) {
        record.run = self.run;
        self.records.push(record);
    }
}

/// The offline replay of one repeat's bytes.
#[derive(Debug, Default)]
struct Replay {
    digests: HashMap<u64, u64>,
    decisions: u64,
    energy: EnergyBreakdown,
    base_energy: EnergyBreakdown,
    /// The decoded runs, when asked to keep them.
    runs: Vec<TraceRun>,
    wall: Duration,
}

/// Replays `load` offline as the daemon's shard would process it, with
/// a span around each call when `recorder` is enabled.
fn replay<P: PipelineObserver>(
    load: &Load,
    config: &ServeConfig,
    recorder: &P,
    keep_runs: bool,
) -> Result<Replay, String> {
    let started = Instant::now();
    let mut result = Replay::default();
    let mut evaluator = ShardEvaluator::new(&config.sim);
    let mut sessions: HashMap<u64, (Manager, u32)> = HashMap::new();
    let mut frames: Vec<ClientFrame> = Vec::new();
    let mut records: Vec<DecisionRecord> = Vec::new();
    let mut out: Vec<u8> = Vec::new();
    let decode = |range: &Range<usize>, frames: &mut Vec<ClientFrame>| -> Result<(), String> {
        let _span = span(recorder, "decode");
        frames.clear();
        let mut pos = range.start;
        while pos < range.end {
            let (payload, used) = read_frame(&load.bytes[pos..range.end])
                .ok()
                .flatten()
                .ok_or("truncated client frame")?;
            frames.push(decode_client(payload).map_err(|e| e.to_string())?);
            pos += used;
        }
        Ok(())
    };
    for slot in &load.runs {
        decode(&slot.bytes, &mut frames)?;
        let trace_run = {
            let _span = span(recorder, "build");
            let malformed = || format!("device {} run {}: malformed frames", slot.device, slot.run);
            let (first, rest) = frames.split_first().ok_or_else(malformed)?;
            let (last, events) = rest.split_last().ok_or_else(malformed)?;
            let mut builder = match *first {
                ClientFrame::RunStart { device, root } if device == slot.device => {
                    TraceRunBuilder::new(root)
                }
                _ => return Err(malformed()),
            };
            for frame in events {
                match *frame {
                    ClientFrame::Event { device, event } if device == slot.device => {
                        builder.event(event);
                    }
                    _ => return Err(malformed()),
                }
            }
            if *last
                != (ClientFrame::RunEnd {
                    device: slot.device,
                })
            {
                return Err(malformed());
            }
            builder.finish().map_err(|e| e.to_string())?
        };
        let (manager, run) = sessions
            .entry(slot.device)
            .or_insert_with(|| (config.kind.manager(&config.sim), 0));
        let outcome = {
            let _span = span(recorder, "eval");
            let mut collect = Collect {
                run: *run,
                records: &mut records,
            };
            evaluator.evaluate_run_observed(&trace_run, manager, &mut collect)
        };
        {
            let _span = span(recorder, "encode");
            out.clear();
            for record in &records {
                let frame = ServerFrame::Decision {
                    device: slot.device,
                    record: *record,
                };
                encode_server(&frame, &mut out);
            }
            let summary = ServerFrame::RunSummary {
                device: slot.device,
                run: *run,
                decisions: records.len() as u32,
                accesses: evaluator.last_run_accesses() as u32,
            };
            encode_server(&summary, &mut out);
        }
        digest(&mut result.digests, slot.device, &out);
        result.decisions += records.len() as u64;
        result.energy += outcome.energy;
        result.base_energy += outcome.base_energy;
        records.clear();
        *run += 1;
        if keep_runs {
            result.runs.push(trace_run);
        }
    }
    decode(&load.tail, &mut frames)?;
    for frame in &frames {
        let ClientFrame::DeviceEnd { device } = *frame else {
            return Err("tail holds a frame other than DeviceEnd".to_owned());
        };
        let (manager, runs) = sessions
            .remove(&device)
            .ok_or_else(|| format!("DeviceEnd for device {device} without runs"))?;
        out.clear();
        {
            let _span = span(recorder, "encode");
            let summary = ServerFrame::DeviceSummary {
                device,
                runs,
                table_entries: manager.table_entries().map(|n| n as u64),
                table_aliases: manager.table_aliases(),
            };
            encode_server(&summary, &mut out);
        }
        digest(&mut result.digests, device, &out);
    }
    result.wall = started.elapsed();
    Ok(result)
}

/// Checks every online repeat against the offline reference; counts
/// rejected, unacknowledged and diverging runs as failed.
fn check(load: &Load, online: &Online, reference: &Replay, out: &mut Outcome) {
    for (i, repeat) in online.repeats.iter().enumerate() {
        let received = &repeat.received;
        out.failed += received.rejected;
        let unacked = load
            .runs
            .iter()
            .filter(|slot| !received.arrivals.contains_key(&(slot.device, slot.run)))
            .count() as u64;
        out.failed += unacked;
        if received.rejected + unacked + received.undecodable > 0 {
            out.errors.push(format!(
                "repeat {i}: {} rejected, {unacked} unacknowledged runs, {} undecodable frames",
                received.rejected, received.undecodable
            ));
        }
        for &device in &load.devices {
            if received.digests.get(&device) != reference.digests.get(&device) {
                out.failed += load.runs.iter().filter(|s| s.device == device).count() as u64;
                out.errors.push(format!(
                    "repeat {i}: device {device} decision stream differs from the offline replay"
                ));
            }
        }
        if received.decisions != reference.decisions {
            out.errors.push(format!(
                "repeat {i}: {} decisions received, offline replay made {}",
                received.decisions, reference.decisions
            ));
        }
    }
}

/// Upper bound of the log₂ bucket holding the `q` quantile of
/// `counts`, or 0 when fewer than ten values lie beyond it.
fn log2_tail(counts: &[u64; 32], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    let rank = (q * total as f64).ceil() as u64;
    if total < rank + crate::stats::MIN_TAIL_SAMPLES as u64 {
        return 0.0;
    }
    let mut seen = 0;
    for (bucket, &count) in counts.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return LogHistogram::bucket_bounds(bucket).1.min(1 << 31) as f64;
        }
    }
    0.0
}

/// The daemon's stage histograms summed over shards.
fn server_tails(handle: &ServerHandle) -> (f64, f64) {
    let mut queue = [0u64; 32];
    let mut eval = [0u64; 32];
    for shard in &handle.metrics().shards {
        let add = |into: &mut [u64; 32], h: &LogHistogram| {
            for (a, b) in into.iter_mut().zip(h.counts()) {
                *a += b;
            }
        };
        add(&mut queue, &shard.queue_wait_us.snapshot().0);
        add(&mut eval, &shard.eval_us.snapshot().0);
    }
    (log2_tail(&queue, 0.99), log2_tail(&eval, 0.99))
}

pub(crate) fn run(load_spec: &ServeSpec, spec: &Spec, seed: u64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut metrics = Metrics::default();
    let recorder = TraceRecorder::new();
    let config = ServeConfig {
        shards: SHARDS,
        ..ServeConfig::default()
    };
    let work = match WorkDir::create("serve") {
        Ok(work) => work,
        Err(e) => {
            out.errors.push(format!("work directory: {e}"));
            out.metrics = metrics.finish(traced);
            return out;
        }
    };
    let socket = work.path().join("serve.sock");
    let endpoint = Endpoint::Uds(socket.clone());

    // Set-up: generate and pre-encode every frame, start the daemon.
    let mut setup = Vec::new();
    let mut ready: Option<(Load, ServerHandle)> = None;
    for _ in 0..if traced { 1 } else { spec.setups.max(1) } {
        if let Some((_, previous)) = ready.take() {
            previous.shutdown();
        }
        let started = Instant::now();
        let built = if traced {
            build_load(load_spec, seed, spec.seconds, &recorder)
        } else {
            build_load(load_spec, seed, spec.seconds, &NullPipeline)
        };
        let daemon = start(config.clone(), std::slice::from_ref(&endpoint), None);
        setup.push(started.elapsed());
        match (built, daemon) {
            (Ok(built), Ok(daemon)) => ready = Some((built, daemon)),
            (built, daemon) => {
                if let Err(e) = built {
                    out.errors.push(format!("trace generation: {e}"));
                }
                match daemon {
                    Ok(daemon) => daemon.shutdown(),
                    Err(e) => out.errors.push(format!("daemon start: {e}")),
                }
                out.metrics = metrics.finish(traced);
                return out;
            }
        }
    }
    let (load, handle) = ready.expect("set-up ran at least once");

    // The window: one connection, one writer (this thread), one reader.
    let connected = UnixStream::connect(&socket).and_then(|mut stream| {
        let mut hello = Vec::new();
        encode_client(
            &ClientFrame::Hello {
                version: PROTOCOL_VERSION,
            },
            &mut hello,
        );
        stream.write_all(&hello)?;
        // A daemon that stops reading fails the run instead of hanging it.
        stream.set_write_timeout(Some(ACK_TIMEOUT))?;
        let reader = stream.try_clone()?;
        Ok((stream, reader))
    });
    let (mut stream, reader_stream) = match connected {
        Ok(pair) => pair,
        Err(e) => {
            out.errors.push(format!("connect: {e}"));
            handle.shutdown();
            out.metrics = metrics.finish(traced);
            return out;
        }
    };
    let (tx, rx) = mpsc::channel();
    let devices = load.devices.len();
    let reader = std::thread::spawn(move || reader_loop(reader_stream, devices, tx));
    let online = online(&load, load_spec, spec.seconds, &mut stream, &rx, &mut out);
    let _ = stream.shutdown(std::net::Shutdown::Both);
    if reader.join().is_err() {
        out.errors.push("reader thread panicked".to_owned());
    }
    let (queue_p99, eval_p99) = server_tails(&handle);
    handle.shutdown();

    // Latency from when each run's RunEnd was due (paced) or sent.
    let mut latencies = Vec::new();
    let mut lags = Vec::new();
    let mut rates = Vec::new();
    for repeat in &online.repeats {
        for (slot, &sent) in load.runs.iter().zip(&repeat.sent) {
            let due = match load_spec.events_per_s {
                Some(rate) => {
                    repeat.started + Duration::from_secs_f64(slot.due_events as f64 / rate as f64)
                }
                None => sent,
            };
            lags.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
            if let Some(&arrived) = repeat.received.arrivals.get(&(slot.device, slot.run)) {
                latencies.push(arrived.saturating_duration_since(due).as_secs_f64() * 1e3);
            }
        }
        let wall = repeat.received.done - repeat.started;
        rates.push(repeat.received.decisions as f64 / wall.as_secs_f64());
    }
    let latencies = Samples::new(latencies);

    let reference = match replay(&load, &config, &NullPipeline, false) {
        Ok(reference) => reference,
        Err(e) => {
            out.errors.push(format!("offline replay: {e}"));
            out.metrics = metrics.finish(traced);
            return out;
        }
    };
    check(&load, &online, &reference, &mut out);

    if !traced {
        metrics.timing("setup_s", &seconds(&setup));
        metrics.timing("decisions_per_s", &Samples::new(rates));
        metrics.timing("run_latency_p50_ms", &latencies);
        metrics.set("peak_rss_mb", peak_rss_mb());
        out.metrics = metrics.finish(false);
        return out;
    }

    let traced_replay = match replay(&load, &config, &recorder, true) {
        Ok(replay) => replay,
        Err(e) => {
            out.errors.push(format!("traced replay: {e}"));
            out.metrics = metrics.finish(true);
            return out;
        }
    };
    if traced_replay.digests != reference.digests {
        out.errors
            .push("traced replay digests differ from the untraced replay".to_owned());
    }
    // Probe pass over the decoded runs, in replay order: filter alone, a
    // whole rebuild and a whole evaluation, side by side, each with
    // state of its own.
    let mut filter_cache = FileCache::new(config.sim.cache.clone());
    let mut build_cache = FileCache::new(config.sim.cache.clone());
    let mut accesses = Vec::new();
    let mut streams = RunStreams::empty();
    let mut evaluator = ShardEvaluator::new(&config.sim);
    let mut sessions: HashMap<u64, (Manager, u32)> = HashMap::new();
    let mut records = Vec::new();
    let (mut hits, mut misses) = (0u64, 0u64);
    for (slot, run) in load.runs.iter().zip(&traced_replay.runs) {
        accesses.clear();
        let stats = {
            let _span = span(&recorder, "probe_filter");
            filter_run_into(run, &mut filter_cache, &mut accesses)
        };
        hits += stats.page_hits;
        misses += stats.page_misses;
        {
            let _span = span(&recorder, "probe_rebuild");
            streams.rebuild(run, &config.sim, &mut build_cache);
        }
        let (manager, index) = sessions
            .entry(slot.device)
            .or_insert_with(|| (config.kind.manager(&config.sim), 0));
        {
            let _span = span(&recorder, "probe_eval");
            let mut collect = Collect {
                run: *index,
                records: &mut records,
            };
            evaluator.evaluate_run_observed(run, manager, &mut collect);
        }
        records.clear();
        *index += 1;
    }

    let layers = fold(&recorder.events());
    let decisions = reference.decisions as f64;
    let events = load.events as f64;
    let frames = load.frames as f64;
    let decode = self_ns(&layers, "decode");
    let build = self_ns(&layers, "build");
    let eval = self_ns(&layers, "eval");
    let encode = self_ns(&layers, "encode");
    // The traced evaluation split in the proportions the probe measured.
    let probe_eval = self_ns(&layers, "probe_eval");
    let filter = eval * ratio(self_ns(&layers, "probe_filter"), probe_eval);
    let rebuild = eval * ratio(self_ns(&layers, "probe_rebuild"), probe_eval);
    // The daemon's cost per decision, in CPU time of this process while
    // the window ran; layer costs are scaled to one repeat's decisions.
    let online_decisions: u64 = online.repeats.iter().map(|r| r.received.decisions).sum();
    let online_ns = ratio(online.cpu_s * 1e9, online_decisions as f64) * decisions;
    let explained = decode + build + eval + encode;
    metrics.set(
        "workload.generate_ns_per_event",
        ratio(self_ns(&layers, "generate"), events),
    );
    metrics.set("cache.filter_ns_per_event", ratio(filter, events));
    metrics.set(
        "cache.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    metrics.set("sim.rebuild_ns_per_event", ratio(rebuild, events));
    metrics.set(
        "sim.engine_ns_per_decision",
        ratio(eval - rebuild, decisions),
    );
    metrics.set("serve.decode_ns_per_frame", ratio(decode, frames));
    metrics.set("serve.shard_eval_ns_per_event", ratio(eval, events));
    metrics.set("serve.encode_ns_per_decision", ratio(encode, decisions));
    metrics.set("serve.queue_wait_us_p99", queue_p99);
    metrics.set("serve.stage_eval_us_p99", eval_p99);
    metrics.set(
        "loadgen.encode_ns_per_frame",
        ratio(self_ns(&layers, "loadgen_encode"), frames),
    );
    if load_spec.events_per_s.is_some() {
        metrics.set(
            "loadgen.lag_ms_p99",
            Samples::new(lags).tail(0.99).unwrap_or(0.0),
        );
    }
    metrics.set(
        "loadgen.write_blocked_share",
        ratio(online.blocked.as_secs_f64(), online.window.as_secs_f64()),
    );
    metrics.set("run_latency_p99_ms", latencies.tail(0.99).unwrap_or(0.0));
    metrics.set(
        "obs.tracing_overhead",
        ratio(
            traced_replay.wall.as_secs_f64(),
            reference.wall.as_secs_f64(),
        ) - 1.0,
    );
    metrics.set("sim_decisions", decisions);
    metrics.set(
        "sim_energy_savings",
        reference.energy.savings_vs(&reference.base_energy),
    );
    out.table = record_shares(
        &mut metrics,
        &[
            ("share.decode", decode),
            ("share.filter", filter),
            ("share.streams", build + rebuild - filter),
            ("share.engine", eval - rebuild),
            ("share.encode", encode),
            ("share.transport", online_ns - explained),
        ],
        online_ns,
    );
    metrics.set(
        "serve.transport_share",
        ratio(online_ns - explained, online_ns),
    );
    out.chrome_trace = Some(render_chrome_trace(&recorder));
    out.metrics = metrics.finish(true);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_decision_digest_fails_the_check() {
        // Two nedit devices × 2 runs, checked without a daemon: the
        // "online" repeat replays the reference's own responses.
        let spec = ServeSpec {
            devices: 2,
            apps: vec![4],
            max_runs: 2,
            events_per_s: None,
        };
        let load = build_load(&spec, 42, 1.0, &NullPipeline).expect("load");
        let reference =
            replay(&load, &ServeConfig::default(), &NullPipeline, false).expect("replay");
        let checked = |digests: &HashMap<u64, u64>| {
            let received = Received {
                digests: digests.clone(),
                arrivals: load
                    .runs
                    .iter()
                    .map(|slot| ((slot.device, slot.run), Instant::now()))
                    .collect(),
                decisions: reference.decisions,
                ..Received::new()
            };
            let online = Online {
                repeats: vec![Repeat {
                    started: Instant::now(),
                    sent: Vec::new(),
                    received,
                }],
                ..Online::default()
            };
            let mut out = Outcome::default();
            check(&load, &online, &reference, &mut out);
            out
        };
        let clean = checked(&reference.digests);
        assert_eq!((clean.failed, clean.errors.len()), (0, 0));

        let mut corrupted = reference.digests.clone();
        *corrupted.get_mut(&load.devices[0]).expect("digest") ^= 1;
        let out = checked(&corrupted);
        assert_eq!(out.failed, 2, "both runs of the corrupted device fail");
        assert!(out.errors[0].contains("differs from the offline replay"));
    }
}
