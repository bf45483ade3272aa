//! The replay load client behind `pcap load`: streams a
//! [`ReplayPlan`](pcap_workload::ReplayPlan)'s runs at a configurable
//! event rate against a running daemon and measures achieved decision
//! throughput and per-run round-trip latency.
//!
//! One writer (the calling thread) frames and sends events; one reader
//! thread decodes the decision stream and stamps `RunEnd → RunSummary`
//! latencies into an [`AtomicHistogram`]. Completion is positively
//! acknowledged: every device ends with `DeviceEnd`, and the client
//! returns once each device's `DeviceSummary` arrived (or the
//! response timeout passes).

use crate::frame::{self, ClientFrame, ServerFrame, PROTOCOL_VERSION};
use crate::net::Stream;
use crate::server::Endpoint;
use pcap_obs::{AtomicHistogram, LogHistogram};
use pcap_types::wire;
use std::collections::HashMap;
use std::fmt;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Load-run parameters.
#[derive(Debug, Clone, Default)]
pub struct LoadOptions {
    /// Target event rate in events/s (`None` = as fast as possible).
    pub events_per_sec: Option<u64>,
}

/// How long [`run_load`] waits for outstanding responses after the
/// last frame is sent.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

/// What a load run achieved.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Trace events sent.
    pub events: u64,
    /// Runs sent (`RunEnd` frames).
    pub runs: u64,
    /// Runs the server rejected.
    pub run_rejects: u64,
    /// Decision frames received.
    pub decisions: u64,
    /// Devices positively retired via `DeviceSummary`.
    pub devices_done: u64,
    /// Wall-clock seconds from first byte sent to last response.
    pub elapsed_s: f64,
    /// Achieved decision throughput.
    pub decisions_per_s: f64,
    /// `RunEnd` → `RunSummary` round-trip latency distribution (µs).
    pub run_latency_us: LogHistogram,
    /// True if the response timeout expired with responses missing.
    pub timed_out: bool,
}

/// Load-client errors.
#[derive(Debug)]
pub enum LoadError {
    /// Connecting to the daemon failed.
    Connect(std::io::Error),
    /// Writing frames failed mid-run.
    Send(std::io::Error),
    /// Generating a workload run failed.
    Workload(pcap_trace::TraceError),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Connect(e) => write!(f, "connect failed: {e}"),
            LoadError::Send(e) => write!(f, "send failed: {e}"),
            LoadError::Workload(e) => write!(f, "workload generation failed: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// Shared state between the writer and the response-reader thread.
#[derive(Default)]
struct Shared {
    decisions: AtomicU64,
    run_rejects: AtomicU64,
    devices_done: AtomicU64,
    runs_acked: AtomicU64,
    /// (device, run) → send instant of the closing `RunEnd`.
    in_flight: Mutex<HashMap<(u64, u32), Instant>>,
    latency: AtomicHistogram,
}

fn reader_loop(mut read: Stream, shared: &Shared) {
    let mut buf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut chunk = [0u8; 64 * 1024];
    loop {
        let n = match read.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                continue
            }
            Err(_) => return,
        };
        buf.extend_from_slice(&chunk[..n]);
        let mut consumed = 0;
        while let Ok(Some((payload, used))) = wire::read_frame(&buf[consumed..]) {
            if let Ok(frame) = frame::decode_server(payload) {
                match frame {
                    ServerFrame::Decision { .. } => {
                        shared.decisions.fetch_add(1, Ordering::Relaxed);
                    }
                    ServerFrame::RunSummary { device, run, .. } => {
                        let sent = shared
                            .in_flight
                            .lock()
                            .expect("in-flight map poisoned")
                            .remove(&(device, run));
                        if let Some(sent) = sent {
                            shared.latency.record(sent.elapsed().as_micros() as u64);
                        }
                        shared.runs_acked.fetch_add(1, Ordering::Release);
                    }
                    ServerFrame::RunRejected { device, run } => {
                        shared
                            .in_flight
                            .lock()
                            .expect("in-flight map poisoned")
                            .remove(&(device, run));
                        shared.run_rejects.fetch_add(1, Ordering::Relaxed);
                        shared.runs_acked.fetch_add(1, Ordering::Release);
                    }
                    ServerFrame::DeviceSummary { .. } => {
                        shared.devices_done.fetch_add(1, Ordering::Release);
                    }
                }
            }
            consumed += used;
        }
        buf.drain(..consumed);
    }
}

/// Replays `plan` against the daemon at `endpoint` and reports
/// achieved throughput and latency.
///
/// # Errors
///
/// [`LoadError::Connect`] if the daemon is unreachable,
/// [`LoadError::Send`] on a mid-stream socket failure,
/// [`LoadError::Workload`] if run generation fails.
pub fn run_load(
    endpoint: &Endpoint,
    plan: &pcap_workload::ReplayPlan,
    options: &LoadOptions,
) -> Result<LoadReport, LoadError> {
    let mut conn = Stream::connect(endpoint).map_err(LoadError::Connect)?;
    conn.set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(LoadError::Connect)?;
    let shared = Arc::new(Shared::default());
    let read = conn.try_clone().map_err(LoadError::Connect)?;
    let reader = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("pcap-load-reader".to_owned())
            .spawn(move || reader_loop(read, &shared))
            .expect("spawn load reader")
    };

    let started = Instant::now();
    let mut buf: Vec<u8> = Vec::with_capacity(256 * 1024);
    frame::encode_client(
        &ClientFrame::Hello {
            version: PROTOCOL_VERSION,
        },
        &mut buf,
    );
    let mut events = 0u64;
    let mut runs = 0u64;
    // The plan's per-device run counters, to stamp the right run index
    // on in-flight latency entries (server indexes evaluated runs).
    let mut device_run: HashMap<u64, u32> = HashMap::new();
    for item in plan.iter() {
        let item = item.map_err(LoadError::Workload)?;
        frame::encode_client(
            &ClientFrame::RunStart {
                device: item.device,
                root: item.trace.root,
            },
            &mut buf,
        );
        for event in &item.trace.events {
            frame::encode_client(
                &ClientFrame::Event {
                    device: item.device,
                    event: *event,
                },
                &mut buf,
            );
            events += 1;
        }
        frame::encode_client(
            &ClientFrame::RunEnd {
                device: item.device,
            },
            &mut buf,
        );
        runs += 1;
        let run_index = device_run.entry(item.device).or_insert(0);
        shared
            .in_flight
            .lock()
            .expect("in-flight map poisoned")
            .insert((item.device, *run_index), Instant::now());
        *run_index += 1;
        conn.write_all(&buf).map_err(LoadError::Send)?;
        buf.clear();
        if let Some(rate) = options.events_per_sec {
            // Pace by cumulative budget: sleep until `events` would
            // have been sent at `rate`.
            let budget = Duration::from_secs_f64(events as f64 / rate as f64);
            let elapsed = started.elapsed();
            if budget > elapsed {
                std::thread::sleep(budget - elapsed);
            }
        }
    }
    let devices = plan.population().devices();
    for device in 0..devices {
        frame::encode_client(&ClientFrame::DeviceEnd { device }, &mut buf);
    }
    conn.write_all(&buf).map_err(LoadError::Send)?;
    conn.flush().map_err(LoadError::Send)?;
    buf.clear();

    // Wait for every device to be positively retired.
    let deadline = Instant::now() + RESPONSE_TIMEOUT;
    let mut timed_out = false;
    while shared.devices_done.load(Ordering::Acquire) < devices {
        if Instant::now() > deadline {
            timed_out = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let elapsed = started.elapsed();
    // Close the write half so the server sees EOF and the reader
    // thread drains to EOF of the response stream.
    let _ = conn.shutdown();
    let _ = reader.join();

    let decisions = shared.decisions.load(Ordering::Relaxed);
    let elapsed_s = elapsed.as_secs_f64();
    Ok(LoadReport {
        events,
        runs,
        run_rejects: shared.run_rejects.load(Ordering::Relaxed),
        decisions,
        devices_done: shared.devices_done.load(Ordering::Relaxed),
        elapsed_s,
        decisions_per_s: if elapsed_s > 0.0 {
            decisions as f64 / elapsed_s
        } else {
            0.0
        },
        run_latency_us: shared.latency.snapshot().0,
        timed_out,
    })
}
