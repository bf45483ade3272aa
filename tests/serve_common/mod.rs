//! Shared driver for the serve integration tests: a minimal client
//! that writes a scripted frame sequence to a daemon endpoint (Unix
//! socket or TCP) while a background thread collects every server
//! frame until the expected number of `DeviceSummary` frames (or
//! EOF/timeout).

// Each integration-test crate includes this module and uses a subset.
#![allow(dead_code)]

use pcap_dpm::serve::{decode_server, encode_client, ClientFrame, Endpoint, ServerFrame};
use pcap_dpm::types::wire;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Unique-enough temp UDS path per test.
pub fn temp_sock(tag: &str) -> std::path::PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_nanos();
    std::env::temp_dir().join(format!(
        "pcap-serve-{tag}-{}-{nanos}.sock",
        std::process::id()
    ))
}

/// Writes `script` to the daemon at `endpoint` and returns every server
/// frame received, in arrival order. Completion: `expect_summaries`
/// `DeviceSummary` frames observed (script should end with that many
/// `DeviceEnd` frames), EOF, or a 60 s safety timeout.
pub fn drive(
    endpoint: &Endpoint,
    script: &[ClientFrame],
    expect_summaries: u64,
) -> Vec<ServerFrame> {
    let timeout = Some(Duration::from_millis(50));
    let (mut read, mut write): (Box<dyn Read + Send>, Box<dyn Write>) = match endpoint {
        Endpoint::Tcp(addr) => {
            let stream = TcpStream::connect(addr).expect("connect to daemon");
            stream.set_read_timeout(timeout).unwrap();
            (
                Box::new(stream.try_clone().expect("clone stream")),
                Box::new(stream),
            )
        }
        Endpoint::Uds(path) => {
            let stream = UnixStream::connect(path).expect("connect to daemon");
            stream.set_read_timeout(timeout).unwrap();
            (
                Box::new(stream.try_clone().expect("clone stream")),
                Box::new(stream),
            )
        }
    };
    let frames: Arc<Mutex<Vec<ServerFrame>>> = Arc::new(Mutex::new(Vec::new()));
    let summaries = Arc::new(AtomicU64::new(0));
    let reader = {
        let frames = Arc::clone(&frames);
        let summaries = Arc::clone(&summaries);
        std::thread::spawn(move || {
            let mut buf: Vec<u8> = Vec::new();
            let mut chunk = [0u8; 64 * 1024];
            let deadline = Instant::now() + Duration::from_secs(60);
            loop {
                if Instant::now() > deadline {
                    return;
                }
                let n = match read.read(&mut chunk) {
                    Ok(0) => return,
                    Ok(n) => n,
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        if summaries.load(Ordering::Acquire) >= expect_summaries
                            && expect_summaries > 0
                        {
                            return;
                        }
                        continue;
                    }
                    Err(_) => return,
                };
                buf.extend_from_slice(&chunk[..n]);
                let mut consumed = 0;
                while let Ok(Some((payload, used))) = wire::read_frame(&buf[consumed..]) {
                    let frame = decode_server(payload).expect("well-formed server frame");
                    if matches!(frame, ServerFrame::DeviceSummary { .. }) {
                        summaries.fetch_add(1, Ordering::Release);
                    }
                    frames.lock().unwrap().push(frame);
                    consumed += used;
                }
                buf.drain(..consumed);
            }
        })
    };
    let mut out = Vec::new();
    for frame in script {
        encode_client(frame, &mut out);
    }
    write.write_all(&out).expect("write script");
    write.flush().unwrap();
    reader.join().expect("reader thread");
    drop(write);
    Arc::try_unwrap(frames).unwrap().into_inner().unwrap()
}

/// The decisions of `frames` belonging to `device`, in arrival order.
pub fn decisions_of(frames: &[ServerFrame], device: u64) -> Vec<pcap_dpm::sim::DecisionRecord> {
    frames
        .iter()
        .filter_map(|f| match f {
            ServerFrame::Decision { device: d, record } if *d == device => Some(*record),
            _ => None,
        })
        .collect()
}

/// Scripts one full device: `RunStart`/`Event`*/`RunEnd` per run, then
/// `DeviceEnd`.
pub fn script_device(
    script: &mut Vec<ClientFrame>,
    device: u64,
    runs: &[pcap_dpm::trace::TraceRun],
) {
    for run in runs {
        push_run(script, device, run);
    }
    script.push(ClientFrame::DeviceEnd { device });
}

/// Scripts one run of one device (no `DeviceEnd`).
pub fn push_run(script: &mut Vec<ClientFrame>, device: u64, run: &pcap_dpm::trace::TraceRun) {
    script.push(ClientFrame::RunStart {
        device,
        root: run.root,
    });
    for event in &run.events {
        script.push(ClientFrame::Event {
            device,
            event: *event,
        });
    }
    script.push(ClientFrame::RunEnd { device });
}
