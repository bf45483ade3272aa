//! Pins the daemon's reader-to-shard hand-off at the allocator level:
//! streaming a run's `Event` frames into a live daemon allocates only
//! as the shard's run buffer grows. Readers hand frames to the shard in
//! batches stored inline in the queue message, so decoding, routing and
//! queueing mplayer run 0's 13,210 `Event` frames allocate nothing; a
//! heap buffer per batch of 64 frames would add about 210 allocations.

mod counting_alloc;
mod serve_common;

use counting_alloc::{allocs_during, CountingAlloc};
use pcap_dpm::serve::{
    decode_server, encode_client, start, ClientFrame, Endpoint, ServeConfig, ServerFrame,
    PROTOCOL_VERSION,
};
use pcap_dpm::sim::{audit_prepared, DecisionRecord, PreparedTrace, SimConfig};
use pcap_dpm::trace::ApplicationTrace;
use pcap_dpm::types::wire::read_frame;
use pcap_dpm::workload::{AppModel, PaperApp};
use serve_common::temp_sock;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Most allocations, across every thread of the process, while the
/// run's events stream in. The run buffer's doublings from empty to
/// 13,210 events take 13, and the reader's receive buffer may grow; 16
/// were counted in all.
const BUDGET: u64 = 32;

const DEVICE: u64 = 7;

/// Waits (without allocating) until `done` holds.
fn wait_until(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One test function: the counter is process-global, so concurrent
/// test threads would see each other's allocations.
#[test]
fn streaming_a_run_into_the_daemon_allocates_only_its_run_buffer() {
    let sim = SimConfig::paper();
    let run = PaperApp::Mplayer
        .spec()
        .generate_run(42, 0)
        .expect("mplayer run 0");
    let mut opening = Vec::new();
    for frame in [
        ClientFrame::Hello {
            version: PROTOCOL_VERSION,
        },
        ClientFrame::RunStart {
            device: DEVICE,
            root: run.root,
        },
    ] {
        encode_client(&frame, &mut opening);
    }
    let mut events = Vec::new();
    for event in &run.events {
        encode_client(
            &ClientFrame::Event {
                device: DEVICE,
                event: *event,
            },
            &mut events,
        );
    }
    let mut closing = Vec::new();
    for frame in [
        ClientFrame::RunEnd { device: DEVICE },
        ClientFrame::DeviceEnd { device: DEVICE },
    ] {
        encode_client(&frame, &mut closing);
    }

    let sock = temp_sock("zero-alloc");
    let config = ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    };
    let kind = config.kind;
    let handle = start(config, &[Endpoint::Uds(sock.clone())], None).expect("start daemon");
    let metrics = handle.metrics().clone();
    let mut stream = UnixStream::connect(&sock).expect("connect");
    stream.write_all(&opening).expect("write opening");
    // The session, its manager and its builder exist once the shard
    // has processed the `RunStart`.
    wait_until("the RunStart", || {
        metrics.shards[0].processed.load(Ordering::Acquire) == 1
    });

    let expected = run.events.len() as u64;
    let (allocs, ()) = allocs_during(|| {
        stream.write_all(&events).expect("write events");
        wait_until("every event", || {
            metrics.events.load(Ordering::Relaxed) == expected
        });
    });
    assert!(
        allocs <= BUDGET,
        "{allocs} allocations while {expected} events streamed in (budget {BUDGET})"
    );

    stream.write_all(&closing).expect("write closing");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let mut online: Vec<DecisionRecord> = Vec::new();
    let (mut buf, mut chunk, mut done) = (Vec::new(), [0u8; 64 * 1024], false);
    while !done {
        let n = stream.read(&mut chunk).expect("read replies");
        assert!(n > 0, "the daemon closed before the DeviceSummary");
        buf.extend_from_slice(&chunk[..n]);
        let mut consumed = 0;
        while let Some((payload, used)) = read_frame(&buf[consumed..]).expect("server frame") {
            match decode_server(payload).expect("decodable server frame") {
                ServerFrame::Decision { device, record } => {
                    assert_eq!(device, DEVICE);
                    online.push(record);
                }
                ServerFrame::RunRejected { .. } => panic!("run 0 was rejected"),
                ServerFrame::DeviceSummary { .. } => done = true,
                ServerFrame::RunSummary { .. } => {}
            }
            consumed += used;
        }
        buf.drain(..consumed);
    }
    drop(stream);
    handle.shutdown();

    let mut trace = ApplicationTrace::new("mplayer");
    trace.runs.push(run);
    let offline = audit_prepared(&PreparedTrace::build(&trace, &sim), &sim, kind).records;
    assert!(!offline.is_empty());
    assert_eq!(online, offline, "the daemon's decisions match the audit");
}
