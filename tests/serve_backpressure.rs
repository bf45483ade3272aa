//! The shard queue is bounded in frames, not in queue messages: readers
//! hand frames to a shard in batches of `min(64, queue_depth)`, and a
//! shard's queue holds `queue_depth / batch` of them (DESIGN.md §13).
//! A client that writes without reading its replies blocks its
//! connection's writer, and once every reply buffer of the shard is out
//! with that writer the shard waits for one to come back; the shard's
//! depth must then stay within `queue_depth` queued frames plus one
//! batch at the shard and one blocked in the reader's send, and drain
//! to zero once the client is gone. Every counter counts frames.
//!
//! That wait is bounded too: a reply write that makes no progress for
//! the daemon's write timeout drops the connection, so devices of other
//! connections on the same shard keep being served.

mod serve_common;

use pcap_dpm::serve::{
    encode_client, ClientFrame, Endpoint, ServeConfig, ServerFrame, PROTOCOL_VERSION,
};
use pcap_dpm::sim::{audit_prepared, PreparedTrace};
use pcap_dpm::trace::ApplicationTrace;
use pcap_dpm::workload::{AppModel, PaperApp};
use serve_common::{decisions_of, drive, push_run, script_device, temp_sock};
use std::io::Write;
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

const QUEUE_DEPTH: usize = 64;

/// Frames per queue message at [`QUEUE_DEPTH`]: `min(64, queue_depth)`.
const BATCH: u64 = 64;

/// DESIGN.md §13's bound for one connection: `queue_depth` queued
/// frames, one batch at the shard, one blocked in the reader's send.
const BOUND: u64 = QUEUE_DEPTH as u64 + 2 * BATCH;

fn wait_until(mut pred: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    false
}

#[test]
fn a_client_that_never_reads_fills_the_queue_only_to_its_frame_bound() {
    let spec = PaperApp::Mplayer.spec();
    let mut script = Vec::new();
    for run in 0..2 {
        push_run(
            &mut script,
            0,
            &spec.generate_run(42, run).expect("mplayer run"),
        );
    }
    let mut runs = Vec::new();
    for frame in &script {
        encode_client(frame, &mut runs);
    }

    let sock = temp_sock("backpressure");
    let config = ServeConfig {
        shards: 1,
        queue_depth: QUEUE_DEPTH,
        ..ServeConfig::default()
    };
    let handle = pcap_dpm::serve::start(config, &[Endpoint::Uds(sock.clone())], None).unwrap();
    let metrics = handle.metrics().clone();
    let stream = UnixStream::connect(&sock).expect("connect");
    let mut write = stream.try_clone().expect("clone stream");
    // Writes mplayer runs until the socket is shut, never reading a
    // reply: the shard waits for a reply buffer and the queue fills.
    let client = std::thread::spawn(move || {
        let mut hello = Vec::new();
        encode_client(
            &ClientFrame::Hello {
                version: PROTOCOL_VERSION,
            },
            &mut hello,
        );
        if write.write_all(&hello).is_err() {
            return;
        }
        while write.write_all(&runs).is_ok() {}
    });

    let shard = &metrics.shards[0];
    assert!(
        wait_until(|| shard.depth() >= QUEUE_DEPTH as u64),
        "the queue never filled: depth {}",
        shard.depth()
    );
    let mut max_depth = 0;
    let sampled_until = Instant::now() + Duration::from_secs(1);
    while Instant::now() < sampled_until {
        max_depth = max_depth.max(shard.depth());
        std::thread::sleep(Duration::from_micros(200));
    }
    assert!(
        max_depth <= BOUND,
        "shard depth reached {max_depth} frames, over the bound of {BOUND}"
    );

    stream
        .shutdown(Shutdown::Both)
        .expect("shut the client socket");
    client.join().expect("client thread");
    drop(stream);
    assert!(
        wait_until(|| metrics.total_depth() == 0),
        "the queue must drain to zero after the client is gone (depth {})",
        metrics.total_depth()
    );
    assert!(
        wait_until(|| metrics.devices_active.load(Ordering::Relaxed) == 0),
        "the disconnect must retire the device session"
    );
    handle.shutdown();
}

#[test]
fn counters_count_frames_not_queue_messages() {
    let spec = PaperApp::Nedit.spec();
    let runs: Vec<_> = (0..3)
        .map(|run| spec.generate_run(42, run).expect("nedit run"))
        .collect();
    let mut script = vec![ClientFrame::Hello {
        version: PROTOCOL_VERSION,
    }];
    for device in 0..4 {
        script_device(&mut script, device, &runs);
    }
    let events = script
        .iter()
        .filter(|frame| matches!(frame, ClientFrame::Event { .. }))
        .count() as u64;

    let sock = temp_sock("frame-counters");
    let config = ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    };
    let handle = pcap_dpm::serve::start(config, &[Endpoint::Uds(sock.clone())], None).unwrap();
    let metrics = handle.metrics().clone();
    drive(&Endpoint::Uds(sock), &script, 4);

    let frames = metrics.frames.load(Ordering::Relaxed);
    assert_eq!(frames, script.len() as u64, "frames decoded");
    let processed = || -> u64 {
        metrics
            .shards
            .iter()
            .map(|s| s.processed.load(Ordering::Acquire))
            .sum()
    };
    assert!(
        wait_until(|| processed() == frames - 1),
        "shards processed {} frames; every frame but the Hello is routed ({})",
        processed(),
        frames - 1
    );
    assert!(
        wait_until(|| metrics.events.load(Ordering::Relaxed) == events),
        "events accepted {} of {events}",
        metrics.events.load(Ordering::Relaxed)
    );
    assert_eq!(metrics.total_depth(), 0);
    handle.shutdown();
}

/// How long a well-behaved client on the same shard may wait for its
/// answer behind a client that never reads: the daemon's 5 s reply
/// write timeout (DESIGN.md §13) twice — the blocked `write` that first
/// fills the socket buffer returns its partial count only after one
/// timeout, and the next one fails after another — plus a margin.
const STUCK_READER_DEADLINE: Duration = Duration::from_secs(2 * 5 + 10);

#[test]
fn a_client_that_never_reads_is_dropped_and_its_shard_serves_the_others() {
    let stuck_spec = PaperApp::Mplayer.spec();
    let mut stuck_script = Vec::new();
    for run in 0..2 {
        push_run(
            &mut stuck_script,
            0,
            &stuck_spec.generate_run(42, run).expect("mplayer run"),
        );
    }
    let mut stuck_runs = Vec::new();
    for frame in &stuck_script {
        encode_client(frame, &mut stuck_runs);
    }
    let nedit: Vec<_> = (0..3)
        .map(|run| {
            PaperApp::Nedit
                .spec()
                .generate_run(42, run)
                .expect("nedit run")
        })
        .collect();
    let mut script = vec![ClientFrame::Hello {
        version: PROTOCOL_VERSION,
    }];
    script_device(&mut script, 1, &nedit);

    let sock = temp_sock("stuck-reader");
    let config = ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    };
    let (queue_depth, kind, sim) = (config.queue_depth, config.kind, config.sim.clone());
    let handle = pcap_dpm::serve::start(config, &[Endpoint::Uds(sock.clone())], None).unwrap();
    let metrics = handle.metrics().clone();

    // Connection A streams mplayer runs and never reads a reply.
    let stuck = UnixStream::connect(&sock).expect("connect A");
    let mut stuck_write = stuck.try_clone().expect("clone A");
    let stuck_client = std::thread::spawn(move || {
        let mut hello = Vec::new();
        encode_client(
            &ClientFrame::Hello {
                version: PROTOCOL_VERSION,
            },
            &mut hello,
        );
        if stuck_write.write_all(&hello).is_err() {
            return;
        }
        // Ends when the daemon drops the connection.
        while stuck_write.write_all(&stuck_runs).is_ok() {}
    });
    // A holds the shard once its queue is full and the shard has
    // stopped processing: every reply buffer is out with A's writer.
    let shard = &metrics.shards[0];
    let stalled = || {
        let processed = shard.processed.load(Ordering::Acquire);
        std::thread::sleep(Duration::from_millis(500));
        shard.depth() >= queue_depth as u64 && shard.processed.load(Ordering::Acquire) == processed
    };
    assert!(
        wait_until(stalled),
        "A never stalled the shard: depth {}",
        shard.depth()
    );

    // Connection B runs one nedit device behind A on the same shard and
    // reads every reply (`drive` gives up after 60 s).
    let started = Instant::now();
    let frames = drive(&Endpoint::Uds(sock.clone()), &script, 1);
    let waited = started.elapsed();
    let answered = frames
        .iter()
        .any(|frame| matches!(frame, ServerFrame::DeviceSummary { device: 1, .. }));
    assert!(
        answered && waited < STUCK_READER_DEADLINE,
        "B's DeviceSummary did not arrive within {STUCK_READER_DEADLINE:?} (waited \
         {waited:?}): its shard is stuck behind a client that never reads"
    );
    let mut trace = ApplicationTrace::new("nedit");
    trace.runs = nedit;
    let offline = audit_prepared(&PreparedTrace::build(&trace, &sim), &sim, kind).records;
    assert_eq!(
        decisions_of(&frames, 1),
        offline,
        "B's decisions match the offline audit"
    );

    // A was dropped: counted, recorded, and its sessions retired once
    // its reader saw EOF.
    assert!(
        wait_until(|| metrics
            .render_prometheus()
            .contains("\npcap_serve_reply_timeouts_total 1\n")),
        "A's drop was never counted"
    );
    assert!(handle
        .flight()
        .dump_jsonl()
        .contains("\"kind\":\"reply_timeout\""));
    stuck_client.join().expect("A's writer");
    drop(stuck);
    assert!(
        wait_until(|| metrics.devices_active.load(Ordering::Relaxed) == 0),
        "A's session was never retired"
    );
    handle.shutdown();
}
