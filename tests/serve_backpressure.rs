//! The shard queue is bounded in frames, not in queue messages: readers
//! hand frames to a shard in batches of `min(64, queue_depth)`, and a
//! shard's queue holds `queue_depth / batch` of them (DESIGN.md §13).
//! A client that writes without reading its replies stalls the shard in
//! its reply write; the shard's depth must then stay within
//! `queue_depth` queued frames plus one batch at the shard and one
//! blocked in the reader's send, and drain to zero once the client is
//! gone. Every counter counts frames.

mod serve_common;

use pcap_dpm::serve::{encode_client, ClientFrame, Endpoint, ServeConfig, PROTOCOL_VERSION};
use pcap_dpm::workload::{AppModel, PaperApp};
use serve_common::{drive, push_run, script_device, temp_sock};
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
    // reply: the shard blocks in its reply write and the queue fills.
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
