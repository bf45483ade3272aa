//! Concurrency torture: many clients, interleaved devices, abrupt
//! mid-stream disconnects. The daemon must not deadlock, its queue
//! depths must drain to zero, and a reconnecting client must get
//! fresh predictor state for its devices.

mod serve_common;

use pcap_dpm::serve::{encode_client, ClientFrame, Endpoint, ServeConfig};
use pcap_dpm::sim::{audit_prepared, DecisionRecord, PreparedTrace, SimConfig};
use pcap_dpm::workload::{AppModel, PaperApp};
use serve_common::{decisions_of, drive, push_run, temp_sock};
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

const CLEAN_CLIENTS: usize = 6;
const ABRUPT_CLIENTS: usize = 4;
const DEVICES_PER_CLIENT: u64 = 2;
const RUNS_PER_DEVICE: usize = 2;

fn wait_until(mut pred: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

#[test]
fn torture_disconnects_drain_and_reconnects_get_fresh_state() {
    let config = SimConfig::paper();
    let trace = PaperApp::Nedit.spec().generate_trace(42).unwrap();
    let run0 = trace.runs[0].clone();
    let prepared = PreparedTrace::build(&trace, &config);
    let offline_run0: Vec<DecisionRecord> =
        audit_prepared(&prepared, &config, ServeConfig::default().kind)
            .records
            .iter()
            .copied()
            .filter(|r| r.run == 0)
            .collect();
    assert!(!offline_run0.is_empty());

    let sock = temp_sock("torture");
    let serve_config = ServeConfig {
        shards: 3,
        queue_depth: 64, // small queue: exercise backpressure under load
        ..ServeConfig::default()
    };
    let handle =
        pcap_dpm::serve::start(serve_config, &[Endpoint::Uds(sock.clone())], None).unwrap();
    let metrics = handle.metrics().clone();

    // Clean clients: interleave RUNS_PER_DEVICE runs across their
    // devices, then retire every device. Device ids deliberately
    // OVERLAP across clients — sessions are per (connection, device),
    // so the same shard juggles same-id devices from different
    // connections.
    let mut workers = Vec::new();
    for client in 0..CLEAN_CLIENTS {
        let sock = sock.clone();
        let run0 = run0.clone();
        workers.push(std::thread::spawn(move || {
            let devices: Vec<u64> = (0..DEVICES_PER_CLIENT)
                .map(|d| (client as u64 + d) % 4)
                .collect();
            let mut script = Vec::new();
            for _run in 0..RUNS_PER_DEVICE {
                for &device in &devices {
                    push_run(&mut script, device, &run0);
                }
            }
            // Devices may repeat in the id list; DeviceEnd each unique id.
            let mut unique = devices.clone();
            unique.sort_unstable();
            unique.dedup();
            for &device in &unique {
                script.push(ClientFrame::DeviceEnd { device });
            }
            let frames = drive(&Endpoint::Uds(sock.clone()), &script, unique.len() as u64);
            (devices, unique, frames)
        }));
    }

    // Abrupt clients: open runs on interleaved devices, stream part of
    // the events — some even cut a frame in half — then vanish.
    let mut abrupt = Vec::new();
    for client in 0..ABRUPT_CLIENTS {
        let sock = sock.clone();
        let run0 = run0.clone();
        abrupt.push(std::thread::spawn(move || {
            let mut stream = UnixStream::connect(&sock).expect("connect");
            let mut bytes = Vec::new();
            for device in 0..DEVICES_PER_CLIENT {
                encode_client(
                    &ClientFrame::RunStart {
                        device,
                        root: run0.root,
                    },
                    &mut bytes,
                );
            }
            for event in run0.events.iter().take(run0.events.len() / 2) {
                for device in 0..DEVICES_PER_CLIENT {
                    encode_client(
                        &ClientFrame::Event {
                            device,
                            event: *event,
                        },
                        &mut bytes,
                    );
                }
            }
            // Odd clients additionally chop the stream mid-frame.
            if client % 2 == 1 {
                bytes.truncate(bytes.len() - 3);
            }
            stream.write_all(&bytes).expect("write");
            stream.flush().ok();
            drop(stream); // abrupt: no RunEnd, no DeviceEnd
        }));
    }

    for worker in abrupt {
        worker.join().expect("abrupt client");
    }
    let mut clean_results = Vec::new();
    for worker in workers {
        clean_results.push(worker.join().expect("clean client"));
    }

    // Every clean client's run-0 decision stream per device must match
    // the offline audit exactly, despite the concurrent chaos.
    for (devices, unique, frames) in &clean_results {
        for &device in unique {
            let copies = devices.iter().filter(|&&d| d == device).count();
            let decisions = decisions_of(frames, device);
            let run0_decisions: Vec<DecisionRecord> =
                decisions.iter().copied().filter(|r| r.run == 0).collect();
            assert_eq!(
                run0_decisions.len(),
                offline_run0.len() * copies,
                "device {device}: run-0 decision count"
            );
            if copies == 1 {
                assert_eq!(run0_decisions, offline_run0, "device {device} run 0");
            }
        }
    }

    // All connections are gone: queues must drain, sessions must retire.
    assert!(
        wait_until(|| metrics.total_depth() == 0),
        "shard queues must drain to zero after disconnects"
    );
    assert!(
        wait_until(|| metrics.devices_active.load(Ordering::Relaxed) == 0),
        "abrupt disconnects must retire device sessions"
    );
    let expected_conns = (CLEAN_CLIENTS + ABRUPT_CLIENTS) as u64;
    assert!(
        wait_until(|| metrics.disconnects.load(Ordering::Relaxed) == expected_conns),
        "every connection must be seen disconnecting"
    );

    // A reconnecting client resumes a previously-abandoned device with
    // FRESH predictor state: its first run decides exactly like an
    // offline run 0 (records even carry run index 0 again).
    let mut script = Vec::new();
    push_run(&mut script, 0, &run0);
    script.push(ClientFrame::DeviceEnd { device: 0 });
    let frames = drive(&Endpoint::Uds(sock.clone()), &script, 1);
    assert_eq!(
        decisions_of(&frames, 0),
        offline_run0,
        "reconnect must start from a blank predictor"
    );

    handle.shutdown();
}
