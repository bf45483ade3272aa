//! Frame-codec properties and malformed-frame behaviour of the live
//! daemon: round trips for arbitrary frames/records, decoder
//! no-panic on byte soup, and the server's bad-frame policy
//! (truncated header, oversized length prefix, unknown frame tag)
//! keeping connection and device state consistent while counting
//! `bad_frames`, plus the rejection of runs whose I/O byte ranges are
//! out of bounds.

mod serve_common;

use pcap_dpm::core::VoteSource;
use pcap_dpm::serve::{
    decode_client, decode_server, encode_client, encode_server, get_record, put_record, shard_of,
    ClientFrame, Endpoint, ServeConfig, ServerFrame,
};
use pcap_dpm::sim::{audit_prepared, DecisionRecord, GapVerdict, PreparedTrace, SimConfig};
use pcap_dpm::types::wire::{self, WireReader};
use pcap_dpm::types::{
    Fd, FileId, IoEvent, IoKind, Pc, Pid, Signature, SimDuration, SimTime, TraceEvent,
};
use pcap_dpm::workload::{AppModel, PaperApp};
use proptest::prelude::*;
use serve_common::{decisions_of, drive, push_run, temp_sock};
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

// ------------------------------------------------------ strategies

fn arb_event() -> impl Strategy<Value = TraceEvent> {
    (
        (0u8..3, any::<u64>(), any::<u32>(), any::<u32>(), 0u8..5),
        (any::<u32>(), any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |((tag, t, a, b, kind), (fd, file, offset, len))| match tag {
                0 => TraceEvent::Io(IoEvent {
                    time: SimTime::from_micros(t),
                    pid: Pid(a),
                    pc: Pc(b),
                    kind: match kind {
                        0 => IoKind::Read,
                        1 => IoKind::Write,
                        2 => IoKind::SyncWrite,
                        3 => IoKind::Open,
                        _ => IoKind::Close,
                    },
                    fd: Fd(fd),
                    file: FileId(file),
                    offset,
                    len,
                }),
                1 => TraceEvent::Fork {
                    time: SimTime::from_micros(t),
                    parent: Pid(a),
                    child: Pid(b),
                },
                _ => TraceEvent::Exit {
                    time: SimTime::from_micros(t),
                    pid: Pid(a),
                },
            },
        )
}

fn arb_client_frame() -> impl Strategy<Value = ClientFrame> {
    (0u8..5, any::<u64>(), any::<u32>(), arb_event()).prop_map(|(tag, device, word, event)| {
        match tag {
            0 => ClientFrame::Hello { version: word },
            1 => ClientFrame::RunStart {
                device,
                root: Pid(word),
            },
            2 => ClientFrame::Event { device, event },
            3 => ClientFrame::RunEnd { device },
            _ => ClientFrame::DeviceEnd { device },
        }
    })
}

fn arb_record() -> impl Strategy<Value = DecisionRecord> {
    (
        (
            any::<u32>(),
            any::<u32>(),
            any::<u64>(),
            any::<u32>(),
            any::<u32>(),
        ),
        (
            proptest::option::of(any::<u32>()),
            proptest::option::of(0u64..1 << 32),
            proptest::option::of(any::<u64>()),
            proptest::option::of(any::<bool>()),
        ),
        (any::<u64>(), 0u8..4, any::<u64>()),
        (
            proptest::option::of(any::<u64>()),
            proptest::option::of(any::<bool>()),
            0u8..4,
            any::<u64>(),
        ),
    )
        .prop_map(|(ids, opts, gaps, tail)| {
            let (run, access, at, pid, pc) = ids;
            let (signature, table_len, vote_delay, vote_source) = opts;
            let (local_gap, local_verdict, global_gap) = gaps;
            let (shutdown_at, shutdown_source, verdict, energy_bits) = tail;
            let verdict_of = |code: u8| match code {
                0 => GapVerdict::Hit,
                1 => GapVerdict::Miss,
                2 => GapVerdict::NotPredicted,
                _ => GapVerdict::Short,
            };
            let source_of = |primary: bool| {
                if primary {
                    VoteSource::Primary
                } else {
                    VoteSource::Backup
                }
            };
            DecisionRecord {
                run,
                access,
                at: SimTime::from_micros(at),
                pid: Pid(pid),
                pc: Pc(pc),
                signature: signature.map(Signature),
                table_len: table_len.map(|n| n as usize),
                vote_delay: vote_delay.map(SimDuration::from_micros),
                vote_source: vote_source.map(source_of),
                local_gap: SimDuration::from_micros(local_gap),
                local_verdict: verdict_of(local_verdict),
                global_gap: SimDuration::from_micros(global_gap),
                shutdown_at: shutdown_at.map(SimTime::from_micros),
                shutdown_source: shutdown_source.map(source_of),
                verdict: verdict_of(verdict),
                energy_delta_j: f64::from_bits(energy_bits),
            }
        })
}

proptest! {
    /// Arbitrary client frames survive encode → frame-split → decode.
    #[test]
    fn client_frames_round_trip(frame in arb_client_frame()) {
        let mut buf = Vec::new();
        encode_client(&frame, &mut buf);
        let (payload, consumed) = wire::read_frame(&buf).unwrap().unwrap();
        prop_assert_eq!(consumed, buf.len());
        prop_assert_eq!(decode_client(payload).unwrap(), frame);
    }

    /// Arbitrary decision records round-trip bit-exactly (including
    /// NaN payloads in the energy field).
    #[test]
    fn records_round_trip_bit_exact(record in arb_record()) {
        let mut buf = Vec::new();
        put_record(&mut buf, &record);
        let mut r = WireReader::new(&buf);
        let back = get_record(&mut r).unwrap();
        r.finish().unwrap();
        prop_assert_eq!(back.energy_delta_j.to_bits(), record.energy_delta_j.to_bits());
        let canon = |mut x: DecisionRecord| { x.energy_delta_j = 0.0; x };
        prop_assert_eq!(canon(back), canon(record));
    }

    /// Decision frames round-trip through the server-frame codec.
    #[test]
    fn decision_frames_round_trip(device in any::<u64>(), record in arb_record()) {
        prop_assume!(!record.energy_delta_j.is_nan());
        let frame = ServerFrame::Decision { device, record };
        let mut buf = Vec::new();
        encode_server(&frame, &mut buf);
        let (payload, _) = wire::read_frame(&buf).unwrap().unwrap();
        prop_assert_eq!(decode_server(payload).unwrap(), frame);
    }

    /// Byte soup never panics the decoders: every outcome is a clean
    /// `Ok`/`Err`, and truncating a valid frame never decodes.
    #[test]
    fn byte_soup_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        if let Ok(Some((payload, consumed))) = wire::read_frame(&bytes) {
            prop_assert!(consumed <= bytes.len());
            let _ = decode_client(payload);
            let _ = decode_server(payload);
        }
    }

    /// Any prefix of a valid encoded frame is incomplete, not an error
    /// (the reader waits for more bytes).
    #[test]
    fn truncated_valid_frames_stay_incomplete(frame in arb_client_frame()) {
        let mut buf = Vec::new();
        encode_client(&frame, &mut buf);
        for cut in 0..buf.len() {
            prop_assert_eq!(wire::read_frame(&buf[..cut]).unwrap(), None);
        }
    }
}

// ------------------------------------------- live-server bad frames

fn start_server(tag: &str) -> (pcap_dpm::serve::ServerHandle, std::path::PathBuf) {
    let sock = temp_sock(tag);
    let config = ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    };
    let handle = pcap_dpm::serve::start(config, &[Endpoint::Uds(sock.clone())], None).unwrap();
    (handle, sock)
}

fn wait_until(mut pred: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

/// The cheapest real workload: nedit run 0 and its offline decisions.
fn nedit_run0() -> (pcap_dpm::trace::TraceRun, Vec<DecisionRecord>) {
    let config = SimConfig::paper();
    let trace = PaperApp::Nedit.spec().generate_trace(42).unwrap();
    let prepared = PreparedTrace::build(&trace, &config);
    let audit = audit_prepared(&prepared, &config, ServeConfig::default().kind);
    let records = audit
        .records
        .iter()
        .copied()
        .filter(|r| r.run == 0)
        .collect();
    (trace.runs[0].clone(), records)
}

#[test]
fn truncated_header_at_eof_counts_bad_frame() {
    let (handle, sock) = start_server("trunc");
    let mut stream = UnixStream::connect(&sock).unwrap();
    // Half a length prefix, then EOF: an unfinishable frame.
    stream.write_all(&[0x03, 0x00]).unwrap();
    drop(stream);
    let metrics = handle.metrics().clone();
    assert!(
        wait_until(|| metrics.bad_frames.load(Ordering::Relaxed) == 1),
        "partial frame at EOF must count one bad_frame"
    );
    assert!(wait_until(
        || metrics.disconnects.load(Ordering::Relaxed) == 1
    ));
    handle.shutdown();
}

#[test]
fn oversized_prefix_closes_connection_but_not_server() {
    let (handle, sock) = start_server("oversize");
    let metrics = handle.metrics().clone();
    let mut stream = UnixStream::connect(&sock).unwrap();
    let mut bytes = Vec::new();
    wire::put::u32(&mut bytes, (wire::MAX_FRAME_LEN + 1) as u32);
    bytes.extend_from_slice(&[0u8; 64]);
    stream.write_all(&bytes).unwrap();
    // Corrupt stream: the server must drop THIS connection...
    assert!(
        wait_until(|| metrics.bad_frames.load(Ordering::Relaxed) == 1
            && metrics.disconnects.load(Ordering::Relaxed) == 1),
        "oversized prefix must count bad_frame and close the connection"
    );
    drop(stream);
    // ...while staying healthy for the next client: a full run still
    // evaluates to the exact offline decisions.
    let (run, offline) = nedit_run0();
    let mut script = Vec::new();
    push_run(&mut script, 9, &run);
    script.push(ClientFrame::DeviceEnd { device: 9 });
    let frames = drive(&Endpoint::Uds(sock.clone()), &script, 1);
    assert_eq!(decisions_of(&frames, 9), offline);
    handle.shutdown();
}

#[test]
fn unknown_tag_is_skipped_and_device_state_stays_consistent() {
    let (handle, sock) = start_server("badtag");
    let metrics = handle.metrics().clone();
    let (run, offline) = nedit_run0();

    // A syntactically valid frame with an unknown tag, spliced between
    // the run's events: the server must count it, skip it, and still
    // evaluate the run exactly as if the stream had been clean.
    let mut script_head = Vec::new();
    push_run(&mut script_head, 4, &run);
    let mut bytes = Vec::new();
    let split = script_head.len() / 2;
    for frame in &script_head[..split] {
        encode_client(frame, &mut bytes);
    }
    wire::write_frame(&mut bytes, &[0x77, 1, 2, 3]).unwrap();
    for frame in &script_head[split..] {
        encode_client(frame, &mut bytes);
    }
    encode_client(&ClientFrame::DeviceEnd { device: 4 }, &mut bytes);

    let mut stream = UnixStream::connect(&sock).unwrap();
    stream.write_all(&bytes).unwrap();
    assert!(wait_until(
        || metrics.bad_frames.load(Ordering::Relaxed) == 1
    ));
    assert!(
        wait_until(|| metrics.runs.load(Ordering::Relaxed) == 1),
        "run after a skipped bad frame must still evaluate"
    );
    assert_eq!(metrics.run_rejects.load(Ordering::Relaxed), 0);
    assert_eq!(
        metrics.decisions.load(Ordering::Relaxed),
        offline.len() as u64,
        "decision count must match the clean offline run"
    );
    drop(stream);
    handle.shutdown();
}

#[test]
fn out_of_range_io_rejects_the_run_and_spares_its_shard() {
    let (handle, sock) = start_server("iorange");
    let metrics = handle.metrics().clone();
    let (run, offline) = nedit_run0();
    let good = 11u64;
    let bad = (good + 1..)
        .find(|&d| shard_of(d, 2) == shard_of(good, 2))
        .unwrap();

    // The same run, with one read whose byte range ends past u64::MAX.
    let mut hostile = run.clone();
    let io = hostile
        .events
        .iter_mut()
        .find_map(|e| match e {
            TraceEvent::Io(io) if io.kind == IoKind::Read => Some(io),
            _ => None,
        })
        .expect("nedit reads");
    io.offset = u64::MAX - 100;

    let mut script = Vec::new();
    push_run(&mut script, bad, &hostile);
    push_run(&mut script, good, &run);
    script.push(ClientFrame::DeviceEnd { device: good });
    script.push(ClientFrame::DeviceEnd { device: bad });
    let frames = drive(&Endpoint::Uds(sock.clone()), &script, 2);

    assert!(frames.contains(&ServerFrame::RunRejected {
        device: bad,
        run: 0
    }));
    assert!(decisions_of(&frames, bad).is_empty());
    assert_eq!(metrics.run_rejects.load(Ordering::Relaxed), 1);
    assert_eq!(decisions_of(&frames, good), offline);
    assert!(frames.iter().any(|f| matches!(
        f,
        ServerFrame::DeviceSummary { device, runs: 0, .. } if *device == bad
    )));
    handle.shutdown();
}
