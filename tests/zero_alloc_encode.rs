//! Pins the daemon's frame encoder at the allocator level: encoding
//! server frames into a warmed output buffer performs **zero** heap
//! allocations. Each frame's payload is written in place after a
//! reserved length prefix, which is patched once the payload is known,
//! so no frame needs a payload buffer of its own.

mod counting_alloc;

use counting_alloc::{allocs_during, CountingAlloc};
use pcap_dpm::core::VoteSource;
use pcap_dpm::serve::{decode_server, encode_server, ServerFrame};
use pcap_dpm::sim::{DecisionRecord, GapVerdict};
use pcap_dpm::types::wire::read_frame;
use pcap_dpm::types::{Pc, Pid, Signature, SimDuration, SimTime};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A decision frame with every optional field present: the largest
/// payload the daemon sends per decision.
fn decision(access: u32) -> ServerFrame {
    ServerFrame::Decision {
        device: 7,
        record: DecisionRecord {
            run: 3,
            access,
            at: SimTime::from_micros(1_234_567 + u64::from(access)),
            pid: Pid(2),
            pc: Pc(0x8048_1000),
            signature: Some(Signature(0xaaaa_bbbb)),
            table_len: Some(12),
            vote_delay: Some(SimDuration::from_millis(1500)),
            vote_source: Some(VoteSource::Primary),
            local_gap: SimDuration::from_secs(21),
            local_verdict: GapVerdict::Hit,
            global_gap: SimDuration::from_secs(19),
            shutdown_at: Some(SimTime::from_secs(3)),
            shutdown_source: Some(VoteSource::Backup),
            verdict: GapVerdict::Miss,
            energy_delta_j: -1.2345e-3,
        },
    }
}

/// One test function: the counter is process-global, so concurrent
/// test threads would see each other's allocations.
///
/// The frames are built before the bracket, and one pass grows the
/// buffer to its high-water mark; the measured pass encodes the same
/// 1000 decisions and a run summary into the cleared buffer.
#[test]
fn encoding_into_a_warmed_buffer_allocates_nothing() {
    let mut frames: Vec<ServerFrame> = (0..1000).map(decision).collect();
    frames.push(ServerFrame::RunSummary {
        device: 7,
        run: 3,
        decisions: 1000,
        accesses: 1001,
    });
    let mut buf = Vec::new();
    for frame in &frames {
        encode_server(frame, &mut buf);
    }
    let warmed = buf.clone();
    buf.clear();
    let (allocs, ()) = allocs_during(|| {
        for frame in &frames {
            encode_server(frame, &mut buf);
        }
    });
    assert_eq!(allocs, 0, "encoding allocated {allocs} times");
    assert_eq!(buf, warmed, "the measured pass encodes the same bytes");
    let (mut rest, mut decoded) = (&buf[..], 0);
    while let Some((payload, consumed)) = read_frame(rest).expect("well-formed frames") {
        assert_eq!(decode_server(payload).expect("decodable"), frames[decoded]);
        rest = &rest[consumed..];
        decoded += 1;
    }
    assert_eq!(decoded, frames.len());
}
