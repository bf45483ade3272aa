//! The serve protocol: what a frame payload *means*.
//!
//! Layer 0 (length prefixes, primitive fields, [`TraceEvent`] bodies)
//! lives in [`pcap_types::wire`]; this module defines the two frame
//! vocabularies on top of it:
//!
//! * [`ClientFrame`] — client → server: a protocol hello, then per
//!   device a `RunStart` / `Event`* / `RunEnd` cycle per execution,
//!   and an optional `DeviceEnd` to retire the device's state early
//!   (disconnecting retires everything implicitly).
//! * [`ServerFrame`] — server → client: one `Decision` per idle-gap
//!   decision (carrying the full audit [`DecisionRecord`], bit-exact),
//!   a `RunSummary` closing each evaluated run, `RunRejected` for runs
//!   whose event stream failed validation, and a `DeviceSummary`
//!   answering `DeviceEnd`.
//!
//! Every encoder appends a *complete* frame (length prefix included)
//! so callers can batch frames into one write; decoders consume exactly
//! one de-framed payload and reject trailing bytes.

use pcap_core::VoteSource;
use pcap_sim::{DecisionRecord, GapVerdict};
use pcap_types::wire::{self, put, WireError, WireReader};
use pcap_types::{Pc, Pid, Signature, SimDuration, SimTime, TraceEvent};

/// Protocol version carried by [`ClientFrame::Hello`].
pub const PROTOCOL_VERSION: u32 = 1;

const TAG_HELLO: u8 = 1;
const TAG_RUN_START: u8 = 2;
const TAG_EVENT: u8 = 3;
const TAG_RUN_END: u8 = 4;
const TAG_DEVICE_END: u8 = 5;

const TAG_DECISION: u8 = 128;
const TAG_RUN_SUMMARY: u8 = 129;
const TAG_RUN_REJECTED: u8 = 130;
const TAG_DEVICE_SUMMARY: u8 = 131;

/// A frame sent by a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientFrame {
    /// Protocol handshake; must be the first frame on a connection.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Opens one execution of `device`, rooted at process `root`.
    RunStart {
        /// Fleet/device identifier (also the shard routing key).
        device: u64,
        /// Initial process of the run.
        root: Pid,
    },
    /// One trace event of the device's open run.
    Event {
        /// Device the event belongs to.
        device: u64,
        /// The event itself.
        event: TraceEvent,
    },
    /// Closes the device's open run: the server validates, evaluates,
    /// and streams back decisions.
    RunEnd {
        /// Device whose run ends.
        device: u64,
    },
    /// Retires the device's server-side state (predictor tables are
    /// dropped; a later `RunStart` begins from a blank slate).
    DeviceEnd {
        /// Device to retire.
        device: u64,
    },
}

impl ClientFrame {
    /// The device a frame addresses, if any (`Hello` addresses none).
    pub fn device(&self) -> Option<u64> {
        match *self {
            ClientFrame::Hello { .. } => None,
            ClientFrame::RunStart { device, .. }
            | ClientFrame::Event { device, .. }
            | ClientFrame::RunEnd { device }
            | ClientFrame::DeviceEnd { device } => Some(device),
        }
    }
}

/// A frame sent by the server.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerFrame {
    /// One idle-gap decision, exactly as the offline audit records it.
    Decision {
        /// Device the decision belongs to.
        device: u64,
        /// The full audit record.
        record: DecisionRecord,
    },
    /// A run was evaluated; `decisions` [`ServerFrame::Decision`]
    /// frames preceded this summary.
    RunSummary {
        /// Device whose run finished.
        device: u64,
        /// Zero-based index of the evaluated run.
        run: u32,
        /// Decisions emitted for the run.
        decisions: u32,
        /// Cache-filtered disk accesses of the run.
        accesses: u32,
    },
    /// A run's event stream failed trace validation and was discarded;
    /// device state is as if the run never happened.
    RunRejected {
        /// Device whose run was rejected.
        device: u64,
        /// The run index that would have been evaluated.
        run: u32,
    },
    /// Answer to [`ClientFrame::DeviceEnd`]: final per-device stats.
    DeviceSummary {
        /// The retired device.
        device: u64,
        /// Runs evaluated over the device's lifetime.
        runs: u32,
        /// Final prediction-table entry count, for table-based managers.
        table_entries: Option<u64>,
        /// Signature-aliasing events observed, for table-based managers.
        table_aliases: Option<u64>,
    },
}

/// Encodes `frame` as one complete wire frame appended to `buf`,
/// writing the payload in place.
pub fn encode_client(frame: &ClientFrame, buf: &mut Vec<u8>) {
    wire::write_frame_with(buf, |payload| match *frame {
        ClientFrame::Hello { version } => {
            put::u8(payload, TAG_HELLO);
            put::u32(payload, version);
        }
        ClientFrame::RunStart { device, root } => {
            put::u8(payload, TAG_RUN_START);
            put::u64(payload, device);
            put::u32(payload, root.0);
        }
        ClientFrame::Event { device, ref event } => {
            put::u8(payload, TAG_EVENT);
            put::u64(payload, device);
            wire::put_event(payload, event);
        }
        ClientFrame::RunEnd { device } => {
            put::u8(payload, TAG_RUN_END);
            put::u64(payload, device);
        }
        ClientFrame::DeviceEnd { device } => {
            put::u8(payload, TAG_DEVICE_END);
            put::u64(payload, device);
        }
    })
    .expect("client frames are fixed-size, below MAX_FRAME_LEN");
}

/// Decodes one de-framed client payload.
///
/// # Errors
///
/// [`WireError`] on truncation, unknown tags/discriminants, or
/// trailing bytes.
pub fn decode_client(payload: &[u8]) -> Result<ClientFrame, WireError> {
    let mut r = WireReader::new(payload);
    let frame = match r.u8()? {
        TAG_HELLO => ClientFrame::Hello { version: r.u32()? },
        TAG_RUN_START => ClientFrame::RunStart {
            device: r.u64()?,
            root: Pid(r.u32()?),
        },
        TAG_EVENT => ClientFrame::Event {
            device: r.u64()?,
            event: wire::get_event(&mut r)?,
        },
        TAG_RUN_END => ClientFrame::RunEnd { device: r.u64()? },
        TAG_DEVICE_END => ClientFrame::DeviceEnd { device: r.u64()? },
        value => {
            return Err(WireError::BadEnum {
                what: "ClientFrame",
                value,
            })
        }
    };
    r.finish()?;
    Ok(frame)
}

fn verdict_code(v: GapVerdict) -> u8 {
    match v {
        GapVerdict::Hit => 0,
        GapVerdict::Miss => 1,
        GapVerdict::NotPredicted => 2,
        GapVerdict::Short => 3,
    }
}

fn verdict_from(code: u8) -> Result<GapVerdict, WireError> {
    Ok(match code {
        0 => GapVerdict::Hit,
        1 => GapVerdict::Miss,
        2 => GapVerdict::NotPredicted,
        3 => GapVerdict::Short,
        value => {
            return Err(WireError::BadEnum {
                what: "GapVerdict",
                value,
            })
        }
    })
}

fn source_code(s: VoteSource) -> u8 {
    match s {
        VoteSource::Primary => 0,
        VoteSource::Backup => 1,
    }
}

fn source_from(code: u8) -> Result<VoteSource, WireError> {
    Ok(match code {
        0 => VoteSource::Primary,
        1 => VoteSource::Backup,
        value => {
            return Err(WireError::BadEnum {
                what: "VoteSource",
                value,
            })
        }
    })
}

/// Appends a [`DecisionRecord`] body (field order is the struct order;
/// times as microseconds, `f64` as IEEE-754 bits — bit-exact).
pub fn put_record(buf: &mut Vec<u8>, record: &DecisionRecord) {
    put::u32(buf, record.run);
    put::u32(buf, record.access);
    put::u64(buf, record.at.as_micros());
    put::u32(buf, record.pid.0);
    put::u32(buf, record.pc.0);
    put::option(buf, record.signature, |b, s: Signature| put::u32(b, s.0));
    put::option(buf, record.table_len, |b, n| put::u64(b, n as u64));
    put::option(buf, record.vote_delay, |b, d: SimDuration| {
        put::u64(b, d.as_micros())
    });
    put::option(buf, record.vote_source, |b, s| put::u8(b, source_code(s)));
    put::u64(buf, record.local_gap.as_micros());
    put::u8(buf, verdict_code(record.local_verdict));
    put::u64(buf, record.global_gap.as_micros());
    put::option(buf, record.shutdown_at, |b, t: SimTime| {
        put::u64(b, t.as_micros())
    });
    put::option(buf, record.shutdown_source, |b, s| {
        put::u8(b, source_code(s))
    });
    put::u8(buf, verdict_code(record.verdict));
    put::f64(buf, record.energy_delta_j);
}

/// Reads a [`DecisionRecord`] body, the inverse of [`put_record`].
///
/// # Errors
///
/// [`WireError`] on truncation or unknown discriminants.
pub fn get_record(r: &mut WireReader<'_>) -> Result<DecisionRecord, WireError> {
    Ok(DecisionRecord {
        run: r.u32()?,
        access: r.u32()?,
        at: SimTime::from_micros(r.u64()?),
        pid: Pid(r.u32()?),
        pc: Pc(r.u32()?),
        signature: r.option(|r| Ok(Signature(r.u32()?)))?,
        table_len: r.option(|r| Ok(r.u64()? as usize))?,
        vote_delay: r.option(|r| Ok(SimDuration::from_micros(r.u64()?)))?,
        vote_source: r.option(|r| source_from(r.u8()?))?,
        local_gap: SimDuration::from_micros(r.u64()?),
        local_verdict: verdict_from(r.u8()?)?,
        global_gap: SimDuration::from_micros(r.u64()?),
        shutdown_at: r.option(|r| Ok(SimTime::from_micros(r.u64()?)))?,
        shutdown_source: r.option(|r| source_from(r.u8()?))?,
        verdict: verdict_from(r.u8()?)?,
        energy_delta_j: r.f64()?,
    })
}

/// Encodes `frame` as one complete wire frame appended to `buf`,
/// writing the payload in place.
pub fn encode_server(frame: &ServerFrame, buf: &mut Vec<u8>) {
    wire::write_frame_with(buf, |payload| match *frame {
        ServerFrame::Decision { device, ref record } => {
            put::u8(payload, TAG_DECISION);
            put::u64(payload, device);
            put_record(payload, record);
        }
        ServerFrame::RunSummary {
            device,
            run,
            decisions,
            accesses,
        } => {
            put::u8(payload, TAG_RUN_SUMMARY);
            put::u64(payload, device);
            put::u32(payload, run);
            put::u32(payload, decisions);
            put::u32(payload, accesses);
        }
        ServerFrame::RunRejected { device, run } => {
            put::u8(payload, TAG_RUN_REJECTED);
            put::u64(payload, device);
            put::u32(payload, run);
        }
        ServerFrame::DeviceSummary {
            device,
            runs,
            table_entries,
            table_aliases,
        } => {
            put::u8(payload, TAG_DEVICE_SUMMARY);
            put::u64(payload, device);
            put::u32(payload, runs);
            put::option(payload, table_entries, put::u64);
            put::option(payload, table_aliases, put::u64);
        }
    })
    .expect("server frames are fixed-size, below MAX_FRAME_LEN");
}

/// Decodes one de-framed server payload.
///
/// # Errors
///
/// [`WireError`] on truncation, unknown tags/discriminants, or
/// trailing bytes.
pub fn decode_server(payload: &[u8]) -> Result<ServerFrame, WireError> {
    let mut r = WireReader::new(payload);
    let frame = match r.u8()? {
        TAG_DECISION => ServerFrame::Decision {
            device: r.u64()?,
            record: get_record(&mut r)?,
        },
        TAG_RUN_SUMMARY => ServerFrame::RunSummary {
            device: r.u64()?,
            run: r.u32()?,
            decisions: r.u32()?,
            accesses: r.u32()?,
        },
        TAG_RUN_REJECTED => ServerFrame::RunRejected {
            device: r.u64()?,
            run: r.u32()?,
        },
        TAG_DEVICE_SUMMARY => ServerFrame::DeviceSummary {
            device: r.u64()?,
            runs: r.u32()?,
            table_entries: r.option(WireReader::u64)?,
            table_aliases: r.option(WireReader::u64)?,
        },
        value => {
            return Err(WireError::BadEnum {
                what: "ServerFrame",
                value,
            })
        }
    };
    r.finish()?;
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcap_types::wire::read_frame;
    use pcap_types::{Fd, FileId, IoEvent, IoKind};

    fn sample_record() -> DecisionRecord {
        DecisionRecord {
            run: 3,
            access: 17,
            at: SimTime::from_micros(1_234_567),
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
        }
    }

    #[test]
    fn client_frames_round_trip() {
        let frames = [
            ClientFrame::Hello {
                version: PROTOCOL_VERSION,
            },
            ClientFrame::RunStart {
                device: 42,
                root: Pid(1),
            },
            ClientFrame::Event {
                device: 42,
                event: TraceEvent::Io(IoEvent {
                    time: SimTime::from_micros(5),
                    pid: Pid(1),
                    pc: Pc(0x10),
                    kind: IoKind::Read,
                    fd: Fd(3),
                    file: FileId(9),
                    offset: 0,
                    len: 4096,
                }),
            },
            ClientFrame::RunEnd { device: 42 },
            ClientFrame::DeviceEnd { device: u64::MAX },
        ];
        for frame in frames {
            let mut buf = Vec::new();
            encode_client(&frame, &mut buf);
            let (payload, consumed) = read_frame(&buf).unwrap().unwrap();
            assert_eq!(consumed, buf.len());
            assert_eq!(decode_client(payload).unwrap(), frame);
        }
    }

    #[test]
    fn server_frames_round_trip() {
        let frames = [
            ServerFrame::Decision {
                device: 7,
                record: sample_record(),
            },
            ServerFrame::RunSummary {
                device: 7,
                run: 3,
                decisions: 120,
                accesses: 121,
            },
            ServerFrame::RunRejected { device: 7, run: 4 },
            ServerFrame::DeviceSummary {
                device: 7,
                runs: 5,
                table_entries: Some(33),
                table_aliases: None,
            },
        ];
        for frame in frames {
            let mut buf = Vec::new();
            encode_server(&frame, &mut buf);
            let (payload, consumed) = read_frame(&buf).unwrap().unwrap();
            assert_eq!(consumed, buf.len());
            assert_eq!(decode_server(payload).unwrap(), frame);
        }
    }

    #[test]
    fn record_with_all_nones_round_trips() {
        let record = DecisionRecord {
            signature: None,
            table_len: None,
            vote_delay: None,
            vote_source: None,
            shutdown_at: None,
            shutdown_source: None,
            verdict: GapVerdict::NotPredicted,
            ..sample_record()
        };
        let mut buf = Vec::new();
        put_record(&mut buf, &record);
        let mut r = WireReader::new(&buf);
        assert_eq!(get_record(&mut r).unwrap(), record);
        r.finish().unwrap();
    }

    #[test]
    fn unknown_tags_are_rejected_not_panicked() {
        assert!(matches!(
            decode_client(&[0xee]),
            Err(WireError::BadEnum {
                what: "ClientFrame",
                ..
            })
        ));
        assert!(matches!(
            decode_server(&[0x01]),
            Err(WireError::BadEnum {
                what: "ServerFrame",
                ..
            })
        ));
        assert!(matches!(
            decode_client(&[]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = Vec::new();
        encode_client(&ClientFrame::RunEnd { device: 1 }, &mut buf);
        let (payload, _) = read_frame(&buf).unwrap().unwrap();
        let mut extended = payload.to_vec();
        extended.push(0);
        assert!(matches!(
            decode_client(&extended),
            Err(WireError::Trailing { extra: 1 })
        ));
    }

    #[test]
    fn nan_energy_round_trips_bit_exact() {
        let record = DecisionRecord {
            energy_delta_j: f64::from_bits(0x7ff8_0000_0000_1234),
            ..sample_record()
        };
        let mut buf = Vec::new();
        put_record(&mut buf, &record);
        let mut r = WireReader::new(&buf);
        let back = get_record(&mut r).unwrap();
        assert_eq!(
            back.energy_delta_j.to_bits(),
            record.energy_delta_j.to_bits()
        );
    }
}
