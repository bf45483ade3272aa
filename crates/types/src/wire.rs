//! Length-prefixed binary wire codec for the online serving layer.
//!
//! `pcap serve` streams trace events from many clients over TCP/UDS as
//! *frames*: a little-endian `u32` length prefix followed by that many
//! payload bytes. This module owns the layer-0 vocabulary every peer
//! shares — the framing bounds, a bounds-checked [`WireReader`] /
//! append-only writer pair for primitive fields, and the codec for the
//! [`TraceEvent`] records that make up the bulk of the traffic. The
//! frame *tags* (what a payload means) live with the server in
//! `pcap-serve`; this crate only defines how bytes become fields.
//!
//! Encoding rules, chosen for determinism and zero-copy decoding:
//!
//! * all integers little-endian, fixed width; no varints,
//! * `f64` as IEEE-754 bits (`to_bits`/`from_bits`) — byte-exact round
//!   trips, no text formatting involved,
//! * `Option<T>` as a `u8` flag (0 = `None`, 1 = `Some`) followed by
//!   the value iff present,
//! * enums as a `u8` discriminant; unknown discriminants are decode
//!   errors, never panics.

use crate::event::{IoEvent, IoKind, TraceEvent};
use crate::{Fd, FileId, Pc, Pid, SimTime};
use std::fmt;

/// Hard ceiling on a frame's payload length. A length prefix above
/// this is treated as stream corruption (the connection cannot be
/// resynchronized) rather than an allocation request.
pub const MAX_FRAME_LEN: usize = 1 << 16;

/// Size of the `u32` length prefix, in bytes.
pub const LEN_PREFIX: usize = 4;

/// Decode-side errors. Encoding is infallible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the field being read.
    Truncated {
        /// Bytes the field needed.
        needed: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// A frame length prefix exceeded [`MAX_FRAME_LEN`].
    Oversized {
        /// The claimed payload length.
        len: usize,
    },
    /// An enum discriminant no decoder recognizes.
    BadEnum {
        /// Which enum was being decoded.
        what: &'static str,
        /// The offending discriminant.
        value: u8,
    },
    /// A frame payload had bytes left over after its last field.
    Trailing {
        /// Number of undecoded bytes.
        extra: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            WireError::Truncated { needed, have } => {
                write!(f, "truncated field: needed {needed} bytes, have {have}")
            }
            WireError::Oversized { len } => {
                write!(f, "oversized frame: {len} bytes > {MAX_FRAME_LEN} max")
            }
            WireError::BadEnum { what, value } => {
                write!(f, "unknown {what} discriminant {value}")
            }
            WireError::Trailing { extra } => {
                write!(f, "{extra} trailing bytes after frame payload")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A bounds-checked cursor over a frame payload.
///
/// Every getter advances the cursor or fails with
/// [`WireError::Truncated`]; [`finish`](Self::finish) asserts the
/// payload was consumed exactly.
#[derive(Debug)]
pub struct WireReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> WireReader<'a> {
        WireReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                have: self.remaining(),
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` from its IEEE-754 bits.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads `n` raw bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Reads an `Option` via the flag-byte convention.
    #[inline]
    pub fn option<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, WireError>,
    ) -> Result<Option<T>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(read(self)?)),
            value => Err(WireError::BadEnum {
                what: "option flag",
                value,
            }),
        }
    }

    /// Asserts the payload is fully consumed.
    #[inline]
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Trailing {
                extra: self.remaining(),
            })
        }
    }
}

/// Append-only primitive writers, mirroring [`WireReader`] getters.
/// Free functions over `Vec<u8>` so callers can reuse one buffer.
pub mod put {
    /// Appends one byte.
    #[inline]
    pub fn u8(buf: &mut Vec<u8>, v: u8) {
        buf.push(v);
    }

    /// Appends a little-endian `u32`.
    #[inline]
    pub fn u32(buf: &mut Vec<u8>, v: u32) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    #[inline]
    pub fn u64(buf: &mut Vec<u8>, v: u64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bits.
    #[inline]
    pub fn f64(buf: &mut Vec<u8>, v: f64) {
        u64(buf, v.to_bits());
    }

    /// Appends an `Option` via the flag-byte convention.
    #[inline]
    pub fn option<T>(buf: &mut Vec<u8>, v: Option<T>, write: impl FnOnce(&mut Vec<u8>, T)) {
        match v {
            None => u8(buf, 0),
            Some(value) => {
                u8(buf, 1);
                write(buf, value);
            }
        }
    }
}

/// Appends `payload` to `buf` as one frame: `u32` length prefix plus
/// the payload bytes.
///
/// # Errors
///
/// [`WireError::Oversized`] if `payload` exceeds [`MAX_FRAME_LEN`].
/// The bound is enforced at encode time so an oversized payload can
/// never reach the wire: the old `payload.len() as u32` cast would
/// silently truncate lengths above `u32::MAX` and emit a frame the
/// peer decodes as garbage. On error `buf` is left untouched.
pub fn write_frame(buf: &mut Vec<u8>, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(WireError::Oversized { len: payload.len() });
    }
    put::u32(buf, payload.len() as u32);
    buf.extend_from_slice(payload);
    Ok(())
}

/// Appends one frame whose payload `payload` writes in place: reserves
/// the `u32` length prefix, lets `payload` append the payload bytes to
/// `buf`, then back-patches the prefix. Encoders that build frames this
/// way need no payload buffer of their own, so encoding into a warmed
/// `buf` allocates nothing.
///
/// # Errors
///
/// [`WireError::Oversized`] if the payload exceeds [`MAX_FRAME_LEN`];
/// `buf` is then truncated back to its length before the call.
pub fn write_frame_with(
    buf: &mut Vec<u8>,
    payload: impl FnOnce(&mut Vec<u8>),
) -> Result<(), WireError> {
    let at = buf.len();
    put::u32(buf, 0);
    payload(buf);
    let len = buf.len() - at - LEN_PREFIX;
    if len > MAX_FRAME_LEN {
        buf.truncate(at);
        return Err(WireError::Oversized { len });
    }
    buf[at..at + LEN_PREFIX].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(())
}

/// Attempts to split one frame off the front of `buf`.
///
/// Returns `Ok(None)` when the buffer does not yet hold a complete
/// frame (read more bytes and retry), `Ok(Some((payload, consumed)))`
/// when it does — `consumed` counts the prefix plus the payload — and
/// [`WireError::Oversized`] when the length prefix exceeds
/// [`MAX_FRAME_LEN`] (the stream is corrupt; no resync is possible).
#[allow(clippy::type_complexity)]
#[inline]
pub fn read_frame(buf: &[u8]) -> Result<Option<(&[u8], usize)>, WireError> {
    if buf.len() < LEN_PREFIX {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[..LEN_PREFIX].try_into().unwrap()) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversized { len });
    }
    if buf.len() < LEN_PREFIX + len {
        return Ok(None);
    }
    Ok(Some((&buf[LEN_PREFIX..LEN_PREFIX + len], LEN_PREFIX + len)))
}

fn io_kind_code(kind: IoKind) -> u8 {
    match kind {
        IoKind::Read => 0,
        IoKind::Write => 1,
        IoKind::SyncWrite => 2,
        IoKind::Open => 3,
        IoKind::Close => 4,
    }
}

fn io_kind_from(code: u8) -> Result<IoKind, WireError> {
    Ok(match code {
        0 => IoKind::Read,
        1 => IoKind::Write,
        2 => IoKind::SyncWrite,
        3 => IoKind::Open,
        4 => IoKind::Close,
        value => {
            return Err(WireError::BadEnum {
                what: "IoKind",
                value,
            })
        }
    })
}

const EVENT_IO: u8 = 0;
const EVENT_FORK: u8 = 1;
const EVENT_EXIT: u8 = 2;

/// Appends one [`TraceEvent`] to `buf` (no framing; callers compose
/// events into larger payloads).
pub fn put_event(buf: &mut Vec<u8>, event: &TraceEvent) {
    match *event {
        TraceEvent::Io(ref io) => {
            put::u8(buf, EVENT_IO);
            put::u64(buf, io.time.as_micros());
            put::u32(buf, io.pid.0);
            put::u32(buf, io.pc.0);
            put::u8(buf, io_kind_code(io.kind));
            put::u32(buf, io.fd.0);
            put::u64(buf, io.file.0);
            put::u64(buf, io.offset);
            put::u64(buf, io.len);
        }
        TraceEvent::Fork {
            time,
            parent,
            child,
        } => {
            put::u8(buf, EVENT_FORK);
            put::u64(buf, time.as_micros());
            put::u32(buf, parent.0);
            put::u32(buf, child.0);
        }
        TraceEvent::Exit { time, pid } => {
            put::u8(buf, EVENT_EXIT);
            put::u64(buf, time.as_micros());
            put::u32(buf, pid.0);
        }
    }
}

/// Reads one [`TraceEvent`] from `r`, the inverse of [`put_event`].
///
/// # Errors
///
/// [`WireError::Truncated`] on short input, [`WireError::BadEnum`] on
/// an unknown event or I/O kind discriminant.
pub fn get_event(r: &mut WireReader<'_>) -> Result<TraceEvent, WireError> {
    match r.u8()? {
        EVENT_IO => Ok(TraceEvent::Io(IoEvent {
            time: SimTime::from_micros(r.u64()?),
            pid: Pid(r.u32()?),
            pc: Pc(r.u32()?),
            kind: io_kind_from(r.u8()?)?,
            fd: Fd(r.u32()?),
            file: FileId(r.u64()?),
            offset: r.u64()?,
            len: r.u64()?,
        })),
        EVENT_FORK => Ok(TraceEvent::Fork {
            time: SimTime::from_micros(r.u64()?),
            parent: Pid(r.u32()?),
            child: Pid(r.u32()?),
        }),
        EVENT_EXIT => Ok(TraceEvent::Exit {
            time: SimTime::from_micros(r.u64()?),
            pid: Pid(r.u32()?),
        }),
        value => Err(WireError::BadEnum {
            what: "TraceEvent",
            value,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn io_event() -> TraceEvent {
        TraceEvent::Io(IoEvent {
            time: SimTime::from_micros(123_456),
            pid: Pid(7),
            pc: Pc(0xdead_beef),
            kind: IoKind::SyncWrite,
            fd: Fd(5),
            file: FileId(u64::MAX),
            offset: 1 << 40,
            len: 4096,
        })
    }

    #[test]
    fn events_round_trip() {
        let events = [
            io_event(),
            TraceEvent::Fork {
                time: SimTime::ZERO,
                parent: Pid(1),
                child: Pid(2),
            },
            TraceEvent::Exit {
                time: SimTime::from_secs(9),
                pid: Pid(2),
            },
        ];
        for event in events {
            let mut buf = Vec::new();
            put_event(&mut buf, &event);
            let mut r = WireReader::new(&buf);
            assert_eq!(get_event(&mut r).unwrap(), event);
            r.finish().unwrap();
        }
    }

    #[test]
    fn truncated_event_reports_needed_bytes() {
        let mut buf = Vec::new();
        put_event(&mut buf, &io_event());
        for cut in 0..buf.len() {
            let mut r = WireReader::new(&buf[..cut]);
            assert!(
                matches!(get_event(&mut r), Err(WireError::Truncated { .. })),
                "cut at {cut} must be truncated"
            );
        }
    }

    #[test]
    fn unknown_discriminants_are_errors() {
        let mut r = WireReader::new(&[9]);
        assert_eq!(
            get_event(&mut r),
            Err(WireError::BadEnum {
                what: "TraceEvent",
                value: 9
            })
        );
        // Bad IoKind inside an otherwise valid Io event.
        let mut buf = Vec::new();
        put_event(&mut buf, &io_event());
        buf[1 + 8 + 4 + 4] = 200; // the kind byte
        let mut r = WireReader::new(&buf);
        assert_eq!(
            get_event(&mut r),
            Err(WireError::BadEnum {
                what: "IoKind",
                value: 200
            })
        );
    }

    #[test]
    fn frames_split_incrementally() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abc").unwrap();
        write_frame(&mut buf, b"").unwrap();
        // Partial prefix → incomplete.
        assert_eq!(read_frame(&buf[..3]).unwrap(), None);
        // Prefix but short payload → incomplete.
        assert_eq!(read_frame(&buf[..5]).unwrap(), None);
        let (payload, consumed) = read_frame(&buf).unwrap().unwrap();
        assert_eq!((payload, consumed), (&b"abc"[..], 7));
        let rest = &buf[consumed..];
        let (payload, consumed) = read_frame(rest).unwrap().unwrap();
        assert_eq!((payload, consumed), (&b""[..], 4));
        assert_eq!(consumed, rest.len());
    }

    #[test]
    fn oversized_prefix_is_corruption() {
        let mut buf = Vec::new();
        put::u32(&mut buf, (MAX_FRAME_LEN + 1) as u32);
        assert_eq!(
            read_frame(&buf),
            Err(WireError::Oversized {
                len: MAX_FRAME_LEN + 1
            })
        );
    }

    #[test]
    fn encode_enforces_max_frame_len_on_both_sides_of_the_boundary() {
        // Exactly MAX_FRAME_LEN is legal and round-trips.
        let payload = vec![0xabu8; MAX_FRAME_LEN];
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let (decoded, consumed) = read_frame(&buf).unwrap().unwrap();
        assert_eq!(decoded, &payload[..]);
        assert_eq!(consumed, LEN_PREFIX + MAX_FRAME_LEN);
        // One byte over is an encode-time error that leaves the output
        // buffer untouched — nothing partial hits the wire.
        let oversized = vec![0u8; MAX_FRAME_LEN + 1];
        let mut buf = Vec::new();
        assert_eq!(
            write_frame(&mut buf, &oversized),
            Err(WireError::Oversized {
                len: MAX_FRAME_LEN + 1
            })
        );
        assert!(buf.is_empty(), "failed encode must not emit bytes");
    }

    #[test]
    fn frames_written_in_place_match_copied_frames() {
        let mut copied = vec![7u8];
        write_frame(&mut copied, &[1, 2, 3]).unwrap();
        let mut in_place = vec![7u8];
        write_frame_with(&mut in_place, |b| b.extend_from_slice(&[1, 2, 3])).unwrap();
        assert_eq!(in_place, copied);
        // Exactly MAX_FRAME_LEN is legal; one byte more truncates the
        // buffer back and reports the payload's length.
        write_frame_with(&mut in_place, |b| b.resize(b.len() + MAX_FRAME_LEN, 0)).unwrap();
        assert_eq!(in_place.len(), copied.len() + LEN_PREFIX + MAX_FRAME_LEN);
        in_place.truncate(copied.len());
        assert_eq!(
            write_frame_with(&mut in_place, |b| b.resize(b.len() + MAX_FRAME_LEN + 1, 0)),
            Err(WireError::Oversized {
                len: MAX_FRAME_LEN + 1
            })
        );
        assert_eq!(in_place, copied);
    }

    #[test]
    fn options_and_floats_round_trip() {
        let mut buf = Vec::new();
        put::option(&mut buf, Some(42u64), put::u64);
        put::option::<u64>(&mut buf, None, put::u64);
        put::f64(&mut buf, -0.125);
        let mut r = WireReader::new(&buf);
        assert_eq!(r.option(WireReader::u64).unwrap(), Some(42));
        assert_eq!(r.option(WireReader::u64).unwrap(), None);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.125f64).to_bits());
        r.finish().unwrap();
        // A flag byte that is neither 0 nor 1 is an error.
        let mut r = WireReader::new(&[7]);
        assert!(matches!(
            r.option(WireReader::u64),
            Err(WireError::BadEnum {
                what: "option flag",
                ..
            })
        ));
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut buf = Vec::new();
        put::u32(&mut buf, 1);
        let mut r = WireReader::new(&buf);
        r.u8().unwrap();
        assert_eq!(r.finish(), Err(WireError::Trailing { extra: 3 }));
    }

    #[test]
    fn error_display_is_informative() {
        assert!(WireError::Oversized { len: 1 << 20 }
            .to_string()
            .contains("oversized"));
        assert!(WireError::Truncated { needed: 8, have: 3 }
            .to_string()
            .contains("needed 8"));
    }
}
