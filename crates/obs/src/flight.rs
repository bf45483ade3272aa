//! The flight recorder: a fixed-size, lock-free ring of recent
//! structured events, always on in the daemon (DESIGN.md §15).
//!
//! Crash forensics for `pcap serve`: when a latency spike or a
//! bad-frame storm hits production, the counters in `/metrics` say
//! *that* something happened but not *what*; the flight recorder keeps
//! the last [`capacity`](FlightRecorder::new) events per ring —
//! decodes, enqueues/dequeues, run evaluations, decision emits,
//! rejects — with nanosecond timestamps, and dumps them as JSONL on
//! demand (panic, `SIGUSR1`, `/debug/flight`).
//!
//! # Recording protocol (seqlock, no `unsafe`)
//!
//! Every slot is a handful of `AtomicU64` fields plus a sequence word.
//! A writer claims a slot with one `fetch_add` on the ring head, sets
//! the sequence to the *odd* value `2·claim+1`, stores the fields, and
//! publishes with the *even* value `2·claim+2` (release). The dump
//! reader accepts a slot only if it reads the same even sequence
//! before and after the fields — a torn or in-flight slot is simply
//! skipped. Rings written by a single thread (the per-shard rings)
//! are never torn at all; the shared io ring can drop a slot under a
//! rare same-slot write race, which is the standard flight-recorder
//! trade: the hot path never blocks and never allocates.
//!
//! Timestamps come from one process-wide monotonic base, so events
//! from different rings interleave meaningfully; within one ring the
//! dump is sorted by timestamp, making per-ring monotonicity a
//! validated invariant ([`validate_flight_dump`]).

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::time::Instant;

/// What kind of event a flight-recorder slot holds. The `a`/`b`
/// payload words are kind-specific (documented per variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A client connection opened. `a`/`b` unused.
    ConnOpen,
    /// A client connection closed. `a` = frames read on it.
    ConnClose,
    /// A sampled frame decode. `a` = decode latency (ns).
    FrameDecode,
    /// A malformed frame. `a` = 0 bad payload, 1 oversized prefix,
    /// 2 truncated at EOF.
    BadFrame,
    /// A well-formed frame dropped in an invalid protocol state. `a` =
    /// 0 `RunStart` over an open run (which is discarded), 1 `Event`
    /// with no open run, 2 `RunEnd` with no session, 3 `RunEnd` with no
    /// open run, 4 `DeviceEnd` with no session.
    StrayFrame,
    /// A decision-bearing (`RunEnd`) message entered a shard queue.
    /// `a` = destination shard.
    Enqueue,
    /// A decision-bearing message left its shard queue. `a` = queue
    /// wait (µs).
    Dequeue,
    /// A run was evaluated. `a` = evaluation latency (µs),
    /// `b` = decisions emitted.
    RunEval,
    /// A run failed trace validation and was rejected.
    RunReject,
    /// A run's decision frames were encoded and sent. `a` = bytes,
    /// `b` = encode latency (µs).
    Emit,
    /// A reply write made no progress for the daemon's write timeout,
    /// so its connection was dropped. `device` = connection id, `a` =
    /// the reply's bytes, `b` = the shard that encoded it.
    ReplyTimeout,
}

impl FlightKind {
    /// Every kind, in wire-code order.
    pub const ALL: [FlightKind; 11] = [
        FlightKind::ConnOpen,
        FlightKind::ConnClose,
        FlightKind::FrameDecode,
        FlightKind::BadFrame,
        FlightKind::StrayFrame,
        FlightKind::Enqueue,
        FlightKind::Dequeue,
        FlightKind::RunEval,
        FlightKind::RunReject,
        FlightKind::Emit,
        FlightKind::ReplyTimeout,
    ];

    /// The stable numeric code stored in a slot.
    pub fn code(self) -> u64 {
        FlightKind::ALL
            .iter()
            .position(|&k| k == self)
            .expect("kind in ALL") as u64
    }

    /// The kind for a stored code.
    pub fn from_code(code: u64) -> Option<FlightKind> {
        FlightKind::ALL.get(code as usize).copied()
    }

    /// The snake_case name used in dumps.
    pub fn name(self) -> &'static str {
        match self {
            FlightKind::ConnOpen => "conn_open",
            FlightKind::ConnClose => "conn_close",
            FlightKind::FrameDecode => "frame_decode",
            FlightKind::BadFrame => "bad_frame",
            FlightKind::StrayFrame => "stray_frame",
            FlightKind::Enqueue => "enqueue",
            FlightKind::Dequeue => "dequeue",
            FlightKind::RunEval => "run_eval",
            FlightKind::RunReject => "run_reject",
            FlightKind::Emit => "emit",
            FlightKind::ReplyTimeout => "reply_timeout",
        }
    }

    /// The kind for a dumped name.
    pub fn from_name(name: &str) -> Option<FlightKind> {
        FlightKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One preallocated event slot. `seq` is odd while a writer owns the
/// slot and even (`2·claim+2`) once the fields are published; 0 means
/// never written.
#[derive(Debug, Default)]
struct Slot {
    seq: AtomicU64,
    ts_ns: AtomicU64,
    kind: AtomicU64,
    device: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

#[derive(Debug)]
struct Ring {
    head: AtomicU64,
    slots: Box<[Slot]>,
}

/// One decoded flight-recorder event (dump order: per ring, by
/// timestamp).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// The ring the event was recorded into.
    pub ring: usize,
    /// The writer's claim index (monotone per ring over the ring's
    /// lifetime; the ring keeps only the last `capacity` of them).
    pub idx: u64,
    /// Nanoseconds since the recorder was created.
    pub ts_ns: u64,
    /// Event kind.
    pub kind: FlightKind,
    /// The device the event concerns (0 when not device-scoped).
    pub device: u64,
    /// Kind-specific payload word.
    pub a: u64,
    /// Kind-specific payload word.
    pub b: u64,
}

/// A fixed-size multi-ring flight recorder. See the module docs for
/// the recording protocol; `capacity == 0` disables recording entirely
/// (every `record` call is a single branch).
#[derive(Debug)]
pub struct FlightRecorder {
    rings: Vec<Ring>,
    capacity: usize,
    base: Instant,
}

impl FlightRecorder {
    /// A recorder with `rings` rings of `capacity` slots each. All
    /// slots are preallocated here; recording never allocates.
    pub fn new(rings: usize, capacity: usize) -> FlightRecorder {
        FlightRecorder {
            rings: (0..rings)
                .map(|_| Ring {
                    head: AtomicU64::new(0),
                    slots: (0..capacity).map(|_| Slot::default()).collect(),
                })
                .collect(),
            capacity,
            base: Instant::now(),
        }
    }

    /// Whether recording is live (`capacity > 0`).
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Ring count.
    pub fn rings(&self) -> usize {
        self.rings.len()
    }

    /// Slots per ring.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Nanoseconds since the recorder was created (the dump timebase).
    pub fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Records one event into `ring`, stamped with [`now_ns`](Self::now_ns).
    pub fn record(&self, ring: usize, kind: FlightKind, device: u64, a: u64, b: u64) {
        if self.capacity == 0 {
            return;
        }
        self.record_at(ring, self.now_ns(), kind, device, a, b);
    }

    /// Records one event with a caller-supplied timestamp, so hot
    /// paths can reuse one clock read across several events.
    pub fn record_at(
        &self,
        ring: usize,
        ts_ns: u64,
        kind: FlightKind,
        device: u64,
        a: u64,
        b: u64,
    ) {
        if self.capacity == 0 {
            return;
        }
        let ring = &self.rings[ring];
        let idx = ring.head.fetch_add(1, Ordering::Relaxed);
        let slot = &ring.slots[(idx as usize) % self.capacity];
        slot.seq.store(2 * idx + 1, Ordering::Release);
        slot.ts_ns.store(ts_ns, Ordering::Relaxed);
        slot.kind.store(kind.code(), Ordering::Relaxed);
        slot.device.store(device, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.seq.store(2 * idx + 2, Ordering::Release);
    }

    /// A stable snapshot of every ring, sorted by timestamp within
    /// each ring (claim index breaks ties). Torn or in-flight slots
    /// are skipped, never blocked on.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        let mut events = Vec::new();
        for (ring_idx, ring) in self.rings.iter().enumerate() {
            let start = events.len();
            for slot in ring.slots.iter() {
                let seq1 = slot.seq.load(Ordering::Acquire);
                if seq1 == 0 || seq1 % 2 == 1 {
                    continue; // never written, or mid-write
                }
                let ts_ns = slot.ts_ns.load(Ordering::Relaxed);
                let kind = slot.kind.load(Ordering::Relaxed);
                let device = slot.device.load(Ordering::Relaxed);
                let a = slot.a.load(Ordering::Relaxed);
                let b = slot.b.load(Ordering::Relaxed);
                fence(Ordering::Acquire);
                if slot.seq.load(Ordering::Relaxed) != seq1 {
                    continue; // overwritten while reading
                }
                let Some(kind) = FlightKind::from_code(kind) else {
                    continue; // torn same-slot race on the shared ring
                };
                events.push(FlightEvent {
                    ring: ring_idx,
                    idx: seq1 / 2 - 1,
                    ts_ns,
                    kind,
                    device,
                    a,
                    b,
                });
            }
            events[start..].sort_by_key(|e| (e.ts_ns, e.idx));
        }
        events
    }

    /// Renders the snapshot as JSONL, one event per line, rings in
    /// order and each ring sorted by timestamp. The output passes
    /// [`validate_flight_dump`] by construction.
    pub fn dump_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for e in self.snapshot() {
            let _ = writeln!(
                out,
                "{{\"ring\":{},\"idx\":{},\"ts_ns\":{},\"kind\":\"{}\",\
                 \"device\":{},\"a\":{},\"b\":{}}}",
                e.ring,
                e.idx,
                e.ts_ns,
                e.kind.name(),
                e.device,
                e.a,
                e.b
            );
        }
        out
    }
}

/// Summary returned by a successful [`validate_flight_dump`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlightDumpStats {
    /// Events in the dump.
    pub events: usize,
    /// Distinct rings carrying events.
    pub rings: usize,
}

/// Schema-checks a JSONL flight dump: every line must parse as a JSON
/// object with numeric `ring`/`idx`/`ts_ns`/`device`/`a`/`b` and a
/// known `kind` name, and timestamps must be nondecreasing *per ring*
/// (the monotonicity contract [`FlightRecorder::dump_jsonl`] sorts
/// into the dump).
///
/// # Errors
///
/// Returns a description of the first malformed line or ordering
/// violation. An empty dump is valid (a freshly started daemon).
pub fn validate_flight_dump(text: &str) -> Result<FlightDumpStats, String> {
    let mut last_ts: Vec<(u64, u64)> = Vec::new(); // (ring, last ts_ns)
    let mut events = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        let value: serde::Value =
            serde_json::from_str(line).map_err(|e| format!("line {n}: invalid JSON: {e}"))?;
        let field = |key: &str| -> Result<u64, String> {
            match value.get(key) {
                Some(serde::Value::UInt(v)) => Ok(*v),
                Some(serde::Value::Int(v)) if *v >= 0 => Ok(*v as u64),
                _ => Err(format!("line {n}: missing or non-numeric {key:?}")),
            }
        };
        let ring = field("ring")?;
        field("idx")?;
        let ts_ns = field("ts_ns")?;
        field("device")?;
        field("a")?;
        field("b")?;
        match value.get("kind") {
            Some(serde::Value::Str(name)) => FlightKind::from_name(name)
                .ok_or_else(|| format!("line {n}: unknown kind {name:?}"))?,
            _ => return Err(format!("line {n}: missing kind")),
        };
        match last_ts.iter_mut().find(|(r, _)| *r == ring) {
            Some((_, last)) => {
                if ts_ns < *last {
                    return Err(format!(
                        "line {n}: ring {ring} timestamp {ts_ns} goes backwards (previous {last})"
                    ));
                }
                *last = ts_ns;
            }
            None => last_ts.push((ring, ts_ns)),
        }
        events += 1;
    }
    Ok(FlightDumpStats {
        events,
        rings: last_ts.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_round_trip_codes_and_names() {
        for kind in FlightKind::ALL {
            assert_eq!(FlightKind::from_code(kind.code()), Some(kind));
            assert_eq!(FlightKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(FlightKind::from_code(999), None);
        assert_eq!(FlightKind::from_name("bogus"), None);
    }

    #[test]
    fn records_and_dumps_in_per_ring_timestamp_order() {
        let rec = FlightRecorder::new(2, 8);
        assert!(rec.enabled());
        rec.record(0, FlightKind::ConnOpen, 1, 0, 0);
        rec.record(1, FlightKind::Enqueue, 7, 1, 0);
        rec.record(0, FlightKind::RunEval, 1, 120, 4);
        let events = rec.snapshot();
        assert_eq!(events.len(), 3);
        let dump = rec.dump_jsonl();
        let stats = validate_flight_dump(&dump).expect("valid dump");
        assert_eq!(stats.events, 3);
        assert_eq!(stats.rings, 2);
        assert!(dump.contains("\"kind\":\"run_eval\""));
        assert!(dump.contains("\"device\":7"));
    }

    #[test]
    fn ring_keeps_only_the_last_capacity_events() {
        let rec = FlightRecorder::new(1, 4);
        for i in 0..10u64 {
            rec.record(0, FlightKind::RunEval, i, 0, 0);
        }
        let events = rec.snapshot();
        assert_eq!(events.len(), 4, "ring is bounded");
        let devices: Vec<u64> = events.iter().map(|e| e.device).collect();
        assert_eq!(devices, vec![6, 7, 8, 9], "oldest events overwritten");
        validate_flight_dump(&rec.dump_jsonl()).expect("wrapped ring still dumps clean");
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = FlightRecorder::new(2, 0);
        assert!(!rec.enabled());
        rec.record(0, FlightKind::ConnOpen, 1, 0, 0);
        rec.record_at(1, 5, FlightKind::Emit, 1, 0, 0);
        assert!(rec.snapshot().is_empty());
        assert_eq!(rec.dump_jsonl(), "");
        let stats = validate_flight_dump("").expect("empty dump is valid");
        assert_eq!(stats.events, 0);
    }

    #[test]
    fn concurrent_writers_never_produce_an_invalid_dump() {
        let rec = FlightRecorder::new(1, 64);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let rec = &rec;
                scope.spawn(move || {
                    for i in 0..500 {
                        rec.record(0, FlightKind::Enqueue, t, i, 0);
                    }
                });
            }
            // Dump concurrently with the writers: torn slots must be
            // skipped, never emitted malformed.
            for _ in 0..20 {
                validate_flight_dump(&rec.dump_jsonl()).expect("mid-write dump validates");
            }
        });
        let stats = validate_flight_dump(&rec.dump_jsonl()).expect("final dump validates");
        assert!(stats.events > 0 && stats.events <= 64);
    }

    #[test]
    fn validator_rejects_malformed_dumps() {
        assert!(validate_flight_dump("not json").is_err());
        assert!(validate_flight_dump("{\"ring\":0}").is_err());
        let bad_kind =
            "{\"ring\":0,\"idx\":0,\"ts_ns\":1,\"kind\":\"bogus\",\"device\":0,\"a\":0,\"b\":0}";
        assert!(validate_flight_dump(bad_kind).unwrap_err().contains("kind"));
        let backwards = "\
{\"ring\":0,\"idx\":0,\"ts_ns\":5,\"kind\":\"emit\",\"device\":0,\"a\":0,\"b\":0}
{\"ring\":0,\"idx\":1,\"ts_ns\":4,\"kind\":\"emit\",\"device\":0,\"a\":0,\"b\":0}";
        assert!(validate_flight_dump(backwards)
            .unwrap_err()
            .contains("backwards"));
        // Different rings are independent timelines.
        let cross_ring = "\
{\"ring\":0,\"idx\":0,\"ts_ns\":5,\"kind\":\"emit\",\"device\":0,\"a\":0,\"b\":0}
{\"ring\":1,\"idx\":0,\"ts_ns\":4,\"kind\":\"emit\",\"device\":0,\"a\":0,\"b\":0}";
        assert_eq!(
            validate_flight_dump(cross_ring)
                .expect("per-ring check")
                .rings,
            2
        );
    }

    #[test]
    fn now_ns_is_monotone() {
        let rec = FlightRecorder::new(1, 1);
        let a = rec.now_ns();
        let b = rec.now_ns();
        assert!(b >= a);
    }
}
