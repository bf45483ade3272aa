//! Pins the generated traces byte for byte.
//!
//! The golden snapshot and `tests/pipeline.rs` pin generation only
//! through what it feeds (reports, cache counters). Here an FNV-1a
//! digest folds each run's root, its end and the wire bytes
//! ([`put_event`]) of every event, so any change to a generated fd,
//! file id, offset, PC, time or event order fails with the digest it
//! produced instead of surfacing as a drifted report.
//!
//! Two populations are covered at the golden seed 42 and the held-out
//! seed 7: the six apps' full Table 1 traces, and run 0 of fleet
//! devices `0..64` (cohorts 0–10, so the jittered per-device seeds
//! too).

use pcap_dpm::prelude::*;
use pcap_dpm::types::wire::put_event;
use pcap_dpm::workload::DevicePopulation;
use pcap_trace::TraceRun;

/// 64-bit FNV-1a, fed incrementally.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn run(&mut self, run: &TraceRun, buf: &mut Vec<u8>) {
        self.bytes(&run.root.0.to_le_bytes());
        self.bytes(&run.end.as_micros().to_le_bytes());
        for event in &run.events {
            buf.clear();
            put_event(buf, event);
            self.bytes(buf);
        }
    }
}

/// Per seed, the digest of each app's full trace in `PaperApp::ALL`
/// order.
const APP_DIGESTS: [(u64, [u64; 6]); 2] = [
    (
        42,
        [
            0x867d_3da6_fd7d_36bc,
            0xc6f4_5751_f068_0104,
            0xccf2_9cb7_11d4_a2c5,
            0x8c55_f2f3_d192_0b02,
            0xc8c0_cd79_dfd8_29cc,
            0x652f_f90f_0b05_ff50,
        ],
    ),
    (
        7,
        [
            0x20fa_f370_51cc_4ddd,
            0x4c4e_f831_4540_587a,
            0xab89_c920_5c6e_3995,
            0x83c6_69b0_7787_c84b,
            0x43dc_9841_033b_b75b,
            0x3146_bb27_722c_a52b,
        ],
    ),
];

/// Per seed, the digest of run 0 of fleet devices `0..FLEET_DEVICES`.
const FLEET_DIGESTS: [(u64, u64); 2] = [(42, 0x519e_9732_1d48_0d96), (7, 0x77fe_a9df_ec97_cca5)];

const FLEET_DEVICES: u64 = 64;

#[test]
fn six_app_traces_are_pinned_byte_for_byte() {
    let mut buf = Vec::new();
    for (seed, want) in APP_DIGESTS {
        let got = PaperApp::ALL.map(|app| {
            let trace = app.spec().generate_trace(seed).expect("valid spec");
            let mut hash = Fnv::new();
            for run in &trace.runs {
                hash.run(run, &mut buf);
            }
            hash.0
        });
        assert_eq!(
            got.map(|d| format!("{d:#018x}")),
            want.map(|d| format!("{d:#018x}")),
            "seed {seed}: generated app traces drifted"
        );
    }
}

#[test]
fn fleet_device_runs_are_pinned_byte_for_byte() {
    let mut buf = Vec::new();
    for (seed, want) in FLEET_DIGESTS {
        let pop = DevicePopulation::new(FLEET_DEVICES, seed);
        let mut hash = Fnv::new();
        for device in 0..FLEET_DEVICES {
            let run = pop.generate_run(device, 0).expect("valid spec");
            hash.run(&run, &mut buf);
        }
        assert_eq!(
            format!("{:#018x}", hash.0),
            format!("{want:#018x}"),
            "seed {seed}: generated fleet runs drifted"
        );
    }
}
