//! Trace-driven multi-process disk power-management simulator — the
//! evaluation engine behind every figure of the PCAP paper
//! reproduction.
//!
//! The pipeline mirrors §6 of the paper: application traces are
//! filtered through the Linux-like file cache
//! ([`pcap-cache`](https://docs.rs/pcap-cache)); the surviving disk
//! accesses drive per-process predictors whose standing votes are
//! combined by the Global Shutdown Predictor; shutdown decisions are
//! scored against the breakeven time and energy is integrated per the
//! Table 2 disk model.
//!
//! # Example
//!
//! ```
//! use pcap_sim::{evaluate_app, PowerManagerKind, SimConfig};
//! use pcap_workload::{AppModel, PaperApp};
//!
//! let trace = PaperApp::Nedit.spec().generate_trace(1)?;
//! let config = SimConfig::paper();
//! let pcap = evaluate_app(&trace, &config, PowerManagerKind::PCAP);
//! let tp = evaluate_app(&trace, &config, PowerManagerKind::Timeout);
//! // nedit's single long idle period per execution is what PCAP learns
//! // to cover without waiting out the 10-second timer.
//! assert!(pcap.savings() >= tp.savings());
//! # Ok::<(), pcap_trace::TraceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod engine;
pub mod factory;
pub mod journal;
pub mod metrics;
pub mod multistate;
pub mod prepared;
pub mod profile;
pub mod stream;
pub mod streams;
pub mod sweep;

pub use audit::{
    audit_prepared, records_to_jsonl, AuditCollector, AuditEnergy, AuditOutcome, DecisionObserver,
    DecisionRecord, GapEnergy, MetricsObserver, MetricsRegistry, NullObserver,
};
pub use engine::{
    evaluate_app, simulate_run_observed, AppReport, EngineScratch, GapVerdict, RunOutcome,
};
pub use factory::{Manager, PowerManagerKind};
pub use journal::{
    atomic_write, decode_cell, decode_reports, encode_reports, fleet_journal_config, run_journaled,
    sweep_fleet_journaled, Journal, JournalError,
};
pub use metrics::{EnergyBreakdown, PredictionCounts};
pub use multistate::{evaluate_prepared_multistate, LadderStats, MultiStateOutcome};
pub use prepared::{evaluate_prepared, evaluate_prepared_with, PreparedTrace};
pub use profile::WorkloadProfile;
pub use stream::{
    stream_device_report, sweep_fleet, DeviceOutcome, FleetReport, FleetSlot, ShardEvaluator,
    StreamWorker, FLEET_CHUNK,
};
pub use streams::{prepare_call_count, Lifetime, RunStreams};
pub use sweep::{SeedStat, SweepRunner};

use pcap_cache::CacheConfig;
use pcap_disk::DiskParams;
use pcap_types::SimDuration;
use serde::{Deserialize, Serialize};

/// Simulation configuration: the disk, the cache, and the predictor
/// parameters shared across managers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Disk power model (Table 2).
    pub disk: DiskParams,
    /// File-cache model (§6).
    pub cache: CacheConfig,
    /// Sliding wait-window before dynamic predictions act (§4.1.1; 1 s).
    pub wait_window: SimDuration,
    /// Backup timeout covering training periods (§4.3; 10 s).
    pub backup_timeout: SimDuration,
    /// Timeout of the plain TP predictor (§6.1; 10 s).
    pub timeout: SimDuration,
    /// PCAPh idle-period history length (§6.4.1; 6).
    pub pcap_history_len: usize,
    /// Learning-Tree history length (§6.1; 8).
    pub lt_history_len: usize,
    /// Optional LRU capacity for PCAP prediction tables (§6.4.2: "some
    /// storage limit can be imposed and an LRU replacement of old
    /// signatures can be used"). `None` = unbounded, the paper default.
    pub pcap_table_capacity: Option<usize>,
    /// Path-encoding scheme for PCAP signatures (the paper's additive
    /// encoding by default).
    pub signature_scheme: pcap_core::SignatureScheme,
}

impl SimConfig {
    /// The paper's configuration.
    pub fn paper() -> SimConfig {
        SimConfig {
            disk: DiskParams::fujitsu_mhf2043at(),
            cache: CacheConfig::paper(),
            wait_window: SimDuration::from_secs(1),
            backup_timeout: SimDuration::from_secs(10),
            timeout: SimDuration::from_secs(10),
            pcap_history_len: 6,
            lt_history_len: 8,
            pcap_table_capacity: None,
            signature_scheme: pcap_core::SignatureScheme::Additive,
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::paper()
    }
}
