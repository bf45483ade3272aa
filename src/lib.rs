//! Umbrella crate for the PCAP dynamic-power-management reproduction.
//!
//! Re-exports every workspace crate under a short alias so examples and
//! downstream users can depend on a single crate:
//!
//! ```
//! use pcap_dpm::prelude::*;
//! let params = DiskParams::fujitsu_mhf2043at();
//! assert!(params.breakeven_time().as_secs_f64() > 5.0);
//! ```

pub use pcap_baselines as baselines;
pub use pcap_cache as cache;
pub use pcap_capture as capture;
pub use pcap_core as core;
pub use pcap_disk as disk;
pub use pcap_obs as obs;
pub use pcap_report as report;
pub use pcap_serve as serve;
pub use pcap_sim as sim;
pub use pcap_trace as trace;
pub use pcap_types as types;
pub use pcap_workload as workload;

/// Commonly used items, re-exported flat.
pub mod prelude {
    pub use pcap_baselines::{LearningTree, Oracle, TimeoutPredictor};
    pub use pcap_core::{GlobalPredictor, IdlePredictor, Pcap, PcapConfig, PcapVariant};
    pub use pcap_disk::{DiskParams, DiskSim};
    pub use pcap_report::{Experiment, Workbench};
    pub use pcap_sim::{evaluate_app, AppReport, PowerManagerKind, SimConfig, WorkloadProfile};
    pub use pcap_trace::ApplicationTrace;
    pub use pcap_types::{Fd, FileId, IoKind, Pc, Pid, Signature, SimDuration, SimTime};
    pub use pcap_workload::{paper_suite, AppModel, PaperApp};
}
