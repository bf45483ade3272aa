//! Experiment harness regenerating every table and figure of the PCAP
//! paper's evaluation (§6) from the synthetic workload suite.
//!
//! # Example
//!
//! ```no_run
//! use pcap_report::{Experiment, Workbench};
//! use pcap_sim::SimConfig;
//!
//! let bench = Workbench::generate(42, SimConfig::paper())?;
//! for table in Experiment::Fig7.run(&bench) {
//!     println!("{table}");
//! }
//! # Ok::<(), pcap_trace::TraceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod chart;
pub mod experiments;
pub mod paper;
pub mod profiling;
pub mod snapshot;
pub mod sweep;
pub mod tables;
pub mod workbench;

pub use audit::{audit_app, audit_tables, explain_tables};
pub use chart::{figure_chart, Figure};
pub use experiments::Experiment;
pub use profiling::{profile_pipeline, ProfileSummary};
pub use snapshot::{
    snapshot_files, snapshot_files_observed, verify_snapshot, write_snapshot, Drift, GOLDEN_SEED,
};
pub use sweep::{
    fleet_table, run_sweep, run_sweep_journaled, sweep_journal_config, sweep_table,
    sweep_table_from_reports, SWEEP_KINDS,
};
pub use tables::Table;
pub use workbench::{Workbench, GRID_KINDS};
