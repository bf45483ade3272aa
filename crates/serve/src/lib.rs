//! `pcap-serve`: the online sharded power-management daemon and its
//! replay load client (DESIGN.md §13).
//!
//! The offline pipeline evaluates recorded traces; this crate flips it
//! inside-out into a long-running service. Clients stream
//! length-prefixed binary event frames over TCP or Unix-domain
//! sockets; frames are hash-routed by device id to shard-per-core
//! worker threads (no cross-shard locks, bounded queues whose
//! blocking sends are the backpressure contract); each shard owns a
//! recycled [`pcap_sim::ShardEvaluator`] plus one
//! [`pcap_sim::Manager`] per live device and hands shutdown/spin-up
//! decision frames, encoded into one of its few reply buffers, to the
//! connection's writer thread as runs complete. The decision stream is
//! byte-identical to the offline audit stream
//! (`tests/serve_parity.rs`), and live counters are scrapeable as
//! Prometheus text over HTTP (`/metrics`) with sampled decision-audit
//! records at `/audit`.
//!
//! Production observability (DESIGN.md §15): a lock-free
//! [`pcap_obs::FlightRecorder`] keeps the last few thousand structured
//! events per shard (dumpable via `/debug/flight`, `SIGUSR1`, or on
//! panic — see `pcap serve`), per-shard stage-latency histograms
//! decompose decision latency into decode → queue-wait → evaluate →
//! encode → write on `/metrics` (both on by default, switched together by
//! [`ServeConfig::instrumented`]), and bad-frame storms surface as
//! rate-limited `pcap_obs::log` warnings.
//!
//! # Example
//!
//! ```no_run
//! use pcap_serve::{start, Endpoint, LoadOptions, run_load, ServeConfig};
//! use pcap_workload::{DevicePopulation, ReplayOrder, ReplayPlan};
//!
//! let handle = start(
//!     ServeConfig::default(),
//!     &[Endpoint::Uds("/tmp/pcap.sock".into())],
//!     None,
//! )?;
//! let plan = ReplayPlan::new(
//!     DevicePopulation::new(6, 42),
//!     Some(1),
//!     ReplayOrder::Interleaved,
//! );
//! let report = run_load(
//!     &Endpoint::Uds("/tmp/pcap.sock".into()),
//!     &plan,
//!     &LoadOptions::default(),
//! )?;
//! println!("{:.0} decisions/s", report.decisions_per_s);
//! handle.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod frame;
pub mod metrics;
mod net;
pub mod server;

pub use client::{run_load, LoadError, LoadOptions, LoadReport};
pub use frame::{
    decode_client, decode_server, encode_client, encode_server, get_record, put_record,
    ClientFrame, ServerFrame, PROTOCOL_VERSION,
};
pub use metrics::{ServeMetrics, ShardStats};
pub use server::{shard_of, start, Endpoint, ServeConfig, ServerHandle};
