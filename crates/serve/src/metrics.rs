//! Live server metrics: lock-free counters shared by every connection
//! and shard thread, rendered on demand through [`PromWriter`] as
//! Prometheus text exposition (the `/metrics` scrape), plus a sampled
//! ring of full decision-audit records (the `/audit` endpoint).
//!
//! Everything on the decision hot path is a relaxed atomic add; the
//! only lock is around the audit sample ring, taken once every
//! `sample_every` decisions. Rendering reads whatever values are
//! current — scrapes are monotone per counter but not a consistent
//! snapshot across counters, the standard Prometheus contract.

use pcap_obs::{AtomicHistogram, MetricKind, PromWriter};
use pcap_sim::{DecisionRecord, GapVerdict};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Per-shard queue and throughput counters, plus the stage-latency
/// attribution histograms (DESIGN.md §15): the end-to-end decision
/// latency decomposed into decode → queue-wait → evaluate → encode so
/// queueing delay is distinguishable from compute in a scrape.
#[derive(Debug, Default)]
pub struct ShardStats {
    /// Messages enqueued to the shard (incremented by readers before
    /// the bounded send, so `enqueued - processed` ≥ live depth).
    pub enqueued: AtomicU64,
    /// Messages the shard worker finished processing.
    pub processed: AtomicU64,
    /// Runs the shard evaluated.
    pub runs: AtomicU64,
    /// Microseconds the shard spent evaluating runs (utilization).
    pub busy_us: AtomicU64,
    /// Sampled wire-frame decode latency (ns; recorded by the reader
    /// thread for frames routed to this shard).
    pub decode_ns: AtomicHistogram,
    /// Time a run-completing message waited in the shard queue (µs).
    pub queue_wait_us: AtomicHistogram,
    /// Run evaluation latency (µs).
    pub eval_us: AtomicHistogram,
    /// Decision-frame encode latency per run (µs).
    pub encode_us: AtomicHistogram,
}

impl ShardStats {
    /// Messages currently queued or in flight for the shard.
    pub fn depth(&self) -> u64 {
        self.enqueued
            .load(Ordering::Acquire)
            .saturating_sub(self.processed.load(Ordering::Acquire))
    }
}

/// All counters of one running server, shared via `Arc`.
#[derive(Debug)]
pub struct ServeMetrics {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Connections closed (cleanly or by error).
    pub disconnects: AtomicU64,
    /// Well-formed frames decoded.
    pub frames: AtomicU64,
    /// Malformed frames (truncated, oversized length prefix, unknown
    /// tag, or a mid-frame EOF).
    pub bad_frames: AtomicU64,
    /// Frames that were well-formed but arrived in an invalid protocol
    /// state (e.g. an `Event` with no open run) and were dropped.
    pub stray_frames: AtomicU64,
    /// Trace events accepted into open runs.
    pub events: AtomicU64,
    /// Runs evaluated.
    pub runs: AtomicU64,
    /// Runs rejected by trace validation.
    pub run_rejects: AtomicU64,
    /// Device sessions currently live (gauge).
    pub devices_active: AtomicU64,
    /// Decisions emitted.
    pub decisions: AtomicU64,
    /// Decisions with verdict `Hit`.
    pub hits: AtomicU64,
    /// Decisions with verdict `Miss`.
    pub misses: AtomicU64,
    /// Decisions with verdict `NotPredicted`.
    pub not_predicted: AtomicU64,
    /// Decisions with verdict `Short`.
    pub short: AtomicU64,
    /// Merged idle-gap length distribution (µs).
    pub gap_us: AtomicHistogram,
    /// Server-side run evaluation latency distribution (µs).
    pub run_eval_us: AtomicHistogram,
    /// Per-shard stats, indexed by shard.
    pub shards: Vec<ShardStats>,
    started: Instant,
    sample_every: u64,
    samples: Mutex<VecDeque<DecisionRecord>>,
}

/// Capacity of the audit sample ring behind `/audit`.
const SAMPLE_CAPACITY: usize = 256;

impl ServeMetrics {
    /// Metrics for `shards` shard workers, keeping one audit sample per
    /// `sample_every` decisions in a ring of the latest 256 records
    /// (`sample_every == 0` disables sampling).
    pub fn new(shards: usize, sample_every: u64) -> ServeMetrics {
        ServeMetrics {
            connections: AtomicU64::new(0),
            disconnects: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            bad_frames: AtomicU64::new(0),
            stray_frames: AtomicU64::new(0),
            events: AtomicU64::new(0),
            runs: AtomicU64::new(0),
            run_rejects: AtomicU64::new(0),
            devices_active: AtomicU64::new(0),
            decisions: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            not_predicted: AtomicU64::new(0),
            short: AtomicU64::new(0),
            gap_us: AtomicHistogram::default(),
            run_eval_us: AtomicHistogram::default(),
            shards: (0..shards).map(|_| ShardStats::default()).collect(),
            started: Instant::now(),
            sample_every,
            samples: Mutex::new(VecDeque::new()),
        }
    }

    /// Folds one decision into the counters, histograms, and (every
    /// `sample_every`-th decision) the audit sample ring.
    pub fn observe_decision(&self, record: &DecisionRecord) {
        let n = self.decisions.fetch_add(1, Ordering::Relaxed) + 1;
        match record.verdict {
            GapVerdict::Hit => &self.hits,
            GapVerdict::Miss => &self.misses,
            GapVerdict::NotPredicted => &self.not_predicted,
            GapVerdict::Short => &self.short,
        }
        .fetch_add(1, Ordering::Relaxed);
        self.gap_us.record(record.global_gap.as_micros());
        if self.sample_every > 0 && n.is_multiple_of(self.sample_every) {
            let mut ring = self.samples.lock().expect("sample ring poisoned");
            if ring.len() == SAMPLE_CAPACITY {
                ring.pop_front();
            }
            ring.push_back(*record);
        }
    }

    /// The current audit sample ring, oldest first.
    pub fn sampled_records(&self) -> Vec<DecisionRecord> {
        self.samples
            .lock()
            .expect("sample ring poisoned")
            .iter()
            .copied()
            .collect()
    }

    /// Total queue depth across all shards.
    pub fn total_depth(&self) -> u64 {
        self.shards.iter().map(ShardStats::depth).sum()
    }

    /// Seconds since these metrics (and hence the server) started.
    pub fn uptime_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Renders all metrics in Prometheus text exposition format
    /// (version 0.0.4) with `# HELP`/`# TYPE` metadata on every
    /// family; held to [`pcap_obs::validate_prometheus_strict`] in
    /// tests and CI.
    pub fn render_prometheus(&self) -> String {
        let mut out = PromWriter::new();
        out.family(
            "pcap_build_info",
            MetricKind::Gauge,
            "Build metadata of the running daemon.",
        )
        .sample(
            "pcap_build_info",
            &[("version", env!("CARGO_PKG_VERSION"))],
            1,
        )
        .family(
            "pcap_uptime_seconds",
            MetricKind::Gauge,
            "Seconds since the daemon started.",
        )
        .sample(
            "pcap_uptime_seconds",
            &[],
            format_args!("{:.3}", self.uptime_seconds()),
        );
        let counters: [(&str, &str, &AtomicU64); 13] = [
            ("connections", "Connections accepted.", &self.connections),
            ("disconnects", "Connections closed.", &self.disconnects),
            ("frames", "Well-formed frames decoded.", &self.frames),
            (
                "bad_frames",
                "Malformed frames (truncated, oversized, or unknown tag).",
                &self.bad_frames,
            ),
            (
                "stray_frames",
                "Well-formed frames dropped in an invalid protocol state.",
                &self.stray_frames,
            ),
            (
                "events",
                "Trace events accepted into open runs.",
                &self.events,
            ),
            ("runs", "Runs evaluated.", &self.runs),
            (
                "run_rejects",
                "Runs rejected by trace validation.",
                &self.run_rejects,
            ),
            ("decisions", "Decisions emitted.", &self.decisions),
            ("decisions_hit", "Decisions with verdict Hit.", &self.hits),
            (
                "decisions_miss",
                "Decisions with verdict Miss.",
                &self.misses,
            ),
            (
                "decisions_not_predicted",
                "Decisions with verdict NotPredicted.",
                &self.not_predicted,
            ),
            (
                "decisions_short",
                "Decisions with verdict Short.",
                &self.short,
            ),
        ];
        for (name, help, value) in counters {
            let metric = format!("pcap_serve_{name}_total");
            out.family(&metric, MetricKind::Counter, help).sample(
                &metric,
                &[],
                value.load(Ordering::Relaxed),
            );
        }
        out.family(
            "pcap_serve_devices_active",
            MetricKind::Gauge,
            "Device sessions currently live.",
        )
        .sample(
            "pcap_serve_devices_active",
            &[],
            self.devices_active.load(Ordering::Relaxed),
        );
        if !self.shards.is_empty() {
            let shard_ids: Vec<String> = (0..self.shards.len()).map(|i| i.to_string()).collect();
            let labelled = || {
                shard_ids
                    .iter()
                    .zip(&self.shards)
                    .map(|(id, shard)| ([("shard", id.as_str())], shard))
            };
            #[allow(clippy::type_complexity)]
            let gauges: [(&str, MetricKind, &str, fn(&ShardStats) -> u64); 4] = [
                (
                    "pcap_serve_shard_depth",
                    MetricKind::Gauge,
                    "Messages queued or in flight for the shard.",
                    ShardStats::depth,
                ),
                (
                    "pcap_serve_shard_processed_total",
                    MetricKind::Counter,
                    "Messages the shard worker finished processing.",
                    |s| s.processed.load(Ordering::Relaxed),
                ),
                (
                    "pcap_serve_shard_runs_total",
                    MetricKind::Counter,
                    "Runs the shard evaluated.",
                    |s| s.runs.load(Ordering::Relaxed),
                ),
                (
                    "pcap_serve_shard_busy_us_total",
                    MetricKind::Counter,
                    "Microseconds the shard spent in evaluate + encode.",
                    |s| s.busy_us.load(Ordering::Relaxed),
                ),
            ];
            for (name, kind, help, read) in gauges {
                out.family(name, kind, help);
                for (labels, shard) in labelled() {
                    out.sample(name, &labels, read(shard));
                }
            }
            #[allow(clippy::type_complexity)]
            let stages: [(&str, &str, fn(&ShardStats) -> &AtomicHistogram); 4] = [
                (
                    "pcap_serve_stage_decode_ns",
                    "Sampled wire-frame decode latency per shard (ns).",
                    |s| &s.decode_ns,
                ),
                (
                    "pcap_serve_stage_queue_wait_us",
                    "Shard-queue wait of run-completing messages (us).",
                    |s| &s.queue_wait_us,
                ),
                (
                    "pcap_serve_stage_eval_us",
                    "Run evaluation latency per shard (us).",
                    |s| &s.eval_us,
                ),
                (
                    "pcap_serve_stage_encode_us",
                    "Decision-frame encode latency per run per shard (us).",
                    |s| &s.encode_us,
                ),
            ];
            for (name, help, pick) in stages {
                out.family(name, MetricKind::Histogram, help);
                for (labels, shard) in labelled() {
                    let (histogram, sum) = pick(shard).snapshot();
                    out.histogram_series(name, &labels, &histogram, sum);
                }
            }
        }
        for (name, help, histogram) in [
            (
                "pcap_serve_gap_us",
                "Merged idle-gap length distribution (us).",
                &self.gap_us,
            ),
            (
                "pcap_serve_run_eval_us",
                "Server-side run evaluation latency (us).",
                &self.run_eval_us,
            ),
        ] {
            let (histogram, sum) = histogram.snapshot();
            out.family(name, MetricKind::Histogram, help)
                .histogram_series(name, &[], &histogram, sum);
        }
        out.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcap_core::VoteSource;
    use pcap_types::{Pc, Pid, Signature, SimDuration, SimTime};

    fn record(verdict: GapVerdict, gap_us: u64) -> DecisionRecord {
        DecisionRecord {
            run: 0,
            access: 0,
            at: SimTime::from_secs(1),
            pid: Pid(1),
            pc: Pc(0x10),
            signature: Some(Signature(0x10)),
            table_len: Some(2),
            vote_delay: Some(SimDuration::from_secs(1)),
            vote_source: Some(VoteSource::Primary),
            local_gap: SimDuration(gap_us),
            local_verdict: verdict,
            global_gap: SimDuration(gap_us),
            shutdown_at: None,
            shutdown_source: None,
            verdict,
            energy_delta_j: 0.0,
        }
    }

    #[test]
    fn rendered_exposition_validates_strictly() {
        let m = ServeMetrics::new(3, 1);
        m.connections.fetch_add(2, Ordering::Relaxed);
        m.shards[0].enqueued.fetch_add(5, Ordering::Relaxed);
        m.shards[0].processed.fetch_add(3, Ordering::Relaxed);
        m.observe_decision(&record(GapVerdict::Hit, 20_000_000));
        m.observe_decision(&record(GapVerdict::Short, 5));
        m.run_eval_us.record(130);
        m.shards[1].decode_ns.record(800);
        m.shards[1].queue_wait_us.record(12);
        m.shards[1].eval_us.record(130);
        m.shards[1].encode_us.record(3);
        let text = m.render_prometheus();
        let samples =
            pcap_obs::validate_prometheus_strict(&text).expect("strictly valid exposition");
        assert!(samples > 50, "counters + shard series + histograms");
        assert!(text.contains("pcap_build_info{version=\""));
        assert!(text.contains("# TYPE pcap_uptime_seconds gauge"));
        assert!(text.contains("pcap_serve_decisions_total 2"));
        assert!(text.contains("pcap_serve_decisions_hit_total 1"));
        assert!(text.contains("pcap_serve_shard_depth{shard=\"0\"} 2"));
        assert!(text.contains("pcap_serve_gap_us_count 2"));
        assert!(text.contains("pcap_serve_bad_frames_total 0"));
        assert!(text.contains("pcap_serve_stage_queue_wait_us_count{shard=\"1\"} 1"));
        assert!(text.contains("pcap_serve_stage_decode_ns_sum{shard=\"1\"} 800"));
        // One metadata pair covers all per-shard instances of a stage
        // family.
        assert_eq!(text.matches("# TYPE pcap_serve_stage_eval_us ").count(), 1);
    }

    #[test]
    fn uptime_is_monotone_and_rendered() {
        let m = ServeMetrics::new(1, 0);
        let a = m.uptime_seconds();
        let b = m.uptime_seconds();
        assert!(b >= a && a >= 0.0);
        assert!(m.render_prometheus().contains("pcap_uptime_seconds "));
    }

    #[test]
    fn sampling_keeps_a_bounded_ring() {
        let m = ServeMetrics::new(1, 2);
        for i in 0..600 {
            m.observe_decision(&record(GapVerdict::Hit, i));
        }
        let samples = m.sampled_records();
        assert_eq!(samples.len(), SAMPLE_CAPACITY, "ring is capacity-bounded");
        // Every 2nd decision is sampled; the ring holds the last 256:
        // decisions 89, 91, …, 599.
        assert_eq!(
            samples
                .iter()
                .map(|r| r.global_gap.as_micros())
                .collect::<Vec<_>>(),
            (89..600).step_by(2).collect::<Vec<_>>()
        );
        // sample_every = 0 disables sampling.
        let off = ServeMetrics::new(1, 0);
        off.observe_decision(&record(GapVerdict::Hit, 1));
        assert!(off.sampled_records().is_empty());
    }

    #[test]
    fn shard_depth_is_enqueued_minus_processed() {
        let s = ShardStats::default();
        s.enqueued.fetch_add(7, Ordering::Relaxed);
        s.processed.fetch_add(7, Ordering::Relaxed);
        assert_eq!(s.depth(), 0);
        s.enqueued.fetch_add(2, Ordering::Relaxed);
        assert_eq!(s.depth(), 2);
    }
}
