//! Rendering of the decision-audit stream: `pcap audit` summary and
//! mispredict tables, `pcap explain` narrative tables reproducing the
//! paper's §6 per-application claims, and the golden-snapshot audit
//! files.
//!
//! Everything here is a deterministic function of an [`AuditOutcome`]
//! (itself a pure function of `(trace, config, manager kind)`), so the
//! rendered output can be golden-snapshotted alongside the report grid.

use crate::tables::{joules, pct1, Table};
use crate::workbench::Workbench;
use pcap_disk::Joules;
use pcap_obs::LogHistogram;
use pcap_sim::{
    audit_prepared, records_to_jsonl, AuditOutcome, DecisionRecord, GapVerdict, PowerManagerKind,
};
use pcap_types::Signature;
use std::collections::HashSet;

/// Audits one workbench application under `kind`, reusing the
/// workbench's prepared streams.
pub fn audit_app(bench: &Workbench, trace_idx: usize, kind: PowerManagerKind) -> AuditOutcome {
    audit_prepared(bench.prepared(trace_idx), bench.config(), kind)
}

/// The `pcap audit` tables: the decision/energy summary plus the
/// per-PC and per-signature mispredict aggregations (top
/// `top_misses` of each).
pub fn audit_tables(outcome: &AuditOutcome, top_misses: usize) -> Vec<Table> {
    let mut tables = vec![summary_table(outcome)];
    tables.extend(top_miss_tables(outcome, top_misses));
    tables
}

/// The `pcap explain` tables: signature behaviour, the idle-gap
/// distribution, and the per-application narrative tying the measured
/// numbers back to the paper's §6 claims.
pub fn explain_tables(outcome: &AuditOutcome) -> Vec<Table> {
    vec![
        signature_table(outcome),
        gap_distribution_table(outcome),
        narrative_table(outcome),
    ]
}

/// Aggregate counters and energy for one audited app × manager.
pub fn summary_table(outcome: &AuditOutcome) -> Table {
    let m = &outcome.metrics;
    let report = &outcome.report;
    let mut t = Table::new(
        format!("Audit summary: {} under {}", report.app, report.manager),
        &["metric", "value"],
    );
    let count = |v: u64| v.to_string();
    t.row(vec!["decisions".into(), count(m.decisions)]);
    t.row(vec!["opportunities".into(), count(m.opportunities)]);
    t.row(vec!["hits".into(), count(m.hits)]);
    t.row(vec!["misses".into(), count(m.misses)]);
    t.row(vec!["not predicted".into(), count(m.not_predicted)]);
    t.row(vec!["short gaps".into(), count(m.short)]);
    t.row(vec![
        "shutdowns (primary)".into(),
        count(m.shutdowns_primary),
    ]);
    t.row(vec!["shutdowns (backup)".into(), count(m.shutdowns_backup)]);
    t.row(vec![
        "energy delta vs always-on".into(),
        joules(Joules(m.energy_delta_j)),
    ]);
    t.row(vec!["managed energy".into(), joules(report.energy.total())]);
    t.row(vec![
        "always-on energy".into(),
        joules(report.base_energy.total()),
    ]);
    t.row(vec!["energy savings".into(), pct1(report.savings())]);
    t
}

/// One aggregation bucket of the mispredict tables.
struct MissGroup {
    misses: u64,
    not_predicted: u64,
    wasted: f64,
}

impl MissGroup {
    fn fold(&mut self, record: &DecisionRecord) {
        match record.verdict {
            GapVerdict::Miss => {
                self.misses += 1;
                // A miss costs energy: its delta is positive.
                self.wasted += record.energy_delta_j.max(0.0);
            }
            GapVerdict::NotPredicted => self.not_predicted += 1,
            _ => {}
        }
    }
}

fn top_groups<K: Ord + Copy>(
    records: &[DecisionRecord],
    key: impl Fn(&DecisionRecord) -> K,
    limit: usize,
) -> Vec<(K, MissGroup)> {
    let mut groups: Vec<(K, MissGroup)> = Vec::new();
    for record in records {
        if !matches!(record.verdict, GapVerdict::Miss | GapVerdict::NotPredicted) {
            continue;
        }
        let k = key(record);
        let group = match groups.binary_search_by_key(&k, |(gk, _)| *gk) {
            Ok(i) => &mut groups[i].1,
            Err(i) => {
                groups.insert(
                    i,
                    (
                        k,
                        MissGroup {
                            misses: 0,
                            not_predicted: 0,
                            wasted: 0.0,
                        },
                    ),
                );
                &mut groups[i].1
            }
        };
        group.fold(record);
    }
    // Most mispredictions first; ties broken by the (already unique)
    // key ascending for deterministic output.
    groups.sort_by(|(ka, a), (kb, b)| {
        (b.misses + b.not_predicted, *ka).cmp(&(a.misses + a.not_predicted, *kb))
    });
    groups.truncate(limit);
    groups
}

/// Per-PC and per-signature mispredict aggregations (misses +
/// not-predicted opportunities), worst offenders first.
pub fn top_miss_tables(outcome: &AuditOutcome, limit: usize) -> Vec<Table> {
    let app = &outcome.report.app;
    let mut by_pc = Table::new(
        format!("Top mispredicting PCs: {app}"),
        &["pc", "misses", "not predicted", "wasted energy"],
    );
    for (pc, group) in top_groups(&outcome.records, |r| r.pc, limit) {
        by_pc.row(vec![
            format!("{:#010x}", pc.0),
            group.misses.to_string(),
            group.not_predicted.to_string(),
            joules(Joules(group.wasted)),
        ]);
    }
    let mut by_sig = Table::new(
        format!("Top mispredicting signatures: {app}"),
        &["signature", "misses", "not predicted", "wasted energy"],
    );
    for (sig, group) in top_groups(&outcome.records, |r| r.signature, limit) {
        by_sig.row(vec![
            match sig {
                Some(s) => format!("{:#010x}", s.0),
                None => "(none)".into(),
            },
            group.misses.to_string(),
            group.not_predicted.to_string(),
            joules(Joules(group.wasted)),
        ]);
    }
    vec![by_pc, by_sig]
}

/// Fraction of decisions whose signature was already observed in an
/// earlier decision, and the number of distinct signatures. Low
/// recurrence is the paper's explanation for nedit: a single
/// non-repetitive process gives path correlation nothing to learn from.
pub fn signature_recurrence(records: &[DecisionRecord]) -> (f64, usize, u64, u64) {
    let mut seen: HashSet<Signature> = HashSet::new();
    let (mut with_sig, mut recurred) = (0u64, 0u64);
    for record in records {
        if let Some(sig) = record.signature {
            with_sig += 1;
            if !seen.insert(sig) {
                recurred += 1;
            }
        }
    }
    let rate = if with_sig == 0 {
        0.0
    } else {
        recurred as f64 / with_sig as f64
    };
    (rate, seen.len(), recurred, with_sig)
}

fn aliasing(outcome: &AuditOutcome) -> (u64, usize, f64) {
    let aliases = outcome.report.table_aliases.unwrap_or(0);
    let entries = outcome.report.table_entries.unwrap_or(0);
    let rate = if aliases + entries as u64 == 0 {
        0.0
    } else {
        aliases as f64 / (aliases + entries as u64) as f64
    };
    (aliases, entries, rate)
}

/// Signature-level behaviour of the audited manager: table population,
/// detected aliasing, and signature recurrence.
pub fn signature_table(outcome: &AuditOutcome) -> Table {
    let (aliases, entries, alias_rate) = aliasing(outcome);
    let (recur_rate, distinct, recurred, with_sig) = signature_recurrence(&outcome.records);
    let mut t = Table::new(
        format!("Signature behaviour: {}", outcome.report.app),
        &["metric", "value"],
    );
    t.row(vec!["table entries".into(), entries.to_string()]);
    t.row(vec!["aliases detected".into(), aliases.to_string()]);
    t.row(vec!["aliasing rate".into(), pct1(alias_rate)]);
    t.row(vec!["distinct signatures".into(), distinct.to_string()]);
    t.row(vec![
        "signature recurrence".into(),
        format!("{} ({recurred}/{with_sig})", pct1(recur_rate)),
    ]);
    t
}

fn bucket_label(index: usize) -> String {
    let (lo, hi) = LogHistogram::bucket_bounds(index);
    if index == 0 {
        "0".into()
    } else if index == 31 {
        format!("≥ {lo}")
    } else {
        format!("[{lo}, {hi})")
    }
}

/// The log₂-bucketed merged idle-gap distribution.
pub fn gap_distribution_table(outcome: &AuditOutcome) -> Table {
    let hist = &outcome.metrics.gap_histogram;
    let total = hist.total().max(1);
    let mut t = Table::new(
        format!("Idle-gap distribution: {}", outcome.report.app),
        &["gap bucket (µs)", "gaps", "share"],
    );
    for (index, &count) in hist.counts().iter().enumerate() {
        if count == 0 {
            continue;
        }
        t.row(vec![
            bucket_label(index),
            count.to_string(),
            pct1(count as f64 / total as f64),
        ]);
    }
    t
}

fn modal_bucket(hist: &LogHistogram) -> Option<(usize, u64)> {
    hist.counts()
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .max_by_key(|&(index, &count)| (count, usize::MAX - index))
        .map(|(index, &count)| (index, count))
}

/// The per-application narrative: the measured numbers restated as the
/// paper's §6 observations. The three apps §6 singles out get their
/// specific claim; every app gets the generic coverage line.
pub fn narrative_table(outcome: &AuditOutcome) -> Table {
    let m = &outcome.metrics;
    let report = &outcome.report;
    let mut t = Table::new(
        format!("Explained: {} under {}", report.app, report.manager),
        &["observation"],
    );
    t.row(vec![format!(
        "{} covered {} of {} shutdown opportunities ({} hits, {} misses, {} unpredicted) for {} savings.",
        report.manager,
        pct1(report.global.coverage()),
        m.opportunities,
        m.hits,
        m.misses,
        m.not_predicted,
        pct1(report.savings()),
    )]);
    match &*report.app {
        "mozilla" => {
            let (aliases, entries, rate) = aliasing(outcome);
            t.row(vec![format!(
                "§6.2: mozilla's many short subpaths collide on signatures — measured aliasing \
                 rate {} ({aliases} aliased learns against {entries} table entries).",
                pct1(rate),
            )]);
        }
        "nedit" => {
            let (rate, distinct, recurred, with_sig) = signature_recurrence(&outcome.records);
            t.row(vec![format!(
                "§6.2: nedit's single non-repetitive process defeats path correlation — only \
                 {} of decisions repeat an already-seen signature ({recurred}/{with_sig}, \
                 {distinct} distinct).",
                pct1(rate),
            )]);
        }
        "mplayer" => {
            if let Some((index, count)) = modal_bucket(&m.gap_histogram) {
                t.row(vec![format!(
                    "§6.2: mplayer's buffered playback drains its buffer between bursts — the \
                     modal idle gap falls in {} µs ({count} of {} gaps, {}).",
                    bucket_label(index),
                    m.decisions,
                    pct1(count as f64 / m.decisions.max(1) as f64),
                )]);
            }
        }
        _ => {}
    }
    t.row(vec![format!(
        "Power management changed gap energy by {} vs always-on across {} decisions.",
        joules(Joules(m.energy_delta_j)),
        m.decisions,
    )]);
    t
}

/// Renders tables as concatenated CSV sections with `# title` headers —
/// the same layout the experiment tables use under `golden/tables/`.
pub fn tables_to_csv(tables: &[Table]) -> String {
    let mut body = String::new();
    for (i, table) in tables.iter().enumerate() {
        if i > 0 {
            body.push('\n');
        }
        body.push_str(&format!("# {}\n", table.title));
        body.push_str(&table.to_csv());
    }
    body
}

/// How many mispredict rows the golden audit snapshot keeps per table.
pub const GOLDEN_TOP_MISSES: usize = 10;

/// The full golden audit CSV for one app: summary, signature
/// behaviour, gap distribution and the mispredict tables.
pub fn audit_snapshot_csv(outcome: &AuditOutcome) -> String {
    let mut tables = vec![
        summary_table(outcome),
        signature_table(outcome),
        gap_distribution_table(outcome),
    ];
    tables.extend(top_miss_tables(outcome, GOLDEN_TOP_MISSES));
    tables_to_csv(&tables)
}

/// The golden decision log: every non-`Short` decision as JSONL.
/// `Short` gaps are filtered because they carry no counter effect and
/// an exactly-zero energy delta, and would dominate the file (see
/// DESIGN.md §8).
pub fn golden_jsonl(outcome: &AuditOutcome) -> String {
    let kept: Vec<DecisionRecord> = outcome
        .records
        .iter()
        .filter(|r| r.verdict != GapVerdict::Short)
        .copied()
        .collect();
    records_to_jsonl(&kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcap_sim::SimConfig;
    use pcap_trace::{ApplicationTrace, TraceRunBuilder};
    use pcap_types::{Fd, FileId, IoKind, Pc, Pid, SimTime};

    fn bench_named(app: &str) -> Workbench {
        let mut trace = ApplicationTrace::new(app);
        for r in 0..3u64 {
            let mut b = TraceRunBuilder::new(Pid(1));
            for i in 0..3u32 {
                b.io(
                    SimTime::from_millis(1000 + r * 50 + u64::from(i) * 200),
                    Pid(1),
                    Pc(0x100 + i),
                    IoKind::Read,
                    Fd(3),
                    FileId(1),
                    u64::from(i) * 4096,
                    4096,
                );
            }
            b.exit(SimTime::from_secs(40 + r), Pid(1));
            trace.runs.push(b.finish().unwrap());
        }
        Workbench::from_traces_seeded(42, vec![trace], SimConfig::paper())
    }

    #[test]
    fn audit_tables_are_consistent_with_report() {
        let bench = bench_named("tiny");
        let outcome = audit_app(&bench, 0, PowerManagerKind::PCAP);
        assert_eq!(outcome.report, bench.report(0, PowerManagerKind::PCAP));
        let tables = audit_tables(&outcome, 5);
        assert_eq!(tables.len(), 3);
        let summary = tables[0].render();
        assert!(summary.contains("decisions"));
        assert!(summary.contains(&outcome.metrics.decisions.to_string()));
        // Each mispredict table respects the row bound.
        assert!(tables[1].rows.len() <= 5);
        assert!(tables[2].rows.len() <= 5);
    }

    #[test]
    fn explain_narrative_names_the_section_six_apps() {
        for app in ["mozilla", "nedit", "mplayer", "writer"] {
            let bench = bench_named(app);
            let outcome = audit_app(&bench, 0, PowerManagerKind::PCAP);
            let narrative = narrative_table(&outcome).render();
            if app == "writer" {
                assert!(!narrative.contains("§6.2"), "{narrative}");
            } else {
                assert!(narrative.contains("§6.2"), "{narrative}");
            }
        }
    }

    #[test]
    fn snapshot_csv_and_jsonl_are_deterministic() {
        let a = audit_app(&bench_named("tiny"), 0, PowerManagerKind::PCAP);
        let b = audit_app(&bench_named("tiny"), 0, PowerManagerKind::PCAP);
        assert_eq!(audit_snapshot_csv(&a), audit_snapshot_csv(&b));
        assert_eq!(golden_jsonl(&a), golden_jsonl(&b));
        // The golden log filters Short decisions.
        assert!(!golden_jsonl(&a).contains("\"verdict\":\"Short\""));
        assert!(audit_snapshot_csv(&a).starts_with("# Audit summary"));
    }

    #[test]
    fn signature_recurrence_counts_repeats() {
        let bench = bench_named("tiny");
        let outcome = audit_app(&bench, 0, PowerManagerKind::PCAP);
        let (rate, distinct, recurred, with_sig) = signature_recurrence(&outcome.records);
        assert_eq!(recurred + distinct as u64, with_sig);
        assert!((0.0..=1.0).contains(&rate));
        // Three identical runs: the same paths recur.
        assert!(recurred > 0, "identical runs must repeat signatures");
    }
}
