//! Golden-report regression snapshots.
//!
//! `pcap verify` serializes every [`AppReport`](pcap_sim::AppReport)
//! of the full `app × manager` grid and every experiment table at the
//! pinned [`GOLDEN_SEED`], then compares the result byte-for-byte
//! against the committed `golden/` directory. Any drift — a changed
//! number, a missing file, an extra file — is a regression (or an
//! intentional change that must be re-blessed with
//! `pcap verify --update`).
//!
//! The zero-tolerance comparison is only possible because the whole
//! pipeline is deterministic: traces are pure functions of
//! `(app, seed)`, the simulator is a pure function of
//! `(trace, config, kind)`, floats are serialized via Rust's
//! shortest-roundtrip formatting, and map keys are sorted.

use crate::audit::{audit_app, audit_snapshot_csv, golden_jsonl, tables_to_csv};
use crate::experiments::Experiment;
use crate::workbench::{Workbench, GRID_KINDS};
use pcap_obs::{NullPipeline, PipelineObserver};
use pcap_sim::PowerManagerKind;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// The seed the committed golden snapshot is generated with.
pub const GOLDEN_SEED: u64 = 42;

/// One divergence between the live snapshot and the golden directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Drift {
    /// The golden directory lacks a file the current build produces.
    Missing(String),
    /// The golden directory has a file the current build no longer
    /// produces.
    Unexpected(String),
    /// A file exists in both but the contents differ.
    Changed {
        /// Relative path of the drifted file.
        file: String,
        /// First differing line (1-based).
        line: usize,
        /// That line in the golden file (empty if past its end).
        expected: String,
        /// That line as currently produced (empty if past the end).
        actual: String,
    },
}

impl fmt::Display for Drift {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Drift::Missing(file) => write!(f, "{file}: missing from golden (new output file?)"),
            Drift::Unexpected(file) => write!(f, "{file}: golden file no longer produced"),
            Drift::Changed {
                file,
                line,
                expected,
                actual,
            } => write!(f, "{file}:{line}: golden {expected:?}, got {actual:?}"),
        }
    }
}

/// Renders the full snapshot for `bench` as `(relative path, contents)`
/// pairs in canonical order: per-app per-manager report JSON under
/// `reports/`, then per-experiment CSV under `tables/`.
pub fn snapshot_files(bench: &Workbench) -> Vec<(String, String)> {
    snapshot_files_observed(bench, &NullPipeline)
}

/// Renders one snapshot file inside a `render:{path}` span, counting
/// it on the `files_rendered` counter. Compiles down to the bare
/// closure call when the observer is disabled.
fn render_file<P, F>(pipeline: &P, path: String, body: F) -> (String, String)
where
    P: PipelineObserver,
    F: FnOnce() -> String,
{
    if P::ENABLED {
        let name = format!("render:{path}");
        pipeline.span_begin(&name);
        let contents = body();
        pipeline.span_end(&name);
        pipeline.counter_add("files_rendered", 1);
        return (path, contents);
    }
    (path, body())
}

/// [`snapshot_files`] with a [`PipelineObserver`] attached: every
/// rendered file gets a `render:{path}` span (report serialization,
/// experiment tables, audit logs), so `pcap profile` attributes report
/// time per artifact.
pub fn snapshot_files_observed<P: PipelineObserver>(
    bench: &Workbench,
    pipeline: &P,
) -> Vec<(String, String)> {
    let mut files = Vec::new();
    for (trace_idx, trace) in bench.traces().iter().enumerate() {
        for kind in GRID_KINDS {
            files.push(render_file(
                pipeline,
                format!("reports/{}.{}.json", slug(&trace.app), slug(&kind.label())),
                || {
                    let report = bench.report(trace_idx, kind);
                    let mut body =
                        serde_json::to_string_pretty(&report).expect("reports always serialize");
                    body.push('\n');
                    body
                },
            ));
        }
    }
    for experiment in Experiment::ALL {
        files.push(render_file(
            pipeline,
            format!("tables/{}.csv", experiment.name()),
            || tables_to_csv(&experiment.run(bench)),
        ));
    }
    // Decision-audit section: per-app audit CSV under the base PCAP
    // manager, plus the full (Short-filtered) decision log for nedit —
    // the one app small enough to keep line-by-line (DESIGN.md §8).
    for (trace_idx, trace) in bench.traces().iter().enumerate() {
        let outcome = audit_app(bench, trace_idx, PowerManagerKind::PCAP);
        files.push(render_file(
            pipeline,
            format!("audit/{}.csv", slug(&trace.app)),
            || audit_snapshot_csv(&outcome),
        ));
        if &*trace.app == "nedit" {
            files.push(render_file(
                pipeline,
                "audit/nedit.jsonl".to_owned(),
                || golden_jsonl(&outcome),
            ));
        }
    }
    files
}

/// Writes (or re-blesses) the golden snapshot, replacing the
/// `reports/`, `tables/` and `audit/` subdirectories wholesale so
/// deleted cells cannot linger.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn write_snapshot(bench: &Workbench, dir: &Path) -> io::Result<()> {
    for sub in ["reports", "tables", "audit"] {
        let sub = dir.join(sub);
        if sub.exists() {
            fs::remove_dir_all(&sub)?;
        }
        fs::create_dir_all(&sub)?;
    }
    for (rel, contents) in snapshot_files(bench) {
        // Atomic per-file commit (temp + rename): a crash mid-bless
        // leaves each golden file either old or new, never truncated.
        pcap_sim::atomic_write(dir.join(rel), contents.as_bytes())?;
    }
    Ok(())
}

/// What [`verify_snapshot`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotCheck {
    /// Files in the live snapshot.
    pub files: usize,
    /// Every divergence from the golden directory (empty = pass).
    pub drifts: Vec<Drift>,
}

/// Renders the live snapshot for `bench` once and compares it against
/// the golden directory, byte-for-byte.
///
/// # Errors
///
/// Propagates filesystem failures other than "golden file absent"
/// (which is reported as [`Drift::Missing`]).
pub fn verify_snapshot(bench: &Workbench, dir: &Path) -> io::Result<SnapshotCheck> {
    let mut drifts = Vec::new();
    let expected = snapshot_files(bench);
    for (rel, actual) in &expected {
        match fs::read_to_string(dir.join(rel)) {
            Ok(golden) => {
                if golden != *actual {
                    drifts.push(first_divergence(rel, &golden, actual));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                drifts.push(Drift::Missing(rel.clone()));
            }
            Err(e) => return Err(e),
        }
    }
    // Stale golden files: on disk but no longer produced.
    for sub in ["reports", "tables", "audit"] {
        let sub_dir = dir.join(sub);
        if !sub_dir.is_dir() {
            continue;
        }
        let mut names: Vec<String> = fs::read_dir(&sub_dir)?
            .filter_map(Result::ok)
            .filter_map(|entry| entry.file_name().into_string().ok())
            .map(|name| format!("{sub}/{name}"))
            .collect();
        names.sort();
        for name in names {
            if !expected.iter().any(|(rel, _)| *rel == name) {
                drifts.push(Drift::Unexpected(name));
            }
        }
    }
    Ok(SnapshotCheck {
        files: expected.len(),
        drifts,
    })
}

fn first_divergence(rel: &str, golden: &str, actual: &str) -> Drift {
    let mut golden_lines = golden.lines();
    let mut actual_lines = actual.lines();
    let mut line = 0;
    loop {
        line += 1;
        match (golden_lines.next(), actual_lines.next()) {
            (Some(g), Some(a)) if g == a => continue,
            (g, a) => {
                return Drift::Changed {
                    file: rel.to_owned(),
                    line,
                    expected: g.unwrap_or_default().to_owned(),
                    actual: a.unwrap_or_default().to_owned(),
                }
            }
        }
    }
}

/// Lowercases a label and maps every non-alphanumeric run to a single
/// `-` so manager labels like "PCAP-fh+r" become stable file names.
fn slug(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('-') {
            out.push('-');
        }
    }
    out.trim_matches('-').to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcap_sim::SimConfig;
    use pcap_trace::{ApplicationTrace, TraceRunBuilder};
    use pcap_types::{Fd, FileId, IoKind, Pc, Pid, SimTime};

    fn tiny_bench() -> Workbench {
        let mut trace = ApplicationTrace::new("tiny");
        let mut b = TraceRunBuilder::new(Pid(1));
        b.io(
            SimTime::from_secs(1),
            Pid(1),
            Pc(0x10),
            IoKind::Read,
            Fd(3),
            FileId(1),
            0,
            4096,
        );
        b.exit(SimTime::from_secs(30), Pid(1));
        trace.runs.push(b.finish().unwrap());
        Workbench::from_traces_seeded(GOLDEN_SEED, vec![trace], SimConfig::paper())
    }

    #[test]
    fn slugs_are_filesystem_safe() {
        assert_eq!(slug("PCAP-fh+r"), "pcap-fh-r");
        assert_eq!(slug("TP"), "tp");
        assert_eq!(slug("PCAP+ms"), "pcap-ms");
    }

    #[test]
    fn snapshot_roundtrip_and_drift_detection() {
        let dir = std::env::temp_dir().join(format!("pcap-golden-{}", std::process::id()));
        let bench = tiny_bench();
        let verify = |dir: &Path| verify_snapshot(&bench, dir).expect("verify").drifts;
        write_snapshot(&bench, &dir).expect("write");
        // The one render yields both the verdict and the file count.
        assert_eq!(
            verify_snapshot(&bench, &dir).expect("verify"),
            SnapshotCheck {
                files: snapshot_files(&bench).len(),
                drifts: vec![],
            }
        );

        // Corrupt one report: drift is localised to that file.
        let victim = dir.join("reports/tiny.tp.json");
        let original = fs::read_to_string(&victim).unwrap();
        fs::write(&victim, original.replace(':', " :")).unwrap();
        let drifts = verify(&dir);
        assert_eq!(drifts.len(), 1);
        assert!(
            matches!(&drifts[0], Drift::Changed { file, .. } if file == "reports/tiny.tp.json")
        );

        // A stale file is flagged; a deleted one is missing.
        fs::write(&victim, original).unwrap();
        fs::write(dir.join("tables/ghost.csv"), "boo\n").unwrap();
        fs::remove_file(dir.join("tables/fig7.csv")).unwrap();
        let drifts = verify(&dir);
        assert!(drifts.contains(&Drift::Missing("tables/fig7.csv".into())));
        assert!(drifts.contains(&Drift::Unexpected("tables/ghost.csv".into())));

        // Re-blessing wipes stale files and passes again.
        write_snapshot(&bench, &dir).expect("rewrite");
        assert_eq!(verify(&dir), vec![]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
