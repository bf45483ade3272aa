//! `grid-journaled`: the `pcap run --journal` path. Six apps at their
//! full Table 1 run counts × the 10 `GRID_KINDS` managers, prepared
//! once per app with `Workbench::prepare_all`, then evaluated by
//! `run_journaled` into a fresh on-disk journal: ten managers share
//! each prepared run, and each of the 60 cells costs one fsync'd
//! append. Engine- and journal-heavy.
//!
//! The traced run makes the same calls from the benchmark's own loop
//! (`PreparedTrace::build`, `evaluate_prepared`, `Journal::append` in
//! rounds of `jobs` claimed cells, as `run_journaled` does) so each
//! gets a span; its reports must equal the untraced run's.

use crate::layers::{fold, self_ns};
use crate::stats::Samples;
use crate::{peak_rss_mb, ratio, record_shares, seconds, within, Metrics, Outcome, Spec, WorkDir};
use pcap_cache::{filter_run_into, FileCache};
use pcap_obs::{render_chrome_trace, span, TraceRecorder};
use pcap_report::{sweep_journal_config, Workbench, GOLDEN_SEED, GRID_KINDS};
use pcap_sim::{
    decode_reports, encode_reports, evaluate_prepared, run_journaled, AppReport, EnergyBreakdown,
    Journal, PowerManagerKind, PreparedTrace, RunStreams, SimConfig, SweepRunner,
};
use pcap_trace::ApplicationTrace;
use pcap_workload::{AppModel, ConfigHash, PaperApp};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Sizes of `grid-journaled`.
#[derive(Debug, Clone)]
pub struct GridSpec {
    /// The golden snapshot the cells are checked against at the golden
    /// seed.
    pub golden: PathBuf,
}

impl GridSpec {
    /// The full-size workload, checked against the repository's
    /// `golden/` snapshot.
    pub fn full() -> GridSpec {
        GridSpec {
            golden: Path::new(env!("CARGO_MANIFEST_DIR")).join("../golden"),
        }
    }
}

/// Worker threads for preparation and evaluation, as `pcap run --jobs 2`.
const JOBS: usize = 2;

/// One journal cell per (app, manager), keyed as `pcap run --journal`
/// keys them.
type Cell = (u64, (usize, PowerManagerKind));

fn cells(apps: usize) -> Vec<Cell> {
    (0..apps)
        .flat_map(|app| {
            GRID_KINDS
                .iter()
                .enumerate()
                .map(move |(k, &kind)| (((app as u64) << 32) | k as u64, (app, kind)))
        })
        .collect()
}

fn journal_config(seed: u64, config: &SimConfig) -> u64 {
    let mut domain = ConfigHash::new("run-grid");
    domain.push(sweep_journal_config(&[seed], config, &GRID_KINDS));
    domain.finish()
}

fn decode_one(bytes: &[u8]) -> Result<AppReport, String> {
    decode_reports(bytes)
        .map_err(|e| format!("journal cell: {e}"))?
        .pop()
        .ok_or_else(|| "empty journal cell".to_owned())
}

/// One `pcap run --journal` grid into a fresh journal at `path`;
/// returns every cell decoded from the journal, in cell order.
fn journaled_grid(bench: &Workbench, jobs: usize, path: &Path) -> Result<Vec<AppReport>, String> {
    let config = bench.config().clone();
    let mut journal =
        Journal::open(path, journal_config(bench.seed(), &config)).map_err(|e| e.to_string())?;
    bench.prepare_all(jobs);
    let cells = cells(bench.traces().len());
    let results = run_journaled(
        &mut journal,
        &SweepRunner::new(jobs),
        &cells,
        |&(app, kind)| {
            let report = evaluate_prepared(bench.prepared(app), &config, kind);
            Ok(encode_reports(std::slice::from_ref(&report)))
        },
    )
    .map_err(|e| e.to_string())?;
    results.iter().map(|bytes| decode_one(bytes)).collect()
}

/// The same grid from the benchmark's own loop, with a span around
/// each call into `pcap-sim`; journal append latencies (µs) are pushed
/// onto `appends`.
fn traced_grid(
    traces: &[ApplicationTrace],
    seed: u64,
    config: &SimConfig,
    jobs: usize,
    path: &Path,
    recorder: &TraceRecorder,
    appends: &mut Vec<f64>,
) -> Result<Vec<AppReport>, String> {
    let runner = SweepRunner::new(jobs);
    let mut journal = {
        let _span = span(recorder, "journal:open");
        Journal::open(path, journal_config(seed, config)).map_err(|e| e.to_string())?
    };
    let apps: Vec<usize> = (0..traces.len()).collect();
    let prepared = runner.run_observed(
        "prepare",
        &apps,
        |_, &app| {
            let _span = span(recorder, "rebuild");
            PreparedTrace::build(&traces[app], config)
        },
        |_, &app| format!("prepare:{}", traces[app].app),
        recorder,
    );
    let cells = cells(traces.len());
    for round in cells.chunks(jobs.max(1)) {
        {
            let _span = span(recorder, "journal:claim");
            for (key, _) in round {
                journal.try_claim(*key).map_err(|e| e.to_string())?;
            }
            journal.refresh().map_err(|e| e.to_string())?;
        }
        let results = runner.run_observed(
            "evaluate",
            round,
            |_, (_, (app, kind))| {
                let _span = span(recorder, "engine");
                let report = evaluate_prepared(&prepared[*app], config, *kind);
                encode_reports(std::slice::from_ref(&report))
            },
            |_, (_, (app, kind))| format!("cell:{}×{}", traces[*app].app, kind.label()),
            recorder,
        );
        for ((key, _), bytes) in round.iter().zip(&results) {
            let started = Instant::now();
            {
                let _span = span(recorder, "journal:append");
                journal.append(*key, bytes).map_err(|e| e.to_string())?;
            }
            appends.push(started.elapsed().as_secs_f64() * 1e6);
        }
        let _span = span(recorder, "journal:refresh");
        journal.refresh().map_err(|e| e.to_string())?;
    }
    let _span = span(recorder, "journal:readout");
    cells
        .iter()
        .map(|(key, _)| {
            journal
                .result(*key)
                .ok_or_else(|| format!("cell {key:#x} missing from the journal"))
                .and_then(decode_one)
        })
        .collect()
}

/// Deletes a finished journal and its claims directory.
fn remove_journal(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_dir_all(format!("{}.claims", path.display()));
}

/// A report as its golden-snapshot file body.
fn report_text(report: &AppReport) -> String {
    let mut text = serde_json::to_string_pretty(report).expect("reports serialize");
    text.push('\n');
    text
}

/// Lowercases a label and maps each non-alphanumeric run to one `-`,
/// as the golden snapshot names its files.
fn slug(label: &str) -> String {
    let mut out = String::new();
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('-') {
            out.push('-');
        }
    }
    out.trim_matches('-').to_owned()
}

/// Checks every repeat's cells: against the golden snapshot at the
/// golden seed, otherwise against the first repeat. Counts each
/// differing cell as failed.
fn check(grids: &[Vec<AppReport>], seed: u64, golden: &Path, out: &mut Outcome) {
    let Some(first) = grids.first() else { return };
    let expected: Vec<String> = if seed == GOLDEN_SEED {
        first
            .iter()
            .map(|r| {
                let file = golden.join("reports").join(format!(
                    "{}.{}.json",
                    slug(&r.app),
                    slug(&r.manager)
                ));
                std::fs::read_to_string(&file)
                    .unwrap_or_else(|e| format!("{}: {e}", file.display()))
            })
            .collect()
    } else {
        first.iter().map(report_text).collect()
    };
    for (repeat, grid) in grids.iter().enumerate() {
        for (report, want) in grid.iter().zip(&expected) {
            if report_text(report) != *want {
                out.failed += 1;
                out.errors.push(format!(
                    "repeat {repeat}: cell {}×{} differs from its reference",
                    report.app, report.manager
                ));
            }
        }
    }
}

pub(crate) fn run(plan: &GridSpec, spec: &Spec, seed: u64, traced: bool) -> Outcome {
    let config = SimConfig::paper();
    let mut out = Outcome::default();
    let mut metrics = Metrics::default();
    let work = match WorkDir::create("grid") {
        Ok(work) => work,
        Err(e) => {
            out.errors.push(format!("work directory: {e}"));
            out.metrics = metrics.finish(traced);
            return out;
        }
    };
    let recorder = TraceRecorder::new();

    // Set-up: generate the six traces (serially under spans when traced).
    let mut setup = Vec::new();
    let mut traces = Vec::new();
    for _ in 0..if traced { 1 } else { spec.setups.max(1) } {
        let started = Instant::now();
        let generated = if traced {
            PaperApp::ALL
                .iter()
                .map(|app| {
                    let _span = span(&recorder, "generate");
                    app.spec().generate_trace(seed)
                })
                .collect::<Result<Vec<_>, _>>()
        } else {
            Workbench::generate_par(seed, config.clone(), JOBS).map(|b| b.traces().to_vec())
        };
        setup.push(started.elapsed());
        match generated {
            Ok(generated) => traces = generated,
            Err(e) => out.errors.push(format!("trace generation: {e}")),
        }
    }
    let cell_count = (traces.len() * GRID_KINDS.len()) as u64;
    let events: usize = traces.iter().map(ApplicationTrace::total_ios).sum();
    let mut decisions = 0.0;
    let journals = std::cell::Cell::new(0usize);
    let journal_path = || {
        journals.set(journals.get() + 1);
        work.path().join(format!("grid-{}.journal", journals.get()))
    };
    let untraced_repeat = |out: &mut Outcome, decisions: &mut f64| {
        let bench = Workbench::from_traces_seeded(seed, traces.clone(), config.clone());
        let path = journal_path();
        out.attempted += cell_count;
        let started = Instant::now();
        let result = journaled_grid(&bench, JOBS, &path);
        let wall = started.elapsed();
        remove_journal(&path);
        if *decisions == 0.0 {
            let accesses: usize = (0..bench.traces().len())
                .flat_map(|app| bench.prepared(app).streams())
                .map(|streams| streams.accesses.len())
                .sum();
            *decisions = (accesses * GRID_KINDS.len()) as f64;
        }
        result.map(|reports| (wall, reports))
    };

    if !traced {
        let mut walls: Vec<Duration> = Vec::new();
        let mut grids = Vec::new();
        within(spec.seconds, || {
            match untraced_repeat(&mut out, &mut decisions) {
                Ok((wall, reports)) => {
                    walls.push(wall);
                    grids.push(reports);
                    Some(wall)
                }
                Err(e) => {
                    out.failed += cell_count;
                    out.errors.push(format!("journaled grid: {e}"));
                    None
                }
            }
        });
        check(&grids, seed, &plan.golden, &mut out);
        let rates = walls.iter().map(|w| decisions / w.as_secs_f64()).collect();
        let latencies = walls.iter().map(|w| w.as_secs_f64() * 1e3).collect();
        metrics.timing("setup_s", &seconds(&setup));
        metrics.timing("decisions_per_s", &Samples::new(rates));
        metrics.timing("run_latency_p50_ms", &Samples::new(latencies));
        metrics.set("peak_rss_mb", peak_rss_mb());
        out.metrics = metrics.finish(false);
        return out;
    }

    // Traced: alternate untraced and traced repeats, so the overhead
    // compares runs made under the same machine conditions.
    let mut untraced_walls: Vec<Duration> = Vec::new();
    let mut traced_walls: Vec<Duration> = Vec::new();
    let mut appends: Vec<f64> = Vec::new();
    let mut grids: Vec<Vec<AppReport>> = Vec::new();
    within(spec.seconds, || {
        let (untraced_wall, reports) = match untraced_repeat(&mut out, &mut decisions) {
            Ok(done) => done,
            Err(e) => {
                out.failed += cell_count;
                out.errors.push(format!("journaled grid: {e}"));
                return None;
            }
        };
        grids.push(reports);
        let path = journal_path();
        out.attempted += cell_count;
        let started = Instant::now();
        let result = traced_grid(&traces, seed, &config, JOBS, &path, &recorder, &mut appends);
        let traced_wall = started.elapsed();
        remove_journal(&path);
        match result {
            Ok(reports) => {
                grids.push(reports);
                untraced_walls.push(untraced_wall);
                traced_walls.push(traced_wall);
                Some(untraced_wall + traced_wall)
            }
            Err(e) => {
                out.failed += cell_count;
                out.errors.push(format!("traced grid: {e}"));
                None
            }
        }
    });
    check(&grids, seed, &plan.golden, &mut out);

    // Probe pass, once over every run: `filter_run_into` alone, then the
    // whole `RunStreams::build` that `PreparedTrace::build` makes per
    // run, side by side.
    let mut cache = FileCache::new(config.cache.clone());
    let mut accesses = Vec::new();
    let mut built = Vec::new();
    let (mut hits, mut misses) = (0u64, 0u64);
    for run in traces.iter().flat_map(|t| &t.runs) {
        accesses.clear();
        let stats = {
            let _span = span(&recorder, "probe_filter");
            filter_run_into(run, &mut cache, &mut accesses)
        };
        hits += stats.page_hits;
        misses += stats.page_misses;
        let _span = span(&recorder, "probe_rebuild");
        built.push(RunStreams::build(run, &config));
    }
    drop(built);

    let layers = fold(&recorder.events());
    let repeats = traced_walls.len().max(1) as f64;
    let worker_busy_ns: f64 = recorder
        .workers()
        .iter()
        .filter(|w| w.scope == "prepare" || w.scope == "evaluate")
        .map(|w| w.busy_us as f64 * 1e3)
        .sum();
    let rebuild = self_ns(&layers, "rebuild") / repeats;
    let engine = self_ns(&layers, "engine") / repeats;
    let journal = self_ns(&layers, "journal") / repeats;
    // Filtering is the part of each build that the probe's adjacent
    // filter-alone and build calls attribute to it.
    let filter = rebuild
        * ratio(
            self_ns(&layers, "probe_filter"),
            self_ns(&layers, "probe_rebuild"),
        );
    let busy_ns = worker_busy_ns / repeats + journal;
    let events = events as f64;
    let appends = Samples::new(appends);
    let (mut energy, mut base) = (EnergyBreakdown::default(), EnergyBreakdown::default());
    for report in grids.first().into_iter().flatten() {
        energy += report.energy;
        base += report.base_energy;
    }
    let traced_total: Duration = traced_walls.iter().sum();
    metrics.set(
        "workload.generate_ns_per_event",
        ratio(self_ns(&layers, "generate"), events),
    );
    metrics.set("cache.filter_ns_per_event", ratio(filter, events));
    metrics.set(
        "cache.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    metrics.set("sim.rebuild_ns_per_event", ratio(rebuild, events));
    metrics.set("sim.engine_ns_per_decision", ratio(engine, decisions));
    metrics.set("sim.journal_append_us_p50", appends.median());
    metrics.set(
        "sim.journal_append_us_p95",
        appends.tail(0.95).unwrap_or(0.0),
    );
    metrics.set(
        "sim.sweep_busy_fraction",
        ratio(worker_busy_ns, JOBS as f64 * traced_total.as_nanos() as f64),
    );
    metrics.set(
        "obs.tracing_overhead",
        ratio(
            seconds(&traced_walls).median(),
            seconds(&untraced_walls).median(),
        ) - 1.0,
    );
    metrics.set("sim_decisions", decisions);
    metrics.set("sim_energy_savings", energy.savings_vs(&base));
    out.table = record_shares(
        &mut metrics,
        &[
            ("share.filter", filter),
            ("share.streams", rebuild - filter),
            ("share.engine", engine),
            ("share.journal", journal),
        ],
        busy_ns,
    );
    out.chrome_trace = Some(render_chrome_trace(&recorder));
    out.metrics = metrics.finish(true);
    out
}
