//! Multi-seed experiment sweeps.
//!
//! The paper's robustness claims (§6) are statements about behaviour
//! across user sessions; in this reproduction that means across
//! workload seeds. This module fans the full `seed × app × manager`
//! grid across a [`SweepRunner`] and aggregates per-seed savings and
//! accuracy into a mean/min/max table — the `sweep` experiment.
//!
//! Determinism contract: trace generation depends only on
//! `(app, seed)`, simulation only on `(trace, config, kind)`, and all
//! merges happen in canonical order (seed-major, then [`PaperApp::ALL`]
//! order, then kind order), so output is byte-identical for every
//! `--jobs` value.

use crate::tables::{pct1, Table};
use crate::workbench::Workbench;
use pcap_sim::{
    decode_reports, encode_reports, evaluate_prepared, run_journaled, AppReport, Journal,
    JournalError, PowerManagerKind, PreparedTrace, SeedStat, SimConfig, SweepRunner,
};
use pcap_trace::TraceError;
use pcap_workload::{AppModel, ConfigHash, PaperApp};

/// The managers aggregated by the `sweep` experiment: the paper's
/// headline predictors plus the clairvoyant bound.
pub const SWEEP_KINDS: [PowerManagerKind; 4] = [
    PowerManagerKind::Timeout,
    PowerManagerKind::LT,
    PowerManagerKind::PCAP,
    PowerManagerKind::Oracle,
];

/// Generates one workbench per seed and simulates `kinds` for every
/// `(seed, app)` cell, batching the whole grid through one parallel
/// runner.
///
/// # Errors
///
/// Propagates trace-validation failures from the workload generator.
pub fn run_sweep(
    seeds: &[u64],
    config: &SimConfig,
    kinds: &[PowerManagerKind],
    jobs: usize,
) -> Result<Vec<(u64, Workbench)>, TraceError> {
    let runner = SweepRunner::new(jobs);
    let apps = PaperApp::ALL;

    // Stage 1: every (seed, app) trace, seed-major so per-seed chunks
    // come back contiguous.
    let generation_tasks: Vec<(u64, PaperApp)> = seeds
        .iter()
        .flat_map(|&seed| apps.iter().map(move |&app| (seed, app)))
        .collect();
    let traces = runner
        .run(&generation_tasks, |_, &(seed, app)| {
            app.spec().generate_trace(seed)
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    let mut traces = traces.into_iter();
    let benches: Vec<(u64, Workbench)> = seeds
        .iter()
        .map(|&seed| {
            let suite: Vec<_> = (0..apps.len())
                .map(|_| traces.next().expect("chunk"))
                .collect();
            (
                seed,
                Workbench::from_traces_seeded(seed, suite, config.clone()),
            )
        })
        .collect();

    // Stage 2: per-seed batches. Each app's streams (cache filtering,
    // gap extraction) are prepared exactly once per seed — into the
    // workbench's shared `PreparedTrace` slots, so downstream
    // experiments (Table 1 profiles, on-demand cells, predictor-only
    // ablations) reuse them instead of re-preparing — then the whole
    // kind grid simulates against those shared preparations.
    for (_, bench) in &benches {
        bench.prepare_all(jobs);
        let simulation_tasks: Vec<(usize, PowerManagerKind)> = (0..apps.len())
            .flat_map(|trace_idx| kinds.iter().map(move |&kind| (trace_idx, kind)))
            .collect();
        let reports = runner.run(&simulation_tasks, |_, &(trace_idx, kind)| {
            evaluate_prepared(bench.prepared(trace_idx), config, kind)
        });
        for (&(trace_idx, kind), report) in simulation_tasks.iter().zip(reports) {
            bench.prime(trace_idx, kind, report);
        }
    }
    Ok(benches)
}

/// The config hash a seed-sweep journal is pinned to: the exact seed
/// list, the full [`SimConfig`] (via its canonical JSON serialization),
/// and the manager grid. Any change to any of them re-keys the journal,
/// so stale results can never leak into a different sweep.
pub fn sweep_journal_config(seeds: &[u64], config: &SimConfig, kinds: &[PowerManagerKind]) -> u64 {
    let mut hash = ConfigHash::new("seed-sweep");
    hash.push(seeds.len() as u64);
    for &seed in seeds {
        hash.push(seed);
    }
    hash.push_str(&serde_json::to_string(config).expect("SimConfig serializes"));
    hash.push(kinds.len() as u64);
    for kind in kinds {
        hash.push_str(&serde_json::to_string(kind).expect("PowerManagerKind serializes"));
    }
    hash.finish()
}

/// [`run_sweep`] against a journal: one cell per seed (the cell key is
/// the seed itself), each holding the full `app × kind` report grid.
/// Seeds already committed are decoded instead of recomputed; pending
/// seeds are claimed via the journal's advisory locks so concurrent or
/// restarted processes cooperate. Returns per-seed reports in app-major
/// × kind order, ready for [`sweep_table_from_reports`] — always read
/// back from journal bytes, so the readout is identical no matter
/// which process computed which seed.
///
/// # Errors
///
/// [`JournalError`] on journal I/O or integrity failures, with
/// [`JournalError::Task`] wrapping trace-generation errors.
pub fn run_sweep_journaled(
    seeds: &[u64],
    config: &SimConfig,
    kinds: &[PowerManagerKind],
    jobs: usize,
    journal: &mut Journal,
) -> Result<Vec<(u64, Vec<AppReport>)>, JournalError> {
    let runner = SweepRunner::new(jobs);
    let cells: Vec<(u64, u64)> = seeds.iter().map(|&seed| (seed, seed)).collect();
    let results = run_journaled(journal, &runner, &cells, |&seed| {
        let mut reports = Vec::with_capacity(PaperApp::ALL.len() * kinds.len());
        for app in PaperApp::ALL {
            let trace = app.spec().generate_trace(seed).map_err(|e| e.to_string())?;
            let prepared = PreparedTrace::build(&trace, config);
            for &kind in kinds {
                reports.push(evaluate_prepared(&prepared, config, kind));
            }
        }
        Ok(encode_reports(&reports))
    })?;
    seeds
        .iter()
        .zip(results)
        .map(|(&seed, bytes)| {
            let reports = decode_reports(&bytes).map_err(|e| JournalError::Corrupt {
                offset: 0,
                reason: format!("seed {seed} payload: {e}"),
            })?;
            Ok((seed, reports))
        })
        .collect()
}

/// Aggregates a sweep into the mean/min/max table: one row per
/// `app × manager`, plus per-manager suite averages.
pub fn sweep_table(benches: &[(u64, Workbench)], kinds: &[PowerManagerKind]) -> Table {
    let seeds: Vec<u64> = benches.iter().map(|(seed, _)| *seed).collect();
    let apps = benches.first().map_or(0, |(_, bench)| bench.traces().len());
    let per_seed: Vec<Vec<AppReport>> = benches
        .iter()
        .map(|(_, bench)| {
            (0..apps)
                .flat_map(|trace_idx| kinds.iter().map(move |&kind| bench.report(trace_idx, kind)))
                .collect()
        })
        .collect();
    sweep_table_from_reports(&seeds, &per_seed, kinds)
}

/// [`sweep_table`] over bare report grids (one `Vec<AppReport>` per
/// seed, app-major × kind order, as produced by
/// [`run_sweep_journaled`]). [`sweep_table`] delegates here, so the
/// journaled and workbench paths render through one implementation and
/// are byte-identical by construction.
pub fn sweep_table_from_reports(
    seeds: &[u64],
    per_seed: &[Vec<AppReport>],
    kinds: &[PowerManagerKind],
) -> Table {
    let apps = if kinds.is_empty() {
        0
    } else {
        per_seed.first().map_or(0, |grid| grid.len() / kinds.len())
    };
    let mut t = Table::new(
        format!(
            "Sweep: savings and accuracy across {} seeds ({})",
            seeds.len(),
            render_seeds(seeds)
        ),
        &[
            "app",
            "predictor",
            "savings mean",
            "savings min",
            "savings max",
            "coverage mean",
            "coverage min",
            "coverage max",
            "miss mean",
            "miss max",
        ],
    );
    let report_of = |bench_idx: usize, trace_idx: usize, kind_idx: usize| -> &AppReport {
        &per_seed[bench_idx][trace_idx * kinds.len() + kind_idx]
    };
    let stat_row = |t: &mut Table, app: &str, kind_idx: usize, cells: &[(usize, usize)]| {
        let kind = kinds[kind_idx];
        // `cells` are (seed index, trace index) pairs to average over.
        let collect = |metric: &dyn Fn(&AppReport) -> f64| -> SeedStat {
            let samples: Vec<f64> = cells
                .iter()
                .map(|&(bench_idx, trace_idx)| metric(report_of(bench_idx, trace_idx, kind_idx)))
                .collect();
            SeedStat::of(&samples)
        };
        let savings = collect(&|r| r.savings());
        let coverage = collect(&|r| r.global.coverage());
        let miss = collect(&|r| r.global.miss_rate());
        t.row(vec![
            app.to_owned(),
            kind.label(),
            pct1(savings.mean),
            pct1(savings.min),
            pct1(savings.max),
            pct1(coverage.mean),
            pct1(coverage.min),
            pct1(coverage.max),
            pct1(miss.mean),
            pct1(miss.max),
        ]);
    };
    for trace_idx in 0..apps {
        let app = report_of(0, trace_idx, 0).app.clone();
        for kind_idx in 0..kinds.len() {
            let cells: Vec<(usize, usize)> = (0..per_seed.len())
                .map(|bench_idx| (bench_idx, trace_idx))
                .collect();
            stat_row(&mut t, &app, kind_idx, &cells);
        }
    }
    // Suite-wide aggregation: every app × seed sample per manager.
    for kind_idx in 0..kinds.len() {
        let cells: Vec<(usize, usize)> = (0..per_seed.len())
            .flat_map(|bench_idx| (0..apps).map(move |trace_idx| (bench_idx, trace_idx)))
            .collect();
        stat_row(&mut t, "AVERAGE", kind_idx, &cells);
    }
    t
}

/// Renders a streaming fleet sweep as the fleet table: one row per
/// paper app (aggregated over every device running it) plus the
/// whole-fleet TOTAL row. Pure function of the [`FleetReport`], so the
/// table inherits the report's `--jobs`-independence.
pub fn fleet_table(report: &pcap_sim::FleetReport) -> Table {
    let mut t = Table::new(
        format!(
            "Fleet: {} devices, seed {}, {} ({})",
            report.devices,
            report.base_seed,
            report.manager,
            match report.max_runs {
                Some(cap) => format!("runs capped at {cap}"),
                None => "full traces".to_owned(),
            }
        ),
        &[
            "app",
            "devices",
            "runs",
            "accesses",
            "savings",
            "coverage",
            "miss rate",
        ],
    );
    let slot_row = |t: &mut Table, name: &str, slot: &pcap_sim::FleetSlot| {
        t.row(vec![
            name.to_owned(),
            slot.devices.to_string(),
            slot.runs.to_string(),
            slot.accesses.to_string(),
            pct1(slot.savings()),
            pct1(slot.coverage()),
            pct1(slot.global.miss_rate()),
        ]);
    };
    for (app, slot) in report.rows() {
        slot_row(&mut t, app, slot);
    }
    slot_row(&mut t, "TOTAL", &report.total);
    t
}

/// Renders a seed list compactly: contiguous runs as `a..=b`.
fn render_seeds(seeds: &[u64]) -> String {
    let contiguous = seeds
        .windows(2)
        .all(|pair| pair[1] == pair[0].wrapping_add(1));
    match (seeds.first(), seeds.last()) {
        (Some(first), Some(last)) if contiguous && seeds.len() > 1 => {
            format!("seeds {first}..={last}")
        }
        _ => format!(
            "seeds {}",
            seeds
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truncated_sweep(seeds: &[u64], jobs: usize) -> Vec<(u64, Workbench)> {
        // Full multi-seed sweeps are exercised by the CLI; tests use a
        // reduced suite for speed by truncating each generated trace.
        let benches = run_sweep(seeds, &SimConfig::paper(), &[], jobs).expect("valid specs");
        let benches: Vec<(u64, Workbench)> = benches
            .into_iter()
            .map(|(seed, bench)| {
                let traces: Vec<_> = bench
                    .traces()
                    .iter()
                    .map(|t| {
                        let mut t = t.clone();
                        t.runs.truncate(3);
                        t
                    })
                    .collect();
                (
                    seed,
                    Workbench::from_traces_seeded(seed, traces, SimConfig::paper()),
                )
            })
            .collect();
        for (_, bench) in &benches {
            bench.warm_up(&SWEEP_KINDS, jobs);
        }
        benches
    }

    #[test]
    fn sweep_table_is_job_count_invariant() {
        let seeds = [42u64, 43];
        let serial = sweep_table(&truncated_sweep(&seeds, 1), &SWEEP_KINDS);
        let parallel = sweep_table(&truncated_sweep(&seeds, 8), &SWEEP_KINDS);
        assert_eq!(serial, parallel);
        assert_eq!(serial.to_csv(), parallel.to_csv());
        // 6 apps × 4 kinds + 4 AVERAGE rows.
        assert_eq!(serial.rows.len(), 6 * 4 + 4);
    }

    #[test]
    fn sweep_table_from_reports_matches_workbench_path() {
        let seeds = [42u64, 43];
        let benches = truncated_sweep(&seeds, 2);
        let via_bench = sweep_table(&benches, &SWEEP_KINDS);
        // The same grid, flattened to bare reports (the journal layout:
        // app-major × kind), must render the identical table.
        let per_seed: Vec<Vec<_>> = benches
            .iter()
            .map(|(_, bench)| {
                (0..bench.traces().len())
                    .flat_map(|ti| SWEEP_KINDS.iter().map(move |&k| bench.report(ti, k)))
                    .collect()
            })
            .collect();
        let via_reports = sweep_table_from_reports(&seeds, &per_seed, &SWEEP_KINDS);
        assert_eq!(via_bench.to_csv(), via_reports.to_csv());
    }

    #[test]
    fn sweep_journal_config_pins_every_dimension() {
        let config = SimConfig::paper();
        let base = sweep_journal_config(&[42, 43], &config, &SWEEP_KINDS);
        assert_eq!(base, sweep_journal_config(&[42, 43], &config, &SWEEP_KINDS));
        assert_ne!(base, sweep_journal_config(&[42], &config, &SWEEP_KINDS));
        assert_ne!(base, sweep_journal_config(&[43, 42], &config, &SWEEP_KINDS));
        let mut other = config.clone();
        other.pcap_history_len += 1;
        assert_ne!(base, sweep_journal_config(&[42, 43], &other, &SWEEP_KINDS));
        assert_ne!(
            base,
            sweep_journal_config(&[42, 43], &config, &SWEEP_KINDS[..3])
        );
    }

    #[test]
    fn seed_ranges_render_compactly() {
        assert_eq!(render_seeds(&[42, 43, 44]), "seeds 42..=44");
        assert_eq!(render_seeds(&[42]), "seeds 42");
        assert_eq!(render_seeds(&[7, 42]), "seeds 7, 42");
    }
}
