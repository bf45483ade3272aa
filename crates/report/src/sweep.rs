//! Multi-seed experiment sweeps.
//!
//! The paper's robustness claims (§6) are statements about behaviour
//! across user sessions; in this reproduction that means across
//! workload seeds. This module evaluates the `seed × app` grid as one
//! [`SweepRunner`] task per `(seed, app)` cell and aggregates per-seed
//! savings and accuracy into a mean/min/max table — the `sweep`
//! experiment. A cell generates one trace, prepares it and evaluates
//! every manager against it, then drops both, so a sweep holds at most
//! one trace per worker: memory is bounded by the job count, not the
//! seed count. `--journal` persists the same cells, one journal record
//! per seed.
//!
//! Determinism contract: trace generation depends only on
//! `(app, seed)`, simulation only on `(trace, config, kind)`, and all
//! merges happen in canonical order (seed-major, then [`PaperApp::ALL`]
//! order, then kind order), so output is byte-identical for every
//! `--jobs` value.

use crate::tables::{pct1, Table};
use pcap_sim::{
    decode_reports, encode_reports, evaluate_prepared, run_journaled, AppReport, Journal,
    JournalError, PowerManagerKind, PreparedTrace, SeedStat, SimConfig, SweepRunner,
};
use pcap_trace::TraceError;
use pcap_workload::{AppModel, ConfigHash, PaperApp};
use std::ops::Range;

/// The managers aggregated by the `sweep` experiment: the paper's
/// headline predictors plus the clairvoyant bound.
pub const SWEEP_KINDS: [PowerManagerKind; 4] = [
    PowerManagerKind::Timeout,
    PowerManagerKind::LT,
    PowerManagerKind::PCAP,
    PowerManagerKind::Oracle,
];

/// One `(seed, app)` cell: generates the app's trace, prepares its
/// streams once and evaluates every kind against them, in kind order.
fn sweep_cell(
    seed: u64,
    app: PaperApp,
    config: &SimConfig,
    kinds: &[PowerManagerKind],
) -> Result<Vec<AppReport>, TraceError> {
    let prepared = PreparedTrace::build(&app.spec().generate_trace(seed)?, config);
    Ok(kinds
        .iter()
        .map(|&kind| evaluate_prepared(&prepared, config, kind))
        .collect())
}

/// Simulates `kinds` on every `(seed, app)` cell, one runner task per
/// cell. Returns one report grid per seed in app-major × kind order,
/// the layout [`sweep_table`] reads.
///
/// # Errors
///
/// Propagates trace-validation failures from the workload generator.
pub fn run_sweep(
    seeds: &[u64],
    config: &SimConfig,
    kinds: &[PowerManagerKind],
    jobs: usize,
) -> Result<Vec<Vec<AppReport>>, TraceError> {
    let cells: Vec<(u64, PaperApp)> = seeds
        .iter()
        .flat_map(|&seed| PaperApp::ALL.map(|app| (seed, app)))
        .collect();
    let reports = SweepRunner::new(jobs)
        .run(&cells, |_, &(seed, app)| {
            sweep_cell(seed, app, config, kinds)
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    Ok(reports
        .chunks(PaperApp::ALL.len())
        .map(<[Vec<AppReport>]>::concat)
        .collect())
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

/// The config hash a `pcap run --journal` grid is pinned to: the
/// seed-sweep hash of its one seed, chained through a distinct
/// `run-grid` domain so a seed-sweep journal can never be mistaken for
/// a run-grid one.
pub fn run_grid_journal_config(seed: u64, config: &SimConfig, kinds: &[PowerManagerKind]) -> u64 {
    let mut domain = ConfigHash::new("run-grid");
    domain.push(sweep_journal_config(&[seed], config, kinds));
    domain.finish()
}

/// [`run_sweep`] against a journal: one cell per seed (the cell key is
/// the seed itself) holding the seed's six `(seed, app)` cells in
/// order. Seeds already committed are decoded instead of recomputed;
/// pending seeds are claimed via the journal's advisory locks so
/// concurrent or restarted processes cooperate. The grids are always
/// read back from journal bytes, so the readout is identical no matter
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
) -> Result<Vec<Vec<AppReport>>, JournalError> {
    let cells: Vec<(u64, u64)> = seeds.iter().map(|&seed| (seed, seed)).collect();
    let results = run_journaled(journal, &SweepRunner::new(jobs), &cells, |&seed| {
        let mut reports = Vec::with_capacity(PaperApp::ALL.len() * kinds.len());
        for app in PaperApp::ALL {
            reports.extend(sweep_cell(seed, app, config, kinds).map_err(|e| e.to_string())?);
        }
        Ok(encode_reports(&reports))
    })?;
    seeds
        .iter()
        .zip(results)
        .map(|(&seed, bytes)| {
            decode_reports(&bytes).map_err(|e| JournalError::Corrupt {
                offset: 0,
                reason: format!("seed {seed} payload: {e}"),
            })
        })
        .collect()
}

/// Aggregates a sweep into the mean/min/max table: one row per
/// `app × manager`, plus per-manager suite averages. `per_seed` holds
/// one report grid per seed, app-major × kind, as [`run_sweep`] and
/// [`run_sweep_journaled`] return them.
pub fn sweep_table(
    seeds: &[u64],
    per_seed: &[Vec<AppReport>],
    kinds: &[PowerManagerKind],
) -> Table {
    let apps = per_seed
        .first()
        .map_or(0, |grid| grid.len() / kinds.len().max(1));
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
    // One manager's reports for the apps in `app_range`, seed-major.
    let column = |kind_idx: usize, app_range: Range<usize>| -> Vec<&AppReport> {
        per_seed
            .iter()
            .flat_map(|grid| {
                app_range
                    .clone()
                    .map(move |app| &grid[app * kinds.len() + kind_idx])
            })
            .collect()
    };
    let mut stat_row = |app: &str, kind_idx: usize, reports: &[&AppReport]| {
        let stat = |metric: fn(&AppReport) -> f64| {
            SeedStat::of(&reports.iter().map(|&r| metric(r)).collect::<Vec<_>>())
        };
        let savings = stat(AppReport::savings);
        let coverage = stat(|r| r.global.coverage());
        let miss = stat(|r| r.global.miss_rate());
        t.row(vec![
            app.to_owned(),
            kinds[kind_idx].label(),
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
    for app in 0..apps {
        for kind_idx in 0..kinds.len() {
            let reports = column(kind_idx, app..app + 1);
            stat_row(&reports[0].app, kind_idx, &reports);
        }
    }
    // Suite-wide aggregation: every app × seed sample per manager.
    for kind_idx in 0..kinds.len() {
        stat_row("AVERAGE", kind_idx, &column(kind_idx, 0..apps));
    }
    t
}

/// Renders a streaming fleet sweep as the fleet table: one row per
/// paper app (aggregated over every device running it) plus the
/// whole-fleet TOTAL row. Pure function of the
/// [`FleetReport`](pcap_sim::FleetReport), so the table inherits the
/// report's `--jobs`-independence.
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
    use crate::workbench::Workbench;

    #[test]
    fn sweep_cells_match_each_seeds_workbench_reports() {
        let config = SimConfig::paper();
        let seeds = [42u64, 43];
        let per_seed = run_sweep(&seeds, &config, &SWEEP_KINDS, 2).expect("valid specs");
        assert_eq!(per_seed.len(), seeds.len());
        for (&seed, grid) in seeds.iter().zip(&per_seed) {
            let bench = Workbench::generate_par(seed, config.clone(), 2).expect("valid specs");
            assert_eq!(*grid, bench.reports(&SWEEP_KINDS), "seed {seed}");
        }
        // 6 apps × 4 kinds + 4 AVERAGE rows.
        let table = sweep_table(&seeds, &per_seed, &SWEEP_KINDS);
        assert_eq!(table.rows.len(), 6 * 4 + 4);
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
        assert_ne!(
            run_grid_journal_config(42, &config, &SWEEP_KINDS),
            sweep_journal_config(&[42], &config, &SWEEP_KINDS),
            "the run grid hashes through its own domain"
        );
    }

    #[test]
    fn seed_ranges_render_compactly() {
        assert_eq!(render_seeds(&[42, 43, 44]), "seeds 42..=44");
        assert_eq!(render_seeds(&[42]), "seeds 42");
        assert_eq!(render_seeds(&[7, 42]), "seeds 7, 42");
    }
}
