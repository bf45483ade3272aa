//! `pcap` — the command-line interface of the PCAP reproduction.
//!
//! ```text
//! pcap run <experiment> [--seed N] [--csv]   regenerate one table/figure
//! pcap all [--seeds A..B] [--jobs N] [--csv] regenerate everything (per seed + sweep)
//! pcap sweep [--seeds A..B] [--jobs N]       mean/min/max savings across seeds
//! pcap verify [--update] [--golden DIR]      diff reports+tables against golden/
//! pcap chart <figure> [--seed N]             draw a figure as stacked ASCII bars
//! pcap list                                  list experiments
//! pcap gen <app> [--seed N] [--out FILE]     generate a trace (JSON lines)
//! pcap profile <app> [--seed N]              Table 1 row for one app
//! pcap profile [--quick] [--jobs N]          trace the full pipeline: stage spans + worker telemetry
//! pcap inspect <app> <run#> [--seed N]       per-gap PCAP decisions for one execution
//! pcap audit <app> [--jsonl F] [--top-misses N]  decision-audit summary + mispredict tables
//! pcap explain <app>                         narrative tables tying §6 claims to measured numbers
//! pcap bench [--quick] [--jobs N]            the three <2% observability-overhead guards
//! pcap serve --uds PATH|--listen ADDR        run the online sharded decision daemon
//! pcap load --uds PATH|--connect ADDR        replay a generated workload against a daemon
//! pcap top ADDR [--once]                     live per-shard view of a daemon's /metrics
//! pcap flight FILE                           validate a flight-recorder JSONL dump
//! ```
//!
//! Every command is deterministic in `(seed, config)`: `--jobs` changes
//! wall clock, never a byte of output.

use pcap_obs::{
    parse_prometheus_samples, render_chrome_trace, render_journal_progress, render_prometheus,
    render_stage_table, scraped_histogram, scraped_value, stage_summary, validate_chrome_trace,
    validate_flight_dump, validate_prometheus_strict, worker_summary, PromSample, TraceRecorder,
};
use pcap_report::profiling::QUICK_RUNS;
use pcap_report::{
    audit_tables, explain_tables, figure_chart, fleet_table, profile_pipeline,
    run_grid_journal_config, run_sweep, run_sweep_journaled, sweep_journal_config, sweep_table,
    traced_eval, verify_snapshot, write_snapshot, Experiment, Figure, Workbench, GOLDEN_SEED,
    GRID_KINDS, SWEEP_KINDS,
};
use pcap_sim::{Journal, JournalError, SimConfig, WorkloadProfile};
use pcap_trace::io::write_jsonl;
use pcap_workload::{AppModel, DevicePopulation, PaperApp};
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "usage:
  pcap run <experiment> [--seed N] [--jobs N] [--journal FILE] [--csv]
  pcap all [--seed N | --seeds A..B] [--jobs N] [--csv]
  pcap sweep [--seeds A..B] [--jobs N] [--journal FILE] [--csv]
  pcap sweep --devices N [--seed N] [--jobs N] [--quick] [--journal FILE] [--csv]
  pcap verify [--update] [--golden DIR] [--seed N] [--jobs N]
  pcap chart <fig6|fig7|fig8|fig9|fig10> [--seed N] [--jobs N]
  pcap list
  pcap gen <app> [--seed N] [--out FILE]
  pcap profile <app> [--seed N]
  pcap profile [--seed N] [--jobs N] [--quick] [--chrome-trace FILE] [--prometheus FILE]
  pcap inspect <app> <run#> [--seed N]
  pcap audit <app> [--seed N] [--jobs N] [--jsonl FILE] [--top-misses N] [--csv]
  pcap explain <app> [--seed N] [--jobs N] [--csv]
  pcap bench [--quick] [--seed N] [--jobs N]
  pcap serve [--uds PATH] [--listen ADDR] [--metrics ADDR] [--shards N]
             [--flight-dump FILE]
  pcap load [--uds PATH] [--connect ADDR] [--devices N] [--seed N] [--rate N]
            [--quick] [--interleave] [--hist-out FILE]
  pcap top ADDR [--once] [--interval SECS] [--iterations N]
  pcap flight FILE

flags:
  --seed N       workload seed (default 42)
  --seeds A..B   seed range, half-open (42..46 = 42,43,44,45); A..=B inclusive
  --jobs N       worker threads; 0 = all cores (default); output is identical for any N
  --devices N    sweep: stream an N-device fleet (bounded memory) instead of a seed
                 range; devices cycle the six apps with per-cohort seed jitter.
                 With --quick every device evaluates at most 6 executions
  --csv          emit CSV instead of aligned tables
  --update       re-bless the golden snapshot instead of verifying
  --golden DIR   golden snapshot directory (default golden/)
  --quick        bench/profile: truncate every trace to 6 runs (CI-sized measurement)
  --chrome-trace FILE  profile: write a Chrome/Perfetto trace-event JSON file
  --prometheus FILE    profile: write Prometheus text-format metrics
  --jsonl FILE   audit: also write the full decision log as JSON lines
  --top-misses N audit: rows per mispredict table (default 10, minimum 1)
  --uds PATH     serve: listen on / load: connect to a Unix-domain socket
  --listen ADDR  serve: listen on a TCP address (host:port)
  --connect ADDR load: connect to a TCP address (host:port)
  --metrics ADDR serve: expose /metrics (Prometheus text) and /audit over HTTP
  --shards N     serve: shard worker threads (default: all cores)
  --rate N       load: target event rate in events/s (default: unthrottled)
  --interleave   load: interleave devices run-by-run instead of device-major
  --hist-out FILE  load: write the run-latency histogram as JSON
  --flight-dump FILE  serve: where SIGUSR1 and panics dump the flight recorder
                 as JSON lines (default pcap-flight.jsonl)
  --once         top: print one frame and exit (same as --iterations 1)
  --interval SECS  top: seconds between polls (default 1)
  --iterations N top: frames to print before exiting (default: until killed)
  --journal FILE run/sweep: record finished cells in a crash-safe journal; a killed
                 or restarted invocation resumes instead of recomputing, and
                 concurrent invocations on the same FILE cooperate. Output is
                 byte-identical to an uninterrupted run. The journal is keyed to
                 the sweep configuration; a FILE from a different grid/seed
                 range/device count is rejected

experiments: table1 table2 fig6 fig7 fig8 fig9 fig10 table3 ablations system multistate lambda
apps: mozilla writer impress xemacs nedit mplayer";

#[derive(Debug)]
struct Options {
    seed: u64,
    seeds: Option<Vec<u64>>,
    devices: Option<u64>,
    jobs: usize,
    csv: bool,
    update: bool,
    quick: bool,
    golden: String,
    out: Option<String>,
    jsonl: Option<String>,
    chrome_trace: Option<String>,
    prometheus: Option<String>,
    top_misses: usize,
    listen: Option<String>,
    connect: Option<String>,
    uds: Option<String>,
    metrics: Option<String>,
    shards: Option<usize>,
    rate: Option<u64>,
    interleave: bool,
    hist_out: Option<String>,
    journal: Option<String>,
    flight_dump: Option<String>,
    once: bool,
    interval: f64,
    iterations: Option<u64>,
    positional: Vec<String>,
}

/// Parses a `--seeds` range: `A..B` (half-open), `A..=B` (inclusive),
/// or a single seed.
fn parse_seed_range(spec: &str) -> Result<Vec<u64>, String> {
    let bad = || format!("bad seed range: {spec} (expected A..B, A..=B, or N)");
    let (start, end) = if let Some((a, b)) = spec.split_once("..=") {
        let a: u64 = a.parse().map_err(|_| bad())?;
        let b: u64 = b.parse().map_err(|_| bad())?;
        (a, b.checked_add(1).ok_or_else(bad)?)
    } else if let Some((a, b)) = spec.split_once("..") {
        (a.parse().map_err(|_| bad())?, b.parse().map_err(|_| bad())?)
    } else {
        let n: u64 = spec.parse().map_err(|_| bad())?;
        (n, n.checked_add(1).ok_or_else(bad)?)
    };
    if start >= end {
        return Err(format!("empty seed range: {spec}"));
    }
    if end - start > 1_000 {
        return Err(format!("seed range too large: {spec} (max 1000 seeds)"));
    }
    Ok((start..end).collect())
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        seed: GOLDEN_SEED,
        seeds: None,
        devices: None,
        jobs: 0,
        csv: false,
        update: false,
        quick: false,
        golden: "golden".to_owned(),
        out: None,
        jsonl: None,
        chrome_trace: None,
        prometheus: None,
        top_misses: 10,
        listen: None,
        connect: None,
        uds: None,
        metrics: None,
        shards: None,
        rate: None,
        interleave: false,
        hist_out: None,
        journal: None,
        flight_dump: None,
        once: false,
        interval: 1.0,
        iterations: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                let value = it.next().ok_or("--seed needs a value")?;
                options.seed = value.parse().map_err(|_| format!("bad seed: {value}"))?;
            }
            "--seeds" => {
                let value = it.next().ok_or("--seeds needs a value")?;
                options.seeds = Some(parse_seed_range(value)?);
            }
            "--devices" => {
                let value = it.next().ok_or("--devices needs a value")?;
                let devices: u64 = value
                    .parse()
                    .map_err(|_| format!("bad device count: {value}"))?;
                if devices == 0 {
                    return Err("device count must be at least 1".to_owned());
                }
                options.devices = Some(devices);
            }
            "--jobs" => {
                let value = it.next().ok_or("--jobs needs a value")?;
                options.jobs = value
                    .parse()
                    .map_err(|_| format!("bad job count: {value}"))?;
            }
            "--csv" => options.csv = true,
            "--update" => options.update = true,
            "--quick" => options.quick = true,
            "--chrome-trace" => {
                options.chrome_trace =
                    Some(it.next().ok_or("--chrome-trace needs a value")?.clone());
            }
            "--prometheus" => {
                options.prometheus = Some(it.next().ok_or("--prometheus needs a value")?.clone());
            }
            "--golden" => {
                options.golden = it.next().ok_or("--golden needs a value")?.clone();
            }
            "--out" => {
                options.out = Some(it.next().ok_or("--out needs a value")?.clone());
            }
            "--jsonl" => {
                options.jsonl = Some(it.next().ok_or("--jsonl needs a value")?.clone());
            }
            "--top-misses" => {
                let value = it.next().ok_or("--top-misses needs a value")?;
                options.top_misses = value
                    .parse()
                    .map_err(|_| format!("bad top-misses count: {value}"))?;
                if options.top_misses == 0 {
                    return Err("top-misses must be at least 1".to_owned());
                }
            }
            "--listen" => {
                options.listen = Some(it.next().ok_or("--listen needs a value")?.clone());
            }
            "--connect" => {
                options.connect = Some(it.next().ok_or("--connect needs a value")?.clone());
            }
            "--uds" => {
                options.uds = Some(it.next().ok_or("--uds needs a value")?.clone());
            }
            "--metrics" => {
                options.metrics = Some(it.next().ok_or("--metrics needs a value")?.clone());
            }
            "--shards" => {
                let value = it.next().ok_or("--shards needs a value")?;
                let shards: usize = value
                    .parse()
                    .map_err(|_| format!("bad shard count: {value}"))?;
                if shards == 0 {
                    return Err("shard count must be at least 1".to_owned());
                }
                options.shards = Some(shards);
            }
            "--rate" => {
                let value = it.next().ok_or("--rate needs a value")?;
                let rate: u64 = value.parse().map_err(|_| format!("bad rate: {value}"))?;
                if rate == 0 {
                    return Err("rate must be at least 1 event/s".to_owned());
                }
                options.rate = Some(rate);
            }
            "--interleave" => options.interleave = true,
            "--flight-dump" => {
                options.flight_dump = Some(it.next().ok_or("--flight-dump needs a value")?.clone());
            }
            "--once" => options.once = true,
            "--interval" => {
                let value = it.next().ok_or("--interval needs a value")?;
                let interval: f64 = value
                    .parse()
                    .map_err(|_| format!("bad interval: {value}"))?;
                if !interval.is_finite() || interval <= 0.0 {
                    return Err("interval must be positive".to_owned());
                }
                options.interval = interval;
            }
            "--iterations" => {
                let value = it.next().ok_or("--iterations needs a value")?;
                let iterations: u64 = value
                    .parse()
                    .map_err(|_| format!("bad iteration count: {value}"))?;
                if iterations == 0 {
                    return Err("iterations must be at least 1".to_owned());
                }
                options.iterations = Some(iterations);
            }
            "--journal" => {
                options.journal = Some(it.next().ok_or("--journal needs a value")?.clone());
            }
            "--hist-out" => {
                options.hist_out = Some(it.next().ok_or("--hist-out needs a value")?.clone());
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            other => options.positional.push(other.to_owned()),
        }
    }
    Ok(options)
}

fn find_app(name: &str) -> Result<PaperApp, String> {
    PaperApp::ALL
        .into_iter()
        .find(|a| a.name() == name)
        .ok_or_else(|| format!("unknown application {name}"))
}

/// The shared front half of `pcap audit` / `pcap explain`: generates
/// one app's trace and audits it under the base PCAP manager. The
/// audited simulation is serial by construction; `--jobs` only fans
/// out stream preparation, so the decision stream is byte-identical
/// for any job count.
fn audit_outcome(name: &str, options: &Options) -> Result<pcap_sim::AuditOutcome, String> {
    let app = find_app(name)?;
    let trace = app
        .spec()
        .generate_trace(options.seed)
        .map_err(|e| e.to_string())?;
    let config = SimConfig::paper();
    let prepared = pcap_sim::PreparedTrace::build_par(
        &trace,
        &config,
        &pcap_sim::SweepRunner::new(options.jobs),
    );
    Ok(pcap_sim::audit_prepared(
        &prepared,
        &config,
        pcap_sim::PowerManagerKind::PCAP,
    ))
}

fn emit(tables: &[pcap_report::Table], csv: bool) {
    for table in tables {
        if csv {
            print!("{}", table.to_csv());
        } else {
            println!("{table}");
        }
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = parse_args(&args)?;
    let mut positional = options.positional.iter();
    let command = positional.next().map(String::as_str).unwrap_or("help");
    let journaled = matches!(command, "run" | "sweep");
    if options.journal.is_some() && !journaled {
        return Err(format!(
            "--journal applies to run and sweep only, not {command}"
        ));
    }
    if options.prometheus.is_some() && journaled && options.journal.is_none() {
        return Err(format!(
            "--prometheus on {command} exports journal progress and needs --journal FILE"
        ));
    }
    match command {
        "list" => {
            for e in Experiment::ALL {
                println!("{e}");
            }
            Ok(())
        }
        "run" => {
            let name = positional.next().ok_or("run needs an experiment name")?;
            let experiment =
                Experiment::by_name(name).ok_or_else(|| format!("unknown experiment {name}"))?;
            let bench = Workbench::generate_par(options.seed, SimConfig::paper(), options.jobs)
                .map_err(|e| e.to_string())?;
            if let Some(path) = &options.journal {
                let hash = run_grid_journal_config(bench.seed(), bench.config(), &GRID_KINDS);
                with_journal("run", path, hash, &options, |journal| {
                    bench.warm_up_journaled(&GRID_KINDS, options.jobs, journal)
                })?;
            }
            emit(&experiment.run(&bench), options.csv);
            Ok(())
        }
        "chart" => {
            let name = positional.next().ok_or("chart needs a figure name")?;
            let figure = Figure::by_name(name).ok_or_else(|| format!("no chart for {name}"))?;
            let bench = Workbench::generate_par(options.seed, SimConfig::paper(), options.jobs)
                .map_err(|e| e.to_string())?;
            print!("{}", figure_chart(&bench, figure));
            Ok(())
        }
        "all" => {
            // One seed's workbench at a time; only its sweep reports
            // outlive it.
            let seeds = options.seeds.clone().unwrap_or_else(|| vec![options.seed]);
            let mut per_seed = Vec::with_capacity(seeds.len());
            for &seed in &seeds {
                let bench = Workbench::generate_par(seed, SimConfig::paper(), options.jobs)
                    .map_err(|e| e.to_string())?;
                bench.warm_up(&GRID_KINDS, options.jobs);
                if seeds.len() > 1 {
                    if options.csv {
                        println!("# seed {seed}");
                    } else {
                        println!("===== seed {seed} =====\n");
                    }
                }
                for experiment in Experiment::ALL {
                    emit(&experiment.run(&bench), options.csv);
                }
                per_seed.push(bench.reports(&SWEEP_KINDS));
            }
            if seeds.len() > 1 {
                if options.csv {
                    println!("# sweep");
                } else {
                    println!("===== sweep =====\n");
                }
                emit(&[sweep_table(&seeds, &per_seed, &SWEEP_KINDS)], options.csv);
            }
            Ok(())
        }
        "sweep" => {
            if let Some(devices) = options.devices {
                return run_fleet_sweep(devices, &options);
            }
            let seeds = options
                .seeds
                .clone()
                .unwrap_or_else(|| (GOLDEN_SEED..GOLDEN_SEED + 5).collect());
            let config = SimConfig::paper();
            let per_seed = match &options.journal {
                Some(path) => {
                    let hash = sweep_journal_config(&seeds, &config, &SWEEP_KINDS);
                    with_journal("sweep", path, hash, &options, |journal| {
                        run_sweep_journaled(&seeds, &config, &SWEEP_KINDS, options.jobs, journal)
                    })?
                }
                None => run_sweep(&seeds, &config, &SWEEP_KINDS, options.jobs)
                    .map_err(|e| e.to_string())?,
            };
            emit(&[sweep_table(&seeds, &per_seed, &SWEEP_KINDS)], options.csv);
            Ok(())
        }
        "verify" => {
            let bench = Workbench::generate_par(options.seed, SimConfig::paper(), options.jobs)
                .map_err(|e| e.to_string())?;
            bench.warm_up(&GRID_KINDS, options.jobs);
            let dir = std::path::Path::new(&options.golden);
            if options.update {
                write_snapshot(&bench, dir).map_err(|e| e.to_string())?;
                eprintln!(
                    "pcap: golden snapshot updated in {} (seed {})",
                    dir.display(),
                    bench.seed()
                );
                return Ok(());
            }
            let check = verify_snapshot(&bench, dir).map_err(|e| e.to_string())?;
            if check.drifts.is_empty() {
                eprintln!(
                    "pcap: golden snapshot OK ({} files, seed {})",
                    check.files,
                    bench.seed()
                );
                Ok(())
            } else {
                for drift in &check.drifts {
                    eprintln!("pcap: drift: {drift}");
                }
                Err(format!(
                    "{} file(s) drifted from {} — if intentional, re-bless with `pcap verify --update`",
                    check.drifts.len(),
                    dir.display()
                ))
            }
        }
        "gen" => {
            let name = positional.next().ok_or("gen needs an application name")?;
            let app = find_app(name)?;
            let trace = app
                .spec()
                .generate_trace(options.seed)
                .map_err(|e| e.to_string())?;
            match options.out {
                Some(path) => {
                    let file = std::fs::File::create(&path).map_err(|e| e.to_string())?;
                    write_jsonl(&trace, std::io::BufWriter::new(file))
                        .map_err(|e| e.to_string())?;
                    eprintln!("wrote {} runs to {path}", trace.runs.len());
                }
                None => {
                    let stdout = std::io::stdout();
                    write_jsonl(&trace, stdout.lock()).map_err(|e| e.to_string())?;
                }
            }
            Ok(())
        }
        "profile" => {
            // Without an application, profile the whole report pipeline
            // instead of one app's workload (Table 1 row).
            let Some(name) = positional.next() else {
                return run_pipeline_profile(&options);
            };
            let app = find_app(name)?;
            let trace = app
                .spec()
                .generate_trace(options.seed)
                .map_err(|e| e.to_string())?;
            let config = SimConfig::paper();
            // One preparation feeds both the profile and the histogram.
            let prepared = pcap_sim::PreparedTrace::build(&trace, &config);
            let profile = WorkloadProfile::of_prepared(&prepared, &config);
            println!(
                "{}",
                serde_json::to_string_pretty(&profile).map_err(|e| e.to_string())?
            );
            // Gap-length histogram over the merged disk-access stream:
            // the simulator's gaps, completion to next arrival.
            let histogram = pcap_trace::idle::GapHistogram::of(
                prepared
                    .streams()
                    .iter()
                    .flat_map(|streams| streams.global_gaps.iter().copied()),
                pcap_trace::idle::GapHistogram::bounds_for_power_management(),
            );
            println!(
                "
idle-gap distribution (all executions):"
            );
            print!("{}", histogram.render());
            Ok(())
        }
        "inspect" => {
            let name = positional
                .next()
                .ok_or("inspect needs an application name")?;
            let run_idx: usize = positional
                .next()
                .ok_or("inspect needs an execution number")?
                .parse()
                .map_err(|e| format!("bad execution number: {e}"))?;
            let app = find_app(name)?;
            let spec = app.spec();
            let config = SimConfig::paper();
            // Audit the earlier executions too, so the prediction table
            // carries its cross-execution training (§4.2) into the
            // inspected run.
            let mut trace = pcap_trace::ApplicationTrace::new(name.as_str());
            for j in 0..=run_idx {
                let run = spec
                    .generate_run(options.seed, j)
                    .map_err(|e| e.to_string())?;
                trace.runs.push(run);
            }
            let prepared = pcap_sim::PreparedTrace::build(&trace, &config);
            let outcome =
                pcap_sim::audit_prepared(&prepared, &config, pcap_sim::PowerManagerKind::PCAP);
            let log: Vec<_> = outcome
                .records
                .iter()
                .filter(|g| g.run as usize == run_idx)
                .collect();
            println!(
                "{name} execution {run_idx}: {} disk accesses, {} idle gaps (PCAP manager)\n",
                prepared.streams()[run_idx].accesses.len(),
                log.len()
            );
            println!(
                "{:>6} {:>8} {:>12} {:>10} {:>14} {:>8}",
                "gap#", "pid", "start", "length", "shutdown", "verdict"
            );
            for g in log
                .iter()
                .filter(|g| g.verdict != pcap_sim::GapVerdict::Short)
            {
                let shutdown = g.shutdown_at.zip(g.shutdown_source).map_or_else(
                    || "-".to_owned(),
                    |(at, source)| format!("{:.2}s ({source})", at.as_secs_f64()),
                );
                println!(
                    "{:>6} {:>8} {:>11.2}s {:>9.2}s {:>14} {:>8}",
                    g.access,
                    g.pid.0,
                    g.at.as_secs_f64(),
                    g.global_gap.as_secs_f64(),
                    shutdown,
                    match g.verdict {
                        pcap_sim::GapVerdict::Hit => "HIT",
                        pcap_sim::GapVerdict::Miss => "MISS",
                        pcap_sim::GapVerdict::NotPredicted => "not-pred",
                        pcap_sim::GapVerdict::Short => "short",
                    }
                );
            }
            Ok(())
        }
        "audit" => {
            let name = positional.next().ok_or("audit needs an application name")?;
            let outcome = audit_outcome(name, &options)?;
            if let Some(path) = &options.jsonl {
                let log = pcap_sim::records_to_jsonl(&outcome.records);
                std::fs::write(path, log).map_err(|e| format!("{path}: {e}"))?;
                eprintln!(
                    "pcap: wrote {} decision records to {path}",
                    outcome.records.len()
                );
            }
            emit(&audit_tables(&outcome, options.top_misses), options.csv);
            Ok(())
        }
        "explain" => {
            let name = positional
                .next()
                .ok_or("explain needs an application name")?;
            let outcome = audit_outcome(name, &options)?;
            emit(&explain_tables(&outcome), options.csv);
            Ok(())
        }
        "bench" => run_bench(&options),
        "serve" => run_serve(&options),
        "load" => run_load_client(&options),
        "top" => {
            let addr = positional
                .next()
                .ok_or("top needs a metrics address (host:port)")?;
            run_top(addr, &options)
        }
        "flight" => {
            let path = positional.next().ok_or("flight needs a dump file")?;
            run_flight(path)
        }
        "help" | "--help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other}\n{USAGE}")),
    }
}

/// Device count of the serve observability guard's replay (fixed
/// across `--quick` and full runs).
const SERVE_BENCH_DEVICES: u64 = 24;

/// `pcap profile` without an application: runs the full report
/// pipeline (generate → prepare → warm up the `app × manager` grid →
/// render the snapshot) with a [`TraceRecorder`] attached, prints the
/// per-stage and per-worker summaries, and optionally exports the raw
/// spans as a Chrome/Perfetto trace and the counters/histograms as
/// Prometheus text. Both exports are validated before they are
/// written; a file that fails its own schema check is a bug, not an
/// artifact.
fn run_pipeline_profile(options: &Options) -> Result<(), String> {
    let available = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if options.jobs > available {
        eprintln!(
            "pcap: warning: --jobs {} exceeds available parallelism ({available}); \
             extra workers will only contend for cores",
            options.jobs
        );
    }
    let recorder = TraceRecorder::new();
    let summary = profile_pipeline(options.seed, options.jobs, options.quick, &recorder)
        .map_err(|e| e.to_string())?;
    println!(
        "pipeline profile (seed {}, jobs {}, {}): {} apps, {} runs, {} grid cells, {} files, {:.3}s",
        options.seed,
        options.jobs,
        if options.quick { "quick" } else { "full" },
        summary.apps,
        summary.runs,
        summary.cells,
        summary.files,
        recorder.elapsed_us() as f64 / 1e6,
    );
    println!();
    print!("{}", render_stage_table(&stage_summary(&recorder.events())));
    println!();
    print!(
        "{}",
        worker_summary(&recorder.workers(), recorder.slowest().as_ref())
    );
    if let Some(path) = &options.chrome_trace {
        let trace = render_chrome_trace(&recorder);
        let stats = validate_chrome_trace(&trace)
            .map_err(|e| format!("internal error: invalid chrome trace: {e}"))?;
        std::fs::write(path, &trace).map_err(|e| format!("{path}: {e}"))?;
        eprintln!(
            "pcap: wrote {} spans on {} tracks to {path} (load in ui.perfetto.dev or chrome://tracing)",
            stats.spans, stats.tracks
        );
    }
    if let Some(path) = &options.prometheus {
        let text = render_prometheus(&recorder);
        let samples = validate_prometheus_strict(&text)
            .map_err(|e| format!("internal error: invalid prometheus exposition: {e}"))?;
        std::fs::write(path, &text).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("pcap: wrote {samples} metric samples to {path}");
    }
    Ok(())
}

/// `pcap sweep --devices N`: streams an N-device fleet through the
/// fused generate → filter → evaluate pipeline (bounded memory in the
/// device count) and prints the per-app/total fleet table. `--quick`
/// caps every device at [`QUICK_RUNS`] executions; output is
/// byte-identical for every `--jobs` value.
fn run_fleet_sweep(devices: u64, options: &Options) -> Result<(), String> {
    let pop = DevicePopulation::new(devices, options.seed);
    let max_runs = options.quick.then_some(QUICK_RUNS);
    let kind = pcap_sim::PowerManagerKind::PCAP;
    let config = SimConfig::paper();
    let runner = pcap_sim::SweepRunner::new(options.jobs);
    let report = match &options.journal {
        Some(path) => {
            let hash =
                pcap_sim::fleet_journal_config(devices, options.seed, max_runs, kind, &config);
            with_journal("sweep", path, hash, options, |journal| {
                pcap_sim::sweep_fleet_journaled(&pop, &config, kind, &runner, max_runs, journal)
            })?
        }
        None => pcap_sim::sweep_fleet(&pop, &config, kind, &runner, max_runs)
            .map_err(|e| e.to_string())?,
    };
    emit(&[fleet_table(&report)], options.csv);
    Ok(())
}

/// The three journaled branches (`pcap run`, seed and fleet sweeps):
/// opens the journal at `path` pinned to `config_hash`, runs `driver`
/// against it, prints the progress summary on stderr and, with
/// `--prometheus FILE`, exports the `pcap_journal_*_total` counters,
/// validated before they are written.
fn with_journal<R>(
    command: &str,
    path: &str,
    config_hash: u64,
    options: &Options,
    driver: impl FnOnce(&mut Journal) -> Result<R, JournalError>,
) -> Result<R, String> {
    let mut journal = Journal::open(path, config_hash).map_err(|e| e.to_string())?;
    let result = driver(&mut journal).map_err(|e| e.to_string())?;
    eprintln!("pcap {command}: journal {}", journal.progress().summary());
    if let Some(path) = &options.prometheus {
        let text = render_journal_progress(journal.progress());
        validate_prometheus_strict(&text)
            .map_err(|e| format!("internal error: invalid journal exposition: {e}"))?;
        std::fs::write(path, &text).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("pcap: wrote journal progress metrics to {path}");
    }
    Ok(result)
}

/// Parses a `host:port` flag value with a named error.
fn parse_addr(value: &str, what: &str) -> Result<std::net::SocketAddr, String> {
    value
        .parse()
        .map_err(|_| format!("bad {what} address: {value} (expected host:port)"))
}

/// Builds a [`pcap_serve::ServeConfig`] from the shared flags.
fn serve_config(options: &Options) -> pcap_serve::ServeConfig {
    let mut config = pcap_serve::ServeConfig::default();
    if let Some(shards) = options.shards {
        config.shards = shards;
    }
    config
}

/// Signal plumbing for `pcap serve`. The handlers only flip atomics;
/// the serve loop polls them and does the work outside signal context
/// (file I/O and thread joins are not async-signal-safe).
#[cfg(target_os = "linux")]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Set by `SIGUSR1`, cleared by the serve loop: dump the flight
    /// recorder.
    pub static DUMP: AtomicBool = AtomicBool::new(false);

    /// Set by `SIGTERM` or `SIGINT`: shut the daemon down.
    pub static STOP: AtomicBool = AtomicBool::new(false);

    /// Signal numbers on Linux.
    const SIGINT: i32 = 2;
    const SIGUSR1: i32 = 10;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_dump(_: i32) {
        DUMP.store(true, Ordering::Release);
    }

    extern "C" fn on_stop(_: i32) {
        STOP.store(true, Ordering::Release);
    }

    /// Installs the handlers; called once before the serve loop.
    pub fn install() {
        // SAFETY: libc `signal` with handlers that only store to a
        // static atomic — async-signal-safe by construction.
        unsafe {
            signal(SIGUSR1, on_dump);
            signal(SIGTERM, on_stop);
            signal(SIGINT, on_stop);
        }
    }
}

/// Dumps the flight recorder's current contents to `path` (atomic
/// rename, so a scraper never reads a half-written file). Shared by
/// the SIGUSR1 and panic paths of `pcap serve`.
fn dump_flight(flight: &pcap_obs::FlightRecorder, path: &str, why: &str) {
    let dump = flight.dump_jsonl();
    let events = dump.lines().count();
    match pcap_sim::atomic_write(path, dump.as_bytes()) {
        Ok(()) => eprintln!("pcap serve: {why}: dumped {events} flight events to {path}"),
        Err(e) => eprintln!("pcap serve: {why}: flight dump to {path} failed: {e}"),
    }
}

/// `pcap serve`: starts the online sharded decision daemon on the
/// requested endpoints and runs until `SIGTERM` or `SIGINT`, then
/// shuts it down (queues drained, threads joined, socket files
/// removed) and returns. With `--metrics ADDR`
/// the live counters are scrapeable as Prometheus text at
/// `http://ADDR/metrics` (sampled audit records at `/audit`, the
/// flight recorder at `/debug/flight`). `SIGUSR1` — and any panic —
/// dumps the flight recorder to the `--flight-dump` path.
fn run_serve(options: &Options) -> Result<(), String> {
    let mut endpoints = Vec::new();
    if let Some(listen) = &options.listen {
        endpoints.push(pcap_serve::Endpoint::Tcp(parse_addr(listen, "listen")?));
    }
    if let Some(uds) = &options.uds {
        endpoints.push(pcap_serve::Endpoint::Uds(uds.into()));
    }
    if endpoints.is_empty() {
        return Err("serve needs --listen ADDR and/or --uds PATH".to_owned());
    }
    let metrics_http = options
        .metrics
        .as_deref()
        .map(|a| parse_addr(a, "metrics"))
        .transpose()?;
    let config = serve_config(options);
    let shards = config.shards;
    // Before the sockets exist, so a client that sees one can signal.
    #[cfg(target_os = "linux")]
    signals::install();
    let handle = pcap_serve::start(config, &endpoints, metrics_http).map_err(|e| e.to_string())?;
    for endpoint in &endpoints {
        match endpoint {
            pcap_serve::Endpoint::Tcp(_) => {
                if let Some(addr) = handle.tcp_addr() {
                    eprintln!("pcap serve: listening on tcp {addr} ({shards} shards)");
                }
            }
            pcap_serve::Endpoint::Uds(path) => {
                eprintln!(
                    "pcap serve: listening on uds {} ({shards} shards)",
                    path.display()
                );
            }
        }
    }
    if let Some(addr) = handle.metrics_addr() {
        eprintln!("pcap serve: metrics at http://{addr}/metrics");
    }
    let flight = handle.flight().clone();
    let flight_dump = options
        .flight_dump
        .clone()
        .unwrap_or_else(|| "pcap-flight.jsonl".to_owned());
    // Panic dump: a crashing daemon leaves its last few thousand
    // events behind for the postmortem. Chains the default hook so the
    // panic message and backtrace still print.
    {
        let flight = flight.clone();
        let path = flight_dump.clone();
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            dump_flight(&flight, &path, "panic");
            previous(info);
        }));
    }
    eprintln!("pcap serve: flight dumps to {flight_dump} (SIGUSR1 or panic)");
    // Test hook: exercises the panic-dump path end to end without
    // needing a real crash (`crates/cli/tests`).
    if std::env::var_os("PCAP_SERVE_SELFTEST_PANIC").is_some() {
        std::thread::sleep(std::time::Duration::from_millis(200));
        panic!("selftest panic requested via PCAP_SERVE_SELFTEST_PANIC");
    }
    // The daemon serves until SIGTERM or SIGINT. The short poll is what
    // turns a pending signal into a dump or a shutdown.
    loop {
        std::thread::sleep(std::time::Duration::from_millis(200));
        #[cfg(target_os = "linux")]
        {
            use std::sync::atomic::Ordering;
            if signals::DUMP.swap(false, Ordering::Acquire) {
                dump_flight(&flight, &flight_dump, "SIGUSR1");
            }
            if signals::STOP.load(Ordering::Acquire) {
                break;
            }
        }
    }
    eprintln!("pcap serve: stopping");
    handle.shutdown();
    Ok(())
}

/// Renders a latency histogram as a small JSON artifact (per-bucket
/// bounds and counts plus summary quantiles).
fn hist_to_json(hist: &pcap_obs::LogHistogram) -> String {
    let buckets: Vec<serde::Value> = hist
        .counts()
        .iter()
        .enumerate()
        .filter(|(_, &count)| count > 0)
        .map(|(index, &count)| {
            let (lo, hi) = pcap_obs::LogHistogram::bucket_bounds(index);
            serde::Value::Object(vec![
                ("lo_us".into(), serde::Value::UInt(lo)),
                ("hi_us".into(), serde::Value::UInt(hi)),
                ("count".into(), serde::Value::UInt(count)),
            ])
        })
        .collect();
    let doc = serde::Value::Object(vec![
        ("unit".into(), serde::Value::Str("us".to_owned())),
        ("total".into(), serde::Value::UInt(hist.total())),
        ("p50_us".into(), serde::Value::UInt(hist.quantile(0.50))),
        ("p90_us".into(), serde::Value::UInt(hist.quantile(0.90))),
        ("p99_us".into(), serde::Value::UInt(hist.quantile(0.99))),
        ("buckets".into(), serde::Value::Array(buckets)),
    ]);
    serde_json::to_string_pretty(&doc).expect("histogram JSON") + "\n"
}

/// `pcap load`: replays a generated device population against a
/// running daemon and reports achieved decision throughput plus the
/// `RunEnd` → `RunSummary` latency distribution.
fn run_load_client(options: &Options) -> Result<(), String> {
    let endpoint = match (&options.uds, &options.connect) {
        (Some(_), Some(_)) => {
            return Err("load takes either --uds PATH or --connect ADDR, not both".to_owned())
        }
        (Some(uds), None) => pcap_serve::Endpoint::Uds(uds.into()),
        (None, Some(addr)) => pcap_serve::Endpoint::Tcp(parse_addr(addr, "connect")?),
        (None, None) => return Err("load needs --uds PATH or --connect ADDR".to_owned()),
    };
    let devices = options.devices.unwrap_or(6);
    let max_runs = options.quick.then_some(QUICK_RUNS);
    let order = if options.interleave {
        pcap_workload::ReplayOrder::Interleaved
    } else {
        pcap_workload::ReplayOrder::DeviceMajor
    };
    let plan = pcap_workload::ReplayPlan::new(
        DevicePopulation::new(devices, options.seed),
        max_runs,
        order,
    );
    let load_options = pcap_serve::LoadOptions {
        events_per_sec: options.rate,
    };
    let report =
        pcap_serve::run_load(&endpoint, &plan, &load_options).map_err(|e| e.to_string())?;
    println!(
        "pcap load: {} devices, {} runs ({} rejected), {} events in {:.3}s",
        report.devices_done, report.runs, report.run_rejects, report.events, report.elapsed_s
    );
    println!(
        "pcap load: {} decisions ({:.0} decisions/s)",
        report.decisions, report.decisions_per_s
    );
    println!(
        "pcap load: run latency p50 {} us, p90 {} us, p99 {} us ({} runs acked)",
        report.run_latency_us.quantile(0.50),
        report.run_latency_us.quantile(0.90),
        report.run_latency_us.quantile(0.99),
        report.run_latency_us.total()
    );
    if let Some(path) = &options.hist_out {
        std::fs::write(path, hist_to_json(&report.run_latency_us))
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("pcap load: wrote latency histogram to {path}");
    }
    if report.timed_out {
        return Err(format!(
            "load timed out: {} of {devices} devices retired before the deadline",
            report.devices_done
        ));
    }
    Ok(())
}

/// Minimal HTTP/1.0 GET against the daemon's metrics endpoint;
/// returns the response body of a 200, an error line otherwise.
fn http_get(addr: &str, path: &str) -> Result<String, String> {
    use std::io::Read as _;
    let timeout = std::time::Duration::from_secs(5);
    let sock = parse_addr(addr, "metrics")?;
    let mut stream =
        std::net::TcpStream::connect_timeout(&sock, timeout).map_err(|e| format!("{addr}: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    write!(
        stream,
        "GET {path} HTTP/1.0\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("{addr}: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("{addr}: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{addr}{path}: malformed HTTP response"))?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200") {
        return Err(format!("{addr}{path}: {status}"));
    }
    Ok(body.to_owned())
}

/// Formats a histogram quantile for the top table (the clamp bucket
/// renders as `inf`).
fn fmt_bound(value: u64) -> String {
    if value == u64::MAX {
        "inf".to_owned()
    } else {
        value.to_string()
    }
}

/// Renders one `pcap top` frame. Counter rates come from deltas
/// against the previous poll (`(uptime, samples)`); the first frame
/// rates against uptime instead. Stage quantiles are lifetime values
/// from the cumulative histograms, not per-window.
fn print_top_frame(addr: &str, samples: &[PromSample], prev: Option<&(f64, Vec<PromSample>)>) {
    let value = |name: &str, labels: &[(&str, &str)]| scraped_value(samples, name, labels);
    let uptime = value("pcap_uptime_seconds", &[]);
    let rate = |name: &str, labels: &[(&str, &str)]| -> f64 {
        let cur = value(name, labels);
        match prev {
            Some((prev_uptime, prev_samples)) => {
                let dt = (uptime - prev_uptime).max(1e-9);
                ((cur - scraped_value(prev_samples, name, labels)) / dt).max(0.0)
            }
            None => cur / uptime.max(1e-9),
        }
    };
    println!(
        "pcap top — {addr} — uptime {uptime:.1}s — {:.0} devices active",
        value("pcap_serve_devices_active", &[])
    );
    println!(
        "decisions {:.0} ({:.0}/s)   frames {:.0} ({:.0}/s)   runs {:.0} ({:.1}/s)   \
         bad frames {:.0} ({:.2}/s)",
        value("pcap_serve_decisions_total", &[]),
        rate("pcap_serve_decisions_total", &[]),
        value("pcap_serve_frames_total", &[]),
        rate("pcap_serve_frames_total", &[]),
        value("pcap_serve_runs_total", &[]),
        rate("pcap_serve_runs_total", &[]),
        value("pcap_serve_bad_frames_total", &[]),
        rate("pcap_serve_bad_frames_total", &[]),
    );
    let mut shards: Vec<&str> = samples
        .iter()
        .filter(|s| s.name == "pcap_serve_shard_depth")
        .filter_map(|s| s.label("shard"))
        .collect();
    shards.sort_by_key(|s| s.parse::<u64>().unwrap_or(u64::MAX));
    println!(
        "{:>5} {:>6} {:>9} {:>8}  {:>15} {:>15} {:>15} {:>15}",
        "shard",
        "depth",
        "proc/s",
        "runs/s",
        "decode p50/99ns",
        "qwait p50/99us",
        "eval p50/99us",
        "enc p50/99us"
    );
    for shard in shards {
        let labels = [("shard", shard)];
        let quantiles = |family: &str| -> String {
            let hist = scraped_histogram(samples, family, &labels);
            format!(
                "{}/{}",
                fmt_bound(hist.quantile(0.50)),
                fmt_bound(hist.quantile(0.99))
            )
        };
        println!(
            "{:>5} {:>6.0} {:>9.1} {:>8.2}  {:>15} {:>15} {:>15} {:>15}",
            shard,
            value("pcap_serve_shard_depth", &labels),
            rate("pcap_serve_shard_processed_total", &labels),
            rate("pcap_serve_shard_runs_total", &labels),
            quantiles("pcap_serve_stage_decode_ns"),
            quantiles("pcap_serve_stage_queue_wait_us"),
            quantiles("pcap_serve_stage_eval_us"),
            quantiles("pcap_serve_stage_encode_us"),
        );
    }
    println!();
}

/// `pcap top ADDR`: polls a daemon's `/metrics` endpoint and renders
/// a live per-shard view — throughput from counter deltas between
/// polls, queue depths, and stage-latency quantiles. Every scrape is
/// strict-validated first: a daemon whose exposition loses its
/// `# HELP`/`# TYPE` metadata fails the view rather than rendering
/// garbage.
fn run_top(addr: &str, options: &Options) -> Result<(), String> {
    let frames = if options.once {
        1
    } else {
        options.iterations.unwrap_or(u64::MAX)
    };
    let interval = std::time::Duration::from_secs_f64(options.interval);
    let mut prev: Option<(f64, Vec<PromSample>)> = None;
    for frame in 0..frames {
        if frame > 0 {
            std::thread::sleep(interval);
        }
        let body = http_get(addr, "/metrics")?;
        validate_prometheus_strict(&body)
            .map_err(|e| format!("{addr}: invalid /metrics exposition: {e}"))?;
        let samples = parse_prometheus_samples(&body).map_err(|e| format!("{addr}: {e}"))?;
        print_top_frame(addr, &samples, prev.as_ref());
        let uptime = scraped_value(&samples, "pcap_uptime_seconds", &[]);
        prev = Some((uptime, samples));
    }
    Ok(())
}

/// `pcap flight FILE`: validates a flight-recorder JSONL dump (line
/// shape, known event kinds, per-ring monotone timestamps) and prints
/// its stats; a malformed dump is a nonzero exit.
fn run_flight(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let stats =
        validate_flight_dump(&text).map_err(|e| format!("{path}: invalid flight dump: {e}"))?;
    println!(
        "pcap flight: {path}: {} events across {} rings",
        stats.events, stats.rings
    );
    Ok(())
}

/// The budget of every `pcap bench` guard: an observability feature may
/// cost at most 2% of the path it instruments.
const OVERHEAD_LIMIT: f64 = 0.02;

/// Prints one guard's signed overhead ratio and fails the command when
/// an enforced guard reaches [`OVERHEAD_LIMIT`].
fn overhead_guard(name: &str, arms: &str, overhead: f64, enforced: bool) -> Result<(), String> {
    let line = format!(
        "{name} guard: {arms} ({:+.2}% overhead, limit {:.0}%{})",
        overhead * 100.0,
        OVERHEAD_LIMIT * 100.0,
        if enforced {
            ""
        } else {
            ", not enforced in debug builds"
        }
    );
    eprintln!("pcap bench: {line}");
    if enforced && overhead >= OVERHEAD_LIMIT {
        return Err(format!("guard violated: {line}"));
    }
    Ok(())
}

/// `pcap bench`: the three overhead guards nothing else enforces.
/// Throughput, latency and per-layer costs are measured by the
/// `benchmark/` package, not here.
///
/// * observer (DESIGN.md §8): the engine with `NullObserver` must not
///   run measurably slower than with the cheapest attached sink;
/// * tracing (DESIGN.md §10): wrapping each evaluation in `pcap
///   profile`'s recording `eval:` span must cost under 2%;
/// * serve (DESIGN.md §15): the daemon's flight recorder and stage
///   histograms must cost under 2% of replay throughput.
///
/// The tracing and serve ratios only mean anything with optimizations
/// on — a debug build inflates the constant per-call cost roughly
/// tenfold — so debug builds print them without enforcing.
fn run_bench(options: &Options) -> Result<(), String> {
    use std::time::Instant;
    let mut bench = Workbench::generate_par(options.seed, SimConfig::paper(), options.jobs)
        .map_err(|e| e.to_string())?;
    if options.quick {
        bench = bench.truncated(QUICK_RUNS);
    }
    bench.prepare_all(options.jobs);
    let optimized = !cfg!(debug_assertions);

    // Three arms over the PCAP column: no sink, the cheapest attached
    // decision sink, and the pipeline tracer recording.
    let eval_null = || {
        for idx in 0..bench.traces().len() {
            let report = pcap_sim::evaluate_prepared(
                bench.prepared(idx),
                bench.config(),
                pcap_sim::PowerManagerKind::PCAP,
            );
            std::hint::black_box(&report);
        }
    };
    let eval_observed = || {
        for idx in 0..bench.traces().len() {
            let mut sink = pcap_sim::MetricsObserver::default();
            let report = pcap_sim::evaluate_prepared_with(
                bench.prepared(idx),
                bench.config(),
                pcap_sim::PowerManagerKind::PCAP,
                &mut sink,
            );
            std::hint::black_box((&report, &sink.metrics));
        }
    };
    // The recording arm wraps each evaluation the way `pcap profile`
    // wraps a grid cell.
    let eval_traced = || {
        let recorder = TraceRecorder::new();
        for idx in 0..bench.traces().len() {
            let prepared = bench.prepared(idx);
            let kind = pcap_sim::PowerManagerKind::PCAP;
            let report = traced_eval(&recorder, prepared, kind, || {
                pcap_sim::evaluate_prepared(prepared, bench.config(), kind)
            });
            std::hint::black_box(&report);
        }
        std::hint::black_box(recorder.elapsed_us());
    };
    // Min of 15 single passes per arm, in rotated order, so clock
    // drift (burst-scheduled containers throttle mid-measurement)
    // cannot systematically favour whichever arm runs first. Jitter
    // only ever adds time, so the min converges on the true cost as
    // long as any one pass runs clean.
    let arms: [&dyn Fn(); 3] = [&eval_null, &eval_observed, &eval_traced];
    let mut mins = [f64::INFINITY; 3];
    for rep in 0..15 {
        for k in 0..arms.len() {
            let which = (rep + k) % arms.len();
            let t = Instant::now();
            arms[which]();
            mins[which] = mins[which].min(t.elapsed().as_secs_f64());
        }
    }
    let [null_s, observed_s, traced_s] = mins;
    overhead_guard(
        "observer",
        &format!("null sink {null_s:.3}s vs metrics sink {observed_s:.3}s"),
        null_s / observed_s - 1.0,
        true,
    )?;
    overhead_guard(
        "tracing",
        &format!("disabled {null_s:.3}s vs recording {traced_s:.3}s"),
        traced_s / null_s - 1.0,
        optimized,
    )?;

    // Serve arms: an in-process daemon on a temp UDS, replayed by the
    // load client unthrottled, fully instrumented (flight recorder and
    // stage histograms on) against both off. Interleaved best of 3 per
    // arm, so clock drift hits both alike.
    let mut best_dps = [0f64; 2];
    for rep in 0..3 {
        for (arm, best) in best_dps.iter_mut().enumerate() {
            let sock = std::env::temp_dir().join(format!(
                "pcap-bench-serve-{}-{rep}-{arm}.sock",
                std::process::id()
            ));
            let mut config = serve_config(options);
            if options.jobs > 0 {
                config.shards = options.jobs;
            }
            config.sample_every = 0; // measure the hot path, not the sampler
            config.instrumented = arm == 0;
            let handle =
                pcap_serve::start(config, &[pcap_serve::Endpoint::Uds(sock.clone())], None)
                    .map_err(|e| e.to_string())?;
            let plan = pcap_workload::ReplayPlan::new(
                DevicePopulation::new(SERVE_BENCH_DEVICES, options.seed),
                Some(QUICK_RUNS),
                pcap_workload::ReplayOrder::Interleaved,
            );
            let report = pcap_serve::run_load(
                &pcap_serve::Endpoint::Uds(sock),
                &plan,
                &pcap_serve::LoadOptions::default(),
            )
            .map_err(|e| e.to_string())?;
            handle.shutdown();
            if report.timed_out {
                return Err("serve bench timed out waiting for the daemon".to_owned());
            }
            *best = best.max(report.decisions_per_s);
        }
    }
    let [instrumented_dps, disabled_dps] = best_dps;
    overhead_guard(
        "serve",
        &format!(
            "{SERVE_BENCH_DEVICES} devices, instrumented {instrumented_dps:.0}/s vs \
             disabled {disabled_dps:.0}/s"
        ),
        disabled_dps / instrumented_dps.max(1e-9) - 1.0,
        optimized,
    )
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            let _ = writeln!(std::io::stderr(), "pcap: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_defaults() {
        let o = parse_args(&args(&["run", "fig7"])).unwrap();
        assert_eq!(o.seed, 42);
        assert!(!o.csv);
        assert_eq!(o.positional, vec!["run", "fig7"]);
    }

    #[test]
    fn parses_flags_anywhere() {
        let o = parse_args(&args(&["--seed", "7", "run", "--csv", "table1"])).unwrap();
        assert_eq!(o.seed, 7);
        assert!(o.csv);
        assert_eq!(o.positional, vec!["run", "table1"]);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&args(&["--seed"])).is_err());
        assert!(parse_args(&args(&["--seed", "x"])).is_err());
        assert!(parse_args(&args(&["--bogus"])).is_err());
        assert!(parse_args(&args(&["--out"])).is_err());
        assert!(parse_args(&args(&["--jobs", "many"])).is_err());
        assert!(parse_args(&args(&["--seeds", "46..42"])).is_err());
    }

    #[test]
    fn parses_devices_flag() {
        let o = parse_args(&args(&["sweep", "--devices", "1000", "--quick"])).unwrap();
        assert_eq!(o.devices, Some(1000));
        assert!(o.quick);
        let o = parse_args(&args(&["sweep"])).unwrap();
        assert_eq!(o.devices, None);
    }

    #[test]
    fn rejects_bad_device_counts() {
        assert!(parse_args(&args(&["sweep", "--devices"])).is_err());
        assert!(parse_args(&args(&["sweep", "--devices", "x"])).is_err());
        let err = parse_args(&args(&["sweep", "--devices", "0"])).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn parses_parallel_flags() {
        let o = parse_args(&args(&["all", "--seeds", "42..46", "--jobs", "8"])).unwrap();
        assert_eq!(o.seeds.as_deref(), Some(&[42, 43, 44, 45][..]));
        assert_eq!(o.jobs, 8);
        let o = parse_args(&args(&["verify", "--update", "--golden", "g"])).unwrap();
        assert!(o.update);
        assert_eq!(o.golden, "g");
        assert_eq!(o.jobs, 0, "jobs defaults to all cores");
    }

    #[test]
    fn seed_ranges() {
        assert_eq!(parse_seed_range("42..46").unwrap(), vec![42, 43, 44, 45]);
        assert_eq!(parse_seed_range("42..=44").unwrap(), vec![42, 43, 44]);
        assert_eq!(parse_seed_range("7").unwrap(), vec![7]);
        assert!(parse_seed_range("5..5").is_err());
        assert!(parse_seed_range("a..b").is_err());
        assert!(parse_seed_range("0..5000").is_err());
    }

    #[test]
    fn parses_bench_flags() {
        let o = parse_args(&args(&["bench", "--quick", "--jobs", "2"])).unwrap();
        assert!(o.quick);
        assert_eq!(o.jobs, 2);
        let o = parse_args(&args(&["bench"])).unwrap();
        assert!(!o.quick, "quick is opt-in");
    }

    #[test]
    fn parses_audit_flags() {
        let o = parse_args(&args(&[
            "audit",
            "nedit",
            "--jsonl",
            "/tmp/a.jsonl",
            "--top-misses",
            "3",
        ]))
        .unwrap();
        assert_eq!(o.jsonl.as_deref(), Some("/tmp/a.jsonl"));
        assert_eq!(o.top_misses, 3);
        assert_eq!(o.positional, vec!["audit", "nedit"]);
        let o = parse_args(&args(&["audit", "nedit"])).unwrap();
        assert!(o.jsonl.is_none());
        assert_eq!(o.top_misses, 10, "top-misses defaults to 10");
    }

    #[test]
    fn rejects_bad_audit_flags() {
        assert!(parse_args(&args(&["audit", "nedit", "--jsonl"])).is_err());
        assert!(parse_args(&args(&["audit", "nedit", "--top-misses"])).is_err());
        let e = parse_args(&args(&["audit", "nedit", "--top-misses", "0"])).unwrap_err();
        assert!(e.contains("at least 1"), "{e}");
        let e = parse_args(&args(&["audit", "nedit", "--top-misses", "lots"])).unwrap_err();
        assert!(e.contains("bad top-misses"), "{e}");
    }

    #[test]
    fn parses_profile_flags() {
        let o = parse_args(&args(&[
            "profile",
            "--quick",
            "--chrome-trace",
            "/tmp/t.json",
            "--prometheus",
            "/tmp/m.prom",
        ]))
        .unwrap();
        assert!(o.quick);
        assert_eq!(o.chrome_trace.as_deref(), Some("/tmp/t.json"));
        assert_eq!(o.prometheus.as_deref(), Some("/tmp/m.prom"));
        assert_eq!(o.positional, vec!["profile"]);
        assert!(parse_args(&args(&["profile", "--chrome-trace"])).is_err());
        assert!(parse_args(&args(&["profile", "--prometheus"])).is_err());
    }

    #[test]
    fn parses_serve_and_load_flags() {
        let o = parse_args(&args(&[
            "serve",
            "--uds",
            "/tmp/p.sock",
            "--listen",
            "127.0.0.1:7070",
            "--metrics",
            "127.0.0.1:7071",
            "--shards",
            "4",
        ]))
        .unwrap();
        assert_eq!(o.uds.as_deref(), Some("/tmp/p.sock"));
        assert_eq!(o.listen.as_deref(), Some("127.0.0.1:7070"));
        assert_eq!(o.metrics.as_deref(), Some("127.0.0.1:7071"));
        assert_eq!(o.shards, Some(4));
        let o = parse_args(&args(&[
            "load",
            "--connect",
            "127.0.0.1:7070",
            "--rate",
            "50000",
            "--interleave",
            "--hist-out",
            "/tmp/h.json",
        ]))
        .unwrap();
        assert_eq!(o.connect.as_deref(), Some("127.0.0.1:7070"));
        assert_eq!(o.rate, Some(50_000));
        assert!(o.interleave);
        assert_eq!(o.hist_out.as_deref(), Some("/tmp/h.json"));
        let o = parse_args(&args(&["serve"])).unwrap();
        assert_eq!(o.shards, None, "shards defaults at the command");
        assert!(!o.interleave);
    }

    #[test]
    fn rejects_bad_serve_and_load_flags() {
        assert!(parse_args(&args(&["serve", "--shards"])).is_err());
        assert!(parse_args(&args(&["serve", "--listen"])).is_err());
        assert!(parse_args(&args(&["load", "--rate", "x"])).is_err());
        let e = parse_args(&args(&["serve", "--shards", "0"])).unwrap_err();
        assert!(e.contains("shard count must be at least 1"), "{e}");
        let e = parse_args(&args(&["load", "--rate", "0"])).unwrap_err();
        assert!(e.contains("rate must be at least 1"), "{e}");
        let e = parse_args(&args(&["serve", "--shards", "two"])).unwrap_err();
        assert!(e.contains("bad shard count"), "{e}");
    }

    #[test]
    fn bad_addresses_are_named_errors() {
        let e = parse_addr("notanaddr", "listen").unwrap_err();
        assert!(e.contains("bad listen address: notanaddr"), "{e}");
        let e = parse_addr("127.0.0.1", "connect").unwrap_err();
        assert!(e.contains("bad connect address"), "{e}");
        assert!(parse_addr("127.0.0.1:7070", "listen").is_ok());
    }

    #[test]
    fn parses_top_and_flight_flags() {
        let o = parse_args(&args(&["top", "127.0.0.1:7071", "--once"])).unwrap();
        assert!(o.once);
        assert_eq!(o.positional, vec!["top", "127.0.0.1:7071"]);
        let o = parse_args(&args(&[
            "top",
            "h:1",
            "--interval",
            "0.25",
            "--iterations",
            "3",
        ]))
        .unwrap();
        assert_eq!(o.interval, 0.25);
        assert_eq!(o.iterations, Some(3));
        let o = parse_args(&args(&[
            "serve",
            "--uds",
            "/tmp/x.sock",
            "--flight-dump",
            "/tmp/f.jsonl",
        ]))
        .unwrap();
        assert_eq!(o.flight_dump.as_deref(), Some("/tmp/f.jsonl"));
        let o = parse_args(&args(&["serve"])).unwrap();
        assert!(o.flight_dump.is_none(), "dump path defaults at the command");
        assert_eq!(o.interval, 1.0, "poll interval defaults to 1s");
        assert!(!o.once);
        assert_eq!(o.iterations, None, "top runs until killed by default");
    }

    #[test]
    fn rejects_bad_top_flags() {
        assert!(parse_args(&args(&["top", "h:1", "--interval"])).is_err());
        assert!(parse_args(&args(&["top", "h:1", "--interval", "0"])).is_err());
        assert!(parse_args(&args(&["top", "h:1", "--interval", "-1"])).is_err());
        assert!(parse_args(&args(&["top", "h:1", "--interval", "NaN"])).is_err());
        let e = parse_args(&args(&["top", "h:1", "--iterations", "0"])).unwrap_err();
        assert!(e.contains("at least 1"), "{e}");
        assert!(parse_args(&args(&["serve", "--flight-dump"])).is_err());
    }

    #[test]
    fn top_cells_read_scraped_quantiles() {
        let text = "\
# HELP x_us Stage latency.
# TYPE x_us histogram
x_us_bucket{shard=\"0\",le=\"0\"} 0
x_us_bucket{shard=\"0\",le=\"7\"} 90
x_us_bucket{shard=\"0\",le=\"63\"} 99
x_us_bucket{shard=\"0\",le=\"+Inf\"} 100
x_us_sum{shard=\"0\"} 1234
x_us_count{shard=\"0\"} 100
x_us_bucket{shard=\"1\",le=\"+Inf\"} 0
x_us_sum{shard=\"1\"} 0
x_us_count{shard=\"1\"} 0
";
        let samples = parse_prometheus_samples(text).unwrap();
        let shard0 = scraped_histogram(&samples, "x_us", &[("shard", "0")]);
        assert_eq!(fmt_bound(shard0.quantile(0.50)), "8");
        assert_eq!(fmt_bound(shard0.quantile(0.99)), "64");
        assert_eq!(fmt_bound(shard0.quantile(1.0)), "inf", "clamp bucket");
        let shard1 = scraped_histogram(&samples, "x_us", &[("shard", "1")]);
        assert_eq!(fmt_bound(shard1.quantile(0.50)), "0", "empty shard");
    }

    #[test]
    fn out_flag_captured() {
        let o = parse_args(&args(&["gen", "nedit", "--out", "/tmp/t.jsonl"])).unwrap();
        assert_eq!(o.out.as_deref(), Some("/tmp/t.jsonl"));
    }

    #[test]
    fn app_lookup() {
        assert!(find_app("mozilla").is_ok());
        assert!(find_app("emacs").is_err());
    }
}
