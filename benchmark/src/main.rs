//! `pcap-benchmark`: runs the repository benchmark or compares two
//! sets of its results. Run it from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml --bin pcap-benchmark -- \
//!     --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] \
//!     [--record FILE] [--chrome-trace DIR]
//! cargo run --release --manifest-path benchmark/Cargo.toml --bin pcap-benchmark -- \
//!     compare A.jsonl B.jsonl
//! ```
//!
//! A single workload prints its metrics, then one JSON result line as
//! the last line of standard output, and exits 1 when a correctness
//! check failed. `all` runs each workload in a process of its own, so
//! peak memory is per workload.

use pcap_benchmark::compare::{compare, parse_records, read_gates, record_line, Status};
use pcap_benchmark::{run, Workload};
use std::io::Write;
use std::path::Path;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  pcap-benchmark --workload <fleet-stream|grid-journaled|serve-saturate|serve-paced|all>
                 [--seed N] [--seconds S] [--trace 0|1] [--record FILE] [--chrome-trace DIR]
  pcap-benchmark compare A.jsonl B.jsonl

  --seed N          workload seed (default 42; 7 is the held-out seed)
  --seconds S       length of the measured window (default 20)
  --trace 1         traced run: per-layer metrics instead of end-to-end ones
  --record FILE     append the result to a set file for `compare`
  --chrome-trace DIR  traced run: write DIR/<workload>.json (Chrome trace events)";

struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    record: Option<String>,
    chrome_trace: Option<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: String::new(),
        seed: 42,
        seconds: 20.0,
        traced: false,
        record: None,
        chrome_trace: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => options.workload = value()?.clone(),
            "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                options.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(options.seconds > 0.0 && options.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                options.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--record" => options.record = Some(value()?.clone()),
            "--chrome-trace" => options.chrome_trace = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if options.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(options)
}

/// Runs every workload, each in a child process of its own.
fn run_all(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    for workload in Workload::ALL {
        let mut child_args = args.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "all")
            .expect("--workload all was given");
        child_args[at] = workload.name().to_owned();
        let status = Command::new(&exe)
            .args(&child_args)
            .status()
            .map_err(|e| format!("{}: {e}", workload.name()))?;
        all_correct &= status.success();
    }
    Ok(all_correct)
}

fn run_one(workload: Workload, options: &Options) -> Result<bool, String> {
    let spec = workload.spec(options.seconds);
    let outcome = run(&spec, options.seed, options.traced);
    println!(
        "{} seed={} {}: attempted {}, failed {}",
        workload.name(),
        options.seed,
        if options.traced { "traced" } else { "untraced" },
        outcome.attempted,
        outcome.failed
    );
    for metric in &outcome.metrics {
        match metric.spread {
            Some(s) => println!(
                "  {:<32} {:>16.6} {:<8} quartiles [{:.6}, {:.6}] n={}",
                metric.name, metric.value, metric.unit, s.q1, s.q3, s.n
            ),
            None => println!(
                "  {:<32} {:>16.6} {}",
                metric.name, metric.value, metric.unit
            ),
        }
    }
    if !outcome.table.is_empty() {
        print!("{}", outcome.table);
    }
    for error in &outcome.errors {
        eprintln!("{}: {error}", workload.name());
    }
    if let (Some(dir), Some(trace)) = (&options.chrome_trace, &outcome.chrome_trace) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
        let path = Path::new(dir).join(format!("{}.json", workload.name()));
        std::fs::write(&path, trace).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if let Some(path) = &options.record {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        let line = record_line(workload.name(), options.seed, options.traced, &outcome);
        writeln!(file, "{line}").map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", outcome.json_line());
    Ok(outcome.correct())
}

fn run_compare(a: &str, b: &str) -> Result<bool, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| parse_records(&text).map_err(|e| format!("{path}: {e}")))
    };
    let gates = read_gates(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))?;
    let verdicts = compare(&read(a)?, &read(b)?, &gates);
    for v in &verdicts {
        println!(
            "{:<16} {:<20} {:<10} {}",
            v.workload, v.metric, v.status, v.detail
        );
    }
    Ok(verdicts.iter().all(|v| v.status != Status::Worse))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => run_compare(a, b),
            _ => Err("compare takes two set files".to_owned()),
        },
        _ => parse(&args).and_then(|options| match options.workload.as_str() {
            "all" => run_all(&args),
            name => match Workload::parse(name) {
                Some(workload) => run_one(workload, &options),
                None => Err(format!("unknown workload {name}")),
            },
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("pcap-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
