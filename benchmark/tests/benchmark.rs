//! The benchmark through its library entry point, on shrunken specs:
//! the metric catalogue matches `BENCHMARK.json`, correctness checks
//! catch a mutated report, the traced fleet decomposition reproduces
//! `sweep_fleet`, and `compare` flags a doubled latency.

use pcap_benchmark::compare::{compare, parse_records, read_gates, record_line, Status};
use pcap_benchmark::fleet::FleetSpec;
use pcap_benchmark::grid::GridSpec;
use pcap_benchmark::serve::ServeSpec;
use pcap_benchmark::{run, Outcome, Plan, Spec, Workload, END_TO_END, PER_LAYER};
use pcap_sim::{sweep_fleet, PowerManagerKind, SimConfig, SweepRunner};
use pcap_workload::DevicePopulation;
use serde::Value;
use std::path::{Path, PathBuf};

fn benchmark_json() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

fn shrunken(workload: Workload) -> Spec {
    let plan = match workload {
        Workload::FleetStream => Plan::Fleet(FleetSpec {
            devices: 13,
            max_runs: 1,
        }),
        Workload::GridJournaled => Plan::Grid(GridSpec::full()),
        Workload::ServeSaturate => Plan::Serve(ServeSpec {
            devices: 6,
            max_runs: 1,
            ..ServeSpec::saturate()
        }),
        Workload::ServePaced => Plan::Serve(ServeSpec {
            devices: 6,
            max_runs: 1,
            ..ServeSpec::paced()
        }),
    };
    Spec {
        plan,
        seconds: 0.2,
        setups: 1,
    }
}

/// `(name, unit)` of every metric one `BENCHMARK.json` list declares.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(benchmark_json()).expect("BENCHMARK.json");
    let root: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let Some(Value::Array(metrics)) = root.get(list) else {
        panic!("BENCHMARK.json lacks {list}");
    };
    metrics
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Value::Str(name)), Some(Value::Str(unit))) => (name.clone(), unit.clone()),
            _ => panic!("{list} entry without name and unit"),
        })
        .collect()
}

fn emitted(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|m| (m.name.to_owned(), m.unit.to_owned()))
        .collect()
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let valid = |name: &str| {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    };
    let to_owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), to_owned(&END_TO_END));
    assert_eq!(declared("per_layer"), to_owned(&PER_LAYER));
    for workload in Workload::ALL {
        for traced in [false, true] {
            let outcome = run(&shrunken(workload), 42, traced);
            let name = workload.name();
            assert!(outcome.correct(), "{name}: {:?}", outcome.errors);
            let want = if traced {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            assert_eq!(emitted(&outcome), to_owned(want), "{name} traced={traced}");
            for metric in &outcome.metrics {
                assert!(valid(metric.name), "{}", metric.name);
                assert!(metric.value.is_finite(), "{name}: {}", metric.name);
                if !traced {
                    assert!(metric.value > 0.0, "{name}: {} is 0", metric.name);
                }
            }
            let line: Value = serde_json::from_str(&outcome.json_line()).expect("json line");
            let keys: Vec<&str> = line
                .as_object()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
    }
}

#[test]
fn a_mutated_golden_report_fails_the_grid_check() {
    // A private copy of the golden reports with one cell altered.
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../golden");
    let copy = Path::new(env!("CARGO_TARGET_TMPDIR")).join("mutated-golden");
    let reports = copy.join("reports");
    std::fs::create_dir_all(&reports).expect("create copy");
    for entry in std::fs::read_dir(golden.join("reports")).expect("golden reports") {
        let entry = entry.expect("entry");
        std::fs::copy(entry.path(), reports.join(entry.file_name())).expect("copy");
    }
    let victim = reports.join("nedit.pcap.json");
    let body = std::fs::read_to_string(&victim).expect("nedit report");
    std::fs::write(
        &victim,
        body.replacen("\"table_aliases\"", "\"table_aliases \"", 1),
    )
    .expect("mutate");

    let mut spec = shrunken(Workload::GridJournaled);
    spec.plan = Plan::Grid(GridSpec { golden: copy });
    let outcome = run(&spec, 42, false);
    assert!(!outcome.correct());
    assert_eq!(outcome.failed, 1, "exactly the mutated cell fails");
    assert!(
        outcome.errors[0].contains("nedit×PCAP"),
        "{:?}",
        outcome.errors
    );
}

#[test]
fn traced_fleet_decomposition_matches_sweep_fleet() {
    let spec = shrunken(Workload::FleetStream);
    let outcome = run(&spec, 7, true);
    assert!(outcome.correct(), "{:?}", outcome.errors);
    let Plan::Fleet(fleet) = &spec.plan else {
        unreachable!("fleet spec")
    };
    let report = sweep_fleet(
        &DevicePopulation::new(fleet.devices, 7),
        &SimConfig::paper(),
        PowerManagerKind::PCAP,
        &SweepRunner::new(1),
        Some(fleet.max_runs),
    )
    .expect("sweep");
    let value = |name| outcome.metric(name).expect("metric").value;
    assert_eq!(value("sim_decisions"), report.total.accesses as f64);
    assert_eq!(
        value("sim_energy_savings").to_bits(),
        report.total.savings().to_bits()
    );
    let shares: f64 = outcome
        .metrics
        .iter()
        .filter(|m| m.name.starts_with("share."))
        .map(|m| m.value)
        .sum();
    assert!((shares - 1.0).abs() <= 0.05, "shares sum to {shares}");
}

#[test]
fn compare_flags_a_doubled_latency_as_worse() {
    let outcome = run(&shrunken(Workload::FleetStream), 42, false);
    assert!(outcome.correct(), "{:?}", outcome.errors);
    let baseline: String = (1..=5)
        .map(|seed| record_line("fleet-stream", seed, false, &outcome) + "\n")
        .collect();
    let mut slower = outcome.clone();
    for metric in &mut slower.metrics {
        if metric.name == "run_latency_p50_ms" {
            metric.value *= 2.0;
        }
    }
    let candidate: String = (1..=5)
        .map(|seed| record_line("fleet-stream", seed, false, &slower) + "\n")
        .collect();
    let gates = read_gates(&benchmark_json()).expect("gates");
    let a = parse_records(&baseline).expect("baseline");
    let b = parse_records(&candidate).expect("candidate");
    for verdict in compare(&a, &b, &gates) {
        let expected = if verdict.metric == "run_latency_p50_ms" {
            Status::Worse
        } else {
            Status::Pass
        };
        assert_eq!(verdict.status, expected, "{verdict:?}");
    }
    assert!(compare(&a, &a, &gates)
        .iter()
        .all(|v| v.status == Status::Pass));
}
