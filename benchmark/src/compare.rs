//! `compare A B`: judges a set of runs (B) against a baseline set (A)
//! under the bounds in `BENCHMARK.json`.
//!
//! A set is a JSON-lines file of [`record_line`]s. For each (workload,
//! end-to-end metric) pair the verdict follows the quartile rule:
//! when the baseline's own spread (interquartile range over median) is
//! wider than the bound the pair is *unresolved*, unless every run of B
//! reads better than every run of A; otherwise B is *worse* when its
//! median is worse than A's by more than the bound. `setup_s` is
//! judged on medians alone. Simulated statistics ([`crate::EXACT`])
//! must match bit for bit at every seed both sets ran, and any run that
//! failed a correctness check makes its workload worse.

use crate::stats::Samples;
use crate::{Outcome, EXACT};
use serde::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// The set-up time metric.
const SETUP: &str = "setup_s";

/// One benchmark run as stored in a set file.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Whether the run was traced (per-layer metrics).
    pub traced: bool,
    /// Whether every correctness check passed and nothing failed.
    pub correct: bool,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// The set-file line for one run: the result line plus what ran.
pub fn record_line(workload: &str, seed: u64, traced: bool, outcome: &Outcome) -> String {
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{},\"result\":{}}}",
        u8::from(traced),
        outcome.json_line()
    )
}

fn number(value: &Value) -> Option<f64> {
    match *value {
        Value::UInt(n) => Some(n as f64),
        Value::Int(n) => Some(n as f64),
        Value::Float(x) => Some(x),
        _ => None,
    }
}

/// Parses a set file's text.
///
/// # Errors
///
/// Names the first line that is not a well-formed record.
pub fn parse_records(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            let bad = |what: &str| format!("line {}: {what}", i + 1);
            let value: Value = serde_json::from_str(line).map_err(|e| bad(&e.to_string()))?;
            let result = value.get("result").ok_or_else(|| bad("no result"))?;
            let metrics = result
                .get("metrics")
                .and_then(Value::as_object)
                .ok_or_else(|| bad("no metrics"))?
                .iter()
                .map(|(name, metric)| {
                    let value = metric.get("value").and_then(number);
                    value.map(|v| (name.clone(), v)).ok_or_else(|| bad(name))
                })
                .collect::<Result<_, _>>()?;
            let failed = result.get("failed").and_then(number).unwrap_or(1.0);
            Ok(Record {
                workload: match value.get("workload") {
                    Some(Value::Str(name)) => name.clone(),
                    _ => return Err(bad("no workload")),
                },
                seed: value
                    .get("seed")
                    .and_then(number)
                    .ok_or_else(|| bad("no seed"))? as u64,
                traced: value.get("trace").and_then(number) == Some(1.0),
                correct: result.get("correct") == Some(&Value::Bool(true)) && failed == 0.0,
                metrics,
            })
        })
        .collect()
}

/// An end-to-end metric's gate, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Metric name.
    pub name: String,
    /// Whether larger values are better.
    pub higher_is_better: bool,
    /// Largest tolerated worsening, as a share of the baseline median.
    pub bound: f64,
}

/// Reads the end-to-end gates from a `BENCHMARK.json`.
///
/// # Errors
///
/// On an unreadable file or a malformed `end_to_end` list.
pub fn read_gates(path: &Path) -> Result<Vec<Gate>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let value: Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    let Some(Value::Array(metrics)) = value.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".to_owned());
    };
    metrics
        .iter()
        .map(|m| {
            let name = match m.get("name") {
                Some(Value::Str(name)) => name.clone(),
                _ => return Err("end_to_end entry without a name".to_owned()),
            };
            Ok(Gate {
                higher_is_better: m.get("better") == Some(&Value::Str("higher".to_owned())),
                bound: m
                    .get("bound")
                    .and_then(number)
                    .ok_or(format!("{name}: no bound"))?,
                name,
            })
        })
        .collect()
}

/// A verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// B is no worse than A by more than the bound.
    Pass,
    /// B is worse than A by more than the bound, differs on an exact
    /// metric, or failed a correctness check.
    Worse,
    /// A's own spread is wider than the bound.
    Unresolved,
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Status::Pass => "pass",
            Status::Worse => "worse",
            Status::Unresolved => "unresolved",
        })
    }
}

/// One line of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Workload name.
    pub workload: String,
    /// Metric name (`correct` for the correctness check).
    pub metric: String,
    /// The verdict.
    pub status: Status,
    /// The numbers behind it.
    pub detail: String,
}

fn summary(s: &Samples) -> String {
    let (q1, q3) = s.quartiles();
    format!("{:.6e} [{q1:.4e}, {q3:.4e}] n={}", s.median(), s.len())
}

/// Compares set `b` against baseline set `a`, workload by workload.
pub fn compare(a: &[Record], b: &[Record], gates: &[Gate]) -> Vec<Verdict> {
    let mut workloads: Vec<&str> = a.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut verdicts = Vec::new();
    for workload in workloads {
        let runs = |set: &'_ [Record], traced: bool| -> Vec<Record> {
            set.iter()
                .filter(|r| r.workload == workload && r.traced == traced)
                .cloned()
                .collect()
        };
        let verdict = |metric: &str, status, detail| Verdict {
            workload: workload.to_owned(),
            metric: metric.to_owned(),
            status,
            detail,
        };
        let incorrect = b
            .iter()
            .filter(|r| r.workload == workload && !r.correct)
            .count();
        verdicts.push(verdict(
            "correct",
            if incorrect == 0 {
                Status::Pass
            } else {
                Status::Worse
            },
            format!("{incorrect} incorrect runs in B"),
        ));
        let (a_runs, b_runs) = (runs(a, false), runs(b, false));
        for gate in gates {
            let values = |set: &[Record]| {
                Samples::new(
                    set.iter()
                        .filter_map(|r| r.metrics.get(&gate.name))
                        .copied()
                        .collect(),
                )
            };
            let (sa, sb) = (values(&a_runs), values(&b_runs));
            if sa.is_empty() || sb.is_empty() {
                continue;
            }
            let sign = if gate.higher_is_better { -1.0 } else { 1.0 };
            let worsening = sign * (sb.median() - sa.median()) / sa.median().abs();
            let all_better = if gate.higher_is_better {
                sb.values()[0] > sa.values()[sa.len() - 1]
            } else {
                sb.values()[sb.len() - 1] < sa.values()[0]
            };
            // Set-up time is judged on medians alone: a short set-up's
            // spread is not gated, but work moved into it still shows.
            let spread_gated = gate.name != SETUP;
            let status = if all_better {
                Status::Pass
            } else if spread_gated && sa.relative_spread() > gate.bound {
                Status::Unresolved
            } else if worsening > gate.bound {
                Status::Worse
            } else {
                Status::Pass
            };
            verdicts.push(verdict(
                &gate.name,
                status,
                format!(
                    "A {} | B {} | worse by {:+.2}% (bound {:.0}%, A spread {:.2}%)",
                    summary(&sa),
                    summary(&sb),
                    worsening * 100.0,
                    gate.bound * 100.0,
                    sa.relative_spread() * 100.0
                ),
            ));
        }
        let (a_traced, b_traced) = (runs(a, true), runs(b, true));
        for name in EXACT {
            let mut common = 0;
            let mut differing = Vec::new();
            for ra in &a_traced {
                for rb in b_traced.iter().filter(|rb| rb.seed == ra.seed) {
                    common += 1;
                    let (va, vb) = (ra.metrics.get(name), rb.metrics.get(name));
                    if va.map(|v| v.to_bits()) != vb.map(|v| v.to_bits()) {
                        differing.push(format!("seed {}: {va:?} vs {vb:?}", ra.seed));
                    }
                }
            }
            if common == 0 {
                continue;
            }
            let status = if differing.is_empty() {
                Status::Pass
            } else {
                Status::Worse
            };
            let detail = format!("{common} same-seed pairs; {}", differing.join(", "));
            verdicts.push(verdict(name, status, detail));
        }
    }
    verdicts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(latency: f64, seed: u64) -> Record {
        Record {
            workload: "w".to_owned(),
            seed,
            traced: false,
            correct: true,
            metrics: [("latency_ms".to_owned(), latency)].into_iter().collect(),
        }
    }

    fn gate() -> Vec<Gate> {
        vec![Gate {
            name: "latency_ms".to_owned(),
            higher_is_better: false,
            bound: 0.1,
        }]
    }

    fn status(a: &[Record], b: &[Record]) -> Status {
        compare(a, b, &gate())
            .into_iter()
            .find(|v| v.metric == "latency_ms")
            .expect("latency verdict")
            .status
    }

    #[test]
    fn verdicts_follow_the_quartile_rule() {
        let steady: Vec<Record> = (0..10).map(|i| record(10.0 + 0.01 * i as f64, i)).collect();
        let slower: Vec<Record> = (0..10).map(|i| record(12.0 + 0.01 * i as f64, i)).collect();
        let faster: Vec<Record> = (0..10).map(|i| record(8.0 + 0.01 * i as f64, i)).collect();
        let noisy: Vec<Record> = (0..10).map(|i| record(5.0 + i as f64, i)).collect();
        assert_eq!(status(&steady, &steady), Status::Pass);
        assert_eq!(status(&steady, &slower), Status::Worse);
        assert_eq!(status(&noisy, &slower), Status::Unresolved);
        assert_eq!(status(&noisy, &faster[..1]), Status::Unresolved);
        assert_eq!(status(&steady, &faster), Status::Pass);
    }

    #[test]
    fn setup_time_is_judged_on_medians_alone() {
        let gates = [Gate {
            name: SETUP.to_owned(),
            higher_is_better: false,
            bound: 0.25,
        }];
        let setup = |seconds: f64, seed| Record {
            metrics: [(SETUP.to_owned(), seconds)].into_iter().collect(),
            ..record(0.0, seed)
        };
        let noisy: Vec<Record> = (0..10).map(|i| setup(1.0 + 0.1 * i as f64, i)).collect();
        let doubled: Vec<Record> = noisy
            .iter()
            .map(|r| setup(2.0 * r.metrics[SETUP], r.seed))
            .collect();
        let status = |b: &[Record]| {
            compare(&noisy, b, &gates)
                .into_iter()
                .find(|v| v.metric == SETUP)
                .expect("setup verdict")
                .status
        };
        assert_eq!(status(&noisy), Status::Pass);
        assert_eq!(status(&doubled), Status::Worse);
    }

    #[test]
    fn records_round_trip_through_set_lines() {
        let outcome = Outcome {
            attempted: 3,
            metrics: vec![crate::Metric {
                name: "setup_s",
                unit: "s",
                value: 0.25,
                spread: None,
            }],
            ..Outcome::default()
        };
        let line = record_line("grid-journaled", 7, false, &outcome);
        let records = parse_records(&line).expect("parses");
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].workload, "grid-journaled");
        assert_eq!(records[0].seed, 7);
        assert!(records[0].correct);
        assert_eq!(records[0].metrics["setup_s"], 0.25);
    }
}
