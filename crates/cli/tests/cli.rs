//! End-to-end tests of the `pcap` binary: exit codes, stderr
//! diagnostics, and machine-readable output.

use std::process::{Command, Output};

fn pcap(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pcap"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn unknown_experiment_fails_with_diagnostic() {
    let out = pcap(&["run", "fig99"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("pcap: unknown experiment fig99"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn unknown_app_fails_with_diagnostic() {
    let out = pcap(&["profile", "emacs"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("pcap: unknown application emacs"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn bad_flags_fail_before_any_work() {
    for (args, needle) in [
        (&["run", "fig7", "--seed", "lots"][..], "bad seed: lots"),
        (&["all", "--seeds", "46..42"][..], "empty seed range"),
        (&["all", "--jobs", "-1"][..], "bad job count"),
        (&["run", "fig7", "--frobnicate"][..], "unknown flag"),
        (&["bench", "--check"][..], "unknown flag --check"),
        (&["bench", "--label", "x"][..], "unknown flag --label"),
        (&["frobnicate"][..], "unknown command"),
        (
            &["all", "--seeds", "42..52", "--journal", "f.jnl"][..],
            "--journal applies to run and sweep only, not all",
        ),
        (
            &["verify", "--journal", "f.jnl"][..],
            "--journal applies to run and sweep only, not verify",
        ),
        (
            &["run", "table2", "--prometheus", "m.prom"][..],
            "--prometheus on run exports journal progress and needs --journal FILE",
        ),
        (
            &["sweep", "--devices", "30", "--prometheus", "m.prom"][..],
            "--prometheus on sweep exports journal progress and needs --journal FILE",
        ),
    ] {
        let out = pcap(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(
            stderr(&out).contains(needle),
            "{args:?} stderr: {}",
            stderr(&out)
        );
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
    }
}

#[test]
fn list_and_help_succeed() {
    let out = pcap(&["list"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("fig7"));
    let out = pcap(&["help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("--jobs"));
}

#[test]
fn run_fig7_csv_emits_parseable_csv() {
    let out = pcap(&["run", "fig7", "--csv"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let mut lines = stdout.lines();
    let header = lines.next().expect("header row");
    let columns = header.split(',').count();
    assert!(header.split(',').any(|c| c == "app"), "header: {header}");
    let mut rows = 0;
    for line in lines {
        assert_eq!(line.split(',').count(), columns, "ragged CSV row: {line}");
        rows += 1;
    }
    assert!(rows >= 6, "one row per paper app, got {rows}");
}

#[test]
fn audit_jsonl_is_byte_identical_across_job_counts() {
    let dir = std::env::temp_dir().join(format!("pcap-audit-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path_1 = dir.join("jobs1.jsonl");
    let path_8 = dir.join("jobs8.jsonl");
    for (jobs, path) in [("1", &path_1), ("8", &path_8)] {
        let out = pcap(&[
            "audit",
            "nedit",
            "--jobs",
            jobs,
            "--jsonl",
            path.to_str().expect("utf-8 path"),
        ]);
        assert!(out.status.success(), "stderr: {}", stderr(&out));
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("Audit summary: nedit under PCAP"),
            "missing summary table"
        );
        assert!(
            stderr(&out).contains("decision records"),
            "stderr: {}",
            stderr(&out)
        );
    }
    let log_1 = std::fs::read(&path_1).expect("jobs 1 log written");
    let log_8 = std::fs::read(&path_8).expect("jobs 8 log written");
    assert!(!log_1.is_empty());
    assert_eq!(log_1, log_8, "--jobs changed a byte of the audit log");
    let first = String::from_utf8_lossy(&log_1);
    let first = first.lines().next().expect("at least one record");
    assert!(first.starts_with("{\"run\":0,\"access\":0,"), "{first}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn audit_flag_validation_fails_before_any_work() {
    for (args, needle) in [
        (
            &["audit", "nedit", "--top-misses", "0"][..],
            "top-misses must be at least 1",
        ),
        (
            &["audit", "nedit", "--top-misses", "lots"][..],
            "bad top-misses count",
        ),
        (&["audit", "nedit", "--jsonl"][..], "--jsonl needs a value"),
        (&["audit", "emacs"][..], "unknown application emacs"),
        (&["audit"][..], "audit needs an application name"),
        (&["explain", "emacs"][..], "unknown application emacs"),
    ] {
        let out = pcap(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(
            stderr(&out).contains(needle),
            "{args:?} stderr: {}",
            stderr(&out)
        );
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
    }
}

#[test]
fn audit_unwritable_jsonl_path_fails_with_diagnostic() {
    let out = pcap(&["audit", "nedit", "--jsonl", "/nonexistent-dir/audit.jsonl"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("pcap: /nonexistent-dir/audit.jsonl:"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn audit_top_misses_bounds_the_mispredict_tables() {
    let out = pcap(&["audit", "mozilla", "--top-misses", "2", "--csv"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    // CSV sections follow each other without separators; the per-PC
    // table runs from its header to the per-signature header, which
    // runs to the end. Each holds at most two data rows.
    let per_pc = stdout
        .lines()
        .skip_while(|l| !l.starts_with("pc,misses"))
        .skip(1)
        .take_while(|l| !l.starts_with("signature,misses"))
        .count();
    let per_sig = stdout
        .lines()
        .skip_while(|l| !l.starts_with("signature,misses"))
        .skip(1)
        .count();
    assert!((1..=2).contains(&per_pc), "per-PC rows {per_pc}:\n{stdout}");
    assert!(
        (1..=2).contains(&per_sig),
        "per-signature rows {per_sig}:\n{stdout}"
    );
}

#[test]
fn explain_emits_narrative_for_section_six_apps() {
    let out = pcap(&["explain", "nedit"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(stdout.contains("Signature behaviour: nedit"), "{stdout}");
    assert!(stdout.contains("Idle-gap distribution: nedit"), "{stdout}");
    assert!(stdout.contains("Explained: nedit under PCAP"), "{stdout}");
    assert!(stdout.contains("§6.2"), "{stdout}");
}

#[test]
fn bench_prints_three_signed_guards_and_writes_nothing() {
    let dir = std::env::temp_dir().join(format!("pcap-bench-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_pcap"))
        .args(["bench", "--quick", "--jobs", "1"])
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    for guard in ["observer", "tracing", "serve"] {
        let prefix = format!("pcap bench: {guard} guard: ");
        let line = err
            .lines()
            .find(|l| l.starts_with(&prefix))
            .unwrap_or_else(|| panic!("no {guard} guard line, stderr: {err}"));
        let ratio = line
            .rsplit_once('(')
            .and_then(|(_, tail)| tail.split_once("% overhead"))
            .map(|(ratio, _)| ratio)
            .unwrap_or_else(|| panic!("no overhead ratio: {line}"));
        assert!(
            ratio.starts_with(['+', '-']) && ratio[1..].parse::<f64>().is_ok(),
            "unsigned ratio: {line}"
        );
    }
    let written: Vec<_> = std::fs::read_dir(&dir).expect("readdir").collect();
    assert!(written.is_empty(), "bench wrote {written:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn verify_fails_on_single_byte_golden_corruption() {
    // Copy the committed golden snapshot, flip one byte in one table,
    // and `pcap verify --golden` must exit nonzero naming that file.
    fn copy_tree(from: &std::path::Path, to: &std::path::Path) {
        std::fs::create_dir_all(to).expect("mkdir");
        for entry in std::fs::read_dir(from).expect("readdir") {
            let entry = entry.expect("dir entry");
            let dest = to.join(entry.file_name());
            if entry.file_type().expect("file type").is_dir() {
                copy_tree(&entry.path(), &dest);
            } else {
                std::fs::copy(entry.path(), &dest).expect("copy");
            }
        }
    }
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../golden");
    let dir = std::env::temp_dir().join(format!("pcap-verify-test-{}", std::process::id()));
    copy_tree(&golden, &dir);
    let victim = dir.join("tables/fig7.csv");
    let original = std::fs::read_to_string(&victim).expect("golden table");
    let corrupted = original.replacen(',', ";", 1);
    assert_ne!(corrupted, original, "table must contain a comma to flip");
    std::fs::write(&victim, corrupted).expect("corrupt copy");
    let out = pcap(&["verify", "--golden", dir.to_str().expect("utf-8 path")]);
    assert!(!out.status.success(), "corrupted golden must fail verify");
    let err = stderr(&out);
    assert!(
        err.contains("tables/fig7.csv"),
        "drift must name the corrupted file, stderr: {err}"
    );
    assert!(
        err.contains("re-bless with `pcap verify --update`"),
        "stderr: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fleet_sweep_devices_happy_path() {
    let out = pcap(&["sweep", "--devices", "40", "--quick", "--jobs", "2"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(stdout.contains("Fleet: 40 devices, seed 42"), "{stdout}");
    assert!(stdout.contains("runs capped at"), "{stdout}");
    assert!(stdout.contains("TOTAL"), "{stdout}");
    // One row per paper app plus the fleet total.
    for app in ["mozilla", "writer", "impress", "xemacs", "nedit", "mplayer"] {
        assert!(stdout.contains(app), "missing {app} row:\n{stdout}");
    }
}

#[test]
fn fleet_sweep_rejects_zero_devices() {
    let out = pcap(&["sweep", "--devices", "0"]);
    assert!(!out.status.success(), "--devices 0 must fail");
    assert!(
        stderr(&out).contains("device count must be at least 1"),
        "stderr: {}",
        stderr(&out)
    );
    assert!(out.stdout.is_empty(), "wrote to stdout before failing");
    let out = pcap(&["sweep", "--devices", "lots"]);
    assert!(!out.status.success(), "non-numeric --devices must fail");
    assert!(
        stderr(&out).contains("bad device count: lots"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn fleet_sweep_is_deterministic_and_jobs_independent() {
    let run = |jobs: &str| {
        let out = pcap(&[
            "sweep",
            "--devices",
            "25",
            "--quick",
            "--jobs",
            jobs,
            "--csv",
        ]);
        assert!(out.status.success(), "stderr: {}", stderr(&out));
        out.stdout
    };
    let first = run("1");
    assert_eq!(first, run("1"), "rerun with identical flags drifted");
    assert_eq!(first, run("8"), "--jobs changed a byte of the fleet table");
}

#[test]
fn pipeline_profile_smoke_with_exports() {
    let dir = std::env::temp_dir().join(format!("pcap-profile-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace_path = dir.join("trace.json");
    let prom_path = dir.join("metrics.prom");
    let out = pcap(&[
        "profile",
        "--quick",
        "--jobs",
        "2",
        "--chrome-trace",
        trace_path.to_str().expect("utf-8 path"),
        "--prometheus",
        prom_path.to_str().expect("utf-8 path"),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(stdout.contains("pipeline profile (seed 42"), "{stdout}");
    assert!(stdout.contains("stage"), "{stdout}");
    assert!(stdout.contains("warm_up:"), "{stdout}");
    assert!(stdout.contains("slowest task:"), "{stdout}");
    let trace = std::fs::read_to_string(&trace_path).expect("chrome trace written");
    assert!(trace.contains("\"traceEvents\""), "{trace}");
    assert!(trace.contains("cell:"), "per-cell spans exported");
    let prom = std::fs::read_to_string(&prom_path).expect("prometheus written");
    pcap_obs::validate_prometheus_strict(&prom).expect("profile exposition is strictly valid");
    assert!(prom.contains("pcap_tasks_total"), "{prom}");
    assert!(prom.contains("pcap_worker_busy_us"), "{prom}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pipeline_profile_warns_on_oversubscribed_jobs() {
    let out = pcap(&["profile", "--quick", "--jobs", "512"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("exceeds available parallelism"),
        "stderr: {}",
        stderr(&out)
    );
    // The default (0 = all cores) and an honest job count stay quiet.
    let out = pcap(&["profile", "--quick", "--jobs", "1"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(
        !stderr(&out).contains("exceeds available parallelism"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn serve_flag_validation_fails_before_any_work() {
    for (args, needle) in [
        (
            &["serve", "--listen", "notanaddr"][..],
            "bad listen address: notanaddr",
        ),
        (
            &["serve", "--uds", "/tmp/x.sock", "--shards", "0"][..],
            "shard count must be at least 1",
        ),
        (
            &["serve"][..],
            "serve needs --listen ADDR and/or --uds PATH",
        ),
        (
            &["serve", "--metrics", "nope", "--uds", "/tmp/x.sock"][..],
            "bad metrics address: nope",
        ),
        (&["load"][..], "load needs --uds PATH or --connect ADDR"),
        (
            &["load", "--connect", "nowhere"][..],
            "bad connect address: nowhere",
        ),
        (
            &["load", "--uds", "/tmp/a", "--connect", "127.0.0.1:1"][..],
            "not both",
        ),
        (
            &["load", "--uds", "/tmp/a", "--rate", "0"][..],
            "rate must be at least 1",
        ),
    ] {
        let out = pcap(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(
            stderr(&out).contains(needle),
            "{args:?} stderr: {}",
            stderr(&out)
        );
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
    }
}

#[test]
fn load_refused_connection_is_a_named_error() {
    // No daemon at this socket: the client must fail fast with a named
    // connect error and a nonzero exit, not hang or panic.
    let missing = std::env::temp_dir().join(format!("pcap-no-daemon-{}.sock", std::process::id()));
    let out = pcap(&["load", "--uds", missing.to_str().expect("utf-8 path")]);
    assert!(!out.status.success(), "missing daemon must fail");
    assert!(
        stderr(&out).contains("pcap: connect failed:"),
        "stderr: {}",
        stderr(&out)
    );
    assert!(out.stdout.is_empty(), "no report on a failed connect");
}

#[test]
fn serve_then_load_round_trip_with_metrics_artifacts() {
    // One in-process daemon driven by the real `pcap load` subcommand:
    // the smallest end-to-end path CI exercises (UDS transport, rate
    // cap, latency-histogram artifact).
    let dir = std::env::temp_dir().join(format!("pcap-serve-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let sock = dir.join("daemon.sock");
    let hist = dir.join("latency.json");
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_pcap"))
        .args([
            "serve",
            "--uds",
            sock.to_str().expect("utf-8"),
            "--shards",
            "2",
        ])
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("daemon starts");
    // Wait for the socket to appear.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !sock.exists() && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let out = pcap(&[
        "load",
        "--uds",
        sock.to_str().expect("utf-8"),
        "--devices",
        "2",
        "--quick",
        "--interleave",
        "--hist-out",
        hist.to_str().expect("utf-8"),
    ]);
    daemon.kill().ok();
    daemon.wait().ok();
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("decisions/s"), "stdout: {stdout}");
    assert!(stdout.contains("2 devices"), "stdout: {stdout}");
    let artifact = std::fs::read_to_string(&hist).expect("histogram artifact");
    assert!(artifact.contains("\"p99_us\""), "artifact: {artifact}");
    assert!(artifact.contains("\"buckets\""), "artifact: {artifact}");
    std::fs::remove_dir_all(&dir).ok();
}

// ------------------------------------------------ journaled sweeps

fn journal_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pcap-cli-journal-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn journaled_seed_sweep_matches_plain_and_resumes_warm() {
    let dir = journal_dir("seed");
    let journal = dir.join("sweep.jnl");
    let journal = journal.to_str().expect("utf-8");
    let plain = pcap(&["sweep", "--seeds", "42..44", "--jobs", "1", "--csv"]);
    assert!(plain.status.success(), "stderr: {}", stderr(&plain));

    let journaled = pcap(&[
        "sweep",
        "--seeds",
        "42..44",
        "--jobs",
        "2",
        "--journal",
        journal,
        "--csv",
    ]);
    assert!(journaled.status.success(), "stderr: {}", stderr(&journaled));
    assert_eq!(
        plain.stdout, journaled.stdout,
        "journaled sweep must be byte-identical to the plain --jobs 1 run"
    );
    assert!(
        stderr(&journaled).contains("journal resumed 0, computed 2"),
        "cold journal computes both seeds, stderr: {}",
        stderr(&journaled)
    );

    // Second run over the finished journal: everything resumes.
    let warm = pcap(&[
        "sweep",
        "--seeds",
        "42..44",
        "--jobs",
        "2",
        "--journal",
        journal,
        "--csv",
    ]);
    assert!(warm.status.success(), "stderr: {}", stderr(&warm));
    assert_eq!(plain.stdout, warm.stdout);
    assert!(
        stderr(&warm).contains("journal resumed 2, computed 0"),
        "warm journal recomputes nothing, stderr: {}",
        stderr(&warm)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn killed_journaled_sweep_resumes_byte_identical() {
    let dir = journal_dir("kill");
    let journal = dir.join("sweep.jnl");
    let journal = journal.to_str().expect("utf-8");
    let seeds = "42..50";
    let plain = pcap(&["sweep", "--seeds", seeds, "--jobs", "1", "--csv"]);
    assert!(plain.status.success(), "stderr: {}", stderr(&plain));

    // Start a journaled run and SIGKILL it partway through.
    let mut child = Command::new(env!("CARGO_BIN_EXE_pcap"))
        .args([
            "sweep",
            "--seeds",
            seeds,
            "--jobs",
            "1",
            "--journal",
            journal,
            "--csv",
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("child starts");
    std::thread::sleep(std::time::Duration::from_millis(1500));
    child.kill().expect("kill");
    child.wait().expect("reap");

    // The resumed run finishes the grid and emits identical bytes.
    let resumed = pcap(&[
        "sweep",
        "--seeds",
        seeds,
        "--jobs",
        "2",
        "--journal",
        journal,
        "--csv",
    ]);
    assert!(resumed.status.success(), "stderr: {}", stderr(&resumed));
    assert_eq!(
        plain.stdout, resumed.stdout,
        "kill-and-resume must not change a byte of the table"
    );
    assert!(
        stderr(&resumed).contains("journal resumed"),
        "stderr: {}",
        stderr(&resumed)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn two_concurrent_journaled_sweeps_cooperate() {
    let dir = journal_dir("pair");
    let journal = dir.join("sweep.jnl");
    let journal = journal.to_str().expect("utf-8");
    let seeds = "42..47";
    let plain = pcap(&["sweep", "--seeds", seeds, "--jobs", "1", "--csv"]);
    assert!(plain.status.success(), "stderr: {}", stderr(&plain));

    let spawn = || {
        Command::new(env!("CARGO_BIN_EXE_pcap"))
            .args([
                "sweep",
                "--seeds",
                seeds,
                "--jobs",
                "1",
                "--journal",
                journal,
                "--csv",
            ])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("child starts")
    };
    let a = spawn();
    let b = spawn();
    let a = a.wait_with_output().expect("a finishes");
    let b = b.wait_with_output().expect("b finishes");
    assert!(a.status.success(), "stderr: {}", stderr(&a));
    assert!(b.status.success(), "stderr: {}", stderr(&b));
    // Both processes print the full table, byte-identical to the
    // single-process run, no matter how the cells were split.
    assert_eq!(plain.stdout, a.stdout);
    assert_eq!(plain.stdout, b.stdout);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn journaled_fleet_sweep_matches_plain() {
    let dir = journal_dir("fleet");
    let journal = dir.join("fleet.jnl");
    let journal = journal.to_str().expect("utf-8");
    let plain = pcap(&[
        "sweep",
        "--devices",
        "30",
        "--quick",
        "--jobs",
        "1",
        "--csv",
    ]);
    assert!(plain.status.success(), "stderr: {}", stderr(&plain));
    let journaled = pcap(&[
        "sweep",
        "--devices",
        "30",
        "--quick",
        "--jobs",
        "2",
        "--journal",
        journal,
        "--csv",
    ]);
    assert!(journaled.status.success(), "stderr: {}", stderr(&journaled));
    assert_eq!(plain.stdout, journaled.stdout);
    let warm = pcap(&[
        "sweep",
        "--devices",
        "30",
        "--quick",
        "--jobs",
        "2",
        "--journal",
        journal,
        "--csv",
    ]);
    assert!(warm.status.success(), "stderr: {}", stderr(&warm));
    assert_eq!(plain.stdout, warm.stdout);
    assert!(
        stderr(&warm).contains("computed 0"),
        "warm fleet journal recomputes nothing, stderr: {}",
        stderr(&warm)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mismatched_journal_is_rejected_with_named_error() {
    let dir = journal_dir("mismatch");
    let journal = dir.join("fleet.jnl");
    let journal = journal.to_str().expect("utf-8");
    let first = pcap(&[
        "sweep",
        "--devices",
        "12",
        "--quick",
        "--journal",
        journal,
        "--csv",
    ]);
    assert!(first.status.success(), "stderr: {}", stderr(&first));
    // Same journal file, different fleet size: refused, not merged.
    let wrong = pcap(&[
        "sweep",
        "--devices",
        "13",
        "--quick",
        "--journal",
        journal,
        "--csv",
    ]);
    assert!(!wrong.status.success(), "mismatched journal must fail");
    assert!(
        stderr(&wrong).contains("config mismatch"),
        "stderr: {}",
        stderr(&wrong)
    );
    assert!(wrong.stdout.is_empty(), "no table on a rejected journal");
    // A non-journal file is refused with the bad-magic error.
    let bogus = dir.join("notes.txt");
    std::fs::write(&bogus, "not a journal").expect("write");
    let bad = pcap(&[
        "sweep",
        "--devices",
        "12",
        "--quick",
        "--journal",
        bogus.to_str().expect("utf-8"),
        "--csv",
    ]);
    assert!(!bad.status.success());
    assert!(
        stderr(&bad).contains("bad magic"),
        "stderr: {}",
        stderr(&bad)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn journaled_run_matches_plain_experiment_output() {
    let dir = journal_dir("run");
    let journal = dir.join("grid.jnl");
    let journal = journal.to_str().expect("utf-8");
    let plain = pcap(&["run", "table2", "--jobs", "1", "--csv"]);
    assert!(plain.status.success(), "stderr: {}", stderr(&plain));
    let journaled = pcap(&[
        "run",
        "table2",
        "--jobs",
        "2",
        "--journal",
        journal,
        "--csv",
    ]);
    assert!(journaled.status.success(), "stderr: {}", stderr(&journaled));
    assert_eq!(plain.stdout, journaled.stdout);
    // Warm rerun answers from the journal alone.
    let warm = pcap(&[
        "run",
        "table2",
        "--jobs",
        "2",
        "--journal",
        journal,
        "--csv",
    ]);
    assert!(warm.status.success(), "stderr: {}", stderr(&warm));
    assert_eq!(plain.stdout, warm.stdout);
    assert!(
        stderr(&warm).contains("computed 0"),
        "stderr: {}",
        stderr(&warm)
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ------------------------------------------- daemon observability

/// Polls `pred` for up to 10 s.
fn poll_until(mut pred: impl FnMut() -> bool) -> bool {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while std::time::Instant::now() < deadline {
        if pred() {
            return true;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    false
}

/// One live daemon drives the whole observability surface: `pcap top`
/// against the real `/metrics` endpoint, then `SIGUSR1` dumping the
/// flight recorder to the `--flight-dump` path, validated by
/// `pcap flight`.
#[test]
fn serve_sigusr1_dump_and_top_against_live_daemon() {
    use std::io::BufRead;
    let dir = std::env::temp_dir().join(format!("pcap-serve-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let sock = dir.join("daemon.sock");
    let dump = dir.join("flight.jsonl");
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_pcap"))
        .args([
            "serve",
            "--uds",
            sock.to_str().expect("utf-8"),
            "--metrics",
            "127.0.0.1:0",
            "--shards",
            "2",
            "--flight-dump",
            dump.to_str().expect("utf-8"),
        ])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("daemon starts");
    // The daemon announces the bound metrics port on stderr.
    let mut lines = std::io::BufReader::new(daemon.stderr.take().expect("piped stderr")).lines();
    let metrics_addr = loop {
        let line = lines
            .next()
            .expect("stderr open")
            .expect("stderr line reads");
        if let Some(rest) = line.split("metrics at http://").nth(1) {
            break rest.trim_end_matches("/metrics").to_owned();
        }
    };
    assert!(poll_until(|| sock.exists()), "daemon socket appears");

    // Traffic first, so the flight rings and stage histograms fill.
    let out = pcap(&[
        "load",
        "--uds",
        sock.to_str().expect("utf-8"),
        "--devices",
        "2",
        "--quick",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    // `pcap top --once`: one frame, strict-validated scrape, per-shard
    // rows with stage quantiles.
    let out = pcap(&["top", &metrics_addr, "--once"]);
    assert!(out.status.success(), "top stderr: {}", stderr(&out));
    let top = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(top.contains("pcap top"), "header: {top}");
    assert!(top.contains("decisions"), "totals row: {top}");
    assert!(top.contains("shard"), "shard table: {top}");
    for shard in ["0", "1"] {
        assert!(
            top.lines().any(|l| l.trim_start().starts_with(shard)),
            "row for shard {shard}: {top}"
        );
    }
    // Each row's four stage cells are `p50/p99` quantile pairs, and the
    // shard that evaluated runs reports a nonzero eval p50.
    let cells: Vec<Vec<&str>> = top
        .lines()
        .filter(|l| l.trim_start().starts_with(['0', '1']))
        .map(|l| l.split_whitespace().skip(4).collect())
        .collect();
    for row in &cells {
        assert_eq!(row.len(), 4, "four stage cells: {top}");
        for cell in row {
            let (p50, p99) = cell.split_once('/').expect("p50/p99 pair");
            let (p50, p99): (u64, u64) = (p50.parse().unwrap(), p99.parse().unwrap());
            assert!(p50 <= p99, "quantiles are monotone: {top}");
        }
    }
    assert!(
        cells.iter().any(|row| !row[2].starts_with("0/")),
        "some shard evaluated runs: {top}"
    );

    // SIGUSR1 → the daemon writes a validated JSONL flight dump.
    let pid = daemon.id().to_string();
    let kill = Command::new("kill")
        .args(["-USR1", &pid])
        .status()
        .expect("kill runs");
    assert!(kill.success(), "kill -USR1 delivered");
    assert!(
        poll_until(|| dump.exists()),
        "flight dump appears after SIGUSR1"
    );
    let out = pcap(&["flight", dump.to_str().expect("utf-8")]);
    assert!(out.status.success(), "flight stderr: {}", stderr(&out));
    let report = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(report.contains("events across"), "stats line: {report}");
    assert!(
        !report.contains(": 0 events"),
        "traffic left events in the rings: {report}"
    );

    daemon.kill().ok();
    daemon.wait().ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// A panicking daemon leaves a parseable flight dump behind: the
/// selftest hook panics after startup and the chained panic hook must
/// write the `--flight-dump` file before the process dies nonzero.
#[test]
fn serve_panic_writes_flight_dump_and_exits_nonzero() {
    let dir = std::env::temp_dir().join(format!("pcap-serve-panic-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let sock = dir.join("daemon.sock");
    let dump = dir.join("crash.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_pcap"))
        .args([
            "serve",
            "--uds",
            sock.to_str().expect("utf-8"),
            "--flight-dump",
            dump.to_str().expect("utf-8"),
        ])
        .env("PCAP_SERVE_SELFTEST_PANIC", "1")
        .output()
        .expect("daemon runs to its panic");
    assert!(!out.status.success(), "panicking daemon exits nonzero");
    let err = stderr(&out);
    assert!(err.contains("panic"), "panic message surfaced: {err}");
    assert!(
        err.contains("dumped") && err.contains("flight events"),
        "dump confirmation on stderr: {err}"
    );
    assert!(dump.exists(), "panic hook wrote the dump");
    let check = pcap(&["flight", dump.to_str().expect("utf-8")]);
    assert!(
        check.status.success(),
        "crash dump validates: {}",
        stderr(&check)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `pcap flight` on garbage is a named, nonzero failure.
#[test]
fn flight_rejects_garbage_dump() {
    let dir = std::env::temp_dir().join(format!("pcap-flight-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bad = dir.join("bad.jsonl");
    std::fs::write(&bad, "this is not a flight dump\n").expect("write");
    let out = pcap(&["flight", bad.to_str().expect("utf-8")]);
    assert!(!out.status.success(), "garbage must fail");
    assert!(
        stderr(&out).contains("invalid flight dump"),
        "stderr: {}",
        stderr(&out)
    );
    let out = pcap(&["flight", dir.join("missing.jsonl").to_str().expect("utf-8")]);
    assert!(!out.status.success(), "missing file must fail");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--prometheus` on a journaled sweep exports the journal's progress
/// counters as a strict-valid exposition.
#[test]
fn journaled_sweep_exports_progress_metrics() {
    let dir = journal_dir("prom");
    let journal = dir.join("sweep.jnl");
    let prom = dir.join("journal.prom");
    let out = pcap(&[
        "sweep",
        "--seeds",
        "42..43",
        "--jobs",
        "1",
        "--journal",
        journal.to_str().expect("utf-8"),
        "--prometheus",
        prom.to_str().expect("utf-8"),
        "--csv",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("wrote journal progress metrics"),
        "stderr: {}",
        stderr(&out)
    );
    let text = std::fs::read_to_string(&prom).expect("exposition written");
    pcap_obs::validate_prometheus_strict(&text).expect("journal exposition is strictly valid");
    assert!(
        text.contains("pcap_journal_computed_total 1"),
        "cold journal computed the seed: {text}"
    );
    assert!(
        text.contains("# TYPE pcap_journal_resumed_total counter"),
        "metadata present: {text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn inspect_prints_the_gap_table_byte_for_byte() {
    // Pinned output of `pcap inspect` at seed 42: the header line, the
    // column header and every non-short gap row, including primary and
    // backup shutdowns and both verdicts.
    for (args, expected) in [
        (
            &["inspect", "nedit", "1"][..],
            "nedit execution 1: 211 disk accesses, 211 idle gaps (PCAP manager)\n\
             \n  gap#      pid        start     length       shutdown  verdict\n   \
             205        1        2.26s    270.24s 12.26s (backup)      HIT\n",
        ),
        (
            &["inspect", "xemacs", "3"][..],
            concat!(
                "xemacs execution 3: 1847 disk accesses, 1847 idle gaps (PCAP manager)\n",
                "\n",
                "  gap#      pid        start     length       shutdown  verdict\n",
                "  1804        1       18.25s     35.90s 28.25s (backup)      HIT\n",
                "  1809        1       54.21s    186.38s 64.21s (backup)      HIT\n",
                "  1817        1      240.66s      2.17s 241.66s (primary)     MISS\n",
                "  1828        1      245.53s     17.91s 255.53s (backup)      HIT\n",
                "  1836        1      263.51s      5.87s 264.51s (primary)     MISS\n",
                "  1840        1      269.42s     41.97s 279.42s (backup)      HIT\n",
                "  1846        1      311.46s     77.32s 312.46s (primary)      HIT\n",
            ),
        ),
    ] {
        let out = pcap(args);
        assert!(out.status.success(), "{args:?} stderr: {}", stderr(&out));
        assert_eq!(String::from_utf8_lossy(&out.stdout), expected, "{args:?}");
    }
}

#[test]
fn profile_histogram_bins_the_simulators_gaps() {
    // `pcap profile <app>` bins the gaps the simulator decides on,
    // completion to next arrival (Figure 1), the gaps its
    // `global_idle_periods` counts. Pinned rows of mplayer at seed 42.
    let out = pcap(&["profile", "mplayer"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for row in [
        "  21.72–43.44  s |                                        | 22",
        "  43.44–86.88  s |                                        | 10",
    ] {
        assert!(
            stdout.lines().any(|line| line == row),
            "{row:?} in {stdout}"
        );
    }
}
