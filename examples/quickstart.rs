//! Quickstart: build a tiny interactive workload, run the paper's three
//! power managers over it, and print what each one saved.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pcap_dpm::prelude::*;
use pcap_workload::{Activity, AppSpec, CountDist, HelperSpec, IoOp, TimeDist, UserState};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A little text editor: load at startup, open files, save them,
    // think in between. Think times straddle the 5.43 s breakeven time
    // of the Table 2 disk, so a predictor has real decisions to make.
    let editor = AppSpec {
        name: "tiny-editor".into(),
        executions: 20,
        startup: Activity::named("startup")
            .io(IoOp::read("load_binary", "editor_libs", 2).times(120, 120))
            .io(IoOp::open("open_file", "document"))
            .io(IoOp::read("read_file", "document", 4).times(3, 4))
            .think(TimeDist::think(0.8, (2.0, 5.0), (10.0, 120.0))),
        shutdown: None,
        activities: vec![
            // Saves happen mid-flow: the user keeps typing right after
            // (short, often sub-wait-window thinks).
            Activity::named("save")
                .io(IoOp::write_sync("save_file", "document", 2).times(4, 5))
                .think(TimeDist::think(0.02, (0.6, 2.5), (8.0, 60.0))),
            Activity::named("open_other")
                .io(IoOp::open("open_file", "other"))
                .io(IoOp::read("read_file", "other", 4).times(3, 4))
                .fresh()
                .think(TimeDist::think(0.85, (1.5, 5.0), (8.0, 120.0))),
        ],
        // Editing bursts (saves) alternate with reading bursts (opens):
        // what the user just did predicts how long the disk stays idle.
        states: vec![
            UserState {
                name: "editing".into(),
                activity_weights: vec![(0, 0.85), (1, 0.15)],
                think: TimeDist::think(0.1, (0.6, 2.5), (8.0, 60.0)),
                next: vec![(0, 0.6), (1, 0.4)],
            },
            UserState {
                name: "reading".into(),
                activity_weights: vec![(0, 0.1), (1, 0.9)],
                think: TimeDist::think(0.7, (1.5, 5.0), (8.0, 120.0)),
                next: vec![(0, 0.6), (1, 0.4)],
            },
        ],
        initial_state: 1,
        activities_per_run: CountDist::new(4, 7),
        helpers: Vec::<HelperSpec>::new(),
        final_pause: TimeDist::Uniform(0.5, 1.5),
        io_library_depth: 2,
    };

    // Generate the multi-execution trace (deterministic in the seed).
    let trace = editor.generate_trace(7)?;
    println!(
        "generated {} executions, {} I/O operations\n",
        trace.runs.len(),
        trace.total_ios()
    );

    // Evaluate the paper's predictors plus the clairvoyant bound.
    let config = SimConfig::paper();
    println!(
        "{:<8} {:>9} {:>7} {:>9} {:>13}",
        "manager", "coverage", "miss", "savings", "table entries"
    );
    for kind in [
        PowerManagerKind::Timeout,
        PowerManagerKind::LT,
        PowerManagerKind::PCAP,
        PowerManagerKind::Oracle,
    ] {
        let report = evaluate_app(&trace, &config, kind);
        println!(
            "{:<8} {:>8.0}% {:>6.0}% {:>8.1}% {:>13}",
            report.manager,
            report.global.coverage() * 100.0,
            report.global.miss_rate() * 100.0,
            report.savings() * 100.0,
            report
                .table_entries
                .map_or_else(|| "-".into(), |n| n.to_string()),
        );
    }

    println!("\nPCAP learns the editor's save/open paths once and then");
    println!("spins the disk down the moment they recur — no 10-second");
    println!("timeout to wait out.");
    Ok(())
}
