//! Anatomy of a prediction: follow one nedit execution through the
//! whole pipeline — each I/O's call-site PC, the file cache, the path
//! signature, the prediction table — and watch PCAP learn and then
//! predict, the way Figure 3 of the paper walks through it.
//!
//! ```sh
//! cargo run --release --example trace_anatomy
//! ```

use pcap_cache::{CacheConfig, FileCache};
use pcap_core::{IdlePredictor, Pcap, PcapConfig, SharedTable};
use pcap_dpm::prelude::*;
use pcap_types::{DiskAccess, TraceEvent};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = PaperApp::Nedit.spec();
    let table = SharedTable::unbounded();
    let config = PcapConfig::paper();
    let breakeven = config.breakeven;

    println!("=== nedit through PCAP's eyes (first three executions) ===\n");
    for run_idx in 0..3 {
        let run = spec.generate_run(42, run_idx)?;
        println!(
            "--- execution {} ({} traced I/O operations) ---",
            run_idx + 1,
            run.io_count()
        );

        // The file cache stands between the traced I/Os and the disk.
        let mut cache = FileCache::new(CacheConfig::paper());
        let mut accesses: Vec<DiskAccess> = Vec::new();
        for event in &run.events {
            if let TraceEvent::Io(io) = event {
                accesses.extend(cache.access(io));
            }
        }
        println!(
            "    file cache absorbed {} of {} data pages ({} disk accesses remain)",
            cache.stats().page_hits,
            cache.stats().page_hits + cache.stats().page_misses,
            accesses.len()
        );

        // One per-process PCAP (nedit is single-process), sharing the
        // application's prediction table across executions (§4.2).
        let mut pcap = Pcap::new(config.clone(), table.clone());
        let mut last_vote_shutdown = false;
        for (i, access) in accesses.iter().enumerate() {
            let gap = if i + 1 < accesses.len() {
                accesses[i + 1].time - access.time
            } else {
                run.end - access.time
            };
            let vote = pcap.on_access(access, gap);
            // Narrate the interesting transitions only.
            if vote.delay.is_some() && !last_vote_shutdown {
                println!(
                    "    t={:>8.2}s  {}  signature match -> shutdown scheduled after wait-window",
                    access.time.as_secs_f64(),
                    access.pc,
                );
            }
            last_vote_shutdown = vote.delay.is_some();
            if gap > breakeven {
                let (matches, learned) = pcap.stats();
                pcap.on_idle_end(gap);
                let (_, learned_after) = pcap.stats();
                if learned_after > learned {
                    println!(
                        "    t={:>8.2}s  idle {:>6.1}s > breakeven: NEW path learned (table now {} entries)",
                        access.time.as_secs_f64(),
                        gap.as_secs_f64(),
                        table.len()
                    );
                } else if matches > 0 {
                    println!(
                        "    t={:>8.2}s  idle {:>6.1}s > breakeven: prediction verified",
                        access.time.as_secs_f64(),
                        gap.as_secs_f64()
                    );
                }
            } else {
                pcap.on_idle_end(gap);
            }
        }
        pcap.on_run_end();
        println!();
    }

    println!("prediction table after 3 executions:");
    for key in table.snapshot().keys {
        println!("    {}", key.signature);
    }
    println!("\nExecution 1 trains; executions 2+ shut the disk down the");
    println!("instant the startup path completes — that is table reuse.");
    Ok(())
}
