//! Property-based tests (proptest) for the core data structures and
//! simulator invariants.

use pcap_cache::{CacheConfig, FileCache};
use pcap_core::{GlobalDecision, GlobalPredictor, ShutdownVote};
use pcap_disk::{DiskParams, DiskSim, GapBreakdown};
use pcap_dpm::prelude::*;
use pcap_trace::TraceRunBuilder;
use pcap_types::{IoEvent, LruMap};
use proptest::prelude::*;

// ---------------------------------------------------------------- LRU

proptest! {
    /// LruMap agrees with a naive reference model (vector of entries in
    /// recency order) on arbitrary operation sequences.
    #[test]
    fn lru_matches_reference_model(ops in prop::collection::vec((0u8..3, 0u8..12, 0u16..100), 1..200)) {
        let capacity = 4usize;
        let mut lru: LruMap<u8, u16> = LruMap::new(capacity);
        // Reference: most recent last.
        let mut reference: Vec<(u8, u16)> = Vec::new();

        for (op, key, value) in ops {
            match op {
                0 => {
                    // insert
                    if let Some(pos) = reference.iter().position(|(k, _)| *k == key) {
                        reference.remove(pos);
                    } else if reference.len() == capacity {
                        let evicted = reference.remove(0);
                        let got = lru.insert(key, value);
                        prop_assert_eq!(got, Some(evicted));
                        reference.push((key, value));
                        continue;
                    }
                    prop_assert_eq!(lru.insert(key, value), None);
                    reference.push((key, value));
                }
                1 => {
                    // get_mut (touch)
                    let expected = reference.iter().position(|(k, _)| *k == key);
                    match expected {
                        Some(pos) => {
                            let entry = reference.remove(pos);
                            prop_assert_eq!(lru.get_mut(&key).copied(), Some(entry.1));
                            reference.push(entry);
                        }
                        None => prop_assert!(lru.get_mut(&key).is_none()),
                    }
                }
                _ => {
                    // remove
                    let expected = reference.iter().position(|(k, _)| *k == key);
                    match expected {
                        Some(pos) => {
                            let entry = reference.remove(pos);
                            prop_assert_eq!(lru.remove(&key), Some(entry.1));
                        }
                        None => prop_assert!(lru.remove(&key).is_none()),
                    }
                }
            }
            prop_assert_eq!(lru.len(), reference.len());
        }
    }
}

// -------------------------------------------------------------- cache

proptest! {
    /// The cache never exceeds its capacity, never emits out-of-order
    /// accesses, and only the flush daemon writes with the kernel PC
    /// (given app-PC events) — at the paper's 64 pages and at one and
    /// two pages, where almost every access evicts.
    #[test]
    fn cache_invariants(
        capacity_pages in 0usize..3,
        events in prop::collection::vec(
            (0u64..120_000u64, 0u8..3, 0u64..4, 0u64..40, 1u64..5),
            1..150,
        )
    ) {
        let mut sorted = events;
        sorted.sort_by_key(|e| e.0);
        let mut config = CacheConfig::paper();
        config.capacity_bytes = [1, 2, 64][capacity_pages] * config.page_size;
        let capacity = config.capacity_pages() as usize;
        let mut cache = FileCache::new(config);
        let mut last_time = SimTime::ZERO;
        for (t_ms, kind, file, page, pages) in sorted {
            let kind = match kind {
                0 => IoKind::Read,
                1 => IoKind::Write,
                _ => IoKind::Open,
            };
            let event = IoEvent {
                time: SimTime::from_millis(t_ms),
                pid: Pid(1),
                pc: Pc(0x1000),
                kind,
                fd: Fd(3),
                file: FileId(file),
                offset: page * 4096,
                len: pages * 4096,
            };
            for access in cache.access(&event) {
                prop_assert!(access.time >= last_time, "accesses must be time-ordered");
                last_time = access.time;
                if access.is_kernel() {
                    prop_assert_eq!(access.kind, IoKind::Write, "kernel accesses are flushes");
                }
                prop_assert!(access.pages > 0);
            }
            prop_assert!(cache.resident_pages() <= capacity);
        }
    }
}

// --------------------------------------------------------------- disk

proptest! {
    /// Closed-form gap accounting: energy is non-negative, a shutdown
    /// never helps for gaps at/below breakeven, and always helps for
    /// gaps comfortably above it.
    #[test]
    fn gap_energy_properties(gap_ms in 1u64..200_000, shutdown_ms in 0u64..50_000) {
        let params = DiskParams::fujitsu_mhf2043at();
        let gap = SimDuration::from_millis(gap_ms);
        let at = SimDuration::from_millis(shutdown_ms);
        let managed = GapBreakdown::managed(&params, gap, at);
        let unmanaged = GapBreakdown::unmanaged(&params, gap);
        prop_assert!(managed.total().0 >= -1e9_f64.recip());
        if at >= gap {
            prop_assert_eq!(managed, unmanaged);
        }
        // Device-off interval beyond breakeven ⇒ energy strictly saved.
        if at < gap && gap - at > params.breakeven_time() + SimDuration::from_millis(100) {
            prop_assert!(managed.total().0 < unmanaged.total().0);
        }
        // Off interval below the *derived* breakeven ⇒ no saving.
        if at < gap && gap - at < params.derived_breakeven() {
            prop_assert!(managed.total().0 >= unmanaged.total().0 - 1e-9);
        }
    }

    /// The state machine and the closed form agree on arbitrary
    /// single-gap scenarios.
    #[test]
    fn disk_sim_matches_closed_form(gap_s in 6u64..300, shutdown_s in 1u64..100) {
        let params = DiskParams::fujitsu_mhf2043at();
        let gap = SimDuration::from_secs(gap_s);
        let at = SimDuration::from_secs(shutdown_s);
        prop_assume!(at + params.shutdown_time + params.spinup_time < gap);

        let mut sim = DiskSim::new(params.clone());
        sim.request_shutdown(SimTime::ZERO + at);
        // Wake so that spin-up completes exactly at gap end.
        sim.access(SimTime::ZERO + gap - params.spinup_time, 0);
        let ledger = sim.finish(SimTime::ZERO + gap);
        let machine = ledger.idle_energy + ledger.standby_energy + ledger.transition_energy;
        let closed = GapBreakdown::managed(&params, gap, at).total();
        prop_assert!((machine.0 - closed.0).abs() < 1e-6, "machine {} vs closed {}", machine, closed);
    }
}

// ---------------------------------------------------------- signature

proptest! {
    /// The additive encoding is permutation-invariant (the documented
    /// aliasing) and associative with respect to concatenation.
    #[test]
    fn signature_addition_properties(pcs in prop::collection::vec(0u32..u32::MAX, 0..20), split in 0usize..20) {
        let sig = Signature::of_path(pcs.iter().map(|&p| Pc(p)));
        let mut shuffled = pcs.clone();
        shuffled.reverse();
        prop_assert_eq!(Signature::of_path(shuffled.into_iter().map(Pc)), sig);
        let split = split.min(pcs.len());
        let (a, b) = pcs.split_at(split);
        let sig_a = Signature::of_path(a.iter().map(|&p| Pc(p)));
        let combined = b.iter().fold(sig_a, |s, &p| s.push(Pc(p)));
        prop_assert_eq!(combined, sig);
    }
}

// ------------------------------------------------------------ history

proptest! {
    /// HistoryTracker agrees with a reference VecDeque model.
    #[test]
    fn history_tracker_matches_reference(bits in prop::collection::vec(any::<bool>(), 0..40), cap in 1usize..12) {
        let mut tracker = pcap_core::HistoryTracker::new(cap);
        let mut reference: std::collections::VecDeque<bool> = std::collections::VecDeque::new();
        for bit in bits {
            tracker.push(bit);
            reference.push_back(bit);
            if reference.len() > cap {
                reference.pop_front();
            }
            let got = tracker.bits();
            prop_assert_eq!(got.len as usize, reference.len());
            // Most recent period is bit 0.
            for (age, &b) in reference.iter().rev().enumerate() {
                prop_assert_eq!((got.bits >> age) & 1 == 1, b, "mismatch at age {}", age);
            }
        }
    }
}

// ------------------------------------------------------------- global

proptest! {
    /// The global decision is exactly the maximum of the per-process
    /// vote-ready times, or KeepSpinning if any process abstains.
    #[test]
    fn global_predictor_is_max_composition(
        votes in prop::collection::vec((0usize..5, 0u64..100, prop::option::of(0u64..30), any::<bool>()), 1..30)
    ) {
        let mut global = GlobalPredictor::new();
        let mut latest: std::collections::HashMap<usize, Option<(u64, bool)>> =
            std::collections::HashMap::new();
        for &(slot, at, delay, backup) in &votes {
            if !latest.contains_key(&slot) {
                global.process_started(slot, SimTime::from_secs(at));
            }
            let vote = match (delay, backup) {
                (None, _) => ShutdownVote::never(),
                (Some(d), false) => ShutdownVote::after(SimDuration::from_secs(d)),
                (Some(d), true) => ShutdownVote::backup_after(SimDuration::from_secs(d)),
            };
            global.record_vote(slot, SimTime::from_secs(at), vote);
            latest.insert(slot, delay.map(|d| (at + d, backup)));
        }
        let expected = if latest.values().any(Option::is_none) {
            None
        } else {
            latest.values().flatten().map(|&(t, _)| t).max()
        };
        match (global.decision(), expected) {
            (GlobalDecision::KeepSpinning, None) => {}
            (GlobalDecision::ShutdownAt(t, _), Some(exp)) => {
                prop_assert_eq!(t, SimTime::from_secs(exp));
            }
            (got, exp) => prop_assert!(false, "decision {got:?} vs expected {exp:?}"),
        }
    }
}

// ---------------------------------------------------------- simulator

/// Random but valid single-process run: monotone access times with a
/// mix of sub-second and minute-scale gaps.
fn arbitrary_run() -> impl Strategy<Value = pcap_trace::TraceRun> {
    prop::collection::vec((1u64..40_000u64, 0u32..4u32), 1..40).prop_map(|gaps| {
        let mut b = TraceRunBuilder::new(Pid(1));
        let mut t = SimTime::from_millis(200);
        for (i, (gap_ms, pc)) in gaps.iter().enumerate() {
            b.io(
                t,
                Pid(1),
                Pc(0x1000 + pc),
                IoKind::Read,
                Fd(3),
                FileId(1),
                (i as u64) * 4096,
                4096,
            );
            t += SimDuration::from_millis(*gap_ms);
        }
        b.exit(t + SimDuration::from_secs(10), Pid(1));
        b.finish().expect("valid by construction")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// On arbitrary traces: the oracle never mispredicts, covers every
    /// opportunity, and no predictor beats its savings; every
    /// predictor's counts are internally consistent.
    #[test]
    fn simulator_invariants_on_random_traces(run in arbitrary_run()) {
        let config = SimConfig::paper();
        let mut trace = ApplicationTrace::new("random");
        trace.runs.push(run);

        let oracle = evaluate_app(&trace, &config, PowerManagerKind::Oracle);
        prop_assert_eq!(oracle.global.misses(), 0);
        prop_assert_eq!(oracle.global.not_predicted, 0);
        prop_assert_eq!(oracle.global.hits(), oracle.global.opportunities);

        for kind in [PowerManagerKind::Timeout, PowerManagerKind::LT, PowerManagerKind::PCAP] {
            let r = evaluate_app(&trace, &config, kind);
            // Savings bounded by the clairvoyant predictor.
            prop_assert!(r.savings() <= oracle.savings() + 1e-9, "{}", kind.label());
            // Hits + not-predicted never exceed opportunities.
            prop_assert!(r.global.hits() + r.global.not_predicted <= r.global.opportunities + r.global.misses());
            // Identical opportunity counts across predictors.
            prop_assert_eq!(r.global.opportunities, oracle.global.opportunities);
            // Base energy identical for all managers.
            prop_assert!((r.base_energy.total().0 - oracle.base_energy.total().0).abs() < 1e-6);
        }
    }

    /// The full engine agrees exactly with an independent, naive
    /// closed-form model of the timeout predictor on single-process
    /// traces: per-gap arithmetic, no event loop, no voting machinery.
    #[test]
    fn engine_matches_naive_timeout_reference(run in arbitrary_run()) {
        let config = SimConfig::paper();
        let be = config.disk.breakeven_time();
        let timeout = config.timeout;

        // Reference: straight arithmetic over the preprocessed gaps.
        let streams = pcap_sim::RunStreams::build(&run, &config);
        let mut reference = pcap_sim::PredictionCounts::default();
        let mut ref_energy = 0.0f64;
        let mut ref_base = 0.0f64;
        for (i, access) in streams.accesses.iter().enumerate() {
            let busy = (config.disk.busy_power * config.disk.service_time(access.pages)).0;
            ref_energy += busy;
            ref_base += busy;
            let gap = streams.global_gaps[i];
            if gap > be {
                reference.opportunities += 1;
            }
            let managed = GapBreakdown::managed(&config.disk, gap, timeout);
            ref_energy += managed.total().0;
            ref_base += GapBreakdown::unmanaged(&config.disk, gap).total().0;
            if timeout < gap {
                if gap - timeout > be {
                    reference.hit_primary += 1;
                } else {
                    reference.miss_primary += 1;
                }
            } else if gap > be {
                reference.not_predicted += 1;
            }
        }

        let mut trace = ApplicationTrace::new("ref");
        trace.runs.push(run);
        let engine = evaluate_app(&trace, &config, PowerManagerKind::Timeout);
        prop_assert_eq!(engine.global, reference);
        prop_assert!((engine.energy.total().0 - ref_energy).abs() < 1e-6,
            "energy {} vs reference {}", engine.energy.total().0, ref_energy);
        prop_assert!((engine.base_energy.total().0 - ref_base).abs() < 1e-6);
    }

    /// Merged system runs stay valid and conserve I/O events for
    /// arbitrary run pairs and offsets.
    #[test]
    fn merge_preserves_events(a in arbitrary_run(), b in arbitrary_run(), offset_s in 0u64..30) {
        let merged = pcap_trace::merge::merge_runs(&[
            (&a, SimDuration::ZERO),
            (&b, SimDuration::from_secs(offset_s)),
        ]).expect("valid inputs merge");
        prop_assert_eq!(merged.io_count(), a.io_count() + b.io_count());
        // Still time-ordered and simulatable.
        let config = SimConfig::paper();
        let mut trace = ApplicationTrace::new("merged");
        trace.runs.push(merged);
        let oracle = evaluate_app(&trace, &config, PowerManagerKind::Oracle);
        prop_assert_eq!(oracle.global.misses(), 0);
    }

    /// Determinism: simulating the same random trace twice gives
    /// identical reports.
    #[test]
    fn simulator_deterministic_on_random_traces(run in arbitrary_run()) {
        let config = SimConfig::paper();
        let mut trace = ApplicationTrace::new("random");
        trace.runs.push(run);
        let a = evaluate_app(&trace, &config, PowerManagerKind::PCAP);
        let b = evaluate_app(&trace, &config, PowerManagerKind::PCAP);
        prop_assert_eq!(a, b);
    }
}

// ------------------------------------------------- energy accounting

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Every spin-down is scored exactly once: global hits + misses
    /// equal the number of decisions in which the disk was shut down,
    /// and the decision stream covers every merged idle gap.
    #[test]
    fn hits_plus_misses_equal_logged_shutdowns(run in arbitrary_run()) {
        let config = SimConfig::paper();
        let streams = pcap_sim::RunStreams::build(&run, &config);
        for kind in [
            PowerManagerKind::Timeout,
            PowerManagerKind::LT,
            PowerManagerKind::PCAP,
            PowerManagerKind::Oracle,
        ] {
            let mut manager = kind.manager(&config);
            let mut collector = pcap_sim::AuditCollector::new();
            let out = pcap_sim::simulate_run_observed(
                &streams,
                &config,
                &mut manager,
                &mut pcap_sim::EngineScratch::new(),
                &mut collector,
            );
            let (log, ..) = collector.finish();
            let shutdowns = log.iter().filter(|g| g.shutdown_at.is_some()).count() as u64;
            prop_assert_eq!(
                out.global.hits() + out.global.misses(),
                shutdowns,
                "{}: hit/miss accounting must match the gap log",
                kind.label()
            );
            prop_assert_eq!(log.len(), streams.accesses.len());
        }
    }

    /// The energy integrator's components always sum to its total —
    /// managed and baseline — so no term is dropped or double-counted
    /// when a breakdown field is added.
    #[test]
    fn energy_components_sum_to_total(run in arbitrary_run()) {
        let config = SimConfig::paper();
        let mut trace = ApplicationTrace::new("random");
        trace.runs.push(run);
        for kind in [PowerManagerKind::Timeout, PowerManagerKind::PCAP, PowerManagerKind::Oracle] {
            let r = evaluate_app(&trace, &config, kind);
            for energy in [&r.energy, &r.base_energy] {
                let sum = energy.busy.0
                    + energy.idle_short.0
                    + energy.idle_long.0
                    + energy.power_cycle.0;
                prop_assert!(
                    (energy.total().0 - sum).abs() < 1e-9,
                    "{}: components {sum} vs total {}",
                    kind.label(),
                    energy.total().0
                );
                prop_assert!(energy.total().0.is_finite() && energy.total().0 >= 0.0);
            }
        }
    }

    /// The clairvoyant oracle never loses energy to power management:
    /// its managed total is bounded by the spin-always baseline on
    /// every trace. (Real predictors may lose energy on miss-heavy
    /// traces; the bound is only guaranteed for perfect prediction.)
    #[test]
    fn oracle_never_loses_energy(run in arbitrary_run()) {
        let config = SimConfig::paper();
        let mut trace = ApplicationTrace::new("random");
        trace.runs.push(run);
        let r = evaluate_app(&trace, &config, PowerManagerKind::Oracle);
        prop_assert!(
            r.energy.total().0 <= r.base_energy.total().0 + 1e-9,
            "oracle managed {} vs base {}",
            r.energy.total().0,
            r.base_energy.total().0
        );
        prop_assert!(r.savings() >= -1e-12);
    }
}

/// Like [`arbitrary_run`], but the root forks a child halfway through
/// and the remaining I/Os alternate between the two processes, so the
/// per-process (local) gap streams genuinely differ from the merged
/// (global) stream.
fn arbitrary_forked_run() -> impl Strategy<Value = pcap_trace::TraceRun> {
    prop::collection::vec((1u64..40_000u64, 0u32..4u32), 2..30).prop_map(|gaps| {
        let mut b = TraceRunBuilder::new(Pid(1));
        let mut t = SimTime::from_millis(200);
        let fork_at = gaps.len() / 2;
        for (i, (gap_ms, pc)) in gaps.iter().enumerate() {
            if i == fork_at {
                b.fork(t, Pid(1), Pid(2));
                t += SimDuration::from_millis(1);
            }
            let pid = if i >= fork_at && i % 2 == 0 {
                Pid(2)
            } else {
                Pid(1)
            };
            b.io(
                t,
                pid,
                Pc(0x1000 + pc),
                IoKind::Read,
                Fd(3),
                FileId(1),
                (i as u64) * 4096,
                4096,
            );
            t += SimDuration::from_millis(*gap_ms);
        }
        b.exit(t + SimDuration::from_secs(5), Pid(2));
        b.exit(t + SimDuration::from_secs(10), Pid(1));
        b.finish().expect("valid by construction")
    })
}

// -------------------------------------------------------------- audit

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// The decision-audit stream is an exact ledger of the aggregate
    /// report on arbitrary multi-process traces: auditing produces the
    /// same report, replayed energy reconciles bitwise, per-verdict
    /// recounts equal the Fig 6/7 counters, and the summed per-decision
    /// energy deltas explain the whole managed-vs-always-on difference.
    #[test]
    fn audit_stream_reconciles_with_aggregate_report(
        runs in prop::collection::vec(arbitrary_forked_run(), 1..3)
    ) {
        let config = SimConfig::paper();
        let mut trace = ApplicationTrace::new("random");
        trace.runs = runs;
        let prepared = pcap_sim::PreparedTrace::build(&trace, &config);
        let accesses: usize = prepared.streams().iter().map(|s| s.accesses.len()).sum();
        for kind in [PowerManagerKind::Timeout, PowerManagerKind::PCAP, PowerManagerKind::Oracle] {
            let outcome = pcap_sim::audit_prepared(&prepared, &config, kind);
            let report = pcap_sim::evaluate_prepared(&prepared, &config, kind);
            prop_assert_eq!(&outcome.report, &report, "{}", kind.label());
            prop_assert_eq!(outcome.records.len(), accesses);

            let count = |v: pcap_sim::GapVerdict| {
                outcome.records.iter().filter(|r| r.verdict == v).count() as u64
            };
            prop_assert_eq!(count(pcap_sim::GapVerdict::Hit), report.global.hits());
            prop_assert_eq!(count(pcap_sim::GapVerdict::Miss), report.global.misses());
            prop_assert_eq!(count(pcap_sim::GapVerdict::NotPredicted), report.global.not_predicted);
            prop_assert_eq!(outcome.metrics.opportunities, report.global.opportunities);

            // Bitwise: the run-structured replay reproduces the exact
            // float totals of the aggregate path.
            prop_assert_eq!(&outcome.audit_energy.energy, &report.energy, "{}", kind.label());
            prop_assert_eq!(&outcome.audit_energy.base_energy, &report.base_energy, "{}", kind.label());

            let summed: f64 = outcome.records.iter().map(|r| r.energy_delta_j).sum();
            let aggregate = report.energy.total().0 - report.base_energy.total().0;
            prop_assert!(
                (summed - aggregate).abs() < 1e-6,
                "{}: summed deltas {summed} vs aggregate {aggregate}",
                kind.label()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// The prepare-once pipeline's gap vectors agree with a naive
    /// reference recomputed straight from the filtered access stream:
    /// the global gap of access `i` runs from its completion to the
    /// next arrival (or run end), and the local gap to the issuing
    /// process's next arrival (or its lifetime end). This pins the
    /// dense-table backward scan in `RunStreams::build` against an
    /// O(n²) forward search that shares none of its machinery.
    #[test]
    fn prepared_gap_vectors_match_naive_recomputation(
        runs in prop::collection::vec(arbitrary_forked_run(), 1..4)
    ) {
        let config = SimConfig::paper();
        let mut trace = ApplicationTrace::new("random");
        trace.runs = runs;
        let prepared = pcap_sim::PreparedTrace::build(&trace, &config);
        prop_assert_eq!(prepared.len(), trace.runs.len());
        for (run, s) in trace.runs.iter().zip(prepared.streams()) {
            prop_assert_eq!(s.run_end, run.end);
            for i in 0..s.accesses.len() {
                let next_any = s.accesses.get(i + 1).map_or(run.end, |a| a.time);
                prop_assert_eq!(
                    s.global_gaps[i],
                    next_any.saturating_since(s.completions[i]),
                    "global gap {i}"
                );
                let pid = s.accesses[i].pid;
                let next_same = s.accesses[i + 1..]
                    .iter()
                    .find(|a| a.pid == pid)
                    .map_or_else(
                        || s.lifetime(pid).expect("traced pid").end,
                        |a| a.time,
                    );
                prop_assert_eq!(
                    s.local_gaps[i],
                    next_same.saturating_since(s.completions[i]),
                    "local gap {i} (pid {})",
                    pid.0
                );
            }
        }
    }
}

// ---------------------------------------------------- multi-state ladder

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// A single-state ladder (Table 2's standby) descended by the
    /// predictive policy reproduces the two-state engine exactly —
    /// counts and float energy totals — on arbitrary multi-process
    /// traces, for every manager kind including the oracle and the
    /// wait-window-substituting `PCAP+ms`.
    #[test]
    fn single_state_ladder_matches_legacy_engine(
        runs in prop::collection::vec(arbitrary_forked_run(), 1..3)
    ) {
        let config = SimConfig::paper();
        let mut trace = ApplicationTrace::new("random");
        trace.runs = runs;
        let prepared = pcap_sim::PreparedTrace::build(&trace, &config);
        let ladder = pcap_disk::MultiStateParams::from_disk(&config.disk);
        for kind in [
            PowerManagerKind::Timeout,
            PowerManagerKind::Oracle,
            PowerManagerKind::PCAP,
            PowerManagerKind::LT,
            PowerManagerKind::MultiStatePcap,
        ] {
            let legacy = pcap_sim::evaluate_prepared(&prepared, &config, kind);
            let multi = pcap_sim::evaluate_prepared_multistate(
                &prepared,
                &config,
                kind,
                &ladder,
                &pcap_disk::PredictiveJump,
            );
            prop_assert_eq!(&legacy, &multi.report, "{} diverged", kind.label());
        }
    }

    /// Ski-rental robustness: on arbitrary gap vectors the envelope
    /// descent pays at most twice the clairvoyant static optimum —
    /// per gap, hence also in aggregate.
    #[test]
    fn ski_rental_within_twice_oracle_on_arbitrary_gaps(
        gaps_ms in prop::collection::vec(1u64..600_000u64, 1..80)
    ) {
        use pcap_disk::{descent_energy, GapContext, LadderPolicy, OracleLadder, SkiRental};
        let ladder = pcap_disk::MultiStateParams::mobile_ata();
        let ski = SkiRental::new(&ladder);
        let mut ski_plan = Vec::new();
        let mut oracle_plan = Vec::new();
        let (mut alg, mut opt) = (0.0f64, 0.0f64);
        for gap_ms in gaps_ms {
            let gap = SimDuration::from_millis(gap_ms);
            let ctx = GapContext { shutdown_at: None, target: 0, gap };
            ski.plan(&ladder, &ctx, &mut ski_plan);
            OracleLadder.plan(&ladder, &ctx, &mut oracle_plan);
            let a = descent_energy(&ladder, &ski_plan, gap).0.total().0;
            let o = descent_energy(&ladder, &oracle_plan, gap).0.total().0;
            prop_assert!(o > 0.0 && a <= 2.0 * o + 1e-9, "gap {gap_ms} ms: ski {a} vs oracle {o}");
            alg += a;
            opt += o;
        }
        prop_assert!(alg <= 2.0 * opt + 1e-9, "aggregate {alg} vs {opt}");
    }

    /// Multi-state energy accounting mirrors the two-state invariants:
    /// components sum to the total, totals are finite and non-negative,
    /// and the ladder stats account for every merged idle gap.
    #[test]
    fn multistate_energy_components_sum_to_total(
        runs in prop::collection::vec(arbitrary_forked_run(), 1..3)
    ) {
        use pcap_disk::{OracleLadder, PredictiveJump, SkiRental};
        let config = SimConfig::paper();
        let mut trace = ApplicationTrace::new("random");
        trace.runs = runs;
        let prepared = pcap_sim::PreparedTrace::build(&trace, &config);
        let accesses: usize = prepared.streams().iter().map(|s| s.accesses.len()).sum();
        let ladder = pcap_disk::MultiStateParams::mobile_ata();
        let ski = SkiRental::new(&ladder);
        let policies: [&dyn pcap_disk::LadderPolicy; 3] = [&PredictiveJump, &ski, &OracleLadder];
        for policy in policies {
            let out = pcap_sim::evaluate_prepared_multistate(
                &prepared,
                &config,
                PowerManagerKind::PCAP,
                &ladder,
                policy,
            );
            for energy in [&out.report.energy, &out.report.base_energy] {
                let sum = energy.busy.0
                    + energy.idle_short.0
                    + energy.idle_long.0
                    + energy.power_cycle.0;
                prop_assert!(
                    (energy.total().0 - sum).abs() < 1e-9,
                    "{}: components {sum} vs total {}",
                    policy.label(),
                    energy.total().0
                );
                prop_assert!(energy.total().0.is_finite() && energy.total().0 >= 0.0);
            }
            prop_assert_eq!(
                out.ladder_stats.total_gaps(),
                accesses as u64,
                "{}: stats must cover every gap",
                policy.label()
            );
        }
    }
}
