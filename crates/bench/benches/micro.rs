//! Micro-benchmarks for the paper's constant-factor claims: signature
//! maintenance and table lookup (§3.2.2's "insignificant" per-I/O
//! overhead), PC capture strategies (§3.2.1), cache filtering, and raw
//! simulator throughput.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pcap_bench::sample_trace;
use pcap_cache::{CacheConfig, FileCache};
use pcap_capture::{CallStack, CaptureStrategy, FrameKind};
use pcap_core::{
    IdlePredictor, Pcap, PcapConfig, PredictionTable, SharedTable, SignatureTracker, TableKey,
};
use pcap_sim::{
    audit_prepared, evaluate_app, evaluate_prepared, evaluate_prepared_with, MetricsObserver,
    NullObserver, PowerManagerKind, PreparedTrace, SimConfig,
};
use pcap_types::{
    DiskAccess, Fd, FileId, IoEvent, IoKind, Pc, Pid, Signature, SimDuration, SimTime,
};
use std::hint::black_box;

/// §3.2.2: obtaining the PC and folding it into the signature.
fn signature_update(c: &mut Criterion) {
    c.bench_function("micro/signature_update", |b| {
        let mut tracker = SignatureTracker::new();
        let mut pc = 0u32;
        b.iter(|| {
            pc = pc.wrapping_add(0x9e37_79b9);
            black_box(tracker.observe(Pc(pc)))
        })
    });
}

/// §3.2.2: "the predictor lookup consists of a hash table access and
/// the comparison of signatures".
fn table_lookup(c: &mut Criterion) {
    let mut table = PredictionTable::unbounded();
    for i in 0..139 {
        // The largest table the paper reports (mozilla PCAPfh).
        table.learn(TableKey::plain(Signature(i * 0x0101)));
    }
    c.bench_function("micro/table_lookup_hit", |b| {
        b.iter(|| black_box(table.lookup(TableKey::plain(Signature(0x0101)))))
    });
    c.bench_function("micro/table_lookup_miss", |b| {
        b.iter(|| black_box(table.lookup(TableKey::plain(Signature(0xdead_beef)))))
    });
}

/// Full per-I/O predictor work: signature + lookup + vote.
fn pcap_on_access(c: &mut Criterion) {
    c.bench_function("micro/pcap_on_access", |b| {
        let mut pcap = Pcap::new(PcapConfig::paper(), SharedTable::unbounded());
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            let access = DiskAccess {
                time: SimTime::from_millis(t),
                pid: Pid(1),
                pc: Pc(0x1000 + (t % 7) as u32),
                fd: Fd(3),
                kind: IoKind::Read,
                pages: 1,
            };
            black_box(pcap.on_access(&access, SimDuration::ZERO))
        })
    });
}

/// §3.2.1: the three capture strategies on a realistic stack.
fn capture_strategies(c: &mut Criterion) {
    let mut stack = CallStack::new();
    stack.push(Pc(0x1000), FrameKind::Application);
    stack.push(Pc(0x1100), FrameKind::Application);
    for i in 0..3 {
        stack.push(Pc(0x7f00_0000 + i), FrameKind::Library);
    }
    stack.push(Pc(0xc000_0000), FrameKind::Kernel);
    for strategy in [
        CaptureStrategy::LibraryHook,
        CaptureStrategy::SyscallInterception,
        CaptureStrategy::KernelHook,
    ] {
        c.bench_function(format!("micro/capture/{strategy}"), |b| {
            b.iter(|| black_box(strategy.capture(&stack).expect("app frame")))
        });
    }
}

/// File-cache filtering throughput (events per second).
fn cache_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/cache");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("filter_10k_events", |b| {
        b.iter(|| {
            let mut cache = FileCache::new(CacheConfig::paper());
            for i in 0..10_000u64 {
                let event = IoEvent {
                    time: SimTime::from_millis(i * 3),
                    pid: Pid(1),
                    pc: Pc(0x1000),
                    kind: if i % 5 == 0 {
                        IoKind::Write
                    } else {
                        IoKind::Read
                    },
                    fd: Fd(3),
                    file: FileId(i % 16),
                    offset: (i % 64) * 4096,
                    len: 4096,
                };
                black_box(cache.access(&event));
            }
        })
    });
    group.finish();
}

/// Whole-pipeline throughput: one application trace through the global
/// simulator (Table 1 "mozilla"-shaped input).
fn simulator_throughput(c: &mut Criterion) {
    let trace = sample_trace();
    let events = trace.total_ios() as u64;
    let config = SimConfig::paper();
    let mut group = c.benchmark_group("micro/simulator");
    group.throughput(Throughput::Elements(events));
    group.sample_size(10);
    for kind in [
        PowerManagerKind::Timeout,
        PowerManagerKind::LT,
        PowerManagerKind::PCAP,
    ] {
        group.bench_function(format!("evaluate/{kind}"), |b| {
            b.iter(|| black_box(evaluate_app(&trace, &config, kind)))
        });
    }
    group.finish();
}

/// The two phases of the prepare-once pipeline, measured separately:
/// `prepare` is the manager-independent work (cache filtering, gap
/// extraction) paid once per trace, `evaluate_prepared` is the
/// per-manager increment paid for every grid cell. Their ratio is the
/// headroom the shared-streams warm-up exploits.
fn prepare_vs_evaluate(c: &mut Criterion) {
    let trace = sample_trace();
    let events = trace.total_ios() as u64;
    let config = SimConfig::paper();
    let mut group = c.benchmark_group("micro/prepared");
    group.throughput(Throughput::Elements(events));
    group.sample_size(10);
    group.bench_function("prepare", |b| {
        b.iter(|| black_box(PreparedTrace::build(&trace, &config)))
    });
    let prepared = PreparedTrace::build(&trace, &config);
    for kind in [
        PowerManagerKind::Timeout,
        PowerManagerKind::LT,
        PowerManagerKind::PCAP,
    ] {
        group.bench_function(format!("evaluate_prepared/{kind}"), |b| {
            b.iter(|| black_box(evaluate_prepared(&prepared, &config, kind)))
        });
    }
    group.finish();
}

/// Observer overhead (DESIGN.md §8): the same PCAP evaluation with the
/// statically-disabled [`NullObserver`], the cheapest attached sink
/// (metrics only), and the full collecting sink. The first two should
/// be indistinguishable — record construction is compiled out when
/// `O::ENABLED` is false; `pcap bench` enforces the <2% bound, this
/// group quantifies it.
fn observer_overhead(c: &mut Criterion) {
    let trace = sample_trace();
    let events = trace.total_ios() as u64;
    let config = SimConfig::paper();
    let prepared = PreparedTrace::build(&trace, &config);
    let mut group = c.benchmark_group("micro/observer");
    group.throughput(Throughput::Elements(events));
    group.sample_size(10);
    group.bench_function("null", |b| {
        b.iter(|| {
            black_box(evaluate_prepared(
                &prepared,
                &config,
                PowerManagerKind::PCAP,
            ))
        })
    });
    group.bench_function("metrics", |b| {
        b.iter(|| {
            let mut sink = MetricsObserver::default();
            let report = evaluate_prepared_with(
                &prepared,
                &config,
                PowerManagerKind::PCAP,
                &mut sink,
                &pcap_obs::NullPipeline,
            );
            black_box((report, sink.metrics))
        })
    });
    group.bench_function("collect", |b| {
        b.iter(|| black_box(audit_prepared(&prepared, &config, PowerManagerKind::PCAP)))
    });
    group.finish();
}

/// DESIGN.md §10's zero-overhead claim for pipeline tracing: the
/// evaluation core with the compiled-out [`NullPipeline`] vs a live
/// [`TraceRecorder`] (one span + one histogram observation + one
/// counter update per evaluation), plus the raw per-span cost of the
/// recorder itself.
fn tracing_overhead(c: &mut Criterion) {
    let trace = sample_trace();
    let events = trace.total_ios() as u64;
    let config = SimConfig::paper();
    let prepared = PreparedTrace::build(&trace, &config);
    let mut group = c.benchmark_group("micro/tracing");
    group.throughput(Throughput::Elements(events));
    group.sample_size(10);
    group.bench_function("disabled", |b| {
        b.iter(|| {
            black_box(evaluate_prepared_with(
                &prepared,
                &config,
                PowerManagerKind::PCAP,
                &mut NullObserver,
                &pcap_obs::NullPipeline,
            ))
        })
    });
    group.bench_function("recording", |b| {
        let recorder = pcap_obs::TraceRecorder::new();
        b.iter(|| {
            black_box(evaluate_prepared_with(
                &prepared,
                &config,
                PowerManagerKind::PCAP,
                &mut NullObserver,
                &recorder,
            ))
        })
    });
    group.finish();

    let recorder = pcap_obs::TraceRecorder::new();
    c.bench_function("micro/tracing/span", |b| {
        b.iter(|| {
            drop(black_box(pcap_obs::span(&recorder, "probe")));
        })
    });
}

/// Per-gap cost of the three ladder descent policies on the mobile-ATA
/// ladder: plan + charge for a sweep of gap lengths spanning all three
/// envelope regimes. The predictive arm includes the vote → target
/// mapping; ski-rental reuses its precomputed switch times.
fn ladder(c: &mut Criterion) {
    use pcap_disk::{
        descent_energy, GapContext, LadderPolicy, MultiStateParams, OracleLadder, PredictiveJump,
        SkiRental,
    };
    let ladder = MultiStateParams::mobile_ata();
    let breakevens = ladder.breakevens();
    let ski = SkiRental::new(&ladder);
    let gaps: Vec<SimDuration> = (1..=64)
        .map(|i| SimDuration::from_millis(i * 500))
        .collect();
    let mut group = c.benchmark_group("micro/ladder");
    group.throughput(Throughput::Elements(gaps.len() as u64));
    let charge = |policy: &dyn LadderPolicy, plan: &mut Vec<_>, shutdown_at| {
        let mut total = 0.0f64;
        for &gap in &gaps {
            let ctx = GapContext {
                shutdown_at,
                target: breakevens.len() - 1,
                gap,
            };
            policy.plan(&ladder, &ctx, plan);
            total += descent_energy(&ladder, plan, gap).0.total().0;
        }
        total
    };
    group.bench_function("predictive", |b| {
        let mut plan = Vec::new();
        b.iter(|| {
            black_box(charge(
                &PredictiveJump,
                &mut plan,
                Some(SimDuration::from_secs(1)),
            ))
        })
    });
    group.bench_function("ski-rental", |b| {
        let mut plan = Vec::new();
        b.iter(|| black_box(charge(&ski, &mut plan, None)))
    });
    group.bench_function("oracle", |b| {
        let mut plan = Vec::new();
        b.iter(|| black_box(charge(&OracleLadder, &mut plan, None)))
    });
    group.finish();
}

criterion_group!(
    micro,
    signature_update,
    table_lookup,
    pcap_on_access,
    capture_strategies,
    cache_throughput,
    simulator_throughput,
    prepare_vs_evaluate,
    observer_overhead,
    tracing_overhead,
    ladder
);
criterion_main!(micro);
