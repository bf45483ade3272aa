//! Deterministic parallel execution of simulation grids.
//!
//! [`SweepRunner`] fans an ordered task list across scoped worker
//! threads and merges the results back **in task order**, so the output
//! of a parallel run is byte-identical to a serial run: parallelism
//! only changes *when* each task executes, never *what* it produces or
//! where its result lands. Every simulation task is itself a pure
//! function of `(trace, config, kind)` — the engine holds no global
//! state — which is what makes this safe.
//!
//! [`run_observed`](SweepRunner::run_observed) is the same engine with
//! a [`PipelineObserver`] attached: each worker labels its trace track,
//! wraps every task in a span, and reports [`WorkerStats`] (tasks
//! claimed, busy vs queue-wait time) on exit — the raw material for
//! `pcap profile`'s imbalance and slowest-cell attribution. The plain
//! [`run`](SweepRunner::run) delegates to it with the compile-out
//! [`NullPipeline`], so the un-profiled path pays nothing.
//!
//! One worker loop serves every job count: it runs inline on the
//! calling thread when one worker suffices, and on scoped threads
//! otherwise. Each worker returns the `(task index, result)` pairs it
//! computed, and the caller places them in task order after the join —
//! no shared result slots, no `unsafe`.
//!
//! A panic inside a task does not wedge the pool: the panicking worker
//! keeps the payload, every worker drains out via an abort flag, and
//! the panic resumes on the caller *after* all workers joined.
//!
//! [`SeedStat`] aggregates per-seed metrics (mean/min/max) for the
//! multi-seed sweep experiment built on top of the runner.

use pcap_obs::{NullPipeline, PipelineObserver, WorkerStats};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// A pool of scoped worker threads that evaluates an ordered task list
/// and returns results in canonical (task) order.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    jobs: usize,
}

impl SweepRunner {
    /// A runner with `jobs` workers; `0` selects the machine's
    /// available parallelism.
    pub fn new(jobs: usize) -> SweepRunner {
        let jobs = if jobs == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            jobs
        };
        SweepRunner { jobs }
    }

    /// The number of worker threads this runner uses.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs `worker` over every task and returns the results in task
    /// order, regardless of which worker finished first.
    ///
    /// Workers pull tasks from a shared atomic cursor (dynamic load
    /// balancing: simulation costs vary wildly across apps), so each
    /// task index goes to exactly one worker.
    ///
    /// # Panics
    ///
    /// If `worker` panics on any task, the panic is propagated on the
    /// calling thread after every worker has drained and joined.
    pub fn run<T, R, F>(&self, tasks: &[T], worker: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.run_observed(
            "sweep",
            tasks,
            worker,
            |index, _| index.to_string(),
            &NullPipeline,
        )
    }

    /// [`run`](Self::run) with a [`PipelineObserver`] attached.
    ///
    /// `scope_name` names the runner scope in worker telemetry and
    /// thread labels; `label` names each task's span (called only when
    /// the observer is enabled, so it may allocate freely). With
    /// [`NullPipeline`] every instrumentation site — including the
    /// label construction and the two `Instant` reads per task —
    /// compiles out, and the behaviour is exactly [`run`](Self::run).
    /// A single worker runs on the calling thread and still reports as
    /// worker 0, so `--jobs 1` profiles carry spans and telemetry too.
    pub fn run_observed<T, R, F, L, O>(
        &self,
        scope_name: &str,
        tasks: &[T],
        worker: F,
        label: L,
        observer: &O,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
        L: Fn(usize, &T) -> String + Sync,
        O: PipelineObserver,
    {
        let cursor = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        // One worker: its `(task index, result)` pairs, or the payload
        // of the task that panicked.
        let work = |worker_index: usize| {
            let started = Instant::now();
            if O::ENABLED {
                observer.thread_label(&format!("{scope_name} worker {worker_index}"));
            }
            let mut done = Vec::new();
            let mut busy_us = 0u64;
            let mut panicked = None;
            while !abort.load(Ordering::Relaxed) {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(task) = tasks.get(index) else {
                    break;
                };
                let result = if O::ENABLED {
                    let name = label(index, task);
                    let task_start = Instant::now();
                    observer.span_begin(&name);
                    let result = catch_unwind(AssertUnwindSafe(|| worker(index, task)));
                    observer.span_end(&name);
                    let micros = task_start.elapsed().as_micros() as u64;
                    busy_us += micros;
                    if result.is_ok() {
                        observer.task_done(&name, micros);
                    }
                    result
                } else {
                    catch_unwind(AssertUnwindSafe(|| worker(index, task)))
                };
                match result {
                    Ok(result) => done.push((index, result)),
                    Err(payload) => {
                        // Tell every worker to drain; the caller resumes
                        // the panic after the join.
                        abort.store(true, Ordering::Relaxed);
                        panicked = Some(payload);
                        break;
                    }
                }
            }
            if O::ENABLED {
                observer.worker_done(WorkerStats {
                    scope: scope_name.to_owned(),
                    worker: worker_index,
                    tasks: done.len() as u64,
                    busy_us,
                    elapsed_us: started.elapsed().as_micros() as u64,
                });
            }
            panicked.map_or(Ok(done), Err)
        };
        let workers = self.jobs.min(tasks.len());
        let outputs: Vec<_> = if workers <= 1 {
            vec![work(0)]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|worker_index| {
                        let work = &work;
                        scope.spawn(move || work(worker_index))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| handle.join().expect("workers catch task panics"))
                    .collect()
            })
        };
        let mut slots: Vec<Option<R>> = tasks.iter().map(|_| None).collect();
        for output in outputs {
            for (index, result) in output.unwrap_or_else(|payload| resume_unwind(payload)) {
                slots[index] = Some(result);
            }
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every task index was claimed exactly once"))
            .collect()
    }
}

impl Default for SweepRunner {
    /// The default runner uses all available parallelism.
    fn default() -> SweepRunner {
        SweepRunner::new(0)
    }
}

/// Mean/min/max of one metric across seeds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeedStat {
    /// Arithmetic mean over the seeds.
    pub mean: f64,
    /// Smallest per-seed value.
    pub min: f64,
    /// Largest per-seed value.
    pub max: f64,
}

impl SeedStat {
    /// Aggregates samples; an empty slice yields all zeros.
    ///
    /// NaN samples follow IEEE `min`/`max` semantics — they are ignored
    /// by `min` and `max` (which keep the non-NaN operand) but poison
    /// `mean` through the sum. An all-NaN slice therefore yields
    /// `min = +∞`, `max = −∞`, `mean = NaN` — the same sentinel bounds
    /// as the (unreachable) no-sample fold. `tests` pin this.
    pub fn of(samples: &[f64]) -> SeedStat {
        if samples.is_empty() {
            return SeedStat {
                mean: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for &x in samples {
            min = min.min(x);
            max = max.max(x);
            sum += x;
        }
        SeedStat {
            mean: sum / samples.len() as f64,
            min,
            max,
        }
    }

    /// The max−min spread across seeds; `0.0` for empty and
    /// single-sample inputs.
    pub fn spread(&self) -> f64 {
        self.max - self.min
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcap_obs::TraceRecorder;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_task_order() {
        let tasks: Vec<u64> = (0..64).collect();
        // Deliberately uneven task costs so workers finish out of order.
        let work = |_: usize, n: &u64| -> u64 {
            let spin = (n % 7) * 1_000;
            let mut acc = 0u64;
            for i in 0..spin {
                acc = acc.wrapping_add(i);
            }
            std::hint::black_box(acc);
            n * 3
        };
        let serial = SweepRunner::new(1).run(&tasks, work);
        let parallel = SweepRunner::new(8).run(&tasks, work);
        assert_eq!(serial, parallel);
        assert_eq!(serial, (0..64).map(|n| n * 3).collect::<Vec<_>>());
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let tasks: Vec<usize> = (0..100).collect();
        let results = SweepRunner::new(4).run(&tasks, |index, task| {
            counter.fetch_add(1, Ordering::Relaxed);
            assert_eq!(index, *task);
            index
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(results.len(), 100);
    }

    #[test]
    fn zero_jobs_selects_available_parallelism() {
        assert!(SweepRunner::new(0).jobs() >= 1);
        assert_eq!(SweepRunner::new(3).jobs(), 3);
    }

    #[test]
    fn observed_run_matches_plain_run_and_reports_telemetry() {
        let tasks: Vec<u64> = (0..40).collect();
        let recorder = TraceRecorder::new();
        let observed = SweepRunner::new(4).run_observed(
            "grid",
            &tasks,
            |_, n| n * 2,
            |_, n| format!("cell:{n}"),
            &recorder,
        );
        assert_eq!(observed, SweepRunner::new(4).run(&tasks, |_, n| n * 2));
        let workers = recorder.workers();
        assert_eq!(workers.len(), 4);
        assert!(workers.iter().all(|w| w.scope == "grid"));
        assert_eq!(workers.iter().map(|w| w.tasks).sum::<u64>(), 40);
        assert_eq!(recorder.counters()["tasks"], 40);
        // One span per task, each on its worker's own track.
        let events = recorder.events();
        assert_eq!(events.iter().filter(|e| e.begin).count(), 40);
        assert!(recorder.slowest().unwrap().label.starts_with("cell:"));
    }

    #[test]
    fn serial_observed_run_still_traces_as_worker_zero() {
        let tasks: Vec<u64> = (0..5).collect();
        let recorder = TraceRecorder::new();
        SweepRunner::new(1).run_observed(
            "solo",
            &tasks,
            |_, n| *n,
            |i, _| format!("t:{i}"),
            &recorder,
        );
        let workers = recorder.workers();
        assert_eq!(workers.len(), 1);
        assert_eq!(workers[0].worker, 0);
        assert_eq!(workers[0].tasks, 5);
        assert_eq!(recorder.tracks().values().next().unwrap(), "solo worker 0");
    }

    /// Satellite: a panicking task must neither deadlock the pool nor
    /// let the merge read a partially-initialised slot — the panic
    /// propagates on the caller after every worker joined.
    #[test]
    #[should_panic(expected = "task 17 exploded")]
    fn parallel_worker_panic_propagates_without_deadlock() {
        let tasks: Vec<usize> = (0..100).collect();
        SweepRunner::new(4).run(&tasks, |index, _| {
            if index == 17 {
                panic!("task 17 exploded");
            }
            index
        });
    }

    #[test]
    fn worker_panic_aborts_remaining_tasks_and_keeps_payload() {
        let started = AtomicUsize::new(0);
        let tasks: Vec<usize> = (0..10_000).collect();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            SweepRunner::new(2).run(&tasks, |index, _| {
                started.fetch_add(1, Ordering::Relaxed);
                if index == 3 {
                    panic!("boom at 3");
                }
                // Keep tasks slow enough that the abort flag matters.
                std::thread::sleep(std::time::Duration::from_micros(50));
                index
            });
        }));
        let payload = caught.expect_err("panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .expect("payload survives verbatim");
        assert_eq!(message, "boom at 3");
        let ran = started.load(Ordering::Relaxed);
        assert!(
            ran < tasks.len(),
            "abort flag should stop the sweep early (ran {ran} of {})",
            tasks.len()
        );
    }

    #[test]
    #[should_panic(expected = "serial boom")]
    fn serial_worker_panic_propagates() {
        let tasks: Vec<usize> = (0..4).collect();
        SweepRunner::new(1).run(&tasks, |index, _| {
            if index == 2 {
                panic!("serial boom");
            }
            index
        });
    }

    #[test]
    fn seed_stat_aggregates() {
        let s = SeedStat::of(&[0.2, 0.4, 0.3]);
        assert!((s.mean - 0.3).abs() < 1e-12);
        assert_eq!(s.min, 0.2);
        assert_eq!(s.max, 0.4);
        assert!((s.spread() - 0.2).abs() < 1e-12);
        assert_eq!(SeedStat::of(&[]).mean, 0.0);
    }

    /// Satellite: documented edge-case behaviour of `SeedStat::of` and
    /// `SeedStat::spread`, pinned.
    #[test]
    fn seed_stat_empty_input_is_all_zeros() {
        let s = SeedStat::of(&[]);
        assert_eq!((s.mean, s.min, s.max), (0.0, 0.0, 0.0));
        assert_eq!(s.spread(), 0.0);
    }

    #[test]
    fn seed_stat_single_sample_collapses() {
        let s = SeedStat::of(&[0.37]);
        assert_eq!((s.mean, s.min, s.max), (0.37, 0.37, 0.37));
        assert_eq!(s.spread(), 0.0, "one seed has no spread");
        // Negative single sample, same collapse.
        let n = SeedStat::of(&[-2.5]);
        assert_eq!((n.mean, n.min, n.max), (-2.5, -2.5, -2.5));
        assert_eq!(n.spread(), 0.0);
    }

    #[test]
    fn seed_stat_nan_samples_skip_extremes_but_poison_mean() {
        // IEEE min/max keep the non-NaN operand, so extremes come from
        // the finite samples; the mean runs through the NaN sum.
        let s = SeedStat::of(&[0.1, f64::NAN, 0.5]);
        assert_eq!(s.min, 0.1);
        assert_eq!(s.max, 0.5);
        assert!(s.mean.is_nan());
        assert!((s.spread() - 0.4).abs() < 1e-12, "spread stays finite");
    }

    #[test]
    fn seed_stat_all_nan_keeps_sentinel_bounds() {
        let s = SeedStat::of(&[f64::NAN, f64::NAN]);
        assert_eq!(s.min, f64::INFINITY, "min fold never left its seed");
        assert_eq!(s.max, f64::NEG_INFINITY, "max fold never left its seed");
        assert!(s.mean.is_nan());
        assert_eq!(s.spread(), f64::NEG_INFINITY, "−∞ − ∞");
    }
}
