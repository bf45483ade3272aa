//! The workload DSL: activities, user-session Markov models, helper
//! processes, and the engine that turns an [`AppSpec`] into validated
//! trace runs.
//!
//! The paper's traces capture real users driving six interactive
//! applications. The DSL reproduces the *structure* those traces have
//! from the predictor's point of view:
//!
//! * each user-visible **activity** (open a page, save a file, refill a
//!   stream buffer) issues a fixed sequence of I/Os from fixed call
//!   sites — so the PC paths PCAP keys on repeat within and across
//!   executions;
//! * a Markov **user-state model** chooses activities and think times,
//!   producing the mixture of sub-wait-window, short and long idle
//!   periods the predictors must classify (with autocorrelation that
//!   the history variants can exploit);
//! * **helper processes** fork from the root and perform their own I/O
//!   bursts triggered by root activities, creating the multi-process
//!   local/global structure of §5.
//!
//! Every I/O carries the PC of its call site, read at the library
//! boundary as the paper's modified I/O library does (§3.2.1). A site's
//! PC comes from the spec alone: each run assigns every site of the
//! spec through one [`SiteMap`] in spec order, so a site keeps its PC
//! across executions (§4.2).

use crate::dists::{CountDist, TimeDist};
use pcap_capture::SiteMap;
use pcap_trace::{TraceError, TraceRun, TraceRunBuilder};
use pcap_types::{Fd, FileId, IoKind, Pc, Pid, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One I/O operation issued by an activity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IoOp {
    /// Call-site name; maps to a stable PC via [`SiteMap`].
    pub site: String,
    /// Operation type.
    pub kind: IoKind,
    /// File tag; maps to a stable fd and (per-instance) file id.
    pub file: String,
    /// Pages transferred per operation.
    pub pages: CountDist,
    /// How many times to repeat the operation (sequential cursor).
    pub repeat: CountDist,
    /// Probability that the operation happens at all in a given
    /// activity execution (sparse autosaves and the like).
    pub prob: f64,
}

impl IoOp {
    /// A read of `pages` pages from `file`, issued at `site`.
    pub fn read(site: &str, file: &str, pages: u32) -> IoOp {
        IoOp {
            site: site.into(),
            kind: IoKind::Read,
            file: file.into(),
            pages: CountDist::exactly(pages),
            repeat: CountDist::exactly(1),
            prob: 1.0,
        }
    }

    /// A write of `pages` pages to `file`, issued at `site`.
    pub fn write(site: &str, file: &str, pages: u32) -> IoOp {
        IoOp {
            kind: IoKind::Write,
            ..IoOp::read(site, file, pages)
        }
    }

    /// A synchronously flushed (`fsync`) write — an editor save that
    /// reaches the disk immediately with the application PC attached.
    pub fn write_sync(site: &str, file: &str, pages: u32) -> IoOp {
        IoOp {
            kind: IoKind::SyncWrite,
            ..IoOp::read(site, file, pages)
        }
    }

    /// An `open(2)` of `file` issued at `site`.
    pub fn open(site: &str, file: &str) -> IoOp {
        IoOp {
            kind: IoKind::Open,
            pages: CountDist::exactly(0),
            ..IoOp::read(site, file, 0)
        }
    }

    /// Repeats the operation `lo..=hi` times with an advancing cursor.
    #[must_use]
    pub fn times(mut self, lo: u32, hi: u32) -> IoOp {
        self.repeat = CountDist::new(lo, hi);
        self
    }

    /// Performs the operation only with probability `p` per activity
    /// execution.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn with_prob(mut self, p: f64) -> IoOp {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.prob = p;
        self
    }
}

/// One step of an activity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ActivityStep {
    /// Perform an I/O operation.
    Io(IoOp),
    /// Wait (intra-activity; keep below the wait-window so the burst
    /// reads as one busy period).
    Pause(TimeDist),
}

/// A named burst of I/O the user (or a helper) performs as one unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Activity {
    /// Activity name; also the enclosing call-site, so every activity
    /// has a distinct PC context.
    pub name: String,
    /// The steps, in order.
    pub steps: Vec<ActivityStep>,
    /// If true, file tags used by this activity denote fresh content
    /// each time (new page, new document) — guaranteeing cache misses;
    /// the fd stays stable per tag.
    pub fresh_files: bool,
    /// Think time following this activity, overriding the user state's
    /// think time. This is how activity→idle-length correlation is
    /// expressed (a preview is watched, a save is followed by more
    /// typing) — the correlation PCAP's path signatures key on.
    pub think: Option<TimeDist>,
}

impl Activity {
    /// Starts building an activity.
    pub fn named(name: &str) -> Activity {
        Activity {
            name: name.into(),
            steps: Vec::new(),
            fresh_files: false,
            think: None,
        }
    }

    /// Appends an I/O step.
    #[must_use]
    pub fn io(mut self, op: IoOp) -> Activity {
        self.steps.push(ActivityStep::Io(op));
        self
    }

    /// Appends an intra-activity pause.
    #[must_use]
    pub fn pause(mut self, dist: TimeDist) -> Activity {
        self.steps.push(ActivityStep::Pause(dist));
        self
    }

    /// Marks the activity as touching fresh content each execution.
    #[must_use]
    pub fn fresh(mut self) -> Activity {
        self.fresh_files = true;
        self
    }

    /// Sets the think time that follows this activity (overriding the
    /// user state's).
    #[must_use]
    pub fn think(mut self, dist: TimeDist) -> Activity {
        self.think = Some(dist);
        self
    }
}

/// A state of the user-session Markov model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserState {
    /// State name ("skim", "read", …).
    pub name: String,
    /// Weighted choice over activity indices to perform in this state.
    pub activity_weights: Vec<(usize, f64)>,
    /// Think time after the activity completes.
    pub think: TimeDist,
    /// Weighted transition to the next state.
    pub next: Vec<(usize, f64)>,
}

/// A helper process forked by the application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HelperSpec {
    /// Helper name (labels its call sites).
    pub name: String,
    /// Per root-activity-index probability that the helper reacts with
    /// its own burst.
    pub triggers: Vec<(usize, f64)>,
    /// The helper's burst.
    pub activity: Activity,
    /// Delay between the root activity start and the helper burst.
    pub lag: TimeDist,
}

/// A complete synthetic application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppSpec {
    /// Application name ("mozilla", …).
    pub name: String,
    /// Number of traced executions (Table 1).
    pub executions: usize,
    /// Burst at process start (loading binaries, config, libraries).
    pub startup: Activity,
    /// Burst just before exit (saving state), if any.
    pub shutdown: Option<Activity>,
    /// The user-driven activities.
    pub activities: Vec<Activity>,
    /// The user-session Markov model over those activities.
    pub states: Vec<UserState>,
    /// Index of the state the session starts in.
    pub initial_state: usize,
    /// Activities per execution.
    pub activities_per_run: CountDist,
    /// Helper processes.
    pub helpers: Vec<HelperSpec>,
    /// Idle tail between the last activity (or shutdown burst) and
    /// process exit.
    pub final_pause: TimeDist,
    /// Library frames between the application and the kernel on each
    /// I/O call. Generation does not use it: the capture-overhead
    /// ablation prices each capture strategy's stack walk at this
    /// depth.
    pub io_library_depth: u32,
}

/// A structural defect in an [`AppSpec`], reported by
/// [`AppSpec::validate`] before any generation happens.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// A user state references an activity index that does not exist.
    UnknownActivity {
        /// Offending state name.
        state: String,
        /// The out-of-range activity index.
        index: usize,
    },
    /// A user state's transition references a state index that does not
    /// exist.
    UnknownState {
        /// Offending state name.
        state: String,
        /// The out-of-range state index.
        index: usize,
    },
    /// The initial state index is out of range.
    BadInitialState(usize),
    /// A weight list is empty or sums to a non-positive value.
    BadWeights {
        /// The state whose weights are degenerate.
        state: String,
    },
    /// A helper trigger references an activity index that does not
    /// exist.
    UnknownTrigger {
        /// Offending helper name.
        helper: String,
        /// The out-of-range activity index.
        index: usize,
    },
    /// An I/O operation carries a probability outside `[0, 1]`.
    BadProbability {
        /// Activity containing the op.
        activity: String,
        /// The offending probability.
        prob: f64,
    },
    /// The spec declares no user states.
    NoStates,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::UnknownActivity { state, index } => {
                write!(f, "state {state:?} references missing activity {index}")
            }
            SpecError::UnknownState { state, index } => {
                write!(f, "state {state:?} transitions to missing state {index}")
            }
            SpecError::BadInitialState(i) => write!(f, "initial state {i} out of range"),
            SpecError::BadWeights { state } => {
                write!(f, "state {state:?} has empty or non-positive weights")
            }
            SpecError::UnknownTrigger { helper, index } => {
                write!(f, "helper {helper:?} triggers on missing activity {index}")
            }
            SpecError::BadProbability { activity, prob } => {
                write!(
                    f,
                    "activity {activity:?} has probability {prob} outside [0, 1]"
                )
            }
            SpecError::NoStates => f.write_str("spec declares no user states"),
        }
    }
}

impl std::error::Error for SpecError {}

impl AppSpec {
    /// Checks the spec's internal references and weight sanity.
    ///
    /// # Errors
    ///
    /// Returns the first [`SpecError`] found. The six built-in paper
    /// applications validate by construction (asserted in tests).
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.states.is_empty() {
            return Err(SpecError::NoStates);
        }
        if self.initial_state >= self.states.len() {
            return Err(SpecError::BadInitialState(self.initial_state));
        }
        let check_weights = |state: &UserState,
                             weights: &[(usize, f64)],
                             bound: usize,
                             unknown: &dyn Fn(usize) -> SpecError|
         -> Result<(), SpecError> {
            if weights.is_empty() || weights.iter().map(|(_, w)| w).sum::<f64>() <= 0.0 {
                return Err(SpecError::BadWeights {
                    state: state.name.clone(),
                });
            }
            for &(index, _) in weights {
                if index >= bound {
                    return Err(unknown(index));
                }
            }
            Ok(())
        };
        for state in &self.states {
            check_weights(
                state,
                &state.activity_weights,
                self.activities.len(),
                &|index| SpecError::UnknownActivity {
                    state: state.name.clone(),
                    index,
                },
            )?;
            check_weights(state, &state.next, self.states.len(), &|index| {
                SpecError::UnknownState {
                    state: state.name.clone(),
                    index,
                }
            })?;
        }
        for helper in &self.helpers {
            for &(index, _) in &helper.triggers {
                if index >= self.activities.len() {
                    return Err(SpecError::UnknownTrigger {
                        helper: helper.name.clone(),
                        index,
                    });
                }
            }
        }
        let all_activities = self
            .activities
            .iter()
            .chain(std::iter::once(&self.startup))
            .chain(self.shutdown.iter())
            .chain(self.helpers.iter().map(|h| &h.activity));
        for activity in all_activities {
            for step in &activity.steps {
                if let ActivityStep::Io(op) = step {
                    if !(0.0..=1.0).contains(&op.prob) {
                        return Err(SpecError::BadProbability {
                            activity: activity.name.clone(),
                            prob: op.prob,
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

/// Anything that can generate the paper-style multi-execution trace of
/// one application.
pub trait AppModel {
    /// Application name.
    fn name(&self) -> &str;

    /// Number of executions in the full trace (Table 1).
    fn executions(&self) -> usize;

    /// Generates execution `run` under `seed`. Deterministic in
    /// `(name, seed, run)`.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] if the generated event stream fails
    /// validation — a bug in the spec, surfaced rather than masked.
    fn generate_run(&self, seed: u64, run: usize) -> Result<TraceRun, TraceError>;

    /// Generates the full multi-execution trace.
    ///
    /// # Errors
    ///
    /// Propagates the first [`TraceError`] from any run.
    fn generate_trace(&self, seed: u64) -> Result<pcap_trace::ApplicationTrace, TraceError> {
        let mut trace = pcap_trace::ApplicationTrace::new(self.name());
        for run in 0..self.executions() {
            trace.runs.push(self.generate_run(seed, run)?);
        }
        Ok(trace)
    }
}

/// Deterministic 64-bit FNV-1a over string/byte chunks.
fn fnv64(chunks: &[&[u8]]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for &b in *chunk {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Per-run file bookkeeping: one entry per file tag, interned on first
/// use in the run by the tag borrowed from the spec (an app has a
/// handful of tags, so a linear scan finds them).
struct FileSpace<'a> {
    app: &'a str,
    run: usize,
    tags: Vec<TagFile<'a>>,
}

/// One file tag's state within a run.
struct TagFile<'a> {
    tag: &'a str,
    /// Stable descriptor for the tag: deterministic across runs and
    /// executions (§4.1.2 — descriptors "show less variability").
    fd: Fd,
    /// Instance counter, bumped by fresh activities.
    instance: u64,
    /// The current instance's file id.
    file: FileId,
    /// Sequential page cursor of the current instance.
    cursor: u64,
}

impl<'a> FileSpace<'a> {
    fn new(app: &'a str, run: usize) -> FileSpace<'a> {
        FileSpace {
            app,
            run,
            tags: Vec::new(),
        }
    }

    fn file_id(&self, tag: &str, instance: u64) -> FileId {
        FileId(fnv64(&[
            self.app.as_bytes(),
            tag.as_bytes(),
            &self.run.to_le_bytes(),
            &instance.to_le_bytes(),
        ]))
    }

    /// Index of the tag's entry, interned at instance 0 on first use.
    fn intern(&mut self, tag: &'a str) -> usize {
        if let Some(index) = self.tags.iter().position(|f| f.tag == tag) {
            return index;
        }
        self.tags.push(TagFile {
            tag,
            fd: Fd(3 + (fnv64(&[tag.as_bytes()]) % 13) as u32),
            instance: 0,
            file: self.file_id(tag, 0),
            cursor: 0,
        });
        self.tags.len() - 1
    }

    /// The tag's entry: its fd, current file id and cursor.
    fn open(&mut self, tag: &'a str) -> &mut TagFile<'a> {
        let index = self.intern(tag);
        &mut self.tags[index]
    }

    /// Bumps the tag to a new instance (fresh content) whose cursor
    /// starts at page 0.
    fn refresh(&mut self, tag: &'a str) {
        let index = self.intern(tag);
        let instance = self.tags[index].instance + 1;
        let file = self.file_id(tag, instance);
        let entry = &mut self.tags[index];
        entry.instance = instance;
        entry.file = file;
        entry.cursor = 0;
    }
}

impl TagFile<'_> {
    /// Advances the current instance's cursor by `pages`, returning the
    /// starting byte offset.
    fn advance(&mut self, pages: u32) -> u64 {
        let offset = self.cursor * 4096;
        self.cursor += u64::from(pages);
        offset
    }
}

/// The generation engine for one run.
///
/// Every site's PC comes from the spec's [`SitePcs`], built once per
/// spec. What changes only per op execution — the tag's fd, file id
/// and cursor, the issuing process — is resolved before an op's repeat
/// loop, so each I/O costs its RNG draws and the event push.
struct RunEngine<'a> {
    spec: &'a AppSpec,
    sites: &'a SitePcs,
    rng: StdRng,
    files: FileSpace<'a>,
    builder: TraceRunBuilder,
    /// Earliest next event time of each process (keeps helper bursts
    /// ordered), by pid: the root, then the helpers in fork order.
    free: Vec<SimTime>,
}

/// Root process id.
const ROOT: Pid = Pid(1);

/// Index of `pid` in [`RunEngine::free`].
fn proc_index(pid: Pid) -> usize {
    (pid.0 - ROOT.0) as usize
}

/// Pid of the spec's helper `h`: the helpers fork in spec order.
fn helper_pid(h: usize) -> Pid {
    Pid(ROOT.0 + 1 + h as u32)
}

/// The PC of every I/O step of every (process, activity) role of one
/// spec, with each role's offset into that table. It depends only on
/// the spec, so it is built once per spec, not per run.
///
/// The roles come in spec order: the root's startup, its activities
/// and its shutdown, then each helper's burst. Every site name resolves
/// through one [`SiteMap`] in that order, so a site gets the same PC in
/// every run even when two names contend for one slot (the map gives it
/// to the name that asks first).
#[derive(Debug, Clone)]
pub(crate) struct SitePcs {
    pcs: Vec<Pc>,
    /// Offset in `pcs` of each role's first I/O step, in role order.
    bases: Vec<usize>,
}

impl SitePcs {
    pub(crate) fn of(spec: &AppSpec) -> SitePcs {
        let root = std::iter::once(&spec.startup)
            .chain(&spec.activities)
            .chain(&spec.shutdown)
            .map(|activity| (ROOT, activity));
        let helpers = spec
            .helpers
            .iter()
            .enumerate()
            .map(|(h, helper)| (helper_pid(h), &helper.activity));
        let mut sites = SiteMap::new(&spec.name);
        let mut pcs = Vec::new();
        let mut bases = Vec::new();
        for (pid, activity) in root.chain(helpers) {
            bases.push(pcs.len());
            for step in &activity.steps {
                if let ActivityStep::Io(op) = step {
                    pcs.push(sites.pc(&format!("{}::{}::{}", pid.0, activity.name, op.site)));
                }
            }
        }
        SitePcs { pcs, bases }
    }
}

impl<'a> RunEngine<'a> {
    fn new(spec: &'a AppSpec, sites: &'a SitePcs, seed: u64, run: usize) -> RunEngine<'a> {
        let rng = StdRng::seed_from_u64(fnv64(&[
            spec.name.as_bytes(),
            &seed.to_le_bytes(),
            &run.to_le_bytes(),
        ]));
        RunEngine {
            spec,
            sites,
            rng,
            files: FileSpace::new(&spec.name, run),
            builder: TraceRunBuilder::new(ROOT),
            free: vec![SimTime::ZERO],
        }
    }

    fn weighted<T: Copy>(&mut self, options: &[(T, f64)]) -> T {
        let total: f64 = options.iter().map(|(_, w)| w).sum();
        assert!(total > 0.0, "weights must be positive");
        let mut roll = self.rng.gen_range(0.0..total);
        for &(value, w) in options {
            if roll < w {
                return value;
            }
            roll -= w;
        }
        options.last().expect("non-empty weights").0
    }

    /// Executes `activity`, role `role` of [`SitePcs`], on process
    /// `pid` starting no earlier than `start`; returns the completion
    /// time.
    fn run_activity(
        &mut self,
        pid: Pid,
        start: SimTime,
        activity: &'a Activity,
        role: usize,
    ) -> SimTime {
        let mut t = start.max(self.free[proc_index(pid)]);
        if activity.fresh_files {
            for step in &activity.steps {
                if let ActivityStep::Io(op) = step {
                    self.files.refresh(&op.file);
                }
            }
        }
        let mut pcs = self.sites.pcs[self.sites.bases[role]..].iter();
        for step in &activity.steps {
            match step {
                ActivityStep::Pause(dist) => {
                    t += dist.sample(&mut self.rng);
                }
                ActivityStep::Io(op) => {
                    let pc = *pcs.next().expect("a PC per I/O step");
                    if op.prob < 1.0 && !self.rng.gen_bool(op.prob) {
                        continue;
                    }
                    let repeats = op.repeat.sample(&mut self.rng);
                    let file = self.files.open(&op.file);
                    for _ in 0..repeats {
                        let pages = op.pages.sample(&mut self.rng);
                        let offset = file.advance(pages);
                        self.builder.io(
                            t,
                            pid,
                            pc,
                            op.kind,
                            file.fd,
                            file.file,
                            offset,
                            u64::from(pages) * 4096,
                        );
                        // Issue cost: a few milliseconds per call.
                        t += SimDuration::from_micros(self.rng.gen_range(2_000..8_000));
                    }
                }
            }
        }
        self.free[proc_index(pid)] = t;
        t
    }

    fn generate(mut self) -> Result<TraceRun, TraceError> {
        let spec = self.spec;
        // Roles in `SitePcs` order: startup 0, activity `i` at 1 + i,
        // then the shutdown if any, then the helpers.
        let shutdown_role = 1 + spec.activities.len();
        let first_helper_role = self.sites.bases.len() - spec.helpers.len();
        // Fork helpers shortly after start.
        for h in 0..spec.helpers.len() {
            let t = SimTime::from_millis(10 * (h as u64 + 1));
            self.builder.fork(t, ROOT, helper_pid(h));
            debug_assert_eq!(proc_index(helper_pid(h)), self.free.len());
            self.free.push(t);
        }

        // Startup burst.
        let mut t = self.run_activity(ROOT, SimTime::from_millis(200), &spec.startup, 0);

        // User session.
        let mut state_idx = spec.initial_state;
        let n_activities = spec.activities_per_run.sample(&mut self.rng);
        // Think once after startup, as after any burst.
        let startup_think = spec
            .startup
            .think
            .as_ref()
            .unwrap_or(&spec.states[state_idx].think);
        t += startup_think.sample(&mut self.rng);

        for _ in 0..n_activities {
            let state = &spec.states[state_idx];
            let activity_idx = self.weighted(&state.activity_weights);
            let activity = &spec.activities[activity_idx];
            let end = self.run_activity(ROOT, t, activity, 1 + activity_idx);

            // Helper reactions.
            for (h, helper) in spec.helpers.iter().enumerate() {
                let prob = helper
                    .triggers
                    .iter()
                    .find(|(idx, _)| *idx == activity_idx)
                    .map_or(0.0, |(_, p)| *p);
                if prob > 0.0 && self.rng.gen_bool(prob.min(1.0)) {
                    let lag = helper.lag.sample(&mut self.rng);
                    self.run_activity(
                        helper_pid(h),
                        t + lag,
                        &helper.activity,
                        first_helper_role + h,
                    );
                }
            }

            let think = activity.think.as_ref().unwrap_or(&state.think);
            t = end + think.sample(&mut self.rng);
            state_idx = self.weighted(&state.next);
        }

        // Shutdown burst and exits.
        if let Some(shutdown) = &spec.shutdown {
            t = self.run_activity(ROOT, t, shutdown, shutdown_role);
        }
        t += spec.final_pause.sample(&mut self.rng);
        for h in 0..spec.helpers.len() {
            let pid = helper_pid(h);
            let free = self.free[proc_index(pid)];
            self.builder
                .exit(t.max(free) + SimDuration::from_millis(50), pid);
        }
        let root_free = self.free[proc_index(ROOT)];
        self.builder
            .exit(t.max(root_free) + SimDuration::from_millis(100), ROOT);
        self.builder.finish()
    }
}

impl AppModel for AppSpec {
    fn name(&self) -> &str {
        &self.name
    }

    fn executions(&self) -> usize {
        self.executions
    }

    fn generate_run(&self, seed: u64, run: usize) -> Result<TraceRun, TraceError> {
        self.generate_run_with(&SitePcs::of(self), seed, run)
    }

    /// Generates every run from one table of the spec's site PCs,
    /// built once for all of them.
    fn generate_trace(&self, seed: u64) -> Result<pcap_trace::ApplicationTrace, TraceError> {
        let sites = SitePcs::of(self);
        let mut trace = pcap_trace::ApplicationTrace::new(self.name());
        for run in 0..self.executions() {
            trace.runs.push(self.generate_run_with(&sites, seed, run)?);
        }
        Ok(trace)
    }
}

impl AppSpec {
    /// [`AppModel::generate_run`] with the spec's site PCs built by the
    /// caller (`sites` must be `SitePcs::of(self)`).
    pub(crate) fn generate_run_with(
        &self,
        sites: &SitePcs,
        seed: u64,
        run: usize,
    ) -> Result<TraceRun, TraceError> {
        debug_assert!(
            self.validate().is_ok(),
            "invalid spec: {:?}",
            self.validate()
        );
        RunEngine::new(self, sites, seed, run).generate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcap_types::TraceEvent;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The reference model for [`FileSpace`]: the file state keyed by
    /// owned tag strings that the engine kept before tags were interned
    /// per run. Every I/O looked up the tag's instance and its
    /// `(tag, instance)` cursor afresh.
    struct StringKeyedFiles {
        app: String,
        run: usize,
        /// tag → instance counter (bumped by fresh activities).
        instances: HashMap<String, u64>,
        /// (tag, instance) → sequential page cursor.
        cursors: HashMap<(String, u64), u64>,
    }

    impl StringKeyedFiles {
        fn new(app: &str, run: usize) -> StringKeyedFiles {
            StringKeyedFiles {
                app: app.to_owned(),
                run,
                instances: HashMap::new(),
                cursors: HashMap::new(),
            }
        }

        fn fd(&self, tag: &str) -> Fd {
            Fd(3 + (fnv64(&[tag.as_bytes()]) % 13) as u32)
        }

        fn instance(&self, tag: &str) -> u64 {
            self.instances.get(tag).copied().unwrap_or(0)
        }

        fn refresh(&mut self, tag: &str) {
            *self.instances.entry(tag.to_owned()).or_insert(0) += 1;
        }

        fn file_id(&self, tag: &str) -> FileId {
            FileId(fnv64(&[
                self.app.as_bytes(),
                tag.as_bytes(),
                &self.run.to_le_bytes(),
                &self.instance(tag).to_le_bytes(),
            ]))
        }

        fn advance(&mut self, tag: &str, pages: u64) -> u64 {
            let key = (tag.to_owned(), self.instance(tag));
            let cursor = self.cursors.entry(key).or_insert(0);
            let offset = *cursor * 4096;
            *cursor += pages;
            offset
        }
    }

    proptest! {
        /// The interned per-run file state agrees with the String-keyed
        /// reference on every sequence of refreshes and opens over three
        /// tags: the same fd, file id and byte offset at every open.
        #[test]
        fn file_space_matches_string_keyed_reference(
            run in 0usize..4,
            ops in prop::collection::vec((0u8..4, 0usize..3, 0u32..9), 1..200),
        ) {
            const TAGS: [&str; 3] = ["config", "doc", "logfile"];
            let mut files = FileSpace::new("tiny", run);
            let mut reference = StringKeyedFiles::new("tiny", run);
            for (op, tag, pages) in ops {
                let tag = TAGS[tag];
                if op == 0 {
                    files.refresh(tag);
                    reference.refresh(tag);
                } else {
                    let file = files.open(tag);
                    prop_assert_eq!(file.fd, reference.fd(tag));
                    prop_assert_eq!(file.file, reference.file_id(tag));
                    prop_assert_eq!(
                        file.advance(pages),
                        reference.advance(tag, u64::from(pages))
                    );
                }
            }
        }
    }

    fn tiny_spec() -> AppSpec {
        AppSpec {
            name: "tiny".into(),
            executions: 3,
            startup: Activity::named("startup")
                .io(IoOp::open("open_cfg", "config"))
                .io(IoOp::read("read_cfg", "config", 2)),
            shutdown: Some(Activity::named("shutdown").io(IoOp::write("save_cfg", "config", 1))),
            activities: vec![Activity::named("work")
                .io(IoOp::read("read_doc", "doc", 4).times(2, 4))
                .pause(TimeDist::Fixed(0.1))
                .io(IoOp::write("log", "logfile", 1))
                .fresh()],
            states: vec![UserState {
                name: "using".into(),
                activity_weights: vec![(0, 1.0)],
                think: TimeDist::think(0.4, (1.0, 4.0), (8.0, 60.0)),
                next: vec![(0, 1.0)],
            }],
            initial_state: 0,
            activities_per_run: CountDist::new(4, 6),
            helpers: vec![HelperSpec {
                name: "indexer".into(),
                triggers: vec![(0, 0.5)],
                activity: Activity::named("index").io(IoOp::read("scan", "index_db", 2)),
                lag: TimeDist::Fixed(0.2),
            }],
            final_pause: TimeDist::Fixed(0.5),
            io_library_depth: 2,
        }
    }

    #[test]
    fn validation_accepts_good_specs_and_names_defects() {
        assert_eq!(tiny_spec().validate(), Ok(()));

        let mut bad = tiny_spec();
        bad.initial_state = 9;
        assert_eq!(bad.validate(), Err(SpecError::BadInitialState(9)));

        let mut bad = tiny_spec();
        bad.states[0].activity_weights = vec![(7, 1.0)];
        assert!(matches!(
            bad.validate(),
            Err(SpecError::UnknownActivity { index: 7, .. })
        ));

        let mut bad = tiny_spec();
        bad.states[0].next = vec![(3, 1.0)];
        assert!(matches!(
            bad.validate(),
            Err(SpecError::UnknownState { index: 3, .. })
        ));

        let mut bad = tiny_spec();
        bad.states[0].next = vec![];
        assert!(matches!(bad.validate(), Err(SpecError::BadWeights { .. })));

        let mut bad = tiny_spec();
        bad.helpers[0].triggers = vec![(5, 0.5)];
        assert!(matches!(
            bad.validate(),
            Err(SpecError::UnknownTrigger { index: 5, .. })
        ));

        let mut bad = tiny_spec();
        bad.states.clear();
        assert_eq!(bad.validate(), Err(SpecError::NoStates));

        let e = SpecError::BadInitialState(9);
        assert!(e.to_string().contains('9'));
    }

    #[test]
    fn generates_valid_runs() {
        let spec = tiny_spec();
        let trace = spec.generate_trace(7).unwrap();
        assert_eq!(trace.runs.len(), 3);
        for run in &trace.runs {
            assert!(run.io_count() > 5);
            // Events sorted (builder guarantees it, but assert anyway).
            let times: Vec<_> = run.events.iter().map(TraceEvent::time).collect();
            assert!(times.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = tiny_spec();
        let a = spec.generate_trace(7).unwrap();
        let b = spec.generate_trace(7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let spec = tiny_spec();
        let a = spec.generate_trace(7).unwrap();
        let b = spec.generate_trace(8).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn pc_paths_are_stable_across_runs() {
        // The same activity must produce the same PC in every run and
        // execution — the property table reuse (§4.2) rests on.
        let spec = tiny_spec();
        let trace = spec.generate_trace(7).unwrap();
        let pcs_of = |run: &TraceRun| -> Vec<_> { run.io_events().map(|io| io.pc).collect() };
        let first_startup: Vec<_> = pcs_of(&trace.runs[0])[..2].to_vec();
        let second_startup: Vec<_> = pcs_of(&trace.runs[1])[..2].to_vec();
        assert_eq!(first_startup, second_startup);
    }

    /// A spec whose two site names, `1::a::s3903` and `1::b::t190`,
    /// hash to one [`SiteMap`] slot. Each activity is one read of its
    /// own file tag, so a site is told apart by its tag's fd.
    fn colliding_spec() -> AppSpec {
        AppSpec {
            name: "collide".into(),
            executions: 12,
            startup: Activity::named("startup"),
            shutdown: None,
            activities: vec![
                Activity::named("a").io(IoOp::read("s3903", "a_data", 1)),
                Activity::named("b").io(IoOp::read("t190", "b_data", 1)),
            ],
            states: vec![UserState {
                name: "either".into(),
                activity_weights: vec![(0, 1.0), (1, 1.0)],
                think: TimeDist::Fixed(2.0),
                next: vec![(0, 1.0)],
            }],
            initial_state: 0,
            activities_per_run: CountDist::exactly(2),
            helpers: Vec::new(),
            final_pause: TimeDist::Fixed(0.5),
            io_library_depth: 2,
        }
    }

    #[test]
    fn a_site_keeps_one_pc_in_every_run_even_when_names_collide() {
        // Whichever of the two names a fresh map sees first takes the
        // same slot.
        assert_eq!(
            SiteMap::new("collide").pc("1::a::s3903"),
            SiteMap::new("collide").pc("1::b::t190")
        );
        let mut files = FileSpace::new("collide", 0);
        let fds = [files.open("a_data").fd, files.open("b_data").fd];
        assert_ne!(fds[0], fds[1], "the sites must be told apart");

        let trace = colliding_spec().generate_trace(42).unwrap();
        let mut pcs_by_fd: HashMap<Fd, std::collections::BTreeSet<Pc>> = HashMap::new();
        for run in &trace.runs {
            for io in run.io_events() {
                pcs_by_fd.entry(io.fd).or_default().insert(io.pc);
            }
        }
        let pcs: Vec<_> = fds
            .iter()
            .map(|fd| {
                let pcs = &pcs_by_fd[fd];
                assert_eq!(pcs.len(), 1, "{fd:?} read PCs {pcs:x?}");
                *pcs.first().unwrap()
            })
            .collect();
        assert_ne!(pcs[0], pcs[1], "two sites share PC {:x?}", pcs[0]);
    }

    #[test]
    fn helper_process_appears_with_fork_and_exit() {
        let spec = tiny_spec();
        let run = spec.generate_run(7, 0).unwrap();
        let pids = run.pids();
        assert_eq!(pids, vec![Pid(1), Pid(2)]);
        let forks = run
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Fork { .. }))
            .count();
        let exits = run
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Exit { .. }))
            .count();
        assert_eq!(forks, 1);
        assert_eq!(exits, 2);
    }

    #[test]
    fn fresh_files_get_new_ids_stable_fds() {
        let spec = tiny_spec();
        let run = spec.generate_run(7, 0).unwrap();
        let doc_events: Vec<_> = run
            .io_events()
            .filter(|io| io.kind == IoKind::Read && io.len == 4 * 4096)
            .collect();
        assert!(doc_events.len() >= 4);
        let fds: std::collections::HashSet<_> = doc_events.iter().map(|e| e.fd).collect();
        assert_eq!(fds.len(), 1, "fd stable for the doc tag");
        let files: std::collections::HashSet<_> = doc_events.iter().map(|e| e.file).collect();
        assert!(files.len() > 1, "fresh content per activity");
    }

    #[test]
    fn think_times_produce_long_gaps() {
        let spec = tiny_spec();
        let run = spec.generate_run(7, 0).unwrap();
        let root_times: Vec<SimTime> = run
            .io_events()
            .filter(|io| io.pid == ROOT)
            .map(|io| io.time)
            .collect();
        let max_gap = root_times
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .fold(0.0f64, f64::max);
        assert!(max_gap > 5.43, "at least one long think (got {max_gap})");
    }
}
