//! Linux-like file cache simulator.
//!
//! The paper's evaluation filters every traced I/O operation through a
//! model of the Linux file cache: "The file cache size is 256 Kbytes. We
//! use the LRU mechanism for cache replacement and the default timer of
//! 30 seconds between cache flushes of dirty data. … only cache misses
//! are treated as actual disk accesses" (§6).
//!
//! [`FileCache`] reproduces that model: a 4 KB-page LRU cache with
//! write-back dirty pages flushed by a periodic daemon. Feeding it a
//! time-ordered stream of [`IoEvent`]s yields the stream of
//! [`DiskAccess`]es the power manager actually observes.
//!
//! # Example
//!
//! ```
//! use pcap_cache::{CacheConfig, FileCache};
//! use pcap_types::{Fd, FileId, IoEvent, IoKind, Pc, Pid, SimTime};
//!
//! let mut cache = FileCache::new(CacheConfig::paper());
//! let read = IoEvent {
//!     time: SimTime::from_secs(1),
//!     pid: Pid(1),
//!     pc: Pc(0x42),
//!     kind: IoKind::Read,
//!     fd: Fd(3),
//!     file: FileId(7),
//!     offset: 0,
//!     len: 8192,
//! };
//! let cold = cache.access(&read);
//! assert_eq!(cold.len(), 1); // one coalesced 2-page miss
//! assert_eq!(cold[0].pages, 2);
//! let warm = cache.access(&IoEvent { time: SimTime::from_secs(2), ..read });
//! assert!(warm.is_empty()); // served from cache
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pages;
pub mod prefetch;
#[cfg(test)]
mod reference;

pub use prefetch::{PcReadahead, ReadaheadConfig};

use pages::{Dirty, PageKey, PageState, Resident, RunTable};
use pcap_types::{DiskAccess, Fd, IoEvent, IoKind, Pid, SimDuration, SimTime, TraceEvent};
use serde::{Deserialize, Serialize};

/// Configuration of the file cache.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total cache capacity in bytes.
    pub capacity_bytes: u64,
    /// Page size in bytes.
    pub page_size: u64,
    /// Age at which a dirty page is written back (the "default timer of
    /// 30 seconds": Linux's dirty_expire interval).
    pub flush_interval: SimDuration,
    /// How often the flush daemon wakes to look for expired pages
    /// (Linux's writeback wakeup; 5 s).
    pub flush_wakeup: SimDuration,
    /// PC-based readahead (§7 future work; `None` = the paper's plain
    /// demand-fetch cache).
    pub readahead: Option<ReadaheadConfig>,
}

impl CacheConfig {
    /// The paper's configuration: 256 KB, 4 KB pages, 30 s flush timer,
    /// write-back.
    pub fn paper() -> CacheConfig {
        CacheConfig {
            capacity_bytes: 256 * 1024,
            page_size: 4096,
            flush_interval: SimDuration::from_secs(30),
            flush_wakeup: SimDuration::from_secs(5),
            readahead: None,
        }
    }

    /// Number of pages the cache holds.
    pub fn capacity_pages(&self) -> u64 {
        self.capacity_bytes / self.page_size
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::paper()
    }
}

/// Counters describing cache behaviour over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Pages served from the cache.
    pub page_hits: u64,
    /// Pages that had to be read from disk.
    pub page_misses: u64,
    /// Pages written back by the flush daemon.
    pub flushed_pages: u64,
    /// Flush-daemon wakeups that found dirty data.
    pub flush_runs: u64,
    /// Pages evicted (clean or dirty).
    pub evictions: u64,
    /// Dirty pages written back at eviction time.
    pub eviction_writebacks: u64,
    /// Pages fetched ahead of demand by PC-based readahead.
    pub prefetched_pages: u64,
}

impl CacheStats {
    /// Hit rate over data pages (0.0 when no accesses).
    pub fn hit_rate(&self) -> f64 {
        let total = self.page_hits + self.page_misses;
        if total == 0 {
            0.0
        } else {
            self.page_hits as f64 / total as f64
        }
    }
}

/// The file cache simulator; see the [crate docs](crate) for an example.
///
/// Events must be fed in non-decreasing time order (as produced by
/// [`pcap-trace`](https://docs.rs/pcap-trace) builders).
#[derive(Debug, Clone)]
pub struct FileCache {
    config: CacheConfig,
    pages: RunTable,
    /// The range walk's snapshot of resident runs, kept for its
    /// capacity.
    resident: Vec<Resident>,
    stats: CacheStats,
    readahead: Option<PcReadahead>,
    /// Flush ticks processed so far (tick k fires at k·interval).
    ticks_done: u64,
    last_event_time: SimTime,
}

impl FileCache {
    /// Creates an empty (cold) cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration holds zero pages, or pages of one
    /// byte: page numbers must stay below `u64::MAX`, so that a run of
    /// pages always has an end.
    pub fn new(config: CacheConfig) -> FileCache {
        let capacity = config.capacity_pages() as usize;
        assert!(capacity > 0, "cache must hold at least one page");
        assert!(config.page_size > 1, "cache pages must exceed one byte");
        let readahead = config.readahead.map(PcReadahead::new);
        FileCache {
            config,
            pages: RunTable::new(capacity),
            resident: Vec::new(),
            stats: CacheStats::default(),
            readahead,
            ticks_done: 0,
            last_event_time: SimTime::ZERO,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Returns the cache to its cold state while keeping every allocated
    /// capacity (page table, walk scratch, readahead tables), so one
    /// cache instance can filter an unbounded stream of runs without
    /// per-run allocation.
    ///
    /// A reset cache is behaviorally indistinguishable from
    /// [`FileCache::new`] with the same configuration.
    pub fn reset(&mut self) {
        self.pages.clear();
        self.stats = CacheStats::default();
        if let Some(ra) = self.readahead.as_mut() {
            ra.clear();
        }
        self.ticks_done = 0;
        self.last_event_time = SimTime::ZERO;
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Number of pages currently cached.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Number of dirty pages currently cached.
    pub fn dirty_pages(&self) -> usize {
        self.pages
            .runs()
            .filter(|(_, _, state)| state.is_some())
            .map(|(_, len, _)| len as usize)
            .sum()
    }

    /// Runs pending flush-daemon wakeups up to (and including) `now`;
    /// each wakeup writes back the pages that have been dirty for at
    /// least the flush interval (age-based write-back, as in Linux).
    ///
    /// Wakeups that would find nothing expired are skipped: the loop
    /// jumps to the first wakeup at or after the oldest dirty page's
    /// expiry (or straight to `now` when nothing is dirty), so its cost
    /// is one pass per flush, not per wakeup since the last event. A
    /// skipped wakeup flushes nothing and touches no counter.
    fn run_flush_ticks(&mut self, now: SimTime, out: &mut Vec<DiskAccess>) {
        let wakeup = self.config.flush_wakeup.as_micros();
        if wakeup == 0 {
            return;
        }
        let due = now.as_micros() / wakeup;
        let interval = self.config.flush_interval.as_micros();
        while self.ticks_done < due {
            let oldest_dirty = self
                .pages
                .runs()
                .filter_map(|(_, _, state)| state)
                .map(|dirty| dirty.at.as_micros())
                .min();
            let Some(dirtied_at) = oldest_dirty else {
                self.ticks_done = due;
                break;
            };
            let first_expired = dirtied_at.saturating_add(interval).div_ceil(wakeup);
            self.ticks_done = first_expired.clamp(self.ticks_done + 1, due);
            let tick_time = SimTime::from_micros(self.ticks_done * wakeup);
            if let Some(access) = self.flush_expired(tick_time) {
                self.stats.flush_runs += 1;
                out.push(access);
            }
        }
    }

    /// Cleans the dirty pages older than the flush interval, returning
    /// one coalesced kernel write access (or `None` if none expired).
    ///
    /// The access is attributed to the process that dirtied the oldest
    /// expired page, oldest `(dirtied_at, key)` first — a choice that
    /// does not depend on the page table's layout. Every page of a run
    /// shares its state, so the run's first page is its smallest key
    /// and one pass over the runs finds the same page that a pass over
    /// the pages would. Two passes instead of a sorted scratch vector
    /// keep this allocation-free on the streaming path.
    fn flush_expired(&mut self, time: SimTime) -> Option<DiskAccess> {
        let expire = self.config.flush_interval;
        let expired = |state: PageState| state.filter(|d| time.saturating_since(d.at) >= expire);
        let mut oldest: Option<(SimTime, PageKey, Pid)> = None;
        let mut pages = 0u32;
        for (key, len, state) in self.pages.runs() {
            if let Some(dirty) = expired(state) {
                pages += len as u32;
                let candidate = (dirty.at, key);
                if oldest.is_none_or(|(at, k, _)| candidate < (at, k)) {
                    oldest = Some((dirty.at, key, dirty.by));
                }
            }
        }
        let (_, _, pid) = oldest?;
        for state in self.pages.states_mut() {
            if expired(*state).is_some() {
                *state = None;
            }
        }
        self.stats.flushed_pages += u64::from(pages);
        Some(DiskAccess {
            time,
            pid,
            pc: DiskAccess::KERNEL_PC,
            fd: Fd(0),
            kind: IoKind::Write,
            pages,
        })
    }

    /// The page range `[first, last]` touched by an I/O event.
    ///
    /// Runs validated by `TraceRunBuilder::finish` keep `offset + len`
    /// within `u64` and `len` within `pcap_trace::MAX_RW_COUNT`, so the
    /// sum cannot overflow and a range's page count fits a `u32`. Pages
    /// of at least two bytes keep `last + 1` within `u64`.
    fn page_range(&self, io: &IoEvent) -> (u64, u64) {
        let first = io.offset / self.config.page_size;
        let last = if io.len == 0 {
            first
        } else {
            (io.offset + io.len - 1) / self.config.page_size
        };
        (first, last)
    }

    /// Feeds one I/O event through the cache, returning the disk
    /// accesses it causes (flush-daemon write-backs due before the
    /// event, miss reads, fsync'd or eviction writes).
    ///
    /// * `Read`: missing pages are read from disk (contiguous misses
    ///   coalesce into one access); present pages are LRU-touched.
    /// * `Write`: pages are write-allocated without a disk read and
    ///   marked dirty (flushed later).
    /// * `SyncWrite`: the write reaches the disk immediately (editor
    ///   `fsync` semantics) and the pages are cached clean.
    /// * `Open`: modeled as a one-page metadata read of the file.
    /// * `Close`: no disk traffic.
    ///
    /// # Panics
    ///
    /// Panics if events go backwards in time.
    pub fn access(&mut self, io: &IoEvent) -> Vec<DiskAccess> {
        let mut out = Vec::new();
        self.access_into(io, &mut out);
        out
    }

    /// [`FileCache::access`] into a caller-owned buffer: appends the
    /// resulting disk accesses to `out` instead of allocating a fresh
    /// vector per event. The streaming pipeline feeds millions of events
    /// through one reused buffer.
    ///
    /// # Panics
    ///
    /// Panics if events go backwards in time.
    pub fn access_into(&mut self, io: &IoEvent, out: &mut Vec<DiskAccess>) {
        assert!(
            io.time >= self.last_event_time,
            "cache events must be time-ordered"
        );
        self.last_event_time = io.time;
        self.run_flush_ticks(io.time, out);
        match io.kind {
            IoKind::Close => {}
            IoKind::Open => {
                // Metadata read: inode/dentry page of the file.
                self.walk(io, Walk::Read, 0, 0, out);
            }
            IoKind::Read => {
                let (first, last) = self.page_range(io);
                // §7 readahead: a known streaming PC pulls its predicted
                // remainder in with the demand fetch.
                let mut effective_last = last;
                if let Some(ra) = self.readahead.as_mut() {
                    let ahead = ra.observe(io.pc, io.file, first, last - first + 1);
                    self.stats.prefetched_pages += ahead;
                    effective_last = last + ahead;
                }
                self.walk(io, Walk::Read, first, effective_last, out);
            }
            IoKind::Write => {
                let (first, last) = self.page_range(io);
                self.walk(io, Walk::Write, first, last, out);
            }
            IoKind::SyncWrite => {
                // The fsync'd write reaches the disk now and caches its
                // pages clean.
                let (first, last) = self.page_range(io);
                self.walk(io, Walk::SyncWrite, first, last, out);
                out.push(DiskAccess {
                    time: io.time,
                    pid: io.pid,
                    pc: io.pc,
                    fd: io.fd,
                    kind: IoKind::Write,
                    pages: (last - first + 1) as u32,
                });
            }
        }
    }

    /// Walks pages `first..=last` of `io.file` in order, as a page at a
    /// time LRU cache would: a resident page is a hit and becomes most
    /// recently used, and a missing page is inserted, evicting the least
    /// recent page when the cache is full.
    ///
    /// The walk snapshots the file's resident runs in the range once.
    /// Each gap between them is inserted as one run: its pages are not
    /// resident and nothing inserts them before the walk reaches them,
    /// so inserting them together evicts the same pages in the same
    /// order as inserting them one by one. Each snapshot page is checked
    /// again when the walk reaches it, because an earlier gap may have
    /// evicted it; it is then a one-page miss.
    ///
    /// Per `walk` kind:
    /// * [`Walk::Read`] counts hits and misses, and coalesces each run
    ///   of misses into one read access; a hit ends the run.
    /// * [`Walk::Write`] counts hits and misses, inserts dirty pages and
    ///   dirties the pages it hits (a page keeps the time it was first
    ///   dirtied).
    /// * [`Walk::SyncWrite`] inserts clean pages and leaves hit pages as
    ///   they were, counting neither.
    fn walk(&mut self, io: &IoEvent, walk: Walk, first: u64, last: u64, out: &mut Vec<DiskAccess>) {
        let mut resident = std::mem::take(&mut self.resident);
        self.pages.resident(io.file, first, last, &mut resident);
        let mut read_run = 0u32;
        let mut next = first;
        for &run in &resident {
            if next < run.first {
                self.miss(io, walk, next, run.first - next, &mut read_run, out);
            }
            for page in run.first..run.end {
                let Some(state) = self.pages.state(run, io.file, page) else {
                    self.miss(io, walk, page, 1, &mut read_run, out);
                    continue;
                };
                let state = match walk {
                    Walk::Read => {
                        self.stats.page_hits += 1;
                        emit_read_run(io, &mut read_run, out);
                        state
                    }
                    Walk::Write => {
                        self.stats.page_hits += 1;
                        Some(Dirty {
                            by: io.pid,
                            at: state.map_or(io.time, |dirty| dirty.at),
                        })
                    }
                    Walk::SyncWrite => state,
                };
                self.pages.touch(run, page, state);
            }
            next = run.end;
        }
        if next <= last {
            self.miss(io, walk, next, last - next + 1, &mut read_run, out);
        }
        emit_read_run(io, &mut read_run, out);
        self.resident = resident;
    }

    /// The `walk` action for `pages` missing pages from `start`: one
    /// run inserted, its victims counted and dirty victims written
    /// back one page per access.
    fn miss(
        &mut self,
        io: &IoEvent,
        walk: Walk,
        start: u64,
        pages: u64,
        read_run: &mut u32,
        out: &mut Vec<DiskAccess>,
    ) {
        let state = match walk {
            Walk::Read => {
                self.stats.page_misses += pages;
                *read_run += pages as u32;
                None
            }
            Walk::Write => {
                self.stats.page_misses += pages;
                Some(Dirty {
                    by: io.pid,
                    at: io.time,
                })
            }
            Walk::SyncWrite => None,
        };
        let stats = &mut self.stats;
        self.pages
            .insert(io.file, start, pages, state, |victim, n| {
                stats.evictions += n;
                if let Some(dirty) = victim {
                    stats.eviction_writebacks += n;
                    let writeback = DiskAccess {
                        time: io.time,
                        pid: dirty.by,
                        pc: DiskAccess::KERNEL_PC,
                        fd: Fd(0),
                        kind: IoKind::Write,
                        pages: 1,
                    };
                    out.extend(std::iter::repeat_n(writeback, n as usize));
                }
            });
    }
}

/// What a [`FileCache::walk`] does with the pages of its range.
#[derive(Clone, Copy)]
enum Walk {
    Read,
    Write,
    SyncWrite,
}

/// Pushes the pending run of read misses, if any, as one access.
fn emit_read_run(io: &IoEvent, run_len: &mut u32, out: &mut Vec<DiskAccess>) {
    if *run_len > 0 {
        out.push(DiskAccess {
            time: io.time,
            pid: io.pid,
            pc: io.pc,
            fd: io.fd,
            kind: IoKind::Read,
            pages: *run_len,
        });
        *run_len = 0;
    }
}

/// Filters a whole trace run through a cold cache, returning the disk
/// accesses and the final cache statistics.
///
/// Fork/exit events pass through untouched (they carry no I/O); each run
/// gets a fresh cache, mirroring the paper's independent per-application
/// traces.
pub fn filter_run(
    run: &pcap_trace::TraceRun,
    config: &CacheConfig,
) -> (Vec<DiskAccess>, CacheStats) {
    let mut cache = FileCache::new(config.clone());
    let mut accesses = Vec::new();
    let stats = filter_run_into(run, &mut cache, &mut accesses);
    (accesses, stats)
}

/// [`filter_run`] with caller-owned state: resets `cache` to cold,
/// appends the run's disk accesses to `accesses` (which the caller
/// should clear between runs), and returns the run's cache statistics.
///
/// This is the streaming-pipeline entry point — one cache and one
/// access buffer filter every run of every device with no per-run
/// allocation once their capacities have warmed up.
pub fn filter_run_into(
    run: &pcap_trace::TraceRun,
    cache: &mut FileCache,
    accesses: &mut Vec<DiskAccess>,
) -> CacheStats {
    cache.reset();
    for event in &run.events {
        if let TraceEvent::Io(io) = event {
            cache.access_into(io, accesses);
        }
    }
    *cache.stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcap_types::FileId;

    fn ev(t: u64, kind: IoKind, file: u64, offset: u64, len: u64) -> IoEvent {
        IoEvent {
            time: SimTime::from_millis(t),
            pid: Pid(1),
            pc: pcap_types::Pc(0x42),
            fd: Fd(3),
            kind,
            file: FileId(file),
            offset,
            len,
        }
    }

    #[test]
    fn cold_read_misses_then_hits() {
        let mut c = FileCache::new(CacheConfig::paper());
        let a = c.access(&ev(0, IoKind::Read, 1, 0, 4096));
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].pages, 1);
        assert_eq!(a[0].kind, IoKind::Read);
        let b = c.access(&ev(1, IoKind::Read, 1, 0, 4096));
        assert!(b.is_empty());
        assert_eq!(c.stats().page_hits, 1);
        assert_eq!(c.stats().page_misses, 1);
    }

    #[test]
    fn contiguous_misses_coalesce() {
        let mut c = FileCache::new(CacheConfig::paper());
        let a = c.access(&ev(0, IoKind::Read, 1, 0, 4 * 4096));
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].pages, 4);
    }

    #[test]
    fn hit_in_middle_splits_runs() {
        let mut c = FileCache::new(CacheConfig::paper());
        // Warm page 1 only.
        c.access(&ev(0, IoKind::Read, 1, 4096, 4096));
        // Read pages 0..=2: page 1 hits, pages 0 and 2 miss separately.
        let a = c.access(&ev(1, IoKind::Read, 1, 0, 3 * 4096));
        assert_eq!(a.len(), 2);
        assert!(a.iter().all(|d| d.pages == 1));
    }

    #[test]
    fn writes_are_buffered_until_flush_tick() {
        let mut c = FileCache::new(CacheConfig::paper());
        let w = c.access(&ev(1_000, IoKind::Write, 1, 0, 4096));
        assert!(w.is_empty(), "write-back: no immediate disk access");
        assert_eq!(c.dirty_pages(), 1);
        // Not yet expired at the 30 s wakeup (age 29 s); written back by
        // the first wakeup at which the page is ≥ 30 s old (35 s).
        let early = c.access(&ev(31_000, IoKind::Close, 1, 0, 0));
        assert!(early.is_empty());
        let later = c.access(&ev(40_000, IoKind::Close, 1, 0, 0));
        assert_eq!(later.len(), 1);
        assert!(later[0].is_kernel());
        assert_eq!(later[0].kind, IoKind::Write);
        assert_eq!(later[0].time, SimTime::from_secs(35));
        assert_eq!(c.dirty_pages(), 0);
        assert_eq!(c.stats().flush_runs, 1);
    }

    #[test]
    fn flush_tick_without_dirty_data_is_silent() {
        let mut c = FileCache::new(CacheConfig::paper());
        c.access(&ev(0, IoKind::Read, 1, 0, 4096));
        let a = c.access(&ev(65_000, IoKind::Read, 1, 0, 4096));
        assert!(a.is_empty());
        assert_eq!(c.stats().flush_runs, 0);
    }

    #[test]
    fn capacity_is_enforced_with_lru_eviction() {
        let mut c = FileCache::new(CacheConfig::paper()); // 64 pages
        for i in 0..65 {
            c.access(&ev(i, IoKind::Read, 1, i * 4096, 4096));
        }
        assert_eq!(c.resident_pages(), 64);
        assert_eq!(c.stats().evictions, 1);
        // Page 0 (least recent) was evicted: re-reading it misses.
        let a = c.access(&ev(100, IoKind::Read, 1, 0, 4096));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut c = FileCache::new(CacheConfig::paper());
        c.access(&ev(0, IoKind::Write, 1, 0, 4096));
        // 64 more reads evict the dirty page.
        let mut writebacks = 0;
        for i in 0..64 {
            let out = c.access(&ev(1 + i, IoKind::Read, 2, i * 4096, 4096));
            writebacks += out
                .iter()
                .filter(|d| d.kind == IoKind::Write && d.is_kernel())
                .count();
        }
        assert_eq!(writebacks, 1);
        assert_eq!(c.stats().eviction_writebacks, 1);
    }

    #[test]
    fn open_reads_metadata_once() {
        let mut c = FileCache::new(CacheConfig::paper());
        let a = c.access(&ev(0, IoKind::Open, 9, 0, 0));
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].pages, 1);
        let b = c.access(&ev(1, IoKind::Open, 9, 0, 0));
        assert!(b.is_empty(), "metadata cached");
    }

    #[test]
    fn close_is_free() {
        let mut c = FileCache::new(CacheConfig::paper());
        assert!(c.access(&ev(0, IoKind::Close, 1, 0, 0)).is_empty());
        assert_eq!(c.stats().page_hits + c.stats().page_misses, 0);
    }

    #[test]
    fn multiple_missed_ticks_fire_in_order() {
        let mut c = FileCache::new(CacheConfig::paper());
        c.access(&ev(1_000, IoKind::Write, 1, 0, 4096));
        // The page dirtied at 1 s expires at the 35 s wakeup.
        let mid = c.access(&ev(40_000, IoKind::Write, 1, 4096, 4096));
        assert_eq!(mid.len(), 1);
        assert_eq!(mid[0].time, SimTime::from_secs(35));
        // The page dirtied at 40 s expires at the 70 s wakeup; later
        // wakeups find nothing dirty and stay silent.
        let out = c.access(&ev(95_000, IoKind::Close, 1, 0, 0));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].time, SimTime::from_secs(70));
        assert_eq!(c.stats().flush_runs, 2);
    }

    #[test]
    fn far_future_event_skips_idle_wakeups() {
        // 2^60 µs is about 2.3 × 10^11 flush wakeups after the write;
        // walking them one by one would take hours, so the access runs
        // on a thread and the test fails rather than hangs.
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let mut c = FileCache::new(CacheConfig::paper());
            c.access(&ev(2, IoKind::Write, 1, 0, 4096));
            let mut far = ev(0, IoKind::Close, 1, 0, 0);
            far.time = SimTime::from_micros(1 << 60);
            let out = c.access(&far);
            tx.send((out, *c.stats(), c.dirty_pages())).unwrap();
        });
        let received = rx.recv_timeout(std::time::Duration::from_secs(10));
        assert!(
            !matches!(received, Err(std::sync::mpsc::RecvTimeoutError::Timeout)),
            "flush catch-up must not walk every wakeup"
        );
        worker.join().expect("cache thread panicked");
        let (out, stats, dirty) = received.expect("result sent before the thread ended");
        assert_eq!(out.len(), 1);
        assert!(out[0].is_kernel());
        assert_eq!(out[0].time, SimTime::from_secs(35));
        assert_eq!((stats.flush_runs, stats.flushed_pages), (1, 1));
        assert_eq!(dirty, 0);
    }

    #[test]
    fn sequential_reads_share_one_run() {
        let mut c = FileCache::new(CacheConfig::paper());
        for page in 0..64 {
            c.access(&ev(page, IoKind::Read, 1, page * 4096, 4096));
        }
        assert_eq!((c.resident_pages(), c.pages.runs().count()), (64, 1));
        // Re-reading in order touches each page into the new tail run.
        assert!(c.access(&ev(100, IoKind::Read, 1, 0, 64 * 4096)).is_empty());
        assert_eq!((c.resident_pages(), c.pages.runs().count()), (64, 1));
        c.pages.check();
    }

    #[test]
    fn a_hit_splits_its_run_in_recency_order() {
        let mut c = FileCache::new(CacheConfig::paper());
        c.access(&ev(0, IoKind::Read, 1, 0, 5 * 4096));
        c.access(&ev(1, IoKind::Read, 1, 2 * 4096, 4096));
        let order: Vec<u64> = c.pages.keys_by_recency().iter().map(|&(_, p)| p).collect();
        assert_eq!(order, [0, 1, 3, 4, 2]);
        assert_eq!(c.pages.runs().count(), 3);
        c.pages.check();
    }

    #[test]
    fn a_maximal_read_moves_at_most_the_capacity() {
        let mut c = FileCache::new(CacheConfig::paper()); // 64 pages
        c.access(&ev(0, IoKind::Write, 2, 0, 4096));
        let pages = pcap_trace::MAX_RW_COUNT / 4096;
        let a = c.access(&ev(1, IoKind::Read, 1, 0, pcap_trace::MAX_RW_COUNT));
        // The dirty page's write-back, then one coalesced read.
        assert_eq!(a.len(), 2);
        assert!(a[0].is_kernel());
        assert_eq!(u64::from(a[1].pages), pages);
        assert_eq!(c.stats().evictions, 1 + pages - 64);
        assert_eq!(c.resident_pages(), 64);
        // The read's last 64 pages stayed resident.
        let tail = c.access(&ev(2, IoKind::Read, 1, (pages - 64) * 4096, 64 * 4096));
        assert!(tail.is_empty());
    }

    #[test]
    #[should_panic(expected = "exceed one byte")]
    fn one_byte_pages_panic() {
        let mut cfg = CacheConfig::paper();
        cfg.page_size = 1;
        let _ = FileCache::new(cfg);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn backwards_time_panics() {
        let mut c = FileCache::new(CacheConfig::paper());
        c.access(&ev(10, IoKind::Read, 1, 0, 4096));
        c.access(&ev(5, IoKind::Read, 1, 0, 4096));
    }

    #[test]
    fn readahead_coalesces_streaming_reads() {
        let plain_cfg = CacheConfig::paper();
        let mut ra_cfg = CacheConfig::paper();
        ra_cfg.readahead = Some(ReadaheadConfig::default());
        let mut plain = FileCache::new(plain_cfg.clone());
        let mut ra = FileCache::new(ra_cfg);
        let mut plain_accesses = 0usize;
        let mut ra_accesses = 0usize;
        // Two streaming runs from the same PC: the engine learns on the
        // first and prefetches on the second.
        for (file, base_t) in [(1u64, 0u64), (2, 10_000)] {
            for i in 0..12u64 {
                let e = ev(base_t + i * 10, IoKind::Read, file, i * 4096, 4096);
                plain_accesses += plain.access(&e).len();
                ra_accesses += ra.access(&e).len();
            }
        }
        assert!(
            ra_accesses < plain_accesses,
            "readahead must coalesce: {ra_accesses} vs {plain_accesses}"
        );
        assert!(ra.stats().prefetched_pages > 0);
        let _ = plain_cfg;
    }

    #[test]
    fn hit_rate() {
        let mut c = FileCache::new(CacheConfig::paper());
        c.access(&ev(0, IoKind::Read, 1, 0, 4096));
        c.access(&ev(1, IoKind::Read, 1, 0, 4096));
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
