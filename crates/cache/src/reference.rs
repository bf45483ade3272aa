//! The file cache against a page-at-a-time reference.
//!
//! [`RefCache`] is the cache as it was before pages were grouped into
//! runs: one [`LruMap`] entry per page, one lookup per page of every
//! I/O, and one insert (evicting the least recent page when full) per
//! missing page. The differential test below drives it and
//! [`FileCache`] with the same event streams and requires identical
//! output after every event.

use crate::{CacheConfig, CacheStats, FileCache, PcReadahead, ReadaheadConfig};
use pcap_types::{DiskAccess, Fd, FileId, IoEvent, IoKind, LruMap, Pc, Pid, SimDuration, SimTime};
use proptest::prelude::*;
use std::cell::Cell;

type PageKey = (FileId, u64);

/// Per-page cache state.
#[derive(Debug, Clone, Copy)]
struct PageState {
    dirty: bool,
    dirtied_by: Pid,
    dirtied_at: SimTime,
}

/// The page-at-a-time cache: see the [module docs](self).
///
/// States sit in a `Cell` so that the flush daemon can clean a page
/// through `LruMap::iter`, which does not count as a use.
struct RefCache {
    config: CacheConfig,
    pages: LruMap<PageKey, Cell<PageState>>,
    stats: CacheStats,
    readahead: Option<PcReadahead>,
    ticks_done: u64,
}

impl RefCache {
    fn new(config: CacheConfig) -> RefCache {
        let readahead = config.readahead.map(PcReadahead::new);
        RefCache {
            pages: LruMap::new(config.capacity_pages() as usize),
            config,
            stats: CacheStats::default(),
            readahead,
            ticks_done: 0,
        }
    }

    fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    fn dirty_pages(&self) -> usize {
        self.pages.iter().filter(|(_, s)| s.get().dirty).count()
    }

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
                .iter()
                .map(|(_, s)| s.get())
                .filter(|s| s.dirty)
                .map(|s| s.dirtied_at.as_micros())
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

    /// Cleans the expired dirty pages; the write-back is attributed to
    /// the writer of the oldest `(dirtied_at, key)` expired page.
    fn flush_expired(&mut self, time: SimTime) -> Option<DiskAccess> {
        let expire = self.config.flush_interval;
        let mut oldest: Option<(SimTime, PageKey, Pid)> = None;
        let mut pages = 0u32;
        for (key, state) in self.pages.iter() {
            let state = state.get();
            if state.dirty && time.saturating_since(state.dirtied_at) >= expire {
                pages += 1;
                let candidate = (state.dirtied_at, *key);
                if oldest.is_none_or(|(at, k, _)| candidate < (at, k)) {
                    oldest = Some((state.dirtied_at, *key, state.dirtied_by));
                }
            }
        }
        let (_, _, pid) = oldest?;
        for (_, cell) in self.pages.iter() {
            let state = cell.get();
            if state.dirty && time.saturating_since(state.dirtied_at) >= expire {
                cell.set(PageState {
                    dirty: false,
                    ..state
                });
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

    fn insert_page(
        &mut self,
        key: PageKey,
        state: PageState,
        time: SimTime,
        out: &mut Vec<DiskAccess>,
    ) {
        if let Some((_, victim)) = self.pages.insert(key, Cell::new(state)) {
            let victim = victim.get();
            self.stats.evictions += 1;
            if victim.dirty {
                self.stats.eviction_writebacks += 1;
                out.push(DiskAccess {
                    time,
                    pid: victim.dirtied_by,
                    pc: DiskAccess::KERNEL_PC,
                    fd: Fd(0),
                    kind: IoKind::Write,
                    pages: 1,
                });
            }
        }
    }

    fn page_range(&self, io: &IoEvent) -> (u64, u64) {
        let first = io.offset / self.config.page_size;
        let last = if io.len == 0 {
            first
        } else {
            (io.offset + io.len - 1) / self.config.page_size
        };
        (first, last)
    }

    fn access_into(&mut self, io: &IoEvent, out: &mut Vec<DiskAccess>) {
        self.run_flush_ticks(io.time, out);
        match io.kind {
            IoKind::Close => {}
            IoKind::Open => self.read_pages(io, 0, 0, out),
            IoKind::Read => {
                let (first, last) = self.page_range(io);
                let mut effective_last = last;
                if let Some(ra) = self.readahead.as_mut() {
                    let ahead = ra.observe(io.pc, io.file, first, last - first + 1);
                    self.stats.prefetched_pages += ahead;
                    effective_last = last + ahead;
                }
                self.read_pages(io, first, effective_last, out);
            }
            IoKind::Write | IoKind::SyncWrite => {
                let (first, last) = self.page_range(io);
                if io.kind == IoKind::SyncWrite {
                    for page in first..=last {
                        let key = (io.file, page);
                        if self.pages.get_mut(&key).is_none() {
                            self.insert_page(
                                key,
                                PageState {
                                    dirty: false,
                                    dirtied_by: io.pid,
                                    dirtied_at: io.time,
                                },
                                io.time,
                                out,
                            );
                        }
                    }
                    out.push(DiskAccess {
                        time: io.time,
                        pid: io.pid,
                        pc: io.pc,
                        fd: io.fd,
                        kind: IoKind::Write,
                        pages: (last - first + 1) as u32,
                    });
                } else {
                    for page in first..=last {
                        let key = (io.file, page);
                        if let Some(state) = self.pages.get_mut(&key).map(Cell::get_mut) {
                            if !state.dirty {
                                state.dirtied_at = io.time;
                            }
                            state.dirty = true;
                            state.dirtied_by = io.pid;
                            self.stats.page_hits += 1;
                        } else {
                            self.stats.page_misses += 1;
                            self.insert_page(
                                key,
                                PageState {
                                    dirty: true,
                                    dirtied_by: io.pid,
                                    dirtied_at: io.time,
                                },
                                io.time,
                                out,
                            );
                        }
                    }
                }
            }
        }
    }

    fn read_pages(&mut self, io: &IoEvent, first: u64, last: u64, out: &mut Vec<DiskAccess>) {
        let mut run_len = 0u32;
        for page in first..=last {
            let key = (io.file, page);
            if self.pages.get_mut(&key).is_some() {
                self.stats.page_hits += 1;
                emit_read_run(io, &mut run_len, out);
            } else {
                self.stats.page_misses += 1;
                self.insert_page(
                    key,
                    PageState {
                        dirty: false,
                        dirtied_by: io.pid,
                        dirtied_at: io.time,
                    },
                    io.time,
                    out,
                );
                run_len += 1;
            }
        }
        emit_read_run(io, &mut run_len, out);
    }
}

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

/// One generated event: `(kind, pid, file, page, length, time step)`,
/// each drawn from `0..100` (the file from `0..3`) and scaled to the
/// cache's capacity by [`event`].
type Draw = (u8, u8, u64, u64, u64, u64);

/// Builds the event a [`Draw`] describes, `now` ms into the run.
///
/// Pages fall in a window twice the capacity wide, so ranges often
/// overlap resident pages. One length in twenty exceeds the capacity.
/// One time step in ten is several seconds, so flush wakeups expire
/// dirty pages between events.
fn event(draw: Draw, capacity: u64, now: &mut u64) -> IoEvent {
    let (kind, pid, file, page, length, step) = draw;
    *now += match step {
        0..=59 => step,
        60..=89 => (step - 60) * 1_000,
        _ => (step - 90) * 7_000,
    };
    let kind = match kind {
        0..=39 => IoKind::Read,
        40..=64 => IoKind::Write,
        65..=79 => IoKind::SyncWrite,
        80..=91 => IoKind::Open,
        _ => IoKind::Close,
    };
    let pages = match length {
        0..=4 => 0,
        5..=59 => 1,
        60..=84 => 2 + length % 3,
        85..=94 => 1 + length % capacity,
        _ => capacity + 1 + length % (capacity + 2),
    };
    // A sub-page offset spreads a range over one more page.
    let jitter = [0, 100, 4000][(page % 3) as usize];
    IoEvent {
        time: SimTime::from_millis(*now),
        pid: Pid(1 + u32::from(pid % 3)),
        pc: Pc(0x100 + u32::from(kind == IoKind::Read && page % 2 == 0)),
        kind,
        fd: Fd(3),
        file: FileId(file),
        offset: (page % (2 * capacity + 8)) * 4096 + jitter,
        len: pages * 4096,
    }
}

proptest! {
    /// [`FileCache`] emits exactly what the page-at-a-time reference
    /// emits, and agrees on its counters, resident pages and dirty
    /// pages after every event: Read, Write, SyncWrite, Open and Close
    /// from three processes over three files, with ranges partly
    /// resident and ranges larger than the cache, at capacities from
    /// one page (every miss evicts) to the paper's 64, with readahead
    /// or a short dirty expiry in some cases.
    #[test]
    fn file_cache_matches_page_at_a_time_reference(
        capacity in 0usize..4,
        variant in 0u8..3,
        draws in prop::collection::vec(
            (0u8..100, 0u8..3, 0u64..3, 0u64..100, 0u64..100, 0u64..100),
            1..200,
        ),
    ) {
        let capacity = [1u64, 2, 4, 64][capacity];
        let mut config = CacheConfig::paper();
        config.capacity_bytes = capacity * config.page_size;
        match variant {
            1 => config.readahead = Some(ReadaheadConfig::default()),
            // A short expiry: most runs flush several times.
            2 => config.flush_interval = SimDuration::from_secs(6),
            _ => {}
        }
        let mut cache = FileCache::new(config.clone());
        let mut reference = RefCache::new(config);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut now = 0;
        for (i, draw) in draws.into_iter().enumerate() {
            let io = event(draw, capacity, &mut now);
            got.clear();
            want.clear();
            cache.access_into(&io, &mut got);
            reference.access_into(&io, &mut want);
            prop_assert_eq!(&got, &want, "event {} {:?}", i, io);
            prop_assert_eq!(cache.stats(), &reference.stats, "event {} {:?}", i, io);
            prop_assert_eq!(cache.resident_pages(), reference.resident_pages(), "event {}", i);
            prop_assert_eq!(cache.dirty_pages(), reference.dirty_pages(), "event {}", i);
            cache.pages.check();
        }
    }
}
