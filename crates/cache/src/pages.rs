//! The file cache's page table: a fixed-capacity LRU cache of pages,
//! kept as runs of consecutive pages.
//!
//! A run (an *extent*) is `len` consecutive pages of one file that
//! share one state, ordered by recency inside the run: `start` is its
//! least recently used page. Runs sit on an intrusive recency list, so
//! the least recent page of the whole cache is the first page of the
//! head run, and evicting it is `start += 1, len -= 1`. Pages appended
//! at the most recent end join the tail run when they continue it: the
//! same file, the next page and an equal state. Every clean page has
//! the same state, because a clean page's writer and time are never
//! read before a write overwrites both. Touching a page splits it out
//! of its run; the parts before and after it keep their place on the
//! recency list, and the page moves to the tail.
//!
//! Each file's runs also sit on a per-file list, found through a map
//! from file to list head, so an I/O looks up its file once instead of
//! each of its pages. The table never allocates once it has filled:
//! emptied runs go to a free list, and [`RunTable::clear`] keeps every
//! capacity.
//!
//! The file map hashes with an unkeyed multiplicative hash rather than
//! SipHash. That is safe here because every mapped file has a resident
//! page, so the map never holds more files than the table holds pages
//! (64 in the paper configuration), and no file's list is longer: keys
//! that a client chooses to collide cost at most a probe across that
//! many entries. Maps that grow with client input, such as the
//! prediction tables, keep a keyed hash.

use pcap_types::{FileId, Pid, SimTime};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Cache key: one page of one file.
pub(crate) type PageKey = (FileId, u64);

/// The writer of a dirty page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Dirty {
    /// Process that dirtied the page (flush accesses are attributed to
    /// the kernel PC but keep the pid for accounting).
    pub(crate) by: Pid,
    /// When the page was dirtied (drives age-based write-back).
    pub(crate) at: SimTime,
}

/// A page's state: `None` while clean.
pub(crate) type PageState = Option<Dirty>;

/// End-of-list marker for run links.
const NIL: u32 = u32::MAX;

/// Consecutive pages of one file, least recent first.
#[derive(Debug, Clone)]
struct Extent {
    file: FileId,
    /// The least recently used page.
    start: u64,
    /// Pages in the run; 0 only on the free list.
    len: u32,
    state: PageState,
    /// Next less recently used run (`NIL` at the head); the free list
    /// links through `next`.
    prev: u32,
    /// Next more recently used run (`NIL` at the tail).
    next: u32,
    /// Neighbours on the file's list.
    file_prev: u32,
    file_next: u32,
}

impl Extent {
    fn end(&self) -> u64 {
        self.start + u64::from(self.len)
    }
}

/// Pages `first..end` of one run, resident when an I/O's walk started;
/// see [`RunTable::resident`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Resident {
    pub(crate) first: u64,
    pub(crate) end: u64,
    run: u32,
}

/// Fx-style multiplicative hash over one word.
#[derive(Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// At most `capacity` pages with least-recently-used eviction, in runs;
/// see the [module docs](self).
#[derive(Debug, Clone)]
pub(crate) struct RunTable {
    capacity: u64,
    /// Resident pages.
    pages: u64,
    /// Every run ever allocated: live ones, and emptied ones on the free
    /// list.
    extents: Vec<Extent>,
    /// First emptied run, linked through `next`.
    free: u32,
    /// Least recently used run: its first page is the next victim.
    head: u32,
    /// Most recently used run.
    tail: u32,
    /// First run of each file's list.
    files: HashMap<FileId, u32, BuildHasherDefault<PageHasher>>,
}

impl RunTable {
    /// Creates a table bounded to `capacity` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or does not fit a `u32` run link.
    pub(crate) fn new(capacity: usize) -> RunTable {
        assert!(capacity > 0, "page table capacity must be positive");
        assert!(
            capacity < NIL as usize,
            "page table capacity exceeds u32 links"
        );
        // The file map holds twice the bound, so clearing erase
        // tombstones rehashes in place instead of growing it. Tables
        // over 1024 pages reserve that much up front and grow as they
        // fill.
        let reserve = capacity.min(1024);
        RunTable {
            capacity: capacity as u64,
            pages: 0,
            extents: Vec::with_capacity(reserve),
            free: NIL,
            head: NIL,
            tail: NIL,
            files: HashMap::with_capacity_and_hasher(2 * reserve, Default::default()),
        }
    }

    /// Number of resident pages.
    pub(crate) fn len(&self) -> usize {
        self.pages as usize
    }

    /// Removes every page, keeping every capacity.
    pub(crate) fn clear(&mut self) {
        self.pages = 0;
        self.extents.clear();
        self.free = NIL;
        self.head = NIL;
        self.tail = NIL;
        self.files.clear();
    }

    /// Live runs in unspecified order, without affecting recency: the
    /// key of each run's first page, its length and its state.
    pub(crate) fn runs(&self) -> impl Iterator<Item = (PageKey, u64, PageState)> + '_ {
        self.extents
            .iter()
            .filter(|e| e.len > 0)
            .map(|e| ((e.file, e.start), u64::from(e.len), e.state))
    }

    /// The states of the live runs, without affecting recency.
    pub(crate) fn states_mut(&mut self) -> impl Iterator<Item = &mut PageState> {
        self.extents
            .iter_mut()
            .filter(|e| e.len > 0)
            .map(|e| &mut e.state)
    }

    /// Replaces `out` with the resident pages of `file` in
    /// `first..=last`, one entry per run, in page order.
    ///
    /// Until a walk of the range reaches a page, pages can leave the
    /// table (evicted by the walk's own inserts) but never enter it, so
    /// [`RunTable::state`] and [`RunTable::touch`] stay exact for every
    /// page of these entries that the walk has not passed.
    pub(crate) fn resident(&self, file: FileId, first: u64, last: u64, out: &mut Vec<Resident>) {
        out.clear();
        let Some(&head) = self.files.get(&file) else {
            return;
        };
        let mut x = head;
        while x != NIL {
            let e = &self.extents[x as usize];
            let (lo, hi) = (e.start.max(first), e.end().min(last + 1));
            if lo < hi {
                out.push(Resident {
                    first: lo,
                    end: hi,
                    run: x,
                });
            }
            x = e.file_next;
        }
        out.sort_unstable_by_key(|r| r.first);
    }

    /// The state of `page` of `file`, an entry of a [`RunTable::resident`]
    /// snapshot, or `None` if it has been evicted since.
    ///
    /// A touch leaves the pages after the touched one in the run they
    /// were in, and a run that lost all its pages is empty until it is
    /// reused for pages the walk has already passed. So the page is
    /// still resident exactly when the recorded run still covers it.
    pub(crate) fn state(&self, at: Resident, file: FileId, page: u64) -> Option<PageState> {
        let e = &self.extents[at.run as usize];
        (e.file == file && e.start <= page && page < e.end()).then_some(e.state)
    }

    /// Marks the resident `page` of run `at` most recently used, with
    /// `state`.
    pub(crate) fn touch(&mut self, at: Resident, page: u64, state: PageState) {
        let x = at.run;
        let e = &mut self.extents[x as usize];
        let (file, start, end, old) = (e.file, e.start, e.end(), e.state);
        debug_assert!(
            start <= page && page < end,
            "touch of a page not in its run"
        );
        if x == self.tail && page + 1 == end && old == state {
            // Already the most recent page, and unchanged.
            return;
        }
        if page + 1 < end {
            // The run keeps the pages after the touched one.
            e.start = page + 1;
            e.len = (end - page - 1) as u32;
            if page > start {
                let before = self.alloc(file, start, (page - start) as u32, old);
                self.link_before(before, x);
                self.link_file_after(before, x);
            }
        } else {
            e.len -= 1;
            if e.len == 0 {
                self.remove(x);
            }
        }
        self.pages -= 1;
        self.push_tail(file, page, 1, state);
    }

    /// Inserts pages `start..start + pages` of `file`, none of them
    /// resident, with `state` as the most recently used pages, in page
    /// order. `evict` receives each run of victims in eviction order:
    /// a state and a page count.
    ///
    /// This evicts what inserting the pages one at a time would: the
    /// `max(0, resident + pages − capacity)` least recent pages, first
    /// the resident ones and then, when `pages` exceeds the capacity,
    /// the inserted run's own first `pages − capacity`.
    pub(crate) fn insert(
        &mut self,
        file: FileId,
        start: u64,
        pages: u64,
        state: PageState,
        mut evict: impl FnMut(PageState, u64),
    ) {
        let excess = (self.pages + pages).saturating_sub(self.capacity);
        let mut victims = excess.min(self.pages);
        let spilled = excess - victims;
        while victims > 0 {
            let x = self.head;
            let e = &mut self.extents[x as usize];
            let n = victims.min(u64::from(e.len));
            evict(e.state, n);
            e.start += n;
            e.len -= n as u32;
            let emptied = e.len == 0;
            self.pages -= n;
            victims -= n;
            if emptied {
                self.remove(x);
            }
        }
        if spilled > 0 {
            evict(state, spilled);
        }
        self.push_tail(file, start + spilled, pages - spilled, state);
    }

    /// Appends `len` pages from `start` as the most recent, joining the
    /// tail run when they continue it.
    fn push_tail(&mut self, file: FileId, start: u64, len: u64, state: PageState) {
        self.pages += len;
        if let Some(t) = self.extents.get_mut(self.tail as usize) {
            if t.file == file && t.end() == start && t.state == state {
                t.len += len as u32;
                return;
            }
        }
        let x = self.alloc(file, start, len as u32, state);
        self.link_tail(x);
        self.link_file(x);
    }

    fn alloc(&mut self, file: FileId, start: u64, len: u32, state: PageState) -> u32 {
        let extent = Extent {
            file,
            start,
            len,
            state,
            prev: NIL,
            next: NIL,
            file_prev: NIL,
            file_next: NIL,
        };
        if self.free == NIL {
            self.extents.push(extent);
            (self.extents.len() - 1) as u32
        } else {
            let x = self.free;
            self.free = self.extents[x as usize].next;
            self.extents[x as usize] = extent;
            x
        }
    }

    /// Unlinks the emptied run `x` from both lists and frees it.
    fn remove(&mut self, x: u32) {
        let Extent {
            file,
            prev,
            next,
            file_prev,
            file_next,
            ..
        } = self.extents[x as usize];
        if prev == NIL {
            self.head = next;
        } else {
            self.extents[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.extents[next as usize].prev = prev;
        }
        if file_next != NIL {
            self.extents[file_next as usize].file_prev = file_prev;
        }
        if file_prev != NIL {
            self.extents[file_prev as usize].file_next = file_next;
        } else if file_next == NIL {
            self.files.remove(&file);
        } else {
            *self.files.get_mut(&file).expect("a listed file is mapped") = file_next;
        }
        let e = &mut self.extents[x as usize];
        e.len = 0;
        e.next = self.free;
        self.free = x;
    }

    /// Appends the unlinked run `x` at the most recent end.
    fn link_tail(&mut self, x: u32) {
        let tail = self.tail;
        let e = &mut self.extents[x as usize];
        e.prev = tail;
        e.next = NIL;
        if tail == NIL {
            self.head = x;
        } else {
            self.extents[tail as usize].next = x;
        }
        self.tail = x;
    }

    /// Links the unlinked run `x` just less recent than `before`.
    fn link_before(&mut self, x: u32, before: u32) {
        let prev = self.extents[before as usize].prev;
        let e = &mut self.extents[x as usize];
        e.prev = prev;
        e.next = before;
        self.extents[before as usize].prev = x;
        if prev == NIL {
            self.head = x;
        } else {
            self.extents[prev as usize].next = x;
        }
    }

    /// Adds run `x` to its file's list, mapping the file if it is new.
    fn link_file(&mut self, x: u32) {
        match self.files.entry(self.extents[x as usize].file) {
            Entry::Occupied(head) => {
                let head = *head.get();
                self.link_file_after(x, head);
            }
            Entry::Vacant(slot) => {
                slot.insert(x);
            }
        }
    }

    /// Links run `x` into the file list just after run `after`.
    fn link_file_after(&mut self, x: u32, after: u32) {
        let next = self.extents[after as usize].file_next;
        let e = &mut self.extents[x as usize];
        e.file_prev = after;
        e.file_next = next;
        self.extents[after as usize].file_next = x;
        if next != NIL {
            self.extents[next as usize].file_prev = x;
        }
    }
}

#[cfg(test)]
impl RunTable {
    /// Panics unless the lists agree with each other and with the page
    /// count: every live run is on the recency list and on its file's
    /// list exactly once, no page is in two runs, and the table is
    /// within its capacity.
    pub(crate) fn check(&self) {
        let live: Vec<u32> = (0..self.extents.len() as u32)
            .filter(|&x| self.extents[x as usize].len > 0)
            .collect();
        let (mut order, mut prev, mut x) = (Vec::new(), NIL, self.head);
        while x != NIL {
            let e = &self.extents[x as usize];
            assert_eq!(e.prev, prev, "recency back link of run {x}");
            order.push(x);
            (prev, x) = (x, e.next);
        }
        assert_eq!(self.tail, prev, "recency tail");
        order.sort_unstable();
        assert_eq!(order, live, "recency list holds exactly the live runs");
        let mut listed = Vec::new();
        for (&file, &head) in &self.files {
            let (mut prev, mut x) = (NIL, head);
            assert_ne!(head, NIL, "mapped file {file:?} has no run");
            while x != NIL {
                let e = &self.extents[x as usize];
                assert_eq!((e.file, e.file_prev), (file, prev), "file list of run {x}");
                listed.push(x);
                (prev, x) = (x, e.file_next);
            }
        }
        listed.sort_unstable();
        assert_eq!(listed, live, "file lists hold exactly the live runs");
        let mut pages: Vec<PageKey> = live
            .iter()
            .flat_map(|&x| {
                let e = &self.extents[x as usize];
                (e.start..e.end()).map(move |p| (e.file, p))
            })
            .collect();
        assert_eq!(pages.len() as u64, self.pages, "page count");
        pages.sort_unstable();
        pages.dedup();
        assert_eq!(pages.len() as u64, self.pages, "a page is in two runs");
        assert!(self.pages <= self.capacity, "over capacity");
    }

    /// Resident keys from least to most recently used.
    pub(crate) fn keys_by_recency(&self) -> Vec<PageKey> {
        let (mut keys, mut x) = (Vec::new(), self.head);
        while x != NIL {
            let e = &self.extents[x as usize];
            keys.extend((e.start..e.end()).map(|p| (e.file, p)));
            x = e.next;
        }
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_keeps_capacity_and_empties() {
        let mut t = RunTable::new(3);
        for page in [0, 5, 1, 7, 3] {
            t.insert(FileId(page % 2), page, 1, None, |_, _| {});
        }
        let (extents, files) = (t.extents.capacity(), t.files.capacity());
        t.clear();
        assert_eq!(t.len(), 0);
        assert_eq!(t.runs().count(), 0);
        t.insert(FileId(1), 0, 1, None, |_, _| {});
        t.check();
        assert_eq!((t.extents.capacity(), t.files.capacity()), (extents, files));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = RunTable::new(0);
    }
}
