//! The file cache's page table: a fixed-capacity LRU map from
//! `(file, page)` to per-page state.
//!
//! Slots live in one vector and are linked into an intrusive recency
//! list (head = least recently used), so eviction takes the head in
//! O(1) and a touch relinks one slot. A hash index finds a key's slot.
//! The table never allocates once it has filled: an eviction reuses
//! the victim's slot and index capacity, and [`PageTable::clear`]
//! keeps both.
//!
//! The index hashes with an unkeyed multiplicative hash rather than
//! SipHash. That is safe here because the table never holds more than
//! its capacity (64 pages in the paper configuration): keys that a
//! client chooses to collide cost at most a probe across that many
//! entries. Maps that grow with client input, such as the prediction
//! tables, keep a keyed hash.

use pcap_types::FileId;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Cache key: one page of one file.
pub(crate) type PageKey = (FileId, u64);

/// End-of-list marker for slot links.
const NIL: u32 = u32::MAX;

/// One resident page and its neighbours in recency order.
#[derive(Debug, Clone)]
struct Slot<V> {
    key: PageKey,
    value: V,
    /// Next less recently used slot (`NIL` at the head).
    prev: u32,
    /// Next more recently used slot (`NIL` at the tail).
    next: u32,
}

/// Fx-style multiplicative hash over the key's two words.
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

/// A map of at most `capacity` pages with least-recently-used
/// eviction; see the [module docs](self).
///
/// `get_mut` and `insert` count as uses; `iter` does not.
#[derive(Debug, Clone)]
pub(crate) struct PageTable<V> {
    capacity: usize,
    /// Resident pages; slots are only ever appended or reused, so every
    /// slot below `len()` is occupied.
    slots: Vec<Slot<V>>,
    index: HashMap<PageKey, u32, BuildHasherDefault<PageHasher>>,
    /// Least recently used slot: the next victim.
    head: u32,
    /// Most recently used slot.
    tail: u32,
}

impl<V> PageTable<V> {
    /// Creates a table bounded to `capacity` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or does not fit a `u32` slot link.
    pub(crate) fn new(capacity: usize) -> PageTable<V> {
        assert!(capacity > 0, "page table capacity must be positive");
        assert!(
            capacity < NIL as usize,
            "page table capacity exceeds u32 links"
        );
        // The index holds twice the bound, so clearing erase tombstones
        // rehashes in place instead of growing it. Tables over 1024
        // pages reserve that much up front and grow as they fill.
        let reserve = capacity.min(1024);
        PageTable {
            capacity,
            slots: Vec::with_capacity(reserve),
            index: HashMap::with_capacity_and_hasher(2 * reserve, Default::default()),
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of resident pages.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Looks up `key`, marking it most recently used.
    pub(crate) fn get_mut(&mut self, key: &PageKey) -> Option<&mut V> {
        let slot = *self.index.get(key)?;
        self.move_to_tail(slot);
        Some(&mut self.slots[slot as usize].value)
    }

    /// Inserts `key → value` as the most recently used page. Returns the
    /// evicted least recent page if the table was full.
    ///
    /// The caller guarantees `key` is absent: the file cache inserts a
    /// page only after its lookup missed.
    pub(crate) fn insert(&mut self, key: PageKey, value: V) -> Option<(PageKey, V)> {
        debug_assert!(!self.index.contains_key(&key), "insert of a resident page");
        if self.slots.len() < self.capacity {
            let slot = self.slots.len() as u32;
            self.slots.push(Slot {
                key,
                value,
                prev: NIL,
                next: NIL,
            });
            self.index.insert(key, slot);
            self.link_tail(slot);
            return None;
        }
        let slot = self.head;
        let victim = &mut self.slots[slot as usize];
        let old_key = std::mem::replace(&mut victim.key, key);
        let old_value = std::mem::replace(&mut victim.value, value);
        self.index.remove(&old_key);
        self.index.insert(key, slot);
        self.move_to_tail(slot);
        Some((old_key, old_value))
    }

    /// Iterates over resident pages in unspecified order without
    /// affecting recency.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&PageKey, &V)> {
        self.slots.iter().map(|s| (&s.key, &s.value))
    }

    /// Mutable iteration in unspecified order without affecting recency.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (&PageKey, &mut V)> {
        self.slots.iter_mut().map(|s| (&s.key, &mut s.value))
    }

    /// Removes every page, keeping the slot and index capacity.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.index.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Appends the unlinked `slot` at the most recent end.
    fn link_tail(&mut self, slot: u32) {
        let tail = self.tail;
        let s = &mut self.slots[slot as usize];
        s.prev = tail;
        s.next = NIL;
        if tail == NIL {
            self.head = slot;
        } else {
            self.slots[tail as usize].next = slot;
        }
        self.tail = slot;
    }

    /// Moves the linked `slot` to the most recent end.
    fn move_to_tail(&mut self, slot: u32) {
        if slot == self.tail {
            return;
        }
        // Not the tail, so `next` is a slot.
        let Slot { prev, next, .. } = self.slots[slot as usize];
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        self.slots[next as usize].prev = prev;
        self.link_tail(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcap_types::LruMap;
    use proptest::prelude::*;

    impl<V> PageTable<V> {
        /// Keys from least to most recently used.
        fn keys_by_recency(&self) -> Vec<PageKey> {
            let mut keys = Vec::with_capacity(self.len());
            let mut slot = self.head;
            while slot != NIL {
                let s = &self.slots[slot as usize];
                keys.push(s.key);
                slot = s.next;
            }
            keys
        }
    }

    fn key(file: u64, page: u64) -> PageKey {
        (FileId(file), page)
    }

    #[test]
    fn clear_keeps_capacity_and_empties() {
        let mut t = PageTable::new(3);
        for page in 0..5 {
            if t.get_mut(&key(1, page)).is_none() {
                t.insert(key(1, page), page);
            }
        }
        let (slots, index) = (t.slots.capacity(), t.index.capacity());
        t.clear();
        assert_eq!(t.len(), 0);
        assert_eq!(t.iter().count(), 0);
        assert_eq!(t.insert(key(1, 0), 0), None);
        assert_eq!((t.slots.capacity(), t.index.capacity()), (slots, index));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = PageTable::<()>::new(0);
    }

    proptest! {
        /// The page table agrees with `LruMap`, the reference, on every
        /// sequence of accesses (look up, insert on a miss), touches
        /// and clears: the same evictions, length, contents and recency
        /// order after every step, from a one-page table (every miss
        /// evicts) to the paper's 64 pages.
        #[test]
        fn page_table_matches_lru_map(
            capacity in 0usize..4,
            ops in prop::collection::vec(
                (0u8..100, 0u64..3, 0u64..40, any::<u16>()),
                1..300,
            ),
        ) {
            let capacity = [1, 2, 4, 64][capacity];
            let mut table = PageTable::new(capacity);
            let mut reference: LruMap<PageKey, u16> = LruMap::new(capacity);
            for (op, file, page, value) in ops {
                let k = key(file, page);
                match op {
                    // Clear, rarely.
                    0 => {
                        table.clear();
                        reference.clear();
                    }
                    // Touch: a lookup that inserts nothing.
                    1..=30 => {
                        prop_assert_eq!(
                            table.get_mut(&k).copied(),
                            reference.get_mut(&k).copied()
                        );
                    }
                    // Access as the file cache does: update on a hit,
                    // insert on a miss.
                    _ => match (table.get_mut(&k), reference.get_mut(&k)) {
                        (Some(got), Some(want)) => {
                            prop_assert_eq!(*got, *want);
                            *got = value;
                            *want = value;
                        }
                        (None, None) => {
                            prop_assert_eq!(
                                table.insert(k, value),
                                reference.insert(k, value)
                            );
                        }
                        (got, want) => {
                            prop_assert!(
                                false,
                                "residency differs for {:?}: {:?} vs {:?}",
                                k,
                                got,
                                want
                            );
                        }
                    },
                }
                prop_assert_eq!(table.len(), reference.len());
                prop_assert!(table.len() <= capacity);
                let mut got: Vec<_> = table.iter().map(|(k, v)| (*k, *v)).collect();
                let mut want: Vec<_> = reference.iter().map(|(k, v)| (*k, *v)).collect();
                got.sort_unstable();
                want.sort_unstable();
                prop_assert_eq!(got, want);
                let want_order: Vec<PageKey> = reference.keys_by_recency().copied().collect();
                prop_assert_eq!(table.keys_by_recency(), want_order);
            }
        }
    }
}
