//! Small utility collections shared across the workspace.
//!
//! [`LruMap`] backs the prediction tables of
//! [`pcap-core`](https://docs.rs/pcap-core), unbounded by default and
//! optionally capped for the LRU-capacity ablation. Recency is a
//! monotone per-entry sequence number: touching an entry is a single
//! in-place store on the hash-table hot path, and eviction scans for
//! the minimum sequence — `O(capacity)` but only on inserts into a full
//! map, which the unbounded tables never hit. The tables grow with the
//! PCs a client sends, so the map keeps std's keyed `RandomState` hash.
//! The whole structure performs **zero heap allocations in steady
//! state** once its table has grown: values live inline in the table,
//! eviction reuses the table's storage, and `clear` keeps its capacity.
//! (The file cache keeps its pages in runs, in a table of its own
//! that evicts in O(1) per run; `LruMap` is the page-at-a-time
//! reference its differential test compares against.)

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// A hash map bounded to `capacity` entries with least-recently-used
/// eviction.
///
/// `get_mut` and `insert` count as uses; `iter`/`peek` do not.
///
/// ```
/// use pcap_types::LruMap;
///
/// let mut m = LruMap::new(2);
/// m.insert("a", 1);
/// m.insert("b", 2);
/// m.get_mut(&"a");            // "a" is now the most recent
/// let evicted = m.insert("c", 3);
/// assert_eq!(evicted, Some(("b", 2)));
/// ```
#[derive(Debug, Clone)]
pub struct LruMap<K, V> {
    capacity: usize,
    next_seq: u64,
    entries: HashMap<K, (u64, V)>,
}

impl<K: Eq + Hash + Clone, V> LruMap<K, V> {
    /// Creates a map bounded to `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> LruMap<K, V> {
        assert!(capacity > 0, "LruMap capacity must be positive");
        LruMap {
            capacity,
            next_seq: 0,
            entries: HashMap::with_capacity(capacity.min(1024)),
        }
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up `key`, marking it most recently used.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let (seq, value) = self.entries.get_mut(key)?;
        *seq = self.next_seq;
        self.next_seq += 1;
        Some(value)
    }

    /// Looks up `key` without affecting recency.
    pub fn peek<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.entries.get(key).map(|(_, v)| v)
    }

    /// Inserts `key → value`, marking it most recently used. Returns the
    /// evicted least-recent entry if the map was full, or `None` (also
    /// when `key` merely replaced its own previous value).
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some((seq, old)) = self.entries.get_mut(&key) {
            *seq = self.next_seq;
            self.next_seq += 1;
            *old = value;
            return None;
        }
        let mut evicted = None;
        if self.entries.len() == self.capacity {
            // Scan for the stalest entry; sequence numbers are unique,
            // so the victim is deterministic.
            let victim_key = self
                .entries
                .iter()
                .min_by_key(|(_, (seq, _))| *seq)
                .map(|(k, _)| k.clone())
                .expect("full map has a minimum");
            let (_, victim_val) = self.entries.remove(&victim_key).expect("just found");
            evicted = Some((victim_key, victim_val));
        }
        self.entries.insert(key, (self.next_seq, value));
        self.next_seq += 1;
        evicted
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.entries.remove(key).map(|(_, v)| v)
    }

    /// Iterates over entries in unspecified order without affecting
    /// recency.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, (_, v))| (k, v))
    }

    /// Iterates over keys from least- to most-recently used, without
    /// affecting recency. The next key to be evicted comes first.
    ///
    /// Allocates a sorted snapshot — audit/report paths only; the
    /// simulation hot path never calls this.
    pub fn keys_by_recency(&self) -> impl Iterator<Item = &K> {
        let mut keys: Vec<(u64, &K)> = self.entries.iter().map(|(k, (seq, _))| (*seq, k)).collect();
        keys.sort_unstable_by_key(|&(seq, _)| seq);
        keys.into_iter().map(|(_, k)| k)
    }

    /// Removes all entries, keeping the table's capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get() {
        let mut m = LruMap::new(4);
        assert!(m.is_empty());
        assert_eq!(m.insert(1, "a"), None);
        assert_eq!(m.get_mut(&1), Some(&mut "a"));
        assert_eq!(m.get_mut(&2), None);
        assert_eq!(m.len(), 1);
        assert_eq!(m.capacity(), 4);
    }

    #[test]
    fn evicts_least_recent() {
        let mut m = LruMap::new(2);
        m.insert(1, "a");
        m.insert(2, "b");
        m.get_mut(&1);
        assert_eq!(m.insert(3, "c"), Some((2, "b")));
        assert!(m.peek(&1).is_some());
        assert!(m.peek(&2).is_none());
    }

    #[test]
    fn reinsert_updates_value_without_eviction() {
        let mut m = LruMap::new(2);
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.insert(1, "a2"), None);
        assert_eq!(m.peek(&1), Some(&"a2"));
        assert_eq!(m.len(), 2);
        // 2 is now least recent.
        assert_eq!(m.insert(3, "c"), Some((2, "b")));
    }

    #[test]
    fn peek_does_not_touch() {
        let mut m = LruMap::new(2);
        m.insert(1, "a");
        m.insert(2, "b");
        m.peek(&1);
        assert_eq!(m.insert(3, "c"), Some((1, "a")));
    }

    #[test]
    fn remove_frees_slot() {
        let mut m = LruMap::new(2);
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.remove(&1), Some("a"));
        assert_eq!(m.insert(3, "c"), None);
        assert_eq!(m.remove(&9), None);
    }

    #[test]
    fn clear_empties() {
        let mut m = LruMap::new(2);
        m.insert(1, "a");
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.insert(2, "b"), None);
    }

    #[test]
    fn long_sequence_respects_capacity() {
        let mut m = LruMap::new(8);
        for i in 0..1000 {
            m.insert(i, i * 2);
            assert!(m.len() <= 8);
        }
        // The eight most recent remain.
        for i in 992..1000 {
            assert_eq!(m.peek(&i), Some(&(i * 2)));
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = LruMap::<u32, u32>::new(0);
    }

    #[test]
    fn keys_by_recency_orders_lru_first() {
        let mut m = LruMap::new(3);
        m.insert(1, "a");
        m.insert(2, "b");
        m.insert(3, "c");
        assert_eq!(m.keys_by_recency().copied().collect::<Vec<_>>(), [1, 2, 3]);
        // Touching 1 moves it to the MRU end; 2 becomes the victim.
        m.get_mut(&1);
        assert_eq!(m.keys_by_recency().copied().collect::<Vec<_>>(), [2, 3, 1]);
        let evicted = m.insert(4, "d");
        assert_eq!(evicted, Some((2, "b")));
        assert_eq!(m.keys_by_recency().copied().collect::<Vec<_>>(), [3, 1, 4]);
        // peek and keys_by_recency themselves must not touch.
        m.peek(&3);
        assert_eq!(m.keys_by_recency().next(), Some(&3));
    }

    #[test]
    fn interleaved_remove_insert_reuses_capacity() {
        let mut m = LruMap::new(4);
        for i in 0..4 {
            m.insert(i, i);
        }
        m.remove(&1);
        m.remove(&3);
        m.insert(10, 10);
        m.insert(11, 11);
        assert_eq!(m.len(), 4);
        assert_eq!(
            m.keys_by_recency().copied().collect::<Vec<_>>(),
            [0, 2, 10, 11]
        );
        // Eviction still picks the true LRU after removals.
        assert_eq!(m.insert(12, 12), Some((0, 0)));
    }
}
