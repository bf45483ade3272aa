//! Small utility collections shared across the workspace.
//!
//! [`LruMap`] backs the prediction tables of
//! [`pcap-core`](https://docs.rs/pcap-core), unbounded by default and
//! optionally capped for the LRU-capacity ablation. Recency is a
//! monotone per-entry sequence number: touching an entry is a single
//! in-place store on the hash-table hot path, and eviction scans for
//! the minimum sequence — `O(capacity)` but only on inserts into a full
//! map, which the unbounded tables never hit. The whole structure
//! performs **zero heap allocations in steady state** once its table
//! has grown: values live inline in the table, eviction reuses the
//! table's storage, and `clear` keeps its capacity. (The file cache
//! keeps its pages in runs, in a table of its own that evicts in O(1)
//! per run; `LruMap` is the page-at-a-time reference its differential
//! test compares against.)
//!
//! The prediction tables grow with the PCs a client sends, so the hash
//! is keyed: with a fixed hash function a client could pick PCs whose
//! keys collide and make every lookup walk one long probe sequence. The
//! key is not std's SipHash-1-3 (`RandomState`) either, whose rounds
//! over each field write cost a third to a half of a PCAP decision.
//! Each map draws two key words from a fresh `RandomState` and hashes
//! with a folded multiply, the construction of foldhash (hashbrown's
//! default hasher): every integer write is one 64×64→128-bit multiply
//! of the input xored with the key words, with the product's two halves
//! xored together, and `finish` mixes once more. `pcap-core`'s
//! `TableKey` packs into one `u128`, so a table probe hashes with two
//! multiplies. Lookups, evictions and every ordered view are the same
//! under any hash: eviction takes the minimum sequence number, and
//! [`LruMap::keys_by_recency`] sorts.

use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};

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
    entries: HashMap<K, (u64, V), FoldKeys>,
}

/// The two key words of one map's [`FoldHasher`]s.
#[derive(Clone)]
struct FoldKeys([u64; 2]);

impl FoldKeys {
    /// Fresh key words: each `RandomState` is keyed anew, so no two maps
    /// share a hash function.
    fn new() -> FoldKeys {
        let random = RandomState::new();
        FoldKeys([random.hash_one(0u8), random.hash_one(1u8)])
    }
}

impl BuildHasher for FoldKeys {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        FoldHasher {
            state: 0,
            keys: self.0,
        }
    }
}

/// The product of `a` and `b`, its high half folded onto its low half.
fn folded_multiply(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    product as u64 ^ (product >> 64) as u64
}

/// A keyed folded-multiply hasher: one multiply per integer written.
struct FoldHasher {
    state: u64,
    keys: [u64; 2],
}

impl Hasher for FoldHasher {
    /// Byte strings (`str` keys) go through as their length, then one
    /// little-endian word per eight bytes, the last one zero-padded.
    fn write(&mut self, bytes: &[u8]) {
        self.write_usize(bytes.len());
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.write_u64(i.into());
    }

    fn write_u16(&mut self, i: u16) {
        self.write_u64(i.into());
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(i.into());
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn write_u64(&mut self, i: u64) {
        self.write_u128(i.into());
    }

    fn write_u128(&mut self, i: u128) {
        let [k0, k1] = self.keys;
        self.state = folded_multiply(i as u64 ^ self.state ^ k0, (i >> 64) as u64 ^ k1);
    }

    fn finish(&self) -> u64 {
        let [k0, k1] = self.keys;
        folded_multiply(self.state ^ k1, k0)
    }
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
            entries: HashMap::with_capacity_and_hasher(capacity.min(1024), FoldKeys::new()),
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

    /// `key`'s hash under `map`'s keys.
    fn hash_of<K: Eq + Hash + Clone, V>(map: &LruMap<K, V>, key: &K) -> u64 {
        map.entries.hasher().hash_one(key)
    }

    #[test]
    fn each_map_keys_its_own_hash() {
        let a = LruMap::<u64, ()>::new(4);
        let b = LruMap::<u64, ()>::new(4);
        assert_ne!(
            hash_of(&a, &42),
            hash_of(&b, &42),
            "two maps must not share a hash function"
        );
        assert_eq!(
            hash_of(&a, &42),
            hash_of(&a.clone(), &42),
            "a clone keeps its table's keys"
        );
    }

    #[test]
    fn every_integer_width_is_one_folded_multiply() {
        let keys = FoldKeys::new();
        let [k0, k1] = keys.0;
        let hash = |write: &dyn Fn(&mut FoldHasher)| {
            let mut hasher = keys.build_hasher();
            write(&mut hasher);
            hasher.finish()
        };
        let finish = |state: u64| folded_multiply(state ^ k1, k0);
        let v = 0xa5u8;
        let word = hash(&|h| h.write_u64(v.into()));
        assert_eq!(word, finish(folded_multiply(u64::from(v) ^ k0, k1)));
        // Each width zero-extends into the same single fold; a width
        // left to the per-byte default would fold its length first.
        assert_eq!(hash(&|h| h.write_u8(v)), word);
        assert_eq!(hash(&|h| h.write_u16(v.into())), word);
        assert_eq!(hash(&|h| h.write_u32(v.into())), word);
        assert_eq!(hash(&|h| h.write_usize(v.into())), word);
        assert_eq!(hash(&|h| h.write_u128(v.into())), word);
        assert_eq!(hash(&|h| h.write_i64(v.into())), word);
        assert_ne!(hash(&|h| h.write(&u32::from(v).to_ne_bytes())), word);
        // A `u128` folds its high half into the multiplier.
        let wide = (7u128 << 64) | u128::from(v);
        assert_eq!(
            hash(&|h| h.write_u128(wide)),
            finish(folded_multiply(u64::from(v) ^ k0, 7 ^ k1))
        );
        // Successive writes chain through the state.
        assert_ne!(
            hash(&|h| {
                h.write_u32(1);
                h.write_u32(2);
            }),
            hash(&|h| {
                h.write_u32(2);
                h.write_u32(1);
            })
        );
    }

    #[test]
    fn byte_string_keys_cross_word_boundaries() {
        let mut m = LruMap::new(16);
        let names = ["", "a", "abcdefg", "abcdefgh", "abcdefghi", "abcdefgh\0"];
        for (i, name) in names.iter().enumerate() {
            m.insert(name.to_string(), i);
        }
        assert_eq!(m.len(), names.len());
        for (i, name) in names.iter().enumerate() {
            assert_eq!(m.peek(*name), Some(&i), "{name:?}");
        }
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
