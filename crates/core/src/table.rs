//! The PCAP prediction table (§3.2) with optional LRU capacity (§4.2)
//! and snapshot persistence for cross-execution table reuse.

use crate::history::HistoryBits;
use pcap_types::{Fd, LruMap, Signature};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

/// A prediction-table key: the signature plus whatever extra context the
/// active [`PcapVariant`](crate::PcapVariant) folds in — the idle-period
/// history bit-vector (PCAPh) and/or the file descriptor of the last
/// I/O (PCAPf).
///
/// It hashes as one `u128` that packs every field injectively, so a
/// table probe costs its hasher a single integer write (see
/// [`LruMap`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableKey {
    /// The encoded PC path.
    pub signature: Signature,
    /// Idle-period history context (`None` for PCAP/PCAPf).
    pub history: Option<HistoryBits>,
    /// File-descriptor context (`None` for PCAP/PCAPh).
    pub fd: Option<Fd>,
}

impl TableKey {
    /// A plain PCAP key: signature only.
    pub fn plain(signature: Signature) -> TableKey {
        TableKey {
            signature,
            history: None,
            fd: None,
        }
    }

    /// Every field in 106 bits: the signature in bits 0–31, the fd in
    /// 32–63 with its presence bit at 64, and from bit 65 the history's
    /// `bits`, `len` and presence bit. A field that is `None` packs as
    /// zeros, its presence bit included.
    fn packed(&self) -> u128 {
        let fd = self.fd.map_or(0, |fd| u128::from(fd.0) | 1 << 32);
        let history = self.history.map_or(0, |h| {
            u128::from(h.bits) | u128::from(h.len) << 32 | 1 << 40
        });
        u128::from(self.signature.0) | fd << 32 | history << 65
    }
}

impl Hash for TableKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u128(self.packed());
    }
}

/// Per-entry bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EntryStats {
    /// Times this entry produced a shutdown prediction.
    pub predictions: u64,
    /// Order-sensitive reference hash of the path that first produced
    /// this entry (0 = unknown). A later `learn` with a different hash
    /// is a detected signature alias.
    pub path_hash: u64,
}

/// The signature → "a long idle period follows" table.
///
/// Entries are inserted when a long idle period follows a signature not
/// yet in the table, and matched on every subsequent I/O. An optional
/// capacity bounds the table with LRU replacement ("some storage limit
/// can be imposed and an LRU replacement of old signatures can be
/// used", §6.4.2).
///
/// ```
/// use pcap_core::{PredictionTable, TableKey};
/// use pcap_types::Signature;
///
/// let mut t = PredictionTable::unbounded();
/// let key = TableKey::plain(Signature(0x4000));
/// assert!(!t.lookup(key));
/// t.learn(key);
/// assert!(t.lookup(key));
/// assert_eq!(t.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct PredictionTable {
    entries: LruMap<TableKey, EntryStats>,
    capacity: Option<usize>,
    /// Entries lost to LRU replacement since creation.
    evicted: u64,
    /// Distinct paths observed colliding on an existing signature.
    aliases: u64,
    /// Total successful lookups.
    hits: u64,
    /// Total failed lookups.
    misses: u64,
}

/// Backing capacity used for "unbounded" tables — far above any
/// signature population the workloads produce (Table 3 tops out at 139
/// entries), while keeping a single implementation path.
const UNBOUNDED_CAPACITY: usize = 1 << 20;

impl PredictionTable {
    /// A table without a practical capacity limit.
    pub fn unbounded() -> PredictionTable {
        PredictionTable {
            entries: LruMap::new(UNBOUNDED_CAPACITY),
            capacity: None,
            evicted: 0,
            aliases: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// A table bounded to `capacity` entries with LRU replacement.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> PredictionTable {
        PredictionTable {
            entries: LruMap::new(capacity),
            capacity: Some(capacity),
            evicted: 0,
            aliases: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up `key`, returning whether a long idle period is
    /// predicted. A hit refreshes the entry's recency.
    pub fn lookup(&mut self, key: TableKey) -> bool {
        match self.entries.get_mut(&key) {
            Some(stats) => {
                stats.predictions += 1;
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    /// Records that `key` was followed by a long idle period. Idempotent
    /// for existing keys (their recency refreshes, stats persist).
    pub fn learn(&mut self, key: TableKey) {
        self.learn_path(key, 0);
    }

    /// [`learn`](Self::learn) with the order-sensitive reference hash of
    /// the exact path, enabling aliasing detection: the paper assumes
    /// "signature aliasing did not occur"; this counts the occurrences
    /// instead. Returns `true` if this call detected an alias (an
    /// existing entry trained from a *different* path).
    pub fn learn_path(&mut self, key: TableKey, path_hash: u64) -> bool {
        if let Some(stats) = self.entries.get_mut(&key) {
            // get_mut already refreshed recency.
            if stats.path_hash == 0 {
                stats.path_hash = path_hash;
            } else if path_hash != 0 && stats.path_hash != path_hash {
                self.aliases += 1;
                return true;
            }
            return false;
        }
        let stats = EntryStats {
            predictions: 0,
            path_hash,
        };
        if self.entries.insert(key, stats).is_some() {
            self.evicted += 1;
        }
        false
    }

    /// Detected signature-aliasing events (distinct paths mapping to an
    /// already-learned signature).
    pub fn alias_count(&self) -> u64 {
        self.aliases
    }

    /// Number of entries (Table 3 reports this per application).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Entries lost to LRU replacement.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// (successful, failed) lookup counts.
    pub fn lookup_counts(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Approximate storage footprint in bytes if entries were encoded
    /// the way the paper stores them (4-byte words; §6.4.2 Table 3).
    pub fn storage_bytes(&self) -> usize {
        self.len() * 4
    }

    /// Discards all entries and statistics (application exit without
    /// table reuse — the PCAPa configuration).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.evicted = 0;
        self.aliases = 0;
        self.hits = 0;
        self.misses = 0;
    }

    /// Keys in eviction order (least- to most-recently used) — the
    /// audit view of the LRU state under a capacity bound. The first
    /// key is the next replacement victim.
    pub fn keys_by_recency(&self) -> Vec<TableKey> {
        self.entries.keys_by_recency().copied().collect()
    }

    /// Serializable snapshot of the entries, for the application
    /// initialization file (§4.2).
    pub fn snapshot(&self) -> TableSnapshot {
        let mut keys: Vec<TableKey> = self.entries.iter().map(|(k, _)| *k).collect();
        // Deterministic file contents regardless of hash order.
        keys.sort_by_key(|k| {
            (
                k.signature.0,
                k.history.map(|h| (h.len, h.bits)),
                k.fd.map(|f| f.0),
            )
        });
        TableSnapshot {
            capacity: self.capacity,
            keys,
        }
    }

    /// Restores a table from a snapshot (loading the initialization
    /// file when the application starts).
    pub fn from_snapshot(snapshot: &TableSnapshot) -> PredictionTable {
        let mut table = match snapshot.capacity {
            Some(c) => PredictionTable::with_capacity(c),
            None => PredictionTable::unbounded(),
        };
        for &key in &snapshot.keys {
            table.learn(key);
        }
        table
    }
}

/// The persisted form of a [`PredictionTable`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableSnapshot {
    /// The capacity bound, if any.
    pub capacity: Option<usize>,
    /// The learned keys, sorted for determinism.
    pub keys: Vec<TableKey>,
}

/// A prediction table shared by all processes of one application.
///
/// §4.2: "While PCAP uses learning based on process ID, it associates
/// the prediction table with a particular application." Every
/// per-process [`Pcap`](crate::Pcap) instance of an application holds a
/// clone of the same `SharedTable`. Single-threaded by design (the
/// trace simulator is sequential), hence `Rc<RefCell<…>>`.
#[derive(Debug, Clone)]
pub struct SharedTable(Rc<RefCell<PredictionTable>>);

impl SharedTable {
    /// A fresh unbounded shared table.
    pub fn unbounded() -> SharedTable {
        SharedTable(Rc::new(RefCell::new(PredictionTable::unbounded())))
    }

    /// A fresh bounded shared table.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> SharedTable {
        SharedTable(Rc::new(RefCell::new(PredictionTable::with_capacity(
            capacity,
        ))))
    }

    /// Wraps an existing table (e.g. one restored from a snapshot).
    pub fn from_table(table: PredictionTable) -> SharedTable {
        SharedTable(Rc::new(RefCell::new(table)))
    }

    /// Looks up a key (see [`PredictionTable::lookup`]).
    pub fn lookup(&self, key: TableKey) -> bool {
        self.0.borrow_mut().lookup(key)
    }

    /// Learns a key (see [`PredictionTable::learn`]).
    pub fn learn(&self, key: TableKey) {
        self.0.borrow_mut().learn(key)
    }

    /// Learns a key with aliasing detection (see
    /// [`PredictionTable::learn_path`]).
    pub fn learn_path(&self, key: TableKey, path_hash: u64) -> bool {
        self.0.borrow_mut().learn_path(key, path_hash)
    }

    /// Detected aliasing events.
    pub fn alias_count(&self) -> u64 {
        self.0.borrow().alias_count()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.0.borrow().len()
    }

    /// True if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.0.borrow().is_empty()
    }

    /// Discards all entries (PCAPa/LTa configurations).
    pub fn clear(&self) {
        self.0.borrow_mut().clear()
    }

    /// Snapshot for persistence.
    pub fn snapshot(&self) -> TableSnapshot {
        self.0.borrow().snapshot()
    }

    /// Keys in eviction order (see [`PredictionTable::keys_by_recency`]).
    pub fn keys_by_recency(&self) -> Vec<TableKey> {
        self.0.borrow().keys_by_recency()
    }

    /// Runs `f` with a reference to the underlying table.
    pub fn with<R>(&self, f: impl FnOnce(&PredictionTable) -> R) -> R {
        f(&self.0.borrow())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryBits;

    fn key(sig: u32) -> TableKey {
        TableKey::plain(Signature(sig))
    }

    #[test]
    fn learn_then_lookup() {
        let mut t = PredictionTable::unbounded();
        assert!(!t.lookup(key(1)));
        t.learn(key(1));
        assert!(t.lookup(key(1)));
        assert!(!t.lookup(key(2)));
        assert_eq!(t.lookup_counts(), (1, 2));
        assert_eq!(t.len(), 1);
        assert_eq!(t.storage_bytes(), 4);
    }

    #[test]
    fn learn_is_idempotent() {
        let mut t = PredictionTable::unbounded();
        t.learn(key(5));
        t.learn(key(5));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn variant_keys_are_distinct() {
        let mut t = PredictionTable::unbounded();
        let base = key(7);
        let with_h = TableKey {
            history: Some(HistoryBits {
                bits: 0b101,
                len: 3,
            }),
            ..base
        };
        let with_fd = TableKey {
            fd: Some(Fd(4)),
            ..base
        };
        t.learn(base);
        assert!(!t.lookup(with_h));
        assert!(!t.lookup(with_fd));
        t.learn(with_h);
        t.learn(with_fd);
        assert_eq!(t.len(), 3);

        // The packing's edge cases: a zero field against an absent one,
        // and equal history bits of different lengths.
        let empty_history = HistoryBits { bits: 0, len: 0 };
        let pairs = [
            (
                TableKey {
                    fd: Some(Fd(0)),
                    ..base
                },
                base,
            ),
            (
                TableKey {
                    history: Some(empty_history),
                    ..base
                },
                base,
            ),
            (
                TableKey {
                    history: Some(HistoryBits {
                        bits: 0b101,
                        len: 4,
                    }),
                    ..base
                },
                with_h,
            ),
        ];
        for (a, b) in pairs {
            for (learned, other) in [(a, b), (b, a)] {
                let mut t = PredictionTable::unbounded();
                t.learn(learned);
                assert!(t.lookup(learned), "{learned:?}");
                assert!(!t.lookup(other), "{other:?} must miss after {learned:?}");
                t.learn(other);
                assert_eq!(t.len(), 2, "{learned:?} and {other:?}");
            }
        }
    }

    #[test]
    fn capacity_evicts_lru() {
        let mut t = PredictionTable::with_capacity(2);
        t.learn(key(1));
        t.learn(key(2));
        assert!(t.lookup(key(1))); // refresh 1
        t.learn(key(3)); // evicts 2
        assert_eq!(t.evicted(), 1);
        assert!(t.lookup(key(1)));
        assert!(!t.lookup(key(2)));
        assert!(t.lookup(key(3)));
    }

    #[test]
    fn recency_order_tracks_lookups_and_learning() {
        let mut t = PredictionTable::with_capacity(3);
        t.learn(key(1));
        t.learn(key(2));
        t.learn(key(3));
        assert_eq!(
            t.keys_by_recency(),
            [key(1), key(2), key(3)],
            "insertion order when nothing was touched"
        );
        // A successful lookup refreshes recency; a miss does not.
        t.lookup(key(1));
        t.lookup(key(99));
        assert_eq!(t.keys_by_recency(), [key(2), key(3), key(1)]);
        // Re-learning an existing key refreshes it too.
        t.learn(key(3));
        assert_eq!(t.keys_by_recency(), [key(2), key(1), key(3)]);
    }

    #[test]
    fn capacity_pressure_evicts_in_recency_order() {
        let mut t = PredictionTable::with_capacity(2);
        t.learn(key(10));
        t.learn(key(20));
        t.lookup(key(10)); // 20 is now the LRU victim
        assert_eq!(t.keys_by_recency()[0], key(20));
        t.learn(key(30)); // evicts 20
        assert_eq!(t.evicted(), 1);
        assert_eq!(t.keys_by_recency(), [key(10), key(30)]);
        t.learn(key(40)); // evicts 10
        t.learn(key(50)); // evicts 30
        assert_eq!(t.evicted(), 3);
        assert_eq!(t.keys_by_recency(), [key(40), key(50)]);
        assert!(!t.lookup(key(10)), "evicted keys are really gone");
        // The shared wrapper exposes the same view.
        let shared = SharedTable::from_table(t);
        assert_eq!(shared.keys_by_recency().len(), 2);
    }

    #[test]
    fn snapshot_roundtrip_is_fixpoint() {
        let mut t = PredictionTable::unbounded();
        for s in [9, 3, 7] {
            t.learn(key(s));
        }
        let snap1 = t.snapshot();
        let restored = PredictionTable::from_snapshot(&snap1);
        let snap2 = restored.snapshot();
        assert_eq!(snap1, snap2, "save→load→save must be a fixpoint");
        assert_eq!(restored.len(), 3);
    }

    #[test]
    fn snapshot_is_sorted_and_serializable() {
        let mut t = PredictionTable::unbounded();
        t.learn(key(0xffff));
        t.learn(key(0x1));
        let snap = t.snapshot();
        assert!(snap.keys[0].signature < snap.keys[1].signature);
        let json = serde_json::to_string(&snap).unwrap();
        let back: TableSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn clear_resets_everything() {
        let mut t = PredictionTable::with_capacity(8);
        t.learn(key(1));
        t.lookup(key(1));
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.lookup_counts(), (0, 0));
        assert_eq!(t.capacity(), Some(8));
    }

    #[test]
    fn aliasing_is_detected() {
        let mut t = PredictionTable::unbounded();
        assert!(!t.learn_path(key(9), 0xAAAA));
        // Same signature, same path: no alias.
        assert!(!t.learn_path(key(9), 0xAAAA));
        // Same signature, different path: alias detected.
        assert!(t.learn_path(key(9), 0xBBBB));
        assert_eq!(t.alias_count(), 1);
        // Unknown hashes never count.
        assert!(!t.learn_path(key(9), 0));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn shared_table_is_shared() {
        let a = SharedTable::unbounded();
        let b = a.clone();
        a.learn(key(42));
        assert!(b.lookup(key(42)), "clones see each other's entries");
        assert_eq!(b.len(), 1);
        b.clear();
        assert!(a.is_empty());
        assert!(a.with(|t| t.capacity().is_none()));
    }
}
