//! Crash-safety and resume-parity properties of the sweep journal
//! (`pcap_sim::journal`): record round trips through the wire codec,
//! incremental refreshes between a second handle's appends,
//! torn-tail recovery at *every* byte offset of the final record,
//! journal-resumed fleet sweeps byte-identical to uninterrupted runs,
//! named rejection of mismatched or corrupted journals, and
//! [`atomic_write`] under concurrent writers.

use pcap_dpm::sim::journal::{
    fnv1a64, Journal, JournalError, JOURNAL_HEADER_LEN, JOURNAL_MAGIC, JOURNAL_SCHEMA,
};
use pcap_dpm::sim::{
    atomic_write, fleet_journal_config, run_journaled, sweep_fleet, sweep_fleet_journaled,
    PowerManagerKind, SimConfig, SweepRunner,
};
use pcap_dpm::workload::DevicePopulation;
use proptest::prelude::*;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

fn temp_journal(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pcap-journal-it-{tag}-{}.jnl", std::process::id()))
}

fn cleanup(path: &Path) {
    let _ = fs::remove_file(path);
    let _ = fs::remove_dir_all(format!("{}.claims", path.display()));
}

// ------------------------------------------------- codec round trips

proptest! {
    /// Arbitrary (key, result) records survive append → refresh and
    /// append → reopen: the length-prefixed wire framing plus content
    /// hash is lossless for any payload bytes, including empty results.
    /// A second handle's appends interleave with the first handle's
    /// refreshes, which read only what was appended since the last one.
    #[test]
    fn journal_records_round_trip(
        records in prop::collection::vec(
            (
                any::<u64>(),
                prop::collection::vec(any::<u8>(), 0..200),
                any::<bool>(),
                any::<bool>(),
            ),
            1..20,
        ),
        config_hash in any::<u64>(),
    ) {
        let path = temp_journal("prop-roundtrip");
        cleanup(&path);
        let mut journal = Journal::open(&path, config_hash).unwrap();
        let mut peer = Journal::open(&path, config_hash).unwrap();
        // Duplicate keys would be a caller bug; dedup keeping first.
        let mut seen = std::collections::HashSet::new();
        let records: Vec<_> = records
            .into_iter()
            .filter(|(key, ..)| seen.insert(*key))
            .collect();
        for (key, bytes, by_peer, refresh) in &records {
            let writer = if *by_peer { &mut peer } else { &mut journal };
            writer.append(*key, bytes).unwrap();
            if *refresh {
                journal.refresh().unwrap();
            }
        }
        journal.refresh().unwrap();
        drop(peer);
        let reopened = Journal::open(&path, config_hash).unwrap();
        for view in [&journal, &reopened] {
            prop_assert_eq!(view.completed_cells(), records.len());
            for (key, bytes, ..) in &records {
                prop_assert_eq!(view.result(*key), Some(bytes.as_slice()));
            }
        }
        cleanup(&path);
    }
}

/// A refresh reads what was appended since the last one: records a
/// second handle appends between two refreshes of the first, and a torn
/// tail after them, are loaded and repaired. A file cut below what a
/// handle already read is corruption, not a torn tail: the cells that
/// handle holds as done are gone from disk.
#[test]
fn refresh_reads_appends_since_the_last_and_rejects_a_shrunk_file() {
    let path = temp_journal("incremental");
    cleanup(&path);
    let mut first = Journal::open(&path, 5).unwrap();
    first.append(1, b"one").unwrap();
    let mut second = Journal::open(&path, 5).unwrap();
    assert_eq!(second.result(1), Some(&b"one"[..]));
    second.append(2, b"two").unwrap();
    second.append(3, b"three").unwrap();
    let whole = fs::metadata(&path).unwrap().len();
    // A crash mid-append: a 40-byte record's prefix and two more bytes.
    let mut tail = fs::OpenOptions::new().append(true).open(&path).unwrap();
    tail.write_all(&[40, 0, 0, 0, 7, 7]).unwrap();
    drop(tail);

    first.refresh().unwrap();
    assert_eq!(first.result(2), Some(&b"two"[..]));
    assert_eq!(first.result(3), Some(&b"three"[..]));
    assert_eq!(first.progress().torn_bytes, 6);
    assert_eq!(fs::metadata(&path).unwrap().len(), whole);
    first.append(4, b"four").unwrap();
    second.refresh().unwrap();
    assert_eq!(second.result(4), Some(&b"four"[..]));
    assert_eq!(second.completed_cells(), 4);

    // Cut inside cell 2's record, which `first` has read.
    let cut = (JOURNAL_HEADER_LEN + (4 + 16 + 3) + 5) as u64;
    fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(cut)
        .unwrap();
    let err = first.refresh().unwrap_err();
    assert!(
        matches!(err, JournalError::Corrupt { offset, .. } if offset == cut),
        "{err}"
    );
    assert_eq!(fs::metadata(&path).unwrap().len(), cut, "nothing repaired");
    cleanup(&path);
}

// ------------------------------------------------ torn-tail recovery

/// Truncating the journal at every byte offset inside the final record
/// must recover to exactly the preceding whole records — never a
/// partial record, never fewer than the intact prefix — and a resumed
/// run must produce output byte-identical to the uninterrupted one.
#[test]
fn torn_tail_recovery_at_every_offset_of_the_final_record() {
    let path = temp_journal("torn-all");
    cleanup(&path);
    let cells: Vec<(u64, u64)> = (0..4u64).map(|i| (i + 1, i)).collect();
    let result_of = |task: u64| -> Vec<u8> {
        // Variable-length payloads so record boundaries are irregular.
        vec![task as u8 + 1; 3 + 5 * task as usize]
    };
    let mut journal = Journal::open(&path, 77).unwrap();
    for (key, task) in &cells {
        journal.append(*key, &result_of(*task)).unwrap();
    }
    drop(journal);
    let full = fs::read(&path).unwrap();

    // Locate the final record's start by walking the length prefixes.
    let mut offsets = vec![JOURNAL_HEADER_LEN];
    let mut pos = JOURNAL_HEADER_LEN;
    while pos < full.len() {
        let len = u32::from_le_bytes(full[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4 + len;
        offsets.push(pos);
    }
    assert_eq!(pos, full.len(), "journal must parse exactly");
    let last_start = offsets[offsets.len() - 2];

    let uninterrupted: Vec<Vec<u8>> = cells.iter().map(|&(_, task)| result_of(task)).collect();
    let runner = SweepRunner::new(1);
    for cut in last_start..full.len() {
        fs::write(&path, &full[..cut]).unwrap();
        let mut journal = Journal::open(&path, 77).unwrap();
        // Recovery keeps every whole record and drops the torn one.
        assert_eq!(
            journal.completed_cells(),
            cells.len() - 1,
            "cut at {cut}: exactly the intact prefix must survive"
        );
        let survivors = fs::metadata(&path).unwrap().len();
        assert_eq!(
            survivors, last_start as u64,
            "cut at {cut}: file must be truncated to the last whole record"
        );
        // The resumed sweep recomputes only the torn cell and returns
        // bytes identical to the uninterrupted run.
        let recomputed = AtomicU64::new(0);
        let results = run_journaled(&mut journal, &runner, &cells, |&task| {
            recomputed.fetch_add(1, Ordering::Relaxed);
            Ok(result_of(task))
        })
        .unwrap();
        assert_eq!(recomputed.load(Ordering::Relaxed), 1, "cut at {cut}");
        assert_eq!(results, uninterrupted, "cut at {cut}");
    }
    cleanup(&path);
}

// -------------------------------------- named rejection of bad files

#[test]
fn schema_and_config_mismatches_are_named_errors() {
    let path = temp_journal("mismatch");
    cleanup(&path);
    let mut journal = Journal::open(&path, 0xabc).unwrap();
    journal.append(1, b"data").unwrap();
    drop(journal);

    // Wrong config hash: the journal belongs to a different sweep.
    let err = Journal::open(&path, 0xdef).unwrap_err();
    assert!(matches!(
        err,
        JournalError::ConfigMismatch {
            found: 0xabc,
            expected: 0xdef
        }
    ));

    // Bump the schema version in the header: named SchemaMismatch.
    let mut bytes = fs::read(&path).unwrap();
    bytes[8] = bytes[8].wrapping_add(1);
    fs::write(&path, &bytes).unwrap();
    let err = Journal::open(&path, 0xabc).unwrap_err();
    match err {
        JournalError::SchemaMismatch { found, expected } => {
            assert_eq!(found, JOURNAL_SCHEMA + 1);
            assert_eq!(expected, JOURNAL_SCHEMA);
        }
        other => panic!("expected SchemaMismatch, got {other}"),
    }

    // Flip one payload byte mid-file (and fix nothing else): Corrupt.
    let mut bytes = fs::read(&path).unwrap();
    bytes[8] = bytes[8].wrapping_sub(1); // restore schema
    let flip = bytes.len() - 1;
    bytes[flip] ^= 0x55;
    fs::write(&path, &bytes).unwrap();
    let err = Journal::open(&path, 0xabc).unwrap_err();
    assert!(matches!(err, JournalError::Corrupt { .. }), "{err}");
    cleanup(&path);
}

/// A journal from a build that wrote binary payloads carries schema 1
/// in its header. Opening it is a named error, so none of its records
/// ever reaches the JSON payload decoder.
#[test]
fn schema_one_journals_are_rejected_by_name() {
    let path = temp_journal("schema1");
    cleanup(&path);
    let mut header = JOURNAL_MAGIC.to_vec();
    header.extend_from_slice(&1u32.to_le_bytes());
    header.extend_from_slice(&0xabcu64.to_le_bytes());
    assert_eq!(header.len(), JOURNAL_HEADER_LEN);
    fs::write(&path, &header).unwrap();
    let err = Journal::open(&path, 0xabc).unwrap_err();
    assert!(
        matches!(
            err,
            JournalError::SchemaMismatch {
                found: 1,
                expected: 2
            }
        ),
        "{err}"
    );
    cleanup(&path);
}

/// Recomputing a committed cell is legal only byte for byte: an equal
/// duplicate is a no-op, a differing one is corruption naming the cell
/// in every build profile, and the file keeps only the first record.
#[test]
fn recomputed_cell_with_different_bytes_is_corrupt() {
    let path = temp_journal("recompute");
    cleanup(&path);
    let mut journal = Journal::open(&path, 0xabc).unwrap();
    journal.append(0x2a, b"data").unwrap();
    let committed = fs::read(&path).unwrap();
    journal.append(0x2a, b"data").unwrap();
    let err = journal.append(0x2a, b"DATA").unwrap_err();
    assert!(matches!(err, JournalError::Corrupt { .. }), "{err}");
    assert!(err.to_string().contains("0x000000000000002a"), "{err}");
    assert_eq!(fs::read(&path).unwrap(), committed);
    assert_eq!(journal.result(0x2a), Some(&b"data"[..]));
    drop(journal);
    assert_eq!(
        Journal::open(&path, 0xabc).unwrap().result(0x2a),
        Some(&b"data"[..])
    );
    cleanup(&path);
}

/// Concurrent writers of one target each commit a whole file: no call
/// fails because another thread renamed its temp file away, and the
/// target ends holding exactly one writer's complete contents.
#[test]
fn concurrent_atomic_writes_to_one_path_all_commit_whole() {
    const THREADS: usize = 8;
    const WRITES: usize = 300;
    let dir = std::env::temp_dir().join(format!("pcap-atomic-it-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let target = dir.join("flight.jsonl");
    let contents = |thread: usize, write: usize| format!("writer {thread} write {write}\n");
    let start = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let (start, target) = (&start, &target);
            scope.spawn(move || {
                start.wait();
                for write in 0..WRITES {
                    atomic_write(target, contents(thread, write).as_bytes())
                        .unwrap_or_else(|e| panic!("writer {thread} write {write}: {e}"));
                }
            });
        }
    });
    let last = fs::read_to_string(&target).unwrap();
    assert!(
        (0..THREADS).any(|thread| last == contents(thread, WRITES - 1)),
        "target holds no writer's final contents: {last:?}"
    );
    let leftovers = fs::read_dir(&dir).unwrap().count();
    assert_eq!(leftovers, 1, "every temp file is renamed or removed");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn content_hash_is_fnv1a64() {
    // Pin the hash function: changing it silently would turn every
    // existing journal into a Corrupt error.
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
}

// ------------------------------------------- fleet resume parity

/// A fleet sweep resumed from a killed run (journal truncated at a
/// record boundary *and* mid-record) merges to a byte-identical
/// [`FleetReport`], and two cooperating journal handles splitting the
/// work also converge to the same bytes.
#[test]
fn journaled_fleet_sweep_is_byte_identical_to_uninterrupted() {
    let path = temp_journal("fleet");
    cleanup(&path);
    let pop = DevicePopulation::new(8, 42);
    let config = SimConfig::paper();
    let kind = PowerManagerKind::PCAP;
    let max_runs = Some(2);
    let runner = SweepRunner::new(2);
    let config_hash = fleet_journal_config(8, 42, max_runs, kind);

    let baseline = sweep_fleet(&pop, &config, kind, &runner, max_runs).unwrap();
    let baseline_json = serde_json::to_string(&baseline).unwrap();

    // Uninterrupted journaled run.
    let mut journal = Journal::open(&path, config_hash).unwrap();
    let journaled =
        sweep_fleet_journaled(&pop, &config, kind, &runner, max_runs, &mut journal).unwrap();
    assert_eq!(serde_json::to_string(&journaled).unwrap(), baseline_json);
    drop(journal);

    // Kill simulation: chop the journal mid-final-record, resume.
    let full = fs::read(&path).unwrap();
    fs::write(&path, &full[..full.len() - 7]).unwrap();
    let mut journal = Journal::open(&path, config_hash).unwrap();
    let resumed =
        sweep_fleet_journaled(&pop, &config, kind, &runner, max_runs, &mut journal).unwrap();
    assert_eq!(serde_json::to_string(&resumed).unwrap(), baseline_json);
    let progress = journal.progress();
    assert!(progress.torn_bytes > 0, "the tear must be recorded");
    assert_eq!(progress.computed, 1, "only the torn chunk recomputes");
    drop(journal);

    // Fully-complete journal: a second run resumes everything.
    let mut journal = Journal::open(&path, config_hash).unwrap();
    let warm = sweep_fleet_journaled(&pop, &config, kind, &runner, max_runs, &mut journal).unwrap();
    assert_eq!(serde_json::to_string(&warm).unwrap(), baseline_json);
    let progress = journal.progress();
    assert_eq!(progress.computed, 0, "nothing recomputes on a warm journal");
    cleanup(&path);
}
