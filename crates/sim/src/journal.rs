//! Crash-safe append-only sweep journal: resumable, multi-process
//! deterministic sweeps.
//!
//! A journal is a single file of length-prefixed records
//! `(cell_key, content_hash, result_bytes)` behind a fixed header that
//! pins the record schema version and a caller-supplied *config hash*
//! (seed range, device count, manager grid — whatever parameterizes
//! the sweep). A journal written under a different configuration is
//! rejected with a named error ([`JournalError::ConfigMismatch`]), not
//! silently merged into the wrong table.
//!
//! Durability model, built on three properties:
//!
//! * **Appends are atomic-or-torn-at-EOF.** Every record is written as
//!   one `write_all` to an `O_APPEND` descriptor while holding an
//!   exclusive advisory lock on the journal file, then `sync_data`'d.
//!   A crash can therefore leave at most one *torn* record, and only
//!   at the tail. Recovery detects it by the length prefix (record
//!   runs past EOF) and truncates back to the last whole record;
//!   anywhere else, a bad length or a content-hash mismatch is real
//!   corruption and fails loudly ([`JournalError::Corrupt`]).
//! * **Results are deterministic.** Every cell is a pure function of
//!   the sweep configuration, so a record computed by any process at
//!   any time holds the same bytes. Duplicate records for one cell are
//!   legal if byte-identical (first one wins) and corruption otherwise.
//! * **Claims are advisory file locks.** A process claims a pending
//!   cell by taking `flock`-style exclusive locks on per-cell sidecar
//!   files under `<journal>.claims/`. Locks die with their process, so
//!   a crashed worker's claims free themselves and a restart (or a
//!   second concurrent process) picks the cells up — cooperation, not
//!   duplication.
//!
//! [`run_journaled`] ties the three together into the execution loop
//! used by `pcap sweep --journal` / `pcap run --journal`, and
//! [`sweep_fleet_journaled`] instantiates it for the streaming fleet
//! pipeline. The final readout always decodes *from the journal* in
//! canonical cell order, so output is byte-identical no matter which
//! process computed which cell, or how many times the run was killed
//! and resumed.
//!
//! The module also exports [`atomic_write`]: write-to-temp +
//! `rename`, the commit protocol used for golden snapshot files and
//! flight-recorder dumps so a mid-write crash can never leave a
//! truncated committed artifact.

use crate::engine::AppReport;
use crate::factory::PowerManagerKind;
use crate::stream::{evaluate_chunk, fleet_chunks, FleetReport, FleetSlot, FLEET_CHUNK};
use crate::sweep::SweepRunner;
use crate::SimConfig;
use pcap_obs::JournalProgress;
use pcap_types::wire::{put, WireReader};
use pcap_workload::{fleet_cell_key, DevicePopulation};
use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

/// File magic: the first eight bytes of every journal.
pub const JOURNAL_MAGIC: [u8; 8] = *b"PCAPJRNL";

/// Record-schema version pinned in the header. Bump on any change to
/// the record layout or payload encoding; old journals are then
/// rejected, never misread. Version 1 held payloads in a binary codec;
/// version 2 holds them as serde JSON.
pub const JOURNAL_SCHEMA: u32 = 2;

/// Header length: magic + schema (`u32`) + config hash (`u64`).
pub const JOURNAL_HEADER_LEN: usize = 20;

/// Hard ceiling on one record's payload (cell key + hash + result).
/// Journal payloads (a whole chunk's slots, a seed's report grid) can
/// exceed the serve layer's 64 KiB `MAX_FRAME_LEN`, so the journal
/// carries its own bound; a length prefix above it is corruption.
pub const MAX_RECORD_LEN: usize = 1 << 24;

/// Bytes of record payload that precede the result: cell key + hash.
const RECORD_OVERHEAD: usize = 16;

/// FNV-1a 64-bit content hash, the integrity check on every record.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Everything that can go wrong opening, scanning, or extending a
/// journal — each case named so callers (and tests) can match on it.
#[derive(Debug)]
pub enum JournalError {
    /// An underlying filesystem operation failed.
    Io {
        /// Path being operated on.
        path: String,
        /// The OS error.
        error: io::Error,
    },
    /// The file exists but does not start with [`JOURNAL_MAGIC`].
    BadMagic {
        /// Path of the offending file.
        path: String,
    },
    /// The header's schema version is not [`JOURNAL_SCHEMA`].
    SchemaMismatch {
        /// Version found in the header.
        found: u32,
        /// Version this build writes.
        expected: u32,
    },
    /// The header's config hash does not match this sweep's
    /// configuration — the journal belongs to a different grid, seed
    /// range, or device count.
    ConfigMismatch {
        /// Hash found in the header.
        found: u64,
        /// Hash of the requested configuration.
        expected: u64,
    },
    /// A structurally invalid record *before* the tail: bad length,
    /// content-hash mismatch, or two records for one cell with
    /// different bytes. Unlike a torn tail this is never self-healing.
    Corrupt {
        /// Byte offset of the offending record.
        offset: u64,
        /// What was wrong with it.
        reason: String,
    },
    /// A result payload exceeded [`MAX_RECORD_LEN`] at append time.
    Oversized {
        /// The payload length.
        len: usize,
    },
    /// A sweep worker failed while computing a cell.
    Task(String),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { path, error } => write!(f, "journal io error: {path}: {error}"),
            JournalError::BadMagic { path } => {
                write!(f, "not a sweep journal: {path} (bad magic)")
            }
            JournalError::SchemaMismatch { found, expected } => write!(
                f,
                "journal schema mismatch: file has v{found}, this build reads v{expected}"
            ),
            JournalError::ConfigMismatch { found, expected } => write!(
                f,
                "journal config mismatch: file pins {found:#018x}, this sweep is {expected:#018x} \
                 (different grid, seed range, or device count)"
            ),
            JournalError::Corrupt { offset, reason } => {
                write!(f, "journal corrupt at byte {offset}: {reason}")
            }
            JournalError::Oversized { len } => {
                write!(
                    f,
                    "journal record too large: {len} bytes > {MAX_RECORD_LEN} max"
                )
            }
            JournalError::Task(message) => write!(f, "journaled task failed: {message}"),
        }
    }
}

impl std::error::Error for JournalError {}

fn io_err(path: &Path, error: io::Error) -> JournalError {
    JournalError::Io {
        path: path.display().to_string(),
        error,
    }
}

/// An open sweep journal: the append-only record file plus this
/// process's in-memory view of completed cells and held claims.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    claims_dir: PathBuf,
    config_hash: u64,
    /// Where the last whole record parsed so far ends (0 until the
    /// header is validated); a refresh reads only the bytes after it.
    parsed: u64,
    completed: HashMap<u64, Vec<u8>>,
    claims: HashMap<u64, File>,
    progress: JournalProgress,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path` for a sweep
    /// whose configuration hashes to `config_hash`, and recovers it:
    /// the header is validated, every whole record is loaded, and a
    /// torn tail (crash mid-append) is truncated away.
    ///
    /// # Errors
    ///
    /// [`JournalError::BadMagic`] / [`JournalError::SchemaMismatch`] /
    /// [`JournalError::ConfigMismatch`] when the file belongs to
    /// something else, [`JournalError::Corrupt`] on non-tail damage,
    /// [`JournalError::Io`] on filesystem failures.
    pub fn open(path: impl AsRef<Path>, config_hash: u64) -> Result<Journal, JournalError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)
            .map_err(|e| io_err(&path, e))?;
        let claims_dir = PathBuf::from(format!("{}.claims", path.display()));
        fs::create_dir_all(&claims_dir).map_err(|e| io_err(&claims_dir, e))?;
        let mut journal = Journal {
            path,
            file,
            claims_dir,
            config_hash,
            parsed: 0,
            completed: HashMap::new(),
            claims: HashMap::new(),
            progress: JournalProgress::default(),
        };
        journal.refresh()?;
        Ok(journal)
    }

    /// Path of the journal file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The config hash pinned in this journal's header.
    pub fn config_hash(&self) -> u64 {
        self.config_hash
    }

    /// Progress counters (resumed / computed / torn bytes, …).
    pub fn progress(&self) -> JournalProgress {
        self.progress
    }

    /// Whether `cell_key` has a committed result.
    pub fn is_done(&self, cell_key: u64) -> bool {
        self.completed.contains_key(&cell_key)
    }

    /// The committed result bytes for `cell_key`, if any.
    pub fn result(&self, cell_key: u64) -> Option<&[u8]> {
        self.completed.get(&cell_key).map(Vec::as_slice)
    }

    /// Number of committed cells.
    pub fn completed_cells(&self) -> usize {
        self.completed.len()
    }

    /// The expected header bytes for this journal's configuration.
    fn header_bytes(&self) -> Vec<u8> {
        let mut header = Vec::with_capacity(JOURNAL_HEADER_LEN);
        header.extend_from_slice(&JOURNAL_MAGIC);
        put::u32(&mut header, JOURNAL_SCHEMA);
        put::u64(&mut header, self.config_hash);
        header
    }

    /// Scans what was appended since the last scan, under the journal's
    /// exclusive lock: loads records appended by cooperating processes
    /// (and re-reads this handle's own appends, so a duplicate record
    /// still gets its byte check), repairs a torn tail by truncating to
    /// the last whole record, and (re)writes the header when the file
    /// is empty or holds only a torn header.
    ///
    /// # Errors
    ///
    /// Same named errors as [`Journal::open`]; a file now shorter than
    /// what this handle already parsed is [`JournalError::Corrupt`].
    pub fn refresh(&mut self) -> Result<(), JournalError> {
        self.file.lock().map_err(|e| io_err(&self.path, e))?;
        let result = self.refresh_locked();
        let _ = self.file.unlock();
        result
    }

    fn refresh_locked(&mut self) -> Result<(), JournalError> {
        self.progress.refreshes += 1;
        let len = self
            .file
            .metadata()
            .map_err(|e| io_err(&self.path, e))?
            .len();
        if len < self.parsed {
            // Cells this handle holds as done are gone from the file.
            return Err(JournalError::Corrupt {
                offset: len,
                reason: format!(
                    "file shrank to {len} bytes, below the {} already read",
                    self.parsed
                ),
            });
        }
        self.file
            .seek(SeekFrom::Start(self.parsed))
            .map_err(|e| io_err(&self.path, e))?;
        let mut bytes = Vec::new();
        self.file
            .read_to_end(&mut bytes)
            .map_err(|e| io_err(&self.path, e))?;
        let mut pos = 0;
        if self.parsed == 0 {
            let header = self.header_bytes();
            if bytes.len() < JOURNAL_HEADER_LEN {
                // Empty file, or a crash mid-header-write. A partial
                // header must be a prefix of the one we would write;
                // anything else is some other file.
                if !header.starts_with(&bytes) {
                    return Err(JournalError::BadMagic {
                        path: self.path.display().to_string(),
                    });
                }
                if !bytes.is_empty() {
                    self.progress.torn_bytes += bytes.len() as u64;
                }
                self.file.set_len(0).map_err(|e| io_err(&self.path, e))?;
                self.file
                    .write_all(&header)
                    .map_err(|e| io_err(&self.path, e))?;
                self.file.sync_data().map_err(|e| io_err(&self.path, e))?;
                self.parsed = JOURNAL_HEADER_LEN as u64;
                return Ok(());
            }
            if bytes[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC {
                return Err(JournalError::BadMagic {
                    path: self.path.display().to_string(),
                });
            }
            let mut r = WireReader::new(&bytes[JOURNAL_MAGIC.len()..JOURNAL_HEADER_LEN]);
            let schema = r.u32().expect("header length checked");
            let found_config = r.u64().expect("header length checked");
            if schema != JOURNAL_SCHEMA {
                return Err(JournalError::SchemaMismatch {
                    found: schema,
                    expected: JOURNAL_SCHEMA,
                });
            }
            if found_config != self.config_hash {
                return Err(JournalError::ConfigMismatch {
                    found: found_config,
                    expected: self.config_hash,
                });
            }
            pos = JOURNAL_HEADER_LEN;
            self.parsed = pos as u64;
        }
        while pos < bytes.len() {
            let offset = self.parsed;
            let remaining = bytes.len() - pos;
            if remaining < 4 {
                // Torn length prefix: the crash hit inside the first
                // four bytes of an append. Truncate to the record start.
                return self.truncate_tail(remaining);
            }
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            if !(RECORD_OVERHEAD..=MAX_RECORD_LEN).contains(&len) {
                // The prefix is written first inside a single append,
                // so a present-but-impossible length is corruption,
                // not a torn write.
                return Err(JournalError::Corrupt {
                    offset,
                    reason: format!(
                        "record length {len} outside [{RECORD_OVERHEAD}, {MAX_RECORD_LEN}]"
                    ),
                });
            }
            if remaining - 4 < len {
                // Torn payload: record runs past EOF.
                return self.truncate_tail(remaining);
            }
            let payload = &bytes[pos + 4..pos + 4 + len];
            let mut r = WireReader::new(payload);
            let cell_key = r.u64().expect("length checked");
            let content_hash = r.u64().expect("length checked");
            let result = r.bytes(len - RECORD_OVERHEAD).expect("length checked");
            if fnv1a64(result) != content_hash {
                return Err(JournalError::Corrupt {
                    offset,
                    reason: format!("content hash mismatch for cell {cell_key:#018x}"),
                });
            }
            match self.completed.get(&cell_key) {
                // Two processes may legally commit the same cell; the
                // determinism contract makes the bytes identical.
                Some(existing) if existing.as_slice() == result => {}
                Some(_) => {
                    return Err(JournalError::Corrupt {
                        offset,
                        reason: format!(
                            "cell {cell_key:#018x} recorded twice with different contents"
                        ),
                    });
                }
                None => {
                    self.completed.insert(cell_key, result.to_vec());
                }
            }
            pos += 4 + len;
            self.parsed += (4 + len) as u64;
        }
        Ok(())
    }

    /// Truncates a torn tail: drops the `torn` bytes after the last
    /// whole record, so the file ends where the half-written one began.
    fn truncate_tail(&mut self, torn: usize) -> Result<(), JournalError> {
        self.progress.torn_bytes += torn as u64;
        self.file
            .set_len(self.parsed)
            .map_err(|e| io_err(&self.path, e))?;
        self.file.sync_data().map_err(|e| io_err(&self.path, e))?;
        Ok(())
    }

    /// Commits one cell's result: a single locked, `O_APPEND`,
    /// `sync_data`'d write of the complete record, then releases the
    /// cell's claim if this process held one.
    ///
    /// # Errors
    ///
    /// [`JournalError::Oversized`] when the payload exceeds
    /// [`MAX_RECORD_LEN`], [`JournalError::Corrupt`] when the cell is
    /// already committed with different bytes (a broken determinism
    /// contract), [`JournalError::Io`] on write failures.
    pub fn append(&mut self, cell_key: u64, result: &[u8]) -> Result<(), JournalError> {
        let payload_len = RECORD_OVERHEAD + result.len();
        if payload_len > MAX_RECORD_LEN {
            return Err(JournalError::Oversized { len: payload_len });
        }
        if let Some(existing) = self.completed.get(&cell_key) {
            let differs = existing.as_slice() != result;
            self.release(cell_key);
            if differs {
                return Err(JournalError::Corrupt {
                    offset: 0,
                    reason: format!(
                        "cell {cell_key:#018x} recomputed with different bytes than its \
                         committed record"
                    ),
                });
            }
            return Ok(());
        }
        let mut record = Vec::with_capacity(4 + payload_len);
        put::u32(&mut record, payload_len as u32);
        put::u64(&mut record, cell_key);
        put::u64(&mut record, fnv1a64(result));
        record.extend_from_slice(result);

        self.file.lock().map_err(|e| io_err(&self.path, e))?;
        let write = self
            .file
            .write_all(&record)
            .and_then(|()| self.file.sync_data());
        let _ = self.file.unlock();
        write.map_err(|e| io_err(&self.path, e))?;

        self.completed.insert(cell_key, result.to_vec());
        self.progress.computed += 1;
        self.release(cell_key);
        Ok(())
    }

    /// Tries to claim `cell_key` for this process via an exclusive
    /// advisory lock on the cell's sidecar file. Returns `false` when
    /// another process (or another journal handle) holds the claim.
    /// Claims are released by [`Journal::append`], [`Journal::release`],
    /// or automatically when the process dies.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the sidecar file cannot be created.
    pub fn try_claim(&mut self, cell_key: u64) -> Result<bool, JournalError> {
        if self.claims.contains_key(&cell_key) {
            return Ok(true);
        }
        let lock_path = self.claims_dir.join(format!("cell-{cell_key:016x}.lock"));
        let lock_file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(&lock_path)
            .map_err(|e| io_err(&lock_path, e))?;
        match lock_file.try_lock() {
            Ok(()) => {
                self.claims.insert(cell_key, lock_file);
                Ok(true)
            }
            Err(std::fs::TryLockError::WouldBlock) => Ok(false),
            Err(std::fs::TryLockError::Error(e)) => Err(io_err(&lock_path, e)),
        }
    }

    /// Releases a claim held by this process (no-op otherwise).
    pub fn release(&mut self, cell_key: u64) {
        if let Some(lock_file) = self.claims.remove(&cell_key) {
            let _ = lock_file.unlock();
        }
    }
}

/// Writes `contents` to `path` atomically: the bytes go to a temp file
/// in the same directory (same filesystem, so `rename` is atomic),
/// are synced, and the temp file is renamed over the target. A crash
/// at any point leaves either the old committed file or the new one —
/// never a truncated hybrid. Each call gets its own temp file (pid
/// plus a process-wide sequence number), so concurrent writers of one
/// target never rename each other's temp file away; the last rename
/// wins whole.
///
/// # Errors
///
/// Propagates filesystem failures; the temp file is removed on error.
pub fn atomic_write(path: impl AsRef<Path>, contents: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    let name = path
        .file_name()
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "atomic_write needs a file name",
            )
        })?
        .to_string_lossy()
        .into_owned();
    let dir = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent.to_path_buf(),
        _ => PathBuf::from("."),
    };
    static SEQUENCE: AtomicU64 = AtomicU64::new(0);
    let sequence = SEQUENCE.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(".{name}.tmp.{}.{sequence}", std::process::id()));
    let commit = (|| {
        let mut file = File::create(&tmp)?;
        file.write_all(contents)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, path)
    })();
    if commit.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    commit
}

/// Runs a cell grid to completion against `journal`: already-committed
/// cells are skipped, pending ones are claimed and computed on
/// `runner.jobs()` scoped worker threads, and cells claimed by a
/// cooperating process are waited out rather than recomputed. Returns
/// every cell's result bytes in the order of `cells` — always decoded
/// from the journal, so the readout does not depend on which process
/// computed what.
///
/// The calling thread alone claims and commits; the workers only
/// evaluate. When a result arrives, the caller first claims the next
/// cell for the freed worker and then appends the result, so each
/// append's `sync_data` overlaps the evaluation of the cells in flight.
/// At most `jobs + 1` cells are ever claimed and not yet committed (one
/// per worker plus the one being appended): that is what a crash can
/// lose, and every other pending cell stays free for a cooperating
/// process to claim.
///
/// `worker` maps a task to its serialized result; it must be a pure
/// function of the task (the journal's determinism contract).
///
/// # Errors
///
/// [`JournalError::Task`] wraps the first worker failure to arrive; the
/// other variants surface journal I/O and integrity problems. Either
/// way nothing more is claimed, the workers finish the cells they hold,
/// and every cell committed before the failure stays committed.
///
/// # Panics
///
/// A panic in `worker` resumes on the calling thread after every worker
/// has stopped.
pub fn run_journaled<T, F>(
    journal: &mut Journal,
    runner: &SweepRunner,
    cells: &[(u64, T)],
    worker: F,
) -> Result<Vec<Vec<u8>>, JournalError>
where
    T: Sync,
    F: Fn(&T) -> Result<Vec<u8>, String> + Sync,
{
    let resumed = cells
        .iter()
        .filter(|(key, _)| journal.is_done(*key))
        .count();
    journal.progress.resumed += resumed as u64;
    let workers = runner.jobs().min(cells.len() - resumed);
    let (task_tx, task_rx) = mpsc::channel::<usize>();
    let task_rx = Mutex::new(task_rx);
    let (result_tx, result_rx) = mpsc::channel();
    let committed = std::thread::scope(|scope| {
        for _ in 0..workers {
            let (task_rx, result_tx, worker) = (&task_rx, result_tx.clone(), &worker);
            scope.spawn(move || loop {
                let next = task_rx
                    .lock()
                    .expect("no worker panics holding the queue")
                    .recv();
                // The caller hangs up once the grid is done or failed.
                let Ok(index) = next else { break };
                let outcome = catch_unwind(AssertUnwindSafe(|| worker(&cells[index].1)));
                let panicked = outcome.is_err();
                if result_tx.send((index, outcome)).is_err() || panicked {
                    break;
                }
            });
        }
        drop(result_tx);
        let committed = claim_and_commit(journal, cells, workers, &task_tx, &result_rx);
        drop(task_tx);
        committed
    });
    let computed = match committed {
        Ok(computed) => computed,
        Err(Halt::Failed(error)) => return Err(error),
        Err(Halt::Panicked(payload)) => resume_unwind(payload),
    };
    let ceded = (cells.len() as u64).saturating_sub(resumed as u64 + computed);
    journal.progress.ceded += ceded;
    cells
        .iter()
        .map(|(key, _)| {
            journal
                .result(*key)
                .map(<[u8]>::to_vec)
                .ok_or_else(|| JournalError::Corrupt {
                    offset: 0,
                    reason: format!("cell {key:#018x} missing after completed sweep"),
                })
        })
        .collect()
}

/// A worker's result for the cell at an index: its bytes, its failure,
/// or the payload of its panic.
type CellOutcome = std::thread::Result<Result<Vec<u8>, String>>;

/// Why [`claim_and_commit`] stopped before the grid was done.
enum Halt {
    Failed(JournalError),
    Panicked(Box<dyn Any + Send>),
}

impl From<JournalError> for Halt {
    fn from(error: JournalError) -> Halt {
        Halt::Failed(error)
    }
}

/// The calling thread's half of [`run_journaled`]: keeps `workers`
/// cells in flight on `tasks` and commits each result from `results`
/// after handing out the next cell. Returns how many cells it
/// committed once every cell is done.
fn claim_and_commit<T>(
    journal: &mut Journal,
    cells: &[(u64, T)],
    workers: usize,
    tasks: &mpsc::Sender<usize>,
    results: &mpsc::Receiver<(usize, CellOutcome)>,
) -> Result<u64, Halt> {
    let mut computed = 0u64;
    // This pass's next cell to try; cells a peer holds wait a pass.
    let mut cursor = 0;
    let mut in_flight = 0;
    // A result whose worker was freed and whose append is next.
    let mut ready: Option<(u64, Vec<u8>)> = None;
    loop {
        while in_flight < workers {
            let Some(index) = claim_next(journal, cells, &mut cursor)? else {
                break;
            };
            tasks.send(index).expect("the workers hold the task queue");
            in_flight += 1;
        }
        if let Some((key, bytes)) = ready.take() {
            journal.append(key, &bytes)?;
            computed += 1;
        }
        if in_flight == 0 {
            if cells.iter().all(|(key, _)| journal.is_done(*key)) {
                return Ok(computed);
            }
            // Every pending cell is claimed by a cooperating process;
            // wait for its appends to land and rescan.
            std::thread::sleep(Duration::from_millis(20));
            journal.refresh()?;
            cursor = 0;
            continue;
        }
        let (index, outcome) = results
            .recv()
            .expect("a live worker holds every cell in flight");
        in_flight -= 1;
        match outcome {
            Ok(Ok(bytes)) => ready = Some((cells[index].0, bytes)),
            Ok(Err(message)) => return Err(Halt::Failed(JournalError::Task(message))),
            Err(payload) => return Err(Halt::Panicked(payload)),
        }
    }
}

/// Claims the first pending cell at or after `cursor`, moving `cursor`
/// past it. Cells that are committed or that a peer holds are skipped.
fn claim_next<T>(
    journal: &mut Journal,
    cells: &[(u64, T)],
    cursor: &mut usize,
) -> Result<Option<usize>, JournalError> {
    while let Some((key, _)) = cells.get(*cursor) {
        let index = *cursor;
        *cursor += 1;
        if journal.is_done(*key) || !journal.try_claim(*key)? {
            continue;
        }
        // A peer may have committed the cell between our scan and claim.
        journal.refresh()?;
        if journal.is_done(*key) {
            journal.release(*key);
            continue;
        }
        return Ok(Some(index));
    }
    Ok(None)
}

// ---------------------------------------------------------------------
// Journal payloads are the compact serde JSON the golden reports use.
// Floats print as their shortest round-trip form, so a journal-resumed
// readout is bit-identical to the in-memory value it recorded.

/// Encodes a list of [`AppReport`]s as one journal result payload.
///
/// # Panics
///
/// On a non-finite energy, which JSON cannot represent.
pub fn encode_reports(reports: &[AppReport]) -> Vec<u8> {
    serde_json::to_vec(reports).expect("reports hold finite energies")
}

/// Decodes a payload written by [`encode_reports`].
///
/// # Errors
///
/// [`serde_json::Error`] on malformed JSON, a shape mismatch, or
/// trailing bytes.
pub fn decode_reports(bytes: &[u8]) -> Result<Vec<AppReport>, serde_json::Error> {
    serde_json::from_slice(bytes)
}

/// Encodes a fleet chunk's six per-app slots as one journal payload.
///
/// # Panics
///
/// On a non-finite energy, which JSON cannot represent.
pub fn encode_fleet_slots(slots: &[FleetSlot; 6]) -> Vec<u8> {
    serde_json::to_vec(slots).expect("slots hold finite energies")
}

/// Decodes a payload written by [`encode_fleet_slots`].
///
/// # Errors
///
/// [`serde_json::Error`] on malformed JSON, a slot count other than
/// six, or trailing bytes.
pub fn decode_fleet_slots(bytes: &[u8]) -> Result<[FleetSlot; 6], serde_json::Error> {
    serde_json::from_slice(bytes)
}

/// The config hash a fleet sweep journal is pinned to: device count,
/// base seed, per-device run cap, manager, and the chunking constant.
pub fn fleet_journal_config(
    devices: u64,
    base_seed: u64,
    max_runs: Option<usize>,
    kind: PowerManagerKind,
) -> u64 {
    let mut hash = pcap_workload::ConfigHash::new("fleet-sweep");
    hash.push(devices);
    hash.push(base_seed);
    hash.push(u64::from(max_runs.is_some()));
    hash.push(max_runs.unwrap_or(0) as u64);
    hash.push_str(&kind.label());
    hash.push(FLEET_CHUNK);
    hash.finish()
}

/// [`crate::sweep_fleet`] against a journal: chunks already committed
/// are decoded instead of recomputed, pending chunks are claimed via
/// the journal's advisory locks (so concurrent or restarted processes
/// cooperate), and the merged [`FleetReport`] is built from journal
/// bytes in chunk order — byte-identical to an uninterrupted
/// single-process run for any `--jobs` value.
///
/// # Errors
///
/// [`JournalError`] on journal I/O or integrity failures, with
/// [`JournalError::Task`] wrapping trace-generation errors.
pub fn sweep_fleet_journaled(
    pop: &DevicePopulation,
    config: &SimConfig,
    kind: PowerManagerKind,
    runner: &SweepRunner,
    max_runs: Option<usize>,
    journal: &mut Journal,
) -> Result<FleetReport, JournalError> {
    let cells: Vec<(u64, (u64, u64))> = fleet_chunks(pop.devices())
        .into_iter()
        .map(|(start, end)| (fleet_cell_key(start, end), (start, end)))
        .collect();
    let results = run_journaled(journal, runner, &cells, |&chunk| {
        let slots =
            evaluate_chunk(pop, config, kind, max_runs, chunk).map_err(|e| e.to_string())?;
        Ok(encode_fleet_slots(&slots))
    })?;
    let chunks = results.iter().enumerate().map(|(index, bytes)| {
        decode_fleet_slots(bytes).map_err(|e| JournalError::Corrupt {
            offset: 0,
            reason: format!("chunk {index} payload: {e}"),
        })
    });
    FleetReport::from_chunks(pop, kind, max_runs, chunks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{EnergyBreakdown, PredictionCounts};
    use pcap_disk::Joules;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    fn temp_journal(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pcap-journal-{tag}-{}.jnl", std::process::id()))
    }

    fn cleanup(path: &Path) {
        let _ = fs::remove_file(path);
        let _ = fs::remove_dir_all(format!("{}.claims", path.display()));
    }

    #[test]
    fn empty_journal_round_trips_records() {
        let path = temp_journal("roundtrip");
        cleanup(&path);
        let mut j = Journal::open(&path, 0xfeed).unwrap();
        j.append(1, b"one").unwrap();
        j.append(2, b"two").unwrap();
        drop(j);
        let j = Journal::open(&path, 0xfeed).unwrap();
        assert_eq!(j.result(1), Some(&b"one"[..]));
        assert_eq!(j.result(2), Some(&b"two"[..]));
        assert_eq!(j.completed_cells(), 2);
        assert!(!j.is_done(3));
        cleanup(&path);
    }

    #[test]
    fn config_mismatch_is_a_named_error() {
        let path = temp_journal("config");
        cleanup(&path);
        drop(Journal::open(&path, 111).unwrap());
        let err = Journal::open(&path, 222).unwrap_err();
        assert!(
            matches!(
                err,
                JournalError::ConfigMismatch {
                    found: 111,
                    expected: 222
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("config mismatch"), "{err}");
        cleanup(&path);
    }

    #[test]
    fn foreign_file_is_bad_magic() {
        let path = temp_journal("magic");
        cleanup(&path);
        fs::write(&path, b"definitely not a journal").unwrap();
        let err = Journal::open(&path, 0).unwrap_err();
        assert!(matches!(err, JournalError::BadMagic { .. }), "{err}");
        cleanup(&path);
    }

    #[test]
    fn torn_tail_truncates_and_mid_file_corruption_fails() {
        let path = temp_journal("torn");
        cleanup(&path);
        let mut j = Journal::open(&path, 7).unwrap();
        j.append(10, b"first-record").unwrap();
        j.append(11, b"second-record").unwrap();
        drop(j);
        let full = fs::read(&path).unwrap();
        // Chop the last record anywhere: recovery keeps record one.
        fs::write(&path, &full[..full.len() - 5]).unwrap();
        let j = Journal::open(&path, 7).unwrap();
        assert!(j.is_done(10));
        assert!(!j.is_done(11));
        assert!(j.progress().torn_bytes > 0);
        drop(j);
        // Flip a result byte mid-file: that is corruption, not a tear.
        let mut bad = full.clone();
        let flip = JOURNAL_HEADER_LEN + 4 + RECORD_OVERHEAD; // first result byte
        bad[flip] ^= 0xff;
        fs::write(&path, &bad).unwrap();
        let err = Journal::open(&path, 7).unwrap_err();
        assert!(matches!(err, JournalError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("hash mismatch"), "{err}");
        cleanup(&path);
    }

    #[test]
    fn oversized_append_is_rejected() {
        let path = temp_journal("oversized");
        cleanup(&path);
        let mut j = Journal::open(&path, 1).unwrap();
        let huge = vec![0u8; MAX_RECORD_LEN];
        let err = j.append(5, &huge).unwrap_err();
        assert!(matches!(err, JournalError::Oversized { .. }), "{err}");
        // The failed append committed nothing.
        drop(j);
        let j = Journal::open(&path, 1).unwrap();
        assert_eq!(j.completed_cells(), 0);
        cleanup(&path);
    }

    #[test]
    fn claims_exclude_between_handles_and_release() {
        // Two journal handles in one process: flock is per open file
        // description, so this models two cooperating processes.
        let path = temp_journal("claims");
        cleanup(&path);
        let mut a = Journal::open(&path, 9).unwrap();
        let mut b = Journal::open(&path, 9).unwrap();
        assert!(a.try_claim(1).unwrap());
        assert!(!b.try_claim(1).unwrap(), "claim must exclude peer");
        assert!(b.try_claim(2).unwrap(), "other cells stay claimable");
        a.release(1);
        assert!(b.try_claim(1).unwrap(), "released claim is claimable");
        // Append through b; a sees it after refresh.
        b.append(1, b"done").unwrap();
        assert!(!a.is_done(1));
        a.refresh().unwrap();
        assert_eq!(a.result(1), Some(&b"done"[..]));
        cleanup(&path);
    }

    #[test]
    fn run_journaled_resumes_and_two_handles_cooperate() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let path = temp_journal("cooperate");
        cleanup(&path);
        let cells: Vec<(u64, u64)> = (0..16u64).map(|i| (i + 100, i)).collect();
        let work = |task: &u64| Ok(task.to_le_bytes().to_vec());
        let runner = SweepRunner::new(2);

        // First pass: compute half, then "crash" (drop the journal).
        let mut j = Journal::open(&path, 55).unwrap();
        for cell in &cells[..8] {
            j.append(cell.0, &cell.1.to_le_bytes()).unwrap();
        }
        drop(j);

        // Resume: only the remaining half is computed.
        let computed = AtomicU64::new(0);
        let mut j = Journal::open(&path, 55).unwrap();
        let results = run_journaled(&mut j, &runner, &cells, |task| {
            computed.fetch_add(1, Ordering::Relaxed);
            work(task)
        })
        .unwrap();
        assert_eq!(computed.load(Ordering::Relaxed), 8);
        assert_eq!(j.progress().resumed, 8);
        assert_eq!(j.progress().computed, 8);
        assert_eq!(
            results,
            (0..16u64)
                .map(|i| i.to_le_bytes().to_vec())
                .collect::<Vec<_>>()
        );

        // A second handle over the finished journal computes nothing.
        let mut j2 = Journal::open(&path, 55).unwrap();
        let recomputed = AtomicU64::new(0);
        let results2 = run_journaled(&mut j2, &runner, &cells, |task| {
            recomputed.fetch_add(1, Ordering::Relaxed);
            work(task)
        })
        .unwrap();
        assert_eq!(recomputed.load(Ordering::Relaxed), 0);
        assert_eq!(results2, results);
        cleanup(&path);
    }

    /// Runs `f` on a thread of its own and waits at most a minute for
    /// it, so a `run_journaled` that deadlocks fails the test instead of
    /// hanging.
    fn bounded<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        use std::sync::mpsc::{channel, RecvTimeoutError};
        let (tx, rx) = channel();
        let thread = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(result) => {
                thread.join().expect("the thread sent its result");
                result
            }
            Err(RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(thread.join().expect_err("only a panic hangs up"))
            }
            Err(RecvTimeoutError::Timeout) => panic!("run_journaled must return, not deadlock"),
        }
    }

    /// The keys of `cells` that `watcher` reads as committed on disk.
    fn committed_keys(watcher: &Mutex<Journal>, cells: &[(u64, u64)]) -> Vec<u64> {
        let mut watcher = watcher.lock().unwrap();
        watcher.refresh().unwrap();
        cells
            .iter()
            .map(|&(key, _)| key)
            .filter(|&key| watcher.is_done(key))
            .collect()
    }

    /// Reopens a failed run's journal: every cell committed before the
    /// failure is still there, and a resume computes only the rest.
    fn resume_computes_only_the_rest(
        path: &Path,
        config: u64,
        cells: &[(u64, u64)],
        before: &[u64],
    ) {
        let (owned, cells, before) = (path.to_path_buf(), cells.to_vec(), before.to_vec());
        bounded(move || {
            use std::sync::atomic::{AtomicUsize, Ordering};
            let mut journal = Journal::open(&owned, config).unwrap();
            for key in &before {
                assert!(
                    journal.is_done(*key),
                    "cell {key} was committed before the failure"
                );
            }
            let kept = journal.completed_cells();
            let computed = AtomicUsize::new(0);
            let results = run_journaled(&mut journal, &SweepRunner::new(2), &cells, |task| {
                computed.fetch_add(1, Ordering::Relaxed);
                Ok(task.to_le_bytes().to_vec())
            })
            .unwrap();
            assert_eq!(computed.load(Ordering::Relaxed), cells.len() - kept);
            let expected: Vec<Vec<u8>> = cells.iter().map(|c| c.1.to_le_bytes().to_vec()).collect();
            assert_eq!(results, expected);
        });
        cleanup(path);
    }

    #[test]
    fn run_journaled_task_error_ends_the_run_and_resumes() {
        let path = temp_journal("task-error");
        cleanup(&path);
        let cells: Vec<(u64, u64)> = (0..16u64).map(|i| (i + 300, i)).collect();
        let (error, before) = bounded({
            let (path, cells) = (path.clone(), cells.clone());
            move || {
                let mut journal = Journal::open(&path, 56).unwrap();
                let watcher = Mutex::new(Journal::open(&path, 56).unwrap());
                let before = Mutex::new(Vec::new());
                let error = run_journaled(&mut journal, &SweepRunner::new(2), &cells, |&task| {
                    if task == 9 {
                        *before.lock().unwrap() = committed_keys(&watcher, &cells);
                        return Err("cell 9 failed".to_owned());
                    }
                    Ok(task.to_le_bytes().to_vec())
                })
                .unwrap_err();
                (error, before.into_inner().unwrap())
            }
        });
        assert!(
            matches!(&error, JournalError::Task(message) if message == "cell 9 failed"),
            "{error}"
        );
        resume_computes_only_the_rest(&path, 56, &cells, &before);
    }

    #[test]
    fn run_journaled_worker_panic_resumes_on_the_caller_after_workers_stop() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        /// Counts a worker out of `active`, also when its task unwinds.
        struct Leave<'a>(&'a AtomicUsize);
        impl Drop for Leave<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let path = temp_journal("panic");
        cleanup(&path);
        let cells: Vec<(u64, u64)> = (0..16u64).map(|i| (i + 400, i)).collect();
        let (message, active_after, before) = bounded({
            let (path, cells) = (path.clone(), cells.clone());
            move || {
                let mut journal = Journal::open(&path, 57).unwrap();
                let watcher = Mutex::new(Journal::open(&path, 57).unwrap());
                let before = Mutex::new(Vec::new());
                let active = AtomicUsize::new(0);
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    run_journaled(&mut journal, &SweepRunner::new(2), &cells, |&task| {
                        active.fetch_add(1, Ordering::SeqCst);
                        let _leave = Leave(&active);
                        if task == 9 {
                            *before.lock().unwrap() = committed_keys(&watcher, &cells);
                            panic!("cell 9 exploded");
                        }
                        std::thread::sleep(Duration::from_millis(2));
                        Ok(task.to_le_bytes().to_vec())
                    })
                }));
                let payload = caught.expect_err("the worker's panic must reach the caller");
                let message = payload.downcast_ref::<&str>().copied().map(str::to_owned);
                (
                    message,
                    active.load(Ordering::SeqCst),
                    before.into_inner().unwrap(),
                )
            }
        });
        assert_eq!(message.as_deref(), Some("cell 9 exploded"));
        assert_eq!(
            active_after, 0,
            "the panic resumed while a worker still ran"
        );
        resume_computes_only_the_rest(&path, 57, &cells, &before);
    }

    /// A crash loses at most `jobs + 1` cells: whenever a worker enters
    /// a cell, at most that many entered cells are missing from the
    /// file, as a second handle reads it.
    #[test]
    fn run_journaled_holds_at_most_jobs_plus_one_uncommitted_cells() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cells: Vec<(u64, u64)> = (0..24u64).map(|i| (i + 500, i)).collect();
        for jobs in [1, 2, 4] {
            let path = temp_journal(&format!("bound-{jobs}"));
            cleanup(&path);
            let mut journal = Journal::open(&path, 58).unwrap();
            let watcher = Mutex::new(Journal::open(&path, 58).unwrap());
            let entered = AtomicUsize::new(0);
            let results = run_journaled(&mut journal, &SweepRunner::new(jobs), &cells, |&task| {
                let entered = entered.fetch_add(1, Ordering::SeqCst) + 1;
                let committed = {
                    let mut watcher = watcher.lock().unwrap();
                    watcher.refresh().unwrap();
                    watcher.completed_cells()
                };
                assert!(
                    entered - committed <= jobs + 1,
                    "jobs {jobs}: {entered} cells entered but only {committed} committed"
                );
                std::thread::sleep(Duration::from_millis(1));
                Ok(task.to_le_bytes().to_vec())
            })
            .unwrap();
            assert_eq!(entered.load(Ordering::SeqCst), cells.len());
            assert_eq!(results.len(), cells.len());
            cleanup(&path);
        }
    }

    #[test]
    fn report_codec_is_bit_exact() {
        let report = AppReport {
            app: Arc::from("nedit"),
            manager: "PCAPh".to_owned(),
            local: PredictionCounts {
                opportunities: 10,
                hit_primary: 4,
                hit_backup: 3,
                miss_primary: 2,
                miss_backup: 1,
                not_predicted: 0,
            },
            global: PredictionCounts::default(),
            energy: EnergyBreakdown {
                busy: Joules(1.25),
                idle_short: Joules(-0.0),
                idle_long: Joules(f64::MIN_POSITIVE),
                power_cycle: Joules(3.5e300),
            },
            base_energy: EnergyBreakdown::default(),
            table_entries: Some(17),
            table_aliases: None,
        };
        let bytes = encode_reports(std::slice::from_ref(&report));
        let decoded = decode_reports(&bytes).unwrap();
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0], report);
        // -0.0 survives as -0.0 (bit-exact, not value-equal).
        assert_eq!(
            decoded[0].energy.idle_short.0.to_bits(),
            (-0.0f64).to_bits()
        );
    }

    #[test]
    fn fleet_slot_codec_round_trips() {
        let mut slots = [FleetSlot::default(); 6];
        slots[2].devices = 5;
        slots[2].runs = 40;
        slots[2].energy.busy = Joules(0.1 + 0.2); // a non-representable sum
        slots[5].table_aliases = u64::MAX;
        let bytes = encode_fleet_slots(&slots);
        assert_eq!(decode_fleet_slots(&bytes).unwrap(), slots);
        // Trailing garbage is an error, not a silent pass.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_fleet_slots(&padded).is_err());
    }

    #[test]
    fn atomic_write_replaces_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("pcap-atomic-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let target = dir.join("artifact.json");
        atomic_write(&target, b"v1").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"v1");
        atomic_write(&target, b"v2-longer").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"v2-longer");
        // No temp droppings left behind.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_atomic_write_never_truncates_the_committed_file() {
        let dir = std::env::temp_dir().join(format!("pcap-atomic-crash-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let target = dir.join("golden.csv");
        atomic_write(&target, b"complete-v1").unwrap();
        // A writer that dies mid-write leaves only a partial temp file:
        // the committed target is never opened for writing, so it can
        // never be observed truncated.
        let tmp = dir.join(".golden.csv.tmp.4294967295.0");
        fs::write(&tmp, b"par").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"complete-v1");
        // A retry commits cleanly past the dead writer's temp file.
        atomic_write(&target, b"complete-v2").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"complete-v2");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fleet_journal_config_distinguishes_sweeps() {
        let base = fleet_journal_config(100, 42, None, PowerManagerKind::PCAP);
        assert_eq!(
            base,
            fleet_journal_config(100, 42, None, PowerManagerKind::PCAP)
        );
        assert_ne!(
            base,
            fleet_journal_config(101, 42, None, PowerManagerKind::PCAP)
        );
        assert_ne!(
            base,
            fleet_journal_config(100, 43, None, PowerManagerKind::PCAP)
        );
        assert_ne!(
            base,
            fleet_journal_config(100, 42, Some(6), PowerManagerKind::PCAP)
        );
        assert_ne!(
            base,
            fleet_journal_config(100, 42, None, PowerManagerKind::Timeout)
        );
    }
}
