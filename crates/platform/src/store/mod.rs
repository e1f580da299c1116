//! # Disk-backed sharded provenance store
//!
//! The one on-disk format of the system: `Platform`'s LRU residency
//! writes every execution through it (`weblab serve --store`), and so do
//! CLI runs (`weblab run --store`, read back by `--resume` and `weblab
//! replay --from`). Every execution written here survives process death,
//! and an evicted execution cold-loads back with query answers
//! *byte-identical* to the resident path.
//!
//! ## Layout
//!
//! The store root holds 16 shard directories, an execution landing in the
//! shard named by an FNV-1a hash of its id. Inside a shard, each execution
//! is one file named by its injectively escaped id (`exec/1` becomes
//! `exec%2F1`, never colliding with `exec_1`):
//!
//! ```text
//! store/
//!   store.lock             pid of the process holding the directory
//!   shard-07/
//!     exec%2F1.exec        the execution: calls, links and document
//! ```
//!
//! Each execution file ([`exec`]) holds the execution's header (epoch,
//! live flag, and the [`ResumePoint`] of a durable run that has not
//! finished), its calls, the Source rows and links of its published
//! [`EpochSnapshot`] (their one on-disk copy), and its stamped document.
//! [`ProvStore::save`] rewrites the whole file in one atomic write
//! (temporary file, fsync, rename, directory fsync), so calls, links,
//! document and resume point reach disk together or not at all: a crash
//! leaves the previous save or the new one. The file ends in an `# end`
//! footer holding the FNV-1a hash of its contents, so a file cut short or
//! damaged after it was written surfaces as [`PersistError::Truncated`]
//! instead of a silently different execution. A directory holding files
//! of the earlier layout (a document, a call log and a snapshot file per
//! execution, or a separate `.resume` file) is refused on open; there is
//! no importer.

pub mod exec;
mod file;

use std::path::{Path, PathBuf};

use exec::SnapshotData;
pub use exec::{Header, ResumePoint};
use file::{fnv1a, sanitise, unsanitise, write_atomic};
pub use file::PersistError;
use weblab_obs::Counter;
use weblab_prov::{EpochSnapshot, ExecutionTrace, ProvenanceGraph, ReachabilityIndex};
use weblab_xml::Document;

/// Execution files written, each with its epoch snapshot.
static SNAPSHOTS: Counter = Counter::new("store.snapshots");
static COLD_LOADS: Counter = Counter::new("store.cold_loads");

/// Number of shard directories (hash buckets) under the store root.
const SHARDS: u64 = 16;

/// An execution as read back from disk.
#[derive(Debug)]
pub struct StoredExecution {
    /// The reloaded document.
    pub doc: Document,
    /// The replayed trace (produced URIs resolved against `doc`).
    pub trace: ExecutionTrace,
    /// The stored epoch snapshot. [`ProvStore::load`] always fills it,
    /// since the execution file holds it beside the calls it covers;
    /// [`StoredExecution::resume_snapshot`] takes it.
    pub snapshot: Option<SnapshotData>,
    /// Where the unfinished durable run of this execution resumes, if any.
    pub checkpoint: Option<ResumePoint>,
}

impl StoredExecution {
    /// The epoch snapshot the execution continues from, at its stored
    /// epoch: what a cold load publishes and a resumed `weblab run` folds
    /// its calls into. Its index counts one build. The decoded rows keep
    /// no spare capacity.
    ///
    /// # Panics
    ///
    /// If the snapshot was already taken.
    pub fn resume_snapshot(&mut self) -> EpochSnapshot {
        let snap = self.snapshot.take().expect("the stored snapshot is taken once");
        let mut resumed = EpochSnapshot {
            epoch: snap.epoch,
            calls: snap.calls,
            index: ReachabilityIndex::from_graph(&snap.graph),
            graph: snap.graph,
        };
        resumed.shrink_to_fit();
        resumed
    }
}

/// The disk-backed sharded provenance store.
///
/// All methods are safe to call from multiple threads: the store keeps no
/// state beside the directory, and each save replaces a whole file
/// atomically.
pub struct ProvStore {
    root: PathBuf,
    /// Whether this handle wrote the directory's lock file (and must
    /// remove it on drop). Always true for successfully opened stores;
    /// kept as a field so a partially-constructed store can never unlink
    /// another process's lock.
    owns_lock: bool,
}

/// Is `pid` a live process? Answered from `/proc`; on platforms without
/// procfs the question cannot be answered and the lock is treated as
/// stale (same-process correctness is preserved by the pid equality
/// check in [`ProvStore::open`]).
fn process_alive(pid: u32) -> bool {
    Path::new("/proc").is_dir() && Path::new(&format!("/proc/{pid}")).exists()
}

/// Is `name` a file of the earlier layout: a document, a call log segment
/// or delta, an index snapshot, or a resume point?
fn earlier_layout(name: &str) -> bool {
    let kind = name.split_once('.').map_or("", |(_, kind)| kind);
    matches!(kind, "doc.xml" | "delta" | "resume")
        || kind.starts_with("seg-")
        || kind.starts_with("snap-")
}

impl ProvStore {
    /// Open (creating if needed) a store rooted at `root`.
    ///
    /// The directory is guarded by a `store.lock` file holding the owner's
    /// pid: a second process opening the same directory while the first is
    /// alive — a second daemon, or a CLI run on a directory a daemon
    /// serves — fails with [`PersistError::StoreLocked`] (stable error
    /// code `store-locked`) instead of silently interleaving writes.
    /// A lock left behind by a dead process — a daemon killed without
    /// unwinding — is detected as stale on restart and reclaimed, and a
    /// re-open from the *same* process (several platforms over one
    /// directory in one test binary) is allowed: the guard is against
    /// concurrent daemons, not re-entrant use. A directory holding files
    /// of the earlier layout fails with [`PersistError::Format`] (stable
    /// code `store`).
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, PersistError> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        let lock = root.join("store.lock");
        let own_pid = std::process::id();
        if let Ok(contents) = std::fs::read_to_string(&lock) {
            if let Ok(pid) = contents.trim().parse::<u32>() {
                if pid != own_pid && process_alive(pid) {
                    return Err(PersistError::StoreLocked {
                        path: root.display().to_string(),
                        pid,
                    });
                }
            }
        }
        let mut store = ProvStore { root, owns_lock: false };
        if let Some(name) = store.shard_files().into_iter().find(|n| earlier_layout(n)) {
            return Err(PersistError::Format {
                line: 0,
                message: format!(
                    "{} holds {name}, a file of the earlier store layout, which is not read",
                    store.root.display()
                ),
            });
        }
        write_atomic(&lock, &format!("{own_pid}\n"))?;
        store.owns_lock = true;
        Ok(store)
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn shard_dir(&self, exec_id: &str) -> PathBuf {
        let shard = fnv1a(exec_id.as_bytes()) % SHARDS;
        self.root.join(format!("shard-{shard:02}"))
    }

    fn exec_path(&self, exec_id: &str) -> PathBuf {
        self.shard_dir(exec_id).join(format!("{}.exec", sanitise(exec_id)))
    }

    /// The names of the files in every shard directory.
    fn shard_files(&self) -> Vec<String> {
        let Ok(shards) = std::fs::read_dir(&self.root) else {
            return Vec::new();
        };
        let entries = shards.flatten().filter_map(|shard| std::fs::read_dir(shard.path()).ok());
        entries
            .flatten()
            .flatten()
            .map(|entry| entry.file_name().to_string_lossy().into_owned())
            .collect()
    }

    /// Does the store hold an execution with this id?
    pub fn contains(&self, exec_id: &str) -> bool {
        self.exec_path(exec_id).exists()
    }

    /// The header of `exec_id`'s execution file (epoch, live flag and
    /// resume point), read without loading the execution; `Ok(None)` if
    /// the store has no such execution.
    pub fn header(&self, exec_id: &str) -> Result<Option<Header>, PersistError> {
        exec::read_header(&self.exec_path(exec_id))
    }

    /// Whether `exec_id` was stored in live mode: its `live:` header, read
    /// without loading the execution; `false` when it cannot be read.
    pub fn stored_live(&self, exec_id: &str) -> bool {
        self.header(exec_id).ok().flatten().is_some_and(|header| header.live)
    }

    /// All execution ids present in the store, sorted.
    pub fn execution_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self
            .shard_files()
            .iter()
            .filter_map(|name| unsanitise(name.strip_suffix(".exec")?))
            .collect();
        ids.sort();
        ids
    }

    /// Write-through one execution: its document, calls, and the epoch
    /// snapshot holding its links, as one file in one atomic write. The
    /// file holds no resume point: see [`save_with`](Self::save_with).
    pub fn save(
        &self,
        exec_id: &str,
        doc: &Document,
        trace: &ExecutionTrace,
        graph: &ProvenanceGraph,
        epoch: u64,
        live: bool,
    ) -> Result<(), PersistError> {
        self.save_with(exec_id, doc, trace, graph, &Header { epoch, live, checkpoint: None })
    }

    /// [`save`](Self::save) under a whole header: a durable run's resume
    /// point is written by the same atomic write as the calls it follows.
    pub fn save_with(
        &self,
        exec_id: &str,
        doc: &Document,
        trace: &ExecutionTrace,
        graph: &ProvenanceGraph,
        header: &Header,
    ) -> Result<(), PersistError> {
        std::fs::create_dir_all(self.shard_dir(exec_id))?;
        let text = exec::encode(exec_id, doc, trace, graph, header);
        write_atomic(&self.exec_path(exec_id), &text)?;
        SNAPSHOTS.inc();
        Ok(())
    }

    /// Cold-load an execution: document, replayed trace and snapshot, from
    /// one read of its file. Returns `Ok(None)` if the store has no such
    /// execution.
    pub fn load(&self, exec_id: &str) -> Result<Option<StoredExecution>, PersistError> {
        let path = self.exec_path(exec_id);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let stored = exec::decode(&path.display().to_string(), &bytes)?;
        COLD_LOADS.inc();
        Ok(Some(stored))
    }

    /// Compact every stored execution: a no-op that returns 0. Each save
    /// rewrites its execution's one file, so there is no log to compact;
    /// the method stays for callers written against the earlier layout.
    pub fn compact_all(&self) -> Result<usize, PersistError> {
        Ok(0)
    }
}

impl Drop for ProvStore {
    /// Release the directory lock — but only if this process still owns
    /// it (a crashed-then-restarted daemon may have reclaimed a stale
    /// lock this handle once held).
    fn drop(&mut self) {
        if !self.owns_lock {
            return;
        }
        let lock = self.root.join("store.lock");
        let ours = std::fs::read_to_string(&lock)
            .ok()
            .and_then(|c| c.trim().parse::<u32>().ok())
            .map(|pid| pid == std::process::id())
            .unwrap_or(false);
        if ours {
            let _ = std::fs::remove_file(&lock);
        }
    }
}

#[cfg(test)]
mod tests;
