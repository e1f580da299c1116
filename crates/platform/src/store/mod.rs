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
//! owns a family of files keyed by its injectively escaped id (`exec/1`
//! becomes `exec%2F1`, never colliding with `exec_1`):
//!
//! ```text
//! store/
//!   store.lock             pid of the process holding the directory
//!   shard-07/
//!     exec%2F1.doc.xml     stamped WebLab document
//!     exec%2F1.seg-1       sealed log segment (calls)
//!     exec%2F1.seg-2
//!     exec%2F1.delta       unsealed tail of the log
//!     exec%2F1.snap-5      index snapshot published at epoch 5
//!     exec%2F1.resume      resume point of an unfinished CLI run
//! ```
//!
//! * **Segments** ([`segment`]) are the append-only call log. Each
//!   covers a contiguous call range declared by its `base:` header;
//!   readers replay segments in base order and skip ranges already
//!   covered, so the one benign duplication compaction can leave behind
//!   (crash between writing a merged segment and unlinking its inputs) is
//!   harmless. New calls go to the `.delta` file, which
//!   [`ProvStore::compact`] seals into a numbered segment; when sealed
//!   segments pile up they are folded into one.
//! * **Snapshots** ([`snapshot`]) serialise the published
//!   [`EpochSnapshot`]'s graph together with its epoch and call count.
//!   Only the newest snapshot is kept, and it is the one on-disk copy of
//!   the execution's links. A snapshot that is missing or stale (a crash
//!   between a save's log write and its snapshot write) is not rebuilt
//!   here: [`StoredExecution::resume_snapshot`] hands the platform an
//!   empty one, and its ordinary refresh re-infers the links from the
//!   document and the log at epoch 1.
//! * **Resume points** ([`resume`]) record how far an unfinished CLI run
//!   got, which the log cannot say; the run removes its own when it
//!   completes.
//!
//! Every file is written atomically (temporary file, fsync, rename,
//! directory fsync) and ends in a checked `# end` integrity footer, so
//! truncation surfaces as [`PersistError::Truncated`] instead of a
//! silently shorter execution.

mod file;
pub mod resume;
pub mod segment;
pub mod snapshot;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use file::{sanitise, unsanitise, write_atomic};
pub use file::PersistError;
pub use resume::ResumePoint;
use segment::{SegmentCall, SegmentData};
use snapshot::SnapshotData;
use weblab_obs::Counter;
use weblab_prov::{CallRecord, EpochSnapshot, ExecutionTrace, ProvenanceGraph, ReachabilityIndex};
use weblab_xml::{parse_document, to_xml_string, Document};

static SEGMENTS: Counter = Counter::new("store.segments");
static SNAPSHOTS: Counter = Counter::new("store.snapshots");
static DELTA_APPENDS: Counter = Counter::new("store.delta_appends");
static COLD_LOADS: Counter = Counter::new("store.cold_loads");
static COMPACTIONS: Counter = Counter::new("store.compactions");

/// Number of shard directories (hash buckets) under the store root.
const SHARDS: u64 = 16;

/// Sealed segments per execution beyond which compaction folds them into
/// one.
const MAX_SEGMENTS: usize = 4;

/// What the store knows it has already persisted for one execution —
/// enough to turn each save into a pure delta append without re-reading
/// the log.
#[derive(Debug, Default)]
struct Mark {
    /// Calls covered by sealed segments.
    sealed_calls: usize,
    /// Calls in the unsealed delta.
    delta_calls: usize,
    /// Sealed segment numbers, ascending.
    segments: Vec<u64>,
    /// Epoch of the newest on-disk snapshot.
    snapshot_epoch: Option<u64>,
    /// Whether the on-disk state was scanned at least once.
    scanned: bool,
}

/// An execution as read back from disk.
#[derive(Debug)]
pub struct StoredExecution {
    /// The reloaded document.
    pub doc: Document,
    /// The replayed trace (produced URIs resolved against `doc`).
    pub trace: ExecutionTrace,
    /// The newest snapshot, if it is fresh (covers the whole trace).
    pub snapshot: Option<SnapshotData>,
}

impl StoredExecution {
    /// The epoch snapshot the execution continues from: the stored one if
    /// it is fresh, else an empty one at epoch 0, which the platform's
    /// next refresh fills from the document and trace at epoch 1 (epochs
    /// restart). What a cold load publishes and a resumed `weblab run`
    /// folds its calls into. Either way its index counts one build.
    pub fn resume_snapshot(&mut self) -> EpochSnapshot {
        match self.snapshot.take() {
            Some(snap) => EpochSnapshot {
                epoch: snap.epoch,
                calls: snap.calls,
                index: ReachabilityIndex::from_graph(&snap.graph),
                graph: snap.graph,
            },
            None => EpochSnapshot { index: ReachabilityIndex::new(), ..EpochSnapshot::empty() },
        }
    }
}

/// The disk-backed sharded provenance store.
///
/// All methods are safe to call from multiple threads; per-execution
/// bookkeeping lives behind one mutex (I/O under the lock is the
/// simplicity trade-off — the store is the cold path by design).
pub struct ProvStore {
    root: PathBuf,
    marks: Mutex<HashMap<String, Mark>>,
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
    /// concurrent daemons, not re-entrant use.
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
        write_atomic(&lock, &format!("{own_pid}\n"))?;
        Ok(ProvStore {
            root,
            marks: Mutex::new(HashMap::new()),
            owns_lock: true,
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn shard_dir(&self, exec_id: &str) -> PathBuf {
        // FNV-1a over the raw id bytes; stable across runs and platforms.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in exec_id.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.root.join(format!("shard-{:02}", h % SHARDS))
    }

    fn doc_path(&self, exec_id: &str) -> PathBuf {
        self.shard_dir(exec_id).join(format!("{}.doc.xml", sanitise(exec_id)))
    }

    fn delta_path(&self, exec_id: &str) -> PathBuf {
        self.shard_dir(exec_id).join(format!("{}.delta", sanitise(exec_id)))
    }

    fn segment_path(&self, exec_id: &str, n: u64) -> PathBuf {
        self.shard_dir(exec_id).join(format!("{}.seg-{n}", sanitise(exec_id)))
    }

    fn snapshot_path(&self, exec_id: &str, epoch: u64) -> PathBuf {
        self.shard_dir(exec_id).join(format!("{}.snap-{epoch}", sanitise(exec_id)))
    }

    fn resume_path(&self, exec_id: &str) -> PathBuf {
        self.shard_dir(exec_id).join(format!("{}.resume", sanitise(exec_id)))
    }

    /// Does the store hold an execution with this id?
    pub fn contains(&self, exec_id: &str) -> bool {
        self.doc_path(exec_id).exists()
    }

    /// Whether the newest stored snapshot of `exec_id` was taken in live
    /// mode: its `live:` header, read without loading the execution.
    pub fn stored_live(&self, exec_id: &str) -> bool {
        let (_, snaps, _) = self.scan_files(exec_id);
        snaps.last().is_some_and(|&e| snapshot::read_live(&self.snapshot_path(exec_id, e)))
    }

    /// All execution ids present in the store, sorted.
    pub fn execution_ids(&self) -> Vec<String> {
        let mut ids = Vec::new();
        let Ok(shards) = std::fs::read_dir(&self.root) else {
            return ids;
        };
        for shard in shards.flatten() {
            let Ok(entries) = std::fs::read_dir(shard.path()) else {
                continue;
            };
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if let Some(stem) = name.strip_suffix(".doc.xml") {
                    if let Some(id) = unsanitise(stem) {
                        ids.push(id);
                    }
                }
            }
        }
        ids.sort();
        ids
    }

    /// Families of on-disk files for `exec_id`, split by kind:
    /// `(segment numbers, snapshot epochs, delta exists)`.
    fn scan_files(&self, exec_id: &str) -> (Vec<u64>, Vec<u64>, bool) {
        let stem = sanitise(exec_id);
        let mut segs = Vec::new();
        let mut snaps = Vec::new();
        let mut delta = false;
        if let Ok(entries) = std::fs::read_dir(self.shard_dir(exec_id)) {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                let Some(rest) = name.strip_prefix(&stem) else {
                    continue;
                };
                if let Some(n) = rest.strip_prefix(".seg-").and_then(|n| n.parse().ok()) {
                    segs.push(n);
                } else if let Some(e) = rest.strip_prefix(".snap-").and_then(|e| e.parse().ok()) {
                    snaps.push(e);
                } else if rest == ".delta" {
                    delta = true;
                }
            }
        }
        segs.sort_unstable();
        snaps.sort_unstable();
        (segs, snaps, delta)
    }

    /// Read the full log for `exec_id`: sealed segments in base order plus
    /// the delta, skipping ranges a merged segment already covers.
    fn read_log(&self, exec_id: &str) -> Result<(Vec<SegmentData>, Option<SegmentData>), PersistError> {
        let (seg_nums, _, has_delta) = self.scan_files(exec_id);
        let mut parts: Vec<(u64, SegmentData)> = Vec::with_capacity(seg_nums.len());
        for n in &seg_nums {
            parts.push((*n, segment::read(&self.segment_path(exec_id, *n))?));
        }
        // Base order; at equal base the *widest* segment wins (it is the
        // merged one), and narrower duplicates are skipped below.
        parts.sort_by(|a, b| {
            (a.1.base, std::cmp::Reverse(a.1.calls.len()))
                .cmp(&(b.1.base, std::cmp::Reverse(b.1.calls.len())))
        });
        let mut live_parts: Vec<SegmentData> = Vec::new();
        let mut position = 0usize;
        for (n, part) in parts {
            if part.end() <= position {
                continue; // fully covered by a merged predecessor
            }
            if part.base > position {
                return Err(PersistError::Truncated {
                    file: self.segment_path(exec_id, n).display().to_string(),
                    message: format!(
                        "log gap: segment starts at call {} but only {position} calls are covered",
                        part.base
                    ),
                });
            }
            if part.base < position {
                return Err(PersistError::Truncated {
                    file: self.segment_path(exec_id, n).display().to_string(),
                    message: format!(
                        "log overlap: segment starts at call {} inside covered range {position}",
                        part.base
                    ),
                });
            }
            position = part.end();
            live_parts.push(part);
        }
        let delta = if has_delta {
            let d = segment::read(&self.delta_path(exec_id))?;
            if d.base > position {
                return Err(PersistError::Truncated {
                    file: self.delta_path(exec_id).display().to_string(),
                    message: format!(
                        "log gap: delta starts at call {} but only {position} calls are covered",
                        d.base
                    ),
                });
            } else if d.base < position {
                // stale delta already folded by a crash-interrupted
                // compaction; its contents are in the sealed segments
                None
            } else {
                Some(d)
            }
        } else {
            None
        };
        Ok((live_parts, delta))
    }

    /// Load (or lazily rebuild) the persisted-state mark for `exec_id`.
    /// Caller holds the marks lock; the mark is rebuilt by reading the log.
    fn ensure_mark(
        &self,
        marks: &mut HashMap<String, Mark>,
        exec_id: &str,
    ) -> Result<(), PersistError> {
        let mark = marks.entry(exec_id.to_string()).or_default();
        if mark.scanned {
            return Ok(());
        }
        let (seg_nums, snaps, _) = self.scan_files(exec_id);
        let (segs, delta) = self.read_log(exec_id)?;
        *mark = Mark {
            sealed_calls: segs.iter().map(|s| s.calls.len()).sum(),
            delta_calls: delta.map_or(0, |d| d.calls.len()),
            segments: seg_nums,
            snapshot_epoch: snaps.last().copied(),
            scanned: true,
        };
        Ok(())
    }

    /// Write-through one execution: the document, any new tail of the call
    /// log (as a delta append), and the current epoch snapshot, which
    /// holds its links. Idempotent — saving unchanged state writes only the
    /// document.
    pub fn save(
        &self,
        exec_id: &str,
        doc: &Document,
        trace: &ExecutionTrace,
        graph: &ProvenanceGraph,
        epoch: u64,
        live: bool,
    ) -> Result<(), PersistError> {
        std::fs::create_dir_all(self.shard_dir(exec_id))?;
        write_atomic(&self.doc_path(exec_id), &to_xml_string(&doc.view()))?;

        let mut marks = self.marks.lock().expect("store marks poisoned");
        self.ensure_mark(&mut marks, exec_id)?;
        let mark = marks.get_mut(exec_id).expect("mark just ensured");

        let persisted = mark.sealed_calls + mark.delta_calls;
        let new_calls: Vec<SegmentCall> = trace.calls[persisted.min(trace.calls.len())..]
            .iter()
            .map(|c| segment_call(doc, c))
            .collect();

        if !new_calls.is_empty() {
            // Rebuild the delta file: previous unsealed tail + the news.
            // A delta whose base disagrees with the sealed call count is
            // stale (crash-interrupted compaction); start a fresh one.
            let mut delta = if self.delta_path(exec_id).exists() {
                let d = segment::read(&self.delta_path(exec_id))?;
                if d.base == mark.sealed_calls {
                    d
                } else {
                    SegmentData { base: mark.sealed_calls, ..SegmentData::default() }
                }
            } else {
                SegmentData { base: mark.sealed_calls, ..SegmentData::default() }
            };
            mark.delta_calls += new_calls.len();
            delta.calls.extend(new_calls);
            segment::write(&self.delta_path(exec_id), exec_id, &delta)?;
            DELTA_APPENDS.inc();
        }

        if mark.snapshot_epoch != Some(epoch) {
            let snap = SnapshotData { epoch, calls: trace.len(), live, graph: graph.clone() };
            self.snapshot_write(exec_id, &snap, mark)?;
        }
        Ok(())
    }

    fn snapshot_write(
        &self,
        exec_id: &str,
        snap: &SnapshotData,
        mark: &mut Mark,
    ) -> Result<(), PersistError> {
        snapshot::write(&self.snapshot_path(exec_id, snap.epoch), exec_id, snap)?;
        SNAPSHOTS.inc();
        // Drop superseded snapshots; only the newest answers queries.
        let (_, snaps, _) = self.scan_files(exec_id);
        for e in snaps {
            if e != snap.epoch {
                let _ = std::fs::remove_file(self.snapshot_path(exec_id, e));
            }
        }
        mark.snapshot_epoch = Some(snap.epoch);
        Ok(())
    }

    /// Cold-load an execution: document, replayed trace, and the newest
    /// snapshot if it covers the whole trace. Returns `Ok(None)` if the
    /// store has no such execution.
    pub fn load(&self, exec_id: &str) -> Result<Option<StoredExecution>, PersistError> {
        let doc_path = self.doc_path(exec_id);
        let xml = match std::fs::read_to_string(&doc_path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let doc = parse_document(&xml).map_err(|e| PersistError::Xml(e.to_string()))?;

        let mut marks = self.marks.lock().expect("store marks poisoned");
        // Re-scan so the mark reflects disk even across processes.
        marks.remove(exec_id);
        self.ensure_mark(&mut marks, exec_id)?;
        let (segs, delta) = self.read_log(exec_id)?;

        let mut trace = ExecutionTrace::default();
        for c in segs.iter().chain(&delta).flat_map(|part| &part.calls) {
            trace.calls.push(call_record(&doc, c)?);
        }

        let snapshot = match marks.get(exec_id).and_then(|m| m.snapshot_epoch) {
            Some(epoch) => {
                let snap = snapshot::read(&self.snapshot_path(exec_id, epoch))?;
                // A stale snapshot (crash between delta write and snapshot
                // write) is discarded; the platform re-infers its links.
                (snap.calls == trace.len()).then_some(snap)
            }
            None => None,
        };
        COLD_LOADS.inc();
        Ok(Some(StoredExecution { doc, trace, snapshot }))
    }

    /// Seal the delta into a fresh segment, then fold sealed segments into
    /// one once more than `MAX_SEGMENTS` exist. Returns `true` if any file
    /// changed.
    pub fn compact(&self, exec_id: &str) -> Result<bool, PersistError> {
        let mut marks = self.marks.lock().expect("store marks poisoned");
        self.ensure_mark(&mut marks, exec_id)?;
        let mark = marks.get_mut(exec_id).expect("mark just ensured");
        let mut changed = false;

        let (_, delta) = self.read_log(exec_id)?;
        if let Some(delta) = delta {
            if !delta.calls.is_empty() {
                let next = mark.segments.last().copied().unwrap_or(0) + 1;
                segment::write(&self.segment_path(exec_id, next), exec_id, &delta)?;
                let _ = std::fs::remove_file(self.delta_path(exec_id));
                mark.segments.push(next);
                mark.sealed_calls += delta.calls.len();
                mark.delta_calls = 0;
                SEGMENTS.inc();
                COMPACTIONS.inc();
                changed = true;
            }
        }

        if mark.segments.len() > MAX_SEGMENTS {
            let (segs, _) = self.read_log(exec_id)?;
            let merged = SegmentData {
                base: 0,
                calls: segs.into_iter().flat_map(|s| s.calls).collect(),
            };
            let next = mark.segments.last().copied().unwrap_or(0) + 1;
            segment::write(&self.segment_path(exec_id, next), exec_id, &merged)?;
            // Unlink the inputs only after the merged segment is durable;
            // a crash in between leaves duplicates the reader skips.
            for n in std::mem::take(&mut mark.segments) {
                let _ = std::fs::remove_file(self.segment_path(exec_id, n));
            }
            mark.segments = vec![next];
            SEGMENTS.inc();
            changed = true;
        }
        Ok(changed)
    }

    /// Record how far an unfinished run of `exec_id` got. Written after
    /// each [`save`](Self::save) of a completed step.
    pub fn save_resume_point(
        &self,
        exec_id: &str,
        point: &ResumePoint,
    ) -> Result<(), PersistError> {
        std::fs::create_dir_all(self.shard_dir(exec_id))?;
        resume::write(&self.resume_path(exec_id), exec_id, point)
    }

    /// The resume point of `exec_id`, or `None` if no run of it is
    /// unfinished.
    pub fn resume_point(&self, exec_id: &str) -> Result<Option<ResumePoint>, PersistError> {
        resume::read(&self.resume_path(exec_id))
    }

    /// Remove the resume point of `exec_id` once its run completed, so the
    /// stored execution reads as finished. Removing none is fine.
    pub fn clear_resume_point(&self, exec_id: &str) -> Result<(), PersistError> {
        match std::fs::remove_file(self.resume_path(exec_id)) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e.into()),
            _ => Ok(()),
        }
    }

    /// Run [`compact`](Self::compact) over every stored execution.
    /// Returns how many executions changed on disk.
    pub fn compact_all(&self) -> Result<usize, PersistError> {
        let mut changed = 0;
        for id in self.execution_ids() {
            if self.compact(&id)? {
                changed += 1;
            }
        }
        Ok(changed)
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

/// Project a [`CallRecord`] to its storable form, produced nodes resolved
/// to URIs through the document.
fn segment_call(doc: &Document, c: &CallRecord) -> SegmentCall {
    SegmentCall {
        service: c.service.clone(),
        time: c.time,
        input: (c.input.node_count(), c.input.resource_count()),
        output: (c.output.node_count(), c.output.resource_count()),
        channel: c.channel.clone(),
        produced: c
            .produced
            .iter()
            .filter_map(|&n| doc.resource(n).map(|m| m.uri.clone()))
            .collect(),
    }
}

/// Rehydrate a stored call against the reloaded document.
fn call_record(doc: &Document, c: &SegmentCall) -> Result<CallRecord, PersistError> {
    let produced = c
        .produced
        .iter()
        .map(|u| {
            doc.node_by_uri(u).ok_or_else(|| PersistError::Format {
                line: 0,
                message: format!("produced uri {u:?} not in document"),
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(CallRecord {
        service: c.service.clone(),
        time: c.time,
        input: c.input_mark(),
        output: c.output_mark(),
        produced,
        channel: c.channel.clone(),
    })
}

#[cfg(test)]
mod tests;
