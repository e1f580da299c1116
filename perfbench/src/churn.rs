//! `store-churn`: a disk-backed platform whose working set exceeds its
//! residency cache, driven through `serve::handle_line_limits` on the
//! benchmark's thread (no TCP).
//!
//! A `Platform` with a `ProvStore` attached keeps at most
//! `MAX_RESIDENT` executions in memory, well below the number it holds.
//! Each read queries an evicted execution, so it pays a cold load plus the
//! write-back of the execution it evicts; each write is a live ingest with
//! write-through. The run is split into rounds (one per slice), each on a
//! fresh store, so every slice covers the same range of store sizes, and
//! `ProvStore::compact_all` runs once at the end of each round. This is
//! the workload for the store format, and it bypasses transport.

use std::collections::HashMap;
use std::path::PathBuf;

use weblab::json::Json;
use weblab::platform::{Platform, ProvStore};
use weblab::prov::{ProvenanceGraph, ReachabilityIndex};
use weblab::serve::{handle_line_limits, RequestLimits};
use weblab::xml::{parse_document, to_xml_string};

use crate::harness::{CpuScope, Harness, Kind};
use crate::ingest;
use crate::inputs::{self, mix};
use crate::kernel::Reference;
use crate::{stats, sys, Ctx, Extras};

/// Executions kept in memory; every round holds many more.
const MAX_RESIDENT: usize = 4;
/// Executions ingested by each round's set-up.
const PREPOPULATE: usize = 8;
const NATIVES: usize = 30;
/// Operations per round: write then read, repeated. One read per write
/// keeps the pool of evicted executions growing by one per pair, so reads
/// never run out of cold executions, and it makes every write's eviction
/// and every read's write-back the same traffic to the store.
const PATTERN: [Kind; 2] = [Kind::Write, Kind::Read];
const PATTERNS_PER_ROUND: usize = 36;
// Compaction: `weblab serve` compacts on a 5 s timer by default
// (`--compact-every 5000`). A round is one slice of about a second on a
// fresh store, so once per round, at its end, is the nearest cadence the
// rounds allow; every fifth round would leave four slices in five without
// it, and the medians over slices would drop it.
const REF_UNITS: u32 = 20;

/// The read request for one execution and the reply captured while it was
/// resident.
struct Known {
    line: String,
    resident_reply: String,
}

struct Round {
    platform: Platform,
    dir: PathBuf,
    known: HashMap<String, Known>,
    ids: Vec<String>,
    input_bytes: u64,
    /// Resources and links over the round's executions.
    resources: u64,
    links: u64,
}

fn read_line(id: &str, graph: &ProvenanceGraph) -> String {
    let derived = inputs::derived_uris(graph);
    let origins = inputs::origin_uris(graph);
    let d = derived.last().cloned().unwrap_or_default();
    let o = origins.first().cloned().unwrap_or_default();
    Json::obj(vec![
        ("op", Json::str("batch")),
        ("exec", Json::str(id)),
        (
            "requests",
            Json::Arr(vec![
                Json::obj(vec![
                    ("op", Json::str("why")),
                    ("uri", Json::str(d.as_str())),
                ]),
                Json::obj(vec![
                    ("op", Json::str("impacted-by")),
                    ("uri", Json::str(o.as_str())),
                ]),
                Json::obj(vec![
                    ("op", Json::str("lineage")),
                    ("uri", Json::str(d.as_str())),
                    ("depth", Json::num(2)),
                ]),
            ]),
        ),
    ])
    .to_string()
}

fn ok_reply(reply: &str) -> bool {
    reply.starts_with("{\"ok\":true,")
}

impl Round {
    /// Capture the read request and resident reply of a just-written
    /// execution.
    fn remember(&mut self, id: &str, limits: &RequestLimits) -> bool {
        let Ok(snap) = self.platform.execution(id).snapshot() else {
            return false;
        };
        self.resources += snap.graph.sources.len() as u64;
        self.links += snap.graph.links.len() as u64;
        let line = read_line(id, &snap.graph);
        let (resident_reply, _) = handle_line_limits(&self.platform, &line, limits);
        let ok = ok_reply(&resident_reply) && !snap.graph.links.is_empty();
        self.known.insert(
            id.to_string(),
            Known {
                line,
                resident_reply,
            },
        );
        self.ids.push(id.to_string());
        ok
    }

    fn evicted(&self) -> Vec<&String> {
        self.ids
            .iter()
            .filter(|id| !self.platform.execution(id.as_str()).is_resident())
            .collect()
    }
}

/// An ingest request for a fresh corpus, and the corpus XML.
fn ingest_request(seed: u64, id: &str) -> (String, String) {
    let xml = to_xml_string(&inputs::corpus(seed, NATIVES).view());
    (ingest::line(id, &xml), xml)
}

pub fn run(ctx: &Ctx, trace: bool) -> (Harness, Extras) {
    let reference = Reference::Durable {
        units: REF_UNITS,
        dir: ctx.work.clone(),
    };
    let mut h = Harness::new(reference, CpuScope::Process, trace);
    let limits = RequestLimits::default();
    let mut ratios = Vec::new();
    let mut store_fs = String::new();
    let (mut writes_total, mut execs_per_round, mut round_bytes) = (0usize, 0usize, 0u64);
    let (mut resources, mut links) = (0u64, 0u64);
    for r in 0..ctx.seconds as usize {
        let dir = ctx.work.join(format!("store-{r}"));
        let (mut round, populated) = h.setup(|steps| {
            let platform = steps.step(|| {
                let platform = inputs::platform();
                let store = ProvStore::open(&dir).expect("opening a store in the work directory");
                platform
                    .attach_store(store, MAX_RESIDENT)
                    .expect("attaching the store");
                platform
            });
            let mut round = Round {
                platform,
                dir: dir.clone(),
                known: HashMap::new(),
                ids: Vec::new(),
                input_bytes: 0,
                resources: 0,
                links: 0,
            };
            let mut ok = true;
            for k in 0..PREPOPULATE {
                let id = format!("p{r}-{k}");
                let (line, xml) = ingest_request(mix(ctx.seed, (r * 1000 + k) as u64), &id);
                round.input_bytes += xml.len() as u64;
                let reply = steps.step(|| handle_line_limits(&round.platform, &line, &limits).0);
                ok &= ok_reply(&reply);
                ok &= round.remember(&id, &limits);
            }
            (round, ok)
        });
        h.check_setup(populated, || {
            format!("round {r}: pre-populating the store failed")
        });
        store_fs = sys::fs_type(&round.dir);
        let store = round.platform.store().expect("a store is attached");
        let mut rng = mix(ctx.seed, 50 + r as u64);
        let mut writes = 0usize;

        h.begin_slice();
        for kind in PATTERN
            .iter()
            .cycle()
            .take(PATTERN.len() * PATTERNS_PER_ROUND)
        {
            let traced = h.traced_next(*kind);
            if *kind == Kind::Write {
                let (id, line, xml, io0) = h.outside(|_| {
                    let id = format!("w{r}-{writes}");
                    let seed = mix(ctx.seed, 1_000_000 + (r * 1000 + writes) as u64);
                    let (line, xml) = ingest_request(seed, &id);
                    (id, line, xml, sys::io())
                });
                writes += 1;
                round.input_bytes += xml.len() as u64;
                let op = h.op(Kind::Write, traced, || {
                    handle_line_limits(&round.platform, &line, &limits).0
                });
                h.outside(|h| {
                    let io = sys::io() - io0;
                    let replayed = ingest::check(h, op.root, &op.out, &id, &line, &xml);
                    let remembered = round.remember(&id, &limits);
                    h.check(remembered, || format!("{id}: resident read failed"));
                    if let (Some(root), Some(replayed), Some(c)) = (op.root, replayed, &op.counters)
                    {
                        for (metric, counter) in [
                            ("live.deltas_per_write", "live.deltas"),
                            ("store.snapshots_per_write", "store.snapshots"),
                            ("store.delta_appends_per_write", "store.delta_appends"),
                            ("store.evictions_per_op", "store.evictions"),
                        ] {
                            h.count(metric, c.counter(counter) as f64, 1.0);
                        }
                        h.count("io.write_bytes_per_op", io.wchar as f64, 1.0);
                        h.count("io.write_calls_per_op", io.syscw as f64, 1.0);
                        replay_save(h, root, &round, &id, &replayed);
                        h.close(root);
                    }
                });
            } else {
                let (id, line, io0) = h.outside(|_| {
                    let candidates = round.evicted();
                    rng = mix(rng, 3);
                    let id = candidates[(rng % candidates.len() as u64) as usize].clone();
                    let line = round.known[&id].line.clone();
                    (id, line, sys::io())
                });
                let op = h.op(Kind::Read, traced, || {
                    handle_line_limits(&round.platform, &line, &limits).0
                });
                h.outside(|h| {
                    let io = sys::io() - io0;
                    h.check(op.out == round.known[&id].resident_reply, || {
                        format!("cold read of {id}: reply differs from the resident one")
                    });
                    if let (Some(root), Some(c)) = (op.root, &op.counters) {
                        h.count(
                            "store.cold_loads_per_read",
                            c.counter("store.cold_loads") as f64,
                            1.0,
                        );
                        h.count(
                            "store.evictions_per_op",
                            c.counter("store.evictions") as f64,
                            1.0,
                        );
                        h.count("io.write_bytes_per_op", io.wchar as f64, 1.0);
                        h.count("io.write_calls_per_op", io.syscw as f64, 1.0);
                        h.count("io.read_bytes_per_read", io.rchar as f64, 1.0);
                        replay_read(h, root, &round, &store, &id, &line, &limits);
                        h.close(root);
                    }
                });
            }
            h.reference();
        }
        let traced = h.traced_next(Kind::Between);
        let op = h.op(Kind::Between, traced, || store.compact_all());
        h.outside(|h| {
            h.check(op.out.is_ok(), || format!("round {r}: compaction failed"));
            if let Some(root) = op.root {
                h.tracer.whole("store.compact", root);
                h.close(root);
            }
        });
        h.reference();
        h.end_slice();
        writes_total += writes;
        execs_per_round = round.ids.len();
        let bytes = inputs::dir_bytes(&round.dir);
        round_bytes = round.input_bytes;
        (resources, links) = (round.resources, round.links);
        ratios.push(bytes as f64 / round.input_bytes.max(1) as f64);
        let dir = round.dir.clone();
        drop((store, round));
        let _ = std::fs::remove_dir_all(dir);
    }
    let extras = Extras {
        peak_rss_mb: sys::self_peak_rss_mb(),
        store_bytes_per_input_byte: stats::median(&ratios),
        sizes: vec![
            ("input_bytes_per_round", round_bytes),
            ("executions_per_round", execs_per_round as u64),
            ("max_resident", MAX_RESIDENT as u64),
            ("natives_per_execution", NATIVES as u64),
            (
                "resources_per_execution",
                resources / execs_per_round.max(1) as u64,
            ),
            ("links_per_execution", links / execs_per_round.max(1) as u64),
            ("writes", writes_total as u64),
        ],
        store_fs: Some(store_fs),
    };
    (h, extras)
}

/// Replay a cold read's layers after the fact: the resident repeat (the
/// dispatch), then the cold load's parts — store load and XML parse, the
/// index build, and an eviction with its save and serialisation.
fn replay_read(
    h: &mut Harness,
    root: usize,
    round: &Round,
    store: &ProvStore,
    id: &str,
    line: &str,
    limits: &RequestLimits,
) {
    let t = &mut h.tracer;
    let (_, dispatch) = t.time("serve.dispatch", root, || {
        handle_line_limits(&round.platform, line, limits)
    });
    let cold_ms = t.spans[root].ms() - t.spans[dispatch].ms();
    let cold = t.derived("platform.cold_load", root, cold_ms);
    let (stored, load) = t.time("store.load", cold, || store.load(id));
    let stored = stored
        .expect("the store reads back")
        .expect("the execution is stored");
    let text = to_xml_string(&stored.doc.view());
    let _ = t.time("xml.parse", load, || parse_document(&text));
    let snap = stored
        .snapshot
        .as_ref()
        .expect("a fresh snapshot is stored");
    t.time("prov.index_build", cold, || {
        ReachabilityIndex::from_graph(&snap.graph)
    });
    let (_, evict) = t.time("platform.evict", cold, || {
        round.platform.execution(id).evict()
    });
    let (_, save) = t.time("store.save", evict, || {
        store.save(
            id,
            &stored.doc,
            &stored.trace,
            &snap.graph,
            snap.epoch,
            snap.live,
        )
    });
    t.time("xml.serialize", save, || to_xml_string(&stored.doc.view()));
    // make it resident again, as it was after the timed read
    handle_line_limits(&round.platform, line, limits);
}

/// Replay a write's first save of the execution into a scratch store.
fn replay_save(h: &mut Harness, root: usize, round: &Round, id: &str, w: &ingest::Replayed) {
    let dir = round.dir.with_extension("scratch");
    let scratch = ProvStore::open(&dir).expect("opening a scratch store");
    let t = &mut h.tracer;
    let (saved, save) = t.time("store.save", root, || {
        scratch.save(
            id,
            &w.doc,
            &w.trace,
            &w.snapshot.graph,
            w.snapshot.epoch,
            true,
        )
    });
    saved.expect("the scratch store saves");
    t.time("xml.serialize", save, || to_xml_string(&w.doc.view()));
    drop(scratch);
    let _ = std::fs::remove_dir_all(dir);
}
