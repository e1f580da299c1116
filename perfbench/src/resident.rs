//! `serve-resident`: daemon clients of an in-process `weblab serve`.
//!
//! A `Server` with two dispatch workers serves one client over loopback;
//! every execution is resident and no store is attached. Each read is a
//! `batch` with a fixed mix of sub-queries (why, lineage, impacted-by,
//! common-origins, sparql, rank, summary); each write is a live `ingest`
//! of the media pipeline into a new execution. Both are sized so the event
//! loop's 500 µs tick, a timer wait that does not slow down with the host,
//! is under a tenth of the round trip. This is the
//! daemon's hot path — transport, JSON, index lookups, cached SPARQL
//! plans, live inference — with no large parse, no batch inference and no
//! disk: a query or transport change shows here, a store change must not.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread::JoinHandle;

use weblab::json::Json;
use weblab::platform::{
    Platform, ProvQuery, ProvStore, QueryOpts, RankDirection, PROTOCOL_VERSION,
};
use weblab::serve::{
    handle_line_limits, reference_response, render_response, RequestLimits, Server,
};
use weblab::xml::to_xml_string;

use crate::harness::{CpuScope, Harness, Kind, Steps};
use crate::ingest;
use crate::inputs::{self, mix, PIPELINE};
use crate::kernel::Reference;
use crate::{sys, Ctx, Extras};

/// Resident executions the reads query.
const EXECS: usize = 8;
/// Native text resources per execution, resident or written: enough that
/// a write takes more than ten ticks.
const NATIVES: usize = 40;
/// Sub-queries of each kind per batch (seven kinds).
const SUBS_PER_KIND: usize = 24;
/// Batch variants per execution.
const VARIANTS: usize = 2;
const WORKERS: usize = 2;
/// Operations per slice of about a second at nominal speed. Queries are
/// the hot path this workload exists for, so reads take most of a slice;
/// every write adds a resident execution (no store is attached), so
/// three reads per write also bound the memory a run grows to.
const PATTERN: [Kind; 4] = [Kind::Read, Kind::Read, Kind::Read, Kind::Write];
const PATTERNS_PER_SLICE: usize = 20;
const REF_UNITS: u32 = 20;
const SETUPS: usize = 5;

struct Batch {
    exec: usize,
    line: String,
    queries: Vec<ProvQuery>,
}

struct Served {
    platform: Arc<Platform>,
    server: JoinHandle<std::io::Result<()>>,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    batches: Vec<Batch>,
    input_bytes: u64,
    resources: u64,
    links: u64,
}

impl Served {
    fn round_trip(&mut self, line: &str) -> String {
        self.stream
            .write_all(line.as_bytes())
            .expect("sending a request");
        self.stream.write_all(b"\n").expect("sending a request");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("reading a reply");
        reply.truncate(reply.trim_end().len());
        reply
    }

    fn stop(mut self) {
        let reply = self.round_trip(r#"{"op":"shutdown"}"#);
        assert!(
            reply.contains("\"stopping\":true"),
            "server refused shutdown: {reply}"
        );
        // close the connection first: the server drains open connections
        // for a grace period before it returns
        drop(self.reader);
        drop(self.stream);
        self.server
            .join()
            .expect("the server thread does not panic")
            .expect("the server stops cleanly");
    }
}

/// A batch over one execution: `SUBS_PER_KIND` sub-queries of each kind on
/// seeded subjects, as request JSON and as the equivalent `ProvQuery`s.
fn make_batch(exec: usize, derived: &[String], origins: &[String], seed: u64) -> Batch {
    let mut rng = seed;
    let mut pick = |v: &[String]| {
        rng = mix(rng, 7);
        v[(rng % v.len() as u64) as usize].clone()
    };
    let mut subs = Vec::new();
    let mut queries = Vec::new();
    for _ in 0..SUBS_PER_KIND {
        let (d, o, a, b) = (pick(derived), pick(origins), pick(derived), pick(derived));
        let sparql = format!(
            "PREFIX prov: <http://www.w3.org/ns/prov#> SELECT ?s WHERE {{ <{d}> prov:wasDerivedFrom ?s . }}"
        );
        subs.push(Json::obj(vec![
            ("op", Json::str("why")),
            ("uri", Json::str(d.as_str())),
        ]));
        queries.push(ProvQuery::Why { uri: d.clone() });
        subs.push(Json::obj(vec![
            ("op", Json::str("lineage")),
            ("uri", Json::str(d.as_str())),
            ("depth", Json::num(2)),
        ]));
        queries.push(ProvQuery::Lineage {
            uri: d.clone(),
            depth: 2,
        });
        subs.push(Json::obj(vec![
            ("op", Json::str("impacted-by")),
            ("uri", Json::str(o.as_str())),
        ]));
        queries.push(ProvQuery::ImpactedBy { uri: o.clone() });
        subs.push(Json::obj(vec![
            ("op", Json::str("common-origins")),
            ("a", Json::str(a.as_str())),
            ("b", Json::str(b.as_str())),
        ]));
        queries.push(ProvQuery::CommonOrigins { a, b });
        subs.push(Json::obj(vec![
            ("op", Json::str("sparql")),
            ("query", Json::str(sparql.as_str())),
        ]));
        queries.push(ProvQuery::Sparql { query: sparql });
        subs.push(Json::obj(vec![
            ("op", Json::str("rank")),
            ("uri", Json::str(o.as_str())),
            ("limit", Json::num(10)),
        ]));
        queries.push(ProvQuery::Rank {
            uris: vec![o.clone()],
            direction: RankDirection::Up,
            opts: QueryOpts {
                limit: 10,
                ..QueryOpts::default()
            },
            weights: Vec::new(),
        });
        subs.push(Json::obj(vec![
            ("op", Json::str("summary")),
            ("uri", Json::str(o.as_str())),
        ]));
        queries.push(ProvQuery::Summary { uri: Some(o) });
    }
    let line = Json::obj(vec![
        ("op", Json::str("batch")),
        ("exec", Json::str(exec_id(exec))),
        ("requests", Json::Arr(subs)),
    ])
    .to_string();
    Batch {
        exec,
        line,
        queries,
    }
}

fn exec_id(i: usize) -> String {
    format!("exec-{i}")
}

/// Set up a served platform: build the resident executions, start the
/// server, connect, and warm the per-epoch query engines and plan caches.
fn serve(seed: u64, steps: &mut Steps) -> Served {
    let platform = Arc::new(inputs::platform());
    let (mut input_bytes, mut resources, mut links) = (0, 0, 0);
    let mut batches = Vec::new();
    for i in 0..EXECS {
        let doc = inputs::corpus(mix(seed, 200 + i as u64), NATIVES);
        input_bytes += to_xml_string(&doc.view()).len() as u64;
        let exec = platform.execution(exec_id(i));
        let snap = steps.step(|| {
            exec.ingest(doc);
            exec.enable_live();
            exec.execute(&PIPELINE).expect("the media pipeline runs");
            exec.snapshot()
                .expect("an executed execution has a snapshot")
        });
        resources += snap.graph.sources.len() as u64;
        links += snap.graph.links.len() as u64;
        let (derived, origins) = (
            inputs::derived_uris(&snap.graph),
            inputs::origin_uris(&snap.graph),
        );
        for v in 0..VARIANTS {
            batches.push(make_batch(
                i,
                &derived,
                &origins,
                mix(seed, (300 + i * VARIANTS + v) as u64),
            ));
        }
    }
    let (server, stream) = steps.step(|| {
        let server =
            Server::bind(Arc::clone(&platform), "127.0.0.1:0").expect("binding a loopback port");
        let addr = server.local_addr().expect("a bound address");
        let server = std::thread::spawn(move || server.run(WORKERS));
        let stream = TcpStream::connect(addr).expect("connecting to the server");
        stream.set_nodelay(true).expect("setting TCP_NODELAY");
        (server, stream)
    });
    let reader = BufReader::new(stream.try_clone().expect("cloning the client socket"));
    let mut served = Served {
        platform,
        server,
        stream,
        reader,
        batches,
        input_bytes,
        resources,
        links,
    };
    for b in 0..served.batches.len() {
        let line = served.batches[b].line.clone();
        steps.step(|| served.round_trip(&line));
    }
    served
}

/// The reply a batch must get: every sub-response byte-identical to
/// `reference_response` at the execution's (unchanging) epoch, in the
/// batch envelope.
fn expected(platform: &Platform, batch: &Batch) -> String {
    let snap = platform
        .execution(exec_id(batch.exec))
        .snapshot()
        .expect("a snapshot");
    let subs: Vec<String> = batch
        .queries
        .iter()
        .map(|q| reference_response(&snap, q).expect("reference answers succeed"))
        .collect();
    format!(
        "{{\"ok\":true,\"v\":{PROTOCOL_VERSION},\"epoch\":{},\"result\":[{}]}}",
        snap.epoch,
        subs.join(",")
    )
}

pub fn run(ctx: &Ctx, trace: bool) -> (Harness, Extras) {
    let mut h = Harness::new(
        Reference::InProcess { units: REF_UNITS },
        CpuScope::Process,
        trace,
    );
    let mut served = None;
    for _ in 0..SETUPS {
        if let Some(s) = served.take() {
            Served::stop(s);
        }
        served = Some(h.setup(|steps| serve(ctx.seed, steps)));
    }
    let mut s = served.expect("at least one set-up");
    let limits = RequestLimits::default();
    let mut answers: HashMap<usize, String> = HashMap::new();
    let mut write_bytes = 0u64;
    let (mut reads, mut writes) = (0usize, 0usize);
    let mut rng = mix(ctx.seed, 5);
    for _ in 0..ctx.seconds {
        h.begin_slice();
        for kind in PATTERN
            .iter()
            .cycle()
            .take(PATTERN.len() * PATTERNS_PER_SLICE)
        {
            let traced = h.traced_next(*kind);
            if *kind == Kind::Read {
                let (b, line) = h.outside(|_| {
                    rng = mix(rng, 11);
                    let b = (rng % s.batches.len() as u64) as usize;
                    (b, s.batches[b].line.clone())
                });
                reads += 1;
                let op = h.op(Kind::Read, traced, || s.round_trip(&line));
                h.outside(|h| {
                    let want = answers
                        .entry(b)
                        .or_insert_with(|| expected(&s.platform, &s.batches[b]));
                    h.check(op.out == *want, || {
                        format!("batch {b}: served sub-responses differ from reference_response")
                    });
                    if let (Some(root), Some(c)) = (op.root, &op.counters) {
                        h.count(
                            "prov.index_hits_per_read",
                            c.counter("prov.index.hits") as f64,
                            1.0,
                        );
                        h.count(
                            "prov.index_traversals_per_read",
                            c.counter("prov.index.traversals") as f64,
                            1.0,
                        );
                        let (hit, miss) = (
                            c.counter("rdf.plan.cache.hits") as f64,
                            c.counter("rdf.plan.cache.misses") as f64,
                        );
                        h.count("rdf.plan_cache_hit_ratio", hit, hit + miss);
                        h.count(
                            "rdf.join_rows_per_scanned",
                            c.counter("rdf.join.rows") as f64,
                            c.counter("rdf.join.scanned") as f64,
                        );
                        h.count(
                            "prov.rank_visited_per_query",
                            c.counter("prov.rank.visited") as f64,
                            c.counter("prov.rank.queries") as f64,
                        );
                        let batch = &s.batches[b];
                        let exec = s.platform.execution(exec_id(batch.exec));
                        let (_, dispatch) = h.tracer.time("serve.dispatch", root, || {
                            handle_line_limits(&s.platform, &line, &limits)
                        });
                        let t = &mut h.tracer;
                        let _ = t.time("json.parse", dispatch, || Json::parse(&line));
                        for q in &batch.queries {
                            let ((epoch, answer), _) = t.time("platform.query", dispatch, || {
                                exec.query_at(q).expect("queries answer")
                            });
                            t.time("serve.render", dispatch, || render_response(epoch, &answer));
                        }
                        let transport = t.spans[root].ms() - t.spans[dispatch].ms();
                        t.derived("serve.transport", root, transport);
                        h.close(root);
                    }
                });
            } else {
                let k = writes;
                writes += 1;
                let (id, xml, line) = h.outside(|_| {
                    let doc = inputs::corpus(mix(ctx.seed, 3_000_000 + k as u64), NATIVES);
                    let xml = to_xml_string(&doc.view());
                    let id = format!("w-{k}");
                    let line = ingest::line(&id, &xml);
                    (id, xml, line)
                });
                write_bytes += xml.len() as u64;
                let op = h.op(Kind::Write, traced, || s.round_trip(&line));
                h.outside(|h| {
                    // The dispatch is replayed on a store-less reference
                    // platform and takes longer than the served round trip,
                    // so the round trip minus it is left as the write's
                    // residual rather than derived as transport.
                    ingest::check(h, op.root, &op.out, &id, &line, &xml);
                    if let (Some(root), Some(c)) = (op.root, &op.counters) {
                        h.count(
                            "live.deltas_per_write",
                            c.counter("live.deltas") as f64,
                            1.0,
                        );
                        h.close(root);
                    }
                });
            }
            h.reference();
        }
        h.end_slice();
    }
    let peak_rss_mb = sys::self_peak_rss_mb();
    let (input_bytes, resources, links) = (s.input_bytes + write_bytes, s.resources, s.links);
    let platform = Arc::clone(&s.platform);
    s.stop();

    // persist every served execution once, for the bytes-on-disk figure
    let dir = ctx.work.join("persisted");
    let store = ProvStore::open(&dir).expect("opening a store in the work directory");
    platform
        .attach_store(store, usize::MAX)
        .expect("attaching a store");
    let mut persisted = true;
    for id in platform.executions() {
        persisted &= platform.execution(id).persist().is_ok();
    }
    h.check(persisted, || {
        "persisting the served executions failed".into()
    });
    let store_bytes = inputs::dir_bytes(&dir);
    let extras = Extras {
        peak_rss_mb,
        store_bytes_per_input_byte: store_bytes as f64 / input_bytes.max(1) as f64,
        sizes: vec![
            ("input_bytes", input_bytes),
            ("resident_executions", EXECS as u64),
            ("resources_per_execution", resources / EXECS as u64),
            ("links_per_execution", links / EXECS as u64),
            ("subs_per_batch", (SUBS_PER_KIND * 7) as u64),
            ("executions", (EXECS + writes) as u64),
            ("reads", reads as u64),
        ],
        store_fs: Some(sys::fs_type(&dir)),
    };
    (h, extras)
}
