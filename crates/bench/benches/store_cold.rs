//! X15 — disk-backed store: resident vs cold-load query latency,
//! eviction throughput, and restart replay over the sharded store.
//!
//! Populates a store-attached [`weblab_platform::Platform`] with
//! [`X15_EXECS`] executions of the six-service pipeline, then drives the
//! same mixed query workload (`why`, `lineage`, `impacted-by`, `sparql`)
//! through `serve::handle_line` — the exact dispatch the daemon's workers
//! run — in three phases:
//!
//! * **resident** — every execution in memory; per-request latency lands
//!   in the `x15.resident_ns` histogram;
//! * **cold** — each execution is evicted (written through unless the
//!   store already holds its state, then dropped from the repository)
//!   and re-queried; the first request after eviction pays
//!   the cold load (one execution-file read + index restore) and is
//!   recorded in `x15.cold_ns`;
//! * **restart** — a fresh platform over the same store directory
//!   replays the whole suite, timing the full cold working-set rebuild
//!   from the execution files.
//!
//! Every cold and restarted response is asserted **byte-identical** to
//! its resident counterpart — same epoch, same rows, same order — which
//! is the store's headline contract. Results are written to
//! `BENCH_X15_store.json` at the repo root (the artifact
//! `scripts/ci.sh` validates).
//!
//! Under `cargo test` (`--test`) the harness runs scaled down as a
//! correctness smoke and skips the timing assertions and the snapshot
//! write. `X15_EXECS` / `X15_ROUNDS` override the load shape.

use criterion::{criterion_group, criterion_main, Criterion};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use weblab::json::Json;
use weblab::serve::handle_line;
use weblab_obs as obs;
use weblab_obs::Histogram;
use weblab_platform::{Mapper, Platform, ProvStore};
use weblab_rdf::vocab::PROV_NS;
use weblab_workflow::generator::generate_corpus;
use weblab_workflow::services::{
    self, EntityExtractor, KeywordExtractor, LanguageExtractor, Normaliser, Summariser, Tokeniser,
};
use weblab_workflow::Service;

const PIPELINE: [&str; 6] = [
    "Normaliser",
    "LanguageExtractor",
    "Tokeniser",
    "EntityExtractor",
    "KeywordExtractor",
    "Summariser",
];

/// Client-observed latency of one query against a resident execution, ns.
static X15_RESIDENT_NS: Histogram = Histogram::new("x15.resident_ns");
/// Latency of the first query after eviction — it pays the cold load, ns.
static X15_COLD_NS: Histogram = Histogram::new("x15.cold_ns");

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A platform with the pipeline registered and the store at `dir`
/// attached with room for the whole working set plus slack.
fn store_platform(dir: &Path, max_resident: usize) -> Platform {
    let rules = services::default_rules();
    let platform = Platform::new(Mapper::native());
    let builtins: Vec<Box<dyn Service>> = vec![
        Box::new(Normaliser),
        Box::new(LanguageExtractor),
        Box::new(Tokeniser),
        Box::new(EntityExtractor),
        Box::new(KeywordExtractor),
        Box::new(Summariser),
    ];
    for svc in builtins {
        let texts: Vec<String> = rules
            .rules_for(svc.name())
            .iter()
            .map(|r| r.to_string())
            .collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        platform.register_service(Arc::from(svc), &refs).unwrap();
    }
    platform
        .attach_store(ProvStore::open(dir).unwrap(), max_resident)
        .unwrap();
    platform
}

/// The mixed query suite for one execution, as protocol lines keyed off
/// its first provenance link.
fn exec_queries(platform: &Platform, id: &str) -> Vec<String> {
    let snap = platform.execution(id).snapshot().unwrap();
    let link = snap.graph.links.first().expect("execution produced links");
    let (from, to) = (link.from_uri.as_str(), link.to_uri.as_str());
    vec![
        Json::obj(vec![
            ("op", Json::str("why")),
            ("exec", Json::str(id)),
            ("uri", Json::str(from)),
        ])
        .to_string(),
        Json::obj(vec![
            ("op", Json::str("lineage")),
            ("exec", Json::str(id)),
            ("uri", Json::str(from)),
            ("depth", Json::num(3)),
        ])
        .to_string(),
        Json::obj(vec![
            ("op", Json::str("impacted-by")),
            ("exec", Json::str(id)),
            ("uri", Json::str(to)),
        ])
        .to_string(),
        Json::obj(vec![
            ("op", Json::str("sparql")),
            ("exec", Json::str(id)),
            (
                "query",
                Json::str(format!(
                    "PREFIX prov: <{PROV_NS}> \
                     SELECT ?d ?s WHERE {{ ?d prov:wasDerivedFrom ?s . }}"
                )),
            ),
        ])
        .to_string(),
    ]
}

/// Dispatch one line and assert it answered (`ok:true`).
fn serve_ok(platform: &Platform, line: &str) -> String {
    let (response, stop) = handle_line(platform, line);
    assert!(!stop);
    let parsed = Json::parse(&response).expect("response is JSON");
    assert_eq!(
        parsed.get("ok").and_then(Json::as_bool),
        Some(true),
        "query failed: {response}"
    );
    response
}

fn quantiles(name: &str) -> (u64, u64) {
    let snap = obs::snapshot();
    let h = snap.histogram(name).cloned().unwrap_or_default();
    (h.quantile(0.50), h.quantile(0.99))
}

fn bench_x15(_c: &mut Criterion) {
    let test_mode = std::env::args().any(|a| a == "--test");
    let execs = env_usize("X15_EXECS", if test_mode { 3 } else { 16 });
    let rounds = env_usize("X15_ROUNDS", if test_mode { 1 } else { 4 });

    obs::enable();
    let dir = std::env::temp_dir().join(format!("weblab-x15-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let platform = store_platform(&dir, execs + 1);
    let ids: Vec<String> = (0..execs).map(|i| format!("x15/e{i}")).collect();
    for id in &ids {
        let exec = platform.execution(id);
        exec.ingest(generate_corpus(4, 2, 20));
        exec.execute(&PIPELINE).unwrap();
    }
    let suites: Vec<Vec<String>> = ids.iter().map(|id| exec_queries(&platform, id)).collect();

    let before = obs::snapshot();

    // resident phase: everything in memory, `rounds` passes over the suite
    let mut expected: Vec<Vec<String>> = vec![Vec::new(); ids.len()];
    for round in 0..rounds {
        for (i, suite) in suites.iter().enumerate() {
            for line in suite {
                let t0 = Instant::now();
                let response = serve_ok(&platform, line);
                X15_RESIDENT_NS.record(t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
                if round == 0 {
                    expected[i].push(response);
                }
            }
        }
    }

    // cold phase: evict every execution each round, then re-query; the
    // first request after eviction pays the cold load
    let mut byte_identical = true;
    let mut evict_ns = 0u64;
    let mut cold_loads_timed = 0u64;
    for _ in 0..rounds {
        for (i, id) in ids.iter().enumerate() {
            let t0 = Instant::now();
            assert!(
                platform.execution(id).evict().unwrap(),
                "{id} was not resident at eviction time"
            );
            evict_ns += t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            for (k, line) in suites[i].iter().enumerate() {
                let t0 = Instant::now();
                let response = serve_ok(&platform, line);
                if k == 0 {
                    X15_COLD_NS
                        .record(t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
                    cold_loads_timed += 1;
                }
                byte_identical &= response == expected[i][k];
            }
        }
    }
    assert!(byte_identical, "cold-loaded responses diverged from resident bytes");

    drop(platform);

    // restart phase: a fresh platform over the same directory replays the
    // whole suite — every execution cold-loads from its execution file
    let restarted = store_platform(&dir, execs + 1);
    let t0 = Instant::now();
    let mut restart_queries = 0u64;
    for (i, suite) in suites.iter().enumerate() {
        for (k, line) in suite.iter().enumerate() {
            let response = serve_ok(&restarted, line);
            assert_eq!(
                response, expected[i][k],
                "restart changed served bytes for {}",
                ids[i]
            );
            restart_queries += 1;
        }
    }
    let restart_ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;

    let delta = obs::snapshot().since(&before);
    let evictions = delta.counter("store.evictions");
    let cold_loads = delta.counter("store.cold_loads");
    let snapshots = delta.counter("store.snapshots");
    assert!(evictions >= (execs * rounds) as u64, "too few evictions recorded");
    assert!(
        cold_loads >= cold_loads_timed + execs as u64,
        "cold loads must cover every eviction plus the restart replay"
    );

    let (resident_p50, resident_p99) = quantiles("x15.resident_ns");
    let (cold_p50, cold_p99) = quantiles("x15.cold_ns");
    let evict_rate = evictions as f64 / (evict_ns.max(1) as f64 / 1e9);
    let ratio = cold_p50 as f64 / resident_p50.max(1) as f64;
    println!(
        "x15_store/resident: p50 {:.1} us, p99 {:.1} us over {} queries",
        resident_p50 as f64 / 1e3,
        resident_p99 as f64 / 1e3,
        (execs * rounds * 4)
    );
    println!(
        "x15_store/cold:     p50 {:.1} us, p99 {:.1} us over {cold_loads_timed} loads ({ratio:.1}x resident)",
        cold_p50 as f64 / 1e3,
        cold_p99 as f64 / 1e3,
    );
    println!(
        "x15_store/evict: {evictions} evictions ({evict_rate:.0}/s, {snapshots} execution files written); \
         restart replayed {restart_queries} queries in {:.1} ms over {execs} executions",
        restart_ns as f64 / 1e6
    );

    let _ = std::fs::remove_dir_all(&dir);
    if test_mode {
        obs::disable();
        return; // scaled-down smoke: skip timing assertions + snapshot
    }
    assert!(
        ratio >= 1.0,
        "a cold load must not be cheaper than a resident lookup, got {ratio:.2}x"
    );

    let snapshot = format!(
        "{{\n  \"experiment\": \"X15\",\n  \"executions\": {execs},\n  \"rounds\": {rounds},\n  \
           \"byte_identical\": true,\n  \
           \"resident\": {{\"queries\": {}, \"p50_ns\": {resident_p50}, \"p99_ns\": {resident_p99}}},\n  \
           \"cold\": {{\"loads\": {cold_loads_timed}, \"p50_ns\": {cold_p50}, \"p99_ns\": {cold_p99}, \
           \"over_resident\": {ratio:.1}}},\n  \
           \"evict\": {{\"count\": {evictions}, \"wall_ns\": {evict_ns}, \"per_sec\": {evict_rate:.0}}},\n  \
           \"restart\": {{\"queries\": {restart_queries}, \"wall_ns\": {restart_ns}}},\n  \
           \"counters\": {{\"cold_loads\": {cold_loads}, \"evictions\": {evictions}, \
           \"snapshots\": {snapshots}}}\n}}\n",
        (execs * rounds * 4)
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_X15_store.json");
    std::fs::write(path, snapshot).expect("write BENCH_X15_store.json");
    println!("x15_store/snapshot written to {path}");
    obs::disable();
}

criterion_group!(benches, bench_x15);
criterion_main!(benches);
