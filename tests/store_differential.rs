//! Differential tests for the disk-backed provenance store: an execution
//! that was written through to disk, evicted and cold-loaded must answer
//! every provenance query **byte-identically** to the resident path — the
//! same epoch in the response envelope, the same graph rows in the same
//! order — at every mapper worker count, in batch and live mode alike.
//! Protocol lines go through `serve::handle_line`, the exact dispatch the
//! daemon's workers run, so the comparison covers the full render path.
//!
//! A second group damages the one execution file — a killed footer, a
//! flipped byte in a `uri:` row, a call row or the document, a cut at any
//! line — and asserts the damage is *detected* (a `store` error
//! response), never silently served.

mod support;

use std::path::{Path, PathBuf};
use std::sync::Arc;

use support::edgewalk;
use weblab::json::Json;
use weblab::platform::{Mapper, Platform, ProvQuery, ProvStore, QueryOpts, RankDirection};
use weblab::prov::Parallelism;
use weblab::rdf::vocab::PROV_NS;
use weblab::serve::handle_line;
use weblab::workflow::generator::generate_corpus;
use weblab::workflow::services::{
    self, EntityExtractor, KeywordExtractor, LanguageExtractor, Normaliser, Summariser, Tokeniser,
};
use weblab::workflow::Service;

const PIPELINE: [&str; 6] = [
    "Normaliser",
    "LanguageExtractor",
    "Tokeniser",
    "EntityExtractor",
    "KeywordExtractor",
    "Summariser",
];

const WORKER_SWEEP: [Parallelism; 3] = [
    Parallelism::Threads(1),
    Parallelism::Threads(2),
    Parallelism::Threads(4),
];

fn tmpstore(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "weblab-store-diff-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A platform with the pipeline's services registered under their default
/// rules, inference at `jobs` worker threads — the serve registration path.
fn store_platform(jobs: Parallelism) -> Platform {
    let rules = services::default_rules();
    let platform = Platform::new(Mapper::native().with_parallelism(jobs));
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
}

/// The operand fields of a [`ProvQuery`] as request members.
fn query_fields(q: &ProvQuery) -> Vec<(&'static str, Json)> {
    match q {
        ProvQuery::Why { uri } | ProvQuery::ImpactedBy { uri } => {
            vec![("uri", Json::str(uri.as_str()))]
        }
        ProvQuery::Lineage { uri, depth } => vec![
            ("uri", Json::str(uri.as_str())),
            ("depth", Json::num(*depth as u64)),
        ],
        ProvQuery::CommonOrigins { a, b } => {
            vec![("a", Json::str(a.as_str())), ("b", Json::str(b.as_str()))]
        }
        ProvQuery::Sparql { query } => vec![("query", Json::str(query.as_str()))],
        ProvQuery::Rank { uris, direction, opts, weights } => {
            let mut pairs = vec![
                (
                    "uris",
                    Json::Arr(uris.iter().map(|u| Json::str(u.as_str())).collect()),
                ),
                ("direction", Json::str(direction.as_str())),
            ];
            if opts.limit != 0 {
                pairs.push(("limit", Json::num(opts.limit as u64)));
            }
            if opts.budget != 0 {
                pairs.push(("budget", Json::num(opts.budget as u64)));
            }
            if opts.decay_micro != 0 {
                pairs.push(("decay", Json::Num(f64::from(opts.decay_micro) / 1e6)));
            }
            if !weights.is_empty() {
                pairs.push((
                    "weights",
                    Json::Obj(
                        weights
                            .iter()
                            .map(|(s, w)| (s.clone(), Json::Num(f64::from(*w) / 1e6)))
                            .collect(),
                    ),
                ));
            }
            pairs
        }
        ProvQuery::Summary { uri } => match uri {
            Some(u) => vec![("uri", Json::str(u.as_str()))],
            None => vec![],
        },
    }
}

fn query_request(exec: &str, q: &ProvQuery) -> String {
    let mut pairs = vec![("op", Json::str(q.op())), ("exec", Json::str(exec))];
    pairs.extend(query_fields(q));
    Json::obj(pairs).to_string()
}

fn batch_request(exec: &str, queries: &[ProvQuery]) -> String {
    let subs: Vec<Json> = queries
        .iter()
        .map(|q| {
            let mut pairs = vec![("op", Json::str(q.op()))];
            pairs.extend(query_fields(q));
            Json::obj(pairs)
        })
        .collect();
    Json::obj(vec![
        ("op", Json::str("batch")),
        ("exec", Json::str(exec)),
        ("requests", Json::Arr(subs)),
    ])
    .to_string()
}

/// Every query op over the first links of a snapshot, plus one SPARQL.
fn query_suite(platform: &Platform, exec: &str) -> Vec<ProvQuery> {
    let snap = platform.execution(exec).snapshot().unwrap();
    let mut queries = vec![ProvQuery::Sparql {
        query: format!(
            "PREFIX prov: <{PROV_NS}> SELECT ?d ?s WHERE {{ ?d prov:wasDerivedFrom ?s . }}"
        ),
    }];
    for l in snap.graph.links.iter().take(8) {
        queries.push(ProvQuery::Why { uri: l.from_uri.clone() });
        queries.push(ProvQuery::Lineage { uri: l.from_uri.clone(), depth: 3 });
        queries.push(ProvQuery::ImpactedBy { uri: l.to_uri.clone() });
        queries.push(ProvQuery::CommonOrigins { a: l.from_uri.clone(), b: l.to_uri.clone() });
        queries.push(ProvQuery::Rank {
            uris: vec![l.to_uri.clone()],
            direction: RankDirection::Up,
            opts: QueryOpts { limit: 8, budget: 12, decay_micro: 250_000 },
            weights: Vec::new(),
        });
    }
    queries.push(ProvQuery::Summary { uri: None });
    queries
}

/// Serve the whole suite (singles + one batch) and return the raw lines.
fn serve_suite(platform: &Platform, exec: &str, queries: &[ProvQuery]) -> Vec<String> {
    let mut responses = Vec::new();
    for q in queries {
        let (response, stop) = handle_line(platform, &query_request(exec, q));
        assert!(!stop);
        responses.push(response);
    }
    let (batch, stop) = handle_line(platform, &batch_request(exec, queries));
    assert!(!stop);
    responses.push(batch);
    responses
}

#[test]
fn cold_loaded_answers_are_byte_identical_at_every_worker_count() {
    for (i, jobs) in WORKER_SWEEP.into_iter().enumerate() {
        for live in [false, true] {
            let dir = tmpstore(&format!("sweep-{i}-{live}"));
            let platform = store_platform(jobs);
            platform.attach_store(ProvStore::open(&dir).unwrap(), 8).unwrap();
            let exec = platform.execution("e");
            exec.ingest(generate_corpus(3, 2, 25));
            if live {
                exec.enable_live();
            }
            exec.execute(&PIPELINE).unwrap();

            let queries = query_suite(&platform, "e");
            assert!(queries.len() > 1, "suite needs links to query");
            let resident = serve_suite(&platform, "e", &queries);
            // the resident responses themselves match the oracle render
            let snap = platform.execution("e").snapshot().unwrap();
            for (q, served) in queries.iter().zip(&resident) {
                assert_eq!(served, &edgewalk::response(&snap, q));
            }

            assert!(platform.execution("e").evict().unwrap());
            assert!(!platform.execution("e").is_resident());
            let cold = serve_suite(&platform, "e", &queries);
            assert_eq!(
                resident, cold,
                "cold-loaded responses diverged (jobs {i}, live {live})"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn a_restarted_platform_serves_the_same_bytes() {
    let dir = tmpstore("restart");
    let queries;
    let resident;
    {
        let platform = store_platform(Parallelism::Threads(2));
        platform.attach_store(ProvStore::open(&dir).unwrap(), 8).unwrap();
        let exec = platform.execution("exec/pr-8");
        exec.ingest(generate_corpus(4, 2, 30));
        exec.execute(&PIPELINE).unwrap();
        queries = query_suite(&platform, "exec/pr-8");
        resident = serve_suite(&platform, "exec/pr-8", &queries);
    }
    // fresh process state: a new platform over the same directory
    let platform = store_platform(Parallelism::Threads(2));
    platform.attach_store(ProvStore::open(&dir).unwrap(), 8).unwrap();
    let cold = serve_suite(&platform, "exec/pr-8", &queries);
    assert_eq!(resident, cold, "restart changed served bytes");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eviction_pressure_keeps_every_execution_answerable() {
    let dir = tmpstore("pressure");
    let platform = store_platform(Parallelism::Threads(2));
    platform.attach_store(ProvStore::open(&dir).unwrap(), 2).unwrap();
    let ids = ["a", "b", "c", "d", "e"];
    let mut expected = Vec::new();
    for id in ids {
        let exec = platform.execution(id);
        exec.ingest(generate_corpus(2, 1, 20));
        exec.execute(&["Normaliser", "LanguageExtractor"]).unwrap();
        let snap = exec.snapshot().unwrap();
        let why = ProvQuery::Why { uri: snap.graph.links[0].from_uri.clone() };
        let (served, _) = handle_line(&platform, &query_request(id, &why));
        expected.push((id, why, served));
    }
    // with max_resident = 2, most of the five executions are now on disk
    let resident: Vec<String> = ids
        .iter()
        .filter(|id| platform.execution(**id).is_resident())
        .map(|id| id.to_string())
        .collect();
    assert!(resident.len() <= 2, "LRU failed to bound residency: {resident:?}");
    // every execution — resident or evicted — still serves its exact bytes
    for (id, why, served) in &expected {
        let (again, _) = handle_line(&platform, &query_request(id, why));
        assert_eq!(&again, served, "execution {id} changed answers");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The execution files under a store root.
fn exec_files(root: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    for shard in std::fs::read_dir(root).unwrap().flatten() {
        if !shard.path().is_dir() {
            continue;
        }
        for f in std::fs::read_dir(shard.path()).unwrap().flatten() {
            if f.file_name().to_string_lossy().ends_with(".exec") {
                found.push(f.path());
            }
        }
    }
    found
}

/// A platform whose one execution `e` ran `steps` and was evicted, with
/// the path of its execution file.
fn evicted(name: &str, steps: &[&str]) -> (Platform, PathBuf, PathBuf) {
    let dir = tmpstore(name);
    let platform = store_platform(Parallelism::Threads(1));
    platform.attach_store(ProvStore::open(&dir).unwrap(), 8).unwrap();
    let exec = platform.execution("e");
    exec.ingest(generate_corpus(2, 1, 20));
    exec.execute(steps).unwrap();
    assert!(exec.evict().unwrap());
    let [file] = exec_files(&dir).try_into().expect("one execution file");
    (platform, dir, file)
}

/// The answer to a `why` on `e` must be the `store` error.
fn assert_store_error(platform: &Platform, what: &str) {
    let why = ProvQuery::Why { uri: "r0".into() };
    let (response, _) = handle_line(platform, &query_request("e", &why));
    let parsed = Json::parse(&response).unwrap();
    assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(false), "{what}: {response}");
    assert_eq!(
        parsed.get("code").and_then(Json::as_str),
        Some("store"),
        "{what}: damage must surface as a store error, got {response}"
    );
    assert!(!platform.execution("e").is_resident(), "{what}: loaded from a damaged file");
}

#[test]
fn killed_footers_are_detected_not_served() {
    let (platform, dir, file) = evicted("trunc", &["Normaliser"]);
    let text = std::fs::read_to_string(&file).unwrap();
    let cut = text.rfind("# end").expect("file has an integrity footer");
    std::fs::write(&file, &text[..cut]).unwrap();
    assert_store_error(&platform, "killed footer");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_bytes_and_cuts_at_any_line_are_detected_not_served() {
    let (platform, dir, file) = evicted("damage", &PIPELINE[..2]);
    let full = std::fs::read(&file).unwrap();
    let text = String::from_utf8(full.clone()).unwrap();
    // one byte changed, same length, in a uri: row, a call row and the
    // document text
    for (what, row) in [("uri row", "\nuri: "), ("call row", "\ncall: "), ("document", "\n<")] {
        let at = text.find(row).unwrap_or_else(|| panic!("no {what}")) + row.len() + 2;
        let mut bytes = full.clone();
        bytes[at] = if bytes[at] == b'x' { b'y' } else { b'x' };
        std::fs::write(&file, bytes).unwrap();
        assert_store_error(&platform, what);
    }
    let boundaries = full.iter().enumerate().filter(|(_, &b)| b == b'\n').map(|(i, _)| i + 1);
    for end in boundaries.filter(|&end| end < full.len()) {
        std::fs::write(&file, &full[..end]).unwrap();
        assert_store_error(&platform, &format!("cut at byte {end}"));
    }
    std::fs::write(&file, &full).unwrap();
    let why = ProvQuery::Why { uri: "r0".into() };
    let (response, _) = handle_line(&platform, &query_request("e", &why));
    assert!(platform.execution("e").is_resident(), "the intact file loads: {response}");
    let _ = std::fs::remove_dir_all(&dir);
}
