//! Differential tests for the disk-backed provenance store: an execution
//! that was written through to disk, evicted and cold-loaded must answer
//! every provenance query **byte-identically** to the resident path — the
//! same epoch in the response envelope, the same graph rows in the same
//! order — at every mapper worker count, in batch and live mode alike.
//! Protocol lines go through `serve::handle_line`, the exact dispatch the
//! daemon's workers run, so the comparison covers the full render path.
//!
//! A second group kills the integrity footer of each on-disk file kind
//! (segment, delta, snapshot) and asserts the corruption is *detected* —
//! a `store` error response — never silently served. A third puts back
//! the state a crash between a save's log write and its snapshot write
//! leaves (the log one run ahead of the newest snapshot) and holds the
//! served answers to a fresh inference over the stored document and trace.

mod support;

use std::path::{Path, PathBuf};
use std::sync::Arc;

use support::edgewalk;
use weblab::json::Json;
use weblab::platform::{Mapper, Platform, ProvQuery, ProvStore, QueryOpts, RankDirection};
use weblab::prov::{infer_provenance, EngineOptions, EpochSnapshot, Parallelism, ReachabilityIndex};
use weblab::rdf::vocab::PROV_NS;
use weblab::serve::{handle_line, reference_response};
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

/// Store files of one kind under a store root (by suffix discipline:
/// `.seg-N`, `.delta`, `.snap-N`).
fn files_matching(root: &Path, pred: impl Fn(&str) -> bool) -> Vec<PathBuf> {
    let mut found = Vec::new();
    for shard in std::fs::read_dir(root).unwrap().flatten() {
        if !shard.path().is_dir() {
            continue;
        }
        for f in std::fs::read_dir(shard.path()).unwrap().flatten() {
            let name = f.file_name().to_string_lossy().into_owned();
            if pred(&name) {
                found.push(f.path());
            }
        }
    }
    found
}

/// Kill a file's integrity footer — the simulated torn write.
fn truncate_tail(path: &Path) {
    let text = std::fs::read_to_string(path).unwrap();
    let cut = text.rfind("# end").expect("file has an integrity footer");
    std::fs::write(path, &text[..cut]).unwrap();
}

#[test]
fn killed_footers_are_detected_not_served() {
    // one scenario per on-disk file kind with a footer
    type KindPred = fn(&str) -> bool;
    let kinds: [(&str, KindPred); 3] = [
        ("delta", |n| n.ends_with(".delta")),
        ("segment", |n| n.contains(".seg-")),
        ("snapshot", |n| n.contains(".snap-")),
    ];
    for (kind, pred) in kinds {
        let dir = tmpstore(&format!("trunc-{kind}"));
        let platform = store_platform(Parallelism::Threads(1));
        platform.attach_store(ProvStore::open(&dir).unwrap(), 8).unwrap();
        let exec = platform.execution("e");
        exec.ingest(generate_corpus(2, 1, 20));
        exec.execute(&["Normaliser"]).unwrap();
        if kind == "segment" {
            // segments only exist after compaction seals the delta
            platform.store().unwrap().compact("e").unwrap();
        }
        assert!(exec.evict().unwrap());

        let store_root = platform.store().unwrap().root().to_path_buf();
        let files = files_matching(&store_root, pred);
        assert!(!files.is_empty(), "no {kind} file produced");
        truncate_tail(&files[0]);

        let why = ProvQuery::Why { uri: "r0".into() };
        let (response, _) = handle_line(&platform, &query_request("e", &why));
        let parsed = Json::parse(&response).unwrap();
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            parsed.get("code").and_then(Json::as_str),
            Some("store"),
            "{kind}: truncation must surface as a store error, got {response}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_snapshot_left_stale_by_a_crash_answers_like_a_fresh_inference() {
    for live in [false, true] {
        let dir = tmpstore(&format!("stale-{live}"));
        let platform = store_platform(Parallelism::Threads(1));
        platform.attach_store(ProvStore::open(&dir).unwrap(), 8).unwrap();
        let store = platform.store().unwrap();
        let exec = platform.execution("e");
        exec.ingest(generate_corpus(3, 2, 25));
        if live {
            exec.enable_live();
        }
        let is_snapshot = |n: &str| n.contains(".snap-");
        exec.execute(&PIPELINE[..3]).unwrap();
        let [first] = files_matching(store.root(), is_snapshot).try_into().unwrap();
        let kept = std::fs::read(&first).unwrap();
        exec.execute(&PIPELINE[3..]).unwrap();
        assert!(exec.evict().unwrap());

        // the crash: the second run's log rows reached disk, its snapshot
        // did not, and the first run's snapshot was never removed
        for snap in files_matching(store.root(), is_snapshot) {
            std::fs::remove_file(snap).unwrap();
        }
        std::fs::write(&first, kept).unwrap();

        let stored = store.load("e").unwrap().expect("stored");
        assert!(stored.snapshot.is_none(), "the kept snapshot covers only the first run");
        let rules = services::default_rules();
        let graph = infer_provenance(&stored.doc, &stored.trace, &rules, &EngineOptions::default());
        let reference = EpochSnapshot {
            epoch: 1,
            calls: stored.trace.len(),
            index: ReachabilityIndex::from_graph(&graph),
            graph,
        };
        assert!(!reference.graph.links.is_empty());
        for l in reference.graph.links.iter().take(8) {
            for q in [
                ProvQuery::Why { uri: l.from_uri.clone() },
                ProvQuery::Lineage { uri: l.from_uri.clone(), depth: 3 },
                ProvQuery::ImpactedBy { uri: l.to_uri.clone() },
            ] {
                let (served, _) = handle_line(&platform, &query_request("e", &q));
                assert_eq!(
                    served,
                    reference_response(&reference, &q).unwrap(),
                    "live {live}: {q:?}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
