//! The serve layer writes responses straight into its output buffer,
//! without building a `Json` tree. These tests pin those bytes to the tree
//! renderer the writer replaced (`support::render_answer`, `success_json`
//! and `error_json`, serialised by the independent `support::to_wire`):
//! every `QueryAnswer` kind, with strings that need every escape, and
//! single and batch replies with and without ids, error subs included.
//! Because served and `reference_response` bytes share the writer, the
//! serve differentials alone could not catch a writer bug; this suite can.

mod support;

use std::collections::BTreeMap;

use proptest::prelude::*;
use weblab::error::WebLabError;
use weblab::json::Json;
use weblab::platform::{ExecutionHandle, ProvQuery, QueryAnswer, QueryOpts, RankDirection};
use weblab::prov::WhyProvenance;
use weblab::prov::{
    BlastRadius, EpochSnapshot, GraphSummary, OriginCluster, ProvLink, RankedEntry,
    ServiceInfluence,
};
use weblab::rdf::Term;
use weblab::serve::{handle_line, handle_line_with, render_response, DEFAULT_MAX_ROWS};
use weblab::workflow::generator::generate_corpus;
use weblab::xml::{CallLabel, Document};

use support::{error_json, render_answer, serve_platform, success_json, to_wire, AnyJson};

const PIPELINE: [&str; 4] = [
    "Normaliser",
    "LanguageExtractor",
    "Tokeniser",
    "EntityExtractor",
];

/// Strings needing every escape the writer knows: quotes, backslashes,
/// newlines and the other control characters, and non-ASCII text.
const HOSTILE: [&str; 6] = [
    "weblab://src/0",
    "quote\"d",
    "back\\slash/",
    "new\nline\r\ttab",
    "ctrl\u{0}\u{1}\u{8}\u{c}\u{1f}\u{7f}",
    "ünïcødé — 🎉 \u{2028}",
];

fn hostile(i: usize) -> String {
    HOSTILE[i % HOSTILE.len()].to_string()
}

/// One answer of every kind, built by hand around [`HOSTILE`] strings and
/// counts on both sides of 2^53.
fn hostile_answers() -> Vec<QueryAnswer> {
    let node = Document::new("Resource").root();
    let big = [0, 1, 42, (1 << 53) - 1, 1 << 53, u64::MAX];
    let why = WhyProvenance {
        root: hostile(1),
        resources: HOSTILE.iter().map(|s| s.to_string()).collect(),
        links: (0..HOSTILE.len())
            .map(|i| ProvLink {
                from: node,
                from_uri: hostile(i),
                to: node,
                to_uri: hostile(i + 1),
            })
            .collect(),
        calls: vec![
            CallLabel::new("Normaliser", 1),
            CallLabel::new(hostile(3), u64::MAX),
        ],
    };
    let solutions = (0..HOSTILE.len())
        .map(|i| {
            BTreeMap::from([
                (format!("s{}", hostile(i)), Term::iri(hostile(i))),
                ("lit".to_string(), Term::lit(hostile(i + 1))),
                (
                    "typed".to_string(),
                    Term::typed(hostile(i + 2), hostile(i + 3)),
                ),
                ("n".to_string(), Term::int(-(i as i64))),
                ("b".to_string(), Term::Blank(hostile(i + 4))),
            ])
        })
        .collect();
    let summary = |blast| {
        QueryAnswer::Summary(GraphSummary {
            resources: big[5],
            edges: big[4],
            services: (0..HOSTILE.len())
                .map(|i| ServiceInfluence {
                    service: hostile(i),
                    resources: big[i],
                    influence: big[(i + 1) % big.len()],
                    origins: big[(i + 2) % big.len()],
                })
                .collect(),
            clusters: (0..HOSTILE.len())
                .map(|i| OriginCluster {
                    root: hostile(i),
                    size: big[i],
                })
                .collect(),
            blast,
        })
    };
    vec![
        QueryAnswer::Why(why),
        QueryAnswer::Why(WhyProvenance {
            root: hostile(0),
            resources: Default::default(),
            links: Vec::new(),
            calls: Vec::new(),
        }),
        QueryAnswer::Lineage((0..HOSTILE.len()).map(|i| (hostile(i), i * 1000)).collect()),
        QueryAnswer::ImpactedBy(HOSTILE.iter().map(|s| s.to_string()).collect()),
        QueryAnswer::ImpactedBy(Vec::new()),
        QueryAnswer::CommonOrigins(HOSTILE.iter().rev().map(|s| s.to_string()).collect()),
        QueryAnswer::Solutions(solutions),
        QueryAnswer::Solutions(vec![BTreeMap::new()]),
        QueryAnswer::Ranked(
            (0..HOSTILE.len())
                .map(|i| RankedEntry {
                    uri: hostile(i),
                    score_micro: big[i],
                    hop: i,
                })
                .collect(),
        ),
        summary(None),
        summary(Some(BlastRadius {
            uri: hostile(2),
            impacted: big[3],
            origins: big[4],
        })),
    ]
}

/// The oracle's bytes for a success reply carrying `answer`.
fn oracle_response(epoch: u64, answer: &QueryAnswer, id: Option<&Json>) -> String {
    to_wire(&success_json(Some(epoch), render_answer(answer), id))
}

#[test]
fn render_response_matches_the_tree_oracle_for_every_answer_kind() {
    for answer in hostile_answers() {
        for epoch in [0, 7, 1 << 53, u64::MAX] {
            assert_eq!(
                render_response(epoch, &answer),
                oracle_response(epoch, &answer, None),
                "{answer:?} at epoch {epoch}"
            );
        }
    }
}

/// A platform with one executed execution, its pinned snapshot, and a
/// query of every kind over resources that exist in it.
fn executed(exec_id: &str) -> (std::sync::Arc<weblab::platform::Platform>, Vec<ProvQuery>) {
    let platform = serve_platform();
    let exec = platform.execution(exec_id);
    exec.ingest(generate_corpus(11, 3, 8));
    exec.execute(&PIPELINE).unwrap();
    let snap = exec.snapshot().unwrap();
    let uris: Vec<String> = snap.graph.sources.iter().map(|s| s.uri.clone()).collect();
    assert!(uris.len() >= 4, "corpus produced too few resources");
    let queries = vec![
        ProvQuery::Why {
            uri: uris[3].clone(),
        },
        ProvQuery::Lineage {
            uri: uris[3].clone(),
            depth: 3,
        },
        ProvQuery::ImpactedBy {
            uri: uris[0].clone(),
        },
        ProvQuery::CommonOrigins {
            a: uris[2].clone(),
            b: uris[3].clone(),
        },
        ProvQuery::Sparql {
            query: "SELECT ?s ?p ?o WHERE { ?s ?p ?o . }".to_string(),
        },
        ProvQuery::Rank {
            uris: vec![uris[0].clone(), uris[1].clone()],
            direction: RankDirection::Up,
            opts: QueryOpts {
                limit: 5,
                ..QueryOpts::default()
            },
            weights: Vec::new(),
        },
        ProvQuery::Summary { uri: None },
        ProvQuery::Summary {
            uri: Some(uris[0].clone()),
        },
    ];
    drop(exec);
    (platform, queries)
}

/// `q` as request members (without `op` and `exec`).
fn query_fields(q: &ProvQuery) -> Vec<(&'static str, Json)> {
    match q {
        ProvQuery::Why { uri } | ProvQuery::ImpactedBy { uri } => vec![("uri", Json::str(uri))],
        ProvQuery::Lineage { uri, depth } => {
            vec![("uri", Json::str(uri)), ("depth", Json::num(*depth as u64))]
        }
        ProvQuery::CommonOrigins { a, b } => vec![("a", Json::str(a)), ("b", Json::str(b))],
        ProvQuery::Sparql { query } => vec![("query", Json::str(query))],
        ProvQuery::Rank { uris, opts, .. } => vec![
            ("uris", Json::Arr(uris.iter().map(Json::str).collect())),
            ("limit", Json::num(opts.limit as u64)),
        ],
        ProvQuery::Summary { uri } => uri.iter().map(|u| ("uri", Json::str(u))).collect(),
    }
}

fn request(id: Option<&Json>, op: &str, exec: Option<&str>, q: Option<&ProvQuery>) -> Json {
    let mut pairs = Vec::new();
    if let Some(id) = id {
        pairs.push(("id", id.clone()));
    }
    pairs.push(("op", Json::str(op)));
    if let Some(exec) = exec {
        pairs.push(("exec", Json::str(exec)));
    }
    pairs.extend(q.map(query_fields).unwrap_or_default());
    Json::obj(pairs)
}

/// What the dispatcher does with an answer: the same row cap, as the
/// oracle's outcome.
fn capped(answer: QueryAnswer, max_rows: usize) -> Result<QueryAnswer, WebLabError> {
    let rows = match &answer {
        QueryAnswer::Solutions(s) => s.len(),
        QueryAnswer::Ranked(r) => r.len(),
        QueryAnswer::Summary(s) => s.services.len().max(s.clusters.len()),
        _ => 0,
    };
    if rows > max_rows {
        return Err(WebLabError::ResultLimit {
            rows,
            max: max_rows,
        });
    }
    Ok(answer)
}

fn oracle_outcome(
    exec: &ExecutionHandle<'_>,
    snap: &std::sync::Arc<EpochSnapshot>,
    q: &ProvQuery,
    max_rows: usize,
) -> Result<QueryAnswer, WebLabError> {
    exec.query_on(snap, q)
        .map_err(WebLabError::from)
        .and_then(|a| capped(a, max_rows))
}

fn ids() -> Vec<Option<Json>> {
    vec![
        None,
        Some(Json::num(3)),
        Some(Json::Num(-2.5)),
        Some(Json::str("q\"1\\\n")),
        Some(Json::parse(r#"{"k":[1,2.5e-3,null,true,"é"]}"#).unwrap()),
    ]
}

#[test]
fn single_replies_match_the_oracle_envelope() {
    let (platform, queries) = executed("single");
    let exec = platform.execution("single");
    let snap = exec.snapshot().unwrap();
    for max_rows in [DEFAULT_MAX_ROWS, 1] {
        for q in &queries {
            for id in ids() {
                let line = request(id.as_ref(), q.op(), Some("single"), Some(q)).to_string();
                let (served, stop) = handle_line_with(&platform, &line, max_rows);
                assert!(!stop);
                let want = match oracle_outcome(&exec, &snap, q, max_rows) {
                    Ok(answer) => oracle_response(snap.epoch, &answer, id.as_ref()),
                    Err(e) => to_wire(&error_json(&e, id.as_ref(), None)),
                };
                assert_eq!(served, want, "{line} at max_rows {max_rows}");
                if let Ok(answer) = exec.query_on(&snap, q) {
                    assert_eq!(
                        render_response(snap.epoch, &answer),
                        oracle_response(snap.epoch, &answer, None)
                    );
                }
            }
        }
    }

    // replies without an answer: a small result value, and errors with
    // and without a parsed id
    let id = Json::parse(r#"[1,"x"]"#).unwrap();
    let (served, _) = handle_line(&platform, r#"{"id":[1,"x"],"op":"status"}"#);
    let status = Json::obj(vec![(
        "executions",
        Json::Arr(vec![Json::obj(vec![
            ("id", Json::str("single")),
            ("live", Json::Bool(false)),
            ("resident", Json::Bool(true)),
        ])]),
    )]);
    assert_eq!(served, to_wire(&success_json(None, status, Some(&id))));
    let (served, _) = handle_line(&platform, r#"{"id":[1,"x"],"op":"transmogrify"}"#);
    let unknown = WebLabError::Protocol("unknown op \"transmogrify\"".into());
    assert_eq!(served, to_wire(&error_json(&unknown, Some(&id), None)));
    for bad in [
        "not json",
        r#"{"id":1e999,"op":"status"}"#,
        "{\"id\":\"\u{1}\"\t",
    ] {
        let (served, _) = handle_line(&platform, bad);
        let e = WebLabError::Protocol(Json::parse(bad).unwrap_err().to_string());
        assert_eq!(served, to_wire(&error_json(&e, None, None)), "{bad}");
    }
}

#[test]
fn batch_replies_match_the_oracle_envelope() {
    let (platform, queries) = executed("batch");
    let exec = platform.execution("batch");
    let snap = exec.snapshot().unwrap();
    let sparql_error = ProvQuery::Sparql {
        query: "SELEKT nonsense".into(),
    };
    for max_rows in [DEFAULT_MAX_ROWS, 1] {
        // every query kind under assorted ids, then the failing subs
        let mut subs = Vec::new();
        let mut want = Vec::new();
        for (i, q) in queries.iter().chain([&sparql_error]).enumerate() {
            let id = ids()[i % ids().len()].clone();
            subs.push(request(id.as_ref(), q.op(), None, Some(q)));
            want.push(match oracle_outcome(&exec, &snap, q, max_rows) {
                Ok(answer) => success_json(Some(snap.epoch), render_answer(&answer), id.as_ref()),
                Err(e) => error_json(&e, id.as_ref(), Some(snap.epoch)),
            });
        }
        let failing = [
            (
                request(None, "why", None, None),
                WebLabError::Protocol("missing string field \"uri\"".into()),
            ),
            (
                request(
                    Some(&Json::num(9)),
                    "why",
                    Some("someone-else"),
                    Some(&queries[0]),
                ),
                WebLabError::Protocol(
                    "sub-request exec \"someone-else\" differs from the batch's \"batch\"".into(),
                ),
            ),
            (
                request(Some(&Json::str("s")), "shutdown", None, None),
                WebLabError::Protocol("op \"shutdown\" is not batchable (only query ops)".into()),
            ),
        ];
        for (sub, e) in failing {
            want.push(error_json(&e, sub.get("id"), Some(snap.epoch)));
            subs.push(sub);
        }

        for batch_id in [None, Some(Json::str("b-1")), Some(Json::num(1 << 40))] {
            let mut pairs = Vec::new();
            if let Some(id) = &batch_id {
                pairs.push(("id", id.clone()));
            }
            pairs.push(("op", Json::str("batch")));
            pairs.push(("exec", Json::str("batch")));
            pairs.push(("requests", Json::Arr(subs.clone())));
            let line = Json::obj(pairs).to_string();
            let (served, _) = handle_line_with(&platform, &line, max_rows);
            let oracle = success_json(Some(snap.epoch), Json::Arr(want.clone()), batch_id.as_ref());
            assert_eq!(
                served,
                to_wire(&oracle),
                "batch with id {batch_id:?} at max_rows {max_rows}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The run-copying writer emits exactly the bytes of the
    /// character-at-a-time serialiser it replaced.
    #[test]
    fn writer_matches_the_reference_serialiser(v in AnyJson { depth: 4 }) {
        prop_assert_eq!(v.to_string(), to_wire(&v));
    }
}
