//! End-to-end tests of the `weblab serve` protocol layer.
//!
//! The centrepiece is the **differential test**: while a background thread
//! keeps executing pipeline steps on a live execution (each committed call
//! publishing a new index epoch), TCP clients issue provenance queries and
//! every served answer must be byte-identical to the edge-walk oracle's
//! answer (`support::edgewalk`) computed on the graph *as of the epoch the
//! response declares* — at 2 and at 4 worker threads.

mod support;

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;

use support::{edgewalk, serve_platform};
use weblab::json::Json;
use weblab::platform::{ProvQuery, ProvStore, QueryOpts, RankDirection};
use weblab::serve::{handle_line, Server};
use weblab::workflow::generator::generate_corpus;
use weblab::xml::to_xml_string;

const PIPELINE: [&str; 6] = [
    "Normaliser",
    "LanguageExtractor",
    "Tokeniser",
    "EntityExtractor",
    "KeywordExtractor",
    "Summariser",
];

fn request(pairs: Vec<(&str, Json)>) -> String {
    Json::obj(pairs).to_string()
}

fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    assert!(response.ends_with('\n'), "response not newline-terminated");
    response.trim_end().to_string()
}

fn connect(addr: &std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    // `roundtrip` writes a line and its newline apart: with Nagle's
    // algorithm on, the newline waits out the server's delayed ACK (about
    // 40 ms), and a batch then spans dozens of live rounds, so only a batch
    // sent as ingestion ends can be bracketed by snapshots
    stream.set_nodelay(true).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
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
        ProvQuery::CommonOrigins { a, b } => vec![
            ("a", Json::str(a.as_str())),
            ("b", Json::str(b.as_str())),
        ],
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

/// The wire request for a [`ProvQuery`] against `exec`.
fn query_request(exec: &str, q: &ProvQuery) -> String {
    let mut pairs = vec![("op", Json::str(q.op())), ("exec", Json::str(exec))];
    pairs.extend(query_fields(q));
    request(pairs)
}

/// A `batch` request carrying every query as a sub-request (sub-requests
/// inherit the batch's `exec`).
fn batch_request(exec: &str, queries: &[ProvQuery]) -> String {
    let subs: Vec<Json> = queries
        .iter()
        .map(|q| {
            let mut pairs = vec![("op", Json::str(q.op()))];
            pairs.extend(query_fields(q));
            Json::obj(pairs)
        })
        .collect();
    request(vec![
        ("op", Json::str("batch")),
        ("exec", Json::str(exec)),
        ("requests", Json::Arr(subs)),
    ])
}

/// Queries covering every op, targeting URIs that exist in the graph.
fn query_mix(uris: &[String]) -> Vec<ProvQuery> {
    let mut queries = Vec::new();
    for uri in uris {
        queries.push(ProvQuery::Why { uri: uri.clone() });
        queries.push(ProvQuery::Lineage {
            uri: uri.clone(),
            depth: 2,
        });
        queries.push(ProvQuery::ImpactedBy { uri: uri.clone() });
    }
    if uris.len() >= 2 {
        queries.push(ProvQuery::CommonOrigins {
            a: uris[0].clone(),
            b: uris[1].clone(),
        });
    }
    queries.push(ProvQuery::Sparql {
        query: "PREFIX prov: <http://www.w3.org/ns/prov#> \
                SELECT ?d ?s WHERE { ?d prov:wasDerivedFrom ?s . }"
            .to_string(),
    });
    queries.push(ProvQuery::Rank {
        uris: uris.to_vec(),
        direction: RankDirection::Up,
        opts: QueryOpts { limit: 10, budget: 16, decay_micro: 250_000 },
        weights: vec![("Normaliser".to_string(), 500_000)],
    });
    queries.push(ProvQuery::Summary {
        uri: uris.first().cloned(),
    });
    queries
}

#[test]
fn served_answers_match_batch_at_the_same_epoch_while_ingesting() {
    for workers in [2usize, 4] {
        let platform = serve_platform();
        let exec_id = "live-exec";
        {
            let exec = platform.execution(exec_id);
            exec.ingest(generate_corpus(42, 3, 8));
            exec.enable_live();
            // warm-up step so the graph has resources to query
            exec.execute(&["Normaliser"]).unwrap();
        }
        let uris: Vec<String> = {
            let snap = platform.execution(exec_id).snapshot().unwrap();
            snap.graph
                .sources
                .iter()
                .map(|s| s.uri.clone())
                .take(4)
                .collect()
        };
        assert!(uris.len() >= 2, "corpus produced too few resources");
        let queries = query_mix(&uris);

        let server = Server::bind(Arc::clone(&platform), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let server_thread = thread::spawn(move || server.run(workers));

        // live ingestion: each committed call publishes a new epoch while
        // clients are mid-query. The ingester keeps going until the client
        // has bracketed at least one served answer mid-run, so the overlap
        // is guaranteed rather than a race against scheduler timing.
        let live_matches = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let ingest_platform = Arc::clone(&platform);
        let ingester = thread::spawn({
            let live_matches = Arc::clone(&live_matches);
            move || {
                let exec = ingest_platform.execution(exec_id);
                for round in 0..100 {
                    exec.execute(&PIPELINE).unwrap();
                    if round >= 2 && live_matches.load(std::sync::atomic::Ordering::Relaxed) > 0
                    {
                        break;
                    }
                }
            }
        });

        let (mut stream, mut reader) = connect(&addr);
        while !ingester.is_finished() {
            for q in &queries {
                let exec = platform.execution(exec_id);
                let before = exec.snapshot().unwrap();
                let response = roundtrip(&mut stream, &mut reader, &query_request(exec_id, q));
                let after = exec.snapshot().unwrap();
                let parsed = Json::parse(&response).unwrap();
                assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));
                let epoch = parsed.get("epoch").and_then(Json::as_u64).unwrap();
                // epoch-bracketing: if the response's epoch matches a
                // snapshot we hold, the bytes must match the oracle answer
                // computed on that snapshot's graph
                let snap = if epoch == before.epoch {
                    Some(before)
                } else if epoch == after.epoch {
                    Some(after)
                } else {
                    None
                };
                if let Some(snap) = snap {
                    assert_eq!(
                        response,
                        edgewalk::response(&snap, q),
                        "served {op} answer diverged from batch at epoch {epoch} \
                         ({workers} workers)",
                        op = q.op(),
                    );
                    live_matches.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            }
        }
        ingester.join().unwrap();

        // quiescent: no publisher is running, so every answer must sit at
        // the current epoch and compare exactly
        let settled = platform.execution(exec_id).snapshot().unwrap();
        for q in &queries {
            let response = roundtrip(&mut stream, &mut reader, &query_request(exec_id, q));
            assert_eq!(
                response,
                edgewalk::response(&settled, q),
                "quiescent {} answer diverged ({workers} workers)",
                q.op(),
            );
        }
        assert!(
            live_matches.load(std::sync::atomic::Ordering::Relaxed) > 0,
            "expected at least one live-bracketed comparison mid-ingestion"
        );

        let bye = roundtrip(&mut stream, &mut reader, &request(vec![("op", Json::str("shutdown"))]));
        assert!(bye.contains("\"stopping\":true"));
        drop(stream);
        server_thread.join().unwrap().unwrap();
    }
}

/// The differential test for the `batch` op: under live ingestion, every
/// batch must answer all its sub-requests at **one** epoch (no torn
/// batch), and each sub-response must be byte-identical to the same
/// sub-request issued serially at that pinned epoch — at 2 and 4 workers.
#[test]
fn batch_answers_share_one_epoch_and_match_serial_responses() {
    for workers in [2usize, 4] {
        let platform = serve_platform();
        let exec_id = "batch-exec";
        {
            let exec = platform.execution(exec_id);
            exec.ingest(generate_corpus(7, 3, 8));
            exec.enable_live();
            exec.execute(&["Normaliser"]).unwrap();
        }
        let uris: Vec<String> = {
            let snap = platform.execution(exec_id).snapshot().unwrap();
            snap.graph
                .sources
                .iter()
                .map(|s| s.uri.clone())
                .take(4)
                .collect()
        };
        let queries = query_mix(&uris);

        let server = Server::bind(Arc::clone(&platform), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let server_thread = thread::spawn(move || server.run(workers));

        let live_matches = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let ingest_platform = Arc::clone(&platform);
        let ingester = thread::spawn({
            let live_matches = Arc::clone(&live_matches);
            move || {
                let exec = ingest_platform.execution(exec_id);
                for round in 0..100 {
                    exec.execute(&PIPELINE).unwrap();
                    if round >= 2 && live_matches.load(std::sync::atomic::Ordering::Relaxed) > 0
                    {
                        break;
                    }
                }
            }
        });

        let (mut stream, mut reader) = connect(&addr);
        while !ingester.is_finished() {
            let exec = platform.execution(exec_id);
            let before = exec.snapshot().unwrap();
            let response = roundtrip(&mut stream, &mut reader, &batch_request(exec_id, &queries));
            let after = exec.snapshot().unwrap();
            let parsed = Json::parse(&response).unwrap();
            assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));
            let epoch = parsed.get("epoch").and_then(Json::as_u64).unwrap();
            let subs = parsed
                .get("result")
                .and_then(Json::as_array)
                .expect("batch result must be an array");
            assert_eq!(subs.len(), queries.len());
            // the whole batch shares one atomic epoch — never torn across
            // a concurrent publish
            for sub in subs {
                assert_eq!(sub.get("ok").and_then(Json::as_bool), Some(true));
                assert_eq!(
                    sub.get("epoch").and_then(Json::as_u64),
                    Some(epoch),
                    "torn batch: sub answered at a different epoch ({workers} workers)"
                );
            }
            // epoch-bracketing: when the batch's epoch matches a snapshot
            // we hold, every sub must be byte-identical to the serial
            // answer computed on that snapshot
            let snap = if epoch == before.epoch {
                Some(before)
            } else if epoch == after.epoch {
                Some(after)
            } else {
                None
            };
            if let Some(snap) = snap {
                for (sub, q) in subs.iter().zip(&queries) {
                    assert_eq!(
                        sub.to_string(),
                        edgewalk::response(&snap, q),
                        "batch {} sub diverged from serial at epoch {epoch} \
                         ({workers} workers)",
                        q.op(),
                    );
                }
                live_matches.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
        ingester.join().unwrap();

        // quiescent: issue the batch, then the same sub-requests serially
        // over the same connection — the wire bytes must match exactly
        let response = roundtrip(&mut stream, &mut reader, &batch_request(exec_id, &queries));
        let parsed = Json::parse(&response).unwrap();
        let subs = parsed.get("result").and_then(Json::as_array).unwrap();
        for (sub, q) in subs.iter().zip(&queries) {
            let serial = roundtrip(&mut stream, &mut reader, &query_request(exec_id, q));
            assert_eq!(
                sub.to_string(),
                serial,
                "quiescent batch {} sub != serial response ({workers} workers)",
                q.op(),
            );
        }
        assert!(
            live_matches.load(std::sync::atomic::Ordering::Relaxed) > 0,
            "expected at least one live-bracketed batch comparison"
        );

        // sub-request errors carry their own stable code plus the batch's
        // epoch; a mismatched sub exec is rejected without touching it
        let bad = request(vec![
            ("op", Json::str("batch")),
            ("exec", Json::str(exec_id)),
            (
                "requests",
                Json::Arr(vec![
                    Json::obj(vec![("op", Json::str("why")), ("uri", Json::str(&uris[0]))]),
                    Json::obj(vec![("op", Json::str("why"))]), // missing uri
                    Json::obj(vec![
                        ("op", Json::str("why")),
                        ("exec", Json::str("someone-else")),
                        ("uri", Json::str(&uris[0])),
                    ]),
                    Json::obj(vec![("op", Json::str("shutdown"))]), // not batchable
                ]),
            ),
        ]);
        let parsed = Json::parse(&roundtrip(&mut stream, &mut reader, &bad)).unwrap();
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));
        let epoch = parsed.get("epoch").and_then(Json::as_u64).unwrap();
        let subs = parsed.get("result").and_then(Json::as_array).unwrap();
        assert_eq!(subs[0].get("ok").and_then(Json::as_bool), Some(true));
        for failing in &subs[1..] {
            assert_eq!(failing.get("ok").and_then(Json::as_bool), Some(false));
            assert_eq!(
                failing.get("code").and_then(Json::as_str),
                Some("protocol")
            );
            assert_eq!(failing.get("epoch").and_then(Json::as_u64), Some(epoch));
        }

        // an oversized batch fails whole with the stable batch-limit code
        let subs: Vec<Json> = (0..weblab::serve::DEFAULT_MAX_BATCH + 1)
            .map(|_| Json::obj(vec![("op", Json::str("why")), ("uri", Json::str(&uris[0]))]))
            .collect();
        let oversized = request(vec![
            ("op", Json::str("batch")),
            ("exec", Json::str(exec_id)),
            ("requests", Json::Arr(subs)),
        ]);
        let parsed = Json::parse(&roundtrip(&mut stream, &mut reader, &oversized)).unwrap();
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            parsed.get("code").and_then(Json::as_str),
            Some("batch-limit")
        );

        let bye = roundtrip(&mut stream, &mut reader, &request(vec![("op", Json::str("shutdown"))]));
        assert!(bye.contains("\"stopping\":true"));
        drop(stream);
        server_thread.join().unwrap().unwrap();
    }
}

/// Any request may carry an `id`; it comes back verbatim as the first
/// member of the response — success or error.
#[test]
fn request_ids_echo_back_first() {
    let platform = serve_platform();
    let (response, _) = handle_line(&platform, "{\"id\":42,\"op\":\"status\"}");
    assert!(
        response.starts_with("{\"id\":42,\"ok\":true,"),
        "id must lead the success response: {response}"
    );
    let (response, _) = handle_line(&platform, "{\"id\":\"q-1\",\"op\":\"transmogrify\"}");
    assert!(
        response.starts_with("{\"id\":\"q-1\",\"ok\":false,"),
        "id must lead the error response: {response}"
    );
}

#[test]
fn tcp_ingest_round_trip_executes_the_pipeline() {
    let platform = serve_platform();
    let server = Server::bind(Arc::clone(&platform), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let server_thread = thread::spawn(move || server.run(2));

    let (mut stream, mut reader) = connect(&addr);
    let xml = "<Resource wl:id=\"weblab://doc/t\">\
               <NativeContent wl:id=\"weblab://src/0\" wl:s=\"Source\" wl:t=\"0\" mime=\"text/plain\">\
               hello serve world and the language of peace</NativeContent></Resource>";
    let ingest = request(vec![
        ("op", Json::str("ingest")),
        ("exec", Json::str("tcp-exec")),
        ("xml", Json::str(xml)),
        ("live", Json::Bool(true)),
        (
            "pipeline",
            Json::Arr(vec![Json::str("Normaliser"), Json::str("Tokeniser")]),
        ),
    ]);
    let response = Json::parse(&roundtrip(&mut stream, &mut reader, &ingest)).unwrap();
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    let result = response.get("result").unwrap();
    assert_eq!(result.get("calls").and_then(Json::as_u64), Some(2));
    assert!(result.get("links").and_then(Json::as_u64).unwrap() > 0);

    // status shows the execution as live
    let status = Json::parse(&roundtrip(
        &mut stream,
        &mut reader,
        &request(vec![("op", Json::str("status"))]),
    ))
    .unwrap();
    let executions = status
        .get("result")
        .and_then(|r| r.get("executions"))
        .and_then(Json::as_array)
        .unwrap();
    assert!(executions.iter().any(|e| {
        e.get("id").and_then(Json::as_str) == Some("tcp-exec")
            && e.get("live").and_then(Json::as_bool) == Some(true)
    }));

    // a why query over the just-ingested execution answers at some epoch
    let snap = platform.execution("tcp-exec").snapshot().unwrap();
    let uri = snap.graph.sources.first().map(|s| s.uri.clone()).unwrap();
    let why = ProvQuery::Why { uri };
    let served = roundtrip(&mut stream, &mut reader, &query_request("tcp-exec", &why));
    assert_eq!(served, edgewalk::response(&snap, &why));

    let bye = roundtrip(&mut stream, &mut reader, &request(vec![("op", Json::str("shutdown"))]));
    assert!(bye.contains("\"stopping\":true"));
    drop((stream, reader));
    server_thread.join().unwrap().unwrap();
}

#[test]
fn protocol_errors_carry_the_stable_codes() {
    let platform = serve_platform();
    let cases = [
        ("this is not json", "protocol"),
        ("{\"op\":\"transmogrify\"}", "protocol"),
        ("{\"op\":\"why\",\"exec\":\"e\"}", "protocol"), // missing uri
        ("{\"op\":\"why\",\"exec\":\"nope\",\"uri\":\"r\"}", "unknown-execution"),
        ("{\"op\":\"ingest\",\"exec\":\"e\",\"xml\":\"<broken\"}", "xml"),
        (
            "{\"op\":\"ingest\",\"exec\":\"e2\",\"xml\":\"<R><NativeContent id=\\\"n\\\">x</NativeContent></R>\",\"pipeline\":[\"NoSuchService\"]}",
            "unknown-service",
        ),
    ];
    for (line, code) in cases {
        let (response, stop) = handle_line(&platform, line);
        assert!(!stop);
        let parsed = Json::parse(&response).unwrap();
        assert_eq!(
            parsed.get("ok").and_then(Json::as_bool),
            Some(false),
            "{line} should fail"
        );
        assert_eq!(
            parsed.get("code").and_then(Json::as_str),
            Some(code),
            "wrong code for {line}: {response}"
        );
    }
    // sparql parse failures surface the shared "sparql" code
    let (_, _) = handle_line(
        &platform,
        "{\"op\":\"ingest\",\"exec\":\"s\",\"xml\":\"<R><NativeContent id=\\\"n\\\">x</NativeContent></R>\"}",
    );
    let (response, _) = handle_line(
        &platform,
        "{\"op\":\"sparql\",\"exec\":\"s\",\"query\":\"SELEKT nonsense\"}",
    );
    let parsed = Json::parse(&response).unwrap();
    assert_eq!(parsed.get("code").and_then(Json::as_str), Some("sparql"));
}

#[test]
fn replay_refuses_an_execution_without_calls_and_names_it() {
    let platform = serve_platform();
    let xml = "<Resource wl:id=\"weblab://doc/a\">\
               <NativeContent wl:id=\"weblab://src/0\" wl:s=\"Source\" wl:t=\"0\">\
               the text is in the language for peace</NativeContent></Resource>";
    let ingest = request(vec![
        ("op", Json::str("ingest")),
        ("exec", Json::str("idle")),
        ("xml", Json::str(xml)),
    ]);
    let ingested = Json::parse(&handle_line(&platform, &ingest).0).unwrap();
    assert_eq!(ingested.get("ok").and_then(Json::as_bool), Some(true));
    let replay = |exec: &str| {
        let line = request(vec![
            ("op", Json::str("replay")),
            ("exec", Json::str(exec)),
            ("as", Json::str("replayed")),
            ("xml", Json::str(xml)),
            ("changed", Json::Arr(vec![Json::str("weblab://src/0")])),
        ]);
        Json::parse(&handle_line(&platform, &line).0).unwrap()
    };
    let field = |response: &Json, key: &str| {
        response.get(key).and_then(Json::as_str).unwrap_or_default().to_string()
    };

    // an execution that was ingested but never executed exists: it is
    // refused as a workflow that cannot be replayed, by name
    let refused = replay("idle");
    assert_eq!(field(&refused, "code"), "workflow", "{refused}");
    assert!(field(&refused, "error").contains("\"idle\""), "{refused}");
    assert!(!platform.execution("replayed").exists());
    // an id the platform never held is still unknown
    assert_eq!(field(&replay("nosuch"), "code"), "unknown-execution");
}

#[test]
fn ingest_and_replay_refuse_an_execution_id_already_held() {
    let platform = serve_platform();
    let ingest = |exec: &str, xml: &str, pipeline: &[&str]| {
        let mut pairs = vec![
            ("op", Json::str("ingest")),
            ("exec", Json::str(exec)),
            ("xml", Json::str(xml)),
            ("live", Json::Bool(true)),
        ];
        if !pipeline.is_empty() {
            pairs.push((
                "pipeline",
                Json::Arr(pipeline.iter().map(|s| Json::str(*s)).collect()),
            ));
        }
        Json::parse(&handle_line(&platform, &request(pairs)).0).unwrap()
    };
    let code = |response: &Json| {
        response
            .get("code")
            .and_then(Json::as_str)
            .map(String::from)
    };
    let first = "<Resource wl:id=\"weblab://doc/a\">\
                 <NativeContent wl:id=\"weblab://src/0\" wl:s=\"Source\" wl:t=\"0\">\
                 the text is in the language for peace</NativeContent></Resource>";
    let second = "<Resource wl:id=\"weblab://doc/b\">\
                  <NativeContent wl:id=\"weblab://src/0\" wl:s=\"Source\" wl:t=\"0\">\
                  a different text</NativeContent>\
                  <NativeContent wl:id=\"weblab://src/1\" wl:s=\"Source\" wl:t=\"0\">\
                  and one more</NativeContent></Resource>";
    let ok = ingest("e", first, &["Normaliser", "LanguageExtractor"]);
    assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));
    let why = query_request(
        "e",
        &ProvQuery::Why {
            uri: "weblab://src/0".into(),
        },
    );
    let (before, _) = handle_line(&platform, &why);

    // a second document under the same id, with and without a pipeline,
    // is refused before anything is stored
    for pipeline in [&[][..], &["Normaliser"][..]] {
        let refused = ingest("e", second, pipeline);
        assert_eq!(refused.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            code(&refused).as_deref(),
            Some("execution-exists"),
            "{pipeline:?}"
        );
    }
    assert_eq!(
        handle_line(&platform, &why).0,
        before,
        "the refusal changed the first execution"
    );

    // replay onto an id the daemon holds fails with the same code
    let replay = request(vec![
        ("op", Json::str("replay")),
        ("exec", Json::str("e")),
        ("as", Json::str("e")),
        ("xml", Json::str(first)),
        ("changed", Json::Arr(vec![Json::str("weblab://src/0")])),
    ]);
    let refused = Json::parse(&handle_line(&platform, &replay).0).unwrap();
    assert_eq!(code(&refused).as_deref(), Some("execution-exists"));

    // an execution evicted to the attached store is held too
    let dir = std::env::temp_dir().join(format!("weblab-serve-exists-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    platform
        .attach_store(weblab::platform::ProvStore::open(&dir).unwrap(), 1)
        .unwrap();
    assert_eq!(
        ingest("f", second, &[]).get("ok").and_then(Json::as_bool),
        Some(true)
    );
    assert!(!platform.execution("e").is_resident());
    assert_eq!(
        code(&ingest("e", second, &[])).as_deref(),
        Some("execution-exists")
    );
    assert_eq!(handle_line(&platform, &why).0, before);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_is_flagged_and_sources_only_snapshots_serve() {
    let platform = serve_platform();
    let (_, stop) = handle_line(&platform, "{\"op\":\"shutdown\"}");
    assert!(stop, "shutdown must flag the server loop to stop");

    // ingested but never executed: queries answer on a sources-only graph
    let (response, _) = handle_line(
        &platform,
        "{\"op\":\"ingest\",\"exec\":\"fresh\",\"xml\":\"<R wl:id=\\\"weblab://doc/f\\\"><NativeContent wl:id=\\\"weblab://src/9\\\" wl:s=\\\"Source\\\" wl:t=\\\"0\\\">plain</NativeContent></R>\"}",
    );
    let parsed = Json::parse(&response).unwrap();
    assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        parsed
            .get("result")
            .and_then(|r| r.get("calls"))
            .and_then(Json::as_u64),
        Some(0)
    );
    let snap = platform.execution("fresh").snapshot().unwrap();
    let uri = snap.graph.sources.first().map(|s| s.uri.clone()).unwrap();
    let why = ProvQuery::Why { uri };
    let (served, _) = handle_line(&platform, &query_request("fresh", &why));
    assert_eq!(served, edgewalk::response(&snap, &why));
}

fn live_ingest(exec: &str, xml: &str, pipeline: &[&str]) -> String {
    request(vec![
        ("op", Json::str("ingest")),
        ("exec", Json::str(exec)),
        ("xml", Json::str(xml)),
        ("live", Json::Bool(true)),
        (
            "pipeline",
            Json::Arr(pipeline.iter().map(|s| Json::str(*s)).collect()),
        ),
    ])
}

fn tmpstore(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("weblab-serve-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn a_live_ingest_answers_at_the_same_epoch_with_a_store_as_without() {
    let corpus = to_xml_string(&generate_corpus(3, 2, 25).view());
    // no labelled resource: no Source rows to publish before the first call
    let unlabelled = "<R><NativeContent id=\"n\">x</NativeContent></R>";
    // the input's Source rows (if any), then one epoch per live call
    let cases = [
        ("corpus", corpus.as_str(), &PIPELINE[..3], 4),
        ("unlabelled", unlabelled, &PIPELINE[..1], 1),
    ];
    for (name, xml, pipeline, want_epoch) in cases {
        let ingest = live_ingest("e", xml, pipeline);
        let storeless = serve_platform();
        let dir = tmpstore(&format!("epochs-{name}"));
        let stored = serve_platform();
        stored.attach_store(ProvStore::open(&dir).unwrap(), 4).unwrap();
        let (want, _) = handle_line(&storeless, &ingest);
        assert_eq!(handle_line(&stored, &ingest).0, want, "{name}: ingest replies differ");

        let snap = storeless.execution("e").snapshot().unwrap();
        let query = match snap.graph.links.first() {
            Some(link) => ProvQuery::Why { uri: link.from_uri.clone() },
            None => ProvQuery::Summary { uri: None },
        };
        let line = query_request("e", &query);
        let (served, _) = handle_line(&stored, &line);
        assert_eq!(served, handle_line(&storeless, &line).0, "{name}");
        let epoch = Json::parse(&served).unwrap().get("epoch").and_then(Json::as_u64);
        assert_eq!(epoch, Some(want_epoch), "{name}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn status_reports_an_evicted_live_execution_as_live() {
    let xml = to_xml_string(&generate_corpus(2, 1, 15).view());
    let dir = tmpstore("status");
    let platform = serve_platform();
    platform.attach_store(ProvStore::open(&dir).unwrap(), 1).unwrap();
    let status = |platform: &weblab::platform::Platform| handle_line(platform, "{\"op\":\"status\"}").0;
    handle_line(&platform, &live_ingest("a", &xml, &["Normaliser"]));
    handle_line(
        &platform,
        &request(vec![
            ("op", Json::str("ingest")),
            ("exec", Json::str("b")),
            ("xml", Json::str(xml.as_str())),
        ]),
    );
    let evicted = status(&platform);
    assert!(evicted.contains(r#"{"id":"a","live":true,"resident":false}"#), "{evicted}");
    assert!(evicted.contains(r#"{"id":"b","live":false,"resident":true}"#), "{evicted}");
    // a live ingest with no pipeline stores its flag with its first
    // write-through, for a labelled and an unlabelled input alike
    let unlabelled = "<Resource><NativeContent id=\"n\">x</NativeContent></Resource>";
    for (id, xml) in [("c", xml.as_str()), ("d", unlabelled)] {
        let ingest = request(vec![
            ("op", Json::str("ingest")),
            ("exec", Json::str(id)),
            ("xml", Json::str(xml)),
            ("live", Json::Bool(true)),
        ]);
        assert!(handle_line(&platform, &ingest).0.contains("\"ok\":true"));
    }

    // a daemon that never loaded it reads the stored snapshot's header
    let restarted = serve_platform();
    restarted.attach_store(ProvStore::open(&dir).unwrap(), 1).unwrap();
    let unloaded = status(&restarted);
    assert!(unloaded.contains(r#"{"id":"a","live":true,"resident":false}"#), "{unloaded}");
    for id in ["c", "d"] {
        let listed = format!(r#"{{"id":"{id}","live":true,"resident":false}}"#);
        assert!(unloaded.contains(&listed), "{unloaded}");
    }

    // a query cold-loads it, and it stays live
    let why = query_request("a", &ProvQuery::Why { uri: "weblab://src/0".into() });
    for platform in [&platform, &restarted] {
        assert!(handle_line(platform, &why).0.contains("\"ok\":true"));
        let loaded = status(platform);
        assert!(loaded.contains(r#"{"id":"a","live":true,"resident":true}"#), "{loaded}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
