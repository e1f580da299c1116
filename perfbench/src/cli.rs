//! `cli-oneshot`: a user running one-shot `weblab` commands.
//!
//! Each read is a session of three commands on a stamped document —
//! `query` with a SPARQL SELECT, `why`, and `infer --format turtle` — and
//! each write is `weblab run <corpus> <media pipeline> -o <out>` on a
//! fresh corpus. Every call pays for XML parsing, batch inference and
//! PROV-O export; no index, store or socket is involved, so a store or
//! transport change must move nothing here.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use weblab::platform::{ProvQuery, QueryAnswer};
use weblab::prov::{infer_provenance, EngineOptions, ExecutionTrace, InheritMode, ProvenanceGraph};
use weblab::rdf::{export_prov, parse_select, select, to_turtle, TripleStore};
use weblab::workflow::services;
use weblab::xml::{parse_document, to_xml_string, to_xml_string_pretty, Document};

use crate::harness::{observed, CpuScope, Harness, Kind};
use crate::inputs::{self, mix};
use crate::kernel::Reference;
use crate::{sys, Ctx, Extras};

/// Stamped documents the reads cycle over.
const DOCS: usize = 4;
/// Native text resources per read document and per write corpus.
const READ_NATIVES: usize = 300;
const WRITE_NATIVES: usize = 200;
/// Operations per slice of about a second at nominal speed: the pattern
/// read, read, write, repeated.
const PATTERN: [Kind; 3] = [Kind::Read, Kind::Read, Kind::Write];
const PATTERNS_PER_SLICE: usize = 3;
/// Kernel units of the reference child timed after each operation.
const REF_UNITS: u32 = 150;
const SETUPS: usize = 7;

const SPARQL: &str = "PREFIX prov: <http://www.w3.org/ns/prov#> \
                      SELECT ?d ?s WHERE { ?d prov:wasDerivedFrom ?s . }";

struct ReadDoc {
    path: PathBuf,
    text: String,
    /// Derived resources, the subjects of `why`.
    uris: Vec<String>,
}

/// A finished child: stdout and wall time.
fn spawn(weblab: &Path, args: &[&str]) -> (Result<Vec<u8>, String>, f64) {
    let t = Instant::now();
    let out = Command::new(weblab)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::piped())
        .output();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let out = match out {
        Ok(o) if o.status.success() => Ok(o.stdout),
        Ok(o) => Err(format!(
            "weblab {} exited {}: {}",
            args.join(" "),
            o.status,
            String::from_utf8_lossy(&o.stderr).trim()
        )),
        Err(e) => Err(format!("spawning weblab: {e}")),
    };
    (out, ms)
}

fn graph(doc: &Document, inherit: bool) -> ProvenanceGraph {
    let trace = ExecutionTrace::reconstruct_from(doc);
    infer_provenance(
        doc,
        &trace,
        &services::default_rules(),
        &EngineOptions {
            inherit: if inherit {
                InheritMode::PatternRewrite
            } else {
                InheritMode::Off
            },
            ..Default::default()
        },
    )
}

/// `weblab why`'s stdout for an answer.
fn render_why(uri: &str, answer: &QueryAnswer) -> String {
    let QueryAnswer::Why(w) = answer else {
        return String::new();
    };
    let mut out = format!("why-provenance of {uri}:\n");
    out.push_str(&format!("  resources ({}):\n", w.resources.len()));
    for r in &w.resources {
        out.push_str(&format!("    {r}\n"));
    }
    out.push_str(&format!("  links ({}):\n", w.links.len()));
    for l in &w.links {
        out.push_str(&format!("    {l}\n"));
    }
    out.push_str("  calls involved:\n");
    for c in &w.calls {
        out.push_str(&format!("    {c}\n"));
    }
    out
}

/// `weblab query`'s stdout for a SPARQL answer.
fn render_solutions(answer: &QueryAnswer) -> String {
    let QueryAnswer::Solutions(solutions) = answer else {
        return String::new();
    };
    let mut out = String::new();
    for sol in solutions {
        let row: Vec<String> = sol.iter().map(|(k, v)| format!("?{k} = {v}")).collect();
        out.push_str(&row.join("  "));
        out.push('\n');
    }
    out
}

/// The three commands of a read session on `doc` about `uri`.
fn session(doc: &ReadDoc, uri: &str) -> [Vec<String>; 3] {
    let p = doc.path.to_string_lossy().to_string();
    [
        vec!["query".into(), p.clone(), SPARQL.into()],
        vec!["why".into(), p.clone(), uri.into()],
        vec!["infer".into(), p, "--format".into(), "turtle".into()],
    ]
}

/// The answers of a read session that do not depend on its subject,
/// computed in-process once per document.
struct DocAnswers {
    sparql: Vec<u8>,
    turtle: Vec<u8>,
    inherited: ProvenanceGraph,
}

fn doc_answers(doc: &ReadDoc) -> DocAnswers {
    let parsed = parse_document(&doc.text).expect("stamped documents parse");
    let plain = graph(&parsed, false);
    let sparql = ProvQuery::Sparql {
        query: SPARQL.into(),
    }
    .answer_on_graph(&plain)
    .expect("the benchmark's query parses");
    DocAnswers {
        sparql: render_solutions(&sparql).into_bytes(),
        turtle: format!("{}\n", to_turtle(&export_prov(&plain))).into_bytes(),
        inherited: graph(&parsed, true),
    }
}

/// The session's three answers, in command order.
fn expected(answers: &DocAnswers, uri: &str) -> [Vec<u8>; 3] {
    let why = ProvQuery::Why { uri: uri.into() }
        .answer_on_graph(&answers.inherited)
        .expect("why answers");
    [
        answers.sparql.clone(),
        render_why(uri, &why).into_bytes(),
        answers.turtle.clone(),
    ]
}

/// Replay a read session's public calls in-process, as spans under `root`.
fn replay_read(h: &mut Harness, root: usize, doc: &ReadDoc, uri: &str) {
    let t = &mut h.tracer;
    // query: parse, infer, export, select
    let (d, _) = t.time("xml.parse", root, || {
        parse_document(&doc.text).expect("parses")
    });
    let (g, _) = t.time("prov.infer", root, || graph(&d, false));
    let (triples, _) = t.time("rdf.export", root, || export_prov(&g));
    t.time("rdf.select", root, || {
        let mut store = TripleStore::new();
        store.extend(triples);
        select(&store, &parse_select(SPARQL).expect("parses"))
    });
    // why: parse, infer with inheritance, edge-list query
    let (d, _) = t.time("xml.parse", root, || {
        parse_document(&doc.text).expect("parses")
    });
    let (g, _) = t.time("prov.infer", root, || graph(&d, true));
    let _ = t.time("prov.query", root, || {
        ProvQuery::Why { uri: uri.into() }.answer_on_graph(&g)
    });
    // infer --format turtle: parse, infer, export, serialise
    let (d, _) = t.time("xml.parse", root, || {
        parse_document(&doc.text).expect("parses")
    });
    let (g, _) = t.time("prov.infer", root, || graph(&d, false));
    let (triples, _) = t.time("rdf.export", root, || export_prov(&g));
    t.time("rdf.turtle", root, || to_turtle(&triples));
}

/// Process start-up, replayed as `weblab services` once per command.
fn replay_spawns(h: &mut Harness, root: usize, weblab: &Path, commands: usize) {
    for _ in 0..commands {
        let ((r, _), _) = h
            .tracer
            .time("cli.spawn", root, || spawn(weblab, &["services"]));
        h.check(r.is_ok(), || "weblab services failed".into());
    }
}

fn count_xpath(h: &mut Harness, c: &weblab::obs::Snapshot) {
    h.count(
        "xpath.pattern_evals_per_op",
        c.counter("xpath.pattern.evals") as f64,
        1.0,
    );
    h.count(
        "xpath.nodes_visited_per_op",
        c.counter("xpath.eval.nodes_visited") as f64,
        1.0,
    );
    let (hits, misses) = (
        c.counter("prov.cache.hits") as f64,
        c.counter("prov.cache.misses") as f64,
    );
    h.count("prov.cache_hit_ratio", hits, hits + misses);
}

pub fn run(ctx: &Ctx, trace: bool) -> (Harness, Extras) {
    let reference = Reference::Child {
        units: REF_UNITS,
        exe: ctx.exe.clone(),
    };
    let mut h = Harness::new(reference, CpuScope::Children, trace);
    let mut read_bytes = 0u64;
    let mut resources = 0u64;
    let mut links = 0u64;

    // set-up: stamp the read documents with `weblab run`, as a user would;
    // each corpus with the stamped text an in-process run gives
    let corpora: Vec<(PathBuf, String)> = (0..DOCS)
        .map(|d| {
            let mut doc = inputs::corpus(mix(ctx.seed, 100 + d as u64), READ_NATIVES);
            let path = ctx.work.join(format!("corpus-{d}.xml"));
            std::fs::write(&path, to_xml_string(&doc.view()))
                .expect("writing a corpus into the work directory");
            inputs::stamp(&mut doc);
            (path, to_xml_string_pretty(&doc.view()))
        })
        .collect();
    let mut docs = Vec::new();
    for round in 0..SETUPS {
        let stamped = h.setup(|steps| {
            corpora
                .iter()
                .enumerate()
                .map(|(d, (corpus, _))| {
                    let out = ctx.work.join(format!("read-{round}-{d}.xml"));
                    let args = [
                        "run",
                        &corpus.to_string_lossy(),
                        inputs::CLI_PIPELINE,
                        "-o",
                        &out.to_string_lossy(),
                    ];
                    let run = steps.step(|| spawn(&ctx.weblab, &args).0);
                    (out, run)
                })
                .collect::<Vec<_>>()
        });
        docs.clear();
        for ((path, run), (_, want)) in stamped.into_iter().zip(&corpora) {
            let text = run.and_then(|_| std::fs::read_to_string(&path).map_err(|e| e.to_string()));
            h.check_setup(text.as_ref() == Ok(want), || {
                format!(
                    "stamping {}: output differs from the in-process run",
                    path.display()
                )
            });
            docs.push((path, want.clone()));
        }
    }
    let docs: Vec<ReadDoc> = docs
        .into_iter()
        .map(|(path, text)| {
            let g = graph(
                &parse_document(&text).expect("stamped documents parse"),
                false,
            );
            resources += g.sources.len() as u64;
            links += g.links.len() as u64;
            ReadDoc {
                uris: inputs::derived_uris(&g),
                path,
                text,
            }
        })
        .collect();
    for d in &docs {
        h.check_setup(!d.uris.is_empty(), || {
            format!("{} has no links", d.path.display())
        });
    }

    let mut answers: HashMap<usize, DocAnswers> = HashMap::new();
    let (mut stamped_bytes, mut corpus_bytes) = (0u64, 0u64);
    let mut rng = mix(ctx.seed, 1);
    let (mut reads, mut writes) = (0usize, 0usize);
    for _ in 0..ctx.seconds {
        h.begin_slice();
        for kind in PATTERN
            .iter()
            .cycle()
            .take(PATTERN.len() * PATTERNS_PER_SLICE)
        {
            rng = mix(rng, 2);
            let traced = h.traced_next(*kind);
            if *kind == Kind::Read {
                let d = reads % DOCS;
                reads += 1;
                let doc = &docs[d];
                let uri = doc.uris[(rng % doc.uris.len() as u64) as usize].clone();
                let cmds = session(doc, &uri);
                let op = h.op(Kind::Read, traced, || {
                    cmds.iter()
                        .map(|c| {
                            spawn(
                                &ctx.weblab,
                                &c.iter().map(String::as_str).collect::<Vec<_>>(),
                            )
                            .0
                        })
                        .collect::<Vec<_>>()
                });
                h.outside(|h| {
                    let want = expected(answers.entry(d).or_insert_with(|| doc_answers(doc)), &uri);
                    for (got, want) in op.out.iter().zip(want.iter()) {
                        match got {
                            Ok(got) => h.check(got == want, || {
                                format!("cli read on {} about {uri}: stdout differs from the in-process answer", doc.path.display())
                            }),
                            Err(e) => h.check(false, || e.clone()),
                        }
                    }
                    if let Some(root) = op.root {
                        replay_spawns(h, root, &ctx.weblab, 3);
                        let (_, c) = observed(|| replay_read(h, root, doc, &uri));
                        count_xpath(h, &c);
                        h.close(root);
                    }
                });
            } else {
                let k = writes;
                writes += 1;
                let input = ctx.work.join(format!("in-{k}.xml"));
                let output = ctx.work.join(format!("out-{k}.xml"));
                let corpus_seed = mix(ctx.seed, 1_000_000 + k as u64);
                let text = to_xml_string(&inputs::corpus(corpus_seed, WRITE_NATIVES).view());
                std::fs::write(&input, &text).expect("writing a corpus into the work directory");
                let args = [
                    "run",
                    input.to_str().expect("utf-8 path"),
                    inputs::CLI_PIPELINE,
                    "-o",
                    output.to_str().expect("utf-8 path"),
                ];
                let op = h.op(Kind::Write, traced, || spawn(&ctx.weblab, &args).0);
                h.outside(|h| {
                    let got = op.out.and_then(|_| std::fs::read(&output).map_err(|e| e.to_string()));
                    let mut doc = parse_document(&text).expect("corpora parse");
                    inputs::stamp(&mut doc);
                    let want = to_xml_string_pretty(&doc.view());
                    match got {
                        Ok(got) => {
                            corpus_bytes += text.len() as u64;
                            stamped_bytes += got.len() as u64;
                            h.check(got == want.as_bytes(), || {
                                format!("weblab run on corpus {k}: output differs from the in-process run")
                            });
                        }
                        Err(e) => h.check(false, || e),
                    }
                    if let Some(root) = op.root {
                        replay_spawns(h, root, &ctx.weblab, 1);
                        let (_, c) = observed(|| {
                            let t = &mut h.tracer;
                            let (mut d, _) = t.time("xml.parse", root, || parse_document(&text).expect("parses"));
                            t.time("workflow.execute", root, || inputs::stamp(&mut d));
                            t.time("xml.serialize", root, || to_xml_string_pretty(&d.view()));
                        });
                        count_xpath(h, &c);
                        h.close(root);
                    }
                    let _ = std::fs::remove_file(&input);
                    let _ = std::fs::remove_file(&output);
                });
            }
            h.reference();
        }
        h.end_slice();
    }
    for d in &docs {
        read_bytes += d.text.len() as u64;
    }
    let extras = Extras {
        peak_rss_mb: sys::children_peak_rss_mb(),
        store_bytes_per_input_byte: stamped_bytes as f64 / corpus_bytes.max(1) as f64,
        sizes: vec![
            ("read_document_bytes", read_bytes / DOCS as u64),
            ("read_documents", DOCS as u64),
            ("resources_per_read_document", resources / DOCS as u64),
            ("links_per_read_document", links / DOCS as u64),
            ("write_corpus_bytes", corpus_bytes / (writes as u64).max(1)),
            ("executions", (DOCS + writes) as u64),
        ],
        store_fs: Some(sys::fs_type(&ctx.work)),
    };
    (h, extras)
}
