//! The reachability index, through `ProvQuery`, against the edge-list
//! walks it replaced (`support::edgewalk`).
//!
//! Every structured query — the CLI's and the daemon's — is answered by
//! `ProvQuery::answer` over a `ReachabilityIndex`. The walks re-scan the
//! edge list per hop and share no code with the index, so agreement on
//! every resource is the law that pins the index's answers:
//!
//! * the query semantics (why-provenance, depth-limited lineage, impact,
//!   common origins) on the paper example and on a cycle, each answer
//!   asserted equal in both implementations;
//! * random graphs with cycles, a URI registered twice under different
//!   calls, and link endpoints no Source row labels, where `summary`'s
//!   closure sizes are checked as well, built in one batch and folded in
//!   as shuffled deltas;
//! * the `cli-oneshot` read graph (`run_cli_read_pipeline(7, 300, 40)`),
//!   with and without inherited links;
//! * the `ExecutionHandle` and snapshot paths on platform executions.
//!
//! The generated graphs give each URI exactly one node, as
//! `Document::register_resource` does. The index keys resources by URI
//! alone (see `ReachabilityIndex`), so on edge sets that pair one URI with
//! two nodes the two implementations disagree by construction.

mod support;

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use proptest::rng::SplitMix64;
use support::edgewalk;
use weblab::platform::{Mapper, Platform, ProvQuery, QueryAnswer, QueryOpts, RankDirection};
use weblab::prov::{
    infer_provenance, paper_example, EngineOptions, EpochSnapshot, InheritMode, LiveDelta,
    ProvLink, ProvenanceGraph, ReachabilityIndex, SourceEntry, WhyProvenance,
};
use weblab::rdf::vocab::PROV_NS;
use weblab::rdf::QueryEngine;
use weblab::workflow::generator::generate_corpus;
use weblab::workflow::services::{LanguageExtractor, Normaliser, Translator};
use weblab::xml::{CallLabel, NodeId};
use weblab_bench::run_cli_read_pipeline;

fn graph() -> ProvenanceGraph {
    let (doc, trace, rules) = paper_example::build();
    infer_provenance(
        &doc,
        &trace,
        &rules,
        &EngineOptions {
            inherit: InheritMode::PatternRewrite,
            ..Default::default()
        },
    )
}

fn link(f: (usize, &str), t: (usize, &str)) -> ProvLink {
    ProvLink {
        from: NodeId::from_index(f.0),
        from_uri: f.1.into(),
        to: NodeId::from_index(t.0),
        to_uri: t.1.into(),
    }
}

/// A 3-cycle: Definition 3 graphs are DAGs, but both implementations must
/// stay total if handed a corrupted edge set.
fn cycle() -> ProvenanceGraph {
    let mut g = ProvenanceGraph::default();
    g.add_links([
        link((1, "a"), (2, "b")),
        link((2, "b"), (3, "c")),
        link((3, "c"), (1, "a")),
    ]);
    g
}

/// `ProvQuery::answer_on_graph`'s answer, asserted equal to the oracle's.
fn checked(g: &ProvenanceGraph, q: ProvQuery) -> QueryAnswer {
    let answer = q.answer_on_graph(g).unwrap();
    assert_eq!(answer, edgewalk::answer(&q, g).unwrap(), "{q:?}");
    answer
}

fn why(g: &ProvenanceGraph, uri: &str) -> WhyProvenance {
    match checked(g, ProvQuery::Why { uri: uri.into() }) {
        QueryAnswer::Why(w) => w,
        other => panic!("why answered {other:?}"),
    }
}

fn lineage_to_depth(g: &ProvenanceGraph, uri: &str, depth: usize) -> Vec<(String, usize)> {
    match checked(g, ProvQuery::Lineage { uri: uri.into(), depth }) {
        QueryAnswer::Lineage(l) => l,
        other => panic!("lineage answered {other:?}"),
    }
}

fn impacted_by(g: &ProvenanceGraph, uri: &str) -> Vec<String> {
    match checked(g, ProvQuery::ImpactedBy { uri: uri.into() }) {
        QueryAnswer::ImpactedBy(i) => i,
        other => panic!("impacted-by answered {other:?}"),
    }
}

fn common_origins(g: &ProvenanceGraph, a: &str, b: &str) -> Vec<String> {
    match checked(g, ProvQuery::CommonOrigins { a: a.into(), b: b.into() }) {
        QueryAnswer::CommonOrigins(c) => c,
        other => panic!("common-origins answered {other:?}"),
    }
}

#[test]
fn why_r8_reaches_the_source() {
    let g = graph();
    let w = why(&g, "r8");
    assert!(w.resources.contains("r4"));
    assert!(w.resources.contains("r3")); // via r4 → r3
    assert!(w.resources.contains("r6")); // inherited link 8 → 6
    // involved calls include the full chain back to acquisition
    let services: Vec<&str> = w.calls.iter().map(|c| c.service.as_str()).collect();
    assert!(services.contains(&"Normaliser"));
    assert!(services.contains(&"Source"));
    // every link endpoint is in the resource set
    for l in &w.links {
        assert!(w.resources.contains(&l.from_uri));
        assert!(w.resources.contains(&l.to_uri));
    }
}

#[test]
fn depth_limited_lineage() {
    let g = graph();
    let d1 = lineage_to_depth(&g, "r8", 1);
    assert!(d1.iter().all(|(_, d)| *d <= 1));
    assert!(d1.iter().any(|(u, d)| u == "r4" && *d == 1));
    assert!(!d1.iter().any(|(u, _)| u == "r3")); // r3 is 2 hops away
    let d2 = lineage_to_depth(&g, "r8", 2);
    assert!(d2.iter().any(|(u, d)| u == "r3" && *d == 2));
    let d0 = lineage_to_depth(&g, "r8", 0);
    assert_eq!(d0, vec![("r8".to_string(), 0)]);
}

#[test]
fn impact_of_the_source_covers_everything_downstream() {
    let g = graph();
    let impacted = impacted_by(&g, "r3");
    assert!(impacted.contains(&"r4".to_string()));
    assert!(impacted.contains(&"r8".to_string()));
    // a leaf has no impact
    assert!(impacted_by(&g, "r8").is_empty());
}

#[test]
fn common_origins_of_translation_and_annotation() {
    let g = graph();
    // both r8 (translation) and r6 (annotation) trace back to r4/r3
    let shared = common_origins(&g, "r8", "r6");
    assert!(shared.contains(&"r4".to_string()) || shared.contains(&"r5".to_string()));
}

#[test]
fn why_of_unknown_resource_is_trivial() {
    let g = graph();
    let w = why(&g, "nope");
    assert_eq!(w.resources.len(), 1);
    assert!(w.links.is_empty());
    assert!(w.calls.is_empty());
}

#[test]
fn unknown_uris_are_empty_in_every_query() {
    let g = graph();
    assert_eq!(
        lineage_to_depth(&g, "nope", 5),
        vec![("nope".to_string(), 0)]
    );
    assert!(impacted_by(&g, "nope").is_empty());
    // an unknown root still appears in its own why-provenance, so the
    // self-join is the singleton
    assert_eq!(common_origins(&g, "nope", "nope"), vec!["nope".to_string()]);
    assert!(common_origins(&g, "nope", "r8").is_empty());
}

#[test]
fn common_origins_self_join_is_the_full_why_set() {
    let g = graph();
    let w = why(&g, "r8");
    let self_join = common_origins(&g, "r8", "r8");
    let expected: Vec<String> = w.resources.iter().cloned().collect();
    assert_eq!(self_join, expected);
}

#[test]
fn queries_terminate_on_cyclic_edge_sets() {
    // seen-set guards make every traversal visit each resource at most once
    let g = cycle();
    let w = why(&g, "a");
    assert_eq!(w.resources.len(), 3);
    assert_eq!(w.links.len(), 3);
    assert_eq!(impacted_by(&g, "a").len(), 2);
    let lin = lineage_to_depth(&g, "a", 10);
    assert_eq!(lin.len(), 3, "each resource reported once despite the cycle");
    assert_eq!(
        common_origins(&g, "a", "b"),
        vec!["a".to_string(), "b".to_string(), "c".to_string()]
    );
}

#[test]
fn depth_zero_lineage_never_traverses() {
    let g = graph();
    for s in &g.sources {
        assert_eq!(
            lineage_to_depth(&g, &s.uri, 0),
            vec![(s.uri.clone(), 0)],
            "depth 0 must return just the root for {}",
            s.uri
        );
    }
}

/// Every URI of a graph — Source rows and link endpoints — plus one no
/// graph holds, sorted.
fn all_uris(g: &ProvenanceGraph) -> Vec<String> {
    let mut uris: Vec<String> = g
        .sources
        .iter()
        .map(|s| s.uri.clone())
        .chain(
            g.links
                .iter()
                .flat_map(|l| [l.from_uri.clone(), l.to_uri.clone()]),
        )
        .collect();
    uris.push("not-a-resource".into());
    uris.sort();
    uris.dedup();
    uris
}

#[test]
fn index_answers_match_batch_queries_on_every_resource() {
    let g = graph();
    let idx = ReachabilityIndex::from_graph(&g);
    for uri in all_uris(&g) {
        assert_eq!(
            idx.dependencies_of(&uri),
            g.dependencies_of(&uri),
            "deps of {uri}"
        );
        assert_eq!(
            idx.dependents_of(&uri),
            g.dependents_of(&uri),
            "rdeps of {uri}"
        );
        assert_eq!(idx.why(&uri), edgewalk::why(&g, &uri), "why of {uri}");
        for depth in 0..4 {
            assert_eq!(
                idx.lineage(&uri, depth),
                edgewalk::lineage_to_depth(&g, &uri, depth),
                "lineage of {uri} at depth {depth}"
            );
        }
        assert_eq!(
            idx.impacted_by(&uri),
            edgewalk::impacted_by(&g, &uri),
            "impact of {uri}"
        );
    }
    for a in all_uris(&g) {
        for b in all_uris(&g) {
            assert_eq!(
                idx.common_origins(&a, &b),
                edgewalk::common_origins(&g, &a, &b),
                "common origins of {a}/{b}"
            );
        }
    }
}

#[test]
fn closure_survives_cycles() {
    // provenance graphs are DAGs by construction, but the index must
    // not loop or corrupt its closure if fed one
    let g = cycle();
    let mut idx = ReachabilityIndex::new();
    for l in &g.links {
        idx.add_link(l);
    }
    for u in ["a", "b", "c"] {
        assert_eq!(idx.why(u), edgewalk::why(&g, u), "why of {u} on a cycle");
        assert_eq!(idx.impacted_by(u), edgewalk::impacted_by(&g, u));
    }
    assert_eq!(
        idx.common_origins("a", "c"),
        edgewalk::common_origins(&g, "a", "c")
    );
}

/// The reachability queries of the differential: for every URI (and one
/// unknown), why, lineage at depths 0–4 and unbounded, and impacted-by.
fn per_uri_queries(uris: &[String]) -> Vec<ProvQuery> {
    let mut out = Vec::new();
    for uri in uris {
        out.push(ProvQuery::Why { uri: uri.clone() });
        for depth in [0, 1, 2, 3, 4, usize::MAX] {
            out.push(ProvQuery::Lineage { uri: uri.clone(), depth });
        }
        out.push(ProvQuery::ImpactedBy { uri: uri.clone() });
    }
    out
}

/// Assert `production` equals the oracle on `queries` over `g`.
fn assert_agrees(
    g: &ProvenanceGraph,
    queries: impl IntoIterator<Item = ProvQuery>,
    production: impl Fn(&ProvQuery) -> QueryAnswer,
) {
    for q in queries {
        assert_eq!(production(&q), edgewalk::answer(&q, g).unwrap(), "{q:?}");
    }
}

/// Random provenance graphs in which every URI names one node, as in a
/// document: nodes are a shuffled numbering of a small URI pool, so node
/// order and URI order disagree. Links draw from the pool at random, so
/// cycles and self-loops occur; some URIs get no Source row (unlabelled
/// endpoints), some get two under different calls (the first wins), and
/// some labelled URIs sit on no link.
#[derive(Debug, Clone, Copy)]
struct AnyDocGraph;

impl Strategy for AnyDocGraph {
    type Value = ProvenanceGraph;

    fn generate(&self, rng: &mut SplitMix64) -> ProvenanceGraph {
        const SERVICES: [&str; 3] = ["Normaliser", "Translator", "Source"];
        let n = 1 + rng.below(12) as usize;
        let mut nodes: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            nodes.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let uri = |i: usize| format!("weblab://res/r{i}");
        let mut g = ProvenanceGraph::default();
        for _ in 0..rng.below(2 * n as u64) {
            let i = rng.below(n as u64) as usize;
            g.sources.push(SourceEntry {
                node: NodeId::from_index(nodes[i]),
                uri: uri(i),
                label: CallLabel::new(SERVICES[rng.below(3) as usize], rng.below(4)),
            });
        }
        let links: Vec<ProvLink> = (0..rng.below(3 * n as u64))
            .map(|_| {
                let (f, t) = (rng.below(n as u64) as usize, rng.below(n as u64) as usize);
                link((nodes[f], &uri(f)), (nodes[t], &uri(t)))
            })
            .collect();
        g.add_links(links);
        g
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_graphs_answer_like_the_edge_walks(g in AnyDocGraph) {
        let uris = all_uris(&g);
        let pairs = uris.iter().flat_map(|a| {
            uris.iter().map(|b| ProvQuery::CommonOrigins { a: a.clone(), b: b.clone() })
        });
        let summaries = uris
            .iter()
            .map(|u| Some(u.clone()))
            .chain([None])
            .map(|uri| ProvQuery::Summary { uri });
        assert_agrees(
            &g,
            per_uri_queries(&uris).into_iter().chain(pairs).chain(summaries),
            |q| q.answer_on_graph(&g).unwrap(),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn folded_deltas_answer_like_the_edge_walks(g in AnyDocGraph, seed in any::<u64>()) {
        // The live path: the graph's links shuffled and its Source rows in
        // order, cut into deltas and folded one by one, so the index
        // interns and links in an order no batch build sees.
        let mut rng = SplitMix64::from_seed(seed);
        let mut links = g.links.clone();
        for i in (1..links.len()).rev() {
            links.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let (mut sources, mut snap) = (&g.sources[..], EpochSnapshot::empty());
        while !sources.is_empty() || !links.is_empty() {
            let (s, l) = (
                rng.below(sources.len() as u64 + 1) as usize,
                rng.below(links.len() as u64 + 1) as usize,
            );
            let delta = LiveDelta { links: links.drain(..l).collect(), sources: sources[..s].to_vec() };
            sources = &sources[s..];
            snap.fold(&delta, snap.calls + 1);
        }
        let uris = all_uris(&g);
        let pairs = uris.iter().flat_map(|a| {
            uris.iter().map(|b| ProvQuery::CommonOrigins { a: a.clone(), b: b.clone() })
        });
        let summaries = uris
            .iter()
            .map(|u| Some(u.clone()))
            .chain([None])
            .map(|uri| ProvQuery::Summary { uri });
        assert_agrees(
            &g,
            per_uri_queries(&uris).into_iter().chain(pairs).chain(summaries),
            |q| q.answer(|| &snap.index, || -> Arc<QueryEngine> { unreachable!("no sparql here") }).unwrap(),
        );
    }
}

/// A weakly connected component: its URIs in `all_uris` order, and its
/// Source rows and links in the order the whole graph lists them.
#[derive(Default)]
struct Component {
    uris: Vec<String>,
    graph: ProvenanceGraph,
}

/// Split a graph into its weakly connected components over `uris`.
fn components(g: &ProvenanceGraph, uris: &[String]) -> Vec<Component> {
    let pos: HashMap<&str, usize> =
        uris.iter().enumerate().map(|(i, u)| (u.as_str(), i)).collect();
    let mut parent: Vec<usize> = (0..uris.len()).collect();
    fn root(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    for l in &g.links {
        let (a, b) = (pos[l.from_uri.as_str()], pos[l.to_uri.as_str()]);
        let (ra, rb) = (root(&mut parent, a), root(&mut parent, b));
        parent[ra] = rb;
    }
    // number the components in the order of their first URI
    let mut numbers: HashMap<usize, usize> = HashMap::new();
    let mut out: Vec<Component> = Vec::new();
    let mut comp = Vec::with_capacity(uris.len());
    for (i, u) in uris.iter().enumerate() {
        let next = numbers.len();
        let c = *numbers.entry(root(&mut parent, i)).or_insert(next);
        if c == out.len() {
            out.push(Component::default());
        }
        out[c].uris.push(u.clone());
        comp.push(c);
    }
    for s in &g.sources {
        out[comp[pos[s.uri.as_str()]]].graph.sources.push(s.clone());
    }
    for l in &g.links {
        out[comp[pos[l.from_uri.as_str()]]].graph.links.push(l.clone());
    }
    out
}

#[test]
fn cli_read_graphs_answer_like_the_edge_walks() {
    let executed = run_cli_read_pipeline(7, 300, 40);
    for inherit in [InheritMode::Off, InheritMode::PatternRewrite] {
        let options = EngineOptions {
            inherit,
            ..Default::default()
        };
        let g = infer_provenance(&executed.doc, &executed.trace, &executed.rules, &options);
        assert!(g.links.len() > 1000, "a CLI-sized graph: {} links", g.links.len());
        // `answer_on_graph` is `answer` over `ReachabilityIndex::from_graph`;
        // one shared build keeps thousands of queries affordable
        let index = ReachabilityIndex::from_graph(&g);
        let production = |q: &ProvQuery| {
            q.answer(|| &index, || -> Arc<QueryEngine> { unreachable!("no sparql here") })
                .unwrap()
        };
        // The walks only follow links, so on the subgraph of a weakly
        // connected component they answer exactly as on the whole graph,
        // in a fraction of the time a full edge-list scan per hop takes.
        // Each component runs beside the next one, so that common origins
        // cover every pair within a component, plus each URI against a URI
        // of the next component and against the unknown URI.
        let parts = components(&g, &all_uris(&g));
        assert!(parts.len() > 1, "the corpus documents are independent");
        let unknown = "not-a-resource".to_string();
        for (i, part) in parts.iter().enumerate() {
            let next = &parts[(i + 1) % parts.len()];
            let mut local = part.graph.clone();
            local.sources.extend(next.graph.sources.iter().cloned());
            local.add_links(next.graph.links.iter().cloned());
            let pairs = part.uris.iter().flat_map(|a| {
                part.uris
                    .iter()
                    .chain([&next.uris[0], &unknown])
                    .map(|b| ProvQuery::CommonOrigins { a: a.clone(), b: b.clone() })
            });
            let queries = per_uri_queries(&part.uris).into_iter().chain(pairs);
            assert_agrees(&local, queries, production);
        }
    }
}

#[test]
fn snapshot_answers_equal_graph_answers_for_every_op() {
    let g = graph();
    let snap = EpochSnapshot {
        epoch: 1,
        calls: 3,
        graph: g.clone(),
        index: ReachabilityIndex::from_graph(&g),
    };
    let queries = [
        ProvQuery::Why { uri: "r8".into() },
        ProvQuery::Lineage { uri: "r8".into(), depth: 2 },
        ProvQuery::ImpactedBy { uri: "r3".into() },
        ProvQuery::CommonOrigins { a: "r8".into(), b: "r6".into() },
        ProvQuery::Sparql {
            query: format!(
                "PREFIX prov: <{PROV_NS}> SELECT ?d ?s WHERE {{ ?d prov:wasDerivedFrom ?s . }}"
            ),
        },
        ProvQuery::Rank {
            uris: vec!["r3".into()],
            direction: RankDirection::Up,
            opts: QueryOpts { limit: 5, budget: 8, decay_micro: 0 },
            weights: vec![("Translator".into(), 250_000)],
        },
        ProvQuery::Summary { uri: Some("r8".into()) },
    ];
    // the engine factory the platform passes, uncached
    let engine = || {
        let mut store = weblab::rdf::TripleStore::new();
        weblab::rdf::export_prov_into(&g, &mut store);
        Arc::new(QueryEngine::new(Arc::new(store)))
    };
    for q in &queries {
        assert_eq!(
            q.answer(|| &snap.index, engine).unwrap(),
            edgewalk::answer(q, &g).unwrap(),
            "op {}",
            q.op()
        );
    }
}

fn platform() -> Platform {
    let p = Platform::new(Mapper::native());
    p.register_service(
        Arc::new(Normaliser),
        &["//NativeContent[$x := @id] => //TextMediaUnit[@origin = $x]"],
    )
    .unwrap();
    p.register_service(
        Arc::new(LanguageExtractor),
        &["//TextMediaUnit[$x := @id]/TextContent => //TextMediaUnit[$x := @id]/Annotation[Language]"],
    )
    .unwrap();
    p.register_service(
        Arc::new(Translator::default()),
        &["//TextMediaUnit[$x := @id] => //TextMediaUnit[@translation-of = $x]"],
    )
    .unwrap();
    p
}

#[test]
fn handle_queries_answer_like_batch_on_the_snapshot_graph() {
    let p = platform();
    let exec = p.execution("e");
    exec.ingest(generate_corpus(3, 2, 25));
    exec.execute(&["Normaliser", "LanguageExtractor", "Translator"]).unwrap();
    let snap = exec.snapshot().unwrap();
    let sparql = format!(
        "PREFIX prov: <{PROV_NS}> SELECT ?d ?s WHERE {{ ?d prov:wasDerivedFrom ?s . }}"
    );
    let mut queries = vec![ProvQuery::Sparql { query: sparql.clone() }];
    for l in &snap.graph.links {
        queries.push(ProvQuery::Why { uri: l.from_uri.clone() });
        queries.push(ProvQuery::Lineage { uri: l.from_uri.clone(), depth: 2 });
        queries.push(ProvQuery::ImpactedBy { uri: l.to_uri.clone() });
        queries.push(ProvQuery::CommonOrigins {
            a: l.from_uri.clone(),
            b: l.to_uri.clone(),
        });
    }
    for q in &queries {
        let (epoch, answer) = exec.query_at(q).unwrap();
        assert_eq!(epoch, snap.epoch);
        assert_eq!(answer, edgewalk::answer(q, &snap.graph).unwrap(), "op {}", q.op());
    }
    // the sparql convenience wrapper unwraps the same solutions
    let sols = exec.sparql(&sparql).unwrap();
    assert_eq!(sols.len(), snap.graph.links.len());
}
