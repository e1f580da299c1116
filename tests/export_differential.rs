//! The PROV-O export, SPARQL load and Turtle writer against their
//! references.
//!
//! * `to_turtle` equals the writer it replaced (`support::turtle_oracle`)
//!   byte for byte, over random triples and over real exports.
//! * `ProvQuery::Sparql`, which loads its store with `export_prov_into`,
//!   answers exactly like `select` over a store filled by
//!   `TripleStore::extend(export_prov(g))`, on random graphs (duplicate
//!   Source URIs and unlabelled link endpoints included) and on a stamped
//!   300-native corpus.

mod support;

use std::sync::Arc;

use proptest::prelude::*;
use proptest::rng::SplitMix64;
use support::{any_string, turtle_oracle};
use weblab::platform::{ProvQuery, QueryAnswer};
use weblab::prov::{
    infer_provenance, EngineOptions, EpochSnapshot, InheritMode, ProvLink, ProvenanceGraph,
    ReachabilityIndex, SourceEntry,
};
use weblab::rdf::vocab::{PROV_NS, RDF_TYPE, WL_NS, XSD_INTEGER};
use weblab::rdf::{
    export_prov, export_prov_into, parse_select, select, to_turtle, QueryEngine, Solution, Term,
    Triple, TripleStore,
};
use weblab::xml::{CallLabel, NodeId};
use weblab_bench::run_cli_read_pipeline;

fn pick<T: Clone>(rng: &mut SplitMix64, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize].clone()
}

/// IRIs in and out of the writer's prefix namespaces: local names that
/// abbreviate (Unicode alphanumerics, `_ - .`), ones that do not (`/`,
/// `#`, empty), and hostile ones that need IRIREF escapes.
fn any_iri(rng: &mut SplitMix64) -> String {
    const FIXED: [&str; 10] = [
        RDF_TYPE,
        XSD_INTEGER,
        "http://www.w3.org/ns/prov#Entity",
        "http://www.w3.org/ns/prov#",
        "http://www.w3.org/ns/prov#wasDerivedFrom",
        "http://weblab.example.org/prov#call/Translator/t3",
        "http://weblab.example.org/prov#x-1.y_é",
        "http://weblab.example.org/prov#a b",
        "weblab://res/Normaliser-t1-2",
        "http://ex.org/a<b>\"{c}|^`\\ \t\n",
    ];
    const NAMESPACES: [&str; 5] = [
        "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
        "http://www.w3.org/2001/XMLSchema#",
        "http://www.w3.org/ns/prov#",
        "http://weblab.example.org/prov#",
        "http://ex.org/",
    ];
    match rng.below(3) {
        0 => pick(rng, &FIXED).to_string(),
        _ => format!("{}{}", pick(rng, &NAMESPACES), any_string(rng)),
    }
}

fn any_term(rng: &mut SplitMix64) -> Term {
    match rng.below(5) {
        0 | 1 => Term::iri(any_iri(rng)),
        2 => Term::lit(any_string(rng)),
        3 => Term::typed(any_string(rng), any_iri(rng)),
        _ => Term::Blank(pick(rng, &["b0", "b1", "node_2"]).to_string()),
    }
}

/// Random triple vectors: a few subjects interleaved across the vector
/// (IRIs, blank nodes and even literals, so every `Term` kind is grouped),
/// `rdf:type` and other predicates, objects of every kind, and repeated
/// triples.
#[derive(Debug, Clone, Copy)]
struct AnyTriples;

impl Strategy for AnyTriples {
    type Value = Vec<Triple>;

    fn generate(&self, rng: &mut SplitMix64) -> Vec<Triple> {
        let subjects: Vec<Term> = (0..1 + rng.below(5)).map(|_| any_term(rng)).collect();
        let mut out: Vec<Triple> = Vec::new();
        for _ in 0..rng.below(40) {
            if !out.is_empty() && rng.below(6) == 0 {
                let again = pick(rng, &out);
                out.push(again);
                continue;
            }
            let p = match rng.below(3) {
                0 => Term::iri(RDF_TYPE),
                1 => Term::iri(any_iri(rng)),
                _ => any_term(rng),
            };
            out.push(Triple::new(pick(rng, &subjects), p, any_term(rng)));
        }
        out
    }
}

/// Random provenance graphs: Source rows drawn from a small URI pool (so
/// one URI may be registered twice, under different calls), links between
/// pool URIs and URIs no Source row labels, and service names that need
/// escaping once minted into activity and agent IRIs.
#[derive(Debug, Clone, Copy)]
struct AnyGraph;

impl Strategy for AnyGraph {
    type Value = ProvenanceGraph;

    fn generate(&self, rng: &mut SplitMix64) -> ProvenanceGraph {
        const SERVICES: [&str; 4] = ["Normaliser", "Translator", "Odd Svc<1>", "É"];
        let pool: Vec<String> = (0..2 + rng.below(12))
            .map(|i| match rng.below(4) {
                0 => format!("weblab://src/{}", any_string(rng)),
                _ => format!("weblab://res/r{i}"),
            })
            .collect();
        let mut g = ProvenanceGraph::default();
        for i in 0..rng.below(16) {
            g.sources.push(SourceEntry {
                node: NodeId::from_index(i as usize),
                uri: pick(rng, &pool),
                label: CallLabel::new(pick(rng, &SERVICES), rng.below(4)),
            });
        }
        let endpoint = |rng: &mut SplitMix64| match rng.below(5) {
            0 => format!("weblab://unlabelled/{}", rng.below(3)),
            _ => pick(rng, &pool),
        };
        let links: Vec<ProvLink> = (0..rng.below(24))
            .map(|_| ProvLink {
                from: NodeId::from_index(rng.below(8) as usize),
                from_uri: endpoint(rng),
                to: NodeId::from_index(rng.below(8) as usize),
                to_uri: endpoint(rng),
            })
            .collect();
        g.add_links(links);
        g
    }
}

/// SELECTs over every predicate the exporter emits, alone and joined,
/// with `a`, FILTER and DISTINCT.
fn queries() -> Vec<String> {
    let bgps = [
        "SELECT ?d ?s WHERE { ?d prov:wasDerivedFrom ?s . }",
        "SELECT ?a ?u WHERE { ?a prov:used ?u . }",
        "SELECT ?e ?a ?g WHERE { ?e prov:wasGeneratedBy ?a . ?a prov:wasAssociatedWith ?g . }",
        "SELECT ?a ?t WHERE { ?a prov:startedAtTime ?t . }",
        "SELECT * WHERE { ?x a ?class . }",
        "SELECT ?d ?s ?a WHERE { ?d prov:wasDerivedFrom ?s . ?d prov:wasGeneratedBy ?a . \
         ?a prov:used ?s . }",
        "SELECT DISTINCT ?a WHERE { ?e prov:wasGeneratedBy ?a . }",
        "SELECT ?e WHERE { ?e a prov:Entity . FILTER(?e != <weblab://res/r1>) }",
        "SELECT ?a ?b ?c WHERE { ?a prov:wasDerivedFrom ?b . ?b prov:wasDerivedFrom ?c . }",
    ];
    bgps.iter()
        .map(|q| format!("PREFIX prov: <{PROV_NS}> PREFIX wl: <{WL_NS}> {q}"))
        .collect()
}

/// The SPARQL load every path used before: the `Vec<Triple>` export
/// re-interned through `TripleStore::extend`.
fn reference_solutions(graph: &ProvenanceGraph, query: &str) -> Vec<Solution> {
    let mut store = TripleStore::new();
    store.extend(export_prov(graph));
    select(&store, &parse_select(query).expect("test queries parse"))
}

/// Every SPARQL path of `ProvQuery` against the reference, plus the two
/// exporters' stores and the Turtle writer against the oracle.
fn assert_exports_agree(graph: &ProvenanceGraph) {
    let snapshot = EpochSnapshot {
        epoch: 1,
        calls: 0,
        graph: graph.clone(),
        index: ReachabilityIndex::from_graph(graph),
    };
    for text in queries() {
        let expected = QueryAnswer::Solutions(reference_solutions(graph, &text));
        let q = ProvQuery::Sparql {
            query: text.clone(),
        };
        assert_eq!(q.answer_on_graph(graph).unwrap(), expected, "{text}");
        // the serving path: a query engine over the snapshot's export
        let engine = || {
            let mut store = TripleStore::new();
            export_prov_into(graph, &mut store);
            Arc::new(QueryEngine::new(Arc::new(store)))
        };
        assert_eq!(
            q.answer(|| &snapshot.index, engine).unwrap(),
            expected,
            "{text}"
        );
    }

    let triples = export_prov(graph);
    let mut via_rows = TripleStore::new();
    assert_eq!(export_prov_into(graph, &mut via_rows), triples.len());
    let mut via_triples = TripleStore::new();
    via_triples.extend(triples.iter().cloned());
    assert!(
        via_rows.iter().eq(via_triples.iter()),
        "the two exporters' stores differ"
    );

    assert_eq!(to_turtle(&triples), turtle_oracle::to_turtle(&triples));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn turtle_writer_equals_the_oracle(triples in AnyTriples) {
        prop_assert_eq!(to_turtle(&triples), turtle_oracle::to_turtle(&triples));
    }

    #[test]
    fn sparql_over_export_into_equals_select_over_extended_export(graph in AnyGraph) {
        assert_exports_agree(&graph);
    }
}

#[test]
fn stamped_corpus_exports_agree() {
    let executed = run_cli_read_pipeline(7, 300, 40);
    for inherit in [InheritMode::Off, InheritMode::PatternRewrite] {
        let options = EngineOptions {
            inherit,
            ..Default::default()
        };
        let graph = infer_provenance(&executed.doc, &executed.trace, &executed.rules, &options);
        assert!(
            graph.sources.len() > 1000 && graph.links.len() > 1000,
            "a CLI-sized graph: {} sources, {} links",
            graph.sources.len(),
            graph.links.len()
        );
        assert_exports_agree(&graph);
    }
}
