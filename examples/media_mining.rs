//! The media-mining use case that motivates the paper: a multilingual
//! corpus flows through normalisation, language identification,
//! translation, annotation and indexing; afterwards we reconstruct — from
//! the final document alone — which service call produced what from what.
//!
//! ```text
//! cargo run --example media_mining
//! ```

use weblab::prov::{infer_provenance, EngineOptions, InheritMode, ReachabilityIndex};
use weblab::workflow::generator::generate_corpus;
use weblab::workflow::services::{
    self, EntityExtractor, Indexer, KeywordExtractor, LanguageExtractor, Normaliser,
    SentimentAnalyser, Summariser, Tokeniser, Translator,
};
use weblab::workflow::{Orchestrator, Workflow};

fn main() {
    // A corpus of four raw documents in mixed languages.
    let mut doc = generate_corpus(2013, 4, 45);
    println!(
        "corpus: {} native resources, {} nodes",
        doc.resource_nodes().len() - 1,
        doc.node_count()
    );

    let workflow = Workflow::new()
        .then(Normaliser)
        .then(LanguageExtractor)
        .then(Translator::default())
        .then(LanguageExtractor) // annotate the fresh translations too
        .then(Tokeniser)
        .then(EntityExtractor)
        .then(SentimentAnalyser)
        .then(KeywordExtractor)
        .then(Summariser)
        .then(Indexer);

    let outcome = Orchestrator::new().execute(&workflow, &mut doc).unwrap();
    println!(
        "executed {} service calls; document grew to {} nodes",
        outcome.trace.len(),
        doc.node_count()
    );

    // Infer provenance posthoc, with inherited links enabled.
    let rules = services::default_rules();
    let graph = infer_provenance(
        &doc,
        &outcome.trace,
        &rules,
        &EngineOptions {
            inherit: InheritMode::PatternRewrite,
            ..Default::default()
        },
    );

    println!(
        "\nprovenance graph: {} labelled resources, {} dependency links (DAG: {})",
        graph.sources.len(),
        graph.links.len(),
        graph.is_acyclic()
    );

    // Which calls used whose outputs? (the service-level lineage)
    println!("\nservice-call lineage:");
    for (user, used) in graph.call_dependencies() {
        println!("  {user}  <-uses-  {used}");
    }

    // Full upstream lineage of every summary, from a reachability index.
    println!("\nsummary lineage (transitive):");
    let index = ReachabilityIndex::from_graph(&graph);
    let v = doc.view();
    for &node in doc.resource_nodes() {
        if v.name(node) == Some("Summary") {
            let uri = v.uri(node).unwrap();
            println!("  {uri}");
            for (d, _) in index.lineage(uri, usize::MAX).into_iter().skip(1) {
                println!("    <- {d}");
            }
        }
    }
}
