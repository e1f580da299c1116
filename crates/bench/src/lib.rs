//! # weblab-bench — workload builders for the benchmark harness
//!
//! Shared fixtures for the Criterion benches (experiments X1–X7 of
//! DESIGN.md) and the `paper_artifacts` binary. Every builder is seeded and
//! deterministic so benchmark runs are reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod seedeval;

use weblab_prov::{ExecutionTrace, RuleSet};
use weblab_workflow::generator::{generate_corpus, synthetic_workload};
use weblab_workflow::services::{
    self, EntityExtractor, KeywordExtractor, LanguageExtractor, Normaliser, SentimentAnalyser,
    Summariser, Tokeniser, Translator,
};
use weblab_workflow::{Orchestrator, Workflow};
use weblab_xml::Document;

/// A fully executed workload: final document, trace, and rules.
pub struct Executed {
    /// Final document `d_n`.
    pub doc: Document,
    /// Execution trace.
    pub trace: ExecutionTrace,
    /// Rule registry.
    pub rules: RuleSet,
}

/// Run the synthetic scaling workload: `n_calls` calls, each appending
/// `fanout` items referencing earlier items, with `payload_words` of text
/// per item.
pub fn run_synthetic(seed: u64, n_calls: usize, fanout: usize, payload_words: usize) -> Executed {
    let (mut doc, wf, rules) = synthetic_workload(seed, n_calls, fanout, payload_words);
    let outcome = Orchestrator::new()
        .execute(&wf, &mut doc)
        .expect("synthetic workload executes");
    Executed {
        doc,
        trace: outcome.trace,
        rules,
    }
}

/// Run the full media-mining pipeline over a generated corpus of
/// `n_native` raw documents of `words_each` words.
pub fn run_pipeline(seed: u64, n_native: usize, words_each: usize) -> Executed {
    let mut doc = generate_corpus(seed, n_native, words_each);
    let wf = media_mining_workflow();
    let outcome = Orchestrator::new()
        .execute(&wf, &mut doc)
        .expect("pipeline executes");
    Executed {
        doc,
        trace: outcome.trace,
        rules: services::default_rules(),
    }
}

/// Run the five-service pipeline the one-shot CLI benchmark stamps its
/// read documents with (`weblab run … normaliser,language,translator,
/// tokeniser,entities`) over a generated corpus of `n_native` raw
/// documents of `words_each` words. At 300 documents of 40 words this is
/// the `cli-oneshot` read shape: about 3k Source rows and 2k links.
pub fn run_cli_read_pipeline(seed: u64, n_native: usize, words_each: usize) -> Executed {
    let mut doc = generate_corpus(seed, n_native, words_each);
    let wf = Workflow::new()
        .then(Normaliser)
        .then(LanguageExtractor)
        .then(Translator::default())
        .then(Tokeniser)
        .then(EntityExtractor);
    let outcome = Orchestrator::new()
        .execute(&wf, &mut doc)
        .expect("pipeline executes");
    Executed {
        doc,
        trace: outcome.trace,
        rules: services::default_rules(),
    }
}

/// The canonical nine-service media-mining workflow.
pub fn media_mining_workflow() -> Workflow {
    Workflow::new()
        .then(Normaliser)
        .then(LanguageExtractor)
        .then(Translator::default())
        .then(LanguageExtractor)
        .then(Tokeniser)
        .then(EntityExtractor)
        .then(SentimentAnalyser)
        .then(KeywordExtractor)
        .then(Summariser)
}

/// Build a wide flat document with `leaves` identified leaf resources —
/// the X2/X6 document-size dimension.
pub fn wide_document(leaves: usize) -> Document {
    let mut doc = Document::new("Resource");
    let root = doc.root();
    doc.register_resource(root, "root", None).unwrap();
    for i in 0..leaves {
        let n = doc.append_element(root, "Item").unwrap();
        doc.set_attr(n, "key", format!("k{i}")).unwrap();
        doc.register_resource(
            n,
            format!("item/{i}"),
            Some(weblab_xml::CallLabel::new("Gen", 1 + (i % 7) as u64)),
        )
        .unwrap();
        doc.append_text(n, format!("payload {i}")).unwrap();
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_are_deterministic() {
        let a = run_synthetic(3, 4, 2, 5);
        let b = run_synthetic(3, 4, 2, 5);
        assert_eq!(
            weblab_xml::to_xml_string(&a.doc.view()),
            weblab_xml::to_xml_string(&b.doc.view())
        );
        assert_eq!(a.trace.len(), 4);
    }

    #[test]
    fn pipeline_builder_runs() {
        let e = run_pipeline(1, 2, 30);
        assert_eq!(e.trace.len(), 9);
        assert!(e.doc.node_count() > 10);
    }

    #[test]
    fn wide_document_has_requested_leaves() {
        let d = wide_document(10);
        assert_eq!(d.view().children(d.root()).len(), 10);
    }
}
