//! Incrementally updated PROV-O store for live executions.
//!
//! The batch path re-exports the whole provenance graph into a fresh
//! [`TripleStore`] every time ([`crate::export_prov_into`]); a long-running
//! execution would pay O(graph) per call. [`LiveProvStore`] instead
//! consumes the [`LiveDelta`]s emitted by
//! `weblab_prov::live::LiveProvenance` and performs *append-only* triple
//! insertion: each delta contributes the PROV-O triples of its new Source
//! rows and links, built with the same [`crate::export::source_triples`] /
//! [`crate::export::link_triples`] helpers the batch exporter uses — so
//! after the final call the live store's triple set (and therefore its
//! Turtle serialisation) is byte-identical to a one-shot batch export.

use std::collections::HashMap;

use weblab_prov::LiveDelta;
use weblab_xml::CallLabel;

use crate::export::RowBuilder;
use crate::store::TripleStore;

/// An append-only PROV-O mirror of a live provenance graph.
#[derive(Debug, Clone, Default)]
pub struct LiveProvStore {
    store: TripleStore,
    /// URI → generating call of every Source row seen, for the
    /// `prov:used` triples of later links.
    labels: HashMap<String, CallLabel>,
}

impl LiveProvStore {
    /// An empty store.
    pub fn new() -> Self {
        LiveProvStore::default()
    }

    /// Fold one delta in, returning the number of triples actually
    /// inserted. Sources are applied before links so a link emitted by the
    /// same call that registered its dependent resource finds the label.
    /// Idempotent: re-applying a delta inserts nothing.
    pub fn apply(&mut self, delta: &LiveDelta) -> usize {
        let mut b = RowBuilder::new(&mut self.store);
        let mut rows = Vec::with_capacity(delta.sources.len() * 6 + delta.links.len() * 2);
        for s in &delta.sources {
            self.labels.insert(s.uri.clone(), s.label.clone());
            b.source_rows(&mut self.store, s, &mut rows);
        }
        for l in &delta.links {
            let label = self.labels.get(&l.from_uri);
            b.link_rows(&mut self.store, l, label, &mut rows);
        }
        self.store.insert_rows(rows)
    }

    /// The accumulated triple store.
    pub fn store(&self) -> &TripleStore {
        &self.store
    }

    /// Consume the mirror, keeping just the triples.
    pub fn into_store(self) -> TripleStore {
        self.store
    }

    /// Number of triples accumulated.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether no triples have been inserted yet.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::export_prov_into;
    use crate::term::Triple;
    use crate::turtle::to_turtle;
    use weblab_prov::{
        infer_provenance, paper_example, EngineOptions, ExecutionTrace, LiveProvenance,
    };

    #[test]
    fn incremental_store_matches_batch_export() {
        let (doc, trace, rules) = paper_example::build();
        let opts = EngineOptions::default();

        let mut live = LiveProvenance::new(rules.clone(), opts);
        let mut store = LiveProvStore::new();
        store.apply(&live.catch_up(&doc, &ExecutionTrace::default()));
        for k in 0..trace.calls.len() {
            store.apply(&live.observe_call(&doc, &trace, k));
        }

        let graph = infer_provenance(&doc, &trace, &rules, &opts);
        let mut batch = TripleStore::new();
        export_prov_into(&graph, &mut batch);

        assert_eq!(store.len(), batch.len());
        let live_triples: Vec<Triple> = store.store().iter().collect();
        let batch_triples: Vec<Triple> = batch.iter().collect();
        assert_eq!(to_turtle(&live_triples), to_turtle(&batch_triples));
    }

    #[test]
    fn apply_is_idempotent() {
        let (doc, trace, rules) = paper_example::build();
        let mut live = LiveProvenance::new(rules, EngineOptions::default());
        let delta = live.observe_call(&doc, &trace, 0);
        let mut store = LiveProvStore::new();
        let n1 = store.apply(&delta);
        assert!(n1 > 0);
        assert_eq!(store.apply(&delta), 0);
        assert_eq!(store.len(), n1);
    }
}
