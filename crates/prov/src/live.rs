//! Live provenance maintenance — per-call incremental inference.
//!
//! The paper's Request Manager computes provenance *on demand* over the
//! final document. [`LiveProvenance`] turns that posthoc computation into a
//! streaming one: after every committed service call it derives just that
//! call's links ([`infer_links_since_cached`]) and merges them into a
//! mutable [`CompactGraph`], and each [`LiveDelta`] it returns carries the
//! new links and Source rows to whoever answers queries — the serving
//! layer folds them into its reachability index, so "what does resource R
//! depend on?" is answerable *while the workflow is still running*.
//! Soundness rests on the append-only delta law pinned in the engine tests
//! (`links(0..n) = links(0..k) ∪ links(k..n)`): earlier calls' links are
//! never invalidated by later appends, so the union of the per-call deltas
//! is exactly the batch graph.
//!
//! Per-delta work never re-infers calls already folded:
//!
//! * the **channel map** (produced node → control-flow channel) is updated
//!   incrementally from the newly observed calls instead of being rebuilt
//!   from the whole trace — the rebuild is what made a naive
//!   `infer_links_since` loop O(n²) over a live run, and the
//!   `prov.trace.channel_map.builds` counter pins its absence;
//! * one [`PatternCache`] is carried across deltas, so evaluations keyed to
//!   unchanged document states are reused (the replay strategy's input
//!   state of call *k+1* is the output state of call *k*);
//! * the delta itself covers only the new calls — historical calls are
//!   never re-inferred — and [`CompactGraph::merge_link`] touches only the
//!   adjacency lists of the delta's endpoints.
//!
//! It is still not O(delta). Under the default `TemporalRewrite` strategy
//! (and `GroupedSinglePass`) a delta evaluates the new calls' rules over
//! the whole current document: it builds a fresh element index over that
//! document, O(document), and each rule's unconstrained pattern table
//! holds every matching row of the history, which the call's temporal
//! filter then scans. The document's state mark moves with every call
//! that adds to it, so the carried cache cannot serve these evaluations.
//! A live run of n calls over a document that grows to D nodes therefore
//! costs O(n · D) beyond its links.
//!
//! A prefix channel map is equivalent to the full one for the calls it
//! covers: a call's link targets (and their ancestors) always predate the
//! call, so their channel entries are already present, and
//! `channels_compatible` is total in the root channel.
//!
//! **Caveat** (shared with the platform's batch snapshot refresh, which
//! folds in only the calls a snapshot lacks): a delta is evaluated against
//! the document state at observation time. Resources *promoted* by later calls onto nodes nested under an
//! earlier link endpoint can extend the batch graph's inherited links in
//! ways a live maintainer has already missed; workloads that register
//! resources when their nodes are created (every service in this repo) are
//! unaffected. See DESIGN.md §9.

use std::collections::HashMap;

use weblab_obs::{Counter, Histogram, Span};
use weblab_xml::{Document, NodeId};

use crate::algebra::ProvLink;
use crate::cache::PatternCache;
use crate::engine::{infer_links_since_cached, EngineOptions};
use crate::graph::{ProvenanceGraph, SourceEntry};
use crate::ruleset::RuleSet;
use crate::storage::CompactGraph;
use crate::trace::ExecutionTrace;

/// Deltas observed (one per committed call, or one per catch-up batch).
static LIVE_DELTAS: Counter = Counter::new("live.deltas");
/// New links merged into the live graph across all deltas.
static LIVE_LINKS: Counter = Counter::new("live.links");
/// Wall time of one delta (inference + merge), in nanoseconds.
static LIVE_MERGE_NS: Histogram = Histogram::new("live.merge_ns");

/// The increment contributed by one observed delta: the links that were
/// actually new to the graph and the Source-table rows registered since
/// the previous delta (including promotions and initial acquisition
/// resources — everything `ProvenanceGraph::from_view` would list).
#[derive(Debug, Clone, Default)]
pub struct LiveDelta {
    /// Newly merged dependency links, sorted (already deduplicated against
    /// the accumulated graph).
    pub links: Vec<ProvLink>,
    /// Newly registered labelled resources, in registration order.
    pub sources: Vec<SourceEntry>,
}

impl LiveDelta {
    /// Whether the delta added nothing.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty() && self.sources.is_empty()
    }
}

/// Incrementally maintained provenance of one running execution.
#[derive(Debug)]
pub struct LiveProvenance {
    rules: RuleSet,
    opts: EngineOptions,
    /// Pattern cache carried across deltas.
    cache: PatternCache,
    /// Incrementally maintained produced-node → channel map (never rebuilt
    /// from the whole trace).
    channel_map: HashMap<NodeId, String>,
    /// The accumulated link store.
    graph: CompactGraph,
    /// The accumulated Source table, in registration order.
    sources: Vec<SourceEntry>,
    /// Calls of the *current trace segment* already folded in.
    calls_seen: usize,
    /// Calls folded in across every segment of the execution's lifetime.
    folded_total: usize,
    /// Length of the document's resource log already scanned for Source
    /// rows.
    resources_seen: usize,
}

impl LiveProvenance {
    /// A maintainer for an execution governed by `rules`, inferring deltas
    /// with `opts`.
    pub fn new(rules: RuleSet, opts: EngineOptions) -> Self {
        LiveProvenance {
            rules,
            opts,
            cache: PatternCache::new(),
            channel_map: HashMap::new(),
            graph: CompactGraph::default(),
            sources: Vec::new(),
            calls_seen: 0,
            folded_total: 0,
            resources_seen: 0,
        }
    }

    /// Fold in the committed call `trace.calls[call_idx]` (and any earlier
    /// calls not yet observed), given the document state at its completion.
    /// Idempotent: re-observing an already-folded index is a no-op.
    ///
    /// This is the orchestrator call-hook entry point: the hook fires only
    /// for *committed* calls — rolled-back and skipped attempts never reach
    /// the maintainer, so they leave zero residue in the link store.
    pub fn observe_call(
        &mut self,
        doc: &Document,
        trace: &ExecutionTrace,
        call_idx: usize,
    ) -> LiveDelta {
        let upto = (call_idx + 1).min(trace.calls.len());
        if upto <= self.calls_seen {
            return LiveDelta::default();
        }
        let span = (self.opts.metrics && weblab_obs::enabled())
            .then(|| Span::start(&LIVE_MERGE_NS));
        // O(delta) channel-map maintenance: only the new calls' produced
        // nodes are inserted.
        for call in &trace.calls[self.calls_seen..upto] {
            if call.channel.is_empty() {
                continue;
            }
            for &n in &call.produced {
                self.channel_map.insert(n, call.channel.clone());
            }
        }
        let derived = infer_links_since_cached(
            doc,
            trace,
            self.calls_seen,
            &self.rules,
            &self.opts,
            &self.channel_map,
            &self.cache,
        );
        let mut links = Vec::with_capacity(derived.len());
        for l in derived {
            if self.graph.merge_link(&l) {
                links.push(l);
            }
        }
        self.folded_total += upto - self.calls_seen;
        self.calls_seen = upto;
        let sources = self.absorb_sources(doc);
        if self.opts.metrics {
            LIVE_DELTAS.inc();
            LIVE_LINKS.add(links.len() as u64);
        }
        drop(span);
        LiveDelta { links, sources }
    }

    /// Fold in every not-yet-observed call of `trace` at once — used when a
    /// maintainer is attached to an execution that already made progress
    /// (e.g. a checkpointed run being resumed), and to pick up Source rows
    /// (initial acquisition resources) that exist before any call runs.
    pub fn catch_up(&mut self, doc: &Document, trace: &ExecutionTrace) -> LiveDelta {
        if trace.calls.len() > self.calls_seen {
            self.observe_call(doc, trace, trace.calls.len() - 1)
        } else {
            LiveDelta {
                links: Vec::new(),
                sources: self.absorb_sources(doc),
            }
        }
    }

    /// Fold in the calls of `trace` starting at segment index `first` — the
    /// multi-segment variant of [`LiveProvenance::catch_up`]. A platform
    /// that accumulates one growing trace across several runs of the same
    /// execution passes `calls_folded()` as `first` so only the calls no
    /// segment has reported yet are inferred.
    pub fn catch_up_from(
        &mut self,
        doc: &Document,
        trace: &ExecutionTrace,
        first: usize,
    ) -> LiveDelta {
        self.calls_seen = first.min(trace.calls.len());
        self.catch_up(doc, trace)
    }

    /// Start a new trace segment: subsequent [`LiveProvenance::observe_call`]
    /// indices count from 0 again while the accumulated graph, Source
    /// table, channel map and pattern cache are all retained. Used when one
    /// logical execution is recorded as several [`ExecutionTrace`]s (a
    /// resumed run's outcome trace restarts at index 0).
    pub fn new_segment(&mut self) {
        self.calls_seen = 0;
    }

    /// Scan the document's resource log past the last scanned position and
    /// append every labelled registration as a Source row — exactly the
    /// rows `ProvenanceGraph::from_view` lists, in the same order.
    fn absorb_sources(&mut self, doc: &Document) -> Vec<SourceEntry> {
        let nodes = doc.resource_nodes();
        let mut fresh = Vec::new();
        for &node in &nodes[self.resources_seen.min(nodes.len())..] {
            if let Some(meta) = doc.resource(node) {
                if let Some(label) = &meta.label {
                    fresh.push(SourceEntry {
                        node,
                        uri: meta.uri.clone(),
                        label: label.clone(),
                    });
                }
            }
        }
        self.resources_seen = nodes.len();
        self.sources.extend(fresh.iter().cloned());
        fresh
    }

    /// The accumulated link store.
    pub fn graph(&self) -> &CompactGraph {
        &self.graph
    }

    /// The accumulated Source table, in registration order.
    pub fn sources(&self) -> &[SourceEntry] {
        &self.sources
    }

    /// The accumulated links as a sorted edge list.
    pub fn links(&self) -> Vec<ProvLink> {
        self.graph.expand()
    }

    /// Number of links merged so far.
    pub fn link_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Calls of the current segment folded in so far.
    pub fn calls_seen(&self) -> usize {
        self.calls_seen
    }

    /// Calls folded in across *all* segments since construction.
    pub fn calls_folded(&self) -> usize {
        self.folded_total
    }

    /// Materialise the equivalent batch-style [`ProvenanceGraph`]: same
    /// Source rows, same sorted link set as `infer_provenance` over the
    /// full trace.
    pub fn to_provenance_graph(&self) -> ProvenanceGraph {
        ProvenanceGraph {
            sources: self.sources.clone(),
            links: self.graph.expand(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{infer_provenance, InheritMode, Strategy};
    use crate::paper_example;

    fn run_live(opts: EngineOptions) -> (LiveProvenance, ProvenanceGraph) {
        let (doc, trace, rules) = paper_example::build();
        let mut live = LiveProvenance::new(rules.clone(), opts);
        // posthoc replay of the call stream: the final document is a valid
        // observation state for every call (posthoc equivalence)
        live.catch_up(&doc, &ExecutionTrace::default());
        for k in 0..trace.calls.len() {
            live.observe_call(&doc, &trace, k);
        }
        let batch = infer_provenance(&doc, &trace, &rules, &opts);
        (live, batch)
    }

    #[test]
    fn live_union_equals_batch_on_paper_example() {
        for strategy in [
            Strategy::StateReplay { materialize: false },
            Strategy::TemporalRewrite,
            Strategy::GroupedSinglePass,
        ] {
            for inherit in [
                InheritMode::Off,
                InheritMode::PatternRewrite,
                InheritMode::GraphPropagation,
            ] {
                let opts = EngineOptions {
                    strategy,
                    inherit,
                    ..Default::default()
                };
                let (live, batch) = run_live(opts);
                assert_eq!(live.links(), batch.links, "{strategy:?}/{inherit:?}");
                assert_eq!(
                    live.to_provenance_graph().sources,
                    batch.sources,
                    "{strategy:?}/{inherit:?}"
                );
            }
        }
    }

    #[test]
    fn observe_is_idempotent() {
        let (doc, trace, rules) = paper_example::build();
        let mut live = LiveProvenance::new(rules, EngineOptions::default());
        let d1 = live.observe_call(&doc, &trace, 0);
        assert!(!d1.sources.is_empty());
        let d2 = live.observe_call(&doc, &trace, 0);
        assert!(d2.is_empty());
        assert_eq!(live.calls_seen(), 1);
    }

    #[test]
    fn mid_execution_queries_see_the_prefix_graph() {
        let (doc, trace, rules) = paper_example::build();
        let mut live = LiveProvenance::new(rules, EngineOptions::default());
        live.observe_call(&doc, &trace, 0);
        live.observe_call(&doc, &trace, 1);
        // after the LanguageExtractor call, r6 ← r5 is queryable while the
        // Translator has not run yet
        assert_eq!(live.graph().dependencies("r6"), vec!["r5"]);
        assert!(live.graph().dependents("r8").is_empty());
        live.observe_call(&doc, &trace, 2);
        assert!(live.graph().dependencies("r8").contains(&"r4"));
        let label_of = |uri: &str| live.sources().iter().find(|s| s.uri == uri).map(|s| &s.label);
        assert_eq!(label_of("r8").map(|l| l.service.as_str()), Some("Translator"));
    }

    #[test]
    fn catch_up_skips_straight_to_the_end() {
        let (doc, trace, rules) = paper_example::build();
        let opts = EngineOptions::default();
        let mut live = LiveProvenance::new(rules.clone(), opts);
        let delta = live.catch_up(&doc, &trace);
        let batch = infer_provenance(&doc, &trace, &rules, &opts);
        assert_eq!(delta.links, batch.links);
        assert_eq!(live.links(), batch.links);
        assert!(live.catch_up(&doc, &trace).is_empty());
    }
}
