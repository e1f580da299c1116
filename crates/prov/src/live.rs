//! Live provenance — per-call incremental inference.
//!
//! The paper's Request Manager computes provenance *on demand* over the
//! final document. [`LiveProvenance`] turns that posthoc computation into a
//! streaming one: after every committed service call it derives just that
//! call's links ([`infer_links_since_cached`]) and returns them, with the
//! Source rows registered since, as a [`LiveDelta`]. It keeps no link store
//! of its own: each delta is folded into the one graph readers query, an
//! [`EpochSnapshot`](crate::EpochSnapshot) (through
//! [`EpochSnapshot::fold`](crate::EpochSnapshot::fold)), so "what does
//! resource R depend on?" is answerable *while the workflow is still
//! running*.
//! Soundness rests on the append-only delta law pinned in the engine tests
//! (`links(0..n) = links(0..k) ∪ links(k..n)`): earlier calls' links are
//! never invalidated by later appends, so the union of the per-call deltas
//! is exactly the batch graph.
//!
//! A producer serves one run. It is created once its snapshot already
//! covers the run's starting document and prior trace, positioned there
//! ([`LiveProvenance::starting_at`]), and dropped when the run ends; the
//! run's own calls are observed from index 0 of the run's trace.
//!
//! Per-delta work never re-infers calls already folded:
//!
//! * the **channel map** (produced node → control-flow channel) is updated
//!   incrementally from the newly observed calls instead of being rebuilt
//!   from the whole trace — the rebuild is what made a naive
//!   `infer_links_since` loop O(n²) over a live run, and the
//!   `prov.trace.channel_map.builds` counter pins its absence. Positioning
//!   a producer feeds the prior calls through the same update once per run;
//! * one [`PatternCache`] is carried across the run's deltas, so
//!   evaluations keyed to unchanged document states are reused (the replay
//!   strategy's input state of call *k+1* is the output state of call *k*);
//! * the delta itself covers only the new calls — historical calls are
//!   never re-inferred — and the fold touches only the index rows of the
//!   delta's endpoints.
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
//! ways a live run has already missed; workloads that register
//! resources when their nodes are created (every service in this repo) are
//! unaffected. See DESIGN.md §9.

use std::collections::HashMap;

use weblab_obs::{Counter, Histogram, Span};
use weblab_xml::{Document, NodeId};

use crate::algebra::ProvLink;
use crate::cache::PatternCache;
use crate::engine::{infer_links_since_cached, EngineOptions};
use crate::graph::SourceEntry;
use crate::ruleset::RuleSet;
use crate::trace::{CallRecord, ExecutionTrace};

/// Deltas observed (one per committed call).
static LIVE_DELTAS: Counter = Counter::new("live.deltas");
/// Links carried by deltas.
static LIVE_LINKS: Counter = Counter::new("live.links");
/// Wall time of one delta's inference, in nanoseconds.
static LIVE_MERGE_NS: Histogram = Histogram::new("live.merge_ns");

/// The increment contributed by one observed delta, or by a snapshot
/// refresh: links and the Source-table rows registered since the previous
/// delta (including promotions and initial acquisition resources —
/// everything `ProvenanceGraph::from_view` would list).
#[derive(Debug, Clone, Default)]
pub struct LiveDelta {
    /// The dependency links the delta's calls derive, sorted. The fold
    /// skips any the snapshot already holds.
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

/// The per-run delta producer of one live execution: inference state only
/// (rules, options, pattern cache, channel map) and its position in the
/// run's trace and in the document's resource log.
#[derive(Debug)]
pub struct LiveProvenance {
    rules: RuleSet,
    opts: EngineOptions,
    /// Pattern cache carried across the run's deltas.
    cache: PatternCache,
    /// Incrementally maintained produced-node → channel map (never rebuilt
    /// from the whole trace).
    channel_map: HashMap<NodeId, String>,
    /// Calls of the run's trace already observed.
    calls_seen: usize,
    /// Length of the document's resource log already scanned for Source
    /// rows.
    resources_seen: usize,
}

impl LiveProvenance {
    /// A producer inferring deltas under `rules` with `opts`, positioned at
    /// an empty document and trace: its first delta lists every Source row
    /// registered so far.
    pub fn new(rules: RuleSet, opts: EngineOptions) -> Self {
        LiveProvenance {
            rules,
            opts,
            cache: PatternCache::new(),
            channel_map: HashMap::new(),
            calls_seen: 0,
            resources_seen: 0,
        }
    }

    /// Position the producer where its snapshot already stands: past
    /// `doc`'s registered resources and past the calls of `prior`, the
    /// execution's trace before this run (whose channels it records).
    pub fn starting_at(mut self, doc: &Document, prior: &ExecutionTrace) -> Self {
        self.extend_channel_map(&prior.calls);
        self.resources_seen = doc.resource_nodes().len();
        self
    }

    /// Derive the committed call `trace.calls[call_idx]` (and any earlier
    /// calls not yet observed), given the document state at its completion.
    /// Idempotent: re-observing an already-observed index yields an empty
    /// delta.
    ///
    /// This is the orchestrator call-hook entry point: the hook fires only
    /// for *committed* calls — rolled-back and skipped attempts never reach
    /// the producer, so they leave zero residue in the snapshot.
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
        let span =
            (self.opts.metrics && weblab_obs::enabled()).then(|| Span::start(&LIVE_MERGE_NS));
        self.extend_channel_map(&trace.calls[self.calls_seen..upto]);
        let links = infer_links_since_cached(
            doc,
            trace,
            self.calls_seen,
            &self.rules,
            &self.opts,
            &self.channel_map,
            &self.cache,
        );
        self.calls_seen = upto;
        let sources = self.absorb_sources(doc);
        if self.opts.metrics {
            LIVE_DELTAS.inc();
            LIVE_LINKS.add(links.len() as u64);
        }
        drop(span);
        LiveDelta { links, sources }
    }

    /// O(delta) channel-map maintenance: only the given calls' produced
    /// nodes are inserted.
    fn extend_channel_map(&mut self, calls: &[CallRecord]) {
        for call in calls.iter().filter(|c| !c.channel.is_empty()) {
            for &n in &call.produced {
                self.channel_map.insert(n, call.channel.clone());
            }
        }
    }

    /// Scan the document's resource log past the last scanned position and
    /// return every labelled registration as a Source row — exactly the
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
        fresh
    }

    /// Calls of the run's trace observed so far.
    pub fn calls_seen(&self) -> usize {
        self.calls_seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{infer_provenance, InheritMode, Strategy};
    use crate::graph::ProvenanceGraph;
    use crate::index::EpochSnapshot;
    use crate::paper_example;

    /// A snapshot of `doc` before any call: its Source rows folded in.
    fn starting_snapshot(doc: &Document) -> EpochSnapshot {
        let mut snap = EpochSnapshot::empty();
        let delta = LiveDelta {
            links: Vec::new(),
            sources: snap.missing_sources(doc),
        };
        snap.fold(&delta, 0);
        snap
    }

    fn run_live(opts: EngineOptions) -> (EpochSnapshot, ProvenanceGraph) {
        let (doc, trace, rules) = paper_example::build();
        // posthoc replay of the call stream: the final document is a valid
        // observation state for every call (posthoc equivalence)
        let mut snap = starting_snapshot(&doc);
        let mut live =
            LiveProvenance::new(rules.clone(), opts).starting_at(&doc, &ExecutionTrace::default());
        for k in 0..trace.calls.len() {
            snap.fold(&live.observe_call(&doc, &trace, k), k + 1);
        }
        let batch = infer_provenance(&doc, &trace, &rules, &opts);
        (snap, batch)
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
                assert_eq!(live.graph.links, batch.links, "{strategy:?}/{inherit:?}");
                assert_eq!(
                    live.graph.sources, batch.sources,
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
        let mut snap = EpochSnapshot::empty();
        snap.fold(&live.observe_call(&doc, &trace, 0), 1);
        snap.fold(&live.observe_call(&doc, &trace, 1), 2);
        // after the LanguageExtractor call, r6 ← r5 is queryable while the
        // Translator has not run yet
        assert_eq!(snap.index.dependencies_of("r6"), vec!["r5"]);
        assert!(snap.index.dependents_of("r8").is_empty());
        snap.fold(&live.observe_call(&doc, &trace, 2), 3);
        assert!(snap.index.dependencies_of("r8").contains(&"r4"));
        let label = snap.index.label_of("r8");
        assert_eq!(label.map(|l| l.service.as_str()), Some("Translator"));
    }

    #[test]
    fn a_positioned_producer_delivers_only_what_follows_its_start() {
        let (doc, trace, rules) = paper_example::build();
        let opts = EngineOptions::default();
        // a snapshot already holding the first call, and a producer for a
        // run that continues from there
        let first = ExecutionTrace {
            calls: trace.calls[..1].to_vec(),
        };
        let mut snap = starting_snapshot(&doc);
        let mut warm =
            LiveProvenance::new(rules.clone(), opts).starting_at(&doc, &ExecutionTrace::default());
        snap.fold(&warm.observe_call(&doc, &first, 0), 1);
        let rest = ExecutionTrace {
            calls: trace.calls[1..].to_vec(),
        };
        let mut live = LiveProvenance::new(rules.clone(), opts).starting_at(&doc, &first);
        for k in 0..rest.calls.len() {
            let delta = live.observe_call(&doc, &rest, k);
            assert!(delta.sources.is_empty(), "the start already held every row");
            snap.fold(&delta, 2 + k);
        }
        let batch = infer_provenance(&doc, &trace, &rules, &opts);
        assert_eq!(snap.graph.links, batch.links);
        assert_eq!(snap.graph.sources, batch.sources);
        assert_eq!(
            (snap.calls, snap.epoch),
            (trace.calls.len(), 1 + trace.calls.len() as u64)
        );
    }
}
