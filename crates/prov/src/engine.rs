//! Provenance inference strategies — Definitions 8/9 and Section 4.
//!
//! Three interchangeable strategies compute the same provenance graph:
//!
//! * [`Strategy::StateReplay`] — the paper's "simple, but also inefficient
//!   solution": reconstruct the document states `d_{i-1}`, `d_i` around
//!   every call and apply Definition 8/9 directly. With
//!   `materialize: true` each state is deep-copied first, modelling an
//!   implementation that fetches per-state snapshots from a repository.
//! * [`Strategy::TemporalRewrite`] — the paper's main proposal: rewrite
//!   each rule with temporal constraints (`[@t < t_i]` on the source,
//!   `[@s = s and @t = t_i]` on the target) and evaluate both patterns on
//!   the **final** document, once per call.
//! * [`Strategy::GroupedSinglePass`] — the factorised variant hinted at in
//!   Section 4's discussion of optimisation opportunities: evaluate each
//!   rule **once** per service on the final document, bucket the target
//!   embeddings by producing call, and filter the shared source table by
//!   timestamp per bucket.
//!
//! All three support *inherited provenance* (Section 4), either by the
//! paper's `descendant-or-self::*` pattern extension or by a posthoc graph
//! propagation that is proven equivalent in the property-test suite.
//!
//! Every strategy decomposes into independent evaluation units — (call ×
//! rule) for the per-call strategies, (service × rule) for the grouped one
//! — which the [`crate::executor`] fans out across scoped threads when
//! [`EngineOptions::parallelism`] asks for it, and which share one
//! [`PatternCache`] plus one lazily built [`ElementIndex`]. The temporal
//! strategies exploit a structural fact of the rewriting
//! (`add_source_constraints` / `add_target_constraints` only ever append a
//! predicate on the **last** step, testing the result node's effective
//! time/label): instead of evaluating a freshly rewritten pattern per call,
//! they evaluate each rule's *unconstrained* patterns once, cache the
//! tables, and recover every call's result by filtering shared rows.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::OnceLock;

use weblab_obs::Counter;
use weblab_xml::{DocView, Document, NodeId, Timestamp};
use weblab_xpath::{
    effective_label, effective_time, eval_pattern, extend_descendant_or_self, BindingRow,
    ElementIndex,
};

use crate::algebra::{join_rows, join_tables, join_tables_where, JoinAlgorithm, ProvLink};
use crate::cache::PatternCache;
use crate::executor::{run_units, Parallelism};
use crate::graph::ProvenanceGraph;
use crate::rule::MappingRule;
use crate::ruleset::RuleSet;
use crate::trace::{channels_compatible, CallRecord, ExecutionTrace};

/// Evaluation units dispatched by `StateReplay` ((call × rule) each).
static REPLAY_UNITS: Counter = Counter::new("prov.engine.replay.units");
/// Evaluation units dispatched by `TemporalRewrite` ((call × rule) each).
static TEMPORAL_UNITS: Counter = Counter::new("prov.engine.temporal.units");
/// Evaluation units dispatched by `GroupedSinglePass` ((service × rule)).
static GROUPED_UNITS: Counter = Counter::new("prov.engine.grouped.units");
/// Links produced by the strategy units, before sort/dedup/propagation.
static LINKS_DERIVED: Counter = Counter::new("prov.engine.links.derived");
/// Links emitted after post-processing (inheritance, sort, dedup).
static LINKS_EMITTED: Counter = Counter::new("prov.engine.links.emitted");

/// Which evaluation strategy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Per-call evaluation on reconstructed intermediate states.
    StateReplay {
        /// Deep-copy each state before evaluating (the truly naive
        /// baseline); `false` evaluates on zero-copy state views.
        materialize: bool,
    },
    /// Temporal rewriting, evaluated on the final state once per call.
    TemporalRewrite,
    /// One evaluation per rule per service; per-call results recovered by
    /// bucketing target embeddings on their producing label.
    GroupedSinglePass,
}

/// How inherited provenance links (Section 4) are generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InheritMode {
    /// Only the explicit rule endpoints are linked.
    #[default]
    Off,
    /// Extend patterns with a `descendant-or-self::*` step before applying
    /// temporal constraints — the paper's formulation.
    PatternRewrite,
    /// Compute explicit links first, then propagate each link to nested
    /// resources (same-call descendants on the generated side, temporally
    /// admissible descendants on the used side).
    GraphPropagation,
}

/// Options bundle for [`infer_provenance`].
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions {
    /// Evaluation strategy.
    pub strategy: Strategy,
    /// Inherited-provenance mode.
    pub inherit: InheritMode,
    /// Join algorithm for the Definition 8 algebra.
    pub join: JoinAlgorithm,
    /// Build an element-name index over the final document once per run
    /// and use it for every root-anchored descendant step (the "existing
    /// query optimization techniques … indexing" of Section 6). Disable
    /// for the X2 ablation.
    pub use_index: bool,
    /// How evaluation units are scheduled: sequentially (the default), or
    /// across a scoped-thread worker pool. Output is byte-identical either
    /// way.
    pub parallelism: Parallelism,
    /// Feed the engine-level `weblab_obs` counters (units dispatched, links
    /// derived/emitted). A second gate besides the global
    /// `weblab_obs::enable()` switch: a caller running several inferences
    /// can exclude e.g. warm-up runs from the report without toggling
    /// collection process-wide.
    pub metrics: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            strategy: Strategy::TemporalRewrite,
            inherit: InheritMode::Off,
            join: JoinAlgorithm::Hash,
            use_index: true,
            parallelism: Parallelism::Sequential,
            metrics: true,
        }
    }
}

/// Read-only evaluation state shared by every unit of one inference run:
/// the pattern cache (borrowed, so a live producer can carry one cache
/// across many per-delta runs), and the element index built lazily by
/// whichever worker first needs it (all others block on the `OnceLock` and
/// then share it read-only).
struct SharedEval<'a> {
    use_index: bool,
    index: OnceLock<Option<ElementIndex>>,
    cache: &'a PatternCache,
}

impl<'a> SharedEval<'a> {
    fn new(use_index: bool, cache: &'a PatternCache) -> Self {
        SharedEval {
            use_index,
            index: OnceLock::new(),
            cache,
        }
    }

    /// The shared index over `view` (the final document — its index is
    /// exact for every earlier state view), or `None` when disabled.
    fn index(&self, view: &DocView<'_>) -> Option<&ElementIndex> {
        self.index
            .get_or_init(|| self.use_index.then(|| ElementIndex::build(view)))
            .as_ref()
    }
}

/// Definition 8: apply a mapping rule to two document states, producing
/// links from resources of `target_view` to resources of `source_view`.
pub fn document_state_provenance(
    rule: &MappingRule,
    source_view: &DocView<'_>,
    target_view: &DocView<'_>,
    join: JoinAlgorithm,
) -> Vec<ProvLink> {
    let s = eval_pattern(&rule.source, source_view);
    let t = eval_pattern(&rule.target, target_view);
    join_tables(&s, &t, join)
}

/// Definition 9: the direct provenance links of one service call — the
/// subset of `M(d_{i-1}, d_i)` whose generated endpoint belongs to
/// `out(c_i)`.
pub fn service_call_provenance(
    rule: &MappingRule,
    doc: &Document,
    call: &CallRecord,
    join: JoinAlgorithm,
) -> Vec<ProvLink> {
    let links = document_state_provenance(
        rule,
        &doc.view_at(call.input),
        &doc.view_at(call.output),
        join,
    );
    let produced: HashSet<NodeId> = call.produced.iter().copied().collect();
    links
        .into_iter()
        .filter(|l| produced.contains(&l.from))
        .collect()
}

/// Infer the full provenance graph of an execution.
pub fn infer_provenance(
    doc: &Document,
    trace: &ExecutionTrace,
    rules: &RuleSet,
    opts: &EngineOptions,
) -> ProvenanceGraph {
    let final_view = doc.view();
    let mut graph = ProvenanceGraph::from_view(&final_view);
    graph.add_links(infer_links_since(doc, trace, 0, rules, opts));
    graph
}

/// Infer only the links contributed by calls `trace.calls[first_call..]` —
/// the *incremental* entry point: a Request Manager that already
/// materialised a graph re-derives just the delta when new calls arrive,
/// instead of re-evaluating every rule for every historical call.
///
/// Correctness rests on the append-only model: earlier calls' links are
/// unaffected by later appends (their target constraint pins `@s`/`@t`,
/// and their sources predate them), so `links(0..n) = links(0..k) ∪
/// links(k..n)` — a property pinned by tests.
pub fn infer_links_since(
    doc: &Document,
    trace: &ExecutionTrace,
    first_call: usize,
    rules: &RuleSet,
    opts: &EngineOptions,
) -> Vec<ProvLink> {
    // channel visibility depends on every call of the execution
    let channel_map = trace.channel_map();
    let cache = PatternCache::new();
    infer_links_since_cached(doc, trace, first_call, rules, opts, &channel_map, &cache)
}

/// [`infer_links_since`] with caller-owned evaluation state: the channel
/// map and the pattern cache are passed in instead of being rebuilt per
/// invocation. This is the live-maintenance entry point
/// ([`crate::live::LiveProvenance`]): a producer deriving one delta per
/// call keeps the channel map incrementally updated (O(delta) instead of
/// the O(trace) rebuild `trace.channel_map()` performs) and carries one
/// [`PatternCache`] across a run's deltas so evaluations against unchanged
/// document states are reused.
///
/// The caller's `channel_map` must cover at least every produced node of
/// `trace.calls[..first_call + processed]` — for a prefix map this is
/// equivalent to the full map because a call's link targets (and their
/// ancestors) always predate the call.
#[allow(clippy::too_many_arguments)]
pub fn infer_links_since_cached(
    doc: &Document,
    trace: &ExecutionTrace,
    first_call: usize,
    rules: &RuleSet,
    opts: &EngineOptions,
    channel_map: &HashMap<NodeId, String>,
    cache: &PatternCache,
) -> Vec<ProvLink> {
    let calls = &trace.calls[first_call.min(trace.calls.len())..];
    match opts.strategy {
        Strategy::StateReplay { materialize } => {
            replay_links(doc, calls, channel_map, rules, opts, materialize, cache)
        }
        Strategy::TemporalRewrite => temporal_links(doc, calls, channel_map, rules, opts, cache),
        Strategy::GroupedSinglePass => grouped_links(doc, calls, channel_map, rules, opts, cache),
    }
}

/// Apply the inherit mode's pattern transformation to a rule.
fn effective_rule(rule: &MappingRule, inherit: InheritMode) -> MappingRule {
    match inherit {
        InheritMode::PatternRewrite => MappingRule {
            name: rule.name.clone(),
            source: extend_descendant_or_self(&rule.source),
            target: extend_descendant_or_self(&rule.target),
        },
        _ => rule.clone(),
    }
}

/// Is `node`'s ancestor-or-self chain intersecting `produced`? Used to
/// filter extended (descendant-or-self) matches against `out(c_i)`.
fn within_produced(view: &DocView<'_>, node: NodeId, produced: &HashSet<NodeId>) -> bool {
    if produced.contains(&node) {
        return true;
    }
    view.ancestors(node).any(|a| produced.contains(&a))
}

/// Effective channel of a node: its own entry in the produced-node map,
/// else the nearest such ancestor's, else the root channel `""`.
fn effective_channel<'m>(
    view: &DocView<'_>,
    node: NodeId,
    map: &'m HashMap<NodeId, String>,
) -> &'m str {
    if let Some(c) = map.get(&node) {
        return c;
    }
    for anc in view.ancestors(node) {
        if let Some(c) = map.get(&anc) {
            return c;
        }
    }
    ""
}

/// Channel-visibility filter for parallel executions (Section 8
/// extension): a call can only have used resources produced on a channel
/// that is an ancestor or descendant of its own — sibling branches are
/// mutually invisible even when their timestamps interleave.
pub fn filter_links_by_channel(
    view: &DocView<'_>,
    links: Vec<ProvLink>,
    call_channel: &str,
    channel_map: &HashMap<NodeId, String>,
) -> Vec<ProvLink> {
    if channel_map.is_empty() {
        return links;
    }
    links
        .into_iter()
        .filter(|l| {
            channels_compatible(call_channel, effective_channel(view, l.to, channel_map))
        })
        .collect()
}

fn replay_links(
    doc: &Document,
    calls: &[CallRecord],
    channel_map: &HashMap<NodeId, String>,
    rules: &RuleSet,
    opts: &EngineOptions,
    materialize: bool,
    cache: &PatternCache,
) -> Vec<ProvLink> {
    let final_view = doc.view();
    // the final-document index is exact for every earlier state view;
    // materialized copies have their own arenas, so no index for them
    let shared = SharedEval::new(opts.use_index && !materialize, cache);
    let units: Vec<(&CallRecord, &MappingRule)> = calls
        .iter()
        .flat_map(|c| rules.rules_for(&c.service).iter().map(move |r| (c, r)))
        .collect();
    let out = run_units(opts.parallelism, units.len(), |i| {
        let (call, rule) = units[i];
        let produced: HashSet<NodeId> = call.produced.iter().copied().collect();
        // The input state's structure with the output state's uri function:
        // promotions performed during the call (node 3 → r3 in Figure 4)
        // identify source resources exactly as the posthoc strategies see
        // them on the final document.
        let input_mark = call.input.with_resources_of(call.output);
        let rule = effective_rule(rule, opts.inherit);
        let links = if materialize {
            let before = doc.materialize_state(input_mark);
            let after = doc.materialize_state(call.output);
            document_state_provenance(&rule, &before.view(), &after.view(), opts.join)
        } else {
            let index = shared.index(&final_view);
            let s = shared.cache.eval(&rule.source, &doc.view_at(input_mark), index);
            let t = shared.cache.eval(&rule.target, &doc.view_at(call.output), index);
            join_tables(&s, &t, opts.join)
        };
        let view = doc.view_at(call.output);
        let links: Vec<ProvLink> = links
            .into_iter()
            .filter(|l| match opts.inherit {
                InheritMode::PatternRewrite => within_produced(&view, l.from, &produced),
                _ => produced.contains(&l.from),
            })
            .collect();
        filter_links_by_channel(&final_view, links, &call.channel, channel_map)
    });
    if opts.metrics {
        REPLAY_UNITS.add(units.len() as u64);
    }
    finish(out, doc, opts)
}

fn temporal_links(
    doc: &Document,
    calls: &[CallRecord],
    channel_map: &HashMap<NodeId, String>,
    rules: &RuleSet,
    opts: &EngineOptions,
    cache: &PatternCache,
) -> Vec<ProvLink> {
    let final_view = doc.view();
    let shared = SharedEval::new(opts.use_index, cache);
    let units: Vec<(&CallRecord, &MappingRule)> = calls
        .iter()
        .flat_map(|c| rules.rules_for(&c.service).iter().map(move |r| (c, r)))
        .collect();
    let out = run_units(opts.parallelism, units.len(), |i| {
        let (call, rule) = units[i];
        let rule = effective_rule(rule, opts.inherit);
        let index = shared.index(&final_view);
        // One unconstrained evaluation per rule pattern, shared by every
        // call through the cache. Filtering its rows *is* the temporal
        // rewriting: `add_source_constraints` appends `[@t < t_i]` and
        // `add_target_constraints` appends `[@s = s and @t = t_i]` to the
        // last step only, and both test the row's result node.
        let s_all = shared.cache.eval(&rule.source, &final_view, index);
        let t_all = shared.cache.eval(&rule.target, &final_view, index);
        let links = join_tables_where(
            &s_all,
            &t_all,
            opts.join,
            |r| effective_time(&final_view, r.node) < call.time,
            |r| {
                effective_label(&final_view, r.node)
                    .map(|l| l.service == call.service && l.time == call.time)
                    .unwrap_or(false)
            },
        );
        filter_links_by_channel(&final_view, links, &call.channel, channel_map)
    });
    if opts.metrics {
        TEMPORAL_UNITS.add(units.len() as u64);
    }
    finish(out, doc, opts)
}

fn grouped_links(
    doc: &Document,
    calls: &[CallRecord],
    channel_map: &HashMap<NodeId, String>,
    rules: &RuleSet,
    opts: &EngineOptions,
    cache: &PatternCache,
) -> Vec<ProvLink> {
    let final_view = doc.view();
    let shared = SharedEval::new(opts.use_index, cache);
    let channel_of_call: HashMap<Timestamp, &str> = calls
        .iter()
        .map(|c| (c.time, c.channel.as_str()))
        .collect();
    // calls grouped by service, with their instants
    let mut calls_by_service: BTreeMap<&str, HashSet<Timestamp>> = BTreeMap::new();
    for call in calls {
        calls_by_service
            .entry(call.service.as_str())
            .or_default()
            .insert(call.time);
    }
    let units: Vec<(&str, &HashSet<Timestamp>, &MappingRule)> = calls_by_service
        .iter()
        .flat_map(|(service, times)| {
            rules
                .rules_for(service)
                .iter()
                .map(move |r| (*service, times, r))
        })
        .collect();
    let out = run_units(opts.parallelism, units.len(), |i| {
        let (service, times, rule) = units[i];
        let rule = effective_rule(rule, opts.inherit);
        let index = shared.index(&final_view);
        // one evaluation per rule on the final state
        let src_all = shared.cache.eval(&rule.source, &final_view, index);
        let tgt_all = shared.cache.eval(&rule.target, &final_view, index);
        // bucket target rows by their producing instant — borrowed rows,
        // never copies
        let mut buckets: BTreeMap<Timestamp, Vec<&BindingRow>> = BTreeMap::new();
        for row in &tgt_all.rows {
            let Some(label) = effective_label(&final_view, row.node) else {
                continue;
            };
            if label.service != service || !times.contains(&label.time) {
                continue;
            }
            buckets.entry(label.time).or_default().push(row);
        }
        // per call instant, filter the shared source table by time
        let mut out = Vec::new();
        for (time, t_rows) in buckets {
            let s_rows: Vec<&BindingRow> = src_all
                .rows
                .iter()
                .filter(|r| effective_time(&final_view, r.node) < time)
                .collect();
            let call_channel = channel_of_call.get(&time).copied().unwrap_or("");
            out.extend(filter_links_by_channel(
                &final_view,
                join_rows(&src_all, &s_rows, &tgt_all, &t_rows, opts.join),
                call_channel,
                channel_map,
            ));
        }
        out
    });
    if opts.metrics {
        GROUPED_UNITS.add(units.len() as u64);
    }
    finish(out, doc, opts)
}

/// Common post-processing: optional graph propagation, sort, dedup.
fn finish(mut links: Vec<ProvLink>, doc: &Document, opts: &EngineOptions) -> Vec<ProvLink> {
    if opts.metrics {
        LINKS_DERIVED.add(links.len() as u64);
    }
    if opts.inherit == InheritMode::GraphPropagation {
        links = propagate_inherited(&doc.view(), &links);
    }
    links.sort();
    links.dedup();
    if opts.metrics {
        LINKS_EMITTED.add(links.len() as u64);
    }
    links
}

/// Posthoc propagation equivalent to the pattern-level
/// `descendant-or-self::*` extension:
///
/// * generated side: identified descendants that were produced by the same
///   call as the original endpoint (their effective label matches);
/// * used side: identified descendants whose effective creation instant is
///   before the generating call's instant (matching the `[@t < t_i]`
///   constraint the pattern rewrite applies after extension).
pub fn propagate_inherited(view: &DocView<'_>, links: &[ProvLink]) -> Vec<ProvLink> {
    let mut out: HashSet<ProvLink> = links.iter().cloned().collect();
    for l in links {
        let from_label = effective_label(view, l.from).cloned();
        let gen_time = from_label.as_ref().map(|c| c.time);
        let mut froms = vec![l.from];
        froms.extend(view.descendants(l.from).skip(1).filter(|n| {
            view.uri(*n).is_some()
                && effective_label(view, *n).cloned() == from_label
        }));
        let mut tos = vec![l.to];
        tos.extend(view.descendants(l.to).skip(1).filter(|n| {
            view.uri(*n).is_some()
                && gen_time
                    .map(|t| effective_time(view, *n) < t)
                    .unwrap_or(true)
        }));
        for &f in &froms {
            for &t in &tos {
                if f == t {
                    continue;
                }
                out.insert(ProvLink {
                    from: f,
                    from_uri: view.uri(f).unwrap_or_default().to_string(),
                    to: t,
                    to_uri: view.uri(t).unwrap_or_default().to_string(),
                });
            }
        }
    }
    let mut v: Vec<ProvLink> = out.into_iter().collect();
    v.sort();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use weblab_xml::CallLabel;

    /// The paper's running example: document d₃ of Figure 4 with the trace
    /// of Figure 1, plus the Figure 3 mappings. Shared with integration
    /// tests through `weblab-prov::paper_example`.
    fn setup() -> (Document, ExecutionTrace, RuleSet) {
        crate::paper_example::build()
    }

    #[test]
    fn example6_document_state_provenance() {
        // M1 : ϕ1 ⇒ ϕ3 applied to (d1, d2) yields 6 → 5;
        // M2 : ϕ4 ⇒ ϕ4 applied to (d2, d3) yields 4 → 4 and 8 → 4.
        let (doc, trace, _) = setup();
        let d1 = trace.calls[0].output;
        let d2 = trace.calls[1].output;
        let d3 = trace.calls[2].output;

        let m1 = MappingRule::parse("//T[$x := @id]/C => //T[$x := @id]/A[L]").unwrap();
        let links = document_state_provenance(
            &m1,
            &doc.view_at(d1),
            &doc.view_at(d2),
            JoinAlgorithm::Hash,
        );
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].from_uri, "r6");
        assert_eq!(links[0].to_uri, "r5");

        let m2 = MappingRule::parse("/R[$x := @id]//T[A/L] => /R[$x := @id]//T[A/L]").unwrap();
        let links = document_state_provenance(
            &m2,
            &doc.view_at(d2),
            &doc.view_at(d3),
            JoinAlgorithm::Hash,
        );
        let mut pairs: Vec<(String, String)> = links
            .iter()
            .map(|l| (l.from_uri.clone(), l.to_uri.clone()))
            .collect();
        pairs.sort();
        assert_eq!(
            pairs,
            vec![
                ("r4".to_string(), "r4".to_string()),
                ("r8".to_string(), "r4".to_string())
            ]
        );
    }

    #[test]
    fn example7_service_call_provenance_filters_to_out() {
        // joining M2(d2, d3) with out(c3) keeps only 8 → 4
        let (doc, trace, _) = setup();
        let m2 = MappingRule::parse("/R[$x := @id]//T[A/L] => /R[$x := @id]//T[A/L]").unwrap();
        let c3 = &trace.calls[2];
        let links = service_call_provenance(&m2, &doc, c3, JoinAlgorithm::Hash);
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].from_uri, "r8");
        assert_eq!(links[0].to_uri, "r4");
    }

    #[test]
    fn all_strategies_agree_on_paper_example() {
        let (doc, trace, rules) = setup();
        let mut results = Vec::new();
        for strategy in [
            Strategy::StateReplay { materialize: false },
            Strategy::StateReplay { materialize: true },
            Strategy::TemporalRewrite,
            Strategy::GroupedSinglePass,
        ] {
            let opts = EngineOptions {
                strategy,
                ..Default::default()
            };
            let g = infer_provenance(&doc, &trace, &rules, &opts);
            results.push(g.links);
        }
        for r in &results[1..] {
            assert_eq!(&results[0], r);
        }
        assert!(!results[0].is_empty());
    }

    #[test]
    fn paper_example_provenance_table() {
        // Figure 2's Provenance table: dependencies of the running example.
        let (doc, trace, rules) = setup();
        let g = infer_provenance(&doc, &trace, &rules, &EngineOptions::default());
        let pairs: Vec<(String, String)> = g
            .links
            .iter()
            .map(|l| (l.from_uri.clone(), l.to_uri.clone()))
            .collect();
        // M1 (Normaliser): r4 ← r3 (NativeContent); M2 (LanguageExtractor):
        // r6 ← r5; M3 (Translator): r8 ← r4.
        assert!(pairs.contains(&("r4".to_string(), "r3".to_string())));
        assert!(pairs.contains(&("r6".to_string(), "r5".to_string())));
        assert!(pairs.contains(&("r8".to_string(), "r4".to_string())));
        assert!(g.is_acyclic());
    }

    #[test]
    fn inherited_modes_agree() {
        let (doc, trace, rules) = setup();
        let pattern = EngineOptions {
            strategy: Strategy::TemporalRewrite,
            inherit: InheritMode::PatternRewrite,
            ..Default::default()
        };
        let propagation = EngineOptions {
            inherit: InheritMode::GraphPropagation,
            ..pattern
        };
        let g1 = infer_provenance(&doc, &trace, &rules, &pattern);
        let g2 = infer_provenance(&doc, &trace, &rules, &propagation);
        assert_eq!(g1.links, g2.links);
        // inherited mode discovers the 8 → 6 link of the paper (r6 is a
        // descendant of r4 created before t3)
        assert!(g1
            .links
            .iter()
            .any(|l| l.from_uri == "r8" && l.to_uri == "r6"));
    }

    #[test]
    fn inherited_links_are_a_superset_of_explicit() {
        let (doc, trace, rules) = setup();
        let base = infer_provenance(&doc, &trace, &rules, &EngineOptions::default());
        let inh = infer_provenance(
            &doc,
            &trace,
            &rules,
            &EngineOptions {
                inherit: InheritMode::PatternRewrite,
                ..Default::default()
            },
        );
        for l in &base.links {
            assert!(inh.links.contains(l), "missing {l}");
        }
        assert!(inh.links.len() > base.links.len());
    }

    #[test]
    fn propagation_respects_temporal_admissibility() {
        // A resource nested under the *used* endpoint but created after the
        // generating call must not receive an inherited link.
        let mut d = Document::new("R");
        let root = d.root();
        d.register_resource(root, "r1", None).unwrap();
        let src = d.append_element(root, "Src").unwrap();
        d.register_resource(src, "rs", Some(CallLabel::new("A", 1)))
            .unwrap();
        let tgt = d.append_element(root, "Tgt").unwrap();
        d.register_resource(tgt, "rt", Some(CallLabel::new("B", 2)))
            .unwrap();
        // created later, nested inside the used resource
        let late = d.append_element(src, "Late").unwrap();
        d.register_resource(late, "rl", Some(CallLabel::new("C", 5)))
            .unwrap();
        let links = vec![ProvLink {
            from: tgt,
            from_uri: "rt".into(),
            to: src,
            to_uri: "rs".into(),
        }];
        let prop = propagate_inherited(&d.view(), &links);
        assert!(!prop.iter().any(|l| l.to_uri == "rl"));
    }

    #[test]
    fn incremental_inference_composes() {
        // links(0..n) == links(0..k) ∪ links(k..n), for every split point
        let (doc, trace, rules) = setup();
        let opts = EngineOptions::default();
        let full = infer_links_since(&doc, &trace, 0, &rules, &opts);
        for k in 0..=trace.len() {
            // note: the prefix must be computed against the *final*
            // document too (the posthoc model always sees d_n)
            let mut combined = infer_links_since(&doc, &trace, k, &rules, &opts);
            let prefix_trace = ExecutionTrace {
                calls: trace.calls[..k].to_vec(),
            };
            combined.extend(infer_links_since(&doc, &prefix_trace, 0, &rules, &opts));
            combined.sort();
            combined.dedup();
            assert_eq!(combined, full, "split at {k}");
        }
    }

    #[test]
    fn empty_ruleset_yields_source_table_only() {
        let (doc, trace, _) = setup();
        let g = infer_provenance(&doc, &trace, &RuleSet::new(), &EngineOptions::default());
        assert!(g.links.is_empty());
        assert_eq!(g.sources.len(), 5); // resources 3, 4, 5, 6(+7?), 8… see Source table
    }
}
