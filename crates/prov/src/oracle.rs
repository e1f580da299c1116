//! The inference strategies production does not run, kept as oracles.
//!
//! The CLI, the daemon and the live producer infer provenance one way:
//! the temporal rewrite ([`crate::infer_provenance`]). Section 4 argues
//! for it against evaluating Definitions 8/9 directly, and hints at a
//! grouped variant. Both stay here, beside the production entry point,
//! so the property and differential suites can check that every strategy
//! derives the same links and the benches (X1, X3, X10, X11) can compare
//! their costs:
//!
//! * [`Strategy::StateReplay`] — the paper's "simple, but also inefficient
//!   solution": reconstruct the document states `d_{i-1}`, `d_i` around
//!   every call and apply Definition 8/9 directly, on zero-copy state
//!   views.
//! * [`Strategy::MaterializedReplay`] — the same, on deep copies of each
//!   state, modelling an implementation that fetches per-state snapshots
//!   from a repository.
//! * [`Strategy::TemporalRewrite`] — the production entry point itself.
//! * [`Strategy::GroupedSinglePass`] — the factorised variant hinted at in
//!   Section 4's discussion of optimisation opportunities: evaluate each
//!   rule **once** per service on the final document, bucket the target
//!   embeddings by producing call, and filter the shared source table by
//!   timestamp per bucket.
//!
//! The module lives in the crate, not in a test-support file: this
//! crate's own unit tests and the benches call it, and it reuses the
//! engine's shared evaluation state, inherit-mode rewrite and
//! post-processing. Every strategy honours every [`EngineOptions`] field
//! and counts its units under its own `prov.engine.*.units` counter.

use std::collections::{BTreeMap, HashMap, HashSet};

use weblab_obs::Counter;
use weblab_xml::{DocView, Document, NodeId, Timestamp};
use weblab_xpath::{effective_label, effective_time, BindingRow};

use crate::algebra::{join_rows, join_tables, ProvLink};
use crate::cache::PatternCache;
use crate::engine::{
    document_state_provenance, effective_rule, filter_links_by_channel, finish, infer_links_since,
    EngineOptions, InheritMode, SharedEval,
};
use crate::executor::run_units;
use crate::graph::ProvenanceGraph;
use crate::rule::MappingRule;
use crate::ruleset::RuleSet;
use crate::trace::{CallRecord, ExecutionTrace};

/// Evaluation units dispatched by state replay ((call × rule) each).
static REPLAY_UNITS: Counter = Counter::new("prov.engine.replay.units");
/// Evaluation units dispatched by the grouped pass ((service × rule)).
static GROUPED_UNITS: Counter = Counter::new("prov.engine.grouped.units");

/// Which evaluation strategy an oracle inference runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Per-call evaluation on zero-copy views of the reconstructed
    /// intermediate states.
    StateReplay,
    /// Per-call evaluation on deep copies of the intermediate states (the
    /// truly naive baseline).
    MaterializedReplay,
    /// Temporal rewriting, evaluated on the final state once per call: the
    /// production engine.
    TemporalRewrite,
    /// One evaluation per rule per service; per-call results recovered by
    /// bucketing target embeddings on their producing label.
    GroupedSinglePass,
}

/// [`crate::infer_provenance`] under `strategy`.
pub fn infer_provenance_with(
    doc: &Document,
    trace: &ExecutionTrace,
    rules: &RuleSet,
    strategy: Strategy,
    opts: &EngineOptions,
) -> ProvenanceGraph {
    let mut graph = ProvenanceGraph::from_view(&doc.view());
    graph.add_links(infer_links_since_with(doc, trace, 0, rules, strategy, opts));
    graph
}

/// [`crate::infer_links_since`] under `strategy`: the links contributed by
/// calls `trace.calls[first_call..]`.
pub fn infer_links_since_with(
    doc: &Document,
    trace: &ExecutionTrace,
    first_call: usize,
    rules: &RuleSet,
    strategy: Strategy,
    opts: &EngineOptions,
) -> Vec<ProvLink> {
    let calls = &trace.calls[first_call.min(trace.calls.len())..];
    // channel visibility depends on every call of the execution
    match strategy {
        Strategy::StateReplay => replay_links(doc, calls, &trace.channel_map(), rules, opts, false),
        Strategy::MaterializedReplay => {
            replay_links(doc, calls, &trace.channel_map(), rules, opts, true)
        }
        Strategy::TemporalRewrite => infer_links_since(doc, trace, first_call, rules, opts),
        Strategy::GroupedSinglePass => grouped_links(doc, calls, &trace.channel_map(), rules, opts),
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

fn replay_links(
    doc: &Document,
    calls: &[CallRecord],
    channel_map: &HashMap<NodeId, String>,
    rules: &RuleSet,
    opts: &EngineOptions,
    materialize: bool,
) -> Vec<ProvLink> {
    let final_view = doc.view();
    // the final-document index is exact for every earlier state view;
    // materialized copies have their own arenas, so no index for them
    let cache = PatternCache::new();
    let shared = SharedEval::new(opts.use_index && !materialize, &cache);
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
            let s = shared
                .cache
                .eval(&rule.source, &doc.view_at(input_mark), index);
            let t = shared
                .cache
                .eval(&rule.target, &doc.view_at(call.output), index);
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
    REPLAY_UNITS.add(units.len() as u64);
    finish(out, doc, opts)
}

fn grouped_links(
    doc: &Document,
    calls: &[CallRecord],
    channel_map: &HashMap<NodeId, String>,
    rules: &RuleSet,
    opts: &EngineOptions,
) -> Vec<ProvLink> {
    let final_view = doc.view();
    let cache = PatternCache::new();
    let shared = SharedEval::new(opts.use_index, &cache);
    let channel_of_call: HashMap<Timestamp, &str> =
        calls.iter().map(|c| (c.time, c.channel.as_str())).collect();
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
    GROUPED_UNITS.add(units.len() as u64);
    finish(out, doc, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;

    #[test]
    fn all_strategies_agree_on_paper_example() {
        let (doc, trace, rules) = paper_example::build();
        let mut results = Vec::new();
        for strategy in [
            Strategy::StateReplay,
            Strategy::MaterializedReplay,
            Strategy::TemporalRewrite,
            Strategy::GroupedSinglePass,
        ] {
            let g =
                infer_provenance_with(&doc, &trace, &rules, strategy, &EngineOptions::default());
            results.push(g.links);
        }
        for r in &results[1..] {
            assert_eq!(&results[0], r);
        }
        assert!(!results[0].is_empty());
    }
}
