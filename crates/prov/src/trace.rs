//! Workflow execution traces.
//!
//! A workflow execution `e = d₀.c₁.d₁.c₂…cₙ.dₙ` (Definition 2) is recorded
//! as the final document plus, per service call, the state marks before and
//! after the call and the resources it produced. Together with the resource
//! labels stamped on the document this is exactly the paper's *execution
//! trace*: "the final XML document and the Source table".

use weblab_obs::Counter;
use weblab_xml::{CallLabel, Document, NodeId, StateMark, Timestamp};

/// Full O(trace) channel-map builds performed by
/// [`ExecutionTrace::channel_map`]. A live producer avoids these by
/// updating its map incrementally per delta (and from the prior calls once,
/// when a run starts); the perf-regression suite asserts a live run
/// performs no build while the naive per-delta loop performs one per call.
static CHANNEL_MAP_BUILDS: Counter = Counter::new("prov.trace.channel_map.builds");

/// Record of one service call `c_i = (s, t_i)` within an execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallRecord {
    /// Service name `s`.
    pub service: String,
    /// Call instant `t_i` (strictly increasing along the control flow).
    pub time: Timestamp,
    /// State mark of the input document `d_{i-1}` (`in(c_i)`).
    pub input: StateMark,
    /// State mark of the output document `d_i`.
    pub output: StateMark,
    /// Resource nodes produced by the call (`out(c_i)`), i.e. resources
    /// registered between `input` and `output`, minus promotions of
    /// pre-existing nodes credited to earlier calls.
    pub produced: Vec<NodeId>,
    /// Control-flow channel of the call (Section 8 extension for parallel
    /// executions): a `.`-separated path of branch indices, `""` for the
    /// sequential main flow. A call can only have used resources produced
    /// on a channel that is an ancestor or descendant of its own — sibling
    /// branches are mutually invisible regardless of timestamps.
    pub channel: String,
}

impl CallRecord {
    /// The call's label `(s, t_i)`.
    pub fn label(&self) -> CallLabel {
        CallLabel::new(self.service.clone(), self.time)
    }
}

/// Are two control-flow channels mutually visible? True iff one is a
/// (segment-wise) prefix of the other; sibling branches are not.
pub fn channels_compatible(a: &str, b: &str) -> bool {
    if a.is_empty() || b.is_empty() {
        return true;
    }
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    long.starts_with(short)
        && (long.len() == short.len() || long.as_bytes()[short.len()] == b'.')
}

/// The trace of one workflow execution over one document.
#[derive(Debug, Clone, Default)]
pub struct ExecutionTrace {
    /// Calls in control-flow order (`c₁ … cₙ`).
    pub calls: Vec<CallRecord>,
}

impl ExecutionTrace {
    /// Record a call, computing `out(c_i)` from the document's resource log
    /// between the two marks, restricted to resources actually labelled
    /// with this call (promotions of old content keep their original
    /// label — node 3 of Figure 4 is credited to `(Source, t₀)`, not to the
    /// Normaliser call that registered it).
    pub fn record_call(
        &mut self,
        doc: &Document,
        service: impl Into<String>,
        time: Timestamp,
        input: StateMark,
        output: StateMark,
    ) {
        self.record_call_on_channel(doc, service, time, input, output, "");
    }

    /// Like [`ExecutionTrace::record_call`] for a call executed on a
    /// parallel control-flow channel (Section 8 extension).
    pub fn record_call_on_channel(
        &mut self,
        doc: &Document,
        service: impl Into<String>,
        time: Timestamp,
        input: StateMark,
        output: StateMark,
        channel: impl Into<String>,
    ) {
        let service = service.into();
        let produced = doc
            .new_resources_since(input)
            .into_iter()
            .filter(|n| {
                doc.resource(*n)
                    .and_then(|m| m.label)
                    .map(|l| l.service == service && l.time == time)
                    .unwrap_or(false)
            })
            .collect();
        self.calls.push(CallRecord {
            service,
            time,
            input,
            output,
            produced,
            channel: channel.into(),
        });
    }

    /// Whether any call ran on a non-root channel (i.e. the execution
    /// contained parallel branches).
    pub fn has_parallel_channels(&self) -> bool {
        self.calls.iter().any(|c| !c.channel.is_empty())
    }

    /// Map from produced resource node to its channel, for visibility
    /// filtering during inference.
    pub fn channel_map(&self) -> std::collections::HashMap<NodeId, String> {
        CHANNEL_MAP_BUILDS.inc();
        let mut m = std::collections::HashMap::new();
        for c in &self.calls {
            if c.channel.is_empty() {
                continue;
            }
            for &n in &c.produced {
                m.insert(n, c.channel.clone());
            }
        }
        m
    }

    /// Reconstruct a trace from the resource labels of a final document —
    /// the labels *are* the Source table of Figure 2, so for the posthoc
    /// strategies (which only consult `(service, time)` per call and the
    /// final state) a standalone stamped document is a complete execution
    /// record.
    ///
    /// Calls are derived as the distinct labels with `time > 0` (instant 0
    /// is reserved for acquisition sources), ordered by instant; every
    /// call's state marks are set to the final state, so the
    /// reconstruction is exact for `TemporalRewrite` and
    /// `GroupedSinglePass` but NOT for `StateReplay` (which needs true
    /// intermediate marks). Channels cannot be recovered and default to
    /// the root channel.
    pub fn reconstruct_from(doc: &Document) -> ExecutionTrace {
        let final_mark = doc.mark();
        let mut by_call: std::collections::BTreeMap<(Timestamp, String), Vec<NodeId>> =
            std::collections::BTreeMap::new();
        for &n in doc.resource_nodes() {
            let Some(label) = doc.resource(n).and_then(|m| m.label.cloned()) else {
                continue;
            };
            if label.time == 0 {
                continue;
            }
            by_call
                .entry((label.time, label.service))
                .or_default()
                .push(n);
        }
        ExecutionTrace {
            calls: by_call
                .into_iter()
                .map(|((time, service), produced)| CallRecord {
                    service,
                    time,
                    input: final_mark,
                    output: final_mark,
                    produced,
                    channel: String::new(),
                })
                .collect(),
        }
    }

    /// The call that happened at instant `t`, if any.
    pub fn call_at(&self, t: Timestamp) -> Option<&CallRecord> {
        self.calls.iter().find(|c| c.time == t)
    }

    /// Number of recorded calls `n`.
    pub fn len(&self) -> usize {
        self.calls.len()
    }

    /// Whether no calls were recorded.
    pub fn is_empty(&self) -> bool {
        self.calls.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weblab_xml::CallLabel;

    #[test]
    fn record_call_computes_out() {
        let mut d = Document::new("R");
        let root = d.root();
        d.register_resource(root, "r1", None).unwrap();
        let d0 = d.mark();

        // call (S, 1) produces rA; also promotes an older node with an
        // earlier label, which must NOT count as out(c)
        let old = d.append_element(root, "Old").unwrap();
        let _ = old; // created within the call but labelled (Source, 0)
        d.register_resource(old, "rOld", Some(CallLabel::new("Source", 0)))
            .unwrap();
        let a = d.append_element(root, "A").unwrap();
        d.register_resource(a, "rA", Some(CallLabel::new("S", 1)))
            .unwrap();
        let d1 = d.mark();

        let mut trace = ExecutionTrace::default();
        trace.record_call(&d, "S", 1, d0, d1);
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.calls[0].produced, vec![a]);
        assert_eq!(trace.calls[0].channel, "");
        assert_eq!(trace.call_at(1).unwrap().service, "S");
        assert!(trace.call_at(7).is_none());
        assert!(!trace.has_parallel_channels());
    }

    #[test]
    fn reconstruction_matches_recorded_trace_for_posthoc_strategies() {
        let (doc, recorded, rules) = crate::paper_example::build();
        let reconstructed = ExecutionTrace::reconstruct_from(&doc);
        // same calls in the same order
        let calls = |t: &ExecutionTrace| -> Vec<(String, Timestamp, Vec<NodeId>)> {
            t.calls
                .iter()
                .map(|c| (c.service.clone(), c.time, c.produced.clone()))
                .collect()
        };
        assert_eq!(calls(&recorded), calls(&reconstructed));
        // and posthoc inference agrees
        let opts = crate::engine::EngineOptions::default();
        let a = crate::engine::infer_provenance(&doc, &recorded, &rules, &opts);
        let b = crate::engine::infer_provenance(&doc, &reconstructed, &rules, &opts);
        assert_eq!(a.links, b.links);
    }

    #[test]
    fn channel_compatibility_rules() {
        use super::channels_compatible;
        assert!(channels_compatible("", ""));
        assert!(channels_compatible("", "0"));
        assert!(channels_compatible("0", ""));
        assert!(channels_compatible("0", "0.1"));
        assert!(channels_compatible("0.1", "0"));
        assert!(!channels_compatible("0", "1"));
        assert!(!channels_compatible("0.1", "0.2"));
        assert!(!channels_compatible("0.1", "1.1"));
        // "10" is not a segment-extension of "1"
        assert!(!channels_compatible("1", "10"));
        assert!(channels_compatible("1", "1.0"));
    }

    #[test]
    fn channel_map_covers_parallel_produced_nodes() {
        let mut d = Document::new("R");
        let root = d.root();
        let d0 = d.mark();
        let a = d.append_element(root, "A").unwrap();
        d.register_resource(a, "ra", Some(CallLabel::new("S", 1))).unwrap();
        let d1 = d.mark();
        let mut trace = ExecutionTrace::default();
        trace.record_call_on_channel(&d, "S", 1, d0, d1, "0");
        assert!(trace.has_parallel_channels());
        let m = trace.channel_map();
        assert_eq!(m.get(&a).map(String::as_str), Some("0"));
    }
}
