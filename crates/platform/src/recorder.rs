//! The Recorder's exchange path — capturing a call whose effect arrives as
//! a serialised response document.
//!
//! Figure 5: "the Recorder module receives all input and output messages of
//! a service call, in addition to the generated execution meta-data
//! (timestamp and service). Resources generated by a given service call are
//! identified by the workflow engine by comparing the call's input and
//! output document states, using a standard XML-diff service."
//!
//! In-process services share the document arena, so the "diff" is just the
//! pair of state marks the orchestrator records, and a run's calls reach
//! the platform's commit as they are. Out-of-process (SOAP-style) services
//! return a complete response document instead: [`exchange`] diffs it
//! against the kept version, validates the append-only contract, and
//! *merges* the new fragments into a copy of the canonical arena so that
//! state marks stay meaningful across exchanges.
//! [`ExecutionHandle::record_exchange`](crate::ExecutionHandle::record_exchange)
//! commits the result like a run's.

use std::collections::HashMap;
use std::fmt;

use weblab_prov::{CallRecord, ExecutionTrace};
use weblab_xml::{containment_witness, parse_document, Document, NodeId, Timestamp};

/// Recorder failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecorderError {
    /// The response does not contain the stored state (the service deleted
    /// or reordered content).
    AppendViolation,
    /// The response XML failed to parse or merge.
    Xml(String),
}

impl fmt::Display for RecorderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecorderError::AppendViolation => {
                write!(f, "service response violates append-only semantics")
            }
            RecorderError::Xml(m) => write!(f, "xml error: {m}"),
        }
    }
}

impl std::error::Error for RecorderError {}

impl From<weblab_xml::Error> for RecorderError {
    fn from(e: weblab_xml::Error) -> Self {
        RecorderError::Xml(e.to_string())
    }
}

/// Merge `service`'s response at `time` into a copy of the kept document
/// and return that copy with the call's record: the resources the response
/// added under the call's own label, between the kept state and the merged
/// one.
pub(crate) fn exchange(
    kept: &Document,
    service: &str,
    time: Timestamp,
    response_xml: &str,
) -> Result<(Document, CallRecord), RecorderError> {
    let response = parse_document(response_xml)?;
    let mut doc = kept.clone();
    let input = doc.mark();
    merge_exchange(&mut doc, &response)?;
    let mut trace = ExecutionTrace::default();
    trace.record_call(&doc, service, time, input, doc.mark());
    let call = trace.calls.pop().expect("one call was just recorded");
    Ok((doc, call))
}

/// Merge an append-only response document into the stored arena:
/// promotions (URIs gained by existing nodes) are registered in place and
/// new fragments are grafted under their mapped parents, preserving
/// resource metadata. Fails if the stored state is not contained in the
/// response.
pub fn merge_exchange(stored: &mut Document, response: &Document) -> Result<(), RecorderError> {
    let witness = containment_witness(&stored.view(), &response.view())
        .ok_or(RecorderError::AppendViolation)?;
    // old → new, inverted to locate graft parents
    let new_to_old: HashMap<NodeId, NodeId> =
        witness.mapping.iter().map(|(o, n)| (*n, *o)).collect();

    // promotions: existing nodes that gained a URI in the response
    for (old_node, new_node) in &witness.mapping {
        if stored.resource(*old_node).is_none() {
            if let Some(meta) = response.view().resource(*new_node) {
                stored.register_resource(*old_node, meta.uri, meta.label.cloned())?;
            }
        }
    }

    // graft new fragments, in response document order
    let rv = response.view();
    let mut grafted: HashMap<NodeId, NodeId> = HashMap::new(); // new → stored
    for node in rv.descendants(response.root()) {
        if new_to_old.contains_key(&node) {
            continue; // already present
        }
        let parent = rv
            .parent(node)
            .expect("non-root unmatched node has a parent");
        let stored_parent = new_to_old
            .get(&parent)
            .copied()
            .or_else(|| grafted.get(&parent).copied())
            .expect("parent is matched or already grafted");
        let Some(n) = rv.node(node) else { continue };
        let copy = stored.create_copy(n);
        stored.attach(stored_parent, copy)?;
        if let Some(meta) = rv.resource(node) {
            stored.register_resource(copy, meta.uri, meta.label.cloned())?;
        }
        grafted.insert(node, copy);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mapper, Platform, PlatformError};
    use weblab_xml::to_xml_string;

    /// A platform holding execution `e`, ingested from `doc`.
    fn platform_with(doc: Document) -> Platform {
        let p = Platform::new(Mapper::native());
        p.ingest("e", doc);
        p
    }

    fn root_r1() -> Document {
        let mut doc = Document::new("Resource");
        doc.register_resource(doc.root(), "r1", None).unwrap();
        doc
    }

    #[test]
    fn exchange_records_the_produced_resource_in_trace_and_document() {
        let p = platform_with(root_r1());
        let exec = p.execution("e");
        let response = r#"<Resource wl:id="r1"><X wl:id="rX" wl:s="S" wl:t="1"/></Resource>"#;
        let record = exec.record_exchange("S", 1, response).unwrap();
        let (x, calls, nodes) = exec
            .with_kept(|d, t| (d.node_by_uri("rX").unwrap(), t.len(), d.node_count()))
            .unwrap();
        assert_eq!(record.produced, vec![x]);
        assert_eq!((calls, nodes), (1, 2));
    }

    #[test]
    fn exchange_merges_new_fragments() {
        let p = platform_with(root_r1());
        let exec = p.execution("e");
        // simulated SOAP response: original plus a stamped new fragment
        let response = r#"<Resource wl:id="r1">
            <TextMediaUnit wl:id="r4" wl:s="Normaliser" wl:t="1">
              <TextContent wl:id="r5" wl:s="Normaliser" wl:t="1">text</TextContent>
            </TextMediaUnit>
        </Resource>"#;
        let record = exec.record_exchange("Normaliser", 1, response).unwrap();
        assert_eq!(record.produced.len(), 2); // r4 and r5
        exec.with_kept(|stored, _| {
            let v = stored.view();
            assert_eq!(v.uri(stored.node_by_uri("r4").unwrap()), Some("r4"));
            assert_eq!(v.text_content(stored.node_by_uri("r5").unwrap()), "text");
            // the merged document serialises with all metadata intact
            let xml = to_xml_string(&v);
            assert!(xml.contains("wl:id=\"r5\""));
        })
        .unwrap();
    }

    #[test]
    fn exchange_detects_promotions() {
        let mut doc = root_r1();
        doc.append_element(doc.root(), "NativeContent").unwrap();
        let p = platform_with(doc);
        let exec = p.execution("e");
        let response = r#"<Resource wl:id="r1">
            <NativeContent wl:id="r3" wl:s="Source" wl:t="0"/>
        </Resource>"#;
        exec.record_exchange("Normaliser", 1, response).unwrap();
        exec.with_kept(|stored, _| {
            let n = stored.node_by_uri("r3").unwrap();
            assert_eq!(
                stored.view().label(n),
                Some(&weblab_xml::CallLabel::new("Source", 0))
            );
        })
        .unwrap();
    }

    #[test]
    fn exchange_rejects_deletions() {
        let mut doc = root_r1();
        doc.append_element(doc.root(), "Keep").unwrap();
        let p = platform_with(doc);
        let response = r#"<Resource wl:id="r1"/>"#; // Keep was deleted
        assert!(matches!(
            p.execution("e").record_exchange("S", 1, response),
            Err(PlatformError::Recorder(RecorderError::AppendViolation))
        ));
    }

    #[test]
    fn exchange_unknown_execution() {
        let p = Platform::new(Mapper::native());
        assert!(matches!(
            p.execution("nope").record_exchange("S", 1, "<Resource/>"),
            Err(PlatformError::UnknownExecution(_))
        ));
    }

    #[test]
    fn sequential_exchanges_accumulate_states() {
        let p = platform_with(root_r1());
        let exec = p.execution("e");
        exec.record_exchange(
            "A",
            1,
            r#"<Resource wl:id="r1"><X wl:id="x1" wl:s="A" wl:t="1"/></Resource>"#,
        )
        .unwrap();
        exec.record_exchange(
            "B",
            2,
            r#"<Resource wl:id="r1"><X wl:id="x1" wl:s="A" wl:t="1"/><Y wl:id="y1" wl:s="B" wl:t="2"/></Resource>"#,
        )
        .unwrap();
        exec.with_kept(|stored, trace| {
            assert_eq!(trace.len(), 2);
            // marks segment the merged arena correctly
            let v0 = stored.view_at(trace.calls[0].input);
            assert_eq!(v0.children(stored.root()).len(), 0);
            let v1 = stored.view_at(trace.calls[0].output);
            assert_eq!(v1.children(stored.root()).len(), 1);
            let v2 = stored.view_at(trace.calls[1].output);
            assert_eq!(v2.children(stored.root()).len(), 2);
        })
        .unwrap();
    }
}
