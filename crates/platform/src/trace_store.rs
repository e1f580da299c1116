//! The Execution Trace store.
//!
//! Figure 5: the Recorder "transmits all generated meta-data (service,
//! timestamp, generated nodes) to the Execution Trace triple-store for
//! future use". The store keeps the structured [`ExecutionTrace`] the
//! Mapper consumes. The same metadata is SPARQL-queryable through each
//! execution's PROV-O export: every call that generated a resource appears
//! there as a `prov:Activity` with its agent and start time.

use std::collections::HashMap;

use std::sync::RwLock;
use weblab_obs::Counter;
use weblab_prov::{CallRecord, ExecutionTrace};

/// Call records written to the store.
static RECORDS_WRITTEN: Counter = Counter::new("platform.trace_store.records");
/// Structured-trace reads served (`get`).
static TRACE_READS: Counter = Counter::new("platform.trace_store.reads");

/// Thread-safe store of execution traces.
#[derive(Debug, Default)]
pub struct TraceStore {
    traces: RwLock<HashMap<String, ExecutionTrace>>,
}

impl TraceStore {
    /// Empty store.
    pub fn new() -> Self {
        TraceStore::default()
    }

    /// Record one call of an execution.
    pub fn record(&self, exec_id: &str, call: CallRecord) {
        RECORDS_WRITTEN.inc();
        self.traces
            .write().expect("lock poisoned")
            .entry(exec_id.to_string())
            .or_default()
            .calls
            .push(call);
    }

    /// Record every call of `trace`, in order: an orchestration's
    /// outcome, or a trace a cold load read back.
    pub fn put(&self, exec_id: &str, trace: &ExecutionTrace) {
        for call in &trace.calls {
            self.record(exec_id, call.clone());
        }
    }

    /// The structured trace of an execution.
    pub fn get(&self, exec_id: &str) -> Option<ExecutionTrace> {
        TRACE_READS.inc();
        self.traces.read().expect("lock poisoned").get(exec_id).cloned()
    }

    /// Recorded calls of an execution, counted without cloning its trace
    /// or counting a read: the snapshot freshness check.
    pub fn call_count(&self, exec_id: &str) -> usize {
        self.traces.read().expect("lock poisoned").get(exec_id).map_or(0, ExecutionTrace::len)
    }

    /// Drop an execution's trace (LRU eviction by the platform's store
    /// layer). Returns whether anything was removed.
    pub fn remove(&self, exec_id: &str) -> bool {
        self.traces.write().expect("lock poisoned").remove(exec_id).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weblab_xml::Document;

    fn call(service: &str, time: u64) -> CallRecord {
        let doc = Document::new("R");
        CallRecord {
            service: service.into(),
            time,
            input: doc.mark(),
            output: doc.mark(),
            produced: vec![],
            channel: String::new(),
        }
    }

    #[test]
    fn record_builds_the_trace_in_call_order() {
        let store = TraceStore::new();
        store.record("e1", call("Normaliser", 1));
        store.record("e1", call("Translator", 3));
        let t = store.get("e1").unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.calls[1].service, "Translator");
        assert_eq!((store.call_count("e1"), store.call_count("e2")), (2, 0));
        assert!(store.remove("e1"));
        assert!(store.get("e1").is_none());
        assert!(!store.remove("e1"));
    }

    #[test]
    fn executions_are_isolated() {
        let store = TraceStore::new();
        store.record("a", call("S", 1));
        store.record("b", call("S", 1));
        assert_eq!(store.get("a").unwrap().len(), 1);
        assert_eq!(store.get("b").unwrap().len(), 1);
        assert!(store.get("c").is_none());
    }
}
