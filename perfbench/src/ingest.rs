//! The write of `serve-resident` and `store-churn`: a live `ingest` of the
//! media pipeline into a new execution, checked against a store-less
//! reference platform given the same request.

use std::sync::Arc;

use weblab::json::Json;
use weblab::prov::{EpochSnapshot, ExecutionTrace};
use weblab::serve::{handle_line_limits, RequestLimits};
use weblab::workflow::Orchestrator;
use weblab::xml::{parse_document, Document};

use crate::harness::Harness;
use crate::inputs::{self, PIPELINE};

/// The ingest request for execution `id` and corpus `xml`.
pub fn line(id: &str, xml: &str) -> String {
    Json::obj(vec![
        ("op", Json::str("ingest")),
        ("exec", Json::str(id)),
        ("xml", Json::str(xml)),
        ("live", Json::Bool(true)),
        (
            "pipeline",
            Json::Arr(PIPELINE.iter().map(|s| Json::str(*s)).collect()),
        ),
    ])
    .to_string()
}

/// The `result` member of a successful reply (execution, calls, links and
/// resources), without the epoch: a store-backed platform publishes one
/// more epoch per ingest than a store-less one.
fn result(reply: &str) -> Option<&str> {
    reply
        .strip_prefix("{\"ok\":true,")?
        .split_once("\"result\":")
        .map(|(_, result)| result)
}

/// What a traced write's replay leaves for further replays.
pub struct Replayed {
    /// The execution as the orchestrator left it.
    pub doc: Document,
    pub trace: ExecutionTrace,
    pub snapshot: Arc<EpochSnapshot>,
}

/// Check a write's reply against a reference platform's, and in a traced
/// write (`root` set) replay its layers under `root`: the dispatch on the
/// reference platform, and inside it the JSON parse, the XML parse and the
/// platform's ingest and execution, with the orchestrator's run inside
/// that.
pub fn check(
    h: &mut Harness,
    root: Option<usize>,
    reply: &str,
    id: &str,
    line: &str,
    xml: &str,
) -> Option<Replayed> {
    let limits = RequestLimits::default();
    let reference = inputs::platform();
    let (want, dispatch) = match root {
        Some(root) => {
            let ((want, _), dispatch) = h.tracer.time("serve.dispatch", root, || {
                handle_line_limits(&reference, line, &limits)
            });
            (want, Some(dispatch))
        }
        None => (handle_line_limits(&reference, line, &limits).0, None),
    };
    let got = result(reply);
    h.check(got.is_some() && got == result(&want), || {
        format!("ingest {id}: counts differ from a reference platform's: {reply} vs {want}")
    });
    let dispatch = dispatch?;
    let t = &mut h.tracer;
    let _ = t.time("json.parse", dispatch, || Json::parse(line));
    let (parsed, _) = t.time("xml.parse", dispatch, || {
        parse_document(xml).expect("corpora parse")
    });
    let scratch = inputs::platform();
    let exec = scratch.execution(id);
    let (_, execute) = t.time("platform.execute", dispatch, || {
        exec.ingest(parsed);
        exec.enable_live();
        exec.execute(&PIPELINE).expect("the media pipeline runs");
    });
    let mut doc = parse_document(xml).expect("corpora parse");
    let (outcome, _) = t.time("workflow.execute", execute, || {
        Orchestrator::new().execute(&inputs::workflow(), &mut doc)
    });
    Some(Replayed {
        doc,
        trace: outcome.expect("the media pipeline runs").trace,
        snapshot: exec
            .snapshot()
            .expect("an executed execution has a snapshot"),
    })
}
