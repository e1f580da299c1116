//! The execution file: everything the store keeps of one execution, in
//! one file written by one atomic write.
//!
//! ```text
//! # weblab prov execution
//! exec: exec%2F1
//! epoch: 3
//! live: 1
//! completed: 1
//! next-time: 2
//! step: Normaliser
//! step: [LanguageExtractor %7C Translator]
//! uri: weblab://src/0
//! uri: weblab://res/Normaliser-t1-1
//! call: Normaliser | 1 | 2,1 | 5,2 |  | 1
//! source: 1 | 0 | Source | 0
//! source: 3 | 1 | Normaliser | 1
//! link: 3 1 1 0
//! doc: 212
//! <Resource …>…</Resource>
//! # end fnv=0c5e2b1f9a7d4e36
//! ```
//!
//! The header names the epoch the execution's snapshot was published at
//! and whether it runs live. An unfinished durable run adds its
//! [`ResumePoint`] straight after `live:`: the completed top-level step
//! count, the next call instant and one `step:` row per workflow step. A
//! finished run's file has none of these rows. The `uri:` table lists
//! each URI once, escaped like every field (`escape_field`); call, Source
//! and link rows name URIs by their table id. A call row ends in the ids
//! of the resources the call produced, space separated. The document
//! follows as its byte length and its XML, and the footer hashes every
//! byte before it. [`read_header`] reads the header rows alone.
//!
//! Node ids in Source and link rows are the *original* arena indices
//! rather than ids re-resolved against the reloaded document: XML
//! serialisation is pre-order, so a reloaded arena can renumber nodes, and
//! the index's adjacency order depends on the numeric ids. Keeping them
//! keeps answers stable; the URIs stay the join key to the document. The
//! [`ReachabilityIndex`](weblab_prov::ReachabilityIndex) is not stored:
//! `ReachabilityIndex::from_graph` is deterministic in the graph's row
//! order, so a cold load rebuilds byte-identical answers, at the stored
//! epoch.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader};
use std::path::Path;

use super::file::{escape_field, seal, unescape_field, unseal, PersistError};
use super::StoredExecution;
use weblab_prov::{CallRecord, ExecutionTrace, ProvLink, ProvenanceGraph, SourceEntry};
use weblab_xml::{
    parse_document, to_xml_string, CallLabel, Document, NodeId, StateMark, Timestamp,
};

/// How far an unfinished durable run got, which its calls cannot say: a
/// skipped step records no call and a parallel block records several.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumePoint {
    /// Top-level workflow steps fully completed (their calls and their
    /// effects on the document are stored beside the point).
    pub completed_steps: usize,
    /// The call instant the next step starts at.
    pub next_time: Timestamp,
    /// The workflow's step names, checked on resume, so a point is never
    /// continued by a different workflow.
    pub step_names: Vec<String>,
}

/// The execution file's header rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// Epoch the execution's snapshot was published at.
    pub epoch: u64,
    /// Whether the execution runs live.
    pub live: bool,
    /// Where an unfinished durable run resumes; `None` once it finished,
    /// and for every execution no durable run wrote.
    pub checkpoint: Option<ResumePoint>,
}

/// Header rows as they are read: each row is parsed alone, and
/// [`HeaderRows::finish`] checks them together.
#[derive(Default)]
struct HeaderRows {
    epoch: Option<u64>,
    live: bool,
    completed: Option<usize>,
    next_time: Option<Timestamp>,
    steps: Vec<String>,
}

impl HeaderRows {
    /// Take the trimmed row `raw` at `line` if it belongs to the header;
    /// `Ok(false)` at the first row that does not.
    fn take(&mut self, raw: &str, line: usize) -> Result<bool, PersistError> {
        if raw.starts_with('#') || raw.starts_with("exec:") {
            // the file's location already determines the id
        } else if let Some(v) = raw.strip_prefix("epoch:") {
            self.epoch = Some(number(v, line)?);
        } else if let Some(v) = raw.strip_prefix("live:") {
            self.live = v.trim() == "1";
        } else if let Some(v) = raw.strip_prefix("completed:") {
            self.completed = Some(number(v, line)?);
        } else if let Some(v) = raw.strip_prefix("next-time:") {
            self.next_time = Some(number(v, line)?);
        } else if let Some(v) = raw.strip_prefix("step:") {
            let step = unescape_field(v.trim());
            self.steps.push(step.map_err(|message| PersistError::Format { line, message })?);
        } else {
            return Ok(false);
        }
        Ok(true)
    }

    /// The header, if its rows agree: an epoch, and either no resume point
    /// or a whole one that leaves a step to run.
    fn finish(self) -> Result<Header, PersistError> {
        let malformed = |message: String| PersistError::Format { line: 0, message };
        let epoch = self.epoch.ok_or_else(|| malformed("no 'epoch:' header".into()))?;
        let steps = self.steps.len();
        let checkpoint = match (self.completed, self.next_time) {
            (None, None) if steps == 0 => None,
            (Some(completed_steps), Some(next_time)) if completed_steps < steps => {
                Some(ResumePoint { completed_steps, next_time, step_names: self.steps })
            }
            (Some(completed), Some(_)) => {
                return Err(malformed(format!(
                    "completed {completed} leaves none of the {steps} workflow steps to run"
                )))
            }
            _ => {
                return Err(malformed(
                    "a resume point needs one 'completed:' and one 'next-time:' row".into(),
                ))
            }
        };
        Ok(Header { epoch, live: self.live, checkpoint })
    }
}

/// An execution's epoch snapshot as stored: the provenance graph, row
/// orders preserved verbatim, and the epoch it was published at.
#[derive(Debug, Clone)]
pub struct SnapshotData {
    /// Epoch the snapshot was published at.
    pub epoch: u64,
    /// Calls folded into the snapshot: every stored call.
    pub calls: usize,
    /// Whether live maintenance was enabled when the execution was saved.
    pub live: bool,
    /// The provenance graph, row orders preserved verbatim.
    pub graph: ProvenanceGraph,
}

/// The `uri:` table being built: each URI's id is its first position.
#[derive(Default)]
struct UriTable<'a> {
    ids: HashMap<&'a str, usize>,
    order: Vec<&'a str>,
}

impl<'a> UriTable<'a> {
    fn id(&mut self, uri: &'a str) -> usize {
        *self.ids.entry(uri).or_insert_with(|| {
            self.order.push(uri);
            self.order.len() - 1
        })
    }
}

/// Serialise one execution to the execution file's text.
pub fn encode(
    exec_id: &str,
    doc: &Document,
    trace: &ExecutionTrace,
    graph: &ProvenanceGraph,
    header: &Header,
) -> String {
    let mut table = UriTable::default();
    let mut rows = String::new();
    for c in &trace.calls {
        let _ = write!(
            rows,
            "call: {} | {} | {},{} | {},{} | {} |",
            escape_field(&c.service),
            c.time,
            c.input.node_count(),
            c.input.resource_count(),
            c.output.node_count(),
            c.output.resource_count(),
            escape_field(&c.channel),
        );
        for meta in c.produced.iter().filter_map(|&n| doc.resource(n)) {
            let _ = write!(rows, " {}", table.id(meta.uri));
        }
        rows.push('\n');
    }
    for s in &graph.sources {
        let _ = writeln!(
            rows,
            "source: {} | {} | {} | {}",
            s.node.index(),
            table.id(&s.uri),
            escape_field(&s.label.service),
            s.label.time
        );
    }
    for l in &graph.links {
        let _ = writeln!(
            rows,
            "link: {} {} {} {}",
            l.from.index(),
            table.id(&l.from_uri),
            l.to.index(),
            table.id(&l.to_uri)
        );
    }
    let xml = to_xml_string(&doc.view());
    let mut out = String::with_capacity(rows.len() + xml.len() + 64 * table.order.len() + 128);
    let _ = write!(
        out,
        "# weblab prov execution\nexec: {}\nepoch: {}\nlive: {}\n",
        escape_field(exec_id),
        header.epoch,
        u8::from(header.live)
    );
    if let Some(point) = &header.checkpoint {
        let (completed, next_time) = (point.completed_steps, point.next_time);
        let _ = write!(out, "completed: {completed}\nnext-time: {next_time}\n");
        for step in &point.step_names {
            let _ = writeln!(out, "step: {}", escape_field(step));
        }
    }
    for uri in &table.order {
        let _ = writeln!(out, "uri: {}", escape_field(uri));
    }
    out.push_str(&rows);
    let _ = writeln!(out, "doc: {}", xml.len());
    out.push_str(&xml);
    out.push('\n');
    seal(out)
}

/// Parse an execution file's bytes, verifying its integrity footer, and
/// rehydrate the calls against the stored document.
pub fn decode(file: &str, bytes: &[u8]) -> Result<StoredExecution, PersistError> {
    let mut rest = unseal(file, bytes)?;
    let (mut rows, mut line) = (HeaderRows::default(), 0);
    while let Some((raw, tail)) = rest.split_once('\n') {
        if !rows.take(raw.trim(), line + 1)? {
            break;
        }
        line += 1;
        rest = tail;
    }
    let header = rows.finish()?;
    let mut uris: Vec<String> = Vec::new();
    let mut xml = None;
    let mut calls: Vec<(CallRecord, Vec<usize>)> = Vec::new();
    let mut graph = ProvenanceGraph::default();
    while let Some((raw, tail)) = rest.split_once('\n') {
        line += 1;
        rest = tail;
        let raw = raw.trim();
        let err = |message: String| PersistError::Format { line, message };
        let num = |s: &str| number::<usize>(s, line);
        let uri = |s: &str| -> Result<String, PersistError> {
            let id = num(s)?;
            uris.get(id).cloned().ok_or_else(|| err(format!("uri id {id} out of range")))
        };
        if let Some(v) = raw.strip_prefix("doc:") {
            let len = num(v)?;
            let text = rest.get(..len).filter(|_| &rest[len..] == "\n");
            xml = Some(text.ok_or_else(|| err(format!("the document is not {len} bytes")))?);
            break;
        } else if let Some(v) = raw.strip_prefix("uri:") {
            uris.push(unescape_field(v.trim()).map_err(err)?);
        } else if let Some(rest) = raw.strip_prefix("call:") {
            let [service, time, input, output, channel, produced] =
                fields(rest.split('|').map(str::trim), "call").map_err(err)?;
            let mark = |s: &str| -> Result<StateMark, PersistError> {
                let (n, r) = s
                    .split_once(',')
                    .ok_or_else(|| err(format!("expected 'nodes,resources', found {s:?}")))?;
                Ok(StateMark::from_counts(num(n)?, num(r)?))
            };
            let record = CallRecord {
                service: unescape_field(service).map_err(err)?,
                time: number(time, line)?,
                input: mark(input)?,
                output: mark(output)?,
                produced: Vec::new(),
                channel: unescape_field(channel).map_err(err)?,
            };
            let ids = produced.split_whitespace().map(num).collect::<Result<_, _>>()?;
            calls.push((record, ids));
        } else if let Some(rest) = raw.strip_prefix("source:") {
            let [node, id, service, time] =
                fields(rest.split('|').map(str::trim), "source").map_err(err)?;
            graph.sources.push(SourceEntry {
                node: NodeId::from_index(num(node)?),
                uri: uri(id)?,
                label: CallLabel::new(unescape_field(service).map_err(err)?, number(time, line)?),
            });
        } else if let Some(rest) = raw.strip_prefix("link:") {
            let [from, from_uri, to, to_uri] =
                fields(rest.split_whitespace(), "link").map_err(err)?;
            graph.links.push(ProvLink {
                from: NodeId::from_index(num(from)?),
                from_uri: uri(from_uri)?,
                to: NodeId::from_index(num(to)?),
                to_uri: uri(to_uri)?,
            });
        } else {
            return Err(err(format!("unrecognised line {raw:?}")));
        }
    }
    let malformed = |message: &str| PersistError::Format { line: 0, message: message.into() };
    let xml = xml.ok_or_else(|| malformed("no 'doc:' section"))?;
    let doc = parse_document(xml).map_err(|e| PersistError::Xml(e.to_string()))?;
    let mut trace = ExecutionTrace::default();
    for (mut record, ids) in calls {
        for id in ids {
            let uri = uris.get(id).ok_or_else(|| malformed("produced uri id out of range"))?;
            let node = doc.node_by_uri(uri).ok_or_else(|| PersistError::Format {
                line: 0,
                message: format!("produced uri {uri:?} not in document"),
            })?;
            record.produced.push(node);
        }
        trace.calls.push(record);
    }
    let Header { epoch, live, checkpoint } = header;
    let snapshot = SnapshotData { epoch, calls: trace.len(), live, graph };
    Ok(StoredExecution { doc, trace, snapshot: Some(snapshot), checkpoint })
}

/// The `N` fields of a `what` row, or how many it has instead.
fn fields<'a, const N: usize>(
    row: impl Iterator<Item = &'a str>,
    what: &str,
) -> Result<[&'a str; N], String> {
    let mut out = [""; N];
    let mut found = 0;
    for field in row {
        if let Some(slot) = out.get_mut(found) {
            *slot = field;
        }
        found += 1;
    }
    if found == N {
        Ok(out)
    } else {
        Err(format!("expected {N} {what} fields, found {found}"))
    }
}

fn number<T: std::str::FromStr>(s: &str, line: usize) -> Result<T, PersistError> {
    let message = || format!("invalid number {s:?}");
    s.trim().parse().map_err(|_| PersistError::Format { line, message: message() })
}

/// The header of the execution file at `path`, read without the body
/// (and so without the footer's check); `Ok(None)` if there is no such
/// file.
pub fn read_header(path: &Path) -> Result<Option<Header>, PersistError> {
    let file = match std::fs::File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let mut rows = HeaderRows::default();
    for (i, raw) in BufReader::new(file).lines().enumerate() {
        if !rows.take(raw?.trim(), i + 1)? {
            break;
        }
    }
    rows.finish().map(Some)
}
