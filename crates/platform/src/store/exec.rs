//! The execution file: everything the store keeps of one execution, in
//! one file written by one atomic write.
//!
//! ```text
//! # weblab prov execution
//! exec: exec%2F1
//! epoch: 3
//! live: 1
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
//! and whether it runs live. The `uri:` table lists each URI once, escaped
//! like every field (`escape_field`); call, Source and link rows name URIs
//! by their table id. A call row ends in the ids of the resources the call
//! produced, space separated. The document follows as its byte length and
//! its XML, and the footer hashes every byte before it.
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
use weblab_xml::{parse_document, to_xml_string, CallLabel, Document, NodeId, StateMark};

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
    epoch: u64,
    live: bool,
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
            let _ = write!(rows, " {}", table.id(&meta.uri));
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
        "# weblab prov execution\nexec: {}\nepoch: {epoch}\nlive: {}\n",
        escape_field(exec_id),
        u8::from(live)
    );
    for uri in &table.order {
        let _ = writeln!(out, "uri: {}", escape_field(uri));
    }
    out.push_str(&rows);
    let _ = writeln!(out, "doc: {}", xml.len());
    out.push_str(&xml);
    out.push('\n');
    seal(out, "")
}

/// Parse an execution file's bytes, verifying its integrity footer, and
/// rehydrate the calls against the stored document.
pub fn decode(file: &str, bytes: &[u8]) -> Result<StoredExecution, PersistError> {
    let (mut rest, _) = unseal(file, bytes)?;
    let mut uris: Vec<String> = Vec::new();
    let (mut epoch, mut live, mut xml) = (None, false, None);
    let mut calls: Vec<(CallRecord, Vec<usize>)> = Vec::new();
    let mut graph = ProvenanceGraph::default();
    let mut line = 0;
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
        } else if raw.starts_with('#') || raw.starts_with("exec:") {
            // the file's location already determines the id
        } else if let Some(v) = raw.strip_prefix("epoch:") {
            epoch = Some(number(v, line)?);
        } else if let Some(v) = raw.strip_prefix("live:") {
            live = v.trim() == "1";
        } else if let Some(v) = raw.strip_prefix("uri:") {
            uris.push(unescape_field(v.trim()).map_err(err)?);
        } else if let Some(rest) = raw.strip_prefix("call:") {
            let parts: Vec<&str> = rest.split('|').map(str::trim).collect();
            let [service, time, input, output, channel, produced] = parts[..] else {
                return Err(err(format!("expected 6 call fields, found {}", parts.len())));
            };
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
            let parts: Vec<&str> = rest.split('|').map(str::trim).collect();
            let [node, id, service, time] = parts[..] else {
                return Err(err(format!("expected 4 source fields, found {}", parts.len())));
            };
            graph.sources.push(SourceEntry {
                node: NodeId::from_index(num(node)?),
                uri: uri(id)?,
                label: CallLabel::new(unescape_field(service).map_err(err)?, number(time, line)?),
            });
        } else if let Some(rest) = raw.strip_prefix("link:") {
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let [from, from_uri, to, to_uri] = fields[..] else {
                return Err(err(format!("expected 4 link fields, found {}", fields.len())));
            };
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
    let epoch = epoch.ok_or_else(|| malformed("no 'epoch:' header"))?;
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
    let snapshot = SnapshotData { epoch, calls: trace.len(), live, graph };
    Ok(StoredExecution { doc, trace, snapshot: Some(snapshot) })
}

fn number<T: std::str::FromStr>(s: &str, line: usize) -> Result<T, PersistError> {
    let message = || format!("invalid number {s:?}");
    s.trim().parse().map_err(|_| PersistError::Format { line, message: message() })
}

/// The `live:` header of the execution file at `path` (its fourth line),
/// read without the body; `false` when the file cannot be read.
pub fn read_live(path: &Path) -> bool {
    std::fs::File::open(path).is_ok_and(|file| {
        let mut header = BufReader::new(file).lines().take(4).map_while(Result::ok);
        header.any(|line| line.trim() == "live: 1")
    })
}
