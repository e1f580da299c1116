//! Epoch-keyed on-disk index snapshots.
//!
//! A snapshot file serialises one published
//! [`EpochSnapshot`](weblab_prov::EpochSnapshot)'s provenance graph —
//! sources in registration order, links in stored order, node ids as raw
//! arena indices — plus the epoch and call count it was published at. The
//! [`ReachabilityIndex`](weblab_prov::ReachabilityIndex) itself is *not*
//! stored: `ReachabilityIndex::from_graph` is deterministic in the graph's
//! row order, so rebuilding it on load reproduces byte-identical query
//! answers, and the epoch travels with the file so a cold-loaded execution
//! republishes at exactly the epoch its answers were minted at.
//!
//! Node ids are stored as the *original* arena indices rather than
//! re-resolved against the reloaded document: XML serialisation is
//! pre-order, so a reloaded arena can renumber nodes, and the index's
//! adjacency ordering depends on the numeric node ids. Keeping the
//! original ids keeps answers stable; the graph's URIs remain the join key
//! to the document.
//!
//! ```text
//! # weblab prov snapshot
//! exec: exec%2F1
//! epoch: 3
//! calls: 4
//! live: 1
//! uri: weblab://doc/1%2C0
//! source: 2 | 0 | Normaliser | 1
//! link: 5 1 2 0
//! # end uris=1 sources=1 links=1
//! ```

use std::io::{BufRead, BufReader};
use std::path::Path;

use super::file::{escape_field, unescape_field, write_atomic, PersistError};
use weblab_prov::{ProvLink, ProvenanceGraph, SourceEntry};
use weblab_xml::{CallLabel, NodeId};

/// Decoded contents of a snapshot file.
#[derive(Debug, Clone)]
pub struct SnapshotData {
    /// Epoch the snapshot was published at.
    pub epoch: u64,
    /// Calls folded into the snapshot (freshness witness).
    pub calls: usize,
    /// Whether live maintenance was enabled when the snapshot was taken.
    pub live: bool,
    /// The provenance graph, row orders preserved verbatim.
    pub graph: ProvenanceGraph,
}

/// Serialise a snapshot to its line format.
pub fn encode(exec_id: &str, data: &SnapshotData) -> String {
    let mut order: Vec<String> = Vec::new();
    let mut ids: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    let mut source_rows = Vec::with_capacity(data.graph.sources.len());
    let mut link_rows = Vec::with_capacity(data.graph.links.len());
    {
        let mut intern = |uri: &str| -> usize {
            if let Some(&id) = ids.get(uri) {
                id
            } else {
                let id = order.len();
                order.push(uri.to_string());
                ids.insert(uri.to_string(), id);
                id
            }
        };
        for s in &data.graph.sources {
            source_rows.push(format!(
                "source: {} | {} | {} | {}\n",
                s.node.index(),
                intern(&s.uri),
                escape_field(&s.label.service),
                s.label.time
            ));
        }
        for l in &data.graph.links {
            link_rows.push(format!(
                "link: {} {} {} {}\n",
                l.from.index(),
                intern(&l.from_uri),
                l.to.index(),
                intern(&l.to_uri)
            ));
        }
    }
    let mut out = String::new();
    out.push_str("# weblab prov snapshot\n");
    out.push_str(&format!("exec: {}\n", escape_field(exec_id)));
    out.push_str(&format!("epoch: {}\n", data.epoch));
    out.push_str(&format!("calls: {}\n", data.calls));
    out.push_str(&format!("live: {}\n", u8::from(data.live)));
    for uri in &order {
        out.push_str(&format!("uri: {}\n", escape_field(uri)));
    }
    for row in &source_rows {
        out.push_str(row);
    }
    for row in &link_rows {
        out.push_str(row);
    }
    out.push_str(&format!(
        "# end uris={} sources={} links={}\n",
        order.len(),
        data.graph.sources.len(),
        data.graph.links.len()
    ));
    out
}

/// Parse a snapshot file's text, verifying its integrity footer.
pub fn decode(file: &str, text: &str) -> Result<SnapshotData, PersistError> {
    let mut uris: Vec<String> = Vec::new();
    let mut epoch = None;
    let mut calls = None;
    let mut live = false;
    let mut graph = ProvenanceGraph::default();
    let mut footer: Option<(usize, usize, usize)> = None;
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let raw = raw.trim();
        let err = |message: String| PersistError::Format { line, message };
        if let Some(rest) = raw.strip_prefix("# end ") {
            footer = parse_footer(rest);
        } else if raw.is_empty() || raw.starts_with('#') {
            continue;
        } else if let Some(v) = raw.strip_prefix("exec:") {
            let _ = v;
        } else if let Some(v) = raw.strip_prefix("epoch:") {
            epoch = Some(
                v.trim()
                    .parse::<u64>()
                    .map_err(|_| err(format!("invalid epoch {v:?}")))?,
            );
        } else if let Some(v) = raw.strip_prefix("calls:") {
            calls = Some(
                v.trim()
                    .parse::<usize>()
                    .map_err(|_| err(format!("invalid calls {v:?}")))?,
            );
        } else if let Some(v) = raw.strip_prefix("live:") {
            live = v.trim() == "1";
        } else if let Some(v) = raw.strip_prefix("uri:") {
            uris.push(unescape_field(v.trim()).map_err(err)?);
        } else if let Some(rest) = raw.strip_prefix("source:") {
            let parts: Vec<&str> = rest.split('|').map(str::trim).collect();
            if parts.len() != 4 {
                return Err(err(format!("expected 4 source fields, found {}", parts.len())));
            }
            let node: usize = parts[0]
                .parse()
                .map_err(|_| err(format!("invalid node index {:?}", parts[0])))?;
            let uri_id: usize = parts[1]
                .parse()
                .map_err(|_| err(format!("invalid uri id {:?}", parts[1])))?;
            let uri = uris
                .get(uri_id)
                .cloned()
                .ok_or_else(|| err(format!("uri id {uri_id} out of range")))?;
            let service = unescape_field(parts[2]).map_err(err)?;
            let time = parts[3]
                .parse()
                .map_err(|_| err(format!("invalid time {:?}", parts[3])))?;
            graph.sources.push(SourceEntry {
                node: NodeId::from_index(node),
                uri,
                label: CallLabel::new(service, time),
            });
        } else if let Some(rest) = raw.strip_prefix("link:") {
            let fields: Vec<&str> = rest.split_whitespace().collect();
            if fields.len() != 4 {
                return Err(err(format!("expected 4 link fields, found {}", fields.len())));
            }
            let num = |s: &str| -> Result<usize, PersistError> {
                s.parse().map_err(|_| err(format!("invalid link field {s:?}")))
            };
            let resolve = |id: usize| -> Result<String, PersistError> {
                uris.get(id)
                    .cloned()
                    .ok_or_else(|| err(format!("uri id {id} out of range")))
            };
            graph.links.push(ProvLink {
                from: NodeId::from_index(num(fields[0])?),
                from_uri: resolve(num(fields[1])?)?,
                to: NodeId::from_index(num(fields[2])?),
                to_uri: resolve(num(fields[3])?)?,
            });
        } else {
            return Err(err(format!("unrecognised line {raw:?}")));
        }
    }
    let (u, s, l) = footer.ok_or_else(|| PersistError::Truncated {
        file: file.into(),
        message: "missing '# end uris=U sources=S links=L' footer (file truncated?)".into(),
    })?;
    if u != uris.len() || s != graph.sources.len() || l != graph.links.len() {
        return Err(PersistError::Truncated {
            file: file.into(),
            message: format!(
                "footer claims uris={u} sources={s} links={l} but file holds uris={} sources={} links={}",
                uris.len(),
                graph.sources.len(),
                graph.links.len()
            ),
        });
    }
    let epoch = epoch.ok_or_else(|| PersistError::Truncated {
        file: file.into(),
        message: "missing 'epoch:' header".into(),
    })?;
    let calls = calls.ok_or_else(|| PersistError::Truncated {
        file: file.into(),
        message: "missing 'calls:' header".into(),
    })?;
    Ok(SnapshotData { epoch, calls, live, graph })
}

fn parse_footer(rest: &str) -> Option<(usize, usize, usize)> {
    let mut u = None;
    let mut s = None;
    let mut l = None;
    for part in rest.split_whitespace() {
        let (k, v) = part.split_once('=')?;
        let v: usize = v.parse().ok()?;
        match k {
            "uris" => u = Some(v),
            "sources" => s = Some(v),
            "links" => l = Some(v),
            _ => return None,
        }
    }
    Some((u?, s?, l?))
}

/// Write a snapshot to `path` atomically.
pub fn write(path: &Path, exec_id: &str, data: &SnapshotData) -> Result<(), PersistError> {
    write_atomic(path, &encode(exec_id, data))
}

/// The `live:` header of the snapshot at `path` (the fifth line), read
/// without the body; `false` when the file cannot be read.
pub fn read_live(path: &Path) -> bool {
    std::fs::File::open(path).is_ok_and(|file| {
        let mut header = BufReader::new(file).lines().take(5).map_while(Result::ok);
        header.any(|line| line.trim() == "live: 1")
    })
}

/// Read the snapshot at `path`, verifying its footer.
pub fn read(path: &Path) -> Result<SnapshotData, PersistError> {
    let text = std::fs::read_to_string(path)?;
    decode(&path.display().to_string(), &text)
}
