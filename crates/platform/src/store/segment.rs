//! Sealed segments and the live delta: the append-only trace/link log.
//!
//! A segment file holds a contiguous run of an execution's calls plus the
//! provenance links first derived while those calls were the frontier. The
//! format is line-based like the other store files, but URIs are
//! dictionary-encoded: each distinct URI is written once as a `uri:` line
//! and referenced everywhere else by its 0-based position, mirroring the
//! interning scheme of `weblab-rdf`'s dictionary (URIs repeat heavily
//! across calls and links, so the dictionary keeps segments compact and
//! makes link rows fixed-width integer pairs).
//!
//! ```text
//! # weblab prov segment
//! exec: exec%2F1
//! base: 0
//! uri: weblab://doc/1%2C0
//! uri: weblab://doc/1%2C1
//! call: Normaliser | 1 | 0,0 | 12,5 |  | 0,1
//! link: 1 0
//! # end uris=2 calls=1 links=1
//! ```
//!
//! `base:` is the absolute index of the segment's first call in the
//! execution's trace. Readers order segments by base and skip any whose
//! range is already covered — that makes replay immune to the one benign
//! duplication compaction can leave behind (a crash after writing a merged
//! segment but before deleting its inputs). Every file ends in a `# end`
//! footer checked on load; a mismatch surfaces as
//! [`PersistError::Truncated`].

use std::path::Path;

use super::file::{escape_field, unescape_field, write_atomic, PersistError};
use weblab_xml::{StateMark, Timestamp};

/// One call as stored in a segment: like
/// [`CallRecord`](weblab_prov::CallRecord) but with produced resources
/// identified by URI, so the record is meaningful without a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentCall {
    /// Service name.
    pub service: String,
    /// Call instant.
    pub time: Timestamp,
    /// Input state mark counters `(nodes, resources)`.
    pub input: (usize, usize),
    /// Output state mark counters.
    pub output: (usize, usize),
    /// Channel annotation.
    pub channel: String,
    /// URIs of the resources the call produced.
    pub produced: Vec<String>,
}

impl SegmentCall {
    /// The input mark as a [`StateMark`].
    pub fn input_mark(&self) -> StateMark {
        StateMark::from_counts(self.input.0, self.input.1)
    }

    /// The output mark as a [`StateMark`].
    pub fn output_mark(&self) -> StateMark {
        StateMark::from_counts(self.output.0, self.output.1)
    }
}

/// Decoded contents of one segment (or delta) file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SegmentData {
    /// Absolute index of the first call in the execution's trace.
    pub base: usize,
    /// Calls covered by this segment, in trace order.
    pub calls: Vec<SegmentCall>,
    /// `(from_uri, to_uri)` provenance links first derived in this range.
    pub links: Vec<(String, String)>,
}

impl SegmentData {
    /// Absolute index one past the last call this segment covers.
    pub fn end(&self) -> usize {
        self.base + self.calls.len()
    }
}

/// Serialise a segment to its line format.
pub fn encode(exec_id: &str, data: &SegmentData) -> String {
    // Intern URIs in first-use order so the dictionary reads
    // top-to-bottom like the data that references it.
    let mut order: Vec<String> = Vec::new();
    let mut ids: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    let mut call_rows = Vec::with_capacity(data.calls.len());
    let mut link_rows = Vec::with_capacity(data.links.len());
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
        for c in &data.calls {
            let produced: Vec<String> =
                c.produced.iter().map(|u| intern(u).to_string()).collect();
            call_rows.push(format!(
                "call: {} | {} | {},{} | {},{} | {} | {}\n",
                escape_field(&c.service),
                c.time,
                c.input.0,
                c.input.1,
                c.output.0,
                c.output.1,
                escape_field(&c.channel),
                produced.join(",")
            ));
        }
        for (from, to) in &data.links {
            link_rows.push(format!("link: {} {}\n", intern(from), intern(to)));
        }
    }
    let mut out = String::new();
    out.push_str("# weblab prov segment\n");
    out.push_str(&format!("exec: {}\n", escape_field(exec_id)));
    out.push_str(&format!("base: {}\n", data.base));
    for uri in &order {
        out.push_str(&format!("uri: {}\n", escape_field(uri)));
    }
    for row in &call_rows {
        out.push_str(row);
    }
    for row in &link_rows {
        out.push_str(row);
    }
    out.push_str(&format!(
        "# end uris={} calls={} links={}\n",
        order.len(),
        data.calls.len(),
        data.links.len()
    ));
    out
}

/// Parse a segment file's text, verifying its integrity footer.
pub fn decode(file: &str, text: &str) -> Result<SegmentData, PersistError> {
    let mut uris: Vec<String> = Vec::new();
    let mut data = SegmentData::default();
    let mut base = None;
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
            // informational; the file's location already determines the id
            let _ = v;
        } else if let Some(v) = raw.strip_prefix("base:") {
            base = Some(
                v.trim()
                    .parse::<usize>()
                    .map_err(|_| err(format!("invalid base {v:?}")))?,
            );
        } else if let Some(v) = raw.strip_prefix("uri:") {
            uris.push(unescape_field(v.trim()).map_err(err)?);
        } else if let Some(rest) = raw.strip_prefix("call:") {
            let parts: Vec<&str> = rest.split('|').map(str::trim).collect();
            if parts.len() != 6 {
                return Err(err(format!("expected 6 fields, found {}", parts.len())));
            }
            let counters = |s: &str| -> Result<(usize, usize), PersistError> {
                let (n, r) = s
                    .split_once(',')
                    .ok_or_else(|| err(format!("expected 'nodes,resources', found {s:?}")))?;
                Ok((
                    n.trim().parse().map_err(|_| err(format!("invalid counter {n:?}")))?,
                    r.trim().parse().map_err(|_| err(format!("invalid counter {r:?}")))?,
                ))
            };
            let produced = if parts[5].is_empty() {
                Vec::new()
            } else {
                parts[5]
                    .split(',')
                    .map(|u| {
                        let id: usize = u
                            .trim()
                            .parse()
                            .map_err(|_| err(format!("invalid uri id {u:?}")))?;
                        uris.get(id)
                            .cloned()
                            .ok_or_else(|| err(format!("uri id {id} out of range")))
                    })
                    .collect::<Result<Vec<_>, _>>()?
            };
            data.calls.push(SegmentCall {
                service: unescape_field(parts[0]).map_err(err)?,
                time: parts[1]
                    .parse()
                    .map_err(|_| err(format!("invalid time {:?}", parts[1])))?,
                input: counters(parts[2])?,
                output: counters(parts[3])?,
                channel: unescape_field(parts[4]).map_err(err)?,
                produced,
            });
        } else if let Some(rest) = raw.strip_prefix("link:") {
            let mut it = rest.split_whitespace();
            let mut next_uri = || -> Result<String, PersistError> {
                let id: usize = it
                    .next()
                    .ok_or_else(|| err("expected 'link: from to'".into()))?
                    .parse()
                    .map_err(|_| err("invalid link uri id".into()))?;
                uris.get(id)
                    .cloned()
                    .ok_or_else(|| err(format!("uri id {id} out of range")))
            };
            let from = next_uri()?;
            let to = next_uri()?;
            data.links.push((from, to));
        } else {
            return Err(err(format!("unrecognised line {raw:?}")));
        }
    }
    let (u, c, l) = footer.ok_or_else(|| PersistError::Truncated {
        file: file.into(),
        message: "missing '# end uris=U calls=C links=L' footer (file truncated?)".into(),
    })?;
    if u != uris.len() || c != data.calls.len() || l != data.links.len() {
        return Err(PersistError::Truncated {
            file: file.into(),
            message: format!(
                "footer claims uris={u} calls={c} links={l} but file holds uris={} calls={} links={}",
                uris.len(),
                data.calls.len(),
                data.links.len()
            ),
        });
    }
    data.base = base.ok_or_else(|| PersistError::Truncated {
        file: file.into(),
        message: "missing 'base:' header".into(),
    })?;
    Ok(data)
}

fn parse_footer(rest: &str) -> Option<(usize, usize, usize)> {
    let mut u = None;
    let mut c = None;
    let mut l = None;
    for part in rest.split_whitespace() {
        let (k, v) = part.split_once('=')?;
        let v: usize = v.parse().ok()?;
        match k {
            "uris" => u = Some(v),
            "calls" => c = Some(v),
            "links" => l = Some(v),
            _ => return None,
        }
    }
    Some((u?, c?, l?))
}

/// Write a segment to `path` atomically.
pub fn write(path: &Path, exec_id: &str, data: &SegmentData) -> Result<(), PersistError> {
    write_atomic(path, &encode(exec_id, data))
}

/// Read the segment at `path`, verifying its footer.
pub fn read(path: &Path) -> Result<SegmentData, PersistError> {
    let text = std::fs::read_to_string(path)?;
    decode(&path.display().to_string(), &text)
}
