//! Sealed segments and the live delta: the append-only call log.
//!
//! A segment file holds a contiguous run of an execution's calls, each
//! with the URIs of the resources it produced, escaped like every other
//! field (`escape_field`) and each followed by a `,`, so that a call
//! producing one empty URI differs from one producing none. The log
//! records calls only: an execution's
//! links live in its epoch snapshot ([`super::snapshot`]), their one
//! on-disk copy, which the platform re-infers from the document and this
//! log when the snapshot did not survive. Each produced URI occurs once in
//! the log, so it is written inline rather than through a dictionary.
//!
//! ```text
//! # weblab prov segment
//! exec: exec%2F1
//! base: 0
//! call: Normaliser | 1 | 0,0 | 12,5 |  | weblab://doc/1%2C0,weblab://doc/1%2C1,
//! # end calls=1
//! ```
//!
//! `base:` is the absolute index of the segment's first call in the
//! execution's trace. Readers order segments by base and skip any whose
//! range is already covered — that makes replay immune to the one benign
//! duplication compaction can leave behind (a crash after writing a merged
//! segment but before deleting its inputs). Every file ends in a `# end`
//! footer checked on load; a mismatch surfaces as
//! [`PersistError::Truncated`]. A log written in the earlier format, with
//! `uri:` dictionary and `link:` rows, is rejected, not converted.

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
}

impl SegmentData {
    /// Absolute index one past the last call this segment covers.
    pub fn end(&self) -> usize {
        self.base + self.calls.len()
    }
}

/// Serialise a segment to its line format.
pub fn encode(exec_id: &str, data: &SegmentData) -> String {
    let mut out = String::new();
    out.push_str("# weblab prov segment\n");
    out.push_str(&format!("exec: {}\n", escape_field(exec_id)));
    out.push_str(&format!("base: {}\n", data.base));
    for c in &data.calls {
        let produced: String = c.produced.iter().map(|u| escape_field(u) + ",").collect();
        out.push_str(&format!(
            "call: {} | {} | {},{} | {},{} | {} | {}\n",
            escape_field(&c.service),
            c.time,
            c.input.0,
            c.input.1,
            c.output.0,
            c.output.1,
            escape_field(&c.channel),
            produced
        ));
    }
    out.push_str(&format!("# end calls={}\n", data.calls.len()));
    out
}

/// Parse a segment file's text, verifying its integrity footer.
pub fn decode(file: &str, text: &str) -> Result<SegmentData, PersistError> {
    let mut data = SegmentData::default();
    let mut base = None;
    let mut footer: Option<usize> = None;
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let raw = raw.trim();
        let err = |message: String| PersistError::Format { line, message };
        if let Some(rest) = raw.strip_prefix("# end ") {
            footer = rest.strip_prefix("calls=").and_then(|c| c.parse().ok());
        } else if raw.is_empty() || raw.starts_with('#') {
            continue;
        } else if raw.starts_with("exec:") {
            // informational; the file's location already determines the id
        } else if let Some(v) = raw.strip_prefix("base:") {
            base = Some(
                v.trim()
                    .parse::<usize>()
                    .map_err(|_| err(format!("invalid base {v:?}")))?,
            );
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
            let mut produced: Vec<&str> = parts[5].split(',').collect();
            if produced.pop() != Some("") {
                return Err(err(format!("produced uris {:?} do not end in ','", parts[5])));
            }
            let produced = produced
                .into_iter()
                .map(|u| unescape_field(u).map_err(err))
                .collect::<Result<Vec<_>, _>>()?;
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
        } else {
            return Err(err(format!("unrecognised line {raw:?}")));
        }
    }
    let c = footer.ok_or_else(|| PersistError::Truncated {
        file: file.into(),
        message: "missing '# end calls=C' footer (file truncated?)".into(),
    })?;
    if c != data.calls.len() {
        return Err(PersistError::Truncated {
            file: file.into(),
            message: format!(
                "footer claims calls={c} but file holds calls={}",
                data.calls.len()
            ),
        });
    }
    data.base = base.ok_or_else(|| PersistError::Truncated {
        file: file.into(),
        message: "missing 'base:' header".into(),
    })?;
    Ok(data)
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
