//! Resume points: how far an unfinished `weblab run --store` got.
//!
//! The execution file says which calls a run recorded, but not where to
//! resume it: a skipped step records no call and a parallel block records
//! several, so the completed top-level step count, the next call instant
//! and the workflow's step names (checked on resume, so a resume point
//! cannot be replayed against a different workflow) are kept beside it, in
//! the execution's shard as `<id>.resume`:
//!
//! ```text
//! # weblab prov resume point
//! exec: exec%2F1
//! completed: 2
//! next-time: 5
//! calls: 3
//! step: Normaliser
//! step: [LanguageExtractor %7C Translator]
//! # end steps=2 fnv=f8ca2e834a825337
//! ```
//!
//! `calls:` is a witness: the stored call count when the point was
//! written. A run saves a step before it writes that step's point, so a
//! crash between the two leaves the execution file ahead of the point; a
//! resume checks the witness against it and refuses such a point instead
//! of re-running the step over its own output. A point without the
//! witness is malformed. The footer counts the steps and hashes the rest
//! of the file, as every store file's does.
//!
//! Step names are field-escaped: a parallel block renders as
//! `[A | B]`, and a name holding a line break must not inject lines. The
//! file is removed when the run completes, so a stored execution without
//! one is a finished run.

use std::path::Path;

use super::file::{escape_field, seal, unescape_field, unseal, write_atomic, PersistError};
use weblab_xml::Timestamp;

/// How far a resumable run got: what the execution file cannot tell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumePoint {
    /// Top-level workflow steps fully completed (their calls and their
    /// effects on the document are in the execution file).
    pub completed_steps: usize,
    /// The call instant the next step starts at.
    pub next_time: Timestamp,
    /// Calls stored when the point was written (the witness).
    pub calls: usize,
    /// The workflow's step names.
    pub step_names: Vec<String>,
}

/// Serialise a resume point to its line format.
pub fn encode(exec_id: &str, point: &ResumePoint) -> String {
    let mut out = String::from("# weblab prov resume point\n");
    out.push_str(&format!("exec: {}\n", escape_field(exec_id)));
    out.push_str(&format!("completed: {}\n", point.completed_steps));
    out.push_str(&format!("next-time: {}\n", point.next_time));
    out.push_str(&format!("calls: {}\n", point.calls));
    for s in &point.step_names {
        out.push_str(&format!("step: {}\n", escape_field(s)));
    }
    seal(out, &format!("steps={}", point.step_names.len()))
}

/// Parse a resume point's bytes, verifying its integrity footer.
pub fn decode(file: &str, bytes: &[u8]) -> Result<ResumePoint, PersistError> {
    let (text, footer) = unseal(file, bytes)?;
    let mut completed = None;
    let mut next_time = None;
    let mut calls = None;
    let mut steps = Vec::new();
    fn count<T: std::str::FromStr>(v: &str, what: &str) -> Result<T, String> {
        v.trim().parse().map_err(|_| format!("invalid {what} {v:?}"))
    }
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let raw = raw.trim();
        let err = |message: String| PersistError::Format { line, message };
        if raw.is_empty() || raw.starts_with('#') || raw.starts_with("exec:") {
            continue;
        } else if let Some(v) = raw.strip_prefix("completed:") {
            completed = Some(count(v, "step count").map_err(err)?);
        } else if let Some(v) = raw.strip_prefix("next-time:") {
            next_time = Some(count(v, "call instant").map_err(err)?);
        } else if let Some(v) = raw.strip_prefix("calls:") {
            calls = Some(count(v, "call count").map_err(err)?);
        } else if let Some(v) = raw.strip_prefix("step:") {
            steps.push(unescape_field(v.trim()).map_err(err)?);
        } else {
            return Err(err(format!("unrecognised line {raw:?}")));
        }
    }
    let truncated = |message: String| PersistError::Truncated { file: file.into(), message };
    match footer.strip_prefix("steps=").and_then(|n| n.parse::<usize>().ok()) {
        None => return Err(truncated(format!("footer {footer:?} counts no steps"))),
        Some(n) if n != steps.len() => {
            return Err(truncated(format!(
                "footer claims {n} steps but file holds {}",
                steps.len()
            )))
        }
        Some(_) => {}
    }
    let (Some(completed_steps), Some(next_time)) = (completed, next_time) else {
        return Err(truncated("missing 'completed:' or 'next-time:' header".into()));
    };
    if completed_steps > steps.len() {
        return Err(PersistError::Format {
            line: 0,
            message: format!(
                "completed {completed_steps} exceeds the {} workflow steps",
                steps.len()
            ),
        });
    }
    let message = "missing the 'calls:' witness".to_string();
    let calls = calls.ok_or(PersistError::Format { line: 0, message })?;
    Ok(ResumePoint { completed_steps, next_time, calls, step_names: steps })
}

/// Write a resume point to `path` atomically.
pub fn write(path: &Path, exec_id: &str, point: &ResumePoint) -> Result<(), PersistError> {
    write_atomic(path, &encode(exec_id, point))
}

/// Read the resume point at `path`, verifying its footer. `Ok(None)` if
/// there is none.
pub fn read(path: &Path) -> Result<Option<ResumePoint>, PersistError> {
    match std::fs::read(path) {
        Ok(bytes) => decode(&path.display().to_string(), &bytes).map(Some),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}
