//! The file discipline every store file shares: the error type, atomic
//! writes, and the escapes that keep ids and fields from breaking the
//! line formats.
//!
//! ## Id escaping
//!
//! Execution ids become file names through an *injective* percent-style
//! escape ([`sanitise`]): ASCII letters, digits, `-` and `_` pass through,
//! every other byte (including `%` itself, `/`, `.`, and non-ASCII bytes)
//! becomes `%XX` with an uppercase hex code. `exec/1` maps to `exec%2F1`
//! while `exec_1` stays `exec_1`, so distinct ids can never collide onto
//! the same file (an earlier lossy scheme flattened both to `exec_1` and
//! let one execution silently overwrite another). [`unsanitise`] reverses
//! it, which lets directory scans recover the original ids.
//!
//! ## Field escaping
//!
//! The same idea protects the *fields* of the line formats
//! ([`escape_field`]): service names, channels, step names and URIs are
//! stored with `%`, `|`, `,`, line breaks, tabs, and leading/trailing
//! blanks percent-escaped, so a hostile service name like `A | B` or a URI
//! containing `,` round-trips instead of splitting a line into extra
//! fields on reload.
//!
//! ## Crash safety and integrity
//!
//! Every file is written with [`write_atomic`]: the bytes go to a
//! temporary file in the same directory, the file is fsynced, renamed over
//! the target, and (on unix) the directory is fsynced — a crash mid-save
//! leaves either the old version or the new one, never a torn file. An
//! execution file also ends in a `# end fnv=…` footer ([`seal`]), the
//! 64-bit FNV-1a hash of every byte before it, checked on load
//! ([`unseal`]), so a file cut short or with a flipped byte is detected as
//! [`PersistError::Truncated`] instead of loading as another execution.

use std::fmt::{self, Write as _};
use std::io::Write;
use std::path::Path;

/// Failure reading or writing a store directory.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem error.
    Io(std::io::Error),
    /// The stored document failed to parse.
    Xml(String),
    /// A store file holds a malformed line, or a reference the document
    /// cannot resolve.
    Format {
        /// 1-based line number (0 when the fault is not tied to a line).
        line: usize,
        /// Description.
        message: String,
    },
    /// A file's integrity footer is missing or disagrees with its contents
    /// — the file was truncated or otherwise damaged after being written.
    Truncated {
        /// Which file failed the check.
        file: String,
        /// Description of the mismatch.
        message: String,
    },
    /// The store directory is locked by another live process (a daemon
    /// serving it, or a CLI run writing it). Stable error code:
    /// `store-locked`.
    StoreLocked {
        /// The locked store directory.
        path: String,
        /// Pid of the live owner found in the lock file.
        pid: u32,
    },
    /// A durable run cannot continue the stored execution: no store is
    /// attached, the execution holds no resume point (no durable run of
    /// it is unfinished), or its point was written for another workflow.
    Resume(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::Xml(m) => write!(f, "document error: {m}"),
            PersistError::Format { line, message } => {
                write!(f, "format error at line {line}: {message}")
            }
            PersistError::Truncated { file, message } => {
                write!(f, "file {file} failed its integrity check: {message}")
            }
            PersistError::StoreLocked { path, pid } => {
                write!(f, "store directory {path} is locked by running process {pid}")
            }
            PersistError::Resume(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// 64-bit FNV-1a over `bytes`: stable across runs and platforms. It
/// shards execution ids and hashes every file's contents.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// End `body` with its `# end fnv=…` footer, the hash of every byte
/// before it.
pub(crate) fn seal(mut body: String) -> String {
    let hash = fnv1a(body.as_bytes());
    let _ = writeln!(body, "# end fnv={hash:016x}");
    body
}

/// Check the footer [`seal`] wrote and split it off, returning the text
/// before it. A file without the footer, or whose hash disagrees with its
/// bytes, is [`PersistError::Truncated`].
pub(crate) fn unseal<'a>(file: &str, bytes: &'a [u8]) -> Result<&'a str, PersistError> {
    let truncated = |message: String| PersistError::Truncated { file: file.into(), message };
    let start = bytes
        .strip_suffix(b"\n")
        .and_then(|b| b.iter().rposition(|&c| c == b'\n'))
        .map_or(0, |i| i + 1);
    let (body, footer) = bytes.split_at(start);
    let footer = std::str::from_utf8(footer)
        .ok()
        .and_then(|f| f.trim_end().strip_prefix("# end "))
        .ok_or_else(|| truncated("missing its '# end' footer (file truncated?)".into()))?;
    let stored = footer
        .strip_prefix("fnv=")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| truncated(format!("footer {footer:?} carries no content hash")))?;
    let actual = fnv1a(body);
    if actual != stored {
        return Err(truncated(format!(
            "contents hash to {actual:016x}, the footer says {stored:016x}"
        )));
    }
    std::str::from_utf8(body)
        .map_err(|_| PersistError::Format { line: 0, message: "not UTF-8 text".into() })
}

/// Escape a line-format field so it can never be confused with the
/// format's structure: `%` (the escape introducer), `|` (the field
/// separator), `,` (the list separator), line breaks and tabs are always
/// escaped as `%XX`; leading and trailing spaces are escaped too because
/// the parsers trim fields. Everything else passes through, so ordinary
/// names serialise unchanged.
pub(crate) fn escape_field(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(s.len());
    for (i, &b) in bytes.iter().enumerate() {
        let boundary_space = b == b' ' && (i == 0 || i == bytes.len() - 1);
        if matches!(b, b'%' | b'|' | b',' | b'\n' | b'\r' | b'\t') || boundary_space {
            out.extend_from_slice(format!("%{b:02X}").as_bytes());
        } else {
            // Multi-byte UTF-8 sequences contain no ASCII specials, so
            // copying byte-by-byte preserves them intact.
            out.push(b);
        }
    }
    String::from_utf8(out).expect("escaping preserves UTF-8 validity")
}

/// Reverse [`escape_field`]. A field without `%` decodes unchanged; a
/// stray `%` not followed by two hex digits is a format error.
pub(crate) fn unescape_field(s: &str) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes
                .get(i + 1..i + 3)
                .and_then(|h| std::str::from_utf8(h).ok())
                .and_then(|h| u8::from_str_radix(h, 16).ok())
                .ok_or_else(|| format!("malformed %XX escape in field {s:?}"))?;
            out.push(hex);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| format!("escaped field {s:?} is not valid UTF-8"))
}

/// Atomically replace `path` with `contents`: write to a temporary file in
/// the same directory, fsync it, rename it over the target, and (on unix)
/// fsync the directory so the rename itself is durable. A crash at any
/// point leaves either the complete old file or the complete new one.
pub(crate) fn write_atomic(path: &Path, contents: &str) -> Result<(), PersistError> {
    use std::sync::atomic::{AtomicU64, Ordering};
    // The temporary name must be unique per writer: with a fixed name, two
    // concurrent saves of the same id interleave create/write/rename and
    // can publish a torn file (or fail renaming a tmp the other writer
    // already consumed). pid + a process-wide counter keeps writers apart
    // both within a process and across processes sharing the directory.
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = path.parent().unwrap_or(Path::new("."));
    let tmp = dir.join(format!(
        ".{}.{}.{}.tmp",
        path.file_name().and_then(|n| n.to_str()).unwrap_or("store"),
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e.into());
    }
    #[cfg(unix)]
    {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Map an execution id to a file-name-safe stem, *injectively*: ASCII
/// letters, digits, `-` and `_` pass through; every other byte (including
/// `%`, `/`, `.` and non-ASCII bytes) becomes `%XX`.
pub(crate) fn sanitise(id: &str) -> String {
    let mut out = String::with_capacity(id.len());
    for b in id.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' => out.push(b as char),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Reverse [`sanitise`]: recover the original execution id from a file
/// stem, or `None` if the stem is not a valid encoding (e.g. a file that
/// was not produced by `sanitise`).
pub(crate) fn unsanitise(stem: &str) -> Option<String> {
    let bytes = stem.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok())?;
                out.push(hex);
                i += 3;
            }
            b @ (b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_') => {
                out.push(b);
                i += 1;
            }
            _ => return None,
        }
    }
    String::from_utf8(out).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("weblab-file-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn leftover_temp_files(dir: &Path) -> Vec<String> {
        std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp"))
            .collect()
    }

    #[test]
    fn atomic_writes_leave_no_temp_files() {
        let dir = tmpdir("atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("e.doc.xml");
        write_atomic(&path, "first\n").unwrap();
        // overwrite in place — still atomic, still clean
        write_atomic(&path, "second\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second\n");
        let leftovers = leftover_temp_files(&dir);
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_saves_publish_one_complete_version() {
        // Regression: with a fixed tmp name, two concurrent write_atomic
        // calls interleaved create/write/rename and could publish a torn
        // file or fail on a tmp the other writer had already renamed.
        use std::sync::Arc;
        let dir = tmpdir("race");
        std::fs::create_dir_all(&dir).unwrap();
        let path = Arc::new(dir.join("contended.txt"));
        let candidates: Vec<String> = (0..8)
            .map(|i| format!("writer-{i}\n").repeat(2000))
            .collect();
        let mut handles = Vec::new();
        for content in &candidates {
            let path = Arc::clone(&path);
            let content = content.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..20 {
                    write_atomic(&path, &content).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let last = std::fs::read_to_string(&*path).unwrap();
        assert!(
            candidates.contains(&last),
            "published file is a torn mix of writers"
        );
        let leftovers = leftover_temp_files(&dir);
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn distinct_ids_map_to_distinct_stems() {
        // Regression: the old sanitise() flattened both of these to
        // "exec_1", so the second save silently overwrote the first.
        assert_ne!(sanitise("exec/1"), sanitise("exec_1"));
        assert_eq!(sanitise("exec/1"), "exec%2F1");
        assert_eq!(sanitise("exec_1"), "exec_1");
    }

    #[test]
    fn sanitise_is_injective_and_reversible() {
        let ids = [
            "plain", "exec/1", "exec_1", "a b", "a%2Fb", "%", "..", "über",
            "x|y,z", "", "exec.1", "exec%1",
        ];
        let mut seen = std::collections::HashSet::new();
        for id in ids {
            let stem = sanitise(id);
            assert!(seen.insert(stem.clone()), "collision on {id:?}");
            assert!(
                stem.bytes().all(|b| b.is_ascii_alphanumeric()
                    || b == b'-'
                    || b == b'_'
                    || b == b'%'),
                "unsafe byte in stem {stem:?}"
            );
            assert_eq!(unsanitise(&stem).as_deref(), Some(id));
        }
        // stems that were never produced by sanitise are rejected
        assert_eq!(unsanitise("bad%zz"), None);
        assert_eq!(unsanitise("trailing%2"), None);
        assert_eq!(unsanitise("has/slash"), None);
    }

    #[test]
    fn escaped_fields_keep_plain_names_readable() {
        // Ordinary names serialise byte-for-byte unescaped, and a field
        // without '%' decodes unchanged.
        assert_eq!(escape_field("Normaliser"), "Normaliser");
        assert_eq!(escape_field("weblab://res/a"), "weblab://res/a");
        assert_eq!(unescape_field("weblab://res/a").unwrap(), "weblab://res/a");
        assert_eq!(escape_field("A | B"), "A %7C B");
        assert_eq!(unescape_field("A %7C B").unwrap(), "A | B");
        assert_eq!(escape_field(" pad "), "%20pad%20");
        assert_eq!(escape_field("a,b\r\n\tc%"), "a%2Cb%0D%0A%09c%25");
        assert!(unescape_field("broken %2").is_err());
    }
}
