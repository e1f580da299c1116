//! The host-speed reference: a fixed, std-only kernel timed next to every
//! measured operation. A shared host's speed drifts by tens of percent
//! within minutes; dividing each operation by the references timed right
//! around it cancels that drift. Times are reported in ms at the kernel's
//! nominal speed.
//!
//! The kernel mixes the work the program under test does: small string
//! allocations, sorting, hashing and byte scanning. A kernel of sorting
//! and hashing alone tracked inference but not XML parsing.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fs::File;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Time one kernel unit takes at nominal speed, ms. Measured on the
/// reference host (2-vCPU Xeon VM) in a calm phase; a constant, so
/// normalised times are comparable across runs and commits.
pub const UNIT_NOMINAL_MS: f64 = 0.1;

/// Wall time of spawning the benchmark's own binary as a kernel child that
/// does no work, at nominal speed, ms (same host and phase as
/// [`UNIT_NOMINAL_MS`]).
pub const SPAWN_NOMINAL_MS: f64 = 1.0;

/// Wall time of one durable file replacement (write, fsync, rename, fsync
/// of the directory) at nominal speed, ms (same host and phase as
/// [`UNIT_NOMINAL_MS`]).
pub const DURABLE_WRITE_NOMINAL_MS: f64 = 0.45;

const WORDS_PER_UNIT: usize = 256;

/// Run `units` units of the kernel; returns a checksum so the work cannot
/// be optimised away.
pub fn work(units: u32) -> u64 {
    let mut acc = 0u64;
    for u in 0..units {
        let mut s = u64::from(u) ^ 0x9e37_79b9_7f4a_7c15;
        let mut words: Vec<String> = Vec::with_capacity(WORDS_PER_UNIT);
        for _ in 0..WORDS_PER_UNIT {
            s = splitmix(s);
            let len = 3 + (s % 10) as usize;
            let w: String = (0..len)
                .map(|k| char::from(b'a' + ((s >> (k * 5)) % 26) as u8))
                .collect();
            words.push(w);
        }
        words.sort_unstable();
        let mut counts: HashMap<&str, u32, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        for w in &words {
            *counts.entry(w.as_str()).or_insert(0) += 1;
        }
        let mut markup = String::with_capacity(WORDS_PER_UNIT * 16);
        for w in &words {
            markup.push('<');
            markup.push_str(w);
            markup.push_str(">x</");
            markup.push_str(w);
            markup.push('>');
        }
        let tags = markup.bytes().filter(|&b| b == b'<').count();
        let vowels = markup.bytes().filter(|b| b"aeiou".contains(b)).count();
        acc = acc
            .wrapping_mul(31)
            .wrapping_add((tags + vowels + counts.len()) as u64);
    }
    black_box(acc)
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Replace `dir/.reference` durably, the way the program's store writes
/// its files: write a temporary file, fsync it, rename it over the target
/// and fsync the directory.
pub fn durable_write(dir: &Path) {
    let tmp = dir.join(".reference.tmp");
    let mut f = File::create(&tmp).expect("creating the reference file");
    f.write_all(&[b'x'; 4096])
        .expect("writing the reference file");
    f.sync_all().expect("syncing the reference file");
    drop(f);
    std::fs::rename(&tmp, dir.join(".reference")).expect("renaming the reference file");
    File::open(dir)
        .and_then(|d| d.sync_all())
        .expect("syncing the reference directory");
}

/// Where the reference runs. It must have the shape of the operation it
/// normalises: an in-process kernel next to in-process work, plus a
/// durable file write next to work that writes a store, and a spawned
/// child of this binary next to spawned `weblab` commands.
#[derive(Debug, Clone)]
pub enum Reference {
    InProcess { units: u32 },
    Durable { units: u32, dir: PathBuf },
    Child { units: u32, exe: PathBuf },
}

impl Reference {
    /// The reference's duration at nominal host speed, ms.
    pub fn nominal_ms(&self) -> f64 {
        match self {
            Reference::InProcess { units } => f64::from(*units) * UNIT_NOMINAL_MS,
            Reference::Durable { units, .. } => {
                f64::from(*units) * UNIT_NOMINAL_MS + DURABLE_WRITE_NOMINAL_MS
            }
            Reference::Child { units, .. } => {
                SPAWN_NOMINAL_MS + f64::from(*units) * UNIT_NOMINAL_MS
            }
        }
    }

    pub fn kind(&self) -> &'static str {
        match self {
            Reference::InProcess { .. } => "in-process",
            Reference::Durable { .. } => "in-process+durable-write",
            Reference::Child { .. } => "child",
        }
    }

    pub fn units(&self) -> u32 {
        match self {
            Reference::InProcess { units }
            | Reference::Durable { units, .. }
            | Reference::Child { units, .. } => *units,
        }
    }

    /// The kernel part's duration at nominal host speed, ms: the whole
    /// reference for a child, whose spawn and kernel are one wall time.
    pub fn nominal_kernel_ms(&self) -> f64 {
        match self {
            Reference::InProcess { units } | Reference::Durable { units, .. } => {
                f64::from(*units) * UNIT_NOMINAL_MS
            }
            Reference::Child { .. } => self.nominal_ms(),
        }
    }

    /// Time one reference slice: the whole slice and its kernel part, ms.
    /// The two differ only for the durable reference, whose file write is
    /// timed apart so either normalisation can be computed from one run.
    /// Callers exclude the slice's CPU from the program's (see
    /// `Harness::outside`).
    pub fn measure(&self) -> (f64, f64) {
        match self {
            Reference::InProcess { units } => {
                let t = Instant::now();
                work(*units);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                (ms, ms)
            }
            Reference::Durable { units, dir } => {
                let t = Instant::now();
                work(*units);
                let kernel = t.elapsed().as_secs_f64() * 1e3;
                durable_write(dir);
                (t.elapsed().as_secs_f64() * 1e3, kernel)
            }
            Reference::Child { units, exe } => {
                let t = Instant::now();
                let status = Command::new(exe)
                    .args(["--kernel", &units.to_string()])
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .stderr(Stdio::null())
                    .status()
                    .expect("spawning the reference kernel child");
                let ms = t.elapsed().as_secs_f64() * 1e3;
                assert!(status.success(), "reference kernel child failed: {status}");
                (ms, ms)
            }
        }
    }
}
