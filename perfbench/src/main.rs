//! perfbench — the weblab benchmark.
//!
//! ```text
//! perfbench --weblab <path to weblab binary> --workload <name> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --kernel <units>     (the reference kernel, as a child process)
//! perfbench --calibrate          (print the kernel's speed on this host)
//! ```
//!
//! Runs one closed-loop workload (`cli-oneshot`, `serve-resident`,
//! `store-churn`; see README.md), checks every output, and prints as its
//! last stdout line `{"correct":…,"attempted":…,"failed":…,"metrics":…}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The line before it is the full report (stamps, sample
//! counts, raw values, report-only p90s); the report and the spans are
//! also written to `.perfbench/reports/`.

mod churn;
mod cli;
mod harness;
mod ingest;
mod inputs;
mod kernel;
mod resident;
mod stats;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use weblab::json::Json;

use harness::{Harness, Kind};

/// The run's settings, from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: u32,
    pub weblab: PathBuf,
    pub exe: PathBuf,
    /// Scratch directory of this run, inside the checkout.
    pub work: PathBuf,
}

/// What a workload reports besides the harness's samples.
#[derive(Default)]
pub struct Extras {
    pub peak_rss_mb: f64,
    pub store_bytes_per_input_byte: f64,
    /// Input sizes stamped into the report.
    pub sizes: Vec<(&'static str, u64)>,
    /// Filesystem type of the store directory, where there is one.
    pub store_fs: Option<String>,
}

pub const WORKLOADS: [&str; 3] = ["cli-oneshot", "serve-resident", "store-churn"];

const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("read_p50_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("store_bytes_per_input_byte", "B/B"),
];

/// Per-layer self times (ms per operation that calls the layer).
const LAYERS: [&str; 21] = [
    "cli.spawn",
    "xml.parse",
    "xml.serialize",
    "prov.infer",
    "prov.query",
    "prov.index_build",
    "rdf.export",
    "rdf.select",
    "rdf.turtle",
    "workflow.execute",
    "platform.execute",
    "platform.query",
    "json.parse",
    "serve.render",
    "serve.dispatch",
    "serve.transport",
    "platform.cold_load",
    "platform.evict",
    "store.load",
    "store.save",
    "store.compact",
];

/// Per-layer counts, as ratios the workloads accumulate.
const COUNTS: [&str; 16] = [
    "xpath.pattern_evals_per_op",
    "xpath.nodes_visited_per_op",
    "prov.cache_hit_ratio",
    "prov.index_hits_per_read",
    "prov.index_traversals_per_read",
    "rdf.plan_cache_hit_ratio",
    "rdf.join_rows_per_scanned",
    "prov.rank_visited_per_query",
    "live.deltas_per_write",
    "store.cold_loads_per_read",
    "store.evictions_per_op",
    "store.snapshots_per_write",
    "store.delta_appends_per_write",
    "io.write_bytes_per_op",
    "io.write_calls_per_op",
    "io.read_bytes_per_read",
];

fn count_unit(name: &str) -> &'static str {
    if name.ends_with("_ratio") || name.ends_with("_per_scanned") {
        "ratio"
    } else if name.starts_with("io.") && name.contains("bytes") {
        "B"
    } else {
        "count"
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u32,
    trace: bool,
    weblab: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut weblab = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {a}"));
        match a.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed expects an integer")?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--seconds expects an integer")?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                })
            }
            "--weblab" => weblab = Some(PathBuf::from(value()?)),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let seconds: u32 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        weblab: weblab.ok_or("--weblab is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--kernel") => {
            let units = argv.get(1).and_then(|u| u.parse().ok()).unwrap_or(0);
            kernel::work(units);
            return ExitCode::SUCCESS;
        }
        Some("--calibrate") => {
            calibrate();
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.weblab.is_file() {
        eprintln!(
            "perfbench: weblab binary {} not found",
            args.weblab.display()
        );
        return ExitCode::from(2);
    }
    let root = PathBuf::from(".perfbench");
    let work = root
        .join("work")
        .join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: creating {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        weblab: args.weblab.clone(),
        exe: std::env::current_exe().expect("the benchmark knows its own path"),
        work: work.clone(),
    };
    let started = Instant::now();
    let (h, extras) = match args.workload.as_str() {
        "cli-oneshot" => cli::run(&ctx, args.trace),
        "serve-resident" => resident::run(&ctx, args.trace),
        _ => churn::run(&ctx, args.trace),
    };
    let _ = std::fs::remove_dir_all(&work);

    let (result, report) = assemble(&args, &h, &extras, started.elapsed().as_secs_f64());
    let reports = root.join("reports");
    let name = format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let full = Json::obj(vec![
        ("report", report.clone()),
        ("samples", h.samples_json()),
        ("spans", h.tracer.to_json()),
    ]);
    if std::fs::create_dir_all(&reports)
        .and_then(|()| std::fs::write(reports.join(name), full.to_string()))
        .is_err()
    {
        eprintln!(
            "perfbench: could not write the report under {}",
            reports.display()
        );
    }
    for f in &h.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    println!("{}", Json::obj(vec![("report", report)]));
    println!("{result}");
    ExitCode::SUCCESS
}

fn metric(value: f64, unit: &str) -> Json {
    let value = if value.is_finite() { value } else { 0.0 };
    Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// The result line and the full report.
fn assemble(args: &Args, h: &Harness, x: &Extras, wall_s: f64) -> (Json, Json) {
    let reads = h.normalised(Kind::Read, false);
    let writes = h.normalised(Kind::Write, false);
    let e2e: BTreeMap<&str, (f64, usize, f64)> = [
        (
            "setup_s",
            h.setup_s(),
            h.setups.iter().map(|s| s.0 / 1e3).collect(),
        ),
        ("read_p50_ms", reads.clone(), h.raw(Kind::Read)),
        ("write_p50_ms", writes.clone(), h.raw(Kind::Write)),
        ("throughput_per_s", h.throughput(), h.raw_throughput()),
        ("cpu_ms_per_op", h.cpu_per_op(), h.raw_cpu_per_op()),
    ]
    .into_iter()
    .map(|(k, v, raw): (&str, Vec<f64>, Vec<f64>)| {
        (k, (stats::median(&v), v.len(), stats::median(&raw)))
    })
    .chain([
        ("peak_rss_mb", (x.peak_rss_mb, 1, x.peak_rss_mb)),
        (
            "store_bytes_per_input_byte",
            (
                x.store_bytes_per_input_byte,
                1,
                x.store_bytes_per_input_byte,
            ),
        ),
    ])
    .collect();

    let mut layer: Vec<(String, f64, usize, &str)> = Vec::new();
    for name in LAYERS {
        let (v, n) = h.layer_ms(name);
        layer.push((format!("{name}_ms"), v, n, "ms"));
    }
    for (name, kind) in [
        ("residual.read_ms", Kind::Read),
        ("residual.write_ms", Kind::Write),
    ] {
        let (v, n) = h.residual_ms(kind);
        layer.push((name.to_string(), v, n, "ms"));
    }
    for name in COUNTS {
        let (num, den) = h.counts.get(name).copied().unwrap_or((0.0, 0.0));
        let v = if den > 0.0 { num / den } else { 0.0 };
        layer.push((name.to_string(), v, den as usize, count_unit(name)));
    }
    let refs = &h.refs;
    layer.push((
        "bench.reference_ms".into(),
        stats::median(refs),
        refs.len(),
        "ms",
    ));
    let traced_reads = h.normalised(Kind::Read, true);
    let overhead = if h.trace && !reads.is_empty() && !traced_reads.is_empty() {
        100.0 * (stats::median(&traced_reads) / stats::median(&reads) - 1.0)
    } else {
        0.0
    };
    layer.push((
        "trace.overhead_pct".into(),
        overhead,
        traced_reads.len(),
        "%",
    ));

    let metrics = if h.trace {
        Json::Obj(
            layer
                .iter()
                .map(|(n, v, _, u)| (n.clone(), metric(*v, u)))
                .collect(),
        )
    } else {
        Json::Obj(
            END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), metric(e2e[n].0, u)))
                .collect(),
        )
    };
    let correct = h.failed == 0 && !h.setup_failed && h.attempted > 0;
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(h.attempted.max(1))),
        ("failed", Json::num(h.failed)),
        ("metrics", metrics),
    ]);

    let tail = |v: &[f64]| {
        let t = stats::p90(v);
        Json::obj(vec![
            ("value_ms", Json::Num(t.value)),
            ("samples", Json::num(t.samples as u64)),
            ("beyond", Json::num(t.beyond as u64)),
        ])
    };
    let report = Json::obj(vec![
        ("workload", Json::str(args.workload.as_str())),
        ("seed", Json::num(args.seed)),
        ("seconds", Json::num(u64::from(args.seconds))),
        ("trace", Json::Bool(args.trace)),
        ("source", Json::str(sys::source_digest())),
        ("nproc", Json::num(sys::nproc() as u64)),
        ("wall_s", Json::Num(wall_s)),
        (
            "reference",
            Json::obj(vec![
                ("kind", Json::str(h.reference.kind())),
                ("units", Json::num(u64::from(h.reference.units()))),
                ("nominal_ms", Json::Num(h.reference.nominal_ms())),
                ("raw_median_ms", Json::Num(stats::median(refs))),
                (
                    "raw_median_kernel_ms",
                    Json::Num(stats::median(&h.ref_kernels)),
                ),
                ("samples", Json::num(refs.len() as u64)),
                // the same operations normalised by the kernel part alone
                (
                    "kernel_only",
                    Json::obj(vec![
                        (
                            "read_p50_ms",
                            Json::Num(stats::median(&h.normalised_by_kernel(Kind::Read))),
                        ),
                        (
                            "write_p50_ms",
                            Json::Num(stats::median(&h.normalised_by_kernel(Kind::Write))),
                        ),
                    ]),
                ),
            ]),
        ),
        (
            "sizes",
            Json::Obj(
                x.sizes
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::num(*v)))
                    .collect(),
            ),
        ),
        (
            "store_fs",
            x.store_fs.as_deref().map_or(Json::Null, Json::str),
        ),
        ("slices", Json::num(h.slices.len() as u64)),
        (
            "end_to_end",
            Json::Obj(
                e2e.iter()
                    .map(|(k, (v, n, raw))| {
                        (
                            k.to_string(),
                            Json::obj(vec![
                                ("value", Json::Num(*v)),
                                ("samples", Json::num(*n as u64)),
                                ("raw", Json::Num(*raw)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        ("read_p90_ms", tail(&reads)),
        ("write_p90_ms", tail(&writes)),
        (
            "per_layer",
            Json::Obj(
                layer
                    .iter()
                    .map(|(n, v, s, _)| {
                        (
                            n.clone(),
                            Json::obj(vec![
                                ("value", Json::Num(*v)),
                                ("samples", Json::num(*s as u64)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        ("breakdown", breakdown_checks(h)),
        ("attempted", Json::num(h.attempted)),
        ("failed", Json::num(h.failed)),
        ("setup_failed", Json::Bool(h.setup_failed)),
        (
            "failures",
            Json::Arr(h.failures.iter().map(|f| Json::str(f.as_str())).collect()),
        ),
    ]);
    (result, report)
}

/// What the traced breakdowns can get wrong: per layer and residual, the
/// most negative self time and the number of operations it went negative
/// in; and per operation kind, the median share covered by replayed calls.
fn breakdown_checks(h: &Harness) -> Json {
    let negative = h
        .negative_self_times()
        .into_iter()
        .map(|(name, (ms, ops))| {
            (
                name,
                Json::obj(vec![
                    ("min_ms", Json::Num(ms)),
                    ("ops", Json::num(ops as u64)),
                ]),
            )
        })
        .collect();
    let shares = [Kind::Read, Kind::Write, Kind::Between]
        .into_iter()
        .map(|kind| {
            let (share, n) = h.replayed_share(kind);
            (
                kind.name().to_string(),
                Json::obj(vec![
                    ("value", Json::Num(share)),
                    ("samples", Json::num(n as u64)),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("negative_self_ms", Json::Obj(negative)),
        ("replayed_share", Json::Obj(shares)),
    ])
}

/// Print the kernel's unit time and the kernel child's spawn time on this
/// host (medians of repeated runs) — how the nominal constants in
/// `kernel.rs` were measured.
fn calibrate() {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let dir = PathBuf::from(".perfbench").join("calibrate");
    std::fs::create_dir_all(&dir).expect("creating the calibration directory");
    let mut unit = Vec::new();
    let mut spawn = Vec::new();
    let mut durable = Vec::new();
    for _ in 0..200 {
        let t = Instant::now();
        kernel::durable_write(&dir);
        durable.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        kernel::work(20);
        unit.push(t.elapsed().as_secs_f64() * 1e3 / 20.0);
        spawn.push(
            kernel::Reference::Child {
                units: 0,
                exe: exe.clone(),
            }
            .measure()
            .0,
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    for (name, v) in [
        ("unit_ms", &unit),
        ("spawn_ms", &spawn),
        ("durable_write_ms", &durable),
    ] {
        println!(
            "{name}: p25 {:.4} p50 {:.4} p75 {:.4}",
            stats::quantile(v, 0.25),
            stats::median(v),
            stats::quantile(v, 0.75)
        );
    }
}
