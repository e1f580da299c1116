//! `weblab` — command-line interface to the WebLab PROV reproduction.
//!
//! ```text
//! weblab run <input.xml> <service,service,…> [-o out.xml] [--retries N]
//!            [--on-failure abort|skip|retry] [--live] [--store DIR [--resume]]
//!     Run built-in media-mining services over a WebLab document, through
//!     the platform code the serve `ingest` op runs, and write the stamped
//!     result (wl:id / wl:s / wl:t metadata included).
//!     `--retries N` grants each step N extra attempts (failed attempts are
//!     rolled back; retries reuse the call instant); `--on-failure` sets
//!     what happens once they are exhausted: abort the run (default), skip
//!     the step, or retry (implied by `--retries`). The `flaky` / `flaky:N`
//!     pseudo-service fails its first 2 / N calls, then succeeds.
//!     `--live` folds every committed call into the execution's epoch
//!     snapshot as it completes, as a live `ingest` does, so the full graph
//!     exists without a batch inference pass; a summary goes to stderr.
//!     `--store DIR` (implies `--live`) runs the execution, named after the
//!     input's file stem, durably in the provenance store at DIR: after
//!     every completed step it is written through and a resume point
//!     records how far it got, and `--resume` continues a crashed run from
//!     there. A run without `--resume` on an execution the store holds
//!     fails before any service runs, and so does `--resume` on a finished
//!     run, or (code `store`) on a point the stored log ran ahead of. A
//!     directory a running daemon holds fails with `store-locked`.
//!
//! weblab replay <changed.xml> --from DIR [--exec ID] --changed URI[,URI…]
//!               [--proof trusted|exact|concordant] [--tolerance F]
//!               [-o out.xml] [catalog.txt]
//!     Provenance-guided incremental recomputation, computed as the serve
//!     `replay` op computes it: re-run a prior execution (stored by `weblab
//!     run --store DIR`) under a changed copy of its *input* document,
//!     re-executing only the services whose outputs fall inside the dirty
//!     cone of the `--changed` URIs (their `impacted-by` closure in the
//!     prior run's provenance) and splicing every other fragment forward.
//!     The output is provably identical to a full re-run, and DIR is left
//!     as it was. `--proof exact` sandbox-re-executes every reused step and
//!     demands byte identity; `--proof concordant` grades similarity and
//!     accepts fragments at or above `--tolerance` (default 0.9), reporting
//!     per-fragment grades. `--exec ID` defaults to the changed file's
//!     stem, the id `weblab run` derives from its input path.
//!
//! weblab infer <stamped.xml> [catalog.txt] [--inherit] [--format table|turtle|provxml|dot] [--jobs N|auto]
//!     Reconstruct the execution trace from the document's labels, apply
//!     the mapping rules (built-in defaults, or a Service Catalog file) and
//!     print the provenance graph.
//!
//! weblab query <stamped.xml> <sparql> [catalog.txt] [--jobs N|auto]
//!     Materialise the PROV-O graph and answer a SPARQL SELECT query.
//!
//! weblab query <stamped.xml> rank <uri>… [--direction up|down] [--limit N]
//!              [--budget N] [--decay F] [--weight Service=F]
//!              [--catalog FILE] [--jobs N|auto]
//!     Ranked relevance by spreading activation: seeds start at score
//!     1.000000, each hop multiplies by `--decay` (default 0.5) and the
//!     per-service `--weight` (repeatable; default 1.0) of the service
//!     that produced the derived endpoint. `--budget N` caps the visited
//!     frontier to the N best-scored resources (0 = unbounded, the exact
//!     impacted-by / lineage closure); `--limit N` truncates the printed
//!     list. Scores are deterministic fixed-point values — identical to
//!     the serve protocol's `rank` op at any worker count.
//!
//! weblab query <stamped.xml> summary [uri] [--catalog FILE] [--jobs N|auto]
//!     Traversal-free aggregate analytics from the reachability index:
//!     per-service influence, common-origin clusters, and (with a uri)
//!     that resource's blast radius.
//!
//! weblab why <stamped.xml> <resource-uri> [catalog.txt] [--jobs N|auto]
//!     Why-provenance: the justifying subgraph of one resource.
//!
//! `--jobs` (or `-j`) sets the inference engine's worker-thread count
//! (`auto` = all available cores); the default is sequential. The output is
//! byte-identical at any setting.
//!
//! `--metrics` (any command) enables engine observability: pattern
//! evaluations, cache hits/misses, per-service timings and more are
//! collected during the run and printed as a table on stderr afterwards.
//! `--metrics-out FILE` (implies `--metrics`) additionally writes the
//! machine-readable JSON report to FILE.
//!
//! weblab services
//!     List the built-in services and their default mapping rules.
//!
//! weblab serve [--port N] [--workers N] [--max-rows N] [--max-batch N]
//!              [--max-conns N] [--idle-timeout MS]
//!              [--store DIR [--max-resident N]]
//!              [catalog.txt]
//!     Start the long-running provenance query service: a TCP daemon
//!     speaking line-delimited JSON (`why`, `lineage`, `impacted-by`,
//!     `common-origins`, `sparql`, `rank`, `summary`, `batch`, `ingest`,
//!     `replay`, `status`, `shutdown` — see DESIGN.md §10, §12, §14 and
//!     §15; responses carry the protocol version `"v":2`). A non-blocking event
//!     loop owns all sockets and pipelined requests; `--workers N` sizes
//!     the dispatch pool (default 4). Queries answer from a published
//!     reachability-index snapshot, concurrently with live ingestion;
//!     `batch` answers all its sub-requests at one pinned epoch.
//!     `--port 0` (the default) binds an ephemeral port; the bound
//!     address is printed as `listening on …` on stdout. `--max-rows N`
//!     caps `sparql`, `rank` and `summary` result rows (default 10000;
//!     code `result-limit`),
//!     `--max-batch N` caps batch sub-requests (default 256; code
//!     `batch-limit`), `--max-conns N` caps concurrent connections
//!     (default 1024; code `overloaded`), `--idle-timeout MS` closes
//!     idle connections (default 300000; 0 disables; code
//!     `idle-timeout`). `--store DIR` attaches the disk-backed sharded
//!     provenance store: every execution is written through to DIR, at
//!     most `--max-resident N` executions (default 64) stay in memory,
//!     and evicted executions cold-load transparently — answers are
//!     byte-identical to the resident path, and a restarted daemon
//!     serves the previous daemon's executions.
//! ```
//!
//! Catalog files use the Service Catalog text format (see
//! `weblab_platform::ServiceCatalog`): `[service] name | endpoint | sig`
//! headers followed by `rule: <mapping>` lines.
//!
//! Failures print as `error[{code}]: {message}` where the code is the
//! stable [`WebLabError::code`] string shared with the serve protocol.

use std::process::ExitCode;
use std::sync::Arc;

use weblab::error::WebLabError;
use weblab::platform::{
    Mapper, Platform, PlatformError, ProvQuery, ProvStore, QueryAnswer, QueryOpts, RankDirection,
    ServiceCatalog,
};
use weblab::prov::{
    format_micro, infer_provenance, micro_from_f64, EngineOptions, ExecutionTrace, InheritMode,
    Parallelism, ProvenanceGraph, RuleSet,
};
use weblab::rdf::{export_prov, to_turtle};
use weblab::serve::Server;
use weblab::workflow::services::{
    self, EntityExtractor, Flaky, Indexer, KeywordExtractor, LanguageExtractor, Normaliser,
    OcrExtractor, SentimentAnalyser, SpeechTranscriber, Summariser, Tokeniser, Translator,
};
use weblab::workflow::{
    AttemptStatus, FailurePolicy, FaultPolicy, ProofMode, RetryPolicy, Service, Workflow,
};
use weblab::xml::{parse_document, to_xml_string_pretty, Document};

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let metrics = match extract_metrics_flags(&mut args) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error[{}]: {e}", e.code());
            return ExitCode::from(2);
        }
    };
    if metrics.enabled {
        weblab::obs::enable();
    }
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("infer") => cmd_infer(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("why") => cmd_why(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("services") => cmd_services(),
        _ => {
            eprintln!("usage: weblab <run|replay|infer|query|why|serve|services> …  (see --help in the binary's doc comment)");
            return ExitCode::from(2);
        }
    };
    let result = result.and_then(|()| report_metrics(&metrics));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error[{}]: {e}", e.code());
            ExitCode::FAILURE
        }
    }
}

/// `--metrics` / `--metrics-out FILE` are global flags: they apply to every
/// command, so they are stripped from the argument list before dispatch.
struct MetricsFlags {
    enabled: bool,
    out: Option<String>,
}

fn extract_metrics_flags(args: &mut Vec<String>) -> Result<MetricsFlags, WebLabError> {
    let mut flags = MetricsFlags {
        enabled: false,
        out: None,
    };
    let mut kept = Vec::with_capacity(args.len());
    let mut it = args.drain(..);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--metrics" => flags.enabled = true,
            "--metrics-out" => {
                flags.out = Some(it.next().ok_or("missing value for --metrics-out")?);
                flags.enabled = true;
            }
            _ => kept.push(a),
        }
    }
    drop(it);
    *args = kept;
    Ok(flags)
}

/// After the command ran: human table to stderr (stdout belongs to the
/// command's own output), JSON to the requested file.
fn report_metrics(flags: &MetricsFlags) -> CliResult {
    if !flags.enabled {
        return Ok(());
    }
    let snap = weblab::obs::snapshot();
    eprintln!("--- metrics ---\n{}", snap.to_table());
    if let Some(path) = &flags.out {
        std::fs::write(path, snap.to_json())
            .map_err(|e| WebLabError::io(format!("writing metrics report {path}"), e))?;
    }
    Ok(())
}

type CliResult = Result<(), WebLabError>;

/// Print to stdout, treating a broken pipe (e.g. `weblab … | head`) as a
/// successful early exit rather than a panic.
fn emit(text: &str) -> CliResult {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|_| out.flush()) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {
            std::process::exit(0);
        }
        Err(e) => Err(WebLabError::io("writing to stdout", e)),
    }
}

fn read_doc(path: &str) -> Result<Document, WebLabError> {
    let text = std::fs::read_to_string(path).map_err(|e| WebLabError::io(format!("reading {path}"), e))?;
    Ok(parse_document(&text)?)
}

fn service_by_name(name: &str) -> Option<Box<dyn Service>> {
    // fault-injection service: `flaky` fails twice then succeeds; `flaky:N`
    // fails N times
    if let Some(rest) = name.to_lowercase().strip_prefix("flaky") {
        let n = match rest.strip_prefix(':') {
            Some(v) => v.parse().ok()?,
            None if rest.is_empty() => 2,
            None => return None,
        };
        return Some(Box::new(Flaky::failing(n)));
    }
    Some(match name.to_lowercase().as_str() {
        "normaliser" | "normalizer" => Box::new(Normaliser),
        "languageextractor" | "language" => Box::new(LanguageExtractor),
        "translator" => Box::new(Translator::default()),
        "tokeniser" | "tokenizer" => Box::new(Tokeniser),
        "entityextractor" | "entities" => Box::new(EntityExtractor),
        "sentimentanalyser" | "sentiment" => Box::new(SentimentAnalyser),
        "keywordextractor" | "keywords" => Box::new(KeywordExtractor),
        "summariser" | "summarizer" => Box::new(Summariser),
        "indexer" => Box::new(Indexer),
        "ocrextractor" | "ocr" => Box::new(OcrExtractor),
        "speechtranscriber" | "speech" => Box::new(SpeechTranscriber),
        _ => return None,
    })
}

fn rules_from(path: Option<&str>) -> Result<RuleSet, WebLabError> {
    match path {
        None => Ok(services::default_rules()),
        Some(p) => {
            let text = std::fs::read_to_string(p)
                .map_err(|e| WebLabError::io(format!("reading {p}"), e))?;
            let catalog = ServiceCatalog::from_text(&text).map_err(PlatformError::from)?;
            Ok(catalog.rule_set())
        }
    }
}

/// A platform with the built-in services registered under `rules` — what
/// `weblab run`, `weblab replay` and `weblab serve` drive.
fn builtin_platform(rules: &RuleSet) -> Result<Platform, PlatformError> {
    let platform = Platform::new(Mapper::native());
    let builtins: [Arc<dyn Service>; 11] = [
        Arc::new(Normaliser),
        Arc::new(LanguageExtractor),
        Arc::new(Translator::default()),
        Arc::new(Tokeniser),
        Arc::new(EntityExtractor),
        Arc::new(SentimentAnalyser),
        Arc::new(KeywordExtractor),
        Arc::new(Summariser),
        Arc::new(Indexer),
        Arc::new(OcrExtractor),
        Arc::new(SpeechTranscriber),
    ];
    for svc in builtins {
        let parsed = rules.rules_for(svc.name());
        platform.register_service(svc, parsed)?;
    }
    Ok(platform)
}

/// The next argument as the value of `flag`, parsed; `what` names the
/// value expected.
fn flag_value<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
    what: &str,
) -> Result<T, WebLabError> {
    let v = it.next().ok_or_else(|| format!("missing value for {flag}"))?;
    v.parse().map_err(|_| format!("{flag} expects {what}, got {v:?}").into())
}

/// Parse a `--jobs` value: a worker-thread count, or `auto` for all cores.
fn parse_jobs(v: &str) -> Result<Parallelism, WebLabError> {
    if v.eq_ignore_ascii_case("auto") {
        Ok(Parallelism::Auto)
    } else {
        v.parse::<usize>()
            .map(Parallelism::Threads)
            .map_err(|_| format!("--jobs expects a thread count or \"auto\", got {v:?}").into())
    }
}

/// Split positional arguments from a trailing/interspersed `--jobs` flag
/// (commands whose other arguments are purely positional).
fn split_jobs(args: &[String]) -> Result<(Vec<String>, Parallelism), WebLabError> {
    let mut pos = Vec::new();
    let mut jobs = Parallelism::Sequential;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" | "-j" => {
                jobs = parse_jobs(it.next().ok_or("missing value for --jobs")?)?
            }
            other => pos.push(other.to_string()),
        }
    }
    Ok((pos, jobs))
}

/// Read a stamped document and infer its provenance graph under the rules
/// of a catalog file (the built-in defaults without one).
fn build_graph(
    input: &str,
    catalog: Option<&str>,
    inherit: bool,
    jobs: Parallelism,
) -> Result<ProvenanceGraph, WebLabError> {
    let doc = read_doc(input)?;
    let rules = rules_from(catalog)?;
    let trace = ExecutionTrace::reconstruct_from(&doc);
    let inherit = if inherit { InheritMode::PatternRewrite } else { InheritMode::Off };
    let opts = EngineOptions { inherit, parallelism: jobs, ..Default::default() };
    Ok(infer_provenance(&doc, &trace, &rules, &opts))
}

fn cmd_run(args: &[String]) -> CliResult {
    let (mut input, mut pipeline, mut out) = (None, None, None);
    let mut retries: Option<u32> = None;
    let mut on_failure: Option<FailurePolicy> = None;
    let mut store_dir: Option<String> = None;
    let mut resume = false;
    let mut live = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-o" | "--out" => out = Some(it.next().ok_or("missing value for -o")?.clone()),
            "--live" => live = true,
            "--store" => {
                store_dir = Some(it.next().ok_or("missing value for --store")?.clone());
                live = true;
            }
            "--retries" => retries = Some(flag_value(&mut it, "--retries", "a count")?),
            "--on-failure" => {
                let v = it.next().ok_or("missing value for --on-failure")?;
                on_failure = Some(FailurePolicy::parse(v).ok_or_else(|| {
                    format!("--on-failure expects abort|skip|retry, got {v:?}")
                })?);
            }
            "--resume" => resume = true,
            other if input.is_none() => input = Some(other.to_string()),
            other if pipeline.is_none() => pipeline = Some(other.to_string()),
            other => return Err(format!("unexpected argument {other:?}").into()),
        }
    }
    let input = input.ok_or(
        "usage: weblab run <input.xml> <service,…> [-o out.xml] [--retries N] \
         [--on-failure abort|skip|retry] [--live] [--store DIR [--resume]]",
    )?;
    let pipeline = pipeline.ok_or("missing service list")?;
    if resume && store_dir.is_none() {
        return Err("--resume requires --store DIR".into());
    }

    let mut wf = Workflow::new();
    for name in pipeline.split(',') {
        let svc =
            service_by_name(name.trim()).ok_or_else(|| format!("unknown service {name:?}"))?;
        wf = wf.then_boxed(svc);
    }

    // fault policy: --retries N grants N extra attempts per step and implies
    // the retry disposition unless --on-failure overrides it
    let mut fault = FaultPolicy::default();
    if let Some(n) = retries {
        fault.on_failure = FailurePolicy::Retry;
        fault.retry = RetryPolicy::with_max_attempts(n + 1);
    }
    if let Some(d) = on_failure {
        fault.on_failure = d;
    }
    let platform = builtin_platform(&services::default_rules())?;
    platform.set_fault_policy(fault);

    // the execution id is derived from the input path
    let exec_id = file_stem(&input);
    let exec = platform.execution(&exec_id);
    if live {
        exec.enable_live();
    }
    let outcome = match &store_dir {
        None => {
            exec.ingest(read_doc(&input)?);
            platform.execute_workflow(&exec_id, &wf)?
        }
        Some(dir) => {
            platform.attach_store(ProvStore::open(dir)?, 1)?;
            // A stored execution is only ever continued: a second run on
            // its id would append its calls to the first run's log.
            let fresh = if exec.exists() {
                if !resume {
                    return Err(format!(
                        "store {dir} already holds execution {exec_id:?}; pass --resume to \
                         continue its unfinished run, or use a fresh --store directory"
                    )
                    .into());
                }
                let store = platform.store().expect("a store was just attached");
                let point = store.resume_point(&exec_id)?.ok_or_else(|| {
                    format!(
                        "execution {exec_id:?} in {dir} has no resume point: its run \
                         finished, so there is nothing to resume"
                    )
                })?;
                eprintln!(
                    "resuming after {} completed step(s) at t={}",
                    point.completed_steps, point.next_time
                );
                None
            } else {
                if resume {
                    eprintln!("no run of {exec_id:?} in {dir}; starting fresh");
                }
                Some(read_doc(&input)?)
            };
            platform.execute_durable(&exec_id, &wf, fresh)?
        }
    };

    let (mut rolled_back, mut skipped) = (0usize, 0usize);
    for a in &outcome.attempts {
        match &a.status {
            AttemptStatus::RolledBack { error } => {
                rolled_back += 1;
                eprintln!(
                    "attempt {} of {} at t={} rolled back: {error}",
                    a.attempt, a.service, a.time
                );
            }
            AttemptStatus::Skipped => {
                skipped += 1;
                eprintln!("step {} at t={} skipped after final attempt", a.service, a.time);
            }
            AttemptStatus::Succeeded => {}
        }
    }
    let (nodes, resources, xml) = exec.with_kept(|doc, _| {
        (doc.node_count(), doc.resource_nodes().len(), to_xml_string_pretty(&doc.view()))
    })?;
    eprintln!(
        "executed {} calls ({} attempt(s), {} rolled back, {} skipped); \
         document has {nodes} nodes, {resources} resources",
        outcome.trace.len(),
        outcome.attempts.len(),
        rolled_back,
        skipped,
    );
    if live {
        let s = exec.snapshot()?;
        let (calls, links, sources) = (s.calls, s.graph.links.len(), s.graph.sources.len());
        eprintln!("live provenance: {calls} call(s) folded, {links} link(s), {sources} source(s)");
    }
    if let Some(dir) = &store_dir {
        eprintln!("execution {exec_id:?} stored in {dir}");
    }
    write_doc(out, &xml)
}

/// Write a stamped document to `-o FILE`, or to stdout without one.
fn write_doc(out: Option<String>, xml: &str) -> CliResult {
    match out {
        Some(path) => {
            std::fs::write(&path, xml).map_err(|e| WebLabError::io(format!("writing {path}"), e))
        }
        None => emit(&format!("{xml}\n")),
    }
}

/// The execution id `weblab run` derives from an input path, and `weblab
/// replay` from a changed copy of it: the file stem.
fn file_stem(path: &str) -> String {
    std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("execution")
        .to_string()
}

fn cmd_replay(args: &[String]) -> CliResult {
    let mut input = None;
    let mut catalog = None;
    let mut from: Option<String> = None;
    let mut exec: Option<String> = None;
    let mut changed: Vec<String> = Vec::new();
    let mut proof = "trusted".to_string();
    let mut tolerance: Option<f64> = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-o" | "--out" => out = Some(it.next().ok_or("missing value for -o")?.clone()),
            "--from" => from = Some(it.next().ok_or("missing value for --from")?.clone()),
            "--exec" => exec = Some(it.next().ok_or("missing value for --exec")?.clone()),
            "--changed" => changed.extend(
                it.next()
                    .ok_or("missing value for --changed")?
                    .split(',')
                    .map(str::to_string),
            ),
            "--proof" => proof = it.next().ok_or("missing value for --proof")?.clone(),
            "--tolerance" => {
                tolerance = Some(flag_value(&mut it, "--tolerance", "a number in [0, 1]")?)
            }
            other if input.is_none() => input = Some(other.to_string()),
            other if catalog.is_none() => catalog = Some(other.to_string()),
            other => return Err(format!("unexpected argument {other:?}").into()),
        }
    }
    let input = input.ok_or(
        "usage: weblab replay <changed.xml> --from DIR [--exec ID] --changed URI[,URI…] \
         [--proof trusted|exact|concordant] [--tolerance F] [-o out.xml] [catalog.txt]",
    )?;
    let from = from.ok_or("--from DIR is required (a weblab run --store directory)")?;
    if changed.is_empty() {
        return Err("--changed URI is required (repeat or comma-separate for several)".into());
    }
    let proof = match proof.as_str() {
        "trusted" => ProofMode::Trusted,
        "exact" => ProofMode::Exact,
        "concordant" => ProofMode::Concordant {
            tolerance: tolerance.unwrap_or(0.9),
        },
        other => {
            return Err(
                format!("--proof expects trusted|exact|concordant, got {other:?}").into(),
            )
        }
    };

    // the prior execution, as `weblab run --store DIR` stored it (ids
    // derive from the input file stem there, so the same derivation is the
    // default here). Opening a store creates its directory, which a read
    // must not do. The replay registers nothing, so DIR is left as it was.
    let exec_id = exec.unwrap_or_else(|| file_stem(&input));
    std::fs::read_dir(&from).map_err(|e| WebLabError::io(format!("opening store {from}"), e))?;
    let platform = builtin_platform(&rules_from(catalog.as_deref())?)?;
    // a prior run may have called the fault injector, as `flaky` resolves it
    platform.register_service(Arc::new(Flaky::failing(2)), &[])?;
    platform.attach_store(ProvStore::open(&from)?, 1)?;
    let mut doc = read_doc(&input)?;
    let replayed = platform.recompute(&exec_id, &mut doc, &changed, proof)?;
    eprintln!(
        "replayed {} call(s): cone {}, reused {}, recomputed {}, splice(s) {}",
        replayed.outcome.trace.len(),
        replayed.cone_size,
        replayed.reused,
        replayed.recomputed,
        replayed.splices,
    );
    for g in &replayed.grades {
        eprintln!(
            "  {} at t={}: grade {:.3}{}",
            g.service,
            g.time,
            g.grade,
            if g.identical { " (identical)" } else { "" }
        );
    }
    write_doc(out, &to_xml_string_pretty(&doc.view()))
}

fn cmd_infer(args: &[String]) -> CliResult {
    let mut input = None;
    let mut catalog = None;
    let mut inherit = false;
    let mut format = "table".to_string();
    let mut jobs = Parallelism::Sequential;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--inherit" => inherit = true,
            "--format" => format = it.next().ok_or("missing value for --format")?.clone(),
            "--jobs" | "-j" => {
                jobs = parse_jobs(it.next().ok_or("missing value for --jobs")?)?
            }
            other if input.is_none() => input = Some(other.to_string()),
            other if catalog.is_none() => catalog = Some(other.to_string()),
            other => return Err(format!("unexpected argument {other:?}").into()),
        }
    }
    let input = input.ok_or("usage: weblab infer <stamped.xml> [catalog.txt] [--inherit] [--format table|turtle|provxml|dot] [--jobs N|auto]")?;
    let graph = build_graph(&input, catalog.as_deref(), inherit, jobs)?;
    match format.as_str() {
        "table" => emit(&graph.to_string())?,
        "turtle" => emit(&format!("{}\n", to_turtle(&export_prov(&graph))))?,
        "provxml" => emit(&format!(
            "{}\n",
            to_xml_string_pretty(&weblab::rdf::export_prov_xml(&graph).view())
        ))?,
        "dot" => emit(&graph.to_dot())?,
        other => return Err(format!("unknown format {other:?}").into()),
    }
    Ok(())
}

fn cmd_query(args: &[String]) -> CliResult {
    let (pos, jobs) = split_jobs(args)?;
    let input = pos.first().ok_or(
        "usage: weblab query <stamped.xml> <sparql|rank <uri>…|summary [uri]> [catalog.txt] [--jobs N|auto]",
    )?;
    // `rank` and `summary` are the v2 analytics subcommands; anything else
    // in the second slot is a SPARQL SELECT, as in v1.
    match pos.get(1).map(String::as_str) {
        Some("rank") => return cmd_query_rank(input, &pos[2..], jobs),
        Some("summary") => return cmd_query_summary(input, &pos[2..], jobs),
        _ => {}
    }
    let sparql = pos.get(1).ok_or("missing SPARQL query")?;
    let graph = build_graph(input, pos.get(2).map(String::as_str), false, jobs)?;
    // the same query enum and answering match the serve protocol uses
    let query = ProvQuery::Sparql {
        query: sparql.clone(),
    };
    let QueryAnswer::Solutions(solutions) = query.answer_on_graph(&graph)? else {
        unreachable!("sparql queries answer with solutions");
    };
    let mut rendered = String::new();
    for sol in &solutions {
        let row: Vec<String> = sol.iter().map(|(k, v)| format!("?{k} = {v}")).collect();
        rendered.push_str(&row.join("  "));
        rendered.push('\n');
    }
    emit(&rendered)?;
    eprintln!("{} solution(s)", solutions.len());
    Ok(())
}

/// Parse a CLI fraction flag into micro-units, bounded by `max`.
fn micro_flag(flag: &str, value: &str, max: f64) -> Result<u32, WebLabError> {
    let f: f64 = value
        .parse()
        .map_err(|_| format!("{flag} expects a number, got {value:?}"))?;
    micro_from_f64(f, max)
        .map(|m| m as u32)
        .ok_or_else(|| format!("{flag} must be a number in [0, {max}], got {value:?}").into())
}

fn cmd_query_rank(input: &str, args: &[String], jobs: Parallelism) -> CliResult {
    let mut uris = Vec::new();
    let mut direction = RankDirection::Up;
    let mut opts = QueryOpts::default();
    let mut weights: Vec<(String, u32)> = Vec::new();
    let mut catalog = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--direction" => {
                let v = it.next().ok_or("missing value for --direction")?;
                direction = RankDirection::parse(v).ok_or_else(|| {
                    format!("--direction expects \"up\" or \"down\", got {v:?}")
                })?;
            }
            "--limit" => opts.limit = flag_value(&mut it, "--limit", "a count")?,
            "--budget" => opts.budget = flag_value(&mut it, "--budget", "a count")?,
            "--decay" => {
                let v = it.next().ok_or("missing value for --decay")?;
                opts.decay_micro = micro_flag("--decay", v, 1.0)?;
            }
            "--weight" => {
                let v = it.next().ok_or("missing value for --weight")?;
                let (svc, val) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--weight expects Service=F, got {v:?}"))?;
                weights.push((svc.to_string(), micro_flag("--weight", val, 1000.0)?));
            }
            "--catalog" => catalog = Some(it.next().ok_or("missing value for --catalog")?.clone()),
            other => uris.push(other.to_string()),
        }
    }
    if uris.is_empty() {
        return Err("usage: weblab query <stamped.xml> rank <uri>… [--direction up|down] [--limit N] [--budget N] [--decay F] [--weight Service=F] [--catalog FILE] [--jobs N|auto]".into());
    }
    let graph = build_graph(input, catalog.as_deref(), false, jobs)?;
    let query = ProvQuery::Rank { uris, direction, opts, weights };
    let QueryAnswer::Ranked(entries) = query.answer_on_graph(&graph)? else {
        unreachable!("rank queries answer with ranked entries");
    };
    let mut rendered = String::new();
    for e in &entries {
        rendered.push_str(&format!(
            "{}  hop {}  {}\n",
            format_micro(e.score_micro),
            e.hop,
            e.uri
        ));
    }
    emit(&rendered)?;
    eprintln!("{} ranked resource(s)", entries.len());
    Ok(())
}

fn cmd_query_summary(input: &str, args: &[String], jobs: Parallelism) -> CliResult {
    let mut uri = None;
    let mut catalog = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--catalog" => catalog = Some(it.next().ok_or("missing value for --catalog")?.clone()),
            other if uri.is_none() => uri = Some(other.to_string()),
            other => return Err(format!("unexpected argument {other:?}").into()),
        }
    }
    let graph = build_graph(input, catalog.as_deref(), false, jobs)?;
    let query = ProvQuery::Summary { uri };
    let QueryAnswer::Summary(s) = query.answer_on_graph(&graph)? else {
        unreachable!("summary queries answer with a graph summary");
    };
    let mut out = format!("{} resource(s), {} edge(s)\n", s.resources, s.edges);
    out.push_str(&format!("services ({}):\n", s.services.len()));
    for svc in &s.services {
        out.push_str(&format!(
            "  {}: {} resource(s), influence {}, origins {}\n",
            svc.service, svc.resources, svc.influence, svc.origins
        ));
    }
    out.push_str(&format!("origin clusters ({}):\n", s.clusters.len()));
    for c in &s.clusters {
        out.push_str(&format!("  {} reaches {} resource(s)\n", c.root, c.size));
    }
    if let Some(b) = &s.blast {
        out.push_str(&format!(
            "blast radius of {}: {} impacted, {} origin(s)\n",
            b.uri, b.impacted, b.origins
        ));
    }
    emit(&out)
}

fn cmd_why(args: &[String]) -> CliResult {
    let (pos, jobs) = split_jobs(args)?;
    let input = pos
        .first()
        .ok_or("usage: weblab why <stamped.xml> <resource-uri> [catalog.txt] [--jobs N|auto]")?;
    let uri = pos.get(1).ok_or("missing resource uri")?;
    let graph = build_graph(input, pos.get(2).map(String::as_str), true, jobs)?;
    let query = ProvQuery::Why {
        uri: uri.to_string(),
    };
    let QueryAnswer::Why(w) = query.answer_on_graph(&graph)? else {
        unreachable!("why queries answer with a why-provenance subgraph");
    };
    let mut out = format!("why-provenance of {uri}:\n");
    out.push_str(&format!("  resources ({}):\n", w.resources.len()));
    for r in &w.resources {
        out.push_str(&format!("    {r}\n"));
    }
    out.push_str(&format!("  links ({}):\n", w.links.len()));
    for l in &w.links {
        out.push_str(&format!("    {l}\n"));
    }
    out.push_str("  calls involved:\n");
    for c in &w.calls {
        out.push_str(&format!("    {c}\n"));
    }
    emit(&out)
}

fn cmd_serve(args: &[String]) -> CliResult {
    let mut port: u16 = 0;
    let mut workers: usize = 4;
    let mut max_rows: usize = weblab::serve::DEFAULT_MAX_ROWS;
    let mut max_batch: usize = weblab::serve::DEFAULT_MAX_BATCH;
    let mut max_conns: usize = weblab::serve::DEFAULT_MAX_CONNS;
    let mut idle_timeout = Some(weblab::serve::DEFAULT_IDLE_TIMEOUT);
    let mut store_dir: Option<String> = None;
    let mut max_resident: usize = 64;
    let mut catalog = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--store" => store_dir = Some(it.next().ok_or("missing value for --store")?.clone()),
            "--max-resident" => {
                max_resident = flag_value(&mut it, "--max-resident", "an execution count")?
            }
            "--port" => port = flag_value(&mut it, "--port", "a port number")?,
            "--workers" => workers = flag_value(&mut it, "--workers", "a thread count")?,
            "--max-rows" => max_rows = flag_value(&mut it, "--max-rows", "a row count")?,
            "--max-batch" => max_batch = flag_value(&mut it, "--max-batch", "a sub-request count")?,
            "--max-conns" => max_conns = flag_value(&mut it, "--max-conns", "a connection count")?,
            "--idle-timeout" => {
                let millis: u64 = flag_value(&mut it, "--idle-timeout", "milliseconds (0 disables)")?;
                idle_timeout = (millis > 0).then(|| std::time::Duration::from_millis(millis));
            }
            other if catalog.is_none() => catalog = Some(other.to_string()),
            other => return Err(format!("unexpected argument {other:?}").into()),
        }
    }
    let platform = builtin_platform(&rules_from(catalog.as_deref())?)?;
    if let Some(dir) = &store_dir {
        let store = ProvStore::open(dir)?;
        platform.attach_store(store, max_resident.max(1))?;
        eprintln!("store attached at {dir} (max {max_resident} resident)");
    }
    let server = Server::bind(Arc::new(platform), &format!("127.0.0.1:{port}"))
        .map_err(|e| WebLabError::io(format!("binding 127.0.0.1:{port}"), e))?
        .max_rows(max_rows)
        .max_batch(max_batch)
        .max_conns(max_conns)
        .idle_timeout(idle_timeout);
    let addr = server
        .local_addr()
        .map_err(|e| WebLabError::io("reading the bound address", e))?;
    // stdout so scripts (and ci.sh) can scrape the ephemeral port
    emit(&format!("listening on {addr}\n"))?;
    eprintln!("weblab serve: {workers} worker(s); send {{\"op\":\"shutdown\"}} to stop");
    server
        .run(workers)
        .map_err(|e| WebLabError::io("serving", e))
}

fn cmd_services() -> CliResult {
    let rules = services::default_rules();
    let mut out = String::from("built-in services and their mapping rules M(s):\n");
    for s in rules.services() {
        out.push_str(&format!("  {s}\n"));
        for r in rules.rules_for(s) {
            out.push_str(&format!("    rule: {r}\n"));
        }
    }
    emit(&out)
}
