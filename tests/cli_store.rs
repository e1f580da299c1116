//! `weblab run --store DIR` writes executions in the one on-disk format
//! the daemon serves. These tests drive the CLI binary against store
//! directories: it refuses a directory of the earlier layout and to mix
//! two runs in one stored execution, a run aborted mid-pipeline resumes to
//! the uninterrupted result, a resume point the stored calls ran ahead of
//! is refused, a daemon attached to a
//! CLI-written directory answers every query op with the same bytes as a
//! daemon that ingested the same corpus and pipeline live, epoch included,
//! and `weblab replay --from DIR` recomputes what the daemon's `replay` op
//! recomputes, refusing a stored execution that recorded no call.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use weblab::json::Json;
use weblab::platform::{ProvStore, ResumePoint};
use weblab::rdf::vocab::PROV_NS;
use weblab::serve::handle_line;
use weblab::workflow::generator::generate_corpus;
use weblab::workflow::next_time;
use weblab::xml::{to_xml_string, to_xml_string_pretty};

mod support;

const PIPELINE: [&str; 6] = [
    "Normaliser",
    "LanguageExtractor",
    "Tokeniser",
    "EntityExtractor",
    "KeywordExtractor",
    "Summariser",
];

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("weblab-cli-store-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn weblab(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_weblab"))
        .args(args)
        .output()
        .expect("spawn weblab")
}

fn path(p: &Path) -> &str {
    p.to_str().expect("utf-8 temp path")
}

/// Write a generated corpus to `dir/corpus.xml`: `weblab run` names the
/// execution after the file stem, `corpus`.
fn corpus_file(dir: &Path) -> (PathBuf, String) {
    let xml = to_xml_string(&generate_corpus(3, 2, 25).view());
    let file = dir.join("corpus.xml");
    std::fs::write(&file, &xml).unwrap();
    (file, xml)
}

/// Every file under a store root with its bytes, sorted by path.
fn store_files(root: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(d) = dirs.pop() {
        for entry in std::fs::read_dir(&d).unwrap().flatten() {
            let p = entry.path();
            if p.is_dir() {
                dirs.push(p);
            } else {
                files.push((p.clone(), std::fs::read(&p).unwrap()));
            }
        }
    }
    files.sort();
    files
}

fn assert_refused(out: &Output, code: &str, message: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "the run must fail: {stderr}");
    assert!(
        stderr.contains(&format!("error[{code}]")) && stderr.contains(message),
        "expected error[{code}] mentioning {message:?}, got: {stderr}"
    );
    assert!(!stderr.contains("executed "), "a service ran: {stderr}");
}

#[test]
fn a_store_of_the_earlier_layout_is_refused_with_the_store_code() {
    let dir = tmpdir("earlier");
    let (corpus, _) = corpus_file(&dir);
    let store = dir.join("store");
    let shard = store.join("shard-03");
    std::fs::create_dir_all(&shard).unwrap();
    // a document, a call log and a snapshot file per execution
    for (name, text) in [
        ("old.doc.xml", "<Resource/>\n"),
        ("old.delta", "# weblab prov segment\nexec: old\nbase: 0\n# end calls=0\n"),
        ("old.snap-1", "# weblab prov snapshot\nepoch: 1\ncalls: 0\n# end uris=0 sources=0 links=0\n"),
    ] {
        std::fs::write(shard.join(name), text).unwrap();
    }
    let before = store_files(&store);
    for args in [
        vec!["run", path(&corpus), "Normaliser", "--store", path(&store)],
        vec!["serve", "--port", "0", "--store", path(&store)],
    ] {
        assert_refused(&weblab(&args), "store", "earlier store layout");
    }
    assert_eq!(store_files(&store), before, "a refused directory is left as it was");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_refuses_an_execution_the_store_already_holds() {
    let dir = tmpdir("held");
    let (corpus, _) = corpus_file(&dir);
    let store = dir.join("store");
    let pipeline = PIPELINE.join(",");
    let first = weblab(&["run", path(&corpus), &pipeline, "--store", path(&store)]);
    assert!(first.status.success(), "{}", String::from_utf8_lossy(&first.stderr));
    let before = store_files(&store);

    // without --resume, a second run would append its calls to the first
    // run's log: it is refused before any service runs, leaving every
    // stored byte as it was
    let second = weblab(&["run", path(&corpus), &pipeline, "--store", path(&store)]);
    assert_refused(&second, "usage", "already holds execution \"corpus\"");
    assert_eq!(store_files(&store), before, "the refused run changed the store");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_refuses_a_finished_run() {
    let dir = tmpdir("finished");
    let (corpus, _) = corpus_file(&dir);
    let store = dir.join("store");
    let pipeline = PIPELINE.join(",");
    let run = weblab(&["run", path(&corpus), &pipeline, "--store", path(&store)]);
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
    let before = store_files(&store);

    // a completed run removed its resume point: there is nothing to resume
    let again = weblab(&["run", path(&corpus), &pipeline, "--store", path(&store), "--resume"]);
    assert_refused(&again, "usage", "has no resume point");
    assert_eq!(store_files(&store), before, "the refused resume changed the store");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_run_aborted_mid_pipeline_resumes_to_the_uninterrupted_result() {
    let dir = tmpdir("resume");
    let (corpus, _) = corpus_file(&dir);
    let (crashed, clean) = (dir.join("crashed"), dir.join("clean"));

    // the flaky step fails and the default policy aborts the run after the
    // first step was stored with its resume point
    let pipeline = "Normaliser,flaky:3,LanguageExtractor";
    let aborted = weblab(&["run", path(&corpus), pipeline, "--store", path(&crashed)]);
    assert!(!aborted.status.success(), "the flaky step must abort the run");
    let point = ProvStore::open(&crashed).unwrap().resume_point("corpus").unwrap();
    assert_eq!(point.map(|p| p.completed_steps), Some(1));

    // a fresh process resumes it; the flaky step now gets enough retries
    let resumed_xml = dir.join("resumed.xml");
    let resumed = weblab(&[
        "run", path(&corpus), pipeline, "--store", path(&crashed), "--resume", "--retries", "3",
        "-o", path(&resumed_xml),
    ]);
    assert!(resumed.status.success(), "{}", String::from_utf8_lossy(&resumed.stderr));
    assert!(String::from_utf8_lossy(&resumed.stderr).contains("resuming after 1 completed step"));

    let clean_xml = dir.join("clean.xml");
    let uninterrupted = weblab(&[
        "run", path(&corpus), "Normaliser,flaky:0,LanguageExtractor", "--store", path(&clean),
        "-o", path(&clean_xml),
    ]);
    assert!(uninterrupted.status.success());
    assert_eq!(std::fs::read(&resumed_xml).unwrap(), std::fs::read(&clean_xml).unwrap());

    // the finished runs left no resume point, and the resumed run continued
    // the stored snapshot: same epoch and graph
    let snapshot = |root: &Path| {
        let store = ProvStore::open(root).unwrap();
        assert_eq!(store.resume_point("corpus").unwrap(), None);
        let stored = store.load("corpus").unwrap().expect("stored");
        let snap = stored.snapshot.expect("a fresh snapshot");
        (snap.epoch, snap.graph.sources, snap.graph.links)
    };
    let resumed_snapshot = snapshot(&crashed);
    assert!(!resumed_snapshot.2.is_empty());
    assert_eq!(resumed_snapshot.0, 4, "the input's Source rows, then three calls");
    assert_eq!(resumed_snapshot, snapshot(&clean));
    let _ = std::fs::remove_dir_all(&dir);
}

fn request(exec: &str, op: &str, fields: Vec<(&str, Json)>) -> String {
    let mut pairs = vec![("op", Json::str(op)), ("exec", Json::str(exec))];
    pairs.extend(fields);
    Json::obj(pairs).to_string()
}

/// The `result` member of a successful response line.
fn result_of(line: &str) -> Json {
    let response = Json::parse(line).unwrap();
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true), "{line}");
    response.get("result").cloned().expect("a result member")
}

#[test]
fn serving_a_cli_written_store_answers_like_a_live_ingest() {
    let dir = tmpdir("serve");
    let (corpus, xml) = corpus_file(&dir);
    let store = dir.join("store");
    let run = weblab(&["run", path(&corpus), &PIPELINE.join(","), "--store", path(&store)]);
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));

    // a daemon attached to the directory the CLI wrote …
    let stored = support::serve_platform();
    stored.attach_store(ProvStore::open(&store).unwrap(), 8).unwrap();
    let (status, _) = handle_line(&stored, r#"{"op":"status"}"#);
    assert!(status.contains(r#"{"id":"corpus","live":true,"resident":false}"#), "{status}");

    // … and one that ingested the same corpus and pipeline live
    let live = support::serve_platform();
    let pipeline = Json::Arr(PIPELINE.iter().map(|s| Json::str(*s)).collect());
    let ingest = Json::obj(vec![
        ("op", Json::str("ingest")),
        ("exec", Json::str("corpus")),
        ("xml", Json::str(xml.as_str())),
        ("live", Json::Bool(true)),
        ("pipeline", pipeline),
    ]);
    result_of(&handle_line(&live, &ingest.to_string()).0);

    let derived =
        format!("PREFIX prov: <{PROV_NS}> SELECT ?d ?s WHERE {{ ?d prov:wasDerivedFrom ?s . }}");
    let mut lines = vec![
        request("corpus", "sparql", vec![("query", Json::str(derived))]),
        request("corpus", "summary", vec![]),
    ];
    let snap = live.execution("corpus").snapshot().unwrap();
    assert!(snap.graph.links.len() >= 8, "the corpus needs links to query");
    for l in snap.graph.links.iter().step_by(snap.graph.links.len() / 8) {
        let (from, to) = (Json::str(l.from_uri.as_str()), Json::str(l.to_uri.as_str()));
        lines.push(request("corpus", "why", vec![("uri", from.clone())]));
        let depth = Json::num(3);
        lines.push(request("corpus", "lineage", vec![("uri", from.clone()), ("depth", depth)]));
        lines.push(request("corpus", "impacted-by", vec![("uri", to.clone())]));
        lines.push(request("corpus", "common-origins", vec![("a", from), ("b", to.clone())]));
        lines.push(request(
            "corpus",
            "rank",
            vec![
                ("uris", Json::Arr(vec![to])),
                ("direction", Json::str("up")),
                ("limit", Json::num(8)),
                ("budget", Json::num(12)),
                ("decay", Json::Num(0.25)),
            ],
        ));
    }
    for line in &lines {
        let served = handle_line(&stored, line).0;
        result_of(&served);
        assert_eq!(served, handle_line(&live, line).0, "request {line}");
    }
    assert!(stored.execution("corpus").live_enabled(), "the CLI stored a live run");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_run_over_an_unlabelled_input_stores_the_epoch_of_its_one_call() {
    let dir = tmpdir("unlabelled");
    let input = dir.join("plain.xml");
    std::fs::write(&input, "<R><NativeContent id=\"n\">x</NativeContent></R>").unwrap();
    let store = dir.join("store");
    let run = weblab(&["run", path(&input), "Normaliser", "--store", path(&store)]);
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
    // no Source row to publish first: the one live call is epoch 1, as a
    // store-less live ingest of the same input numbers it
    let stored = ProvStore::open(&store).unwrap().load("plain").unwrap().expect("stored");
    assert_eq!(stored.snapshot.expect("the stored snapshot").epoch, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_refuses_a_point_the_stored_log_ran_ahead_of() {
    let dir = tmpdir("witness");
    let (corpus, _) = corpus_file(&dir);
    let store = dir.join("store");
    let pipeline = "Normaliser,flaky:3,LanguageExtractor";
    let aborted = weblab(&["run", path(&corpus), pipeline, "--store", path(&store)]);
    assert!(!aborted.status.success(), "the flaky step must abort the run");

    // a run that stopped between saving its first step and recording it:
    // the store holds that step's call, the point is still the one for
    // zero completed steps
    {
        let st = ProvStore::open(&store).unwrap();
        let point = st.resume_point("corpus").unwrap().expect("an aborted run keeps its point");
        assert_eq!((point.completed_steps, point.calls), (1, 1));
        let first = next_time(&generate_corpus(3, 2, 25));
        let behind = ResumePoint { completed_steps: 0, next_time: first, calls: 0, ..point };
        st.save_resume_point("corpus", &behind).unwrap();
    }
    let before = store_files(&store);

    // resuming would re-run the first step over its own output: refused
    // before any service runs, leaving every stored byte as it was
    let resumed = weblab(&[
        "run", path(&corpus), pipeline, "--store", path(&store), "--resume", "--retries", "3",
    ]);
    assert_refused(&resumed, "store", "witnesses 0 call(s) but its log holds 1");
    assert_eq!(store_files(&store), before, "the refused resume changed the store");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Copy a directory tree.
fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap().flatten() {
        let target = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_tree(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).unwrap();
        }
    }
}

#[test]
fn a_cli_replay_recomputes_what_a_daemon_replay_recomputes() {
    let dir = tmpdir("replay");
    let (corpus, xml) = corpus_file(&dir);
    let store = dir.join("store");
    let run = weblab(&["run", path(&corpus), &PIPELINE.join(","), "--store", path(&store)]);
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));

    // one changed source: a word put before the text of weblab://src/0
    let at = xml.find("weblab://src/0").expect("the corpus has a first source");
    let text = at + xml[at..].find('>').unwrap() + 1;
    let changed_xml = format!("{}altered {}", &xml[..text], &xml[text..]);
    let changed = dir.join("changed.xml");
    std::fs::write(&changed, &changed_xml).unwrap();

    let before = store_files(&store);
    let replayed_xml = dir.join("replayed.xml");
    let replay = weblab(&[
        "replay", path(&changed), "--from", path(&store), "--exec", "corpus",
        "--changed", "weblab://src/0", "-o", path(&replayed_xml),
    ]);
    let stderr = String::from_utf8_lossy(&replay.stderr);
    assert!(replay.status.success(), "{stderr}");
    assert_eq!(store_files(&store), before, "the CLI replay changed the store");
    // "replayed N call(s): cone C, reused R, recomputed X, splice(s) S"
    let summary = stderr.lines().find(|l| l.starts_with("replayed ")).expect("a summary");
    let counts: Vec<u64> = summary
        .split(|c: char| !c.is_ascii_digit())
        .filter(|n| !n.is_empty())
        .map(|n| n.parse().unwrap())
        .collect();

    // the same replay through the serve op, on a copy of the store
    let copy = dir.join("copy");
    copy_tree(&store, &copy);
    let daemon = support::serve_platform();
    daemon.attach_store(ProvStore::open(&copy).unwrap(), 8).unwrap();
    let line = Json::obj(vec![
        ("op", Json::str("replay")),
        ("exec", Json::str("corpus")),
        ("as", Json::str("corpus-replayed")),
        ("xml", Json::str(changed_xml.as_str())),
        ("changed", Json::Arr(vec![Json::str("weblab://src/0")])),
    ]);
    let result = result_of(&handle_line(&daemon, &line.to_string()).0);
    let field = |key: &str| result.get(key).and_then(Json::as_u64).expect("a count");
    let served = [field("cone"), field("reused"), field("recomputed"), field("splices")];
    assert_eq!(counts[1..], served, "CLI summary {summary:?} vs daemon {result}");
    assert!(served[2] > 0, "the changed source dirties a call: {result}");

    let daemon_xml = daemon
        .execution("corpus-replayed")
        .with_kept(|doc, _| to_xml_string_pretty(&doc.view()))
        .expect("the daemon registered the replay");
    assert_eq!(std::fs::read(&replayed_xml).unwrap(), daemon_xml.into_bytes());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_cli_replay_refuses_a_stored_execution_without_calls() {
    let dir = tmpdir("replay-no-calls");
    let (corpus, _) = corpus_file(&dir);
    let store = dir.join("store");
    // every attempt of the one step fails and is skipped: the stored
    // execution holds its input document and no call
    let run = weblab(&[
        "run", path(&corpus), "flaky:9", "--store", path(&store), "--on-failure", "skip",
    ]);
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
    let stored = ProvStore::open(&store).unwrap().load("corpus").unwrap().expect("stored");
    assert_eq!(stored.trace.len(), 0);

    let before = store_files(&store);
    let replay = |exec: &str| {
        weblab(&[
            "replay", path(&corpus), "--from", path(&store), "--exec", exec,
            "--changed", "weblab://src/0",
        ])
    };
    assert_refused(&replay("corpus"), "workflow", "execution \"corpus\" recorded no calls");
    assert_refused(&replay("nosuch"), "unknown-execution", "\"nosuch\"");
    assert_eq!(store_files(&store), before, "a refused replay changed the store");
    let _ = std::fs::remove_dir_all(&dir);
}
