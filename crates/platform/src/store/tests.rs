use super::*;
use proptest::prelude::*;
use weblab_prov::{
    infer_provenance, CallRecord, EngineOptions, ProvLink, ReachabilityIndex, SourceEntry,
};
use weblab_xml::to_xml_string;
use weblab_workflow::generator::synthetic_workload;
use weblab_workflow::Orchestrator;

fn tmpstore(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("weblab-store-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The names of the files in the shard directories of `root`.
fn stored_files(store: &ProvStore) -> Vec<String> {
    let mut names = store.shard_files();
    names.sort();
    names
}

fn executed(seed: u64) -> (Document, ExecutionTrace, ProvenanceGraph) {
    let (mut doc, wf, rules) = synthetic_workload(seed, 4, 3, 4);
    let outcome = Orchestrator::new().execute(&wf, &mut doc).unwrap();
    let graph = infer_provenance(&doc, &outcome.trace, &rules, &EngineOptions::default());
    (doc, outcome.trace, graph)
}

#[test]
fn save_load_round_trips_trace_links_and_snapshot() {
    let (doc, trace, graph) = executed(21);
    let store = ProvStore::open(tmpstore("roundtrip")).unwrap();
    store.save("exec/1", &doc, &trace, &graph, 3, true).unwrap();

    let back = store.load("exec/1").unwrap().expect("stored");
    assert_eq!(to_xml_string(&back.doc.view()), to_xml_string(&doc.view()));
    assert_eq!(back.trace.len(), trace.len());
    for (a, b) in trace.calls.iter().zip(&back.trace.calls) {
        assert_eq!(a.service, b.service);
        assert_eq!(a.time, b.time);
        assert_eq!(a.channel, b.channel);
        assert_eq!(a.produced.len(), b.produced.len());
    }

    let snap = back.snapshot.expect("fresh snapshot");
    assert_eq!(snap.epoch, 3);
    assert_eq!(snap.calls, trace.len());
    assert!(snap.live);
    // row orders preserved verbatim → identical index answers
    assert_eq!(snap.graph.links, graph.links);
    assert_eq!(snap.graph.sources.len(), graph.sources.len());
    let a = ReachabilityIndex::from_graph(&graph);
    let b = ReachabilityIndex::from_graph(&snap.graph);
    for s in &graph.sources {
        assert_eq!(a.why(&s.uri), b.why(&s.uri));
        assert_eq!(a.lineage(&s.uri, 8), b.lineage(&s.uri, 8));
        assert_eq!(a.impacted_by(&s.uri), b.impacted_by(&s.uri));
    }
    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn the_live_header_reads_without_a_load_and_the_snapshot_resumes_at_its_epoch() {
    let (doc, trace, graph) = executed(22);
    let store = ProvStore::open(tmpstore("live-header")).unwrap();
    assert!(!store.stored_live("live"), "no such execution");
    store.save("live", &doc, &trace, &graph, 3, true).unwrap();
    store.save("batch", &doc, &trace, &graph, 3, false).unwrap();
    assert!(store.stored_live("live"));
    assert!(!store.stored_live("batch"));

    // the stored snapshot is taken as it is, at its epoch
    let mut stored = store.load("live").unwrap().expect("stored");
    let snap = stored.resume_snapshot();
    assert_eq!((snap.epoch, snap.calls), (3, trace.len()));
    assert_eq!(snap.graph.links, graph.links);
    assert_eq!(snap.index.edge_count(), graph.links.len());
    assert!(stored.snapshot.is_none(), "taken");
    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn ids_shard_and_never_collide() {
    let (doc_a, trace_a, graph_a) = executed(5);
    let (doc_b, trace_b, graph_b) = executed(17);
    let store = ProvStore::open(tmpstore("shard")).unwrap();
    store.save("exec/1", &doc_a, &trace_a, &graph_a, 1, false).unwrap();
    store.save("exec_1", &doc_b, &trace_b, &graph_b, 1, false).unwrap();
    assert_eq!(
        store.execution_ids(),
        vec!["exec/1".to_string(), "exec_1".to_string()]
    );
    let a = store.load("exec/1").unwrap().unwrap();
    let b = store.load("exec_1").unwrap().unwrap();
    assert_eq!(to_xml_string(&a.doc.view()), to_xml_string(&doc_a.view()));
    assert_eq!(to_xml_string(&b.doc.view()), to_xml_string(&doc_b.view()));
    assert_eq!(a.trace.len(), trace_a.len());
    assert_eq!(b.trace.len(), trace_b.len());
    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn a_later_save_replaces_the_whole_execution_in_its_one_file() {
    let (doc, trace, graph) = executed(33);
    assert!(trace.len() >= 2, "workload too small for the test");
    let store = ProvStore::open(tmpstore("replace")).unwrap();

    // Save a prefix first: pretend only the first call had happened.
    let mut prefix = ExecutionTrace::default();
    prefix.calls.push(trace.calls[0].clone());
    store.save("e", &doc, &prefix, &ProvenanceGraph::default(), 1, false).unwrap();
    store.save("e", &doc, &trace, &graph, 2, false).unwrap();
    assert_eq!(stored_files(&store), vec!["e.exec".to_string()]);

    let back = store.load("e").unwrap().unwrap();
    assert_eq!(back.trace.len(), trace.len());
    let snap = back.snapshot.unwrap();
    assert_eq!((snap.epoch, snap.calls), (2, trace.len()));
    assert_eq!(snap.graph.links, graph.links);

    // saving identical state again writes identical bytes, and compacting
    // changes nothing: there is no log
    let before = std::fs::read(store.exec_path("e")).unwrap();
    store.save("e", &doc, &trace, &graph, 2, false).unwrap();
    assert_eq!(store.compact_all().unwrap(), 0);
    assert_eq!(std::fs::read(store.exec_path("e")).unwrap(), before);
    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn a_new_store_handle_reads_what_another_wrote() {
    // Simulates a process restart: a second ProvStore over the same root
    // must see everything.
    let (doc, trace, graph) = executed(55);
    let root = tmpstore("restart");
    {
        let store = ProvStore::open(&root).unwrap();
        store.save("e", &doc, &trace, &graph, 4, true).unwrap();
    }
    let store = ProvStore::open(&root).unwrap();
    assert!(store.contains("e"));
    let back = store.load("e").unwrap().unwrap();
    assert_eq!(back.trace.len(), trace.len());
    let snap = back.snapshot.unwrap();
    assert_eq!(snap.epoch, 4);
    assert!(snap.live);
    assert_eq!(snap.graph.links, graph.links);
    // a further identical save through the new handle rewrites the same file
    store.save("e", &doc, &trace, &graph, 4, true).unwrap();
    assert_eq!(stored_files(&store), vec!["e.exec".to_string()]);
    let _ = std::fs::remove_dir_all(&root);
}

/// The execution file of `e` with one byte of the first line starting with
/// `prefix` changed, at `offset` bytes into that line.
fn flipped(full: &[u8], prefix: &str, offset: usize) -> Vec<u8> {
    let text = std::str::from_utf8(full).unwrap();
    let at = text.find(&format!("\n{prefix}")).expect("the row is stored") + 1 + offset;
    let mut bytes = full.to_vec();
    bytes[at] = if bytes[at] == b'x' { b'y' } else { b'x' };
    bytes
}

#[test]
fn a_cut_or_flipped_execution_file_is_detected() {
    let (doc, trace, graph) = executed(13);
    let store = ProvStore::open(tmpstore("damage")).unwrap();
    store.save("e", &doc, &trace, &graph, 3, false).unwrap();
    let path = store.exec_path("e");
    let full = std::fs::read(&path).unwrap();

    let mut damaged: Vec<(String, Vec<u8>)> = vec![
        ("a uri row".into(), flipped(&full, "uri: ", 8)),
        ("a call row".into(), flipped(&full, "call: ", 6)),
        ("the document".into(), flipped(&full, "<", 3)),
    ];
    // a cut at every line boundary, the footer's own line included
    for (i, _) in full.iter().enumerate().filter(|(_, &b)| b == b'\n') {
        if i + 1 < full.len() {
            damaged.push((format!("a cut after byte {i}"), full[..=i].to_vec()));
        }
    }
    damaged.push(("an unterminated footer".into(), full[..full.len() - 1].to_vec()));
    for (what, bytes) in damaged {
        std::fs::write(&path, &bytes).unwrap();
        match store.load("e") {
            Err(PersistError::Truncated { .. }) => {}
            other => panic!("expected Truncated for {what}, got {other:?}"),
        }
    }
    // intact again: loads fine
    std::fs::write(&path, &full).unwrap();
    assert!(store.load("e").unwrap().is_some());
    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn hostile_ids_and_uris_round_trip_through_the_store() {
    let mut doc = Document::new("Resource");
    let root = doc.root();
    let d0 = doc.mark();
    let n1 = doc.append_element(root, "A").unwrap();
    doc.register_resource(n1, "u,r|i %1", Some(weblab_xml::CallLabel::new("S|1", 1))).unwrap();
    let d1 = doc.mark();
    let n2 = doc.append_element(root, "B").unwrap();
    doc.register_resource(n2, "plain", Some(weblab_xml::CallLabel::new("S,2", 2))).unwrap();
    let d2 = doc.mark();
    let mut trace = ExecutionTrace::default();
    trace.record_call_on_channel(&doc, "S|1", 1, d0, d1, "ch|an");
    trace.record_call_on_channel(&doc, "S,2", 2, d1, d2, "");
    let graph = ProvenanceGraph {
        sources: vec![
            SourceEntry {
                node: n1,
                uri: "u,r|i %1".into(),
                label: weblab_xml::CallLabel::new("S|1", 1),
            },
            SourceEntry {
                node: n2,
                uri: "plain".into(),
                label: weblab_xml::CallLabel::new("S,2", 2),
            },
        ],
        links: vec![ProvLink {
            from: n2,
            from_uri: "plain".into(),
            to: n1,
            to_uri: "u,r|i %1".into(),
        }],
    };

    let store = ProvStore::open(tmpstore("hostile")).unwrap();
    let id = "exec id/with|hostile,chars%";
    store.save(id, &doc, &trace, &graph, 1, false).unwrap();
    assert_eq!(store.execution_ids(), vec![id.to_string()]);

    let back = store.load(id).unwrap().unwrap();
    assert_eq!(back.trace.calls[0].service, "S|1");
    assert_eq!(back.trace.calls[0].channel, "ch|an");
    assert_eq!(back.trace.calls[1].service, "S,2");
    let snap = back.snapshot.unwrap();
    assert_eq!(snap.graph.links, graph.links);
    assert_eq!(snap.graph.sources[0].uri, "u,r|i %1");
    assert_eq!(snap.graph.sources[0].label.service, "S|1");
    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn produced_resources_are_named_by_uri_table_id() {
    let mut doc = Document::new("Resource");
    let root = doc.root();
    let d0 = doc.mark();
    for (name, uri) in [("A", "u1"), ("B", "u,2")] {
        let n = doc.append_element(root, name).unwrap();
        doc.register_resource(n, uri, Some(weblab_xml::CallLabel::new("A | B", 9))).unwrap();
    }
    let d1 = doc.mark();
    let mut trace = ExecutionTrace::default();
    trace.record_call_on_channel(&doc, "A | B", 9, d0, d1, "0.1");
    trace.record_call_on_channel(&doc, "C", 10, d1, d1, "");
    let text = exec::encode("e", &doc, &trace, &ProvenanceGraph::default(), 2, false);
    // each URI once in the table, the calls naming theirs by id, and a call
    // producing nothing ending in an empty field
    assert!(text.contains("\nuri: u1\nuri: u%2C2\ncall: A %7C B | 9 | 1,0 | 3,2 | 0.1 | 0 1\n"), "{text}");
    assert!(text.contains("\ncall: C | 10 | 3,2 | 3,2 |  |\n"), "{text}");
    let back = exec::decode("mem", text.as_bytes()).unwrap();
    assert_eq!(back.trace.calls, trace.calls);
    assert_eq!(to_xml_string(&back.doc.view()), to_xml_string(&doc.view()));
}

#[test]
fn a_directory_of_the_earlier_layout_is_refused() {
    for earlier in ["e.doc.xml", "e.delta", "e.seg-1", "e.snap-3"] {
        let root = tmpstore("earlier");
        std::fs::create_dir_all(root.join("shard-07")).unwrap();
        std::fs::write(root.join("shard-07").join(earlier), "# weblab prov snapshot\n").unwrap();
        match ProvStore::open(&root) {
            Err(PersistError::Format { message, .. }) => assert!(message.contains(earlier)),
            Err(other) => panic!("expected a format error for {earlier}, got {other}"),
            Ok(_) => panic!("{earlier}: a directory of the earlier layout opened"),
        }
        assert!(!root.join("store.lock").exists(), "a refused open claims no lock");
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn lock_file_guards_against_a_second_live_owner() {
    let root = tmpstore("lock");
    let lock = {
        let store = ProvStore::open(&root).unwrap();
        let lock = store.root().join("store.lock");
        // opening claims the lock with our pid
        let owner: u32 = std::fs::read_to_string(&lock).unwrap().trim().parse().unwrap();
        assert_eq!(owner, std::process::id());
        // a reopen from the same process is allowed (it is not a second daemon)
        let again = ProvStore::open(&root).unwrap();
        drop(again);
        lock
    };
    // a lock owned by a DIFFERENT live process (pid 1 is always running on
    // Linux) must refuse the open with the stable store-locked error
    std::fs::write(&lock, "1\n").unwrap();
    match ProvStore::open(&root) {
        Err(PersistError::StoreLocked { pid, .. }) => assert_eq!(pid, 1),
        Err(other) => panic!("expected StoreLocked, got {other}"),
        Ok(_) => panic!("expected StoreLocked, got a successful open"),
    }
    // a stale lock from a dead process is reclaimed on restart (the common
    // case after a daemon was killed without unwinding)
    std::fs::write(&lock, format!("{}\n", u32::MAX)).unwrap();
    let store = ProvStore::open(&root).unwrap();
    let owner: u32 = std::fs::read_to_string(&lock).unwrap().trim().parse().unwrap();
    assert_eq!(owner, std::process::id());
    // dropping the owner releases the lock
    drop(store);
    assert!(!lock.exists());
    // garbage in the lock file never wedges the store
    std::fs::create_dir_all(&root).unwrap();
    std::fs::write(&lock, "not-a-pid\n").unwrap();
    let store = ProvStore::open(&root).unwrap();
    drop(store);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn resume_points_round_trip_and_detect_truncation() {
    let (doc, trace, graph) = executed(29);
    let store = ProvStore::open(tmpstore("resume")).unwrap();
    assert_eq!(store.resume_point("e").unwrap(), None);
    let point = ResumePoint {
        completed_steps: 2,
        next_time: 5,
        calls: trace.len(),
        step_names: vec![
            "Normaliser".into(),
            "[LanguageExtractor | Translator]".into(),
            "line\nbreak".into(),
        ],
    };
    store.save("e", &doc, &trace, &graph, 2, true).unwrap();
    store.save_resume_point("e", &point).unwrap();
    assert_eq!(store.resume_point("e").unwrap(), Some(point.clone()));
    // the resume point is not part of the execution file: cold loads
    // ignore it, and it lists no execution of its own
    assert_eq!(stored_files(&store), vec!["e.exec".to_string(), "e.resume".to_string()]);
    assert_eq!(store.load("e").unwrap().unwrap().trace.len(), trace.len());
    assert_eq!(store.execution_ids(), vec!["e".to_string()]);
    assert_eq!(store.resume_point("e").unwrap(), Some(point));

    // kill the footer: detected, never read as a shorter step list
    let path = store.resume_path("e");
    let full = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = full.lines().collect();
    std::fs::write(&path, lines[..lines.len() - 1].join("\n") + "\n").unwrap();
    assert!(matches!(
        store.resume_point("e"),
        Err(PersistError::Truncated { .. })
    ));
    // a footer that disagrees with the body is caught too, and so is a
    // changed byte
    let mut bad: Vec<&str> = lines[..lines.len() - 2].to_vec();
    bad.push(lines[lines.len() - 1]);
    std::fs::write(&path, bad.join("\n") + "\n").unwrap();
    assert!(matches!(
        store.resume_point("e"),
        Err(PersistError::Truncated { .. })
    ));
    std::fs::write(&path, full.replace("completed: 2", "completed: 1")).unwrap();
    assert!(matches!(
        store.resume_point("e"),
        Err(PersistError::Truncated { .. })
    ));

    // clearing removes it; clearing twice is fine
    std::fs::write(&path, full).unwrap();
    store.clear_resume_point("e").unwrap();
    assert_eq!(store.resume_point("e").unwrap(), None);
    store.clear_resume_point("e").unwrap();
    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn inconsistent_resume_points_are_rejected() {
    let store = ProvStore::open(tmpstore("badresume")).unwrap();
    store
        .save_resume_point(
            "e",
            &ResumePoint { completed_steps: 0, next_time: 1, calls: 0, step_names: Vec::new() },
        )
        .unwrap();
    let path = store.resume_path("e");
    // each body under a footer whose hash agrees with it
    for (text, steps) in [
        // completed beyond the step list
        ("completed: 9\nnext-time: 1\nstep: A\n", 1),
        // unknown line
        ("completed: 0\nnext-time: 1\nwat\n", 0),
        // unparsable counter
        ("completed: x\nnext-time: 1\n", 0),
        // no call-count witness
        ("completed: 0\nnext-time: 1\nstep: A\n", 1),
    ] {
        std::fs::write(&path, file::seal(text.into(), &format!("steps={steps}"))).unwrap();
        match store.resume_point("e") {
            Err(PersistError::Format { .. }) => {}
            other => panic!("expected a format error for {text:?}, got {other:?}"),
        }
    }
    // headers missing under an intact footer: the file lost its head
    std::fs::write(&path, file::seal("step: A\n".into(), "steps=1")).unwrap();
    assert!(matches!(
        store.resume_point("e"),
        Err(PersistError::Truncated { .. })
    ));
    let _ = std::fs::remove_dir_all(store.root());
}

// Service names, channels, produced URIs and link URIs soaked in the line
// formats' own separators, and in the characters XML and line parsing
// normalise, must round-trip through save and load.
const HOSTILE: [char; 11] = ['|', ',', '%', ' ', '\n', '\t', '\r', 'a', 'Z', '/', 'é'];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hostile_names_round_trip_through_save_and_load(
        picks in prop::collection::vec(
            (0usize..HOSTILE.len(), 0usize..HOSTILE.len(), 0usize..HOSTILE.len()),
            1..6,
        ),
    ) {
        let field = |seed: &[usize]| -> String { seed.iter().map(|&i| HOSTILE[i]).collect() };
        let mut doc = Document::new("Resource");
        let root = doc.root();
        let mut trace = ExecutionTrace::default();
        let mut uris = Vec::new();
        for (i, &(a, b, c)) in picks.iter().enumerate() {
            let time = i as u64 + 1;
            let service = field(&[b, a]);
            let before = doc.mark();
            let n = doc.append_element(root, "A").unwrap();
            // unique per node, but soaked in separator characters
            let uri = format!("{}#{i}", field(&[a, b, c]));
            doc.register_resource(n, uri.clone(), Some(weblab_xml::CallLabel::new(&service, time)))
                .unwrap();
            uris.push(uri);
            let after = doc.mark();
            trace.record_call_on_channel(&doc, &service, time, before, after, field(&[c, b, a]));
        }
        let mut graph = ProvenanceGraph::from_view(&doc.view());
        graph.add_links(uris.windows(2).map(|w| ProvLink {
            from: doc.node_by_uri(&w[1]).unwrap(),
            from_uri: w[1].clone(),
            to: doc.node_by_uri(&w[0]).unwrap(),
            to_uri: w[0].clone(),
        }));

        let store = ProvStore::open(tmpstore("hostile-names")).unwrap();
        store.save("h", &doc, &trace, &graph, 1, true).unwrap();
        let back = store.load("h").unwrap().unwrap();
        prop_assert_eq!(back.trace.len(), trace.len());
        let uris_of = |d: &Document, c: &CallRecord| -> Vec<String> {
            c.produced.iter().map(|&n| d.resource(n).unwrap().uri.clone()).collect()
        };
        for (orig, round) in trace.calls.iter().zip(&back.trace.calls) {
            prop_assert_eq!(&orig.service, &round.service);
            prop_assert_eq!(&orig.channel, &round.channel);
            prop_assert_eq!(orig.produced.len(), 1);
            prop_assert_eq!(uris_of(&doc, orig), uris_of(&back.doc, round));
        }
        let snap = back.snapshot.expect("fresh snapshot");
        prop_assert_eq!(&snap.graph.links, &graph.links);
        prop_assert_eq!(&snap.graph.sources, &graph.sources);
        let _ = std::fs::remove_dir_all(store.root());
    }
}
