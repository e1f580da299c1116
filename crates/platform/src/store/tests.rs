use super::*;
use proptest::prelude::*;
use weblab_prov::{infer_provenance, EngineOptions, ProvLink, ReachabilityIndex, SourceEntry};
use weblab_workflow::generator::synthetic_workload;
use weblab_workflow::Orchestrator;

fn tmpstore(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("weblab-store-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
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
fn the_live_header_reads_without_a_load_and_resume_snapshots_without_one_are_empty() {
    let (doc, trace, graph) = executed(22);
    let store = ProvStore::open(tmpstore("live-header")).unwrap();
    assert!(!store.stored_live("live"), "no such execution");
    store.save("live", &doc, &trace, &graph, 3, true).unwrap();
    store.save("batch", &doc, &trace, &graph, 3, false).unwrap();
    assert!(store.stored_live("live"));
    assert!(!store.stored_live("batch"));

    // a fresh stored snapshot is taken as it is, at its epoch
    let mut stored = store.load("live").unwrap().expect("stored");
    let snap = stored.resume_snapshot();
    assert_eq!((snap.epoch, snap.calls), (3, trace.len()));
    assert_eq!(snap.graph.links, graph.links);
    assert_eq!(snap.index.edge_count(), graph.links.len());
    // without one, the execution continues from an empty snapshot at
    // epoch 0, which the platform's next refresh re-infers
    std::fs::remove_file(store.snapshot_path("live", 3)).unwrap();
    let mut reloaded = ProvStore::open(store.root()).unwrap().load("live").unwrap().unwrap();
    assert!(reloaded.snapshot.is_none());
    assert_eq!(reloaded.trace.len(), trace.len());
    let snap = reloaded.resume_snapshot();
    assert_eq!((snap.epoch, snap.calls), (0, 0));
    assert!(snap.graph.links.is_empty() && snap.graph.sources.is_empty());
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
fn incremental_saves_append_only_the_tail() {
    let (doc, trace, graph) = executed(33);
    assert!(trace.len() >= 2, "workload too small for the test");
    let store = ProvStore::open(tmpstore("incremental")).unwrap();

    // Save a prefix first: pretend only the first call had happened.
    let mut prefix = ExecutionTrace::default();
    prefix.calls.push(trace.calls[0].clone());
    let empty = ProvenanceGraph::default();
    store.save("e", &doc, &prefix, &empty, 1, false).unwrap();
    // Then the full trace: the second save must only append the tail.
    store.save("e", &doc, &trace, &graph, 2, false).unwrap();

    let back = store.load("e").unwrap().unwrap();
    assert_eq!(back.trace.len(), trace.len());
    assert_eq!(back.snapshot.unwrap().epoch, 2);

    // Saving identical state again is a no-op for the log.
    let before = std::fs::read_to_string(
        store.delta_path("e"),
    )
    .unwrap();
    store.save("e", &doc, &trace, &graph, 2, false).unwrap();
    let after = std::fs::read_to_string(store.delta_path("e")).unwrap();
    assert_eq!(before, after);
    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn compaction_seals_deltas_and_folds_segments() {
    let (doc, trace, graph) = executed(8);
    let store = ProvStore::open(tmpstore("compact")).unwrap();

    // Build the log one call at a time, sealing after each save, to force
    // many sealed segments.
    let mut partial = ExecutionTrace::default();
    for (i, c) in trace.calls.iter().enumerate() {
        partial.calls.push(c.clone());
        let g = if i + 1 == trace.len() { graph.clone() } else { ProvenanceGraph::default() };
        store.save("e", &doc, &partial, &g, i as u64 + 1, false).unwrap();
        assert!(store.compact("e").unwrap());
    }
    let (segs, _, has_delta) = store.scan_files("e");
    assert!(!has_delta, "compaction must consume the delta");
    assert!(
        segs.len() <= MAX_SEGMENTS + 1,
        "folding must bound the segment count, got {segs:?}"
    );

    let back = store.load("e").unwrap().unwrap();
    assert_eq!(back.trace.len(), trace.len());
    for (a, b) in trace.calls.iter().zip(&back.trace.calls) {
        assert_eq!(a.service, b.service);
        assert_eq!(a.time, b.time);
    }
    assert_eq!(back.snapshot.expect("fresh snapshot").graph.links, graph.links);

    // compact_all over an already-compacted store changes nothing
    assert_eq!(store.compact_all().unwrap(), 0);
    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn a_new_store_handle_reads_what_another_wrote() {
    // Simulates a process restart: a second ProvStore over the same root
    // must see everything, including correct delta-append behaviour.
    let (doc, trace, graph) = executed(55);
    let root = tmpstore("restart");
    {
        let store = ProvStore::open(&root).unwrap();
        store.save("e", &doc, &trace, &graph, 4, true).unwrap();
        store.compact("e").unwrap();
    }
    let store = ProvStore::open(&root).unwrap();
    assert!(store.contains("e"));
    let back = store.load("e").unwrap().unwrap();
    assert_eq!(back.trace.len(), trace.len());
    let snap = back.snapshot.unwrap();
    assert_eq!(snap.epoch, 4);
    assert!(snap.live);
    assert_eq!(snap.graph.links, graph.links);
    // a further identical save through the new handle appends nothing
    store.save("e", &doc, &trace, &graph, 4, true).unwrap();
    assert!(!store.delta_path("e").exists());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn truncated_segment_delta_and_snapshot_are_detected() {
    let (doc, trace, graph) = executed(13);
    let store = ProvStore::open(tmpstore("truncate")).unwrap();
    // seal every call but the last, then re-open a delta with that one
    let mut head = trace.clone();
    head.calls.pop().expect("the workload has calls");
    store.save("e", &doc, &head, &graph, 2, false).unwrap();
    store.compact("e").unwrap();
    store.save("e", &doc, &trace, &graph, 3, false).unwrap();

    let seg = store.segment_path("e", 1);
    let delta = store.delta_path("e");
    let snap = store.snapshot_path("e", 3);
    for path in [&seg, &delta, &snap] {
        assert!(path.exists(), "expected {path:?} on disk");
        let full = std::fs::read_to_string(path).unwrap();

        // kill the footer: the file must be rejected as truncated
        let lines: Vec<&str> = full.lines().collect();
        std::fs::write(path, lines[..lines.len() - 1].join("\n") + "\n").unwrap();
        match store.load("e") {
            Err(PersistError::Truncated { .. }) => {}
            other => panic!("expected Truncated for {path:?}, got {other:?}"),
        }

        // a lying footer (dropped body line, kept footer) is also caught
        if lines.len() >= 3 {
            let mut bad: Vec<&str> = lines[..lines.len() - 2].to_vec();
            bad.push(lines[lines.len() - 1]);
            std::fs::write(path, bad.join("\n") + "\n").unwrap();
            match store.load("e") {
                Err(PersistError::Truncated { .. }) | Err(PersistError::Format { .. }) => {}
                other => panic!("expected rejection for {path:?}, got {other:?}"),
            }
        }
        std::fs::write(path, &full).unwrap();
    }
    // intact again: loads fine
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
    store.compact(id).unwrap();
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
fn segment_encode_decode_is_stable() {
    let data = SegmentData {
        base: 7,
        calls: vec![SegmentCall {
            service: "A | B".into(),
            time: 9,
            input: (3, 1),
            output: (5, 2),
            channel: "0.1".into(),
            produced: vec!["u1".into(), "u,2".into()],
        }],
    };
    // a call producing one empty URI, and one producing none
    let mut calls = data.calls.clone();
    for produced in [vec![String::new()], Vec::new()] {
        calls.push(SegmentCall { produced, ..data.calls[0].clone() });
    }
    let data = SegmentData { calls, ..data };
    let text = segment::encode("e", &data);
    let back = segment::decode("mem", &text).unwrap();
    assert_eq!(back, data);
    // calls only, produced URIs inline and escaped
    assert!(text.contains("call: A %7C B | 9 | 3,1 | 5,2 | 0.1 | u1,u%2C2,\n"), "{text}");
    assert!(text.ends_with("# end calls=3\n"), "{text}");
    // a log in the earlier format, with a URI dictionary and link rows, is
    // refused rather than read
    let earlier = "# weblab prov segment\nexec: e\nbase: 0\nuri: u1\n\
                   call: A | 1 | 0,0 | 1,1 |  | 0\nlink: 0 0\n# end uris=1 calls=1 links=1\n";
    assert!(segment::decode("mem", earlier).is_err());
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
    // the resume point is not part of the log: compaction and cold loads
    // ignore it, and it lists no execution of its own
    store.compact("e").unwrap();
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
    // a footer that disagrees with the body is caught too
    let mut bad: Vec<&str> = lines[..lines.len() - 2].to_vec();
    bad.push(lines[lines.len() - 1]);
    std::fs::write(&path, bad.join("\n") + "\n").unwrap();
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
    for text in [
        // completed beyond the step list
        "completed: 9\nnext-time: 1\nstep: A\n# end steps=1\n",
        // unknown line
        "completed: 0\nnext-time: 1\nwat\n# end steps=0\n",
        // unparsable counter
        "completed: x\nnext-time: 1\n# end steps=0\n",
        // no call-count witness
        "completed: 0\nnext-time: 1\nstep: A\n# end steps=1\n",
    ] {
        std::fs::write(&path, text).unwrap();
        match store.resume_point("e") {
            Err(PersistError::Format { .. }) => {}
            other => panic!("expected a format error for {text:?}, got {other:?}"),
        }
    }
    // headers missing under an intact footer: the file lost its head
    std::fs::write(&path, "step: A\n# end steps=1\n").unwrap();
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
