//! Out-of-process recording: services that communicate through serialised
//! XML documents (the original platform's SOAP exchanges). The execution's
//! handle diffs each response against the kept state, merges the new
//! fragments into the canonical arena and commits the call, and provenance
//! inference proceeds exactly as in the in-process case — the model is
//! agnostic to how services run.
//!
//! ```text
//! cargo run --example soap_exchange
//! ```

use std::sync::Arc;

use weblab::platform::{Mapper, Platform};
use weblab::workflow::services::{LanguageExtractor, Normaliser};
use weblab::workflow::{CallContext, Service};
use weblab::xml::{to_xml_string, CallLabel, Document};

fn main() {
    let platform = Platform::new(Mapper::native());
    platform
        .register_service(
            Arc::new(Normaliser),
            &["//NativeContent[$x := @id] => //TextMediaUnit[@origin = $x]"],
        )
        .unwrap();
    platform
        .register_service(
            Arc::new(LanguageExtractor),
            &["//TextMediaUnit[$x := @id]/TextContent => //TextMediaUnit[$x := @id]/Annotation[Language]"],
        )
        .unwrap();

    // initial document, ingested as a new execution
    let mut doc = Document::new("Resource");
    let root = doc.root();
    doc.register_resource(root, "weblab://doc/soap", None).unwrap();
    let native = doc.append_element(root, "NativeContent").unwrap();
    doc.register_resource(native, "weblab://src/0", Some(CallLabel::new("Source", 0)))
        .unwrap();
    doc.append_text(native, "le service distant analyse le texte")
        .unwrap();
    platform.ingest("soap-1", doc.clone());

    // --- the "remote" side -------------------------------------------
    // Pretend each service runs in another process: it receives the
    // serialised document, extends its own copy, and returns new XML.
    let remote = |doc: &mut Document, service: &dyn Service, time: u64| -> String {
        let mut ctx = CallContext::new(service.name(), time);
        service.call(doc, &mut ctx).expect("remote call");
        to_xml_string(&doc.view())
    };

    let response1 = remote(&mut doc, &Normaliser, 1);
    println!(
        "response 1 ({} bytes) received from remote Normaliser",
        response1.len()
    );
    let exec = platform.execution("soap-1");
    exec.record_exchange("Normaliser", 1, &response1).unwrap();

    let response2 = remote(&mut doc, &LanguageExtractor, 2);
    println!(
        "response 2 ({} bytes) received from remote LanguageExtractor",
        response2.len()
    );
    exec.record_exchange("LanguageExtractor", 2, &response2).unwrap();

    // --- provenance over the merged canonical document ----------------
    let graph = exec.graph().unwrap();
    println!("\n{graph}");
    assert!(!graph.links.is_empty());

    // and the append-only guarantee is enforced: a response that dropped
    // content is rejected
    let bad_response = r#"<Resource wl:id="weblab://doc/soap"/>"#;
    let err = exec.record_exchange("Rogue", 3, bad_response).unwrap_err();
    println!("rogue service rejected: {err}");
}
