//! Transport-layer fuzz and robustness tests for the serve event loop.
//!
//! Every scenario throws hostile input at a real TCP server — malformed
//! JSON, truncated and interleaved lines, oversized batches, newline-less
//! floods, mid-request disconnects, shed-inducing bursts — and asserts
//! the daemon neither panics nor hangs, answers only with stable error
//! codes, and keeps serving well-formed clients afterwards. The tests
//! complete (rather than time out) only if no connection can pin the
//! server, which is the regression guard for the old blocking
//! `read_line` worker pool.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use weblab::json::Json;
use weblab::platform::{Mapper, Platform};
use weblab::serve::Server;
use weblab::workflow::{CallContext, Service, WorkflowError};
use weblab::xml::Document;

/// A served bare platform (no services registered — `status`, `ingest`
/// and error paths are all the fuzz cases need).
fn spawn(server: Server) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let addr = server.local_addr().unwrap();
    (addr, thread::spawn(move || server.run(1)))
}

fn bare_platform() -> Arc<Platform> {
    Arc::new(Platform::new(Mapper::native()))
}

fn connect(addr: &SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn send(stream: &mut TcpStream, line: &str) {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
}

fn recv(reader: &mut BufReader<TcpStream>) -> Json {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.ends_with('\n'), "response not newline-terminated");
    Json::parse(line.trim_end()).expect("response must be valid JSON")
}

fn code_of(response: &Json) -> Option<String> {
    response
        .get("code")
        .and_then(Json::as_str)
        .map(str::to_string)
}

fn shutdown(addr: &SocketAddr, server: JoinHandle<std::io::Result<()>>) {
    let (mut stream, mut reader) = connect(addr);
    send(&mut stream, "{\"op\":\"shutdown\"}");
    let bye = recv(&mut reader);
    assert_eq!(bye.get("ok").and_then(Json::as_bool), Some(true));
    drop(stream);
    server.join().unwrap().unwrap();
}

#[test]
fn malformed_lines_get_stable_codes_and_the_connection_survives() {
    let server = Server::bind(bare_platform(), "127.0.0.1:0")
        .unwrap()
        .max_batch(4)
        .idle_timeout(None);
    let (addr, server_thread) = spawn(server);
    let (mut stream, mut reader) = connect(&addr);

    let hostile_nesting = format!("{}1{}", "[".repeat(500), "]".repeat(500));
    let cases: Vec<(String, &str)> = vec![
        ("this is not json".into(), "protocol"),
        ("{\"op\":42}".into(), "protocol"),
        ("[1,2,3]".into(), "protocol"),
        ("{\"op\":\"why\"}".into(), "protocol"),
        ("{\"op\":\"transmogrify\"}".into(), "protocol"),
        ("{\"op\":\"why\",\"exec\":\"nope\",\"uri\":\"r\"}".into(), "unknown-execution"),
        // hostile nesting: rejected by the parser's depth guard, not a
        // stack overflow
        (hostile_nesting, "protocol"),
        // batch of 5 over the max_batch(4) cap
        (
            format!(
                "{{\"op\":\"batch\",\"exec\":\"e\",\"requests\":[{}]}}",
                ["{\"op\":\"why\",\"uri\":\"r\"}"; 5].join(",")
            ),
            "batch-limit",
        ),
        ("{\"op\":\"batch\",\"exec\":\"e\",\"requests\":7}".into(), "protocol"),
        // an overflowing number is not JSON's to carry: echoing it back
        // as the id would write a bare `inf`
        ("{\"id\":1e999,\"op\":\"status\"}".into(), "protocol"),
    ];
    for (line, code) in &cases {
        send(&mut stream, line);
        let response = recv(&mut reader);
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(false),
            "{line} must fail"
        );
        assert_eq!(
            code_of(&response).as_deref(),
            Some(*code),
            "wrong code for {line}"
        );
    }

    // a non-UTF-8 line is rejected, the connection keeps working
    stream.write_all(b"\xff\xfe\xfd{\"op\"\n").unwrap();
    assert_eq!(code_of(&recv(&mut reader)).as_deref(), Some("protocol"));

    // blank/CRLF keep-alive lines are skipped without a response
    stream.write_all(b"\n   \n\r\n").unwrap();

    // a line truncated mid-token completes across two writes (the
    // incremental reader reassembles it)
    stream.write_all(b"{\"op\":\"sta").unwrap();
    stream.flush().unwrap();
    thread::sleep(Duration::from_millis(20));
    stream.write_all(b"tus\"}\r\n").unwrap();
    let response = recv(&mut reader);
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));

    shutdown(&addr, server_thread);
}

#[test]
fn interleaved_pipelined_writes_answer_in_order_per_connection() {
    let server = Server::bind(bare_platform(), "127.0.0.1:0").unwrap();
    let (addr, server_thread) = spawn(server);
    let (mut a, mut a_reader) = connect(&addr);
    let (mut b, mut b_reader) = connect(&addr);

    // two clients write halves of their requests alternately: framing is
    // per-connection, so neither sees the other's bytes
    a.write_all(b"{\"id\":\"a\",\"op\":").unwrap();
    b.write_all(b"{\"id\":\"b\",\"op\":").unwrap();
    a.write_all(b"\"status\"}\n").unwrap();
    b.write_all(b"\"status\"}\n").unwrap();
    assert_eq!(
        recv(&mut a_reader).get("id").and_then(Json::as_str),
        Some("a")
    );
    assert_eq!(
        recv(&mut b_reader).get("id").and_then(Json::as_str),
        Some("b")
    );

    // a pipelined burst answers strictly in request order
    let burst: String = (0..100)
        .map(|i| format!("{{\"id\":{i},\"op\":\"status\"}}\n"))
        .collect();
    a.write_all(burst.as_bytes()).unwrap();
    for i in 0..100 {
        let response = recv(&mut a_reader);
        assert_eq!(
            response.get("id").and_then(Json::as_u64),
            Some(i),
            "pipelined responses must come back in request order"
        );
    }

    shutdown(&addr, server_thread);
}

#[test]
fn mid_request_disconnects_do_not_wedge_the_server() {
    let server = Server::bind(bare_platform(), "127.0.0.1:0").unwrap();
    let (addr, server_thread) = spawn(server);

    // drop mid-line, drop without reading the response, drop instantly
    {
        let (mut stream, _reader) = connect(&addr);
        stream.write_all(b"{\"op\":\"stat").unwrap();
    }
    {
        let (mut stream, _reader) = connect(&addr);
        send(&mut stream, "{\"op\":\"status\"}");
    }
    drop(connect(&addr));

    // the server still answers a well-behaved client afterwards
    let (mut stream, mut reader) = connect(&addr);
    send(&mut stream, "{\"op\":\"status\"}");
    assert_eq!(recv(&mut reader).get("ok").and_then(Json::as_bool), Some(true));
    drop(stream);

    shutdown(&addr, server_thread);
}

/// Regression test for the blocking-reader bug: a client streaming bytes
/// with no newline used to pin a `BufReader::read_line` worker forever.
/// The event loop instead enforces `max_line`: the flood gets one
/// `line-limit` error and the connection closes, while other clients
/// keep being served by the single worker.
#[test]
fn newline_less_flood_is_rejected_and_cannot_pin_the_worker() {
    let server = Server::bind(bare_platform(), "127.0.0.1:0")
        .unwrap()
        .max_line(1024)
        .idle_timeout(None);
    let (addr, server_thread) = spawn(server);

    let (mut flood, mut flood_reader) = connect(&addr);
    flood.write_all(&vec![b'a'; 4096]).unwrap(); // no newline, over max_line

    // a concurrent client is answered while the flood connection is open
    // — with workers(1), this fails if anything blocks on the flood
    let (mut other, mut other_reader) = connect(&addr);
    send(&mut other, "{\"op\":\"status\"}");
    assert_eq!(
        recv(&mut other_reader).get("ok").and_then(Json::as_bool),
        Some(true)
    );

    // the flood got exactly one line-limit error, then EOF (closed)
    let response = recv(&mut flood_reader);
    assert_eq!(code_of(&response).as_deref(), Some("line-limit"));
    let mut rest = String::new();
    flood_reader.read_to_string(&mut rest).unwrap();
    assert!(rest.is_empty(), "flood connection must be closed after the error");
    drop(flood);

    // an over-long *complete* line errors but keeps the connection:
    // framing never broke
    let long = format!("{{\"op\":\"status\",\"pad\":\"{}\"}}", "x".repeat(2048));
    send(&mut other, &long);
    assert_eq!(code_of(&recv(&mut other_reader)).as_deref(), Some("line-limit"));
    send(&mut other, "{\"op\":\"status\"}");
    assert_eq!(
        recv(&mut other_reader).get("ok").and_then(Json::as_bool),
        Some(true)
    );

    shutdown(&addr, server_thread);
}

/// Regression test for quadratic string parsing: one line just under the
/// default `max_line` used to take tens of seconds to parse, pinning the
/// only worker. It must parse in linear time, so a concurrent client and
/// the long line itself are both answered well within the read timeout.
#[test]
fn one_long_line_cannot_pin_the_worker() {
    let server = Server::bind(bare_platform(), "127.0.0.1:0")
        .unwrap()
        .idle_timeout(None);
    let (addr, server_thread) = spawn(server);
    let timeout = Some(Duration::from_secs(10));

    let (mut long, mut long_reader) = connect(&addr);
    long.set_read_timeout(timeout).unwrap();
    let line = format!(
        "{{\"id\":\"long\",\"op\":\"status\",\"pad\":\"{}\"}}",
        "x".repeat(1000 * 1024)
    );
    assert!(line.len() < weblab::serve::DEFAULT_MAX_LINE);
    send(&mut long, &line);

    let (mut other, mut other_reader) = connect(&addr);
    other.set_read_timeout(timeout).unwrap();
    send(&mut other, "{\"op\":\"status\"}");
    assert_eq!(
        recv(&mut other_reader).get("ok").and_then(Json::as_bool),
        Some(true)
    );
    let response = recv(&mut long_reader);
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(response.get("id").and_then(Json::as_str), Some("long"));
    drop((long, other));

    shutdown(&addr, server_thread);
}

#[test]
fn idle_connections_time_out_with_the_stable_code() {
    let server = Server::bind(bare_platform(), "127.0.0.1:0")
        .unwrap()
        .idle_timeout(Some(Duration::from_millis(60)));
    let (addr, server_thread) = spawn(server);

    // an active connection survives its first requests…
    let (mut active, mut active_reader) = connect(&addr);
    send(&mut active, "{\"op\":\"status\"}");
    assert_eq!(
        recv(&mut active_reader).get("ok").and_then(Json::as_bool),
        Some(true)
    );

    // …a silent one is told why it is being closed, then disconnected
    let (silent, mut silent_reader) = connect(&addr);
    let response = recv(&mut silent_reader);
    assert_eq!(code_of(&response).as_deref(), Some("idle-timeout"));
    let mut rest = String::new();
    silent_reader.read_to_string(&mut rest).unwrap();
    assert!(rest.is_empty(), "idle connection must be closed after the notice");
    drop(silent);
    drop(active);

    shutdown(&addr, server_thread);
}

#[test]
fn connection_cap_rejects_excess_clients_with_overloaded() {
    let server = Server::bind(bare_platform(), "127.0.0.1:0")
        .unwrap()
        .max_conns(2)
        .idle_timeout(None);
    let (addr, server_thread) = spawn(server);

    let (mut keep, mut keep_reader) = connect(&addr);
    send(&mut keep, "{\"op\":\"status\"}"); // ensure it is accepted + served
    recv(&mut keep_reader);
    let (_second, _second_reader) = connect(&addr);
    // give the loop a tick to register the second connection
    thread::sleep(Duration::from_millis(20));

    let (excess, mut excess_reader) = connect(&addr);
    let response = recv(&mut excess_reader);
    assert_eq!(code_of(&response).as_deref(), Some("overloaded"));
    let mut rest = String::new();
    excess_reader.read_to_string(&mut rest).unwrap();
    assert!(rest.is_empty(), "rejected connection must be closed");
    drop(excess);
    drop((_second, _second_reader));
    thread::sleep(Duration::from_millis(20)); // let the reap free a slot

    shutdown(&addr, server_thread);
}

/// The admission-control conservation property: under shed-inducing load,
/// **every** request still gets exactly one response, matched by its
/// echoed `id`, and every response is either a success or a stable
/// `overloaded` shed — nothing is silently dropped, nothing is answered
/// twice.
#[test]
fn shedding_never_drops_or_duplicates_a_response() {
    let server = Server::bind(bare_platform(), "127.0.0.1:0")
        .unwrap()
        .queue_depth(1)
        .idle_timeout(None);
    let (addr, server_thread) = spawn(server);
    let (mut stream, mut reader) = connect(&addr);

    // one write carrying 41 requests: the first is admitted, the rest
    // arrive while it occupies the whole queue (depth 1)
    const BURST: u64 = 41;
    let burst: String = (0..BURST)
        .map(|i| format!("{{\"id\":{i},\"op\":\"status\"}}\n"))
        .collect();
    stream.write_all(burst.as_bytes()).unwrap();

    let mut ok = 0u64;
    let mut shed = 0u64;
    let mut seen = std::collections::HashSet::new();
    for _ in 0..BURST {
        let response = recv(&mut reader);
        let id = response
            .get("id")
            .and_then(Json::as_u64)
            .expect("every response must echo its request id");
        assert!(seen.insert(id), "id {id} answered twice");
        match response.get("ok").and_then(Json::as_bool) {
            Some(true) => ok += 1,
            Some(false) => {
                assert_eq!(
                    code_of(&response).as_deref(),
                    Some("overloaded"),
                    "only sheds may fail under this burst"
                );
                shed += 1;
            }
            None => panic!("response without ok member"),
        }
    }
    assert_eq!(ok + shed, BURST, "exactly one response per request");
    assert_eq!(seen.len() as u64, BURST, "every id answered exactly once");
    assert!(ok >= 1, "the admitted request must be answered");
    assert!(shed >= 30, "a depth-1 queue must shed most of the burst");

    // the server recovers: the next request is admitted normally
    send(&mut stream, "{\"id\":\"after\",\"op\":\"status\"}");
    let response = recv(&mut reader);
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(response.get("id").and_then(Json::as_str), Some("after"));

    shutdown(&addr, server_thread);
}

/// A service whose every call panics.
struct Panics;

impl Service for Panics {
    fn name(&self) -> &str {
        "Panics"
    }

    fn call(&self, _: &mut Document, _: &mut CallContext) -> Result<(), WorkflowError> {
        panic!("injected service panic")
    }
}

#[test]
fn a_panicking_request_is_answered_internal_and_its_worker_serves_on() {
    let platform = bare_platform();
    platform.register_service(Arc::new(Panics), &[]).unwrap();
    let server = Server::bind(platform, "127.0.0.1:0").unwrap().idle_timeout(None);
    // one worker: if the panic killed it, nothing would answer again
    let (addr, server_thread) = spawn(server);
    let (mut stream, mut reader) = connect(&addr);
    // a request whose answer never comes fails the read instead of hanging
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();

    send(
        &mut stream,
        r#"{"id":7,"op":"ingest","exec":"e","xml":"<Resource/>","pipeline":["Panics"]}"#,
    );
    let response = recv(&mut reader);
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false), "{response}");
    assert_eq!(code_of(&response).as_deref(), Some("internal"), "{response}");
    assert_eq!(response.get("id").and_then(Json::as_u64), Some(7), "{response}");

    send(&mut stream, r#"{"op":"status"}"#);
    let status = recv(&mut reader);
    assert_eq!(status.get("ok").and_then(Json::as_bool), Some(true), "{status}");
    shutdown(&addr, server_thread);
}
