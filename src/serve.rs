//! `weblab serve` — the long-running provenance query service.
//!
//! A [`Server`] owns a `TcpListener` and serves a **line-delimited JSON**
//! protocol: one request object per line in, one response object per line
//! out, many requests per connection, requests freely pipelined. The
//! transport is a single-threaded, std-only **event loop** over
//! non-blocking sockets (no async runtime, no `libc`): every tick it
//! accepts ready connections, drains readable sockets into per-connection
//! read buffers, frames complete lines, and hands admitted requests to a
//! fixed pool of dispatch workers; completions stream back over a channel
//! that doubles as the loop's wake-up (a completion-channel-woken
//! incremental reader — the std-only stand-in for `poll(2)` readiness).
//! The entire dispatch is written against [`ExecutionHandle`] — the serve
//! layer never touches `Platform` internals.
//!
//! Requests (`op` selects the operation; see DESIGN.md §10 and §12):
//!
//! ```text
//! {"op":"why","exec":"e","uri":"r8"}
//! {"op":"lineage","exec":"e","uri":"r8","depth":3}
//! {"op":"impacted-by","exec":"e","uri":"r3"}
//! {"op":"common-origins","exec":"e","a":"r8","b":"r6"}
//! {"op":"sparql","exec":"e","query":"PREFIX prov: <…> SELECT ?d ?s WHERE { ?d prov:wasDerivedFrom ?s . }"}
//! {"op":"rank","exec":"e","uri":"r3","direction":"up","limit":10,"budget":4096,"decay":0.5,"weights":{"Translator":0.25}}
//! {"op":"summary","exec":"e","uri":"r3"}
//! {"op":"batch","exec":"e","requests":[{"op":"why","uri":"r8"},{"op":"impacted-by","uri":"r3"}]}
//! {"op":"ingest","exec":"e","xml":"<Resource>…</Resource>","live":true,"pipeline":["Normaliser"]}
//! {"op":"replay","exec":"e","as":"e2","xml":"<Resource>…</Resource>","changed":["r3"],"proof":"exact"}
//! {"op":"status"}
//! {"op":"shutdown"}
//! ```
//!
//! Responses: `{"ok":true,"v":2,"epoch":N,"result":…}` on success
//! (`"v"` is the protocol version — [`PROTOCOL_VERSION`], stamped on
//! every response so clients can detect the v2 answer shapes; `epoch` is
//! the reachability-index epoch the answer was computed at — present for
//! ops that touched a snapshot), `{"ok":false,"v":2,"code":"…","error":"…"}`
//! on failure with the stable [`WebLabError::code`] strings. Any request
//! may carry an `"id"` member; it is echoed back verbatim as the first
//! member of the response, so pipelining clients can match responses
//! under overload. `sparql` responses are capped at [`Server::max_rows`]
//! solution rows (stable code `result-limit`); `rank` and `summary`
//! result lists are capped by the same limit and code. `ingest` (its
//! `exec`) and `replay` (its `as`) take a fresh execution id: one the
//! daemon already holds, resident or stored, is refused with the code
//! `execution-exists` before anything is stored.
//!
//! ## The `batch` op
//!
//! `batch` carries up to [`Server::max_batch`] query sub-requests
//! (`why`/`lineage`/`impacted-by`/`common-origins`/`sparql`/`rank`/
//! `summary`) in one round-trip and answers **all of them against a single pinned epoch
//! snapshot**: the response is `{"ok":true,"epoch":E,"result":[…]}` where
//! every element is a full response object — successes byte-identical to
//! the same sub-request issued on its own at epoch `E`, failures carrying
//! their own stable code plus the batch's epoch. A batch is never torn
//! across two epochs, even while live ingestion publishes newer ones
//! mid-flight.
//!
//! ## Admission control and backpressure
//!
//! The transport enforces hard bounds with stable error codes:
//!
//! * **connection cap** ([`Server::max_conns`]) — excess connections get
//!   one `overloaded` error line and are closed (`serve.conn.rejected`);
//! * **queue-depth shedding** ([`Server::queue_depth`]) — a request
//!   arriving while that many admitted requests are queued or in flight
//!   is answered `overloaded` immediately, in FIFO position, without
//!   dispatch (`serve.shed`). Every received request gets exactly one
//!   response — shed, failed, or answered;
//! * **line length** ([`Server::max_line`]) — an over-long line is
//!   answered `line-limit`; a partial line that overflows the buffer
//!   without a newline gets the same error and the connection is closed
//!   (framing is lost), so a client streaming garbage can no longer pin
//!   a worker or grow memory without bound;
//! * **idle read timeout** ([`Server::idle_timeout`]) — a connection with
//!   no traffic and no pending work is answered `idle-timeout` and
//!   closed;
//! * **write backpressure** — a connection whose client stops reading
//!   accumulates a bounded write buffer; past the high-water mark the
//!   loop stops reading from that socket until the client drains.
//!
//! Queries answer from the execution's published [`EpochSnapshot`]
//! (immutable graph + index behind an `Arc` swap), so they run lock-free
//! and concurrently with live ingestion. A request whose handler panics
//! is answered with the stable code `internal` (`serve.panics`); the
//! worker survives, so the connection gets its one response and the load
//! ticket is released. The serve counters
//! (`serve.requests`, `serve.errors`, `serve.batch.{requests,subs}`,
//! `serve.shed`, `serve.panics`, `serve.conn.{accepted,rejected}`, the
//! `serve.queue.depth` gauge and the `serve.request_ns` histogram) land
//! in the same observability registry as the engine's, so
//! `--metrics-out` reports cover the daemon too.

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use weblab_obs::{Counter, Gauge, Histogram, Span};
use weblab_platform::{
    ExecutionHandle, Platform, PlatformError, ProvQuery, QueryAnswer, QueryOpts, RankDirection,
    PROTOCOL_VERSION,
};
use weblab_prov::{format_micro, micro_from_f64};
use weblab_workflow::ProofMode;
use weblab_prov::EpochSnapshot;
use weblab_xml::parse_document;

use crate::error::WebLabError;
use crate::json::{self, Json};

/// Requests dispatched (including failed ones; sheds are not dispatched).
static SERVE_REQUESTS: Counter = Counter::new("serve.requests");
/// Dispatched requests answered with `ok:false`.
static SERVE_ERRORS: Counter = Counter::new("serve.errors");
/// Wall time of one dispatched request (parse + dispatch + render), ns.
static SERVE_REQUEST_NS: Histogram = Histogram::new("serve.request_ns");
/// `batch` requests dispatched.
static SERVE_BATCH_REQUESTS: Counter = Counter::new("serve.batch.requests");
/// Sub-requests carried by dispatched batches.
static SERVE_BATCH_SUBS: Counter = Counter::new("serve.batch.subs");
/// Requests shed by queue-depth admission control.
static SERVE_SHED: Counter = Counter::new("serve.shed");
/// Connections accepted into the event loop.
static SERVE_CONN_ACCEPTED: Counter = Counter::new("serve.conn.accepted");
/// Connections rejected at the connection cap.
static SERVE_CONN_REJECTED: Counter = Counter::new("serve.conn.rejected");
/// Admitted requests currently queued or in flight.
static SERVE_QUEUE_DEPTH: Gauge = Gauge::new("serve.queue.depth");
/// Dispatches that panicked and were answered with the `internal` code.
static SERVE_PANICS: Counter = Counter::new("serve.panics");

/// Default cap on `sparql` result rows ([`Server::max_rows`]).
pub const DEFAULT_MAX_ROWS: usize = 10_000;
/// Default cap on sub-requests per `batch` ([`Server::max_batch`]).
pub const DEFAULT_MAX_BATCH: usize = 256;
/// Default cap on concurrent connections ([`Server::max_conns`]).
pub const DEFAULT_MAX_CONNS: usize = 1024;
/// Default cap on one protocol line, in bytes ([`Server::max_line`]).
pub const DEFAULT_MAX_LINE: usize = 1 << 20;
/// Default admission-control queue depth ([`Server::queue_depth`]).
pub const DEFAULT_QUEUE_DEPTH: usize = 4096;
/// Default idle read timeout ([`Server::idle_timeout`]).
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(300);

/// Stop reading from a connection whose unflushed responses exceed this.
const WRITE_HIGH_WATER: usize = 256 * 1024;
/// Most bytes drained from one socket per event-loop tick (fairness).
const READ_QUANTUM: usize = 256 * 1024;
/// Event-loop wake-up granularity when no completion arrives.
const TICK: Duration = Duration::from_micros(500);
/// How long a closing/draining connection may linger unflushed.
const CLOSE_GRACE: Duration = Duration::from_secs(5);

/// Per-request limits the dispatcher enforces.
#[derive(Clone, Copy, Debug)]
pub struct RequestLimits {
    /// Cap on `sparql` solution rows and `rank`/`summary` result lists
    /// (stable code `result-limit`).
    pub max_rows: usize,
    /// Cap on sub-requests per `batch` (stable code `batch-limit`).
    pub max_batch: usize,
}

impl Default for RequestLimits {
    fn default() -> Self {
        RequestLimits {
            max_rows: DEFAULT_MAX_ROWS,
            max_batch: DEFAULT_MAX_BATCH,
        }
    }
}

/// The provenance query daemon.
pub struct Server {
    platform: Arc<Platform>,
    listener: TcpListener,
    limits: RequestLimits,
    max_conns: usize,
    max_line: usize,
    queue_depth: usize,
    idle_timeout: Option<Duration>,
}

impl Server {
    /// Bind to `addr` (e.g. `127.0.0.1:0` for an ephemeral port). The
    /// platform is shared: executions started outside the server are
    /// queryable, and `ingest` requests are visible to the embedding
    /// process.
    pub fn bind(platform: Arc<Platform>, addr: &str) -> std::io::Result<Server> {
        Ok(Server {
            platform,
            listener: TcpListener::bind(addr)?,
            limits: RequestLimits::default(),
            max_conns: DEFAULT_MAX_CONNS,
            max_line: DEFAULT_MAX_LINE,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            idle_timeout: Some(DEFAULT_IDLE_TIMEOUT),
        })
    }

    /// Cap `sparql` responses at `max_rows` solution rows, and `rank`/
    /// `summary` responses at `max_rows` result-list entries
    /// (`--max-rows`; default [`DEFAULT_MAX_ROWS`]). A query producing
    /// more answers `ok:false` with the stable code `result-limit`
    /// instead of serialising an unbounded response.
    pub fn max_rows(mut self, max_rows: usize) -> Server {
        self.limits.max_rows = max_rows;
        self
    }

    /// Cap `batch` requests at `max_batch` sub-requests (`--max-batch`;
    /// default [`DEFAULT_MAX_BATCH`]; stable code `batch-limit`).
    pub fn max_batch(mut self, max_batch: usize) -> Server {
        self.limits.max_batch = max_batch;
        self
    }

    /// Cap concurrent connections (`--max-conns`; default
    /// [`DEFAULT_MAX_CONNS`]). Excess connections receive one
    /// `overloaded` error line and are closed.
    pub fn max_conns(mut self, max_conns: usize) -> Server {
        self.max_conns = max_conns.max(1);
        self
    }

    /// Cap one protocol line at `max_line` bytes (default
    /// [`DEFAULT_MAX_LINE`]; stable code `line-limit`).
    pub fn max_line(mut self, max_line: usize) -> Server {
        self.max_line = max_line.max(1);
        self
    }

    /// Shed requests arriving while `queue_depth` admitted requests are
    /// already queued or in flight (default [`DEFAULT_QUEUE_DEPTH`];
    /// stable code `overloaded`). Shed requests still get exactly one
    /// response, in FIFO position on their connection.
    pub fn queue_depth(mut self, queue_depth: usize) -> Server {
        self.queue_depth = queue_depth.max(1);
        self
    }

    /// Close connections idle past `timeout` with an `idle-timeout` error
    /// line (`--idle-timeout`; default [`DEFAULT_IDLE_TIMEOUT`]; `None`
    /// disables the sweep).
    pub fn idle_timeout(mut self, timeout: Option<Duration>) -> Server {
        self.idle_timeout = timeout;
        self
    }

    /// The bound address — what clients connect to (and what the CLI
    /// prints as `listening on …` for port scraping).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until a `shutdown` request completes, dispatching admitted
    /// requests to a pool of `workers` threads while a single event loop
    /// owns all socket I/O. Blocks the calling thread.
    pub fn run(self, workers: usize) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let (done_tx, done_rx) = mpsc::channel::<Done>();
        let mut pool = Vec::new();
        for _ in 0..workers.max(1) {
            let job_rx = Arc::clone(&job_rx);
            let done_tx = done_tx.clone();
            let platform = Arc::clone(&self.platform);
            let limits = self.limits;
            pool.push(thread::spawn(move || loop {
                let next = job_rx.lock().expect("worker queue lock poisoned").recv();
                let Ok(job) = next else { break };
                let (response, stop) = handle_line_limits(&platform, &job.line, &limits);
                let done = Done {
                    conn: job.conn,
                    response,
                    stop,
                };
                if done_tx.send(done).is_err() {
                    break;
                }
            }));
        }
        drop(done_tx);

        let mut lp = EventLoop {
            listener: &self.listener,
            conns: HashMap::new(),
            next_conn: 0,
            load: 0,
            max_conns: self.max_conns,
            max_line: self.max_line,
            queue_depth: self.queue_depth,
            idle_timeout: self.idle_timeout,
            job_tx,
            shutdown: false,
        };
        loop {
            let mut active = false;
            if !lp.shutdown {
                active |= lp.accept_ready();
                active |= lp.read_ready();
            }
            active |= lp.drain_completions(&done_rx);
            lp.pump_and_flush();
            lp.sweep_idle();
            lp.reap_closed();
            if lp.shutdown && lp.load == 0 && lp.all_flushed() {
                break;
            }
            if !active {
                // The completion channel is the loop's wake-up: a worker
                // finishing wakes it immediately; otherwise it re-scans
                // the sockets every TICK.
                match done_rx.recv_timeout(TICK) {
                    Ok(done) => lp.complete(done),
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }
        }
        drop(lp);
        for worker in pool {
            let _ = worker.join();
        }
        Ok(())
    }
}

/// One admitted request travelling to the dispatch workers.
struct Job {
    conn: u64,
    line: String,
}

/// One finished dispatch travelling back to the event loop.
struct Done {
    conn: u64,
    response: String,
    stop: bool,
}

/// An entry in a connection's FIFO of unanswered protocol lines.
enum Pending {
    /// An admitted request line waiting for its dispatch turn.
    Line(String),
    /// A response produced without dispatch (shed, line-limit, bad
    /// UTF-8), held in arrival position so per-connection FIFO order is
    /// preserved.
    Resolved(String),
}

/// Per-connection state of the event loop.
struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    flushed: usize,
    pending: VecDeque<Pending>,
    in_flight: bool,
    last_activity: Instant,
    /// Peer closed its side (or the socket errored): read no more.
    eof: bool,
    /// Close once the write buffer drains (or the grace period lapses).
    close_by: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            flushed: 0,
            pending: VecDeque::new(),
            in_flight: false,
            last_activity: Instant::now(),
            eof: false,
            close_by: None,
        }
    }

    fn unflushed(&self) -> usize {
        self.write_buf.len() - self.flushed
    }

    fn push_response(&mut self, response: &str) {
        self.write_buf.extend_from_slice(response.as_bytes());
        self.write_buf.push(b'\n');
    }
}

/// The single-threaded owner of every socket.
struct EventLoop<'l> {
    listener: &'l TcpListener,
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    /// Admitted requests queued or in flight (mirrors `serve.queue.depth`).
    load: usize,
    max_conns: usize,
    max_line: usize,
    queue_depth: usize,
    idle_timeout: Option<Duration>,
    job_tx: mpsc::Sender<Job>,
    shutdown: bool,
}

impl EventLoop<'_> {
    /// Accept every ready connection; returns whether any arrived.
    fn accept_ready(&mut self) -> bool {
        let mut any = false;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    any = true;
                    if self.conns.len() >= self.max_conns {
                        SERVE_CONN_REJECTED.inc();
                        reject_connection(stream, self.conns.len(), self.max_conns);
                    } else if stream.set_nonblocking(true).is_ok() {
                        // responses are single short lines: Nagle would
                        // add ~40ms of delayed-ACK latency per round trip
                        let _ = stream.set_nodelay(true);
                        SERVE_CONN_ACCEPTED.inc();
                        self.conns.insert(self.next_conn, Conn::new(stream));
                        self.next_conn += 1;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break, // WouldBlock or transient: retry next tick
            }
        }
        any
    }

    /// Drain every readable socket into its buffer and frame complete
    /// lines; returns whether any bytes arrived.
    fn read_ready(&mut self) -> bool {
        let mut any = false;
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            let conn = self.conns.get_mut(&id).expect("conn ids are stable");
            if conn.eof || conn.close_by.is_some() || conn.unflushed() > WRITE_HIGH_WATER {
                continue; // closing or backpressured: stop reading
            }
            any |= read_some(conn);
            self.frame_lines(id);
        }
        any
    }

    /// Split `read_buf` into complete lines and admit/shed/reject each.
    /// Lines are framed with a cursor and the consumed prefix is drained
    /// once, so a pipelined burst costs one pass over the buffer.
    fn frame_lines(&mut self, id: u64) {
        let conn = self.conns.get_mut(&id).expect("conn ids are stable");
        let mut start = 0;
        while let Some(nl) = conn.read_buf[start..].iter().position(|&b| b == b'\n') {
            let mut line = &conn.read_buf[start..start + nl];
            start += nl + 1;
            if let [rest @ .., b'\r'] = line {
                line = rest;
            }
            if line.iter().all(|b| b.is_ascii_whitespace()) {
                continue; // blank keep-alive line: no response
            }
            if line.len() > self.max_line {
                let e = WebLabError::LineLimit { max: self.max_line };
                let resp = error_response(&e, None);
                conn.pending.push_back(Pending::Resolved(resp));
                continue; // framing intact: the connection survives
            }
            let Ok(text) = std::str::from_utf8(line) else {
                let e = WebLabError::Protocol("request line is not valid UTF-8".into());
                let resp = error_response(&e, None);
                conn.pending.push_back(Pending::Resolved(resp));
                continue;
            };
            if self.load >= self.queue_depth {
                // admission control: answer now, never dispatch — but in
                // FIFO position, and echoing the client's id if present
                SERVE_SHED.inc();
                let e = WebLabError::Overloaded {
                    depth: self.load,
                    cap: self.queue_depth,
                };
                let request = Json::parse(text).ok();
                let id_val = request.as_ref().and_then(|r| r.get("id"));
                let resp = error_response(&e, id_val);
                conn.pending.push_back(Pending::Resolved(resp));
                continue;
            }
            self.load += 1;
            SERVE_QUEUE_DEPTH.inc();
            conn.pending.push_back(Pending::Line(text.to_owned()));
        }
        conn.read_buf.drain(..start);
        // no newline in what is left: a partial line may not overflow the cap
        if conn.read_buf.len() > self.max_line {
            let e = WebLabError::LineLimit { max: self.max_line };
            let resp = error_response(&e, None);
            conn.pending.push_back(Pending::Resolved(resp));
            conn.read_buf.clear();
            // framing is lost mid-line: the connection must close
            conn.close_by = Some(Instant::now() + CLOSE_GRACE);
        }
    }

    /// Pull finished dispatches off the completion channel.
    fn drain_completions(&mut self, done_rx: &mpsc::Receiver<Done>) -> bool {
        let mut any = false;
        while let Ok(done) = done_rx.try_recv() {
            any = true;
            self.complete(done);
        }
        any
    }

    fn complete(&mut self, done: Done) {
        // every dispatched job completes exactly once: the load ticket is
        // released here even if the connection died mid-flight
        self.load -= 1;
        SERVE_QUEUE_DEPTH.dec();
        if done.stop {
            self.shutdown = true;
        }
        if let Some(conn) = self.conns.get_mut(&done.conn) {
            conn.in_flight = false;
            conn.push_response(&done.response);
        }
    }

    /// Move ready responses into write buffers, dispatch next requests
    /// (serially per connection), and flush what the sockets accept.
    fn pump_and_flush(&mut self) {
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            let conn = self.conns.get_mut(&id).expect("conn ids are stable");
            while !conn.in_flight {
                match conn.pending.pop_front() {
                    Some(Pending::Resolved(resp)) => conn.push_response(&resp),
                    Some(Pending::Line(line)) => {
                        conn.in_flight = true;
                        if self.job_tx.send(Job { conn: id, line }).is_err() {
                            // workers are gone (shutdown drain): shed late
                            conn.in_flight = false;
                            self.load -= 1;
                            SERVE_QUEUE_DEPTH.dec();
                            let e = WebLabError::Overloaded {
                                depth: self.load,
                                cap: self.queue_depth,
                            };
                            conn.push_response(&error_response(&e, None));
                        }
                    }
                    None => break,
                }
            }
            flush_some(conn);
        }
    }

    /// Time out connections with no traffic and no pending work.
    fn sweep_idle(&mut self) {
        let Some(timeout) = self.idle_timeout else {
            return;
        };
        let now = Instant::now();
        for conn in self.conns.values_mut() {
            if conn.close_by.is_none()
                && !conn.in_flight
                && conn.pending.is_empty()
                && now.duration_since(conn.last_activity) >= timeout
            {
                let millis = timeout.as_millis().min(u128::from(u64::MAX)) as u64;
                let e = WebLabError::IdleTimeout { millis };
                conn.push_response(&error_response(&e, None));
                flush_some(conn);
                conn.close_by = Some(now + CLOSE_GRACE);
            }
        }
    }

    /// Drop connections that finished closing (or lapsed their grace).
    fn reap_closed(&mut self) {
        let now = Instant::now();
        let dead: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                let drained = c.pending.is_empty() && !c.in_flight && c.unflushed() == 0;
                let graceful = c.close_by.is_some_and(|by| drained || now >= by);
                let hung_up = c.eof && (drained || c.write_errored());
                graceful || hung_up
            })
            .map(|(id, _)| *id)
            .collect();
        for id in dead {
            let conn = self.conns.remove(&id).expect("conn ids are stable");
            // release tickets for admitted lines that will never dispatch
            // (the in-flight ticket, if any, is released on completion)
            let queued = conn
                .pending
                .iter()
                .filter(|p| matches!(p, Pending::Line(_)))
                .count();
            self.load -= queued;
            SERVE_QUEUE_DEPTH.add(-(queued as i64));
        }
    }

    fn all_flushed(&self) -> bool {
        self.conns.values().all(|c| c.unflushed() == 0)
    }
}

impl Conn {
    /// After `eof`, writes can no longer reach the peer once the socket
    /// errors; `flush_some` marks that by clearing the buffer.
    fn write_errored(&self) -> bool {
        self.unflushed() == 0
    }
}

/// Best-effort `overloaded` notice for a connection over the cap. The
/// freshly accepted socket is still blocking, the payload is one short
/// line, and the peer's receive window is empty, so this cannot stall the
/// event loop in practice.
fn reject_connection(mut stream: TcpStream, depth: usize, cap: usize) {
    let e = WebLabError::Overloaded { depth, cap };
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let _ = stream.write_all(error_response(&e, None).as_bytes());
    let _ = stream.write_all(b"\n");
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Drain up to [`READ_QUANTUM`] ready bytes; returns whether any arrived.
fn read_some(conn: &mut Conn) -> bool {
    let mut chunk = [0u8; 16 * 1024];
    let mut total = 0usize;
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.eof = true;
                break;
            }
            Ok(n) => {
                conn.read_buf.extend_from_slice(&chunk[..n]);
                conn.last_activity = Instant::now();
                total += n;
                if total >= READ_QUANTUM {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.eof = true;
                break;
            }
        }
    }
    total > 0
}

/// Write as much buffered response data as the socket accepts.
fn flush_some(conn: &mut Conn) {
    while conn.flushed < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[conn.flushed..]) {
            Ok(0) => {
                conn.eof = true;
                conn.write_buf.clear();
                conn.flushed = 0;
                return;
            }
            Ok(n) => {
                conn.flushed += n;
                conn.last_activity = Instant::now();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                // peer is gone: responses are undeliverable
                conn.eof = true;
                conn.write_buf.clear();
                conn.flushed = 0;
                return;
            }
        }
    }
    if conn.flushed == conn.write_buf.len() {
        conn.write_buf.clear();
        conn.flushed = 0;
    } else if conn.flushed > 64 * 1024 {
        conn.write_buf.drain(..conn.flushed);
        conn.flushed = 0;
    }
}

/// Handle one protocol line with the default limits. Public so tests
/// (and embedders) can drive the protocol in-process, bypassing TCP
/// framing.
pub fn handle_line(platform: &Platform, line: &str) -> (String, bool) {
    handle_line_limits(platform, line, &RequestLimits::default())
}

/// [`handle_line`] with an explicit `sparql` row cap (other limits at
/// their defaults).
pub fn handle_line_with(platform: &Platform, line: &str, max_rows: usize) -> (String, bool) {
    let limits = RequestLimits {
        max_rows,
        ..RequestLimits::default()
    };
    handle_line_limits(platform, line, &limits)
}

/// [`handle_line`] with explicit [`RequestLimits`] — what the dispatch
/// workers of a [`Server`] call.
pub fn handle_line_limits(
    platform: &Platform,
    line: &str,
    limits: &RequestLimits,
) -> (String, bool) {
    SERVE_REQUESTS.inc();
    let span = Span::start(&SERVE_REQUEST_NS);
    let parsed = Json::parse(line);
    let id = parsed.as_ref().ok().and_then(|r| r.get("id"));
    let outcome = parsed
        .as_ref()
        .map_err(|e| WebLabError::Protocol(e.to_string()))
        .and_then(|request| {
            // a panicking handler is answered `internal`; the worker lives on
            catch_unwind(AssertUnwindSafe(|| dispatch(platform, request, limits))).unwrap_or_else(
                |panic| {
                    SERVE_PANICS.inc();
                    let message = panic.downcast_ref::<&str>().map(|m| m.to_string());
                    let message = message.or_else(|| panic.downcast_ref::<String>().cloned());
                    Err(WebLabError::Internal(message.unwrap_or_default()))
                },
            )
        });
    let mut out = String::new();
    let stop = match outcome {
        Ok(d) => {
            write_success(&mut out, id, d.epoch, |out| d.result.write_to(out));
            d.shutdown
        }
        Err(e) => {
            SERVE_ERRORS.inc();
            write_error(&mut out, &e, id, None);
            false
        }
    };
    drop(span);
    (out, stop)
}

struct Dispatched<'r> {
    epoch: Option<u64>,
    result: Reply<'r>,
    shutdown: bool,
}

/// A dispatched request's result, kept as data until it is written into
/// the response buffer — query answers never pass through a [`Json`] tree.
enum Reply<'r> {
    /// A small fixed-shape result (ingest, replay, status, shutdown).
    Value(Json),
    /// One query answer.
    Answer(QueryAnswer),
    /// A batch's sub-outcomes, each with its sub-request's `id`, all at
    /// the batch's pinned epoch.
    Batch {
        epoch: u64,
        subs: Vec<(Option<&'r Json>, Result<QueryAnswer, WebLabError>)>,
    },
}

impl Reply<'_> {
    fn write_to(&self, out: &mut String) {
        match self {
            Reply::Value(v) => v.write_to(out),
            Reply::Answer(answer) => write_answer(out, answer),
            Reply::Batch { epoch, subs } => {
                out.push('[');
                for (i, (id, sub)) in subs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    match sub {
                        Ok(answer) => {
                            write_success(out, *id, Some(*epoch), |out| write_answer(out, answer))
                        }
                        Err(e) => write_error(out, e, *id, Some(*epoch)),
                    }
                }
                out.push(']');
            }
        }
    }
}

fn dispatch<'r>(
    platform: &Platform,
    request: &'r Json,
    limits: &RequestLimits,
) -> Result<Dispatched<'r>, WebLabError> {
    let op = str_field(request, "op")?;
    match op {
        "why" | "lineage" | "impacted-by" | "common-origins" | "sparql" | "rank" | "summary" => {
            let exec = platform.execution(str_field(request, "exec")?);
            let query = parse_query(op, request)?;
            let (epoch, answer) = exec.query_at(&query)?;
            check_row_cap(&answer, limits)?;
            Ok(Dispatched {
                epoch: Some(epoch),
                result: Reply::Answer(answer),
                shutdown: false,
            })
        }
        "batch" => dispatch_batch(platform, request, limits),
        "ingest" => {
            let exec = platform.execution(str_field(request, "exec")?);
            let doc = parse_document(str_field(request, "xml")?)?;
            if exec.exists() {
                return Err(PlatformError::ExecutionExists(exec.id().to_string()).into());
            }
            // The flag goes first, so the ingest's write-through stores it.
            if request.get("live").and_then(Json::as_bool).unwrap_or(false) {
                exec.enable_live();
            }
            exec.ingest(doc);
            if let Some(pipeline) = request.get("pipeline") {
                let steps = string_array(pipeline, "pipeline")?;
                let refs: Vec<&str> = steps.iter().map(String::as_str).collect();
                exec.execute(&refs)?;
            }
            let snap = exec.snapshot()?;
            Ok(Dispatched {
                epoch: Some(snap.epoch),
                result: Reply::Value(Json::obj(vec![
                    ("execution", Json::str(exec.id())),
                    ("calls", Json::num(snap.calls as u64)),
                    ("links", Json::num(snap.graph.links.len() as u64)),
                    ("resources", Json::num(snap.graph.sources.len() as u64)),
                ])),
                shutdown: false,
            })
        }
        "replay" => {
            let exec = platform.execution(str_field(request, "exec")?);
            let new_id = str_field(request, "as")?;
            let doc = parse_document(str_field(request, "xml")?)?;
            let changed = string_array(
                request
                    .get("changed")
                    .ok_or_else(|| WebLabError::Protocol("replay requires \"changed\"".into()))?,
                "changed",
            )?;
            let proof = parse_proof_mode(request)?;
            let report = exec.replay(new_id, doc, &changed, proof)?;
            let grades: Vec<Json> = report
                .grades
                .iter()
                .map(|g| {
                    Json::obj(vec![
                        ("service", Json::str(g.service.as_str())),
                        ("time", Json::num(g.time)),
                        ("grade", Json::Num(g.grade)),
                        ("identical", Json::Bool(g.identical)),
                    ])
                })
                .collect();
            let snap = platform.execution(new_id).snapshot()?;
            Ok(Dispatched {
                epoch: Some(snap.epoch),
                result: Reply::Value(Json::obj(vec![
                    ("execution", Json::str(new_id)),
                    ("cone", Json::num(report.cone_size as u64)),
                    ("reused", Json::num(report.reused as u64)),
                    ("recomputed", Json::num(report.recomputed as u64)),
                    ("splices", Json::num(report.splices as u64)),
                    ("grades", Json::Arr(grades)),
                ])),
                shutdown: false,
            })
        }
        "status" => {
            let executions: Vec<Json> = platform
                .executions()
                .into_iter()
                .map(|id| {
                    let handle = platform.execution(id);
                    Json::obj(vec![
                        ("id", Json::str(handle.id())),
                        ("live", Json::Bool(handle.live_enabled())),
                        ("resident", Json::Bool(handle.is_resident())),
                    ])
                })
                .collect();
            Ok(Dispatched {
                epoch: None,
                result: Reply::Value(Json::obj(vec![("executions", Json::Arr(executions))])),
                shutdown: false,
            })
        }
        "shutdown" => Ok(Dispatched {
            epoch: None,
            result: Reply::Value(Json::obj(vec![("stopping", Json::Bool(true))])),
            shutdown: true,
        }),
        other => Err(WebLabError::Protocol(format!("unknown op {other:?}"))),
    }
}

/// Dispatch a `batch` request: pin **one** snapshot and answer every
/// sub-request on it, so the whole batch shares one atomic epoch.
fn dispatch_batch<'r>(
    platform: &Platform,
    request: &'r Json,
    limits: &RequestLimits,
) -> Result<Dispatched<'r>, WebLabError> {
    let subs = request
        .get("requests")
        .and_then(Json::as_array)
        .ok_or_else(|| {
            WebLabError::Protocol("batch requires an array field \"requests\"".into())
        })?;
    if subs.len() > limits.max_batch {
        return Err(WebLabError::BatchLimit {
            size: subs.len(),
            max: limits.max_batch,
        });
    }
    let exec_id = str_field(request, "exec")?;
    let exec = platform.execution(exec_id);
    let snap = exec.snapshot()?;
    SERVE_BATCH_REQUESTS.inc();
    SERVE_BATCH_SUBS.add(subs.len() as u64);
    let subs = subs
        .iter()
        .map(|sub| (sub.get("id"), batch_sub(&exec, &snap, sub, exec_id, limits)))
        .collect();
    Ok(Dispatched {
        epoch: Some(snap.epoch),
        result: Reply::Batch {
            epoch: snap.epoch,
            subs,
        },
        shutdown: false,
    })
}

/// Answer one batch sub-request on the batch's pinned snapshot.
fn batch_sub(
    exec: &ExecutionHandle<'_>,
    snap: &Arc<EpochSnapshot>,
    sub: &Json,
    batch_exec: &str,
    limits: &RequestLimits,
) -> Result<QueryAnswer, WebLabError> {
    let op = str_field(sub, "op")?;
    match op {
        "why" | "lineage" | "impacted-by" | "common-origins" | "sparql" | "rank" | "summary" => {
            if let Some(sub_exec) = sub.get("exec").and_then(Json::as_str) {
                if sub_exec != batch_exec {
                    return Err(WebLabError::Protocol(format!(
                        "sub-request exec {sub_exec:?} differs from the batch's {batch_exec:?}"
                    )));
                }
            }
            let query = parse_query(op, sub)?;
            let answer = exec.query_on(snap, &query)?;
            check_row_cap(&answer, limits)?;
            Ok(answer)
        }
        other => Err(WebLabError::Protocol(format!(
            "op {other:?} is not batchable (only query ops)"
        ))),
    }
}

fn check_row_cap(answer: &QueryAnswer, limits: &RequestLimits) -> Result<(), WebLabError> {
    let rows = match answer {
        QueryAnswer::Solutions(solutions) => solutions.len(),
        QueryAnswer::Ranked(entries) => entries.len(),
        // a summary's unbounded dimension is its cluster/service lists
        QueryAnswer::Summary(s) => s.services.len().max(s.clusters.len()),
        _ => return Ok(()),
    };
    if rows > limits.max_rows {
        return Err(WebLabError::ResultLimit {
            rows,
            max: limits.max_rows,
        });
    }
    Ok(())
}

/// Build the [`ProvQuery`] for a query op from its request fields.
fn parse_query(op: &str, request: &Json) -> Result<ProvQuery, WebLabError> {
    Ok(match op {
        "why" => ProvQuery::Why {
            uri: str_field(request, "uri")?.to_string(),
        },
        "lineage" => ProvQuery::Lineage {
            uri: str_field(request, "uri")?.to_string(),
            depth: match request.get("depth") {
                None => 1,
                Some(d) => d.as_u64().ok_or_else(|| {
                    WebLabError::Protocol("field \"depth\" must be a non-negative integer".into())
                })? as usize,
            },
        },
        "impacted-by" => ProvQuery::ImpactedBy {
            uri: str_field(request, "uri")?.to_string(),
        },
        "common-origins" => ProvQuery::CommonOrigins {
            a: str_field(request, "a")?.to_string(),
            b: str_field(request, "b")?.to_string(),
        },
        "sparql" => ProvQuery::Sparql {
            query: str_field(request, "query")?.to_string(),
        },
        "rank" => ProvQuery::Rank {
            uris: match request.get("uris") {
                Some(v) => string_array(v, "uris")?,
                None => vec![str_field(request, "uri")?.to_string()],
            },
            direction: match request.get("direction") {
                None => RankDirection::Up,
                Some(d) => d
                    .as_str()
                    .and_then(RankDirection::parse)
                    .ok_or_else(|| {
                        WebLabError::Protocol(
                            "field \"direction\" must be \"up\" or \"down\"".into(),
                        )
                    })?,
            },
            opts: parse_query_opts(request)?,
            weights: parse_weights(request)?,
        },
        "summary" => ProvQuery::Summary {
            uri: request.get("uri").and_then(Json::as_str).map(String::from),
        },
        other => return Err(WebLabError::Protocol(format!("unknown op {other:?}"))),
    })
}

/// Parse the shared v2 [`QueryOpts`] envelope (`limit`, `budget`,
/// `decay`) off a request — the same envelope the CLI flags feed.
fn parse_query_opts(request: &Json) -> Result<QueryOpts, WebLabError> {
    let mut opts = QueryOpts::default();
    for (key, slot) in [("limit", &mut opts.limit), ("budget", &mut opts.budget)] {
        if let Some(v) = request.get(key) {
            *slot = v.as_u64().ok_or_else(|| {
                WebLabError::Protocol(format!("field {key:?} must be a non-negative integer"))
            })? as usize;
        }
    }
    if let Some(v) = request.get("decay") {
        let micro = match v {
            Json::Num(n) => micro_from_f64(*n, 1.0),
            _ => None,
        };
        opts.decay_micro = micro.ok_or_else(|| {
            WebLabError::Protocol("field \"decay\" must be a number in [0, 1]".into())
        })? as u32;
    }
    Ok(opts)
}

/// Parse the optional `weights` object (`{"Service": 0.25, …}`) into
/// micro-unit per-service edge weights.
fn parse_weights(request: &Json) -> Result<Vec<(String, u32)>, WebLabError> {
    match request.get("weights") {
        None => Ok(Vec::new()),
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(service, v)| {
                let micro = match v {
                    Json::Num(n) => micro_from_f64(*n, 1000.0),
                    _ => None,
                };
                micro
                    .map(|m| (service.clone(), m as u32))
                    .ok_or_else(|| {
                        WebLabError::Protocol(format!(
                            "weight of {service:?} must be a number in [0, 1000]"
                        ))
                    })
            })
            .collect(),
        Some(_) => Err(WebLabError::Protocol(
            "field \"weights\" must be an object of service → number".into(),
        )),
    }
}

/// Write a success response `{"id"?,"ok":true,"v":2,"epoch"?,"result":…}`
/// with `result` writing the result value in place. The `id` member, when
/// the request carried one, always renders first; every response carries
/// the protocol version.
fn write_success(
    out: &mut String,
    id: Option<&Json>,
    epoch: Option<u64>,
    result: impl FnOnce(&mut String),
) {
    write_head(out, id, true, epoch);
    out.push_str(",\"result\":");
    result(out);
    out.push('}');
}

/// Write an error response carrying the protocol version, the stable code
/// and, for batch sub-requests, the epoch the batch was answered at.
fn write_error(out: &mut String, e: &WebLabError, id: Option<&Json>, epoch: Option<u64>) {
    write_head(out, id, false, epoch);
    out.push_str(",\"code\":");
    json::write_string(out, e.code());
    out.push_str(",\"error\":");
    json::write_display(out, e);
    out.push('}');
}

/// The members every response opens with: `{"id"?,"ok":…,"v":2,"epoch"?`.
fn write_head(out: &mut String, id: Option<&Json>, ok: bool, epoch: Option<u64>) {
    out.push('{');
    if let Some(id) = id {
        out.push_str("\"id\":");
        id.write_to(out);
        out.push(',');
    }
    let _ = write!(out, "\"ok\":{ok},\"v\":");
    write_count(out, PROTOCOL_VERSION);
    if let Some(epoch) = epoch {
        out.push_str(",\"epoch\":");
        write_count(out, epoch);
    }
}

/// [`write_error`] into a fresh line — what the event loop emits for
/// transport-layer failures (sheds, line limits, idle timeouts).
fn error_response(e: &WebLabError, id: Option<&Json>) -> String {
    let mut out = String::new();
    write_error(&mut out, e, id, None);
    out
}

/// Write a [`QueryAnswer`] as protocol JSON. Deterministic: the same
/// answer always writes the same bytes, for a query served alone and as a
/// batch sub-request alike. `tests/serve_render.rs` pins these bytes
/// against a [`Json`]-tree oracle for every answer kind.
fn write_answer(out: &mut String, answer: &QueryAnswer) {
    match answer {
        QueryAnswer::Why(w) => {
            out.push_str("{\"root\":");
            json::write_string(out, &w.root);
            out.push_str(",\"resources\":");
            write_array(out, &w.resources, |out, r| json::write_string(out, r));
            out.push_str(",\"links\":");
            write_array(out, &w.links, |out, l| {
                out.push_str("{\"from\":");
                json::write_string(out, &l.from_uri);
                out.push_str(",\"to\":");
                json::write_string(out, &l.to_uri);
                out.push('}');
            });
            out.push_str(",\"calls\":");
            write_array(out, &w.calls, json::write_display);
            out.push('}');
        }
        QueryAnswer::Lineage(rows) => write_array(out, rows, |out, (uri, depth)| {
            out.push('[');
            json::write_string(out, uri);
            out.push(',');
            write_count(out, *depth as u64);
            out.push(']');
        }),
        QueryAnswer::ImpactedBy(uris) | QueryAnswer::CommonOrigins(uris) => {
            write_array(out, uris, |out, u| json::write_string(out, u))
        }
        QueryAnswer::Solutions(solutions) => write_array(out, solutions, |out, sol| {
            out.push('{');
            for (i, (var, term)) in sol.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_string(out, var);
                out.push(':');
                json::write_display(out, term);
            }
            out.push('}');
        }),
        // scores render as fixed six-decimal micro-unit strings, so the
        // bytes are exact at every worker count
        QueryAnswer::Ranked(entries) => write_array(out, entries, |out, e| {
            out.push_str("{\"uri\":");
            json::write_string(out, &e.uri);
            out.push_str(",\"score\":");
            json::write_string(out, &format_micro(e.score_micro));
            out.push_str(",\"hop\":");
            write_count(out, e.hop as u64);
            out.push('}');
        }),
        QueryAnswer::Summary(s) => {
            out.push_str("{\"resources\":");
            write_count(out, s.resources);
            out.push_str(",\"edges\":");
            write_count(out, s.edges);
            out.push_str(",\"services\":");
            write_array(out, &s.services, |out, svc| {
                out.push_str("{\"service\":");
                json::write_string(out, &svc.service);
                out.push_str(",\"resources\":");
                write_count(out, svc.resources);
                out.push_str(",\"influence\":");
                write_count(out, svc.influence);
                out.push_str(",\"origins\":");
                write_count(out, svc.origins);
                out.push('}');
            });
            out.push_str(",\"clusters\":");
            write_array(out, &s.clusters, |out, c| {
                out.push_str("{\"root\":");
                json::write_string(out, &c.root);
                out.push_str(",\"size\":");
                write_count(out, c.size);
                out.push('}');
            });
            if let Some(b) = &s.blast {
                out.push_str(",\"blast\":{\"uri\":");
                json::write_string(out, &b.uri);
                out.push_str(",\"impacted\":");
                write_count(out, b.impacted);
                out.push_str(",\"origins\":");
                write_count(out, b.origins);
                out.push('}');
            }
            out.push('}');
        }
    }
}

/// Write `items` as a JSON array, each element through `item`.
fn write_array<'a, T: 'a>(
    out: &mut String,
    items: impl IntoIterator<Item = &'a T>,
    mut item: impl FnMut(&mut String, &'a T),
) {
    out.push('[');
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, x);
    }
    out.push(']');
}

/// Write a count exactly as `Json::num(n)` serialises (through `f64`).
fn write_count(out: &mut String, n: u64) {
    json::write_num(out, n as f64);
}

/// Render the full success response for an answer at an epoch — exactly
/// the bytes [`handle_line`] writes (and the bytes of one batch
/// sub-response), exposed so differential tests can compare a served
/// response to a locally computed one byte-for-byte.
pub fn render_response(epoch: u64, answer: &QueryAnswer) -> String {
    let mut out = String::new();
    write_success(&mut out, None, Some(epoch), |out| write_answer(out, answer));
    out
}

/// The one-shot answer for a query on a snapshot's graph
/// ([`ProvQuery::answer_on_graph`], over an index built for the question),
/// rendered as the response line at the snapshot's epoch.
pub fn reference_response(snap: &EpochSnapshot, query: &ProvQuery) -> Result<String, WebLabError> {
    let answer = query
        .answer_on_graph(&snap.graph)
        .map_err(PlatformError::from)?;
    Ok(render_response(snap.epoch, &answer))
}

/// The `replay` op's proof mode: `"trusted"` (default), `"exact"`, or
/// `"concordant"` with an optional `tolerance` (default 0.9).
fn parse_proof_mode(request: &Json) -> Result<ProofMode, WebLabError> {
    let mode = request.get("proof").and_then(Json::as_str).unwrap_or("trusted");
    match mode {
        "trusted" => Ok(ProofMode::Trusted),
        "exact" => Ok(ProofMode::Exact),
        "concordant" => {
            let tolerance = match request.get("tolerance") {
                None => 0.9,
                Some(Json::Num(n)) if (0.0..=1.0).contains(n) => *n,
                Some(_) => {
                    return Err(WebLabError::Protocol(
                        "field \"tolerance\" must be a number in [0, 1]".into(),
                    ))
                }
            };
            Ok(ProofMode::Concordant { tolerance })
        }
        other => Err(WebLabError::Protocol(format!(
            "unknown proof mode {other:?} (expected trusted, exact or concordant)"
        ))),
    }
}

fn str_field<'j>(request: &'j Json, key: &str) -> Result<&'j str, WebLabError> {
    request
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| WebLabError::Protocol(format!("missing string field {key:?}")))
}

fn string_array(value: &Json, key: &str) -> Result<Vec<String>, WebLabError> {
    value
        .as_array()
        .ok_or_else(|| WebLabError::Protocol(format!("field {key:?} must be an array")))?
        .iter()
        .map(|v| {
            v.as_str()
                .map(String::from)
                .ok_or_else(|| WebLabError::Protocol(format!("field {key:?} must hold strings")))
        })
        .collect()
}
