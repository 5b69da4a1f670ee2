//! The serving core: readiness-based I/O on Linux `epoll`.
//!
//! One **event-loop thread** owns the listener, an epoll instance (see
//! [`crate::poll`]), and every connection's state machine:
//!
//! ```text
//!                           ┌─► vet: decode ► handle ► encode ──────────┐
//!                           │   (loop thread, run to completion)        │
//! read-accumulate ► carve ──┤                                           ├─► write-drain
//!       ▲    (loop)         └─► anything else: decode ► handle ► encode ┘        │
//!       │                       (dispatch worker pool)                           │
//!       └────────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! The loop thread accepts, reads whatever readiness delivers into a
//! per-connection buffer, carves complete frames out of it with
//! [`crate::wire::try_parse_frame`], and drains each connection's
//! outbound buffer (partial writes re-arm `EPOLLOUT`).  It also answers
//! **vets** itself: when a connection has no dispatch job in flight, the
//! loop runs the leading `VetValue` frames of its queue through
//! [`crate::server::serve_frame`] and encodes the answers straight into
//! the connection's outbound buffer.  A memo-warm vet costs a few
//! microseconds, less than the two thread handoffs a worker round trip
//! adds.  The loop tells a vet by its header bytes alone
//! ([`crate::codec::is_vet`]), and two bounds keep one connection from
//! holding the loop: it stops at the connection's first frame that is
//! not a vet, and once [`INLINE_BUDGET`] of this turn has gone to that
//! connection.
//!
//! Every other frame, and every frame behind it, goes to a small
//! **dispatch worker pool** as one job per connection: origin, audit-trail
//! and who-touched answers (which grow with history), why-slices,
//! counterfactuals, ingest, flush barriers, stats, policy listings (which
//! grow with the policies' source), pack loads, metrics, traces and HTTP
//! heads.  At most one dispatch job per connection is in flight, a job
//! answers its frames in order, and a frame is answered inline only when
//! no earlier frame of its connection is pending or in flight.  So
//! pipelining keeps the wire contract: responses strictly in request
//! order per connection.
//!
//! Both paths share one batch pipeline, which catches a panicking
//! request: it is answered with a typed `ServerError` in its slot, the
//! frames behind it are still answered, and neither the loop thread nor a
//! worker dies.
//!
//! An idle connection therefore costs exactly one registered fd and its
//! (empty) buffers — no thread.  The loop thread sleeps in `epoll_wait`
//! until the listener, a connection, a finished dispatch job, or the stop
//! flag (via [`crate::poll::WakeFd`]) rouses it; it also wakes on a short
//! tick while a time bound needs watching:
//!
//! * a frame or HTTP request head that has started but gets no new bytes
//!   for [`STALL_TIMEOUT`] is answered — the HTTP head from the bytes that
//!   arrived, the frame with a typed error — and the connection closed,
//!   whatever [`crate::ServeConfig::idle_timeout`] says;
//! * with `idle_timeout` set, a connection with no request in any stage
//!   past that bound is closed with a best-effort `ServerError{"idle
//!   timeout"}` frame.

use crate::codec::{encode_response, is_vet, WireResponse};
use crate::poll::{Epoll, WakeFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::server::{
    contains_blank_line, http_response, http_response_for, serve_frame, PendingTrace, Services,
    IDLE_TIMEOUT_MESSAGE, MAX_HTTP_HEAD, REQUEST_PANIC_MESSAGE,
};
use crate::wire::{try_parse_frame, write_frame, WireError, HTTP_GET_PREFIX};
use bytes::Bytes;
use piprov_audit::TraceCollector;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// How long shutdown waits for in-flight requests to finish and their
/// responses to drain before closing connections anyway.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// How long a frame or HTTP request head that has started may go without
/// new bytes before it is answered and its connection closed.
const STALL_TIMEOUT: Duration = Duration::from_secs(2);

/// How often the loop checks the stall and idle bounds while one needs
/// watching.
const SWEEP_TICK: Duration = Duration::from_millis(200);

/// How long one turn of the loop answers one connection's vets before
/// it hands the rest of that connection's frames to a worker.  This
/// bounds how long a pipelined burst, or one memo-cold deep vet
/// past it, can keep the loop from every other connection.
const INLINE_BUDGET: Duration = Duration::from_micros(100);

/// The running threads of the event loop.  Owned by
/// [`crate::AuditServer`]; [`EventLoopHandle::stop`] is idempotent.
#[derive(Debug)]
pub(crate) struct EventLoopHandle {
    loop_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    dispatch: Arc<Dispatch>,
}

impl EventLoopHandle {
    /// Registers `listener` with a fresh epoll instance and starts the
    /// loop thread plus `config.workers` dispatch workers.
    pub(crate) fn start(listener: TcpListener, services: Arc<Services>) -> std::io::Result<Self> {
        listener.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        let wake = WakeFd::new()?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        epoll.add(wake.raw(), EPOLLIN, TOKEN_WAKE)?;
        let dispatch = Arc::new(Dispatch {
            jobs: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            done: Mutex::new(Vec::new()),
            wake,
            stop: AtomicBool::new(false),
        });
        let workers = (0..services.config.workers.max(1))
            .map(|i| {
                let dispatch = Arc::clone(&dispatch);
                let services = Arc::clone(&services);
                std::thread::Builder::new()
                    .name(format!("piprov-dispatch-{}", i))
                    .spawn(move || dispatch_loop(&dispatch, &services))
                    .expect("spawn dispatch worker")
            })
            .collect();
        let loop_thread = {
            let dispatch = Arc::clone(&dispatch);
            std::thread::Builder::new()
                .name("piprov-event-loop".into())
                .spawn(move || {
                    Loop {
                        epoll,
                        listener,
                        dispatch,
                        services,
                        conns: HashMap::new(),
                        next_token: FIRST_CONN_TOKEN,
                        watching: false,
                        next_sweep: Instant::now(),
                    }
                    .run()
                })
                .expect("spawn event loop")
        };
        Ok(EventLoopHandle {
            loop_thread: Some(loop_thread),
            workers,
            dispatch,
        })
    }

    /// Raises the stop flag, wakes the loop thread, lets it drain
    /// in-flight work, then joins every thread.
    pub(crate) fn stop(&mut self) {
        self.dispatch.stop.store(true, Ordering::SeqCst);
        self.dispatch.wake.wake();
        if let Some(thread) = self.loop_thread.take() {
            let _ = thread.join();
        }
        // The loop thread has stopped producing jobs; rouse any worker
        // parked on an empty queue so it observes the stop flag.
        self.dispatch.work.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// The loop-thread ⇄ worker-pool boundary.
#[derive(Debug)]
struct Dispatch {
    jobs: Mutex<VecDeque<Job>>,
    work: Condvar,
    /// Tokens whose job finished; the loop thread drains this after a
    /// [`WakeFd`] wake and re-examines those connections.
    done: Mutex<Vec<u64>>,
    wake: WakeFd,
    stop: AtomicBool,
}

impl Dispatch {
    fn push(&self, job: Job) {
        self.jobs.lock().expect("jobs lock").push_back(job);
        self.work.notify_one();
    }

    fn report_done(&self, token: u64) {
        self.done.lock().expect("done lock").push(token);
        self.wake.wake();
    }
}

/// A complete frame and when the loop carved it off the read buffer —
/// the start of its request's trace.
#[derive(Debug)]
struct Frame {
    body: Bytes,
    carved: Instant,
}

/// One unit of CPU work for a dispatch worker.  The worker appends its
/// encoded output to `out` and reports `token` done — it never touches
/// the socket.
#[derive(Debug)]
enum Job {
    /// Complete frames from one connection, answered strictly in order.
    Frames {
        token: u64,
        frames: Vec<Frame>,
        out: Arc<Mutex<Outbound>>,
    },
    /// A sniffed plaintext HTTP request head (the `/metrics` scrape).
    Http {
        token: u64,
        head: Vec<u8>,
        out: Arc<Mutex<Outbound>>,
    },
}

/// A connection's outbound buffer, shared between the loop thread (which
/// drains it to the socket) and the worker currently encoding into it.
#[derive(Debug, Default)]
struct Outbound {
    buf: Vec<u8>,
    /// Bytes before this offset are already written to the socket.
    start: usize,
    /// Close the connection once the buffer drains (error sent, HTTP
    /// response sent, or idle expiry).
    closing: bool,
    /// Total bytes ever appended to `buf` — the absolute stream position
    /// `pending_traces` anchor their completion against (never reset by
    /// the compaction `flush_outbound` does).
    total_enqueued: u64,
    /// Total bytes ever written to the socket.
    total_flushed: u64,
    /// Requests whose response sits in `buf`, waiting for the write-drain
    /// to pass their `end_abs` — at which point the write span closes and
    /// the trace is finished.  Appended in stream order, so always sorted.
    pending_traces: Vec<PendingTrace>,
}

impl Outbound {
    fn is_drained(&self) -> bool {
        self.start >= self.buf.len()
    }

    fn enqueue(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
        self.total_enqueued += bytes.len() as u64;
    }
}

/// Per-connection state machine on the loop thread.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    /// read-accumulate: bytes readiness delivered, not yet a full frame.
    read_buf: Vec<u8>,
    /// Complete frames not yet answered or handed to a worker.
    pending: VecDeque<Frame>,
    /// A dispatch job for this connection is at the workers; at most one,
    /// which is what keeps pipelined responses in request order.
    in_flight: bool,
    /// A frame-layer error to emit (typed frame, then close) once the
    /// frames that arrived before it have been answered.
    pending_error: Option<WireError>,
    /// `Some` once the first bytes read `GET ` — accumulating the HTTP
    /// request head instead of frames.
    http_head: Option<Vec<u8>>,
    peer_eof: bool,
    /// When bytes last arrived.
    last_activity: Instant,
    /// The epoll interest currently registered for this fd.
    interest: u32,
}

impl Conn {
    /// A frame or HTTP head has started arriving but is not complete.
    fn has_partial_input(&self) -> bool {
        !self.read_buf.is_empty() || self.http_head.is_some()
    }

    /// Partial input that has had no new bytes for [`STALL_TIMEOUT`].
    fn is_stalled(&self) -> bool {
        self.has_partial_input() && self.last_activity.elapsed() >= STALL_TIMEOUT
    }

    /// No request in any stage — the state an idle-timeout may expire.
    fn is_idle(&self, out: &Outbound) -> bool {
        !self.in_flight
            && self.pending.is_empty()
            && self.pending_error.is_none()
            && !self.has_partial_input()
            && out.is_drained()
    }
}

struct Loop {
    epoll: Epoll,
    listener: TcpListener,
    dispatch: Arc<Dispatch>,
    services: Arc<Services>,
    conns: HashMap<u64, (Conn, Arc<Mutex<Outbound>>)>,
    next_token: u64,
    /// Some connection may hold partial input, so the stall bound needs
    /// watching.
    watching: bool,
    next_sweep: Instant,
}

impl Loop {
    fn run(mut self) {
        let mut events = Vec::new();
        loop {
            let timeout = self
                .sweep_tick()
                .map(|_| self.next_sweep.saturating_duration_since(Instant::now()));
            if self.epoll.wait(&mut events, timeout).is_err() {
                // epoll itself failing is unrecoverable for this core;
                // fall through to the drain path and stop serving.
                self.dispatch.stop.store(true, Ordering::SeqCst);
            }
            for &(token, revents) in events.iter() {
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => self.dispatch.wake.drain(),
                    _ => self.conn_ready(token, revents),
                }
            }
            self.reap_done();
            if self.dispatch.stop.load(Ordering::SeqCst) {
                self.drain_and_close();
                return;
            }
            self.sweep();
        }
    }

    /// Accepts until the backlog is empty.
    fn accept_ready(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // Transient failures (fd exhaustion, aborted handshakes):
                // leave the rest of the backlog for the next readiness.
                Err(_) => return,
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            stream.set_nodelay(true).ok();
            let token = self.next_token;
            self.next_token += 1;
            let interest = EPOLLIN | EPOLLRDHUP;
            if self.epoll.add(stream.as_raw_fd(), interest, token).is_err() {
                continue;
            }
            let conn = Conn {
                stream,
                read_buf: Vec::new(),
                pending: VecDeque::new(),
                in_flight: false,
                pending_error: None,
                http_head: None,
                peer_eof: false,
                last_activity: Instant::now(),
                interest,
            };
            self.conns
                .insert(token, (conn, Arc::new(Mutex::new(Outbound::default()))));
            self.services
                .engine
                .metrics_registry()
                .note_connection_accepted();
        }
    }

    /// Handles readiness on a connection: reads whatever is available,
    /// parses frames (or an HTTP head), flushes the outbound buffer, and
    /// advances the state machine.
    fn conn_ready(&mut self, token: u64, revents: u32) {
        let Some((conn, out)) = self.conns.get_mut(&token) else {
            return;
        };
        if revents & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0 && !read_available(conn) {
            self.close(token);
            return;
        }
        if revents & EPOLLOUT != 0 && !flush_outbound(conn, out, &self.services.collector) {
            self.close(token);
            return;
        }
        self.advance(token);
    }

    /// Drains finished-job notifications from the workers and re-examines
    /// those connections (their outbound buffers just grew).
    fn reap_done(&mut self) {
        let done = std::mem::take(&mut *self.dispatch.done.lock().expect("done lock"));
        for token in done {
            if let Some((conn, _)) = self.conns.get_mut(&token) {
                conn.in_flight = false;
                self.advance(token);
            }
        }
    }

    /// The connection state machine: parse → serve vets inline →
    /// dispatch → error/EOF → flush → close, in a fixed order so every
    /// path converges.
    fn advance(&mut self, token: u64) {
        let Some((conn, out)) = self.conns.get_mut(&token) else {
            return;
        };
        let closing = out.lock().expect("outbound lock").closing;
        if !closing {
            parse_available(conn, self.services.config.limits.max_frame_len);
            // With the connection's single job slot free, answer its
            // leading vets here, then dispatch the rest of its complete
            // frames (or a complete HTTP head).
            if !conn.in_flight {
                if let Some(head) = take_complete_http_head(conn) {
                    conn.in_flight = true;
                    self.dispatch.push(Job::Http {
                        token,
                        head,
                        out: Arc::clone(out),
                    });
                } else if serve_inline(conn, out, &self.services) {
                    // A frame failed to decode: its error frame is queued
                    // and the connection closes once it drains.
                } else if !conn.pending.is_empty() {
                    let frames = conn.pending.drain(..).collect();
                    conn.in_flight = true;
                    self.dispatch.push(Job::Frames {
                        token,
                        frames,
                        out: Arc::clone(out),
                    });
                } else if let Some(error) = conn.pending_error.take() {
                    // Everything before the bad bytes has been answered:
                    // name the cause, then close.
                    let mut out = out.lock().expect("outbound lock");
                    append_error_frame(&mut out, &error.to_string());
                }
            }
        }
        if !flush_outbound(conn, out, &self.services.collector) {
            self.close(token);
            return;
        }
        let guard = out.lock().expect("outbound lock");
        let finished = conn.peer_eof
            && !conn.in_flight
            && conn.pending.is_empty()
            && conn.pending_error.is_none()
            && guard.is_drained();
        let wants_write = !guard.is_drained();
        drop(guard);
        if finished {
            self.close(token);
            return;
        }
        self.watching |= conn.has_partial_input();
        // Re-arm interest: always readable (readiness is how EOF and new
        // frames arrive), writable only while the outbound buffer holds
        // unsent bytes.
        let desired = EPOLLIN | EPOLLRDHUP | if wants_write { EPOLLOUT } else { 0 };
        if desired != conn.interest {
            conn.interest = desired;
            let fd = conn.stream.as_raw_fd();
            if self.epoll.modify(fd, desired, token).is_err() {
                self.close(token);
            }
        }
    }

    /// How often to sweep, when some bound needs watching at all.
    fn sweep_tick(&self) -> Option<Duration> {
        match self.services.config.idle_timeout {
            Some(bound) => Some(bound.min(SWEEP_TICK)),
            None => self.watching.then_some(SWEEP_TICK),
        }
    }

    /// Once per tick: answers stalled input (via [`Loop::advance`], which
    /// treats it as complete) and expires connections idle past
    /// [`crate::ServeConfig::idle_timeout`] with a best-effort typed frame.
    fn sweep(&mut self) {
        let Some(tick) = self.sweep_tick() else {
            return;
        };
        let now = Instant::now();
        if now < self.next_sweep {
            return;
        }
        self.next_sweep = now + tick;
        let idle_bound = self.services.config.idle_timeout;
        self.watching = false;
        let mut due = Vec::new();
        for (&token, (conn, out)) in &self.conns {
            let quiet = now.saturating_duration_since(conn.last_activity);
            if conn.has_partial_input() {
                self.watching = true;
                if quiet >= STALL_TIMEOUT {
                    due.push((token, false));
                }
            } else if idle_bound.is_some_and(|bound| quiet >= bound)
                && conn.is_idle(&out.lock().expect("outbound lock"))
            {
                due.push((token, true));
            }
        }
        for (token, idle) in due {
            if idle {
                let (_, out) = &self.conns[&token];
                append_error_frame(
                    &mut out.lock().expect("outbound lock"),
                    IDLE_TIMEOUT_MESSAGE,
                );
            }
            self.advance(token);
        }
    }

    /// Shutdown: wait (bounded) for in-flight jobs to finish and their
    /// responses to drain, notify the survivors, close everything.
    fn drain_and_close(&mut self) {
        let deadline = Instant::now() + DRAIN_DEADLINE;
        let mut events = Vec::new();
        while Instant::now() < deadline {
            let busy = self.conns.iter().any(|(_, (conn, out))| {
                conn.in_flight || !out.lock().expect("outbound lock").is_drained()
            });
            if !busy {
                break;
            }
            if self
                .epoll
                .wait(&mut events, Some(Duration::from_millis(50)))
                .is_err()
            {
                break;
            }
            for &(token, revents) in events.iter() {
                if token == TOKEN_WAKE {
                    self.dispatch.wake.drain();
                } else if token >= FIRST_CONN_TOKEN && revents & EPOLLOUT != 0 {
                    self.flush_or_close(token);
                }
            }
            let done = std::mem::take(&mut *self.dispatch.done.lock().expect("done lock"));
            for token in done {
                if let Some((conn, _)) = self.conns.get_mut(&token) {
                    conn.in_flight = false;
                    self.flush_or_close(token);
                }
            }
        }
        // Anyone still connected gets told why, best effort, then closed.
        let notice = error_frame("server shutting down");
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some((conn, _)) = self.conns.get_mut(&token) {
                let _ = conn.stream.write(&notice);
            }
            self.close(token);
        }
    }

    fn flush_or_close(&mut self, token: u64) {
        if let Some((conn, out)) = self.conns.get_mut(&token) {
            if !flush_outbound(conn, out, &self.services.collector) {
                self.close(token);
            }
        }
    }

    fn close(&mut self, token: u64) {
        if let Some((conn, _)) = self.conns.remove(&token) {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            self.services
                .engine
                .metrics_registry()
                .note_connection_closed();
        }
    }
}

/// Per-readiness cap on bytes read into a connection's buffer.  Without
/// it a peer that writes faster than frames are parsed — e.g. a hostile
/// multi-megabyte `GET` request line with no newline — balloons
/// `read_buf` without bound before the parser ever sees it.  Epoll here
/// is level-triggered, so leftover bytes simply re-report readiness on
/// the next `epoll_wait`.
const READ_BUDGET: usize = 256 * 1024;

/// Reads until `WouldBlock`, EOF, or [`READ_BUDGET`] is consumed.
/// Returns `false` only on a fatal socket error (close immediately,
/// nothing to say to the peer).
fn read_available(conn: &mut Conn) -> bool {
    let mut scratch = [0u8; 16 * 1024];
    let mut taken = 0usize;
    loop {
        if taken >= READ_BUDGET {
            return true;
        }
        match conn.stream.read(&mut scratch) {
            Ok(0) => {
                conn.peer_eof = true;
                return true;
            }
            Ok(n) => {
                conn.last_activity = Instant::now();
                taken += n;
                match &mut conn.http_head {
                    Some(head) => {
                        let room = MAX_HTTP_HEAD.saturating_sub(head.len());
                        head.extend_from_slice(&scratch[..n.min(room)]);
                    }
                    None => conn.read_buf.extend_from_slice(&scratch[..n]),
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(_) => return false,
        }
    }
}

/// Carves complete frames out of the read buffer (or routes the bytes to
/// the HTTP head once `GET ` is sniffed where a length prefix belongs).
/// Frame-layer errors park in `pending_error` so already-queued frames
/// are still answered first.
fn parse_available(conn: &mut Conn, max_frame_len: u32) {
    if conn.pending_error.is_some() {
        return;
    }
    if conn.http_head.is_none() {
        if conn.read_buf.len() >= HTTP_GET_PREFIX.len()
            && conn.read_buf[..HTTP_GET_PREFIX.len()] == HTTP_GET_PREFIX
        {
            // The pre-sniff buffer may exceed the head cap (one readiness
            // burst can deliver up to READ_BUDGET bytes); the response only
            // needs the request line, so cap it like every later read.
            let mut head = std::mem::take(&mut conn.read_buf);
            head.truncate(MAX_HTTP_HEAD);
            conn.http_head = Some(head);
        } else {
            loop {
                match try_parse_frame(&conn.read_buf, max_frame_len) {
                    Ok(None) => break,
                    Ok(Some((consumed, body))) => {
                        conn.read_buf.drain(..consumed);
                        conn.pending.push_back(Frame {
                            body,
                            carved: Instant::now(),
                        });
                    }
                    Err(e) => {
                        // The rest of the buffer is garbage relative to
                        // the framing; drop it and stop reading more.
                        conn.read_buf.clear();
                        conn.pending_error = Some(e);
                        return;
                    }
                }
            }
        }
    }
    if conn.http_head.is_none() && !conn.read_buf.is_empty() && (conn.peer_eof || conn.is_stalled())
    {
        // The peer walked away, or went quiet, with a frame half-sent.
        let cause = if conn.peer_eof {
            "truncated frame header"
        } else {
            "frame stalled mid-transfer"
        };
        conn.read_buf.clear();
        conn.pending_error = Some(WireError::Malformed(cause.into()));
    }
}

/// Takes the HTTP head for dispatch once it is complete (blank line seen,
/// cap reached, the peer finished sending, or it stalled): the response
/// needs only the request line, so a stalled head is answered from the
/// bytes that arrived.
fn take_complete_http_head(conn: &mut Conn) -> Option<Vec<u8>> {
    let head = conn.http_head.as_ref()?;
    if contains_blank_line(head)
        || head.len() >= MAX_HTTP_HEAD
        || conn.peer_eof
        || conn.is_stalled()
    {
        conn.http_head.take()
    } else {
        None
    }
}

/// A framed `ServerError` response.
fn error_frame(message: &str) -> Vec<u8> {
    let response = WireResponse::ServerError {
        message: message.into(),
    };
    let mut frame = Vec::new();
    write_frame(&mut frame, &encode_response(&response)).expect("vec write");
    frame
}

/// Appends one typed `ServerError` frame and marks the connection for
/// close-after-drain.
fn append_error_frame(out: &mut Outbound, message: &str) {
    out.enqueue(&error_frame(message));
    out.closing = true;
}

/// Writes as much outbound data as the socket accepts, finishing the
/// trace of every request whose response just reached the wire.  Returns
/// `false` when the connection should close (fatal write error, or
/// drained with `closing` set).
fn flush_outbound(conn: &mut Conn, out: &Arc<Mutex<Outbound>>, collector: &TraceCollector) -> bool {
    let mut out = out.lock().expect("outbound lock");
    while out.start < out.buf.len() {
        let start = out.start;
        match conn.stream.write(&out.buf[start..]) {
            Ok(0) => return false,
            Ok(n) => {
                out.start += n;
                out.total_flushed += n as u64;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(_) => return false,
        }
    }
    // Finish the trace of every request whose response is now fully on
    // the wire.
    let flushed = out.total_flushed;
    let done = out
        .pending_traces
        .iter()
        .take_while(|t| t.end_abs <= flushed)
        .count();
    for trace in out.pending_traces.drain(..done) {
        trace.finish(collector);
    }
    if out.is_drained() {
        out.buf.clear();
        out.start = 0;
        !out.closing
    } else {
        // Partial write: compact occasionally so a slow reader cannot pin
        // already-sent bytes forever.
        if out.start > 64 * 1024 {
            let start = out.start;
            out.buf.drain(..start);
            out.start = 0;
        }
        true
    }
}

/// Run to completion: answers the leading vets of `conn.pending` on the
/// loop thread, stopping at the first frame that is not one or once
/// [`INLINE_BUDGET`] is spent.  The caller has checked that no job
/// of this connection is in flight, so these are its earliest unanswered
/// frames.  Returns whether a frame failed to decode, closing the
/// connection.
fn serve_inline(conn: &mut Conn, out: &Mutex<Outbound>, services: &Services) -> bool {
    // The budget's clock starts at the first vet.
    let mut started = None;
    let vets = std::iter::from_fn(|| {
        let inline = conn
            .pending
            .front()
            .is_some_and(|frame| is_vet(&frame.body))
            && started.get_or_insert_with(Instant::now).elapsed() < INLINE_BUDGET;
        if inline {
            conn.pending.pop_front()
        } else {
            None
        }
    });
    serve_frames(vets, services, out)
}

/// The one batch pipeline, shared by the loop's inline path and the
/// dispatch workers: answers `frames` in order through [`serve_frame`],
/// then appends the responses and their pending traces to `out`.
///
/// A request whose handler panics is answered with a typed `ServerError`
/// in its slot, and the frames after it are still served.  A frame that
/// does not decode is answered with a typed error frame and closes the
/// connection; frames after it are not answered.  Returns whether that
/// happened.
fn serve_frames(
    frames: impl Iterator<Item = Frame>,
    services: &Services,
    out: &Mutex<Outbound>,
) -> bool {
    let mut encoded = Vec::new();
    // Each trace's `end_abs` is its response's end offset within `encoded`
    // until the batch is anchored to the stream.
    let mut traces = Vec::new();
    let mut closing = false;
    for frame in frames {
        let mark = encoded.len();
        let served = catch_unwind(AssertUnwindSafe(|| {
            serve_frame(frame.body, frame.carved, services, &mut encoded)
        }));
        match served {
            Ok(Ok(trace)) => traces.push(trace),
            Ok(Err(e)) => {
                encoded.extend_from_slice(&error_frame(&e.to_string()));
                closing = true;
                break;
            }
            Err(_) => {
                encoded.truncate(mark);
                encoded.extend_from_slice(&error_frame(REQUEST_PANIC_MESSAGE));
            }
        }
    }
    if !encoded.is_empty() {
        let mut out = out.lock().expect("outbound lock");
        let base = out.total_enqueued;
        let now = Instant::now();
        out.enqueue(&encoded);
        for mut trace in traces {
            trace.end_abs += base;
            trace.enqueued = now;
            out.pending_traces.push(trace);
        }
        out.closing |= closing;
    }
    closing
}

/// A dispatch worker: all CPU work for one job at a time, never touching
/// a socket.
fn dispatch_loop(dispatch: &Dispatch, services: &Services) {
    loop {
        let job = {
            let mut jobs = dispatch.jobs.lock().expect("jobs lock");
            loop {
                if let Some(job) = jobs.pop_front() {
                    break job;
                }
                if dispatch.stop.load(Ordering::SeqCst) {
                    return;
                }
                jobs = dispatch
                    .work
                    .wait_timeout(jobs, Duration::from_millis(200))
                    .expect("jobs lock")
                    .0;
            }
        };
        let token = match job {
            Job::Frames { token, frames, out } => {
                #[cfg(test)]
                services
                    .hooks
                    .dispatched_frames
                    .fetch_add(frames.len(), Ordering::Relaxed);
                serve_frames(frames.into_iter(), services, &out);
                token
            }
            Job::Http { token, head, out } => {
                let response = catch_unwind(AssertUnwindSafe(|| {
                    http_response_for(&head, &services.engine, &services.collector)
                }))
                .unwrap_or_else(|_| {
                    http_response(
                        "500 Internal Server Error",
                        "text/plain; charset=utf-8",
                        "internal error\n",
                    )
                });
                let mut out = out.lock().expect("outbound lock");
                out.enqueue(&response);
                out.closing = true;
                token
            }
        };
        dispatch.report_done(token);
    }
}

#[cfg(test)]
mod tests {
    use crate::codec::encode_request;
    use crate::server::{PANIC_PATTERN, REQUEST_PANIC_MESSAGE};
    use crate::wire::write_frame;
    use crate::{AuditClient, AuditServer, ServeConfig, WireRequest, WireResponse};
    use piprov_audit::{AuditEngine, AuditOutcome, AuditRequest, EventFilter};
    use piprov_core::name::{Channel, Principal};
    use piprov_core::provenance::{Event, Provenance};
    use piprov_core::value::Value;
    use piprov_patterns::Pattern;
    use piprov_policy::PackSource;
    use piprov_store::{Operation, ProvenanceRecord};
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::sync::atomic::Ordering;
    use std::sync::Arc;
    use std::time::Duration;

    fn item() -> Value {
        Value::Channel(Channel::new("item0"))
    }

    /// An engine in a fresh directory named after `test`, with the
    /// pattern `any` and one record for each of `item0`..`item{n-1}`.
    fn engine_with_items(test: &str, n: u64) -> (Arc<AuditEngine>, std::path::PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("piprov-serve-{}-{}", test, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Arc::new(AuditEngine::open(&dir).unwrap());
        engine.register_pattern("any", Pattern::Any);
        let records = (0..n)
            .map(|i| {
                let who = Principal::new(format!("s{}", i));
                let k = Provenance::single(Event::output(who.clone(), Provenance::empty()));
                let value = Value::Channel(Channel::new(format!("item{}", i)));
                ProvenanceRecord::new(i, who.as_str(), Operation::Send, "m", value, k)
            })
            .collect();
        engine.ingest_batch(records).unwrap();
        (engine, dir)
    }

    fn vet(pattern: &str) -> AuditRequest {
        AuditRequest::VetValue {
            value: item(),
            pattern: pattern.into(),
        }
    }

    fn why(pattern: &str) -> AuditRequest {
        AuditRequest::Why {
            value: item(),
            pattern: pattern.into(),
        }
    }

    /// A client whose reads give up after a few seconds, so a request
    /// lost with a dead thread fails the test instead of hanging it.
    fn connect(addr: SocketAddr) -> AuditClient {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        AuditClient::from_stream(stream).unwrap()
    }

    /// Writes every request before reading any answer.
    fn pipelined(client: &mut AuditClient, requests: &[AuditRequest]) -> Vec<WireResponse> {
        let mut frames = Vec::new();
        for request in requests {
            let body = encode_request(&WireRequest::Audit(request.clone()));
            write_frame(&mut frames, &body).unwrap();
        }
        client.send_raw(&frames).unwrap();
        requests
            .iter()
            .map(|_| client.receive_response().unwrap())
            .collect()
    }

    fn http_get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        write!(stream, "GET {} HTTP/1.1\r\n\r\n", path).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    fn outcome(response: &WireResponse) -> &AuditOutcome {
        match response {
            WireResponse::Audit(answer) => &answer.outcome,
            other => panic!("expected an audit answer, got {:?}", other),
        }
    }

    #[test]
    fn panicking_requests_cost_no_capacity_inline_or_dispatched() {
        let dir = std::env::temp_dir().join(format!("piprov-serve-panic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Arc::new(AuditEngine::open(&dir).unwrap());
        engine.register_pattern("any", Pattern::Any);
        let workers = 2;
        let server = AuditServer::bind(
            Arc::clone(&engine),
            "127.0.0.1:0",
            ServeConfig {
                workers,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let mut client = connect(addr);
        let k = Provenance::single(Event::output(Principal::new("s0"), Provenance::empty()));
        client
            .ingest_blocking(vec![ProvenanceRecord::new(
                0,
                "s0",
                Operation::Send,
                "m",
                item(),
                k,
            )])
            .unwrap();
        client.flush().unwrap();

        // The first frame of a burst on an idle connection is always
        // answered on the loop thread (the inline budget only cuts in after
        // it); a why-slice in front sends the whole burst to a worker.  Each
        // burst panics once, `workers + 1` times per path: more panics than
        // there are workers to lose.
        let bursts = [
            ("inline", vec![vet(PANIC_PATTERN), vet("any"), why("any")]),
            (
                "dispatched",
                vec![why("any"), why(PANIC_PATTERN), vet("any")],
            ),
        ];
        for (path, burst) in &bursts {
            for round in 0..=workers {
                let answers = pipelined(&mut client, burst);
                assert_eq!(answers.len(), burst.len());
                for (slot, (request, answer)) in burst.iter().zip(&answers).enumerate() {
                    let panics = matches!(
                        request,
                        AuditRequest::VetValue { pattern, .. } | AuditRequest::Why { pattern, .. }
                            if pattern == PANIC_PATTERN
                    );
                    match answer {
                        WireResponse::ServerError { message } if panics => {
                            assert_eq!(message, REQUEST_PANIC_MESSAGE)
                        }
                        // The requests around the panic keep their slots.
                        WireResponse::Audit(answer) if !panics => assert!(
                            matches!(
                                (request, &answer.outcome),
                                (
                                    AuditRequest::VetValue { .. },
                                    AuditOutcome::Vetted { verdict: true, .. }
                                ) | (AuditRequest::Why { .. }, AuditOutcome::Why(_))
                            ),
                            "{path} round {round} slot {slot}: {:?}",
                            answer.outcome
                        ),
                        other => panic!("{path} round {round} slot {slot}: {:?}", other),
                    }
                }
            }
        }

        // A panicking HTTP handler is answered with a 500, on a worker too.
        for _ in 0..=workers {
            let response = http_get(addr, &format!("/why?value=item0&policy={}", PANIC_PATTERN));
            assert!(response.starts_with("HTTP/1.1 500 "), "{}", response);
        }

        // Full capacity afterwards: a fresh connection is answered on both
        // paths, and every worker still takes jobs.
        let mut fresh = connect(addr);
        let answers = pipelined(&mut fresh, &[vet("any"), why("any"), vet("any")]);
        assert!(matches!(
            outcome(&answers[0]),
            AuditOutcome::Vetted { verdict: true, .. }
        ));
        assert!(matches!(outcome(&answers[1]), AuditOutcome::Why(_)));
        let mut side = connect(addr);
        for _ in 0..workers * 2 {
            let slice = side.why(item(), "any").unwrap();
            assert!(matches!(slice.outcome, AuditOutcome::Why(_)));
        }
        assert!(http_get(addr, "/healthz").starts_with("HTTP/1.1 200 OK"));
        drop((client, fresh, side));
        server.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every request kind but a vet is answered by a worker, so however
    /// long its answer takes, even one whose handler never returns, it
    /// holds that worker and not the loop: another connection's vet is
    /// still answered.  Origin, audit-trail, who-touched, stats and
    /// policy-listing answers grow with the data they report on.
    #[test]
    fn a_slow_answer_of_any_other_kind_never_delays_another_connections_vet() {
        let (engine, dir) = engine_with_items("slow-answer", 1);
        let server = AuditServer::bind(
            Arc::clone(&engine),
            "127.0.0.1:0",
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let who = Principal::new("s0");
        let requests = [
            WireRequest::Audit(AuditRequest::OriginOf { value: item() }),
            WireRequest::Audit(AuditRequest::AuditTrail { value: item() }),
            WireRequest::Audit(AuditRequest::WhoTouched {
                principal: who.clone(),
            }),
            WireRequest::Audit(why("any")),
            WireRequest::Audit(AuditRequest::Counterfactual {
                value: item(),
                pattern: "any".into(),
                remove: EventFilter::Principal(who),
            }),
            WireRequest::Stats,
            WireRequest::ListPolicies,
            WireRequest::Metrics,
            WireRequest::Traces { min_total_ns: 0 },
            WireRequest::IngestBatch(Vec::new()),
            WireRequest::Flush,
            // Last: an empty pack unregisters the pattern the vets name.
            WireRequest::LoadPack(PackSource::new("pack", Vec::new())),
        ];
        let mut slow = connect(addr);
        let mut auditor = connect(addr);
        let decoded = || engine.metrics_registry().frame_decode_snapshot().count;
        for request in requests {
            // Park the request in its handler: the thread serving it has
            // decoded its frame and never returns until unparked.
            server.hooks().set_parked(true);
            let before = decoded();
            let mut frame = Vec::new();
            write_frame(&mut frame, &encode_request(&request)).unwrap();
            slow.send_raw(&frame).unwrap();
            while decoded() == before {
                std::thread::sleep(Duration::from_millis(1));
            }
            let vet = auditor.request(&vet("any"));
            server.hooks().set_parked(false);
            let vet = vet.unwrap_or_else(|e| panic!("a vet behind a parked {:?}: {}", request, e));
            assert!(
                matches!(vet.outcome, AuditOutcome::Vetted { verdict: true, .. }),
                "a vet behind a parked {:?}: {:?}",
                request,
                vet.outcome
            );
            slow.receive_response().unwrap();
        }
        drop((slow, auditor));
        server.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A burst far longer than one turn's [`INLINE_BUDGET`] is split: the
    /// loop answers its head, a worker the rest, and every answer still
    /// lands in its own slot.
    #[test]
    fn inline_budget_hands_a_long_burst_to_a_worker_in_order() {
        let items = 64;
        let (engine, dir) = engine_with_items("inline-budget", items);
        let server =
            AuditServer::bind(Arc::clone(&engine), "127.0.0.1:0", ServeConfig::default()).unwrap();
        let mut client = connect(server.local_addr());
        let burst: Vec<AuditRequest> = (0..2048u64)
            .map(|i| AuditRequest::VetValue {
                value: Value::Channel(Channel::new(format!("item{}", (i * 7) % items))),
                pattern: "any".into(),
            })
            .collect();
        let dispatched = || server.hooks().dispatched_frames.load(Ordering::Relaxed);
        let before = dispatched();
        let answers = pipelined(&mut client, &burst);
        let by_workers = dispatched() - before;
        for (slot, (request, answer)) in burst.iter().zip(&answers).enumerate() {
            assert_eq!(
                outcome(answer),
                &engine.handle(request).outcome,
                "slot {}",
                slot
            );
        }
        assert!(
            by_workers > 0 && by_workers < burst.len(),
            "workers served {} of {} vets",
            by_workers,
            burst.len()
        );
        drop(client);
        server.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
