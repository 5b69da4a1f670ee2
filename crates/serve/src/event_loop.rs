//! The serving core: readiness-based I/O on Linux `epoll`.
//!
//! One **event-loop thread** owns the listener, an epoll instance (see
//! [`crate::poll`]), and every connection's state machine:
//!
//! ```text
//! read-accumulate ──► decode ──► handle ──► write-drain
//!       ▲   (loop)      (worker pool)          │
//!       └──────────────────────────────────────┘
//! ```
//!
//! The loop thread only moves bytes: it accepts, reads whatever readiness
//! delivers into a per-connection buffer, carves complete frames out of
//! it with [`crate::wire::try_parse_frame`], and drains each connection's
//! outbound buffer (partial writes re-arm `EPOLLOUT`).  Complete frames
//! are handed to a small **dispatch worker pool** that runs each through
//! [`crate::server::serve_frame`] and appends the encoded responses to the
//! connection's outbound buffer.  At most one dispatch job per connection
//! is in flight and a job answers its frames in order, so pipelining
//! keeps the wire contract: responses strictly in request order per
//! connection.
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

use crate::codec::{encode_response, WireResponse};
use crate::poll::{Epoll, WakeFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::server::{
    contains_blank_line, http_response_for, serve_frame, PendingTrace, Services,
    IDLE_TIMEOUT_MESSAGE, MAX_HTTP_HEAD,
};
use crate::wire::{try_parse_frame, write_frame, WireError, HTTP_GET_PREFIX};
use bytes::Bytes;
use piprov_audit::TraceCollector;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
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

/// One unit of CPU work for a dispatch worker.  The worker appends its
/// encoded output to `out` and reports `token` done — it never touches
/// the socket.
#[derive(Debug)]
enum Job {
    /// Complete frames from one connection, answered strictly in order.
    Frames {
        token: u64,
        frames: Vec<Bytes>,
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
    /// Complete frames waiting for the connection's next dispatch slot.
    pending: VecDeque<Bytes>,
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

    /// The connection state machine: parse → dispatch → error/EOF → flush
    /// → close, in a fixed order so every path converges.
    fn advance(&mut self, token: u64) {
        let Some((conn, out)) = self.conns.get_mut(&token) else {
            return;
        };
        let closing = out.lock().expect("outbound lock").closing;
        if !closing {
            parse_available(conn, self.services.config.limits.max_frame_len);
            // Dispatch the next batch of complete frames (or a complete
            // HTTP head) if the connection's single job slot is free.
            if !conn.in_flight {
                if let Some(head) = take_complete_http_head(conn) {
                    conn.in_flight = true;
                    self.dispatch.push(Job::Http {
                        token,
                        head,
                        out: Arc::clone(out),
                    });
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
                        conn.pending.push_back(body);
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

/// A dispatch worker: all CPU work for one job at a time, never touching
/// a socket.  Wire-level histograms are recorded here (in
/// [`serve_frame`]) — the loop thread stays out of the measurement.
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
        let (token, out, encoded, traces, closing) = match job {
            Job::Frames { token, frames, out } => {
                let mut encoded = Vec::new();
                // Each trace's `end_abs` is its response's end offset within
                // `encoded` until the batch is anchored to the stream below.
                let mut traces = Vec::new();
                let mut closing = false;
                for frame in frames {
                    match serve_frame(frame, services, &mut encoded) {
                        Ok(trace) => traces.push(trace),
                        Err(e) => {
                            // A typed error frame, then close; frames after
                            // the bad one are not answered.
                            encoded.extend_from_slice(&error_frame(&e.to_string()));
                            closing = true;
                            break;
                        }
                    }
                }
                (token, out, encoded, traces, closing)
            }
            Job::Http { token, head, out } => {
                let response = http_response_for(&head, &services.engine, &services.collector);
                (token, out, response, Vec::new(), true)
            }
        };
        {
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
        dispatch.report_done(token);
    }
}
