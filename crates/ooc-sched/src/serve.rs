//! `oocd` — the persistent multi-tenant I/O service.
//!
//! The paper's compiler-directed out-of-core runtime presumes an I/O
//! system that *owns* the disks and serves many programs at once (ViPIOS
//! is the production analogue). This module is that daemon: it holds the
//! disk farm, accepts job submissions from many clients over a
//! Unix-domain or TCP socket, maps the accumulated session onto
//! [`run_workload_guarded_observed`] with the existing admission control
//! and per-tenant QoS policies, and streams the observatory's events and
//! the Prometheus scorecard back to subscribed clients.
//!
//! ## Wire protocol
//!
//! Frames are length-prefixed: a 4-byte little-endian `u32` payload
//! length, then that many bytes of UTF-8 JSON. Requests are objects with
//! an `"op"` field; responses are `{"ok":true,...}` or
//! `{"ok":false,"error":{"kind":K,"detail":D}}`. Verbs:
//!
//! | op          | effect |
//! |-------------|--------|
//! | `submit`    | validate and queue one job (`job` carries the spec)   |
//! | `status`    | phase, job / tenant counts                            |
//! | `subscribe` | turn this connection into an event stream             |
//! | `drain`     | seal the timeline, run the workload, report a summary |
//! | `scorecard` | the SLO scorecard + Prometheus exposition (post-drain)|
//! | `shutdown`  | stop accepting connections and exit the accept loop   |
//!
//! Hardening: per-connection read timeouts, a bounded frame size, and
//! typed [`ProtoError`]s. A malformed *frame* (oversized, truncated) has
//! destroyed the framing, so the daemon reports the error and closes that
//! connection; a malformed *request* in a well-formed frame (bad JSON,
//! unknown op, inadmissible job) is answered with a typed error and the
//! connection keeps serving. A client disconnecting mid-stream is simply
//! dropped from the fan-out.
//!
//! ## Session lifecycle and determinism
//!
//! The daemon is a *virtual-time* service: submissions carry virtual
//! submit times, and nothing executes until `drain` seals the timeline.
//! Drain sorts the accepted specs by `(submit, name)` — a total order,
//! since names are unique — so the wall-clock interleaving of the
//! submitting sockets cannot influence the run. Two daemons fed the same
//! logical submissions therefore produce byte-identical scorecards,
//! expositions and event streams regardless of socket timing; `oocload`
//! and the `daemon-smoke` CI job `cmp` exactly that. After the drain the
//! daemon stays up read-only (`status`, `scorecard`, late `subscribe`
//! replays) until `shutdown`.

use std::collections::BTreeSet;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use ooc_trace::json::{self, Json};
use ooc_trace::perfetto::escape_json;
use ooc_trace::{fnv1a64, FNV_OFFSET};

use crate::capture::{IoReq, JobProfile};
use crate::domain::{run_workload_guarded_observed, DomainConfig, GuardedReport, JobOutcome};
use crate::obs::{render_event, render_sample, EventLog, ObsEvent, Sample, WorkloadObserver};
use crate::workload::{validate_specs, JobSpec};
use crate::SloScorecard;

/// Default ceiling on a single frame's payload, bytes.
pub const DEFAULT_MAX_FRAME: u32 = 1 << 20;

/// Daemon configuration: the guarded runtime the session maps onto, plus
/// the protocol guards.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The guarded-runtime configuration every drained session runs under
    /// (policy, QoS, watchdog, retries, chaos seed…).
    pub domain: DomainConfig,
    /// Observatory sampling cadence, virtual seconds (positive).
    pub sample_every: f64,
    /// Per-connection read timeout: a client that stays silent mid-frame
    /// for this long is disconnected. `None` disables the guard.
    pub read_timeout: Option<Duration>,
    /// Maximum accepted frame payload, bytes.
    pub max_frame: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            domain: DomainConfig::default(),
            sample_every: 5.0,
            read_timeout: Some(Duration::from_secs(5)),
            max_frame: DEFAULT_MAX_FRAME,
        }
    }
}

/// Typed protocol error. Frame-level variants ([`ProtoError::FrameTooLarge`],
/// [`ProtoError::Truncated`], [`ProtoError::Io`]) mean the framing is lost
/// and the connection closes after reporting; request-level variants keep
/// the connection serving.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoError {
    /// The length prefix announces a payload beyond the configured bound.
    FrameTooLarge { len: u32, max: u32 },
    /// The stream ended inside a length prefix or payload.
    Truncated { context: &'static str },
    /// The payload is not valid JSON (or not UTF-8).
    BadJson { detail: String },
    /// Well-formed JSON that is not a valid request.
    BadRequest { detail: String },
    /// The server refused the request (admission error, wrong phase…).
    /// `kind` is the machine-readable tag from the error response.
    Refused { kind: String, detail: String },
    /// Transport failure (timeout, reset).
    Io { detail: String },
}

impl ProtoError {
    /// Stable machine-readable tag, mirrored in error responses.
    pub fn kind(&self) -> &str {
        match self {
            ProtoError::FrameTooLarge { .. } => "frame_too_large",
            ProtoError::Truncated { .. } => "truncated",
            ProtoError::BadJson { .. } => "bad_json",
            ProtoError::BadRequest { .. } => "bad_request",
            ProtoError::Refused { kind, .. } => kind,
            ProtoError::Io { .. } => "io",
        }
    }

    /// Whether the connection's framing survived this error (the daemon
    /// keeps serving the connection when true).
    pub fn recoverable(&self) -> bool {
        matches!(
            self,
            ProtoError::BadJson { .. } | ProtoError::BadRequest { .. } | ProtoError::Refused { .. }
        )
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte bound")
            }
            ProtoError::Truncated { context } => {
                write!(f, "stream truncated inside a {context}")
            }
            ProtoError::BadJson { detail } => write!(f, "malformed JSON payload: {detail}"),
            ProtoError::BadRequest { detail } => write!(f, "bad request: {detail}"),
            ProtoError::Refused { kind, detail } => write!(f, "refused ({kind}): {detail}"),
            ProtoError::Io { detail } => write!(f, "transport error: {detail}"),
        }
    }
}

impl std::error::Error for ProtoError {}

fn io_err(e: io::Error) -> ProtoError {
    ProtoError::Io {
        detail: e.to_string(),
    }
}

/// Read one length-prefixed frame. `Ok(None)` is a clean disconnect at a
/// frame boundary; EOF anywhere else is [`ProtoError::Truncated`].
pub fn read_frame(r: &mut impl Read, max: u32) -> Result<Option<String>, ProtoError> {
    let mut len_buf = [0u8; 4];
    match r.read(&mut len_buf[..1]) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(io_err(e)),
    }
    r.read_exact(&mut len_buf[1..])
        .map_err(|_| ProtoError::Truncated {
            context: "length prefix",
        })?;
    let len = u32::from_le_bytes(len_buf);
    if len > max {
        return Err(ProtoError::FrameTooLarge { len, max });
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)
        .map_err(|_| ProtoError::Truncated { context: "payload" })?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| ProtoError::BadJson {
            detail: "payload is not UTF-8".to_string(),
        })
}

/// Write one length-prefixed frame. Prefix and payload go out in a single
/// `write_all` — two small writes per frame would trip Nagle + delayed-ACK
/// on TCP and cost ~40ms per request.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    let len = u32::try_from(bytes.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(bytes);
    w.write_all(&frame)?;
    w.flush()
}

fn error_json(kind: &str, detail: &str) -> String {
    format!(
        "{{\"ok\":false,\"error\":{{\"kind\":\"{}\",\"detail\":\"{}\"}}}}",
        escape_json(kind),
        escape_json(detail)
    )
}

// ---------------------------------------------------------------------------
// Connections: one type over Unix-domain and TCP sockets.

/// A daemon- or client-side socket connection.
#[derive(Debug)]
pub enum Conn {
    /// Unix-domain stream.
    #[cfg(unix)]
    Unix(UnixStream),
    /// TCP stream (loopback in every shipped use).
    Tcp(TcpStream),
}

impl Conn {
    fn tcp(s: TcpStream) -> Conn {
        // Frames are written whole, but disable Nagle anyway so streamed
        // subscriber frames are never held back for an ACK.
        let _ = s.set_nodelay(true);
        Conn::Tcp(s)
    }

    fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(d),
            Conn::Tcp(s) => s.set_read_timeout(d),
        }
    }

    fn try_clone(&self) -> io::Result<Conn> {
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
        }
    }

    fn shutdown(&self) {
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => {
                let _ = s.shutdown(Shutdown::Both);
            }
            Conn::Tcp(s) => {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

/// The daemon's listening socket.
#[derive(Debug)]
pub enum Listener {
    /// Unix-domain socket; the path is unlinked when the daemon exits.
    #[cfg(unix)]
    Unix(UnixListener, std::path::PathBuf),
    /// TCP socket.
    Tcp(TcpListener),
}

impl Listener {
    /// Bind a Unix-domain listener, replacing a stale socket file.
    #[cfg(unix)]
    pub fn bind_unix(path: impl Into<std::path::PathBuf>) -> io::Result<Listener> {
        let path = path.into();
        let _ = std::fs::remove_file(&path);
        Ok(Listener::Unix(UnixListener::bind(&path)?, path))
    }

    /// Bind a TCP listener (use `127.0.0.1:0` for an ephemeral port).
    pub fn bind_tcp(addr: &str) -> io::Result<Listener> {
        TcpListener::bind(addr).map(Listener::Tcp)
    }

    /// Human-readable bound address (the socket path, or `host:port`).
    pub fn addr(&self) -> String {
        match self {
            #[cfg(unix)]
            Listener::Unix(_, p) => p.display().to_string(),
            Listener::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "<unbound>".to_string()),
        }
    }

    fn accept(&self) -> io::Result<Conn> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Conn::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::tcp(s)),
        }
    }

    /// Open a throwaway client connection to this listener — the shutdown
    /// path uses it to wake the blocking accept loop.
    fn wake(&self) {
        match self {
            #[cfg(unix)]
            Listener::Unix(_, p) => {
                let _ = UnixStream::connect(p);
            }
            Listener::Tcp(l) => {
                if let Ok(a) = l.local_addr() {
                    let _ = TcpStream::connect(a);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Daemon state.

/// Where the session sits in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Admissions open.
    Accepting,
    /// A drain is executing; admissions refused.
    Draining,
    /// The run finished; the daemon serves results read-only.
    Drained,
}

impl Phase {
    fn label(self) -> &'static str {
        match self {
            Phase::Accepting => "accepting",
            Phase::Draining => "draining",
            Phase::Drained => "drained",
        }
    }
}

/// The drained session's deterministic artifacts.
struct DrainResult {
    summary: String,
    scorecard: String,
    prom: String,
    /// FNV-1a 64 digest of the rendered event stream: the one-line
    /// divergence detector carried by summaries and the subscriber end
    /// frame.
    stream_fnv: u64,
    events: usize,
    samples: usize,
}

struct State {
    phase: Phase,
    specs: Vec<JobSpec>,
    names: BTreeSet<String>,
    tenants: BTreeSet<String>,
    result: Option<DrainResult>,
}

/// Subscriber fan-out: every rendered line ever published (for late
/// subscribers to replay) plus the live senders. Dead subscribers are
/// dropped on send failure — a client disconnecting mid-stream never
/// stalls the run.
#[derive(Default)]
struct Hub {
    sent: Vec<String>,
    subs: Vec<mpsc::Sender<String>>,
    done: bool,
}

impl Hub {
    fn publish(&mut self, line: String) {
        self.subs.retain(|s| s.send(line.clone()).is_ok());
        self.sent.push(line);
    }
}

struct Inner {
    cfg: ServeConfig,
    state: Mutex<State>,
    hub: Mutex<Hub>,
    stop: AtomicBool,
    /// The daemon's own listener — the shutdown path self-connects through
    /// it to wake the blocking accept loop.
    listener: Listener,
}

impl Inner {
    fn begin_shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Dropping the senders releases any live subscriber streams.
        self.hub.lock().unwrap().subs.clear();
        self.listener.wake();
    }
}

/// Handle on a running daemon: the bound address plus the accept-loop
/// thread. Dropping the handle does not stop the daemon; send a
/// `shutdown` request (or call [`DaemonHandle::shutdown`]) and then
/// [`DaemonHandle::join`].
pub struct DaemonHandle {
    /// Bound address: the socket path, or `host:port`.
    pub addr: String,
    inner: Arc<Inner>,
    accept_loop: JoinHandle<()>,
}

impl DaemonHandle {
    /// Ask the daemon to stop accepting connections and exit.
    pub fn shutdown(&self) {
        self.inner.begin_shutdown();
    }

    /// Wait for the accept loop (and every connection it spawned).
    pub fn join(self) -> std::thread::Result<()> {
        self.accept_loop.join()
    }
}

/// Start the daemon on `listener`. Returns immediately; the accept loop
/// runs on its own thread until a `shutdown` request arrives.
pub fn serve(listener: Listener, cfg: ServeConfig) -> DaemonHandle {
    assert!(
        cfg.sample_every > 0.0 && cfg.sample_every.is_finite(),
        "the observatory cadence must be positive"
    );
    let addr = listener.addr();
    let inner = Arc::new(Inner {
        cfg,
        state: Mutex::new(State {
            phase: Phase::Accepting,
            specs: Vec::new(),
            names: BTreeSet::new(),
            tenants: BTreeSet::new(),
            result: None,
        }),
        hub: Mutex::new(Hub::default()),
        stop: AtomicBool::new(false),
        listener,
    });
    let accept_inner = Arc::clone(&inner);
    let accept_loop = std::thread::spawn(move || {
        let mut workers: Vec<JoinHandle<()>> = Vec::new();
        loop {
            if accept_inner.stop.load(Ordering::SeqCst) {
                break;
            }
            let conn = match accept_inner.listener.accept() {
                Ok(c) => c,
                Err(_) => continue,
            };
            if accept_inner.stop.load(Ordering::SeqCst) {
                break;
            }
            let conn_inner = Arc::clone(&accept_inner);
            workers.push(std::thread::spawn(move || handle_conn(conn_inner, conn)));
        }
        for w in workers {
            let _ = w.join();
        }
        #[cfg(unix)]
        if let Listener::Unix(_, p) = &accept_inner.listener {
            let _ = std::fs::remove_file(p);
        }
    });
    DaemonHandle {
        addr,
        inner,
        accept_loop,
    }
}

/// What the connection loop does after one request.
enum Flow {
    Continue,
    Close,
    /// Switch into subscriber streaming (takes over the connection).
    Stream(mpsc::Receiver<String>),
}

fn handle_conn(inner: Arc<Inner>, mut conn: Conn) {
    let _ = conn.set_read_timeout(inner.cfg.read_timeout);
    loop {
        match read_frame(&mut conn, inner.cfg.max_frame) {
            Ok(None) => return,
            Ok(Some(text)) => match handle_request(&inner, &text) {
                Ok((response, flow)) => {
                    if write_frame(&mut conn, &response).is_err() {
                        return;
                    }
                    match flow {
                        Flow::Continue => {}
                        Flow::Close => {
                            conn.shutdown();
                            return;
                        }
                        Flow::Stream(rx) => {
                            stream_subscriber(&inner, conn, rx);
                            return;
                        }
                    }
                }
                Err(e) => {
                    let frame = error_json(e.kind(), &e.to_string());
                    if write_frame(&mut conn, &frame).is_err() || !e.recoverable() {
                        conn.shutdown();
                        return;
                    }
                }
            },
            Err(e) => {
                // Framing is gone (or the read timed out): report
                // best-effort and close.
                let _ = write_frame(&mut conn, &error_json(e.kind(), &e.to_string()));
                conn.shutdown();
                return;
            }
        }
    }
}

/// Stream the event fan-out to one subscriber until the run completes (or
/// the client goes away), then send the end frame.
fn stream_subscriber(inner: &Inner, mut conn: Conn, rx: mpsc::Receiver<String>) {
    // The subscriber only writes from here on; reads would hit the idle
    // timeout long before a large run finishes.
    let _ = conn.set_read_timeout(None);
    for line in rx {
        let frame = format!("{{\"line\":\"{}\"}}", escape_json(&line));
        if write_frame(&mut conn, &frame).is_err() {
            return; // client disconnected mid-stream; drop it
        }
    }
    // Senders are gone: the drain finished (or the daemon shut down).
    let st = inner.state.lock().unwrap();
    let end = match &st.result {
        Some(r) => format!(
            "{{\"end\":true,\"events\":{},\"samples\":{},\"stream_fnv\":\"{:016x}\"}}",
            r.events, r.samples, r.stream_fnv
        ),
        None => "{\"end\":true}".to_string(),
    };
    drop(st);
    let _ = write_frame(&mut conn, &end);
    conn.shutdown();
}

fn handle_request(inner: &Inner, text: &str) -> Result<(String, Flow), ProtoError> {
    let req = json::parse(text).map_err(|detail| ProtoError::BadJson { detail })?;
    let op = req
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError::BadRequest {
            detail: "missing string field \"op\"".to_string(),
        })?;
    match op {
        "submit" => op_submit(inner, &req).map(|r| (r, Flow::Continue)),
        "status" => Ok((op_status(inner), Flow::Continue)),
        "subscribe" => {
            let rx = op_subscribe(inner);
            Ok((
                "{\"ok\":true,\"subscribed\":true}".to_string(),
                Flow::Stream(rx),
            ))
        }
        "drain" => op_drain(inner).map(|r| (r, Flow::Continue)),
        "scorecard" => op_scorecard(inner).map(|r| (r, Flow::Continue)),
        "shutdown" => {
            inner.begin_shutdown();
            Ok(("{\"ok\":true,\"stopping\":true}".to_string(), Flow::Close))
        }
        other => Err(ProtoError::BadRequest {
            detail: format!("unknown op {other:?}"),
        }),
    }
}

// ---------------------------------------------------------------------------
// Request handlers.

fn num_field(j: &Json, key: &str) -> Result<f64, ProtoError> {
    j.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| ProtoError::BadRequest {
            detail: format!("missing numeric field {key:?}"),
        })
}

fn count_field(v: &Json, what: &str) -> Result<u64, ProtoError> {
    let n = v.as_num().ok_or_else(|| ProtoError::BadRequest {
        detail: format!("{what} must be a number"),
    })?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err(ProtoError::BadRequest {
            detail: format!("{what} must be a non-negative integer, got {n}"),
        });
    }
    Ok(n as u64)
}

/// Decode the submitted job spec. Structural soundness of the decoded
/// profile is enforced by the same [`validate_specs`] gate the batch
/// runtimes use, so a truncated or corrupted replay profile comes back as
/// a typed admission error — never a panic.
fn parse_spec(job: &Json) -> Result<JobSpec, ProtoError> {
    let name = job
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError::BadRequest {
            detail: "job needs a string \"name\"".to_string(),
        })?;
    let profile = job.get("profile").ok_or_else(|| ProtoError::BadRequest {
        detail: "job needs a \"profile\"".to_string(),
    })?;
    let rank_finish: Vec<f64> = profile
        .get("rank_finish")
        .and_then(Json::as_arr)
        .ok_or_else(|| ProtoError::BadRequest {
            detail: "profile needs an array \"rank_finish\"".to_string(),
        })?
        .iter()
        .map(|v| {
            v.as_num().ok_or_else(|| ProtoError::BadRequest {
                detail: "rank_finish entries must be numbers".to_string(),
            })
        })
        .collect::<Result<_, _>>()?;
    let streams_json = profile
        .get("streams")
        .and_then(Json::as_arr)
        .ok_or_else(|| ProtoError::BadRequest {
            detail: "profile needs an array \"streams\"".to_string(),
        })?;
    let mut streams = Vec::with_capacity(streams_json.len());
    for (rank, s) in streams_json.iter().enumerate() {
        let reqs_json = s.as_arr().ok_or_else(|| ProtoError::BadRequest {
            detail: format!("stream {rank} must be an array"),
        })?;
        let mut reqs = Vec::with_capacity(reqs_json.len());
        for (i, r) in reqs_json.iter().enumerate() {
            // Compact form: [t0, t1, requests, bytes, offset|null, write].
            let f = r
                .as_arr()
                .filter(|f| f.len() == 6)
                .ok_or_else(|| ProtoError::BadRequest {
                    detail: format!(
                        "stream {rank} request {i} must be [t0, t1, requests, bytes, offset, write]"
                    ),
                })?;
            let fnum = |k: usize, what: &str| {
                f[k].as_num().ok_or_else(|| ProtoError::BadRequest {
                    detail: format!("stream {rank} request {i}: {what} must be a number"),
                })
            };
            let offset = match &f[4] {
                Json::Null => None,
                v => Some(count_field(v, "offset")?),
            };
            let write = match &f[5] {
                Json::Bool(b) => *b,
                _ => {
                    return Err(ProtoError::BadRequest {
                        detail: format!("stream {rank} request {i}: write must be a bool"),
                    })
                }
            };
            reqs.push(IoReq {
                t0: fnum(0, "t0")?,
                t1: fnum(1, "t1")?,
                requests: count_field(&f[2], "requests")?,
                bytes: count_field(&f[3], "bytes")?,
                offset,
                write,
            });
        }
        streams.push(reqs);
    }
    let profile = JobProfile {
        rank_finish,
        streams,
        ..JobProfile::default()
    };
    let mut spec = JobSpec::new(name, profile);
    spec.submit = num_field(job, "submit")?;
    if let Some(w) = job.get("weight").and_then(Json::as_num) {
        spec.weight = w;
    }
    if let Some(q) = job.get("qos_slack").and_then(Json::as_num) {
        spec.qos_slack = q;
    }
    Ok(spec)
}

fn op_submit(inner: &Inner, req: &Json) -> Result<String, ProtoError> {
    let job = req.get("job").ok_or_else(|| ProtoError::BadRequest {
        detail: "submit needs a \"job\" object".to_string(),
    })?;
    let spec = parse_spec(job)?;
    let tenant = job
        .get("tenant")
        .and_then(Json::as_str)
        .unwrap_or("anonymous")
        .to_string();
    let mut st = inner.state.lock().unwrap();
    if st.phase != Phase::Accepting {
        return Err(ProtoError::Refused {
            kind: "draining".to_string(),
            detail: format!(
                "the session is {} — new admissions are refused",
                st.phase.label()
            ),
        });
    }
    if st.names.contains(&spec.name) {
        return Err(ProtoError::Refused {
            kind: "admission".to_string(),
            detail: format!("job id {:?} submitted more than once", spec.name),
        });
    }
    // The same typed gate the batch runtimes use: NoRanks, capacity,
    // finite submit, structurally sound profile.
    if let Err(e) = validate_specs(std::slice::from_ref(&spec), inner.cfg.domain.disks) {
        return Err(ProtoError::Refused {
            kind: "admission".to_string(),
            detail: e.to_string(),
        });
    }
    st.names.insert(spec.name.clone());
    st.tenants.insert(tenant);
    st.specs.push(spec);
    Ok(format!("{{\"ok\":true,\"jobs\":{}}}", st.specs.len()))
}

fn op_status(inner: &Inner) -> String {
    let st = inner.state.lock().unwrap();
    format!(
        "{{\"ok\":true,\"phase\":\"{}\",\"jobs\":{},\"tenants\":{}}}",
        st.phase.label(),
        st.specs.len(),
        st.tenants.len()
    )
}

fn op_subscribe(inner: &Inner) -> mpsc::Receiver<String> {
    let (tx, rx) = mpsc::channel();
    let mut hub = inner.hub.lock().unwrap();
    // Late subscriber: replay everything already published, then go live
    // (or, post-drain, straight to the end frame — the sender drops here).
    for line in &hub.sent {
        let _ = tx.send(line.clone());
    }
    if !hub.done {
        hub.subs.push(tx);
    }
    rx
}

/// The observatory observer that feeds the subscriber fan-out while
/// retaining the full log for the artifacts.
struct Broadcast<'a> {
    hub: &'a Mutex<Hub>,
    log: EventLog,
}

impl WorkloadObserver for Broadcast<'_> {
    fn event(&mut self, e: &ObsEvent) {
        self.hub.lock().unwrap().publish(render_event(e));
        self.log.events.push(e.clone());
    }

    fn sample(&mut self, s: &Sample) {
        self.hub.lock().unwrap().publish(render_sample(s));
        self.log.samples.push(s.clone());
    }
}

fn op_drain(inner: &Inner) -> Result<String, ProtoError> {
    // Seal the timeline: flip to Draining under the lock, run outside it
    // so status/subscribe stay responsive during the run.
    let mut specs = {
        let mut st = inner.state.lock().unwrap();
        if st.phase != Phase::Accepting {
            return Err(ProtoError::Refused {
                kind: "draining".to_string(),
                detail: format!("the session is already {}", st.phase.label()),
            });
        }
        st.phase = Phase::Draining;
        std::mem::take(&mut st.specs)
    };
    // Deterministic execution order regardless of socket interleaving:
    // names are unique, so (submit, name) is a total order.
    specs.sort_by(|a, b| a.submit.total_cmp(&b.submit).then(a.name.cmp(&b.name)));
    let mut obs = Broadcast {
        hub: &inner.hub,
        log: EventLog::default(),
    };
    let run =
        run_workload_guarded_observed(&specs, &inner.cfg.domain, inner.cfg.sample_every, &mut obs);
    let report = match run {
        Ok(r) => r,
        Err(e) => {
            // Per-submit validation makes this unreachable; fail closed
            // anyway rather than poisoning the daemon.
            let mut st = inner.state.lock().unwrap();
            st.phase = Phase::Drained;
            return Err(ProtoError::Refused {
                kind: "admission".to_string(),
                detail: e.to_string(),
            });
        }
    };
    let rendered = obs.log.render();
    let stream_fnv = fnv1a64(FNV_OFFSET, rendered.as_bytes());
    let card = SloScorecard::from_guarded(&report);
    let prom = ooc_trace::prom::render(&SloScorecard::prom(std::slice::from_ref(&card)));
    let result = DrainResult {
        summary: drain_summary(&report, &card, stream_fnv),
        scorecard: scorecard_json(&card, stream_fnv),
        prom,
        stream_fnv,
        events: obs.log.events.len(),
        samples: obs.log.samples.len(),
    };
    let summary = result.summary.clone();
    {
        let mut st = inner.state.lock().unwrap();
        st.result = Some(result);
        st.phase = Phase::Drained;
    }
    // Release the live subscribers: dropping the senders ends their
    // streams, and each then reads the end frame from the stored result.
    let mut hub = inner.hub.lock().unwrap();
    hub.done = true;
    hub.subs.clear();
    Ok(summary)
}

fn opt_num(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), |v| format!("{v:.9}"))
}

fn drain_summary(report: &GuardedReport, card: &SloScorecard, stream_fnv: u64) -> String {
    let outcomes =
        |f: fn(&JobOutcome) -> bool| report.jobs.iter().filter(|j| f(&j.outcome)).count();
    format!(
        "{{\"ok\":true,\"jobs\":{},\"completed\":{},\"recovered\":{},\"killed\":{},\
         \"quarantined\":{},\"makespan\":{:.9},\"deadline_hit_rate\":{:.9},\
         \"stream_fnv\":\"{stream_fnv:016x}\"}}",
        report.jobs.len(),
        report.completed(),
        outcomes(|o| matches!(o, JobOutcome::Recovered { .. })),
        outcomes(|o| matches!(o, JobOutcome::Killed { .. })),
        outcomes(|o| matches!(o, JobOutcome::Quarantined { .. })),
        report.makespan(),
        card.deadline_hit_rate(),
    )
}

fn scorecard_json(card: &SloScorecard, stream_fnv: u64) -> String {
    format!(
        "{{\"policy\":\"{}\",\"jobs\":{},\"completed\":{},\"recovered\":{},\"killed\":{},\
         \"quarantined\":{},\"deadline_hits\":{},\"deadline_hit_rate\":{:.9},\
         \"p50_turnaround\":{},\"p95_turnaround\":{},\"p99_turnaround\":{},\
         \"mean_slowdown\":{:.9},\"makespan\":{:.9},\"stream_fnv\":\"{stream_fnv:016x}\"}}",
        card.policy,
        card.jobs,
        card.completed,
        card.recovered,
        card.killed,
        card.quarantined,
        card.deadline_hits,
        card.deadline_hit_rate(),
        opt_num(card.p50_turnaround),
        opt_num(card.p95_turnaround),
        opt_num(card.p99_turnaround),
        card.mean_slowdown,
        card.makespan,
    )
}

fn op_scorecard(inner: &Inner) -> Result<String, ProtoError> {
    let st = inner.state.lock().unwrap();
    match &st.result {
        Some(r) => Ok(format!(
            "{{\"ok\":true,\"scorecard\":{},\"prom\":\"{}\"}}",
            r.scorecard,
            escape_json(&r.prom)
        )),
        None => Err(ProtoError::Refused {
            kind: "not_ready".to_string(),
            detail: format!("no drained run yet (phase: {})", st.phase.label()),
        }),
    }
}

// ---------------------------------------------------------------------------
// Client.

/// Blocking protocol client used by `oocload`, the tests and ad-hoc
/// tooling.
pub struct Client {
    conn: Conn,
    max_frame: u32,
}

impl Client {
    /// Connect to a Unix-domain daemon socket.
    #[cfg(unix)]
    pub fn connect_unix(path: &str) -> io::Result<Client> {
        Ok(Client {
            conn: Conn::Unix(UnixStream::connect(path)?),
            max_frame: DEFAULT_MAX_FRAME,
        })
    }

    /// Connect to a TCP daemon address.
    pub fn connect_tcp(addr: &str) -> io::Result<Client> {
        Ok(Client {
            conn: Conn::tcp(TcpStream::connect(addr)?),
            max_frame: DEFAULT_MAX_FRAME,
        })
    }

    /// Connect to `addr`: a `host:port` pair, or (on Unix) a socket path.
    pub fn connect(addr: &str) -> io::Result<Client> {
        #[cfg(unix)]
        if !addr.contains(':') {
            return Client::connect_unix(addr);
        }
        Client::connect_tcp(addr)
    }

    /// Send one request and return the raw response frame text — the
    /// deterministic artifact surface `oocload` byte-compares. Error
    /// responses still come back as frames here; use [`Client::request`]
    /// for typed errors.
    pub fn request_raw(&mut self, body: &str) -> Result<String, ProtoError> {
        write_frame(&mut self.conn, body).map_err(io_err)?;
        read_frame(&mut self.conn, self.max_frame)?.ok_or(ProtoError::Truncated {
            context: "response",
        })
    }

    /// Send one request and decode the response. Error responses come
    /// back as [`ProtoError::Refused`] / [`ProtoError::BadRequest`] /
    /// [`ProtoError::BadJson`] keyed by the server's error kind.
    pub fn request(&mut self, body: &str) -> Result<Json, ProtoError> {
        let raw = self.request_raw(body)?;
        let frame = json::parse(&raw).map_err(|detail| ProtoError::BadJson { detail })?;
        if let Some(err) = frame.get("error") {
            let kind = err
                .get("kind")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string();
            let detail = err
                .get("detail")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            return Err(match kind.as_str() {
                "bad_json" => ProtoError::BadJson { detail },
                "bad_request" => ProtoError::BadRequest { detail },
                _ => ProtoError::Refused { kind, detail },
            });
        }
        Ok(frame)
    }

    /// Read the next frame (for subscriber streams). `Ok(None)` when the
    /// server closed the stream.
    pub fn next_frame(&mut self) -> Result<Option<Json>, ProtoError> {
        match read_frame(&mut self.conn, self.max_frame)? {
            Some(text) => json::parse(&text)
                .map(Some)
                .map_err(|detail| ProtoError::BadJson { detail }),
            None => Ok(None),
        }
    }

    /// Write raw bytes on the socket — the malformed-frame corpus uses
    /// this to attack the decoder.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.conn.write_all(bytes)?;
        self.conn.flush()
    }

    /// Clone the underlying connection (e.g. one half subscribing while
    /// the other submits is *not* supported — frames would interleave —
    /// but a reader clone lets tests poke at half-closed behavior).
    pub fn try_clone(&self) -> io::Result<Client> {
        Ok(Client {
            conn: self.conn.try_clone()?,
            max_frame: self.max_frame,
        })
    }
}

/// Encode a [`JobSpec`]-shaped submission request. The inverse of
/// `parse_spec`; `oocload` and the tests build their traffic with it.
pub fn submit_json(tenant: &str, spec: &JobSpec) -> String {
    let mut out = format!(
        "{{\"op\":\"submit\",\"job\":{{\"tenant\":\"{}\",\"name\":\"{}\",\
         \"submit\":{:.9},\"weight\":{:.9},\"qos_slack\":{:.9},\"profile\":{{\"rank_finish\":[",
        escape_json(tenant),
        escape_json(&spec.name),
        spec.submit,
        spec.weight,
        spec.qos_slack,
    );
    for (i, f) in spec.profile.rank_finish.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{f:.9}"));
    }
    out.push_str("],\"streams\":[");
    for (i, stream) in spec.profile.streams.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, r) in stream.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let offset = r
                .offset
                .map_or_else(|| "null".to_string(), |o| o.to_string());
            out.push_str(&format!(
                "[{:.9},{:.9},{},{},{},{}]",
                r.t0, r.t1, r.requests, r.bytes, offset, r.write
            ));
        }
        out.push(']');
    }
    out.push_str("]}}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_and_enforce_the_bound() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"op\":\"status\"}").unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().as_deref(),
            Some("{\"op\":\"status\"}")
        );
        // Clean EOF at a frame boundary.
        assert_eq!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap(), None);
        // Oversized announcement.
        let mut big = Vec::new();
        big.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &big[..], 1024),
            Err(ProtoError::FrameTooLarge { max: 1024, .. })
        ));
        // Truncated prefix and truncated payload.
        assert!(matches!(
            read_frame(&mut &[0x05u8, 0x00][..], 1024),
            Err(ProtoError::Truncated {
                context: "length prefix"
            })
        ));
        let mut short = Vec::new();
        short.extend_from_slice(&8u32.to_le_bytes());
        short.extend_from_slice(b"abc");
        assert!(matches!(
            read_frame(&mut &short[..], 1024),
            Err(ProtoError::Truncated { context: "payload" })
        ));
        // Non-UTF-8 payload.
        let mut bad = Vec::new();
        bad.extend_from_slice(&2u32.to_le_bytes());
        bad.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(
            read_frame(&mut &bad[..], 1024),
            Err(ProtoError::BadJson { .. })
        ));
    }

    #[test]
    fn submit_json_round_trips_through_parse_spec() {
        let spec = JobSpec::new(
            "t0-j0",
            JobProfile {
                rank_finish: vec![2.0, 3.5],
                streams: vec![
                    vec![IoReq {
                        t0: 0.0,
                        t1: 1.0,
                        requests: 2,
                        bytes: 4096,
                        offset: Some(128),
                        write: false,
                    }],
                    vec![IoReq {
                        t0: 0.5,
                        t1: 2.0,
                        requests: 1,
                        bytes: 64,
                        offset: None,
                        write: true,
                    }],
                ],
                ..JobProfile::default()
            },
        )
        .with_submit(7.25)
        .with_weight(2.0);
        let body = submit_json("tenant-a", &spec);
        let req = json::parse(&body).unwrap();
        let decoded = parse_spec(req.get("job").unwrap()).unwrap();
        assert_eq!(decoded.name, spec.name);
        assert_eq!(decoded.submit.to_bits(), spec.submit.to_bits());
        assert_eq!(decoded.weight.to_bits(), spec.weight.to_bits());
        assert_eq!(decoded.profile, spec.profile);
    }

    #[test]
    fn parse_spec_refuses_malformed_submissions_with_typed_errors() {
        let cases = [
            ("{}", "name"),
            ("{\"name\":\"x\"}", "profile"),
            ("{\"name\":\"x\",\"profile\":{}}", "rank_finish"),
            (
                "{\"name\":\"x\",\"profile\":{\"rank_finish\":[1.0],\"streams\":[[[0,1,1]]]},\
                 \"submit\":0}",
                "request",
            ),
            (
                "{\"name\":\"x\",\"profile\":{\"rank_finish\":[1.0],\
                 \"streams\":[[[0,1,-3,64,null,false]]]},\"submit\":0}",
                "non-negative",
            ),
        ];
        for (body, needle) in cases {
            let job = json::parse(body).unwrap();
            let err = parse_spec(&job).unwrap_err();
            assert!(
                matches!(err, ProtoError::BadRequest { .. }),
                "{body}: {err:?}"
            );
            assert!(
                err.to_string().contains(needle),
                "{body}: {err} missing {needle:?}"
            );
        }
    }

    #[test]
    fn json_escape_handles_quotes_newlines_and_controls() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
        let round = json::parse(&format!("\"{}\"", escape_json("x\ty\r\nz\"")));
        assert_eq!(round.unwrap().as_str(), Some("x\ty\r\nz\""));
    }
}
