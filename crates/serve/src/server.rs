//! The TCP daemon: accept loop, connection handling, session table,
//! metrics, and graceful drain.
//!
//! ## Threading model
//!
//! One nonblocking accept loop thread plus one plain `std::thread` per
//! connection. The *planning work inside a request* fans out on the
//! process-wide `mdg-par` worker pool; the pool runs one job at a time and
//! lets late arrivals degrade to inline sequential execution, so
//! concurrent requests contend for the pool but never deadlock and never
//! change any plan (the `mdg-par` determinism contract).
//!
//! ## Robustness
//!
//! A connection can fail in exactly four ways, and none of them kills the
//! daemon or poisons the session table:
//!
//! * **Malformed JSON** → `bad_json` error response, connection stays up.
//!   This includes arrays or objects nested deeper than 128 levels,
//!   anywhere in the line: the parser stops there with an error, where
//!   unbounded recursion would overflow the connection thread's stack and
//!   abort the whole process.
//! * **Oversized line** → `oversized` error response, connection closed
//!   (there is no reliable way to resynchronize an unbounded line).
//! * **Disconnect / timeout** (including mid-request) → the connection
//!   thread cleans up and exits; sessions are untouched.
//! * **Handler panic** → caught per request; the session being mutated is
//!   evicted (its state can no longer be trusted) and the client gets an
//!   `internal` error response.
//!
//! ## Metrics without smearing
//!
//! Request latencies are measured per request on the connection thread and
//! recorded into `serve/latency_us/<cmd>` histograms — each sample is one
//! request's own wall time, so concurrent requests cannot smear each
//! other's numbers. Registry-level spans/counters are reported by
//! `metrics` as a [`Profile::diff`] against the snapshot taken at server
//! start, which leaves the host process's global registry untouched
//! (no reset).

use crate::protocol::*;
use crate::session::{DeltaError, DeltaMode, FieldSession};
use mdg_core::PlannerConfig;
use mdg_geom::{Aabb, MAX_COORD};
use mdg_net::{Deployment, DeploymentConfig};
use mdg_obs::Profile;
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Session-table bound; inserting past it evicts the least-recently
    /// used session.
    pub max_sessions: usize,
    /// Per-request socket read timeout (idle connections are dropped).
    pub read_timeout: Option<Duration>,
    /// Socket write timeout for responses.
    pub write_timeout: Option<Duration>,
    /// Hard bound on one request line, enforced while reading.
    pub max_line_bytes: usize,
    /// Hard bound on a session's sensor count (`n`, or `sensors` length
    /// plus later additions).
    pub max_sensors: usize,
    /// `plan` requests above this sensor count get a hierarchical
    /// session (retained tiled plan, dirty-tile deltas) instead of a
    /// flat one, whose cold plan takes the flat planner's superlinear
    /// time and whose field-wide graphs and coverage lists take
    /// O(pairs) bytes.
    pub hier_threshold: usize,
    /// Byte budget for the whole session table (estimated footprints,
    /// see `FieldSession::approx_bytes`). Crossing it evicts
    /// least-recently-used sessions until back under budget; a single
    /// session over the budget is kept (evicting it would make the
    /// daemon useless for exactly the large fields it exists to serve).
    pub max_session_bytes: u64,
    /// How long shutdown waits for in-flight connections to drain before
    /// giving up.
    pub drain_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            max_sessions: 64,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(10)),
            max_line_bytes: 32 << 20,
            max_sensors: 1_000_000,
            hier_threshold: 50_000,
            max_session_bytes: 4 << 30,
            drain_timeout: Duration::from_secs(30),
        }
    }
}

/// LRU-bounded session table. The table lock is held only for lookups and
/// bookkeeping — never across planning or repair.
struct SessionTable {
    map: HashMap<String, TableEntry>,
    tick: u64,
    evictions: u64,
}

struct TableEntry {
    session: Arc<Mutex<FieldSession>>,
    last_used: u64,
    /// Estimated session footprint, refreshed after every delta (deltas
    /// can grow a session far past its cold size).
    bytes: u64,
}

impl SessionTable {
    fn new() -> Self {
        SessionTable {
            map: HashMap::new(),
            tick: 0,
            evictions: 0,
        }
    }

    /// Looks up a session and marks it most-recently used.
    fn touch(&mut self, name: &str) -> Option<Arc<Mutex<FieldSession>>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(name).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.session)
        })
    }

    /// Inserts (or replaces) a session, then evicts least-recently-used
    /// entries until both bounds hold. Returns the evicted names,
    /// LRU-first. The just-inserted session carries the freshest tick,
    /// so it is only ever chosen when it is the table's sole entry —
    /// which the `len > 1` guard on the byte bound forbids: one session
    /// over the byte budget alone is kept (a big field is the point of
    /// the daemon), it just evicts everything else.
    fn insert(
        &mut self,
        name: String,
        session: FieldSession,
        cap: usize,
        max_bytes: u64,
    ) -> Vec<String> {
        self.tick += 1;
        let bytes = session.approx_bytes();
        self.map.insert(
            name,
            TableEntry {
                session: Arc::new(Mutex::new(session)),
                last_used: self.tick,
                bytes,
            },
        );
        self.enforce(cap, max_bytes)
    }

    /// Refreshes one session's byte estimate, then re-applies the byte
    /// bound (a delta that added sensors may have pushed the table over
    /// budget). Returns the evicted names. The estimate is written only
    /// while `name` still holds `session`: a concurrent `plan` may have
    /// replaced it, and the replacement keeps its own footprint.
    fn set_bytes(
        &mut self,
        name: &str,
        session: &Arc<Mutex<FieldSession>>,
        bytes: u64,
        cap: usize,
        max_bytes: u64,
    ) -> Vec<String> {
        if let Some(e) = self.entry_of(name, session) {
            e.bytes = bytes;
        }
        self.enforce(cap, max_bytes)
    }

    /// The entry `name` while it still holds `session`.
    fn entry_of(
        &mut self,
        name: &str,
        session: &Arc<Mutex<FieldSession>>,
    ) -> Option<&mut TableEntry> {
        self.map
            .get_mut(name)
            .filter(|e| Arc::ptr_eq(&e.session, session))
    }

    /// Evicts LRU entries until the count cap and byte budget both hold.
    fn enforce(&mut self, cap: usize, max_bytes: u64) -> Vec<String> {
        let mut evicted = Vec::new();
        loop {
            let total: u64 = self.map.values().map(|e| e.bytes).sum();
            let over_count = self.map.len() > cap.max(1);
            let over_bytes = total > max_bytes && self.map.len() > 1;
            if !(over_count || over_bytes) {
                break;
            }
            let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            self.map.remove(&victim);
            self.evictions += 1;
            evicted.push(victim);
        }
        evicted
    }

    fn remove(&mut self, name: &str) -> bool {
        self.map.remove(name).is_some()
    }

    /// Removes `name` only while it still holds `session`, so a fresh
    /// session a concurrent `plan` put in its place stays.
    fn remove_session(&mut self, name: &str, session: &Arc<Mutex<FieldSession>>) -> bool {
        self.entry_of(name, session).is_some() && self.remove(name)
    }

    /// Session summaries, least-recently-used first.
    fn infos(&self) -> Vec<SessionInfo> {
        let mut entries: Vec<(&TableEntry, u64)> =
            self.map.values().map(|e| (e, e.last_used)).collect();
        entries.sort_by_key(|&(_, t)| t);
        entries
            .iter()
            .map(|(e, _)| lock_unpoisoned(&e.session).info())
            .collect()
    }
}

/// Locks a mutex, recovering from poisoning: a poisoned session is evicted
/// by the panic path before anyone else can lock it, and the remaining
/// shared structures (table, baseline) are plain data safe to read after a
/// panic.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One live connection as the drain logic sees it: a handle to force the
/// socket closed, and whether the connection thread is currently serving
/// a request (vs blocked waiting for the next line).
struct ConnEntry {
    stream: TcpStream,
    busy: Arc<AtomicBool>,
}

struct Shared {
    cfg: ServeConfig,
    sessions: Mutex<SessionTable>,
    shutdown: AtomicBool,
    active_conns: AtomicUsize,
    conns: Mutex<HashMap<u64, ConnEntry>>,
    next_conn_id: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
    started: Instant,
    obs_baseline: Mutex<Profile>,
}

/// A running planning daemon. Dropping the handle does **not** stop it;
/// call [`Server::shutdown`] (or send a `shutdown` request) and then
/// [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds and starts serving in background threads.
    ///
    /// Recording is enabled on the global `mdg-obs` registry (it is the
    /// metrics substrate) and a baseline snapshot is taken so `metrics`
    /// responses report deltas without ever resetting the registry.
    pub fn start(cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        mdg_obs::set_enabled(true);
        let shared = Arc::new(Shared {
            cfg,
            sessions: Mutex::new(SessionTable::new()),
            shutdown: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            started: Instant::now(),
            obs_baseline: Mutex::new(mdg_obs::snapshot()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("mdg-serve-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(Server {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Requests the daemon stop accepting and drain. Returns immediately;
    /// use [`Server::join`] to wait.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits until the accept loop has exited and in-flight connections
    /// have drained (bounded by [`ServeConfig::drain_timeout`]).
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let id = shared.next_conn_id.fetch_add(1, Ordering::SeqCst);
                let busy = Arc::new(AtomicBool::new(false));
                if let Ok(clone) = stream.try_clone() {
                    lock_unpoisoned(&shared.conns).insert(
                        id,
                        ConnEntry {
                            stream: clone,
                            busy: Arc::clone(&busy),
                        },
                    );
                }
                shared.active_conns.fetch_add(1, Ordering::SeqCst);
                let conn_shared = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name("mdg-serve-conn".into())
                    .spawn(move || {
                        // The guard deregisters even if the handler panics
                        // through (it cannot — dispatch catches — but the
                        // drain count must never leak regardless).
                        let _guard = ConnGuard {
                            shared: &conn_shared,
                            id,
                        };
                        handle_connection(stream, &conn_shared, &busy);
                    });
                if spawned.is_err() {
                    lock_unpoisoned(&shared.conns).remove(&id);
                    shared.active_conns.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                eprintln!("mdg-serve: accept failed: {e}");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    // Drain. A connection mid-request finishes, writes its response, and
    // exits (its loop re-checks the shutdown flag). A connection sitting
    // idle in a blocking read has nothing to answer, so its socket is
    // closed out from under it — that is what makes the drain prompt
    // instead of waiting out every idle client's read timeout.
    let deadline = Instant::now() + shared.cfg.drain_timeout;
    while shared.active_conns.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
        for entry in lock_unpoisoned(&shared.conns).values() {
            if !entry.busy.load(Ordering::SeqCst) {
                let _ = entry.stream.shutdown(std::net::Shutdown::Both);
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

struct ConnGuard<'a> {
    shared: &'a Shared,
    id: u64,
}

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        lock_unpoisoned(&self.shared.conns).remove(&self.id);
        self.shared.active_conns.fetch_sub(1, Ordering::SeqCst);
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared, busy: &AtomicBool) {
    let _ = stream.set_read_timeout(shared.cfg.read_timeout);
    let _ = stream.set_write_timeout(shared.cfg.write_timeout);
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    // One line buffer per connection: a warm session replaying thousands of
    // deltas reuses it at its high-water capacity instead of allocating a
    // fresh Vec + String per request.
    let mut line_buf: Vec<u8> = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match read_request_line_into(&mut reader, shared.cfg.max_line_bytes, &mut line_buf) {
            Ok(LineStatus::Line) => {}
            Ok(LineStatus::Eof) => break,
            Ok(LineStatus::Oversized) => {
                shared.errors.fetch_add(1, Ordering::Relaxed);
                mdg_obs::counter("serve/errors/oversized").add(1);
                let resp = ErrorResponse::new(
                    "oversized",
                    format!(
                        "request line exceeds {} bytes; closing connection",
                        shared.cfg.max_line_bytes
                    ),
                );
                let _ = write_response_line(&mut writer, &resp);
                break;
            }
            // Read timeout or disconnect mid-line: nothing to answer.
            Err(_) => break,
        }
        // Borrowed Cow in the valid-UTF-8 common case — no copy.
        let line = String::from_utf8_lossy(&line_buf);
        if line.trim().is_empty() {
            continue;
        }
        shared.requests.fetch_add(1, Ordering::Relaxed);
        // Busy window: from accepted line to written response. The drain
        // logic only force-closes sockets outside this window, so an
        // in-flight request always gets its answer.
        busy.store(true, Ordering::SeqCst);
        let (response_json, close_after) = dispatch_guarded(&line, shared);
        let write_result = write_json_line(&mut writer, &response_json);
        busy.store(false, Ordering::SeqCst);
        if write_result.is_err() {
            // Client vanished mid-request; state is already consistent.
            break;
        }
        if close_after {
            break;
        }
    }
}

/// Writes an already-serialized JSON response as one `\n`-terminated line
/// (the dispatcher serializes each concrete response type itself so one
/// writer call can send any of them).
fn write_json_line<W: io::Write>(writer: &mut W, json: &str) -> io::Result<()> {
    writer.write_all(json.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// Runs the dispatcher under `catch_unwind`. A panic evicts the session
/// the request named (its invariants can no longer be trusted) and
/// reports `internal` — the daemon itself never dies.
fn dispatch_guarded(line: &str, shared: &Shared) -> (String, bool) {
    match catch_unwind(AssertUnwindSafe(|| dispatch(line, shared))) {
        Ok(result) => result,
        Err(panic) => {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            mdg_obs::counter("serve/errors/internal").add(1);
            let msg = panic_message(&panic);
            if let Ok(req) = serde_json::from_str::<Request>(line) {
                if let Some(field) = req.field {
                    if lock_unpoisoned(&shared.sessions).remove(&field) {
                        eprintln!("mdg-serve: handler panicked ({msg}); evicted session `{field}`");
                    }
                }
            }
            (
                error_json("internal", format!("request handler panicked: {msg}")),
                false,
            )
        }
    }
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".into()
    }
}

/// Hand-written last-resort error line for when serialization itself
/// fails: the one response that cannot fail to build.
const FALLBACK_ERROR: &str =
    r#"{"ok":false,"error":{"code":"internal","message":"response serialization failed"}}"#;

fn error_json(code: &str, message: impl Into<String>) -> String {
    // Serialization of these plain structs cannot realistically fail
    // (the vendored serializer maps non-finite floats to `null` rather
    // than erroring), but a panic here would tear down the request path
    // on the least-expected line — degrade to a static error instead.
    serde_json::to_string(&ErrorResponse::new(code, message))
        .unwrap_or_else(|_| FALLBACK_ERROR.to_string())
}

fn ok_json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).unwrap_or_else(|_| FALLBACK_ERROR.to_string())
}

/// Parses and executes one request line. Returns the response JSON and
/// whether the connection should close afterwards.
fn dispatch(line: &str, shared: &Shared) -> (String, bool) {
    let req: Request = match serde_json::from_str(line) {
        Ok(r) => r,
        Err(e) => {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            mdg_obs::counter("serve/errors/bad_json").add(1);
            return (
                error_json("bad_json", format!("malformed request: {e}")),
                false,
            );
        }
    };
    let cmd = req.cmd.clone().unwrap_or_default();
    let t0 = Instant::now();
    let result = match cmd.as_str() {
        "plan" => handle_plan(&req, shared).map(|r| (r, false)),
        "delta" => handle_delta(&req, shared).map(|r| (r, false)),
        "get_plan" => handle_get_plan(&req, shared).map(|r| (r, false)),
        "metrics" => Ok((handle_metrics(shared), false)),
        "shutdown" => {
            shared.shutdown.store(true, Ordering::SeqCst);
            Ok((
                ok_json(&ShutdownResponse {
                    ok: true,
                    draining: true,
                }),
                true,
            ))
        }
        "" => Err(("bad_request".to_string(), "missing `cmd`".to_string())),
        other => Err((
            "unknown_cmd".to_string(),
            format!("unknown cmd `{other}` (plan|delta|get_plan|metrics|shutdown)"),
        )),
    };
    // Per-request latency, measured on this thread for this request only —
    // immune to concurrent-request smearing by construction.
    let known_cmd = matches!(
        cmd.as_str(),
        "plan" | "delta" | "get_plan" | "metrics" | "shutdown"
    );
    if known_cmd {
        mdg_obs::counter(&format!("serve/requests/{cmd}")).add(1);
        mdg_obs::histogram(&format!("serve/latency_us/{cmd}"))
            .record(t0.elapsed().as_micros() as u64);
    }
    match result {
        Ok((json, close)) => (json, close),
        Err((code, message)) => {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            mdg_obs::counter(&format!("serve/errors/{code}")).add(1);
            (error_json(&code, message), false)
        }
    }
}

type HandlerError = (String, String);

fn bad_request(msg: impl Into<String>) -> HandlerError {
    ("bad_request".into(), msg.into())
}

fn required_field(req: &Request) -> Result<String, HandlerError> {
    match &req.field {
        Some(f) if !f.is_empty() => Ok(f.clone()),
        _ => Err(bad_request("missing `field` (session name)")),
    }
}

fn handle_plan(req: &Request, shared: &Shared) -> Result<String, HandlerError> {
    let _sp = mdg_obs::span("serve/plan");
    let field = required_field(req)?;
    let range = req.range.ok_or_else(|| bad_request("plan needs `range`"))?;
    if !(range.is_finite() && range > 0.0) {
        return Err(bad_request(format!("range must be positive, got {range}")));
    }
    if range > MAX_COORD {
        return Err(bad_request(format!(
            "range {range} exceeds the {MAX_COORD:e} m bound"
        )));
    }
    let deployment = build_deployment(req, shared)?;
    if deployment.sensors.is_empty() {
        return Err(bad_request("plan needs at least one sensor"));
    }
    // Planning runs outside the table lock: a slow cold plan must not
    // block lookups for other sessions. Large fields get a hierarchical
    // session (dirty-tile deltas); small ones keep the flat planner.
    let session = FieldSession::plan_cold_auto(
        &field,
        deployment,
        range,
        PlannerConfig::default(),
        shared.cfg.hier_threshold,
    )
    .map_err(|e| bad_request(format!("planning failed: {e}")))?;
    let summary = summarize(&session, "cold", session.stats.cold_plan_ms);
    let evicted = lock_unpoisoned(&shared.sessions).insert(
        field,
        session,
        shared.cfg.max_sessions,
        shared.cfg.max_session_bytes,
    );
    log_evictions(&evicted);
    Ok(ok_json(&summary))
}

fn build_deployment(req: &Request, shared: &Shared) -> Result<Deployment, HandlerError> {
    if let Some(sensors) = &req.sensors {
        if sensors.len() > shared.cfg.max_sensors {
            return Err(bad_request(format!(
                "{} sensors exceeds the per-session bound of {}",
                sensors.len(),
                shared.cfg.max_sensors
            )));
        }
        for p in sensors {
            if !(p.x.is_finite() && p.y.is_finite()) {
                return Err(bad_request("sensor positions must be finite"));
            }
            if p.x.abs() > MAX_COORD || p.y.abs() > MAX_COORD {
                return Err(bad_request(format!(
                    "sensor positions must be within ±{MAX_COORD:e} m"
                )));
            }
        }
        let field = Aabb::from_points(sensors)
            .ok_or_else(|| bad_request("plan needs at least one sensor"))?;
        let sink = req.sink.unwrap_or_else(|| field.center());
        if !(sink.x.is_finite() && sink.y.is_finite()) {
            return Err(bad_request("sink position must be finite"));
        }
        if sink.x.abs() > MAX_COORD || sink.y.abs() > MAX_COORD {
            return Err(bad_request(format!(
                "sink position must be within ±{MAX_COORD:e} m"
            )));
        }
        Ok(Deployment {
            sensors: sensors.clone(),
            sink,
            field,
        })
    } else {
        let n = req
            .n
            .ok_or_else(|| bad_request("plan needs `sensors` or `n`+`side`"))?
            as usize;
        if n == 0 || n > shared.cfg.max_sensors {
            return Err(bad_request(format!(
                "n must be in 1..={}, got {n}",
                shared.cfg.max_sensors
            )));
        }
        let side = req
            .side
            .ok_or_else(|| bad_request("generated plan needs `side`"))?;
        if !(side.is_finite() && side > 0.0) {
            return Err(bad_request(format!("side must be positive, got {side}")));
        }
        if side > MAX_COORD {
            return Err(bad_request(format!(
                "side {side} exceeds the {MAX_COORD:e} m bound"
            )));
        }
        let seed = req.seed.unwrap_or(42);
        Ok(DeploymentConfig::uniform(n, side).generate(seed))
    }
}

fn handle_delta(req: &Request, shared: &Shared) -> Result<String, HandlerError> {
    let _sp = mdg_obs::span("serve/delta");
    let field = required_field(req)?;
    let handle = lock_unpoisoned(&shared.sessions)
        .touch(&field)
        .ok_or_else(|| {
            (
                "unknown_session".to_string(),
                format!("no session named `{field}` (create it with `plan`)"),
            )
        })?;
    // Borrow the request's own slices — no per-delta clone of the died /
    // added lists (at n=1M churn these are the largest request payloads).
    let died: &[u64] = req.died.as_deref().unwrap_or(&[]);
    let added = req.added.as_deref().unwrap_or(&[]);
    let mut session = lock_unpoisoned(&handle);
    if session.alive().len() + added.len() > shared.cfg.max_sensors {
        return Err(bad_request(format!(
            "delta would grow the session past the {}-sensor bound",
            shared.cfg.max_sensors
        )));
    }
    let outcome = match session.apply_delta(died, added, req.range) {
        Ok(outcome) => outcome,
        // Rejected during validation: the session is untouched and stays.
        Err(DeltaError::Invalid(msg)) => return Err(bad_request(msg)),
        // Mutated and then failed validation: serving this session again
        // would hand out a corrupt plan. Evict it (the delta handler's
        // equivalent of the panic path) and tell the client to re-plan.
        Err(DeltaError::Corrupt(msg)) => {
            drop(session);
            if lock_unpoisoned(&shared.sessions).remove_session(&field, &handle) {
                mdg_obs::counter("serve/sessions/evicted").add(1);
                eprintln!("mdg-serve: delta corrupted session `{field}` ({msg}); evicted");
            }
            return Err((
                "internal".to_string(),
                format!(
                    "delta left the session invalid ({msg}); session evicted, re-plan with `plan`"
                ),
            ));
        }
    };
    match outcome.mode {
        DeltaMode::Repair => mdg_obs::counter("serve/repairs").add(1),
        DeltaMode::Replan => mdg_obs::counter("serve/full_replans").add(1),
        DeltaMode::Noop => {}
    }
    let response = ok_json(&summarize(
        &session,
        outcome.mode.as_str(),
        outcome.elapsed_ms,
    ));
    // Refresh the footprint estimate under the table lock only — the
    // session guard is dropped first (metrics holds the table lock while
    // locking sessions, so the reverse order would be a deadlock).
    let bytes = session.approx_bytes();
    drop(session);
    let evicted = lock_unpoisoned(&shared.sessions).set_bytes(
        &field,
        &handle,
        bytes,
        shared.cfg.max_sessions,
        shared.cfg.max_session_bytes,
    );
    log_evictions(&evicted);
    Ok(response)
}

fn log_evictions(evicted: &[String]) {
    for name in evicted {
        mdg_obs::counter("serve/sessions/evicted").add(1);
        eprintln!("mdg-serve: session table over budget; evicted LRU session `{name}`");
    }
}

fn handle_get_plan(req: &Request, shared: &Shared) -> Result<String, HandlerError> {
    let _sp = mdg_obs::span("serve/get_plan");
    let field = required_field(req)?;
    let session = lock_unpoisoned(&shared.sessions)
        .touch(&field)
        .ok_or_else(|| {
            (
                "unknown_session".to_string(),
                format!("no session named `{field}` (create it with `plan`)"),
            )
        })?;
    let session = lock_unpoisoned(&session);
    Ok(ok_json(&GetPlanReply {
        field: &session.name,
        generation: session.generation,
        range: session.range(),
        plan: session.plan(),
    }))
}

fn handle_metrics(shared: &Shared) -> String {
    let _sp = mdg_obs::span("serve/metrics");
    let now = mdg_obs::snapshot();
    let delta = now.diff(&lock_unpoisoned(&shared.obs_baseline));
    let (sessions, evictions) = {
        let table = lock_unpoisoned(&shared.sessions);
        (table.infos(), table.evictions)
    };
    ok_json(&MetricsResponse {
        ok: true,
        protocol: PROTOCOL_VERSION,
        uptime_secs: shared.started.elapsed().as_secs_f64(),
        requests: shared.requests.load(Ordering::Relaxed),
        errors: shared.errors.load(Ordering::Relaxed),
        evictions,
        sessions,
        spans: delta
            .spans
            .iter()
            .map(|s| SpanEntry {
                path: s.path.clone(),
                calls: s.calls,
                wall_nanos: s.wall_nanos,
                items: s.items,
            })
            .collect(),
        counters: delta
            .counters
            .iter()
            .map(|(path, value)| CounterEntry {
                path: path.clone(),
                value: *value,
            })
            .collect(),
        hists: delta
            .hists
            .iter()
            .map(|h| HistEntry {
                path: h.path.clone(),
                count: h.count,
                buckets: h.buckets.clone(),
            })
            .collect(),
    })
}

fn summarize(session: &FieldSession, mode: &str, elapsed_ms: f64) -> PlanSummary {
    PlanSummary {
        ok: true,
        field: session.name.clone(),
        mode: mode.to_string(),
        generation: session.generation,
        n_sensors: session.alive().len() as u64,
        live: session.n_live() as u64,
        polling_points: session.plan().n_polling_points() as u64,
        tour_m: session.plan().tour_length,
        elapsed_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(seed: u64) -> FieldSession {
        let field = DeploymentConfig::uniform(50, 100.0).generate(seed);
        FieldSession::plan_cold("f", field, 30.0, PlannerConfig::default()).unwrap()
    }

    #[test]
    fn writes_carrying_a_replaced_session_leave_its_successor_alone() {
        let mut table = SessionTable::new();
        table.insert("f".into(), session(1), 8, u64::MAX);
        let old = table.touch("f").unwrap();
        // A concurrent `plan` replaces the field.
        table.insert("f".into(), session(2), 8, u64::MAX);
        let bytes = table.map["f"].bytes;
        assert!(!table.remove_session("f", &old));
        assert!(table.set_bytes("f", &old, 1, 8, u64::MAX).is_empty());
        let entry = &table.map["f"];
        assert!(
            !Arc::ptr_eq(&entry.session, &old),
            "the fresh session stays"
        );
        assert_eq!(entry.bytes, bytes, "and keeps its own footprint");
        // The entry's own handle still acts.
        let fresh = table.touch("f").unwrap();
        assert!(table.set_bytes("f", &fresh, 1, 8, u64::MAX).is_empty());
        assert_eq!(table.map["f"].bytes, 1);
        assert!(table.remove_session("f", &fresh));
        assert!(table.map.is_empty());
    }
}
