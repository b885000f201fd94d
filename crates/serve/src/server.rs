//! The `serr serve` daemon: a supervised estimation pipeline behind a
//! JSONL socket.
//!
//! ```text
//!                 ┌───────────────────────────────────────────────┐
//!   client ──────▶│ reader thread: parse + admission control      │
//!                 │   shed on: full queue, predicted deadline     │
//!                 │   miss, shutdown in progress                  │
//!                 └──────────────┬────────────────────────────────┘
//!                    ingress queue (bounded → backpressure)
//!                 ┌──────────────▼────────────────────────────────┐
//!                 │ worker pool: trace cache (LRU, verify-on-hit),│
//!                 │   then the shared-stream kernel + Validator   │
//!                 │   deadline → truncated, honestly-widened CI   │
//!                 └──────────────┬────────────────────────────────┘
//!                 per-connection writer thread ──▶ client
//! ```
//!
//! The pool is supervised ([`crate::supervisor`]): a worker panic kills
//! one request's worker, never the service, and the slot restarts under
//! bounded exponential backoff. Every admitted request reaches exactly one
//! typed terminal state (`result` | `degraded` | `shed` | `error`); the
//! terminal ledger counts any double-completion into
//! `serve.double_terminal`, which the chaos soak pins at zero.
//!
//! Estimates are **bit-identical to the batch CLI** because the service
//! shares its entire computation path: [`ExperimentConfig::cli`],
//! [`WorkloadSpec::trace`](serr_core::workspec::WorkloadSpec), and
//! [`Validator`] with the same [`MonteCarloConfig`] defaults. Every
//! estimation body is a list of rates run through one shared-stream kernel
//! call — `mttf` is `[r]`, `sofr` is `[c·r]`, `sweep` its list — and a
//! one-rate run of that kernel is bit-identical to an independent run.
//!
//! Graceful shutdown drains the ingress queue into the `serve-pending`
//! checkpoint journal; a fresh server replays journaled work at startup,
//! and completed clean results live in the `serve-results` journal, so a
//! re-request after restart is answered from the journal (`resumed: true`)
//! bit-identically instead of recomputed.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serr_core::checkpoint::{fingerprint, Journal};
use serr_core::experiments::ExperimentConfig;
use serr_core::jsonio::Json;
use serr_core::prelude::{
    BackoffPolicy, FaultPlan, MonteCarloConfig, MttfEstimate, Provenance, RawErrorRate,
    SamplerKind, Validator, VulnerabilityTrace, WorkloadSpec,
};
use serr_inject::ServeFault;
use serr_mc::batched::BATCHED_RNG_SCHEDULE_VERSION;
use serr_obs::{Event, Obs};

use crate::cache::{CacheOutcome, CachedTrace, TraceCache};
use crate::protocol::{Estimate, FrameError, Request, RequestBody, Response, MAX_FRAME_BYTES};
use crate::queue::{Bounded, PushError};
use crate::supervisor::{Pool, WorkerExit};

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Bind {
    /// A unix-domain socket at this path.
    Unix(PathBuf),
    /// A TCP address, e.g. `127.0.0.1:7979` (`:0` picks a free port).
    Tcp(String),
}

impl Bind {
    /// Parses `unix:PATH` or `tcp:ADDR`.
    ///
    /// # Errors
    ///
    /// [`serr_types::SerrError::InvalidConfig`] for any other shape.
    pub fn parse(s: &str) -> Result<Bind, serr_types::SerrError> {
        if let Some(path) = s.strip_prefix("unix:") {
            return Ok(Bind::Unix(PathBuf::from(path)));
        }
        if let Some(addr) = s.strip_prefix("tcp:") {
            return Ok(Bind::Tcp(addr.to_owned()));
        }
        Err(serr_types::SerrError::invalid_config(format!(
            "bind address must be unix:PATH or tcp:ADDR, got `{s}`"
        )))
    }
}

impl std::fmt::Display for Bind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Bind::Unix(p) => write!(f, "unix:{}", p.display()),
            Bind::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// One live client connection, unix or TCP.
#[derive(Debug)]
pub(crate) enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    pub(crate) fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }

    fn shutdown(&self) {
        let _ = match self {
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }

    pub(crate) fn connect(bind: &Bind) -> std::io::Result<Stream> {
        Ok(match bind {
            Bind::Unix(p) => Stream::Unix(UnixStream::connect(p)?),
            Bind::Tcp(a) => Stream::Tcp(TcpStream::connect(a)?),
        })
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

enum Listener {
    Unix(UnixListener, PathBuf),
    Tcp(TcpListener),
}

impl Listener {
    fn bind(bind: &Bind) -> std::io::Result<Listener> {
        match bind {
            Bind::Unix(p) => {
                // A stale socket file from a dead server blocks rebinding.
                let _ = std::fs::remove_file(p);
                Ok(Listener::Unix(UnixListener::bind(p)?, p.clone()))
            }
            Bind::Tcp(a) => Ok(Listener::Tcp(TcpListener::bind(a)?)),
        }
    }

    fn set_nonblocking(&self) -> std::io::Result<()> {
        match self {
            Listener::Unix(l, _) => l.set_nonblocking(true),
            Listener::Tcp(l) => l.set_nonblocking(true),
        }
    }

    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        }
    }

    fn resolved_bind(&self) -> std::io::Result<Bind> {
        match self {
            Listener::Unix(_, p) => Ok(Bind::Unix(p.clone())),
            Listener::Tcp(l) => Ok(Bind::Tcp(l.local_addr()?.to_string())),
        }
    }
}

/// Daemon configuration. [`ServeConfig::new`] picks the defaults the CLI
/// uses; every knob is public for tests and tuning.
#[derive(Debug)]
pub struct ServeConfig {
    /// Where to listen.
    pub bind: Bind,
    /// Worker slots; each worker fetches its request's trace from the cache
    /// and then estimates. Zero is allowed (all admitted work queues until
    /// shutdown drains it — used by the drain/resume tests).
    pub workers: usize,
    /// Capacity of the bounded ingress queue; the admission controller
    /// sheds beyond this depth.
    pub queue_depth: usize,
    /// Trace-cache capacity (distinct canonical workloads).
    pub cache_capacity: usize,
    /// Checkpoint directory for the `serve-results`/`serve-pending`
    /// journals; `None` disables persistence (no resume after restart).
    pub journal_dir: Option<PathBuf>,
    /// Deterministic service-layer fault injection (chaos soak only).
    pub chaos: Option<FaultPlan>,
    /// The experiment configuration — MUST be [`ExperimentConfig::cli`]
    /// for bit-parity with the batch CLI.
    pub experiment: ExperimentConfig,
    /// Monte Carlo worker threads per estimate (0 = all cores). Estimates
    /// are bit-identical at any setting.
    pub mc_threads: usize,
    /// Telemetry sink; counters back the `stats` request.
    pub obs: Obs,
}

impl ServeConfig {
    /// CLI defaults: 2 workers, a depth-64 queue, 8-entry cache,
    /// `SERR_THREADS` honored exactly like the batch commands.
    #[must_use]
    pub fn new(bind: Bind) -> ServeConfig {
        let mc_threads = std::env::var("SERR_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(0);
        ServeConfig {
            bind,
            workers: 2,
            queue_depth: 64,
            cache_capacity: 8,
            journal_dir: None,
            chaos: None,
            experiment: ExperimentConfig::cli(),
            mc_threads,
            obs: Obs::disabled(),
        }
    }
}

/// One line bound for a connection's writer thread.
struct WireOut {
    line: String,
    /// Injected [`ServeFault::SocketDrop`]: write half the bytes, then
    /// sever the connection.
    torn: bool,
}

/// An admitted estimation request waiting for a worker.
struct Job {
    tag: u64,
    id: u64,
    body: RequestBody,
    /// Absolute deadline and the original budget in ms.
    deadline: Option<(Instant, u64)>,
    canonical: String,
    /// Reply channel; `None` for internal (journal-replayed) jobs.
    reply: Option<mpsc::Sender<WireOut>>,
    /// Journal-replayed work: exempt from chaos and from deadlines.
    internal: bool,
}

struct Journals {
    results: Journal,
    pending: Journal,
    next_result: usize,
    next_pending: usize,
}

struct State {
    experiment: ExperimentConfig,
    mc_threads: usize,
    chaos: Option<FaultPlan>,
    obs: Obs,
    queue_depth: usize,
    ingress: Bounded<Job>,
    cache: TraceCache,
    /// Completed clean results by canonical body — the resume source.
    results: Mutex<HashMap<String, Estimate>>,
    journals: Mutex<Option<Journals>>,
    shutting_down: AtomicBool,
    stop_accept: AtomicBool,
    drain_once: AtomicBool,
    /// tag → terminal state; a second terminal for one tag is the bug the
    /// chaos soak exists to catch.
    ledger: Mutex<HashMap<u64, &'static str>>,
    /// EWMA of estimate wall time in ms, feeding deadline-miss prediction.
    ewma_ms: Mutex<f64>,
    seq: AtomicU64,
    event_seq: AtomicU64,
    pool: Mutex<Option<Pool>>,
    done: (Mutex<bool>, Condvar),
}

impl State {
    fn next_event_seq(&self) -> u64 {
        self.event_seq.fetch_add(1, Ordering::SeqCst)
    }

    fn record_terminal(&self, tag: u64, state: &'static str) {
        let prior = {
            let mut ledger = self.ledger.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            ledger.insert(tag, state)
        };
        if prior.is_some() {
            self.obs.metrics().add("serve.double_terminal", 1);
        }
        self.obs.metrics().add(
            match state {
                "result" => "serve.results",
                "degraded" => "serve.degraded",
                "shed" => "serve.shed",
                _ => "serve.errors",
            },
            1,
        );
    }

    /// Records the terminal state and ships the response line (when the
    /// requester is still connected — internal jobs and gone clients have
    /// no channel, but the terminal state is recorded regardless).
    fn respond(
        &self,
        reply: Option<&mpsc::Sender<WireOut>>,
        tag: u64,
        resp: &Response,
        torn: bool,
    ) {
        self.record_terminal(tag, resp.state());
        if let Some(tx) = reply {
            let _ = tx.send(WireOut { line: resp.to_line(), torn });
        }
    }

    fn shed(&self, reply: Option<&mpsc::Sender<WireOut>>, tag: u64, id: u64, reason: &str) {
        self.respond(reply, tag, &Response::Shed { id, reason: reason.to_owned() }, false);
    }

    fn fresh_tag(&self) -> u64 {
        // Internal tags live far above any plausible client tag space so
        // they never collide with soak-chosen tags in the ledger.
        1u64 << 63 | self.seq.fetch_add(1, Ordering::SeqCst)
    }

    /// Journals an undone request body so a restarted server replays it.
    fn journal_pending(&self, canonical: &str) {
        let mut g = self.journals.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(j) = g.as_mut() {
            let row = Json::Obj(vec![("body".to_owned(), Json::Str(canonical.to_owned()))]);
            if j.pending.record(j.next_pending, &row).is_ok() {
                j.next_pending += 1;
            }
        }
    }

    /// Journals a completed clean result and publishes it to the resume map.
    fn publish_result(&self, canonical: &str, est: &Estimate) {
        {
            let mut g = self.journals.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(j) = g.as_mut() {
                let mut fields = vec![("body".to_owned(), Json::Str(canonical.to_owned()))];
                fields.extend(est.to_fields());
                if j.results.record(j.next_result, &Json::Obj(fields)).is_ok() {
                    j.next_result += 1;
                }
            }
        }
        self.results
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(canonical.to_owned(), est.clone());
        self.obs.metrics().add("serve.results_published", 1);
    }

    fn update_ewma(&self, elapsed_ms: f64) {
        let mut ewma = self.ewma_ms.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *ewma = if *ewma == 0.0 { elapsed_ms } else { 0.8 * *ewma + 0.2 * elapsed_ms };
        self.obs.metrics().set_gauge("serve.ewma_estimate_ms", *ewma);
    }

    /// The admission controller's deadline check: with `depth` requests
    /// ahead of this one and the current EWMA service time, would the
    /// budget already be blown before work starts?
    fn predicts_deadline_miss(&self, deadline_ms: u64) -> Option<f64> {
        let ewma = *self.ewma_ms.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let depth = (self.ingress.len() + 1) as f64;
        let predicted = depth * ewma;
        (predicted > deadline_ms as f64).then_some(predicted)
    }
}

/// A running `serr serve` daemon.
pub struct Server {
    state: Arc<State>,
    bind: Bind,
    accept: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("bind", &self.bind).finish_non_exhaustive()
    }
}

impl Server {
    /// Binds, loads the journals, spawns the supervised pool and the
    /// accept loop, and replays any journaled pending work.
    ///
    /// # Errors
    ///
    /// Bind or journal failures (the journal uses
    /// [`Journal::open_with_retry`] under [`BackoffPolicy::journal`], so a
    /// transiently locked journal is retried before giving up).
    pub fn start(cfg: ServeConfig) -> Result<Server, serr_types::SerrError> {
        let listener = Listener::bind(&cfg.bind)
            .map_err(|e| serr_types::SerrError::io(format!("bind {}", cfg.bind), e.to_string()))?;
        let bind = listener
            .resolved_bind()
            .map_err(|e| serr_types::SerrError::io("resolve bind", e.to_string()))?;

        let state = Arc::new(State {
            experiment: cfg.experiment,
            mc_threads: cfg.mc_threads,
            chaos: cfg.chaos,
            obs: cfg.obs,
            queue_depth: cfg.queue_depth,
            ingress: Bounded::new(cfg.queue_depth),
            cache: TraceCache::new(cfg.cache_capacity),
            results: Mutex::new(HashMap::new()),
            journals: Mutex::new(None),
            shutting_down: AtomicBool::new(false),
            stop_accept: AtomicBool::new(false),
            drain_once: AtomicBool::new(false),
            ledger: Mutex::new(HashMap::new()),
            ewma_ms: Mutex::new(0.0),
            seq: AtomicU64::new(0),
            event_seq: AtomicU64::new(0),
            pool: Mutex::new(None),
            done: (Mutex::new(false), Condvar::new()),
        });

        let replay = Self::open_journals(&state, cfg.journal_dir.as_deref())?;
        Self::spawn_pool(&state, cfg.workers);

        // Replay journaled pending work as internal jobs — chaos-exempt,
        // no deadline, no reply channel; their clean results land in the
        // results journal, so re-requests are answered bit-identically. A
        // body this build no longer parses (say, a retired sampler label)
        // is dropped with a warning, never silently.
        for (i, canonical) in replay.into_iter().enumerate() {
            let Some(body) = body_from_canonical(&canonical) else {
                state.obs.emit(
                    Event::warn("serve.replay_dropped", i as u64)
                        .with("body", canonical)
                        .with("action", "pending request dropped; a re-request recomputes"),
                );
                state.obs.metrics().add("serve.replay_dropped", 1);
                continue;
            };
            let job = Job {
                tag: state.fresh_tag(),
                id: 0,
                body,
                deadline: None,
                canonical,
                reply: None,
                internal: true,
            };
            state.obs.metrics().add("serve.replayed_pending", 1);
            if state.ingress.push(job).is_err() {
                break; // shutting down already
            }
        }

        let accept = {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("serr-serve/accept".to_owned())
                .spawn(move || accept_loop(&state, &listener))
                .expect("accept thread spawn")
        };
        Ok(Server { state, bind, accept: Some(accept) })
    }

    fn open_journals(
        state: &Arc<State>,
        dir: Option<&std::path::Path>,
    ) -> Result<Vec<String>, serr_types::SerrError> {
        let Some(dir) = dir else { return Ok(Vec::new()) };
        let fp = journal_fingerprint(&state.experiment);
        let policy = BackoffPolicy::journal(state.experiment.seed);

        // A journal with a damaged store header or a foreign format version
        // cannot be trusted byte-for-byte — reset it and degrade (prior
        // results recompute on demand; pending work is simply gone) instead
        // of refusing to start. Lock contention and I/O errors stay fatal:
        // they are environmental, not a statement about the bytes.
        let open =
            |kind: &str, fresh: bool| match Journal::open_with_retry(dir, kind, fp, fresh, &policy)
            {
                Err(e) if e.is_deterministic_corruption() => {
                    state.obs.emit(
                        Event::warn("serve.journal_reset", 0)
                            .with("journal", kind)
                            .with("reason", e.to_string())
                            .with("action", "journal reset; prior entries recompute on demand"),
                    );
                    state.obs.metrics().add("serve.journal_resets", 1);
                    Journal::open_with_retry(dir, kind, fp, true, &policy)
                }
                other => other,
            };

        let results = open("serve-results", false)?;
        let next_result = results.completed().keys().next_back().map_or(0, |k| k + 1);
        {
            let mut map = state.results.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            for row in results.completed().values() {
                if let (Some(body), Some(est)) =
                    (row.get("body").and_then(Json::as_str), Estimate::from_fields(row))
                {
                    map.insert(body.to_owned(), est);
                }
            }
            state.obs.metrics().add("serve.journal_results_loaded", map.len() as u64);
        }

        // Pending rows from the previous run are replayed now, so the
        // journal restarts empty (fresh) for this run's own drain.
        let replay: Vec<String> = {
            let pending = open("serve-pending", false)?;
            pending
                .completed()
                .values()
                .filter_map(|row| row.get("body").and_then(Json::as_str).map(str::to_owned))
                .collect()
        };
        let pending = Journal::open_with_retry(dir, "serve-pending", fp, true, &policy)?;
        *state.journals.lock().unwrap_or_else(std::sync::PoisonError::into_inner) =
            Some(Journals { results, pending, next_result, next_pending: 0 });
        Ok(replay)
    }

    fn spawn_pool(state: &Arc<State>, workers: usize) {
        let restart_policy = BackoffPolicy {
            max_attempts: u32::MAX,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(100),
            jitter_seed: state.experiment.seed,
        };
        let pool = Pool::spawn(
            "worker",
            workers,
            restart_policy,
            {
                let state = Arc::clone(state);
                Arc::new(move |_slot| work(&state))
            },
            {
                let state = Arc::clone(state);
                Arc::new(move |slot: usize| {
                    state.obs.metrics().add("serve.worker_restarts", 1);
                    state.obs.emit(
                        Event::warn("serve.worker_restart", state.next_event_seq())
                            .with("slot", slot as u64),
                    );
                })
            },
        );
        *state.pool.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(pool);
    }

    /// The address actually bound — for `tcp:HOST:0`, the resolved port.
    #[must_use]
    pub fn bind_addr(&self) -> &Bind {
        &self.bind
    }

    /// Triggers the graceful shutdown sequence from the host process (the
    /// wire `shutdown` request does the same).
    pub fn shutdown(&self) {
        trigger_shutdown(&self.state);
    }

    /// Blocks until the daemon has fully shut down (drained, journaled,
    /// stopped accepting).
    pub fn wait(mut self) {
        let (lock, cvar) = &self.state.done;
        let mut done = lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        while !*done {
            done = cvar.wait(done).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        drop(done);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

/// Starts the drain sequence exactly once, on its own thread so the
/// triggering reader thread can keep servicing its connection.
fn trigger_shutdown(state: &Arc<State>) {
    if state.drain_once.swap(true, Ordering::SeqCst) {
        return;
    }
    state.shutting_down.store(true, Ordering::SeqCst);
    let state = Arc::clone(state);
    std::thread::Builder::new()
        .name("serr-serve/shutdown".to_owned())
        .spawn(move || drain_and_stop(&state))
        .expect("shutdown thread spawn");
}

/// The graceful shutdown sequence, so no in-flight request is lost —
/// everything not completed is journaled and answered with a typed `shed`.
fn drain_and_stop(state: &Arc<State>) {
    let Some(pool) = state.pool.lock().unwrap_or_else(std::sync::PoisonError::into_inner).take()
    else {
        return;
    };

    // 1. Close the queue and journal what it still holds. Workers finish
    //    the job they hold, then retire (pop → None).
    pool.begin_shutdown();
    state.ingress.close();
    for job in state.ingress.drain() {
        state.journal_pending(&job.canonical);
        state.shed(job.reply.as_ref(), job.tag, job.id, "draining; journaled for restart resume");
    }
    pool.join();

    // 2. Release the journal locks so a successor can open them.
    state.journals.lock().unwrap_or_else(std::sync::PoisonError::into_inner).take();

    // 3. Stop accepting and wake `Server::wait`.
    state.stop_accept.store(true, Ordering::SeqCst);
    let (lock, cvar) = &state.done;
    *lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = true;
    cvar.notify_all();
}

fn accept_loop(state: &Arc<State>, listener: &Listener) {
    if listener.set_nonblocking().is_err() {
        // Cannot poll the stop flag without non-blocking accept; shut down
        // rather than hang forever.
        trigger_shutdown(state);
        return;
    }
    while !state.stop_accept.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(stream) => {
                let _ = match &stream {
                    Stream::Unix(s) => s.set_nonblocking(false),
                    Stream::Tcp(s) => s.set_nonblocking(false),
                };
                spawn_connection(state, stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    if let Listener::Unix(_, path) = listener {
        let _ = std::fs::remove_file(path);
    }
}

/// One reader + one writer thread per connection. The reader exits on
/// client disconnect (so it is deliberately not joined at shutdown: a
/// connected-but-idle client would otherwise block the drain); the writer
/// exits when every reply sender for this connection is gone.
fn spawn_connection(state: &Arc<State>, stream: Stream) {
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (tx, rx) = mpsc::channel::<WireOut>();
    std::thread::Builder::new()
        .name("serr-serve/writer".to_owned())
        .spawn(move || writer_loop(write_half, &rx))
        .expect("writer thread spawn");
    let state = Arc::clone(state);
    std::thread::Builder::new()
        .name("serr-serve/reader".to_owned())
        .spawn(move || reader_loop(&state, stream, &tx))
        .expect("reader thread spawn");
}

fn writer_loop(mut stream: Stream, rx: &mpsc::Receiver<WireOut>) {
    while let Ok(out) = rx.recv() {
        if out.torn {
            // Injected SocketDrop: half the payload, then sever. The
            // request's terminal state is already recorded server-side;
            // the client sees a torn line + EOF and may simply re-request
            // (answered `resumed: true`, bit-identically, from the
            // results journal).
            let bytes = out.line.as_bytes();
            let _ = stream.write_all(&bytes[..bytes.len() / 2]);
            let _ = stream.flush();
            stream.shutdown();
            return;
        }
        if stream.write_all(out.line.as_bytes()).is_err()
            || stream.write_all(b"\n").is_err()
            || stream.flush().is_err()
        {
            return;
        }
    }
}

/// Reads frames with a hard per-line byte bound: a frame exceeding
/// [`MAX_FRAME_BYTES`] is answered with a typed error and the rest of the
/// line discarded, so an oversized (or endless) frame cannot exhaust
/// memory.
fn reader_loop(state: &Arc<State>, stream: Stream, tx: &mpsc::Sender<WireOut>) {
    let mut reader = BufReader::new(stream);
    let limit = (MAX_FRAME_BYTES + 2) as u64;
    let mut buf: Vec<u8> = Vec::new();
    loop {
        buf.clear();
        let n = match reader.by_ref().take(limit).read_until(b'\n', &mut buf) {
            Ok(n) => n,
            Err(_) => return,
        };
        if n == 0 {
            return; // client disconnected
        }
        if !buf.ends_with(b"\n") && n as u64 == limit {
            // The line kept going past the frame bound: reject and skip
            // to the next newline without buffering the excess.
            let tag = state.fresh_tag();
            state.obs.metrics().add("serve.requests", 1);
            state.respond(
                Some(tx),
                tag,
                &Response::Error {
                    id: None,
                    error: format!("oversized frame: more than {MAX_FRAME_BYTES} bytes"),
                    budget_s: None,
                    elapsed_s: None,
                },
                false,
            );
            if !skip_to_newline(&mut reader) {
                return;
            }
            continue;
        }
        let line = String::from_utf8_lossy(&buf);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        state.obs.metrics().add("serve.requests", 1);
        handle_line(state, line, tx);
    }
}

fn skip_to_newline(reader: &mut BufReader<Stream>) -> bool {
    let mut byte = [0u8; 1];
    loop {
        match reader.read(&mut byte) {
            Ok(0) | Err(_) => return false,
            Ok(_) if byte[0] == b'\n' => return true,
            Ok(_) => {}
        }
    }
}

/// Parse, admit, and route one frame. Every path out of this function
/// records exactly one terminal state for the request.
fn handle_line(state: &Arc<State>, line: &str, tx: &mpsc::Sender<WireOut>) {
    let req = match Request::parse(line) {
        Ok(req) => req,
        Err(FrameError { id, reason }) => {
            let tag = state.fresh_tag();
            state.respond(
                Some(tx),
                tag,
                &Response::Error { id, error: reason, budget_s: None, elapsed_s: None },
                false,
            );
            return;
        }
    };
    let tag = req.tag.unwrap_or_else(|| state.fresh_tag());
    match &req.body {
        RequestBody::Stats => {
            let counters: Vec<(String, u64)> =
                state.obs.metrics().snapshot().counters.into_iter().collect();
            state.respond(Some(tx), tag, &Response::Stats { id: req.id, counters }, false);
        }
        RequestBody::Shutdown => {
            state.respond(Some(tx), tag, &Response::ShutdownAck { id: req.id }, false);
            trigger_shutdown(state);
        }
        RequestBody::Mttf { .. } | RequestBody::Sofr { .. } | RequestBody::Sweep { .. } => {
            admit(state, req, tag, tx);
        }
    }
}

/// Admission control for estimation requests: answer from the resume map,
/// or shed (shutdown in progress, predicted deadline miss, full queue), or
/// enqueue.
fn admit(state: &Arc<State>, req: Request, tag: u64, tx: &mpsc::Sender<WireOut>) {
    if state.shutting_down.load(Ordering::SeqCst) {
        state.shed(Some(tx), tag, req.id, "shutting down");
        return;
    }
    // The request resumes when every point it asks for is already
    // journaled — a sweep included, point by point, which is sound because
    // the shared-stream kernel makes each point bit-identical to the
    // independent `mttf` request.
    let resumed: Option<Vec<Estimate>> = {
        let map = state.results.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        point_keys(&req.body)
            .iter()
            .map(|key| {
                map.get(key).cloned().map(|mut est| {
                    est.resumed = true;
                    est
                })
            })
            .collect()
    };
    if let Some(points) = resumed {
        state.obs.metrics().add("serve.resumed", 1);
        state.respond(Some(tx), tag, &reply_for(&req.body, req.id, points), false);
        return;
    }
    if let Some(ms) = req.deadline_ms {
        if let Some(predicted) = state.predicts_deadline_miss(ms) {
            state.shed(
                Some(tx),
                tag,
                req.id,
                &format!("predicted deadline miss: ~{predicted:.0} ms queued vs {ms} ms budget"),
            );
            return;
        }
    }
    let job = Job {
        tag,
        id: req.id,
        deadline: req.deadline_ms.map(|ms| (Instant::now() + Duration::from_millis(ms), ms)),
        canonical: req.body_canonical(),
        body: req.body,
        reply: Some(tx.clone()),
        internal: false,
    };
    match state.ingress.try_push(job) {
        Ok(()) => state.obs.metrics().add("serve.admitted", 1),
        Err(PushError::Full(job)) => {
            state.shed(
                job.reply.as_ref(),
                job.tag,
                job.id,
                &format!("queue full (depth {})", state.queue_depth),
            );
        }
        Err(PushError::Closed(job)) => {
            state.shed(job.reply.as_ref(), job.tag, job.id, "shutting down");
        }
    }
}

/// The keys a body's clean points are published and resumed under, in
/// point order: `mttf` and `sofr` under their own canonical body, each
/// sweep point under the equivalent single-point `mttf` request's.
fn point_keys(body: &RequestBody) -> Vec<String> {
    match body {
        RequestBody::Sweep { workload, rates_per_year, trials, sampler } => rates_per_year
            .iter()
            .map(|&rate_per_year| {
                RequestBody::Mttf {
                    workload: workload.clone(),
                    rate_per_year,
                    trials: *trials,
                    sampler: *sampler,
                }
                .canonical()
            })
            .collect(),
        _ => vec![body.canonical()],
    }
}

/// The response carrying a body's points: a sweep answers with all of
/// them, `mttf` and `sofr` with their one.
fn reply_for(body: &RequestBody, id: u64, mut points: Vec<Estimate>) -> Response {
    match body {
        RequestBody::Sweep { .. } => Response::Sweep { id, points },
        _ => Response::Estimate { id, est: points.pop().expect("one point per single request") },
    }
}

/// Worker body: pop an admitted request, fetch its trace, estimate.
fn work(state: &Arc<State>) -> WorkerExit {
    while let Some(job) = state.ingress.pop() {
        process(state, &job);
    }
    WorkerExit::Shutdown
}

/// Runs one request. Injected faults hit after the trace fetch: a stall
/// delays the request, a panic kills this worker *after* the request's
/// terminal state is recorded (the supervisor restarts the slot), and a
/// socket drop tears the response mid-line after recording the terminal
/// state.
fn process(state: &Arc<State>, job: &Job) {
    let (spec, ..) = unpack(&job.body);
    let experiment = state.experiment;
    // Keyed by workload, not by request body: every rate, trial count and
    // command on one workload shares one compile.
    let (cached, outcome, evicted) =
        match state.cache.get_or_build(&spec.canonical(), || spec.trace(&experiment)) {
            Ok(ok) => ok,
            Err(e) => return respond_error(state, job, e, false),
        };
    state.obs.metrics().add(
        match outcome {
            CacheOutcome::Hit => "serve.cache_hits",
            CacheOutcome::HitRebuilt => "serve.cache_rebuilds",
            CacheOutcome::Miss => "serve.cache_misses",
        },
        1,
    );
    if evicted {
        state.obs.metrics().add("serve.cache_evictions", 1);
    }

    let started = Instant::now();
    let fault =
        if job.internal { None } else { state.chaos.as_ref().and_then(|p| p.serve_fault(job.tag)) };
    let mut torn = false;
    match fault {
        Some(ServeFault::WorkerStall { stall_ms }) => {
            state.obs.metrics().add("serve.injected_stalls", 1);
            std::thread::sleep(Duration::from_millis(stall_ms));
        }
        Some(ServeFault::SocketDrop) => {
            state.obs.metrics().add("serve.injected_drops", 1);
            torn = true;
        }
        Some(ServeFault::WorkerPanic) => {
            // The request reaches its typed terminal state FIRST; then the
            // worker dies and the supervisor restarts the slot. Zero lost
            // requests, real restart coverage.
            state.obs.metrics().add("serve.injected_panics", 1);
            state.respond(
                job.reply.as_ref(),
                job.tag,
                &Response::Error {
                    id: Some(job.id),
                    error: "injected worker panic; the supervisor restarts this worker".to_owned(),
                    budget_s: None,
                    elapsed_s: None,
                },
                false,
            );
            panic!("chaos: injected estimate-worker panic");
        }
        // FrameCorrupt is a client-side fault: it never reaches a worker.
        Some(ServeFault::FrameCorrupt { .. }) | None => {}
    }

    // Map the request deadline onto the engine's budget: what is left of
    // the wall-clock budget after queueing. An already-blown budget makes
    // the engine return the typed DeadlineExhausted error (with elapsed
    // context); a tight one yields a truncated — honestly widened —
    // estimate tagged Degraded by the provenance lattice.
    let remaining = job.deadline.map(|(at, _)| at.saturating_duration_since(Instant::now()));
    let result = estimate(state, &job.body, &cached, outcome.provenance(), remaining);
    let elapsed = started.elapsed();
    match result {
        Ok(points) => {
            // Only clean full-fidelity points are journaled and resumable:
            // a truncated estimate depends on this run's deadline pressure
            // and must not masquerade as the canonical answer.
            for (key, est) in point_keys(&job.body).iter().zip(&points) {
                if est.state() == "result" {
                    state.publish_result(key, est);
                }
            }
            if matches!(job.body, RequestBody::Sweep { .. }) {
                state.obs.metrics().add("serve.sweep_points", points.len() as u64);
            }
            state.respond(job.reply.as_ref(), job.tag, &reply_for(&job.body, job.id, points), torn);
        }
        Err(e) => respond_error(state, job, e, torn),
    }
    state.update_ewma(elapsed.as_secs_f64() * 1e3);
    state.obs.metrics().observe("serve.estimate_ms", elapsed.as_secs_f64() * 1e3);
}

/// Ships a typed `error` terminal, preserving deadline-exhaustion context.
fn respond_error(state: &Arc<State>, job: &Job, e: serr_types::SerrError, torn: bool) {
    let (budget_s, elapsed_s) = match &e {
        serr_types::SerrError::DeadlineExhausted { budget_s, elapsed_s } => {
            (Some(*budget_s), Some(*elapsed_s))
        }
        _ => (None, None),
    };
    state.respond(
        job.reply.as_ref(),
        job.tag,
        &Response::Error { id: Some(job.id), error: e.to_string(), budget_s, elapsed_s },
        torn,
    );
}

/// The estimation itself, one path for every body. The body's rates — `[r]`
/// for `mttf`, `[c·r]` for `sofr`, the list for `sweep` — run through ONE
/// shared-stream kernel call on the cached compile (`compile(raw)`, the
/// trace the engine would build itself), then ONE rate-list `Validator`
/// call prices the exact references over `raw`'s coded spans, as
/// [`Validator::component`] / [`Validator::system_identical`] do per
/// point. Each point is bit-identical to the batch CLI's independent run at any
/// `SERR_THREADS` (deadline truncation aside), which is also what licenses
/// publishing clean sweep points under the equivalent `mttf` keys. Each
/// point's provenance is its row's verdict, floored at `floor` (the cache
/// lookup's: [`Provenance::Retried`] when the cached compile failed its
/// check and was rebuilt).
fn estimate(
    state: &Arc<State>,
    body: &RequestBody,
    cached: &CachedTrace,
    floor: Provenance,
    deadline: Option<Duration>,
) -> Result<Vec<Estimate>, serr_types::SerrError> {
    let (_, rates_per_year, components, trials, sampler) = unpack(body);
    let rates = rates_per_year
        .iter()
        .map(|&r| RawErrorRate::try_per_year(r))
        .collect::<Result<Vec<_>, serr_types::SerrError>>()?;
    let mc_rates: Vec<RawErrorRate> = match components {
        Some(c) => rates.iter().map(|r| r.scale(c as f64)).collect(),
        None => rates.clone(),
    };
    let mc = MonteCarloConfig {
        trials,
        threads: state.mc_threads,
        sampler,
        deadline,
        ..Default::default()
    };
    let freq = state.experiment.frequency;
    let v = Validator::new(freq, mc);
    let ests = v.monte_carlo().component_mttf_multi_compiled(&cached.compiled, &mc_rates, freq)?;
    match components {
        Some(c) => v
            .systems_identical_with_mc(&*cached.raw, &rates, &vec![c; rates.len()], ests)
            .into_iter()
            .map(|r| {
                r.map(|r| {
                    let tag = r.provenance.worse(floor);
                    point(&r.mttf_mc, r.mttf_sofr.as_secs(), cached.raw.avf(), tag)
                })
            })
            .collect(),
        None => v
            .components_with_mc(&*cached.raw, &rates, ests)
            .into_iter()
            .map(|r| {
                r.map(|r| point(&r.mttf_mc, r.mttf_avf.as_secs(), r.avf, r.provenance.worse(floor)))
            })
            .collect(),
    }
}

/// An estimation body's workload, component rates (errors/year), `Some(c)`
/// for a `sofr` system of `c ≥ 1` components (enforced at parse time),
/// trials and sampler.
fn unpack(body: &RequestBody) -> (&WorkloadSpec, &[f64], Option<u64>, u64, SamplerKind) {
    match body {
        RequestBody::Mttf { workload, rate_per_year, trials, sampler } => {
            (workload, std::slice::from_ref(rate_per_year), None, *trials, *sampler)
        }
        RequestBody::Sofr { workload, rate_per_year, components, trials, sampler } => {
            (workload, std::slice::from_ref(rate_per_year), Some(*components), *trials, *sampler)
        }
        RequestBody::Sweep { workload, rates_per_year, trials, sampler } => {
            (workload, rates_per_year, None, *trials, *sampler)
        }
        RequestBody::Stats | RequestBody::Shutdown => {
            unreachable!("only estimation bodies are enqueued")
        }
    }
}

/// One response point from its Monte Carlo ground truth, the step
/// estimate it is judged against, and its provenance.
fn point(mc: &MttfEstimate, mttf_step_s: f64, avf: f64, provenance: Provenance) -> Estimate {
    Estimate {
        mttf_mc_s: mc.mttf.as_secs(),
        rel_ci95: mc.relative_ci95(),
        mttf_step_s,
        avf,
        provenance: provenance.label().to_owned(),
        sampler: mc.sampler.label().to_owned(),
        trials_done: mc.ttf_seconds.count,
        truncated: mc.truncated,
        resumed: false,
    }
}

/// The journals' configuration fingerprint: the experiment config with
/// threads pinned to 0, so hosts with different core counts share journals —
/// estimates are thread-count invariant by construction — and the batched
/// sampler's draw schedule version, so a daemon never answers from results
/// another schedule computed.
pub(crate) fn journal_fingerprint(experiment: &ExperimentConfig) -> u64 {
    let mut canon = *experiment;
    canon.mc.threads = 0;
    let schedule = format!("rng-schedule-v{BATCHED_RNG_SCHEDULE_VERSION}");
    fingerprint(&["serve", &format!("{canon:?}"), &schedule])
}

/// Reconstructs a request body from its canonical spelling (the form the
/// pending journal stores). The canonical body is itself a valid frame
/// minus the `id`, so parsing is one splice away.
fn body_from_canonical(canonical: &str) -> Option<RequestBody> {
    let rest = canonical.strip_prefix('{')?;
    let line = format!("{{\"id\":0,{rest}");
    Request::parse(&line).ok().map(|r| r.body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_parses_both_schemes_and_rejects_garbage() {
        assert_eq!(Bind::parse("unix:/tmp/s.sock").unwrap(), Bind::Unix("/tmp/s.sock".into()));
        assert_eq!(
            Bind::parse("tcp:127.0.0.1:7979").unwrap(),
            Bind::Tcp("127.0.0.1:7979".to_owned())
        );
        assert!(Bind::parse("udp:1.2.3.4").is_err());
        assert_eq!(Bind::parse("unix:/a/b").unwrap().to_string(), "unix:/a/b");
    }

    #[test]
    fn sweep_requests_run_the_shared_kernel_and_resume_as_single_points() {
        use crate::client::Client;
        use crate::soak::{direct_estimate, shut_down, temp_dir};
        use serr_core::prelude::{SamplerKind, WorkloadSpec};

        let dir = temp_dir("sweep");
        let mut cfg = ServeConfig::new(Bind::Unix(dir.join("s.sock")));
        cfg.journal_dir = Some(dir.join("journal"));
        cfg.mc_threads = 1;
        let server = Server::start(cfg).expect("server starts");
        let bind = server.bind_addr().clone();
        let mut client = Client::connect(&bind).expect("connect");

        let workload = WorkloadSpec::parse("duty:0.002:0.5").expect("valid spec");
        let rates = vec![1e6, 2e6, 4e6];
        let sweep = Request {
            id: 1,
            deadline_ms: None,
            tag: Some(11),
            body: RequestBody::Sweep {
                workload: workload.clone(),
                rates_per_year: rates.clone(),
                trials: 1_200,
                sampler: SamplerKind::default(),
            },
        };
        let resp = client.roundtrip(&sweep).expect("sweep io").expect("sweep response");
        let points = match resp {
            Response::Sweep { id: 1, points } => points,
            other => panic!("expected a sweep response, got {other:?}"),
        };
        assert_eq!(points.len(), rates.len());
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.state(), "result", "point {i}: {p:?}");
            assert!(!p.resumed);
            // Every point is bit-identical to an independent single-point
            // computation — at one MC thread and at eight (the kernel is
            // thread-count invariant).
            let body = RequestBody::Mttf {
                workload: workload.clone(),
                rate_per_year: rates[i],
                trials: 1_200,
                sampler: SamplerKind::default(),
            };
            for threads in [1, 8] {
                let solo = direct_estimate(&body, threads);
                assert_eq!(
                    p.mttf_mc_s.to_bits(),
                    solo.mttf_mc_s.to_bits(),
                    "point {i} at {threads} threads"
                );
                assert_eq!(p.rel_ci95.to_bits(), solo.rel_ci95.to_bits());
            }
        }

        // A later single-point request for a swept rate is answered from
        // the journal — resumed, bit-identical.
        let single = Request {
            id: 2,
            deadline_ms: None,
            tag: Some(12),
            body: RequestBody::Mttf {
                workload: workload.clone(),
                rate_per_year: rates[1],
                trials: 1_200,
                sampler: SamplerKind::default(),
            },
        };
        let resp = client.roundtrip(&single).expect("mttf io").expect("mttf response");
        match resp {
            Response::Estimate { id: 2, est } => {
                assert!(est.resumed, "swept point should answer the single request");
                assert_eq!(est.mttf_mc_s.to_bits(), points[1].mttf_mc_s.to_bits());
            }
            other => panic!("expected the resumed estimate, got {other:?}"),
        }

        // Re-requesting the whole sweep assembles it from the per-point
        // journal entries without recomputation.
        let again = Request { tag: Some(13), id: 3, ..sweep };
        let resp = client.roundtrip(&again).expect("sweep io").expect("sweep response");
        match resp {
            Response::Sweep { id: 3, points: resumed } => {
                assert_eq!(resumed.len(), points.len());
                for (a, b) in resumed.iter().zip(&points) {
                    assert!(a.resumed);
                    assert_eq!(a.mttf_mc_s.to_bits(), b.mttf_mc_s.to_bits());
                }
            }
            other => panic!("expected the resumed sweep, got {other:?}"),
        }

        shut_down(&mut client, server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn requests_on_one_workload_share_one_compile_and_match_the_validator() {
        use crate::client::Client;
        use crate::soak::{counter, direct_estimate, shut_down, stats, temp_dir};
        use serr_core::prelude::{SamplerKind, WorkloadSpec};

        let dir = temp_dir("one-compile");
        let mut cfg = ServeConfig::new(Bind::Unix(dir.join("s.sock")));
        cfg.mc_threads = 1;
        let server = Server::start(cfg).expect("server starts");
        let mut client = Client::connect(server.bind_addr()).expect("connect");

        let workload = WorkloadSpec::parse("duty:0.002:0.5").expect("valid spec");
        for (id, rate_per_year) in [(1u64, 1e6), (2, 3e6)] {
            let body = RequestBody::Mttf {
                workload: workload.clone(),
                rate_per_year,
                trials: 1_500,
                sampler: SamplerKind::default(),
            };
            let req = Request { id, deadline_ms: None, tag: None, body: body.clone() };
            let est = match client.roundtrip(&req).expect("mttf io").expect("mttf response") {
                Response::Estimate { est, .. } => est,
                other => panic!("expected an estimate, got {other:?}"),
            };
            let direct = direct_estimate(&body, 1);
            assert_eq!(est.mttf_mc_s.to_bits(), direct.mttf_mc_s.to_bits(), "rate {rate_per_year}");
            assert_eq!(est.rel_ci95.to_bits(), direct.rel_ci95.to_bits());
            assert_eq!(est.mttf_step_s.to_bits(), direct.mttf_step_s.to_bits());
            assert_eq!(est.sampler, direct.sampler);
        }
        // Different request bodies, one workload: one miss (the compile),
        // then a hit.
        let counters = stats(&mut client, 3);
        assert_eq!(counter(&counters, "serve.cache_misses"), 1);
        assert_eq!(counter(&counters, "serve.cache_hits"), 1);

        shut_down(&mut client, server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn canonical_bodies_roundtrip_through_the_pending_journal_form() {
        let req = Request::parse(
            r#"{"id":5,"cmd":"sofr","workload":"duty:0.002:0.5","rate_per_year":1e6,"components":10,"trials":2000}"#,
        )
        .expect("parses");
        let body = body_from_canonical(&req.body_canonical()).expect("reconstructs");
        assert_eq!(body, req.body);
    }
}
