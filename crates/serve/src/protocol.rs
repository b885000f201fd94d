//! The `serr serve` wire protocol: JSON Lines over a byte stream.
//!
//! One request per line, one response line per request, and **every**
//! admitted request ends in exactly one of four typed terminal states:
//!
//! | state      | meaning                                                  |
//! |------------|----------------------------------------------------------|
//! | `result`   | full-fidelity estimate, bit-identical to the batch CLI   |
//! | `degraded` | honest estimate from a truncated run (deadline pressure) |
//! | `shed`     | refused by admission control before any work was done    |
//! | `error`    | typed failure (bad request, injected fault, estimator)   |
//!
//! Requests and responses are encoded with the workspace's own
//! [`Json`] value (shortest-round-trip floats), so journaled responses
//! replay **bit-identically** after a restart.
//!
//! The request grammar reuses [`WorkloadSpec`] verbatim — the same strings
//! the CLI accepts — and [`Request::body_canonical`] gives each request a
//! canonical spelling that keys the trace cache and the resume journal.

use serr_core::jsonio::Json;
use serr_core::prelude::{SamplerKind, WorkloadSpec};

/// Hard cap on one request frame. A line longer than this is rejected with
/// a typed `error` response instead of being buffered without bound.
pub const MAX_FRAME_BYTES: usize = 16 * 1024;

/// Hard cap on design points in one `sweep` request: bounds the response
/// frame and the shared-stream kernel's per-point working set.
pub const MAX_SWEEP_POINTS: usize = 256;

/// The work a request asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// Single-component MTTF estimate (the CLI's `mttf`).
    Mttf {
        /// The workload, in CLI spelling.
        workload: WorkloadSpec,
        /// Component raw error rate in errors/year.
        rate_per_year: f64,
        /// Monte Carlo trials.
        trials: u64,
        /// Time-to-failure sampler.
        sampler: SamplerKind,
    },
    /// SOFR cluster projection (the CLI's `sofr`).
    Sofr {
        /// The workload each component runs.
        workload: WorkloadSpec,
        /// Per-component raw error rate in errors/year.
        rate_per_year: f64,
        /// Number of components.
        components: u64,
        /// Monte Carlo trials.
        trials: u64,
        /// Time-to-failure sampler.
        sampler: SamplerKind,
    },
    /// Multi-point MTTF sweep over one workload (the CLI's `serr sweep`
    /// rate axis): every rate is estimated off ONE shared-stream kernel
    /// run (`MonteCarlo::component_mttf_multi`) — common random numbers
    /// across the whole sweep — and each point is bit-identical to the
    /// single-point `mttf` request for the same rate.
    Sweep {
        /// The workload every point runs, in CLI spelling.
        workload: WorkloadSpec,
        /// Per-point raw error rates in errors/year, in response order.
        rates_per_year: Vec<f64>,
        /// Monte Carlo trials per point.
        trials: u64,
        /// Time-to-failure sampler.
        sampler: SamplerKind,
    },
    /// Snapshot of the service counters.
    Stats,
    /// Graceful shutdown: drain, journal, acknowledge, exit.
    Shutdown,
}

impl RequestBody {
    /// The canonical spelling of this body (see
    /// [`Request::body_canonical`]). For a [`RequestBody::Sweep`] point,
    /// the equivalent single-point [`RequestBody::Mttf`] body's canonical
    /// string is the key its clean result is published under.
    #[must_use]
    pub fn canonical(&self) -> String {
        Json::Obj(body_fields(self)).to_json()
    }
}

/// One parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the response.
    pub id: u64,
    /// Wall-clock budget for the whole request, in milliseconds. Overload
    /// degrades the estimate (truncated, wider CI) instead of lying.
    pub deadline_ms: Option<u64>,
    /// Deterministic work key for fault injection and telemetry. Defaults
    /// to the server's arrival sequence when absent.
    pub tag: Option<u64>,
    /// What to do.
    pub body: RequestBody,
}

/// A frame that could not become a [`Request`]: carries the id when one
/// was recoverable, so the error response still correlates.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameError {
    /// The client id, when the frame was parseable enough to find one.
    pub id: Option<u64>,
    /// What was wrong with the frame.
    pub reason: String,
}

impl FrameError {
    fn new(id: Option<u64>, reason: impl Into<String>) -> Self {
        FrameError { id, reason: reason.into() }
    }
}

fn field_f64(v: &Json, key: &str, id: Option<u64>) -> Result<f64, FrameError> {
    let x = v
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| FrameError::new(id, format!("missing or non-numeric \"{key}\"")))?;
    if !(x.is_finite() && x > 0.0) {
        return Err(FrameError::new(id, format!("\"{key}\" must be positive and finite")));
    }
    Ok(x)
}

fn field_count(v: &Json, key: &str, default: u64, id: Option<u64>) -> Result<u64, FrameError> {
    match v.get(key) {
        None => Ok(default),
        Some(j) => {
            let n = j
                .as_u64()
                .ok_or_else(|| FrameError::new(id, format!("\"{key}\" must be a whole number")))?;
            if n == 0 {
                return Err(FrameError::new(id, format!("\"{key}\" must be at least 1")));
            }
            Ok(n)
        }
    }
}

fn field_rates(v: &Json, id: Option<u64>) -> Result<Vec<f64>, FrameError> {
    let key = "rates_per_year";
    let rows = v
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| FrameError::new(id, format!("missing or non-array \"{key}\"")))?;
    if rows.is_empty() {
        return Err(FrameError::new(id, format!("\"{key}\" must name at least one rate")));
    }
    if rows.len() > MAX_SWEEP_POINTS {
        return Err(FrameError::new(
            id,
            format!("\"{key}\" has {} points, max {MAX_SWEEP_POINTS}", rows.len()),
        ));
    }
    rows.iter()
        .map(|r| {
            let x = r
                .as_f64()
                .ok_or_else(|| FrameError::new(id, format!("\"{key}\" entries must be numbers")))?;
            if !(x.is_finite() && x > 0.0) {
                return Err(FrameError::new(
                    id,
                    format!("\"{key}\" entries must be positive and finite"),
                ));
            }
            Ok(x)
        })
        .collect()
}

fn field_workload(v: &Json, id: Option<u64>) -> Result<WorkloadSpec, FrameError> {
    let s = v
        .get("workload")
        .and_then(Json::as_str)
        .ok_or_else(|| FrameError::new(id, "missing \"workload\""))?;
    WorkloadSpec::parse(s).map_err(|e| FrameError::new(id, e.to_string()))
}

fn field_sampler(v: &Json, id: Option<u64>) -> Result<SamplerKind, FrameError> {
    match v.get("sampler") {
        None => Ok(SamplerKind::default()),
        Some(j) => {
            let s = j
                .as_str()
                .ok_or_else(|| FrameError::new(id, "\"sampler\" must be a string label"))?;
            SamplerKind::parse(s).map_err(|e| FrameError::new(id, e.to_string()))
        }
    }
}

impl Request {
    /// Parses one frame line.
    ///
    /// # Errors
    ///
    /// [`FrameError`] for oversized, malformed, or invalid frames, carrying
    /// the client id whenever one was recoverable.
    pub fn parse(line: &str) -> Result<Request, FrameError> {
        if line.len() > MAX_FRAME_BYTES {
            return Err(FrameError::new(
                None,
                format!("oversized frame: {} bytes, max {MAX_FRAME_BYTES}", line.len()),
            ));
        }
        let v = Json::parse(line)
            .ok_or_else(|| FrameError::new(None, "malformed frame: not a JSON object"))?;
        let id = v.get("id").and_then(Json::as_u64);
        let cmd = v
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or_else(|| FrameError::new(id, "missing \"cmd\""))?;
        let id_known = id.ok_or_else(|| FrameError::new(None, "missing or non-integer \"id\""))?;
        let deadline_ms = match v.get("deadline_ms") {
            None => None,
            Some(j) => Some(j.as_u64().ok_or_else(|| {
                FrameError::new(id, "\"deadline_ms\" must be a whole number of milliseconds")
            })?),
        };
        let tag = match v.get("tag") {
            None => None,
            Some(j) => Some(
                j.as_u64().ok_or_else(|| FrameError::new(id, "\"tag\" must be a whole number"))?,
            ),
        };
        let body = match cmd {
            "mttf" => RequestBody::Mttf {
                workload: field_workload(&v, id)?,
                rate_per_year: field_f64(&v, "rate_per_year", id)?,
                trials: field_count(&v, "trials", 100_000, id)?,
                sampler: field_sampler(&v, id)?,
            },
            "sofr" => RequestBody::Sofr {
                workload: field_workload(&v, id)?,
                rate_per_year: field_f64(&v, "rate_per_year", id)?,
                components: field_count(&v, "components", 1, id)?,
                trials: field_count(&v, "trials", 100_000, id)?,
                sampler: field_sampler(&v, id)?,
            },
            "sweep" => RequestBody::Sweep {
                workload: field_workload(&v, id)?,
                rates_per_year: field_rates(&v, id)?,
                trials: field_count(&v, "trials", 100_000, id)?,
                sampler: field_sampler(&v, id)?,
            },
            "stats" => RequestBody::Stats,
            "shutdown" => RequestBody::Shutdown,
            other => return Err(FrameError::new(id, format!("unknown \"cmd\" `{other}`"))),
        };
        Ok(Request { id: id_known, deadline_ms, tag, body })
    }

    /// Encodes the request as one wire line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut fields = vec![("id".to_owned(), Json::Num(self.id as f64))];
        if let Some(ms) = self.deadline_ms {
            fields.push(("deadline_ms".to_owned(), Json::Num(ms as f64)));
        }
        if let Some(tag) = self.tag {
            fields.push(("tag".to_owned(), Json::Num(tag as f64)));
        }
        fields.extend(body_fields(&self.body));
        Json::Obj(fields).to_json()
    }

    /// The canonical spelling of the request body — id, deadline, and tag
    /// excluded, keys in fixed order, floats shortest-round-trip. Two
    /// requests for the same computation always render identically, so this
    /// string keys the trace cache and the resume journal.
    #[must_use]
    pub fn body_canonical(&self) -> String {
        self.body.canonical()
    }
}

/// The body's wire fields in canonical (fixed) order.
fn body_fields(body: &RequestBody) -> Vec<(String, Json)> {
    let s = |v: &str| Json::Str(v.to_owned());
    match body {
        RequestBody::Mttf { workload, rate_per_year, trials, sampler } => vec![
            ("cmd".to_owned(), s("mttf")),
            ("workload".to_owned(), s(&workload.canonical())),
            ("rate_per_year".to_owned(), Json::Num(*rate_per_year)),
            ("trials".to_owned(), Json::Num(*trials as f64)),
            ("sampler".to_owned(), s(sampler.label())),
        ],
        RequestBody::Sofr { workload, rate_per_year, components, trials, sampler } => vec![
            ("cmd".to_owned(), s("sofr")),
            ("workload".to_owned(), s(&workload.canonical())),
            ("rate_per_year".to_owned(), Json::Num(*rate_per_year)),
            ("components".to_owned(), Json::Num(*components as f64)),
            ("trials".to_owned(), Json::Num(*trials as f64)),
            ("sampler".to_owned(), s(sampler.label())),
        ],
        RequestBody::Sweep { workload, rates_per_year, trials, sampler } => vec![
            ("cmd".to_owned(), s("sweep")),
            ("workload".to_owned(), s(&workload.canonical())),
            (
                "rates_per_year".to_owned(),
                Json::Arr(rates_per_year.iter().map(|&r| Json::Num(r)).collect()),
            ),
            ("trials".to_owned(), Json::Num(*trials as f64)),
            ("sampler".to_owned(), s(sampler.label())),
        ],
        RequestBody::Stats => vec![("cmd".to_owned(), s("stats"))],
        RequestBody::Shutdown => vec![("cmd".to_owned(), s("shutdown"))],
    }
}

/// The estimate payload of a `result` or `degraded` response.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// Monte Carlo MTTF in seconds (ground truth; bit-identical to the
    /// batch CLI for the same request at any worker-thread count).
    pub mttf_mc_s: f64,
    /// Relative half-width of the 95% confidence interval.
    pub rel_ci95: f64,
    /// The method-under-test MTTF in seconds: the AVF step for `mttf`
    /// requests, the SOFR step for `sofr` requests.
    pub mttf_step_s: f64,
    /// The workload's AVF.
    pub avf: f64,
    /// Provenance label from the guard lattice (`clean`, `degraded`, ...).
    pub provenance: String,
    /// The sampler that actually ran.
    pub sampler: String,
    /// Trials completed (fewer than requested when truncated).
    pub trials_done: u64,
    /// Whether a deadline cut the run short (the CI is honestly wider).
    pub truncated: bool,
    /// Whether this estimate was replayed from the resume journal instead
    /// of recomputed.
    pub resumed: bool,
}

impl Estimate {
    /// The terminal state this estimate reports: `degraded` whenever the
    /// run was truncated or the guard lattice says anything but clean.
    #[must_use]
    pub fn state(&self) -> &'static str {
        if self.truncated || self.provenance != "clean" {
            "degraded"
        } else {
            "result"
        }
    }

    /// Encodes the payload fields (everything but `id`/`state`).
    #[must_use]
    pub fn to_fields(&self) -> Vec<(String, Json)> {
        vec![
            ("mttf_mc_s".to_owned(), Json::Num(self.mttf_mc_s)),
            ("rel_ci95".to_owned(), Json::Num(self.rel_ci95)),
            ("mttf_step_s".to_owned(), Json::Num(self.mttf_step_s)),
            ("avf".to_owned(), Json::Num(self.avf)),
            ("provenance".to_owned(), Json::Str(self.provenance.clone())),
            ("sampler".to_owned(), Json::Str(self.sampler.clone())),
            ("trials_done".to_owned(), Json::Num(self.trials_done as f64)),
            ("truncated".to_owned(), Json::Bool(self.truncated)),
            ("resumed".to_owned(), Json::Bool(self.resumed)),
        ]
    }

    /// Decodes the payload fields; `None` on schema mismatch.
    #[must_use]
    pub fn from_fields(v: &Json) -> Option<Estimate> {
        Some(Estimate {
            mttf_mc_s: v.get("mttf_mc_s")?.as_f64()?,
            rel_ci95: v.get("rel_ci95")?.as_f64()?,
            mttf_step_s: v.get("mttf_step_s")?.as_f64()?,
            avf: v.get("avf")?.as_f64()?,
            provenance: v.get("provenance")?.as_str()?.to_owned(),
            sampler: v.get("sampler")?.as_str()?.to_owned(),
            trials_done: v.get("trials_done")?.as_u64()?,
            truncated: v.get("truncated")?.as_bool()?,
            resumed: v.get("resumed")?.as_bool()?,
        })
    }
}

/// One response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A completed estimate — state `result` or `degraded` per
    /// [`Estimate::state`].
    Estimate {
        /// Echoed request id.
        id: u64,
        /// The payload.
        est: Estimate,
    },
    /// A completed multi-point sweep — one estimate per requested rate,
    /// in request order. State `result` only when EVERY point is a clean
    /// full-fidelity result; any degraded point degrades the frame.
    Sweep {
        /// Echoed request id.
        id: u64,
        /// Per-point payloads, in `rates_per_year` order.
        points: Vec<Estimate>,
    },
    /// Refused by admission control; no estimator work was done.
    Shed {
        /// Echoed request id.
        id: u64,
        /// Which policy refused and why.
        reason: String,
    },
    /// A typed failure.
    Error {
        /// Echoed request id, when the frame carried a recoverable one.
        id: Option<u64>,
        /// The typed error, rendered.
        error: String,
        /// For deadline exhaustion: the budget that was granted, seconds.
        budget_s: Option<f64>,
        /// For deadline exhaustion: wall-clock seconds actually spent.
        elapsed_s: Option<f64>,
    },
    /// Service counters snapshot.
    Stats {
        /// Echoed request id.
        id: u64,
        /// Counter names and values, sorted by name.
        counters: Vec<(String, u64)>,
    },
    /// Acknowledges a shutdown request; the server drains and exits after
    /// sending this.
    ShutdownAck {
        /// Echoed request id.
        id: u64,
    },
}

impl Response {
    /// The typed terminal state this response reports.
    #[must_use]
    pub fn state(&self) -> &'static str {
        match self {
            Response::Estimate { est, .. } => est.state(),
            Response::Sweep { points, .. } => {
                if points.iter().all(|e| e.state() == "result") {
                    "result"
                } else {
                    "degraded"
                }
            }
            Response::Shed { .. } => "shed",
            Response::Error { .. } => "error",
            // Stats and shutdown acks complete their requests successfully.
            Response::Stats { .. } | Response::ShutdownAck { .. } => "result",
        }
    }

    /// Encodes the response as one wire line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        let id_field = |id: u64| ("id".to_owned(), Json::Num(id as f64));
        let state = ("state".to_owned(), Json::Str(self.state().to_owned()));
        let fields = match self {
            Response::Estimate { id, est } => {
                let mut f = vec![id_field(*id), state];
                f.extend(est.to_fields());
                f
            }
            Response::Sweep { id, points } => {
                let rows = points.iter().map(|e| Json::Obj(e.to_fields())).collect();
                vec![id_field(*id), state, ("points".to_owned(), Json::Arr(rows))]
            }
            Response::Shed { id, reason } => {
                vec![id_field(*id), state, ("reason".to_owned(), Json::Str(reason.clone()))]
            }
            Response::Error { id, error, budget_s, elapsed_s } => {
                let mut f =
                    vec![("id".to_owned(), id.map_or(Json::Null, |id| Json::Num(id as f64)))];
                f.push(state);
                f.push(("error".to_owned(), Json::Str(error.clone())));
                if let (Some(b), Some(e)) = (budget_s, elapsed_s) {
                    f.push(("budget_s".to_owned(), Json::Num(*b)));
                    f.push(("elapsed_s".to_owned(), Json::Num(*e)));
                }
                f
            }
            Response::Stats { id, counters } => {
                let rows = counters
                    .iter()
                    .map(|(k, n)| {
                        Json::Obj(vec![
                            ("name".to_owned(), Json::Str(k.clone())),
                            ("value".to_owned(), Json::Num(*n as f64)),
                        ])
                    })
                    .collect();
                vec![id_field(*id), state, ("counters".to_owned(), Json::Arr(rows))]
            }
            Response::ShutdownAck { id } => {
                vec![id_field(*id), state, ("shutdown".to_owned(), Json::Bool(true))]
            }
        };
        Json::Obj(fields).to_json()
    }

    /// Parses one response line; `None` for torn or non-protocol lines
    /// (e.g. a connection dropped mid-response).
    #[must_use]
    pub fn parse(line: &str) -> Option<Response> {
        let v = Json::parse(line)?;
        let id = v.get("id").and_then(Json::as_u64);
        match v.get("state")?.as_str()? {
            "result" | "degraded" => {
                if v.get("shutdown").and_then(Json::as_bool) == Some(true) {
                    return Some(Response::ShutdownAck { id: id? });
                }
                if let Some(rows) = v.get("counters").and_then(Json::as_array) {
                    let mut counters = Vec::with_capacity(rows.len());
                    for r in rows {
                        counters
                            .push((r.get("name")?.as_str()?.to_owned(), r.get("value")?.as_u64()?));
                    }
                    return Some(Response::Stats { id: id?, counters });
                }
                if let Some(rows) = v.get("points").and_then(Json::as_array) {
                    let mut points = Vec::with_capacity(rows.len());
                    for r in rows {
                        points.push(Estimate::from_fields(r)?);
                    }
                    return Some(Response::Sweep { id: id?, points });
                }
                Some(Response::Estimate { id: id?, est: Estimate::from_fields(&v)? })
            }
            "shed" => {
                Some(Response::Shed { id: id?, reason: v.get("reason")?.as_str()?.to_owned() })
            }
            "error" => Some(Response::Error {
                id,
                error: v.get("error")?.as_str()?.to_owned(),
                budget_s: v.get("budget_s").and_then(Json::as_f64),
                elapsed_s: v.get("elapsed_s").and_then(Json::as_f64),
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mttf_request() -> Request {
        Request {
            id: 7,
            deadline_ms: Some(1_500),
            tag: Some(3),
            body: RequestBody::Mttf {
                workload: WorkloadSpec::parse("duty:0.002:0.5").expect("valid spec"),
                rate_per_year: 1e6,
                trials: 2_000,
                sampler: SamplerKind::default(),
            },
        }
    }

    #[test]
    fn requests_roundtrip_through_the_wire_format() {
        let req = mttf_request();
        assert_eq!(Request::parse(&req.to_line()).expect("parses"), req);
        let sofr = Request {
            id: 9,
            deadline_ms: None,
            tag: None,
            body: RequestBody::Sofr {
                workload: WorkloadSpec::Day,
                rate_per_year: 2.5,
                components: 5_000,
                trials: 10_000,
                sampler: SamplerKind::EventLoop,
            },
        };
        assert_eq!(Request::parse(&sofr.to_line()).expect("parses"), sofr);
        for cmd in ["stats", "shutdown"] {
            let line = format!("{{\"id\":1,\"cmd\":\"{cmd}\"}}");
            assert!(Request::parse(&line).is_ok(), "{cmd} must parse");
        }
    }

    #[test]
    fn frame_errors_carry_the_id_when_recoverable() {
        // Parseable id, bad payload: the error correlates.
        let e = Request::parse(r#"{"id":42,"cmd":"mttf","workload":"quake"}"#).unwrap_err();
        assert_eq!(e.id, Some(42));
        // Unparseable JSON: no id to recover.
        let e = Request::parse(r#"{"id":42,"cmd":"mt"#).unwrap_err();
        assert_eq!(e.id, None);
        assert!(e.reason.contains("malformed"), "{}", e.reason);
        // Oversized frames are rejected before parsing.
        let huge =
            format!(r#"{{"id":1,"cmd":"mttf","workload":"{}"}}"#, "x".repeat(MAX_FRAME_BYTES));
        let e = Request::parse(&huge).unwrap_err();
        assert!(e.reason.contains("oversized"), "{}", e.reason);
        // Zero and negative numerics are refused.
        assert!(
            Request::parse(r#"{"id":1,"cmd":"mttf","workload":"day","rate_per_year":0}"#).is_err()
        );
        assert!(Request::parse(
            r#"{"id":1,"cmd":"sofr","workload":"day","rate_per_year":1,"components":0}"#
        )
        .is_err());
    }

    #[test]
    fn the_retired_scalar_sampler_label_is_a_frame_error_naming_the_valid_ones() {
        for cmd in [
            r#""cmd":"mttf","workload":"day","rate_per_year":1"#,
            r#""cmd":"sweep","workload":"day","rates_per_year":[1,2]"#,
        ] {
            let line = format!(r#"{{"id":5,{cmd},"sampler":"inversion"}}"#);
            let e = Request::parse(&line).unwrap_err();
            assert_eq!(e.id, Some(5));
            assert!(e.reason.contains(r#""inversion""#), "{}", e.reason);
            assert!(
                e.reason.contains("batched-inversion") && e.reason.contains("event-loop"),
                "{}",
                e.reason
            );
        }
    }

    #[test]
    fn sweep_requests_and_responses_roundtrip() {
        let req = Request {
            id: 21,
            deadline_ms: Some(2_000),
            tag: None,
            body: RequestBody::Sweep {
                workload: WorkloadSpec::parse("duty:0.002:0.5").expect("valid spec"),
                rates_per_year: vec![1e6, 2e6, 4e6],
                trials: 1_500,
                sampler: SamplerKind::default(),
            },
        };
        assert_eq!(Request::parse(&req.to_line()).expect("parses"), req);

        // Empty, oversized, and non-positive rate lists are refused.
        assert!(Request::parse(r#"{"id":1,"cmd":"sweep","workload":"day"}"#).is_err());
        assert!(Request::parse(r#"{"id":1,"cmd":"sweep","workload":"day","rates_per_year":[]}"#)
            .is_err());
        assert!(Request::parse(
            r#"{"id":1,"cmd":"sweep","workload":"day","rates_per_year":[1,0]}"#
        )
        .is_err());
        let big: Vec<String> = (1..=MAX_SWEEP_POINTS + 1).map(|i| i.to_string()).collect();
        let line = format!(
            r#"{{"id":1,"cmd":"sweep","workload":"day","rates_per_year":[{}]}}"#,
            big.join(",")
        );
        let e = Request::parse(&line).unwrap_err();
        assert!(e.reason.contains("max"), "{}", e.reason);

        // The multi-point response: `result` only when every point is.
        let clean = Estimate {
            mttf_mc_s: 1.5e9,
            rel_ci95: 0.01,
            mttf_step_s: 1.4e9,
            avf: 0.5,
            provenance: "clean".to_owned(),
            sampler: "batched-inversion".to_owned(),
            trials_done: 1_500,
            truncated: false,
            resumed: false,
        };
        let r = Response::Sweep { id: 21, points: vec![clean.clone(), clean.clone()] };
        assert_eq!(r.state(), "result");
        assert_eq!(Response::parse(&r.to_line()).expect("parses"), r);
        let partial = Response::Sweep {
            id: 22,
            points: vec![clean.clone(), Estimate { truncated: true, ..clean }],
        };
        assert_eq!(partial.state(), "degraded");
        assert_eq!(Response::parse(&partial.to_line()).expect("parses"), partial);
    }

    #[test]
    fn body_canonical_ignores_id_deadline_and_tag() {
        let a = mttf_request();
        let mut b = a.clone();
        b.id = 99;
        b.deadline_ms = None;
        b.tag = None;
        assert_eq!(a.body_canonical(), b.body_canonical());
        // Different spellings of one workload share a canonical body.
        let line_a = r#"{"id":1,"cmd":"mttf","workload":"duty:1e3:0.5","rate_per_year":1}"#;
        let line_b = r#"{"id":2,"cmd":"mttf","workload":"duty:1000:0.5","rate_per_year":1}"#;
        assert_eq!(
            Request::parse(line_a).expect("parses").body_canonical(),
            Request::parse(line_b).expect("parses").body_canonical()
        );
    }

    #[test]
    fn responses_roundtrip_and_report_their_terminal_state() {
        let est = Estimate {
            mttf_mc_s: 0.1 + 0.2,
            rel_ci95: 0.0123,
            mttf_step_s: 1.0 / 3.0,
            avf: 0.5,
            provenance: "clean".to_owned(),
            sampler: "batched-inversion".to_owned(),
            trials_done: 2_000,
            truncated: false,
            resumed: false,
        };
        let r = Response::Estimate { id: 7, est: est.clone() };
        assert_eq!(r.state(), "result");
        let back = Response::parse(&r.to_line()).expect("parses");
        match &back {
            Response::Estimate { id: 7, est: e } => {
                assert_eq!(e.mttf_mc_s.to_bits(), est.mttf_mc_s.to_bits(), "bit-exact floats");
                assert_eq!(e, &est);
            }
            other => panic!("expected Estimate, got {other:?}"),
        }

        let degraded = Response::Estimate {
            id: 8,
            est: Estimate { truncated: true, provenance: "degraded".to_owned(), ..est.clone() },
        };
        assert_eq!(degraded.state(), "degraded");
        assert_eq!(Response::parse(&degraded.to_line()).expect("parses"), degraded);

        let shed = Response::Shed { id: 9, reason: "queue full (depth 64)".to_owned() };
        assert_eq!(shed.state(), "shed");
        assert_eq!(Response::parse(&shed.to_line()).expect("parses"), shed);

        let err = Response::Error {
            id: Some(10),
            error: "deadline of 0.5 s exhausted".to_owned(),
            budget_s: Some(0.5),
            elapsed_s: Some(0.75),
        };
        assert_eq!(err.state(), "error");
        assert_eq!(Response::parse(&err.to_line()).expect("parses"), err);

        let stats = Response::Stats {
            id: 11,
            counters: vec![("serve.requests".to_owned(), 240), ("serve.shed".to_owned(), 3)],
        };
        assert_eq!(Response::parse(&stats.to_line()).expect("parses"), stats);

        let ack = Response::ShutdownAck { id: 12 };
        assert_eq!(Response::parse(&ack.to_line()).expect("parses"), ack);

        // Torn lines (socket dropped mid-response) parse to None, not junk.
        let torn = &r.to_line()[..r.to_line().len() / 2];
        assert_eq!(Response::parse(torn), None);
    }
}
