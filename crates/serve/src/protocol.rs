//! The newline-delimited JSON protocol.
//!
//! One request per line in, one response per line out, responses in
//! request order. The full schema lives in `docs/serve-protocol.md` (and
//! machine-readable in `docs/serve-protocol.schema.json`, enforced by the
//! `serve_lint` CI tool); this module is the single codec for both sides.
//!
//! Design constraints, inherited from the workspace determinism story:
//!
//! - **Responses are bit-reproducible.** Floating-point results travel as
//!   16-hex-digit `f64::to_bits` strings (the workspace serde convention),
//!   objects serialize with sorted keys, and nothing scheduling-dependent
//!   (timings, which job led a coalesced flight) appears in a response —
//!   that information goes to the `morph-trace` recorder instead. Golden
//!   fixtures can therefore `diff` exactly.
//! - **Errors are in-band.** A failed job is a structured `error` response
//!   on its line, never a dead service or a missing line.

use std::collections::BTreeMap;
use std::io::{self, Write};

use serde::json::{self, Value};
use serde::Serialize;

use crate::service::{JobError, SubmitError};
use morphqpv::prelude::{Verdict, VerificationReport};

/// Protocol revision stamped on every single-job response line.
///
/// Request lines may declare their protocol revision with an explicit
/// `"v"` field; a line without one is a legacy v1 request. Single-job
/// (`"kind":"verify"`) requests are accepted at any supported revision
/// and always answered with a v1 response body, so pre-versioning
/// clients and golden fixtures keep working unchanged.
pub const PROTOCOL_VERSION: u32 = 1;

/// Protocol revision of the `verify_revisions` batch extension — the
/// highest revision this build speaks. Revision-stream requests must
/// declare `"v":2` explicitly (the feature postdates v1, so a legacy
/// line can never carry it by accident), and their response lines stamp
/// `"protocol":2`.
pub const PROTOCOL_VERSION_REVISIONS: u32 = 2;

/// One parsed request line: the versioned envelope (`"v"`, `"kind"`)
/// dispatched to its body type.
///
/// `"kind"` defaults to `"verify"` and `"v"` to `1`, so every
/// pre-versioning request line parses exactly as before.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `"kind":"verify"` (or absent): one verification job.
    Job(JobRequest),
    /// `"kind":"verify_revisions"` (requires `"v":2`): an ordered
    /// revision stream, each revision verified as a `verify` job would be.
    Revisions(RevisionsRequest),
}

impl Request {
    /// Parses one request line, dispatching on the `"v"`/`"kind"`
    /// envelope.
    ///
    /// # Errors
    ///
    /// A human-readable description of the malformed line: bad JSON, an
    /// unsupported `"v"`, an unknown `"kind"`, a `verify_revisions`
    /// request not declaring `"v":2`, or a body-level field error.
    pub fn from_json_line(line: &str) -> Result<Request, String> {
        let value = json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
        let obj = match &value {
            Value::Object(m) => m,
            other => return Err(format!("request must be an object, found {other:?}")),
        };
        let v = match optional_u64(obj, "v")? {
            None => 1,
            Some(0) => return Err("v must be >= 1".to_string()),
            Some(n) => n,
        };
        if v > u64::from(PROTOCOL_VERSION_REVISIONS) {
            return Err(format!(
                "unsupported protocol version v={v} (this build speaks up to v={PROTOCOL_VERSION_REVISIONS})"
            ));
        }
        match optional_str(obj, "kind")?.as_deref().unwrap_or("verify") {
            "verify" => Ok(Request::Job(JobRequest::parse_object(obj)?)),
            "verify_revisions" => {
                if v < u64::from(PROTOCOL_VERSION_REVISIONS) {
                    return Err(format!(
                        "kind `verify_revisions` requires `\"v\":{PROTOCOL_VERSION_REVISIONS}` on the request line (got v={v})"
                    ));
                }
                Ok(Request::Revisions(RevisionsRequest::parse_object(obj)?))
            }
            other => Err(format!(
                "unknown request kind `{other}` (expected `verify` or `verify_revisions`)"
            )),
        }
    }

    /// The caller-chosen request id, whichever kind this is.
    pub fn id(&self) -> &str {
        match self {
            Request::Job(r) => &r.id,
            Request::Revisions(r) => &r.id,
        }
    }

    /// The protocol revision stamped on this request's response line,
    /// refusals included: [`PROTOCOL_VERSION`] for a job,
    /// [`PROTOCOL_VERSION_REVISIONS`] for a revision stream.
    pub fn protocol_version(&self) -> u32 {
        match self {
            Request::Job(_) => PROTOCOL_VERSION,
            Request::Revisions(_) => PROTOCOL_VERSION_REVISIONS,
        }
    }

    /// The request's own deadline in milliseconds, if it set one.
    pub fn deadline_ms(&self) -> Option<u64> {
        match self {
            Request::Job(r) => r.deadline_ms,
            Request::Revisions(r) => r.deadline_ms,
        }
    }
}

impl From<JobRequest> for Request {
    fn from(request: JobRequest) -> Self {
        Request::Job(request)
    }
}

impl From<RevisionsRequest> for Request {
    fn from(request: RevisionsRequest) -> Self {
        Request::Revisions(request)
    }
}

/// One verification job, parsed from a request line.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Caller-chosen identifier echoed on the response line.
    pub id: String,
    /// Program in the surface syntax, including `// assert` lines.
    pub program: String,
    /// Qubits carrying the program input.
    pub input_qubits: Vec<usize>,
    /// RNG seed for the job (characterization seed is derived from it).
    pub seed: u64,
    /// Overrides the sampled-input budget.
    pub samples: Option<usize>,
    /// Job deadline in milliseconds, counted from submission.
    pub deadline_ms: Option<u64>,
    /// Overrides the validation solver's restart count.
    pub restarts: Option<usize>,
    /// Noise model name: `"noiseless"` (default) or `"ibm_cairo"`.
    pub noise: Option<String>,
}

impl JobRequest {
    /// A minimal request with the required fields; optional knobs default
    /// to `None`.
    pub fn new(
        id: impl Into<String>,
        program: impl Into<String>,
        input_qubits: Vec<usize>,
    ) -> Self {
        JobRequest {
            id: id.into(),
            program: program.into(),
            input_qubits,
            seed: 0,
            samples: None,
            deadline_ms: None,
            restarts: None,
            noise: None,
        }
    }

    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// A human-readable description of the malformed line (bad JSON,
    /// missing or mistyped field).
    pub fn from_json_line(line: &str) -> Result<JobRequest, String> {
        let value = json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
        let obj = match &value {
            Value::Object(m) => m,
            other => return Err(format!("request must be an object, found {other:?}")),
        };
        JobRequest::parse_object(obj)
    }

    /// Parses the request body out of an already-parsed line object
    /// (the [`Request`] envelope dispatcher lands here).
    fn parse_object(obj: &BTreeMap<String, Value>) -> Result<JobRequest, String> {
        let id = require_str(obj, "id")?;
        let program = require_str(obj, "program")?;
        let input_qubits = input_qubits_field(obj)?;
        let seed = require_seed(obj)?;
        Ok(JobRequest {
            id,
            program,
            input_qubits,
            seed,
            samples: optional_u64(obj, "samples")?.map(|n| n as usize),
            deadline_ms: optional_u64(obj, "deadline_ms")?,
            restarts: optional_u64(obj, "restarts")?.map(|n| n as usize),
            noise: optional_str(obj, "noise")?,
        })
    }

    /// Renders the request as one JSON line (fixture generation, tests).
    pub fn to_json_line(&self) -> String {
        let mut m = BTreeMap::new();
        m.insert("id".to_string(), Value::Str(self.id.clone()));
        m.insert("program".to_string(), Value::Str(self.program.clone()));
        m.insert(
            "input_qubits".to_string(),
            Value::Array(
                self.input_qubits
                    .iter()
                    .map(|&q| Value::UInt(q as u64))
                    .collect(),
            ),
        );
        m.insert("seed".to_string(), Value::UInt(self.seed));
        if let Some(n) = self.samples {
            m.insert("samples".to_string(), Value::UInt(n as u64));
        }
        if let Some(ms) = self.deadline_ms {
            m.insert("deadline_ms".to_string(), Value::UInt(ms));
        }
        if let Some(r) = self.restarts {
            m.insert("restarts".to_string(), Value::UInt(r as u64));
        }
        if let Some(noise) = &self.noise {
            m.insert("noise".to_string(), Value::Str(noise.clone()));
        }
        json::to_string(&Value::Object(m))
    }
}

/// An ordered stream of program revisions — the edit loop. Parsed from a
/// `"v":2`, `"kind":"verify_revisions"` request line.
///
/// The shared knobs (`input_qubits`, `seed`, `samples`, …) apply to
/// every revision, and each revision runs as the `verify` job with its
/// program and those knobs would, through the service's one artifact
/// cache: an identical revision appearing twice in the stream answers
/// identically, and the second one hits the cache.
#[derive(Debug, Clone, PartialEq)]
pub struct RevisionsRequest {
    /// Caller-chosen identifier echoed on the response line.
    pub id: String,
    /// Program revisions in verification order, each in the surface
    /// syntax including `// assert` lines. Must be non-empty.
    pub revisions: Vec<String>,
    /// Qubits carrying the program input (shared by all revisions).
    pub input_qubits: Vec<usize>,
    /// RNG seed; every revision restarts from it.
    pub seed: u64,
    /// Overrides the sampled-input budget.
    pub samples: Option<usize>,
    /// Deadline in milliseconds for the whole stream, counted from
    /// submission.
    pub deadline_ms: Option<u64>,
    /// Overrides the validation solver's restart count.
    pub restarts: Option<usize>,
    /// Noise model name: `"noiseless"` (default) or `"ibm_cairo"`.
    pub noise: Option<String>,
    /// Input ensemble name: `"clifford"` (default), `"pauli_product"`,
    /// or `"basis"`.
    pub ensemble: Option<String>,
}

impl RevisionsRequest {
    /// A minimal revision-stream request; optional knobs default to
    /// `None`.
    pub fn new(id: impl Into<String>, revisions: Vec<String>, input_qubits: Vec<usize>) -> Self {
        RevisionsRequest {
            id: id.into(),
            revisions,
            input_qubits,
            seed: 0,
            samples: None,
            deadline_ms: None,
            restarts: None,
            noise: None,
            ensemble: None,
        }
    }

    fn parse_object(obj: &BTreeMap<String, Value>) -> Result<RevisionsRequest, String> {
        let id = require_str(obj, "id")?;
        let revisions = match obj.get("revisions") {
            Some(Value::Array(items)) => items
                .iter()
                .map(|v| match v {
                    Value::Str(s) => Ok(s.clone()),
                    _ => Err("revisions entries must be program strings".to_string()),
                })
                .collect::<Result<Vec<String>, String>>()?,
            Some(_) => return Err("revisions must be an array".into()),
            None => return Err("missing required field `revisions`".into()),
        };
        if revisions.is_empty() {
            return Err("revisions must not be empty".into());
        }
        Ok(RevisionsRequest {
            id,
            revisions,
            input_qubits: input_qubits_field(obj)?,
            seed: require_seed(obj)?,
            samples: optional_u64(obj, "samples")?.map(|n| n as usize),
            deadline_ms: optional_u64(obj, "deadline_ms")?,
            restarts: optional_u64(obj, "restarts")?.map(|n| n as usize),
            noise: optional_str(obj, "noise")?,
            ensemble: optional_str(obj, "ensemble")?,
        })
    }

    /// Renders the request as one JSON line (fixture generation, tests),
    /// including its `"v":2` / `"kind":"verify_revisions"` envelope.
    pub fn to_json_line(&self) -> String {
        let mut m = BTreeMap::new();
        m.insert(
            "v".to_string(),
            Value::UInt(u64::from(PROTOCOL_VERSION_REVISIONS)),
        );
        m.insert(
            "kind".to_string(),
            Value::Str("verify_revisions".to_string()),
        );
        m.insert("id".to_string(), Value::Str(self.id.clone()));
        m.insert(
            "revisions".to_string(),
            Value::Array(
                self.revisions
                    .iter()
                    .map(|p| Value::Str(p.clone()))
                    .collect(),
            ),
        );
        m.insert(
            "input_qubits".to_string(),
            Value::Array(
                self.input_qubits
                    .iter()
                    .map(|&q| Value::UInt(q as u64))
                    .collect(),
            ),
        );
        m.insert("seed".to_string(), Value::UInt(self.seed));
        if let Some(n) = self.samples {
            m.insert("samples".to_string(), Value::UInt(n as u64));
        }
        if let Some(ms) = self.deadline_ms {
            m.insert("deadline_ms".to_string(), Value::UInt(ms));
        }
        if let Some(r) = self.restarts {
            m.insert("restarts".to_string(), Value::UInt(r as u64));
        }
        if let Some(noise) = &self.noise {
            m.insert("noise".to_string(), Value::Str(noise.clone()));
        }
        if let Some(ensemble) = &self.ensemble {
            m.insert("ensemble".to_string(), Value::Str(ensemble.clone()));
        }
        json::to_string(&Value::Object(m))
    }
}

fn input_qubits_field(obj: &BTreeMap<String, Value>) -> Result<Vec<usize>, String> {
    match obj.get("input_qubits") {
        Some(Value::Array(items)) => items
            .iter()
            .map(|v| {
                v.as_u64()
                    .map(|n| n as usize)
                    .ok_or_else(|| "input_qubits entries must be unsigned integers".to_string())
            })
            .collect::<Result<Vec<usize>, String>>(),
        Some(_) => Err("input_qubits must be an array".into()),
        None => Err("missing required field `input_qubits`".into()),
    }
}

fn require_seed(obj: &BTreeMap<String, Value>) -> Result<u64, String> {
    match obj.get("seed") {
        Some(v) => v
            .as_u64()
            .ok_or_else(|| "seed must be an unsigned integer".to_string()),
        None => Err("missing required field `seed`".into()),
    }
}

fn require_str(obj: &BTreeMap<String, Value>, key: &str) -> Result<String, String> {
    match obj.get(key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        Some(_) => Err(format!("{key} must be a string")),
        None => Err(format!("missing required field `{key}`")),
    }
}

fn optional_u64(obj: &BTreeMap<String, Value>, key: &str) -> Result<Option<u64>, String> {
    match obj.get(key) {
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("{key} must be an unsigned integer")),
        None => Ok(None),
    }
}

fn optional_str(obj: &BTreeMap<String, Value>, key: &str) -> Result<Option<String>, String> {
    match obj.get(key) {
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(format!("{key} must be a string")),
        None => Ok(None),
    }
}

/// Terminal status of one job, as rendered on its response line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Completed; every assertion passed (process exit contribution 0).
    Passed,
    /// Completed; at least one assertion refuted (exit contribution 2).
    Refuted,
    /// Never ran: the submission queue was full or the service was
    /// shutting down (exit contribution 1).
    Rejected,
    /// Started but could not complete (exit contribution 1).
    Error,
}

impl JobStatus {
    fn tag(self) -> &'static str {
        match self {
            JobStatus::Passed => "passed",
            JobStatus::Refuted => "refuted",
            JobStatus::Rejected => "rejected",
            JobStatus::Error => "error",
        }
    }
}

/// One response line.
#[derive(Debug, Clone)]
pub struct JobResponse {
    /// Echo of the request id.
    pub id: String,
    /// Terminal status.
    pub status: JobStatus,
    /// The serialized line body (already deterministic).
    body: Value,
}

impl JobResponse {
    /// Builds the response for a completed verification.
    pub fn from_report(
        id: &str,
        fingerprint: morph_store::Fingerprint,
        report: &VerificationReport,
    ) -> JobResponse {
        let status = report_status(report);
        let mut body = base_body(id, status);
        body.insert("characterization_fp".to_string(), fingerprint.to_value());
        body.insert("assertions".to_string(), assertions_value(report));
        body.insert("run".to_string(), run_value(report));
        JobResponse {
            id: id.to_string(),
            status,
            body: Value::Object(body),
        }
    }

    /// Builds the response for a completed `verify_revisions` stream:
    /// one entry per revision (in stream order) carrying its status,
    /// assertion verdicts and run costs — a `verify` response's body
    /// without its `id`, `protocol` and `characterization_fp`. A
    /// revision that failed contributes an in-band error entry; the
    /// line-level status is the worst across revisions (refuted
    /// dominates error dominates passed, matching the exit-code
    /// convention). Stamped `"protocol":2`.
    pub fn from_revisions(
        id: &str,
        outcomes: &[Result<VerificationReport, JobError>],
    ) -> JobResponse {
        // Severity follows the exit-code convention (refuted > error >
        // passed), so the line-level status and exit code agree.
        let severity = |s: JobStatus| match s {
            JobStatus::Passed => 0,
            JobStatus::Rejected | JobStatus::Error => 1,
            JobStatus::Refuted => 2,
        };
        let mut status = JobStatus::Passed;
        let mut entries: Vec<Value> = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            let mut m = BTreeMap::new();
            match outcome {
                Ok(report) => {
                    let rev_status = report_status(report);
                    if severity(rev_status) > severity(status) {
                        status = rev_status;
                    }
                    m.insert(
                        "status".to_string(),
                        Value::Str(rev_status.tag().to_string()),
                    );
                    m.insert("assertions".to_string(), assertions_value(report));
                    m.insert("run".to_string(), run_value(report));
                }
                Err(e) => {
                    if severity(JobStatus::Error) > severity(status) {
                        status = JobStatus::Error;
                    }
                    m.insert(
                        "status".to_string(),
                        Value::Str(JobStatus::Error.tag().to_string()),
                    );
                    let mut err = BTreeMap::new();
                    err.insert("kind".to_string(), Value::Str(e.kind().to_string()));
                    err.insert("message".to_string(), Value::Str(e.to_string()));
                    m.insert("error".to_string(), Value::Object(err));
                }
            }
            entries.push(Value::Object(m));
        }
        let mut body = base_body_with(id, status, PROTOCOL_VERSION_REVISIONS);
        body.insert("revisions".to_string(), Value::Array(entries));
        JobResponse {
            id: id.to_string(),
            status,
            body: Value::Object(body),
        }
    }

    /// Builds the response for a request that started but failed as a
    /// whole — a job's failure, or a stream's deadline or panic — stamped
    /// with the protocol `version` of the request it answers
    /// ([`Request::protocol_version`]).
    pub fn from_error(id: &str, version: u32, error: &JobError) -> JobResponse {
        JobResponse::error_with_version(
            id,
            JobStatus::Error,
            error.kind(),
            &error.to_string(),
            version,
        )
    }

    /// Builds the response for a submission the service refused, stamped
    /// with the protocol `version` of the request it answers
    /// ([`Request::protocol_version`]).
    pub fn from_rejection(id: &str, version: u32, rejection: &SubmitError) -> JobResponse {
        JobResponse::from_refusal(id, version, rejection.kind(), &rejection.to_string())
    }

    /// Builds the response for a line that did not parse as a request.
    pub fn from_invalid_line(id: &str, message: &str) -> JobResponse {
        JobResponse::error_with_version(
            id,
            JobStatus::Error,
            "invalid_request",
            message,
            PROTOCOL_VERSION,
        )
    }

    /// Builds a structured refusal with an explicit kind — the network
    /// listener's admission-control rejections (`connection_quota`,
    /// `job_quota`) that have no [`SubmitError`] counterpart — stamped
    /// with the protocol `version` of the request it answers. The job (or
    /// connection) never ran; status is `rejected`.
    pub fn from_refusal(id: &str, version: u32, kind: &str, message: &str) -> JobResponse {
        JobResponse::error_with_version(id, JobStatus::Rejected, kind, message, version)
    }

    fn error_with_version(
        id: &str,
        status: JobStatus,
        kind: &str,
        message: &str,
        version: u32,
    ) -> JobResponse {
        let mut body = base_body_with(id, status, version);
        let mut err = BTreeMap::new();
        err.insert("kind".to_string(), Value::Str(kind.to_string()));
        err.insert("message".to_string(), Value::Str(message.to_string()));
        body.insert("error".to_string(), Value::Object(err));
        JobResponse {
            id: id.to_string(),
            status,
            body: Value::Object(body),
        }
    }

    /// The response's process-exit-code contribution under the 0/2/1
    /// convention; a batch exits with the maximum across its lines.
    pub fn exit_code(&self) -> i32 {
        match self.status {
            JobStatus::Passed => 0,
            JobStatus::Refuted => 2,
            JobStatus::Rejected | JobStatus::Error => 1,
        }
    }

    /// Renders the response as one JSON line.
    pub fn to_json_line(&self) -> String {
        json::to_string(&self.body)
    }

    /// Writes the response line and its `\n` with one `write_all`. On a
    /// socket a separate write of the terminator can sit in the send
    /// buffer until the peer's delayed ACK arrives.
    ///
    /// # Errors
    ///
    /// The I/O error from `out`.
    pub(crate) fn write_line(&self, mut out: impl Write) -> io::Result<()> {
        let mut line = self.to_json_line();
        line.push('\n');
        out.write_all(line.as_bytes())
    }

    /// The structured body (for tests inspecting fields).
    pub fn body(&self) -> &Value {
        &self.body
    }
}

fn base_body(id: &str, status: JobStatus) -> BTreeMap<String, Value> {
    base_body_with(id, status, PROTOCOL_VERSION)
}

fn base_body_with(id: &str, status: JobStatus, version: u32) -> BTreeMap<String, Value> {
    let mut m = BTreeMap::new();
    m.insert("id".to_string(), Value::Str(id.to_string()));
    m.insert("protocol".to_string(), Value::UInt(u64::from(version)));
    m.insert("status".to_string(), Value::Str(status.tag().to_string()));
    m
}

fn report_status(report: &VerificationReport) -> JobStatus {
    if report.all_passed() {
        JobStatus::Passed
    } else {
        JobStatus::Refuted
    }
}

/// The per-assertion verdict array shared by single-job and per-revision
/// response bodies.
fn assertions_value(report: &VerificationReport) -> Value {
    let assertions: Vec<Value> = report
        .outcomes
        .iter()
        .map(|o| {
            let mut m = BTreeMap::new();
            match &o.verdict {
                Verdict::Passed {
                    max_objective,
                    confidence,
                } => {
                    m.insert("verdict".to_string(), Value::Str("passed".into()));
                    m.insert("max_objective".to_string(), max_objective.to_value());
                    m.insert("confidence".to_string(), confidence.to_value());
                }
                Verdict::Failed { max_objective, .. } => {
                    m.insert("verdict".to_string(), Value::Str("failed".into()));
                    m.insert("max_objective".to_string(), max_objective.to_value());
                }
            }
            Value::Object(m)
        })
        .collect();
    Value::Array(assertions)
}

/// The run-cost object shared by single-job and per-revision response
/// bodies.
fn run_value(report: &VerificationReport) -> Value {
    let mut run = BTreeMap::new();
    run.insert("executions".to_string(), Value::UInt(report.run.executions));
    run.insert("shots".to_string(), Value::UInt(report.run.shots));
    run.insert(
        "quantum_ops".to_string(),
        Value::UInt(report.run.quantum_ops),
    );
    run.insert(
        "solver_evaluations".to_string(),
        Value::UInt(report.run.solver_evaluations),
    );
    run.insert(
        "solver_iterations".to_string(),
        Value::UInt(report.run.solver_iterations),
    );
    run.insert("backend".to_string(), Value::Str(report.run.backend.tag()));
    run.insert(
        "sparse_spills".to_string(),
        Value::UInt(report.run.fast_path.spills),
    );
    run.insert(
        "sparse_switches".to_string(),
        Value::UInt(report.run.fast_path.switches),
    );
    run.insert(
        "splices".to_string(),
        Value::UInt(report.run.fast_path.splices),
    );
    run.insert(
        "sparse_peak_nonzeros".to_string(),
        Value::UInt(report.run.fast_path.peak_nonzeros),
    );
    Value::Object(run)
}

/// Extracts a best-effort job id from an unparseable request line, so the
/// error response still correlates with the input.
pub fn salvage_id(line: &str) -> String {
    json::parse(line)
        .ok()
        .and_then(|v| v.get("id").and_then(Value::as_str).map(String::from))
        .unwrap_or_else(|| "<unknown>".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_through_json() {
        let mut req = JobRequest::new("job-1", "qreg q[1];", vec![0]);
        req.seed = 42;
        req.samples = Some(4);
        req.deadline_ms = Some(500);
        req.noise = Some("ibm_cairo".into());
        let line = req.to_json_line();
        assert_eq!(JobRequest::from_json_line(&line).unwrap(), req);
    }

    #[test]
    fn missing_fields_are_reported_by_name() {
        let err = JobRequest::from_json_line(r#"{"id":"x","program":"p"}"#).unwrap_err();
        assert!(err.contains("input_qubits"), "{err}");
        let err = JobRequest::from_json_line(r#"{"id":"x","program":"p","input_qubits":[0]}"#)
            .unwrap_err();
        assert!(err.contains("seed"), "{err}");
        assert!(JobRequest::from_json_line("not json").is_err());
    }

    #[test]
    fn salvage_id_recovers_when_possible() {
        assert_eq!(salvage_id(r#"{"id":"j7","seed":"bad"}"#), "j7");
        assert_eq!(salvage_id("garbage"), "<unknown>");
    }

    #[test]
    fn error_lines_carry_kind_and_message() {
        let resp = JobResponse::from_invalid_line("j", "missing seed");
        assert_eq!(resp.exit_code(), 1);
        let line = resp.to_json_line();
        assert!(line.contains("\"invalid_request\""), "{line}");
        assert!(line.contains("\"protocol\":1"), "{line}");
    }

    #[test]
    fn envelope_defaults_to_a_v1_verify_request() {
        // A pre-versioning line (no `v`, no `kind`) parses to the same
        // job the legacy codec produced.
        let line = r#"{"id":"x","program":"p","input_qubits":[0],"seed":3}"#;
        let legacy = JobRequest::from_json_line(line).unwrap();
        match Request::from_json_line(line).unwrap() {
            Request::Job(job) => assert_eq!(job, legacy),
            other => panic!("expected a job, got {other:?}"),
        }
        // An explicit `"v":1` and `"kind":"verify"` means the same.
        let line = r#"{"id":"x","kind":"verify","program":"p","input_qubits":[0],"seed":3,"v":1}"#;
        match Request::from_json_line(line).unwrap() {
            Request::Job(job) => assert_eq!(job, legacy),
            other => panic!("expected a job, got {other:?}"),
        }
    }

    #[test]
    fn envelope_rejects_bad_versions_and_kinds() {
        let err = Request::from_json_line(
            r#"{"id":"x","program":"p","input_qubits":[0],"seed":3,"v":0}"#,
        )
        .unwrap_err();
        assert!(err.contains("v must be >= 1"), "{err}");
        let err = Request::from_json_line(
            r#"{"id":"x","program":"p","input_qubits":[0],"seed":3,"v":3}"#,
        )
        .unwrap_err();
        assert!(err.contains("unsupported protocol version"), "{err}");
        let err = Request::from_json_line(
            r#"{"id":"x","kind":"verify_stream","program":"p","input_qubits":[0],"seed":3}"#,
        )
        .unwrap_err();
        assert!(err.contains("unknown request kind"), "{err}");
        // The revisions kind postdates v1, so it must declare v2.
        let err = Request::from_json_line(
            r#"{"id":"x","kind":"verify_revisions","revisions":["p"],"input_qubits":[0],"seed":3}"#,
        )
        .unwrap_err();
        assert!(err.contains("requires"), "{err}");
    }

    #[test]
    fn revisions_request_round_trips_through_json() {
        let mut req = RevisionsRequest::new("rev-1", vec!["a".into(), "b".into()], vec![0, 1]);
        req.seed = 9;
        req.samples = Some(4);
        req.ensemble = Some("pauli_product".into());
        let line = req.to_json_line();
        match Request::from_json_line(&line).unwrap() {
            Request::Revisions(parsed) => assert_eq!(parsed, req),
            other => panic!("expected a revisions request, got {other:?}"),
        }
    }

    #[test]
    fn revisions_request_validates_its_fields() {
        let base = |extra: &str| {
            format!(
                r#"{{"id":"x","kind":"verify_revisions","input_qubits":[0],"seed":3,"v":2{extra}}}"#
            )
        };
        let err = Request::from_json_line(&base("")).unwrap_err();
        assert!(err.contains("revisions"), "{err}");
        let err = Request::from_json_line(&base(r#","revisions":[]"#)).unwrap_err();
        assert!(err.contains("must not be empty"), "{err}");
        let err = Request::from_json_line(&base(r#","revisions":[7]"#)).unwrap_err();
        assert!(err.contains("program strings"), "{err}");
    }

    #[test]
    fn revisions_error_lines_stamp_protocol_two() {
        let resp = JobResponse::from_error(
            "rev-err",
            PROTOCOL_VERSION_REVISIONS,
            &JobError::Invalid {
                message: "nope".into(),
            },
        );
        let line = resp.to_json_line();
        assert!(line.contains("\"protocol\":2"), "{line}");
        assert_eq!(resp.exit_code(), 1);
    }
}
