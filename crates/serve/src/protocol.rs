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

/// Protocol version stamped on every response line. A request line may
/// declare it with `"v":1`; a line without `"v"` speaks it too.
pub const PROTOCOL_VERSION: u32 = 1;

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
    /// Input ensemble name: `"clifford"` (default), `"pauli_product"`,
    /// or `"basis"`.
    pub ensemble: Option<String>,
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
            ensemble: None,
        }
    }

    /// Parses one request line. Its envelope fields may be omitted; when
    /// present, `"v"` must be `1` and `"kind"` must be `"verify"`.
    ///
    /// # Errors
    ///
    /// A human-readable description of the malformed line: bad JSON, an
    /// unsupported `"v"` or `"kind"`, or a missing or mistyped field.
    pub fn from_json_line(line: &str) -> Result<JobRequest, String> {
        let value = json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
        let obj = match &value {
            Value::Object(m) => m,
            other => return Err(format!("request must be an object, found {other:?}")),
        };
        match optional_u64(obj, "v")? {
            None | Some(1) => {}
            Some(v) => {
                return Err(format!(
                    "unsupported protocol version v={v} (this build speaks v={PROTOCOL_VERSION})"
                ))
            }
        }
        match optional_str(obj, "kind")?.as_deref() {
            None | Some("verify") => {}
            Some(other) => {
                return Err(format!(
                    "unknown request kind `{other}` (expected `verify`)"
                ))
            }
        }
        let missing = |key: &str| format!("missing required field `{key}`");
        Ok(JobRequest {
            id: optional_str(obj, "id")?.ok_or_else(|| missing("id"))?,
            program: optional_str(obj, "program")?.ok_or_else(|| missing("program"))?,
            input_qubits: input_qubits_field(obj)?,
            seed: optional_u64(obj, "seed")?.ok_or_else(|| missing("seed"))?,
            samples: optional_u64(obj, "samples")?.map(|n| n as usize),
            deadline_ms: optional_u64(obj, "deadline_ms")?,
            restarts: optional_u64(obj, "restarts")?.map(|n| n as usize),
            noise: optional_str(obj, "noise")?,
            ensemble: optional_str(obj, "ensemble")?,
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
        let status = if report.all_passed() {
            JobStatus::Passed
        } else {
            JobStatus::Refuted
        };
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

    /// Builds the response for a job that started but failed.
    pub fn from_error(id: &str, error: &JobError) -> JobResponse {
        JobResponse::failure(id, JobStatus::Error, error.kind(), &error.to_string())
    }

    /// Builds the response for a submission the service refused.
    pub fn from_rejection(id: &str, rejection: &SubmitError) -> JobResponse {
        JobResponse::from_refusal(id, rejection.kind(), &rejection.to_string())
    }

    /// Builds the response for a line that did not parse as a request.
    pub fn from_invalid_line(id: &str, message: &str) -> JobResponse {
        JobResponse::failure(id, JobStatus::Error, "invalid_request", message)
    }

    /// Builds a structured refusal with an explicit kind — the network
    /// listener's admission-control rejections (`connection_quota`,
    /// `job_quota`) that have no [`SubmitError`] counterpart. The job (or
    /// connection) never ran; status is `rejected`.
    pub fn from_refusal(id: &str, kind: &str, message: &str) -> JobResponse {
        JobResponse::failure(id, JobStatus::Rejected, kind, message)
    }

    fn failure(id: &str, status: JobStatus, kind: &str, message: &str) -> JobResponse {
        let mut body = base_body(id, status);
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
    let mut m = BTreeMap::new();
    m.insert("id".to_string(), Value::Str(id.to_string()));
    m.insert(
        "protocol".to_string(),
        Value::UInt(u64::from(PROTOCOL_VERSION)),
    );
    m.insert("status".to_string(), Value::Str(status.tag().to_string()));
    m
}

/// The per-assertion verdict array of a completed job's response.
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

/// The run-cost object of a completed job's response.
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
        req.ensemble = Some("pauli_product".into());
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
        // A line without `v` and `kind` parses to the same job as one that
        // spells out `"v":1` and `"kind":"verify"`.
        let legacy =
            JobRequest::from_json_line(r#"{"id":"x","program":"p","input_qubits":[0],"seed":3}"#)
                .unwrap();
        let explicit = JobRequest::from_json_line(
            r#"{"id":"x","kind":"verify","program":"p","input_qubits":[0],"seed":3,"v":1}"#,
        )
        .unwrap();
        assert_eq!(explicit, legacy);
    }

    #[test]
    fn envelope_rejects_bad_versions_and_kinds() {
        for v in [0, 2, 3] {
            let err = JobRequest::from_json_line(&format!(
                r#"{{"id":"x","program":"p","input_qubits":[0],"seed":3,"v":{v}}}"#
            ))
            .unwrap_err();
            assert!(err.contains("unsupported protocol version"), "{err}");
        }
        for kind in ["verify_stream", "verify_revisions"] {
            let err = JobRequest::from_json_line(&format!(
                r#"{{"id":"x","kind":"{kind}","program":"p","input_qubits":[0],"seed":3}}"#
            ))
            .unwrap_err();
            assert!(err.contains("unknown request kind"), "{err}");
        }
    }
}
