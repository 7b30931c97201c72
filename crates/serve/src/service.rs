//! The verification service: a bounded worker pool running jobs end to
//! end, with coalescing, deadlines, panic isolation, and telemetry.
//!
//! # Job lifecycle
//!
//! [`Service::submit`] is non-blocking: it either enqueues the job on the
//! `morph-parallel` [`WorkerPool`] and returns a [`JobHandle`], or refuses
//! with a structured [`SubmitError`] (queue full, shutting down). Once a
//! worker picks the job up it runs the pipeline — parse, fingerprint,
//! characterize (coalesced), validate — and renders the response line,
//! which the handle delivers. Every failure mode is an in-band error on
//! that line; a job can never take the service down.
//!
//! # Determinism
//!
//! A job's results depend only on its request. Its RNG is seeded from
//! `request.seed`; one `u64` (`char_seed`) is drawn from it to key and
//! seed characterization — exactly the [`Verifier::try_run`] discipline —
//! and validation continues from the job's own stream. Whether a job
//! computed its characterization, followed a coalesced flight, or hit the
//! cache is therefore *invisible in its report* (the artifact round-trip
//! is bit-exact); it shows up only in the trace counters below.
//!
//! # Telemetry (`morph-trace`, off by default)
//!
//! - span `serve/job` per job (under the submitter's current span)
//! - counter `serve/characterize_leader` — characterizations computed
//! - counter `serve/coalesced_hit` — jobs served by a concurrent leader
//! - counter `serve/cache_hit` — jobs served from the artifact cache
//! - counter `serve/cross_process_hit` — cache hits on an artifact that
//!   another process sharing the cache directory computed
//! - gauge `serve/queue_depth` — queue depth sampled at each submission

use std::fmt;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use morph_parallel::{PoolRejection, WorkerPool};
use morph_qsim::NoiseModel;
use morph_store::{Fingerprint, Source};
use morphqpv::prelude::{
    assertions_from_source, parse_program, CancelToken, Cancelled, Characterization,
    CharacterizationCache, InputEnsemble, MorphError, Verifier,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::protocol::{JobRequest, JobResponse};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads; `0` means one per available core.
    pub workers: usize,
    /// Bounded submission queue capacity (must be nonzero).
    pub queue_capacity: usize,
    /// Persistent artifact cache directory; `None` keeps the cache
    /// memory-only.
    pub cache_dir: Option<PathBuf>,
    /// Deadline applied to jobs whose request carries no `deadline_ms`.
    pub default_deadline_ms: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            queue_capacity: 64,
            cache_dir: None,
            default_deadline_ms: None,
        }
    }
}

/// Why [`Service::submit`] refused a request without running it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity — backpressure; retry later.
    QueueFull {
        /// The configured capacity that was hit.
        capacity: usize,
    },
    /// The service is draining and accepts no new work.
    ShuttingDown,
}

impl SubmitError {
    /// Stable machine-readable tag used on protocol error lines.
    pub fn kind(&self) -> &'static str {
        match self {
            SubmitError::QueueFull { .. } => "queue_full",
            SubmitError::ShuttingDown => "shutting_down",
        }
    }
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "submission queue full (capacity {capacity})")
            }
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

impl From<PoolRejection> for SubmitError {
    fn from(r: PoolRejection) -> Self {
        match r {
            PoolRejection::QueueFull { capacity } => SubmitError::QueueFull { capacity },
            PoolRejection::ShuttingDown => SubmitError::ShuttingDown,
        }
    }
}

/// Why a job that started could not produce a report.
#[derive(Debug)]
pub enum JobError {
    /// The job's deadline elapsed (possibly while still queued); the
    /// pipeline stopped at its next cancellation check.
    DeadlineExceeded,
    /// The job's worker panicked; the panic was contained to this job.
    Panicked {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The request was structurally invalid (bad qubit index, unknown
    /// noise model, no assertions).
    Invalid {
        /// What was wrong.
        message: String,
    },
    /// The verification pipeline itself failed (parse error, solver
    /// failure, store I/O).
    Verification(MorphError),
}

impl JobError {
    /// Stable machine-readable tag used on protocol error lines.
    pub fn kind(&self) -> &'static str {
        match self {
            JobError::DeadlineExceeded => "deadline_exceeded",
            JobError::Panicked { .. } => "panicked",
            JobError::Invalid { .. } => "invalid_request",
            JobError::Verification(_) => "verification",
        }
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::DeadlineExceeded => write!(f, "job deadline exceeded"),
            JobError::Panicked { message } => write!(f, "job panicked: {message}"),
            JobError::Invalid { message } => write!(f, "invalid request: {message}"),
            JobError::Verification(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Verification(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MorphError> for JobError {
    fn from(e: MorphError) -> Self {
        match e {
            // The deadline is a service-level concept; surface it as the
            // dedicated variant rather than a wrapped pipeline error.
            MorphError::Cancelled(Cancelled::DeadlineExceeded) => JobError::DeadlineExceeded,
            other => JobError::Verification(other),
        }
    }
}

impl From<Cancelled> for JobError {
    fn from(e: Cancelled) -> Self {
        JobError::from(MorphError::from(e))
    }
}

/// Handle to one submitted job.
pub struct JobHandle {
    id: String,
    rx: mpsc::Receiver<JobResponse>,
}

impl JobHandle {
    /// Blocks until the job finishes and returns its response line.
    pub fn wait(self) -> JobResponse {
        self.rx.recv().unwrap_or_else(|_| {
            // The worker vanished without reporting — only possible if the
            // service was torn down with the job still queued.
            let vanished = JobError::Panicked {
                message: "worker disappeared before delivering a result".to_string(),
            };
            JobResponse::from_error(&self.id, &vanished)
        })
    }
}

/// The verification service. See the module docs for the job lifecycle.
pub struct Service {
    pool: WorkerPool,
    /// The artifact cache every worker shares; it coalesces concurrent
    /// identical characterizations itself.
    cache: Arc<CharacterizationCache>,
    default_deadline_ms: Option<u64>,
}

impl Service {
    /// Starts the worker pool and opens the artifact cache.
    ///
    /// # Errors
    ///
    /// The I/O error if `config.cache_dir` cannot be created.
    ///
    /// # Panics
    ///
    /// Panics if `config.queue_capacity` is zero.
    pub fn start(config: &ServeConfig) -> io::Result<Service> {
        let cache = match &config.cache_dir {
            Some(dir) => CharacterizationCache::open(dir)?,
            None => CharacterizationCache::in_memory(),
        };
        Ok(Service {
            pool: WorkerPool::new(config.workers, config.queue_capacity),
            cache: Arc::new(cache),
            default_deadline_ms: config.default_deadline_ms,
        })
    }

    /// Submits a job without blocking.
    ///
    /// The job's deadline clock starts *now* — time spent queued counts
    /// against it.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] when the queue is full or the service is shutting
    /// down; the job was not accepted and will not run.
    pub fn submit(&self, request: JobRequest) -> Result<JobHandle, SubmitError> {
        let token = match request.deadline_ms.or(self.default_deadline_ms) {
            Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
            None => CancelToken::new(),
        };
        let id = request.id.clone();
        let (tx, rx) = mpsc::channel();
        let cache = Arc::clone(&self.cache);
        let parent_span = morph_trace::current_span();
        self.pool.try_submit(move || {
            let _span = morph_trace::span_under(parent_span, "serve/job");
            let response = catch_unwind(AssertUnwindSafe(|| run_job(&cache, &request, &token)))
                .unwrap_or_else(|payload| {
                    Err(JobError::Panicked {
                        message: panic_message(&payload),
                    })
                })
                .unwrap_or_else(|e| JobResponse::from_error(&request.id, &e));
            // A dropped handle is fine — the job's work still happened
            // (and populated the cache); only the notification is lost.
            let _ = tx.send(response);
        })?;
        morph_trace::gauge("serve/queue_depth", self.pool.queue_depth() as f64);
        Ok(JobHandle { id, rx })
    }

    /// Jobs queued but not yet picked up by a worker.
    pub fn queue_depth(&self) -> usize {
        self.pool.queue_depth()
    }

    /// Holds queued jobs (workers finish their current job and idle).
    /// Deterministic-saturation hook for tests; see [`WorkerPool::pause`].
    pub fn pause(&self) {
        self.pool.pause();
    }

    /// Releases jobs held by [`pause`](Self::pause).
    pub fn resume(&self) {
        self.pool.resume();
    }

    /// Blocks until every accepted job has finished. New submissions are
    /// still accepted during and after the drain.
    pub fn drain(&self) {
        self.pool.drain();
    }

    /// Graceful shutdown: runs every already-accepted job to completion,
    /// then joins the workers. Dropping the service does the same.
    pub fn shutdown(self) {
        self.pool.shutdown();
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs one job end to end on a worker thread and renders its response
/// line: builds its verifier, obtains the characterization through the
/// shared cache, and validates it.
fn run_job(
    cache: &CharacterizationCache,
    request: &JobRequest,
    token: &CancelToken,
) -> Result<JobResponse, JobError> {
    token.check()?;
    let verifier = build_verifier(request)?;

    // The `Verifier::try_run` RNG discipline, spelled out so the job can
    // report its fingerprint and honor its token while it waits: draw one
    // u64 for the characterization, validate from the job's own stream.
    let mut job_rng = StdRng::seed_from_u64(request.seed);
    let char_seed: u64 = job_rng.gen();
    let fingerprint = verifier.characterization_fingerprint(char_seed);

    let characterization =
        obtain_characterization(cache, &verifier, fingerprint, char_seed, token)?;
    token.check()?;
    let report = verifier.try_validate_with(
        Characterization::clone(&characterization),
        &mut job_rng,
        None,
        token,
    )?;
    Ok(JobResponse::from_report(&request.id, fingerprint, &report))
}

/// Parses and validates one program into a configured [`Verifier`].
fn build_verifier(request: &JobRequest) -> Result<Verifier, JobError> {
    let circuit = parse_program(&request.program).map_err(MorphError::from)?;
    let assertions = assertions_from_source(&request.program).map_err(MorphError::from)?;
    if assertions.is_empty() {
        return Err(JobError::Invalid {
            message: "program contains no `// assert` specifications".to_string(),
        });
    }
    if request.input_qubits.is_empty() {
        return Err(JobError::Invalid {
            message: "input_qubits must not be empty".to_string(),
        });
    }
    for &q in &request.input_qubits {
        if q >= circuit.n_qubits() {
            return Err(JobError::Invalid {
                message: format!(
                    "input qubit {q} out of range for a {}-qubit program",
                    circuit.n_qubits()
                ),
            });
        }
    }
    let mut verifier = Verifier::new(circuit).input_qubits(&request.input_qubits);
    if let Some(n) = request.samples {
        if n == 0 {
            return Err(JobError::Invalid {
                message: "samples must be nonzero".to_string(),
            });
        }
        verifier = verifier.samples(n);
    }
    match request.noise.as_deref() {
        None | Some("noiseless") => {}
        Some("ibm_cairo") => verifier = verifier.noise(NoiseModel::ibm_cairo()),
        Some(other) => {
            return Err(JobError::Invalid {
                message: format!(
                    "unknown noise model `{other}` (expected `noiseless` or `ibm_cairo`)"
                ),
            });
        }
    }
    if let Some(name) = &request.ensemble {
        let ensemble = InputEnsemble::from_name(name).ok_or_else(|| JobError::Invalid {
            message: format!(
                "unknown ensemble `{name}` (expected `clifford`, `pauli_product`, or `basis`)"
            ),
        })?;
        verifier = verifier.ensemble(ensemble);
    }
    if let Some(restarts) = request.restarts {
        verifier = verifier.validation(morphqpv::prelude::ValidationConfig {
            solver_restarts: Some(restarts),
            ..Default::default()
        });
    }
    for assertion in assertions {
        verifier = verifier.assert_that(assertion);
    }
    Ok(verifier)
}

/// Obtains the job's characterization through the cache's one call —
/// from memory, from disk, from an identical job's computation in flight,
/// or by computing it — and counts which answered. The job's token ends
/// any wait, and the computation, at its deadline.
fn obtain_characterization(
    cache: &CharacterizationCache,
    verifier: &Verifier,
    fingerprint: Fingerprint,
    char_seed: u64,
    token: &CancelToken,
) -> Result<Arc<Characterization>, JobError> {
    let (characterization, source) = cache.get_or_compute(
        &fingerprint,
        || token.check().map_err(MorphError::from),
        || {
            morph_trace::counter("serve/characterize_leader", 1);
            verifier.try_characterize_for_seed(char_seed, token)
        },
    )?;
    match source {
        Source::Memory | Source::Disk => morph_trace::counter("serve/cache_hit", 1),
        Source::OtherProcess => {
            morph_trace::counter("serve/cache_hit", 1);
            morph_trace::counter("serve/cross_process_hit", 1);
        }
        Source::Coalesced => morph_trace::counter("serve/coalesced_hit", 1),
        Source::Computed => {}
    }
    Ok(characterization)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_error_maps_pool_rejections() {
        let full: SubmitError = PoolRejection::QueueFull { capacity: 4 }.into();
        assert_eq!(full, SubmitError::QueueFull { capacity: 4 });
        assert_eq!(full.kind(), "queue_full");
        let down: SubmitError = PoolRejection::ShuttingDown.into();
        assert_eq!(down.kind(), "shutting_down");
    }

    #[test]
    fn deadline_cancellation_maps_to_job_error() {
        let e: JobError = MorphError::Cancelled(Cancelled::DeadlineExceeded).into();
        assert!(matches!(e, JobError::DeadlineExceeded));
        assert_eq!(e.kind(), "deadline_exceeded");
        let e: JobError = MorphError::Cancelled(Cancelled::Requested).into();
        assert!(matches!(e, JobError::Verification(_)));
    }
}
