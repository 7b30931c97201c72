//! morph-serve: a concurrent verification service for MorphQPV.
//!
//! Turns the one-shot verification pipeline (`morphqpv`) into a service: a
//! bounded worker pool accepts **jobs** — circuit + assertions + config —
//! over a newline-delimited JSON protocol (see [`protocol`]), runs each
//! end to end, and answers with one structured response line per request.
//! The library API ([`Service`]) serves in-process callers, the
//! `morph-serve` binary reads a batch from a file or stdin, and
//! [`serve_listener`] exposes the same protocol over TCP.
//!
//! An edit loop sends each revision of its program as its own job, in one
//! batch or pipelined on one connection; a revision that repeats an
//! earlier one (a revert) coalesces with it or hits its artifact.
//!
//! The throughput mechanism is **coalescing**: jobs are keyed by the
//! content address of their characterization (the `morph-store`
//! fingerprint), and every job obtains its characterization through the
//! shared artifact cache's one call, `MorphStore::get_or_compute`. It
//! answers from memory or disk, makes concurrent jobs with the same key
//! wait on a single characterization run — one leader computes, the
//! others wait — and, with a cache directory, lets processes sharing it
//! compute each key once. Reports stay bit-identical whether a job led,
//! waited, or hit the cache.
//!
//! Robustness properties (each tested in `tests/serve_service.rs`):
//! queue saturation surfaces as a structured rejection, never a deadlock;
//! deadlines cancel cooperatively between pipeline stages; a panicking job
//! is contained to its own error response; shutdown drains accepted work
//! first.

pub mod listener;
pub mod protocol;
pub mod service;

pub use listener::{serve_listener, Listener, ListenerConfig};
pub use protocol::{JobRequest, JobResponse, JobStatus, PROTOCOL_VERSION};
pub use service::{JobError, JobHandle, ServeConfig, Service, SubmitError};

use std::io::{self, BufRead, Write};
use std::time::Duration;

/// How long [`run_batch`] backs off before retrying a saturated queue.
const RESUBMIT_TICK: Duration = Duration::from_millis(5);

/// One request line's answer, in request order: resolved at once, or
/// when its submitted request finishes.
pub(crate) enum Slot {
    /// Answered without running: a line that did not parse, or a refusal.
    Ready(Box<JobResponse>),
    /// A submitted job.
    Pending(JobHandle),
}

impl Slot {
    /// The line-to-response path batch mode and the listener share: parses
    /// `line` and hands the job to `submit`, which returns the handle or
    /// the refusal to answer in its place. A line that does not parse
    /// answers `invalid_request` in-band.
    pub(crate) fn admit(
        line: &str,
        submit: impl FnOnce(JobRequest) -> Result<JobHandle, JobResponse>,
    ) -> Slot {
        match JobRequest::from_json_line(line) {
            Ok(request) => match submit(request) {
                Ok(handle) => Slot::Pending(handle),
                Err(refusal) => Slot::Ready(Box::new(refusal)),
            },
            Err(message) => Slot::Ready(Box::new(JobResponse::from_invalid_line(
                &protocol::salvage_id(line),
                &message,
            ))),
        }
    }

    /// The response line, blocking until a submitted job finishes.
    pub(crate) fn response(self) -> JobResponse {
        match self {
            Slot::Ready(response) => *response,
            Slot::Pending(handle) => handle.wait(),
        }
    }
}

/// Runs a batch of request lines through a fresh [`Service`] and writes
/// one response line per request, in request order.
///
/// Queue saturation is handled by blocking the submitter (retry with
/// backoff), not by rejecting: a batch driver has nothing better to do
/// with backpressure than wait, and retrying keeps the output independent
/// of queue timing. Lines that fail to parse produce in-band
/// `invalid_request` error responses.
///
/// Returns the batch exit code: the maximum per-line code under the
/// workspace 0/2/1 convention (0 all passed, 2 refuted, 1 failure).
///
/// # Errors
///
/// Only I/O errors from `input` or `output`; job failures are in-band.
pub fn run_batch(
    input: impl BufRead,
    mut output: impl Write,
    config: &ServeConfig,
) -> io::Result<i32> {
    let service = Service::start(config)?;
    let mut slots = Vec::new();
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        slots.push(Slot::admit(&line, |request| loop {
            match service.submit(request.clone()) {
                Ok(handle) => return Ok(handle),
                Err(SubmitError::QueueFull { .. }) => std::thread::sleep(RESUBMIT_TICK),
                Err(rejection) => return Err(JobResponse::from_rejection(&request.id, &rejection)),
            }
        }));
    }

    let mut exit = 0;
    for slot in slots {
        let response = slot.response();
        exit = exit.max(response.exit_code());
        response.write_line(&mut output)?;
    }
    service.shutdown();
    Ok(exit)
}
