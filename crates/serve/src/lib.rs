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
//! Besides single jobs, the protocol's v2 `verify_revisions` kind submits
//! an **ordered revision stream**: the service verifies each program
//! revision incrementally ([`Service::submit_revisions`]) and reports per
//! revision how many segments are unchanged since an earlier revision
//! (per-segment hit/miss counts).
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
pub use protocol::{
    JobRequest, JobResponse, JobStatus, Request, RevisionsRequest, PROTOCOL_VERSION,
    PROTOCOL_VERSION_REVISIONS,
};
pub use service::{
    JobError, JobHandle, JobOutput, RevisionsHandle, RevisionsOutput, ServeConfig, Service,
    SubmitError,
};

use std::io::{self, BufRead, Write};
use std::time::Duration;

/// How long [`run_batch`] backs off before retrying a saturated queue.
const RESUBMIT_TICK: Duration = Duration::from_millis(5);

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
    enum Slot {
        Ready(Box<JobResponse>),
        Pending(String, JobHandle),
        PendingRevisions(String, RevisionsHandle),
    }

    /// Retries a saturated queue until the service accepts or refuses.
    fn submit_with_backoff<H>(
        mut submit: impl FnMut() -> Result<H, SubmitError>,
    ) -> Result<H, SubmitError> {
        loop {
            match submit() {
                Ok(handle) => return Ok(handle),
                Err(SubmitError::QueueFull { .. }) => std::thread::sleep(RESUBMIT_TICK),
                Err(rejection) => return Err(rejection),
            }
        }
    }

    let service = Service::start(config)?;
    let mut slots = Vec::new();
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        match Request::from_json_line(&line) {
            Err(message) => {
                let id = protocol::salvage_id(&line);
                slots.push(Slot::Ready(Box::new(JobResponse::from_invalid_line(
                    &id, &message,
                ))));
            }
            Ok(request) => {
                let id = request.id().to_string();
                let version = request.protocol_version();
                let submitted = match request {
                    Request::Job(job) => submit_with_backoff(|| service.submit(job.clone()))
                        .map(|handle| Slot::Pending(id.clone(), handle)),
                    Request::Revisions(stream) => {
                        submit_with_backoff(|| service.submit_revisions(stream.clone()))
                            .map(|handle| Slot::PendingRevisions(id.clone(), handle))
                    }
                };
                slots.push(submitted.unwrap_or_else(|rejection| {
                    Slot::Ready(Box::new(JobResponse::from_rejection(
                        &id, version, &rejection,
                    )))
                }));
            }
        }
    }

    let mut exit = 0;
    for slot in slots {
        let response = match slot {
            Slot::Ready(response) => *response,
            Slot::Pending(id, handle) => match handle.wait() {
                Ok(out) => JobResponse::from_report(&id, out.fingerprint, &out.report),
                Err(e) => JobResponse::from_error(&id, &e),
            },
            Slot::PendingRevisions(id, handle) => match handle.wait() {
                Ok(out) => JobResponse::from_revisions(&id, &out.revisions),
                Err(e) => JobResponse::from_revisions_error(&id, &e),
            },
        };
        exit = exit.max(response.exit_code());
        response.write_line(&mut output)?;
    }
    service.shutdown();
    Ok(exit)
}
