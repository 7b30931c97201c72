//! Integration tests for the `morph-serve` service layer: single-flight
//! coalescing, backpressure, deadlines, panic isolation, and shutdown.
//!
//! The coalescing tests assert the tentpole invariant end to end: N
//! identical concurrent jobs produce **exactly one characterization**
//! (observed via the `serve/characterize_leader` trace counter — the only
//! place scheduling is allowed to show) and **bit-identical responses** at
//! every worker count.

use morphqpv_suite::serve::{JobError, JobRequest, JobResponse, ServeConfig, Service, SubmitError};
use morphqpv_suite::trace;
use proptest::prelude::*;

/// Tests that toggle the process-global trace recorder serialize on one
/// lock (same pattern as `tests/trace_determinism.rs`).
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

const GHZ_PROGRAM: &str = "\
qreg q[3];
T 1 q[0];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
T 2 q[0,1,2];
// assert assume is_pure(T1) guarantee is_pure(T2)
";

fn ghz_request(id: &str, seed: u64) -> JobRequest {
    let mut req = JobRequest::new(id, GHZ_PROGRAM, vec![0]);
    req.seed = seed;
    req.samples = Some(4);
    req
}

fn service_with(workers: usize, queue_capacity: usize) -> Service {
    Service::start(&ServeConfig {
        workers,
        queue_capacity,
        ..ServeConfig::default()
    })
    .expect("in-memory service starts")
}

/// Runs `n` identical jobs on a fresh service and returns their response
/// lines (in submission order) plus the number of characterizations
/// actually computed.
fn run_identical_batch(workers: usize, n: usize) -> (Vec<String>, u64, u64) {
    trace::reset();
    trace::set_enabled(true);
    let service = service_with(workers, n.max(4));
    let handles: Vec<_> = (0..n)
        .map(|i| {
            service
                .submit(ghz_request(&format!("job-{i}"), 7))
                .expect("queue sized for the batch")
        })
        .collect();
    let lines: Vec<String> = handles
        .into_iter()
        .map(|h| {
            let out = h.wait().expect("job completes");
            // The id is deliberately excluded so lines are comparable.
            JobResponse::from_report("x", out.fingerprint, &out.report).to_json_line()
        })
        .collect();
    service.shutdown();
    let leaders = trace::counter_total("serve/characterize_leader");
    let shared =
        trace::counter_total("serve/coalesced_hit") + trace::counter_total("serve/cache_hit");
    trace::set_enabled(false);
    (lines, leaders, shared)
}

#[test]
fn identical_concurrent_jobs_share_one_characterization() {
    let _g = serial();
    let mut baselines: Vec<String> = Vec::new();
    for workers in [2usize, 8] {
        let (lines, leaders, shared) = run_identical_batch(workers, 8);
        assert_eq!(
            leaders, 1,
            "exactly one characterization must run ({workers} workers)"
        );
        assert_eq!(
            shared, 7,
            "the other seven jobs must coalesce or hit the cache ({workers} workers)"
        );
        for line in &lines {
            assert_eq!(
                line, &lines[0],
                "responses must be bit-identical within a batch ({workers} workers)"
            );
        }
        baselines.push(lines[0].clone());
    }
    assert_eq!(
        baselines[0], baselines[1],
        "responses must be bit-identical across worker counts"
    );
}

#[test]
fn coalesced_and_solo_runs_report_identically() {
    let _g = serial();
    // A single job on one worker: no concurrency, no sharing possible.
    let service = service_with(1, 4);
    let solo = service
        .submit(ghz_request("solo", 7))
        .expect("submit")
        .wait()
        .expect("job completes");
    service.shutdown();
    let solo_line = JobResponse::from_report("x", solo.fingerprint, &solo.report).to_json_line();

    let (lines, _, _) = run_identical_batch(8, 8);
    assert_eq!(
        solo_line, lines[0],
        "coalescing must be invisible in the response"
    );
}

#[test]
fn queue_saturation_is_a_structured_rejection_not_a_deadlock() {
    let _g = serial();
    let service = service_with(2, 2);
    // Hold queued work so saturation is deterministic.
    service.pause();
    let h1 = service.submit(ghz_request("q-1", 1)).expect("fits");
    let h2 = service.submit(ghz_request("q-2", 2)).expect("fits");
    let rejection = service.submit(ghz_request("q-3", 3));
    match rejection {
        Err(SubmitError::QueueFull { capacity }) => assert_eq!(capacity, 2),
        other => panic!(
            "expected QueueFull, got {other:?}",
            other = other.map(|_| "accepted")
        ),
    }
    // Releasing the queue serves the accepted jobs — nothing was lost.
    service.resume();
    assert!(h1.wait().expect("q-1 completes").report.all_passed());
    assert!(h2.wait().expect("q-2 completes").report.all_passed());
    // And the service accepts new work after the rejection.
    let h4 = service.submit(ghz_request("q-4", 4)).expect("accepted");
    assert!(h4.wait().expect("q-4 completes").report.all_passed());
    service.shutdown();
}

#[test]
fn zero_deadline_reports_deadline_exceeded_and_service_survives() {
    let _g = serial();
    let service = service_with(2, 8);
    let mut doomed = ghz_request("doomed", 5);
    doomed.deadline_ms = Some(0);
    let err = service
        .submit(doomed)
        .expect("accepted")
        .wait()
        .expect_err("a zero deadline cannot be met");
    assert!(
        matches!(err, JobError::DeadlineExceeded),
        "expected DeadlineExceeded, got {err:?}"
    );
    // The worker that hit the deadline keeps serving.
    let ok = service
        .submit(ghz_request("after", 5))
        .expect("accepted")
        .wait()
        .expect("job completes");
    assert!(ok.report.all_passed());
    service.shutdown();
}

#[test]
fn panicking_job_is_contained_to_its_own_error() {
    let _g = serial();
    // The assertion references tracepoint 9, which the program never
    // declares — validation panics on the missing trace.
    let bad_program = "\
qreg q[2];
T 1 q[0];
h q[0];
T 2 q[0,1];
// assert guarantee is_pure(T9)
";
    let service = service_with(2, 8);
    let err = service
        .submit(JobRequest::new("boom", bad_program, vec![0]))
        .expect("accepted")
        .wait()
        .expect_err("the job must fail");
    assert!(
        matches!(err, JobError::Panicked { .. }),
        "expected Panicked, got {err:?}"
    );
    // The pool survived the panic and still runs jobs.
    let ok = service
        .submit(ghz_request("after-boom", 3))
        .expect("accepted")
        .wait()
        .expect("job completes");
    assert!(ok.report.all_passed());
    service.shutdown();
}

#[test]
fn drain_completes_accepted_work_and_keeps_accepting() {
    let _g = serial();
    let service = service_with(2, 16);
    let handles: Vec<_> = (0..6)
        .map(|i| {
            service
                .submit(ghz_request(&format!("d-{i}"), i as u64))
                .expect("accepted")
        })
        .collect();
    service.drain();
    assert_eq!(service.queue_depth(), 0, "drain must empty the queue");
    for h in handles {
        h.wait().expect("accepted work completed during drain");
    }
    let late = service.submit(ghz_request("late", 99)).expect("accepted");
    late.wait().expect("post-drain job completes");
    service.shutdown();
}

#[test]
fn invalid_requests_are_rejected_in_band() {
    let _g = serial();
    let service = service_with(1, 4);
    let mut bad_qubit = ghz_request("bad-qubit", 1);
    bad_qubit.input_qubits = vec![7];
    let err = service
        .submit(bad_qubit)
        .expect("accepted")
        .wait()
        .expect_err("qubit 7 does not exist");
    assert!(matches!(err, JobError::Invalid { .. }), "{err:?}");

    let mut bad_noise = ghz_request("bad-noise", 1);
    bad_noise.noise = Some("sunny".to_string());
    let err = service
        .submit(bad_noise)
        .expect("accepted")
        .wait()
        .expect_err("unknown noise model");
    assert!(matches!(err, JobError::Invalid { .. }), "{err:?}");
    service.shutdown();
}

/// Requests the characterization stage refuses up front answer in band as
/// `verification` errors, not as panics contained by the worker: a
/// 13-qubit register under `ibm_cairo` channel noise (wider than
/// density-matrix simulation allows) and a program with an assertion but
/// no tracepoint.
#[test]
fn unrunnable_characterizations_are_verification_errors() {
    let _g = serial();
    let mut wide_noisy = JobRequest::new(
        "wide-noisy",
        "qreg q[13];\nT 1 q[0];\nh q[0];\nT 2 q[0,12];\n\
         // assert assume is_pure(T1) guarantee is_pure(T2)\n",
        vec![0],
    );
    wide_noisy.noise = Some("ibm_cairo".to_string());
    let untraced = JobRequest::new(
        "untraced",
        "qreg q[2];\nh q[0];\ncx q[0],q[1];\n\
         // assert assume is_pure(T1) guarantee is_pure(T2)\n",
        vec![0],
    );
    let service = service_with(2, 8);
    for (request, reason) in [
        (wide_noisy, "at most 12 qubits"),
        (untraced, "no tracepoints"),
    ] {
        let id = request.id.clone();
        let err = service
            .submit(request)
            .expect("accepted")
            .wait()
            .expect_err("the precondition must fail the job");
        let line = JobResponse::from_error(&id, &err).to_json_line();
        assert!(line.contains(r#""kind":"verification""#), "{line}");
        assert!(line.contains(reason), "{line}");
    }
    // The service is unharmed and still answers healthy jobs.
    let ok = service
        .submit(ghz_request("after-refusals", 3))
        .expect("accepted")
        .wait()
        .expect("job completes");
    assert!(ok.report.all_passed());
    service.shutdown();
}

/// Regression for the poisoned-lock sweep: a job that panics *while
/// leading a characterization flight* (inside locks, not during
/// validation) must not wedge the service — the flight is abandoned, the
/// poisoned mutexes recover, and both retries and unrelated jobs succeed.
#[test]
fn panicking_leader_mid_characterization_leaves_the_service_healthy() {
    let _g = serial();
    // `T 2` names qubit 1 twice: the request parses and passes every
    // up-front check, wins the flight for its fingerprint, then panics
    // inside the sweep's tracepoint readout (reduced density matrices need
    // distinct qubits).
    let duplicate_trace_qubit = "\
qreg q[2];
T 1 q[0];
h q[0];
t q[0];
cx q[0],q[1];
T 2 q[1,1];
// assert assume is_pure(T1) guarantee is_pure(T2)
";
    let service = service_with(2, 8);
    let err = service
        .submit(JobRequest::new("mid-boom", duplicate_trace_qubit, vec![0]))
        .expect("accepted")
        .wait()
        .expect_err("characterization must panic");
    assert!(matches!(err, JobError::Panicked { .. }), "{err:?}");
    // The same fingerprint again: the abandoned flight must re-elect a
    // fresh leader (not deadlock on a stale entry or poisoned lock) and
    // fail the same way.
    let err = service
        .submit(JobRequest::new(
            "mid-boom-again",
            duplicate_trace_qubit,
            vec![0],
        ))
        .expect("accepted")
        .wait()
        .expect_err("the retry elects a fresh leader and panics again");
    assert!(matches!(err, JobError::Panicked { .. }), "{err:?}");
    // And a healthy job on the same (recovered) service still passes.
    let ok = service
        .submit(ghz_request("after-mid-boom", 3))
        .expect("accepted")
        .wait()
        .expect("job completes");
    assert!(ok.report.all_passed());
    service.shutdown();
}

/// A leader whose `CancelToken` fires before publishing abandons its
/// flight; the waiting follower must re-elect itself leader, recompute,
/// and produce a byte-identical response to an undisturbed solo run.
#[test]
fn cancelled_leader_abandons_and_the_reelected_follower_matches_bytes() {
    use morphqpv_suite::core::prelude::{
        assertions_from_source, parse_program, CancelToken, Characterization, Verifier,
    };
    use morphqpv_suite::serve::singleflight::{FlightOutcome, Joined, SingleFlight};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    let _g = serial();

    // Baseline: an undisturbed solo service run of the same request.
    let service = service_with(1, 4);
    let solo = service
        .submit(ghz_request("solo", 7))
        .expect("submit")
        .wait()
        .expect("job completes");
    service.shutdown();
    let solo_line = JobResponse::from_report("x", solo.fingerprint, &solo.report).to_json_line();

    // Rebuild the verifier exactly as the service does for ghz_request.
    let build = || {
        let circuit = parse_program(GHZ_PROGRAM).expect("parse");
        let mut verifier = Verifier::new(circuit).input_qubits(&[0]).samples(4);
        for a in assertions_from_source(GHZ_PROGRAM).expect("assertions") {
            verifier = verifier.assert_that(a);
        }
        verifier
    };
    let mut job_rng = StdRng::seed_from_u64(7);
    let char_seed: u64 = job_rng.gen();
    let fingerprint = build().characterization_fingerprint(char_seed);

    let flight: Arc<SingleFlight<_, Characterization>> = Arc::new(SingleFlight::new());
    let doomed_guard = match flight.join(fingerprint) {
        Joined::Leader(guard) => guard,
        Joined::Follower(_) => unreachable!("first join leads"),
    };
    let (registered_tx, registered_rx) = mpsc::channel();
    let follower = std::thread::spawn({
        let flight = Arc::clone(&flight);
        move || {
            let slot = match flight.join(fingerprint) {
                Joined::Follower(slot) => slot,
                Joined::Leader(_) => panic!("the doomed leader's flight must still be open"),
            };
            registered_tx.send(()).expect("main thread waits");
            let outcome = slot.wait(Duration::from_millis(2), || false);
            assert!(
                matches!(outcome, FlightOutcome::Abandoned),
                "a cancelled leader must abandon, not complete"
            );
            // Re-election: the follower becomes the new leader and runs
            // the computation the original leader never published.
            match flight.join(fingerprint) {
                Joined::Leader(guard) => {
                    let token = CancelToken::new();
                    let ch = build()
                        .try_characterize_for_seed(char_seed, &token)
                        .expect("re-elected leader characterizes");
                    guard.complete(ch.clone());
                    ch
                }
                Joined::Follower(_) => panic!("an abandoned flight must be re-electable"),
            }
        }
    });
    registered_rx.recv().expect("follower registered");
    // The original leader's token fires before publishing: in the
    // service this is a `?` that drops the guard uncompleted.
    drop(doomed_guard);

    let characterization = follower.join().expect("follower thread");
    assert_eq!(flight.in_flight(), 0, "the completed flight retired");

    // Finish the pipeline with the re-elected leader's artifact and
    // compare the full response line byte for byte.
    let mut job_rng = StdRng::seed_from_u64(7);
    let _char_seed: u64 = job_rng.gen();
    let token = CancelToken::new();
    let report = build()
        .try_validate_with(characterization, &mut job_rng, None, &token)
        .expect("validation succeeds");
    let reelected_line = JobResponse::from_report("x", fingerprint, &report).to_json_line();
    assert_eq!(
        reelected_line, solo_line,
        "re-election must be invisible in the response bytes"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole invariant, property-tested: any batch size and worker
    /// count yields exactly one characterization and bit-identical
    /// responses.
    #[test]
    fn coalescing_holds_for_any_batch_and_worker_count(
        workers in 1usize..=8,
        n in 2usize..=10,
    ) {
        let _g = serial();
        let (lines, leaders, shared) = run_identical_batch(workers, n);
        prop_assert_eq!(leaders, 1);
        prop_assert_eq!(shared, (n - 1) as u64);
        for line in &lines {
            prop_assert_eq!(line, &lines[0]);
        }
    }
}
