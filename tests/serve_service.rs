//! Integration tests for the `morph-serve` service layer: coalescing,
//! backpressure, deadlines, panic isolation, and shutdown.
//!
//! The coalescing tests assert the tentpole invariant end to end: N
//! identical concurrent jobs produce **exactly one characterization**
//! (observed via the `serve/characterize_leader` trace counter — the only
//! place scheduling is allowed to show) and **bit-identical responses** at
//! every worker count.

use morphqpv_suite::serve::{
    JobRequest, JobResponse, JobStatus, ServeConfig, Service, SubmitError,
};
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

/// A 34-qubit non-Clifford program: `ry(0.3)` on every qubit, then a CX
/// chain. It parses and passes every up-front check, then its dense sweep
/// panics at the state-vector width limit before allocating anything.
fn too_wide_program() -> String {
    let n = 34;
    let mut program = format!("qreg q[{n}];\nT 1 q[0];\n");
    for q in 0..n {
        program += &format!("ry(0.3) q[{q}];\n");
    }
    for q in 0..n - 1 {
        program += &format!("cx q[{q}],q[{}];\n", q + 1);
    }
    program + "T 2 q[0,1];\n// assert assume is_pure(T1) guarantee is_pure(T2)\n"
}

fn ghz_request(id: &str, seed: u64) -> JobRequest {
    let mut req = JobRequest::new(id, GHZ_PROGRAM, vec![0]);
    req.seed = seed;
    req.samples = Some(4);
    req
}

/// The seed-7 `ghz_request`, parsed from its line with an `ensemble`
/// field naming `ensemble`.
fn ghz_request_on(ensemble: &str) -> JobRequest {
    let line = ghz_request("x", 7).to_json_line().replacen(
        '{',
        &format!(r#"{{"ensemble":"{ensemble}","#),
        1,
    );
    JobRequest::from_json_line(&line).expect("request line parses")
}

/// The `error.kind` of a response line, if it answers with an error.
fn error_kind(response: &JobResponse) -> Option<&str> {
    response.body().get("error")?.get("kind")?.as_str()
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
    // One id for every job, so the lines are comparable.
    let handles: Vec<_> = (0..n)
        .map(|_| {
            service
                .submit(ghz_request("x", 7))
                .expect("queue sized for the batch")
        })
        .collect();
    let lines: Vec<String> = handles
        .into_iter()
        .map(|h| {
            let response = h.wait();
            assert_eq!(response.status, JobStatus::Passed);
            response.to_json_line()
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
    let solo_line = service
        .submit(ghz_request("x", 7))
        .expect("submit")
        .wait()
        .to_json_line();
    service.shutdown();

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
    assert_eq!(h1.wait().status, JobStatus::Passed);
    assert_eq!(h2.wait().status, JobStatus::Passed);
    // And the service accepts new work after the rejection.
    let h4 = service.submit(ghz_request("q-4", 4)).expect("accepted");
    assert_eq!(h4.wait().status, JobStatus::Passed);
    service.shutdown();
}

#[test]
fn zero_deadline_reports_deadline_exceeded_and_service_survives() {
    let _g = serial();
    let service = service_with(2, 8);
    let mut doomed = ghz_request("doomed", 5);
    doomed.deadline_ms = Some(0);
    let response = service.submit(doomed).expect("accepted").wait();
    assert_eq!(
        error_kind(&response),
        Some("deadline_exceeded"),
        "a zero deadline cannot be met: {}",
        response.to_json_line()
    );
    // The worker that hit the deadline keeps serving.
    let ok = service
        .submit(ghz_request("after", 5))
        .expect("accepted")
        .wait();
    assert_eq!(ok.status, JobStatus::Passed);
    service.shutdown();
}

#[test]
fn panicking_job_is_contained_to_its_own_error() {
    let _g = serial();
    let service = service_with(2, 8);
    let response = service
        .submit(JobRequest::new("boom", too_wide_program(), vec![0]))
        .expect("accepted")
        .wait();
    assert_eq!(
        error_kind(&response),
        Some("panicked"),
        "{}",
        response.to_json_line()
    );
    // The pool survived the panic and still runs jobs.
    let ok = service
        .submit(ghz_request("after-boom", 3))
        .expect("accepted")
        .wait();
    assert_eq!(ok.status, JobStatus::Passed);
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
        assert_eq!(
            h.wait().status,
            JobStatus::Passed,
            "accepted work completed"
        );
    }
    let late = service.submit(ghz_request("late", 99)).expect("accepted");
    assert_eq!(
        late.wait().status,
        JobStatus::Passed,
        "post-drain job completes"
    );
    service.shutdown();
}

#[test]
fn invalid_requests_are_rejected_in_band() {
    let _g = serial();
    let service = service_with(1, 4);
    let mut bad_qubit = ghz_request("bad-qubit", 1);
    bad_qubit.input_qubits = vec![7];
    let mut bad_noise = ghz_request("bad-noise", 1);
    bad_noise.noise = Some("sunny".to_string());
    // Qubit 7 does not exist; `sunny` is no noise model.
    for request in [bad_qubit, bad_noise] {
        let response = service.submit(request).expect("accepted").wait();
        assert_eq!(
            error_kind(&response),
            Some("invalid_request"),
            "{}",
            response.to_json_line()
        );
    }
    service.shutdown();
}

/// Requests the characterization stage refuses up front answer in band as
/// `verification` errors, not as panics contained by the worker: a
/// 13-qubit register under `ibm_cairo` channel noise (wider than
/// density-matrix simulation allows), a program with an assertion but
/// no tracepoint, one asserting on an undeclared tracepoint, one whose
/// tracepoint names a qubit twice and one with a `nan` angle (both
/// refused by the parser).
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
    let undeclared = JobRequest::new(
        "undeclared",
        "qreg q[2];\nT 1 q[0];\nh q[0];\nT 2 q[0,1];\n// assert guarantee is_pure(T9)\n",
        vec![0],
    );
    let repeated = JobRequest::new(
        "repeated",
        "qreg q[2];\nT 1 q[0];\nh q[0];\nT 2 q[1,1];\n\
         // assert assume is_pure(T1) guarantee is_pure(T2)\n",
        vec![0],
    );
    let non_finite = JobRequest::new(
        "non-finite",
        "qreg q[3];\nh q[0];\nh q[1];\nh q[2];\nT 1 q[0,1,2];\n\
         crz(nan) q[0],q[1];\ncz q[0],q[2];\nT 2 q[0];\n\
         // assert guarantee prob_at_least(T2, 0, 0.4)\n",
        vec![0, 1, 2],
    );
    let service = service_with(2, 8);
    for (request, reason) in [
        (wide_noisy, "at most 12 qubits"),
        (untraced, "no tracepoints"),
        (undeclared, "tracepoint T9"),
        (repeated, "line 4: tracepoint T2 names qubit 1 twice"),
        (non_finite, r#"line 6: angle \"nan\" is not finite"#),
    ] {
        let line = service
            .submit(request)
            .expect("accepted")
            .wait()
            .to_json_line();
        assert!(line.contains(r#""kind":"verification""#), "{line}");
        assert!(line.contains(reason), "{line}");
    }
    // The service is unharmed and still answers healthy jobs.
    let ok = service
        .submit(ghz_request("after-refusals", 3))
        .expect("accepted")
        .wait();
    assert_eq!(ok.status, JobStatus::Passed);
    service.shutdown();
}

/// Regression for the poisoned-lock sweep: a job that panics *while
/// leading a characterization flight* (inside locks, not during
/// validation) must not wedge the service — the flight is abandoned, the
/// poisoned mutexes recover, and both retries and unrelated jobs succeed.
#[test]
fn panicking_leader_mid_characterization_leaves_the_service_healthy() {
    let _g = serial();
    // The too-wide program parses and passes every up-front check, wins
    // the flight for its fingerprint, then panics inside the sweep at the
    // state-vector width limit.
    let too_wide = too_wide_program();
    let service = service_with(2, 8);
    // The second request has the same fingerprint: the abandoned flight
    // must re-elect a fresh leader (not deadlock on a stale entry or
    // poisoned lock), which panics the same way.
    for id in ["mid-boom", "mid-boom-again"] {
        let response = service
            .submit(JobRequest::new(id, &too_wide, vec![0]))
            .expect("accepted")
            .wait();
        assert_eq!(
            error_kind(&response),
            Some("panicked"),
            "{}",
            response.to_json_line()
        );
    }
    // And a healthy job on the same (recovered) service still passes.
    let ok = service
        .submit(ghz_request("after-mid-boom", 3))
        .expect("accepted")
        .wait();
    assert_eq!(ok.status, JobStatus::Passed);
    service.shutdown();
}

/// A leader whose `CancelToken` fires before publishing abandons its
/// flight; the waiting follower must re-elect itself leader, recompute,
/// and produce a byte-identical response to an undisturbed solo run.
#[test]
fn cancelled_leader_abandons_and_the_reelected_follower_matches_bytes() {
    use morphqpv_suite::core::prelude::{
        assertions_from_source, parse_program, CancelToken, Cancelled, CharacterizationCache,
        MorphError, Verifier,
    };
    use morphqpv_suite::store::Source;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::{mpsc, Arc};

    let _g = serial();

    // Baseline: an undisturbed solo service run of the same request.
    let service = service_with(1, 4);
    let solo_line = service
        .submit(ghz_request("x", 7))
        .expect("submit")
        .wait()
        .to_json_line();
    service.shutdown();

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

    let cache = CharacterizationCache::in_memory();
    let (leading_tx, leading_rx) = mpsc::channel();
    let (registered_tx, registered_rx) = mpsc::channel();
    let (doomed, characterization) = std::thread::scope(|s| {
        let cache = &cache;
        let doomed = s.spawn(move || {
            cache.get_or_compute(
                &fingerprint,
                || Ok(()),
                || {
                    leading_tx.send(()).expect("main thread waits");
                    registered_rx.recv().expect("follower registered");
                    // The leader's token fires before publishing.
                    Err(MorphError::from(Cancelled::DeadlineExceeded))
                },
            )
        });
        leading_rx.recv().expect("the doomed leader leads");
        let follower = s.spawn(move || {
            // Runs only while this caller waits on the doomed flight.
            let waiting = || {
                let _ = registered_tx.send(());
                Ok(())
            };
            let (characterization, source) = cache
                .get_or_compute(&fingerprint, waiting, || {
                    build().try_characterize_for_seed(char_seed, &CancelToken::new())
                })
                .expect("re-elected leader characterizes");
            assert_eq!(
                source,
                Source::Computed,
                "a cancelled leader must abandon, not complete"
            );
            characterization
        });
        (doomed.join(), follower.join().expect("follower thread"))
    });
    assert!(
        matches!(
            doomed.expect("leader thread"),
            Err(MorphError::Cancelled(_))
        ),
        "the doomed leader reports its own cancellation"
    );
    let (again, source) = cache
        .get_or_compute(
            &fingerprint,
            || Ok::<(), ()>(()),
            || unreachable!("published"),
        )
        .expect("memory hit");
    assert!(
        source == Source::Memory && Arc::ptr_eq(&again, &characterization),
        "the completed flight retired"
    );

    // Finish the pipeline with the re-elected leader's artifact and
    // compare the full response line byte for byte.
    let mut job_rng = StdRng::seed_from_u64(7);
    let _char_seed: u64 = job_rng.gen();
    let token = CancelToken::new();
    let report = build()
        .try_validate_with((*characterization).clone(), &mut job_rng, None, &token)
        .expect("validation succeeds");
    let reelected_line = JobResponse::from_report("x", fingerprint, &report).to_json_line();
    assert_eq!(
        reelected_line, solo_line,
        "re-election must be invisible in the response bytes"
    );
}

/// A request line's `ensemble` chooses the input ensemble: on
/// Pauli-product inputs the GHZ job characterizes under another
/// fingerprint than on the default Clifford inputs. The expected verdict
/// bytes are those a one-revision `"v":2` stream with the same fields
/// answered, when the service still took that format.
#[test]
fn a_request_runs_on_the_ensemble_it_names() {
    let _g = serial();
    let service = service_with(2, 8);
    let clifford = service
        .submit(ghz_request("x", 7))
        .expect("accepted")
        .wait();
    let pauli = service
        .submit(ghz_request_on("pauli_product"))
        .expect("accepted")
        .wait();
    service.shutdown();
    assert_eq!(pauli.status, JobStatus::Passed, "{}", pauli.to_json_line());
    assert_ne!(
        pauli.body().get("characterization_fp"),
        clifford.body().get("characterization_fp"),
        "the ensemble is part of the characterization's content address"
    );
    let assertions = pauli.body().get("assertions").expect("assertions");
    assert_eq!(
        serde::json::to_string(assertions),
        r#"[{"confidence":"3ff0000000000000","max_objective":"3f947ae147abd257","verdict":"passed"}]"#
    );
}

/// An ensemble name the service does not know answers `invalid_request`
/// in band instead of running on another ensemble.
#[test]
fn an_unknown_ensemble_is_an_invalid_request() {
    let _g = serial();
    let service = service_with(1, 4);
    let response = service
        .submit(ghz_request_on("bogus"))
        .expect("accepted")
        .wait();
    service.shutdown();
    let line = response.to_json_line();
    assert_eq!(error_kind(&response), Some("invalid_request"), "{line}");
    assert!(line.contains("unknown ensemble `bogus`"), "{line}");
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
