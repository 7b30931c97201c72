//! Telemetry must be a pure observer: enabling the `morph-trace` recorder
//! must not perturb characterization results, verdicts, or cost ledgers —
//! at any worker count. The recorder never touches the per-task RNG
//! streams, so everything downstream stays bit-identical.

use morphqpv_suite::core::{
    try_characterize, AssumeGuarantee, CancelToken, CharacterizationConfig, RelationPredicate,
    Verifier,
};
use morphqpv_suite::qprog::{Circuit, TracepointId};
use morphqpv_suite::tomography::ReadoutMode;
use morphqpv_suite::trace;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The recorder's enabled flag is process-global and these tests toggle it,
/// so they serialize on one lock to avoid disabling each other mid-run.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn flip_program() -> Circuit {
    let mut c = Circuit::new(2);
    c.tracepoint(1, &[0]);
    c.x(0).h(1).cx(1, 0);
    c.tracepoint(2, &[0, 1]);
    c
}

fn characterize_with(parallelism: usize, tracing: bool) -> morphqpv_suite::core::Characterization {
    trace::set_enabled(tracing);
    let mut rng = StdRng::seed_from_u64(42);
    let config = CharacterizationConfig {
        parallelism,
        readout: ReadoutMode::Shots(40),
        ..CharacterizationConfig::exact(vec![0], 6)
    };
    let ch = try_characterize(&flip_program(), &config, &mut rng, &CancelToken::new()).unwrap();
    trace::set_enabled(false);
    ch
}

#[test]
fn tracing_leaves_characterization_bit_identical_at_any_worker_count() {
    let _g = serial();
    let baseline = characterize_with(1, false);
    for parallelism in [1usize, 2, 4] {
        for tracing in [false, true] {
            let run = characterize_with(parallelism, tracing);
            assert_eq!(
                baseline.ledger, run.ledger,
                "ledger drifted (workers {parallelism}, tracing {tracing})"
            );
            for (id, states) in &baseline.traces {
                for (i, (a, b)) in states.iter().zip(&run.traces[id]).enumerate() {
                    assert!(
                        (a - b).frobenius_norm() == 0.0,
                        "trace {id} sample {i} differs (workers {parallelism}, tracing {tracing})"
                    );
                }
            }
        }
    }
}

#[test]
fn tracing_leaves_verdicts_and_reports_bit_identical() {
    let _g = serial();
    let run = |tracing: bool| {
        trace::set_enabled(tracing);
        let report = Verifier::new(flip_program())
            .input_qubits(&[0])
            .samples(4)
            .ensemble(morphqpv_suite::clifford::InputEnsemble::PauliProduct)
            .assert_that(AssumeGuarantee::new().guarantee_relation(
                TracepointId(1),
                TracepointId(2),
                RelationPredicate::custom(|_, _| -1.0),
            ))
            .try_run(&mut StdRng::seed_from_u64(7), None)
            .unwrap();
        trace::set_enabled(false);
        report
    };
    let plain = run(false);
    let traced = run(true);
    assert_eq!(plain.all_passed(), traced.all_passed());
    assert_eq!(
        plain.run, traced.run,
        "run report must not depend on tracing"
    );
    for (a, b) in plain.outcomes.iter().zip(&traced.outcomes) {
        assert_eq!(a.optimum.x, b.optimum.x, "optimum drifted under tracing");
        assert!(
            a.optimum.value == b.optimum.value
                || (a.optimum.value.is_nan() && b.optimum.value.is_nan()),
            "objective drifted under tracing"
        );
    }
}

#[test]
fn recorder_captures_the_pipeline_spans_for_a_traced_run() {
    let _g = serial();
    trace::set_enabled(true);
    trace::reset();
    let _ = Verifier::new(flip_program())
        .input_qubits(&[0])
        .samples(4)
        .ensemble(morphqpv_suite::clifford::InputEnsemble::PauliProduct)
        .assert_that(AssumeGuarantee::new().guarantee_relation(
            TracepointId(1),
            TracepointId(2),
            RelationPredicate::custom(|_, _| -1.0),
        ))
        .try_run(&mut StdRng::seed_from_u64(7), None)
        .unwrap();
    let names: Vec<String> = trace::span_summaries()
        .into_iter()
        .map(|s| s.name)
        .collect();
    trace::set_enabled(false);
    // Other tests may interleave spans (the recorder is process-global), so
    // assert presence, not exact counts.
    for expected in ["verify/run", "characterize", "validate/assertion"] {
        assert!(
            names.iter().any(|n| n == expected),
            "missing span {expected:?} in {names:?}"
        );
    }
}
