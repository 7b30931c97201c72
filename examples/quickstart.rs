//! Quickstart: verify quantum teleportation with a multi-state assertion.
//!
//! This is the paper's running example (Section 4, Equation 7): label the
//! payload before and the destination after the protocol, then assert that
//! for every *pure* input the two states are equal. One characterization,
//! one optimization — no per-input testing.
//!
//! Run with: `cargo run --release --example quickstart`

use morphqpv_suite::core::prelude::*;
use morphqpv_suite::qalgo::Teleportation;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), MorphError> {
    // 1. Program + tracepoints: a 1-qubit teleportation (3 qubits total).
    let layout = Teleportation::new(1);
    let mut program = Circuit::new(layout.n_qubits());
    program.tracepoint(1, &layout.input_qubits()); // T1: Alice's payload
    program.extend_from(&layout.circuit_coherent());
    program.tracepoint(2, &layout.output_qubits()); // T2: Bob's qubit

    // 2. Assertion (Equation 7): assume both states are pure, guarantee
    //    they are equal.
    let assertion = Assertion::new()
        .assume(TracepointId(1), StatePredicate::IsPure)
        .assume(TracepointId(2), StatePredicate::IsPure)
        .guarantee_relation(TracepointId(1), TracepointId(2), RelationPredicate::Equal);

    // 3. Characterize + validate.
    let mut rng = StdRng::seed_from_u64(7);
    let report = Verifier::new(program)
        .input_qubits(&layout.input_qubits())
        .samples(4)
        .assert_that(assertion)
        .try_run(&mut rng, None)?;

    match &report.outcomes[0].verdict {
        Verdict::Passed {
            max_objective,
            confidence,
        } => {
            println!("teleportation verified: max violation {max_objective:.2e}");
            println!("confidence (Theorem 3): {confidence:.3}");
        }
        Verdict::Failed {
            counterexample,
            max_objective,
            ..
        } => {
            println!("teleportation BROKEN: objective {max_objective:.3}");
            println!("counter-example input:\n{counterexample}");
        }
    }
    println!("cost: {}", report.ledger());

    // 4. Now break the protocol (drop the CZ correction) and watch the
    //    same assertion produce a counter-example.
    let mut buggy = Circuit::new(layout.n_qubits());
    buggy.tracepoint(1, &layout.input_qubits());
    buggy.extend_from(&layout.circuit_coherent_with_bug(0));
    buggy.tracepoint(2, &layout.output_qubits());

    let assertion = Assertion::new()
        .assume(TracepointId(1), StatePredicate::IsPure)
        .guarantee_relation(TracepointId(1), TracepointId(2), RelationPredicate::Equal);
    let report = Verifier::new(buggy)
        .input_qubits(&layout.input_qubits())
        .samples(4)
        .assert_that(assertion)
        .try_run(&mut rng, None)?;
    match &report.outcomes[0].verdict {
        Verdict::Failed {
            max_objective,
            counterexample,
            ..
        } => {
            println!("\nbuggy variant correctly rejected (objective {max_objective:.3})");
            println!("counter-example input:\n{counterexample}");
        }
        Verdict::Passed { .. } => println!("\nbug missed — should not happen at this budget"),
    }
    Ok(())
}
