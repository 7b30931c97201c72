//! Case study 2 (Section 7.2): verify gate pruning of a quantum neural
//! network and validate a biologist's prior knowledge.
//!
//! Part 1 — pruning: after deleting "unimportant" rotations, assert that
//! every input still produces (nearly) the same intermediate and output
//! states as the original model. A safe prune passes; an aggressive prune
//! produces a counter-example input.
//!
//! Part 2 — prior knowledge: assert that whenever the encoded sepal-length
//! attribute is in the claimed range, the model predicts Setosa
//! (⟨Z⟩ > 0 on qubit 0).
//!
//! Run with: `cargo run --release --example qnn_pruning`

use morphqpv_suite::bench::{compare_programs, CompareConfig};
use morphqpv_suite::core::prelude::*;
use morphqpv_suite::qalgo::{iris_like_dataset, train_qnn};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(42);
    let data = iris_like_dataset(40, &mut rng);
    let model = train_qnn(4, 2, &data, &mut rng);
    let accuracy = data
        .iter()
        .filter(|s| model.predict(&s.attributes) == s.is_setosa)
        .count() as f64
        / data.len() as f64;
    println!(
        "trained QNN accuracy on the workload: {:.0}%",
        100.0 * accuracy
    );

    // --- Part 1: verify pruning.
    // Find the smallest-angle rotation (the natural pruning victim) and a
    // large one (an aggressive, wrong prune).
    let mut smallest = (0usize, 0usize, 0usize, f64::INFINITY);
    let mut largest = (0usize, 0usize, 0usize, 0.0f64);
    for (l, layer) in model.params.iter().enumerate() {
        for (q, &(ry, rz)) in layer.iter().enumerate() {
            for (which, angle) in [(0usize, ry.abs()), (1, rz.abs())] {
                if angle < smallest.3 {
                    smallest = (l, q, which, angle);
                }
                if angle > largest.3 {
                    largest = (l, q, which, angle);
                }
            }
        }
    }
    let safe = model.pruned(&[(smallest.0, smallest.1, smallest.2)]);
    let aggressive = model.pruned(&[(largest.0, largest.1, largest.2)]);
    println!(
        "pruning candidates: safe |θ|={:.3}, aggressive |θ|={:.3}",
        smallest.3, largest.3
    );

    let mut config = CompareConfig::new(vec![0, 1, 2, 3], vec![0, 1, 2, 3]);
    config.tolerance = 2.0 * smallest.3.max(0.05); // allowed drift β
    for (label, pruned) in [("safe prune", &safe), ("aggressive prune", &aggressive)] {
        let (bug, objective, ledger) =
            compare_programs(&model.body(), &pruned.body(), &config, &mut rng);
        println!(
            "{label}: {} (max deviation {:.3}, {})",
            if bug {
                "REJECTED — prediction may change"
            } else {
                "accepted"
            },
            objective,
            ledger
        );
    }

    // --- Part 2: verify prior knowledge.
    // "Flowers with small sepal length are Setosa": assume the encoder's
    // qubit-3 excitation (which carries the 4th attribute) is below 0.3,
    // guarantee the output ⟨Z⟩ on qubit 0 is positive.
    let mut program = Circuit::new(4);
    program.tracepoint(5, &[3]); // T5: encoded attribute qubit
    program.extend_from(&model.body());
    program.tracepoint(4, &[0]); // T4: output qubit
    let z = morphqpv_suite::qsim::matrices::z();
    let assertion = AssumeGuarantee::new()
        .assume(
            TracepointId(5),
            StatePredicate::custom(|rho| rho.get(1, 1).map(|v| v.re).unwrap_or(1.0) - 0.3),
        )
        .guarantee_state(
            TracepointId(4),
            StatePredicate::ExpectationAbove {
                observable: z,
                threshold: 0.0,
            },
        );
    let report = Verifier::new(program)
        .input_qubits(&[0, 1, 2, 3])
        .samples(24)
        // ε matched to the exact-readout detection sensitivity; see the
        // Theorem 3 discussion in EXPERIMENTS.md.
        .validation(ValidationConfig {
            accuracy_threshold: 0.05,
            ..Default::default()
        })
        .assert_that(assertion)
        .try_run(&mut rng, None)
        .expect("verification runs");
    match &report.outcomes[0].verdict {
        Verdict::Passed { confidence, .. } => {
            println!(
                "prior knowledge holds on the characterized space (confidence {confidence:.2})"
            );
        }
        Verdict::Failed { counterexample, .. } => {
            println!("prior knowledge REFUTED — counter-example flower state found:");
            println!("{counterexample}");
        }
    }
}
