//! Verify a program written entirely in the surface syntax: the QASM-like
//! circuit text with tracepoint pragmas and `// assert` specification
//! comments, exactly how a user of the paper's tool would write it.
//!
//! Run with: `cargo run --release --example surface_syntax`

use morphqpv_suite::core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const PROGRAM: &str = "\
// 3-qubit GHZ preparation with a verification spec.
qreg q[3];
T 1 q[0];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
T 2 q[0,1,2];
// assert assume is_pure(T1) guarantee is_pure(T2)
// assert assume prob_at_least(T1, 0, 0.9) guarantee prob_at_least(T2, 0, 0.15)
";

// A stray phase error: invisible to purity and probability predicates
// (the output is still a pure state with the same distribution), but the
// multi-state relation between two tracepoints exposes it.
const BUGGY: &str = "\
qreg q[3];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
T 1 q[0,1,2];
p(1.2) q[1];     // injected bug
T 2 q[0,1,2];
// assert assume is_pure(T1) guarantee is_pure(T2)
// assert assume is_pure(T1) guarantee equal(T1, T2)
";

fn verify(source: &str) -> bool {
    let circuit = parse_program(source).expect("valid program");
    let assertions = assertions_from_source(source).expect("valid specs");
    // Four Pauli-product inputs span the one input qubit's operator space,
    // so the characterization is exact; each verdict is only as good as
    // the solver that searches it. The second spec above holds for every
    // input: P(|000>) = <+|rho|+> >= 0.2 whenever <0|rho|0> >= 0.9.
    let mut verifier = Verifier::new(circuit)
        .input_qubits(&[0])
        .samples(4)
        .ensemble(InputEnsemble::PauliProduct);
    for a in assertions {
        verifier = verifier.assert_that(a);
    }
    let report = verifier
        .try_run(&mut StdRng::seed_from_u64(3), None)
        .expect("verification runs");
    for (i, outcome) in report.outcomes.iter().enumerate() {
        match &outcome.verdict {
            Verdict::Passed { confidence, .. } => {
                println!("  assertion {i}: passed (confidence {confidence:.2})");
            }
            Verdict::Failed { max_objective, .. } => {
                println!("  assertion {i}: FAILED (objective {max_objective:.3})");
            }
        }
    }
    report.all_passed()
}

fn main() {
    println!("clean GHZ program:");
    let clean_ok = verify(PROGRAM);
    println!("verdict: {}", if clean_ok { "correct" } else { "buggy" });

    println!("\nGHZ with an injected phase gate:");
    println!("(single-state purity passes — the bug preserves purity — but");
    println!(" the multi-state relation equal(T1, T2) catches it)");
    let buggy_ok = verify(BUGGY);
    println!("verdict: {}", if buggy_ok { "correct" } else { "buggy" });

    assert!(
        clean_ok && !buggy_ok,
        "expected clean to pass and buggy to fail"
    );
}
