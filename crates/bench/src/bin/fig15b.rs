//! Fig 15(b): validation time by optimization solver (SGD/Adam, genetic
//! algorithm, simulated annealing, quadratic programming) as the number of
//! sampled inputs — hence the dimensionality of the α search — grows.

use std::time::Instant;

use morph_bench::rows::{fmt_f, print_table, save_csv};
use morph_clifford::InputEnsemble;
use morph_qprog::{Circuit, TracepointId};
use morphqpv::{
    try_characterize, try_validate_assertion, AssumeGuarantee, CancelToken, CharacterizationConfig,
    RelationPredicate, SolverKind, ValidationConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let n = 4usize;
    let mut circuit = Circuit::new(n);
    circuit.tracepoint(1, &(0..n).collect::<Vec<_>>());
    circuit.extend_from(&morph_qalgo::shor_circuit(n));
    circuit.tracepoint(2, &(0..n).collect::<Vec<_>>());

    // Assertion that requires real optimization work: find the maximum
    // displacement the program induces (always failing, so the solver must
    // locate the witness).
    let assertion = AssumeGuarantee::new().guarantee_relation(
        TracepointId(1),
        TracepointId(2),
        RelationPredicate::Equal,
    );

    let mut rows = Vec::new();
    for &n_samples in &[8usize, 16, 32, 64] {
        let mut rng = StdRng::seed_from_u64(5);
        let config = CharacterizationConfig {
            ensemble: InputEnsemble::Clifford,
            n_samples,
            ..CharacterizationConfig::exact((0..n).collect(), n_samples)
        };
        // One drawn seed characterizes; the solvers continue from `rng`.
        let ch = try_characterize(
            &circuit,
            &config,
            &mut StdRng::seed_from_u64(rng.gen()),
            &CancelToken::new(),
        )
        .expect("characterization runs");
        for solver in [
            SolverKind::GradientAscent,
            SolverKind::Genetic,
            SolverKind::Annealing,
            SolverKind::Quadratic,
            SolverKind::NelderMead,
        ] {
            let vconfig = ValidationConfig {
                solver,
                ..Default::default()
            };
            let t0 = Instant::now();
            let outcome = try_validate_assertion(&assertion, &ch, &vconfig, &mut rng)
                .expect("validation runs");
            let dt = t0.elapsed().as_secs_f64();
            rows.push(vec![
                solver.name().to_string(),
                n_samples.to_string(),
                fmt_f(dt),
                fmt_f(outcome.optimum.value),
                (!outcome.verdict.passed()).to_string(),
            ]);
        }
    }
    let csv = print_table(
        "Fig 15(b): validation time by solver vs N_sample (4-qubit Shor equality assertion)",
        &[
            "solver",
            "N_sample",
            "seconds",
            "objective",
            "found_violation",
        ],
        &rows,
    );
    save_csv("fig15b", &csv);
    println!("\nExpected shape: cost grows polynomially with N_sample; QP is fastest");
    println!("at small dimension (the paper's Gurobi observation), population methods");
    println!("pay a larger constant.");
}
