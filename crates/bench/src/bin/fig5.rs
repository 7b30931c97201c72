//! Fig 5: experimental vs theoretical approximation accuracy in quantum
//! teleportation, for case-1 inputs (inside the sampled span) and case-2
//! inputs (random states), as the number of sampled inputs grows.
//!
//! Paper setting: 7-qubit and 15-qubit teleportation with N_in = 3 and 5.
//! Here the payloads are 3 and 5 qubits (9- and 15-qubit coherent
//! teleportation circuits); the theory curve is Theorem 2's
//! `N_sample / 2^(N_in + 1)`.

use morph_bench::rows::{fmt_f, print_table, save_csv};
use morph_clifford::InputEnsemble;
use morph_linalg::CMatrix;
use morph_qalgo::Teleportation;
use morph_qprog::Circuit;
use morphqpv::{try_characterize, CancelToken, CharacterizationConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn accuracy_sweep(payload: usize, rows: &mut Vec<Vec<String>>) {
    let layout = Teleportation::new(payload);
    let n_in = payload;
    let mut circuit = Circuit::new(layout.n_qubits());
    circuit.extend_from(&layout.circuit_coherent());
    circuit.tracepoint(1, &layout.output_qubits());

    let mut rng = StdRng::seed_from_u64(7);
    let paper_full = 1usize << (n_in + 1);
    // Sweep past the paper's 2^(N_in+1) bound up to the strict operator-
    // space dimension 4^N_in (capped for the 5-qubit payload); see
    // EXPERIMENTS.md for the Theorem 2 looseness this exposes.
    let hard_cap = (1usize << (2 * n_in)).min(256);
    let budgets: Vec<usize> = (1..)
        .map(|k| 1usize << k)
        .take_while(|&b| b <= hard_cap)
        .collect();
    for &n_samples in &budgets {
        let config = CharacterizationConfig {
            n_samples,
            ..CharacterizationConfig::exact(layout.input_qubits(), n_samples)
        };
        let ch = try_characterize(&circuit, &config, &mut rng, &CancelToken::new())
            .expect("characterization runs");
        let span = ch.input_span();

        // Case 1: convex mixtures of sampled inputs are inside the span.
        let case1: f64 = {
            let mut acc = 0.0;
            let trials = 8;
            for t in 0..trials {
                let mut mix = CMatrix::zeros(1 << n_in, 1 << n_in);
                let w = 1.0 / ((t % ch.inputs.len()) + 1) as f64;
                for input in ch.inputs.iter().take((t % ch.inputs.len()) + 1) {
                    mix += &input.rho.scale_re(w);
                }
                acc += span.representation_accuracy(&mix).unwrap_or(0.0);
            }
            acc / trials as f64
        };

        // Case 2: random Clifford states.
        let case2: f64 = {
            let probes = InputEnsemble::Clifford.generate(n_in, 16, &mut rng);
            probes
                .iter()
                .map(|p| span.representation_accuracy(&p.rho).unwrap_or(0.0))
                .sum::<f64>()
                / 16.0
        };
        let theory = (n_samples as f64 / paper_full as f64).min(1.0);
        rows.push(vec![
            format!("{}q teleport (N_in={})", layout.n_qubits(), n_in),
            n_samples.to_string(),
            fmt_f(case1),
            fmt_f(case2),
            fmt_f(theory),
        ]);
    }
}

fn main() {
    let mut rows = Vec::new();
    accuracy_sweep(3, &mut rows);
    accuracy_sweep(5, &mut rows);
    let csv = print_table(
        "Fig 5: approximation accuracy vs number of sampled inputs",
        &[
            "program",
            "N_sample",
            "case1_acc",
            "case2_acc",
            "theory_case2",
        ],
        &rows,
    );
    save_csv("fig5", &csv);
    println!("\nExpected shape: case-1 ≈ 1 throughout; case-2 grows roughly linearly");
    println!("with N_sample. Deviation from the paper: our least-squares projection");
    println!("saturates at N_sample = 4^N_in (the strict Hermitian-operator-space");
    println!("dimension), not the paper's 2^(N_in+1); both lines are reported.");
}
