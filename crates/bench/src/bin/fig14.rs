//! Fig 14: approximation accuracy under hardware noise, improved by
//! injecting intermediate tracepoints and chaining per-segment
//! approximations (with between-stage purification — see EXPERIMENTS.md).
//!
//! Each chunk between the injected tracepoints is characterized as its own
//! program and fitted as one stage of the chain ([`chain_stages`]).

use morph_bench::rows::{fmt_f, print_table, save_csv};
use morph_bench::{chain_stages, ideal_output};
use morph_clifford::InputEnsemble;
use morph_linalg::hs_accuracy;
use morph_qalgo::{Benchmark, Qnn};
use morph_qprog::Circuit;
use morph_qsim::NoiseModel;
use morphqpv::{CharacterizationConfig, Mitigation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 3;
// Full operator span (4^N) so chaining accuracy is limited by noise only.
const SAMPLES: usize = 64;

/// Chains one noisy stage per chunk of `ceil(gates / k)` gates. Returns
/// the number of intermediate tracepoints and the mean accuracy on unseen
/// inputs.
fn accuracy_with_segments(circuit: &Circuit, k: usize, rng: &mut StdRng) -> (usize, f64) {
    let config = CharacterizationConfig {
        n_samples: SAMPLES,
        noise: NoiseModel::ibm_cairo(),
        ensemble: InputEnsemble::PauliProduct,
        ..CharacterizationConfig::exact((0..N).collect(), SAMPLES)
    };
    let (chain, _) =
        chain_stages(circuit, k, &config, rng.gen()).expect("benchmark circuit chains");

    // Ideal (noiseless) ground truth on unseen inputs.
    let probes = InputEnsemble::Clifford.generate(N, 8, rng);
    let mut acc = 0.0;
    for p in &probes {
        let predicted = chain
            .predict_with_mitigation(&p.rho, Mitigation::Purify)
            .expect("dimension match");
        acc += hs_accuracy(&predicted, &ideal_output(circuit, p));
    }
    (chain.len() - 1, acc / probes.len() as f64)
}

fn main() {
    let mut rng = StdRng::seed_from_u64(14);
    let mut rows = Vec::new();
    let qnn = {
        let model = Qnn::random(N, 4, &mut rng);
        model.body()
    };
    let shor = Benchmark::Shor.circuit(N, &mut rng);
    for (name, circuit) in [("QNN 3q", qnn), ("Shor 3q", shor)] {
        for &k in &[1usize, 2, 4, 8] {
            let (intermediate, acc) = accuracy_with_segments(&circuit, k, &mut rng);
            rows.push(vec![name.to_string(), intermediate.to_string(), fmt_f(acc)]);
        }
    }
    let csv = print_table(
        "Fig 14: noisy-characterization accuracy vs intermediate tracepoints (IBM Cairo noise)",
        &["program", "intermediate_tracepoints", "accuracy"],
        &rows,
    );
    save_csv("fig14", &csv);
    println!("\nExpected shape: accuracy rises as intermediate tracepoints shorten the");
    println!("noisy segments (paper: 1.6% -> 13.6% -> 65% for the 15-qubit QNN).");
}
