//! Fig 11(b): average approximation accuracy of the tracepoint state vs
//! the number of sampled inputs, for the five Table 3 benchmarks.
//!
//! Accuracy here is the paper's metric — the overlap between the predicted
//! tracepoint state and the ground truth obtained by (simulated) execution
//! — averaged over random unseen inputs.

use morph_bench::rows::{fmt_f, print_table, save_csv};
use morph_clifford::InputEnsemble;
use morph_linalg::hs_accuracy;
use morph_qalgo::Benchmark;
use morph_qprog::{Circuit, Executor, TracepointId};
use morph_qsim::StateVector;
use morphqpv::{try_characterize, CancelToken, CharacterizationConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n = 4usize; // N_in = 4: full span at 4^4 = 256, sweep to 64.
    let mut rows = Vec::new();
    for bench in Benchmark::all() {
        let mut rng = StdRng::seed_from_u64(17);
        let body = bench.circuit(n, &mut rng);
        let n = body.n_qubits(); // QEC rounds up to the next odd size
        let mut circuit = Circuit::new(n);
        circuit.extend_from(&body);
        circuit.tracepoint(1, &(0..n).collect::<Vec<_>>());

        for &n_samples in &[4usize, 8, 16, 32, 64] {
            let config = CharacterizationConfig {
                n_samples,
                ..CharacterizationConfig::exact((0..n).collect(), n_samples)
            };
            let ch = try_characterize(&circuit, &config, &mut rng, &CancelToken::new())
                .expect("characterization runs");
            let f = ch.approximation(TracepointId(1));

            let probes = InputEnsemble::Clifford.generate(n, 10, &mut rng);
            let mut acc = 0.0;
            for p in &probes {
                let mut full = Circuit::new(n);
                full.extend_from(&p.prep);
                full.extend_from(&circuit);
                let truth = Executor::default()
                    .run_expected(&full, &StateVector::zero_state(n))
                    .state(TracepointId(1))
                    .clone();
                let predicted = f.predict(&p.rho).unwrap();
                acc += hs_accuracy(&predicted, &truth);
            }
            rows.push(vec![
                bench.name().to_string(),
                n_samples.to_string(),
                fmt_f(acc / probes.len() as f64),
            ]);
        }
    }
    let csv = print_table(
        "Fig 11(b): average tracepoint approximation accuracy vs N_sample (4-qubit benchmarks)",
        &["benchmark", "N_sample", "accuracy"],
        &rows,
    );
    save_csv("fig11b", &csv);
    println!("\nExpected shape: accuracy grows ~linearly in N_sample for all five");
    println!("benchmarks and saturates once the sampled inputs span the input space.");
}
