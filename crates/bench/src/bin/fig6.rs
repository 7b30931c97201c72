//! Fig 6: distribution of approximation accuracies across random inputs,
//! with the fitted Beta distribution that powers the Theorem 3 confidence
//! model.

use morph_bench::rows::{fmt_f, print_table, save_csv};
use morph_clifford::InputEnsemble;
use morph_qprog::Circuit;
use morphqpv::{try_characterize, CancelToken, CharacterizationConfig, ConfidenceModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 5-qubit Shor-style program, half-span characterization so case-2
    // accuracies are spread out.
    let n = 5usize;
    let mut circuit = Circuit::new(n);
    circuit.extend_from(&morph_qalgo::shor_circuit(n));
    circuit.tracepoint(1, &[0, 1, 2, 3, 4]);

    let mut rng = StdRng::seed_from_u64(11);
    let config = CharacterizationConfig {
        n_samples: 24,
        ..CharacterizationConfig::exact((0..n).collect(), 24)
    };
    let ch = try_characterize(&circuit, &config, &mut rng, &CancelToken::new())
        .expect("characterization runs");
    let f = ch.approximation(morph_qprog::TracepointId(1));

    let probes = InputEnsemble::Clifford.generate(n, 300, &mut rng);
    let accuracies: Vec<f64> = probes
        .iter()
        .map(|p| f.representation_accuracy(&p.rho).unwrap_or(0.0))
        .collect();

    // Histogram over 10 bins.
    let mut bins = [0usize; 10];
    for &a in &accuracies {
        let idx = ((a * 10.0) as usize).min(9);
        bins[idx] += 1;
    }
    let model = ConfidenceModel::fit(&accuracies);
    let mut rows = Vec::new();
    for (i, &count) in bins.iter().enumerate() {
        let lo = i as f64 / 10.0;
        let hi = lo + 0.1;
        // Beta mass in the bin for comparison.
        let beta_mass = morphqpv::regularized_incomplete_beta(hi, model.beta1, model.beta2)
            - morphqpv::regularized_incomplete_beta(lo, model.beta1, model.beta2);
        rows.push(vec![
            format!("[{lo:.1},{hi:.1})"),
            count.to_string(),
            fmt_f(count as f64 / accuracies.len() as f64),
            fmt_f(beta_mass),
        ]);
    }
    let csv = print_table(
        "Fig 6: distribution of approximation accuracies vs fitted Beta",
        &["accuracy_bin", "count", "empirical_frac", "beta_fit_frac"],
        &rows,
    );
    save_csv("fig6", &csv);
    println!(
        "\nFitted Beta(β1={:.2}, β2={:.2}); mean accuracy {:.3} (paper observes a Beta shape).",
        model.beta1,
        model.beta2,
        model.mean()
    );
}
