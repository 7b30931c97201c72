//! Fig 13: ablation of the three sample-space pruning strategies of
//! Section 5.4.
//!
//! (a) Strategy-adapt and Strategy-const reduce the *number of sampled
//!     inputs* needed to reach a target accuracy on the inputs that
//!     actually matter (a workload dataset / a pinned sub-register).
//! (b) Strategy-prop reduces the *shots* of the characterization by
//!     reading only the asserted property (probabilities) instead of full
//!     state tomography.

use morph_bench::rows::{fmt_f, print_table, save_csv};
use morph_clifford::{InputEnsemble, InputState};
use morph_qalgo::{iris_like_dataset, Qnn};
use morph_qprog::Circuit;
use morph_tomography::ReadoutMode;
use morphqpv::{
    adaptive_operator_inputs, constant_pinned_inputs, try_characterize,
    try_characterize_with_inputs, CancelToken, CharacterizationConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Mean representation accuracy of a characterization over the given test
/// inputs.
fn accuracy_on(ch: &morphqpv::Characterization, tests: &[morph_linalg::CMatrix]) -> f64 {
    let span = ch.input_span();
    tests
        .iter()
        .map(|rho| span.representation_accuracy(rho).unwrap_or(0.0))
        .sum::<f64>()
        / tests.len() as f64
}

/// Smallest budget from `budgets` reaching `target` accuracy; the largest
/// budget if none does.
fn samples_needed(
    budgets: &[usize],
    target: f64,
    mut run: impl FnMut(usize) -> f64,
) -> (usize, f64) {
    for &b in budgets {
        let acc = run(b);
        if acc >= target {
            return (b, acc);
        }
    }
    let last = *budgets.last().expect("nonempty budgets");
    (last, run(last))
}

fn main() {
    let mut rng = StdRng::seed_from_u64(13);
    let mut rows_a = Vec::new();

    // ---- (a) Strategy-adapt on a 4-qubit QNN over the Iris-like workload.
    let model = Qnn::random(4, 2, &mut rng);
    let mut qnn = Circuit::new(4);
    qnn.extend_from(&model.body());
    qnn.tracepoint(1, &[0, 1, 2, 3]);
    // Workload: encoded dataset states.
    let dataset: Vec<InputState> = iris_like_dataset(40, &mut rng)
        .iter()
        .map(|s| {
            let prep = model.encoder(&s.attributes);
            let mut psi = morph_qsim::StateVector::zero_state(4);
            for inst in prep.instructions() {
                if let morph_qprog::Instruction::Gate(g) = inst {
                    g.apply(&mut psi);
                }
            }
            let rho = psi.density_matrix();
            InputState {
                prep,
                state: psi,
                rho,
            }
        })
        .collect();
    let workload_rhos: Vec<morph_linalg::CMatrix> = dataset.iter().map(|d| d.rho.clone()).collect();
    let budgets = [2usize, 4, 6, 9, 12, 16, 24, 32, 48, 64];
    let target = 0.95;

    let (baseline_n, baseline_acc) = samples_needed(&budgets, target, |b| {
        let config = CharacterizationConfig {
            n_samples: b,
            ..CharacterizationConfig::exact(vec![0, 1, 2, 3], b)
        };
        let ch = try_characterize(&qnn, &config, &mut rng, &CancelToken::new())
            .expect("characterization runs");
        accuracy_on(&ch, &workload_rhos)
    });
    let (adapt_n, adapt_acc) = samples_needed(&budgets, target, |b| {
        // b probes correspond to a ⌊√b⌋-dimensional dominant subspace.
        let k = ((b as f64).sqrt() as usize).clamp(1, 16);
        let (inputs, _) = adaptive_operator_inputs(&workload_rhos, k);
        let config = CharacterizationConfig {
            n_samples: inputs.len(),
            ..CharacterizationConfig::exact(vec![0, 1, 2, 3], inputs.len())
        };
        let ch = try_characterize_with_inputs(&qnn, &config, inputs, &mut rng, &CancelToken::new())
            .expect("characterization runs");
        accuracy_on(&ch, &workload_rhos)
    });
    rows_a.push(vec![
        "QNN 4q, no pruning".into(),
        baseline_n.to_string(),
        fmt_f(baseline_acc),
    ]);
    rows_a.push(vec![
        "QNN 4q, Strategy-adapt".into(),
        adapt_n.to_string(),
        fmt_f(adapt_acc),
    ]);

    // ---- (a) Strategy-const on a 6-qubit Shor circuit: half the input
    // register pinned to |0…0⟩.
    let mut shor = Circuit::new(6);
    shor.extend_from(&morph_qalgo::shor_circuit(6));
    shor.tracepoint(1, &(0..6).collect::<Vec<_>>());
    // Test inputs live in the pinned subspace.
    let pinned_tests: Vec<morph_linalg::CMatrix> = {
        let free = InputEnsemble::Clifford.generate(3, 12, &mut rng);
        constant_pinned_inputs(&free, &[3, 4, 5], &[0, 1, 2], 0)
            .into_iter()
            .map(|i| i.rho)
            .collect()
    };
    let (full_n, full_acc) = samples_needed(&budgets, target, |b| {
        let config = CharacterizationConfig {
            n_samples: b,
            ..CharacterizationConfig::exact((0..6).collect(), b)
        };
        let ch = try_characterize(&shor, &config, &mut rng, &CancelToken::new())
            .expect("characterization runs");
        accuracy_on(&ch, &pinned_tests)
    });
    let (const_n, const_acc) = samples_needed(&budgets, target, |b| {
        let free = InputEnsemble::PauliProduct.generate(3, b, &mut rng);
        let inputs = constant_pinned_inputs(&free, &[3, 4, 5], &[0, 1, 2], 0);
        let config = CharacterizationConfig {
            n_samples: inputs.len(),
            ..CharacterizationConfig::exact((0..6).collect(), inputs.len())
        };
        let ch =
            try_characterize_with_inputs(&shor, &config, inputs, &mut rng, &CancelToken::new())
                .expect("characterization runs");
        accuracy_on(&ch, &pinned_tests)
    });
    rows_a.push(vec![
        "Shor 6q, no pruning".into(),
        full_n.to_string(),
        fmt_f(full_acc),
    ]);
    rows_a.push(vec![
        "Shor 6q, Strategy-const".into(),
        const_n.to_string(),
        fmt_f(const_acc),
    ]);

    let csv_a = print_table(
        "Fig 13(a): sampled inputs needed for 95% accuracy on the relevant inputs",
        &["setting", "N_sample", "accuracy"],
        &rows_a,
    );
    save_csv("fig13a", &csv_a);

    // ---- (b) Strategy-prop: shots of full tomography vs probability-only.
    let mut rows_b = Vec::new();
    for &n in &[3usize, 4, 5, 6] {
        let mut circ = Circuit::new(n);
        circ.extend_from(&morph_qalgo::shor_circuit(n));
        circ.tracepoint(1, &(0..n).collect::<Vec<_>>());
        let shots = 1000usize;
        let base_cfg = CharacterizationConfig {
            n_samples: 6,
            readout: ReadoutMode::Shots(shots),
            ..CharacterizationConfig::exact((0..n).collect(), 6)
        };
        let full = try_characterize(&circ, &base_cfg, &mut rng, &CancelToken::new())
            .expect("characterization runs");
        let prop_cfg = CharacterizationConfig {
            readout: ReadoutMode::ProbabilitiesOnly(shots),
            ..base_cfg.clone()
        };
        let prop = try_characterize(&circ, &prop_cfg, &mut rng, &CancelToken::new())
            .expect("characterization runs");
        // Extension: classical-shadow readout — flat single-shot snapshot
        // budget instead of 4^k − 1 settings.
        let shadow_cfg = CharacterizationConfig {
            readout: ReadoutMode::Shadow(shots),
            ..base_cfg
        };
        let shadow = try_characterize(&circ, &shadow_cfg, &mut rng, &CancelToken::new())
            .expect("characterization runs");
        rows_b.push(vec![
            format!("Shor {n}q"),
            full.ledger.shots.to_string(),
            prop.ledger.shots.to_string(),
            shadow.ledger.shots.to_string(),
            fmt_f(full.ledger.shots as f64 / prop.ledger.shots as f64),
        ]);
    }
    let csv_b = print_table(
        "Fig 13(b): characterization shots — full tomography vs Strategy-prop vs shadows",
        &[
            "setting",
            "shots_full",
            "shots_prop",
            "shots_shadow",
            "prop_reduction",
        ],
        &rows_b,
    );
    save_csv("fig13b", &csv_b);
    println!("\nExpected shape: adapt/const cut the sample count by integer factors;");
    println!("prop cuts shots by the tomography setting count 4^N_T − 1 (paper: up to");
    println!("82.1x at 10 qubits).");
}
