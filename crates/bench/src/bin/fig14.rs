//! Fig 14: approximation accuracy under hardware noise, improved by
//! injecting intermediate tracepoints and chaining per-segment
//! approximations (with between-stage purification — see EXPERIMENTS.md).
//!
//! The chain comes from the incremental path with its cuts pinned to the
//! injected tracepoints: `segment_gates(usize::MAX)` adds no
//! content-defined cut, so each gap between tracepoints is one stage.

use morph_bench::rows::{fmt_f, print_table, save_csv};
use morph_clifford::InputEnsemble;
use morph_linalg::hs_accuracy;
use morph_qalgo::{Benchmark, Qnn};
use morph_qprog::{Circuit, Executor, Instruction, TracepointId};
use morph_qsim::{NoiseModel, StateVector};
use morphqpv::{
    try_characterize_incremental, CharacterizationConfig, Mitigation, SegmentedCache,
    SegmentedConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 3;
// Full operator span (4^N) so chaining accuracy is limited by noise only.
const SAMPLES: usize = 64;

/// Splits `circuit`'s gates into chunks of `ceil(gates / k)` gates (at
/// most `k` chunks, fewer when the division leaves them short), with a
/// full-register tracepoint before the first chunk and after every chunk,
/// and chains one noisy stage per chunk. Returns the number of
/// intermediate tracepoints and the mean accuracy on unseen inputs.
fn accuracy_with_segments(circuit: &Circuit, k: usize, rng: &mut StdRng) -> (u64, f64) {
    let config = CharacterizationConfig {
        n_samples: SAMPLES,
        noise: NoiseModel::ibm_cairo(),
        ensemble: InputEnsemble::PauliProduct,
        ..CharacterizationConfig::exact((0..N).collect(), SAMPLES)
    };
    let all: Vec<usize> = (0..N).collect();
    let gates: Vec<&Instruction> = circuit
        .instructions()
        .iter()
        .filter(|i| matches!(i, Instruction::Gate(_)))
        .collect();
    let mut traced = Circuit::new(N);
    traced.tracepoint(0, &all);
    for (i, chunk) in gates.chunks(gates.len().div_ceil(k)).enumerate() {
        for inst in chunk {
            traced.push((*inst).clone());
        }
        traced.tracepoint(i as u32 + 1, &all);
    }
    let seg = try_characterize_incremental(
        &traced,
        &config,
        &SegmentedConfig::new().segment_gates(usize::MAX),
        rng,
        &mut SegmentedCache::in_memory(),
    )
    .expect("benchmark circuit segments cleanly");
    assert_eq!(
        seg.segments.total as usize,
        traced.tracepoints().len() - 1,
        "one segment per gap between tracepoints"
    );

    // Ideal (noiseless) ground truth on unseen inputs.
    let probes = InputEnsemble::Clifford.generate(N, 8, rng);
    let mut acc = 0.0;
    for p in &probes {
        let mut full = Circuit::new(N);
        full.extend_from(&p.prep);
        full.extend_from(circuit);
        full.tracepoint(1, &(0..N).collect::<Vec<_>>());
        let truth = Executor::default()
            .run_expected(&full, &StateVector::zero_state(N))
            .state(TracepointId(1))
            .clone();
        let predicted = seg
            .chain
            .predict_with_mitigation(&p.rho, Mitigation::Purify)
            .expect("dimension match");
        acc += hs_accuracy(&predicted, &truth);
    }
    (seg.segments.total - 1, acc / probes.len() as f64)
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
