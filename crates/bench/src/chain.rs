//! The §9.2 chained approximation behind Fig 14: a program cut into chunks
//! (the gaps between injected full-register tracepoints), each chunk
//! characterized as its own program and fitted as one stage of a
//! [`ChainedApproximation`], with no cache.

use std::error::Error;

use morph_linalg::CMatrix;
use morph_qprog::{Circuit, Executor, Instruction, TracepointId};
use morph_qsim::StateVector;
use morph_tomography::CostLedger;
use morphqpv::{
    segment_fingerprint, segment_seed, try_characterize, CancelToken, ChainedApproximation,
    CharacterizationConfig, InputState,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Cuts `circuit`'s gates into chunks of `ceil(gates / k)` (at most `k`
/// chunks, fewer when the division leaves them short) and chains one stage
/// per chunk, returned with what characterizing the chain cost. Each chunk
/// is characterized as its own program, the chunk plus a full-register
/// tracepoint with inputs on every qubit, under `config` and seeded from
/// the segment fingerprint of its gates under `master_seed`.
///
/// # Errors
///
/// When a chunk cannot be characterized or the stages do not chain (see
/// [`morphqpv::MorphError`] and [`morph_linalg::SolveError`]).
///
/// # Panics
///
/// When `k` is 0 or `circuit` has no gates.
pub fn chain_stages(
    circuit: &Circuit,
    k: usize,
    config: &CharacterizationConfig,
    master_seed: u64,
) -> Result<(ChainedApproximation, CostLedger), Box<dyn Error>> {
    let n = circuit.n_qubits();
    let all: Vec<usize> = (0..n).collect();
    let gates: Vec<&Instruction> = circuit
        .instructions()
        .iter()
        .filter(|i| matches!(i, Instruction::Gate(_)))
        .collect();
    let stage_config = CharacterizationConfig {
        input_qubits: all.clone(),
        ..config.clone()
    };
    let mut ledger = CostLedger::new();
    let mut stages = Vec::with_capacity(k);
    for chunk in gates.chunks(gates.len().div_ceil(k)) {
        let mut program = Circuit::new(n);
        for inst in chunk {
            program.push((*inst).clone());
        }
        let seed = segment_seed(&segment_fingerprint(&program, config, master_seed));
        program.tracepoint(0, &all);
        let ch = try_characterize(
            &program,
            &stage_config,
            &mut StdRng::seed_from_u64(seed),
            &CancelToken::new(),
        )?;
        ledger.merge(&ch.ledger);
        stages.push(ch.approximation(TracepointId(0)));
    }
    Ok((ChainedApproximation::new(stages)?, ledger))
}

/// The noiseless state `circuit` ends in on `probe`'s input, over the
/// whole register: the ground truth a chain's prediction is scored
/// against.
pub fn ideal_output(circuit: &Circuit, probe: &InputState) -> CMatrix {
    let n = circuit.n_qubits();
    let mut full = Circuit::new(n);
    full.extend_from(&probe.prep);
    full.extend_from(circuit);
    full.tracepoint(0, &(0..n).collect::<Vec<_>>());
    Executor::default()
        .run_expected(&full, &StateVector::zero_state(n))
        .state(TracepointId(0))
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_linalg::hs_accuracy;
    use morph_qsim::NoiseModel;
    use morphqpv::{InputEnsemble, Mitigation};
    use rand::Rng;

    type Chain = (ChainedApproximation, CostLedger);

    fn six_gate_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).ry(1, 0.7).cz(0, 1).h(1).cx(1, 0);
        c
    }

    /// `circuit` in `k` stages on the full 2-qubit operator span
    /// (Pauli-product inputs, 16 samples).
    fn pinned_chain(c: &Circuit, k: usize, noise: NoiseModel, rng: &mut StdRng) -> Chain {
        let config = CharacterizationConfig {
            noise,
            ensemble: InputEnsemble::PauliProduct,
            ..CharacterizationConfig::exact(vec![0, 1], 16)
        };
        let chain = chain_stages(c, k, &config, rng.gen()).unwrap();
        assert_eq!(chain.0.len(), k, "one stage per chunk");
        chain
    }

    #[test]
    fn noiseless_segmentation_is_exact() {
        let mut rng = StdRng::seed_from_u64(0);
        let circuit = six_gate_circuit();
        for k in [1usize, 2, 3] {
            let (chain, _) = pinned_chain(&circuit, k, NoiseModel::noiseless(), &mut rng);
            let probe = InputEnsemble::Clifford.generate(2, 1, &mut rng).remove(0);
            let predicted = chain.predict(&probe.rho).unwrap();
            assert!(
                hs_accuracy(&predicted, &ideal_output(&circuit, &probe)) > 0.999,
                "k={k}: exact span must predict exactly"
            );
        }
    }

    #[test]
    fn noisy_segmentation_with_purification_beats_single_segment() {
        let mut rng = StdRng::seed_from_u64(1);
        let circuit = six_gate_circuit();
        let accuracy = |k: usize, rng: &mut StdRng| -> f64 {
            let (chain, _) = pinned_chain(&circuit, k, NoiseModel::ibm_cairo(), rng);
            let probes = InputEnsemble::Clifford.generate(2, 6, rng);
            probes
                .iter()
                .map(|p| {
                    let predicted = chain
                        .predict_with_mitigation(&p.rho, Mitigation::Purify)
                        .unwrap();
                    hs_accuracy(&predicted, &ideal_output(&circuit, p))
                })
                .sum::<f64>()
                / 6.0
        };
        let single = accuracy(1, &mut rng);
        let segmented = accuracy(3, &mut rng);
        assert!(
            segmented >= single - 0.02,
            "segmentation must not hurt: {segmented} vs {single}"
        );
    }

    #[test]
    fn ledger_accumulates_across_segments() {
        let mut rng = StdRng::seed_from_u64(2);
        let circuit = six_gate_circuit();
        let (_, one) = pinned_chain(&circuit, 1, NoiseModel::noiseless(), &mut rng);
        let (_, three) = pinned_chain(&circuit, 3, NoiseModel::noiseless(), &mut rng);
        assert!(three.executions > one.executions);
    }
}
