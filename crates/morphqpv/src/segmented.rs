//! Segmented characterization: the Section 9.2 noise optimization as a
//! library operation.
//!
//! Splits a program into contiguous gate segments at (virtual) intermediate
//! tracepoints, characterizes each segment independently under the
//! configured noise, and returns the composed [`ChainedApproximation`].
//! Combined with [`Mitigation`](crate::Mitigation) between stages, this is
//! what recovers approximation accuracy on noisy hardware (Fig 14).
//!
//! This is the fixed-count, uncached form (exactly `n_segments` chunks of
//! equal size). The revision-loop surface — content-defined segmentation,
//! per-segment cache artifacts, and structural diffing — lives in
//! [`crate::incremental`].

use morph_qprog::{Circuit, Instruction, TracepointId};
use rand::rngs::StdRng;

use crate::approx::{ApproximationFunction, ChainedApproximation};
use crate::characterize::{characterize, check_preconditions, CharacterizationConfig};
use crate::incremental::SegmentError;
use morph_tomography::CostLedger;

/// Output of a segmented characterization.
#[derive(Debug, Clone)]
pub struct SegmentedCharacterization {
    /// The composed input→output approximation.
    pub chain: ChainedApproximation,
    /// Total execution costs across all segment characterizations.
    pub ledger: CostLedger,
}

/// Splits `circuit`'s gates into `n_segments` contiguous chunks (i.e.
/// `n_segments − 1` intermediate tracepoints) and characterizes each chunk
/// over the *full register* with `config`'s ensemble/readout/noise.
///
/// The per-segment characterization samples fresh inputs at the segment
/// boundary — the hardware procedure the paper describes, where each
/// relation `ρ_{T_{i+1}} = f_i(ρ_{T_i})` is measured directly rather than
/// through the preceding noisy prefix.
///
/// # Errors
///
/// [`SegmentError::ZeroSegments`] for `n_segments == 0`,
/// [`SegmentError::NotUnitary`] for programs with measurement/feedback,
/// [`SegmentError::NoGates`] for gate-free programs,
/// [`SegmentError::TooManySegments`] when `n_segments` exceeds the gate
/// count, [`SegmentError::Precondition`] for a configuration
/// [`crate::try_characterize`] would refuse (zero samples, a noisy register
/// wider than 12 qubits), and [`SegmentError::Compose`] if the stages do
/// not chain.
pub fn try_characterize_segmented(
    circuit: &Circuit,
    config: &CharacterizationConfig,
    n_segments: usize,
    rng: &mut StdRng,
) -> Result<SegmentedCharacterization, SegmentError> {
    if n_segments == 0 {
        return Err(SegmentError::ZeroSegments);
    }
    if circuit.has_nonunitary() {
        return Err(SegmentError::NotUnitary);
    }
    let n = circuit.n_qubits();
    let gates: Vec<Instruction> = circuit
        .instructions()
        .iter()
        .filter(|i| matches!(i, Instruction::Gate(_)))
        .cloned()
        .collect();
    if gates.is_empty() {
        return Err(SegmentError::NoGates);
    }
    if n_segments > gates.len() {
        return Err(SegmentError::TooManySegments {
            requested: n_segments,
            gates: gates.len(),
        });
    }
    let per = gates.len().div_ceil(n_segments);
    let seg_config = CharacterizationConfig {
        input_qubits: (0..n).collect(),
        ..config.clone()
    };

    let mut stages: Vec<ApproximationFunction> = Vec::new();
    let mut ledger = CostLedger::new();
    for chunk in gates.chunks(per) {
        let mut segment = Circuit::new(n);
        for inst in chunk {
            segment.push(inst.clone());
        }
        segment.tracepoint(0, &(0..n).collect::<Vec<_>>());
        check_preconditions(&segment, &seg_config, seg_config.n_samples)
            .map_err(SegmentError::Precondition)?;
        let ch = characterize(&segment, &seg_config, rng);
        ledger.merge(&ch.ledger);
        stages.push(ch.approximation(TracepointId(0)));
    }
    let chain = ChainedApproximation::new(stages).map_err(SegmentError::Compose)?;
    Ok(SegmentedCharacterization { chain, ledger })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::Mitigation;
    use morph_clifford::InputEnsemble;
    use morph_linalg::hs_accuracy;
    use morph_qprog::Executor;
    use morph_qsim::{NoiseModel, StateVector};
    use rand::SeedableRng;

    fn test_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).ry(1, 0.7).cz(0, 1).h(1).cx(1, 0);
        c
    }

    fn full_span_config(noise: NoiseModel) -> CharacterizationConfig {
        CharacterizationConfig {
            n_samples: 16,
            ensemble: InputEnsemble::PauliProduct,
            noise,
            ..CharacterizationConfig::exact(vec![0, 1], 16)
        }
    }

    fn ideal_output(
        circuit: &Circuit,
        probe: &morph_clifford::InputState,
    ) -> morph_linalg::CMatrix {
        let mut full = Circuit::new(2);
        full.extend_from(&probe.prep);
        full.extend_from(circuit);
        full.tracepoint(9, &[0, 1]);
        Executor::default()
            .run_expected(&full, &StateVector::zero_state(2))
            .state(TracepointId(9))
            .clone()
    }

    #[test]
    fn noiseless_segmentation_is_exact() {
        let mut rng = StdRng::seed_from_u64(0);
        let circuit = test_circuit();
        for k in [1usize, 2, 3] {
            let seg = try_characterize_segmented(
                &circuit,
                &full_span_config(NoiseModel::noiseless()),
                k,
                &mut rng,
            )
            .unwrap();
            assert_eq!(seg.chain.len(), k.min(circuit.gate_count()));
            let probe = InputEnsemble::Clifford.generate(2, 1, &mut rng).remove(0);
            let predicted = seg.chain.predict(&probe.rho).unwrap();
            let truth = ideal_output(&circuit, &probe);
            assert!(
                hs_accuracy(&predicted, &truth) > 0.999,
                "k={k}: exact span must predict exactly"
            );
        }
    }

    #[test]
    fn noisy_segmentation_with_purification_beats_single_segment() {
        let mut rng = StdRng::seed_from_u64(1);
        let circuit = test_circuit();
        let noise = NoiseModel::ibm_cairo();
        let accuracy = |k: usize, rng: &mut StdRng| -> f64 {
            let seg =
                try_characterize_segmented(&circuit, &full_span_config(noise), k, rng).unwrap();
            let probes = InputEnsemble::Clifford.generate(2, 6, rng);
            probes
                .iter()
                .map(|p| {
                    let predicted = seg
                        .chain
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
        let circuit = test_circuit();
        let one = try_characterize_segmented(
            &circuit,
            &full_span_config(NoiseModel::noiseless()),
            1,
            &mut rng,
        )
        .unwrap();
        let three = try_characterize_segmented(
            &circuit,
            &full_span_config(NoiseModel::noiseless()),
            3,
            &mut rng,
        )
        .unwrap();
        assert!(three.ledger.executions > one.ledger.executions);
    }

    #[test]
    fn feedback_programs_rejected() {
        let mut c = Circuit::new(2);
        c.h(0).measure(0, 0);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            try_characterize_segmented(&c, &full_span_config(NoiseModel::noiseless()), 2, &mut rng),
            Err(SegmentError::NotUnitary)
        ));
    }

    #[test]
    fn oversized_segment_count_is_an_error_not_a_clamp() {
        let mut rng = StdRng::seed_from_u64(3);
        let circuit = test_circuit();
        let result = try_characterize_segmented(
            &circuit,
            &full_span_config(NoiseModel::noiseless()),
            circuit.gate_count() + 1,
            &mut rng,
        );
        match result {
            Err(SegmentError::TooManySegments { requested, gates }) => {
                assert_eq!(requested, 7);
                assert_eq!(gates, 6);
            }
            other => panic!("expected TooManySegments, got {other:?}"),
        }
        // Zero segments and gate-free programs report structured errors
        // too, instead of the old assert/clamp behavior.
        assert!(matches!(
            try_characterize_segmented(
                &circuit,
                &full_span_config(NoiseModel::noiseless()),
                0,
                &mut rng
            ),
            Err(SegmentError::ZeroSegments)
        ));
        let empty = Circuit::new(1);
        assert!(matches!(
            try_characterize_segmented(
                &empty,
                &full_span_config(NoiseModel::noiseless()),
                1,
                &mut rng
            ),
            Err(SegmentError::NoGates)
        ));
    }
}
