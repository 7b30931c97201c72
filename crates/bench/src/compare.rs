//! MorphQPV-based program comparison: the verification pattern behind
//! Table 4 and the QNN pruning case study — characterize a reference and a
//! candidate on the *same* sampled inputs, then assert that their output
//! tracepoint states agree for every input.

use std::collections::BTreeMap;

use morph_baselines::{BugDetector, DetectionResult};
use morph_clifford::InputEnsemble;
use morph_qprog::{Circuit, TracepointId};
use morph_tomography::{CostLedger, ReadoutMode};
use morphqpv::{
    try_characterize_with_inputs, try_validate_assertion, AssumeGuarantee, CancelToken,
    Characterization, CharacterizationConfig, RelationPredicate, ValidationConfig, Verdict,
};
use rand::rngs::StdRng;

/// Configuration of a program comparison.
#[derive(Debug, Clone)]
pub struct CompareConfig {
    /// Qubits carrying the program input.
    pub input_qubits: Vec<usize>,
    /// Qubits whose output state is compared.
    pub output_qubits: Vec<usize>,
    /// Number of sampled inputs.
    pub n_samples: usize,
    /// Readout mode for tracepoint capture.
    pub readout: ReadoutMode,
    /// Distance above which the outputs are considered different.
    pub tolerance: f64,
    /// Worker threads for the characterization sweeps (`0` = all cores,
    /// `1` = serial); results are identical at every setting.
    pub parallelism: usize,
}

impl CompareConfig {
    /// A sensible default: input on the listed qubits, outputs on the same
    /// qubits, `2 × N_in + 2` samples, exact readout.
    pub fn new(input_qubits: Vec<usize>, output_qubits: Vec<usize>) -> Self {
        let n_in = input_qubits.len();
        CompareConfig {
            input_qubits,
            output_qubits,
            n_samples: 2 * n_in + 2,
            readout: ReadoutMode::Exact,
            tolerance: 0.05,
            parallelism: 0,
        }
    }
}

/// Compares `candidate` against `reference` with MorphQPV: both programs
/// are characterized on the same inputs and the assertion
/// `∀ input: ρ_out(candidate) ≈ ρ_out(reference)` is validated by
/// optimization. Returns whether a difference (bug) was found, the
/// counter-example objective value, and the total cost.
///
/// # Panics
///
/// Panics if the programs have different register sizes or the
/// configuration indexes out of range.
pub fn compare_programs(
    reference: &Circuit,
    candidate: &Circuit,
    config: &CompareConfig,
    rng: &mut StdRng,
) -> (bool, f64, CostLedger) {
    assert_eq!(
        reference.n_qubits(),
        candidate.n_qubits(),
        "programs must share a register"
    );
    // Instrument both with an output tracepoint.
    let instrument = |c: &Circuit| -> Circuit {
        let mut out = Circuit::with_cbits(c.n_qubits(), c.n_cbits());
        out.extend_from(c);
        out.tracepoint(1, &config.output_qubits);
        out
    };
    let ref_traced = instrument(reference);
    let cand_traced = instrument(candidate);

    let char_config = CharacterizationConfig {
        n_samples: config.n_samples,
        ensemble: InputEnsemble::Clifford,
        readout: config.readout,
        input_qubits: config.input_qubits.clone(),
        noise: morph_qsim::NoiseModel::noiseless(),
        parallelism: config.parallelism,
        backend: morphqpv::BackendMode::Auto,
    };
    let inputs = char_config
        .ensemble
        .generate(config.input_qubits.len(), config.n_samples, rng);
    let ch_ref = try_characterize_with_inputs(
        &ref_traced,
        &char_config,
        inputs.clone(),
        rng,
        &CancelToken::new(),
    )
    .expect("characterization runs");
    let ch_cand = try_characterize_with_inputs(
        &cand_traced,
        &char_config,
        inputs.clone(),
        rng,
        &CancelToken::new(),
    )
    .expect("characterization runs");

    // Merge into one characterization: T1 = candidate output, T2 =
    // reference output, over the shared input basis.
    let mut traces = BTreeMap::new();
    traces.insert(TracepointId(1), ch_cand.traces[&TracepointId(1)].clone());
    traces.insert(TracepointId(2), ch_ref.traces[&TracepointId(1)].clone());
    let mut ledger = ch_cand.ledger;
    ledger.merge(&ch_ref.ledger);
    let mut fast_path = ch_cand.fast_path;
    fast_path.merge(&ch_ref.fast_path);
    let merged = Characterization {
        inputs,
        traces,
        ledger,
        // Both characterizations share a config, hence a backend plan.
        backend: ch_cand.backend,
        fast_path,
    };

    let assertion = AssumeGuarantee::new().guarantee_relation(
        TracepointId(1),
        TracepointId(2),
        RelationPredicate::Within {
            tolerance: config.tolerance,
        },
    );
    let validation = ValidationConfig::default();
    let outcome =
        try_validate_assertion(&assertion, &merged, &validation, rng).expect("validation runs");
    match outcome.verdict {
        Verdict::Failed { max_objective, .. } => (true, max_objective, merged.ledger),
        Verdict::Passed { max_objective, .. } => (false, max_objective, merged.ledger),
    }
}

/// [`compare_programs`] wrapped as a Table 4 detector. The `budget`
/// parameter is interpreted as the sample budget (the baselines' "tested
/// inputs"), keeping the comparison fair.
#[derive(Debug, Clone)]
pub struct MorphDetector {
    /// Comparison configuration template (sample count is overridden by the
    /// detect budget).
    pub config: CompareConfig,
}

impl MorphDetector {
    /// Detector comparing full-register outputs with inputs on all qubits.
    pub fn full_register(n_qubits: usize) -> Self {
        let all: Vec<usize> = (0..n_qubits).collect();
        MorphDetector {
            config: CompareConfig::new(all.clone(), all),
        }
    }
}

impl BugDetector for MorphDetector {
    fn name(&self) -> &'static str {
        "MorphQPV"
    }

    fn detect(
        &self,
        reference: &Circuit,
        candidate: &Circuit,
        budget: usize,
        rng: &mut StdRng,
    ) -> DetectionResult {
        let mut config = self.config.clone();
        config.n_samples = budget.max(2);
        let (bug_found, _, ledger) = compare_programs(reference, candidate, &config, rng);
        DetectionResult {
            bug_found,
            witness_input: None,
            ledger,
        }
    }

    fn supports_expectation_checks(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn ghz() -> Circuit {
        morph_qalgo::ghz(3)
    }

    #[test]
    fn identical_programs_compare_equal() {
        let mut rng = StdRng::seed_from_u64(0);
        let config = CompareConfig::new(vec![0], vec![0, 1, 2]);
        let (bug, obj, ledger) = compare_programs(&ghz(), &ghz(), &config, &mut rng);
        assert!(!bug, "identical programs must agree (objective {obj})");
        assert!(ledger.executions > 0);
    }

    #[test]
    fn phase_mutation_is_detected() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut mutated = ghz();
        // Insert a phase error in the middle.
        mutated.insert(
            2,
            morph_qprog::Instruction::Gate(morph_qsim::Gate::Phase(1, 1.0)),
        );
        let config = CompareConfig::new(vec![0], vec![0, 1, 2]);
        let (bug, obj, _) = compare_programs(&ghz(), &mutated, &config, &mut rng);
        assert!(bug, "phase bug must be caught, objective {obj}");
    }

    #[test]
    fn detector_interface_reports_costs() {
        let mut rng = StdRng::seed_from_u64(2);
        let detector = MorphDetector::full_register(3);
        let result = detector.detect(&ghz(), &ghz(), 5, &mut rng);
        assert!(!result.bug_found);
        assert!(
            result.ledger.executions >= 10,
            "two characterizations of 5 samples"
        );
        assert!(detector.supports_expectation_checks());
    }
}
