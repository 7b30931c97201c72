//! Program characterization (Section 5): input sampling + tracepoint
//! readout, producing one [`ApproximationFunction`] per tracepoint.
//!
//! Sampling runs execute through [`Executor`], so noiseless sweeps get the
//! statevector gate-fusion pre-pass and noisy density sweeps get the
//! qubit-local channel kernels automatically; a simulator arithmetic
//! change of this kind bumps [`crate::cache::FINGERPRINT_DOMAIN`] so stale
//! artifacts are never reused.

use std::collections::BTreeMap;

use morph_backend::{
    plan_characterization, suffix_circuit, BackendChoice, FastPathStats, PlanInputs, Simulator,
    SparseSim, StabilizerSim,
};
use morph_clifford::{InputEnsemble, InputState};
use morph_linalg::CMatrix;
use morph_qprog::{BackendMode, Circuit, Executor, Instruction, TracepointId};
use morph_qsim::{DensityMatrix, NoiseModel, StateBatch, StateVector};
use morph_tomography::{read_state, CostLedger, ReadoutMode, SharedLedger};
use rand::rngs::StdRng;

use crate::approx::{ApproximationFunction, InputSpan};
use crate::cancel::{CancelToken, Cancelled};
use crate::error::{MorphError, Precondition, MAX_NOISY_QUBITS};

/// Lanes per task on the dense path: each task applies every gate across
/// this many inputs in one strided pass, fewer on registers too wide for
/// 32 lanes to fit [`StateBatch::max_lanes`]. Never changes results (each
/// lane's readout RNG stream is keyed by its global input index), only the
/// memory/locality trade-off.
fn dense_lanes(n_qubits: usize) -> usize {
    StateBatch::max_lanes(n_qubits).min(32)
}

/// Configuration of the characterization stage.
#[derive(Debug, Clone)]
pub struct CharacterizationConfig {
    /// Number of sampled inputs (`N_sample`).
    pub n_samples: usize,
    /// Which input family to sample (Fig 15(a) ablation).
    pub ensemble: InputEnsemble,
    /// How tracepoint states are read out (exact / tomography /
    /// probabilities-only for Strategy-prop).
    pub readout: ReadoutMode,
    /// Qubits carrying the program input; the rest start in `|0⟩`.
    pub input_qubits: Vec<usize>,
    /// Hardware noise model applied during sampling runs.
    pub noise: NoiseModel,
    /// Worker threads for the per-input sampling sweep: `0` (the default)
    /// uses all available cores, `1` runs serially on the caller's thread.
    /// Results are bit-identical at every setting — each sampled input owns
    /// an RNG stream derived from `(master seed, input index)`, so
    /// scheduling never reaches the sampled data (see DESIGN.md
    /// "Deterministic parallelism").
    pub parallelism: usize,
    /// Which simulation backend executes the sweep (default:
    /// [`BackendMode::Auto`]); the effective choice is recorded in
    /// [`Characterization::backend`]. Like `parallelism`, the mode is
    /// excluded from the cache fingerprint — fast paths are
    /// value-equivalent to the dense kernels (bit-identical on the sparse
    /// path; see DESIGN.md "Pluggable simulation backends").
    pub backend: BackendMode,
}

impl CharacterizationConfig {
    /// A noiseless, exact-readout configuration with Clifford inputs on the
    /// given qubits — the common case in the evaluation.
    pub fn exact(input_qubits: Vec<usize>, n_samples: usize) -> Self {
        CharacterizationConfig {
            n_samples,
            ensemble: InputEnsemble::Clifford,
            readout: ReadoutMode::Exact,
            input_qubits,
            noise: NoiseModel::noiseless(),
            parallelism: 0,
            backend: BackendMode::Auto,
        }
    }

    /// The paper's Theorem 2 sample budget for 100 % accuracy:
    /// `2^(N_in + 1)`, saturating at `usize::MAX` when the register is too
    /// wide for the budget to be representable.
    pub fn paper_full_budget(n_in: usize) -> usize {
        u32::try_from(n_in + 1)
            .ok()
            .and_then(|shift| 1usize.checked_shl(shift))
            .unwrap_or(usize::MAX)
    }
}

/// The output of characterization: sampled inputs, per-tracepoint sampled
/// states, the fitted approximation functions, and the cost ledger.
#[derive(Debug, Clone)]
pub struct Characterization {
    /// The sampled inputs (on the input qubits).
    pub inputs: Vec<InputState>,
    /// Captured tracepoint states per sample, per tracepoint.
    pub traces: BTreeMap<TracepointId, Vec<CMatrix>>,
    /// Execution costs incurred.
    pub ledger: CostLedger,
    /// The backend the sweep actually executed on (after `BackendMode`
    /// resolution and eligibility checks).
    pub backend: BackendChoice,
    /// Sparse fast-path events over the whole sweep: spill/switch/splice
    /// counts summed across lanes, nonzero peak maxed across lanes — a
    /// deterministic function of the plan and the sampled inputs, so it
    /// is identical at any worker count and batch size.
    pub fast_path: FastPathStats,
}

impl Characterization {
    /// The input side alone: the sampled inputs and their factored Gram
    /// matrix, for questions about the sampled span that need no
    /// tracepoint state.
    pub fn input_span(&self) -> InputSpan {
        InputSpan::new(self.inputs.iter().map(|i| i.rho.clone()).collect())
            .expect("characterization produced consistent shapes")
    }

    /// Builds the approximation function for a tracepoint.
    ///
    /// # Panics
    ///
    /// Panics if the tracepoint was not captured.
    pub fn approximation(&self, id: TracepointId) -> ApproximationFunction {
        let traces = self
            .traces
            .get(&id)
            .unwrap_or_else(|| panic!("tracepoint {id} was not captured"));
        let inputs: Vec<CMatrix> = self.inputs.iter().map(|i| i.rho.clone()).collect();
        ApproximationFunction::new(inputs, traces.clone())
            .expect("characterization produced consistent shapes")
    }
}

/// Runs the characterization: samples inputs, executes the program per
/// input (exactly, or with channel noise for small registers), reads each
/// tracepoint through the configured tomography mode, and accounts costs.
///
/// `cancel` is checked before input generation and at the start of each
/// sampling task, so a deadline fires within one task's latency.
///
/// A run that completes is bit-identical to an uncancellable run — the
/// checks never touch the RNG streams.
///
/// # Errors
///
/// [`MorphError::Precondition`] when the request cannot run (checked
/// before any work), [`MorphError::Cancelled`] when the token fires
/// before the sweep finishes.
pub fn try_characterize(
    circuit: &Circuit,
    config: &CharacterizationConfig,
    rng: &mut StdRng,
    cancel: &CancelToken,
) -> Result<Characterization, MorphError> {
    check_preconditions(circuit, config, config.n_samples)?;
    cancel.check()?;
    let inputs = config.ensemble.generate_with_workers(
        config.input_qubits.len(),
        config.n_samples,
        rng,
        config.parallelism,
    );
    try_characterize_with_inputs(circuit, config, inputs, rng, cancel)
}

/// Characterization with an explicit input set — used by Strategy-adapt,
/// which picks eigenvector inputs instead of sampling an ensemble — with
/// cooperative cancellation as in [`try_characterize`]. An empty `inputs`
/// counts as zero samples.
///
/// The sweep splits the inputs into lane ranges and runs them in parallel
/// according to `config.parallelism`: up to 32 lanes per range on the
/// dense path (fewer above 22 qubits, within
/// [`morph_qsim::StateBatch::max_lanes`]), where noiseless lanes share one gate-major
/// [`morph_qsim::StateBatch`] pass and noisy lanes run
/// [`Executor::run_expected_noisy`] each, and one lane per range on the
/// stabilizer, sparse and Clifford-prefix paths. Input `i` reads its
/// tracepoints with an RNG stream derived from one master seed (drawn from
/// `rng`) and `i`, and each range accumulates costs in a local
/// [`CostLedger`] merged exactly through a [`SharedLedger`], so the traces
/// and the ledger are bit-identical at every worker count.
///
/// # Errors
///
/// See [`try_characterize`].
pub fn try_characterize_with_inputs(
    circuit: &Circuit,
    config: &CharacterizationConfig,
    inputs: Vec<InputState>,
    rng: &mut StdRng,
    cancel: &CancelToken,
) -> Result<Characterization, MorphError> {
    check_preconditions(circuit, config, inputs.len())?;
    let n = circuit.n_qubits();
    let n_in = config.input_qubits.len();
    let ops_per_shot = circuit.op_cost() as u64;
    let executor = Executor::builder().noise(config.noise).build();

    cancel.check()?;
    let trace = morph_trace::span("characterize");
    let trace_parent = trace.id();
    morph_trace::counter("characterize/inputs", inputs.len() as u64);

    // Fuse the shared main circuit once per sweep (noiseless only — channel
    // noise attaches per physical gate). Input preparation is applied per
    // lane, unfused, then the fused main circuit runs across the lanes.
    let fused_main;
    let main: &Circuit = if config.noise.is_noiseless() {
        fused_main = executor.fuse_for_run(circuit);
        &fused_main
    } else {
        circuit
    };

    // Select the simulation backend for the whole sweep. All inputs run on
    // one backend so the traces form a coherent family; eligibility covers
    // the main circuit *and* every input's preparation circuit.
    let preps_clifford = inputs.iter().all(|input| {
        input.prep.instructions().iter().all(|inst| match inst {
            Instruction::Gate(g) => morph_backend::is_clifford_gate(g),
            Instruction::Barrier => true,
            _ => false,
        })
    });
    let plan = plan_characterization(&PlanInputs {
        circuit,
        mode: config.backend,
        noiseless: config.noise.is_noiseless(),
        n_input_qubits: n_in,
        preps_clifford,
    });
    // The stabilizer prefix runs the *raw* instruction stream (fusion
    // emits `Gate::Unitary` payloads the tableau cannot represent); the
    // spliced suffix benefits from fusion.
    let suffix_fused = match plan.choice {
        BackendChoice::CliffordPrefix { split } => {
            Some(executor.fuse_for_run(&suffix_circuit(circuit, split)))
        }
        _ => None,
    };
    let no_prep = Circuit::new(n);

    let master = morph_parallel::derive_master(rng);
    let shared = SharedLedger::new();

    // The prep only touches the `n_in` input qubits, so simulate it on the
    // narrow input register and scatter the 2^n_in amplitudes into the
    // lane. The per-pair gate arithmetic is register-width independent, so
    // every supported amplitude carries the exact bits the full-width prep
    // produces, and off-support amplitudes are exactly zero either way (see
    // `StateVector::embed`).
    let prep_state_narrow = |i: usize| -> StateVector {
        let mut sub = StateVector::zero_state(n_in);
        for inst in inputs[i].prep.instructions() {
            match inst {
                Instruction::Gate(g) => g.apply(&mut sub),
                Instruction::Barrier => {}
                other => panic!("input preparation must be unitary, got {other:?}"),
            }
        }
        StateVector::embed(&sub, &config.input_qubits, n)
    };
    // The noisy prep runs full width with per-gate channel noise, as
    // executing the prep as a circuit prefix would.
    let prep_density = |i: usize| -> DensityMatrix {
        let prep = inputs[i].prep.remap_qubits(&config.input_qubits, n);
        let mut rho = DensityMatrix::zero_state(n);
        for inst in prep.instructions() {
            match inst {
                Instruction::Gate(g) => {
                    rho.apply_gate(g);
                    config.noise.apply_to_density(&mut rho, g);
                }
                Instruction::Barrier => {}
                other => panic!("input preparation must be unitary, got {other:?}"),
            }
        }
        rho
    };
    // Runs lane `i` on the planned fast-path backend.
    let run_fast_path = |i: usize| -> (BTreeMap<TracepointId, CMatrix>, FastPathStats) {
        let prep = inputs[i].prep.remap_qubits(&config.input_qubits, n);
        match plan.choice {
            BackendChoice::Stabilizer => {
                let mut sim = StabilizerSim::new(n);
                let tracepoints = run_on_simulator(&mut sim, &prep, circuit.instructions());
                (tracepoints, FastPathStats::default())
            }
            BackendChoice::Sparse => {
                let mut sim = SparseSim::new(n);
                let tracepoints = run_on_simulator(&mut sim, &prep, main.instructions());
                (tracepoints, sim.stats())
            }
            BackendChoice::CliffordPrefix { split } => {
                // Staged splice: tableau over the Clifford prefix, then
                // hand the materialized state to the adaptive sparse
                // register, which runs the fused suffix and spills/switches
                // itself to dense if the support saturates. Every stage is
                // bitwise-faithful, so the traces match the dense sweep on
                // monomial-Clifford inputs.
                let mut tableau = StabilizerSim::new(n);
                let mut tracepoints =
                    run_on_simulator(&mut tableau, &prep, &circuit.instructions()[..split]);
                let mut sim = SparseSim::from_statevector(&tableau.to_statevector());
                sim.record_splice();
                let suffix = suffix_fused.as_ref().expect("suffix fused above");
                tracepoints.extend(run_on_simulator(&mut sim, &no_prep, suffix.instructions()));
                (tracepoints, sim.stats())
            }
            BackendChoice::Dense => unreachable!("dense lanes run batched"),
        }
    };

    // Dense ranges amortize each gate over many lanes; a fast-path lane is
    // an O(n²) tableau walk or a support-sized sparse run, so batching has
    // nothing to amortize there.
    let dense = plan.choice == BackendChoice::Dense;
    let ranges = morph_parallel::batch_ranges(inputs.len(), if dense { dense_lanes(n) } else { 1 });
    if dense {
        morph_trace::counter("characterize/batches", ranges.len() as u64);
    }
    type LaneTraces = Vec<(TracepointId, CMatrix)>;
    let per_range: Vec<Result<(Vec<LaneTraces>, FastPathStats), Cancelled>> =
        morph_parallel::parallel_map(config.parallelism, &ranges, |_, range| {
            // One check per range: a firing deadline stops the sweep within
            // one range's latency. The abandoned partial result is discarded
            // wholesale, so completed runs stay bit-identical to
            // uncancellable ones.
            cancel.check()?;
            // Telemetry never touches the readout RNG streams, so traces
            // stay bit-identical whether or not the recorder is enabled.
            let _span =
                morph_trace::span_under(trace_parent, if dense { "batch" } else { "input" });
            let (records, stats) = if !dense {
                let (tracepoints, stats) = run_fast_path(range.start);
                (vec![tracepoints], stats)
            } else if config.noise.is_noiseless() {
                let states: Vec<StateVector> = range.clone().map(prep_state_narrow).collect();
                let records = executor
                    .run_expected_batch_prefused(main, &states)
                    .into_iter()
                    .map(|r| r.tracepoints)
                    .collect();
                (records, FastPathStats::default())
            } else {
                let records = range
                    .clone()
                    .map(|i| {
                        executor
                            .run_expected_noisy(main, &prep_density(i))
                            .tracepoints
                    })
                    .collect();
                (records, FastPathStats::default())
            };
            // Tracepoint readout for lane `i`: its RNG stream is keyed by
            // the *global* input index, so range size and worker count
            // never reach the traces.
            let mut local = CostLedger::new();
            let captured = records
                .iter()
                .zip(range.clone())
                .map(|(tracepoints, i)| {
                    let mut task_rng = morph_parallel::child_rng(master, i as u64);
                    tracepoints
                        .iter()
                        .map(|(id, rho)| {
                            let observed = read_state(
                                rho,
                                config.readout,
                                ops_per_shot,
                                &mut local,
                                &mut task_rng,
                            );
                            (*id, observed)
                        })
                        .collect()
                })
                .collect();
            shared.merge(&local);
            Ok((captured, stats))
        });

    // Ranges come back in input order, so this fold — and therefore the
    // merged fast-path stats — is identical at any worker count.
    let mut traces: BTreeMap<TracepointId, Vec<CMatrix>> = BTreeMap::new();
    let mut fast_path = FastPathStats::default();
    for range in per_range {
        let (captured, stats) = range?;
        fast_path.merge(&stats);
        for (id, observed) in captured.into_iter().flatten() {
            traces.entry(id).or_default().push(observed);
        }
    }

    let ledger = shared.snapshot();
    morph_trace::counter("characterize/executions", ledger.executions);
    morph_trace::counter("characterize/shots", ledger.shots);
    morph_trace::counter("characterize/quantum_ops", ledger.quantum_ops);
    if fast_path.peak_nonzeros > 0 {
        // One gauge sample per sweep: the max over lanes, which is
        // worker-count-invariant.
        morph_trace::gauge("backend/sparse_nonzero_hwm", fast_path.peak_nonzeros as f64);
    }

    Ok(Characterization {
        inputs,
        traces,
        ledger,
        backend: plan.choice,
        fast_path,
    })
}

/// Checks everything a characterization sweep of `n_inputs` inputs needs
/// before any input is sampled or any state allocated.
pub(crate) fn check_preconditions(
    circuit: &Circuit,
    config: &CharacterizationConfig,
    n_inputs: usize,
) -> Result<(), Precondition> {
    let n_qubits = circuit.n_qubits();
    let tracepoints = circuit.tracepoints();
    if tracepoints.is_empty() {
        return Err(Precondition::NoTracepoints);
    }
    for (id, qubits) in tracepoints {
        if let Some(qubit) = morph_qprog::repeated_qubit(&qubits) {
            return Err(Precondition::RepeatedTracepointQubit { id, qubit });
        }
    }
    if config.input_qubits.is_empty() {
        return Err(Precondition::NoInputQubits);
    }
    if let Some(&qubit) = config.input_qubits.iter().find(|&&q| q >= n_qubits) {
        return Err(Precondition::InputQubitOutOfRange { qubit, n_qubits });
    }
    if n_inputs == 0 {
        return Err(Precondition::NoSamples);
    }
    if !config.noise.is_noiseless() && n_qubits > MAX_NOISY_QUBITS {
        return Err(Precondition::NoisyRegisterTooWide { n_qubits });
    }
    Ok(())
}

/// Applies `prep` then walks `instructions` on a fast-path backend,
/// capturing every tracepoint's reduced density matrix. The selection plan
/// guarantees representability (all-Clifford for the tableau, unitary for
/// both), so a refusal here is a planner bug.
fn run_on_simulator<S: Simulator>(
    sim: &mut S,
    prep: &Circuit,
    instructions: &[Instruction],
) -> BTreeMap<TracepointId, CMatrix> {
    for inst in prep.instructions() {
        match inst {
            Instruction::Gate(g) => sim
                .apply_gate(g)
                .expect("backend plan guarantees representable input preparations"),
            Instruction::Barrier => {}
            other => panic!("input preparation must be unitary, got {other:?}"),
        }
    }
    let mut tracepoints = BTreeMap::new();
    for inst in instructions {
        match inst {
            Instruction::Gate(g) => sim
                .apply_gate(g)
                .expect("backend plan guarantees a representable circuit"),
            Instruction::Tracepoint { id, qubits } => {
                tracepoints.insert(*id, sim.tracepoint_rdm(qubits));
            }
            Instruction::Barrier => {}
            other => panic!("backend plan guarantees a unitary circuit, got {other:?}"),
        }
    }
    tracepoints
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_qprog::TracepointId;
    use rand::{Rng, SeedableRng};

    /// Two-qubit program: input on qubit 0, tracepoint after an H–CX block.
    fn sample_program() -> Circuit {
        let mut c = Circuit::new(2);
        c.tracepoint(1, &[0]);
        c.h(1).cx(0, 1);
        c.tracepoint(2, &[0, 1]);
        c
    }

    #[test]
    fn characterize_captures_all_tracepoints() {
        let mut rng = StdRng::seed_from_u64(0);
        let config = CharacterizationConfig::exact(vec![0], 4);
        let ch =
            try_characterize(&sample_program(), &config, &mut rng, &CancelToken::new()).unwrap();
        assert_eq!(ch.inputs.len(), 4);
        assert_eq!(ch.traces.len(), 2);
        assert_eq!(ch.traces[&TracepointId(1)].len(), 4);
        assert_eq!(
            ch.ledger.executions, 8,
            "one exact readout per tracepoint per input"
        );
    }

    #[test]
    fn tracepoint_one_reproduces_input() {
        // T1 is on the input qubit before any gate touches it, so the
        // captured state equals the sampled input.
        let mut rng = StdRng::seed_from_u64(1);
        let config = CharacterizationConfig::exact(vec![0], 6);
        let ch =
            try_characterize(&sample_program(), &config, &mut rng, &CancelToken::new()).unwrap();
        for (input, captured) in ch.inputs.iter().zip(&ch.traces[&TracepointId(1)]) {
            assert!(input.rho.approx_eq(captured, 1e-10));
        }
    }

    #[test]
    fn approximation_predicts_unseen_inputs() {
        let mut rng = StdRng::seed_from_u64(2);
        let config = CharacterizationConfig {
            n_samples: 4,
            ensemble: InputEnsemble::PauliProduct, // spans the 1-qubit space
            ..CharacterizationConfig::exact(vec![0], 4)
        };
        let circuit = sample_program();
        let ch = try_characterize(&circuit, &config, &mut rng, &CancelToken::new()).unwrap();
        let f = ch.approximation(TracepointId(2));

        // Ground truth for a fresh input.
        let test = InputEnsemble::Clifford.generate(1, 3, &mut rng);
        for t in &test {
            let prep = t.prep.remap_qubits(&[0], 2);
            let mut full = Circuit::new(2);
            full.extend_from(&prep);
            full.extend_from(&circuit);
            let truth = Executor::default()
                .run_expected(&full, &StateVector::zero_state(2))
                .state(TracepointId(2))
                .clone();
            let predicted = f.predict(&t.rho).unwrap();
            assert!(
                predicted.approx_eq(&truth, 1e-8),
                "prediction mismatch for a spanned input"
            );
        }
    }

    #[test]
    fn shot_readout_costs_more_and_is_noisy() {
        let mut rng = StdRng::seed_from_u64(3);
        let exact_cfg = CharacterizationConfig::exact(vec![0], 3);
        let shot_cfg = CharacterizationConfig {
            readout: ReadoutMode::Shots(200),
            ..exact_cfg.clone()
        };
        let exact =
            try_characterize(&sample_program(), &exact_cfg, &mut rng, &CancelToken::new()).unwrap();
        let mut rng2 = StdRng::seed_from_u64(3);
        let shot =
            try_characterize(&sample_program(), &shot_cfg, &mut rng2, &CancelToken::new()).unwrap();
        assert!(shot.ledger.shots > exact.ledger.shots * 10);
        // Same sampled inputs (same seed), different capture fidelity.
        let a = &exact.traces[&TracepointId(2)][0];
        let b = &shot.traces[&TracepointId(2)][0];
        assert!(
            (a - b).frobenius_norm() > 1e-6,
            "shot noise should perturb the estimate"
        );
        assert!(
            (a - b).frobenius_norm() < 0.5,
            "but not beyond statistical error"
        );
    }

    #[test]
    fn noisy_characterization_differs_from_ideal() {
        let mut rng = StdRng::seed_from_u64(4);
        let noisy_cfg = CharacterizationConfig {
            noise: NoiseModel::ibm_cairo(),
            ..CharacterizationConfig::exact(vec![0], 3)
        };
        let noisy =
            try_characterize(&sample_program(), &noisy_cfg, &mut rng, &CancelToken::new()).unwrap();
        let mut rng2 = StdRng::seed_from_u64(4);
        let ideal = try_characterize(
            &sample_program(),
            &CharacterizationConfig::exact(vec![0], 3),
            &mut rng2,
            &CancelToken::new(),
        )
        .unwrap();
        let a = &noisy.traces[&TracepointId(2)][0];
        let b = &ideal.traces[&TracepointId(2)][0];
        assert!((a - b).frobenius_norm() > 1e-4);
    }

    #[test]
    fn paper_budget_formula() {
        assert_eq!(CharacterizationConfig::paper_full_budget(3), 16);
        assert_eq!(CharacterizationConfig::paper_full_budget(5), 64);
    }

    #[test]
    fn paper_budget_saturates_instead_of_overflowing() {
        // The old `1usize << (n_in + 1)` panics (debug) or wraps to 0
        // (release) once the shift reaches the word width.
        let bits = usize::BITS as usize;
        assert_eq!(
            CharacterizationConfig::paper_full_budget(bits - 2),
            1usize << (bits - 1)
        );
        assert_eq!(
            CharacterizationConfig::paper_full_budget(bits - 1),
            usize::MAX
        );
        assert_eq!(
            CharacterizationConfig::paper_full_budget(bits + 100),
            usize::MAX
        );
    }

    #[test]
    fn serial_and_parallel_runs_are_bit_identical() {
        let run = |parallelism: usize| {
            let mut rng = StdRng::seed_from_u64(9);
            let config = CharacterizationConfig {
                parallelism,
                readout: ReadoutMode::Shots(50),
                ..CharacterizationConfig::exact(vec![0], 6)
            };
            try_characterize(&sample_program(), &config, &mut rng, &CancelToken::new()).unwrap()
        };
        let serial = run(1);
        let wide = run(4);
        assert_eq!(serial.ledger, wide.ledger, "cost merging must be exact");
        for (id, states) in &serial.traces {
            for (a, b) in states.iter().zip(&wide.traces[id]) {
                assert!(
                    (a - b).frobenius_norm() == 0.0,
                    "trace at {id} differs between worker counts"
                );
            }
        }
    }

    #[test]
    fn cancelled_token_aborts_before_work() {
        let token = crate::CancelToken::new();
        token.cancel();
        let mut rng = StdRng::seed_from_u64(0);
        let config = CharacterizationConfig::exact(vec![0], 4);
        let result = try_characterize(&sample_program(), &config, &mut rng, &token);
        assert!(matches!(
            result,
            Err(MorphError::Cancelled(crate::Cancelled::Requested))
        ));
    }

    #[test]
    fn completed_cancellable_run_matches_plain_run() {
        let config = CharacterizationConfig::exact(vec![0], 4);
        let mut rng_a = StdRng::seed_from_u64(5);
        let plain =
            try_characterize(&sample_program(), &config, &mut rng_a, &CancelToken::new()).unwrap();
        let mut rng_b = StdRng::seed_from_u64(5);
        let token = crate::CancelToken::new();
        let checked =
            try_characterize(&sample_program(), &config, &mut rng_b, &token).expect("no cancel");
        assert_eq!(plain.ledger, checked.ledger);
        for (id, states) in &plain.traces {
            for (a, b) in states.iter().zip(&checked.traces[id]) {
                assert_eq!(a, b, "cancellation checks must not perturb results");
            }
        }
        // Both consumed the caller RNG identically.
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
    }

    #[test]
    fn dense_lane_ranges_fit_the_batch_budget_at_every_width() {
        for n in 0..28 {
            let lanes = dense_lanes(n);
            assert!((1..=32).contains(&lanes), "{lanes} lanes at {n} qubits");
            assert!(lanes <= StateBatch::max_lanes(n), "{n} qubits");
            assert!((lanes << n) <= 1 << 27, "{lanes} lanes at {n} qubits");
        }
        assert_eq!(dense_lanes(22), 32);
        assert_eq!(dense_lanes(23), 16);
        assert_eq!(dense_lanes(27), 1);
    }

    #[test]
    fn broken_preconditions_are_errors_before_any_work() {
        let untraced = {
            let mut c = Circuit::new(1);
            c.h(0);
            c
        };
        let mut wide = Circuit::new(13);
        wide.tracepoint(1, &[0]);
        let mut repeated = sample_program();
        repeated.tracepoint(3, &[1, 0, 1]);
        let noisy = |config: CharacterizationConfig| CharacterizationConfig {
            noise: NoiseModel::ibm_cairo(),
            ..config
        };
        let cases = [
            (
                untraced,
                CharacterizationConfig::exact(vec![0], 2),
                Precondition::NoTracepoints,
            ),
            (
                repeated,
                CharacterizationConfig::exact(vec![0], 2),
                Precondition::RepeatedTracepointQubit {
                    id: TracepointId(3),
                    qubit: 1,
                },
            ),
            (
                sample_program(),
                CharacterizationConfig::exact(vec![], 2),
                Precondition::NoInputQubits,
            ),
            (
                sample_program(),
                CharacterizationConfig::exact(vec![0, 2], 2),
                Precondition::InputQubitOutOfRange {
                    qubit: 2,
                    n_qubits: 2,
                },
            ),
            (
                sample_program(),
                CharacterizationConfig::exact(vec![0], 0),
                Precondition::NoSamples,
            ),
            (
                wide,
                noisy(CharacterizationConfig::exact(vec![0], 2)),
                Precondition::NoisyRegisterTooWide { n_qubits: 13 },
            ),
        ];
        for (circuit, config, want) in cases {
            let mut rng = StdRng::seed_from_u64(0);
            let before = rng.clone().gen::<u64>();
            match try_characterize(&circuit, &config, &mut rng, &CancelToken::new()) {
                Err(MorphError::Precondition(got)) => assert_eq!(got, want),
                other => panic!("expected {want:?}, got {other:?}"),
            }
            assert_eq!(rng.gen::<u64>(), before, "{want:?}: no input was sampled");
        }
        let mut rng = StdRng::seed_from_u64(0);
        let empty = try_characterize_with_inputs(
            &sample_program(),
            &CharacterizationConfig::exact(vec![0], 4),
            Vec::new(),
            &mut rng,
            &CancelToken::new(),
        );
        assert!(matches!(
            empty,
            Err(MorphError::Precondition(Precondition::NoSamples))
        ));
    }
}
