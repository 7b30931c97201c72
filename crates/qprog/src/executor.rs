//! Program execution with tracepoint capture.
//!
//! Three execution styles cover everything the paper's evaluation needs:
//!
//! - [`Executor::run_trajectory`]: one stochastic run (a "shot"), collapsing
//!   at measurements and optionally applying trajectory noise — what real
//!   hardware does.
//! - [`Executor::run_expected`]: exact expected tracepoint states by
//!   enumerating every measurement branch with its probability — the
//!   noiseless ground truth used to score approximations.
//! - [`Executor::run_expected_noisy`]: the same enumeration on a density
//!   matrix with exact channel noise (small registers only).

use std::collections::BTreeMap;

use morph_linalg::CMatrix;
use morph_qsim::{DensityMatrix, Gate, NoiseModel, StateBatch, StateVector};
use rand::Rng;

use crate::circuit::{Circuit, Instruction, TracepointId};
use crate::fusion::fuse_circuit;

/// Probability below which a measurement branch is pruned.
const BRANCH_EPS: f64 = 1e-12;

/// Outcome of a single stochastic execution.
#[derive(Debug, Clone)]
pub struct ExecutionRecord {
    /// Reduced density matrix captured at each tracepoint.
    pub tracepoints: BTreeMap<TracepointId, CMatrix>,
    /// Final pure state of the trajectory.
    pub final_state: StateVector,
    /// Classical register contents after the run.
    pub classical: Vec<u8>,
}

/// Expected (probability-weighted) tracepoint states over all measurement
/// branches.
#[derive(Debug, Clone)]
pub struct ExpectedRecord {
    /// Expected reduced density matrix at each tracepoint.
    pub tracepoints: BTreeMap<TracepointId, CMatrix>,
    /// Number of non-negligible measurement branches explored.
    pub branch_count: usize,
}

impl ExpectedRecord {
    /// The state captured at `id`.
    ///
    /// # Panics
    ///
    /// Panics if the tracepoint was not present in the program.
    pub fn state(&self, id: TracepointId) -> &CMatrix {
        self.tracepoints
            .get(&id)
            .unwrap_or_else(|| panic!("tracepoint {id} not captured"))
    }
}

/// Runs programs against the simulator substrate.
///
/// An `Executor` holds only plain configuration data, so a single instance
/// can be shared by reference across the worker threads of a parallel
/// characterization or baseline sweep.
///
/// Construct the default (noiseless, fused) executor with
/// [`Executor::default`], anything else with [`Executor::builder`].
#[derive(Debug, Clone)]
pub struct Executor {
    noise: NoiseModel,
    fuse: bool,
}

impl Default for Executor {
    fn default() -> Self {
        Executor::builder().build()
    }
}

/// Builder for [`Executor`] — the one construction path for every
/// configuration axis (noise model, gate fusion).
///
/// # Examples
///
/// ```
/// use morph_qprog::Executor;
/// use morph_qsim::NoiseModel;
///
/// let noisy = Executor::builder()
///     .noise(NoiseModel::ibm_cairo())
///     .fusion(false)
///     .build();
/// assert!(!noisy.noise().is_noiseless());
/// ```
#[derive(Debug, Clone)]
pub struct ExecutorBuilder {
    noise: NoiseModel,
    fusion: bool,
}

impl ExecutorBuilder {
    /// Sets the hardware noise model (default: noiseless).
    pub fn noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Enables or disables the gate-fusion pre-pass (default: enabled).
    /// Fusion preserves semantics; disabling it exists for debugging and
    /// for oracle comparisons in tests.
    pub fn fusion(mut self, enabled: bool) -> Self {
        self.fusion = enabled;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> Executor {
        Executor {
            noise: self.noise,
            fuse: self.fusion,
        }
    }
}

impl Default for ExecutorBuilder {
    fn default() -> Self {
        ExecutorBuilder {
            noise: NoiseModel::noiseless(),
            fusion: true,
        }
    }
}

// Parallel characterization shares one executor across scoped worker
// threads; a field change that loses these bounds must fail to compile
// here, not at the distant call site.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Executor>()
};

impl Executor {
    /// Starts an [`ExecutorBuilder`] with the default configuration
    /// (noiseless, fusion on).
    pub fn builder() -> ExecutorBuilder {
        ExecutorBuilder::default()
    }

    /// The configured noise model.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// Returns the circuit to execute on a noiseless path: the fused form
    /// (stored in `storage`) when fusion is enabled, else `circuit` itself.
    fn fused_for_noiseless<'a>(
        &self,
        circuit: &'a Circuit,
        storage: &'a mut Option<Circuit>,
    ) -> &'a Circuit {
        if self.fuse {
            let fused = storage.insert(fuse_circuit(circuit));
            if morph_trace::enabled() {
                morph_trace::counter("executor/gates_before_fusion", gate_count(circuit));
                morph_trace::counter("executor/gates_fused", gate_count(fused));
            }
            fused
        } else {
            morph_trace::counter("executor/gates_unfused", gate_count(circuit));
            circuit
        }
    }

    /// Runs one stochastic trajectory from `input`, collapsing at
    /// measurements and applying Pauli-twirl noise after each gate when the
    /// noise model is non-trivial.
    ///
    /// # Panics
    ///
    /// Panics if `input` has a different qubit count than the circuit.
    pub fn run_trajectory(
        &self,
        circuit: &Circuit,
        input: &StateVector,
        rng: &mut impl Rng,
    ) -> ExecutionRecord {
        assert_eq!(
            input.n_qubits(),
            circuit.n_qubits(),
            "input register mismatch"
        );
        // Trajectory noise attaches per physical gate, so fusing would
        // change the noise process; only fuse when noiseless.
        let mut storage = None;
        let circuit = if self.noise.is_noiseless() {
            self.fused_for_noiseless(circuit, &mut storage)
        } else {
            morph_trace::counter("executor/gates_unfused", gate_count(circuit));
            circuit
        };
        let mut state = input.clone();
        let mut classical = vec![0u8; circuit.n_cbits()];
        let mut tracepoints = BTreeMap::new();
        for inst in circuit.instructions() {
            match inst {
                Instruction::Gate(g) => {
                    g.apply(&mut state);
                    self.noise.apply_to_trajectory(&mut state, g, rng);
                }
                Instruction::Tracepoint { id, qubits } => {
                    tracepoints.insert(*id, state.reduced_density_matrix(qubits));
                }
                Instruction::Measure { qubit, cbit } => {
                    let bit = state.measure(*qubit, rng);
                    classical[*cbit] = self.noise.apply_readout(bit, rng);
                }
                Instruction::Reset(qubit) => {
                    let bit = state.measure(*qubit, rng);
                    if bit == 1 {
                        state.apply_x(*qubit);
                    }
                }
                Instruction::Conditional { cbit, value, gate } => {
                    if classical[*cbit] == *value {
                        gate.apply(&mut state);
                        self.noise.apply_to_trajectory(&mut state, gate, rng);
                    }
                }
                Instruction::Barrier => {}
            }
        }
        ExecutionRecord {
            tracepoints,
            final_state: state,
            classical,
        }
    }

    /// Computes the exact expected tracepoint states by enumerating every
    /// measurement branch, noiselessly.
    ///
    /// With `k` mid-circuit measurements this explores up to `2^k` branches;
    /// benchmark programs keep `k` small.
    pub fn run_expected(&self, circuit: &Circuit, input: &StateVector) -> ExpectedRecord {
        assert_eq!(
            input.n_qubits(),
            circuit.n_qubits(),
            "input register mismatch"
        );
        let mut storage = None;
        let circuit = self.fused_for_noiseless(circuit, &mut storage);
        let mut acc = Accumulator::new();
        enumerate_pure(
            circuit.instructions(),
            input.clone(),
            vec![0u8; circuit.n_cbits()],
            1.0,
            &mut acc,
        );
        acc.into_record()
    }

    /// Exact expected tracepoint states under channel noise, using a density
    /// matrix backend. Only viable for small registers (≤ ~10 qubits).
    pub fn run_expected_noisy(&self, circuit: &Circuit, input: &DensityMatrix) -> ExpectedRecord {
        assert_eq!(
            input.n_qubits(),
            circuit.n_qubits(),
            "input register mismatch"
        );
        // Channel noise attaches per physical gate, so this path never fuses.
        morph_trace::counter("executor/gates_unfused", gate_count(circuit));
        let mut acc = Accumulator::new();
        enumerate_density(
            circuit.instructions(),
            input.clone(),
            vec![0u8; circuit.n_cbits()],
            1.0,
            &self.noise,
            &mut acc,
        );
        acc.into_record()
    }

    /// Runs the fusion pre-pass once (when enabled) and returns the circuit
    /// to execute, for callers that amortize fusion over many inputs via the
    /// `*_prefused` entry points. Fires the same fusion telemetry counters as
    /// the single-input paths.
    pub fn fuse_for_run(&self, circuit: &Circuit) -> Circuit {
        let mut storage = None;
        self.fused_for_noiseless(circuit, &mut storage);
        storage.unwrap_or_else(|| circuit.clone())
    }

    /// [`Self::run_expected`] on a circuit already prepared by
    /// [`Self::fuse_for_run`] — skips the fusion pre-pass.
    pub fn run_expected_prefused(&self, circuit: &Circuit, input: &StateVector) -> ExpectedRecord {
        assert_eq!(
            input.n_qubits(),
            circuit.n_qubits(),
            "input register mismatch"
        );
        let mut acc = Accumulator::new();
        enumerate_pure(
            circuit.instructions(),
            input.clone(),
            vec![0u8; circuit.n_cbits()],
            1.0,
            &mut acc,
        );
        acc.into_record()
    }

    /// [`Self::run_expected`] over a batch of inputs, on a circuit already
    /// prepared by [`Self::fuse_for_run`]. Results are bit-identical to
    /// calling [`Self::run_expected_prefused`] per input.
    ///
    /// Purely unitary circuits (gates, tracepoints, barriers) execute on a
    /// [`StateBatch`] so every gate touches all lanes in one strided pass;
    /// circuits with measurement, reset, or classical feedback fall back to
    /// per-lane branch enumeration, which stays bit-identical by
    /// construction.
    pub fn run_expected_batch_prefused(
        &self,
        circuit: &Circuit,
        inputs: &[StateVector],
    ) -> Vec<ExpectedRecord> {
        if inputs.is_empty() {
            return Vec::new();
        }
        if morph_trace::enabled() {
            morph_trace::counter("executor/batch_runs", 1);
            morph_trace::counter("executor/batch_lanes", inputs.len() as u64);
        }
        if circuit.has_nonunitary() {
            morph_trace::counter("executor/batch_fallbacks", 1);
            return inputs
                .iter()
                .map(|input| self.run_expected_prefused(circuit, input))
                .collect();
        }
        for input in inputs {
            assert_eq!(
                input.n_qubits(),
                circuit.n_qubits(),
                "input register mismatch"
            );
        }
        let mut batch = StateBatch::from_states(inputs);
        let mut records: Vec<ExpectedRecord> = (0..inputs.len())
            .map(|_| ExpectedRecord {
                tracepoints: BTreeMap::new(),
                branch_count: 1,
            })
            .collect();
        for inst in circuit.instructions() {
            match inst {
                Instruction::Gate(g) => batch.apply_gate(g),
                Instruction::Tracepoint { id, qubits } => {
                    for (lane, rec) in records.iter_mut().enumerate() {
                        // Weight 1.0 mirrors the single-branch accumulator
                        // path bitwise (scale_re(1.0) is the identity).
                        // Lane-direct readout: the RDM scan reads the
                        // lane's amplitudes straight off the planar batch
                        // storage instead of gathering a StateVector.
                        let rho = batch.lane_reduced_density_matrix(lane, qubits);
                        record_weighted(&mut rec.tracepoints, *id, rho, 1.0);
                    }
                }
                Instruction::Barrier => {}
                other => unreachable!("nonunitary instruction {other:?} on batched fast path"),
            }
        }
        records
    }

    /// Samples `shots` final-register measurement outcomes. For programs
    /// without mid-circuit measurement/noise a single run is reused for all
    /// shots; otherwise each shot is its own trajectory.
    pub fn sample_counts(
        &self,
        circuit: &Circuit,
        input: &StateVector,
        shots: usize,
        rng: &mut impl Rng,
    ) -> Vec<usize> {
        if !circuit.has_nonunitary() && self.noise.is_noiseless() {
            let rec = self.run_trajectory(circuit, input, rng);
            return rec.final_state.sample_counts(shots, rng);
        }
        let mut counts = vec![0usize; 1usize << circuit.n_qubits()];
        for _ in 0..shots {
            let rec = self.run_trajectory(circuit, input, rng);
            counts[rec.final_state.sample(rng)] += 1;
        }
        counts
    }

    /// Estimated wall-clock duration of one shot on hardware, in
    /// nanoseconds, using the noise model's gate/readout times.
    pub fn duration_ns(&self, circuit: &Circuit) -> f64 {
        let mut t = 0.0;
        for inst in circuit.instructions() {
            match inst {
                Instruction::Gate(g) | Instruction::Conditional { gate: g, .. } => {
                    t += self.noise.gate_duration_ns(g);
                }
                Instruction::Measure { .. } | Instruction::Reset(_) => t += self.noise.tread_ns,
                _ => {}
            }
        }
        t + self.noise.tread_ns // final readout
    }
}

/// Number of gate applications a circuit performs (conditional gates
/// included), for the executor's fused-vs-unfused telemetry.
fn gate_count(circuit: &Circuit) -> u64 {
    circuit
        .instructions()
        .iter()
        .filter(|i| matches!(i, Instruction::Gate(_) | Instruction::Conditional { .. }))
        .count() as u64
}

/// Accumulates `weight * rho` into `map[id]`, the shared arithmetic for both
/// the branch-enumeration accumulator and the batched fast paths (bitwise
/// agreement between them depends on this being one expression).
fn record_weighted(
    map: &mut BTreeMap<TracepointId, CMatrix>,
    id: TracepointId,
    rho: CMatrix,
    weight: f64,
) {
    let scaled = rho.scale_re(weight);
    map.entry(id)
        .and_modify(|acc| *acc += &scaled)
        .or_insert(scaled);
}

struct Accumulator {
    tracepoints: BTreeMap<TracepointId, CMatrix>,
    branch_count: usize,
}

impl Accumulator {
    fn new() -> Self {
        Accumulator {
            tracepoints: BTreeMap::new(),
            branch_count: 0,
        }
    }

    fn record(&mut self, id: TracepointId, rho: CMatrix, weight: f64) {
        record_weighted(&mut self.tracepoints, id, rho, weight);
    }

    fn into_record(self) -> ExpectedRecord {
        ExpectedRecord {
            tracepoints: self.tracepoints,
            branch_count: self.branch_count,
        }
    }
}

fn enumerate_pure(
    instructions: &[Instruction],
    mut state: StateVector,
    mut classical: Vec<u8>,
    weight: f64,
    acc: &mut Accumulator,
) {
    for (idx, inst) in instructions.iter().enumerate() {
        match inst {
            Instruction::Gate(g) => g.apply(&mut state),
            Instruction::Tracepoint { id, qubits } => {
                acc.record(*id, state.reduced_density_matrix(qubits), weight);
            }
            Instruction::Measure { qubit, cbit } => {
                let p1 = state.prob_one(*qubit);
                let rest = &instructions[idx + 1..];
                for outcome in [0u8, 1u8] {
                    let p = if outcome == 1 { p1 } else { 1.0 - p1 };
                    if p < BRANCH_EPS {
                        continue;
                    }
                    let mut branch = state.clone();
                    branch.collapse(*qubit, outcome);
                    let mut cls = classical.clone();
                    cls[*cbit] = outcome;
                    enumerate_pure(rest, branch, cls, weight * p, acc);
                }
                return;
            }
            Instruction::Reset(qubit) => {
                let p1 = state.prob_one(*qubit);
                let rest = &instructions[idx + 1..];
                for outcome in [0u8, 1u8] {
                    let p = if outcome == 1 { p1 } else { 1.0 - p1 };
                    if p < BRANCH_EPS {
                        continue;
                    }
                    let mut branch = state.clone();
                    branch.collapse(*qubit, outcome);
                    if outcome == 1 {
                        branch.apply_x(*qubit);
                    }
                    enumerate_pure(rest, branch, classical.clone(), weight * p, acc);
                }
                return;
            }
            Instruction::Conditional { cbit, value, gate } => {
                if classical[*cbit] == *value {
                    gate.apply(&mut state);
                }
            }
            Instruction::Barrier => {}
        }
        let _ = &mut classical;
    }
    acc.branch_count += 1;
}

fn enumerate_density(
    instructions: &[Instruction],
    mut state: DensityMatrix,
    mut classical: Vec<u8>,
    weight: f64,
    noise: &NoiseModel,
    acc: &mut Accumulator,
) {
    for (idx, inst) in instructions.iter().enumerate() {
        match inst {
            Instruction::Gate(g) => {
                state.apply_gate(g);
                noise.apply_to_density(&mut state, g);
            }
            Instruction::Tracepoint { id, qubits } => {
                acc.record(*id, state.partial_trace(qubits), weight);
            }
            Instruction::Measure { qubit, cbit } => {
                let p1 = state.prob_one(*qubit);
                let rest = &instructions[idx + 1..];
                for outcome in [0u8, 1u8] {
                    let p = if outcome == 1 { p1 } else { 1.0 - p1 };
                    if p < BRANCH_EPS {
                        continue;
                    }
                    let mut branch = state.clone();
                    branch.collapse(*qubit, outcome);
                    let mut cls = classical.clone();
                    // Readout error: the recorded bit flips with prob r.
                    if noise.readout > 0.0 {
                        // Split into correctly- and incorrectly-read branches.
                        for (bit, bp) in
                            [(outcome, 1.0 - noise.readout), (outcome ^ 1, noise.readout)]
                        {
                            if bp < BRANCH_EPS {
                                continue;
                            }
                            cls[*cbit] = bit;
                            enumerate_density(
                                rest,
                                branch.clone(),
                                cls.clone(),
                                weight * p * bp,
                                noise,
                                acc,
                            );
                        }
                    } else {
                        cls[*cbit] = outcome;
                        enumerate_density(rest, branch, cls, weight * p, noise, acc);
                    }
                }
                return;
            }
            Instruction::Reset(qubit) => {
                let p1 = state.prob_one(*qubit);
                let rest = &instructions[idx + 1..];
                for outcome in [0u8, 1u8] {
                    let p = if outcome == 1 { p1 } else { 1.0 - p1 };
                    if p < BRANCH_EPS {
                        continue;
                    }
                    let mut branch = state.clone();
                    branch.collapse(*qubit, outcome);
                    if outcome == 1 {
                        branch.apply_gate(&Gate::X(*qubit));
                    }
                    enumerate_density(rest, branch, classical.clone(), weight * p, noise, acc);
                }
                return;
            }
            Instruction::Conditional { cbit, value, gate } => {
                if classical[*cbit] == *value {
                    state.apply_gate(gate);
                    noise.apply_to_density(&mut state, gate);
                }
            }
            Instruction::Barrier => {}
        }
        let _ = &mut classical;
    }
    acc.branch_count += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bell_with_traces() -> Circuit {
        let mut c = Circuit::new(2);
        c.tracepoint(1, &[0]);
        c.h(0).cx(0, 1);
        c.tracepoint(2, &[0, 1]);
        c
    }

    #[test]
    fn expected_tracepoints_of_bell() {
        let c = bell_with_traces();
        let rec = Executor::default().run_expected(&c, &StateVector::zero_state(2));
        let t1 = rec.state(TracepointId(1));
        assert!((t1[(0, 0)].re - 1.0).abs() < 1e-12);
        let t2 = rec.state(TracepointId(2));
        assert!((t2[(0, 0)].re - 0.5).abs() < 1e-12);
        assert!((t2[(0, 3)].re - 0.5).abs() < 1e-12);
        assert_eq!(rec.branch_count, 1);
    }

    #[test]
    fn trajectory_matches_expected_for_unitary_program() {
        let c = bell_with_traces();
        let mut rng = StdRng::seed_from_u64(0);
        let rec = Executor::default().run_trajectory(&c, &StateVector::zero_state(2), &mut rng);
        let exp = Executor::default().run_expected(&c, &StateVector::zero_state(2));
        for (id, rho) in &rec.tracepoints {
            assert!(rho.approx_eq(exp.state(*id), 1e-12), "mismatch at {id}");
        }
    }

    #[test]
    fn expected_enumerates_measurement_branches() {
        // H; measure; tracepoint — expected state is the classical mixture.
        let mut c = Circuit::new(1);
        c.h(0).measure(0, 0).tracepoint(1, &[0]);
        let rec = Executor::default().run_expected(&c, &StateVector::zero_state(1));
        let rho = rec.state(TracepointId(1));
        assert!((rho[(0, 0)].re - 0.5).abs() < 1e-12);
        assert!((rho[(1, 1)].re - 0.5).abs() < 1e-12);
        assert!(rho[(0, 1)].abs() < 1e-12);
        assert_eq!(rec.branch_count, 2);
    }

    #[test]
    fn feedback_teleportation_style() {
        // Prepare q0 in RY(0.8)|0>, entangle q1-q2, Bell-measure, correct.
        let theta = 0.8;
        let mut c = Circuit::new(3);
        c.ry(0, theta);
        c.tracepoint(1, &[0]);
        c.h(1).cx(1, 2);
        c.cx(0, 1).h(0);
        c.measure(0, 0).measure(1, 1);
        c.conditional(1, 1, Gate::X(2));
        c.conditional(0, 1, Gate::Z(2));
        c.tracepoint(2, &[2]);
        let rec = Executor::default().run_expected(&c, &StateVector::zero_state(3));
        let t1 = rec.state(TracepointId(1));
        let t2 = rec.state(TracepointId(2));
        assert!(
            t1.approx_eq(t2, 1e-10),
            "teleportation should preserve the state"
        );
        assert_eq!(rec.branch_count, 4);
    }

    #[test]
    fn trajectory_feedback_consistency() {
        // Measure |1> then conditionally flip another qubit.
        let mut c = Circuit::new(2);
        c.x(0).measure(0, 0).conditional(0, 1, Gate::X(1));
        let mut rng = StdRng::seed_from_u64(5);
        let rec = Executor::default().run_trajectory(&c, &StateVector::zero_state(2), &mut rng);
        assert_eq!(rec.classical, vec![1]);
        assert!((rec.final_state.prob_one(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reset_returns_qubit_to_zero() {
        let mut c = Circuit::new(1);
        c.h(0).push(Instruction::Reset(0));
        c.tracepoint(1, &[0]);
        let rec = Executor::default().run_expected(&c, &StateVector::zero_state(1));
        let rho = rec.state(TracepointId(1));
        assert!((rho[(0, 0)].re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_expected_loses_purity() {
        let c = bell_with_traces();
        let ex = Executor::builder().noise(NoiseModel::ibm_cairo()).build();
        let rec = ex.run_expected_noisy(&c, &DensityMatrix::zero_state(2));
        let t2 = rec.state(TracepointId(2));
        let p = morph_linalg::purity(t2);
        assert!(p < 1.0, "noise must reduce purity, got {p}");
        assert!(p > 0.8, "Cairo-level noise is mild, got {p}");
    }

    #[test]
    fn sample_counts_total_and_distribution() {
        let c = bell_with_traces();
        let mut rng = StdRng::seed_from_u64(2);
        let counts =
            Executor::default().sample_counts(&c, &StateVector::zero_state(2), 4000, &mut rng);
        assert_eq!(counts.iter().sum::<usize>(), 4000);
        assert_eq!(counts[1], 0);
        assert_eq!(counts[2], 0);
        let f = counts[0] as f64 / 4000.0;
        assert!((f - 0.5).abs() < 0.05);
    }

    fn random_inputs(n: usize, count: usize, seed: u64) -> Vec<StateVector> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let mut s = StateVector::zero_state(n);
                for q in 0..n {
                    Gate::RY(q, rng.gen_range(0.0..1.0) * 3.0).apply(&mut s);
                    Gate::RZ(q, rng.gen_range(0.0..1.0) * 3.0).apply(&mut s);
                }
                for q in 0..n.saturating_sub(1) {
                    Gate::CX(q, q + 1).apply(&mut s);
                }
                s
            })
            .collect()
    }

    fn deep_circuit(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        c.tracepoint(1, &[0]);
        for layer in 0..3 {
            for q in 0..n {
                c.h(q).rz(q, 0.3 + layer as f64 + q as f64);
            }
            for q in 0..n - 1 {
                c.cx(q, q + 1);
            }
        }
        c.tracepoint(2, &[0, 1]);
        c
    }

    #[test]
    fn batched_expected_is_bitwise_identical_to_per_state() {
        let c = deep_circuit(4);
        let ex = Executor::default();
        for count in [1usize, 3, 8] {
            let inputs = random_inputs(4, count, 17 + count as u64);
            let prepared = ex.fuse_for_run(&c);
            let batched = ex.run_expected_batch_prefused(&prepared, &inputs);
            assert_eq!(batched.len(), count);
            for (rec, input) in batched.iter().zip(&inputs) {
                let oracle = ex.run_expected_prefused(&prepared, input);
                assert_eq!(rec.branch_count, oracle.branch_count);
                assert_eq!(rec.tracepoints, oracle.tracepoints);
            }
        }
    }

    #[test]
    fn batched_expected_falls_back_on_nonunitary_circuits() {
        let mut c = Circuit::new(2);
        c.h(0).measure(0, 0);
        c.push(Instruction::Conditional {
            cbit: 0,
            value: 1,
            gate: Gate::X(1),
        });
        c.tracepoint(7, &[1]);
        let ex = Executor::default();
        let inputs = random_inputs(2, 3, 5);
        let prepared = ex.fuse_for_run(&c);
        let batched = ex.run_expected_batch_prefused(&prepared, &inputs);
        for (rec, input) in batched.iter().zip(&inputs) {
            let oracle = ex.run_expected_prefused(&prepared, input);
            assert_eq!(rec.branch_count, oracle.branch_count);
            assert_eq!(rec.tracepoints, oracle.tracepoints);
        }
    }

    #[test]
    fn batched_path_handles_an_empty_input_slice() {
        let c = deep_circuit(2);
        let ex = Executor::default();
        assert!(ex.run_expected_batch_prefused(&c, &[]).is_empty());
    }

    #[test]
    fn duration_accounts_for_gates_and_readout() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure(0, 0);
        let ex = Executor::builder().noise(NoiseModel::ibm_cairo()).build();
        let t = ex.duration_ns(&c);
        // 60 + 340 + 732 (mid) + 732 (final).
        assert!((t - (60.0 + 340.0 + 732.0 + 732.0)).abs() < 1e-9);
    }
}
