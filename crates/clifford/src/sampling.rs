//! Input-state ensembles for MorphQPV's input sampling (Section 5.1).
//!
//! The characterization step runs the program under a set of sampled inputs
//! whose density matrices should span as much of the input operator space as
//! possible. The paper prepares inputs with circuits from the (Hadamard-free
//! flavored) Clifford group; we also provide computational-basis and Pauli
//! product-eigenstate ensembles for the Fig 15(a) ablation.

use morph_linalg::CMatrix;
use morph_qprog::Circuit;
use morph_qsim::StateVector;
use rand::Rng;
use serde::json::{FromValueError, Value};
use serde::{Deserialize, Serialize};

/// A sampled input: the preparation circuit, the prepared pure state, and
/// its density matrix.
#[derive(Debug, Clone)]
pub struct InputState {
    /// Circuit preparing the state from `|0…0⟩`.
    pub prep: Circuit,
    /// The prepared state.
    pub state: StateVector,
    /// Density matrix `|ψ⟩⟨ψ|` of the prepared state.
    pub rho: CMatrix,
}

impl InputState {
    fn from_circuit(prep: Circuit) -> Self {
        let mut state = StateVector::zero_state(prep.n_qubits());
        for inst in prep.instructions() {
            if let morph_qprog::Instruction::Gate(g) = inst {
                g.apply(&mut state);
            }
        }
        let rho = state.density_matrix();
        InputState { prep, state, rho }
    }
}

/// Which family of input states the sampler draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputEnsemble {
    /// Computational basis states `|b⟩` — the paper's ablation baseline.
    Basis,
    /// Random stabilizer states prepared by layered Clifford circuits
    /// seeded with distinct basis states (the paper's choice).
    Clifford,
    /// Products of single-qubit Pauli eigenstates `{|0⟩,|1⟩,|+⟩,|+i⟩}` —
    /// an operator-spanning tomographic family.
    PauliProduct,
}

impl InputEnsemble {
    /// Generates `count` input states on `n` qubits.
    ///
    /// States are pairwise distinct by construction within each family's
    /// period (`2^n` for `Basis`, `4^n` for `PauliProduct`).
    ///
    /// Randomness is seed-split: one master seed is drawn from `rng`, and
    /// input `i` is prepared with its own child stream derived from
    /// `(master, i)`. The sampled set is therefore a pure function of the
    /// caller's RNG state and `count`, and [`Self::generate_with_workers`]
    /// produces bit-identical inputs at any worker count.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `count == 0`.
    pub fn generate(self, n: usize, count: usize, rng: &mut impl Rng) -> Vec<InputState> {
        self.generate_with_workers(n, count, rng, 1)
    }

    /// [`Self::generate`] with the state preparations fanned out across
    /// `workers` threads (`0` = all available cores once the preparations
    /// would take over a millisecond serially, `1` = inline serial; see
    /// [`morph_parallel::parallel_map`]). Output is identical at every
    /// worker count.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `count == 0`.
    pub fn generate_with_workers(
        self,
        n: usize,
        count: usize,
        rng: &mut impl Rng,
        workers: usize,
    ) -> Vec<InputState> {
        assert!(n > 0, "need at least one qubit");
        assert!(count > 0, "need at least one input");
        // Only the Clifford family consumes randomness; the deterministic
        // families leave the caller's stream untouched, as before.
        match self {
            InputEnsemble::Basis => morph_parallel::parallel_map_indices(workers, count, |i| {
                InputState::from_circuit(basis_prep(n, i % (1 << n.min(30))))
            }),
            InputEnsemble::Clifford => {
                let master = morph_parallel::derive_master(rng);
                morph_parallel::parallel_map_indices(workers, count, |i| {
                    let mut child = morph_parallel::child_rng(master, i as u64);
                    InputState::from_circuit(clifford_prep(n, i % (1 << n.min(30)), &mut child))
                })
            }
            InputEnsemble::PauliProduct => {
                morph_parallel::parallel_map_indices(workers, count, |i| {
                    InputState::from_circuit(pauli_product_prep(n, i))
                })
            }
        }
    }
}

impl InputEnsemble {
    /// Stable tag used both in serialized artifacts and in morph-store
    /// fingerprints.
    pub fn tag(self) -> &'static str {
        match self {
            InputEnsemble::Basis => "basis",
            InputEnsemble::Clifford => "clifford",
            InputEnsemble::PauliProduct => "pauli-product",
        }
    }

    /// The ensemble a user names: `clifford`, `pauli_product` or `basis`,
    /// as `verify --ensemble` and morph-serve's `ensemble` field spell it.
    /// `None` for any other name. Unlike [`Self::tag`], which fingerprints
    /// use, `PauliProduct` is spelled with an underscore.
    pub fn from_name(name: &str) -> Option<InputEnsemble> {
        match name {
            "clifford" => Some(InputEnsemble::Clifford),
            "pauli_product" => Some(InputEnsemble::PauliProduct),
            "basis" => Some(InputEnsemble::Basis),
            _ => None,
        }
    }
}

impl Serialize for InputEnsemble {
    fn to_value(&self) -> Value {
        Value::Str(self.tag().to_string())
    }
}

impl<'de> Deserialize<'de> for InputEnsemble {
    fn from_value(value: &Value) -> Result<Self, FromValueError> {
        match value.as_str() {
            Some("basis") => Ok(InputEnsemble::Basis),
            Some("clifford") => Ok(InputEnsemble::Clifford),
            Some("pauli-product") => Ok(InputEnsemble::PauliProduct),
            _ => Err(FromValueError::expected("input ensemble tag", value)),
        }
    }
}

impl Serialize for InputState {
    /// Persists all three representations (prep circuit, state, density
    /// matrix) so reloads are bit-identical without re-simulating the
    /// preparation.
    fn to_value(&self) -> Value {
        let mut m = std::collections::BTreeMap::new();
        m.insert("prep".to_string(), self.prep.to_value());
        m.insert("state".to_string(), self.state.to_value());
        m.insert("rho".to_string(), self.rho.to_value());
        Value::Object(m)
    }
}

impl<'de> Deserialize<'de> for InputState {
    fn from_value(value: &Value) -> Result<Self, FromValueError> {
        Ok(InputState {
            prep: Circuit::from_value(value.require("prep")?)?,
            state: StateVector::from_value(value.require("state")?)?,
            rho: CMatrix::from_value(value.require("rho")?)?,
        })
    }
}

/// Preparation circuit for `|b⟩` where `b = basis_index` (qubit 0 = MSB).
pub fn basis_prep(n: usize, basis_index: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        if (basis_index >> (n - 1 - q)) & 1 == 1 {
            c.x(q);
        }
    }
    c
}

/// Preparation circuit for the `i`-th Pauli-product eigenstate: each qubit
/// independently cycles through `|0⟩, |1⟩, |+⟩, |+i⟩` as base-4 digits of
/// `i`.
pub fn pauli_product_prep(n: usize, index: usize) -> Circuit {
    let mut c = Circuit::new(n);
    let mut code = index;
    for q in (0..n).rev() {
        match code % 4 {
            0 => {}
            1 => {
                c.x(q);
            }
            2 => {
                c.h(q);
            }
            _ => {
                c.h(q);
                c.s(q);
            }
        }
        code /= 4;
    }
    c
}

/// A random Clifford preparation circuit seeded with the basis state
/// `|seed⟩`, following the Hadamard-free-layer structure of Bravyi–Maslov:
/// an `X` layer encoding the seed, then `O(n)` alternating layers of
/// {CX, S} with one sparse Hadamard layer, producing entangled,
/// superposed stabilizer states at linear depth.
pub fn clifford_prep(n: usize, seed: usize, rng: &mut impl Rng) -> Circuit {
    let mut c = Circuit::new(n);
    // Seed layer: orthogonal starting points.
    for q in 0..n {
        if (seed >> (n - 1 - q)) & 1 == 1 {
            c.x(q);
        }
    }
    // One sparse Hadamard layer creates superposition.
    for q in 0..n {
        if rng.gen_bool(0.5) {
            c.h(q);
        }
    }
    // Hadamard-free body: alternating CX and phase layers, depth linear in n.
    let layers = n.max(2);
    for _ in 0..layers {
        // Random matching of CX pairs.
        let mut qubits: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            qubits.swap(i, j);
        }
        for pair in qubits.chunks(2) {
            if pair.len() == 2 && rng.gen_bool(0.7) {
                c.cx(pair[0], pair[1]);
            }
        }
        for q in 0..n {
            if rng.gen_bool(0.3) {
                c.s(q);
            }
        }
    }
    c
}

/// Measures how much of the Hermitian operator space the ensemble's density
/// matrices span: the rank of their Gram matrix divided by `4^n` (the full
/// space dimension). Higher is better for approximation accuracy.
pub fn span_fraction(inputs: &[InputState]) -> f64 {
    if inputs.is_empty() {
        return 0.0;
    }
    let m = inputs.len();
    let mut gram = vec![vec![0.0f64; m]; m];
    for i in 0..m {
        for j in i..m {
            let v = inputs[i].rho.hs_inner_re(&inputs[j].rho);
            gram[i][j] = v;
            gram[j][i] = v;
        }
    }
    // Rank via Gaussian elimination with a tolerance.
    let mut rank = 0usize;
    let mut rows = gram;
    let tol = 1e-9;
    for col in 0..m {
        if let Some(p) = (rank..m).find(|&r| rows[r][col].abs() > tol) {
            rows.swap(rank, p);
            let pivot = rows[rank][col];
            for r in 0..m {
                if r != rank && rows[r][col].abs() > 0.0 {
                    let f = rows[r][col] / pivot;
                    // Indexing, not iterators: `rows[r]` and `rows[rank]`
                    // alias the same Vec, so a zip would need split_at_mut.
                    #[allow(clippy::needless_range_loop)]
                    for c in 0..m {
                        rows[r][c] -= f * rows[rank][c];
                    }
                }
            }
            rank += 1;
        }
    }
    let n = inputs[0].state.n_qubits();
    rank as f64 / 4f64.powi(n as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn basis_prep_produces_basis_states() {
        for idx in 0..8 {
            let input = InputState::from_circuit(basis_prep(3, idx));
            assert!((input.state.probabilities()[idx] - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn pauli_product_first_four_states() {
        // index 0 = |..0>, 1 = |..1>, 2 = |..+>, 3 = |..+i> on the last qubit.
        let zero = InputState::from_circuit(pauli_product_prep(1, 0));
        assert!((zero.rho[(0, 0)].re - 1.0).abs() < 1e-12);
        let one = InputState::from_circuit(pauli_product_prep(1, 1));
        assert!((one.rho[(1, 1)].re - 1.0).abs() < 1e-12);
        let plus = InputState::from_circuit(pauli_product_prep(1, 2));
        assert!((plus.rho[(0, 1)].re - 0.5).abs() < 1e-12);
        let plus_i = InputState::from_circuit(pauli_product_prep(1, 3));
        assert!((plus_i.rho[(1, 0)].im - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pauli_product_ensemble_spans_full_space() {
        let mut rng = StdRng::seed_from_u64(0);
        let inputs = InputEnsemble::PauliProduct.generate(2, 16, &mut rng);
        assert!((span_fraction(&inputs) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn basis_ensemble_spans_only_diagonal() {
        let mut rng = StdRng::seed_from_u64(0);
        let inputs = InputEnsemble::Basis.generate(2, 16, &mut rng);
        // Diagonal subspace has dimension 2^n = 4 of 16.
        assert!((span_fraction(&inputs) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn clifford_ensemble_spans_more_than_basis() {
        let mut rng = StdRng::seed_from_u64(42);
        let basis = InputEnsemble::Basis.generate(3, 32, &mut rng);
        let cliff = InputEnsemble::Clifford.generate(3, 32, &mut rng);
        assert!(
            span_fraction(&cliff) > span_fraction(&basis),
            "clifford should be more expressive: {} vs {}",
            span_fraction(&cliff),
            span_fraction(&basis)
        );
    }

    #[test]
    fn clifford_states_are_normalized_and_distinct() {
        let mut rng = StdRng::seed_from_u64(7);
        let inputs = InputEnsemble::Clifford.generate(3, 8, &mut rng);
        for input in &inputs {
            assert!((input.state.norm() - 1.0).abs() < 1e-12);
        }
        // Seeded with distinct basis states, the ensemble should contain
        // many distinct states.
        let mut distinct = 0;
        for i in 0..inputs.len() {
            for j in (i + 1)..inputs.len() {
                if inputs[i].state.overlap(&inputs[j].state) < 0.99 {
                    distinct += 1;
                }
            }
        }
        assert!(distinct > 20, "only {distinct} distinct pairs");
    }

    #[test]
    fn input_state_round_trips_bit_exactly() {
        let mut rng = StdRng::seed_from_u64(5);
        for input in InputEnsemble::Clifford.generate(2, 3, &mut rng) {
            let json = serde::json::to_string(&input);
            let back: InputState = serde::json::from_str(&json).expect("deserialize");
            assert_eq!(back.prep, input.prep);
            assert_eq!(back.state, input.state);
            assert_eq!(back.rho, input.rho);
        }
    }

    #[test]
    fn ensemble_tags_round_trip() {
        for e in [
            InputEnsemble::Basis,
            InputEnsemble::Clifford,
            InputEnsemble::PauliProduct,
        ] {
            let json = serde::json::to_string(&e);
            assert_eq!(serde::json::from_str::<InputEnsemble>(&json).unwrap(), e);
        }
        assert!(serde::json::from_str::<InputEnsemble>("\"ghz\"").is_err());
    }

    #[test]
    fn prep_circuit_matches_recorded_state() {
        let mut rng = StdRng::seed_from_u64(11);
        for input in InputEnsemble::Clifford.generate(2, 4, &mut rng) {
            let rec = morph_qprog::Executor::default().run_trajectory(
                &input.prep,
                &StateVector::zero_state(2),
                &mut rng,
            );
            assert!(rec.final_state.approx_eq_up_to_phase(&input.state, 1e-10));
        }
    }
}
