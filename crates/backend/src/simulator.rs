//! The [`Simulator`] trait and the stabilizer implementation.

use morph_clifford::{NonCliffordGate, StabilizerState};
use morph_linalg::CMatrix;
use morph_qsim::{Gate, StateVector};

/// A simulation backend: holds a prepared state, advances it through a
/// gate stream, and reads out tracepoint reduced density matrices.
pub trait Simulator {
    /// Advances the state by one gate.
    ///
    /// # Errors
    ///
    /// [`NonCliffordGate`] when the backend cannot represent the gate
    /// (stabilizer backend only). The selection policy plans the
    /// stabilizer only for all-Clifford runs, so the sweep treats this
    /// as a broken plan.
    fn apply_gate(&mut self, gate: &Gate) -> Result<(), NonCliffordGate>;

    /// Reduced density matrix of the listed qubits (`qubits[0]` the most
    /// significant reduced bit) — the tracepoint readout.
    fn tracepoint_rdm(&self, qubits: &[usize]) -> CMatrix;
}

/// Stabilizer backend: O(n²) per Clifford gate, exact tracepoint readout
/// at any register width (the reduced density matrix never materializes
/// the 2^n register).
#[derive(Debug, Clone)]
pub struct StabilizerSim {
    state: StabilizerState,
}

impl StabilizerSim {
    /// Starts from `|0…0⟩`.
    pub fn new(n_qubits: usize) -> Self {
        StabilizerSim {
            state: StabilizerState::new(n_qubits),
        }
    }

    /// Materializes the dense statevector (global phase included) — the
    /// Clifford-prefix handoff.
    ///
    /// # Panics
    ///
    /// Panics at 28 qubits or wider (the dense register would not fit).
    pub fn to_statevector(&self) -> StateVector {
        self.state.to_statevector()
    }
}

impl Simulator for StabilizerSim {
    fn apply_gate(&mut self, gate: &Gate) -> Result<(), NonCliffordGate> {
        self.state.apply_gate(gate)
    }

    fn tracepoint_rdm(&self, qubits: &[usize]) -> CMatrix {
        self.state.reduced_density_matrix(qubits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stabilizer_matches_dense_on_bell_tracepoint() {
        let gates = [Gate::H(0), Gate::CX(0, 1)];
        let mut dense = StateVector::zero_state(2);
        let mut stab = StabilizerSim::new(2);
        for g in &gates {
            g.apply(&mut dense);
            stab.apply_gate(g).unwrap();
        }
        let a = dense.reduced_density_matrix(&[0]);
        let b = stab.tracepoint_rdm(&[0]);
        assert!((&a - &b).frobenius_norm() < 1e-12);
    }

    #[test]
    fn stabilizer_rejects_t_gate() {
        let mut stab = StabilizerSim::new(1);
        assert!(stab.apply_gate(&Gate::T(0)).is_err());
    }
}
