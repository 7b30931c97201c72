//! Circuit-analysis pass feeding backend selection.

use morph_clifford::StabilizerState;
use morph_qprog::{Circuit, Instruction};
use morph_qsim::Gate;

/// `true` if the stabilizer backend can execute `gate` natively.
pub fn is_clifford_gate(gate: &Gate) -> bool {
    StabilizerState::supports(gate)
}

/// `true` if the gate can enlarge a state's computational-basis support.
///
/// Diagonal gates and basis permutations (X, CX, CCX, SWAP and the
/// monomial Y) map one nonzero amplitude to one nonzero amplitude;
/// everything else — H, X/Y rotations, arbitrary unitaries — can double
/// the support. RZ and friends are diagonal, so they never branch.
fn is_branching_gate(gate: &Gate) -> bool {
    !matches!(
        gate,
        Gate::X(_)
            | Gate::Y(_)
            | Gate::Z(_)
            | Gate::S(_)
            | Gate::Sdg(_)
            | Gate::T(_)
            | Gate::Tdg(_)
            | Gate::RZ(..)
            | Gate::Phase(..)
            | Gate::CX(..)
            | Gate::CZ(..)
            | Gate::CRZ(..)
            | Gate::CPhase(..)
            | Gate::Swap(..)
            | Gate::CCX(..)
            | Gate::MCZ(_)
    )
}

/// Static facts about a circuit that the backend selection policy reads.
///
/// Produced by [`analyze`]; one pass over the instruction list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitAnalysis {
    /// Register width.
    pub n_qubits: usize,
    /// `true` when the circuit has no measurement, reset, or classical
    /// feedback — the precondition for every non-dense backend.
    pub unitary: bool,
    /// Total gate instructions.
    pub gate_count: usize,
    /// Gates the stabilizer backend executes natively.
    pub clifford_gates: usize,
    /// Gates that can enlarge the basis support (everything but diagonal
    /// gates and basis permutations); with `i` nonzero input amplitudes
    /// the final support is at most `min(2^n, i · 2^branching_gates)`.
    pub branching_gates: usize,
    /// Gates in the longest all-Clifford prefix.
    pub clifford_prefix_gates: usize,
    /// Instruction index where the Clifford prefix ends: the first
    /// instruction that is a non-Clifford gate or non-unitary. Equal to
    /// the instruction count when the whole circuit is Clifford.
    pub clifford_prefix_split: usize,
    /// Number of maximal all-Clifford gate runs (separated by
    /// non-Clifford gates or non-unitary instructions) — how many
    /// tableau-friendly segments a staged splice pipeline crosses.
    pub clifford_segments: usize,
}

impl CircuitAnalysis {
    /// `true` when every gate is Clifford and the circuit is unitary —
    /// the whole run fits on the stabilizer tableau.
    pub fn all_clifford(&self) -> bool {
        self.unitary && self.clifford_gates == self.gate_count
    }

    /// Support-size exponent bound after the circuit runs on an input
    /// with `2^input_log2` nonzero amplitudes.
    pub fn est_log2_nonzeros(&self, input_log2: usize) -> usize {
        (input_log2 + self.branching_gates).min(self.n_qubits)
    }
}

/// Analyzes `circuit` in one pass (tracepoints and barriers are
/// transparent: they neither count as gates nor break the Clifford
/// prefix, since the stabilizer backend serves tracepoints exactly).
pub fn analyze(circuit: &Circuit) -> CircuitAnalysis {
    let mut unitary = true;
    let mut gate_count = 0usize;
    let mut clifford_gates = 0usize;
    let mut branching_gates = 0usize;
    let mut prefix_gates = 0usize;
    let mut split = circuit.instructions().len();
    let mut in_prefix = true;
    let mut segments = 0usize;
    let mut in_segment = false;
    for (idx, inst) in circuit.instructions().iter().enumerate() {
        match inst {
            Instruction::Gate(g) => {
                gate_count += 1;
                let clifford = is_clifford_gate(g);
                if clifford {
                    clifford_gates += 1;
                    if !in_segment {
                        segments += 1;
                        in_segment = true;
                    }
                } else {
                    in_segment = false;
                }
                if is_branching_gate(g) {
                    branching_gates += 1;
                }
                if in_prefix {
                    if clifford {
                        prefix_gates += 1;
                    } else {
                        in_prefix = false;
                        split = idx;
                    }
                }
            }
            Instruction::Tracepoint { .. } | Instruction::Barrier => {}
            _ => {
                unitary = false;
                in_segment = false;
                if in_prefix {
                    in_prefix = false;
                    split = idx;
                }
            }
        }
    }
    CircuitAnalysis {
        n_qubits: circuit.n_qubits(),
        unitary,
        gate_count,
        clifford_gates,
        branching_gates,
        clifford_prefix_gates: prefix_gates,
        clifford_prefix_split: split,
        clifford_segments: segments,
    }
}

/// The circuit consisting of `circuit`'s instructions from `split`
/// onwards — the non-Clifford suffix a prefix-spliced run hands to the
/// dense executor.
pub fn suffix_circuit(circuit: &Circuit, split: usize) -> Circuit {
    let mut suffix = Circuit::with_cbits(circuit.n_qubits(), circuit.n_cbits());
    for inst in &circuit.instructions()[split..] {
        suffix.push(inst.clone());
    }
    suffix
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clifford_circuit_analysis() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).s(2);
        c.tracepoint(1, &[0]);
        c.cz(1, 2);
        let a = analyze(&c);
        assert!(a.unitary);
        assert!(a.all_clifford());
        assert_eq!(a.gate_count, 4);
        assert_eq!(a.clifford_prefix_gates, 4);
        assert_eq!(a.clifford_prefix_split, c.instructions().len());
        assert_eq!(a.branching_gates, 1, "only H branches");
        assert_eq!(a.clifford_segments, 1, "one unbroken Clifford run");
    }

    #[test]
    fn prefix_split_points_at_first_non_clifford_gate() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        c.tracepoint(1, &[0]);
        c.t(1).h(0);
        let a = analyze(&c);
        assert!(!a.all_clifford());
        assert_eq!(a.clifford_prefix_gates, 2);
        // Instructions: H, CX, T1, T, H — the T gate sits at index 3.
        assert_eq!(a.clifford_prefix_split, 3);
        assert_eq!(a.clifford_segments, 2, "the T gate splits the runs");
        let suffix = suffix_circuit(&c, a.clifford_prefix_split);
        assert_eq!(suffix.gate_count(), 2);
        assert_eq!(suffix.n_qubits(), 2);
    }

    #[test]
    fn measurement_breaks_unitarity_and_prefix() {
        let mut c = Circuit::with_cbits(2, 1);
        c.h(0);
        c.measure(0, 0);
        c.x(1);
        let a = analyze(&c);
        assert!(!a.unitary);
        assert_eq!(a.clifford_prefix_split, 1);
        assert_eq!(a.clifford_prefix_gates, 1);
        assert_eq!(a.clifford_segments, 2, "measurement splits the runs");
    }

    #[test]
    fn branching_classification() {
        assert!(is_branching_gate(&Gate::H(0)));
        assert!(is_branching_gate(&Gate::RX(0, 0.1)));
        assert!(is_branching_gate(&Gate::MCRY(vec![0], 1, 0.2)));
        assert!(!is_branching_gate(&Gate::RZ(0, 0.1)));
        assert!(!is_branching_gate(&Gate::CCX(0, 1, 2)));
        assert!(!is_branching_gate(&Gate::MCZ(vec![0, 1, 2])));
    }
}
