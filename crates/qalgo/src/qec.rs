//! Quantum error correction benchmark: the bit-flip repetition code.
//!
//! Encodes one logical qubit into `n` physical qubits (`n` odd), optionally
//! injects an error, then decodes. The 3-qubit instance performs real
//! majority correction with a Toffoli; larger instances use the
//! encode–identity–decode structure the paper's QEC benchmark exercises
//! under mutation testing.

use morph_qprog::Circuit;

/// Bit-flip repetition code over `n` physical qubits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepetitionCode {
    /// Number of physical qubits (odd, ≥ 3).
    pub n_qubits: usize,
}

impl RepetitionCode {
    /// Creates the code.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is odd and at least 3.
    pub fn new(n_qubits: usize) -> Self {
        assert!(
            n_qubits >= 3 && n_qubits % 2 == 1,
            "repetition code needs odd n ≥ 3"
        );
        RepetitionCode { n_qubits }
    }

    /// Encoder: fan out qubit 0 onto the rest.
    pub fn encoder(&self) -> Circuit {
        let mut c = Circuit::new(self.n_qubits);
        for q in 1..self.n_qubits {
            c.cx(0, q);
        }
        c
    }

    /// Decoder: undo the fan-out; for `n = 3` also perform the Toffoli
    /// majority correction so a single X error is repaired.
    pub fn decoder(&self) -> Circuit {
        let mut c = Circuit::new(self.n_qubits);
        for q in 1..self.n_qubits {
            c.cx(0, q);
        }
        if self.n_qubits == 3 {
            c.ccx(1, 2, 0);
        }
        c
    }

    /// Full round-trip program: encode, optional single X error, decode.
    pub fn circuit(&self, error_on: Option<usize>) -> Circuit {
        let mut c = self.encoder();
        if let Some(q) = error_on {
            assert!(q < self.n_qubits, "error qubit out of range");
            c.x(q);
        }
        c.extend_from(&self.decoder());
        c
    }

    /// Phase-flip code encoder: the H-conjugated repetition code, which
    /// protects against Z errors. Unlike the bit-flip code it puts the
    /// physical qubits into superposition, so phase errors are observable
    /// from computational-basis inputs — the variant the evaluation's QEC
    /// benchmark uses.
    pub fn phase_flip_encoder(&self) -> Circuit {
        let mut c = self.encoder();
        for q in 0..self.n_qubits {
            c.h(q);
        }
        c
    }

    /// Phase-flip code decoder (mirror of [`Self::phase_flip_encoder`],
    /// with the 3-qubit majority correction).
    pub fn phase_flip_decoder(&self) -> Circuit {
        let mut c = Circuit::new(self.n_qubits);
        for q in 0..self.n_qubits {
            c.h(q);
        }
        c.extend_from(&self.decoder());
        c
    }

    /// Phase-flip round trip: encode, optional single Z error, decode.
    pub fn phase_flip_circuit(&self, error_on: Option<usize>) -> Circuit {
        let mut c = self.phase_flip_encoder();
        if let Some(q) = error_on {
            assert!(q < self.n_qubits, "error qubit out of range");
            c.z(q);
        }
        c.extend_from(&self.phase_flip_decoder());
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_qprog::{Executor, TracepointId};
    use morph_qsim::StateVector;

    fn round_trip_fidelity(code: &RepetitionCode, error_on: Option<usize>, theta: f64) -> f64 {
        let mut c = Circuit::new(code.n_qubits);
        c.ry(0, theta);
        c.tracepoint(1, &[0]);
        c.extend_from(&code.circuit(error_on));
        c.tracepoint(2, &[0]);
        let rec = Executor::default().run_expected(&c, &StateVector::zero_state(code.n_qubits));
        morph_linalg::fidelity(rec.state(TracepointId(1)), rec.state(TracepointId(2)))
    }

    #[test]
    fn error_free_round_trip_is_identity() {
        for n in [3usize, 5, 7] {
            let code = RepetitionCode::new(n);
            let f = round_trip_fidelity(&code, None, 0.9);
            assert!((f - 1.0).abs() < 1e-9, "n={n}, fidelity {f}");
        }
    }

    #[test]
    fn three_qubit_code_corrects_any_single_flip() {
        let code = RepetitionCode::new(3);
        for q in 0..3 {
            let f = round_trip_fidelity(&code, Some(q), 1.2);
            assert!(
                (f - 1.0).abs() < 1e-9,
                "error on {q} not corrected, fidelity {f}"
            );
        }
    }

    #[test]
    fn five_qubit_variant_detects_but_does_not_correct_data_flip() {
        // Without majority logic the ancilla flip leaves the logical qubit
        // intact only when the error hits a non-logical qubit.
        let code = RepetitionCode::new(5);
        let f_logical = round_trip_fidelity(&code, Some(0), 1.2);
        assert!(
            f_logical < 0.9,
            "flip on the logical qubit must corrupt output"
        );
        let f_anc = round_trip_fidelity(&code, Some(3), 1.2);
        assert!(
            (f_anc - 1.0).abs() < 1e-9,
            "ancilla flip should not affect decoded qubit"
        );
    }

    fn phase_flip_round_trip_fidelity(
        code: &RepetitionCode,
        error_on: Option<usize>,
        theta: f64,
    ) -> f64 {
        let mut c = Circuit::new(code.n_qubits);
        c.ry(0, theta);
        c.tracepoint(1, &[0]);
        c.extend_from(&code.phase_flip_circuit(error_on));
        c.tracepoint(2, &[0]);
        let rec = Executor::default().run_expected(&c, &StateVector::zero_state(code.n_qubits));
        morph_linalg::fidelity(rec.state(TracepointId(1)), rec.state(TracepointId(2)))
    }

    #[test]
    fn phase_flip_round_trip_is_identity() {
        for n in [3usize, 5] {
            let code = RepetitionCode::new(n);
            let f = phase_flip_round_trip_fidelity(&code, None, 0.8);
            assert!((f - 1.0).abs() < 1e-9, "n={n}, fidelity {f}");
        }
    }

    #[test]
    fn three_qubit_phase_flip_code_corrects_any_single_z() {
        let code = RepetitionCode::new(3);
        for q in 0..3 {
            let f = phase_flip_round_trip_fidelity(&code, Some(q), 1.1);
            assert!(
                (f - 1.0).abs() < 1e-9,
                "Z on {q} not corrected, fidelity {f}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_code_size_rejected() {
        let _ = RepetitionCode::new(4);
    }
}
