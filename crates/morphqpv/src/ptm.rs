//! Pauli-transfer-matrix (PTM) characterization — an extension of the
//! paper's pairs-based approximation.
//!
//! The sampled `⟨σ_in,i, σ_T,i⟩` pairs determine (a least-squares estimate
//! of) the *entire linear channel* between the input and the tracepoint.
//! Representing that channel explicitly as a real matrix over the Pauli
//! basis gives:
//!
//! - O(d⁴)-once assembly, then O(d⁴) per prediction independent of
//!   `N_sample` (vs. `O(N_sample · d²)` for the pairs form) — better when
//!   many predictions amortize a large sample set;
//! - direct access to channel diagnostics (trace preservation, unitality)
//!   that the pairs form hides.
//!
//! The `ptm_vs_pairs` ablation bench compares the two forms.

use morph_linalg::{CMatrix, SymFactor, C64};
use morph_qsim::matrices;
use morph_tomography::pauli_strings;

use crate::approx::ApproximationFunction;

/// A linear channel estimate in the Pauli basis: `r_out = M · r_in` where
/// `r` are normalized Pauli coefficient vectors.
#[derive(Debug, Clone)]
pub struct PauliTransferMatrix {
    n_in: usize,
    n_out: usize,
    /// Row-major `4^n_out × 4^n_in` real matrix.
    m: Vec<f64>,
    in_paulis: Vec<CMatrix>,
    out_paulis: Vec<CMatrix>,
}

impl PauliTransferMatrix {
    /// Fits the PTM from an approximation function's sampled pairs by
    /// regularized least squares on each output-Pauli coordinate.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions are not powers of two (guaranteed by
    /// [`ApproximationFunction`]'s constructor).
    pub fn fit(f: &ApproximationFunction) -> Self {
        let d_in = f.input_span().input_dim();
        let d_out = f.trace_dim();
        let n_in = d_in.trailing_zeros() as usize;
        let n_out = d_out.trailing_zeros() as usize;
        let in_paulis: Vec<CMatrix> = pauli_strings(n_in)
            .iter()
            .map(|s| matrices::pauli_string(s))
            .collect();
        let out_paulis: Vec<CMatrix> = pauli_strings(n_out)
            .iter()
            .map(|s| matrices::pauli_string(s))
            .collect();
        let k_in = in_paulis.len();
        let k_out = out_paulis.len();

        // Pauli coordinates of every sampled pair.
        let coords = |rho: &CMatrix, paulis: &[CMatrix], d: usize| -> Vec<f64> {
            paulis
                .iter()
                .map(|p| p.matmul(rho).trace().re / d as f64)
                .collect()
        };
        let xs: Vec<Vec<f64>> = f
            .input_span()
            .sampled_inputs()
            .iter()
            .map(|rho| coords(rho, &in_paulis, d_in))
            .collect();
        let ys: Vec<Vec<f64>> = f
            .sampled_traces()
            .iter()
            .map(|rho| coords(rho, &out_paulis, d_out))
            .collect();

        // Normal equations shared across all output coordinates:
        // G = Σ x xᵀ, factored once; per-row b_j = Σ y_j x.
        let n_samples = xs.len();
        let mut gram = vec![vec![0.0f64; k_in]; k_in];
        for x in &xs {
            for (a, &xa) in x.iter().enumerate() {
                for (b, &xb) in x.iter().enumerate().skip(a) {
                    gram[a][b] += xa * xb;
                }
            }
        }
        // Mirror the upper triangle; both halves of `gram` alias, so this
        // stays index-based.
        #[allow(clippy::needless_range_loop)]
        for a in 0..k_in {
            for b in 0..a {
                gram[a][b] = gram[b][a];
            }
        }
        let factor = SymFactor::new(&gram).expect("square Gram");
        let mut m = vec![0.0f64; k_out * k_in];
        for j in 0..k_out {
            let mut rhs = vec![0.0f64; k_in];
            for s in 0..n_samples {
                for a in 0..k_in {
                    rhs[a] += ys[s][j] * xs[s][a];
                }
            }
            let row = factor.solve(&rhs).expect("consistent dimensions");
            m[j * k_in..(j + 1) * k_in].copy_from_slice(&row);
        }
        PauliTransferMatrix {
            n_in,
            n_out,
            m,
            in_paulis,
            out_paulis,
        }
    }

    /// Input qubit count.
    pub fn n_in(&self) -> usize {
        self.n_in
    }

    /// Output qubit count.
    pub fn n_out(&self) -> usize {
        self.n_out
    }

    /// Predicts the tracepoint state for an input density matrix.
    ///
    /// # Panics
    ///
    /// Panics if `rho_in` has the wrong dimension.
    pub fn predict(&self, rho_in: &CMatrix) -> CMatrix {
        let d_in = 1usize << self.n_in;
        assert_eq!(rho_in.rows(), d_in, "input dimension mismatch");
        let k_in = self.in_paulis.len();
        let k_out = self.out_paulis.len();
        let x: Vec<f64> = self
            .in_paulis
            .iter()
            .map(|p| p.matmul(rho_in).trace().re / d_in as f64)
            .collect();
        let d_out = 1usize << self.n_out;
        let mut out = CMatrix::zeros(d_out, d_out);
        for j in 0..k_out {
            let y: f64 = self.m[j * k_in..(j + 1) * k_in]
                .iter()
                .zip(&x)
                .map(|(&mja, &xa)| mja * xa)
                .sum();
            if y.abs() > 1e-14 {
                out += &self.out_paulis[j].scale(C64::real(y));
            }
        }
        out
    }

    /// Channel diagnostic: a trace-preserving map sends the identity
    /// coordinate to itself. Returns `|M[0][0] − 1|` plus the norm of the
    /// rest of row 0 (both ≈ 0 for a well-characterized physical channel).
    pub fn trace_preservation_defect(&self) -> f64 {
        let k_in = self.in_paulis.len();
        let mut defect = (self.m[0] - 1.0).abs();
        for a in 1..k_in {
            defect += self.m[a].abs();
        }
        defect
    }

    /// Channel diagnostic: a unital map sends the maximally mixed state to
    /// itself, i.e. column 0 is `e_0`. Returns the deviation.
    pub fn unitality_defect(&self) -> f64 {
        let k_in = self.in_paulis.len();
        let k_out = self.out_paulis.len();
        let mut defect = 0.0;
        for j in 1..k_out {
            defect += self.m[j * k_in].abs();
        }
        defect
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_clifford::InputEnsemble;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn channel_pairs(
        u: &CMatrix,
        n: usize,
        count: usize,
        rng: &mut StdRng,
    ) -> ApproximationFunction {
        let inputs: Vec<CMatrix> = InputEnsemble::PauliProduct
            .generate(n, count, rng)
            .into_iter()
            .map(|i| i.rho)
            .collect();
        let traces: Vec<CMatrix> = inputs
            .iter()
            .map(|r| u.matmul(r).matmul(&u.dagger()))
            .collect();
        ApproximationFunction::new(inputs, traces).unwrap()
    }

    #[test]
    fn ptm_matches_pairs_on_full_span() {
        let mut rng = StdRng::seed_from_u64(0);
        let u = matrices::h().kron(&matrices::ry(0.8));
        let f = channel_pairs(&u, 2, 16, &mut rng);
        let ptm = PauliTransferMatrix::fit(&f);
        for probe in InputEnsemble::Clifford.generate(2, 6, &mut rng) {
            let truth = u.matmul(&probe.rho).matmul(&u.dagger());
            assert!(ptm.predict(&probe.rho).approx_eq(&truth, 1e-8));
            assert!(f.predict(&probe.rho).unwrap().approx_eq(&truth, 1e-8));
        }
    }

    /// The fit factors its Gram once for every output row; its entries are
    /// pinned bit for bit (an FNV-1a digest of their bits) on a full span
    /// and on a rank-deficient, regularized one.
    #[test]
    fn ptm_fit_is_pinned_bit_for_bit() {
        for (n, samples, digest) in [
            (2usize, 16usize, 0xf93efd00b9f01e09u64),
            (3, 40, 0xa0a6db5998fd96b5),
        ] {
            let mut rng = StdRng::seed_from_u64(0);
            let u = matrices::h().kron(&matrices::ry(0.8));
            let u = if n == 3 {
                u.kron(&matrices::rx(0.3))
            } else {
                u
            };
            let inputs: Vec<CMatrix> = InputEnsemble::Clifford
                .generate(n, samples, &mut rng)
                .into_iter()
                .map(|i| i.rho)
                .collect();
            let traces: Vec<CMatrix> = inputs
                .iter()
                .map(|r| u.matmul(r).matmul(&u.dagger()))
                .collect();
            let f = ApproximationFunction::new(inputs, traces).unwrap();
            let ptm = PauliTransferMatrix::fit(&f);
            let got = ptm.m.iter().fold(0xcbf29ce484222325u64, |h, v| {
                (h ^ v.to_bits()).wrapping_mul(0x100000001b3)
            });
            assert_eq!(got, digest, "{n} qubits, {samples} samples");
        }
    }

    #[test]
    fn unitary_channel_diagnostics_are_clean() {
        let mut rng = StdRng::seed_from_u64(1);
        let u = matrices::rx(1.2);
        let f = channel_pairs(&u, 1, 4, &mut rng);
        let ptm = PauliTransferMatrix::fit(&f);
        assert!(ptm.trace_preservation_defect() < 1e-8);
        assert!(ptm.unitality_defect() < 1e-8);
        assert_eq!(ptm.n_in(), 1);
        assert_eq!(ptm.n_out(), 1);
    }

    #[test]
    fn nonunital_channel_detected() {
        // Amplitude-damping-style pairs: |1><1| ↦ mostly |0><0|.
        let zero = CMatrix::outer(&[C64::ONE, C64::ZERO], &[C64::ONE, C64::ZERO]);
        let one = CMatrix::outer(&[C64::ZERO, C64::ONE], &[C64::ZERO, C64::ONE]);
        let damp = |rho: &CMatrix| -> CMatrix {
            // γ = 0.5 amplitude damping on diagonal + scaled coherences.
            let g: f64 = 0.5;
            let mut out = CMatrix::zeros(2, 2);
            out[(0, 0)] = rho[(0, 0)] + rho[(1, 1)].scale(g);
            out[(1, 1)] = rho[(1, 1)].scale(1.0 - g);
            out[(0, 1)] = rho[(0, 1)].scale((1.0 - g).sqrt());
            out[(1, 0)] = rho[(1, 0)].scale((1.0 - g).sqrt());
            out
        };
        let h = 1.0 / 2f64.sqrt();
        let plus = CMatrix::outer(&[C64::real(h), C64::real(h)], &[C64::real(h), C64::real(h)]);
        let plus_i = CMatrix::outer(
            &[C64::real(h), C64::new(0.0, h)],
            &[C64::real(h), C64::new(0.0, h)],
        );
        let inputs = vec![zero.clone(), one.clone(), plus.clone(), plus_i.clone()];
        let traces: Vec<CMatrix> = inputs.iter().map(&damp).collect();
        let f = ApproximationFunction::new(inputs, traces).unwrap();
        let ptm = PauliTransferMatrix::fit(&f);
        assert!(
            ptm.trace_preservation_defect() < 1e-8,
            "damping preserves trace"
        );
        assert!(ptm.unitality_defect() > 0.1, "damping is not unital");
        // Prediction still matches the channel.
        let test = CMatrix::outer(
            &[C64::real(0.6), C64::real(0.8)],
            &[C64::real(0.6), C64::real(0.8)],
        );
        assert!(ptm.predict(&test).approx_eq(&damp(&test), 1e-8));
    }

    #[test]
    fn under_sampled_ptm_is_a_projection_like_pairs() {
        let mut rng = StdRng::seed_from_u64(2);
        let u = matrices::h();
        let f = channel_pairs(&u, 1, 2, &mut rng); // under-complete
        let ptm = PauliTransferMatrix::fit(&f);
        let probe = InputEnsemble::Clifford.generate(1, 1, &mut rng).remove(0);
        let truth = u.matmul(&probe.rho).matmul(&u.dagger());
        // Both estimators agree with each other even when inexact.
        let a = ptm.predict(&probe.rho);
        let b = f.predict(&probe.rho).unwrap();
        assert!(
            a.approx_eq(&b, 1e-6),
            "PTM and pairs disagree:\n{a}\nvs\n{b}"
        );
        let _ = truth;
    }
}
