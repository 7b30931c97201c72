//! Isomorphism-based approximation functions (Section 5.2, Theorem 1).
//!
//! Quantum evolution is linear in the density matrix, so the tracepoint
//! state under *any* input is the same linear combination of sampled
//! tracepoint states as the input is of sampled inputs:
//!
//! ```text
//! ρ_in = Σ αᵢ σ_in,i   ⇒   ρ_T = Σ αᵢ σ_T,i
//! ```
//!
//! [`ApproximationFunction`] stores the sampled `⟨σ_in,i, σ_T,i⟩` pairs and
//! evaluates the mapping with one least-squares solve plus a weighted sum —
//! the linear-cost replacement for re-executing the program that drives
//! Fig 11(a).

use morph_linalg::{hs_accuracy, recombine, CMatrix, SolveError, SymFactor};
use serde::json::{FromValueError, Value};
use serde::{Deserialize, Serialize};

/// The input side of a characterization: the sampled input density
/// matrices and their Gram matrix (Hilbert–Schmidt inner products), factored
/// once so each decomposition costs one projection plus an O(N_sample²)
/// solve. It answers every question about the sampled span that needs no
/// tracepoint state, such as Theorem 2's accuracy.
#[derive(Debug, Clone)]
pub struct InputSpan {
    inputs: Vec<CMatrix>,
    factor: SymFactor,
}

impl InputSpan {
    /// Factors the Gram matrix of the sampled inputs.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::DimensionMismatch`] if `inputs` is empty or its
    /// matrices are not square of one size.
    pub fn new(inputs: Vec<CMatrix>) -> Result<Self, SolveError> {
        let din = inputs.first().ok_or(SolveError::DimensionMismatch)?.rows();
        if inputs.iter().any(|m| m.rows() != din || !m.is_square()) {
            return Err(SolveError::DimensionMismatch);
        }
        let k = inputs.len();
        let mut gram = vec![vec![0.0f64; k]; k];
        for i in 0..k {
            for j in i..k {
                let v = inputs[i].hs_inner_re(&inputs[j]);
                gram[i][j] = v;
                gram[j][i] = v;
            }
        }
        Ok(InputSpan {
            factor: SymFactor::new(&gram)?,
            inputs,
        })
    }

    /// Number of sampled inputs (`N_sample`).
    pub fn n_samples(&self) -> usize {
        self.inputs.len()
    }

    /// Dimension of the input space.
    pub fn input_dim(&self) -> usize {
        self.inputs[0].rows()
    }

    /// The sampled input density matrices.
    pub fn sampled_inputs(&self) -> &[CMatrix] {
        &self.inputs
    }

    /// Step 1 of Theorem 1: least-squares coefficients `α` with
    /// `ρ_in ≈ Σ αᵢ σ_in,i`.
    ///
    /// # Errors
    ///
    /// Returns an error if `rho_in` has the wrong dimension.
    pub fn decompose(&self, rho_in: &CMatrix) -> Result<Vec<f64>, SolveError> {
        if rho_in.rows() != self.input_dim() || !rho_in.is_square() {
            return Err(SolveError::DimensionMismatch);
        }
        let b: Vec<f64> = self.inputs.iter().map(|m| m.hs_inner_re(rho_in)).collect();
        self.factor.solve(&b)
    }

    /// Reconstructs the input state a coefficient vector represents.
    ///
    /// # Panics
    ///
    /// Panics if `alphas.len() != self.n_samples()`.
    pub fn reconstruct_input(&self, alphas: &[f64]) -> CMatrix {
        recombine(&self.inputs, alphas)
    }

    /// Approximation accuracy for an input (Theorem 2's metric): the
    /// Hilbert–Schmidt overlap between the input and its projection onto
    /// the sampled span. Unitarity preserves this overlap downstream, so it
    /// equals the tracepoint-state accuracy for unitary programs.
    ///
    /// # Errors
    ///
    /// Returns an error if `rho_in` has the wrong dimension.
    pub fn representation_accuracy(&self, rho_in: &CMatrix) -> Result<f64, SolveError> {
        let alphas = self.decompose(rho_in)?;
        let projected = self.reconstruct_input(&alphas);
        Ok(hs_accuracy(&projected, rho_in))
    }

    /// The Hilbert–Schmidt overlap `tr(ρ_proj ρ_in)` between an input and
    /// its projection onto the sampled span — the paper's stated accuracy
    /// metric, exact for pure inputs (where it equals ⟨ψ|P|ψ⟩) and O(d²)
    /// instead of the spectral computation in
    /// [`Self::representation_accuracy`].
    ///
    /// # Errors
    ///
    /// Returns an error if `rho_in` has the wrong dimension.
    pub fn representation_overlap(&self, rho_in: &CMatrix) -> Result<f64, SolveError> {
        let alphas = self.decompose(rho_in)?;
        let projected = self.reconstruct_input(&alphas);
        Ok(projected.hs_inner_re(rho_in).clamp(0.0, 1.0))
    }
}

/// The characterized relation `ρ_T = f(ρ_in)` for one tracepoint.
///
/// # Examples
///
/// ```
/// use morph_linalg::{C64, CMatrix};
/// use morphqpv::ApproximationFunction;
///
/// // Program is a NOT gate: |0>↦|1>, |1>↦|0>.
/// let zero = CMatrix::outer(&[C64::ONE, C64::ZERO], &[C64::ONE, C64::ZERO]);
/// let one = CMatrix::outer(&[C64::ZERO, C64::ONE], &[C64::ZERO, C64::ONE]);
/// let f = ApproximationFunction::new(
///     vec![zero.clone(), one.clone()],
///     vec![one.clone(), zero.clone()],
/// )?;
/// // A mixed input maps to the flipped mixture.
/// let mixed = &zero.scale_re(0.8) + &one.scale_re(0.2);
/// let out = f.predict(&mixed)?;
/// assert!((out[(0, 0)].re - 0.2).abs() < 1e-9);
/// # Ok::<(), morph_linalg::SolveError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ApproximationFunction {
    span: InputSpan,
    traces: Vec<CMatrix>,
}

impl ApproximationFunction {
    /// Builds the function from sampled `(input, tracepoint)` density-matrix
    /// pairs.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::DimensionMismatch`] if the lists are empty,
    /// differ in length, or are internally inconsistent in shape.
    pub fn new(inputs: Vec<CMatrix>, traces: Vec<CMatrix>) -> Result<Self, SolveError> {
        if traces.is_empty() || inputs.len() != traces.len() {
            return Err(SolveError::DimensionMismatch);
        }
        let dt = traces[0].rows();
        if traces.iter().any(|m| m.rows() != dt || !m.is_square()) {
            return Err(SolveError::DimensionMismatch);
        }
        Ok(ApproximationFunction {
            span: InputSpan::new(inputs)?,
            traces,
        })
    }

    /// The input side: the sampled inputs and their factored Gram matrix.
    pub fn input_span(&self) -> &InputSpan {
        &self.span
    }

    /// Dimension of the tracepoint space.
    pub fn trace_dim(&self) -> usize {
        self.traces[0].rows()
    }

    /// The sampled tracepoint density matrices.
    pub fn sampled_traces(&self) -> &[CMatrix] {
        &self.traces
    }

    /// Step 2 of Theorem 1: reconstruct the tracepoint state from
    /// coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `alphas.len() != self.input_span().n_samples()`.
    pub fn apply(&self, alphas: &[f64]) -> CMatrix {
        recombine(&self.traces, alphas)
    }

    /// Full Theorem 1 evaluation: `f(ρ_in)`.
    ///
    /// # Errors
    ///
    /// Returns an error if `rho_in` has the wrong dimension.
    pub fn predict(&self, rho_in: &CMatrix) -> Result<CMatrix, SolveError> {
        Ok(self.apply(&self.span.decompose(rho_in)?))
    }
}

impl Serialize for ApproximationFunction {
    /// Persists only the sampled pairs; the Gram factor is a pure function
    /// of the inputs and is rebuilt on load by [`ApproximationFunction::new`]
    /// (deterministically, so a reloaded function is bit-identical).
    fn to_value(&self) -> Value {
        let mut m = std::collections::BTreeMap::new();
        m.insert("inputs".to_string(), self.span.inputs.to_value());
        m.insert("traces".to_string(), self.traces.to_value());
        Value::Object(m)
    }
}

impl<'de> Deserialize<'de> for ApproximationFunction {
    fn from_value(value: &Value) -> Result<Self, FromValueError> {
        let inputs: Vec<CMatrix> = Vec::from_value(value.require("inputs")?)?;
        let traces: Vec<CMatrix> = Vec::from_value(value.require("traces")?)?;
        ApproximationFunction::new(inputs, traces)
            .map_err(|e| FromValueError::new(format!("inconsistent approximation data: {e:?}")))
    }
}

/// A pipeline of approximation functions through intermediate tracepoints,
/// used to cut noise accumulation between distant tracepoints (Fig 14).
#[derive(Debug, Clone)]
pub struct ChainedApproximation {
    stages: Vec<ApproximationFunction>,
}

impl ChainedApproximation {
    /// Builds a chain from consecutive stages.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::DimensionMismatch`] if the list is empty or
    /// adjacent stages do not compose.
    pub fn new(stages: Vec<ApproximationFunction>) -> Result<Self, SolveError> {
        if stages.is_empty() {
            return Err(SolveError::DimensionMismatch);
        }
        for pair in stages.windows(2) {
            if pair[0].trace_dim() != pair[1].input_span().input_dim() {
                return Err(SolveError::DimensionMismatch);
            }
        }
        Ok(ChainedApproximation { stages })
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// `true` if there are no stages (never constructible via `new`).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Evaluates the whole chain on an input.
    ///
    /// # Errors
    ///
    /// Returns an error if `rho_in` has the wrong dimension.
    pub fn predict(&self, rho_in: &CMatrix) -> Result<CMatrix, SolveError> {
        self.predict_with_mitigation(rho_in, Mitigation::None)
    }

    /// Evaluates the chain, applying the chosen error mitigation to each
    /// intermediate state. This is what makes intermediate tracepoints pay
    /// off under hardware noise (Fig 14): each stage's characterization
    /// carries only its own segment's decoherence, and restoring the state
    /// between stages stops the damping from compounding.
    ///
    /// # Errors
    ///
    /// Returns an error if `rho_in` has the wrong dimension.
    pub fn predict_with_mitigation(
        &self,
        rho_in: &CMatrix,
        mitigation: Mitigation,
    ) -> Result<CMatrix, SolveError> {
        let mut rho = rho_in.clone();
        let last = self.stages.len() - 1;
        for (i, stage) in self.stages.iter().enumerate() {
            rho = stage.predict(&rho)?;
            if i < last {
                rho = mitigation.apply(&rho);
            }
        }
        Ok(rho)
    }
}

/// Between-stage state restoration used by
/// [`ChainedApproximation::predict_with_mitigation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mitigation {
    /// Pass intermediate states through unchanged.
    None,
    /// Project onto the density-matrix set (PSD + unit trace) — undoes the
    /// trace/negativity drift of noisy, shot-limited characterization.
    Project,
    /// Replace by the dominant-eigenvector projector — valid when the
    /// ideal intermediate states are known pure (unitary segments), where
    /// it cancels depolarizing contraction entirely.
    Purify,
}

impl Mitigation {
    fn apply(self, rho: &CMatrix) -> CMatrix {
        match self {
            Mitigation::None => rho.clone(),
            Mitigation::Project => morph_linalg::project_to_density(rho),
            Mitigation::Purify => {
                let eig = morph_linalg::eigh(rho);
                let v = eig.vector(0);
                CMatrix::outer(&v, &v)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_linalg::C64;
    use morph_qsim::matrices;

    fn ket(v: &[C64]) -> CMatrix {
        CMatrix::outer(v, v)
    }

    fn single_qubit_pairs(u: &CMatrix) -> (Vec<CMatrix>, Vec<CMatrix>) {
        // The paper's Fig 4 ensemble: |+>, |+i>, |1> (plus |0> for span).
        let h = 1.0 / 2f64.sqrt();
        let states = vec![
            ket(&[C64::real(h), C64::real(h)]),
            ket(&[C64::real(h), C64::new(0.0, h)]),
            ket(&[C64::ZERO, C64::ONE]),
            ket(&[C64::ONE, C64::ZERO]),
        ];
        let traces = states
            .iter()
            .map(|rho| u.matmul(rho).matmul(&u.dagger()))
            .collect();
        (states, traces)
    }

    #[test]
    fn exact_for_in_span_inputs() {
        let u = matrices::h();
        let (inputs, traces) = single_qubit_pairs(&u);
        let f = ApproximationFunction::new(inputs, traces).unwrap();
        // Any single-qubit density matrix is in the span of those four.
        let test = ket(&[C64::real(0.6), C64::new(0.64, 0.48)]);
        let predicted = f.predict(&test).unwrap();
        let truth = u.matmul(&test).matmul(&u.dagger());
        assert!(predicted.approx_eq(&truth, 1e-9));
        assert!((f.input_span().representation_accuracy(&test).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn alphas_match_paper_fig4_expectations() {
        // For the Fig 4 example the coefficients are the expectations on
        // the sampled states (up to the completion term).
        let u = CMatrix::identity(2);
        let (inputs, traces) = single_qubit_pairs(&u);
        let f = ApproximationFunction::new(inputs, traces).unwrap();
        let rho = ket(&[C64::ONE, C64::ZERO]); // |0><0|
        let alphas = f.input_span().decompose(&rho).unwrap();
        let rebuilt = f.input_span().reconstruct_input(&alphas);
        assert!(rebuilt.approx_eq(&rho, 1e-9));
    }

    #[test]
    fn under_approximation_outside_span() {
        // Only diagonal samples: coherences cannot be represented.
        let zero = ket(&[C64::ONE, C64::ZERO]);
        let one = ket(&[C64::ZERO, C64::ONE]);
        let f = ApproximationFunction::new(
            vec![zero.clone(), one.clone()],
            vec![zero.clone(), one.clone()],
        )
        .unwrap();
        let h = 1.0 / 2f64.sqrt();
        let plus = ket(&[C64::real(h), C64::real(h)]);
        let acc = f.input_span().representation_accuracy(&plus).unwrap();
        assert!(acc < 0.9, "plus state is not representable, acc={acc}");
        // And accuracy grows to 1 when the span is completed.
        let complete = ApproximationFunction::new(
            vec![
                zero.clone(),
                one.clone(),
                plus.clone(),
                ket(&[C64::real(h), C64::new(0.0, h)]),
            ],
            vec![
                zero,
                one,
                plus.clone(),
                ket(&[C64::real(h), C64::new(0.0, h)]),
            ],
        )
        .unwrap();
        let acc = complete
            .input_span()
            .representation_accuracy(&plus)
            .unwrap();
        assert!((acc - 1.0).abs() < 1e-9);
    }

    #[test]
    fn more_samples_never_hurt_accuracy() {
        use morph_clifford::InputEnsemble;
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let u = matrices::ry(0.7).kron(&matrices::h());
        let all = InputEnsemble::PauliProduct.generate(2, 16, &mut rng);
        let test_inputs = InputEnsemble::Clifford.generate(2, 6, &mut rng);
        let mut last_mean = 0.0;
        for k in [2usize, 6, 10, 16] {
            let inputs: Vec<CMatrix> = all[..k].iter().map(|i| i.rho.clone()).collect();
            let traces: Vec<CMatrix> = inputs
                .iter()
                .map(|r| u.matmul(r).matmul(&u.dagger()))
                .collect();
            let f = ApproximationFunction::new(inputs, traces).unwrap();
            let mean: f64 = test_inputs
                .iter()
                .map(|t| f.input_span().representation_accuracy(&t.rho).unwrap())
                .sum::<f64>()
                / test_inputs.len() as f64;
            assert!(
                mean >= last_mean - 0.05,
                "accuracy regressed at k={k}: {mean} < {last_mean}"
            );
            last_mean = mean;
        }
        assert!(
            (last_mean - 1.0).abs() < 1e-6,
            "full span must be exact, got {last_mean}"
        );
    }

    #[test]
    fn chain_composes_two_unitaries() {
        let u1 = matrices::h();
        let u2 = matrices::ry(0.9);
        let (in1, tr1) = single_qubit_pairs(&u1);
        let f1 = ApproximationFunction::new(in1, tr1).unwrap();
        let (in2, tr2) = single_qubit_pairs(&u2);
        let f2 = ApproximationFunction::new(in2, tr2).unwrap();
        let chain = ChainedApproximation::new(vec![f1, f2]).unwrap();
        let test = ket(&[C64::real(0.8), C64::real(0.6)]);
        let u = u2.matmul(&u1);
        let truth = u.matmul(&test).matmul(&u.dagger());
        assert!(chain.predict(&test).unwrap().approx_eq(&truth, 1e-9));
        assert_eq!(chain.len(), 2);
    }

    #[test]
    fn dimension_errors_are_reported() {
        let zero = ket(&[C64::ONE, C64::ZERO]);
        assert!(ApproximationFunction::new(vec![], vec![]).is_err());
        assert!(ApproximationFunction::new(vec![zero.clone()], vec![]).is_err());
        let f = ApproximationFunction::new(vec![zero.clone()], vec![zero]).unwrap();
        let big = CMatrix::identity(4);
        assert!(f.predict(&big).is_err());
    }

    #[test]
    fn purify_mitigation_undoes_depolarizing_contraction() {
        // Stage = identity with depolarizing noise (Bloch contraction 0.6).
        let contract = |rho: &CMatrix| -> CMatrix {
            let mixed = CMatrix::identity(2).scale_re(0.5);
            &rho.scale_re(0.6) + &mixed.scale_re(0.4)
        };
        let h = 1.0 / 2f64.sqrt();
        let basis = vec![
            ket(&[C64::ONE, C64::ZERO]),
            ket(&[C64::ZERO, C64::ONE]),
            ket(&[C64::real(h), C64::real(h)]),
            ket(&[C64::real(h), C64::new(0.0, h)]),
        ];
        let traces: Vec<CMatrix> = basis.iter().map(contract).collect();
        let stage = ApproximationFunction::new(basis.clone(), traces).unwrap();
        let chain = ChainedApproximation::new(vec![stage.clone(), stage]).unwrap();
        let test = ket(&[C64::real(0.8), C64::real(0.6)]);
        let raw = chain.predict(&test).unwrap();
        let mitigated = chain
            .predict_with_mitigation(&test, Mitigation::Purify)
            .unwrap();
        // Raw chaining contracts twice (0.36); purification between stages
        // removes one contraction.
        let raw_acc = morph_linalg::hs_accuracy(&raw, &test);
        let mit_acc = morph_linalg::hs_accuracy(&mitigated, &test);
        assert!(
            mit_acc > raw_acc + 0.1,
            "mitigated {mit_acc} vs raw {raw_acc}"
        );
    }

    #[test]
    fn mixed_measurement_program_stays_linear() {
        // Theorem 1's measurement extension: channel ρ ↦ Σ P ρ P (dephase).
        let zero = ket(&[C64::ONE, C64::ZERO]);
        let one = ket(&[C64::ZERO, C64::ONE]);
        let h = 1.0 / 2f64.sqrt();
        let plus = ket(&[C64::real(h), C64::real(h)]);
        let minus = ket(&[C64::real(h), C64::real(-h)]);
        let dephase = |rho: &CMatrix| CMatrix::from_diag(&[rho[(0, 0)], rho[(1, 1)]]);
        let inputs = vec![zero.clone(), one.clone(), plus.clone(), minus.clone()];
        let traces: Vec<CMatrix> = inputs.iter().map(&dephase).collect();
        let f = ApproximationFunction::new(inputs, traces).unwrap();
        let test = ket(&[C64::real(0.6), C64::new(0.48, 0.64)]);
        let predicted = f.predict(&test).unwrap();
        assert!(predicted.approx_eq(&dephase(&test), 1e-9));
    }
}
