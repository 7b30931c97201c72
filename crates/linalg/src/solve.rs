//! Linear solvers: complex LU with partial pivoting, real symmetric solves,
//! and the Gram-system least squares used by the isomorphism-based
//! approximation to decompose an input state over the sampled basis.

use crate::complex::C64;
use crate::matrix::CMatrix;

/// Error produced by the solvers in this module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The coefficient matrix is singular to working precision.
    Singular,
    /// Input dimensions do not line up.
    DimensionMismatch,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Singular => write!(f, "matrix is singular to working precision"),
            SolveError::DimensionMismatch => write!(f, "dimension mismatch"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Solves the complex linear system `A x = b` by LU with partial pivoting.
///
/// # Errors
///
/// Returns [`SolveError::DimensionMismatch`] if `A` is not square or `b` has
/// the wrong length, and [`SolveError::Singular`] if a pivot underflows.
///
/// # Examples
///
/// ```
/// use morph_linalg::{CMatrix, C64, solve};
///
/// let a = CMatrix::from_rows(&[
///     &[C64::real(2.0), C64::real(1.0)],
///     &[C64::real(1.0), C64::real(3.0)],
/// ]);
/// let x = solve(&a, &[C64::real(3.0), C64::real(4.0)])?;
/// assert!((x[0] - C64::real(1.0)).abs() < 1e-12);
/// assert!((x[1] - C64::real(1.0)).abs() < 1e-12);
/// # Ok::<(), morph_linalg::SolveError>(())
/// ```
pub fn solve(a: &CMatrix, b: &[C64]) -> Result<Vec<C64>, SolveError> {
    if !a.is_square() || b.len() != a.rows() {
        return Err(SolveError::DimensionMismatch);
    }
    let n = a.rows();
    let mut lu: Vec<C64> = a.as_slice().to_vec();
    let mut x: Vec<C64> = b.to_vec();
    let mut perm: Vec<usize> = (0..n).collect();

    for k in 0..n {
        // Partial pivot on modulus.
        let mut best = k;
        let mut best_abs = lu[perm[k] * n + k].abs();
        for r in (k + 1)..n {
            let v = lu[perm[r] * n + k].abs();
            if v > best_abs {
                best = r;
                best_abs = v;
            }
        }
        if best_abs < 1e-300 {
            return Err(SolveError::Singular);
        }
        perm.swap(k, best);
        let pk = perm[k];
        let pivot = lu[pk * n + k];
        for &pr in &perm[(k + 1)..n] {
            let factor = lu[pr * n + k] / pivot;
            lu[pr * n + k] = factor;
            for c in (k + 1)..n {
                let sub = factor * lu[pk * n + c];
                lu[pr * n + c] -= sub;
            }
        }
    }

    // Forward substitution on the permuted rows.
    let mut y = vec![C64::ZERO; n];
    for r in 0..n {
        let mut acc = x[perm[r]];
        for c in 0..r {
            acc -= lu[perm[r] * n + c] * y[c];
        }
        y[r] = acc;
    }
    // Back substitution.
    for r in (0..n).rev() {
        let mut acc = y[r];
        for c in (r + 1)..n {
            acc -= lu[perm[r] * n + c] * x[c];
        }
        x[r] = acc / lu[perm[r] * n + r];
    }
    Ok(x)
}

/// Solves a real symmetric system `G x = b` (used for Gram systems), falling
/// back to Tikhonov regularization `(G + λI) x = b` when `G` is singular.
///
/// Gram matrices of nearly linearly dependent sample states are frequently
/// rank-deficient; the regularized solve returns the minimum-norm-flavored
/// solution instead of failing. To solve one `G` against several right-hand
/// sides, factor it once with [`SymFactor`]; the results are bit-identical.
///
/// # Errors
///
/// Returns [`SolveError::DimensionMismatch`] on shape mismatch. Singular
/// systems do not error — they are regularized.
pub fn solve_sym_regularized(g: &[Vec<f64>], b: &[f64]) -> Result<Vec<f64>, SolveError> {
    if b.len() != g.len() {
        return Err(SolveError::DimensionMismatch);
    }
    SymFactor::new(g)?.solve(b)
}

/// `G + λI` factored once by Gaussian elimination with partial pivoting,
/// at the first λ of the regularization schedule `0, s·1e-10, s·1e-8, …,
/// s·1e-2` (`s` the largest `|Gᵢⱼ|`) whose pivots all stay above `1e-12`.
/// Each [`solve`](Self::solve) then costs O(n²) instead of O(n³).
///
/// Whether elimination succeeds depends on `G` and λ alone, never on the
/// right-hand side, and a solve replays the elimination's row swaps,
/// skipped zero multipliers and substitution order on `b` exactly — so
/// every solve is bit-identical to [`solve_sym_regularized`] on the same
/// system. When every λ fails, every solve is the zero vector.
#[derive(Debug, Clone)]
pub struct SymFactor {
    n: usize,
    /// Row-major elimination of `G + λI`: `U` on and above the diagonal,
    /// step `k`'s multiplier for row `r` at `(r, k)` below it. Empty when
    /// every λ failed.
    lu: Vec<f64>,
    /// The row swapped into position `k` at step `k`.
    pivots: Vec<usize>,
}

impl SymFactor {
    /// Factors a square `G`.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::DimensionMismatch`] if `G` is not square.
    /// Singular systems do not error — they are regularized.
    pub fn new(g: &[Vec<f64>]) -> Result<Self, SolveError> {
        let n = g.len();
        if g.iter().any(|row| row.len() != n) {
            return Err(SolveError::DimensionMismatch);
        }
        let scale = g
            .iter()
            .flat_map(|row| row.iter())
            .fold(0.0f64, |m, &v| m.max(v.abs()))
            .max(1e-12);
        let mut lambda = 0.0;
        for _ in 0..6 {
            if let Some(factor) = Self::eliminate(g, lambda) {
                return Ok(factor);
            }
            lambda = if lambda == 0.0 {
                scale * 1e-10
            } else {
                lambda * 100.0
            };
        }
        // Last, heavy regularization; a `G` that fails even here (an all-zero
        // one, say) solves every right-hand side to zero.
        Ok(Self::eliminate(g, scale * 1e-2).unwrap_or(SymFactor {
            n,
            lu: Vec::new(),
            pivots: Vec::new(),
        }))
    }

    /// Elimination of `G + λI`; `None` when a pivot underflows.
    fn eliminate(g: &[Vec<f64>], lambda: f64) -> Option<SymFactor> {
        let n = g.len();
        let mut a: Vec<f64> = Vec::with_capacity(n * n);
        for (r, row) in g.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                a.push(if r == c { v + lambda } else { v });
            }
        }
        let mut pivots = Vec::with_capacity(n);
        for k in 0..n {
            let mut best = k;
            let mut best_abs = a[k * n + k].abs();
            for r in (k + 1)..n {
                if a[r * n + k].abs() > best_abs {
                    best = r;
                    best_abs = a[r * n + k].abs();
                }
            }
            if best_abs < 1e-12 {
                return None;
            }
            // Columns left of `k` hold earlier steps' multipliers, which
            // stay with the row position they were computed for.
            if best != k {
                for c in k..n {
                    a.swap(k * n + c, best * n + c);
                }
            }
            pivots.push(best);
            let pivot = a[k * n + k];
            for r in (k + 1)..n {
                let f = a[r * n + k] / pivot;
                a[r * n + k] = f;
                if f == 0.0 {
                    continue;
                }
                for c in (k + 1)..n {
                    a[r * n + c] -= f * a[k * n + c];
                }
            }
        }
        Some(SymFactor { n, lu: a, pivots })
    }

    /// Solves `(G + λI) x = b` with the factored λ.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::DimensionMismatch`] if `b` has the wrong
    /// length.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SolveError> {
        let n = self.n;
        if b.len() != n {
            return Err(SolveError::DimensionMismatch);
        }
        if self.lu.len() != n * n {
            return Ok(vec![0.0; n]);
        }
        let a = &self.lu;
        let mut x = b.to_vec();
        for (k, &best) in self.pivots.iter().enumerate() {
            x.swap(k, best);
            for r in (k + 1)..n {
                let f = a[r * n + k];
                if f == 0.0 {
                    continue;
                }
                x[r] -= f * x[k];
            }
        }
        for r in (0..n).rev() {
            let mut acc = x[r];
            for c in (r + 1)..n {
                acc -= a[r * n + c] * x[c];
            }
            x[r] = acc / a[r * n + r];
        }
        Ok(x)
    }
}

/// Least-squares decomposition of a Hermitian target over a set of Hermitian
/// basis matrices: finds real `α` minimizing `‖ target − Σ αᵢ basisᵢ ‖_F`.
///
/// This is the core numerical primitive of MorphQPV's isomorphism-based
/// approximation (Theorem 1): the sampled input states are the basis, the
/// unknown program input is the target, and the same `α` then reconstructs
/// the tracepoint state.
///
/// Solved via the normal equations with the (real) Gram matrix
/// `G_ij = tr(basisᵢ† basisⱼ).re`, regularized when rank-deficient.
///
/// # Errors
///
/// Returns [`SolveError::DimensionMismatch`] if basis and target shapes
/// disagree or the basis is empty.
pub fn decompose_hermitian(basis: &[CMatrix], target: &CMatrix) -> Result<Vec<f64>, SolveError> {
    if basis.is_empty() {
        return Err(SolveError::DimensionMismatch);
    }
    for m in basis {
        if m.rows() != target.rows() || m.cols() != target.cols() {
            return Err(SolveError::DimensionMismatch);
        }
    }
    let n = basis.len();
    let mut g = vec![vec![0.0f64; n]; n];
    for i in 0..n {
        for j in i..n {
            let v = basis[i].hs_inner_re(&basis[j]);
            g[i][j] = v;
            g[j][i] = v;
        }
    }
    let b: Vec<f64> = basis.iter().map(|m| m.hs_inner_re(target)).collect();
    solve_sym_regularized(&g, &b)
}

/// Reconstructs `Σ αᵢ basisᵢ`.
///
/// # Panics
///
/// Panics if `alphas.len() != basis.len()` or the basis is empty.
pub fn recombine(basis: &[CMatrix], alphas: &[f64]) -> CMatrix {
    assert_eq!(basis.len(), alphas.len(), "coefficient count mismatch");
    assert!(!basis.is_empty(), "empty basis");
    let mut out = CMatrix::zeros(basis[0].rows(), basis[0].cols());
    for (m, &a) in basis.iter().zip(alphas) {
        if a == 0.0 {
            continue;
        }
        assert_eq!(
            (m.rows(), m.cols()),
            (out.rows(), out.cols()),
            "add shape mismatch"
        );
        let s = C64::real(a);
        for (o, &z) in out.as_mut_slice().iter_mut().zip(m.as_slice()) {
            *o += z * s;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn complex_solve_roundtrip() {
        let mut rng = StdRng::seed_from_u64(42);
        for n in [1usize, 2, 4, 7] {
            let a = CMatrix::from_fn(n, n, |_, _| {
                C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
            });
            let x_true: Vec<C64> = (0..n)
                .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            let b = a.matvec(&x_true);
            let x = solve(&a, &b).expect("random dense matrix should be nonsingular");
            for i in 0..n {
                assert!(x[i].approx_eq(x_true[i], 1e-9), "n={n}, i={i}");
            }
        }
    }

    #[test]
    fn singular_matrix_reports_error() {
        let a = CMatrix::from_rows(&[&[C64::ONE, C64::ONE], &[C64::ONE, C64::ONE]]);
        assert_eq!(solve(&a, &[C64::ONE, C64::ZERO]), Err(SolveError::Singular));
    }

    #[test]
    fn dimension_mismatch_reported() {
        let a = CMatrix::zeros(2, 3);
        assert_eq!(
            solve(&a, &[C64::ONE, C64::ZERO]),
            Err(SolveError::DimensionMismatch)
        );
        let sq = CMatrix::identity(2);
        assert_eq!(solve(&sq, &[C64::ONE]), Err(SolveError::DimensionMismatch));
    }

    #[test]
    fn symmetric_solver_exact_case() {
        let g = vec![vec![4.0, 1.0], vec![1.0, 3.0]];
        let x = solve_sym_regularized(&g, &[1.0, 2.0]).unwrap();
        // Solve manually: [4 1; 1 3] x = [1; 2] => x = [1/11, 7/11].
        assert!((x[0] - 1.0 / 11.0).abs() < 1e-10);
        assert!((x[1] - 7.0 / 11.0).abs() < 1e-10);
    }

    #[test]
    fn symmetric_solver_survives_singular_gram() {
        // Rank-1 Gram (two identical basis elements): must not error.
        let g = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
        let x = solve_sym_regularized(&g, &[1.0, 1.0]).unwrap();
        // Any split with x0 + x1 ≈ 1 is acceptable under regularization.
        assert!((x[0] + x[1] - 1.0).abs() < 1e-3);
    }

    /// The three systems the bit pins below solve: one whose elimination
    /// pivots, one rank-deficient that needs λ > 0 (its zero row also
    /// gives a zero multiplier), and one that fails at every λ.
    fn pinned_systems() -> Vec<(Vec<Vec<f64>>, Vec<f64>)> {
        vec![
            (
                vec![
                    vec![1.0, 4.0, 2.0],
                    vec![4.0, 2.0, 1.0],
                    vec![2.0, 1.0, 3.0],
                ],
                vec![1.0, 2.0, 3.0],
            ),
            (
                vec![
                    vec![2.0, 0.0, 1.0],
                    vec![0.0, 0.0, 0.0],
                    vec![1.0, 0.0, 1.0],
                ],
                vec![1.0, 0.5, -1.0],
            ),
            (vec![vec![0.0, 0.0], vec![0.0, 0.0]], vec![1.0, 2.0]),
        ]
    }

    #[test]
    fn symmetric_solver_is_pinned_bit_for_bit() {
        let expected: [&[u64]; 3] = [
            &[0x3fdb6db6db6db6db, 0xbfd0750750750751, 0x3fe999999999999a],
            &[0x3fffffffffbb47d0, 0x41e2a05f20000000, 0xc007ffffffc90640],
            &[0, 0],
        ];
        for ((g, b), bits) in pinned_systems().into_iter().zip(expected) {
            let x = solve_sym_regularized(&g, &b).unwrap();
            let got: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, bits, "G = {g:?}");
        }
    }

    #[test]
    fn one_factor_solves_like_per_call_solves() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut systems: Vec<Vec<Vec<f64>>> =
            pinned_systems().into_iter().map(|(g, _)| g).collect();
        // A random Gram of 6 vectors in R⁴: rank-deficient, so regularized.
        let vs: Vec<Vec<f64>> = (0..6)
            .map(|_| (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        systems.push(
            vs.iter()
                .map(|a| {
                    vs.iter()
                        .map(|b| a.iter().zip(b).map(|(x, y)| x * y).sum())
                        .collect()
                })
                .collect(),
        );
        for g in systems {
            let factor = SymFactor::new(&g).unwrap();
            for _ in 0..4 {
                let b: Vec<f64> = (0..g.len()).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let once: Vec<u64> = factor
                    .solve(&b)
                    .unwrap()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                let per_call: Vec<u64> = solve_sym_regularized(&g, &b)
                    .unwrap()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(once, per_call, "G = {g:?}, b = {b:?}");
            }
            assert_eq!(factor.solve(&[1.0; 7]), Err(SolveError::DimensionMismatch));
        }
        assert_eq!(
            SymFactor::new(&[vec![1.0, 0.0]]).unwrap_err(),
            SolveError::DimensionMismatch
        );
    }

    #[test]
    fn decompose_exact_member_of_span() {
        // Single-qubit: ρ = 0.3|0><0| + 0.7|+><+| decomposed over those two.
        let zero = CMatrix::outer(&[C64::ONE, C64::ZERO], &[C64::ONE, C64::ZERO]);
        let h = 1.0 / 2f64.sqrt();
        let plus = CMatrix::outer(&[C64::real(h), C64::real(h)], &[C64::real(h), C64::real(h)]);
        let target = &zero.scale_re(0.3) + &plus.scale_re(0.7);
        let alphas = decompose_hermitian(&[zero.clone(), plus.clone()], &target).unwrap();
        assert!((alphas[0] - 0.3).abs() < 1e-9);
        assert!((alphas[1] - 0.7).abs() < 1e-9);
        let rec = recombine(&[zero, plus], &alphas);
        assert!(rec.approx_eq(&target, 1e-9));
    }

    #[test]
    fn decompose_projects_outside_span() {
        // Basis spans only diagonal matrices; target has off-diagonals.
        let zero = CMatrix::outer(&[C64::ONE, C64::ZERO], &[C64::ONE, C64::ZERO]);
        let one = CMatrix::outer(&[C64::ZERO, C64::ONE], &[C64::ZERO, C64::ONE]);
        let h = 1.0 / 2f64.sqrt();
        let plus = CMatrix::outer(&[C64::real(h), C64::real(h)], &[C64::real(h), C64::real(h)]);
        let alphas = decompose_hermitian(&[zero.clone(), one.clone()], &plus).unwrap();
        let rec = recombine(&[zero, one], &alphas);
        // Projection keeps the diagonal 1/2, 1/2.
        assert!((rec[(0, 0)].re - 0.5).abs() < 1e-9);
        assert!((rec[(1, 1)].re - 0.5).abs() < 1e-9);
        assert!(rec[(0, 1)].abs() < 1e-9);
    }

    #[test]
    fn decompose_dimension_checks() {
        let id2 = CMatrix::identity(2);
        let id4 = CMatrix::identity(4);
        assert_eq!(
            decompose_hermitian(&[id2], &id4),
            Err(SolveError::DimensionMismatch)
        );
        assert_eq!(
            decompose_hermitian(&[], &id4),
            Err(SolveError::DimensionMismatch)
        );
    }
}
