//! Complex linear algebra substrate for the MorphQPV reproduction.
//!
//! Everything quantum in this workspace — state vectors, density matrices,
//! unitaries, measurement operators — is built on the types in this crate:
//!
//! - [`C64`]: `f64`-backed complex scalar.
//! - [`CMatrix`]: dense row-major complex matrix with quantum-flavored
//!   helpers (`dagger`, `kron`, `hs_inner`, `embed`).
//! - [`eigh`]: Hermitian eigendecomposition (cyclic complex Jacobi).
//! - [`solve`] / [`decompose_hermitian`]: linear and Gram-system solvers;
//!   the latter is the numerical heart of MorphQPV's isomorphism-based
//!   approximation.
//! - Spectral metrics: [`fidelity`], [`hs_accuracy`], [`purity`],
//!   [`trace_distance`], [`project_to_density`].
//!
//! # Examples
//!
//! Decompose a state over sampled basis states (Theorem 1's first step):
//!
//! ```
//! use morph_linalg::{C64, CMatrix, decompose_hermitian, recombine};
//!
//! let zero = CMatrix::outer(&[C64::ONE, C64::ZERO], &[C64::ONE, C64::ZERO]);
//! let one = CMatrix::outer(&[C64::ZERO, C64::ONE], &[C64::ZERO, C64::ONE]);
//! let mixed = &zero.scale_re(0.25) + &one.scale_re(0.75);
//!
//! let alphas = decompose_hermitian(&[zero.clone(), one.clone()], &mixed)?;
//! assert!((alphas[0] - 0.25).abs() < 1e-9);
//! let rebuilt = recombine(&[zero, one], &alphas);
//! assert!(rebuilt.approx_eq(&mixed, 1e-9));
//! # Ok::<(), morph_linalg::SolveError>(())
//! ```

mod complex;
mod eigen;
mod func;
mod matrix;
mod solve;

pub use complex::C64;
pub use eigen::{eigh, EigenDecomposition};
pub use func::{
    expectation, fidelity, hs_accuracy, is_density_matrix, project_to_density, purity,
    purity_defect, sqrt_psd, trace_distance, trace_product, von_neumann_entropy,
};
pub use matrix::CMatrix;
pub use solve::{
    decompose_hermitian, recombine, solve, solve_sym_regularized, SolveError, SymFactor,
};
