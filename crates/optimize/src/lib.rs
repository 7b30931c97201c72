//! Constrained-optimization substrate for MorphQPV's assertion validation.
//!
//! Section 6.1 turns an assume–guarantee assertion into
//! `maximize P₃(α) subject to P₁(α) ≤ 0, P₂(α) ≤ 0` over the real
//! coefficients `α` of the isomorphism-based approximation; the caller
//! folds the constraints into its objective as penalties. This crate
//! supplies:
//!
//! - [`Objective`] / [`FnObjective`]: the function interface (finite-
//!   difference gradients by default).
//! - Solvers ([`Optimizer`] implementations): [`GradientAscent`] (Adam),
//!   [`GeneticAlgorithm`], [`SimulatedAnnealing`], and [`QuadraticProgram`]
//!   — the latter standing in for the paper's Gurobi backend and compared
//!   in Fig 15(b).
//! - [`SolveError`] / [`nan_last_cmp`]: structured failure reporting and
//!   the NaN-last total order every solver selects with, so degenerate
//!   objectives surface as errors rather than panics or NaN "optima".
//!
//! Solvers record spans and counters through `morph-trace` when tracing is
//! enabled (restart counts, evaluations, best-objective gauges); with
//! tracing off the instrumentation is a single relaxed atomic load.
//!
//! # Examples
//!
//! ```
//! use morph_optimize::{Bounds, FnObjective, GradientAscent, Optimizer};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let objective = FnObjective::new(1, |x| -(x[0] - 0.25).powi(2));
//! let mut rng = StdRng::seed_from_u64(0);
//! let result = GradientAscent::default()
//!     .maximize(&objective, &Bounds::uniform(1, -1.0, 1.0), &mut rng)
//!     .expect("a restarted solver over a finite objective succeeds");
//! assert!((result.x[0] - 0.25).abs() < 1e-2);
//! ```

mod error;
mod nelder_mead;
mod objective;
mod solvers;

pub use error::{nan_improves, nan_last_cmp, SolveError};
pub use nelder_mead::NelderMead;
pub use objective::{Bounds, FnObjective, Objective, OptResult};
pub use solvers::{
    GeneticAlgorithm, GradientAscent, Optimizer, QuadraticProgram, SimulatedAnnealing,
};
