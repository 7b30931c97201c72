//! Objective functions and bounds.

use std::fmt;

/// A real-valued objective over `R^dim`, maximized by the solvers.
///
/// The default gradient is central finite differences, so implementors only
/// need [`Objective::value`].
///
/// `Sync` is a supertrait because solvers evaluate one objective from many
/// restart threads concurrently; objectives are read-only during a solve,
/// so any implementor without interior mutability satisfies it for free.
pub trait Objective: Sync {
    /// Dimension of the search space.
    fn dim(&self) -> usize;

    /// Objective value at `x`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `x.len() != self.dim()`.
    fn value(&self, x: &[f64]) -> f64;

    /// Gradient at `x`, written into `out`. Defaults to central finite
    /// differences with step `1e-6`.
    fn gradient(&self, x: &[f64], out: &mut [f64]) {
        let h = 1e-6;
        let mut probe = x.to_vec();
        for i in 0..self.dim() {
            let orig = probe[i];
            probe[i] = orig + h;
            let up = self.value(&probe);
            probe[i] = orig - h;
            let down = self.value(&probe);
            probe[i] = orig;
            out[i] = (up - down) / (2.0 * h);
        }
    }
}

/// An objective defined by a closure.
///
/// # Examples
///
/// ```
/// use morph_optimize::{FnObjective, Objective};
///
/// let sphere = FnObjective::new(2, |x| -(x[0] * x[0] + x[1] * x[1]));
/// assert_eq!(sphere.value(&[0.0, 0.0]), 0.0);
/// ```
pub struct FnObjective<F> {
    dim: usize,
    f: F,
}

impl<F: Fn(&[f64]) -> f64 + Sync> FnObjective<F> {
    /// Wraps `f` as a `dim`-dimensional objective.
    pub fn new(dim: usize, f: F) -> Self {
        FnObjective { dim, f }
    }
}

impl<F: Fn(&[f64]) -> f64 + Sync> Objective for FnObjective<F> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn value(&self, x: &[f64]) -> f64 {
        (self.f)(x)
    }
}

impl<F> fmt::Debug for FnObjective<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FnObjective")
            .field("dim", &self.dim)
            .finish()
    }
}

/// Box bounds for the search space.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounds {
    lower: Vec<f64>,
    upper: Vec<f64>,
}

impl Bounds {
    /// Per-coordinate bounds.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or any lower bound exceeds its upper bound.
    pub fn new(lower: Vec<f64>, upper: Vec<f64>) -> Self {
        assert_eq!(lower.len(), upper.len(), "bounds length mismatch");
        for (l, u) in lower.iter().zip(&upper) {
            assert!(l <= u, "lower bound exceeds upper bound");
        }
        Bounds { lower, upper }
    }

    /// The same `[lo, hi]` interval in every coordinate.
    pub fn uniform(dim: usize, lo: f64, hi: f64) -> Self {
        Bounds::new(vec![lo; dim], vec![hi; dim])
    }

    /// Search-space dimension.
    pub fn dim(&self) -> usize {
        self.lower.len()
    }

    /// Lower bounds.
    pub fn lower(&self) -> &[f64] {
        &self.lower
    }

    /// Upper bounds.
    pub fn upper(&self) -> &[f64] {
        &self.upper
    }

    /// Clamps `x` into the box in place.
    pub fn project(&self, x: &mut [f64]) {
        for ((xi, &lo), &hi) in x.iter_mut().zip(&self.lower).zip(&self.upper) {
            *xi = xi.clamp(lo, hi);
        }
    }

    /// A uniform random point inside the box.
    pub fn sample(&self, rng: &mut impl rand::Rng) -> Vec<f64> {
        self.lower
            .iter()
            .zip(&self.upper)
            .map(|(&l, &u)| if l == u { l } else { rng.gen_range(l..u) })
            .collect()
    }
}

/// Result of an optimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct OptResult {
    /// Best point found.
    pub x: Vec<f64>,
    /// Objective value at the best point.
    pub value: f64,
    /// The configured iteration budget — iterations per restart × restarts,
    /// generations, or proposal steps — not the steps taken. The QP solver
    /// stops a start at its fixed point yet reports the full budget; its
    /// steps taken are the `line_search_steps` trace counter.
    pub iterations: usize,
    /// Total objective evaluations (including gradient probes).
    pub evaluations: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn default_gradient_matches_analytic() {
        let quad = FnObjective::new(2, |x| -(x[0] * x[0] + 3.0 * x[1] * x[1]));
        let mut g = [0.0; 2];
        quad.gradient(&[1.0, 2.0], &mut g);
        assert!((g[0] + 2.0).abs() < 1e-4);
        assert!((g[1] + 12.0).abs() < 1e-4);
    }

    #[test]
    fn bounds_projection() {
        let b = Bounds::uniform(3, -1.0, 1.0);
        let mut x = vec![-5.0, 0.5, 2.0];
        b.project(&mut x);
        assert_eq!(x, vec![-1.0, 0.5, 1.0]);
    }

    #[test]
    fn bounds_sampling_inside_box() {
        let b = Bounds::new(vec![0.0, -2.0], vec![1.0, -1.0]);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..50 {
            let x = b.sample(&mut rng);
            assert!(x[0] >= 0.0 && x[0] <= 1.0);
            assert!(x[1] >= -2.0 && x[1] <= -1.0);
        }
    }

    #[test]
    #[should_panic(expected = "lower bound exceeds")]
    fn invalid_bounds_rejected() {
        let _ = Bounds::new(vec![1.0], vec![0.0]);
    }
}
