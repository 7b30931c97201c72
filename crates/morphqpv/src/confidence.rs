//! Confidence estimation (Section 6.2, Theorem 3).
//!
//! Approximation accuracies across random inputs empirically follow a Beta
//! distribution `B(β₁, β₂)`. The probability that a counter-example hides
//! below the accuracy threshold `ε` is `I_ε(β₁, β₂)` (the regularized
//! incomplete beta function), so the verification confidence is
//! `1 − I_ε(β₁, β₂)` — a lower bound when there are multiple
//! counter-examples.

use serde::{Deserialize, Serialize};

/// A fitted Beta distribution of approximation accuracies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceModel {
    /// Beta shape parameter β₁.
    pub beta1: f64,
    /// Beta shape parameter β₂.
    pub beta2: f64,
}

impl ConfidenceModel {
    /// Fits `B(β₁, β₂)` to accuracy samples by the method of moments,
    /// using the unbiased (Bessel-corrected) sample variance.
    ///
    /// Samples are clamped into `(0, 1)`; degenerate sample sets (a single
    /// sample, all equal, or outside the open interval) fall back to a
    /// sharp distribution at the sample mean.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn fit(samples: &[f64]) -> Self {
        assert!(
            !samples.is_empty(),
            "cannot fit a distribution to no samples"
        );
        let clamped: Vec<f64> = samples.iter().map(|&x| x.clamp(1e-6, 1.0 - 1e-6)).collect();
        let n = clamped.len() as f64;
        let mean = clamped.iter().sum::<f64>() / n;
        // Unbiased variance needs n ≥ 2; one sample takes the degenerate
        // (sharp-at-the-mean) path below.
        let var = if clamped.len() < 2 {
            0.0
        } else {
            clamped.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)
        };
        if var < 1e-12 {
            // Degenerate: concentrate mass at the mean with large shapes.
            let scale = 1e4;
            return ConfidenceModel {
                beta1: mean * scale,
                beta2: (1.0 - mean) * scale,
            };
        }
        // Method of moments: κ = mean(1−mean)/var − 1.
        let kappa = (mean * (1.0 - mean) / var - 1.0).max(1e-3);
        ConfidenceModel {
            beta1: (mean * kappa).max(1e-3),
            beta2: ((1.0 - mean) * kappa).max(1e-3),
        }
    }

    /// Mean accuracy `β₁ / (β₁ + β₂)`.
    pub fn mean(&self) -> f64 {
        self.beta1 / (self.beta1 + self.beta2)
    }

    /// `P(acc < ε)` — the chance an existing counter-example is missed.
    pub fn miss_probability(&self, epsilon: f64) -> f64 {
        regularized_incomplete_beta(epsilon.clamp(0.0, 1.0), self.beta1, self.beta2)
    }

    /// Theorem 3: confidence that a no-counter-example verdict is valid for
    /// all inputs, `1 − P(acc < ε)`.
    pub fn confidence(&self, epsilon: f64) -> f64 {
        1.0 - self.miss_probability(epsilon)
    }
}

/// Regularized incomplete beta function `I_x(a, b)` via the continued
/// fraction of Numerical Recipes (Lentz's algorithm).
///
/// # Panics
///
/// Panics if `a` or `b` is non-positive, or `x ∉ [0, 1]`.
pub fn regularized_incomplete_beta(x: f64, a: f64, b: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "beta shape parameters must be positive");
    assert!((0.0..=1.0).contains(&x), "x must be in [0, 1]");
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(x, a, b) / a
    } else {
        1.0 - front * beta_cf(1.0 - x, b, a) / b
    }
}

/// Continued-fraction evaluation for the incomplete beta.
fn beta_cf(x: f64, a: f64, b: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 1e-14;
    const TINY: f64 = 1e-30;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m_f = m as f64;
        let m2 = 2.0 * m_f;
        // Even step.
        let aa = m_f * (b - m_f) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m_f) * (qab + m_f) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Lanczos approximation to `ln Γ(x)`.
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 6] = [
        76.180_091_729_471_46,
        -86.505_320_329_416_77,
        24.014_098_240_830_91,
        -1.231_739_572_450_155,
        0.120_865_097_386_617_7e-2,
        -0.539_523_938_495_3e-5,
    ];
    let mut y = x;
    let tmp = x + 5.5;
    let tmp = tmp - (x + 0.5) * tmp.ln();
    let mut ser = 1.000_000_000_190_015;
    for g in G {
        y += 1.0;
        ser += g / y;
    }
    -tmp + (2.506_628_274_631_000_5 * ser / x).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn incomplete_beta_known_values() {
        // I_x(1,1) = x (uniform CDF).
        for x in [0.0, 0.25, 0.5, 0.9, 1.0] {
            assert!(
                (regularized_incomplete_beta(x, 1.0, 1.0) - x).abs() < 1e-10,
                "x={x}"
            );
        }
        // I_x(2,1) = x² ; I_x(1,2) = 1 − (1−x)².
        assert!((regularized_incomplete_beta(0.3, 2.0, 1.0) - 0.09).abs() < 1e-10);
        assert!((regularized_incomplete_beta(0.3, 1.0, 2.0) - 0.51).abs() < 1e-10);
        // Symmetry: I_x(a,b) = 1 − I_{1−x}(b,a).
        let lhs = regularized_incomplete_beta(0.37, 3.2, 1.7);
        let rhs = 1.0 - regularized_incomplete_beta(0.63, 1.7, 3.2);
        assert!((lhs - rhs).abs() < 1e-10);
    }

    #[test]
    fn incomplete_beta_is_monotone_in_x() {
        let mut last = 0.0;
        for i in 0..=20 {
            let x = i as f64 / 20.0;
            let v = regularized_incomplete_beta(x, 2.5, 4.0);
            assert!(v >= last - 1e-12);
            last = v;
        }
        assert!((last - 1.0).abs() < 1e-10);
    }

    #[test]
    fn moment_fit_recovers_parameters() {
        // Sample from Beta(2, 5) by rejection around its density shape:
        // easier — use order statistics of uniforms: Beta(k, n+1−k).
        let mut rng = StdRng::seed_from_u64(0);
        let mut samples = Vec::new();
        for _ in 0..4000 {
            let mut u: Vec<f64> = (0..6).map(|_| rng.gen()).collect();
            u.sort_by(|a, b| a.partial_cmp(b).unwrap());
            samples.push(u[1]); // 2nd of 6 uniforms ~ Beta(2, 5)
        }
        let model = ConfidenceModel::fit(&samples);
        assert!((model.beta1 - 2.0).abs() < 0.15, "beta1={}", model.beta1);
        assert!((model.beta2 - 5.0).abs() < 0.35, "beta2={}", model.beta2);
        assert!((model.mean() - 2.0 / 7.0).abs() < 0.01);
    }

    #[test]
    fn confidence_decreases_with_epsilon() {
        let model = ConfidenceModel {
            beta1: 2.0,
            beta2: 5.0,
        };
        // Raising ε widens the accuracy band counted as a miss
        // (`acc < ε`), so the miss probability grows and the confidence
        // `1 − I_ε(β₁, β₂)` strictly falls.
        assert!(model.confidence(0.1) > model.confidence(0.5));
        assert!(model.confidence(0.5) > model.confidence(0.9));
    }

    #[test]
    fn degenerate_samples_do_not_panic() {
        let model = ConfidenceModel::fit(&[0.7; 50]);
        assert!((model.mean() - 0.7).abs() < 1e-6);
        assert!(model.confidence(0.5) > 0.99);
    }

    #[test]
    fn single_sample_fit_is_sharp_at_the_sample() {
        // n = 1 has no unbiased variance; the fit must take the degenerate
        // path rather than divide by zero.
        let model = ConfidenceModel::fit(&[0.42]);
        assert!((model.mean() - 0.42).abs() < 1e-6);
        assert!(model.beta1.is_finite() && model.beta2.is_finite());
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_fit_rejected() {
        let _ = ConfidenceModel::fit(&[]);
    }
}
