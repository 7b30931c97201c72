//! Input-space landscapes.
//!
//! The related-work discussion positions MorphQPV as constructing loss
//! landscapes *in the input space* (where OSCAR does so in parameter
//! space). Because the characterized approximation functions evaluate the
//! guarantee objective for any input without re-execution, sweeping a
//! parametrized family of inputs is essentially free — this module sweeps
//! the single-qubit Bloch sphere `|ψ(θ, φ)⟩ = cos(θ/2)|0⟩ +
//! e^{iφ} sin(θ/2)|1⟩` and reports the objective surface, which is how
//! counter-example basins become visible to a human.

use morph_linalg::{CMatrix, C64};

use crate::assertion::{AssumeGuarantee, Guarantee, StateRef};
use crate::characterize::Characterization;

/// One sample of the objective surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LandscapePoint {
    /// Polar angle θ ∈ [0, π].
    pub theta: f64,
    /// Azimuthal angle φ ∈ [0, 2π).
    pub phi: f64,
    /// Guarantee objective at this input (> 0 means violated).
    pub objective: f64,
    /// Whether every assumption holds at this input (within `tol`).
    pub feasible: bool,
}

/// Sweeps the guarantee objective over the Bloch sphere of a single-qubit
/// input space, at `resolution × resolution` grid points.
///
/// # Panics
///
/// Panics if the characterization's input space is not a single qubit,
/// the assertion is incomplete, or `resolution < 2`.
pub fn input_landscape(
    assertion: &AssumeGuarantee,
    characterization: &Characterization,
    resolution: usize,
    feasibility_tol: f64,
) -> Vec<LandscapePoint> {
    assert!(assertion.is_complete(), "assertion has no guarantee clause");
    assert!(resolution >= 2, "need at least a 2x2 grid");
    let approximations = characterization.all_approximations();
    let input_dim = characterization.inputs[0].rho.rows();
    assert_eq!(
        input_dim, 2,
        "landscape sweeps require a single-qubit input space"
    );

    let resolve = |state: StateRef, rho_in: &CMatrix| -> CMatrix {
        match state {
            StateRef::Input => rho_in.clone(),
            StateRef::Tracepoint(id) => approximations[&id]
                .predict(rho_in)
                .expect("input dimension checked above"),
        }
    };

    let mut out = Vec::with_capacity(resolution * resolution);
    for ti in 0..resolution {
        let theta = std::f64::consts::PI * ti as f64 / (resolution - 1) as f64;
        for pi in 0..resolution {
            let phi = 2.0 * std::f64::consts::PI * pi as f64 / resolution as f64;
            let ket = [
                C64::real((theta / 2.0).cos()),
                C64::cis(phi).scale((theta / 2.0).sin()),
            ];
            let rho_in = CMatrix::outer(&ket, &ket);

            let feasible = assertion
                .assumptions()
                .iter()
                .all(|(s, p)| p.objective(&resolve(*s, &rho_in)) <= feasibility_tol);
            let objective = match assertion.guarantee_clause() {
                Guarantee::Single(s, p) => p.objective(&resolve(*s, &rho_in)),
                Guarantee::Relation(a, b, p) => {
                    p.objective(&resolve(*a, &rho_in), &resolve(*b, &rho_in))
                }
            };
            // A non-finite objective (a pathological custom predicate) is
            // flagged infeasible so it can never be reported as a peak.
            let feasible = feasible && objective.is_finite();
            out.push(LandscapePoint {
                theta,
                phi,
                objective,
                feasible,
            });
        }
    }
    out
}

/// The feasible grid point with the largest objective — the landscape's
/// candidate counter-example (or `None` when nothing is feasible).
///
/// Non-finite objectives are filtered out and the remaining points are
/// ranked by `f64::total_cmp`; the old `partial_cmp(..).unwrap_or(Equal)`
/// made the winner depend on iteration order whenever a NaN was present.
pub fn landscape_peak(points: &[LandscapePoint]) -> Option<LandscapePoint> {
    points
        .iter()
        .filter(|p| p.feasible && p.objective.is_finite())
        .copied()
        .max_by(|a, b| a.objective.total_cmp(&b.objective))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use crate::characterize::{try_characterize, CharacterizationConfig};
    use crate::predicate::{RelationPredicate, StatePredicate};
    use morph_clifford::InputEnsemble;
    use morph_qprog::{Circuit, TracepointId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn flip_characterization() -> Characterization {
        let mut c = Circuit::new(1);
        c.tracepoint(1, &[0]);
        c.x(0);
        c.tracepoint(2, &[0]);
        let mut rng = StdRng::seed_from_u64(0);
        let config = CharacterizationConfig {
            ensemble: InputEnsemble::PauliProduct,
            ..CharacterizationConfig::exact(vec![0], 4)
        };
        try_characterize(&c, &config, &mut rng, &CancelToken::new()).unwrap()
    }

    fn equality_assertion() -> AssumeGuarantee {
        AssumeGuarantee::new().guarantee_relation(
            TracepointId(1),
            TracepointId(2),
            RelationPredicate::Equal,
        )
    }

    #[test]
    fn flip_landscape_peaks_at_poles_and_vanishes_on_x_axis() {
        let ch = flip_characterization();
        let points = input_landscape(&equality_assertion(), &ch, 9, 1e-6);
        assert_eq!(points.len(), 81);
        // Pole: |0> vs |1> — maximal distance √2.
        let pole = points
            .iter()
            .find(|p| p.theta == 0.0 && p.phi == 0.0)
            .unwrap();
        assert!((pole.objective - 2f64.sqrt()).abs() < 1e-9);
        // X axis (θ = π/2, φ = 0): |+> is X-invariant — objective ≈ 0.
        let x_axis = points
            .iter()
            .filter(|p| (p.theta - std::f64::consts::FRAC_PI_2).abs() < 1e-9)
            .find(|p| p.phi == 0.0)
            .unwrap();
        assert!(x_axis.objective.abs() < 1e-9, "got {}", x_axis.objective);
    }

    #[test]
    fn peak_returns_the_counterexample_basin() {
        let ch = flip_characterization();
        let points = input_landscape(&equality_assertion(), &ch, 17, 1e-6);
        let peak = landscape_peak(&points).expect("grid has feasible points");
        assert!((peak.objective - 2f64.sqrt()).abs() < 0.05);
        // Poles (θ≈0 or π) carry the peak.
        assert!(peak.theta < 0.3 || peak.theta > std::f64::consts::PI - 0.3);
    }

    #[test]
    fn assumptions_mark_infeasible_regions() {
        // Only near-|0> inputs are assumed.
        let zero = CMatrix::outer(&[C64::ONE, C64::ZERO], &[C64::ONE, C64::ZERO]);
        let assertion = AssumeGuarantee::new()
            .assume(
                StateRef::Input,
                StatePredicate::custom(move |rho| (rho - &zero).frobenius_norm() - 0.5),
            )
            .guarantee_relation(TracepointId(1), TracepointId(2), RelationPredicate::Equal);
        let ch = flip_characterization();
        let points = input_landscape(&assertion, &ch, 9, 1e-6);
        let feasible = points.iter().filter(|p| p.feasible).count();
        assert!(feasible > 0 && feasible < points.len());
        // Feasible points cluster near θ = 0.
        assert!(points
            .iter()
            .filter(|p| p.feasible)
            .all(|p| p.theta < std::f64::consts::FRAC_PI_2));
    }

    #[test]
    fn non_finite_objectives_never_win_the_peak() {
        let p = |objective: f64| LandscapePoint {
            theta: 0.0,
            phi: 0.0,
            objective,
            feasible: true,
        };
        let peak = landscape_peak(&[p(f64::NAN), p(0.4), p(f64::INFINITY)]).unwrap();
        assert_eq!(peak.objective, 0.4);
        assert!(landscape_peak(&[p(f64::NAN), p(f64::INFINITY)]).is_none());
    }

    #[test]
    fn nan_guarantee_marks_grid_points_infeasible() {
        let ch = flip_characterization();
        let assertion = AssumeGuarantee::new().guarantee_relation(
            TracepointId(1),
            TracepointId(2),
            RelationPredicate::custom(|_, _| f64::NAN),
        );
        let points = input_landscape(&assertion, &ch, 5, 1e-6);
        assert!(points.iter().all(|p| !p.feasible));
        assert!(landscape_peak(&points).is_none());
    }

    #[test]
    #[should_panic(expected = "single-qubit")]
    fn multi_qubit_input_space_rejected() {
        let mut c = Circuit::new(2);
        c.tracepoint(1, &[0, 1]);
        c.h(0);
        c.tracepoint(2, &[0, 1]);
        let mut rng = StdRng::seed_from_u64(0);
        let ch = try_characterize(
            &c,
            &CharacterizationConfig::exact(vec![0, 1], 4),
            &mut rng,
            &CancelToken::new(),
        )
        .unwrap();
        let _ = input_landscape(&equality_assertion(), &ch, 4, 1e-6);
    }
}
