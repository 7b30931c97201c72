//! Assertion validation via constrained optimization (Section 6.1).
//!
//! The guarantee objective `P₃` is maximized over the approximation
//! coefficients `α` subject to the assumption predicates and to the
//! physicality of the reconstructed input. Coefficients are gauge-fixed by
//! their sum (sampled inputs are unit-trace, so `tr ρ_in = Σ αᵢ`); the
//! optimizer therefore searches normalized combinations and cannot inflate
//! the objective by scaling. If the maximum stays ≤ 0 the assertion holds
//! for every representable input and Theorem 3 turns the
//! approximation-accuracy distribution into a confidence; otherwise the
//! maximizing `α` reconstructs a counter-example input.

use std::fmt;

use morph_linalg::{project_to_density, CMatrix};
use morph_optimize::{
    Bounds, FnObjective, GeneticAlgorithm, GradientAscent, NelderMead, OptResult, Optimizer,
    QuadraticProgram, SimulatedAnnealing, SolveError,
};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::assertion::{AssumeGuarantee, Guarantee, StateRef};
use crate::characterize::Characterization;
use crate::confidence::ConfidenceModel;

/// Which backend maximizes the validation objective (Fig 15(b)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolverKind {
    /// Adam-style projected gradient ascent.
    GradientAscent,
    /// Genetic algorithm.
    Genetic,
    /// Simulated annealing.
    Annealing,
    /// Quadratic programming (the paper's Gurobi role).
    Quadratic,
    /// Nelder–Mead simplex (derivative-free; robust on kinked norms).
    NelderMead,
}

impl SolverKind {
    /// Instantiates the solver with its default hyper-parameters.
    pub fn build(self) -> Box<dyn Optimizer> {
        match self {
            SolverKind::GradientAscent => Box::new(GradientAscent::default()),
            SolverKind::Genetic => Box::new(GeneticAlgorithm::default()),
            SolverKind::Annealing => Box::new(SimulatedAnnealing::default()),
            SolverKind::Quadratic => Box::new(QuadraticProgram::default()),
            SolverKind::NelderMead => Box::new(NelderMead::default()),
        }
    }

    /// [`Self::build`] with an optional restart-count override. The
    /// override applies to the restart-based solvers (gradient ascent, QP
    /// starts, Nelder–Mead); the population/step-based solvers (genetic,
    /// annealing) have no restart notion and ignore it. A zero override on
    /// a restart-based solver makes `maximize` return
    /// [`SolveError::NoRestarts`] instead of evaluating anything.
    pub fn build_with_restarts(self, restarts: Option<usize>) -> Box<dyn Optimizer> {
        let Some(r) = restarts else {
            return self.build();
        };
        match self {
            SolverKind::GradientAscent => Box::new(GradientAscent {
                restarts: r,
                ..Default::default()
            }),
            SolverKind::Quadratic => Box::new(QuadraticProgram {
                starts: r,
                ..Default::default()
            }),
            SolverKind::NelderMead => Box::new(NelderMead {
                restarts: r,
                ..Default::default()
            }),
            SolverKind::Genetic | SolverKind::Annealing => self.build(),
        }
    }

    /// Solver display name.
    pub fn name(self) -> &'static str {
        match self {
            SolverKind::GradientAscent => "SGD/Adam",
            SolverKind::Genetic => "genetic",
            SolverKind::Annealing => "annealing",
            SolverKind::Quadratic => "QP",
            SolverKind::NelderMead => "Nelder-Mead",
        }
    }
}

/// Why a validation run could not produce a verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// The optimizer backend failed structurally (no restarts configured,
    /// or every objective evaluation was NaN).
    Solver(SolveError),
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::Solver(e) => write!(f, "validation solver failed: {e}"),
        }
    }
}

impl std::error::Error for ValidationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ValidationError::Solver(e) => Some(e),
        }
    }
}

impl From<SolveError> for ValidationError {
    fn from(e: SolveError) -> Self {
        ValidationError::Solver(e)
    }
}

/// Validation configuration.
#[derive(Debug, Clone)]
pub struct ValidationConfig {
    /// Optimizer backend.
    pub solver: SolverKind,
    /// Pass/fail threshold on the maximized guarantee objective: the
    /// assertion passes when `max P₃ ≤ max(decision_threshold,
    /// 1.5 × feasibility_tol)`. Nonzero values absorb tomography noise and
    /// constraint-boundary slack.
    pub decision_threshold: f64,
    /// Accuracy threshold ε of Theorem 3 used for the confidence estimate.
    pub accuracy_threshold: f64,
    /// Box bound `|αᵢ| ≤ alpha_bound` for the search.
    pub alpha_bound: f64,
    /// Penalty weight for assumption/physicality violations.
    pub penalty_weight: f64,
    /// Violation level accepted as "feasible" when interpreting results.
    pub feasibility_tol: f64,
    /// Number of random probe inputs used to fit the accuracy Beta model.
    pub confidence_probes: usize,
    /// Overrides the solver's restart/start count (`None` keeps the
    /// solver's default). See [`SolverKind::build_with_restarts`]; a `0`
    /// override surfaces as [`ValidationError::Solver`].
    pub solver_restarts: Option<usize>,
}

impl Default for ValidationConfig {
    fn default() -> Self {
        ValidationConfig {
            solver: SolverKind::Quadratic,
            decision_threshold: 1e-4,
            accuracy_threshold: 0.9,
            alpha_bound: 2.0,
            penalty_weight: 50.0,
            feasibility_tol: 2e-2,
            confidence_probes: 40,
            solver_restarts: None,
        }
    }
}

/// The validation verdict.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// No feasible input violates the guarantee; `confidence` follows
    /// Theorem 3.
    Passed {
        /// Maximum guarantee objective found (≤ the decision threshold).
        max_objective: f64,
        /// Confidence that the verdict holds for all inputs.
        confidence: f64,
    },
    /// A feasible violating input exists.
    Failed {
        /// Maximum guarantee objective found.
        max_objective: f64,
        /// The violating input, projected to a valid density matrix.
        counterexample: CMatrix,
        /// Normalized coefficients of the violating point.
        alphas: Vec<f64>,
    },
}

impl Verdict {
    /// `true` for [`Verdict::Passed`].
    pub fn passed(&self) -> bool {
        matches!(self, Verdict::Passed { .. })
    }
}

/// Full validation output: verdict plus solver and confidence diagnostics.
#[derive(Debug, Clone)]
pub struct ValidationOutcome {
    /// The verdict.
    pub verdict: Verdict,
    /// Raw optimizer result over the penalized objective.
    pub optimum: OptResult,
    /// Fitted accuracy distribution used for Theorem 3.
    pub confidence_model: ConfidenceModel,
    /// `true` when the optimizer's point was *degenerate* — a non-finite
    /// coordinate or an un-normalizable gauge sum — and the verdict came
    /// entirely from the sampled-input candidate pool. Distinguishes "the
    /// landscape maximum is feasible and negative" from "the solver never
    /// produced a usable point".
    pub degenerate_optimum: bool,
}

/// Shared evaluation context: resolves states and scores points. One per
/// assertion, shared by the solver's objective and the interpretation of
/// its optimum; it borrows the characterization's traces.
struct Context<'a> {
    assertion: &'a AssumeGuarantee,
    input_basis: Vec<CMatrix>,
    traces: &'a std::collections::BTreeMap<morph_qprog::TracepointId, Vec<CMatrix>>,
}

impl<'a> Context<'a> {
    fn new(assertion: &'a AssumeGuarantee, characterization: &'a Characterization) -> Self {
        Context {
            assertion,
            input_basis: characterization
                .inputs
                .iter()
                .map(|i| i.rho.clone())
                .collect(),
            traces: &characterization.traces,
        }
    }

    /// The violation at each sampled input's unit coefficient vector `eᵢ`
    /// (the anchors), in sample order.
    fn anchor_violations(&self) -> Vec<f64> {
        let n = self.input_basis.len();
        (0..n).map(|i| self.violation(&unit(n, i))).collect()
    }

    /// Gauge-fixed coefficients: scaled so `Σ α = 1` (unit input trace).
    /// For sums in `(0.05, 0.5)` the divisor is clamped at 0.5, leaving a
    /// sub-unit trace that the violation term penalizes smoothly — this
    /// keeps the landscape free of the deep cliffs a raw `α/Σα` creates
    /// near `Σα = 0`. Returns `None` when the sum is too small entirely.
    fn normalize(&self, alphas: &[f64]) -> Option<Vec<f64>> {
        let s: f64 = alphas.iter().sum();
        // A non-finite sum (any NaN/∞ coordinate) has no gauge; without
        // this check a NaN sum slips past the magnitude test (every
        // comparison with NaN is false) and poisons everything downstream.
        if !s.is_finite() || s.abs() < 0.05 {
            return None;
        }
        let divisor = s.signum() * s.abs().max(0.5);
        Some(alphas.iter().map(|a| a / divisor).collect())
    }

    fn resolve(&self, state: StateRef, alphas: &[f64]) -> CMatrix {
        match state {
            StateRef::Input => morph_linalg::recombine(&self.input_basis, alphas),
            StateRef::Tracepoint(id) => morph_linalg::recombine(&self.traces[&id], alphas),
        }
    }

    fn guarantee_value(&self, alphas: &[f64]) -> f64 {
        match self.assertion.guarantee_clause() {
            Guarantee::Single(s, p) => p.objective(&self.resolve(*s, alphas)),
            Guarantee::Relation(a, b, p) => {
                p.objective(&self.resolve(*a, alphas), &self.resolve(*b, alphas))
            }
        }
    }

    /// Maximum assumption/physicality violation at gauge-fixed `alphas`.
    fn violation(&self, alphas: &[f64]) -> f64 {
        let mut v: f64 = 0.0;
        for (s, p) in self.assertion.assumptions() {
            v = v.max(p.objective(&self.resolve(*s, alphas)).max(0.0));
        }
        let rho_in = morph_linalg::recombine(&self.input_basis, alphas);
        v = v.max((rho_in.trace().re - 1.0).abs());
        v = v.max((rho_in.frobenius_norm() - 1.0).max(0.0));
        v
    }

    /// Penalized objective over raw (un-normalized) coefficients.
    fn penalized(&self, raw: &[f64], weight: f64) -> f64 {
        match self.normalize(raw) {
            // Degenerate gauge region: the worst value in the landscape,
            // with a slope toward a usable trace so local methods escape.
            None => {
                let s: f64 = raw.iter().sum();
                -weight * (4.0 + (0.05 - s.abs()))
            }
            // Violation penalty capped so infeasible regions slope back
            // toward feasibility instead of forming cliffs deeper than the
            // degenerate plateau.
            Some(alphas) => {
                let g = self.guarantee_value(&alphas);
                let v = self.violation(&alphas);
                g - weight * (v * v).min(4.0) - v.min(2.0)
            }
        }
    }
}

/// Validates an assertion against a characterization, reporting solver
/// failures as errors.
///
/// # Errors
///
/// [`ValidationError::Solver`] when the optimizer backend cannot produce a
/// usable optimum (zero restarts configured, or every objective evaluation
/// returned NaN).
///
/// # Panics
///
/// Panics if the assertion has no guarantee, references a tracepoint that
/// was not characterized, or relates states of mismatched dimension.
pub fn try_validate_assertion(
    assertion: &AssumeGuarantee,
    characterization: &Characterization,
    config: &ValidationConfig,
    rng: &mut StdRng,
) -> Result<ValidationOutcome, ValidationError> {
    assert!(assertion.is_complete(), "assertion has no guarantee clause");
    for state in assertion.state_refs() {
        if let StateRef::Tracepoint(id) = state {
            assert!(
                characterization.traces.contains_key(&id),
                "assertion references uncharacterized tracepoint {id}"
            );
        }
    }
    let _trace = morph_trace::span("validate/assertion");
    let ctx = Context::new(assertion, characterization);
    let n_alphas = ctx.input_basis.len();

    // The optimizer sees the penalized, gauge-fixed objective.
    let weight = config.penalty_weight;
    let objective = FnObjective::new(n_alphas, |raw: &[f64]| ctx.penalized(raw, weight));

    let bounds = Bounds::uniform(n_alphas, -config.alpha_bound, config.alpha_bound);
    let solver = config.solver.build_with_restarts(config.solver_restarts);
    let optimum = solver.maximize(&objective, &bounds, rng)?;
    morph_trace::counter("solver_evaluations", optimum.evaluations);
    morph_trace::counter("solver_iterations", optimum.iterations as u64);

    // Interpret the optimum under the gauge, repairing marginal
    // infeasibility by retracting toward a feasible sampled input.
    let anchor_violations = ctx.anchor_violations();
    let point = interpret_optimum(&ctx, &optimum.x, &anchor_violations, config.feasibility_tol);
    let degenerate_optimum = matches!(point, InterpretedPoint::Degenerate);
    let (mut max_objective, mut feasible, mut alphas) = match point {
        InterpretedPoint::Feasible { objective, alphas } => (objective, true, alphas),
        InterpretedPoint::Infeasible { objective, alphas } => (objective, false, alphas),
        InterpretedPoint::Degenerate => {
            morph_trace::counter("degenerate_points", 1);
            (f64::NEG_INFINITY, false, vec![0.0; n_alphas])
        }
    };

    // Candidate pool: every sampled input is itself a feasible-by-
    // construction probe (α = eᵢ reconstructs σ_in,i exactly); a violation
    // visible at a sampled input must never be lost to optimizer
    // fragility on the kinked penalty landscape.
    morph_trace::counter("anchor_candidates", n_alphas as u64);
    for (i, &v) in anchor_violations.iter().enumerate() {
        if v <= config.feasibility_tol {
            let e = unit(n_alphas, i);
            let g = ctx.guarantee_value(&e);
            if g.is_finite() && (!feasible || g > max_objective) {
                max_objective = g;
                feasible = true;
                alphas = e;
            }
        }
    }

    // Accuracy distribution for Theorem 3 (depends only on the input span).
    let confidence_model = fit_confidence_model(characterization, config.confidence_probes, rng);

    // Assumptions only hold up to `feasibility_tol`, so the guarantee gets
    // the same slack: a coupled assume/guarantee pair (e.g. pure ⇒ pure)
    // evaluates to ≈ the boundary violation at the repaired point and must
    // not be misread as a bug.
    let effective_threshold = config.decision_threshold.max(1.5 * config.feasibility_tol);
    morph_trace::gauge("max_objective", max_objective);
    let verdict = if feasible && max_objective > effective_threshold {
        let raw = morph_linalg::recombine(&ctx.input_basis, &alphas);
        Verdict::Failed {
            max_objective,
            counterexample: project_to_density(&raw),
            alphas,
        }
    } else {
        Verdict::Passed {
            max_objective: if max_objective.is_finite() {
                max_objective
            } else {
                0.0
            },
            confidence: confidence_model.confidence(config.accuracy_threshold),
        }
    };

    Ok(ValidationOutcome {
        verdict,
        optimum,
        confidence_model,
        degenerate_optimum,
    })
}

/// An optimizer point after gauge interpretation.
#[derive(Debug, Clone, PartialEq)]
enum InterpretedPoint {
    /// The point (possibly retracted) satisfies every constraint.
    Feasible { objective: f64, alphas: Vec<f64> },
    /// The point violates the constraints and no feasible anchor exists to
    /// retract toward.
    Infeasible { objective: f64, alphas: Vec<f64> },
    /// The point carries no information: a non-finite coordinate, or a
    /// gauge sum too small (or non-finite) to normalize. Previously this
    /// was conflated with `Infeasible` at `NEG_INFINITY` — and a NaN point
    /// could even escape *as feasible*, because the retraction blend
    /// `b + t·(NaN − b)` is NaN at every `t` while the bisection silently
    /// converged to `t = 0`.
    Degenerate,
}

/// Interprets a raw optimizer point: gauge-fix, and if the point violates
/// the constraints, retract it along the segment toward the most-feasible
/// unit coefficient vector (each `eᵢ` reconstructs the sampled input
/// `σ_in,i`, a physical state) until it re-enters the feasible set.
/// `anchor_violations` is [`Context::anchor_violations`].
fn interpret_optimum(
    ctx: &Context<'_>,
    raw: &[f64],
    anchor_violations: &[f64],
    tol: f64,
) -> InterpretedPoint {
    if raw.iter().any(|v| !v.is_finite()) {
        return InterpretedPoint::Degenerate;
    }
    let Some(alphas) = ctx.normalize(raw) else {
        return InterpretedPoint::Degenerate;
    };
    let v = ctx.violation(&alphas);
    if v <= tol {
        let objective = ctx.guarantee_value(&alphas);
        return InterpretedPoint::Feasible { objective, alphas };
    }
    // Base point: the sampled-input coefficient vector with least violation.
    let mut best = (f64::INFINITY, 0usize);
    for (i, &vi) in anchor_violations.iter().enumerate() {
        if vi < best.0 {
            best = (vi, i);
        }
    }
    if best.0 > tol {
        // No feasible anchor — report the raw point as infeasible.
        morph_trace::counter("no_feasible_anchor", 1);
        return InterpretedPoint::Infeasible {
            objective: ctx.guarantee_value(&alphas),
            alphas,
        };
    }
    let base = unit(alphas.len(), best.1);
    morph_trace::counter("infeasible_retractions", 1);
    // Largest t ∈ [0, 1] with violation(base + t(α − base)) ≤ tol.
    let blend = |t: f64| -> Vec<f64> {
        base.iter()
            .zip(&alphas)
            .map(|(&b, &a)| b + t * (a - b))
            .collect()
    };
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        if ctx.violation(&blend(mid)) <= tol {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let repaired = blend(lo);
    let objective = ctx.guarantee_value(&repaired);
    InterpretedPoint::Feasible {
        objective,
        alphas: repaired,
    }
}

/// The unit coefficient vector `eᵢ` of length `n`.
fn unit(n: usize, i: usize) -> Vec<f64> {
    let mut e = vec![0.0; n];
    e[i] = 1.0;
    e
}

/// Fits the Beta accuracy model by probing random inputs against the
/// characterized span (the distribution of Fig 6).
pub fn fit_confidence_model(
    characterization: &Characterization,
    probes: usize,
    rng: &mut StdRng,
) -> ConfidenceModel {
    use morph_clifford::InputEnsemble;
    let _trace = morph_trace::span("validate/confidence");
    let n_in = characterization.inputs[0].state.n_qubits();
    let any_trace = characterization
        .traces
        .keys()
        .next()
        .copied()
        .expect("characterization has tracepoints");
    let f = characterization.approximation(any_trace);
    let probe_inputs = InputEnsemble::Clifford.generate(n_in, probes.max(2), rng);
    let samples: Vec<f64> = probe_inputs
        .iter()
        .map(|p| f.representation_overlap(&p.rho).unwrap_or(0.0))
        .collect();
    let model = ConfidenceModel::fit(&samples);
    morph_trace::counter("confidence_probes", samples.len() as u64);
    morph_trace::gauge("beta1", model.beta1);
    morph_trace::gauge("beta2", model.beta2);
    model
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assertion::AssumeGuarantee;
    use crate::cancel::CancelToken;
    use crate::characterize::{try_characterize, CharacterizationConfig};
    use crate::predicate::{RelationPredicate, StatePredicate};
    use morph_clifford::InputEnsemble;
    use morph_qprog::Circuit;
    use rand::SeedableRng;

    /// Identity program: input on qubit 0 traced before and after.
    fn identity_program() -> Circuit {
        let mut c = Circuit::new(1);
        c.tracepoint(1, &[0]);
        c.h(0).h(0); // identity
        c.tracepoint(2, &[0]);
        c
    }

    /// Bit-flip program.
    fn flip_program() -> Circuit {
        let mut c = Circuit::new(1);
        c.tracepoint(1, &[0]);
        c.x(0);
        c.tracepoint(2, &[0]);
        c
    }

    fn full_characterization(circuit: &Circuit, seed: u64) -> Characterization {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = CharacterizationConfig {
            ensemble: InputEnsemble::PauliProduct,
            ..CharacterizationConfig::exact(vec![0], 4)
        };
        try_characterize(circuit, &config, &mut rng, &CancelToken::new()).unwrap()
    }

    #[test]
    fn identity_program_passes_equality_assertion() {
        let ch = full_characterization(&identity_program(), 0);
        let assertion = AssumeGuarantee::new()
            .assume(morph_qprog::TracepointId(1), StatePredicate::IsPure)
            .guarantee_relation(
                morph_qprog::TracepointId(1),
                morph_qprog::TracepointId(2),
                RelationPredicate::Equal,
            );
        let mut rng = StdRng::seed_from_u64(1);
        let out = try_validate_assertion(&assertion, &ch, &ValidationConfig::default(), &mut rng)
            .unwrap();
        assert!(
            out.verdict.passed(),
            "identity must satisfy T1 == T2: {:?}",
            out.verdict
        );
        if let Verdict::Passed { confidence, .. } = out.verdict {
            assert!(
                confidence > 0.5,
                "full span ⇒ high confidence, got {confidence}"
            );
        }
    }

    #[test]
    fn flip_program_fails_equality_assertion_with_counterexample() {
        let ch = full_characterization(&flip_program(), 0);
        let assertion = AssumeGuarantee::new().guarantee_relation(
            morph_qprog::TracepointId(1),
            morph_qprog::TracepointId(2),
            RelationPredicate::Equal,
        );
        let mut rng = StdRng::seed_from_u64(2);
        let out = try_validate_assertion(&assertion, &ch, &ValidationConfig::default(), &mut rng)
            .unwrap();
        match out.verdict {
            Verdict::Failed {
                counterexample,
                max_objective,
                ..
            } => {
                assert!(
                    max_objective > 0.5,
                    "X flips states far apart: {max_objective}"
                );
                assert!(morph_linalg::is_density_matrix(&counterexample, 1e-6));
                // The counter-example must genuinely be moved by X.
                let x = morph_qsim::matrices::x();
                let flipped = x.matmul(&counterexample).matmul(&x);
                assert!((&flipped - &counterexample).frobenius_norm() > 0.3);
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn flip_program_passes_flip_assertion() {
        // Guarantee: T2 equals X·T1·X — the correct spec for a NOT program.
        let ch = full_characterization(&flip_program(), 0);
        let x = morph_qsim::matrices::x();
        let assertion = AssumeGuarantee::new().guarantee_relation(
            morph_qprog::TracepointId(1),
            morph_qprog::TracepointId(2),
            RelationPredicate::custom(move |t1, t2| {
                (&x.matmul(t1).matmul(&x) - t2).frobenius_norm()
            }),
        );
        let mut rng = StdRng::seed_from_u64(3);
        let out = try_validate_assertion(&assertion, &ch, &ValidationConfig::default(), &mut rng)
            .unwrap();
        assert!(out.verdict.passed(), "{:?}", out.verdict);
    }

    #[test]
    fn assumptions_prune_the_search_space() {
        // Flip program with guarantee "T2 == |1><1|" fails in general but
        // passes under the assumption that the input is |0><0|.
        let ch = full_characterization(&flip_program(), 0);
        let one = CMatrix::outer(
            &[morph_linalg::C64::ZERO, morph_linalg::C64::ONE],
            &[morph_linalg::C64::ZERO, morph_linalg::C64::ONE],
        );
        let zero = CMatrix::outer(
            &[morph_linalg::C64::ONE, morph_linalg::C64::ZERO],
            &[morph_linalg::C64::ONE, morph_linalg::C64::ZERO],
        );
        let unconstrained = AssumeGuarantee::new().guarantee_state(
            morph_qprog::TracepointId(2),
            StatePredicate::equals(one.clone()),
        );
        let constrained = AssumeGuarantee::new()
            .assume(StateRef::Input, StatePredicate::equals(zero))
            .guarantee_state(morph_qprog::TracepointId(2), StatePredicate::equals(one));
        let mut rng = StdRng::seed_from_u64(4);
        let config = ValidationConfig {
            decision_threshold: 0.05,
            ..Default::default()
        };
        let out_u = try_validate_assertion(&unconstrained, &ch, &config, &mut rng).unwrap();
        let out_c = try_validate_assertion(&constrained, &ch, &config, &mut rng).unwrap();
        assert!(
            !out_u.verdict.passed(),
            "without assumption some input violates"
        );
        assert!(
            out_c.verdict.passed(),
            "with input pinned to |0> the guarantee holds: {:?}",
            out_c.verdict
        );
    }

    #[test]
    fn solver_kinds_all_decide_the_easy_case() {
        let ch = full_characterization(&identity_program(), 0);
        let assertion = AssumeGuarantee::new().guarantee_relation(
            morph_qprog::TracepointId(1),
            morph_qprog::TracepointId(2),
            RelationPredicate::Equal,
        );
        for solver in [
            SolverKind::GradientAscent,
            SolverKind::Genetic,
            SolverKind::Annealing,
            SolverKind::Quadratic,
            SolverKind::NelderMead,
        ] {
            let mut rng = StdRng::seed_from_u64(5);
            let config = ValidationConfig {
                solver,
                ..Default::default()
            };
            let out = try_validate_assertion(&assertion, &ch, &config, &mut rng).unwrap();
            assert!(
                out.verdict.passed(),
                "{} failed the identity case",
                solver.name()
            );
        }
    }

    #[test]
    fn solver_kinds_all_find_the_flip_bug() {
        let ch = full_characterization(&flip_program(), 0);
        let assertion = AssumeGuarantee::new().guarantee_relation(
            morph_qprog::TracepointId(1),
            morph_qprog::TracepointId(2),
            RelationPredicate::Equal,
        );
        for solver in [
            SolverKind::GradientAscent,
            SolverKind::Genetic,
            SolverKind::Annealing,
            SolverKind::Quadratic,
            SolverKind::NelderMead,
        ] {
            let mut rng = StdRng::seed_from_u64(6);
            let config = ValidationConfig {
                solver,
                ..Default::default()
            };
            let out = try_validate_assertion(&assertion, &ch, &config, &mut rng).unwrap();
            assert!(
                !out.verdict.passed(),
                "{} missed the flip bug: {:?} optimum {:?}",
                solver.name(),
                out.verdict,
                out.optimum
            );
        }
    }

    #[test]
    #[should_panic(expected = "uncharacterized tracepoint")]
    fn unknown_tracepoint_rejected() {
        let ch = full_characterization(&identity_program(), 0);
        let assertion = AssumeGuarantee::new()
            .guarantee_state(morph_qprog::TracepointId(9), StatePredicate::IsPure);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = try_validate_assertion(&assertion, &ch, &ValidationConfig::default(), &mut rng)
            .unwrap();
    }

    #[test]
    fn zero_restart_override_is_a_structured_error() {
        let ch = full_characterization(&identity_program(), 0);
        let assertion = AssumeGuarantee::new().guarantee_relation(
            morph_qprog::TracepointId(1),
            morph_qprog::TracepointId(2),
            RelationPredicate::Equal,
        );
        let mut rng = StdRng::seed_from_u64(1);
        let config = ValidationConfig {
            solver_restarts: Some(0),
            ..Default::default()
        };
        match try_validate_assertion(&assertion, &ch, &config, &mut rng) {
            Err(ValidationError::Solver(morph_optimize::SolveError::NoRestarts { .. })) => {}
            other => panic!("expected NoRestarts error, got {other:?}"),
        }
    }

    #[test]
    fn restart_override_still_validates() {
        let ch = full_characterization(&identity_program(), 0);
        let assertion = AssumeGuarantee::new().guarantee_relation(
            morph_qprog::TracepointId(1),
            morph_qprog::TracepointId(2),
            RelationPredicate::Equal,
        );
        let mut rng = StdRng::seed_from_u64(2);
        let config = ValidationConfig {
            solver_restarts: Some(2),
            ..Default::default()
        };
        let out = try_validate_assertion(&assertion, &ch, &config, &mut rng).unwrap();
        assert!(out.verdict.passed(), "{:?}", out.verdict);
    }

    /// Regression: a NaN raw point used to slip through `interpret_optimum`
    /// as *feasible* — the retraction blend `b + t·(NaN − b)` is NaN at
    /// every `t` while the bisection converged to `t = 0` — and before
    /// that, as `(NEG_INFINITY, false, [0.0; n])`, indistinguishable from a
    /// genuinely infeasible point.
    #[test]
    fn nan_raw_point_is_degenerate() {
        let ch = full_characterization(&identity_program(), 0);
        let assertion = AssumeGuarantee::new().guarantee_relation(
            morph_qprog::TracepointId(1),
            morph_qprog::TracepointId(2),
            RelationPredicate::Equal,
        );
        let ctx = Context::new(&assertion, &ch);
        let n = ctx.input_basis.len();
        let mut raw = vec![0.3; n];
        raw[0] = f64::NAN;
        assert_eq!(
            interpret_optimum(&ctx, &raw, &ctx.anchor_violations(), 2e-2),
            InterpretedPoint::Degenerate
        );
        // An un-normalizable gauge sum is degenerate too.
        assert_eq!(
            interpret_optimum(&ctx, &vec![0.0; n], &ctx.anchor_violations(), 2e-2),
            InterpretedPoint::Degenerate
        );
    }

    /// Regression: when no sampled-input anchor is feasible, the point must
    /// come back as `Infeasible` with its real objective — not retracted,
    /// not degenerate, and never panicking.
    #[test]
    fn all_anchors_infeasible_reports_infeasible_point() {
        let ch = full_characterization(&identity_program(), 0);
        // An assumption nothing satisfies: constant violation 1.
        let assertion = AssumeGuarantee::new()
            .assume(StateRef::Input, StatePredicate::custom(|_| 1.0))
            .guarantee_relation(
                morph_qprog::TracepointId(1),
                morph_qprog::TracepointId(2),
                RelationPredicate::Equal,
            );
        let ctx = Context::new(&assertion, &ch);
        let n = ctx.input_basis.len();
        let raw = vec![1.0 / n as f64; n];
        match interpret_optimum(&ctx, &raw, &ctx.anchor_violations(), 2e-2) {
            InterpretedPoint::Infeasible { objective, alphas } => {
                assert!(objective.is_finite());
                assert_eq!(alphas.len(), n);
            }
            other => panic!("expected Infeasible, got {other:?}"),
        }
        // End to end the assertion passes (no feasible violating input) and
        // the outcome is marked non-degenerate.
        let mut rng = StdRng::seed_from_u64(3);
        let out = try_validate_assertion(&assertion, &ch, &ValidationConfig::default(), &mut rng)
            .unwrap();
        assert!(out.verdict.passed(), "{:?}", out.verdict);
    }

    /// Every float of an outcome as bits: the verdict's objective and its
    /// confidence (PASS) or coefficients (FAIL), the raw optimum, and the
    /// confidence model.
    fn outcome_bits(out: &ValidationOutcome) -> Vec<u64> {
        let mut bits = Vec::new();
        match &out.verdict {
            Verdict::Passed {
                max_objective,
                confidence,
            } => bits.extend([max_objective.to_bits(), confidence.to_bits()]),
            Verdict::Failed {
                max_objective,
                alphas,
                ..
            } => {
                bits.push(max_objective.to_bits());
                bits.extend(alphas.iter().map(|a| a.to_bits()));
            }
        }
        bits.push(out.optimum.value.to_bits());
        bits.extend(out.optimum.x.iter().map(|v| v.to_bits()));
        bits.push(out.confidence_model.beta1.to_bits());
        bits.push(out.confidence_model.beta2.to_bits());
        bits
    }

    /// Validation outcomes pinned bit for bit. The QP's fixed-point exit,
    /// the factored Gram solve behind the confidence probes and the shared
    /// anchor violations are exact rewrites, so none of them may move a
    /// bit: a PASS on a partial span (so the confidence model is a real
    /// fit), a FAIL whose witness is a retracted point, and the spec no
    /// anchor satisfies.
    #[test]
    fn validation_outcomes_are_pinned_bit_for_bit() {
        let validate = |assertion: &AssumeGuarantee, ch: &Characterization, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let out = try_validate_assertion(assertion, ch, &ValidationConfig::default(), &mut rng)
                .unwrap();
            assert_eq!(out.optimum.iterations, 800, "QP budget: 200 × 4 starts");
            out
        };

        // PASS: 2 input qubits, 6 of the 16 samples a full span needs.
        let mut c = Circuit::new(2);
        c.tracepoint(1, &[0, 1]);
        c.h(0).cx(0, 1).cx(0, 1).h(0);
        c.tracepoint(2, &[0, 1]);
        let config = CharacterizationConfig::exact(vec![0, 1], 6);
        let partial = try_characterize(
            &c,
            &config,
            &mut StdRng::seed_from_u64(11),
            &CancelToken::new(),
        )
        .unwrap();
        let pure_equal = AssumeGuarantee::new()
            .assume(morph_qprog::TracepointId(1), StatePredicate::IsPure)
            .guarantee_relation(
                morph_qprog::TracepointId(1),
                morph_qprog::TracepointId(2),
                RelationPredicate::Equal,
            );
        let out = validate(&pure_equal, &partial, 1);
        assert!(out.verdict.passed());
        assert_eq!(out.optimum.evaluations, 77);
        assert_eq!(
            outcome_bits(&out),
            [
                0x3cc0001cffe5b830,
                0x3f972b9d73b54a40,
                0xc01b351d3560973e,
                0xc000000000000000,
                0xc000000000000000,
                0xc000000000000000,
                0xc000000000000000,
                0xc000000000000000,
                0xc000000000000000,
                0x3ff13b55282e453c,
                0x3ffaffdff779b0a9,
            ]
        );

        // FAIL: the input must keep P(1) ≈ 0, and the guarantee grows with
        // the X coherence, so the witness is the optimum (the mixed mean of
        // the samples) retracted toward the |0⟩ anchor, not an anchor.
        let ch = full_characterization(&identity_program(), 0);
        let coherent = AssumeGuarantee::new()
            .assume(StateRef::Input, StatePredicate::custom(|r| r[(1, 1)].re))
            .guarantee_state(
                morph_qprog::TracepointId(2),
                StatePredicate::custom(|r| 10.0 * r[(0, 1)].re),
            );
        let out = validate(&coherent, &ch, 0);
        match &out.verdict {
            Verdict::Failed { alphas, .. } => {
                assert!(
                    alphas.iter().filter(|&&a| a != 0.0).count() > 1,
                    "{alphas:?}"
                );
            }
            other => panic!("expected a retracted FAIL, got {other:?}"),
        }
        assert_eq!(out.optimum.evaluations, 37);
        assert_eq!(
            outcome_bits(&out),
            [
                0x3fa9999999997ffc,
                0x3fef0a3d70a3d800,
                0x3f847ae147ae0000,
                0x3f847ae147ae0000,
                0x3f847ae147ae0000,
                0xc027800000000000,
                0xc000000000000000,
                0xc000000000000000,
                0xc000000000000000,
                0xc000000000000000,
                0x40c387feb851eb86,
                0x3f847ae1479d1400,
            ]
        );

        // The spec no anchor satisfies (see the test above).
        let unsatisfiable = AssumeGuarantee::new()
            .assume(StateRef::Input, StatePredicate::custom(|_| 1.0))
            .guarantee_relation(
                morph_qprog::TracepointId(1),
                morph_qprog::TracepointId(2),
                RelationPredicate::Equal,
            );
        let out = validate(&unsatisfiable, &ch, 3);
        assert!(out.verdict.passed());
        assert_eq!(out.optimum.evaluations, 37);
        assert_eq!(
            outcome_bits(&out),
            [
                0x3cb6fa6ea162d0f0,
                0x3ff0000000000000,
                0xc049800000000000,
                0x4000000000000000,
                0x4000000000000000,
                0x4000000000000000,
                0x4000000000000000,
                0x40c387feb851eb86,
                0x3f847ae1479d1400,
            ]
        );
    }

    /// A guarantee that evaluates to NaN everywhere must not crash the
    /// pipeline: the solver's surviving point is the (finite) degenerate
    /// plateau, interpretation flags it, and the candidate pool's NaN
    /// guarantee values are ignored.
    #[test]
    fn nan_guarantee_flags_degenerate_and_passes() {
        let ch = full_characterization(&identity_program(), 0);
        let assertion = AssumeGuarantee::new().guarantee_relation(
            morph_qprog::TracepointId(1),
            morph_qprog::TracepointId(2),
            RelationPredicate::custom(|_, _| f64::NAN),
        );
        let mut rng = StdRng::seed_from_u64(4);
        let out = try_validate_assertion(&assertion, &ch, &ValidationConfig::default(), &mut rng)
            .unwrap();
        assert!(out.verdict.passed(), "{:?}", out.verdict);
        if let Verdict::Passed { max_objective, .. } = out.verdict {
            assert!(max_objective.is_finite());
        }
    }
}
