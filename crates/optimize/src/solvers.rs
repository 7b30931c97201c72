//! Maximization solvers: Adam-style gradient ascent, a genetic algorithm,
//! simulated annealing, and a quadratic-programming solver (projected
//! gradient with exact quadratic line search) standing in for Gurobi.
//!
//! All solvers rank candidates with the NaN-last total order from
//! [`crate::error`]: a NaN objective value can never win a restart, and a
//! configuration that evaluates nothing (or only NaNs) returns a
//! [`SolveError`] instead of panicking.

use rand::rngs::StdRng;
use rand::Rng;

use crate::error::{nan_improves, nan_last_cmp, SolveError};
use crate::objective::{Bounds, Objective, OptResult};

/// A maximizer over a box-bounded search space.
///
/// All solvers are deterministic given the RNG; experiments seed it.
pub trait Optimizer {
    /// Maximizes `objective` inside `bounds`.
    ///
    /// # Errors
    ///
    /// [`SolveError::NoRestarts`] when the configuration evaluates no
    /// candidate at all (zero restarts / starts / population), and
    /// [`SolveError::AllEvaluationsNaN`] when every evaluated candidate had
    /// a NaN objective value.
    fn maximize(
        &self,
        objective: &dyn Objective,
        bounds: &Bounds,
        rng: &mut StdRng,
    ) -> Result<OptResult, SolveError>;

    /// Human-readable solver name (used in Fig 15(b) reports).
    fn name(&self) -> &'static str;
}

/// Projected Adam gradient ascent with random restarts.
///
/// Restarts are independent, so they run across `parallelism` worker
/// threads; each restart seeds its own RNG stream from one master draw, so
/// the result is bit-identical at every worker count.
#[derive(Debug, Clone)]
pub struct GradientAscent {
    /// Adam step size.
    pub learning_rate: f64,
    /// Iterations per restart.
    pub iterations: usize,
    /// Number of random restarts.
    pub restarts: usize,
    /// Worker threads for the restarts (`0` = all cores, `1` = serial).
    pub parallelism: usize,
}

impl Default for GradientAscent {
    fn default() -> Self {
        GradientAscent {
            learning_rate: 0.05,
            iterations: 300,
            restarts: 4,
            parallelism: 1,
        }
    }
}

impl Optimizer for GradientAscent {
    fn maximize(
        &self,
        objective: &dyn Objective,
        bounds: &Bounds,
        rng: &mut StdRng,
    ) -> Result<OptResult, SolveError> {
        if self.restarts == 0 {
            return Err(SolveError::NoRestarts {
                solver: self.name(),
            });
        }
        let trace = morph_trace::span("optimize/gradient-ascent");
        let trace_parent = trace.id();
        morph_trace::counter("restarts", self.restarts as u64);

        let dim = objective.dim();
        let (beta1, beta2, eps) = (0.9, 0.999, 1e-8);
        let master = morph_parallel::derive_master(rng);
        let runs =
            morph_parallel::parallel_map_indices(self.parallelism, self.restarts, |restart| {
                let _restart_span = morph_trace::span_under(trace_parent, "restart");
                let mut task_rng = morph_parallel::child_rng(master, restart as u64);
                let mut evaluations = 0u64;
                let mut x = bounds.sample(&mut task_rng);
                let mut m = vec![0.0; dim];
                let mut v = vec![0.0; dim];
                let mut grad = vec![0.0; dim];
                for t in 1..=self.iterations {
                    objective.gradient(&x, &mut grad);
                    evaluations += 2 * dim as u64;
                    for i in 0..dim {
                        m[i] = beta1 * m[i] + (1.0 - beta1) * grad[i];
                        v[i] = beta2 * v[i] + (1.0 - beta2) * grad[i] * grad[i];
                        let mh = m[i] / (1.0 - beta1.powi(t as i32));
                        let vh = v[i] / (1.0 - beta2.powi(t as i32));
                        x[i] += self.learning_rate * mh / (vh.sqrt() + eps);
                    }
                    bounds.project(&mut x);
                }
                let value = objective.value(&x);
                evaluations += 1;
                morph_trace::counter("iterations", self.iterations as u64);
                morph_trace::counter("evaluations", evaluations);
                morph_trace::gauge("restart_value", value);
                (x, value, evaluations)
            });
        let result = best_of_restarts(self.name(), runs, self.iterations * self.restarts)?;
        morph_trace::gauge("best_objective", result.value);
        Ok(result)
    }

    fn name(&self) -> &'static str {
        "gradient-ascent (Adam)"
    }
}

/// Tournament-selection genetic algorithm with blend crossover and Gaussian
/// mutation.
#[derive(Debug, Clone)]
pub struct GeneticAlgorithm {
    /// Population size.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// Mutation step as a fraction of the bound width.
    pub mutation_scale: f64,
}

impl Default for GeneticAlgorithm {
    fn default() -> Self {
        GeneticAlgorithm {
            population: 60,
            generations: 80,
            mutation_rate: 0.15,
            mutation_scale: 0.1,
        }
    }
}

impl Optimizer for GeneticAlgorithm {
    fn maximize(
        &self,
        objective: &dyn Objective,
        bounds: &Bounds,
        rng: &mut StdRng,
    ) -> Result<OptResult, SolveError> {
        if self.population == 0 {
            return Err(SolveError::NoRestarts {
                solver: self.name(),
            });
        }
        let _trace = morph_trace::span("optimize/genetic-algorithm");
        let dim = objective.dim();
        let mut population: Vec<Vec<f64>> =
            (0..self.population).map(|_| bounds.sample(rng)).collect();
        let mut fitness: Vec<f64> = population.iter().map(|x| objective.value(x)).collect();
        let mut evaluations = self.population as u64;

        let mut best_idx = argmax(&fitness);
        let mut best_x = population[best_idx].clone();
        let mut best_v = fitness[best_idx];

        for _ in 0..self.generations {
            let mut next = Vec::with_capacity(self.population);
            // Elitism: carry over the best individual.
            next.push(best_x.clone());
            while next.len() < self.population {
                let a = tournament(&fitness, rng);
                let b = tournament(&fitness, rng);
                let mut child = vec![0.0; dim];
                let blend: f64 = rng.gen();
                for i in 0..dim {
                    child[i] = blend * population[a][i] + (1.0 - blend) * population[b][i];
                    if rng.gen::<f64>() < self.mutation_rate {
                        let width = bounds.upper()[i] - bounds.lower()[i];
                        child[i] += gaussian(rng) * self.mutation_scale * width;
                    }
                }
                bounds.project(&mut child);
                next.push(child);
            }
            population = next;
            fitness = population.iter().map(|x| objective.value(x)).collect();
            evaluations += self.population as u64;
            best_idx = argmax(&fitness);
            if nan_improves(fitness[best_idx], best_v) {
                best_v = fitness[best_idx];
                best_x = population[best_idx].clone();
            }
            morph_trace::gauge("best_objective", best_v);
        }
        if best_v.is_nan() {
            return Err(SolveError::AllEvaluationsNaN {
                solver: self.name(),
                evaluations,
            });
        }
        morph_trace::counter("iterations", self.generations as u64);
        morph_trace::counter("evaluations", evaluations);
        Ok(OptResult {
            x: best_x,
            value: best_v,
            iterations: self.generations,
            evaluations,
        })
    }

    fn name(&self) -> &'static str {
        "genetic algorithm"
    }
}

/// Simulated annealing with geometric cooling.
#[derive(Debug, Clone)]
pub struct SimulatedAnnealing {
    /// Total proposal steps.
    pub iterations: usize,
    /// Initial temperature.
    pub initial_temperature: f64,
    /// Multiplicative cooling factor per step.
    pub cooling: f64,
    /// Proposal step as a fraction of the bound width.
    pub step_scale: f64,
}

impl Default for SimulatedAnnealing {
    fn default() -> Self {
        SimulatedAnnealing {
            iterations: 4000,
            initial_temperature: 1.0,
            cooling: 0.999,
            step_scale: 0.1,
        }
    }
}

impl Optimizer for SimulatedAnnealing {
    fn maximize(
        &self,
        objective: &dyn Objective,
        bounds: &Bounds,
        rng: &mut StdRng,
    ) -> Result<OptResult, SolveError> {
        let _trace = morph_trace::span("optimize/simulated-annealing");
        let dim = objective.dim();
        let mut x = bounds.sample(rng);
        let mut v = objective.value(&x);
        let mut best_x = x.clone();
        let mut best_v = v;
        let mut temperature = self.initial_temperature;
        let mut evaluations = 1u64;
        let mut accepted = 0u64;
        for _ in 0..self.iterations {
            let mut candidate = x.clone();
            let i = rng.gen_range(0..dim);
            let width = bounds.upper()[i] - bounds.lower()[i];
            candidate[i] += gaussian(rng) * self.step_scale * width;
            bounds.project(&mut candidate);
            let cv = objective.value(&candidate);
            evaluations += 1;
            // NaN handling keeps the acceptance draw: with the historical
            // expression a NaN on either side fell through to the Metropolis
            // test (whose comparison against NaN is false), so a draw was
            // consumed either way. A NaN candidate is always rejected; a NaN
            // incumbent is always replaced by a finite candidate — without
            // this an early NaN pinned the walk forever.
            let accept = if cv.is_nan() {
                let _ = rng.gen::<f64>();
                false
            } else if v.is_nan() {
                let _ = rng.gen::<f64>();
                true
            } else {
                cv > v || rng.gen::<f64>() < ((cv - v) / temperature.max(1e-12)).exp()
            };
            if accept {
                accepted += 1;
                x = candidate;
                v = cv;
                if nan_improves(v, best_v) {
                    best_v = v;
                    best_x = x.clone();
                }
            }
            temperature *= self.cooling;
        }
        if best_v.is_nan() {
            return Err(SolveError::AllEvaluationsNaN {
                solver: self.name(),
                evaluations,
            });
        }
        morph_trace::counter("iterations", self.iterations as u64);
        morph_trace::counter("evaluations", evaluations);
        morph_trace::counter("accepted_moves", accepted);
        morph_trace::gauge("best_objective", best_v);
        Ok(OptResult {
            x: best_x,
            value: best_v,
            iterations: self.iterations,
            evaluations,
        })
    }

    fn name(&self) -> &'static str {
        "simulated annealing"
    }
}

/// Quadratic-programming solver: fits the (assumed quadratic) objective
/// once by finite differences, then runs projected gradient ascent with the
/// *exact* quadratic step size from several starts. This is the crate's
/// stand-in for the paper's Gurobi backend; MorphQPV's validation
/// objectives over the `α` coefficients are quadratics, so the fit is exact
/// up to rounding for them.
///
/// A start stops early when its gradient vanishes or when a projected step
/// leaves every coordinate bit-identical (a fixed point). Steps actually
/// taken are recorded in the `line_search_steps` trace counter;
/// [`OptResult::iterations`] reports the configured budget.
#[derive(Debug, Clone)]
pub struct QuadraticProgram {
    /// Projected-gradient iterations per start (an upper bound: a start
    /// stops at its fixed point).
    pub iterations: usize,
    /// Number of starts.
    pub starts: usize,
    /// Worker threads for the starts (`0` = all cores, `1` = serial).
    pub parallelism: usize,
}

impl Default for QuadraticProgram {
    fn default() -> Self {
        QuadraticProgram {
            iterations: 200,
            starts: 4,
            parallelism: 1,
        }
    }
}

impl QuadraticProgram {
    /// Fits `f(x) ≈ ½ xᵀQx + cᵀx + b` by finite differences around 0.
    fn fit_quadratic(
        objective: &dyn Objective,
        evaluations: &mut u64,
    ) -> (Vec<Vec<f64>>, Vec<f64>, f64) {
        let n = objective.dim();
        let h = 1e-3;
        let zero = vec![0.0; n];
        let f0 = objective.value(&zero);
        *evaluations += 1;
        let mut c = vec![0.0; n];
        let mut fp = vec![0.0; n];
        let mut fm = vec![0.0; n];
        let mut probe = zero.clone();
        for i in 0..n {
            probe[i] = h;
            fp[i] = objective.value(&probe);
            probe[i] = -h;
            fm[i] = objective.value(&probe);
            probe[i] = 0.0;
            c[i] = (fp[i] - fm[i]) / (2.0 * h);
            *evaluations += 2;
        }
        let mut q = vec![vec![0.0; n]; n];
        for i in 0..n {
            q[i][i] = (fp[i] - 2.0 * f0 + fm[i]) / (h * h);
        }
        for i in 0..n {
            for j in (i + 1)..n {
                probe[i] = h;
                probe[j] = h;
                let fpp = objective.value(&probe);
                probe[j] = -h;
                let fpm = objective.value(&probe);
                probe[i] = -h;
                let fmm = objective.value(&probe);
                probe[j] = h;
                let fmp = objective.value(&probe);
                probe[i] = 0.0;
                probe[j] = 0.0;
                *evaluations += 4;
                let qij = (fpp - fpm - fmp + fmm) / (4.0 * h * h);
                q[i][j] = qij;
                q[j][i] = qij;
            }
        }
        (q, c, f0)
    }
}

impl Optimizer for QuadraticProgram {
    fn maximize(
        &self,
        objective: &dyn Objective,
        bounds: &Bounds,
        rng: &mut StdRng,
    ) -> Result<OptResult, SolveError> {
        if self.starts == 0 {
            return Err(SolveError::NoRestarts {
                solver: self.name(),
            });
        }
        let trace = morph_trace::span("optimize/quadratic-program");
        let trace_parent = trace.id();
        morph_trace::counter("restarts", self.starts as u64);

        let n = objective.dim();
        let mut fit_evaluations = 0u64;
        let (q, c, _) = {
            let _fit_span = morph_trace::span("fit-quadratic");
            let fit = Self::fit_quadratic(objective, &mut fit_evaluations);
            morph_trace::counter("evaluations", fit_evaluations);
            fit
        };

        let grad = |x: &[f64], out: &mut [f64]| {
            for i in 0..n {
                let mut g = c[i];
                for j in 0..n {
                    g += q[i][j] * x[j];
                }
                out[i] = g;
            }
        };

        let master = morph_parallel::derive_master(rng);
        let runs = morph_parallel::parallel_map_indices(self.parallelism, self.starts, |start| {
            let _restart_span = morph_trace::span_under(trace_parent, "restart");
            let mut task_rng = morph_parallel::child_rng(master, start as u64);
            let mut x = bounds.sample(&mut task_rng);
            let mut previous = vec![0.0; n];
            let mut g = vec![0.0; n];
            let mut line_search_steps = 0u64;
            for _ in 0..self.iterations {
                grad(&x, &mut g);
                // Exact line search for quadratic: t* = gᵀg / (−gᵀQg) when
                // the curvature along g is negative; otherwise take a bold
                // fixed step toward the boundary.
                let gg: f64 = g.iter().map(|v| v * v).sum();
                if gg < 1e-18 {
                    break;
                }
                line_search_steps += 1;
                let mut gqg = 0.0;
                for i in 0..n {
                    for j in 0..n {
                        gqg += g[i] * q[i][j] * g[j];
                    }
                }
                let t = if gqg < -1e-12 { -gg / gqg } else { 1.0 };
                previous.copy_from_slice(&x);
                for i in 0..n {
                    x[i] += t * g[i];
                }
                bounds.project(&mut x);
                // A step is a pure function of `x`'s bits, so once one
                // leaves them unchanged (a box corner the gradient pushes
                // against, or converged rounding) every remaining step
                // would repeat it: stopping here returns the same point.
                if x.iter()
                    .zip(&previous)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
                {
                    break;
                }
            }
            let v = objective.value(&x);
            morph_trace::counter("line_search_steps", line_search_steps);
            morph_trace::counter("evaluations", 1);
            morph_trace::gauge("restart_value", v);
            (x, v, 1u64)
        });
        let mut result = best_of_restarts(self.name(), runs, self.iterations * self.starts)?;
        result.evaluations += fit_evaluations;
        morph_trace::gauge("best_objective", result.value);
        Ok(result)
    }

    fn name(&self) -> &'static str {
        "quadratic programming"
    }
}

/// Folds per-restart `(x, value, evaluations)` runs into one [`OptResult`]:
/// the best value under the NaN-last order wins, ties broken by the lowest
/// restart index so the outcome is independent of evaluation order.
fn best_of_restarts(
    solver: &'static str,
    mut runs: Vec<(Vec<f64>, f64, u64)>,
    iterations: usize,
) -> Result<OptResult, SolveError> {
    let evaluations: u64 = runs.iter().map(|(_, _, e)| e).sum();
    let mut best: Option<usize> = None;
    for (i, run) in runs.iter().enumerate() {
        match best {
            None => best = Some(i),
            Some(b) => {
                if nan_improves(run.1, runs[b].1) {
                    best = Some(i);
                }
            }
        }
    }
    let Some(b) = best else {
        return Err(SolveError::NoRestarts { solver });
    };
    if runs[b].1.is_nan() {
        return Err(SolveError::AllEvaluationsNaN {
            solver,
            evaluations,
        });
    }
    let (x, value, _) = runs.swap_remove(b);
    Ok(OptResult {
        x,
        value,
        iterations,
        evaluations,
    })
}

/// Index of the maximum under the NaN-last order; lowest index on ties, so
/// a NaN entry is picked only when every entry is NaN.
fn argmax(values: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in values.iter().enumerate() {
        if nan_last_cmp(v, values[best]) == std::cmp::Ordering::Greater {
            best = i;
        }
    }
    best
}

fn tournament(fitness: &[f64], rng: &mut StdRng) -> usize {
    let a = rng.gen_range(0..fitness.len());
    let b = rng.gen_range(0..fitness.len());
    // `a` wins ties, matching the historical `>=`; NaN loses to anything.
    if nan_last_cmp(fitness[a], fitness[b]) != std::cmp::Ordering::Less {
        a
    } else {
        b
    }
}

/// Standard normal sample via Box–Muller.
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::FnObjective;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn solvers() -> Vec<Box<dyn Optimizer>> {
        vec![
            Box::new(GradientAscent::default()),
            Box::new(GeneticAlgorithm::default()),
            Box::new(SimulatedAnnealing::default()),
            Box::new(QuadraticProgram::default()),
        ]
    }

    #[test]
    fn all_solvers_find_quadratic_peak() {
        // max −(x−0.3)² − (y+0.4)², peak at (0.3, −0.4), value 0.
        let obj = FnObjective::new(2, |x| -((x[0] - 0.3).powi(2) + (x[1] + 0.4).powi(2)));
        let bounds = Bounds::uniform(2, -1.0, 1.0);
        for solver in solvers() {
            let mut rng = StdRng::seed_from_u64(1);
            let res = solver.maximize(&obj, &bounds, &mut rng).unwrap();
            assert!(
                res.value > -1e-2,
                "{} missed the peak: value {}",
                solver.name(),
                res.value
            );
            assert!(
                (res.x[0] - 0.3).abs() < 0.1,
                "{} x0={}",
                solver.name(),
                res.x[0]
            );
            assert!(
                (res.x[1] + 0.4).abs() < 0.1,
                "{} x1={}",
                solver.name(),
                res.x[1]
            );
        }
    }

    #[test]
    fn solvers_respect_bounds() {
        // Unbounded maximum at +∞; solution must stay at the box edge.
        let obj = FnObjective::new(2, |x| x[0] + x[1]);
        let bounds = Bounds::uniform(2, -1.0, 1.0);
        for solver in solvers() {
            let mut rng = StdRng::seed_from_u64(2);
            let res = solver.maximize(&obj, &bounds, &mut rng).unwrap();
            assert!(
                res.x.iter().all(|&v| (-1.0..=1.0).contains(&v)),
                "{}",
                solver.name()
            );
            assert!(
                res.value > 1.5,
                "{} should reach the corner, got {}",
                solver.name(),
                res.value
            );
        }
    }

    #[test]
    fn qp_is_exact_on_pure_quadratics() {
        // max −x'Ax + b'x with known optimum.
        let obj = FnObjective::new(3, |x| {
            -(2.0 * x[0] * x[0] + x[1] * x[1] + 0.5 * x[2] * x[2]) + x[0] + 2.0 * x[1] - x[2]
        });
        // Optimum: x0 = 1/4, x1 = 1, x2 = −1.
        let bounds = Bounds::uniform(3, -2.0, 2.0);
        let mut rng = StdRng::seed_from_u64(3);
        let res = QuadraticProgram::default()
            .maximize(&obj, &bounds, &mut rng)
            .unwrap();
        assert!((res.x[0] - 0.25).abs() < 1e-3, "x0={}", res.x[0]);
        assert!((res.x[1] - 1.0).abs() < 1e-3, "x1={}", res.x[1]);
        assert!((res.x[2] + 1.0).abs() < 1e-3, "x2={}", res.x[2]);
    }

    #[test]
    fn annealing_escapes_local_maxima() {
        // Double bump: local max at −0.5 (h=0.5), global at +0.6 (h=1).
        let obj = FnObjective::new(1, |x| {
            let a = 0.5 * (-(x[0] + 0.5).powi(2) / 0.01).exp();
            let b = 1.0 * (-(x[0] - 0.6).powi(2) / 0.01).exp();
            a + b
        });
        let bounds = Bounds::uniform(1, -1.0, 1.0);
        let mut found = 0;
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let res = SimulatedAnnealing::default()
                .maximize(&obj, &bounds, &mut rng)
                .unwrap();
            if (res.x[0] - 0.6).abs() < 0.05 {
                found += 1;
            }
        }
        assert!(
            found >= 3,
            "annealing found the global bump only {found}/5 times"
        );
    }

    #[test]
    fn parallel_restarts_match_serial() {
        use rand::Rng;
        let obj = FnObjective::new(3, |x: &[f64]| {
            -((x[0] - 0.1).powi(2) + (x[1] + 0.2).powi(2) + x[2].powi(2))
        });
        let bounds = Bounds::uniform(3, -1.0, 1.0);
        let run = |solver: &dyn Optimizer| {
            let mut rng = StdRng::seed_from_u64(5);
            let res = solver.maximize(&obj, &bounds, &mut rng).unwrap();
            (res, rng.gen::<u64>())
        };
        let (ga_serial, ga_serial_stream) = run(&GradientAscent {
            parallelism: 1,
            ..Default::default()
        });
        let (ga_wide, ga_wide_stream) = run(&GradientAscent {
            parallelism: 4,
            ..Default::default()
        });
        assert_eq!(
            ga_serial, ga_wide,
            "gradient ascent must not depend on worker count"
        );
        assert_eq!(
            ga_serial_stream, ga_wide_stream,
            "caller RNG stream must stay aligned"
        );

        let (qp_serial, _) = run(&QuadraticProgram {
            parallelism: 1,
            ..Default::default()
        });
        let (qp_wide, _) = run(&QuadraticProgram {
            parallelism: 4,
            ..Default::default()
        });
        assert_eq!(
            qp_serial, qp_wide,
            "QP starts must not depend on worker count"
        );
    }

    #[test]
    fn results_report_effort() {
        let obj = FnObjective::new(1, |x| -x[0] * x[0]);
        let bounds = Bounds::uniform(1, -1.0, 1.0);
        let mut rng = StdRng::seed_from_u64(0);
        let res = GradientAscent::default()
            .maximize(&obj, &bounds, &mut rng)
            .unwrap();
        assert!(res.iterations > 0);
        assert!(res.evaluations > 0);
    }

    #[test]
    fn zero_restarts_is_an_error_not_a_panic() {
        let obj = FnObjective::new(1, |x| -x[0] * x[0]);
        let bounds = Bounds::uniform(1, -1.0, 1.0);
        let cases: Vec<Box<dyn Optimizer>> = vec![
            Box::new(GradientAscent {
                restarts: 0,
                ..Default::default()
            }),
            Box::new(QuadraticProgram {
                starts: 0,
                ..Default::default()
            }),
            Box::new(GeneticAlgorithm {
                population: 0,
                ..Default::default()
            }),
        ];
        for solver in cases {
            let mut rng = StdRng::seed_from_u64(0);
            match solver.maximize(&obj, &bounds, &mut rng) {
                Err(SolveError::NoRestarts { .. }) => {}
                other => panic!("{}: expected NoRestarts, got {other:?}", solver.name()),
            }
        }
    }

    #[test]
    fn all_nan_objective_is_an_error_not_a_winner() {
        let obj = FnObjective::new(1, |_| f64::NAN);
        let bounds = Bounds::uniform(1, -1.0, 1.0);
        for solver in solvers() {
            let mut rng = StdRng::seed_from_u64(7);
            match solver.maximize(&obj, &bounds, &mut rng) {
                Err(SolveError::AllEvaluationsNaN { evaluations, .. }) => {
                    assert!(evaluations > 0, "{}", solver.name());
                }
                other => panic!(
                    "{}: expected AllEvaluationsNaN, got {other:?}",
                    solver.name()
                ),
            }
        }
    }

    #[test]
    fn partial_nan_region_still_returns_a_finite_optimum() {
        // NaN beyond x = 0.5; the finite part still has a well-defined peak
        // at x = −0.5. (The NaN pocket stays clear of the origin so the QP
        // solver's finite-difference fit around 0 remains finite.)
        let obj = FnObjective::new(1, |x| {
            if x[0] > 0.5 {
                f64::NAN
            } else {
                -(x[0] + 0.5).powi(2)
            }
        });
        let bounds = Bounds::uniform(1, -1.0, 1.0);
        for solver in solvers() {
            let mut rng = StdRng::seed_from_u64(11);
            let res = solver
                .maximize(&obj, &bounds, &mut rng)
                .unwrap_or_else(|e| panic!("{}: {e}", solver.name()));
            assert!(
                res.value.is_finite(),
                "{} returned non-finite {}",
                solver.name(),
                res.value
            );
        }
    }

    #[test]
    fn best_of_restarts_prefers_lowest_index_on_ties() {
        let runs = vec![
            (vec![1.0], 0.5, 1),
            (vec![2.0], 0.5, 1),
            (vec![3.0], f64::NAN, 1),
        ];
        let res = best_of_restarts("test", runs, 1).unwrap();
        assert_eq!(res.x, vec![1.0]);
        assert_eq!(res.evaluations, 3);
    }

    #[test]
    fn solver_spans_record_restarts_and_evaluations() {
        let obj = FnObjective::new(1, |x| -x[0] * x[0]);
        let bounds = Bounds::uniform(1, -1.0, 1.0);
        morph_trace::reset();
        morph_trace::set_enabled(true);
        let mut rng = StdRng::seed_from_u64(0);
        GradientAscent::default()
            .maximize(&obj, &bounds, &mut rng)
            .unwrap();
        morph_trace::set_enabled(false);
        let spans = morph_trace::span_summaries();
        assert!(spans
            .iter()
            .any(|s| s.name == "optimize/gradient-ascent" && s.counters["restarts"] == 4));
        // `>=`: the recorder is process-global, so concurrently running
        // tests may contribute restart spans of their own while tracing is
        // enabled here.
        assert!(
            spans.iter().filter(|s| s.name == "restart").count() >= 4,
            "one child span per restart"
        );
        assert!(morph_trace::counter_total("evaluations") > 0);
        morph_trace::reset();
    }
}
