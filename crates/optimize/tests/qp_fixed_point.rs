//! The QP solver stops each start at its fixed point. This file is its own
//! test process: the trace recorder is process-global, so no concurrently
//! running test can add restart spans to the ones counted here.

use morph_optimize::{Bounds, FnObjective, Optimizer, QuadraticProgram};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn qp_starts_stop_at_their_fixed_point() {
    // A convex bowl: the maximum is a corner of the box, where the
    // gradient never vanishes, so only the fixed-point exit stops a start
    // short of its 200 iterations.
    let bowl = FnObjective::new(3, |x: &[f64]| 10.0 * x.iter().map(|v| v * v).sum::<f64>());
    let bounds = Bounds::uniform(3, -1.0, 1.0);
    let qp = QuadraticProgram::default();
    morph_trace::reset();
    morph_trace::set_enabled(true);
    let result = qp
        .maximize(&bowl, &bounds, &mut StdRng::seed_from_u64(0))
        .unwrap();
    morph_trace::set_enabled(false);
    let steps: Vec<u64> = morph_trace::span_summaries()
        .iter()
        .filter(|s| s.name == "restart")
        .map(|s| s.counters["line_search_steps"])
        .collect();
    morph_trace::reset();

    assert_eq!(steps.len(), qp.starts);
    assert!(
        steps.iter().all(|&s| (1..=3).contains(&s)),
        "steps per start: {steps:?}"
    );
    assert!(result.x.iter().all(|v| v.abs() == 1.0), "{:?}", result.x);
    assert_eq!(result.value, 30.0);
    // `iterations` is the configured budget, not the steps taken; the
    // evaluations are the fit's 2n² + 1 probes plus one per start.
    assert_eq!(result.iterations, qp.iterations * qp.starts);
    assert_eq!(result.evaluations, 2 * 9 + 1 + qp.starts as u64);
}
