//! Integration tests for the deterministic parallel execution layer: every
//! parallel entry point (characterization sweeps, solver restarts, baseline
//! detector sweeps) must produce bit-identical results at every worker
//! count, and the shared cost ledger must merge per-worker costs exactly.

use std::collections::BTreeMap;

use morph_baselines::{BugDetector, FuzzTester, QuitoSearch, StatAssertion};
use morph_linalg::CMatrix;
use morph_optimize::{Bounds, FnObjective, GradientAscent, Optimizer, QuadraticProgram};
use morph_qprog::Circuit;
use morph_tomography::{CostLedger, ReadoutMode, SharedLedger};
use morphqpv::{try_characterize, CancelToken, Characterization, CharacterizationConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn traced_circuit() -> Circuit {
    let mut c = Circuit::new(4);
    c.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
    c.tracepoint(1, &[0, 1, 2, 3]);
    c.rz(0, 0.3).h(1);
    c.tracepoint(2, &[0, 1, 2, 3]);
    c
}

fn run_characterization(parallelism: usize, seed: u64) -> Characterization {
    let circuit = traced_circuit();
    let config = CharacterizationConfig {
        readout: ReadoutMode::Shots(200),
        parallelism,
        ..CharacterizationConfig::exact(vec![0, 1, 2, 3], 6)
    };
    let mut rng = StdRng::seed_from_u64(seed);
    try_characterize(&circuit, &config, &mut rng, &CancelToken::new()).unwrap()
}

fn assert_traces_equal(
    a: &BTreeMap<morph_qprog::TracepointId, Vec<CMatrix>>,
    b: &BTreeMap<morph_qprog::TracepointId, Vec<CMatrix>>,
) {
    assert_eq!(a.len(), b.len());
    for (id, lhs) in a {
        let rhs = &b[id];
        assert_eq!(lhs.len(), rhs.len());
        for (x, y) in lhs.iter().zip(rhs) {
            assert_eq!(
                (x - y).frobenius_norm(),
                0.0,
                "trace {id} differs between runs"
            );
        }
    }
}

#[test]
fn characterization_is_bit_identical_across_worker_counts() {
    let serial = run_characterization(1, 11);
    for workers in [2, 4, 0] {
        let wide = run_characterization(workers, 11);
        assert_eq!(
            serial.ledger, wide.ledger,
            "ledger drifted at parallelism={workers}"
        );
        assert_traces_equal(&serial.traces, &wide.traces);
    }
}

#[test]
fn solver_restarts_are_bit_identical_across_worker_counts() {
    // Multimodal objective so restarts genuinely disagree on the optimum.
    let objective = FnObjective::new(2, |x: &[f64]| {
        (3.0 * x[0]).sin() + (2.0 * x[1]).cos() - 0.1 * (x[0] * x[0] + x[1] * x[1])
    });
    let bounds = Bounds::uniform(2, -3.0, 3.0);

    let ga_serial = GradientAscent {
        parallelism: 1,
        ..GradientAscent::default()
    };
    let ga_wide = GradientAscent {
        parallelism: 4,
        ..GradientAscent::default()
    };
    let mut rng_a = StdRng::seed_from_u64(21);
    let mut rng_b = StdRng::seed_from_u64(21);
    let a = ga_serial.maximize(&objective, &bounds, &mut rng_a).unwrap();
    let b = ga_wide.maximize(&objective, &bounds, &mut rng_b).unwrap();
    assert_eq!(a.x, b.x);
    assert_eq!(a.value, b.value);
    assert_eq!(a.evaluations, b.evaluations);
    // Both arms consumed the caller's RNG identically (one master draw).
    assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());

    let qp_serial = QuadraticProgram {
        parallelism: 1,
        ..QuadraticProgram::default()
    };
    let qp_wide = QuadraticProgram {
        parallelism: 4,
        ..QuadraticProgram::default()
    };
    let mut rng_a = StdRng::seed_from_u64(22);
    let mut rng_b = StdRng::seed_from_u64(22);
    let a = qp_serial.maximize(&objective, &bounds, &mut rng_a).unwrap();
    let b = qp_wide.maximize(&objective, &bounds, &mut rng_b).unwrap();
    assert_eq!(a.x, b.x);
    assert_eq!(a.value, b.value);
    assert_eq!(a.evaluations, b.evaluations);
    assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
}

#[test]
fn baseline_detectors_are_bit_identical_across_worker_counts() {
    let lock = morph_qalgo::QuantumLock::new(4, 0b001);
    let reference = lock.circuit();
    let buggy = lock.circuit_with_bug(0b110);

    for workers in [2, 8] {
        let quito_serial = {
            let mut rng = StdRng::seed_from_u64(5);
            QuitoSearch {
                parallelism: 1,
                ..QuitoSearch::default()
            }
            .detect(&reference, &buggy, 16, &mut rng)
        };
        let quito_wide = {
            let mut rng = StdRng::seed_from_u64(5);
            QuitoSearch {
                parallelism: workers,
                ..QuitoSearch::default()
            }
            .detect(&reference, &buggy, 16, &mut rng)
        };
        assert_eq!(quito_serial.bug_found, quito_wide.bug_found);
        assert_eq!(quito_serial.witness_input, quito_wide.witness_input);
        assert_eq!(quito_serial.ledger, quito_wide.ledger);

        let stat_serial = {
            let mut rng = StdRng::seed_from_u64(6);
            StatAssertion {
                parallelism: 1,
                ..StatAssertion::default()
            }
            .detect(&reference, &buggy, 12, &mut rng)
        };
        let stat_wide = {
            let mut rng = StdRng::seed_from_u64(6);
            StatAssertion {
                parallelism: workers,
                ..StatAssertion::default()
            }
            .detect(&reference, &buggy, 12, &mut rng)
        };
        assert_eq!(stat_serial.bug_found, stat_wide.bug_found);
        assert_eq!(stat_serial.witness_input, stat_wide.witness_input);
        assert_eq!(stat_serial.ledger, stat_wide.ledger);

        let fuzz_serial = {
            let mut rng = StdRng::seed_from_u64(7);
            FuzzTester {
                parallelism: 1,
                ..FuzzTester::default()
            }
            .detect(&reference, &buggy, 6, &mut rng)
        };
        let fuzz_wide = {
            let mut rng = StdRng::seed_from_u64(7);
            FuzzTester {
                parallelism: workers,
                ..FuzzTester::default()
            }
            .detect(&reference, &buggy, 6, &mut rng)
        };
        assert_eq!(fuzz_serial.bug_found, fuzz_wide.bug_found);
        assert_eq!(fuzz_serial.witness_input, fuzz_wide.witness_input);
        assert_eq!(fuzz_serial.ledger, fuzz_wide.ledger);
    }
}

#[test]
fn shared_ledger_merges_exactly_under_contention() {
    const THREADS: u64 = 8;
    const RECORDS: u64 = 500;
    let shared = SharedLedger::new();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let shared = &shared;
            scope.spawn(move || {
                let mut local = CostLedger::new();
                for r in 0..RECORDS {
                    // Distinct per-record costs so lost updates can't cancel.
                    local.record_execution(t + 1, r + 1);
                }
                shared.merge(&local);
                // Also hammer the direct path.
                shared.record_execution(1, 1);
            });
        }
    });
    let total = shared.snapshot();
    // THREADS merged batches of RECORDS executions plus one direct record each.
    assert_eq!(total.executions, THREADS * RECORDS + THREADS);
    // Batch shots: sum over t of RECORDS * (t+1); direct shots: THREADS.
    let batch_shots: u64 = (1..=THREADS).map(|t| RECORDS * t).sum();
    assert_eq!(total.shots, batch_shots + THREADS);
    // Batch ops: sum over t of (t+1) * sum over r of (r+1); direct ops: THREADS.
    let per_thread_ops: u64 = (1..=RECORDS).sum();
    let batch_ops: u64 = (1..=THREADS).map(|t| t * per_thread_ops).sum();
    assert_eq!(total.quantum_ops, batch_ops + THREADS);
}
