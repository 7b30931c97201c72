//! Criterion bench behind Fig 11(a): time to obtain a tracepoint state
//! under one input — isomorphism-based approximation vs classical
//! simulation vs shot-based state tomography.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use morph_clifford::InputEnsemble;
use morph_qprog::{Circuit, Executor, TracepointId};
use morph_qsim::StateVector;
use morph_tomography::{read_state, CostLedger, ReadoutMode};
use morphqpv::{try_characterize, CancelToken, CharacterizationConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_tracepoint_state(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig11a_tracepoint_state");
    group.sample_size(10);

    for &n in &[3usize, 5, 7] {
        let mut rng = StdRng::seed_from_u64(0);
        let mut circuit = Circuit::new(n);
        circuit.extend_from(&morph_qalgo::shor_circuit(n));
        circuit.tracepoint(1, &(0..n).collect::<Vec<_>>());

        let config = CharacterizationConfig {
            n_samples: 2 * n + 2,
            ..CharacterizationConfig::exact((0..n).collect(), 2 * n + 2)
        };
        let ch = try_characterize(&circuit, &config, &mut rng, &CancelToken::new())
            .expect("characterization runs");
        let f = ch.approximation(TracepointId(1));
        let probe = InputEnsemble::Clifford.generate(n, 1, &mut rng).remove(0);

        group.bench_with_input(BenchmarkId::new("approximation", n), &n, |b, _| {
            b.iter(|| f.predict(std::hint::black_box(&probe.rho)).unwrap());
        });

        let mut full = Circuit::new(n);
        full.extend_from(&probe.prep);
        full.extend_from(&circuit);
        group.bench_with_input(BenchmarkId::new("simulation", n), &n, |b, _| {
            b.iter(|| Executor::default().run_expected(&full, &StateVector::zero_state(n)));
        });

        let truth = Executor::default()
            .run_expected(&full, &StateVector::zero_state(n))
            .state(TracepointId(1))
            .clone();
        group.bench_with_input(BenchmarkId::new("state_tomography", n), &n, |b, _| {
            b.iter(|| {
                let mut ledger = CostLedger::new();
                read_state(
                    std::hint::black_box(&truth),
                    ReadoutMode::Shots(100),
                    1,
                    &mut ledger,
                    &mut rng,
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tracepoint_state);
criterion_main!(benches);
