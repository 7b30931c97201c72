//! Criterion bench behind Fig 15(b): validation time by solver backend.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use morph_qprog::{Circuit, TracepointId};
use morphqpv::{
    try_characterize, try_validate_assertion, AssumeGuarantee, CancelToken, CharacterizationConfig,
    RelationPredicate, SolverKind, ValidationConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig15b_solvers");
    group.sample_size(10);

    let n = 3usize;
    let mut circuit = Circuit::new(n);
    circuit.tracepoint(1, &(0..n).collect::<Vec<_>>());
    circuit.extend_from(&morph_qalgo::shor_circuit(n));
    circuit.tracepoint(2, &(0..n).collect::<Vec<_>>());
    let assertion = AssumeGuarantee::new().guarantee_relation(
        TracepointId(1),
        TracepointId(2),
        RelationPredicate::Equal,
    );
    let mut rng = StdRng::seed_from_u64(0);
    let config = CharacterizationConfig {
        n_samples: 16,
        ..CharacterizationConfig::exact((0..n).collect(), 16)
    };
    let ch = try_characterize(&circuit, &config, &mut rng, &CancelToken::new())
        .expect("characterization runs");

    for solver in [
        SolverKind::Quadratic,
        SolverKind::Annealing,
        SolverKind::Genetic,
        SolverKind::GradientAscent,
    ] {
        group.bench_with_input(BenchmarkId::new(solver.name(), 16), &solver, |b, &s| {
            b.iter(|| {
                let vconfig = ValidationConfig {
                    solver: s,
                    ..Default::default()
                };
                let mut inner_rng = StdRng::seed_from_u64(1);
                try_validate_assertion(&assertion, &ch, &vconfig, &mut inner_rng)
                    .expect("validation runs")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_solvers);
criterion_main!(benches);
