//! Criterion benches for validation.
//!
//! - `fig15b_solvers`: validation time by solver backend (Fig 15(b)) at 3
//!   input qubits and 16 samples.
//! - `qp_validation`: the default QP validation at 3 input qubits and 64
//!   samples, where the QP starts and the confidence probes' Gram solves
//!   dominate validation.
//!
//! Set `MORPH_BENCH_QUICK=1` for the CI smoke subset (the QP arms only,
//! fewer timing repetitions).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use morph_qprog::{Circuit, TracepointId};
use morphqpv::{
    try_characterize, try_validate_assertion, AssumeGuarantee, CancelToken, Characterization,
    CharacterizationConfig, RelationPredicate, SolverKind, ValidationConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N_QUBITS: usize = 3;

fn quick() -> bool {
    std::env::var_os("MORPH_BENCH_QUICK").is_some()
}

fn equality_assertion() -> AssumeGuarantee {
    AssumeGuarantee::new().guarantee_relation(
        TracepointId(1),
        TracepointId(2),
        RelationPredicate::Equal,
    )
}

/// The Shor circuit on every input qubit, traced before and after.
fn characterization(n_samples: usize) -> Characterization {
    let n = N_QUBITS;
    let mut circuit = Circuit::new(n);
    circuit.tracepoint(1, &(0..n).collect::<Vec<_>>());
    circuit.extend_from(&morph_qalgo::shor_circuit(n));
    circuit.tracepoint(2, &(0..n).collect::<Vec<_>>());
    let mut rng = StdRng::seed_from_u64(0);
    let config = CharacterizationConfig::exact((0..n).collect(), n_samples);
    try_characterize(&circuit, &config, &mut rng, &CancelToken::new())
        .expect("characterization runs")
}

fn bench_validation(
    group: &mut criterion::BenchmarkGroup<'_>,
    ch: &Characterization,
    n_samples: usize,
    solver: SolverKind,
) {
    let assertion = equality_assertion();
    group.bench_with_input(
        BenchmarkId::new(solver.name(), n_samples),
        &solver,
        |b, &s| {
            b.iter(|| {
                let vconfig = ValidationConfig {
                    solver: s,
                    ..Default::default()
                };
                let mut inner_rng = StdRng::seed_from_u64(1);
                try_validate_assertion(&assertion, ch, &vconfig, &mut inner_rng)
                    .expect("validation runs")
            });
        },
    );
}

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig15b_solvers");
    group.sample_size(if quick() { 3 } else { 10 });
    let ch = characterization(16);
    let solvers: &[SolverKind] = if quick() {
        &[SolverKind::Quadratic]
    } else {
        &[
            SolverKind::Quadratic,
            SolverKind::Annealing,
            SolverKind::Genetic,
            SolverKind::GradientAscent,
        ]
    };
    for &solver in solvers {
        bench_validation(&mut group, &ch, 16, solver);
    }
    group.finish();
}

fn bench_qp_validation(c: &mut Criterion) {
    let mut group = c.benchmark_group("qp_validation");
    group.sample_size(if quick() { 3 } else { 10 });
    let n_samples = 64; // 4³: the span of every 3-qubit input operator
    let ch = characterization(n_samples);
    bench_validation(&mut group, &ch, n_samples, SolverKind::Quadratic);
    group.finish();
}

criterion_group!(benches, bench_solvers, bench_qp_validation);
criterion_main!(benches);
