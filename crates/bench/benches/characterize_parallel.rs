//! Characterization-sweep benches.
//!
//! - `characterize_parallel`: one sweep of four 32-lane ranges (10
//!   qubits, 128 Clifford inputs on a 4-qubit subregister, shot readout of
//!   two 2-qubit tracepoints) at worker count 1 (`serial`), 0 (`auto`:
//!   all cores once the ranges after the first pay for the threads) and 2
//!   (`two`). The sampled traces and cost ledgers are bit-identical
//!   between the arms (see DESIGN.md "Deterministic parallelism"), so the
//!   arms differ in wall-clock time only.
//! - `characterize_batched`: the gate-major sweep at n = 10 qubits over 32
//!   inputs (one full lane range), single-worker, so the figure tracks the
//!   batched kernels themselves.
//!
//! Set `MORPH_BENCH_QUICK=1` for the CI smoke subset (fewer layers, fewer
//! timing repetitions).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use morph_qprog::Circuit;
use morph_qsim::NoiseModel;
use morph_tomography::ReadoutMode;
use morphqpv::{try_characterize, CancelToken, CharacterizationConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N_QUBITS: usize = 10;
/// Four dense lane ranges of 32.
const N_SAMPLES: usize = 128;

fn quick() -> bool {
    std::env::var_os("MORPH_BENCH_QUICK").is_some()
}

/// A layered entangling circuit with a mid-point and an end tracepoint on
/// two qubits each, so the sweep's simulation dominates its readout.
fn workload_circuit(layers: usize) -> Circuit {
    let n = N_QUBITS;
    let mut c = Circuit::new(n);
    for layer in 0..layers {
        for q in 0..n {
            c.h(q);
            c.rz(q, 0.37 * (layer as f64 + 1.0) * (q as f64 + 1.0));
        }
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        if layer + 1 == layers / 2 {
            c.tracepoint(1, &[0, 1]);
        }
    }
    c.tracepoint(2, &[n - 2, n - 1]);
    c
}

fn config(parallelism: usize) -> CharacterizationConfig {
    CharacterizationConfig {
        n_samples: N_SAMPLES,
        ensemble: morph_clifford::InputEnsemble::Clifford,
        readout: ReadoutMode::Shots(200),
        input_qubits: (0..4).collect(),
        noise: NoiseModel::noiseless(),
        parallelism,
        // Pin the dense path: this bench measures the dense sweep's
        // parallel scaling, not backend selection.
        backend: morphqpv::BackendMode::Dense,
    }
}

fn bench_characterize(c: &mut Criterion) {
    let circuit = workload_circuit(if quick() { 2 } else { 8 });
    let mut group = c.benchmark_group("characterize_parallel");
    group.sample_size(if quick() { 3 } else { 10 });
    for (label, parallelism) in [("serial", 1usize), ("auto", 0), ("two", 2)] {
        group.bench_with_input(BenchmarkId::new(label, N_SAMPLES), &parallelism, |b, &p| {
            let cfg = config(p);
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(7);
                try_characterize(
                    std::hint::black_box(&circuit),
                    &cfg,
                    &mut rng,
                    &CancelToken::new(),
                )
                .expect("characterization runs")
            });
        });
    }
    group.finish();
}

/// A deep layered circuit with a cheap exact tracepoint at the end, so
/// execution (not tomography) dominates.
fn batched_workload(n: usize, layers: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for layer in 0..layers {
        for q in 0..n {
            c.h(q);
            c.rz(q, 0.19 * (layer as f64 + 1.0) * (q as f64 + 1.0));
        }
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
    }
    c.tracepoint(1, &[0, 1]);
    c
}

fn batched_config(n: usize, samples: usize) -> CharacterizationConfig {
    CharacterizationConfig {
        n_samples: samples,
        ensemble: morph_clifford::InputEnsemble::Clifford,
        readout: ReadoutMode::Exact,
        // Input on a 4-qubit subregister: Clifford sampling on the full
        // 10-qubit register would spend most of the bench building 1024²
        // input ρ matrices, hiding the sweep being measured. The sweep
        // still executes the full n-qubit circuit per input.
        input_qubits: (0..4.min(n)).collect(),
        noise: NoiseModel::noiseless(),
        parallelism: 1,
        backend: morphqpv::BackendMode::Dense,
    }
}

fn bench_batched(c: &mut Criterion) {
    let n = 10;
    let samples = 32; // one full dense lane range
    let circuit = batched_workload(n, if quick() { 2 } else { 16 });
    let mut group = c.benchmark_group("characterize_batched");
    group.sample_size(if quick() { 3 } else { 10 });
    group.bench_function(BenchmarkId::new("batched", samples), |b| {
        let cfg = batched_config(n, samples);
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(11);
            try_characterize(
                std::hint::black_box(&circuit),
                &cfg,
                &mut rng,
                &CancelToken::new(),
            )
            .expect("characterization runs")
        });
    });
    group.finish();
}

criterion_group!(benches, bench_characterize, bench_batched);
criterion_main!(benches);
