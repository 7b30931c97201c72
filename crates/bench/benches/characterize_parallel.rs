//! Characterization-sweep benches.
//!
//! - `characterize_parallel`: serial vs all-cores sweeps on a shot-readout
//!   workload (8 qubits, 8 inputs, two traced half registers) whose
//!   sampled traces and cost ledgers are bit-identical between the arms
//!   (see DESIGN.md "Deterministic parallelism").
//! - `characterize_batched`: the gate-major sweep at n = 10 qubits over 32
//!   inputs (one full lane range), single-worker, so the figure tracks the
//!   batched kernels themselves.
//!
//! Set `MORPH_BENCH_QUICK=1` for the CI smoke subset (fewer samples, fewer
//! timing repetitions). Set `MORPH_BENCH_JSON=path` to record the medians.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use morph_qprog::Circuit;
use morph_qsim::NoiseModel;
use morph_tomography::ReadoutMode;
use morphqpv::{characterize, CharacterizationConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N_QUBITS: usize = 8;
const N_SAMPLES: usize = 8;

fn quick() -> bool {
    std::env::var_os("MORPH_BENCH_QUICK").is_some()
}

/// A layered entangling circuit with a mid-point and an end tracepoint,
/// each on a 4-qubit half register — the shape of the Table 4 target
/// programs. Full-register shot tomography at 8 qubits would cost
/// `4^8 - 1` measurement settings per tracepoint per input; the half
/// registers keep the per-input work heavy (2 × 255 settings with PSD
/// projection) but bounded.
fn workload_circuit() -> Circuit {
    let n = N_QUBITS;
    let mut c = Circuit::new(n);
    for layer in 0..3 {
        for q in 0..n {
            c.h(q);
            c.rz(q, 0.37 * (layer as f64 + 1.0) * (q as f64 + 1.0));
        }
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
    }
    c.tracepoint(1, &[0, 1, 2, 3]);
    for q in 0..n {
        c.h(q);
    }
    c.tracepoint(2, &[4, 5, 6, 7]);
    c
}

fn config(parallelism: usize) -> CharacterizationConfig {
    CharacterizationConfig {
        n_samples: N_SAMPLES,
        ensemble: morph_clifford::InputEnsemble::Clifford,
        readout: ReadoutMode::Shots(500),
        input_qubits: (0..N_QUBITS).collect(),
        noise: NoiseModel::noiseless(),
        parallelism,
        // Pin the dense path: this bench measures the dense sweep's
        // parallel scaling, not backend selection.
        backend: morphqpv::BackendMode::Dense,
    }
}

fn bench_characterize(c: &mut Criterion) {
    let circuit = workload_circuit();
    let mut group = c.benchmark_group("characterize_parallel");
    group.sample_size(10);
    for (label, parallelism) in [("serial", 1usize), ("all_cores", 0)] {
        group.bench_with_input(BenchmarkId::new(label, N_SAMPLES), &parallelism, |b, &p| {
            let cfg = config(p);
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(7);
                characterize(std::hint::black_box(&circuit), &cfg, &mut rng)
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
            characterize(std::hint::black_box(&circuit), &cfg, &mut rng)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_characterize, bench_batched);
criterion_main!(benches);
