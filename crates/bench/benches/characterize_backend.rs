//! Backend-selection benches: one Clifford workload characterized on the
//! dense, stabilizer, and sparse backends at n ∈ {10, 16, 24}.
//!
//! The workload is a GHZ-spine Clifford circuit — one superposing `H`,
//! then layered monomial rounds (CX chain, S wall, CZ pairs) — so every
//! backend can represent it: the tableau takes it whole (all-Clifford),
//! and the sparse register never exceeds `2^(|input| + 1)` nonzeros. The
//! dense arm is skipped at n = 24 (2^24 amplitudes per gate pass is not
//! bench-feasible); the fast backends still run there, which is the point
//! of having them.
//!
//! A second group, `bounded_fill`, probes the sparse fast path
//! specifically: a **non-Clifford** workload (T walls between CX chains
//! after an 8-qubit H prefix) whose support is permutation- and
//! diagonal-bound at 2^8 nonzeros. The stabilizer cannot take it, the
//! dense engine pays 2^n per gate, and the sparse register never grows,
//! so this isolates the sparse kernels' per-nonzero cost.
//!
//! Set `MORPH_BENCH_QUICK=1` for a smoke subset (fewer layers, samples,
//! and timing repetitions). The benchmark's `corpus` workload (see
//! `perfbench/`) measures the backends end to end.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use morph_qprog::Circuit;
use morph_qsim::NoiseModel;
use morph_tomography::ReadoutMode;
use morphqpv::{try_characterize, BackendMode, CancelToken, CharacterizationConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Register widths under comparison.
const SIZES: [usize; 3] = [10, 16, 24];

/// Widest register the dense arm still runs at.
const DENSE_MAX_QUBITS: usize = 16;

fn quick() -> bool {
    std::env::var_os("MORPH_BENCH_QUICK").is_some()
}

/// The GHZ-spine Clifford workload (see module docs).
fn workload(n: usize) -> Circuit {
    let layers = if quick() { 2 } else { 4 };
    let mut c = Circuit::new(n);
    c.h(0);
    for _ in 0..layers {
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        for q in (0..n).step_by(2) {
            c.s(q);
        }
        for q in (0..n - 1).step_by(3) {
            c.cz(q, q + 1);
        }
    }
    c.tracepoint(1, &[0, 1]);
    c
}

/// The bounded-fill non-Clifford workload (see module docs): an H prefix
/// pins the support at `2^min(8, n-1)` nonzeros, then T walls (diagonal)
/// and CX chains (permutation) churn every amplitude each layer without
/// ever growing the support — or triggering the adaptive switch.
fn bounded_fill(n: usize) -> Circuit {
    let layers = if quick() { 2 } else { 4 };
    let mut c = Circuit::new(n);
    for q in 0..8.min(n - 1) {
        c.h(q);
    }
    for _ in 0..layers {
        for q in 0..n {
            c.t(q);
        }
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
    }
    c.tracepoint(1, &[0, 1]);
    c
}

fn config(backend: BackendMode, samples: usize) -> CharacterizationConfig {
    CharacterizationConfig {
        n_samples: samples,
        ensemble: morph_clifford::InputEnsemble::Clifford,
        readout: ReadoutMode::Exact,
        // Input on a 4-qubit subregister: all arms execute the full
        // n-qubit circuit per input, and the sparse support stays bounded.
        input_qubits: (0..4).collect(),
        noise: NoiseModel::noiseless(),
        parallelism: 1,
        backend,
    }
}

fn bench_backends(c: &mut Criterion) {
    let samples = if quick() { 2 } else { 4 };
    let mut group = c.benchmark_group("characterize_backend");
    group.sample_size(if quick() { 3 } else { 10 });
    for n in SIZES {
        let circuit = workload(n);
        for (label, backend) in [
            ("dense", BackendMode::Dense),
            ("stabilizer", BackendMode::Stabilizer),
            ("sparse", BackendMode::Sparse),
        ] {
            if backend == BackendMode::Dense && n > DENSE_MAX_QUBITS {
                continue;
            }
            group.bench_with_input(BenchmarkId::new(label, n), &backend, |b, &backend| {
                let cfg = config(backend, samples);
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(17);
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
    }
    group.finish();
}

/// The non-Clifford bounded-fill comparison: dense pays `2^n` per gate,
/// the sparse register holds 2^8 nonzeros throughout (the stabilizer
/// cannot represent the T walls at all, so it has no arm here).
fn bench_bounded_fill(c: &mut Criterion) {
    let samples = if quick() { 2 } else { 4 };
    let mut group = c.benchmark_group("bounded_fill");
    group.sample_size(if quick() { 3 } else { 10 });
    for n in SIZES {
        let circuit = bounded_fill(n);
        for (label, backend) in [
            ("dense", BackendMode::Dense),
            ("sparse", BackendMode::Sparse),
        ] {
            if backend == BackendMode::Dense && n > DENSE_MAX_QUBITS {
                continue;
            }
            group.bench_with_input(BenchmarkId::new(label, n), &backend, |b, &backend| {
                let cfg = config(backend, samples);
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(17);
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
    }
    group.finish();
}

criterion_group!(benches, bench_backends, bench_bounded_fill);
criterion_main!(benches);
