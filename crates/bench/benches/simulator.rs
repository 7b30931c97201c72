//! Substrate micro-benchmarks: state-vector gate kernels, the batched
//! lane kernels across lane counts, the diagonal-run pass on the fused
//! Shor-9 mirror, the qubit-local density-matrix kernels against the
//! full-matrix `evolve` oracle, the closed-form depolarizing channel against
//! embedded Kraus conjugation, gate fusion, and end-to-end noisy execution.
//!
//! Set `MORPH_BENCH_QUICK=1` to run a smoke-test subset (smallest register
//! only, minimal samples) — used by CI; see `crates/bench/README.md` for
//! recorded full-run numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use morph_linalg::CMatrix;
use morph_qalgo::shor_circuit;
use morph_qprog::{Circuit, Executor, Instruction};
use morph_qsim::{matrices, DensityMatrix, Gate, NoiseModel, StateBatch, StateVector};

fn quick() -> bool {
    std::env::var_os("MORPH_BENCH_QUICK").is_some()
}

fn density_sizes() -> &'static [usize] {
    if quick() {
        &[6]
    } else {
        &[6, 8, 10]
    }
}

/// A density matrix with structure on every qubit (no zero blocks that
/// would flatter sparse access patterns).
fn busy_density(n: usize) -> DensityMatrix {
    let mut rho = DensityMatrix::zero_state(n);
    for q in 0..n {
        rho.apply_gate(&Gate::H(q));
        rho.apply_gate(&Gate::T(q));
    }
    for q in 0..n - 1 {
        rho.apply_gate(&Gate::CX(q, q + 1));
    }
    rho
}

/// Kraus operators of the single-qubit depolarizing channel embedded in an
/// `n`-qubit register — the pre-kernel implementation path.
fn embedded_depolarize_kraus(qubit: usize, p: f64, n: usize) -> Vec<CMatrix> {
    vec![
        CMatrix::identity(2)
            .scale_re((1.0 - 3.0 * p / 4.0).sqrt())
            .embed(&[qubit], n),
        matrices::x().scale_re((p / 4.0).sqrt()).embed(&[qubit], n),
        matrices::y().scale_re((p / 4.0).sqrt()).embed(&[qubit], n),
        matrices::z().scale_re((p / 4.0).sqrt()).embed(&[qubit], n),
    ]
}

fn bench_gates(c: &mut Criterion) {
    let mut group = c.benchmark_group("statevector_kernels");
    group.sample_size(20);
    for &n in &[10usize, 14, 18] {
        let mut psi = StateVector::zero_state(n);
        for q in 0..n {
            psi.apply_h(q);
        }
        group.bench_with_input(BenchmarkId::new("h", n), &n, |b, _| {
            b.iter(|| {
                let mut s = psi.clone();
                s.apply_h(std::hint::black_box(0));
                s
            });
        });
        group.bench_with_input(BenchmarkId::new("cx", n), &n, |b, _| {
            b.iter(|| {
                let mut s = psi.clone();
                s.apply_cx(0, n - 1);
                s
            });
        });
        group.bench_with_input(BenchmarkId::new("swap", n), &n, |b, _| {
            b.iter(|| {
                let mut s = psi.clone();
                s.apply_swap(0, n - 1);
                s
            });
        });
        group.bench_with_input(BenchmarkId::new("mcz", n), &n, |b, _| {
            let qubits: Vec<usize> = (0..n).collect();
            b.iter(|| {
                let mut s = psi.clone();
                Gate::MCZ(qubits.clone()).apply(&mut s);
                s
            });
        });
        group.bench_with_input(BenchmarkId::new("reduced_dm_3q", n), &n, |b, _| {
            b.iter(|| psi.reduced_density_matrix(&[0, n / 2, n - 1]));
        });
    }
    group.finish();
}

/// `lanes` copies of a 9-qubit state with every amplitude nonzero.
fn busy_batch(lanes: usize) -> StateBatch {
    let mut batch = StateBatch::zero_states(9, lanes);
    for q in 0..9 {
        batch.apply_gate(&Gate::H(q));
        batch.apply_gate(&Gate::T(q));
    }
    batch
}

/// One dense two-qubit gate (no zero entry) on 9 qubits across 1–64 lanes.
/// `lsb` puts the gate's lowest target on the least significant bit, where
/// each contiguous span is one lane range; `mid` puts it at bit 3, where a
/// span covers 8 consecutive amplitudes' lanes. Divide by the lane count
/// for the per-lane cost.
fn bench_statebatch_lanes(c: &mut Criterion) {
    let mut group = c.benchmark_group("statebatch_lanes");
    group.sample_size(if quick() { 3 } else { 50 });
    let dense = matrices::swap().matmul(&matrices::ry(0.4).kron(&matrices::rx(0.9)));
    for (place, targets) in [("lsb", [3usize, 8]), ("mid", [2, 5])] {
        let gate = Gate::Unitary(targets.to_vec(), dense.clone());
        for b in [1usize, 2, 3, 4, 8, 16, 32, 64] {
            let mut batch = busy_batch(b);
            group.bench_with_input(BenchmarkId::new(place, b), &b, |bench, _| {
                bench.iter(|| batch.apply_gate(std::hint::black_box(&gate)));
            });
        }
    }
    group.finish();
}

/// The fused Shor-9 mirror (`shor(9)` then its inverse, traced on qubits 0
/// and 1, as perfbench's corpus builds it) at 16 lanes: the executor's sweep
/// against the same fused blocks applied one by one.
fn bench_diagonal_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("diagonal_run");
    group.sample_size(if quick() { 3 } else { 30 });
    let shor = shor_circuit(9);
    let mut mirror = Circuit::new(9);
    mirror.tracepoint(1, &[0, 1]);
    mirror.extend_from(&shor);
    mirror.extend_from(&shor.inverse());
    mirror.tracepoint(2, &[0, 1]);
    let ex = Executor::default();
    let fused = ex.fuse_for_run(&mirror);
    let inputs: Vec<StateVector> = (0..16)
        .map(|l| {
            let mut s = StateVector::zero_state(9);
            Gate::RY(0, 0.2 * l as f64).apply(&mut s);
            Gate::RX(1, 0.3 * l as f64).apply(&mut s);
            s
        })
        .collect();
    group.bench_function("prefused/16", |b| {
        b.iter(|| ex.run_expected_batch_prefused(&fused, &inputs));
    });
    group.bench_function("gate_by_gate/16", |b| {
        b.iter(|| {
            let mut batch = StateBatch::from_states(&inputs);
            for inst in fused.instructions() {
                if let Instruction::Gate(g) = inst {
                    batch.apply_gate(g);
                }
            }
            batch
        });
    });
    group.finish();
}

fn bench_density_local(c: &mut Criterion) {
    let mut group = c.benchmark_group("density_local");
    group.sample_size(if quick() { 3 } else { 10 });
    for &n in density_sizes() {
        let rho = busy_density(n);
        group.bench_with_input(BenchmarkId::new("1q_h", n), &n, |b, _| {
            b.iter(|| {
                let mut r = rho.clone();
                r.apply_gate(&Gate::H(n / 2));
                r
            });
        });
        group.bench_with_input(BenchmarkId::new("2q_cx", n), &n, |b, _| {
            b.iter(|| {
                let mut r = rho.clone();
                r.apply_gate(&Gate::CX(0, n - 1));
                r
            });
        });
        group.bench_with_input(BenchmarkId::new("depolarize", n), &n, |b, _| {
            b.iter(|| {
                let mut r = rho.clone();
                r.depolarize(n / 2, 0.01);
                r
            });
        });
    }
    group.finish();
}

fn bench_density_full(c: &mut Criterion) {
    let mut group = c.benchmark_group("density_full_matrix");
    group.sample_size(2);
    for &n in density_sizes() {
        let rho = busy_density(n);
        let h_full = Gate::H(n / 2).full_matrix(n);
        let cx_full = Gate::CX(0, n - 1).full_matrix(n);
        group.bench_with_input(BenchmarkId::new("1q_h", n), &n, |b, _| {
            b.iter(|| {
                let mut r = rho.clone();
                r.evolve(&h_full);
                r
            });
        });
        group.bench_with_input(BenchmarkId::new("2q_cx", n), &n, |b, _| {
            b.iter(|| {
                let mut r = rho.clone();
                r.evolve(&cx_full);
                r
            });
        });
        // The Kraus comparator pays 2k full matmuls; keep it off the
        // largest register so a full run stays in minutes, not hours.
        if n < 10 {
            let kraus = embedded_depolarize_kraus(n / 2, 0.01, n);
            group.bench_with_input(BenchmarkId::new("depolarize_kraus", n), &n, |b, _| {
                b.iter(|| {
                    let mut r = rho.clone();
                    r.apply_kraus(&kraus);
                    r
                });
            });
        }
    }
    group.finish();
}

/// A layered circuit with plenty of fusable structure: Euler-angle-style
/// single-qubit runs interleaved with entangling layers — the shape
/// characterization sweeps produce after input-state preparation.
fn layered_circuit(n: usize, layers: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for l in 0..layers {
        let a = 0.3 + l as f64 * 0.1;
        for q in 0..n {
            c.h(q).rx(q, a).ry(q, a * 0.7).rx(q, a * 1.3).ry(q, a * 0.4);
        }
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
    }
    c
}

fn bench_fusion(c: &mut Criterion) {
    let mut group = c.benchmark_group("statevector_fusion");
    group.sample_size(if quick() { 3 } else { 10 });
    let n = if quick() { 8 } else { 12 };
    let circuit = layered_circuit(n, 8);
    let input = StateVector::zero_state(n);
    group.bench_with_input(BenchmarkId::new("run_expected_fused", n), &n, |b, _| {
        let ex = Executor::default();
        b.iter(|| ex.run_expected(&circuit, &input));
    });
    group.bench_with_input(BenchmarkId::new("run_expected_unfused", n), &n, |b, _| {
        let ex = Executor::builder().fusion(false).build();
        b.iter(|| ex.run_expected(&circuit, &input));
    });
    group.finish();
}

/// Steps a circuit through the pre-kernel noisy path: full-matrix `evolve`
/// per gate plus embedded-Kraus depolarizing after each gate.
fn run_noisy_full_matrix(circuit: &Circuit, noise: &NoiseModel) -> DensityMatrix {
    let n = circuit.n_qubits();
    let mut rho = DensityMatrix::zero_state(n);
    for inst in circuit.instructions() {
        if let Instruction::Gate(g) = inst {
            rho.evolve(&g.full_matrix(n));
            let qs = g.qubits();
            let p = if qs.len() <= 1 { noise.p1 } else { noise.p2 };
            if p > 0.0 {
                for q in qs {
                    rho.apply_kraus(&embedded_depolarize_kraus(q, p, n));
                }
            }
        }
    }
    rho
}

fn bench_noisy_e2e(c: &mut Criterion) {
    let mut group = c.benchmark_group("noisy_e2e");
    group.sample_size(2);
    let n = if quick() { 4 } else { 7 };
    let circuit = layered_circuit(n, 2);
    let noise = NoiseModel::ibm_cairo();
    group.bench_with_input(BenchmarkId::new("local_kernels", n), &n, |b, _| {
        let ex = Executor::builder().noise(noise).build();
        let input = DensityMatrix::zero_state(n);
        b.iter(|| ex.run_expected_noisy(&circuit, &input));
    });
    group.bench_with_input(BenchmarkId::new("full_matrix", n), &n, |b, _| {
        b.iter(|| run_noisy_full_matrix(&circuit, &noise));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_gates,
    bench_statebatch_lanes,
    bench_diagonal_run,
    bench_density_local,
    bench_density_full,
    bench_fusion,
    bench_noisy_e2e
);
criterion_main!(benches);
