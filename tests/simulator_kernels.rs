//! Property-based tests for the qubit-local simulator kernels: every local
//! density kernel must match the full-matrix `evolve` oracle, every
//! closed-form channel must match its embedded-Kraus definition (and
//! preserve trace and Hermiticity), the statevector bit-deposit kernels
//! must match dense matrix-vector application, the executor's fused
//! path must be indistinguishable from unfused execution, and the fast
//! simulation backends (stabilizer, sparse, Clifford-prefix splice) must
//! reproduce the dense characterization sweep — bitwise where the backend
//! contract promises it, within `TOL` elsewhere — at every worker count.
//! The dense sweep itself is checked against per-input execution.

use morphqpv_suite::backend::{Simulator, SparseSim};
use morphqpv_suite::clifford::InputEnsemble;
use morphqpv_suite::core::{
    try_characterize, BackendChoice, BackendMode, CancelToken, Characterization,
    CharacterizationConfig,
};
use morphqpv_suite::linalg::{CMatrix, C64};
use morphqpv_suite::qprog::{fuse_circuit, Circuit, Executor, Instruction, TracepointId};
use morphqpv_suite::qsim::{matrices, DensityMatrix, Gate, NoiseModel, StateBatch, StateVector};
use morphqpv_suite::tomography::ReadoutMode;
use proptest::prelude::*;
use rand::SeedableRng;

const TOL: f64 = 1e-12;

/// Arbitrary gate on an `n`-qubit register, covering every dispatch arm of
/// the local density kernels (diagonal, dense 1q, controlled, swap, k-q).
fn arb_gate(n: usize) -> impl Strategy<Value = Gate> {
    let angle = -3.0..3.0f64;
    prop_oneof![
        (0..n).prop_map(Gate::H),
        (0..n).prop_map(Gate::X),
        (0..n).prop_map(Gate::Y),
        (0..n).prop_map(Gate::Z),
        (0..n).prop_map(Gate::S),
        (0..n).prop_map(Gate::Sdg),
        (0..n).prop_map(Gate::T),
        (0..n).prop_map(Gate::Tdg),
        ((0..n), angle.clone()).prop_map(|(q, a)| Gate::RX(q, a)),
        ((0..n), angle.clone()).prop_map(|(q, a)| Gate::RY(q, a)),
        ((0..n), angle.clone()).prop_map(|(q, a)| Gate::RZ(q, a)),
        ((0..n), angle.clone()).prop_map(|(q, a)| Gate::Phase(q, a)),
        arb_pair(n).prop_map(|(a, b)| Gate::CX(a, b)),
        arb_pair(n).prop_map(|(a, b)| Gate::CZ(a, b)),
        (arb_pair(n), angle.clone()).prop_map(|((a, b), t)| Gate::CRZ(a, b, t)),
        (arb_pair(n), angle).prop_map(|((a, b), t)| Gate::CPhase(a, b, t)),
        arb_pair(n).prop_map(|(a, b)| Gate::Swap(a, b)),
        arb_triple(n).prop_map(|(a, b, c)| Gate::CCX(a, b, c)),
        arb_triple(n).prop_map(|(a, b, c)| Gate::MCZ(vec![a, b, c])),
    ]
}

fn arb_pair(n: usize) -> impl Strategy<Value = (usize, usize)> {
    (0..n, 0..n).prop_filter("distinct", |(a, b)| a != b)
}

fn arb_triple(n: usize) -> impl Strategy<Value = (usize, usize, usize)> {
    (0..n, 0..n, 0..n).prop_filter("distinct", |(a, b, c)| a != b && a != c && b != c)
}

/// Arbitrary monomial Clifford gate — permutation-and-phase only (no `H`),
/// so the tableau's amplitude readout reproduces dense arithmetic bit for
/// bit (every amplitude stays in `{0, ±1, ±i} · 2^-k` exactly).
fn arb_monomial_clifford(n: usize) -> impl Strategy<Value = Gate> {
    prop_oneof![
        (0..n).prop_map(Gate::X),
        (0..n).prop_map(Gate::Y),
        (0..n).prop_map(Gate::Z),
        (0..n).prop_map(Gate::S),
        (0..n).prop_map(Gate::Sdg),
        arb_pair(n).prop_map(|(a, b)| Gate::CX(a, b)),
        arb_pair(n).prop_map(|(a, b)| Gate::CZ(a, b)),
        arb_pair(n).prop_map(|(a, b)| Gate::Swap(a, b)),
    ]
}

/// Arbitrary Clifford gate, including the superposing `H`.
fn arb_clifford(n: usize) -> impl Strategy<Value = Gate> {
    prop_oneof![(0..n).prop_map(Gate::H), arb_monomial_clifford(n)]
}

/// A tracepoint-bracketed circuit over `gates` on `n` qubits.
fn traced_circuit(n: usize, gates: &[Gate]) -> Circuit {
    let mut c = Circuit::new(n);
    c.tracepoint(1, &[0]);
    for g in gates {
        c.gate(g.clone());
    }
    c.tracepoint(2, &[0, 1]);
    c
}

/// Characterizes `circuit` (inputs on qubits 0–1, exact readout, noiseless)
/// on the requested backend and worker count.
fn characterize_on(
    circuit: &Circuit,
    ensemble: InputEnsemble,
    n_samples: usize,
    backend: BackendMode,
    parallelism: usize,
    seed: u64,
) -> Characterization {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let config = CharacterizationConfig {
        ensemble,
        backend,
        parallelism,
        ..CharacterizationConfig::exact(vec![0, 1], n_samples)
    };
    try_characterize(circuit, &config, &mut rng, &CancelToken::new()).unwrap()
}

/// A normalized random pure-state amplitude vector.
fn arb_amplitudes(n: usize) -> impl Strategy<Value = Vec<C64>> {
    let d = 1usize << n;
    proptest::collection::vec((-1.0..1.0f64, -1.0..1.0f64), d..d + 1).prop_map(|parts| {
        let mut amps: Vec<C64> = parts.iter().map(|&(re, im)| C64::new(re, im)).collect();
        let norm: f64 = amps.iter().map(|a| a.abs() * a.abs()).sum::<f64>().sqrt();
        if norm < 1e-6 {
            amps[0] = C64::ONE;
        } else {
            for a in &mut amps {
                *a *= C64::real(1.0 / norm);
            }
        }
        amps
    })
}

/// A random mixed state: a convex mixture of two random pure states.
fn arb_density(n: usize) -> impl Strategy<Value = DensityMatrix> {
    (arb_amplitudes(n), arb_amplitudes(n), 0.1..0.9f64).prop_map(|(a, b, w)| {
        let rho = &CMatrix::outer(&a, &a).scale_re(w) + &CMatrix::outer(&b, &b).scale_re(1.0 - w);
        DensityMatrix::from_matrix(rho)
    })
}

fn max_abs_diff(a: &CMatrix, b: &CMatrix) -> f64 {
    let mut worst = 0.0f64;
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            worst = worst.max((a[(r, c)] - b[(r, c)]).abs());
        }
    }
    worst
}

/// Kraus operators of the single-qubit depolarizing channel.
fn depolarize_kraus(p: f64) -> Vec<CMatrix> {
    vec![
        CMatrix::identity(2).scale_re((1.0 - 3.0 * p / 4.0).sqrt()),
        matrices::x().scale_re((p / 4.0).sqrt()),
        matrices::y().scale_re((p / 4.0).sqrt()),
        matrices::z().scale_re((p / 4.0).sqrt()),
    ]
}

fn bit_flip_kraus(p: f64) -> Vec<CMatrix> {
    vec![
        CMatrix::identity(2).scale_re((1.0 - p).sqrt()),
        matrices::x().scale_re(p.sqrt()),
    ]
}

fn phase_damp_kraus(lambda: f64) -> Vec<CMatrix> {
    // Nielsen–Chuang convention: K0 = diag(1, √(1−λ)), K1 = diag(0, √λ) —
    // populations untouched, coherences scaled by √(1−λ).
    vec![
        CMatrix::from_rows(&[
            &[C64::ONE, C64::ZERO],
            &[C64::ZERO, C64::real((1.0 - lambda).sqrt())],
        ]),
        CMatrix::from_rows(&[
            &[C64::ZERO, C64::ZERO],
            &[C64::ZERO, C64::real(lambda.sqrt())],
        ]),
    ]
}

fn amplitude_damp_kraus(gamma: f64) -> Vec<CMatrix> {
    vec![
        CMatrix::from_rows(&[
            &[C64::ONE, C64::ZERO],
            &[C64::ZERO, C64::real((1.0 - gamma).sqrt())],
        ]),
        CMatrix::from_rows(&[
            &[C64::ZERO, C64::real(gamma.sqrt())],
            &[C64::ZERO, C64::ZERO],
        ]),
    ]
}

/// Applies single-qubit Kraus operators through the full-register
/// `apply_kraus` oracle.
fn apply_kraus_embedded(rho: &mut DensityMatrix, kraus: &[CMatrix], qubit: usize) {
    let n = rho.n_qubits();
    let embedded: Vec<CMatrix> = kraus.iter().map(|k| k.embed(&[qubit], n)).collect();
    rho.apply_kraus(&embedded);
}

fn assert_trace_and_hermiticity(rho: &DensityMatrix) {
    let m = rho.matrix();
    assert!((m.trace().re - 1.0).abs() < 1e-10, "trace drifted");
    for r in 0..m.rows() {
        for c in 0..m.cols() {
            assert!(
                (m[(r, c)] - m[(c, r)].conj()).abs() < 1e-10,
                "Hermiticity lost at ({r},{c})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every local density kernel matches ρ ← UρU† computed with the dense
    /// embedded unitary.
    #[test]
    fn density_local_kernels_match_full_matrix_oracle(
        gates in proptest::collection::vec(arb_gate(4), 1..6),
        rho in arb_density(4),
    ) {
        let mut local = rho.clone();
        let mut oracle = rho;
        for gate in &gates {
            local.apply_gate(gate);
            oracle.evolve(&gate.full_matrix(4));
            prop_assert!(
                max_abs_diff(local.matrix(), oracle.matrix()) < TOL,
                "kernel diverged from oracle on {gate:?}"
            );
        }
    }

    /// Each closed-form channel matches its embedded-Kraus definition and
    /// keeps the state a density matrix.
    #[test]
    fn channels_match_embedded_kraus(
        rho in arb_density(3),
        q in 0..3usize,
        p in 0.0..1.0f64,
    ) {
        type ChannelCheck = (
            &'static str,
            fn(&mut DensityMatrix, usize, f64),
            fn(f64) -> Vec<CMatrix>,
        );
        let checks: [ChannelCheck; 4] = [
            ("depolarize", |r, q, p| r.depolarize(q, p), depolarize_kraus),
            ("bit_flip", |r, q, p| r.bit_flip(q, p), bit_flip_kraus),
            ("phase_damp", |r, q, p| r.phase_damp(q, p), phase_damp_kraus),
            ("amplitude_damp", |r, q, p| r.amplitude_damp(q, p), amplitude_damp_kraus),
        ];
        for (name, closed_form, kraus) in checks {
            let mut fast = rho.clone();
            closed_form(&mut fast, q, p);
            let mut slow = rho.clone();
            apply_kraus_embedded(&mut slow, &kraus(p), q);
            prop_assert!(
                max_abs_diff(fast.matrix(), slow.matrix()) < TOL,
                "{name} closed form diverged from Kraus at p={p}"
            );
            assert_trace_and_hermiticity(&fast);
        }
    }

    /// Statevector bit-deposit kernels match dense matrix-vector
    /// application of the embedded unitary.
    #[test]
    fn statevector_kernels_match_full_matrix(
        gates in proptest::collection::vec(arb_gate(4), 1..8),
        amps in arb_amplitudes(4),
    ) {
        let mut psi = StateVector::from_amplitudes(amps.clone());
        let mut dense = amps;
        for gate in &gates {
            gate.apply(&mut psi);
            let u = gate.full_matrix(4);
            let mut next = vec![C64::ZERO; dense.len()];
            for (r, slot) in next.iter_mut().enumerate() {
                for (c, &a) in dense.iter().enumerate() {
                    *slot += u[(r, c)] * a;
                }
            }
            dense = next;
            for (i, &want) in dense.iter().enumerate() {
                prop_assert!(
                    (psi.amplitudes()[i] - want).abs() < TOL,
                    "amplitude {i} diverged after {gate:?}"
                );
            }
        }
    }

    /// The executor's fused path is equivalent to unfused execution on
    /// programs with tracepoints, measurement, and feedback.
    #[test]
    fn fused_execution_matches_unfused(
        gates in proptest::collection::vec(arb_gate(3), 1..15),
        measure_at in 0..15usize,
    ) {
        let mut c = Circuit::new(3);
        c.tracepoint(1, &[0, 1]);
        for (i, g) in gates.iter().enumerate() {
            if i == measure_at {
                c.measure(0, 0);
                c.conditional(0, 1, Gate::X(1));
            }
            c.gate(g.clone());
        }
        c.tracepoint(2, &[0, 1, 2]);
        let input = StateVector::zero_state(3);
        let fused = Executor::default().run_expected(&c, &input);
        let plain = Executor::builder().fusion(false).build().run_expected(&c, &input);
        for id in [TracepointId(1), TracepointId(2)] {
            prop_assert!(
                fused.state(id).approx_eq(plain.state(id), 1e-10),
                "tracepoint {id} diverged under fusion"
            );
        }
    }

    /// Fusion never increases the gate count and preserves register shape.
    #[test]
    fn fusion_shrinks_or_preserves_gate_count(
        gates in proptest::collection::vec(arb_gate(3), 1..20),
    ) {
        let mut c = Circuit::new(3);
        for g in gates {
            c.gate(g);
        }
        let fused = fuse_circuit(&c);
        prop_assert!(fused.gate_count() <= c.gate_count());
        prop_assert_eq!(fused.n_qubits(), c.n_qubits());
    }

    /// Batched statevector execution is bit-identical to per-state
    /// application, gate by gate, at every batch size including the
    /// degenerate batch of 1.
    #[test]
    fn state_batch_matches_per_state_bitwise(
        gates in proptest::collection::vec(arb_gate(4), 1..8),
        batch_amps in proptest::collection::vec(arb_amplitudes(4), 1..6),
    ) {
        let mut singles: Vec<StateVector> = batch_amps
            .into_iter()
            .map(StateVector::from_amplitudes)
            .collect();
        let mut batch = StateBatch::from_states(&singles);
        for gate in &gates {
            batch.apply_gate(gate);
            for (lane, s) in singles.iter_mut().enumerate() {
                gate.apply(s);
                let got = batch.lane(lane);
                for i in 0..s.amplitudes().len() {
                    // Exact equality: the gate-major pass must reproduce the
                    // per-state arithmetic bit for bit.
                    prop_assert_eq!(got.amplitudes()[i], s.amplitudes()[i]);
                }
            }
        }
    }

    /// Parallel density kernels are bit-identical at every worker count.
    #[test]
    fn density_workers_are_bit_identical(
        rho in arb_density(4),
        gates in proptest::collection::vec(arb_gate(4), 1..5),
        p in 0.0..0.5f64,
    ) {
        let mut serial = rho.clone();
        let mut threaded = rho;
        for g in &gates {
            serial.apply_gate_with_workers(g, 1);
            threaded.apply_gate_with_workers(g, 4);
        }
        serial.depolarize_with_workers(0, p, 1);
        threaded.depolarize_with_workers(0, p, 4);
        for r in 0..serial.matrix().rows() {
            for c in 0..serial.matrix().cols() {
                // Exact equality: scheduling must never reach the data.
                prop_assert_eq!(serial.matrix()[(r, c)], threaded.matrix()[(r, c)]);
            }
        }
    }

    /// The sparse backend's characterization is bit-identical to the dense
    /// sweep on arbitrary unitary circuits — its kernels evaluate the same
    /// scalar expressions as the dense bit-deposit kernels, and a budget
    /// spill hands the exact state to the dense engine — at every worker
    /// count.
    #[test]
    fn sparse_backend_characterization_is_bitwise_dense(
        gates in proptest::collection::vec(arb_gate(4), 1..8),
        seed in 0u64..1000,
    ) {
        let c = traced_circuit(4, &gates);
        let dense = characterize_on(
            &c, InputEnsemble::Clifford, 4, BackendMode::Dense, 1, seed,
        );
        prop_assert_eq!(dense.backend, BackendChoice::Dense);
        for workers in [1usize, 2, 0] {
            let sparse = characterize_on(
                &c, InputEnsemble::Clifford, 4, BackendMode::Sparse, workers, seed,
            );
            prop_assert_eq!(sparse.backend, BackendChoice::Sparse);
            prop_assert_eq!(&sparse.traces, &dense.traces);
            prop_assert_eq!(&sparse.ledger, &dense.ledger);
        }
    }

    /// On monomial Clifford circuits with basis-state inputs the tableau
    /// tracks exact `{0, ±1, ±i}` amplitudes, so the stabilizer backend is
    /// bit-identical to the dense sweep.
    #[test]
    fn stabilizer_backend_is_bitwise_dense_on_monomial_clifford(
        gates in proptest::collection::vec(arb_monomial_clifford(4), 1..12),
        seed in 0u64..1000,
    ) {
        let c = traced_circuit(4, &gates);
        let dense = characterize_on(
            &c, InputEnsemble::Basis, 4, BackendMode::Dense, 1, seed,
        );
        for workers in [1usize, 0] {
            let stab = characterize_on(
                &c, InputEnsemble::Basis, 4, BackendMode::Stabilizer, workers, seed,
            );
            prop_assert_eq!(stab.backend, BackendChoice::Stabilizer);
            prop_assert_eq!(&stab.traces, &dense.traces);
            prop_assert_eq!(&stab.ledger, &dense.ledger);
        }
    }

    /// On general Clifford circuits (superposing `H` included, stabilizer
    /// input ensemble) the tableau readout is algebraically exact: it
    /// matches the dense sweep to `TOL` and is itself bit-identical at
    /// every worker count.
    #[test]
    fn stabilizer_backend_matches_dense_on_clifford_circuits(
        gates in proptest::collection::vec(arb_clifford(4), 1..12),
        seed in 0u64..1000,
    ) {
        let c = traced_circuit(4, &gates);
        let stab = characterize_on(
            &c, InputEnsemble::Clifford, 4, BackendMode::Stabilizer, 1, seed,
        );
        prop_assert_eq!(stab.backend, BackendChoice::Stabilizer);
        let dense = characterize_on(
            &c, InputEnsemble::Clifford, 4, BackendMode::Dense, 1, seed,
        );
        for (id, states) in &dense.traces {
            for (want, got) in states.iter().zip(&stab.traces[id]) {
                prop_assert!(
                    max_abs_diff(got, want) < TOL,
                    "stabilizer trace at {} diverged from dense", id
                );
            }
        }
        for workers in [2usize, 0] {
            let again = characterize_on(
                &c, InputEnsemble::Clifford, 4, BackendMode::Stabilizer, workers, seed,
            );
            prop_assert_eq!(&again.traces, &stab.traces);
            prop_assert_eq!(&again.ledger, &stab.ledger);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The spill budget is an exact boundary: a run whose nonzero
    /// high-water mark `P` fits the budget exactly stays sparse, while a
    /// budget of `P - 1` spills — and either way the final amplitudes are
    /// bit-identical to the dense kernels.
    #[test]
    fn sparse_spill_budget_boundary_is_exact(
        tail in proptest::collection::vec(arb_gate(4), 1..10),
    ) {
        let n = 4;
        // A leading H pins the high-water mark at ≥ 2, so `peak - 1` below
        // is always a meaningful (clamp-free) budget.
        let gates: Vec<Gate> = std::iter::once(Gate::H(0)).chain(tail).collect();
        // Probe run with unlimited thresholds to learn the high-water mark.
        let mut probe = SparseSim::with_thresholds(n, usize::MAX, usize::MAX);
        for g in &gates {
            probe.apply_gate(g).unwrap();
        }
        let peak = probe.stats().peak_nonzeros as usize;
        prop_assert!(peak >= 2);

        let mut dense = StateVector::zero_state(n);
        let mut exact = SparseSim::with_thresholds(n, peak, usize::MAX);
        let mut under = SparseSim::with_thresholds(n, peak - 1, usize::MAX);
        for g in &gates {
            g.apply(&mut dense);
            exact.apply_gate(g).unwrap();
            under.apply_gate(g).unwrap();
        }
        prop_assert!(!exact.spilled(), "budget met exactly must not spill");
        prop_assert_eq!(exact.stats().spills, 0);
        prop_assert!(under.spilled(), "budget exceeded by one must spill");
        prop_assert_eq!(under.stats().spills, 1);
        prop_assert_eq!(under.stats().switches, 0);
        for (i, &want) in dense.amplitudes().iter().enumerate() {
            prop_assert_eq!(exact.amplitude(i), want);
            prop_assert_eq!(under.amplitude(i), want);
        }
    }

    /// The proactive switch threshold is an exact boundary: a threshold the
    /// high-water mark `P` reaches exactly triggers the sparse→dense
    /// switch, `P + 1` leaves the whole run sparse, and gates applied after
    /// the switch keep the amplitudes bit-identical to dense. The floor
    /// threshold of 2 switches at the leading H, so nearly the whole
    /// stream runs on the dense register after the handoff.
    #[test]
    fn sparse_switch_threshold_boundary_is_exact(
        tail in proptest::collection::vec(arb_gate(4), 2..14),
    ) {
        let n = 4;
        let gates: Vec<Gate> = std::iter::once(Gate::H(0)).chain(tail).collect();
        let mut probe = SparseSim::with_thresholds(n, usize::MAX, usize::MAX);
        for g in &gates {
            probe.apply_gate(g).unwrap();
        }
        let peak = probe.stats().peak_nonzeros as usize;
        prop_assert!(peak >= 2);

        let mut dense = StateVector::zero_state(n);
        let mut at = SparseSim::with_thresholds(n, usize::MAX, peak);
        let mut above = SparseSim::with_thresholds(n, usize::MAX, peak + 1);
        let mut floor = SparseSim::with_thresholds(n, usize::MAX, 2);
        for g in &gates {
            g.apply(&mut dense);
            at.apply_gate(g).unwrap();
            above.apply_gate(g).unwrap();
            floor.apply_gate(g).unwrap();
        }
        prop_assert!(at.spilled(), "threshold reached exactly must switch");
        prop_assert_eq!(at.stats().switches, 1);
        prop_assert_eq!(at.stats().spills, 0);
        prop_assert!(!above.spilled(), "one above the peak must stay sparse");
        prop_assert_eq!(above.stats().switches, 0);
        prop_assert!(floor.spilled(), "the floor threshold must switch");
        prop_assert_eq!(floor.stats().switches, 1);
        prop_assert_eq!(floor.stats().spills, 0);
        for (i, &want) in dense.amplitudes().iter().enumerate() {
            prop_assert_eq!(at.amplitude(i), want);
            prop_assert_eq!(above.amplitude(i), want);
            prop_assert_eq!(floor.amplitude(i), want);
        }
    }
}

/// A random diagonal two-qubit `Gate::Unitary` whose off-diagonal entries
/// mix `+0.0` and `-0.0`.
fn arb_diagonal_block(n: usize) -> impl Strategy<Value = Gate> {
    let phases = proptest::collection::vec(-3.0..3.0f64, 4..5);
    let signs = proptest::collection::vec(0u8..4, 16..17);
    (arb_pair(n), phases, signs).prop_map(|((a, b), phases, signs)| {
        let u = CMatrix::from_fn(4, 4, |r, c| {
            if r == c {
                C64::cis(phases[r])
            } else {
                let sign = signs[4 * r + c];
                let re = if sign & 1 == 1 { -0.0 } else { 0.0 };
                let im = if sign & 2 == 2 { -0.0 } else { 0.0 };
                C64::new(re, im)
            }
        });
        Gate::Unitary(vec![a, b], u)
    })
}

/// A gate of the diagonal-run parity circuits: the QFT's phase gates, the
/// Clifford and rotation gates around them, random dense two-qubit
/// unitaries, and (most often, so runs form) random diagonal blocks.
fn arb_run_gate(n: usize) -> impl Strategy<Value = Gate> {
    let angle = -3.0..3.0f64;
    let dense =
        (arb_pair(n), angle.clone(), angle.clone(), angle.clone()).prop_map(|((a, b), x, y, z)| {
            let u = matrices::controlled(&matrices::rx(x), 1)
                .matmul(&matrices::ry(y).kron(&matrices::rx(z)));
            Gate::Unitary(vec![a, b], u)
        });
    let cphase = || (arb_pair(n), -3.0..3.0f64).prop_map(|((a, b), t)| Gate::CPhase(a, b, t));
    prop_oneof![
        arb_diagonal_block(n),
        arb_diagonal_block(n),
        arb_diagonal_block(n),
        cphase(),
        cphase(),
        arb_pair(n).prop_map(|(a, b)| Gate::CZ(a, b)),
        ((0..n), angle).prop_map(|(q, a)| Gate::RZ(q, a)),
        (0..n).prop_map(Gate::T),
        (0..n).prop_map(Gate::S),
        (0..n).prop_map(Gate::H),
        arb_pair(n).prop_map(|(a, b)| Gate::CX(a, b)),
        dense,
    ]
}

/// A circuit over `steps`, where `None` is a tracepoint on `tp` placed
/// wherever it falls — inside a would-be diagonal run, too.
fn circuit_with_tracepoints(n: usize, steps: &[Option<Gate>], tp: &[usize]) -> Circuit {
    let mut c = Circuit::new(n);
    c.tracepoint(1, &[0]);
    let mut id = 2;
    for step in steps {
        match step {
            Some(g) => {
                c.gate(g.clone());
            }
            None => {
                c.tracepoint(id, tp);
                id += 1;
            }
        }
    }
    c.tracepoint(id, &[n - 1]);
    c
}

/// Lane `l`'s input: a basis, Pauli-product or Clifford preparation of the
/// whole register, so amplitudes include exact zeros and `-0.0`.
fn prepared_input(n: usize, rng: &mut rand::rngs::StdRng) -> StateVector {
    use morphqpv_suite::clifford::{basis_prep, clifford_prep, pauli_product_prep};
    use rand::Rng;
    let prep = match rng.gen_range(0..3) {
        0 => basis_prep(n, rng.gen_range(0..1usize << n)),
        1 => pauli_product_prep(n, rng.gen_range(0..1usize << (2 * n))),
        _ => {
            let seed = rng.gen_range(0..1usize << n);
            clifford_prep(n, seed, rng)
        }
    };
    let mut psi = StateVector::zero_state(n);
    for inst in prep.instructions() {
        match inst {
            Instruction::Gate(g) => g.apply(&mut psi),
            other => panic!("unitary prep expected, got {other:?}"),
        }
    }
    psi
}

/// Exact equality of two traces down to the sign of zero.
fn bitwise_equal(a: &CMatrix, b: &CMatrix) -> bool {
    a.rows() == b.rows()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The batched sweep, with its diagonal-run passes and span kernels,
    /// against per-input `Executor::run_expected`, fused and unfused:
    /// every trace bitwise equal, signs of zero included, at lane counts on
    /// both sides of every vector width.
    #[test]
    fn batched_sweep_matches_per_input_run_expected_bitwise(
        n in 2usize..10,
        pick in 0usize..11,
        seed in 0u64..u64::MAX,
        fuse in 0u8..2,
    ) {
        use rand::Rng;
        let lanes = [1usize, 3, 4, 7, 8, 9, 16, 17, 32, 33, 64][pick];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let gates = arb_run_gate(n);
        let steps: Vec<Option<Gate>> = (0..rng.gen_range(1..40))
            .map(|_| (!rng.gen_bool(1.0 / 7.0)).then(|| gates.new_value(&mut rng)))
            .collect();
        let tp = arb_pair(n).new_value(&mut rng);
        let c = circuit_with_tracepoints(n, &steps, &[tp.0, tp.1]);
        let inputs: Vec<StateVector> = (0..lanes).map(|_| prepared_input(n, &mut rng)).collect();
        let ex = Executor::builder().fusion(fuse == 1).build();
        let batched = ex.run_expected_batch_prefused(&ex.fuse_for_run(&c), &inputs);
        prop_assert_eq!(batched.len(), lanes);
        for (lane, (rec, input)) in batched.iter().zip(&inputs).enumerate() {
            let oracle = ex.run_expected(&c, input);
            prop_assert_eq!(rec.tracepoints.len(), oracle.tracepoints.len());
            for (id, want) in &oracle.tracepoints {
                prop_assert!(
                    bitwise_equal(&rec.tracepoints[id], want),
                    "lane {} of {}, tracepoint {}: {:?} != {:?}",
                    lane, lanes, id, rec.tracepoints[id], want
                );
            }
        }
    }
}

/// The characterization sweep against a per-input reference: every trace
/// equals, bit for bit, what `Executor::run_expected` (noiseless) or
/// `Executor::run_expected_noisy` (`ibm_cairo`) computes for that input
/// alone — inside one 32-lane range, at its boundary and across several
/// ranges, at 1 and 3 workers. Shot readout draws one RNG stream per
/// input, so it must not depend on the worker count either.
#[test]
fn characterization_sweep_matches_per_input_reference() {
    let n = 3;
    let input_qubits = [0usize, 1];
    let mut c = Circuit::new(n);
    c.tracepoint(1, &[0]);
    c.h(1).cx(0, 1).t(2).cx(1, 2);
    c.tracepoint(2, &[0, 1, 2]);
    let sweep = |noise: NoiseModel, readout: ReadoutMode, samples: usize, workers: usize| {
        let config = CharacterizationConfig {
            noise,
            readout,
            parallelism: workers,
            backend: BackendMode::Dense,
            ..CharacterizationConfig::exact(input_qubits.to_vec(), samples)
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(samples as u64);
        try_characterize(&c, &config, &mut rng, &CancelToken::new()).unwrap()
    };
    for noise in [NoiseModel::noiseless(), NoiseModel::ibm_cairo()] {
        let executor = Executor::builder().noise(noise).build();
        for samples in [1usize, 31, 32, 33, 65] {
            for workers in [1usize, 3] {
                let ch = sweep(noise, ReadoutMode::Exact, samples, workers);
                assert_eq!(ch.backend, BackendChoice::Dense);
                for (i, input) in ch.inputs.iter().enumerate() {
                    let prep = input.prep.remap_qubits(&input_qubits, n);
                    let gates = prep.instructions().iter().map(|inst| match inst {
                        Instruction::Gate(g) => g,
                        other => panic!("unitary prep expected, got {other:?}"),
                    });
                    let reference = if noise.is_noiseless() {
                        let mut psi = StateVector::zero_state(n);
                        gates.for_each(|g| g.apply(&mut psi));
                        executor.run_expected(&c, &psi)
                    } else {
                        let mut rho = DensityMatrix::zero_state(n);
                        for g in gates {
                            rho.apply_gate(g);
                            noise.apply_to_density(&mut rho, g);
                        }
                        executor.run_expected_noisy(&c, &rho)
                    };
                    for (id, want) in &reference.tracepoints {
                        assert_eq!(
                            &ch.traces[id][i], want,
                            "{noise:?}, {samples} samples, {workers} workers: input {i} at {id}"
                        );
                    }
                }
            }
        }
        let serial = sweep(noise, ReadoutMode::Shots(30), 33, 1);
        let wide = sweep(noise, ReadoutMode::Shots(30), 33, 3);
        assert_eq!(serial.ledger, wide.ledger);
        assert_eq!(serial.traces, wide.traces, "{noise:?} shot readout");
    }
}

/// The ISSUE 8 acceptance sweep: a 13-qubit non-Clifford circuit whose
/// support saturates past the default switch threshold (`dim/8 = 1024`,
/// also the floor) makes the forced-sparse characterization switch to the
/// dense engine mid-run. The switch point is deterministic — bit-identical
/// traces and identical fast-path event counters at every worker count —
/// and the merged result is bit-identical to the dense sweep.
#[test]
fn adaptive_switch_sweep_is_deterministic_and_bitwise_dense() {
    let n = 13;
    let mut c = Circuit::new(n);
    c.tracepoint(1, &[0, 1]);
    // Eleven superposing H's on qubits the input prep never touches drive
    // the support 1 → 2048 nonzeros, crossing the 1024-entry default switch
    // threshold at the tenth H regardless of the sampled input; interleaved
    // T gates keep the circuit non-Clifford without changing the support.
    for q in 2..n {
        c.h(q);
        c.t(q);
    }
    c.cx(2, 0);
    c.t(0);
    c.tracepoint(2, &[0, 1, 2]);

    let dense = characterize_on(&c, InputEnsemble::Clifford, 3, BackendMode::Dense, 1, 5);
    let base = characterize_on(&c, InputEnsemble::Clifford, 3, BackendMode::Sparse, 1, 5);
    assert_eq!(base.backend, BackendChoice::Sparse);
    assert!(
        base.fast_path.switches > 0,
        "support crossing the threshold must switch: {:?}",
        base.fast_path
    );
    assert_eq!(
        base.fast_path.spills, 0,
        "the proactive switch must pre-empt the spill: {:?}",
        base.fast_path
    );
    assert_eq!(&base.traces, &dense.traces);
    assert_eq!(&base.ledger, &dense.ledger);
    for workers in [2usize, 4, 0] {
        let again = characterize_on(
            &c,
            InputEnsemble::Clifford,
            3,
            BackendMode::Sparse,
            workers,
            5,
        );
        assert_eq!(again.traces, base.traces);
        assert_eq!(again.ledger, base.ledger);
        assert_eq!(
            again.fast_path, base.fast_path,
            "switch events must not depend on scheduling"
        );
    }
}

/// A Clifford-dominated 14-qubit program whose non-Clifford tail forces the
/// planner onto the prefix-splice path: the tableau runs the Clifford
/// prefix, hands the exact statevector to the dense engine, and the traces
/// match an all-dense run to `TOL` while staying bit-identical across
/// worker counts. The parity and determinism checks run on every mode.
#[test]
fn clifford_prefix_splice_matches_dense_and_is_deterministic() {
    let n = 14;
    let mut c = Circuit::new(n);
    c.tracepoint(1, &[0, 1]);
    for _ in 0..3 {
        for q in 0..n {
            c.h(q);
        }
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
    }
    // Non-Clifford tail: the planner must splice to the dense engine here.
    c.t(0);
    c.h(1);
    c.t(1);
    c.tracepoint(2, &[0, 1, 2]);

    let dense = characterize_on(&c, InputEnsemble::Clifford, 3, BackendMode::Dense, 1, 11);
    for mode in BackendMode::ALL {
        let serial = characterize_on(&c, InputEnsemble::Clifford, 3, mode, 1, 11);
        if mode == BackendMode::Auto {
            assert!(
                matches!(serial.backend, BackendChoice::CliffordPrefix { .. }),
                "expected a prefix splice, planned {:?}",
                serial.backend
            );
        }
        for (id, states) in &dense.traces {
            for (want, got) in states.iter().zip(&serial.traces[id]) {
                assert!(
                    max_abs_diff(got, want) < TOL,
                    "{mode:?}: trace at {id} diverged from dense"
                );
            }
        }
        let wide = characterize_on(&c, InputEnsemble::Clifford, 3, mode, 0, 11);
        assert_eq!(wide.backend, serial.backend, "{mode:?}");
        assert_eq!(wide.traces, serial.traces, "{mode:?}");
        assert_eq!(wide.ledger, serial.ledger, "{mode:?}");
    }
}

/// The ISSUE 7 acceptance sweep: a 20-qubit Clifford characterization —
/// far past the dense comfort zone for a test suite — auto-selects the
/// stabilizer backend, completes, yields unit-trace tracepoint states, and
/// is bit-identical at every worker count. The trace and determinism
/// checks run on every mode; the dense and sparse ones pay the full
/// `2^20` register.
#[test]
fn wide_clifford_sweep_completes_on_the_stabilizer_backend() {
    let n = 20;
    let mut c = Circuit::new(n);
    c.tracepoint(1, &[0, 1]);
    for q in 0..n {
        c.h(q);
    }
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    for q in (0..n).step_by(3) {
        c.s(q);
    }
    c.tracepoint(2, &[0, 1, 2]);

    for mode in BackendMode::ALL {
        let serial = characterize_on(&c, InputEnsemble::Clifford, 4, mode, 1, 3);
        if matches!(mode, BackendMode::Auto | BackendMode::Stabilizer) {
            assert_eq!(serial.backend, BackendChoice::Stabilizer);
        }
        for states in serial.traces.values() {
            assert_eq!(states.len(), 4);
            for rho in states {
                assert!(
                    (rho.trace().re - 1.0).abs() < 1e-9,
                    "{mode:?}: trace drifted"
                );
            }
        }
        let wide = characterize_on(&c, InputEnsemble::Clifford, 4, mode, 0, 3);
        assert_eq!(wide.backend, serial.backend, "{mode:?}");
        assert_eq!(wide.traces, serial.traces, "{mode:?}");
        assert_eq!(wide.ledger, serial.ledger, "{mode:?}");
    }
}
