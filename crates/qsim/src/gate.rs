//! Gate library: named unitaries with parameterized rotations and
//! multi-controlled variants, plus matrix constructors.

use morph_linalg::{CMatrix, C64};

use crate::state::StateVector;

/// A quantum gate applied to specific qubits.
///
/// The enum mirrors the instruction set used by the paper's benchmark
/// programs: Cliffords, parameterized rotations, and the multi-controlled
/// `Z`/`RX` gates that implement the quantum-lock and QRAM circuits.
///
/// # Examples
///
/// ```
/// use morph_qsim::{Gate, StateVector};
///
/// let mut psi = StateVector::zero_state(2);
/// Gate::H(0).apply(&mut psi);
/// Gate::CX(0, 1).apply(&mut psi);
/// assert!((psi.probabilities()[3] - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Gate {
    /// Hadamard.
    H(usize),
    /// Pauli-X.
    X(usize),
    /// Pauli-Y.
    Y(usize),
    /// Pauli-Z.
    Z(usize),
    /// Phase gate S = diag(1, i).
    S(usize),
    /// S†.
    Sdg(usize),
    /// T = diag(1, e^{iπ/4}).
    T(usize),
    /// T†.
    Tdg(usize),
    /// Rotation about X by the given angle.
    RX(usize, f64),
    /// Rotation about Y by the given angle.
    RY(usize, f64),
    /// Rotation about Z by the given angle.
    RZ(usize, f64),
    /// Phase gate diag(1, e^{iθ}).
    Phase(usize, f64),
    /// Controlled-X (control, target).
    CX(usize, usize),
    /// Controlled-Z (symmetric pair).
    CZ(usize, usize),
    /// Controlled-RZ (control, target, angle).
    CRZ(usize, usize, f64),
    /// Controlled-phase (control, target, angle).
    CPhase(usize, usize, f64),
    /// SWAP.
    Swap(usize, usize),
    /// Toffoli (control, control, target).
    CCX(usize, usize, usize),
    /// Multi-controlled Z over all listed qubits.
    MCZ(Vec<usize>),
    /// Multi-controlled RX: controls, target, angle.
    MCRX(Vec<usize>, usize, f64),
    /// Multi-controlled RY: controls, target, angle.
    MCRY(Vec<usize>, usize, f64),
    /// Arbitrary unitary on the listed targets (most significant first).
    Unitary(Vec<usize>, CMatrix),
}

impl Gate {
    /// Qubits the gate acts on (controls first where applicable).
    pub fn qubits(&self) -> Vec<usize> {
        match self {
            Gate::H(q)
            | Gate::X(q)
            | Gate::Y(q)
            | Gate::Z(q)
            | Gate::S(q)
            | Gate::Sdg(q)
            | Gate::T(q)
            | Gate::Tdg(q)
            | Gate::RX(q, _)
            | Gate::RY(q, _)
            | Gate::RZ(q, _)
            | Gate::Phase(q, _) => vec![*q],
            Gate::CX(c, t)
            | Gate::CZ(c, t)
            | Gate::CRZ(c, t, _)
            | Gate::CPhase(c, t, _)
            | Gate::Swap(c, t) => {
                vec![*c, *t]
            }
            Gate::CCX(c1, c2, t) => vec![*c1, *c2, *t],
            Gate::MCZ(qs) => qs.clone(),
            Gate::MCRX(cs, t, _) | Gate::MCRY(cs, t, _) => {
                let mut v = cs.clone();
                v.push(*t);
                v
            }
            Gate::Unitary(qs, _) => qs.clone(),
        }
    }

    /// Number of two-qubit-equivalent operations, used by the overhead
    /// accounting (a k-controlled gate decomposes into `O(k)` two-qubit
    /// gates; we use the standard `2k − 3`-Toffoli estimate floor-ed at 1).
    pub fn op_cost(&self) -> usize {
        match self {
            Gate::CX(..) | Gate::CZ(..) | Gate::CRZ(..) | Gate::CPhase(..) | Gate::Swap(..) => 1,
            Gate::CCX(..) => 6,
            Gate::MCZ(qs) => (2 * qs.len()).saturating_sub(3).max(1),
            Gate::MCRX(cs, _, _) | Gate::MCRY(cs, _, _) => {
                (2 * (cs.len() + 1)).saturating_sub(3).max(1)
            }
            Gate::Unitary(qs, _) => 1usize << qs.len(),
            _ => 1,
        }
    }

    /// The inverse gate.
    pub fn inverse(&self) -> Gate {
        match self {
            Gate::S(q) => Gate::Sdg(*q),
            Gate::Sdg(q) => Gate::S(*q),
            Gate::T(q) => Gate::Tdg(*q),
            Gate::Tdg(q) => Gate::T(*q),
            Gate::RX(q, a) => Gate::RX(*q, -a),
            Gate::RY(q, a) => Gate::RY(*q, -a),
            Gate::RZ(q, a) => Gate::RZ(*q, -a),
            Gate::Phase(q, a) => Gate::Phase(*q, -a),
            Gate::CRZ(c, t, a) => Gate::CRZ(*c, *t, -a),
            Gate::CPhase(c, t, a) => Gate::CPhase(*c, *t, -a),
            Gate::MCRX(cs, t, a) => Gate::MCRX(cs.clone(), *t, -a),
            Gate::MCRY(cs, t, a) => Gate::MCRY(cs.clone(), *t, -a),
            Gate::Unitary(qs, u) => Gate::Unitary(qs.clone(), u.dagger()),
            other => other.clone(),
        }
    }

    /// The same gate with every qubit index passed through `f` — used to
    /// embed a sub-register circuit into a larger register.
    pub fn remapped(&self, f: impl Fn(usize) -> usize) -> Gate {
        match self {
            Gate::H(q) => Gate::H(f(*q)),
            Gate::X(q) => Gate::X(f(*q)),
            Gate::Y(q) => Gate::Y(f(*q)),
            Gate::Z(q) => Gate::Z(f(*q)),
            Gate::S(q) => Gate::S(f(*q)),
            Gate::Sdg(q) => Gate::Sdg(f(*q)),
            Gate::T(q) => Gate::T(f(*q)),
            Gate::Tdg(q) => Gate::Tdg(f(*q)),
            Gate::RX(q, a) => Gate::RX(f(*q), *a),
            Gate::RY(q, a) => Gate::RY(f(*q), *a),
            Gate::RZ(q, a) => Gate::RZ(f(*q), *a),
            Gate::Phase(q, a) => Gate::Phase(f(*q), *a),
            Gate::CX(c, t) => Gate::CX(f(*c), f(*t)),
            Gate::CZ(a, b) => Gate::CZ(f(*a), f(*b)),
            Gate::CRZ(c, t, a) => Gate::CRZ(f(*c), f(*t), *a),
            Gate::CPhase(c, t, a) => Gate::CPhase(f(*c), f(*t), *a),
            Gate::Swap(a, b) => Gate::Swap(f(*a), f(*b)),
            Gate::CCX(c1, c2, t) => Gate::CCX(f(*c1), f(*c2), f(*t)),
            Gate::MCZ(qs) => Gate::MCZ(qs.iter().map(|&q| f(q)).collect()),
            Gate::MCRX(cs, t, a) => Gate::MCRX(cs.iter().map(|&q| f(q)).collect(), f(*t), *a),
            Gate::MCRY(cs, t, a) => Gate::MCRY(cs.iter().map(|&q| f(q)).collect(), f(*t), *a),
            Gate::Unitary(qs, u) => Gate::Unitary(qs.iter().map(|&q| f(q)).collect(), u.clone()),
        }
    }

    /// Applies the gate to a state vector.
    ///
    /// # Panics
    ///
    /// Panics if any qubit index is out of range for `psi`.
    pub fn apply(&self, psi: &mut StateVector) {
        match self {
            Gate::H(q) => psi.apply_h(*q),
            Gate::X(q) => psi.apply_x(*q),
            Gate::Y(q) => psi.apply_1q(&matrices::y(), *q),
            Gate::Z(q) => psi.apply_z(*q),
            Gate::S(q) => psi.apply_s(*q),
            Gate::Sdg(q) => psi.apply_sdg(*q),
            Gate::T(q) => psi.apply_phase(*q, std::f64::consts::FRAC_PI_4),
            Gate::Tdg(q) => psi.apply_phase(*q, -std::f64::consts::FRAC_PI_4),
            Gate::RX(q, a) => psi.apply_1q(&matrices::rx(*a), *q),
            Gate::RY(q, a) => psi.apply_1q(&matrices::ry(*a), *q),
            Gate::RZ(q, a) => psi.apply_1q(&matrices::rz(*a), *q),
            Gate::Phase(q, a) => psi.apply_phase(*q, *a),
            Gate::CX(c, t) => psi.apply_cx(*c, *t),
            Gate::CZ(a, b) => psi.apply_cz(*a, *b),
            Gate::CRZ(c, t, a) => psi.apply_controlled_1q(&matrices::rz(*a), &[*c], *t),
            Gate::CPhase(c, t, a) => psi.apply_controlled_1q(&matrices::phase(*a), &[*c], *t),
            Gate::Swap(a, b) => psi.apply_swap(*a, *b),
            Gate::CCX(c1, c2, t) => psi.apply_controlled_1q(&matrices::x(), &[*c1, *c2], *t),
            Gate::MCZ(qs) => psi.apply_mcz(qs),
            Gate::MCRX(cs, t, a) => psi.apply_controlled_1q(&matrices::rx(*a), cs, *t),
            Gate::MCRY(cs, t, a) => psi.apply_controlled_1q(&matrices::ry(*a), cs, *t),
            Gate::Unitary(qs, u) => psi.apply_kq(u, qs),
        }
    }

    /// The gate's unitary on its own qubits (`2^k × 2^k`, controls as the
    /// more significant bits in `qubits()` order).
    pub fn local_matrix(&self) -> CMatrix {
        match self {
            Gate::H(_) => matrices::h(),
            Gate::X(_) => matrices::x(),
            Gate::Y(_) => matrices::y(),
            Gate::Z(_) => matrices::z(),
            Gate::S(_) => matrices::s(),
            Gate::Sdg(_) => matrices::sdg(),
            Gate::T(_) => matrices::phase(std::f64::consts::FRAC_PI_4),
            Gate::Tdg(_) => matrices::phase(-std::f64::consts::FRAC_PI_4),
            Gate::RX(_, a) => matrices::rx(*a),
            Gate::RY(_, a) => matrices::ry(*a),
            Gate::RZ(_, a) => matrices::rz(*a),
            Gate::Phase(_, a) => matrices::phase(*a),
            Gate::CX(..) => matrices::controlled(&matrices::x(), 1),
            Gate::CZ(..) => matrices::controlled(&matrices::z(), 1),
            Gate::CRZ(_, _, a) => matrices::controlled(&matrices::rz(*a), 1),
            Gate::CPhase(_, _, a) => matrices::controlled(&matrices::phase(*a), 1),
            Gate::Swap(..) => matrices::swap(),
            Gate::CCX(..) => matrices::controlled(&matrices::x(), 2),
            Gate::MCZ(qs) => matrices::controlled(&matrices::z(), qs.len() - 1),
            Gate::MCRX(cs, _, a) => matrices::controlled(&matrices::rx(*a), cs.len()),
            Gate::MCRY(cs, _, a) => matrices::controlled(&matrices::ry(*a), cs.len()),
            Gate::Unitary(_, u) => u.clone(),
        }
    }

    /// The gate's unitary embedded in an `n`-qubit register.
    pub fn full_matrix(&self, n_qubits: usize) -> CMatrix {
        self.local_matrix().embed(&self.qubits(), n_qubits)
    }
}

/// Constructors for the standard gate matrices.
pub mod matrices {
    use super::*;

    /// Hadamard.
    pub fn h() -> CMatrix {
        let s = 1.0 / 2f64.sqrt();
        CMatrix::from_rows(&[
            &[C64::real(s), C64::real(s)],
            &[C64::real(s), C64::real(-s)],
        ])
    }

    /// Pauli-X.
    pub fn x() -> CMatrix {
        CMatrix::from_rows(&[&[C64::ZERO, C64::ONE], &[C64::ONE, C64::ZERO]])
    }

    /// Pauli-Y.
    pub fn y() -> CMatrix {
        CMatrix::from_rows(&[&[C64::ZERO, -C64::I], &[C64::I, C64::ZERO]])
    }

    /// Pauli-Z.
    pub fn z() -> CMatrix {
        CMatrix::from_rows(&[&[C64::ONE, C64::ZERO], &[C64::ZERO, -C64::ONE]])
    }

    /// Identity.
    pub fn i() -> CMatrix {
        CMatrix::identity(2)
    }

    /// `RX(θ) = exp(−iθX/2)`.
    pub fn rx(theta: f64) -> CMatrix {
        let c = C64::real((theta / 2.0).cos());
        let s = C64::new(0.0, -(theta / 2.0).sin());
        CMatrix::from_rows(&[&[c, s], &[s, c]])
    }

    /// `RY(θ) = exp(−iθY/2)`.
    pub fn ry(theta: f64) -> CMatrix {
        let c = C64::real((theta / 2.0).cos());
        let s = (theta / 2.0).sin();
        CMatrix::from_rows(&[&[c, C64::real(-s)], &[C64::real(s), c]])
    }

    /// `RZ(θ) = exp(−iθZ/2)`.
    pub fn rz(theta: f64) -> CMatrix {
        CMatrix::from_diag(&[C64::cis(-theta / 2.0), C64::cis(theta / 2.0)])
    }

    /// Phase gate `diag(1, e^{iθ})`.
    pub fn phase(theta: f64) -> CMatrix {
        CMatrix::from_diag(&[C64::ONE, C64::cis(theta)])
    }

    /// `S = diag(1, i)` with an exact imaginary unit rather than
    /// `cis(π/2)` (whose real part rounds to `6.1e-17`). Keeping the entry
    /// exact makes dense simulation of {X, Y, Z, S, S†, CX, CZ, SWAP}
    /// circuits float-exact, which the stabilizer-backend parity tests
    /// rely on.
    pub fn s() -> CMatrix {
        CMatrix::from_diag(&[C64::ONE, C64::I])
    }

    /// `S† = diag(1, −i)`, exact (see [`s`]).
    pub fn sdg() -> CMatrix {
        CMatrix::from_diag(&[C64::ONE, C64::new(0.0, -1.0)])
    }

    /// SWAP on two qubits.
    pub fn swap() -> CMatrix {
        let mut m = CMatrix::zeros(4, 4);
        m[(0, 0)] = C64::ONE;
        m[(1, 2)] = C64::ONE;
        m[(2, 1)] = C64::ONE;
        m[(3, 3)] = C64::ONE;
        m
    }

    /// Adds `n_controls` controls to a payload unitary, controls as the most
    /// significant qubits.
    pub fn controlled(payload: &CMatrix, n_controls: usize) -> CMatrix {
        let dp = payload.rows();
        let d = dp << n_controls;
        let mut m = CMatrix::identity(d);
        let offset = d - dp;
        for r in 0..dp {
            for c in 0..dp {
                m[(offset + r, offset + c)] = payload[(r, c)];
            }
        }
        m
    }

    /// The `k`-qubit Pauli string given by characters in `"IXYZ"`.
    ///
    /// # Panics
    ///
    /// Panics on characters outside `IXYZ`.
    pub fn pauli_string(s: &str) -> CMatrix {
        let mut m = CMatrix::identity(1);
        for ch in s.chars() {
            let p = match ch {
                'I' => i(),
                'X' => x(),
                'Y' => y(),
                'Z' => z(),
                other => panic!("invalid Pauli character {other:?}"),
            };
            m = m.kron(&p);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_fixed_gates_are_unitary() {
        let gates = [
            Gate::H(0),
            Gate::X(0),
            Gate::Y(0),
            Gate::Z(0),
            Gate::S(0),
            Gate::Sdg(0),
            Gate::T(0),
            Gate::Tdg(0),
            Gate::RX(0, 0.3),
            Gate::RY(0, 1.2),
            Gate::RZ(0, -0.7),
            Gate::Phase(0, 2.0),
            Gate::CX(0, 1),
            Gate::CZ(0, 1),
            Gate::CRZ(0, 1, 0.4),
            Gate::CPhase(0, 1, 0.9),
            Gate::Swap(0, 1),
            Gate::CCX(0, 1, 2),
            Gate::MCZ(vec![0, 1, 2]),
            Gate::MCRX(vec![0, 1], 2, 0.8),
        ];
        for g in &gates {
            assert!(g.local_matrix().is_unitary(1e-12), "{g:?} not unitary");
        }
    }

    #[test]
    fn gate_inverse_cancels() {
        let gates = [
            Gate::S(0),
            Gate::T(0),
            Gate::RX(0, 0.37),
            Gate::RY(0, -1.1),
            Gate::RZ(0, 2.2),
            Gate::CRZ(0, 1, 0.6),
            Gate::MCRX(vec![0], 1, 1.5),
        ];
        for g in &gates {
            let m = g.local_matrix().matmul(&g.inverse().local_matrix());
            assert!(
                m.approx_eq(&CMatrix::identity(m.rows()), 1e-12),
                "{g:?} inverse failed"
            );
        }
    }

    #[test]
    fn apply_matches_full_matrix() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        let gates = [
            Gate::H(1),
            Gate::CX(2, 0),
            Gate::CZ(0, 2),
            Gate::Swap(1, 2),
            Gate::CCX(2, 0, 1),
            Gate::MCZ(vec![0, 2]),
            Gate::MCRX(vec![1], 0, 0.9),
            Gate::RY(2, 0.5),
            Gate::CRZ(1, 2, -0.3),
        ];
        for g in &gates {
            let amps: Vec<C64> = (0..8)
                .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            let sv = StateVector::from_amplitudes(amps);
            let mut fast = sv.clone();
            g.apply(&mut fast);
            let expected = g.full_matrix(3).matvec(sv.amplitudes());
            for (i, &e) in expected.iter().enumerate() {
                assert!(
                    fast.amplitudes()[i].approx_eq(e, 1e-12),
                    "{g:?} mismatch at {i}"
                );
            }
        }
    }

    #[test]
    fn swap_kernel_matches_cx_decomposition() {
        let mut sv = StateVector::basis_state(2, 0b10);
        Gate::Swap(0, 1).apply(&mut sv);
        assert_eq!(sv.amplitudes()[0b01], C64::ONE);

        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(37);
        let amps: Vec<C64> = (0..16)
            .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let sv = StateVector::from_amplitudes(amps);
        let mut direct = sv.clone();
        direct.apply_swap(1, 3);
        let mut via_cx = sv;
        via_cx.apply_cx(1, 3);
        via_cx.apply_cx(3, 1);
        via_cx.apply_cx(1, 3);
        for (i, &e) in via_cx.amplitudes().iter().enumerate() {
            assert!(
                direct.amplitudes()[i].approx_eq(e, 1e-12),
                "mismatch at {i}"
            );
        }
    }

    #[test]
    fn controlled_matrix_structure() {
        let cx = matrices::controlled(&matrices::x(), 1);
        // |10> -> |11>
        assert_eq!(cx[(3, 2)], C64::ONE);
        assert_eq!(cx[(0, 0)], C64::ONE);
        assert_eq!(cx[(1, 1)], C64::ONE);
    }

    #[test]
    fn pauli_string_dimensions() {
        let zz = matrices::pauli_string("ZZ");
        assert_eq!(zz.rows(), 4);
        assert_eq!(zz[(0, 0)], C64::ONE);
        assert_eq!(zz[(1, 1)], -C64::ONE);
        assert_eq!(zz[(2, 2)], -C64::ONE);
        assert_eq!(zz[(3, 3)], C64::ONE);
    }

    #[test]
    fn op_cost_scales_with_controls() {
        assert_eq!(Gate::CX(0, 1).op_cost(), 1);
        assert!(Gate::MCZ(vec![0, 1, 2, 3]).op_cost() > Gate::MCZ(vec![0, 1]).op_cost());
    }

    #[test]
    fn qubits_reported_in_order() {
        assert_eq!(Gate::CX(3, 1).qubits(), vec![3, 1]);
        assert_eq!(Gate::MCRX(vec![0, 2], 4, 0.1).qubits(), vec![0, 2, 4]);
    }
}
