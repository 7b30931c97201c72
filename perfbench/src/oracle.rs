//! Known answers from an exact check that shares no code with the
//! verifier under test.
//!
//! A small dense statevector simulator (its own complex type and gate
//! kernels, measurement by branch enumeration) computes, for every pair of
//! computational-basis inputs `|i⟩, |j⟩` on the input qubits, the operator
//! each tracepoint observes: `R_T(i, j) = Tr_rest |ψ_i^T⟩⟨ψ_j^T|`, summed
//! over measurement branches. Tracepoint states are linear in the input
//! density matrix, so these `4^k` operators determine the tracepoint state
//! for *every* input. Two tracepoints agree on all inputs exactly when
//! their operator families are equal; a disagreement is confirmed by a
//! concrete pure input whose two states sit far apart.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use morph_qprog::{Circuit, Instruction, TracepointId};
use morph_qsim::Gate;

/// The verdict a correct verifier must return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// The guarantee holds on every admissible input.
    Passed,
    /// Some admissible input violates the guarantee by a wide margin.
    Refuted,
}

/// The assertion forms the benchmark programs use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Check {
    /// `assume is_pure(T1) guarantee equal(T1, T2)`.
    Equal,
    /// `guarantee within(T1, T2, tol)`: used where noise or finite shots
    /// keep the verifier's states a small distance from the exact ones.
    Within(f64),
}

impl Check {
    /// The `// assert` text of the check.
    pub fn spec(self) -> String {
        match self {
            Check::Equal => "assume is_pure(T1) guarantee equal(T1, T2)".to_string(),
            Check::Within(tol) => format!("guarantee within(T1, T2, {tol})"),
        }
    }
}

/// How far apart the two tracepoints must sit on a witness input before
/// the oracle calls a program refuted (beyond the check's own tolerance).
pub const REFUTE_MARGIN: f64 = 0.2;

/// Exact agreement threshold on the operator families.
const EXACT_TOL: f64 = 1e-9;

#[derive(Debug, Clone, Copy, PartialEq)]
struct C {
    re: f64,
    im: f64,
}

impl C {
    const ZERO: C = C { re: 0.0, im: 0.0 };
    const ONE: C = C { re: 1.0, im: 0.0 };
    fn new(re: f64, im: f64) -> C {
        C { re, im }
    }
    fn cis(t: f64) -> C {
        C::new(t.cos(), t.sin())
    }
    fn mul(self, o: C) -> C {
        C::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
    fn add(self, o: C) -> C {
        C::new(self.re + o.re, self.im + o.im)
    }
    fn sub(self, o: C) -> C {
        C::new(self.re - o.re, self.im - o.im)
    }
    fn conj(self) -> C {
        C::new(self.re, -self.im)
    }
    fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }
}

type M2 = [[C; 2]; 2];

fn m2_rx(t: f64) -> M2 {
    let (c, s) = ((t / 2.0).cos(), (t / 2.0).sin());
    [
        [C::new(c, 0.0), C::new(0.0, -s)],
        [C::new(0.0, -s), C::new(c, 0.0)],
    ]
}

fn m2_ry(t: f64) -> M2 {
    let (c, s) = ((t / 2.0).cos(), (t / 2.0).sin());
    [
        [C::new(c, 0.0), C::new(-s, 0.0)],
        [C::new(s, 0.0), C::new(c, 0.0)],
    ]
}

fn m2_diag(a: C, b: C) -> M2 {
    [[a, C::ZERO], [C::ZERO, b]]
}

fn m2_single(g: &Gate) -> Option<(usize, M2)> {
    let h = std::f64::consts::FRAC_1_SQRT_2;
    let x: M2 = [[C::ZERO, C::ONE], [C::ONE, C::ZERO]];
    Some(match g {
        Gate::H(q) => (
            *q,
            [
                [C::new(h, 0.0), C::new(h, 0.0)],
                [C::new(h, 0.0), C::new(-h, 0.0)],
            ],
        ),
        Gate::X(q) => (*q, x),
        Gate::Y(q) => (
            *q,
            [[C::ZERO, C::new(0.0, -1.0)], [C::new(0.0, 1.0), C::ZERO]],
        ),
        Gate::Z(q) => (*q, m2_diag(C::ONE, C::new(-1.0, 0.0))),
        Gate::S(q) => (*q, m2_diag(C::ONE, C::new(0.0, 1.0))),
        Gate::Sdg(q) => (*q, m2_diag(C::ONE, C::new(0.0, -1.0))),
        Gate::T(q) => (*q, m2_diag(C::ONE, C::cis(std::f64::consts::FRAC_PI_4))),
        Gate::Tdg(q) => (*q, m2_diag(C::ONE, C::cis(-std::f64::consts::FRAC_PI_4))),
        Gate::RX(q, a) => (*q, m2_rx(*a)),
        Gate::RY(q, a) => (*q, m2_ry(*a)),
        Gate::RZ(q, a) => (*q, m2_diag(C::cis(-a / 2.0), C::cis(a / 2.0))),
        Gate::Phase(q, a) => (*q, m2_diag(C::ONE, C::cis(*a))),
        _ => return None,
    })
}

/// A dense statevector; qubit `q` is bit `q` of the amplitude index.
#[derive(Debug, Clone)]
struct Sv {
    amps: Vec<C>,
}

impl Sv {
    /// Applies `m` to `target` on the amplitudes whose `controls` are all 1.
    fn controlled(&mut self, controls: &[usize], target: usize, m: &M2) {
        let cmask: usize = controls.iter().map(|&c| 1usize << c).sum();
        let tbit = 1usize << target;
        for i in 0..self.amps.len() {
            if i & tbit != 0 || i & cmask != cmask {
                continue;
            }
            let (a, b) = (self.amps[i], self.amps[i | tbit]);
            self.amps[i] = m[0][0].mul(a).add(m[0][1].mul(b));
            self.amps[i | tbit] = m[1][0].mul(a).add(m[1][1].mul(b));
        }
    }

    fn gate(&mut self, g: &Gate) {
        if let Some((q, m)) = m2_single(g) {
            self.controlled(&[], q, &m);
            return;
        }
        let x: M2 = [[C::ZERO, C::ONE], [C::ONE, C::ZERO]];
        match g {
            Gate::CX(c, t) => self.controlled(&[*c], *t, &x),
            Gate::CZ(a, b) => self.controlled(&[*a], *b, &m2_diag(C::ONE, C::new(-1.0, 0.0))),
            Gate::CRZ(c, t, a) => {
                self.controlled(&[*c], *t, &m2_diag(C::cis(-a / 2.0), C::cis(a / 2.0)));
            }
            Gate::CPhase(c, t, a) => self.controlled(&[*c], *t, &m2_diag(C::ONE, C::cis(*a))),
            Gate::Swap(a, b) => {
                self.controlled(&[*a], *b, &x);
                self.controlled(&[*b], *a, &x);
                self.controlled(&[*a], *b, &x);
            }
            Gate::CCX(c1, c2, t) => self.controlled(&[*c1, *c2], *t, &x),
            Gate::MCZ(qs) => {
                let (last, rest) = qs.split_last().expect("mcz has qubits");
                self.controlled(rest, *last, &m2_diag(C::ONE, C::new(-1.0, 0.0)));
            }
            Gate::MCRX(cs, t, a) => self.controlled(cs, *t, &m2_rx(*a)),
            Gate::MCRY(cs, t, a) => self.controlled(cs, *t, &m2_ry(*a)),
            other => panic!("oracle has no kernel for {other:?}"),
        }
    }

    /// Keeps the amplitudes where `qubit` reads `bit` (no renormalization:
    /// branch weights stay in the norms, so branch sums stay linear).
    fn project(&mut self, qubit: usize, bit: usize) {
        for (i, a) in self.amps.iter_mut().enumerate() {
            if (i >> qubit) & 1 != bit {
                *a = C::ZERO;
            }
        }
    }
}

/// One measurement branch: the unnormalized state and classical bits.
#[derive(Debug, Clone)]
struct Branch {
    sv: Sv,
    cbits: Vec<u8>,
}

/// Runs `circuit` from the basis input `input` (bit `b` of `input` sets
/// `input_qubits[b]`, first qubit most significant) and returns, per
/// tracepoint, the branch states it observed, in branch order. Branch
/// order depends only on the circuit, never on the input.
fn run_branches(
    circuit: &Circuit,
    input_qubits: &[usize],
    input: usize,
) -> Vec<(TracepointId, Vec<usize>, Vec<Sv>)> {
    let n = circuit.n_qubits();
    let k = input_qubits.len();
    let mut start = vec![C::ZERO; 1 << n];
    let mut index = 0usize;
    for (pos, &q) in input_qubits.iter().enumerate() {
        if (input >> (k - 1 - pos)) & 1 == 1 {
            index |= 1 << q;
        }
    }
    start[index] = C::ONE;
    let mut branches = vec![Branch {
        sv: Sv { amps: start },
        cbits: vec![0; circuit.n_cbits().max(1)],
    }];
    let mut seen = Vec::new();
    for inst in circuit.instructions() {
        match inst {
            Instruction::Gate(g) => branches.iter_mut().for_each(|b| b.sv.gate(g)),
            Instruction::Tracepoint { id, qubits } => {
                seen.push((
                    *id,
                    qubits.clone(),
                    branches.iter().map(|b| b.sv.clone()).collect(),
                ));
            }
            Instruction::Measure { qubit, cbit } => {
                branches = branches
                    .into_iter()
                    .flat_map(|b| {
                        (0..2).map(move |bit| {
                            let mut next = b.clone();
                            next.sv.project(*qubit, bit);
                            next.cbits[*cbit] = bit as u8;
                            next
                        })
                    })
                    .collect();
            }
            Instruction::Reset(q) => {
                let x: M2 = [[C::ZERO, C::ONE], [C::ONE, C::ZERO]];
                branches = branches
                    .into_iter()
                    .flat_map(|b| {
                        (0..2).map(move |bit| {
                            let mut next = b.clone();
                            next.sv.project(*q, bit);
                            if bit == 1 {
                                next.sv.controlled(&[], *q, &x);
                            }
                            next
                        })
                    })
                    .collect();
            }
            Instruction::Conditional { cbit, value, gate } => {
                for b in &mut branches {
                    if b.cbits[*cbit] == *value {
                        b.sv.gate(gate);
                    }
                }
            }
            Instruction::Barrier => {}
        }
    }
    seen
}

/// `Σ_branches Tr_rest |a⟩⟨b|` on `qubits` (first qubit most significant).
fn reduced_cross(a: &[Sv], b: &[Sv], qubits: &[usize]) -> Vec<C> {
    let t = qubits.len();
    let dim = 1usize << t;
    let mut out = vec![C::ZERO; dim * dim];
    let local = |i: usize| -> usize {
        qubits
            .iter()
            .enumerate()
            .map(|(pos, &q)| ((i >> q) & 1) << (t - 1 - pos))
            .sum()
    };
    let mask: usize = qubits.iter().map(|&q| 1usize << q).sum();
    // Register bits of each local index, so the partner amplitudes of `i`
    // (same bits outside `qubits`) are enumerated directly.
    let scatter: Vec<usize> = (0..dim)
        .map(|l| {
            qubits
                .iter()
                .enumerate()
                .map(|(pos, &q)| ((l >> (t - 1 - pos)) & 1) << q)
                .sum()
        })
        .collect();
    for (sa, sb) in a.iter().zip(b) {
        for (i, &ai) in sa.amps.iter().enumerate() {
            if ai.norm_sqr() == 0.0 {
                continue;
            }
            let rest = i & !mask;
            let li = local(i);
            for (lj, &bits) in scatter.iter().enumerate() {
                let bj = sb.amps[rest | bits];
                let cell = &mut out[li * dim + lj];
                *cell = cell.add(ai.mul(bj.conj()));
            }
        }
    }
    out
}

/// The operator family `R_T(i, j)` of tracepoints 1 and 2, differenced:
/// `D(i, j) = R_1(i, j) − R_2(i, j)`, indexed `[i * 2^k + j]`.
fn difference_family(circuit: &Circuit, input_qubits: &[usize]) -> (usize, Vec<Vec<C>>) {
    let k = input_qubits.len();
    let runs: Vec<_> = (0..1usize << k)
        .map(|i| run_branches(circuit, input_qubits, i))
        .collect();
    let pick = |run: &[(TracepointId, Vec<usize>, Vec<Sv>)], id: u32| {
        let (_, qubits, svs) = run
            .iter()
            .find(|(t, ..)| t.0 == id)
            .unwrap_or_else(|| panic!("program has no tracepoint T{id}"));
        (qubits.clone(), svs.clone())
    };
    let mut family = Vec::with_capacity(1 << (2 * k));
    let mut width = 0;
    for ri in &runs {
        for rj in &runs {
            let (q1, a1) = pick(ri, 1);
            let (_, b1) = pick(rj, 1);
            let (q2, a2) = pick(ri, 2);
            let (_, b2) = pick(rj, 2);
            assert_eq!(
                q1.len(),
                q2.len(),
                "T1 and T2 must trace equally many qubits"
            );
            width = q1.len();
            let r1 = reduced_cross(&a1, &b1, &q1);
            let r2 = reduced_cross(&a2, &b2, &q2);
            family.push(r1.iter().zip(&r2).map(|(x, y)| x.sub(*y)).collect());
        }
    }
    (width, family)
}

/// Single-qubit Pauli eigenstates as amplitude pairs.
fn pauli_eigenstates() -> [[C; 2]; 6] {
    let h = std::f64::consts::FRAC_1_SQRT_2;
    [
        [C::ONE, C::ZERO],
        [C::ZERO, C::ONE],
        [C::new(h, 0.0), C::new(h, 0.0)],
        [C::new(h, 0.0), C::new(-h, 0.0)],
        [C::new(h, 0.0), C::new(0.0, h)],
        [C::new(h, 0.0), C::new(0.0, -h)],
    ]
}

/// Largest `‖T1(ψ) − T2(ψ)‖_F` over product Pauli-eigenstate inputs, and
/// whether the two tracepoints agree exactly on every input.
fn distances(circuit: &Circuit, input_qubits: &[usize]) -> (bool, f64) {
    let k = input_qubits.len();
    let (width, family) = difference_family(circuit, input_qubits);
    let exact = family
        .iter()
        .all(|d| d.iter().all(|c| c.norm_sqr().sqrt() <= EXACT_TOL));
    let eig = pauli_eigenstates();
    let dim_in = 1usize << k;
    let dim_t = 1usize << (2 * width);
    let mut worst = 0.0f64;
    for choice in 0..6usize.pow(k as u32) {
        // Amplitudes of the product state, first qubit most significant.
        let mut amps = vec![C::ONE; dim_in];
        let mut rest = choice;
        for pos in (0..k).rev() {
            let e = eig[rest % 6];
            rest /= 6;
            for (i, a) in amps.iter_mut().enumerate() {
                *a = a.mul(e[(i >> (k - 1 - pos)) & 1]);
            }
        }
        let mut delta = vec![C::ZERO; dim_t];
        for i in 0..dim_in {
            for j in 0..dim_in {
                let w = amps[i].mul(amps[j].conj());
                if w.norm_sqr() == 0.0 {
                    continue;
                }
                for (cell, d) in delta.iter_mut().zip(&family[i * dim_in + j]) {
                    *cell = cell.add(w.mul(*d));
                }
            }
        }
        let frob = delta.iter().map(|c| c.norm_sqr()).sum::<f64>().sqrt();
        worst = worst.max(frob);
    }
    (exact, worst)
}

/// The known answer for `check` on `circuit` with inputs on
/// `input_qubits`, or `None` when the exact check cannot settle it (the
/// tracepoints differ, but by less than the refutation margin).
///
/// For [`Check::Within`] the exact model is noiseless with exact readout;
/// the check's tolerance must cover the deviation the program's noise or
/// shot budget adds (the benchmark sizes it far above both).
pub fn known_answer(circuit: &Circuit, input_qubits: &[usize], check: Check) -> Option<Answer> {
    let (exact, worst) = distances(circuit, input_qubits);
    let tol = match check {
        Check::Equal => 0.0,
        Check::Within(tol) => tol,
    };
    if exact {
        Some(Answer::Passed)
    } else if worst >= tol + REFUTE_MARGIN {
        Some(Answer::Refuted)
    } else {
        None
    }
}

/// Caches known answers by program text and keeps the time spent on
/// them, which set-up time excludes.
#[derive(Debug, Default)]
pub struct Oracle {
    answers: HashMap<String, Option<Answer>>,
    /// Wall time spent computing answers.
    pub spent: Duration,
}

impl Oracle {
    /// The known answer of `circuit` under `check` (see [`known_answer`]),
    /// keyed by `key`.
    pub fn answer(
        &mut self,
        key: &str,
        circuit: &Circuit,
        inputs: &[usize],
        check: Check,
    ) -> Option<Answer> {
        if let Some(a) = self.answers.get(key) {
            return *a;
        }
        let t = Instant::now();
        let a = known_answer(circuit, inputs, check);
        self.spent += t.elapsed();
        self.answers.insert(key.to_string(), a);
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_bit_flip_are_told_apart() {
        let mut ok = Circuit::new(2);
        ok.tracepoint(1, &[0]);
        ok.h(0).cx(0, 1).cx(0, 1).h(0);
        ok.tracepoint(2, &[0]);
        assert_eq!(known_answer(&ok, &[0], Check::Equal), Some(Answer::Passed));
        let mut bad = ok.clone();
        bad.insert(3, Instruction::Gate(Gate::X(0)));
        assert_eq!(
            known_answer(&bad, &[0], Check::Equal),
            Some(Answer::Refuted)
        );
    }

    #[test]
    fn a_tiny_rotation_is_left_undecided() {
        let mut c = Circuit::new(1);
        c.tracepoint(1, &[0]);
        c.rx(0, 0.01);
        c.tracepoint(2, &[0]);
        assert_eq!(known_answer(&c, &[0], Check::Equal), None);
    }
}
