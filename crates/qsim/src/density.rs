//! Mixed-state simulation via dense density matrices.
//!
//! Used for small registers where exact noisy evolution matters (Table 4's
//! shot-based baselines, Fig 14's noisy-characterization study). Large
//! registers stay in [`crate::StateVector`] and expose tracepoint states via
//! reduced density matrices.
//!
//! # Qubit-local kernels
//!
//! Gates and single-qubit channels never build the full `2^n × 2^n`
//! operator. `ρ ← U ρ U†` for a k-qubit unitary factors into a *row pass*
//! (`ρ ← U ρ`: mix `2^k`-tuples of rows, column by column) followed by a
//! *column pass* (`ρ ← ρ U†`: per row, mix `2^k`-tuples of columns), each an
//! O(4^n) sweep touching only the affected amplitude blocks — versus O(8^n)
//! flops and an O(4^n) allocation for the dense-matmul path, which survives
//! as [`DensityMatrix::evolve`] and serves as the test oracle. Diagonal
//! gates (Z, S, T, RZ, CZ, CPhase, CRZ, MCZ, …) collapse further into one
//! elementwise pass `ρ[r][c] ← d_r · ρ[r][c] · d̄_c`. The standard Pauli
//! channels apply in closed form on 2×2 blocks with no Kraus operators at
//! all.
//!
//! Registers of 10 qubits or more fan the sweeps out over row chunks with
//! `morph_parallel::parallel_chunks_mut`; every element's new
//! value is a pure function of the old matrix, so results are bit-identical
//! at any worker count.

use morph_linalg::{eigh, CMatrix, C64};
use rand::Rng;

use crate::bits;
use crate::gate::{matrices, Gate};
use crate::state::StateVector;

/// Qubit count at which local kernels start fanning out over row chunks;
/// below it a single O(4^n) sweep is cheaper than thread dispatch.
const PARALLEL_THRESHOLD: usize = 10;

/// Worker request for an `n`-qubit kernel: serial below the threshold, all
/// cores (`0`) at or above it.
fn auto_workers(n_qubits: usize) -> usize {
    if n_qubits >= PARALLEL_THRESHOLD {
        0
    } else {
        1
    }
}

/// Rows per chunk for passes that parallelize over arbitrary row ranges.
fn row_chunk_len(d: usize, workers: usize) -> usize {
    let w = morph_parallel::effective_workers(workers);
    d.div_ceil(4 * w).max(1)
}

/// [`morph_parallel::parallel_chunks_mut`] with telemetry: records how many
/// chunks each multi-worker sweep fans out into. The counter only fires
/// with the recorder enabled and never touches the data, so sweeps remain
/// bit-identical at every worker count.
fn traced_chunks_mut<F>(workers: usize, data: &mut [C64], chunk_len: usize, f: F)
where
    F: Fn(usize, &mut [C64]) + Sync,
{
    if morph_trace::enabled() && morph_parallel::effective_workers(workers) > 1 {
        let chunks = data.len().div_ceil(chunk_len.max(1)) as u64;
        morph_trace::counter("qsim/density_parallel_chunks", chunks);
        morph_trace::counter("qsim/density_parallel_sweeps", 1);
    }
    morph_parallel::parallel_chunks_mut(workers, data, chunk_len, f);
}

/// Row pass `ρ ← U ρ` then column pass `ρ ← ρ U†` for a 1-qubit unitary at
/// bit position `shift`. `data` is the row-major `d × d` matrix.
fn kernel_1q(data: &mut [C64], d: usize, shift: usize, u: &CMatrix, workers: usize) {
    let m = 1usize << shift;
    let (u00, u01, u10, u11) = (u[(0, 0)], u[(0, 1)], u[(1, 0)], u[(1, 1)]);
    // Row pass: the pair (r, r | m) lives inside one 2m-row super-block.
    traced_chunks_mut(workers, data, 2 * m * d, |_, chunk| {
        for r in 0..m {
            let off0 = r * d;
            let off1 = (r + m) * d;
            for c in 0..d {
                let a0 = chunk[off0 + c];
                let a1 = chunk[off1 + c];
                chunk[off0 + c] = u00 * a0 + u01 * a1;
                chunk[off1 + c] = u10 * a0 + u11 * a1;
            }
        }
    });
    // Column pass: every row is independent; new[j] = Σ_k old[k]·conj(u[j][k]).
    let (c00, c01, c10, c11) = (u00.conj(), u01.conj(), u10.conj(), u11.conj());
    let rows = row_chunk_len(d, workers);
    traced_chunks_mut(workers, data, rows * d, |_, chunk| {
        for row in chunk.chunks_mut(d) {
            for base in 0..d / 2 {
                let col0 = bits::deposit(base, shift);
                let col1 = col0 | m;
                let b0 = row[col0];
                let b1 = row[col1];
                row[col0] = b0 * c00 + b1 * c01;
                row[col1] = b0 * c10 + b1 * c11;
            }
        }
    });
}

/// Two-qubit conjugation kernel; `sa` is the bit position of the unitary's
/// more significant qubit, `sb` the less significant one (gate order).
fn kernel_2q(data: &mut [C64], d: usize, sa: usize, sb: usize, u: &CMatrix, workers: usize) {
    let ma = 1usize << sa;
    let mb = 1usize << sb;
    let (lo, hi) = (sa.min(sb), sa.max(sb));
    let mut uu = [[C64::ZERO; 4]; 4];
    for r in 0..4 {
        for c in 0..4 {
            uu[r][c] = u[(r, c)];
        }
    }
    // Row pass over super-blocks spanning the higher of the two bits.
    let block_rows = 1usize << (hi + 1);
    traced_chunks_mut(workers, data, block_rows * d, |_, chunk| {
        for lb in 0..block_rows / 4 {
            let r00 = bits::deposit(bits::deposit(lb, lo), hi);
            let rows = [r00, r00 | mb, r00 | ma, r00 | ma | mb];
            for c in 0..d {
                let a = [
                    chunk[rows[0] * d + c],
                    chunk[rows[1] * d + c],
                    chunk[rows[2] * d + c],
                    chunk[rows[3] * d + c],
                ];
                for (j, &row_idx) in rows.iter().enumerate() {
                    let mut acc = C64::ZERO;
                    for (k, &ak) in a.iter().enumerate() {
                        acc += uu[j][k] * ak;
                    }
                    chunk[row_idx * d + c] = acc;
                }
            }
        }
    });
    // Column pass: per row, mix the column quad with conj(u).
    let rows_per_chunk = row_chunk_len(d, workers);
    traced_chunks_mut(workers, data, rows_per_chunk * d, |_, chunk| {
        for row in chunk.chunks_mut(d) {
            for base in 0..d / 4 {
                let c00 = bits::deposit(bits::deposit(base, lo), hi);
                let cols = [c00, c00 | mb, c00 | ma, c00 | ma | mb];
                let b = [row[cols[0]], row[cols[1]], row[cols[2]], row[cols[3]]];
                for (j, &col_idx) in cols.iter().enumerate() {
                    let mut acc = C64::ZERO;
                    for (k, &bk) in b.iter().enumerate() {
                        acc += bk * uu[j][k].conj();
                    }
                    row[col_idx] = acc;
                }
            }
        }
    });
}

/// Controlled-1q conjugation: the 2×2 payload acts on the target bit only on
/// rows/columns where every control bit is set. The row pass is a serial
/// half-sweep; the column pass parallelizes over rows.
fn kernel_controlled(
    data: &mut [C64],
    d: usize,
    cmask: usize,
    tshift: usize,
    u: &CMatrix,
    workers: usize,
) {
    let tm = 1usize << tshift;
    let (u00, u01, u10, u11) = (u[(0, 0)], u[(0, 1)], u[(1, 0)], u[(1, 1)]);
    let mut fixed: Vec<usize> = (0..usize::BITS as usize)
        .filter(|&s| cmask & (1 << s) != 0)
        .collect();
    fixed.push(tshift);
    fixed.sort_unstable();
    let n_base = d >> fixed.len();
    // Row pass: rows with controls set, paired on the target bit.
    for base in 0..n_base {
        let r0 = bits::deposit_multi(base, &fixed) | cmask;
        let r1 = r0 | tm;
        for c in 0..d {
            let a0 = data[r0 * d + c];
            let a1 = data[r1 * d + c];
            data[r0 * d + c] = u00 * a0 + u01 * a1;
            data[r1 * d + c] = u10 * a0 + u11 * a1;
        }
    }
    // Column pass.
    let (c00, c01, c10, c11) = (u00.conj(), u01.conj(), u10.conj(), u11.conj());
    let rows = row_chunk_len(d, workers);
    traced_chunks_mut(workers, data, rows * d, |_, chunk| {
        for row in chunk.chunks_mut(d) {
            for base in 0..n_base {
                let col0 = bits::deposit_multi(base, &fixed) | cmask;
                let col1 = col0 | tm;
                let b0 = row[col0];
                let b1 = row[col1];
                row[col0] = b0 * c00 + b1 * c01;
                row[col1] = b0 * c10 + b1 * c11;
            }
        }
    });
}

/// SWAP conjugation: exchange rows, then columns, whose two bits differ.
fn kernel_swap(data: &mut [C64], d: usize, sa: usize, sb: usize, workers: usize) {
    let ma = 1usize << sa;
    let mb = 1usize << sb;
    let (lo, hi) = (sa.min(sb), sa.max(sb));
    for base in 0..d / 4 {
        let r00 = bits::deposit(bits::deposit(base, lo), hi);
        let (ra, rb) = (r00 | ma, r00 | mb);
        for c in 0..d {
            data.swap(ra * d + c, rb * d + c);
        }
    }
    let rows = row_chunk_len(d, workers);
    traced_chunks_mut(workers, data, rows * d, |_, chunk| {
        for row in chunk.chunks_mut(d) {
            for base in 0..d / 4 {
                let c00 = bits::deposit(bits::deposit(base, lo), hi);
                row.swap(c00 | ma, c00 | mb);
            }
        }
    });
}

/// Diagonal-unitary conjugation: `ρ[r][c] ← diag[r] · ρ[r][c] · conj(diag[c])`
/// in one elementwise pass.
fn kernel_diag(data: &mut [C64], d: usize, diag: &[C64], workers: usize) {
    let rows = row_chunk_len(d, workers);
    traced_chunks_mut(workers, data, rows * d, |ci, chunk| {
        for (lr, row) in chunk.chunks_mut(d).enumerate() {
            let dr = diag[ci * rows + lr];
            for (x, dc) in row.iter_mut().zip(diag.iter()) {
                *x = dr * *x * dc.conj();
            }
        }
    });
}

/// Closed-form single-qubit channel: `f` maps the 2×2 block
/// `(ρ[r0,c0], ρ[r0,c1], ρ[r1,c0], ρ[r1,c1])` (target bit clear/set) to its
/// new values, applied to every block in one O(4^n) sweep.
fn kernel_channel_1q<F>(data: &mut [C64], d: usize, shift: usize, workers: usize, f: F)
where
    F: Fn(C64, C64, C64, C64) -> (C64, C64, C64, C64) + Sync,
{
    let m = 1usize << shift;
    traced_chunks_mut(workers, data, 2 * m * d, |_, chunk| {
        for r in 0..m {
            let off0 = r * d;
            let off1 = (r + m) * d;
            for base in 0..d / 2 {
                let c0 = bits::deposit(base, shift);
                let c1 = c0 | m;
                let (a, b, c, dd) = (
                    chunk[off0 + c0],
                    chunk[off0 + c1],
                    chunk[off1 + c0],
                    chunk[off1 + c1],
                );
                let (na, nb, nc, nd) = f(a, b, c, dd);
                chunk[off0 + c0] = na;
                chunk[off0 + c1] = nb;
                chunk[off1 + c0] = nc;
                chunk[off1 + c1] = nd;
            }
        }
    });
}

/// An `n`-qubit mixed state `ρ` stored as a dense `2^n × 2^n` matrix.
///
/// # Examples
///
/// ```
/// use morph_qsim::{DensityMatrix, Gate};
///
/// let mut rho = DensityMatrix::zero_state(1);
/// rho.apply_gate(&Gate::H(0));
/// assert!((rho.purity() - 1.0).abs() < 1e-12);
/// rho.depolarize(0, 0.5);
/// assert!(rho.purity() < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMatrix {
    n_qubits: usize,
    rho: CMatrix,
}

impl DensityMatrix {
    /// `|0…0⟩⟨0…0|`.
    pub fn zero_state(n_qubits: usize) -> Self {
        assert!(n_qubits <= 13, "density matrix would exceed memory budget");
        let d = 1usize << n_qubits;
        let mut rho = CMatrix::zeros(d, d);
        rho[(0, 0)] = C64::ONE;
        DensityMatrix { n_qubits, rho }
    }

    /// Wraps an existing density matrix.
    ///
    /// # Panics
    ///
    /// Panics if `rho` is not square with power-of-two dimension.
    pub fn from_matrix(rho: CMatrix) -> Self {
        assert!(rho.is_square(), "density matrix must be square");
        assert!(
            rho.rows().is_power_of_two(),
            "dimension must be a power of two"
        );
        let n_qubits = rho.rows().trailing_zeros() as usize;
        DensityMatrix { n_qubits, rho }
    }

    /// Projects a pure state into a density matrix.
    pub fn from_state_vector(psi: &StateVector) -> Self {
        DensityMatrix {
            n_qubits: psi.n_qubits(),
            rho: psi.density_matrix(),
        }
    }

    /// Number of qubits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Borrow the underlying matrix.
    #[inline]
    pub fn matrix(&self) -> &CMatrix {
        &self.rho
    }

    /// Purity `tr(ρ²)`.
    pub fn purity(&self) -> f64 {
        morph_linalg::purity(&self.rho)
    }

    /// Bit position of `qubit` (qubit 0 is the most significant bit).
    #[inline]
    fn shift(&self, qubit: usize) -> usize {
        assert!(qubit < self.n_qubits, "qubit {qubit} out of range");
        self.n_qubits - 1 - qubit
    }

    #[inline]
    fn dim(&self) -> usize {
        1usize << self.n_qubits
    }

    /// Unitary evolution `ρ ← U ρ U†` with a full-register unitary.
    ///
    /// O(8^n) dense-matmul path, kept as the oracle the local kernels are
    /// property-tested against; hot paths go through [`Self::apply_gate`].
    pub fn evolve(&mut self, u: &CMatrix) {
        assert_eq!(u.rows(), self.rho.rows(), "unitary dimension mismatch");
        self.rho = u.matmul(&self.rho).matmul(&u.dagger());
    }

    /// Applies a gate in place through the qubit-local kernels: O(4^n) per
    /// gate, no full-register embedding, no allocation beyond O(2^n) scratch
    /// for diagonal and k≥3-qubit gates.
    pub fn apply_gate(&mut self, gate: &Gate) {
        self.apply_gate_with_workers(gate, auto_workers(self.n_qubits));
    }

    /// [`Self::apply_gate`] with an explicit worker request (`0` = all
    /// cores). Results are bit-identical for every worker count; the
    /// explicit form exists so determinism tests can pin both sides.
    pub fn apply_gate_with_workers(&mut self, gate: &Gate, workers: usize) {
        morph_trace::counter("qsim/density_gates", 1);
        match gate {
            // Diagonal 1q gates: one elementwise pass.
            Gate::Z(q)
            | Gate::S(q)
            | Gate::Sdg(q)
            | Gate::T(q)
            | Gate::Tdg(q)
            | Gate::RZ(q, _)
            | Gate::Phase(q, _) => {
                let u = gate.local_matrix();
                self.diag_1q(*q, u[(0, 0)], u[(1, 1)], workers);
            }
            Gate::H(q) | Gate::X(q) | Gate::Y(q) => {
                self.apply_1q_with_workers(&gate.local_matrix(), *q, workers);
            }
            Gate::RX(q, _) | Gate::RY(q, _) => {
                self.apply_1q_with_workers(&gate.local_matrix(), *q, workers);
            }
            // Diagonal controlled-phase family.
            Gate::CZ(c, t) => self.diag_controlled(&[*c], *t, C64::ONE, -C64::ONE, workers),
            Gate::CPhase(c, t, a) => {
                self.diag_controlled(&[*c], *t, C64::ONE, C64::cis(*a), workers);
            }
            Gate::CRZ(c, t, a) => {
                self.diag_controlled(&[*c], *t, C64::cis(-a / 2.0), C64::cis(a / 2.0), workers);
            }
            Gate::MCZ(qs) => {
                let (last, rest) = qs.split_last().expect("MCZ over at least one qubit");
                self.diag_controlled(rest, *last, C64::ONE, -C64::ONE, workers);
            }
            Gate::CX(c, t) => self.controlled_with_workers(&matrices::x(), &[*c], *t, workers),
            Gate::CCX(c1, c2, t) => {
                self.controlled_with_workers(&matrices::x(), &[*c1, *c2], *t, workers);
            }
            Gate::MCRX(cs, t, a) => {
                self.controlled_with_workers(&matrices::rx(*a), cs, *t, workers);
            }
            Gate::MCRY(cs, t, a) => {
                self.controlled_with_workers(&matrices::ry(*a), cs, *t, workers);
            }
            Gate::Swap(a, b) => self.swap_with_workers(*a, *b, workers),
            Gate::Unitary(qs, u) => match qs.len() {
                1 => self.apply_1q_with_workers(u, qs[0], workers),
                2 => self.apply_2q_with_workers(u, qs[0], qs[1], workers),
                _ => self.apply_kq_local(u, qs),
            },
        }
    }

    /// In-place `ρ ← U ρ U†` for a single-qubit unitary `u` on `qubit`.
    pub fn apply_1q_local(&mut self, u: &CMatrix, qubit: usize) {
        self.apply_1q_with_workers(u, qubit, auto_workers(self.n_qubits));
    }

    fn apply_1q_with_workers(&mut self, u: &CMatrix, qubit: usize, workers: usize) {
        assert_eq!(u.rows(), 2, "apply_1q_local expects a 2×2 unitary");
        let shift = self.shift(qubit);
        let d = self.dim();
        kernel_1q(self.rho.as_mut_slice(), d, shift, u, workers);
    }

    /// In-place `ρ ← U ρ U†` for a two-qubit unitary `u`; `q_a` indexes the
    /// unitary's more significant qubit.
    pub fn apply_2q_local(&mut self, u: &CMatrix, q_a: usize, q_b: usize) {
        self.apply_2q_with_workers(u, q_a, q_b, auto_workers(self.n_qubits));
    }

    fn apply_2q_with_workers(&mut self, u: &CMatrix, q_a: usize, q_b: usize, workers: usize) {
        assert_eq!(u.rows(), 4, "apply_2q_local expects a 4×4 unitary");
        assert_ne!(q_a, q_b, "two-qubit gate requires distinct qubits");
        let sa = self.shift(q_a);
        let sb = self.shift(q_b);
        let d = self.dim();
        kernel_2q(self.rho.as_mut_slice(), d, sa, sb, u, workers);
    }

    fn controlled_with_workers(
        &mut self,
        u: &CMatrix,
        controls: &[usize],
        target: usize,
        workers: usize,
    ) {
        assert_eq!(u.rows(), 2, "controlled payload must be 2×2");
        if controls.is_empty() {
            return self.apply_1q_with_workers(u, target, workers);
        }
        let mut cmask = 0usize;
        for &c in controls {
            assert_ne!(c, target, "control equals target");
            cmask |= 1usize << self.shift(c);
        }
        let tshift = self.shift(target);
        let d = self.dim();
        kernel_controlled(self.rho.as_mut_slice(), d, cmask, tshift, u, workers);
    }

    fn swap_with_workers(&mut self, q_a: usize, q_b: usize, workers: usize) {
        assert_ne!(q_a, q_b, "swap requires distinct qubits");
        let sa = self.shift(q_a);
        let sb = self.shift(q_b);
        let d = self.dim();
        kernel_swap(self.rho.as_mut_slice(), d, sa, sb, workers);
    }

    fn diag_1q(&mut self, qubit: usize, d0: C64, d1: C64, workers: usize) {
        let m = 1usize << self.shift(qubit);
        let d = self.dim();
        let diag: Vec<C64> = (0..d).map(|i| if i & m != 0 { d1 } else { d0 }).collect();
        kernel_diag(self.rho.as_mut_slice(), d, &diag, workers);
    }

    fn diag_controlled(
        &mut self,
        controls: &[usize],
        target: usize,
        p0: C64,
        p1: C64,
        workers: usize,
    ) {
        let mut cmask = 0usize;
        for &c in controls {
            assert_ne!(c, target, "control equals target");
            cmask |= 1usize << self.shift(c);
        }
        let tm = 1usize << self.shift(target);
        let d = self.dim();
        let diag: Vec<C64> = (0..d)
            .map(|i| {
                if i & cmask != cmask {
                    C64::ONE
                } else if i & tm != 0 {
                    p1
                } else {
                    p0
                }
            })
            .collect();
        kernel_diag(self.rho.as_mut_slice(), d, &diag, workers);
    }

    /// In-place `ρ ← U ρ U†` for a k-qubit unitary on `targets` (most
    /// significant first). O(4^n · 2^k) with O(4^k) scratch.
    pub fn apply_kq_local(&mut self, u: &CMatrix, targets: &[usize]) {
        let k = targets.len();
        let dk = 1usize << k;
        assert_eq!(u.rows(), dk, "unitary does not match target count");
        let d = self.dim();
        let mut sorted: Vec<usize> = targets.iter().map(|&q| self.shift(q)).collect();
        sorted.sort_unstable();
        assert!(
            sorted.windows(2).all(|w| w[0] != w[1]),
            "duplicate target qubit"
        );
        // spread[j]: operator bit b of j lands at the bit position of
        // targets[k-1-b] (targets are most significant first).
        let spread: Vec<usize> = (0..dk)
            .map(|j| {
                let mut mask = 0usize;
                for (b, &q) in targets.iter().rev().enumerate() {
                    if j & (1 << b) != 0 {
                        mask |= 1usize << self.shift(q);
                    }
                }
                mask
            })
            .collect();
        let data = self.rho.as_mut_slice();
        let n_rest = d >> k;
        let mut block = vec![C64::ZERO; dk * dk];
        let mut tmp = vec![C64::ZERO; dk * dk];
        for rr in 0..n_rest {
            let row_base = bits::deposit_multi(rr, &sorted);
            for cr in 0..n_rest {
                let col_base = bits::deposit_multi(cr, &sorted);
                for j in 0..dk {
                    let row = (row_base | spread[j]) * d + col_base;
                    for l in 0..dk {
                        block[j * dk + l] = data[row + spread[l]];
                    }
                }
                // tmp = U · block
                for j in 0..dk {
                    for l in 0..dk {
                        let mut acc = C64::ZERO;
                        for p in 0..dk {
                            acc += u[(j, p)] * block[p * dk + l];
                        }
                        tmp[j * dk + l] = acc;
                    }
                }
                // out = tmp · U†, scattered back in place.
                for j in 0..dk {
                    let row = (row_base | spread[j]) * d + col_base;
                    for l in 0..dk {
                        let mut acc = C64::ZERO;
                        for p in 0..dk {
                            acc += tmp[j * dk + p] * u[(l, p)].conj();
                        }
                        data[row + spread[l]] = acc;
                    }
                }
            }
        }
    }

    /// Applies a Kraus channel `ρ ← Σ K ρ K†` with full-register operators.
    ///
    /// O(8^n) per operator; kept as the oracle for the local channel
    /// kernels. Hot paths use [`Self::apply_kraus_local`] or the closed-form
    /// channels.
    ///
    /// # Panics
    ///
    /// Panics if any operator has the wrong dimension.
    pub fn apply_kraus(&mut self, operators: &[CMatrix]) {
        let d = self.rho.rows();
        let mut out = CMatrix::zeros(d, d);
        for k in operators {
            assert_eq!(k.rows(), d, "Kraus operator dimension mismatch");
            out += &k.matmul(&self.rho).matmul(&k.dagger());
        }
        self.rho = out;
    }

    /// Applies a k-qubit Kraus channel `ρ ← Σ K ρ K†` where each operator
    /// is `2^k × 2^k` on `targets` (most significant first) — no embedding,
    /// O(4^n · 2^k) per operator.
    pub fn apply_kraus_local(&mut self, operators: &[CMatrix], targets: &[usize]) {
        let k = targets.len();
        let dk = 1usize << k;
        assert!(!operators.is_empty(), "empty Kraus family");
        for op in operators {
            assert_eq!(op.rows(), dk, "Kraus operator does not match targets");
        }
        let d = self.dim();
        let mut sorted: Vec<usize> = targets.iter().map(|&q| self.shift(q)).collect();
        sorted.sort_unstable();
        assert!(
            sorted.windows(2).all(|w| w[0] != w[1]),
            "duplicate target qubit"
        );
        let spread: Vec<usize> = (0..dk)
            .map(|j| {
                let mut mask = 0usize;
                for (b, &q) in targets.iter().rev().enumerate() {
                    if j & (1 << b) != 0 {
                        mask |= 1usize << self.shift(q);
                    }
                }
                mask
            })
            .collect();
        let data = self.rho.as_mut_slice();
        let n_rest = d >> k;
        let mut block = vec![C64::ZERO; dk * dk];
        let mut tmp = vec![C64::ZERO; dk * dk];
        let mut acc_block = vec![C64::ZERO; dk * dk];
        for rr in 0..n_rest {
            let row_base = bits::deposit_multi(rr, &sorted);
            for cr in 0..n_rest {
                let col_base = bits::deposit_multi(cr, &sorted);
                for j in 0..dk {
                    let row = (row_base | spread[j]) * d + col_base;
                    for l in 0..dk {
                        block[j * dk + l] = data[row + spread[l]];
                    }
                }
                acc_block.iter_mut().for_each(|x| *x = C64::ZERO);
                for op in operators {
                    for j in 0..dk {
                        for l in 0..dk {
                            let mut acc = C64::ZERO;
                            for p in 0..dk {
                                acc += op[(j, p)] * block[p * dk + l];
                            }
                            tmp[j * dk + l] = acc;
                        }
                    }
                    for j in 0..dk {
                        for l in 0..dk {
                            let mut acc = C64::ZERO;
                            for p in 0..dk {
                                acc += tmp[j * dk + p] * op[(l, p)].conj();
                            }
                            acc_block[j * dk + l] += acc;
                        }
                    }
                }
                for j in 0..dk {
                    let row = (row_base | spread[j]) * d + col_base;
                    for l in 0..dk {
                        data[row + spread[l]] = acc_block[j * dk + l];
                    }
                }
            }
        }
    }

    /// Single-qubit depolarizing channel with error probability `p`, in
    /// closed form on 2×2 blocks: populations mix as
    /// `(1 − p/2)·own + (p/2)·other`, coherences shrink by `1 − p`. Exactly
    /// the Kraus channel `(1 − 3p/4)ρ + (p/4)(XρX + YρY + ZρZ)`.
    pub fn depolarize(&mut self, qubit: usize, p: f64) {
        self.depolarize_with_workers(qubit, p, auto_workers(self.n_qubits));
    }

    /// [`Self::depolarize`] with an explicit worker request (`0` = all
    /// cores); bit-identical for every worker count.
    pub fn depolarize_with_workers(&mut self, qubit: usize, p: f64, workers: usize) {
        let shift = self.shift(qubit);
        let d = self.dim();
        let keep = 1.0 - p / 2.0;
        let mix = p / 2.0;
        let coh = 1.0 - p;
        kernel_channel_1q(self.rho.as_mut_slice(), d, shift, workers, |a, b, c, dd| {
            (
                a.scale(keep) + dd.scale(mix),
                b.scale(coh),
                c.scale(coh),
                dd.scale(keep) + a.scale(mix),
            )
        });
    }

    /// Phase-damping (pure dephasing) channel with strength `lambda` on
    /// `qubit`: coherences shrink by `√(1−λ)`, populations are untouched.
    pub fn phase_damp(&mut self, qubit: usize, lambda: f64) {
        let shift = self.shift(qubit);
        let d = self.dim();
        let damp = (1.0 - lambda).sqrt();
        let workers = auto_workers(self.n_qubits);
        kernel_channel_1q(self.rho.as_mut_slice(), d, shift, workers, |a, b, c, dd| {
            (a, b.scale(damp), c.scale(damp), dd)
        });
    }

    /// Bit-flip channel: applies X on `qubit` with probability `p`, in
    /// closed form as the convex mix `(1−p)·ρ + p·XρX` on 2×2 blocks.
    pub fn bit_flip(&mut self, qubit: usize, p: f64) {
        let shift = self.shift(qubit);
        let d = self.dim();
        let keep = 1.0 - p;
        let workers = auto_workers(self.n_qubits);
        kernel_channel_1q(self.rho.as_mut_slice(), d, shift, workers, |a, b, c, dd| {
            (
                a.scale(keep) + dd.scale(p),
                b.scale(keep) + c.scale(p),
                c.scale(keep) + b.scale(p),
                dd.scale(keep) + a.scale(p),
            )
        });
    }

    /// Amplitude-damping channel with decay probability `gamma` on `qubit`:
    /// excited population decays into the ground block, coherences shrink by
    /// `√(1−γ)`.
    pub fn amplitude_damp(&mut self, qubit: usize, gamma: f64) {
        let shift = self.shift(qubit);
        let d = self.dim();
        let damp = (1.0 - gamma).sqrt();
        let keep = 1.0 - gamma;
        let workers = auto_workers(self.n_qubits);
        kernel_channel_1q(self.rho.as_mut_slice(), d, shift, workers, |a, b, c, dd| {
            (
                a + dd.scale(gamma),
                b.scale(damp),
                c.scale(damp),
                dd.scale(keep),
            )
        });
    }

    /// Probability of measuring `qubit` as 1.
    pub fn prob_one(&self, qubit: usize) -> f64 {
        let mask = 1usize << self.shift(qubit);
        (0..self.rho.rows())
            .filter(|i| i & mask != 0)
            .map(|i| self.rho[(i, i)].re)
            .sum()
    }

    /// Diagonal of `ρ` — the computational-basis probability distribution.
    pub fn probabilities(&self) -> Vec<f64> {
        (0..self.rho.rows())
            .map(|i| self.rho[(i, i)].re.max(0.0))
            .collect()
    }

    /// Samples a basis outcome from the diagonal distribution.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let probs = self.probabilities();
        let total: f64 = probs.iter().sum();
        let r: f64 = rng.gen::<f64>() * total;
        let mut acc = 0.0;
        for (i, p) in probs.iter().enumerate() {
            acc += p;
            if r < acc {
                return i;
            }
        }
        probs.len() - 1
    }

    /// Projectively measures `qubit`, collapsing the state. Returns the
    /// outcome.
    pub fn measure(&mut self, qubit: usize, rng: &mut impl Rng) -> u8 {
        let p1 = self.prob_one(qubit);
        let outcome = if rng.gen::<f64>() < p1 { 1u8 } else { 0u8 };
        self.collapse(qubit, outcome);
        outcome
    }

    /// Projects onto the `outcome` branch of `qubit` and renormalizes.
    ///
    /// # Panics
    ///
    /// Panics if the branch probability is (near-)zero.
    pub fn collapse(&mut self, qubit: usize, outcome: u8) {
        let mask = 1usize << self.shift(qubit);
        let keep_one = outcome == 1;
        let d = self.rho.rows();
        let mut p = 0.0;
        for i in 0..d {
            if (i & mask != 0) == keep_one {
                p += self.rho[(i, i)].re;
            }
        }
        assert!(p > 1e-12, "collapsing onto a zero-probability branch");
        let mut out = CMatrix::zeros(d, d);
        for r in 0..d {
            if (r & mask != 0) != keep_one {
                continue;
            }
            for c in 0..d {
                if (c & mask != 0) != keep_one {
                    continue;
                }
                out[(r, c)] = self.rho[(r, c)] / p;
            }
        }
        self.rho = out;
    }

    /// Partial trace keeping only the listed qubits (order preserved).
    pub fn partial_trace(&self, keep: &[usize]) -> CMatrix {
        let k = keep.len();
        let dk = 1usize << k;
        let shifts: Vec<usize> = keep
            .iter()
            .map(|&q| {
                assert!(q < self.n_qubits, "qubit {q} out of range");
                self.n_qubits - 1 - q
            })
            .collect();
        let rest: Vec<usize> = (0..self.n_qubits)
            .filter(|q| !keep.contains(q))
            .map(|q| self.n_qubits - 1 - q)
            .collect();
        let dr = 1usize << rest.len();
        let mut out = CMatrix::zeros(dk, dk);
        for r in 0..dk {
            for c in 0..dk {
                let mut acc = C64::ZERO;
                for e in 0..dr {
                    let mut row = 0usize;
                    let mut col = 0usize;
                    for (bit, &s) in shifts.iter().enumerate() {
                        if (r >> (k - 1 - bit)) & 1 == 1 {
                            row |= 1 << s;
                        }
                        if (c >> (k - 1 - bit)) & 1 == 1 {
                            col |= 1 << s;
                        }
                    }
                    for (bit, &s) in rest.iter().enumerate() {
                        if (e >> (rest.len() - 1 - bit)) & 1 == 1 {
                            row |= 1 << s;
                            col |= 1 << s;
                        }
                    }
                    acc += self.rho[(row, col)];
                }
                out[(r, c)] = acc;
            }
        }
        out
    }

    /// Expectation of a Hermitian observable.
    pub fn expectation(&self, observable: &CMatrix) -> f64 {
        morph_linalg::expectation(observable, &self.rho)
    }

    /// Eigenvalues of the state (descending).
    pub fn spectrum(&self) -> Vec<f64> {
        eigh(&self.rho).values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::matrices;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A reproducible random mixed state: average of a few random pure
    /// states.
    fn random_mixed(n: usize, seed: u64) -> DensityMatrix {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let d = 1usize << n;
        let mut rho = CMatrix::zeros(d, d);
        for _ in 0..3 {
            let amps: Vec<C64> = (0..d)
                .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            let norm: f64 = amps.iter().map(|a| a.abs() * a.abs()).sum::<f64>().sqrt();
            let amps: Vec<C64> = amps
                .iter()
                .map(|a| a.scale(1.0 / norm / 3f64.sqrt()))
                .collect();
            rho += &CMatrix::outer(&amps, &amps);
        }
        DensityMatrix::from_matrix(rho)
    }

    #[test]
    fn pure_evolution_matches_state_vector() {
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_gate(&Gate::H(0));
        rho.apply_gate(&Gate::CX(0, 1));
        let mut psi = StateVector::zero_state(2);
        psi.apply_h(0);
        psi.apply_cx(0, 1);
        assert!(rho.matrix().approx_eq(&psi.density_matrix(), 1e-12));
        assert!((rho.purity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn local_kernels_match_full_matrix_oracle() {
        let gates = [
            Gate::H(1),
            Gate::Y(2),
            Gate::T(0),
            Gate::RZ(2, 0.37),
            Gate::RX(1, -1.2),
            Gate::CX(2, 0),
            Gate::CZ(0, 2),
            Gate::CRZ(1, 0, 0.9),
            Gate::CPhase(2, 1, -0.4),
            Gate::Swap(0, 2),
            Gate::CCX(2, 0, 1),
            Gate::MCZ(vec![0, 2]),
            Gate::MCRX(vec![1], 2, 0.8),
            Gate::MCRY(vec![0, 1], 2, -0.6),
            Gate::Unitary(vec![1], matrices::ry(0.3)),
            Gate::Unitary(vec![2, 0], matrices::swap()),
            Gate::Unitary(vec![1, 2, 0], matrices::controlled(&matrices::rx(0.5), 2)),
        ];
        for g in &gates {
            let mut fast = random_mixed(3, 11);
            let mut oracle = fast.clone();
            fast.apply_gate(g);
            oracle.evolve(&g.full_matrix(3));
            assert!(
                fast.matrix().approx_eq(oracle.matrix(), 1e-12),
                "{g:?} disagrees with the evolve oracle"
            );
        }
    }

    #[test]
    fn kraus_local_matches_embedded_kraus() {
        let k0 = matrices::i().scale_re((1.0 - 0.3f64).sqrt());
        let k1 = matrices::x().scale_re(0.3f64.sqrt());
        let mut fast = random_mixed(3, 5);
        let mut oracle = fast.clone();
        fast.apply_kraus_local(&[k0.clone(), k1.clone()], &[1]);
        oracle.apply_kraus(&[k0.embed(&[1], 3), k1.embed(&[1], 3)]);
        assert!(fast.matrix().approx_eq(oracle.matrix(), 1e-12));
    }

    #[test]
    fn depolarizing_reduces_purity_monotonically() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_gate(&Gate::H(0));
        let mut last = rho.purity();
        for _ in 0..4 {
            rho.depolarize(0, 0.2);
            let p = rho.purity();
            assert!(p < last + 1e-12);
            last = p;
        }
        // Full depolarization limit: maximally mixed.
        for _ in 0..200 {
            rho.depolarize(0, 0.5);
        }
        assert!((rho.purity() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn closed_form_depolarize_matches_kraus_oracle() {
        let p = 0.17;
        let mut fast = random_mixed(3, 29);
        let mut oracle = fast.clone();
        fast.depolarize(1, p);
        let i = CMatrix::identity(2).scale_re((1.0 - 3.0 * p / 4.0).sqrt());
        let scale = (p / 4.0).sqrt();
        let ops: Vec<CMatrix> = [
            i,
            matrices::x().scale_re(scale),
            matrices::y().scale_re(scale),
            matrices::z().scale_re(scale),
        ]
        .iter()
        .map(|k| k.embed(&[1], 3))
        .collect();
        oracle.apply_kraus(&ops);
        assert!(fast.matrix().approx_eq(oracle.matrix(), 1e-12));
    }

    #[test]
    fn depolarize_preserves_trace() {
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_gate(&Gate::H(0));
        rho.apply_gate(&Gate::CX(0, 1));
        rho.depolarize(0, 0.1);
        rho.depolarize(1, 0.1);
        assert!((rho.matrix().trace().re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn amplitude_damping_drives_to_ground() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_gate(&Gate::X(0));
        for _ in 0..100 {
            rho.amplitude_damp(0, 0.2);
        }
        assert!(rho.prob_one(0) < 1e-6);
        assert!((rho.matrix().trace().re - 1.0).abs() < 1e-10);
    }

    #[test]
    fn phase_damping_kills_coherences_only() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_gate(&Gate::H(0));
        let p1_before = rho.prob_one(0);
        for _ in 0..50 {
            rho.phase_damp(0, 0.3);
        }
        // Populations preserved, coherence gone.
        assert!((rho.prob_one(0) - p1_before).abs() < 1e-10);
        assert!(rho.matrix()[(0, 1)].abs() < 1e-3);
        assert!((rho.matrix().trace().re - 1.0).abs() < 1e-10);
    }

    #[test]
    fn bit_flip_channel_mixes_populations() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.bit_flip(0, 0.25);
        assert!((rho.prob_one(0) - 0.25).abs() < 1e-12);
        // Repeated flips converge to the 50/50 mixture.
        for _ in 0..200 {
            rho.bit_flip(0, 0.25);
        }
        assert!((rho.prob_one(0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn parallel_workers_are_bit_identical() {
        for g in [
            Gate::H(0),
            Gate::CX(0, 3),
            Gate::Swap(1, 2),
            Gate::RZ(3, 0.7),
            Gate::MCZ(vec![0, 1, 3]),
        ] {
            let mut serial = random_mixed(4, 83);
            let mut wide = serial.clone();
            serial.apply_gate_with_workers(&g, 1);
            wide.apply_gate_with_workers(&g, 4);
            assert_eq!(serial, wide, "{g:?} differs across worker counts");
        }
        let mut serial = random_mixed(4, 84);
        let mut wide = serial.clone();
        serial.depolarize_with_workers(2, 0.1, 1);
        wide.depolarize_with_workers(2, 0.1, 4);
        assert_eq!(serial, wide);
    }

    #[test]
    fn measurement_collapse_updates_probabilities() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_gate(&Gate::H(0));
        rho.apply_gate(&Gate::CX(0, 1));
        let outcome = rho.measure(0, &mut rng);
        assert!((rho.prob_one(1) - outcome as f64).abs() < 1e-10);
    }

    #[test]
    fn partial_trace_matches_state_vector_reduction() {
        let mut psi = StateVector::zero_state(3);
        psi.apply_h(0);
        psi.apply_cx(0, 2);
        psi.apply_1q(&matrices::ry(0.7), 1);
        let rho = DensityMatrix::from_state_vector(&psi);
        for keep in [vec![0], vec![2], vec![0, 2], vec![2, 0], vec![1]] {
            let a = rho.partial_trace(&keep);
            let b = psi.reduced_density_matrix(&keep);
            assert!(a.approx_eq(&b, 1e-12), "keep={keep:?}");
        }
    }

    #[test]
    fn expectation_z_on_plus_state() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_gate(&Gate::H(0));
        assert!(rho.expectation(&matrices::z()).abs() < 1e-12);
        assert!((rho.expectation(&matrices::x()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spectrum_of_mixed_state() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_gate(&Gate::H(0));
        rho.depolarize(0, 0.4);
        let spec = rho.spectrum();
        assert_eq!(spec.len(), 2);
        assert!((spec.iter().sum::<f64>() - 1.0).abs() < 1e-10);
        assert!(spec[0] > spec[1]);
    }

    #[test]
    fn sampling_respects_distribution() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_gate(&Gate::RY(0, 2.0 * (0.3f64.sqrt()).asin()));
        // P(1) = 0.3 by construction.
        assert!((rho.prob_one(0) - 0.3).abs() < 1e-10);
        let shots = 20_000;
        let ones = (0..shots).filter(|_| rho.sample(&mut rng) == 1).count();
        assert!((ones as f64 / shots as f64 - 0.3).abs() < 0.02);
    }
}
