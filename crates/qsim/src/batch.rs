//! Batched (gate-major) execution: one gate applied across many states in a
//! single strided pass.
//!
//! The characterization sweep executes the *same* circuit over dozens of
//! sampled input states. The per-state path walks the gate list once per
//! state, re-reading every gate matrix and re-deriving every kernel index
//! `B` times. [`StateBatch`] inverts that loop: storage is batch-innermost
//! (`re[amp_index * batch + lane]`), so each gate's index arithmetic is
//! computed once per amplitude block and the per-lane update becomes a
//! contiguous, autovectorization-friendly inner loop.
//!
//! # Bit-identity contract
//!
//! Every batched kernel uses the *same arithmetic expressions per element*
//! as the per-state kernels in [`crate::StateVector`] — including the
//! `C64::ZERO`-seeded accumulation folds, which differ at the last bit
//! from algebraically equal alternatives (`0.0 + (-0.0)` is `+0.0`). Lanes
//! never mix, so every lane of a batch is **bitwise identical** to running
//! the per-state kernel on that lane alone, at any batch size. The unit
//! tests below and the workspace-level proptests enforce this with exact
//! equality, keeping the per-state path as the oracle.

use morph_linalg::{CMatrix, C64};

use crate::bits;
use crate::gate::{matrices, Gate};
use crate::state::StateVector;

/// Disjoint mutable lane slices at `i0` and `j0` (requires `i0 + len <= j0`).
#[inline(always)]
fn lane_pair<T>(data: &mut [T], i0: usize, j0: usize, len: usize) -> (&mut [T], &mut [T]) {
    debug_assert!(i0 + len <= j0);
    let (head, tail) = data.split_at_mut(j0);
    (&mut head[i0..i0 + len], &mut tail[..len])
}

/// Four disjoint mutable lane slices; `starts` must be ascending with gaps
/// of at least `len`.
#[inline(always)]
fn lane_quad<T>(data: &mut [T], starts: [usize; 4], len: usize) -> [&mut [T]; 4] {
    debug_assert!(starts[0] + len <= starts[1]);
    debug_assert!(starts[1] + len <= starts[2]);
    debug_assert!(starts[2] + len <= starts[3]);
    let (s0, rest) = data.split_at_mut(starts[1]);
    let (s1, rest) = rest.split_at_mut(starts[2] - starts[1]);
    let (s2, s3) = rest.split_at_mut(starts[3] - starts[2]);
    [
        &mut s0[starts[0]..starts[0] + len],
        &mut s1[..len],
        &mut s2[..len],
        &mut s3[..len],
    ]
}

/// Widest SIMD level the running CPU supports for the `f64` lane kernels.
///
/// The kernels themselves are plain scalar Rust compiled three times — once
/// per feature level via `#[target_feature]` — so wider vectors never change
/// the per-element operations, only how many lanes retire per instruction.
/// Detection is cached by `is_x86_feature_detected!` itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SimdLevel {
    #[cfg(target_arch = "x86_64")]
    Avx512,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    Portable,
}

#[inline]
fn simd_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return SimdLevel::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
    }
    SimdLevel::Portable
}

/// Stamps `#[target_feature]` wrappers for a generic lane-kernel body and a
/// dispatcher that picks the widest supported one. The body must be
/// `#[inline(always)]` so each wrapper recompiles it at its feature level.
macro_rules! simd_dispatch {
    ($dispatch:ident, $body:ident, $body_avx512:ident, $body_avx2:ident,
     ($($arg:ident: $ty:ty),* $(,)?)) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f")]
        #[allow(clippy::too_many_arguments)]
        unsafe fn $body_avx512<const B: usize>($($arg: $ty),*) {
            $body::<B>($($arg),*)
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        #[allow(clippy::too_many_arguments)]
        unsafe fn $body_avx2<const B: usize>($($arg: $ty),*) {
            $body::<B>($($arg),*)
        }

        #[allow(clippy::too_many_arguments)]
        fn $dispatch<const B: usize>($($arg: $ty),*) {
            match simd_level() {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: the feature was detected at runtime.
                SimdLevel::Avx512 => unsafe { $body_avx512::<B>($($arg),*) },
                #[cfg(target_arch = "x86_64")]
                // SAFETY: the feature was detected at runtime.
                SimdLevel::Avx2 => unsafe { $body_avx2::<B>($($arg),*) },
                SimdLevel::Portable => $body::<B>($($arg),*),
            }
        }
    };
}

/// Accumulates `o += u * a` exactly as `C64`'s `Mul` + `AddAssign` do for
/// planar operands: `o.re += u.re*a.re - u.im*a.im`,
/// `o.im += u.re*a.im + u.im*a.re`.
macro_rules! cmul_acc {
    ($or:ident, $oi:ident, $u:expr, $ar:expr, $ai:expr) => {
        $or += $u.re * $ar - $u.im * $ai;
        $oi += $u.re * $ai + $u.im * $ar;
    };
}

/// Single-qubit lane kernel over planar storage: one fused pass reads both
/// amplitude rows once and writes them once. Per element this is exactly
/// `x' = u00*a0 + u01*a1; y' = u10*a0 + u11*a1` in `C64` arithmetic, so
/// lanes stay bitwise identical to [`StateVector::apply_1q`]. `B` is the
/// compile-time batch width, or 0 for the runtime-width fallback.
#[inline(always)]
fn batch_1q_body<const B: usize>(
    re: &mut [f64],
    im: &mut [f64],
    batch: usize,
    dim: usize,
    shift: usize,
    uu: [C64; 4],
) {
    let b = if B == 0 { batch } else { B };
    debug_assert_eq!(b, batch);
    let mask = 1usize << shift;
    let [u00, u01, u10, u11] = uu;
    for base in 0..dim / 2 {
        let i = bits::deposit(base, shift);
        let j = i | mask;
        let (r0, r1) = lane_pair(re, i * b, j * b, b);
        let (i0, i1) = lane_pair(im, i * b, j * b, b);
        for l in 0..b {
            let (a0r, a0i) = (r0[l], i0[l]);
            let (a1r, a1i) = (r1[l], i1[l]);
            r0[l] = (u00.re * a0r - u00.im * a0i) + (u01.re * a1r - u01.im * a1i);
            i0[l] = (u00.re * a0i + u00.im * a0r) + (u01.re * a1i + u01.im * a1r);
            r1[l] = (u10.re * a0r - u10.im * a0i) + (u11.re * a1r - u11.im * a1i);
            i1[l] = (u10.re * a0i + u10.im * a0r) + (u11.re * a1i + u11.im * a1r);
        }
    }
}

simd_dispatch!(
    batch_1q_dispatch,
    batch_1q_body,
    batch_1q_body_avx512,
    batch_1q_body_avx2,
    (re: &mut [f64], im: &mut [f64], batch: usize, dim: usize, shift: usize, uu: [C64; 4])
);

/// Two-qubit lane kernel over planar storage: one fused pass per amplitude
/// quad loads the four input rows once and computes all four outputs, with
/// every complex multiply-add expanded into the scalar `f64` operations
/// `C64`'s `Mul`/`Add`/`AddAssign` perform for `acc += u[r][c] * a[c]`
/// folded from `C64::ZERO` in column order — bitwise identical to
/// [`StateVector::apply_2q`] per lane. `swap_mid` maps the ascending-index
/// middle slices back to the gate's row order `[i00, i00|mb, i00|ma,
/// i00|ma|mb]`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn batch_2q_body<const B: usize>(
    re: &mut [f64],
    im: &mut [f64],
    batch: usize,
    dim: usize,
    lo: usize,
    hi: usize,
    swap_mid: bool,
    uu: [[C64; 4]; 4],
) {
    let b = if B == 0 { batch } else { B };
    debug_assert_eq!(b, batch);
    let (mlo, mhi) = (1usize << lo, 1usize << hi);
    let [u0, u1, u2, u3] = uu;
    for base in 0..dim / 4 {
        let i00 = bits::deposit(bits::deposit(base, lo), hi);
        let starts = [
            i00 * b,
            (i00 | mlo) * b,
            (i00 | mhi) * b,
            (i00 | mlo | mhi) * b,
        ];
        let [r0, rlo, rhi, r3] = lane_quad(re, starts, b);
        let [i0, ilo, ihi, i3] = lane_quad(im, starts, b);
        let (r1, r2) = if swap_mid { (rlo, rhi) } else { (rhi, rlo) };
        let (i1, i2) = if swap_mid { (ilo, ihi) } else { (ihi, ilo) };
        for l in 0..b {
            let (a0r, a0i) = (r0[l], i0[l]);
            let (a1r, a1i) = (r1[l], i1[l]);
            let (a2r, a2i) = (r2[l], i2[l]);
            let (a3r, a3i) = (r3[l], i3[l]);
            let (mut o0r, mut o0i) = (0.0f64, 0.0f64);
            cmul_acc!(o0r, o0i, u0[0], a0r, a0i);
            cmul_acc!(o0r, o0i, u0[1], a1r, a1i);
            cmul_acc!(o0r, o0i, u0[2], a2r, a2i);
            cmul_acc!(o0r, o0i, u0[3], a3r, a3i);
            let (mut o1r, mut o1i) = (0.0f64, 0.0f64);
            cmul_acc!(o1r, o1i, u1[0], a0r, a0i);
            cmul_acc!(o1r, o1i, u1[1], a1r, a1i);
            cmul_acc!(o1r, o1i, u1[2], a2r, a2i);
            cmul_acc!(o1r, o1i, u1[3], a3r, a3i);
            let (mut o2r, mut o2i) = (0.0f64, 0.0f64);
            cmul_acc!(o2r, o2i, u2[0], a0r, a0i);
            cmul_acc!(o2r, o2i, u2[1], a1r, a1i);
            cmul_acc!(o2r, o2i, u2[2], a2r, a2i);
            cmul_acc!(o2r, o2i, u2[3], a3r, a3i);
            let (mut o3r, mut o3i) = (0.0f64, 0.0f64);
            cmul_acc!(o3r, o3i, u3[0], a0r, a0i);
            cmul_acc!(o3r, o3i, u3[1], a1r, a1i);
            cmul_acc!(o3r, o3i, u3[2], a2r, a2i);
            cmul_acc!(o3r, o3i, u3[3], a3r, a3i);
            r0[l] = o0r;
            i0[l] = o0i;
            r1[l] = o1r;
            i1[l] = o1i;
            r2[l] = o2r;
            i2[l] = o2i;
            r3[l] = o3r;
            i3[l] = o3i;
        }
    }
}

simd_dispatch!(
    batch_2q_dispatch,
    batch_2q_body,
    batch_2q_body_avx512,
    batch_2q_body_avx2,
    (
        re: &mut [f64],
        im: &mut [f64],
        batch: usize,
        dim: usize,
        lo: usize,
        hi: usize,
        swap_mid: bool,
        uu: [[C64; 4]; 4],
    )
);

/// A batch of `B` pure states over the same register, stored planar
/// (separate `re`/`im` planes) and batch-innermost: amplitude `i` of lane
/// `l` lives at `re[i * batch + lane]` / `im[i * batch + lane]`.
///
/// The planar split means the hot gate kernels read and write unit-stride
/// `f64` streams with loop-invariant coefficients — the shape the loop
/// vectorizer handles best — instead of interleaved complex pairs.
///
/// # Examples
///
/// ```
/// use morph_qsim::{Gate, StateBatch};
///
/// let mut batch = StateBatch::zero_states(2, 4);
/// batch.apply_gate(&Gate::H(0));
/// batch.apply_gate(&Gate::CX(0, 1));
/// for l in 0..4 {
///     assert!((batch.lane(l).probabilities()[3] - 0.5).abs() < 1e-12);
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StateBatch {
    n_qubits: usize,
    batch: usize,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl StateBatch {
    /// `B` copies of `|0…0⟩`.
    pub fn zero_states(n_qubits: usize, batch: usize) -> Self {
        Self::assert_budget(n_qubits, batch);
        let len = (1usize << n_qubits) * batch;
        let mut re = vec![0.0f64; len];
        re[..batch].fill(1.0);
        StateBatch {
            n_qubits,
            batch,
            re,
            im: vec![0.0f64; len],
        }
    }

    /// Packs per-lane states into batch-innermost storage, bit-exactly.
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty or qubit counts differ.
    pub fn from_states(states: &[StateVector]) -> Self {
        assert!(!states.is_empty(), "state batch cannot be empty");
        let n_qubits = states[0].n_qubits();
        assert!(
            states.iter().all(|s| s.n_qubits() == n_qubits),
            "all lanes must share one register size"
        );
        let batch = states.len();
        Self::assert_budget(n_qubits, batch);
        let dim = 1usize << n_qubits;
        let mut re = vec![0.0f64; dim * batch];
        let mut im = vec![0.0f64; dim * batch];
        for (l, s) in states.iter().enumerate() {
            for (i, &a) in s.amplitudes().iter().enumerate() {
                re[i * batch + l] = a.re;
                im[i * batch + l] = a.im;
            }
        }
        StateBatch {
            n_qubits,
            batch,
            re,
            im,
        }
    }

    /// The most lanes one batch may hold at `n_qubits`: `2^27` amplitudes
    /// across all lanes, and never fewer than one lane.
    pub fn max_lanes(n_qubits: usize) -> usize {
        u32::try_from(n_qubits)
            .ok()
            .and_then(|n| (1usize << 27).checked_shr(n))
            .unwrap_or(0)
            .max(1)
    }

    fn assert_budget(n_qubits: usize, batch: usize) {
        assert!(batch >= 1, "state batch cannot be empty");
        assert!(n_qubits < 28, "state batch would exceed memory budget");
        assert!(
            batch <= Self::max_lanes(n_qubits),
            "state batch of {batch} lanes at {n_qubits} qubits exceeds memory budget"
        );
    }

    /// Number of qubits per lane.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of lanes.
    #[inline]
    pub fn batch(&self) -> usize {
        self.batch
    }

    #[inline]
    fn dim(&self) -> usize {
        1usize << self.n_qubits
    }

    #[inline]
    fn bit_shift(&self, qubit: usize) -> usize {
        assert!(qubit < self.n_qubits, "qubit {qubit} out of range");
        self.n_qubits - 1 - qubit
    }

    /// Extracts lane `lane` as a [`StateVector`], bit-exactly.
    pub fn lane(&self, lane: usize) -> StateVector {
        assert!(lane < self.batch, "lane {lane} out of range");
        let amps: Vec<C64> = (0..self.dim())
            .map(|i| {
                C64::new(
                    self.re[i * self.batch + lane],
                    self.im[i * self.batch + lane],
                )
            })
            .collect();
        StateVector::from_normalized_amplitudes(amps)
    }

    /// Reduced density matrix of `qubits` for one lane, read directly from
    /// the planar storage — no per-lane [`StateVector`] is materialized.
    ///
    /// Runs the same bucket scan as
    /// [`StateVector::reduced_density_matrix`] over the lane's strided
    /// amplitudes, so the result is bit-identical to
    /// `self.lane(lane).reduced_density_matrix(qubits)` without the
    /// `O(2^n)` gather-and-copy that `lane` performs. This is the batched
    /// sweep's tracepoint readout.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range lane or duplicate/out-of-range qubits.
    pub fn lane_reduced_density_matrix(&self, lane: usize, qubits: &[usize]) -> CMatrix {
        assert!(lane < self.batch, "lane {lane} out of range");
        let shifts: Vec<usize> = qubits.iter().map(|&q| self.bit_shift(q)).collect();
        let (batch, re, im) = (self.batch, &self.re, &self.im);
        crate::state::rdm_scan(self.dim(), &shifts, |i| {
            C64::new(re[i * batch + lane], im[i * batch + lane])
        })
    }

    /// Applies `gate` to every lane, dispatching exactly as
    /// [`Gate::apply`] does for a single state.
    pub fn apply_gate(&mut self, gate: &Gate) {
        morph_trace::counter("qsim/batch_gates", 1);
        match gate {
            Gate::H(q) => self.apply_h(*q),
            Gate::X(q) => self.apply_x(*q),
            Gate::Y(q) => self.apply_1q(&matrices::y(), *q),
            Gate::Z(q) => self.apply_z(*q),
            Gate::S(q) => self.apply_s(*q),
            Gate::Sdg(q) => self.apply_sdg(*q),
            Gate::T(q) => self.apply_phase(*q, std::f64::consts::FRAC_PI_4),
            Gate::Tdg(q) => self.apply_phase(*q, -std::f64::consts::FRAC_PI_4),
            Gate::RX(q, a) => self.apply_1q(&matrices::rx(*a), *q),
            Gate::RY(q, a) => self.apply_1q(&matrices::ry(*a), *q),
            Gate::RZ(q, a) => self.apply_1q(&matrices::rz(*a), *q),
            Gate::Phase(q, a) => self.apply_phase(*q, *a),
            Gate::CX(c, t) => self.apply_cx(*c, *t),
            Gate::CZ(a, b) => self.apply_cz(*a, *b),
            Gate::CRZ(c, t, a) => self.apply_controlled_1q(&matrices::rz(*a), &[*c], *t),
            Gate::CPhase(c, t, a) => self.apply_controlled_1q(&matrices::phase(*a), &[*c], *t),
            Gate::Swap(a, b) => self.apply_swap(*a, *b),
            Gate::CCX(c1, c2, t) => self.apply_controlled_1q(&matrices::x(), &[*c1, *c2], *t),
            Gate::MCZ(qs) => self.apply_mcz(qs),
            Gate::MCRX(cs, t, a) => self.apply_controlled_1q(&matrices::rx(*a), cs, *t),
            Gate::MCRY(cs, t, a) => self.apply_controlled_1q(&matrices::ry(*a), cs, *t),
            Gate::Unitary(qs, u) => self.apply_kq(u, qs),
        }
    }

    /// Batched [`StateVector::apply_1q`]: one index computation per
    /// amplitude pair, then a contiguous per-lane update.
    ///
    /// The per-lane loop splits each complex multiply-add into the exact
    /// scalar `f64` operations `C64`'s `Mul`/`Add` impls perform, in the
    /// same order, so every lane stays bitwise identical to
    /// [`StateVector::apply_1q`] while the loop body vectorizes cleanly
    /// (planar loads, loop-invariant coefficients, one output stream).
    pub fn apply_1q(&mut self, u: &CMatrix, qubit: usize) {
        assert_eq!(u.rows(), 2, "apply_1q requires a 2x2 matrix");
        assert_eq!(u.cols(), 2, "apply_1q requires a 2x2 matrix");
        // Monomorphize the hot batch widths so the per-lane loops have a
        // compile-time trip count (no bounds checks, full unroll + SIMD);
        // other widths share the same code with a runtime length.
        match self.batch {
            8 => self.apply_1q_lanes::<8>(u, qubit),
            16 => self.apply_1q_lanes::<16>(u, qubit),
            32 => self.apply_1q_lanes::<32>(u, qubit),
            64 => self.apply_1q_lanes::<64>(u, qubit),
            _ => self.apply_1q_lanes::<0>(u, qubit),
        }
    }

    /// `B` is the compile-time batch width, or `0` for the runtime-width
    /// fallback. Both paths run the identical per-element expressions.
    fn apply_1q_lanes<const B: usize>(&mut self, u: &CMatrix, qubit: usize) {
        let shift = self.bit_shift(qubit);
        let uu = [u[(0, 0)], u[(0, 1)], u[(1, 0)], u[(1, 1)]];
        batch_1q_dispatch::<B>(
            &mut self.re,
            &mut self.im,
            self.batch,
            1 << self.n_qubits,
            shift,
            uu,
        );
    }

    /// Batched [`StateVector::apply_2q`] with the gate matrix hoisted into
    /// registers once per gate instead of once per amplitude quad.
    pub fn apply_2q(&mut self, u: &CMatrix, q_a: usize, q_b: usize) {
        assert_eq!(u.rows(), 4, "apply_2q requires a 4x4 matrix");
        assert_ne!(q_a, q_b, "two-qubit gate targets must differ");
        // Same monomorphization scheme as [`Self::apply_1q`].
        match self.batch {
            8 => self.apply_2q_lanes::<8>(u, q_a, q_b),
            16 => self.apply_2q_lanes::<16>(u, q_a, q_b),
            32 => self.apply_2q_lanes::<32>(u, q_a, q_b),
            64 => self.apply_2q_lanes::<64>(u, q_a, q_b),
            _ => self.apply_2q_lanes::<0>(u, q_a, q_b),
        }
    }

    /// `B` is the compile-time batch width, or `0` for the runtime-width
    /// fallback. Both paths run the identical per-element expressions.
    fn apply_2q_lanes<const B: usize>(&mut self, u: &CMatrix, q_a: usize, q_b: usize) {
        let sa = self.bit_shift(q_a);
        let sb = self.bit_shift(q_b);
        let mut uu = [[C64::ZERO; 4]; 4];
        for r in 0..4 {
            for c in 0..4 {
                uu[r][c] = u[(r, c)];
            }
        }
        batch_2q_dispatch::<B>(
            &mut self.re,
            &mut self.im,
            self.batch,
            1 << self.n_qubits,
            sa.min(sb),
            sa.max(sb),
            sb < sa,
            uu,
        );
    }

    /// Batched [`StateVector::apply_kq`]; `k <= 2` delegates so the
    /// arithmetic stays identical to the per-state dispatch.
    pub fn apply_kq(&mut self, u: &CMatrix, targets: &[usize]) {
        let k = targets.len();
        assert_eq!(
            u.rows(),
            1 << k,
            "operator size does not match target count"
        );
        match k {
            1 => return self.apply_1q(u, targets[0]),
            2 => return self.apply_2q(u, targets[0], targets[1]),
            _ => {}
        }
        let shifts: Vec<usize> = targets.iter().map(|&q| self.bit_shift(q)).collect();
        {
            let mut sorted = shifts.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), k, "duplicate targets");
        }
        let dk = 1usize << k;
        let sorted = {
            let mut s = shifts.clone();
            s.sort_unstable();
            s
        };
        let spread: Vec<usize> = (0..dk)
            .map(|t| {
                let mut mask = 0usize;
                for (bit, &s) in shifts.iter().enumerate() {
                    if (t >> (k - 1 - bit)) & 1 == 1 {
                        mask |= 1 << s;
                    }
                }
                mask
            })
            .collect();
        let b = self.batch;
        let mut scratch = vec![C64::ZERO; dk];
        for rest in 0..self.dim() >> k {
            let base = bits::deposit_multi(rest, &sorted);
            for l in 0..b {
                for (t, slot) in scratch.iter_mut().enumerate() {
                    let at = (base | spread[t]) * b + l;
                    *slot = C64::new(self.re[at], self.im[at]);
                }
                for r in 0..dk {
                    let mut acc = C64::ZERO;
                    for c in 0..dk {
                        acc += u[(r, c)] * scratch[c];
                    }
                    let at = (base | spread[r]) * b + l;
                    self.re[at] = acc.re;
                    self.im[at] = acc.im;
                }
            }
        }
    }

    /// Batched [`StateVector::apply_controlled_1q`].
    pub fn apply_controlled_1q(&mut self, u: &CMatrix, controls: &[usize], target: usize) {
        assert_eq!(u.rows(), 2, "controlled gate payload must be 2x2");
        let ts = self.bit_shift(target);
        let tmask = 1usize << ts;
        let cmask: usize = controls
            .iter()
            .map(|&c| {
                assert_ne!(c, target, "control equals target");
                1usize << self.bit_shift(c)
            })
            .sum();
        let fixed = {
            let mut f: Vec<usize> = controls.iter().map(|&c| self.bit_shift(c)).collect();
            f.push(ts);
            f.sort_unstable();
            f
        };
        let b = self.batch;
        let (u00, u01, u10, u11) = (u[(0, 0)], u[(0, 1)], u[(1, 0)], u[(1, 1)]);
        for base in 0..self.dim() >> fixed.len() {
            let i = bits::deposit_multi(base, &fixed) | cmask;
            let j = i | tmask;
            let (r0, r1) = lane_pair(&mut self.re, i * b, j * b, b);
            let (i0, i1) = lane_pair(&mut self.im, i * b, j * b, b);
            for l in 0..b {
                let (a0r, a0i) = (r0[l], i0[l]);
                let (a1r, a1i) = (r1[l], i1[l]);
                r0[l] = (u00.re * a0r - u00.im * a0i) + (u01.re * a1r - u01.im * a1i);
                i0[l] = (u00.re * a0i + u00.im * a0r) + (u01.re * a1i + u01.im * a1r);
                r1[l] = (u10.re * a0r - u10.im * a0i) + (u11.re * a1r - u11.im * a1i);
                i1[l] = (u10.re * a0i + u10.im * a0r) + (u11.re * a1i + u11.im * a1r);
            }
        }
    }

    /// Batched [`StateVector::apply_h`].
    pub fn apply_h(&mut self, qubit: usize) {
        let h = 1.0 / 2f64.sqrt();
        let shift = self.bit_shift(qubit);
        let mask = 1usize << shift;
        let b = self.batch;
        for base in 0..self.dim() / 2 {
            let i = bits::deposit(base, shift);
            let j = i | mask;
            let (r0, r1) = lane_pair(&mut self.re, i * b, j * b, b);
            let (i0, i1) = lane_pair(&mut self.im, i * b, j * b, b);
            for l in 0..b {
                let (a0r, a0i) = (r0[l], i0[l]);
                let (a1r, a1i) = (r1[l], i1[l]);
                r0[l] = (a0r + a1r) * h;
                i0[l] = (a0i + a1i) * h;
                r1[l] = (a0r - a1r) * h;
                i1[l] = (a0i - a1i) * h;
            }
        }
    }

    /// Batched [`StateVector::apply_x`] — pure lane swaps, no arithmetic.
    pub fn apply_x(&mut self, qubit: usize) {
        let shift = self.bit_shift(qubit);
        let mask = 1usize << shift;
        let b = self.batch;
        for base in 0..self.dim() / 2 {
            let i = bits::deposit(base, shift);
            let (r0, r1) = lane_pair(&mut self.re, i * b, (i | mask) * b, b);
            r0.swap_with_slice(r1);
            let (i0, i1) = lane_pair(&mut self.im, i * b, (i | mask) * b, b);
            i0.swap_with_slice(i1);
        }
    }

    /// Batched [`StateVector::apply_z`].
    pub fn apply_z(&mut self, qubit: usize) {
        let shift = self.bit_shift(qubit);
        let mask = 1usize << shift;
        let b = self.batch;
        for base in 0..self.dim() / 2 {
            let i = (bits::deposit(base, shift) | mask) * b;
            for x in &mut self.re[i..i + b] {
                *x = -*x;
            }
            for x in &mut self.im[i..i + b] {
                *x = -*x;
            }
        }
    }

    /// Batched [`StateVector::apply_s`]: the exact component swap
    /// `(re, im) ↦ (−im, re)` per lane, bitwise identical to the per-state
    /// kernel.
    pub fn apply_s(&mut self, qubit: usize) {
        let shift = self.bit_shift(qubit);
        let mask = 1usize << shift;
        let b = self.batch;
        for base in 0..self.dim() / 2 {
            let i = (bits::deposit(base, shift) | mask) * b;
            let (re, im) = (&mut self.re[i..i + b], &mut self.im[i..i + b]);
            for l in 0..b {
                let (xr, xi) = (re[l], im[l]);
                re[l] = -xi;
                im[l] = xr;
            }
        }
    }

    /// Batched [`StateVector::apply_sdg`]: `(re, im) ↦ (im, −re)` per lane.
    pub fn apply_sdg(&mut self, qubit: usize) {
        let shift = self.bit_shift(qubit);
        let mask = 1usize << shift;
        let b = self.batch;
        for base in 0..self.dim() / 2 {
            let i = (bits::deposit(base, shift) | mask) * b;
            let (re, im) = (&mut self.re[i..i + b], &mut self.im[i..i + b]);
            for l in 0..b {
                let (xr, xi) = (re[l], im[l]);
                re[l] = xi;
                im[l] = -xr;
            }
        }
    }

    /// Batched [`StateVector::apply_phase`].
    pub fn apply_phase(&mut self, qubit: usize, theta: f64) {
        let shift = self.bit_shift(qubit);
        let mask = 1usize << shift;
        let phase = C64::cis(theta);
        let b = self.batch;
        for base in 0..self.dim() / 2 {
            let i = (bits::deposit(base, shift) | mask) * b;
            let (re, im) = (&mut self.re[i..i + b], &mut self.im[i..i + b]);
            for l in 0..b {
                let (xr, xi) = (re[l], im[l]);
                re[l] = xr * phase.re - xi * phase.im;
                im[l] = xr * phase.im + xi * phase.re;
            }
        }
    }

    /// Batched [`StateVector::apply_cx`].
    pub fn apply_cx(&mut self, control: usize, target: usize) {
        assert_ne!(control, target, "control equals target");
        let cs = self.bit_shift(control);
        let ts = self.bit_shift(target);
        let cmask = 1usize << cs;
        let tmask = 1usize << ts;
        let (lo, hi) = (cs.min(ts), cs.max(ts));
        let b = self.batch;
        for base in 0..self.dim() / 4 {
            let i = bits::deposit(bits::deposit(base, lo), hi) | cmask;
            let (r0, r1) = lane_pair(&mut self.re, i * b, (i | tmask) * b, b);
            r0.swap_with_slice(r1);
            let (i0, i1) = lane_pair(&mut self.im, i * b, (i | tmask) * b, b);
            i0.swap_with_slice(i1);
        }
    }

    /// Batched [`StateVector::apply_cz`].
    pub fn apply_cz(&mut self, q_a: usize, q_b: usize) {
        assert_ne!(q_a, q_b, "control equals target");
        let sa = self.bit_shift(q_a);
        let sb = self.bit_shift(q_b);
        let both = (1usize << sa) | (1usize << sb);
        let (lo, hi) = (sa.min(sb), sa.max(sb));
        let b = self.batch;
        for base in 0..self.dim() / 4 {
            let i = (bits::deposit(bits::deposit(base, lo), hi) | both) * b;
            for x in &mut self.re[i..i + b] {
                *x = -*x;
            }
            for x in &mut self.im[i..i + b] {
                *x = -*x;
            }
        }
    }

    /// Batched [`StateVector::apply_swap`].
    pub fn apply_swap(&mut self, q_a: usize, q_b: usize) {
        assert_ne!(q_a, q_b, "swap requires distinct qubits");
        let sa = self.bit_shift(q_a);
        let sb = self.bit_shift(q_b);
        let (ma, mb) = (1usize << sa, 1usize << sb);
        let (lo, hi) = (sa.min(sb), sa.max(sb));
        let b = self.batch;
        for base in 0..self.dim() / 4 {
            let i00 = bits::deposit(bits::deposit(base, lo), hi);
            let (pa, pb) = (i00 | ma, i00 | mb);
            let (plo, phi) = (pa.min(pb), pa.max(pb));
            let (r0, r1) = lane_pair(&mut self.re, plo * b, phi * b, b);
            r0.swap_with_slice(r1);
            let (i0, i1) = lane_pair(&mut self.im, plo * b, phi * b, b);
            i0.swap_with_slice(i1);
        }
    }

    /// Batched [`StateVector::apply_mcz`].
    pub fn apply_mcz(&mut self, qubits: &[usize]) {
        let shifts = {
            let mut s: Vec<usize> = qubits.iter().map(|&q| self.bit_shift(q)).collect();
            s.sort_unstable();
            s
        };
        let mask: usize = shifts.iter().map(|&s| 1usize << s).sum();
        let b = self.batch;
        for base in 0..self.dim() >> shifts.len() {
            let i = (bits::deposit_multi(base, &shifts) | mask) * b;
            for x in &mut self.re[i..i + b] {
                *x = -*x;
            }
            for x in &mut self.im[i..i + b] {
                *x = -*x;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn every_gate(n: usize) -> Vec<Gate> {
        assert!(n >= 4);
        vec![
            Gate::H(0),
            Gate::X(1),
            Gate::Y(2),
            Gate::Z(3),
            Gate::S(0),
            Gate::Sdg(1),
            Gate::T(2),
            Gate::Tdg(3),
            Gate::RX(0, 0.37),
            Gate::RY(1, -1.1),
            Gate::RZ(2, 2.2),
            Gate::Phase(3, 0.9),
            Gate::CX(0, 2),
            Gate::CX(3, 1),
            Gate::CZ(1, 3),
            Gate::CRZ(2, 0, 0.6),
            Gate::CPhase(0, 3, -0.4),
            Gate::Swap(1, 2),
            Gate::Swap(3, 0),
            Gate::CCX(2, 0, 1),
            Gate::MCZ(vec![0, 2, 3]),
            Gate::MCRX(vec![1], 3, 0.8),
            Gate::MCRY(vec![0, 2], 1, -0.6),
            Gate::Unitary(vec![2], matrices::ry(0.3)),
            Gate::Unitary(vec![3, 1], matrices::swap()),
            Gate::Unitary(vec![0, 3], matrices::controlled(&matrices::rx(0.5), 1)),
            Gate::Unitary(vec![1, 3, 0], matrices::controlled(&matrices::rx(0.5), 2)),
        ]
    }

    fn random_states(n: usize, count: usize, seed: u64) -> Vec<StateVector> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let amps: Vec<C64> = (0..1usize << n)
                    .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                    .collect();
                StateVector::from_amplitudes(amps)
            })
            .collect()
    }

    #[test]
    fn state_batch_matches_per_state_bitwise() {
        for batch_size in [1usize, 3, 8] {
            let mut lanes = random_states(4, batch_size, 7 + batch_size as u64);
            let mut batch = StateBatch::from_states(&lanes);
            for g in every_gate(4) {
                batch.apply_gate(&g);
                for psi in lanes.iter_mut() {
                    g.apply(psi);
                }
                for (l, psi) in lanes.iter().enumerate() {
                    assert_eq!(batch.lane(l), *psi, "{g:?} lane {l} (B={batch_size})");
                }
            }
        }
    }

    #[test]
    fn lane_direct_rdm_matches_gathered_lane_bitwise() {
        for batch_size in [1usize, 3, 8] {
            let mut batch =
                StateBatch::from_states(&random_states(4, batch_size, 101 + batch_size as u64));
            for g in every_gate(4) {
                batch.apply_gate(&g);
            }
            for lane in 0..batch_size {
                let gathered = batch.lane(lane);
                for qubits in [&[0usize][..], &[2, 0], &[1, 3], &[3, 1, 0], &[0, 1, 2, 3]] {
                    let direct = batch.lane_reduced_density_matrix(lane, qubits);
                    let via_state = gathered.reduced_density_matrix(qubits);
                    assert_eq!(direct.rows(), via_state.rows());
                    for r in 0..direct.rows() {
                        for c in 0..direct.cols() {
                            assert_eq!(
                                direct[(r, c)],
                                via_state[(r, c)],
                                "lane {lane} qubits {qubits:?} entry ({r},{c})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn zero_state_constructors_match_per_state() {
        let batch = StateBatch::zero_states(3, 2);
        assert_eq!(batch.lane(0), StateVector::zero_state(3));
        assert_eq!(batch.lane(1), StateVector::zero_state(3));
    }
}
