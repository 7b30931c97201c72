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
//! the per-state kernel on that lane alone, at any batch size. The one pass
//! without a per-state twin, [`StateBatch::apply_diagonal_run`], drops only
//! terms that cannot change a bit (see [`Diagonal2q`]). The unit tests
//! below and the workspace-level proptests enforce this with exact
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

/// Stamps `#[target_feature]` wrappers for a lane-kernel body and a
/// dispatcher that picks the widest supported one. The body must be
/// `#[inline(always)]` so each wrapper recompiles it at its feature level.
macro_rules! simd_dispatch {
    ($dispatch:ident, $body:ident, $body_avx512:ident, $body_avx2:ident,
     ($($arg:ident: $ty:ty),* $(,)?)) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f")]
        #[allow(clippy::too_many_arguments)]
        unsafe fn $body_avx512($($arg: $ty),*) {
            $body($($arg),*)
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        #[allow(clippy::too_many_arguments)]
        unsafe fn $body_avx2($($arg: $ty),*) {
            $body($($arg),*)
        }

        #[allow(clippy::too_many_arguments)]
        fn $dispatch($($arg: $ty),*) {
            match simd_level() {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: the feature was detected at runtime.
                SimdLevel::Avx512 => unsafe { $body_avx512($($arg),*) },
                #[cfg(target_arch = "x86_64")]
                // SAFETY: the feature was detected at runtime.
                SimdLevel::Avx2 => unsafe { $body_avx2($($arg),*) },
                SimdLevel::Portable => $body($($arg),*),
            }
        }
    };
}

/// Splits a span of `len` elements at the multiples of 8, 4 and 2 below it,
/// so the piece loops run 8-, 4-, then 2-wide and last one by one: widths
/// the compiler sees, so a span of any length runs in whole vectors but for
/// at most one trailing element.
#[inline(always)]
fn piece_cuts(len: usize) -> (usize, usize, usize) {
    (len - len % 8, len - len % 4, len - len % 2)
}

/// Single-qubit lane kernel over planar storage, one contiguous span at a
/// time. With `s` the target's bit shift, the `2^s` bases of one block are
/// consecutive amplitudes, so their lanes form one run of `span = 2^s·B`
/// planar elements whose partners sit `span` further on: the work per
/// block grows with the span, not with the lane count. Per element this is
/// exactly `x' = u00*a0 + u01*a1; y' = u10*a0 + u11*a1` in `C64`
/// arithmetic, so lanes stay bitwise identical to
/// [`StateVector::apply_1q`].
#[inline(always)]
fn batch_1q_body(re: &mut [f64], im: &mut [f64], span: usize, uu: [C64; 4]) {
    let (by8, by4, by2) = piece_cuts(span);
    let blocks = re
        .chunks_exact_mut(2 * span)
        .zip(im.chunks_exact_mut(2 * span));
    for (re, im) in blocks {
        let (r0, r1) = re.split_at_mut(span);
        let (i0, i1) = im.split_at_mut(span);
        let (mut re, mut im) = ([r0, r1], [i0, i1]);
        pair_pieces::<8>(&mut re, &mut im, uu, 0, by8);
        pair_pieces::<4>(&mut re, &mut im, uu, by8, by4);
        pair_pieces::<2>(&mut re, &mut im, uu, by4, by2);
        pair_pieces::<1>(&mut re, &mut im, uu, by2, span);
    }
}

/// The single-qubit update on the `W`-element pieces at `from..to` of an
/// amplitude pair's two rows.
#[inline(always)]
fn pair_pieces<const W: usize>(
    re: &mut [&mut [f64]; 2],
    im: &mut [&mut [f64]; 2],
    uu: [C64; 4],
    from: usize,
    to: usize,
) {
    let [u00, u01, u10, u11] = uu;
    for p in (from..to).step_by(W) {
        let mut a = [[0.0f64; W]; 4];
        a[0].copy_from_slice(&re[0][p..p + W]);
        a[1].copy_from_slice(&im[0][p..p + W]);
        a[2].copy_from_slice(&re[1][p..p + W]);
        a[3].copy_from_slice(&im[1][p..p + W]);
        let [a0r, a0i, a1r, a1i] = a;
        let mut o = [[0.0f64; W]; 4];
        for k in 0..W {
            o[0][k] = (u00.re * a0r[k] - u00.im * a0i[k]) + (u01.re * a1r[k] - u01.im * a1i[k]);
            o[1][k] = (u00.re * a0i[k] + u00.im * a0r[k]) + (u01.re * a1i[k] + u01.im * a1r[k]);
            o[2][k] = (u10.re * a0r[k] - u10.im * a0i[k]) + (u11.re * a1r[k] - u11.im * a1i[k]);
            o[3][k] = (u10.re * a0i[k] + u10.im * a0r[k]) + (u11.re * a1i[k] + u11.im * a1r[k]);
        }
        re[0][p..p + W].copy_from_slice(&o[0]);
        im[0][p..p + W].copy_from_slice(&o[1]);
        re[1][p..p + W].copy_from_slice(&o[2]);
        im[1][p..p + W].copy_from_slice(&o[3]);
    }
}

simd_dispatch!(
    batch_1q_dispatch,
    batch_1q_body,
    batch_1q_body_avx512,
    batch_1q_body_avx2,
    (re: &mut [f64], im: &mut [f64], span: usize, uu: [C64; 4])
);

/// Two-qubit lane kernel over planar storage: one fused pass per amplitude
/// quad loads the four input rows once and computes all four outputs, each
/// complex multiply-add expanded into the scalar `f64` operations `C64`'s
/// `Mul`/`Add`/`AddAssign` perform for `acc += u[r][c] * a[c]` folded from
/// `C64::ZERO` in column order — bitwise identical to
/// [`StateVector::apply_2q`] per lane. Quads are walked one contiguous span
/// at a time, as in the single-qubit kernel, with the span set by the lower
/// target shift `lo`: each of a block's four rows is one run of
/// `2^lo·batch` elements. `swap_mid` maps the ascending-index middle slices
/// back to the gate's row order `[i00, i00|mb, i00|ma, i00|ma|mb]`. An odd
/// span's last element, the whole span at one lane with `lo = 0`, goes
/// through [`quad_element`] on plane indices, without slicing the quad.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn batch_2q_body(
    re: &mut [f64],
    im: &mut [f64],
    batch: usize,
    lo: usize,
    hi: usize,
    swap_mid: bool,
    uu: [[C64; 4]; 4],
) {
    let span = batch << lo;
    let (by8, by4, by2) = piece_cuts(span);
    let (mlo, mhi) = (1usize << lo, 1usize << hi);
    let mut cols = [[[0.0f64; 4]; 2]; 4];
    for (c, col) in cols.iter_mut().enumerate() {
        for r in 0..4 {
            col[0][r] = uu[r][c].re;
            col[1][r] = uu[r][c].im;
        }
    }
    for block in 0..re.len() / (4 * span) {
        let i00 = bits::deposit(block << (lo + 1), hi);
        let starts = [
            i00 * batch,
            (i00 | mlo) * batch,
            (i00 | mhi) * batch,
            (i00 | mlo | mhi) * batch,
        ];
        let rows = if swap_mid {
            starts
        } else {
            [starts[0], starts[2], starts[1], starts[3]]
        };
        if by2 > 0 {
            let [r0, rlo, rhi, r3] = lane_quad(re, starts, span);
            let [i0, ilo, ihi, i3] = lane_quad(im, starts, span);
            let (mut re, mut im) = if swap_mid {
                ([r0, rlo, rhi, r3], [i0, ilo, ihi, i3])
            } else {
                ([r0, rhi, rlo, r3], [i0, ihi, ilo, i3])
            };
            quad_pieces::<8>(&mut re, &mut im, &uu, 0, by8);
            quad_pieces::<4>(&mut re, &mut im, &uu, by8, by4);
            quad_pieces::<2>(&mut re, &mut im, &uu, by4, by2);
        }
        if by2 < span {
            quad_element(re, im, &cols, rows.map(|row| row + by2));
        }
    }
}

/// The two-qubit update on one element of each of a quad's four rows, at
/// plane indices `at` in the gate's row order, with `cols[c]` holding column
/// `c` of the gate as `[re; 4], [im; 4]`: the four rows' sums are one vector
/// each, built in the same column order as [`quad_pieces`] builds them.
#[inline(always)]
fn quad_element(re: &mut [f64], im: &mut [f64], cols: &[[[f64; 4]; 2]; 4], at: [usize; 4]) {
    let mut or = [0.0f64; 4];
    let mut oi = [0.0f64; 4];
    for (&i, [ur, ui]) in at.iter().zip(cols) {
        let (ar, ai) = (re[i], im[i]);
        for r in 0..4 {
            or[r] += ur[r] * ar - ui[r] * ai;
            oi[r] += ur[r] * ai + ui[r] * ar;
        }
    }
    for (r, &i) in at.iter().enumerate() {
        re[i] = or[r];
        im[i] = oi[r];
    }
}

/// The two-qubit update on the `W`-element pieces at `from..to` of a quad's
/// four rows, given in the gate's row order. A piece's four output rows are
/// all computed before any is stored, which keeps narrow pieces fast.
#[inline(always)]
fn quad_pieces<const W: usize>(
    re: &mut [&mut [f64]; 4],
    im: &mut [&mut [f64]; 4],
    uu: &[[C64; 4]; 4],
    from: usize,
    to: usize,
) {
    for p in (from..to).step_by(W) {
        let mut ar = [[0.0f64; W]; 4];
        let mut ai = [[0.0f64; W]; 4];
        for c in 0..4 {
            ar[c].copy_from_slice(&re[c][p..p + W]);
            ai[c].copy_from_slice(&im[c][p..p + W]);
        }
        let mut or = [[0.0f64; W]; 4];
        let mut oi = [[0.0f64; W]; 4];
        for (r, ur) in uu.iter().enumerate() {
            for c in 0..4 {
                for k in 0..W {
                    or[r][k] += ur[c].re * ar[c][k] - ur[c].im * ai[c][k];
                    oi[r][k] += ur[c].re * ai[c][k] + ur[c].im * ar[c][k];
                }
            }
        }
        for r in 0..4 {
            re[r][p..p + W].copy_from_slice(&or[r]);
            im[r][p..p + W].copy_from_slice(&oi[r]);
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
        lo: usize,
        hi: usize,
        swap_mid: bool,
        uu: [[C64; 4]; 4],
    )
);

/// The diagonal-run pass over planar storage. `run` holds each gate's bit
/// shifts `(sa, sb)` and diagonal, in program order; `low` is the lowest
/// shift in the run, so all of a block's `2^low` consecutive amplitudes
/// share every gate's coefficient and their lanes form one span of
/// `2^low·batch` elements. Each element gets the run's gates in program
/// order as `0.0 + (d.re*a.re - d.im*a.im)`, `0.0 + (d.re*a.im +
/// d.im*a.re)`: the dense fold seeded with `C64::ZERO` with its exactly-zero
/// terms left out (see [`Diagonal2q`]).
///
/// Blocks go four at a time (a run's two distinct shifts leave at least
/// four blocks), so four independent dependency chains hide the latency of
/// carrying one element through the whole run.
#[inline(always)]
fn diagonal_run_body(
    re: &mut [f64],
    im: &mut [f64],
    batch: usize,
    low: usize,
    run: &[(usize, usize, [C64; 4])],
    coeffs: &mut [[C64; 4]],
) {
    let span = batch << low;
    let by16 = span - span % 16;
    let (_, by4, by2) = piece_cuts(span);
    let quads = re
        .chunks_exact_mut(4 * span)
        .zip(im.chunks_exact_mut(4 * span));
    for (quad, (re, im)) in quads.enumerate() {
        for (c, &(sa, sb, d)) in coeffs.iter_mut().zip(run) {
            for (b, cb) in c.iter_mut().enumerate() {
                let i = (4 * quad + b) << low;
                *cb = d[(((i >> sa) & 1) << 1) | ((i >> sb) & 1)];
            }
        }
        let mut re = lane_quad(re, [0, span, 2 * span, 3 * span], span);
        let mut im = lane_quad(im, [0, span, 2 * span, 3 * span], span);
        diagonal_pieces::<16>(&mut re, &mut im, coeffs, 0, by16);
        diagonal_pieces::<4>(&mut re, &mut im, coeffs, by16, by4);
        diagonal_pieces::<2>(&mut re, &mut im, coeffs, by4, by2);
        diagonal_pieces::<1>(&mut re, &mut im, coeffs, by2, span);
    }
}

/// Carries the `W`-element pieces at `from..to` of four blocks through
/// every gate in registers, gate `g` scaling block `b` by `coeffs[g][b]`:
/// one load and one store per element for the whole run. `W` is a
/// compile-time width so a piece unrolls into whole vectors.
#[inline(always)]
fn diagonal_pieces<const W: usize>(
    re: &mut [&mut [f64]; 4],
    im: &mut [&mut [f64]; 4],
    coeffs: &[[C64; 4]],
    from: usize,
    to: usize,
) {
    for p in (from..to).step_by(W) {
        let mut xr = [[0.0f64; W]; 4];
        let mut xi = [[0.0f64; W]; 4];
        for b in 0..4 {
            xr[b].copy_from_slice(&re[b][p..p + W]);
            xi[b].copy_from_slice(&im[b][p..p + W]);
        }
        for c in coeffs {
            for b in 0..4 {
                let cb = c[b];
                for k in 0..W {
                    let (ar, ai) = (xr[b][k], xi[b][k]);
                    xr[b][k] = 0.0 + (cb.re * ar - cb.im * ai);
                    xi[b][k] = 0.0 + (cb.re * ai + cb.im * ar);
                }
            }
        }
        for b in 0..4 {
            re[b][p..p + W].copy_from_slice(&xr[b]);
            im[b][p..p + W].copy_from_slice(&xi[b]);
        }
    }
}

simd_dispatch!(
    diagonal_run_dispatch,
    diagonal_run_body,
    diagonal_run_body_avx512,
    diagonal_run_body_avx2,
    (
        re: &mut [f64],
        im: &mut [f64],
        batch: usize,
        low: usize,
        run: &[(usize, usize, [C64; 4])],
        coeffs: &mut [[C64; 4]],
    )
);

/// A two-qubit [`Gate::Unitary`] whose off-diagonal entries are all exactly
/// zero (of either sign), kept as its targets and diagonal — the operand of
/// [`StateBatch::apply_diagonal_run`].
///
/// Applying it alone is bitwise the dense kernel: that kernel folds each
/// output row from `C64::ZERO`, and in round-to-nearest `0.0 + x` is never
/// `-0.0`, so every exactly-zero coefficient, whose product with a finite
/// amplitude is `±0`, adds nothing to the running sum. What remains is
/// `0.0 + d·a` for the row's diagonal entry `d`. The argument needs the
/// `+0.0` seed, so single-qubit blocks (whose kernel has none) are never
/// `Diagonal2q`s.
#[derive(Debug, Clone, Copy)]
pub struct Diagonal2q {
    targets: [usize; 2],
    diag: [C64; 4],
}

impl Diagonal2q {
    /// `Some` for a two-qubit [`Gate::Unitary`] with exactly-zero
    /// off-diagonal entries; `None` for every other gate.
    pub fn of(gate: &Gate) -> Option<Self> {
        let Gate::Unitary(targets, u) = gate else {
            return None;
        };
        let &[q_a, q_b] = targets.as_slice() else {
            return None;
        };
        if u.rows() != 4 || u.cols() != 4 {
            return None;
        }
        let off_diagonal_zero =
            (0..4).all(|r| (0..4).all(|c| r == c || (u[(r, c)].re == 0.0 && u[(r, c)].im == 0.0)));
        off_diagonal_zero.then(|| Diagonal2q {
            targets: [q_a, q_b],
            diag: [u[(0, 0)], u[(1, 1)], u[(2, 2)], u[(3, 3)]],
        })
    }
}

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

    /// Batched [`StateVector::apply_1q`]: one index computation per block
    /// of `2^s` amplitudes (`s` the target's bit shift), then one contiguous
    /// update over their lanes.
    ///
    /// The per-element loop splits each complex multiply-add into the exact
    /// scalar `f64` operations `C64`'s `Mul`/`Add` impls perform, in the
    /// same order, so every lane stays bitwise identical to
    /// [`StateVector::apply_1q`] while the loop body vectorizes cleanly
    /// (planar loads, loop-invariant coefficients, one output stream).
    pub fn apply_1q(&mut self, u: &CMatrix, qubit: usize) {
        assert_eq!(u.rows(), 2, "apply_1q requires a 2x2 matrix");
        assert_eq!(u.cols(), 2, "apply_1q requires a 2x2 matrix");
        let span = self.batch << self.bit_shift(qubit);
        let uu = [u[(0, 0)], u[(0, 1)], u[(1, 0)], u[(1, 1)]];
        batch_1q_dispatch(&mut self.re, &mut self.im, span, uu);
    }

    /// Batched [`StateVector::apply_2q`] with the gate matrix hoisted into
    /// registers once per gate instead of once per amplitude quad.
    pub fn apply_2q(&mut self, u: &CMatrix, q_a: usize, q_b: usize) {
        assert_eq!(u.rows(), 4, "apply_2q requires a 4x4 matrix");
        assert_ne!(q_a, q_b, "two-qubit gate targets must differ");
        let sa = self.bit_shift(q_a);
        let sb = self.bit_shift(q_b);
        let mut uu = [[C64::ZERO; 4]; 4];
        for r in 0..4 {
            for c in 0..4 {
                uu[r][c] = u[(r, c)];
            }
        }
        batch_2q_dispatch(
            &mut self.re,
            &mut self.im,
            self.batch,
            sa.min(sb),
            sa.max(sb),
            sb < sa,
            uu,
        );
    }

    /// Applies a run of diagonal two-qubit gates, in order, in one walk over
    /// the planes: each element takes every gate of the run before the walk
    /// moves on. Every lane stays bitwise identical to applying the gates one
    /// by one with [`Self::apply_gate`] or [`StateVector::apply_2q`], for
    /// finite amplitudes (see [`Diagonal2q`]). The gates are neither
    /// reordered nor multiplied together: gates that commute in exact
    /// arithmetic do not commute bitwise.
    ///
    /// # Panics
    ///
    /// Panics if a target is out of range or a gate's two targets coincide.
    pub fn apply_diagonal_run(&mut self, run: &[Diagonal2q]) {
        if run.is_empty() {
            return;
        }
        if morph_trace::enabled() {
            let gates = run.len() as u64;
            morph_trace::counter("qsim/batch_gates", gates);
            morph_trace::counter("qsim/diagonal_runs", 1);
            morph_trace::counter("qsim/diagonal_run_gates", gates);
        }
        let shifted: Vec<(usize, usize, [C64; 4])> = run
            .iter()
            .map(|g| {
                let [q_a, q_b] = g.targets;
                assert_ne!(q_a, q_b, "two-qubit gate targets must differ");
                (self.bit_shift(q_a), self.bit_shift(q_b), g.diag)
            })
            .collect();
        let low = shifted
            .iter()
            .map(|&(sa, sb, _)| sa.min(sb))
            .min()
            .expect("run is not empty");
        let mut coeffs = vec![[C64::ZERO; 4]; run.len()];
        diagonal_run_dispatch(
            &mut self.re,
            &mut self.im,
            self.batch,
            low,
            &shifted,
            &mut coeffs,
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
        let mut rng = StdRng::seed_from_u64(7);
        for batch_size in [1usize, 3, 8] {
            let mut lanes = states_with_zeros(4, batch_size, &mut rng);
            let mut batch = StateBatch::from_states(&lanes);
            for g in every_gate(4) {
                batch.apply_gate(&g);
                for psi in lanes.iter_mut() {
                    g.apply(psi);
                }
                assert_lanes_bitwise(&batch, &lanes, &format!("{g:?} (B={batch_size})"));
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

    /// Random states where about a third of the components are exact `+0.0`
    /// or `-0.0`, so products of zero coefficients and zero amplitudes take
    /// both signs.
    fn states_with_zeros(n: usize, count: usize, rng: &mut StdRng) -> Vec<StateVector> {
        let part = |rng: &mut StdRng| match rng.gen_range(0..6) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-1.0..1.0),
        };
        (0..count)
            .map(|_| {
                let amps: Vec<C64> = (0..1usize << n)
                    .map(|_| C64::new(part(rng), part(rng)))
                    .collect();
                StateVector::from_normalized_amplitudes(amps)
            })
            .collect()
    }

    /// Exact equality down to the sign of zero.
    fn assert_lanes_bitwise(batch: &StateBatch, lanes: &[StateVector], what: &str) {
        for (l, psi) in lanes.iter().enumerate() {
            let got = batch.lane(l);
            for (i, (a, b)) in got.amplitudes().iter().zip(psi.amplitudes()).enumerate() {
                assert!(
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                    "{what}: lane {l} of {} amplitude {i}: {a:?} != {b:?}",
                    lanes.len()
                );
            }
        }
    }

    /// A 2×2 unitary with no zero entry.
    fn dense_1q(rng: &mut StdRng) -> CMatrix {
        matrices::rz(rng.gen_range(0.1..3.0))
            .matmul(&matrices::ry(rng.gen_range(0.1..3.0)))
            .matmul(&matrices::rz(rng.gen_range(0.1..3.0)))
    }

    /// A 4×4 unitary with no zero entry.
    fn dense_2q(rng: &mut StdRng) -> CMatrix {
        matrices::controlled(&matrices::rx(rng.gen_range(0.1..3.0)), 1)
            .matmul(&dense_1q(rng).kron(&dense_1q(rng)))
    }

    /// A diagonal 4×4 whose off-diagonal entries mix `+0.0` and `-0.0`, with
    /// unit-modulus diagonal entries that include `±1` and `±i`.
    fn diagonal_2q(rng: &mut StdRng) -> CMatrix {
        let mut signed_zero = || {
            let re = if rng.gen_bool(0.5) { 0.0 } else { -0.0 };
            let im = if rng.gen_bool(0.5) { 0.0 } else { -0.0 };
            C64::new(re, im)
        };
        let mut u = CMatrix::from_fn(4, 4, |_, _| signed_zero());
        for r in 0..4 {
            u[(r, r)] = match rng.gen_range(0..6) {
                0 => C64::new(1.0, 0.0),
                1 => C64::new(-1.0, 0.0),
                2 => C64::new(0.0, 1.0),
                3 => C64::new(-0.0, -1.0),
                _ => C64::cis(rng.gen_range(-3.0..3.0)),
            };
        }
        u
    }

    const KERNEL_WIDTHS: [usize; 3] = [2, 5, 9];
    const KERNEL_LANES: [usize; 6] = [1, 3, 4, 8, 16, 64];

    #[test]
    fn span_kernels_match_per_state_at_every_target() {
        let mut rng = StdRng::seed_from_u64(41);
        for n in KERNEL_WIDTHS {
            for lanes in KERNEL_LANES {
                let mut singles = states_with_zeros(n, lanes, &mut rng);
                let mut batch = StateBatch::from_states(&singles);
                for q in 0..n {
                    let u = dense_1q(&mut rng);
                    batch.apply_1q(&u, q);
                    for psi in &mut singles {
                        psi.apply_1q(&u, q);
                    }
                    assert_lanes_bitwise(&batch, &singles, &format!("1q on {q} of {n}"));
                }
                // Every ordered pair: adjacent pairs, the lowest shift 0
                // (qubit n-1) and the highest shift n-1 (qubit 0) included.
                for a in 0..n {
                    for b in (0..n).filter(|&b| b != a) {
                        let u = dense_2q(&mut rng);
                        batch.apply_2q(&u, a, b);
                        for psi in &mut singles {
                            psi.apply_2q(&u, a, b);
                        }
                        assert_lanes_bitwise(&batch, &singles, &format!("2q on ({a}, {b}) of {n}"));
                    }
                }
            }
        }
    }

    #[test]
    fn diagonal_run_matches_per_state_gate_by_gate() {
        let mut rng = StdRng::seed_from_u64(43);
        for n in KERNEL_WIDTHS {
            for lanes in KERNEL_LANES {
                let mut singles = states_with_zeros(n, lanes, &mut rng);
                let mut batch = StateBatch::from_states(&singles);
                for len in [1usize, 2, 7, 28] {
                    let gates: Vec<Gate> = (0..len)
                        .map(|_| {
                            let a = rng.gen_range(0..n);
                            let b = (a + rng.gen_range(1..n)) % n;
                            Gate::Unitary(vec![a, b], diagonal_2q(&mut rng))
                        })
                        .collect();
                    let run: Vec<Diagonal2q> = gates
                        .iter()
                        .map(|g| Diagonal2q::of(g).expect("diagonal block"))
                        .collect();
                    batch.apply_diagonal_run(&run);
                    for g in &gates {
                        let Gate::Unitary(ts, u) = g else {
                            unreachable!()
                        };
                        for psi in &mut singles {
                            psi.apply_2q(u, ts[0], ts[1]);
                        }
                    }
                    assert_lanes_bitwise(&batch, &singles, &format!("run of {len} on {n}"));
                }
            }
        }
    }

    #[test]
    fn only_two_qubit_unitaries_with_zero_off_diagonals_are_diagonal_runs() {
        let mut rng = StdRng::seed_from_u64(47);
        let diag = diagonal_2q(&mut rng);
        assert!(Diagonal2q::of(&Gate::Unitary(vec![0, 1], diag.clone())).is_some());
        let mut off = diag;
        off[(2, 1)] = C64::new(1e-300, 0.0);
        assert!(Diagonal2q::of(&Gate::Unitary(vec![0, 1], off)).is_none());
        let phase_1q = matrices::phase(0.3);
        assert!(Diagonal2q::of(&Gate::Unitary(vec![0], phase_1q)).is_none());
        assert!(Diagonal2q::of(&Gate::CPhase(0, 1, 0.3)).is_none());
        assert!(Diagonal2q::of(&Gate::CZ(0, 1)).is_none());
    }

    #[test]
    fn zero_state_constructors_match_per_state() {
        let batch = StateBatch::zero_states(3, 2);
        assert_eq!(batch.lane(0), StateVector::zero_state(3));
        assert_eq!(batch.lane(1), StateVector::zero_state(3));
    }
}
