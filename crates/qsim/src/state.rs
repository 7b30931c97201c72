//! Pure-state simulation via dense state vectors.
//!
//! Convention used across the workspace: **qubit 0 is the most significant
//! bit** of the computational-basis index, matching circuit-diagram order
//! (`|q0 q1 … q_{n-1}⟩`).

use morph_linalg::{CMatrix, C64};
use rand::Rng;

use crate::bits;

/// A normalized `n`-qubit pure state of `2^n` complex amplitudes.
///
/// # Examples
///
/// ```
/// use morph_qsim::StateVector;
///
/// let mut psi = StateVector::zero_state(2);
/// psi.apply_h(0);
/// psi.apply_cx(0, 1);            // Bell state (|00> + |11>)/√2
/// let probs = psi.probabilities();
/// assert!((probs[0] - 0.5).abs() < 1e-12);
/// assert!((probs[3] - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    n_qubits: usize,
    amps: Vec<C64>,
}

impl StateVector {
    /// The all-zeros state `|0…0⟩`.
    pub fn zero_state(n_qubits: usize) -> Self {
        assert!(n_qubits < 28, "state vector would exceed memory budget");
        let mut amps = vec![C64::ZERO; 1 << n_qubits];
        amps[0] = C64::ONE;
        StateVector { n_qubits, amps }
    }

    /// The computational-basis state `|bits⟩`, with qubit 0 as the MSB.
    ///
    /// # Panics
    ///
    /// Panics if `basis_index >= 2^n`.
    pub fn basis_state(n_qubits: usize, basis_index: usize) -> Self {
        assert!(basis_index < (1 << n_qubits), "basis index out of range");
        let mut amps = vec![C64::ZERO; 1 << n_qubits];
        amps[basis_index] = C64::ONE;
        StateVector { n_qubits, amps }
    }

    /// Builds a state from raw amplitudes, normalizing them.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two or the vector is null.
    pub fn from_amplitudes(amps: Vec<C64>) -> Self {
        let len = amps.len();
        assert!(
            len.is_power_of_two(),
            "amplitude count must be a power of two"
        );
        let n_qubits = len.trailing_zeros() as usize;
        let mut sv = StateVector { n_qubits, amps };
        let norm = sv.norm();
        assert!(norm > 1e-12, "cannot normalize a null vector");
        for a in &mut sv.amps {
            *a = *a / norm;
        }
        sv
    }

    /// Rebuilds a state from amplitudes that are already normalized,
    /// *without* renormalizing. Renormalization divides by a norm that is
    /// only approximately 1 and would perturb the stored bit patterns, so
    /// artifact deserialization uses this constructor to stay bit-exact.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two.
    pub fn from_normalized_amplitudes(amps: Vec<C64>) -> Self {
        let len = amps.len();
        assert!(
            len.is_power_of_two(),
            "amplitude count must be a power of two"
        );
        let n_qubits = len.trailing_zeros() as usize;
        StateVector { n_qubits, amps }
    }

    /// Embeds a narrow state onto the given qubits of a wider register
    /// whose remaining qubits stay in `|0⟩`: `sub` qubit `j` becomes
    /// register qubit `qubits[j]`.
    ///
    /// Amplitudes are scattered verbatim — no renormalization — so the
    /// embedded state is bitwise identical on its support to applying the
    /// same preparation gates (remapped onto `qubits`) to the wide
    /// `|0…0⟩` state; off-support amplitudes are exactly zero either way.
    /// The characterization sweep uses this to run input preparation on
    /// the small input register instead of the full lane.
    ///
    /// # Panics
    ///
    /// Panics if `qubits.len() != sub.n_qubits()`, a qubit repeats, or a
    /// qubit is out of range for the wide register.
    pub fn embed(sub: &StateVector, qubits: &[usize], n_qubits: usize) -> Self {
        assert!(n_qubits < 28, "state vector would exceed memory budget");
        let m = sub.n_qubits();
        assert_eq!(qubits.len(), m, "qubit list must match the sub-state width");
        let shifts: Vec<usize> = qubits
            .iter()
            .map(|&q| {
                assert!(q < n_qubits, "embed qubit {q} out of range");
                n_qubits - 1 - q
            })
            .collect();
        {
            let mut sorted = shifts.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), m, "duplicate embed qubits");
        }
        // Degenerate edges: a full-width identity mapping is a pure
        // passthrough (no scatter), and a 0-qubit sub-state carries a single
        // scalar that lands on |0…0⟩.
        if m == n_qubits && qubits.iter().enumerate().all(|(j, &q)| q == j) {
            return sub.clone();
        }
        if m == 0 {
            let mut amps = vec![C64::ZERO; 1 << n_qubits];
            amps[0] = sub.amps[0];
            return StateVector { n_qubits, amps };
        }
        let mut amps = vec![C64::ZERO; 1 << n_qubits];
        for (x, &a) in sub.amplitudes().iter().enumerate() {
            let mut idx = 0usize;
            for (j, &s) in shifts.iter().enumerate() {
                if (x >> (m - 1 - j)) & 1 == 1 {
                    idx |= 1 << s;
                }
            }
            amps[idx] = a;
        }
        StateVector { n_qubits, amps }
    }

    /// Number of qubits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Hilbert-space dimension `2^n`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.amps.len()
    }

    /// Amplitudes in computational-basis order.
    #[inline]
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// Euclidean norm (should be 1 up to rounding).
    pub fn norm(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Inner product `⟨self|other⟩`.
    ///
    /// # Panics
    ///
    /// Panics if qubit counts differ.
    pub fn inner(&self, other: &StateVector) -> C64 {
        assert_eq!(
            self.n_qubits, other.n_qubits,
            "inner product dimension mismatch"
        );
        self.amps
            .iter()
            .zip(&other.amps)
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// Overlap probability `|⟨self|other⟩|²`.
    pub fn overlap(&self, other: &StateVector) -> f64 {
        self.inner(other).norm_sqr()
    }

    /// Measurement probabilities for every basis state.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Bit value position helper: qubit `q` occupies bit `n-1-q`.
    #[inline]
    fn bit_shift(&self, qubit: usize) -> usize {
        assert!(qubit < self.n_qubits, "qubit {qubit} out of range");
        self.n_qubits - 1 - qubit
    }

    /// Applies an arbitrary single-qubit unitary given as a 2×2 matrix.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not 2×2 or `qubit` is out of range.
    pub fn apply_1q(&mut self, u: &CMatrix, qubit: usize) {
        assert_eq!(u.rows(), 2, "apply_1q requires a 2x2 matrix");
        assert_eq!(u.cols(), 2, "apply_1q requires a 2x2 matrix");
        let shift = self.bit_shift(qubit);
        let mask = 1usize << shift;
        let (u00, u01, u10, u11) = (u[(0, 0)], u[(0, 1)], u[(1, 0)], u[(1, 1)]);
        for base in 0..self.amps.len() / 2 {
            let i = bits::deposit(base, shift);
            let j = i | mask;
            let a0 = self.amps[i];
            let a1 = self.amps[j];
            self.amps[i] = u00 * a0 + u01 * a1;
            self.amps[j] = u10 * a0 + u11 * a1;
        }
    }

    /// Applies a two-qubit unitary given as a 4×4 matrix on `(q_a, q_b)`
    /// where `q_a` indexes the more significant target bit.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not 4×4, a target repeats, or a target is out of
    /// range.
    pub fn apply_2q(&mut self, u: &CMatrix, q_a: usize, q_b: usize) {
        assert_eq!(u.rows(), 4, "apply_2q requires a 4x4 matrix");
        assert_ne!(q_a, q_b, "two-qubit gate targets must differ");
        let sa = self.bit_shift(q_a);
        let sb = self.bit_shift(q_b);
        let (ma, mb) = (1usize << sa, 1usize << sb);
        let (lo, hi) = (sa.min(sb), sa.max(sb));
        for base in 0..self.amps.len() / 4 {
            let i00 = bits::deposit(bits::deposit(base, lo), hi);
            let idxs = [i00, i00 | mb, i00 | ma, i00 | ma | mb];
            let a = [
                self.amps[idxs[0]],
                self.amps[idxs[1]],
                self.amps[idxs[2]],
                self.amps[idxs[3]],
            ];
            for (r, &idx) in idxs.iter().enumerate() {
                let mut acc = C64::ZERO;
                for (c, &ac) in a.iter().enumerate() {
                    acc += u[(r, c)] * ac;
                }
                self.amps[idx] = acc;
            }
        }
    }

    /// Applies an arbitrary `k`-qubit unitary on the listed targets, where
    /// `targets[0]` indexes the most significant bit of the operator.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch, duplicate targets, or out-of-range
    /// targets.
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
        // spread[t]: offset of local operator index t within a base block.
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
        let mut scratch = vec![C64::ZERO; dk];
        for rest in 0..self.amps.len() >> k {
            let base = bits::deposit_multi(rest, &sorted);
            for (t, slot) in scratch.iter_mut().enumerate() {
                *slot = self.amps[base | spread[t]];
            }
            for r in 0..dk {
                let mut acc = C64::ZERO;
                for c in 0..dk {
                    acc += u[(r, c)] * scratch[c];
                }
                self.amps[base | spread[r]] = acc;
            }
        }
    }

    /// Applies a single-qubit unitary controlled on `controls` all being 1.
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
        let (u00, u01, u10, u11) = (u[(0, 0)], u[(0, 1)], u[(1, 0)], u[(1, 1)]);
        for base in 0..self.amps.len() >> fixed.len() {
            let i = bits::deposit_multi(base, &fixed) | cmask;
            let j = i | tmask;
            let a0 = self.amps[i];
            let a1 = self.amps[j];
            self.amps[i] = u00 * a0 + u01 * a1;
            self.amps[j] = u10 * a0 + u11 * a1;
        }
    }

    /// Hadamard on `qubit`.
    pub fn apply_h(&mut self, qubit: usize) {
        let h = 1.0 / 2f64.sqrt();
        let shift = self.bit_shift(qubit);
        let mask = 1usize << shift;
        for base in 0..self.amps.len() / 2 {
            let i = bits::deposit(base, shift);
            let j = i | mask;
            let a0 = self.amps[i];
            let a1 = self.amps[j];
            self.amps[i] = (a0 + a1).scale(h);
            self.amps[j] = (a0 - a1).scale(h);
        }
    }

    /// Pauli-X on `qubit`.
    pub fn apply_x(&mut self, qubit: usize) {
        let shift = self.bit_shift(qubit);
        let mask = 1usize << shift;
        for base in 0..self.amps.len() / 2 {
            let i = bits::deposit(base, shift);
            self.amps.swap(i, i | mask);
        }
    }

    /// Pauli-Z on `qubit`.
    pub fn apply_z(&mut self, qubit: usize) {
        let shift = self.bit_shift(qubit);
        let mask = 1usize << shift;
        for base in 0..self.amps.len() / 2 {
            let i = bits::deposit(base, shift) | mask;
            self.amps[i] = -self.amps[i];
        }
    }

    /// `S = diag(1, i)` on `qubit`, applied as an exact component swap
    /// `(re, im) ↦ (−im, re)` so no rounding enters — the stabilizer
    /// backend's bitwise parity on phase-gate circuits depends on this.
    pub fn apply_s(&mut self, qubit: usize) {
        let shift = self.bit_shift(qubit);
        let mask = 1usize << shift;
        for base in 0..self.amps.len() / 2 {
            let i = bits::deposit(base, shift) | mask;
            let a = self.amps[i];
            self.amps[i] = C64::new(-a.im, a.re);
        }
    }

    /// `S† = diag(1, −i)` on `qubit`, exact (see [`StateVector::apply_s`]).
    pub fn apply_sdg(&mut self, qubit: usize) {
        let shift = self.bit_shift(qubit);
        let mask = 1usize << shift;
        for base in 0..self.amps.len() / 2 {
            let i = bits::deposit(base, shift) | mask;
            let a = self.amps[i];
            self.amps[i] = C64::new(a.im, -a.re);
        }
    }

    /// Phase gate `diag(1, e^{iθ})` on `qubit`.
    pub fn apply_phase(&mut self, qubit: usize, theta: f64) {
        let shift = self.bit_shift(qubit);
        let mask = 1usize << shift;
        let phase = C64::cis(theta);
        for base in 0..self.amps.len() / 2 {
            let i = bits::deposit(base, shift) | mask;
            self.amps[i] *= phase;
        }
    }

    /// CNOT with the given control and target.
    pub fn apply_cx(&mut self, control: usize, target: usize) {
        assert_ne!(control, target, "control equals target");
        let cs = self.bit_shift(control);
        let ts = self.bit_shift(target);
        let cmask = 1usize << cs;
        let tmask = 1usize << ts;
        let (lo, hi) = (cs.min(ts), cs.max(ts));
        for base in 0..self.amps.len() / 4 {
            let i = bits::deposit(bits::deposit(base, lo), hi) | cmask;
            self.amps.swap(i, i | tmask);
        }
    }

    /// Controlled-Z on the pair (symmetric in its arguments).
    pub fn apply_cz(&mut self, q_a: usize, q_b: usize) {
        assert_ne!(q_a, q_b, "control equals target");
        let sa = self.bit_shift(q_a);
        let sb = self.bit_shift(q_b);
        let both = (1usize << sa) | (1usize << sb);
        let (lo, hi) = (sa.min(sb), sa.max(sb));
        for base in 0..self.amps.len() / 4 {
            let i = bits::deposit(bits::deposit(base, lo), hi) | both;
            self.amps[i] = -self.amps[i];
        }
    }

    /// SWAP of two qubits in one pass: amplitudes whose bits differ at the
    /// pair's positions exchange places; nothing else moves.
    pub fn apply_swap(&mut self, q_a: usize, q_b: usize) {
        assert_ne!(q_a, q_b, "swap requires distinct qubits");
        let sa = self.bit_shift(q_a);
        let sb = self.bit_shift(q_b);
        let (ma, mb) = (1usize << sa, 1usize << sb);
        let (lo, hi) = (sa.min(sb), sa.max(sb));
        for base in 0..self.amps.len() / 4 {
            let i00 = bits::deposit(bits::deposit(base, lo), hi);
            self.amps.swap(i00 | ma, i00 | mb);
        }
    }

    /// Multi-controlled Z: flips the phase of the all-ones configuration of
    /// `qubits`.
    pub fn apply_mcz(&mut self, qubits: &[usize]) {
        let shifts = {
            let mut s: Vec<usize> = qubits.iter().map(|&q| self.bit_shift(q)).collect();
            s.sort_unstable();
            s
        };
        let mask: usize = shifts.iter().map(|&s| 1usize << s).sum();
        for base in 0..self.amps.len() >> shifts.len() {
            let i = bits::deposit_multi(base, &shifts) | mask;
            self.amps[i] = -self.amps[i];
        }
    }

    /// Probability that measuring `qubit` in the computational basis yields 1.
    pub fn prob_one(&self, qubit: usize) -> f64 {
        let mask = 1usize << self.bit_shift(qubit);
        self.amps
            .iter()
            .enumerate()
            .filter(|(i, _)| i & mask != 0)
            .map(|(_, a)| a.norm_sqr())
            .sum()
    }

    /// Projectively measures `qubit`, collapsing the state. Returns the
    /// outcome bit.
    pub fn measure(&mut self, qubit: usize, rng: &mut impl Rng) -> u8 {
        let p1 = self.prob_one(qubit);
        let outcome = if rng.gen::<f64>() < p1 { 1u8 } else { 0u8 };
        self.collapse(qubit, outcome);
        outcome
    }

    /// Forces `qubit` into `outcome`, renormalizing. Used for post-selection
    /// and branch enumeration.
    ///
    /// # Panics
    ///
    /// Panics if the requested branch has (near-)zero probability.
    pub fn collapse(&mut self, qubit: usize, outcome: u8) {
        let mask = 1usize << self.bit_shift(qubit);
        let keep_one = outcome == 1;
        let p: f64 = self
            .amps
            .iter()
            .enumerate()
            .filter(|(i, _)| (i & mask != 0) == keep_one)
            .map(|(_, a)| a.norm_sqr())
            .sum();
        assert!(p > 1e-12, "collapsing onto a zero-probability branch");
        let scale = 1.0 / p.sqrt();
        for (i, a) in self.amps.iter_mut().enumerate() {
            if (i & mask != 0) == keep_one {
                *a = a.scale(scale);
            } else {
                *a = C64::ZERO;
            }
        }
    }

    /// Samples a full-register measurement outcome without collapsing.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let r: f64 = rng.gen();
        let mut acc = 0.0;
        for (i, a) in self.amps.iter().enumerate() {
            acc += a.norm_sqr();
            if r < acc {
                return i;
            }
        }
        self.amps.len() - 1
    }

    /// Draws `shots` measurement outcomes, returning counts per basis state.
    pub fn sample_counts(&self, shots: usize, rng: &mut impl Rng) -> Vec<usize> {
        let mut counts = vec![0usize; self.dim()];
        for _ in 0..shots {
            counts[self.sample(rng)] += 1;
        }
        counts
    }

    /// Expectation of Pauli-Z on `qubit`: `P(0) − P(1)`.
    pub fn expectation_z(&self, qubit: usize) -> f64 {
        1.0 - 2.0 * self.prob_one(qubit)
    }

    /// Reduced density matrix of the listed qubits, tracing out the rest.
    ///
    /// Cost is `O(2^n · 2^k)` for `k` kept qubits — cheap even for 20-qubit
    /// registers when tracepoints touch only a few qubits.
    ///
    /// # Panics
    ///
    /// Panics on duplicate or out-of-range qubits.
    pub fn reduced_density_matrix(&self, qubits: &[usize]) -> CMatrix {
        let shifts: Vec<usize> = qubits.iter().map(|&q| self.bit_shift(q)).collect();
        rdm_scan(self.amps.len(), &shifts, |i| self.amps[i])
    }

    /// Full density matrix `|ψ⟩⟨ψ|` — only sensible for small registers.
    pub fn density_matrix(&self) -> CMatrix {
        CMatrix::outer(&self.amps, &self.amps)
    }

    /// Tensor product `self ⊗ other` (self's qubits first / more
    /// significant).
    pub fn tensor(&self, other: &StateVector) -> StateVector {
        let mut amps = Vec::with_capacity(self.dim() * other.dim());
        for &a in &self.amps {
            for &b in &other.amps {
                amps.push(a * b);
            }
        }
        StateVector {
            n_qubits: self.n_qubits + other.n_qubits,
            amps,
        }
    }

    /// Global-phase-insensitive approximate equality.
    pub fn approx_eq_up_to_phase(&self, other: &StateVector, tol: f64) -> bool {
        if self.n_qubits != other.n_qubits {
            return false;
        }
        (self.overlap(other) - 1.0).abs() <= tol
    }
}

/// Core of the reduced-density-matrix readout, shared by
/// [`StateVector::reduced_density_matrix`] and the lane-direct
/// [`crate::StateBatch::lane_reduced_density_matrix`] so both produce the
/// same bits from the same amplitudes: `dim` amplitudes are read through
/// `amp`, grouped by the traced-out configuration, and accumulated into
/// `ρ[(r, c)] += a_r · a_c†` per group.
///
/// Two global indices `i`, `j` contribute to the same group iff
/// `i & !keep_mask == j & !keep_mask`. Bucket slots are assigned in
/// first-seen environment order over the ascending amplitude scan, and
/// each bucket holds its amplitudes in ascending index order — so the
/// accumulation order, and therefore the result bits, do not depend on
/// the storage scheme. Small registers use a direct-address slot table
/// with flat bucket storage (this is the hot path: one call per lane per
/// tracepoint in the batched sweep); wide ones fall back to a hash map of
/// per-slot vectors to avoid a dim-sized table.
///
/// # Panics
///
/// Panics on duplicate bit shifts.
pub(crate) fn rdm_scan(dim: usize, shifts: &[usize], amp: impl Fn(usize) -> C64) -> CMatrix {
    let k = shifts.len();
    {
        let mut sorted = shifts.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            k,
            "duplicate qubits in reduced_density_matrix"
        );
    }
    let dk = 1usize << k;
    let keep_mask: usize = shifts.iter().map(|&s| 1usize << s).sum();
    let mut rho = CMatrix::zeros(dk, dk);
    let extract = |i: usize| -> usize {
        let mut idx = 0usize;
        for (bit, &s) in shifts.iter().enumerate() {
            if (i >> s) & 1 == 1 {
                idx |= 1 << (k - 1 - bit);
            }
        }
        idx
    };
    let env_mask = !keep_mask & (dim - 1);
    const DIRECT_TABLE_MAX_DIM: usize = 1 << 20;
    if dim <= DIRECT_TABLE_MAX_DIM {
        let mut slot_of = vec![usize::MAX; dim];
        // Pass 1: assign slots in first-seen order, count bucket sizes.
        let mut counts: Vec<usize> = Vec::new();
        for i in 0..dim {
            if amp(i) == C64::ZERO {
                continue;
            }
            let env = i & env_mask;
            let slot = slot_of[env];
            if slot == usize::MAX {
                slot_of[env] = counts.len();
                counts.push(1);
            } else {
                counts[slot] += 1;
            }
        }
        // Pass 2: scatter into one flat array at per-slot offsets; the
        // ascending scan keeps each bucket in ascending index order.
        let mut starts = Vec::with_capacity(counts.len() + 1);
        let mut total = 0usize;
        for &c in &counts {
            starts.push(total);
            total += c;
        }
        starts.push(total);
        let mut cursor = starts.clone();
        let mut entries: Vec<(usize, C64)> = vec![(0, C64::ZERO); total];
        for i in 0..dim {
            let a = amp(i);
            if a == C64::ZERO {
                continue;
            }
            let slot = slot_of[i & env_mask];
            entries[cursor[slot]] = (extract(i), a);
            cursor[slot] += 1;
        }
        for s in 0..counts.len() {
            let bucket = &entries[starts[s]..starts[s + 1]];
            for &(r, ar) in bucket {
                for &(c, ac) in bucket {
                    rho[(r, c)] += ar * ac.conj();
                }
            }
        }
    } else {
        let mut buckets: Vec<Vec<(usize, C64)>> = Vec::new();
        let mut env_index_of = std::collections::HashMap::new();
        for i in 0..dim {
            let a = amp(i);
            if a == C64::ZERO {
                continue;
            }
            let env = i & env_mask;
            let slot = *env_index_of.entry(env).or_insert_with(|| {
                buckets.push(Vec::new());
                buckets.len() - 1
            });
            buckets[slot].push((extract(i), a));
        }
        for bucket in &buckets {
            for &(r, ar) in bucket {
                for &(c, ac) in bucket {
                    rho[(r, c)] += ar * ac.conj();
                }
            }
        }
    }
    rho
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_state_is_normalized() {
        let sv = StateVector::zero_state(3);
        assert_eq!(sv.dim(), 8);
        assert!((sv.norm() - 1.0).abs() < 1e-15);
        assert_eq!(sv.amplitudes()[0], C64::ONE);
    }

    #[test]
    fn embed_matches_remapped_full_register_prep() {
        // Applying prep gates on a small register and embedding must give
        // the same state as applying the remapped gates to the wide zero
        // state — including non-contiguous, reordered target qubits.
        let mut rng = StdRng::seed_from_u64(31);
        for qubits in [vec![0usize, 1], vec![3, 1], vec![4, 0, 2]] {
            let m = qubits.len();
            let n = 5;
            let mut sub = StateVector::zero_state(m);
            let mut full = StateVector::zero_state(n);
            for (j, &q) in qubits.iter().enumerate() {
                let theta = rng.gen_range(0.0..6.0);
                sub.apply_h(j);
                sub.apply_phase(j, theta);
                full.apply_h(q);
                full.apply_phase(q, theta);
            }
            if m >= 2 {
                sub.apply_cx(0, 1);
                full.apply_cx(qubits[0], qubits[1]);
            }
            let embedded = StateVector::embed(&sub, &qubits, n);
            assert_eq!(embedded.n_qubits(), n);
            assert_eq!(embedded.amplitudes(), full.amplitudes());
        }
    }

    #[test]
    #[should_panic(expected = "duplicate embed qubits")]
    fn embed_rejects_duplicate_qubits() {
        let sub = StateVector::zero_state(2);
        let _ = StateVector::embed(&sub, &[1, 1], 3);
    }

    #[test]
    fn embed_full_width_identity_is_passthrough() {
        let mut sub = StateVector::zero_state(3);
        sub.apply_h(0);
        sub.apply_cx(0, 2);
        sub.apply_s(1);
        let embedded = StateVector::embed(&sub, &[0, 1, 2], 3);
        assert_eq!(embedded, sub);
    }

    #[test]
    fn embed_full_width_permutation_reorders_qubits() {
        // Same width but permuted targets must still scatter, not
        // passthrough: sub qubit 0 lands on register qubit 1 and vice versa.
        let mut sub = StateVector::zero_state(2);
        sub.apply_x(0); // |10⟩
        let embedded = StateVector::embed(&sub, &[1, 0], 2);
        assert_eq!(embedded.amplitudes()[0b01], C64::ONE);
        assert_eq!(embedded.amplitudes()[0b10], C64::ZERO);
    }

    #[test]
    fn embed_zero_qubit_register_lands_on_zero_basis() {
        // A 0-qubit sub-state is a single scalar; embedding places it on
        // |0…0⟩ of the wide register.
        let phase = C64::new(0.6, 0.8);
        let sub = StateVector::from_normalized_amplitudes(vec![phase]);
        let embedded = StateVector::embed(&sub, &[], 3);
        assert_eq!(embedded.n_qubits(), 3);
        assert_eq!(embedded.amplitudes()[0], phase);
        assert!(embedded.amplitudes()[1..].iter().all(|&a| a == C64::ZERO));
    }

    #[test]
    fn s_gate_is_exact() {
        // S applied twice must equal Z exactly — no cis(π/2) rounding.
        let mut sv = StateVector::zero_state(1);
        sv.apply_x(0);
        sv.apply_s(0);
        assert_eq!(sv.amplitudes()[1], C64::I);
        sv.apply_s(0);
        assert_eq!(sv.amplitudes()[1], C64::new(-1.0, 0.0));
        // S† on −|1⟩ multiplies by −i: (−1)(−i) = i; a second S† returns 1.
        sv.apply_sdg(0);
        assert_eq!(sv.amplitudes()[1], C64::I);
        sv.apply_sdg(0);
        assert_eq!(sv.amplitudes()[1], C64::ONE);
    }

    #[test]
    fn x_flips_basis_state() {
        let mut sv = StateVector::zero_state(3);
        sv.apply_x(0); // |100>
        assert_eq!(sv.amplitudes()[0b100], C64::ONE);
        sv.apply_x(2); // |101>
        assert_eq!(sv.amplitudes()[0b101], C64::ONE);
    }

    #[test]
    fn hh_is_identity() {
        let mut sv = StateVector::zero_state(2);
        sv.apply_h(1);
        sv.apply_h(1);
        assert!(sv.approx_eq_up_to_phase(&StateVector::zero_state(2), 1e-12));
    }

    #[test]
    fn bell_state_probabilities() {
        let mut sv = StateVector::zero_state(2);
        sv.apply_h(0);
        sv.apply_cx(0, 1);
        let p = sv.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!(p[1].abs() < 1e-12);
        assert!(p[2].abs() < 1e-12);
        assert!((p[3] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn z_adds_phase_on_one() {
        let mut sv = StateVector::zero_state(1);
        sv.apply_h(0);
        sv.apply_z(0);
        // (|0> - |1>)/√2
        assert!(sv.amplitudes()[0].re > 0.0);
        assert!(sv.amplitudes()[1].re < 0.0);
    }

    #[test]
    fn cz_symmetric_phase() {
        let mut a = StateVector::zero_state(2);
        a.apply_h(0);
        a.apply_h(1);
        let mut b = a.clone();
        a.apply_cz(0, 1);
        b.apply_cz(1, 0);
        assert_eq!(a, b);
        assert!(a.amplitudes()[3].re < 0.0);
    }

    #[test]
    fn mcz_only_flips_all_ones() {
        let mut sv = StateVector::zero_state(3);
        for q in 0..3 {
            sv.apply_h(q);
        }
        sv.apply_mcz(&[0, 1, 2]);
        for i in 0..7 {
            assert!(sv.amplitudes()[i].re > 0.0);
        }
        assert!(sv.amplitudes()[7].re < 0.0);
    }

    #[test]
    fn controlled_1q_respects_controls() {
        let x = CMatrix::from_rows(&[&[C64::ZERO, C64::ONE], &[C64::ONE, C64::ZERO]]);
        let mut sv = StateVector::zero_state(3);
        // Control qubits are |0>, so nothing happens.
        sv.apply_controlled_1q(&x, &[0, 1], 2);
        assert_eq!(sv.amplitudes()[0], C64::ONE);
        // Set controls, then it acts.
        sv.apply_x(0);
        sv.apply_x(1);
        sv.apply_controlled_1q(&x, &[0, 1], 2);
        assert_eq!(sv.amplitudes()[0b111], C64::ONE);
    }

    #[test]
    fn apply_kq_matches_embed() {
        // Random 3-qubit state; apply a 2-qubit gate two ways.
        let mut rng = StdRng::seed_from_u64(5);
        use rand::Rng;
        let amps: Vec<C64> = (0..8)
            .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let sv = StateVector::from_amplitudes(amps);
        let h = 1.0 / 2f64.sqrt();
        let had = CMatrix::from_rows(&[
            &[C64::real(h), C64::real(h)],
            &[C64::real(h), C64::real(-h)],
        ]);
        let gate = had.kron(&had);
        let mut via_kq = sv.clone();
        via_kq.apply_kq(&gate, &[2, 0]);
        let embedded = gate.embed(&[2, 0], 3);
        let expected = embedded.matvec(sv.amplitudes());
        for (i, &e) in expected.iter().enumerate() {
            assert!(via_kq.amplitudes()[i].approx_eq(e, 1e-12), "i={i}");
        }
    }

    #[test]
    fn phase_gate_composition() {
        let mut sv = StateVector::zero_state(1);
        sv.apply_h(0);
        sv.apply_phase(0, std::f64::consts::FRAC_PI_2); // S gate
        sv.apply_phase(0, std::f64::consts::FRAC_PI_2); // S·S = Z
        let mut zed = StateVector::zero_state(1);
        zed.apply_h(0);
        zed.apply_z(0);
        assert!(sv.approx_eq_up_to_phase(&zed, 1e-12));
    }

    #[test]
    fn measurement_collapses_consistently() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut sv = StateVector::zero_state(2);
        sv.apply_h(0);
        sv.apply_cx(0, 1);
        let outcome = sv.measure(0, &mut rng);
        // After measuring one half of a Bell pair, the other is determined.
        assert!((sv.prob_one(1) - outcome as f64).abs() < 1e-12);
        assert!((sv.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn measurement_statistics_match_probabilities() {
        let mut rng = StdRng::seed_from_u64(99);
        let mut sv = StateVector::zero_state(1);
        sv.apply_h(0);
        let shots = 20_000;
        let counts = sv.sample_counts(shots, &mut rng);
        let f = counts[1] as f64 / shots as f64;
        assert!((f - 0.5).abs() < 0.02, "empirical frequency {f}");
    }

    #[test]
    fn reduced_density_matrix_of_bell_pair_is_mixed() {
        let mut sv = StateVector::zero_state(2);
        sv.apply_h(0);
        sv.apply_cx(0, 1);
        let rho = sv.reduced_density_matrix(&[0]);
        let mixed = CMatrix::identity(2).scale_re(0.5);
        assert!(rho.approx_eq(&mixed, 1e-12));
    }

    #[test]
    fn reduced_density_matrix_of_product_state_is_pure() {
        let mut sv = StateVector::zero_state(3);
        sv.apply_h(1);
        let rho = sv.reduced_density_matrix(&[1]);
        assert!((morph_linalg::purity(&rho) - 1.0).abs() < 1e-12);
        assert!((rho[(0, 1)].re - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reduced_density_matrix_multi_qubit_order() {
        // |10>: reduced over [0,1] vs [1,0] permutes indices.
        let sv = StateVector::basis_state(2, 0b10);
        let r01 = sv.reduced_density_matrix(&[0, 1]);
        let r10 = sv.reduced_density_matrix(&[1, 0]);
        assert!((r01[(2, 2)].re - 1.0).abs() < 1e-12);
        assert!((r10[(1, 1)].re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tensor_product_order() {
        let zero = StateVector::zero_state(1);
        let mut one = StateVector::zero_state(1);
        one.apply_x(0);
        let combined = zero.tensor(&one); // |01>
        assert_eq!(combined.amplitudes()[0b01], C64::ONE);
    }

    #[test]
    fn expectation_z_values() {
        let mut sv = StateVector::zero_state(1);
        assert!((sv.expectation_z(0) - 1.0).abs() < 1e-12);
        sv.apply_x(0);
        assert!((sv.expectation_z(0) + 1.0).abs() < 1e-12);
        sv.apply_h(0);
        assert!(sv.expectation_z(0).abs() < 1e-12);
    }

    #[test]
    fn collapse_zero_probability_panics() {
        let sv = StateVector::zero_state(1);
        let result = std::panic::catch_unwind(move || {
            let mut sv = sv;
            sv.collapse(0, 1);
        });
        assert!(result.is_err());
    }
}
