//! Sparse statevector backend over a sorted-vec amplitude layout.
//!
//! Amplitudes live in a `Vec<(usize, C64)>` sorted ascending by basis
//! index (matching the dense kernels' scan order). Kernels never probe a
//! map: they partition the sorted run by the gate's bit pattern — each
//! partition stays sorted both by index and by group base — then walk
//! the partitions with linear k-way merges, computing the **same scalar
//! expressions** as the dense specialized kernels in
//! `morph_qsim::StateVector` with `C64::ZERO` standing in for absent
//! amplitudes. Outputs are emitted in ascending order per partition and
//! merged back in one pass, so every nonzero amplitude is bit-identical
//! to the dense register's at every point in the circuit. (Exactly-zero
//! amplitudes may differ in the sign of zero, but a ±0 can never perturb
//! a nonzero sum, dropped entries never reach the readout, and the dense
//! reduced-density-matrix scan skips `== 0` amplitudes — so no
//! observable ever sees the difference. The backend parity suite in
//! `tests/simulator_kernels.rs` enforces this bit-for-bit.)
//!
//! Two monitors watch the nonzero count after every sparse gate:
//!
//! - **Spill** (`len > budget`): the state no longer fits the configured
//!   nonzero budget and falls back to a dense [`StateVector`]
//!   (`backend/sparse_spills` counter) — the PR-7 semantics.
//! - **Switch** (`len >= switch threshold`): the state still fits but has
//!   grown dense enough that the sorted-run kernels stop paying off, so
//!   the simulator proactively hands off to the dense kernels
//!   (`backend/sparse_switches` / `backend/sparse_switch_gate`
//!   counters). The check runs on the per-lane gate stream only, so the
//!   switch point is deterministic and independent of worker count and
//!   batch size.
//!
//! Both events, plus the nonzero high-water mark, are reported through
//! [`FastPathStats`].

use std::cmp::Ordering;

use morph_clifford::NonCliffordGate;
use morph_linalg::{CMatrix, C64};
use morph_qsim::{matrices, Gate, StateVector};

use crate::simulator::Simulator;

/// Upper bound for the spill/switch register: past this width the dense
/// fallback would not fit in memory, so the budget must hold (and the
/// switch monitor is disabled).
const SPILL_MAX_QUBITS: usize = 28;

/// Sparse fast-path event counters for one simulation (or, merged, one
/// characterization sweep).
///
/// Every field is a deterministic function of the per-lane gate stream,
/// so sums (and the peak's max) over a sweep's lanes are identical at
/// any worker count and batch size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FastPathStats {
    /// Budget overruns that forced a fall back to the dense register.
    pub spills: u64,
    /// Proactive sparse→dense switches taken by the growth monitor.
    pub switches: u64,
    /// Clifford-segment splices (tableau-prefix → sparse/dense handoffs).
    pub splices: u64,
    /// Highest nonzero-amplitude count observed on any sparse register.
    pub peak_nonzeros: u64,
}

impl FastPathStats {
    /// Folds another lane's stats in: event counts add, peaks take the
    /// max.
    pub fn merge(&mut self, other: &FastPathStats) {
        self.spills += other.spills;
        self.switches += other.switches;
        self.splices += other.splices;
        self.peak_nonzeros = self.peak_nonzeros.max(other.peak_nonzeros);
    }

    /// `true` when nothing sparse-path-related happened (the dense and
    /// stabilizer backends report this).
    pub fn is_empty(&self) -> bool {
        *self == FastPathStats::default()
    }
}

/// Default nonzero budget for an `n`-qubit register: a quarter of the
/// full register (sparse stops paying off well before that), capped at
/// 2^20 entries so wide registers don't hoard memory before spilling.
fn default_budget(n_qubits: usize) -> usize {
    1usize << n_qubits.saturating_sub(2).min(20)
}

/// Default proactive-switch threshold for an `n`-qubit register: an
/// eighth of the full register, floored at 1024 entries so narrow
/// registers keep exercising the sparse kernels. The monitor is disabled
/// entirely (`usize::MAX`) at [`SPILL_MAX_QUBITS`] or wider, where no
/// dense register could exist.
fn default_switch_threshold(n_qubits: usize) -> usize {
    if n_qubits >= SPILL_MAX_QUBITS {
        return usize::MAX;
    }
    ((1usize << n_qubits) >> 3).max(1024)
}

type Entry = (usize, C64);

/// Merges two index-sorted runs with disjoint index sets into `dst`.
fn merge2(dst: &mut Vec<Entry>, a: &[Entry], b: &[Entry]) {
    dst.clear();
    dst.reserve(a.len() + b.len());
    let (mut p, mut q) = (0usize, 0usize);
    while p < a.len() && q < b.len() {
        if a[p].0 < b[q].0 {
            dst.push(a[p]);
            p += 1;
        } else {
            dst.push(b[q]);
            q += 1;
        }
    }
    dst.extend_from_slice(&a[p..]);
    dst.extend_from_slice(&b[q..]);
}

/// Merges three index-sorted runs with disjoint index sets into `dst`.
fn merge3(dst: &mut Vec<Entry>, a: &[Entry], b: &[Entry], c: &[Entry]) {
    dst.clear();
    dst.reserve(a.len() + b.len() + c.len());
    let (mut p, mut q, mut r) = (0usize, 0usize, 0usize);
    loop {
        let ia = a.get(p).map_or(usize::MAX, |e| e.0);
        let ib = b.get(q).map_or(usize::MAX, |e| e.0);
        let ic = c.get(r).map_or(usize::MAX, |e| e.0);
        if ia == usize::MAX && ib == usize::MAX && ic == usize::MAX {
            break;
        }
        if ia < ib && ia < ic {
            dst.push(a[p]);
            p += 1;
        } else if ib < ic {
            dst.push(b[q]);
            q += 1;
        } else {
            dst.push(c[r]);
            r += 1;
        }
    }
}

/// Merges any number of index-sorted runs with disjoint index sets.
fn merge_many(dst: &mut Vec<Entry>, runs: &[Vec<Entry>]) {
    dst.clear();
    dst.reserve(runs.iter().map(Vec::len).sum());
    let mut cur = vec![0usize; runs.len()];
    loop {
        let mut best_run = usize::MAX;
        let mut best_idx = usize::MAX;
        for (t, run) in runs.iter().enumerate() {
            if let Some(&(i, _)) = run.get(cur[t]) {
                if i < best_idx {
                    best_idx = i;
                    best_run = t;
                }
            }
        }
        if best_run == usize::MAX {
            break;
        }
        dst.push(runs[best_run][cur[best_run]]);
        cur[best_run] += 1;
    }
}

/// Walks `lo` (mask bit clear) and `hi` (mask bit set) — both ascending
/// by base `idx & !mask` — calling `f(a0, a1)` once per base occupied in
/// either run, and pushes nonzero outputs (ascending by index) to
/// `out0`/`out1`.
fn merge_pairs(
    lo: &[Entry],
    hi: &[Entry],
    mask: usize,
    mut f: impl FnMut(C64, C64) -> (C64, C64),
    out0: &mut Vec<Entry>,
    out1: &mut Vec<Entry>,
) {
    let (mut p, mut q) = (0usize, 0usize);
    while p < lo.len() || q < hi.len() {
        let (base, a0, a1) = if q == hi.len() {
            let (i, a) = lo[p];
            p += 1;
            (i, a, C64::ZERO)
        } else if p == lo.len() {
            let (i, a) = hi[q];
            q += 1;
            (i & !mask, C64::ZERO, a)
        } else {
            let (il, al) = lo[p];
            let (ih, ah) = hi[q];
            match il.cmp(&(ih & !mask)) {
                Ordering::Less => {
                    p += 1;
                    (il, al, C64::ZERO)
                }
                Ordering::Greater => {
                    q += 1;
                    (ih & !mask, C64::ZERO, ah)
                }
                Ordering::Equal => {
                    p += 1;
                    q += 1;
                    (il, al, ah)
                }
            }
        };
        let (r0, r1) = f(a0, a1);
        if r0 != C64::ZERO {
            out0.push((base, r0));
        }
        if r1 != C64::ZERO {
            out1.push((base | mask, r1));
        }
    }
}

/// Sparse statevector simulator (see the module docs for the layout and
/// exactness contract).
///
/// # Examples
///
/// ```
/// use morph_backend::{Simulator, SparseSim};
/// use morph_qsim::Gate;
///
/// // A 24-qubit GHZ state is 2 nonzero amplitudes, not 2^24.
/// let mut sim = SparseSim::new(24);
/// sim.apply_gate(&Gate::H(0)).unwrap();
/// for q in 1..24 {
///     sim.apply_gate(&Gate::CX(q - 1, q)).unwrap();
/// }
/// assert_eq!(sim.nonzeros(), 2);
/// let rho = sim.tracepoint_rdm(&[23]);
/// assert!((rho[(0, 0)].re - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct SparseSim {
    n: usize,
    budget: usize,
    switch_at: usize,
    gates_applied: u64,
    entries: Vec<Entry>,
    dense: Option<StateVector>,
    stats: FastPathStats,
    pool: Vec<Vec<Entry>>,
}

impl SparseSim {
    /// Starts from `|0…0⟩` with the default nonzero budget,
    /// `min(2^(n−2), 2^20)`, and the default switch threshold,
    /// `max(2^n/8, 1024)`, which is off at 28 qubits or wider.
    pub fn new(n_qubits: usize) -> Self {
        Self::with_thresholds(
            n_qubits,
            default_budget(n_qubits),
            default_switch_threshold(n_qubits),
        )
    }

    /// Starts from `|0…0⟩` with explicit spill budget and switch
    /// threshold (`usize::MAX` disables the switch monitor; thresholds
    /// below 2 are clamped up so `|0…0⟩` itself never trips it).
    pub fn with_thresholds(n_qubits: usize, budget: usize, switch_threshold: usize) -> Self {
        SparseSim {
            n: n_qubits,
            budget: budget.max(1),
            switch_at: switch_threshold.max(2),
            gates_applied: 0,
            entries: vec![(0, C64::ONE)],
            dense: None,
            stats: FastPathStats {
                peak_nonzeros: 1,
                ..FastPathStats::default()
            },
            pool: Vec::new(),
        }
    }

    /// Starts from a prepared state, keeping only its nonzero
    /// amplitudes. The spill/switch monitor runs once on the handoff
    /// state, so a saturated prefix goes dense immediately.
    pub fn from_statevector(state: &StateVector) -> Self {
        let mut sim = Self::new(state.n_qubits());
        sim.entries.clear();
        for (i, &a) in state.amplitudes().iter().enumerate() {
            if a != C64::ZERO {
                sim.entries.push((i, a));
            }
        }
        sim.stats.peak_nonzeros = sim.stats.peak_nonzeros.max(sim.entries.len() as u64);
        if sim.entries.len() > sim.budget {
            sim.spill();
        } else if sim.entries.len() >= sim.switch_at {
            sim.switch_to_dense();
        }
        sim
    }

    /// Current nonzero-amplitude count (the dense register counts its
    /// nonzero entries).
    pub fn nonzeros(&self) -> usize {
        match &self.dense {
            Some(sv) => sv.amplitudes().iter().filter(|&&a| a != C64::ZERO).count(),
            None => self.entries.len(),
        }
    }

    /// `true` once the state runs on the dense register, whether by
    /// budget spill or proactive switch.
    pub fn spilled(&self) -> bool {
        self.dense.is_some()
    }

    /// Spill/switch/peak counters accumulated so far.
    pub fn stats(&self) -> FastPathStats {
        self.stats
    }

    /// Records a Clifford-segment splice handoff into this register
    /// (bumps the stat and the `backend/splices` counter).
    pub fn record_splice(&mut self) {
        self.stats.splices += 1;
        morph_trace::counter("backend/splices", 1);
    }

    /// The amplitude at basis index `idx` (`C64::ZERO` when absent).
    pub fn amplitude(&self, idx: usize) -> C64 {
        match &self.dense {
            Some(sv) => sv.amplitudes()[idx],
            None => self
                .entries
                .binary_search_by_key(&idx, |e| e.0)
                .map_or(C64::ZERO, |p| self.entries[p].1),
        }
    }

    /// Materializes the dense statevector.
    pub fn to_statevector(&self) -> StateVector {
        match &self.dense {
            Some(sv) => sv.clone(),
            None => {
                let mut amps = vec![C64::ZERO; 1usize << self.n];
                for &(i, a) in &self.entries {
                    amps[i] = a;
                }
                StateVector::from_normalized_amplitudes(amps)
            }
        }
    }

    fn shift(&self, qubit: usize) -> usize {
        assert!(qubit < self.n, "qubit {qubit} out of range");
        self.n - 1 - qubit
    }

    fn take(&mut self) -> Vec<Entry> {
        self.pool.pop().unwrap_or_default()
    }

    fn give(&mut self, mut buf: Vec<Entry>) {
        buf.clear();
        self.pool.push(buf);
    }

    /// Pair kernel: partitions the sorted run on `mask`, merges the two
    /// halves by base, applies `f` to each occupied pair, and merges the
    /// outputs back — one linear pass end to end.
    fn apply_pairs(&mut self, mask: usize, f: impl FnMut(C64, C64) -> (C64, C64)) {
        let mut lo = self.take();
        let mut hi = self.take();
        for &(i, a) in &self.entries {
            if i & mask == 0 {
                lo.push((i, a));
            } else {
                hi.push((i, a));
            }
        }
        let mut out0 = self.take();
        let mut out1 = self.take();
        merge_pairs(&lo, &hi, mask, f, &mut out0, &mut out1);
        merge2(&mut self.entries, &out0, &out1);
        self.give(lo);
        self.give(hi);
        self.give(out0);
        self.give(out1);
    }

    /// Mirrors `StateVector::apply_1q`: `u00·a0 + u01·a1` / `u10·a0 +
    /// u11·a1` per index pair.
    fn apply_1q(&mut self, u: &CMatrix, qubit: usize) {
        let mask = 1usize << self.shift(qubit);
        let (u00, u01, u10, u11) = (u[(0, 0)], u[(0, 1)], u[(1, 0)], u[(1, 1)]);
        self.apply_pairs(mask, |a0, a1| (u00 * a0 + u01 * a1, u10 * a0 + u11 * a1));
    }

    /// Mirrors `StateVector::apply_h`: `(a0 ± a1).scale(h)`.
    fn apply_h(&mut self, qubit: usize) {
        let h = 1.0 / 2f64.sqrt();
        let mask = 1usize << self.shift(qubit);
        self.apply_pairs(mask, |a0, a1| ((a0 + a1).scale(h), (a0 - a1).scale(h)));
    }

    /// X: values move between the two bit-halves, no arithmetic.
    fn permute_x(&mut self, mask: usize) {
        let mut lo = self.take();
        let mut hi = self.take();
        for &(i, a) in &self.entries {
            if i & mask == 0 {
                lo.push((i | mask, a));
            } else {
                hi.push((i & !mask, a));
            }
        }
        merge2(&mut self.entries, &hi, &lo);
        self.give(lo);
        self.give(hi);
    }

    /// CX: the control-clear partition passes through; the control-set
    /// halves trade the target bit.
    fn permute_cx(&mut self, cmask: usize, tmask: usize) {
        let mut pass = self.take();
        let mut lo = self.take();
        let mut hi = self.take();
        for &(i, a) in &self.entries {
            if i & cmask == 0 {
                pass.push((i, a));
            } else if i & tmask == 0 {
                lo.push((i | tmask, a));
            } else {
                hi.push((i & !tmask, a));
            }
        }
        merge3(&mut self.entries, &pass, &hi, &lo);
        self.give(pass);
        self.give(lo);
        self.give(hi);
    }

    /// SWAP: equal-bit indices pass through; unequal-bit indices flip
    /// both bits (`i ^ (ma|mb)` is monotone within each partition).
    fn permute_swap(&mut self, ma: usize, mb: usize) {
        let both = ma | mb;
        let mut pass = self.take();
        let mut a_only = self.take();
        let mut b_only = self.take();
        for &(i, v) in &self.entries {
            let (ba, bb) = (i & ma != 0, i & mb != 0);
            if ba == bb {
                pass.push((i, v));
            } else if ba {
                a_only.push((i ^ both, v));
            } else {
                b_only.push((i ^ both, v));
            }
        }
        merge3(&mut self.entries, &pass, &a_only, &b_only);
        self.give(pass);
        self.give(a_only);
        self.give(b_only);
    }

    /// Diagonal update on every stored amplitude whose index satisfies
    /// `pred`; exact-zero results are dropped in place (order is
    /// untouched).
    fn map_where(&mut self, pred: impl Fn(usize) -> bool, f: impl Fn(C64) -> C64) {
        self.entries.retain_mut(|e| {
            if pred(e.0) {
                e.1 = f(e.1);
            }
            e.1 != C64::ZERO
        });
    }

    /// Mirrors `StateVector::apply_controlled_1q`: pairs within the
    /// all-controls-set subspace; everything else passes through.
    fn apply_controlled_1q(&mut self, u: &CMatrix, controls: &[usize], target: usize) {
        let tmask = 1usize << self.shift(target);
        let cmask: usize = controls
            .iter()
            .map(|&c| {
                assert_ne!(c, target, "control equals target");
                1usize << self.shift(c)
            })
            .sum();
        let (u00, u01, u10, u11) = (u[(0, 0)], u[(0, 1)], u[(1, 0)], u[(1, 1)]);
        let mut pass = self.take();
        let mut lo = self.take();
        let mut hi = self.take();
        for &(i, a) in &self.entries {
            if i & cmask != cmask {
                pass.push((i, a));
            } else if i & tmask == 0 {
                lo.push((i, a));
            } else {
                hi.push((i, a));
            }
        }
        let mut out0 = self.take();
        let mut out1 = self.take();
        merge_pairs(
            &lo,
            &hi,
            tmask,
            |a0, a1| (u00 * a0 + u01 * a1, u10 * a0 + u11 * a1),
            &mut out0,
            &mut out1,
        );
        merge3(&mut self.entries, &pass, &out0, &out1);
        self.give(pass);
        self.give(lo);
        self.give(hi);
        self.give(out0);
        self.give(out1);
    }

    /// Specialized two-target unitary kernel — the shape `fuse_circuit`
    /// emits for nearly every fused block, so this is the hot gate of a
    /// fused sparse sweep. Identical arithmetic to the generic
    /// [`Self::apply_kq`] path (same spread table, same ascending-column
    /// fold), with fixed-size cursors and a preloaded operator instead of
    /// per-call scratch allocations.
    fn apply_2q(&mut self, u: &CMatrix, q_a: usize, q_b: usize) {
        assert_ne!(q_a, q_b, "two-qubit gate targets must differ");
        assert_eq!(u.rows(), 4, "operator size does not match targets");
        let (ma, mb) = (1usize << self.shift(q_a), 1usize << self.shift(q_b));
        let group_mask = ma | mb;
        let spread = [0usize, mb, ma, ma | mb];
        let mut uu = [C64::ZERO; 16];
        for (r, row) in uu.chunks_exact_mut(4).enumerate() {
            for (c, slot) in row.iter_mut().enumerate() {
                *slot = u[(r, c)];
            }
        }
        // Ascending nonzero columns per row. Fused blocks of monomial
        // gates are mostly zeros, and skipping a `0·a` term never changes
        // a nonzero accumulator's bits (and an all-zero accumulator is
        // dropped either way — zero signs compare equal), so the fold
        // below stays bit-faithful while touching only real terms.
        let mut nz_cols = [[0usize; 4]; 4];
        let mut nz_len = [0usize; 4];
        for r in 0..4 {
            for c in 0..4 {
                if uu[4 * r + c] != C64::ZERO {
                    nz_cols[r][nz_len[r]] = c;
                    nz_len[r] += 1;
                }
            }
        }
        let mut parts = [self.take(), self.take(), self.take(), self.take()];
        for &(i, a) in &self.entries {
            let t = (usize::from(i & ma != 0) << 1) | usize::from(i & mb != 0);
            parts[t].push((i & !group_mask, a));
        }
        let mut outs = [self.take(), self.take(), self.take(), self.take()];
        let mut cur = [0usize; 4];
        let mut scratch = [C64::ZERO; 4];
        loop {
            let mut base = usize::MAX;
            for (t, part) in parts.iter().enumerate() {
                if let Some(&(b, _)) = part.get(cur[t]) {
                    base = base.min(b);
                }
            }
            if base == usize::MAX {
                break;
            }
            for (t, part) in parts.iter().enumerate() {
                scratch[t] = match part.get(cur[t]) {
                    Some(&(b, a)) if b == base => {
                        cur[t] += 1;
                        a
                    }
                    _ => C64::ZERO,
                };
            }
            for (r, out) in outs.iter_mut().enumerate() {
                let row = &uu[4 * r..4 * r + 4];
                let mut acc = C64::ZERO;
                for &c in &nz_cols[r][..nz_len[r]] {
                    acc += row[c] * scratch[c];
                }
                if acc != C64::ZERO {
                    out.push((base | spread[r], acc));
                }
            }
        }
        merge_many(&mut self.entries, &outs);
        for buf in parts {
            self.give(buf);
        }
        for buf in outs {
            self.give(buf);
        }
    }

    /// Mirrors `StateVector::apply_kq`: same `spread` table, same
    /// ascending-column accumulation, over a `2^k`-way partition of the
    /// sorted run walked by group base.
    fn apply_kq(&mut self, u: &CMatrix, targets: &[usize]) {
        let k = targets.len();
        assert_eq!(u.rows(), 1 << k, "operator size does not match targets");
        if k == 1 {
            return self.apply_1q(u, targets[0]);
        }
        if k == 2 {
            return self.apply_2q(u, targets[0], targets[1]);
        }
        let shifts: Vec<usize> = targets.iter().map(|&q| self.shift(q)).collect();
        {
            let mut sorted = shifts.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), k, "duplicate targets");
        }
        let dk = 1usize << k;
        let group_mask: usize = shifts.iter().map(|&s| 1usize << s).sum();
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
        // Partition by the index's pattern over the target bits; each
        // partition is ascending by base (clearing the same fixed
        // pattern preserves order).
        let mut parts: Vec<Vec<Entry>> = (0..dk).map(|_| self.take()).collect();
        for &(i, a) in &self.entries {
            let mut t = 0usize;
            for (bit, &s) in shifts.iter().enumerate() {
                if (i >> s) & 1 == 1 {
                    t |= 1 << (k - 1 - bit);
                }
            }
            parts[t].push((i & !group_mask, a));
        }
        // Walk occupied group bases in ascending order via a dk-way
        // merge; absent members read as C64::ZERO exactly like the old
        // map probes did.
        let mut outs: Vec<Vec<Entry>> = (0..dk).map(|_| self.take()).collect();
        let mut cur = vec![0usize; dk];
        let mut scratch = vec![C64::ZERO; dk];
        loop {
            let mut base = usize::MAX;
            for (t, part) in parts.iter().enumerate() {
                if let Some(&(b, _)) = part.get(cur[t]) {
                    if b < base {
                        base = b;
                    }
                }
            }
            if base == usize::MAX {
                break;
            }
            for (t, part) in parts.iter().enumerate() {
                scratch[t] = match part.get(cur[t]) {
                    Some(&(b, a)) if b == base => {
                        cur[t] += 1;
                        a
                    }
                    _ => C64::ZERO,
                };
            }
            for (r, out) in outs.iter_mut().enumerate() {
                let mut acc = C64::ZERO;
                for (c, &sc) in scratch.iter().enumerate() {
                    acc += u[(r, c)] * sc;
                }
                if acc != C64::ZERO {
                    out.push((base | spread[r], acc));
                }
            }
        }
        merge_many(&mut self.entries, &outs);
        for buf in parts {
            self.give(buf);
        }
        for buf in outs {
            self.give(buf);
        }
    }

    fn apply_gate_sparse(&mut self, gate: &Gate) {
        match gate {
            Gate::H(q) => self.apply_h(*q),
            Gate::X(q) => {
                let mask = 1usize << self.shift(*q);
                self.permute_x(mask);
            }
            Gate::Y(q) => self.apply_1q(&matrices::y(), *q),
            Gate::Z(q) => {
                let mask = 1usize << self.shift(*q);
                self.map_where(|i| i & mask != 0, |a| -a);
            }
            Gate::S(q) => {
                let mask = 1usize << self.shift(*q);
                self.map_where(|i| i & mask != 0, |a| C64::new(-a.im, a.re));
            }
            Gate::Sdg(q) => {
                let mask = 1usize << self.shift(*q);
                self.map_where(|i| i & mask != 0, |a| C64::new(a.im, -a.re));
            }
            Gate::T(q) => self.apply_phase(*q, std::f64::consts::FRAC_PI_4),
            Gate::Tdg(q) => self.apply_phase(*q, -std::f64::consts::FRAC_PI_4),
            Gate::RX(q, a) => self.apply_1q(&matrices::rx(*a), *q),
            Gate::RY(q, a) => self.apply_1q(&matrices::ry(*a), *q),
            Gate::RZ(q, a) => self.apply_1q(&matrices::rz(*a), *q),
            Gate::Phase(q, a) => self.apply_phase(*q, *a),
            Gate::CX(c, t) => {
                assert_ne!(c, t, "control equals target");
                let cmask = 1usize << self.shift(*c);
                let tmask = 1usize << self.shift(*t);
                self.permute_cx(cmask, tmask);
            }
            Gate::CZ(a, b) => {
                assert_ne!(a, b, "control equals target");
                let both = (1usize << self.shift(*a)) | (1usize << self.shift(*b));
                self.map_where(|i| i & both == both, |a| -a);
            }
            Gate::CRZ(c, t, a) => self.apply_controlled_1q(&matrices::rz(*a), &[*c], *t),
            Gate::CPhase(c, t, a) => self.apply_controlled_1q(&matrices::phase(*a), &[*c], *t),
            Gate::Swap(a, b) => {
                assert_ne!(a, b, "swap requires distinct qubits");
                let ma = 1usize << self.shift(*a);
                let mb = 1usize << self.shift(*b);
                self.permute_swap(ma, mb);
            }
            Gate::CCX(c1, c2, t) => self.apply_controlled_1q(&matrices::x(), &[*c1, *c2], *t),
            Gate::MCZ(qs) => {
                let mask: usize = qs.iter().map(|&q| 1usize << self.shift(q)).sum();
                self.map_where(|i| i & mask == mask, |a| -a);
            }
            Gate::MCRX(cs, t, a) => self.apply_controlled_1q(&matrices::rx(*a), cs, *t),
            Gate::MCRY(cs, t, a) => self.apply_controlled_1q(&matrices::ry(*a), cs, *t),
            Gate::Unitary(qs, u) => self.apply_kq(u, qs),
        }
    }

    /// Mirrors `StateVector::apply_phase`: `a *= cis(θ)` where the bit is
    /// set.
    fn apply_phase(&mut self, qubit: usize, theta: f64) {
        let mask = 1usize << self.shift(qubit);
        let phase = C64::cis(theta);
        self.map_where(|i| i & mask != 0, |a| a * phase);
    }

    /// Runs the growth monitor after a sparse gate: spill past the
    /// budget, proactively switch at the threshold.
    fn after_sparse_gate(&mut self) {
        self.gates_applied += 1;
        let len = self.entries.len() as u64;
        if len > self.stats.peak_nonzeros {
            self.stats.peak_nonzeros = len;
        }
        if self.entries.len() > self.budget {
            self.spill();
        } else if self.entries.len() >= self.switch_at {
            self.switch_to_dense();
        }
    }

    fn spill(&mut self) {
        assert!(
            self.n < SPILL_MAX_QUBITS,
            "sparse register of {} qubits exceeded its nonzero budget ({}) \
             and is too wide to spill to dense",
            self.n,
            self.budget
        );
        morph_trace::counter("backend/sparse_spills", 1);
        self.stats.spills += 1;
        self.go_dense();
    }

    fn switch_to_dense(&mut self) {
        assert!(
            self.n < SPILL_MAX_QUBITS,
            "sparse register of {} qubits hit its switch threshold ({}) \
             but is too wide to hand off to dense",
            self.n,
            self.switch_at
        );
        morph_trace::counter("backend/sparse_switches", 1);
        morph_trace::counter("backend/sparse_switch_gate", self.gates_applied);
        self.stats.switches += 1;
        self.go_dense();
    }

    fn go_dense(&mut self) {
        self.dense = Some(self.to_statevector());
        self.entries.clear();
        self.pool.clear();
    }
}

impl Simulator for SparseSim {
    fn apply_gate(&mut self, gate: &Gate) -> Result<(), NonCliffordGate> {
        match &mut self.dense {
            Some(sv) => gate.apply(sv),
            None => {
                self.apply_gate_sparse(gate);
                self.after_sparse_gate();
            }
        }
        Ok(())
    }

    /// Mirrors `StateVector::reduced_density_matrix` exactly: first-seen
    /// environment-slot order over the ascending nonzero scan, ascending
    /// indices within each bucket, identical accumulation order — so the
    /// result is bit-identical to the dense readout. The scan partitions
    /// the nonzeros by the traced-qubit mask through a sorted environment
    /// table (`O(S log E)` for `S` nonzeros and `E` distinct
    /// environments) instead of hashing every amplitude.
    fn tracepoint_rdm(&self, qubits: &[usize]) -> CMatrix {
        if let Some(sv) = &self.dense {
            return sv.reduced_density_matrix(qubits);
        }
        let k = qubits.len();
        let shifts: Vec<usize> = qubits.iter().map(|&q| self.shift(q)).collect();
        {
            let mut sorted = shifts.clone();
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
        let env_mask = !keep_mask & ((1usize << self.n) - 1);
        let extract = |i: usize| -> usize {
            let mut idx = 0usize;
            for (bit, &s) in shifts.iter().enumerate() {
                if (i >> s) & 1 == 1 {
                    idx |= 1 << (k - 1 - bit);
                }
            }
            idx
        };
        // Pass 1: sorted table of distinct environment patterns.
        let mut envs: Vec<usize> = self.entries.iter().map(|&(i, _)| i & env_mask).collect();
        envs.sort_unstable();
        envs.dedup();
        // Pass 2: first-seen slot per environment and bucket sizes, in
        // ascending amplitude-scan order (the order dense uses).
        let mut slot_of_rank = vec![usize::MAX; envs.len()];
        let mut slots = Vec::with_capacity(self.entries.len());
        let mut counts = vec![0usize; envs.len()];
        let mut next_slot = 0usize;
        for &(i, _) in &self.entries {
            let rank = envs
                .binary_search(&(i & env_mask))
                .expect("environment indexed in pass 1");
            if slot_of_rank[rank] == usize::MAX {
                slot_of_rank[rank] = next_slot;
                next_slot += 1;
            }
            let slot = slot_of_rank[rank];
            slots.push(slot);
            counts[slot] += 1;
        }
        // Pass 3: flat scatter into first-seen-ordered buckets, then one
        // Gram accumulation per bucket.
        let mut starts = vec![0usize; next_slot + 1];
        for (s, &c) in counts.iter().take(next_slot).enumerate() {
            starts[s + 1] = starts[s] + c;
        }
        let mut cursor = starts.clone();
        let mut flat: Vec<(usize, C64)> = vec![(0, C64::ZERO); self.entries.len()];
        for (&(i, a), &slot) in self.entries.iter().zip(&slots) {
            flat[cursor[slot]] = (extract(i), a);
            cursor[slot] += 1;
        }
        let mut rho = CMatrix::zeros(dk, dk);
        for s in 0..next_slot {
            let bucket = &flat[starts[s]..starts[s + 1]];
            for &(r, ar) in bucket {
                for &(c, ac) in bucket {
                    rho[(r, c)] += ar * ac.conj();
                }
            }
        }
        rho
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_gate(n: usize, rng: &mut StdRng) -> Gate {
        let q = rng.gen_range(0..n);
        match rng.gen_range(0..14) {
            0 => Gate::H(q),
            1 => Gate::X(q),
            2 => Gate::Y(q),
            3 => Gate::Z(q),
            4 => Gate::S(q),
            5 => Gate::T(q),
            6 => Gate::RX(q, rng.gen_range(-3.0..3.0)),
            7 => Gate::RY(q, rng.gen_range(-3.0..3.0)),
            8 => Gate::RZ(q, rng.gen_range(-3.0..3.0)),
            9 => Gate::Phase(q, rng.gen_range(-3.0..3.0)),
            g if n >= 2 => {
                let mut p = rng.gen_range(0..n);
                while p == q {
                    p = rng.gen_range(0..n);
                }
                match g {
                    10 => Gate::CX(q, p),
                    11 => Gate::CZ(q, p),
                    12 => Gate::Swap(q, p),
                    _ => Gate::CPhase(q, p, rng.gen_range(-3.0..3.0)),
                }
            }
            _ => Gate::Sdg(q),
        }
    }

    /// The core contract: every nonzero amplitude bit-identical to the
    /// dense kernels, arbitrary (non-Clifford) circuits included.
    #[test]
    fn nonzero_amplitudes_bitwise_match_dense() {
        let mut rng = StdRng::seed_from_u64(3);
        for trial in 0..25 {
            let n = rng.gen_range(1..=6);
            let mut sim = SparseSim::with_thresholds(n, 1 << n, usize::MAX);
            let mut dense = StateVector::zero_state(n);
            for step in 0..40 {
                let g = random_gate(n, &mut rng);
                sim.apply_gate(&g).unwrap();
                g.apply(&mut dense);
                assert!(
                    sim.entries.windows(2).all(|w| w[0].0 < w[1].0),
                    "trial {trial} step {step} {g:?}: entries out of order"
                );
                for &(i, a) in &sim.entries {
                    assert!(
                        a == dense.amplitudes()[i],
                        "trial {trial} step {step} {g:?}: amp {i} {a:?} vs {:?}",
                        dense.amplitudes()[i]
                    );
                }
                for (i, &d) in dense.amplitudes().iter().enumerate() {
                    if d != C64::ZERO {
                        assert!(
                            sim.amplitude(i) != C64::ZERO,
                            "trial {trial} step {step}: dense nonzero {i} missing"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rdm_bitwise_matches_dense() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..25 {
            let n = rng.gen_range(2..=6);
            let mut sim = SparseSim::with_thresholds(n, 1 << n, usize::MAX);
            let mut dense = StateVector::zero_state(n);
            for _ in 0..30 {
                let g = random_gate(n, &mut rng);
                sim.apply_gate(&g).unwrap();
                g.apply(&mut dense);
            }
            let k = rng.gen_range(1..=n.min(3));
            let mut qubits: Vec<usize> = (0..n).collect();
            for i in 0..k {
                let j = rng.gen_range(i..n);
                qubits.swap(i, j);
            }
            qubits.truncate(k);
            let a = sim.tracepoint_rdm(&qubits);
            let b = dense.reduced_density_matrix(&qubits);
            for r in 0..(1 << k) {
                for c in 0..(1 << k) {
                    assert!(
                        a[(r, c)] == b[(r, c)],
                        "qubits {qubits:?} entry ({r},{c}): {:?} vs {:?}",
                        a[(r, c)],
                        b[(r, c)]
                    );
                }
            }
        }
    }

    #[test]
    fn ghz_stays_two_amplitudes() {
        let mut sim = SparseSim::new(20);
        sim.apply_gate(&Gate::H(0)).unwrap();
        for q in 1..20 {
            sim.apply_gate(&Gate::CX(q - 1, q)).unwrap();
        }
        assert_eq!(sim.nonzeros(), 2);
        assert!(!sim.spilled());
        assert_eq!(sim.stats().peak_nonzeros, 2);
        assert_eq!(sim.stats().spills, 0);
        assert_eq!(sim.stats().switches, 0);
    }

    #[test]
    fn budget_overflow_spills_and_stays_correct() {
        let mut sim = SparseSim::with_thresholds(4, 4, usize::MAX);
        let mut dense = StateVector::zero_state(4);
        for q in 0..4 {
            sim.apply_gate(&Gate::H(q)).unwrap();
            Gate::H(q).apply(&mut dense);
        }
        assert!(sim.spilled(), "16 nonzeros over a budget of 4 must spill");
        assert_eq!(sim.stats().spills, 1);
        assert_eq!(sim.stats().switches, 0);
        // Post-spill gates run dense and remain exact.
        sim.apply_gate(&Gate::T(2)).unwrap();
        Gate::T(2).apply(&mut dense);
        let a = sim.tracepoint_rdm(&[2]);
        let b = dense.reduced_density_matrix(&[2]);
        for r in 0..2 {
            for c in 0..2 {
                assert_eq!(a[(r, c)], b[(r, c)]);
            }
        }
    }

    #[test]
    fn switch_threshold_exactly_reached_triggers_and_stays_bitwise() {
        // Threshold 8 on a 5-qubit register: the 3rd H reaches exactly 8
        // nonzeros, so the monitor must switch there — not before, not
        // after — and the rest of the circuit must stay bit-identical.
        let mut sim = SparseSim::with_thresholds(5, 1 << 5, 8);
        let mut dense = StateVector::zero_state(5);
        for q in 0..2 {
            sim.apply_gate(&Gate::H(q)).unwrap();
            Gate::H(q).apply(&mut dense);
            assert!(!sim.spilled(), "below threshold after H({q})");
        }
        sim.apply_gate(&Gate::H(2)).unwrap();
        Gate::H(2).apply(&mut dense);
        assert!(sim.spilled(), "8 nonzeros == threshold 8 must switch");
        assert_eq!(sim.stats().switches, 1);
        assert_eq!(sim.stats().spills, 0);
        assert_eq!(sim.stats().peak_nonzeros, 8);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let g = random_gate(5, &mut rng);
            sim.apply_gate(&g).unwrap();
            g.apply(&mut dense);
        }
        assert_eq!(
            sim.to_statevector().amplitudes(),
            dense.amplitudes(),
            "post-switch dense register must be bit-identical"
        );
    }

    #[test]
    fn switch_one_below_threshold_stays_sparse() {
        let mut sim = SparseSim::with_thresholds(5, 1 << 5, 9);
        for q in 0..3 {
            sim.apply_gate(&Gate::H(q)).unwrap();
        }
        assert_eq!(sim.nonzeros(), 8);
        assert!(!sim.spilled(), "8 nonzeros under threshold 9 stays sparse");
        assert_eq!(sim.stats().switches, 0);
    }

    #[test]
    fn default_threshold_respects_floor() {
        assert_eq!(default_switch_threshold(4), 1024, "floor holds below 2^13");
        assert_eq!(default_switch_threshold(16), 1 << 13, "2^16 >> 3");
        assert_eq!(
            default_switch_threshold(SPILL_MAX_QUBITS),
            usize::MAX,
            "monitor disabled where dense cannot exist"
        );
    }

    #[test]
    fn from_statevector_saturated_handoff_runs_the_monitor() {
        // A 13-qubit handoff with 1024 nonzeros sits exactly at the
        // floored default switch threshold (and under the 2048 budget),
        // so the monitor must resolve it at construction rather than run
        // sparse kernels over a saturated support.
        let mut dense = StateVector::zero_state(13);
        for q in 0..10 {
            Gate::H(q).apply(&mut dense);
        }
        let sim = SparseSim::from_statevector(&dense);
        assert_eq!(sim.stats().peak_nonzeros, 1024);
        assert_eq!(sim.stats().spills, 0, "1024 nonzeros fit the 2048 budget");
        assert!(sim.spilled(), "1024 nonzeros reach the switch threshold");
        assert_eq!(sim.stats().switches, 1);
    }

    #[test]
    fn stats_merge_sums_events_and_maxes_peak() {
        let mut a = FastPathStats {
            spills: 1,
            switches: 2,
            splices: 3,
            peak_nonzeros: 10,
        };
        let b = FastPathStats {
            spills: 4,
            switches: 5,
            splices: 6,
            peak_nonzeros: 7,
        };
        a.merge(&b);
        assert_eq!(
            a,
            FastPathStats {
                spills: 5,
                switches: 7,
                splices: 9,
                peak_nonzeros: 10,
            }
        );
        assert!(FastPathStats::default().is_empty());
        assert!(!a.is_empty());
    }

    #[test]
    fn kq_unitary_matches_dense() {
        // Fusion emits Gate::Unitary payloads; exercise the k-qubit path.
        let mut rng = StdRng::seed_from_u64(8);
        let n = 5;
        let mut sim = SparseSim::with_thresholds(n, 1 << n, usize::MAX);
        let mut dense = StateVector::zero_state(n);
        for g in [Gate::H(0), Gate::H(2), Gate::CX(0, 3)] {
            sim.apply_gate(&g).unwrap();
            g.apply(&mut dense);
        }
        for targets in [vec![1usize, 3], vec![4, 0, 2]] {
            // A random unitary via a product of elementary gates' full
            // matrix on the target subspace.
            let dim = 1usize << targets.len();
            let mut u = CMatrix::identity(dim);
            for _ in 0..4 {
                let g = random_gate(targets.len(), &mut rng);
                u = g.full_matrix(targets.len()).matmul(&u);
            }
            let g = Gate::Unitary(targets.clone(), u);
            sim.apply_gate(&g).unwrap();
            g.apply(&mut dense);
            for &(i, a) in &sim.entries {
                assert!(a == dense.amplitudes()[i], "targets {targets:?} amp {i}");
            }
        }
    }

    #[test]
    fn from_statevector_round_trips() {
        let mut dense = StateVector::zero_state(3);
        Gate::H(1).apply(&mut dense);
        Gate::CX(1, 2).apply(&mut dense);
        let sim = SparseSim::from_statevector(&dense);
        assert_eq!(sim.nonzeros(), 2);
        assert_eq!(sim.to_statevector().amplitudes(), dense.amplitudes());
    }
}
