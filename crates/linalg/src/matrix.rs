//! Dense complex matrices.
//!
//! [`CMatrix`] is the workhorse container of the reproduction: density
//! matrices, unitaries, and measurement operators are all `CMatrix` values.
//! Storage is row-major.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

use serde::json::{FromValueError, Value};
use serde::{Deserialize, Serialize};

use crate::complex::C64;

/// A dense, row-major complex matrix.
///
/// # Examples
///
/// ```
/// use morph_linalg::{CMatrix, C64};
///
/// let x = CMatrix::from_rows(&[
///     &[C64::ZERO, C64::ONE],
///     &[C64::ONE, C64::ZERO],
/// ]);
/// assert!(x.is_unitary(1e-12));
/// assert_eq!((&x * &x).trace(), C64::new(2.0, 0.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<C64>,
}

impl Serialize for CMatrix {
    /// Encodes as `{"rows": r, "cols": c, "data": [re, im, re, im, …]}`
    /// with each component a bit-exact `f64` — the morph-store artifact
    /// format for density matrices and unitaries.
    fn to_value(&self) -> Value {
        let mut flat = Vec::with_capacity(2 * self.data.len());
        for z in &self.data {
            flat.push(z.re.to_value());
            flat.push(z.im.to_value());
        }
        let mut map = std::collections::BTreeMap::new();
        map.insert("rows".to_string(), self.rows.to_value());
        map.insert("cols".to_string(), self.cols.to_value());
        map.insert("data".to_string(), Value::Array(flat));
        Value::Object(map)
    }
}

impl<'de> Deserialize<'de> for CMatrix {
    fn from_value(value: &Value) -> Result<Self, FromValueError> {
        let rows = usize::from_value(value.require("rows")?)?;
        let cols = usize::from_value(value.require("cols")?)?;
        let flat = value
            .require("data")?
            .as_array()
            .ok_or_else(|| FromValueError::expected("component array", value))?;
        let entries = rows
            .checked_mul(cols)
            .filter(|&n| n <= (1 << 30) && flat.len() == 2 * n)
            .ok_or_else(|| {
                FromValueError::new(format!(
                    "matrix shape {rows}x{cols} inconsistent with {} components",
                    flat.len()
                ))
            })?;
        let mut data = Vec::with_capacity(entries);
        for pair in flat.chunks_exact(2) {
            data.push(C64 {
                re: f64::from_value(&pair[0])?,
                im: f64::from_value(&pair[1])?,
            });
        }
        Ok(CMatrix { rows, cols, data })
    }
}

impl CMatrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMatrix {
            rows,
            cols,
            data: vec![C64::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = C64::ONE;
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> C64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        CMatrix { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[C64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "inconsistent row length");
            data.extend_from_slice(row);
        }
        CMatrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<C64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        CMatrix { rows, cols, data }
    }

    /// Creates a square diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[C64]) -> Self {
        let n = diag.len();
        let mut m = CMatrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Rank-one outer product `v · w†` (column `v` times conjugated row `w`).
    pub fn outer(v: &[C64], w: &[C64]) -> Self {
        CMatrix::from_fn(v.len(), w.len(), |r, c| v[r] * w[c].conj())
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Appends the canonical byte encoding (dimensions, then per-entry
    /// `f64` bit patterns, all little-endian) used by morph-store
    /// content-addressed fingerprinting.
    pub fn canonical_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.rows as u64).to_le_bytes());
        out.extend_from_slice(&(self.cols as u64).to_le_bytes());
        for z in &self.data {
            out.extend_from_slice(&z.re.to_bits().to_le_bytes());
            out.extend_from_slice(&z.im.to_bits().to_le_bytes());
        }
    }

    /// Raw row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// Mutable raw row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [C64] {
        &mut self.data
    }

    /// Conjugate transpose `A†`.
    pub fn dagger(&self) -> CMatrix {
        CMatrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)].conj())
    }

    /// Entry-wise complex conjugate.
    pub fn conj(&self) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.conj()).collect(),
        }
    }

    /// Trace (sum of diagonal entries).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> C64 {
        assert!(self.is_square(), "trace of a non-square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Frobenius (L2) norm: `sqrt(Σ |a_ij|²)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Largest entry modulus (max norm).
    pub fn max_norm(&self) -> f64 {
        self.data.iter().map(|z| z.abs()).fold(0.0, f64::max)
    }

    /// Scales every entry by a complex factor.
    pub fn scale(&self, s: C64) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&z| z * s).collect(),
        }
    }

    /// Scales every entry by a real factor.
    pub fn scale_re(&self, s: f64) -> CMatrix {
        self.scale(C64::real(s))
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.cols, rhs.rows, "matmul dimension mismatch");
        let mut out = CMatrix::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == C64::ZERO {
                    continue;
                }
                let row_off = k * rhs.cols;
                let out_off = r * rhs.cols;
                for c in 0..rhs.cols {
                    out.data[out_off + c] += a * rhs.data[row_off + c];
                }
            }
        }
        out
    }

    /// Matrix-vector product `self · v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[C64]) -> Vec<C64> {
        assert_eq!(v.len(), self.cols, "matvec dimension mismatch");
        let mut out = vec![C64::ZERO; self.rows];
        for (r, slot) in out.iter_mut().enumerate() {
            let off = r * self.cols;
            let mut acc = C64::ZERO;
            for (&m, &x) in self.data[off..off + self.cols].iter().zip(v) {
                acc += m * x;
            }
            *slot = acc;
        }
        out
    }

    /// Kronecker (tensor) product `self ⊗ rhs`.
    pub fn kron(&self, rhs: &CMatrix) -> CMatrix {
        let rows = self.rows * rhs.rows;
        let cols = self.cols * rhs.cols;
        CMatrix::from_fn(rows, cols, |r, c| {
            self[(r / rhs.rows, c / rhs.cols)] * rhs[(r % rhs.rows, c % rhs.cols)]
        })
    }

    /// Hilbert–Schmidt inner product `tr(A† B)`.
    ///
    /// For Hermitian `A` and `B` the result is real up to rounding.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn hs_inner(&self, rhs: &CMatrix) -> C64 {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "hs_inner shape mismatch"
        );
        self.data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// `tr(A† B).re` — convenience for Hermitian operands.
    pub fn hs_inner_re(&self, rhs: &CMatrix) -> f64 {
        self.hs_inner(rhs).re
    }

    /// `true` if `‖A − A†‖_max ≤ tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for r in 0..self.rows {
            for c in r..self.cols {
                if (self[(r, c)] - self[(c, r)].conj()).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// `true` if `‖A†A − I‖_max ≤ tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        let p = self.dagger().matmul(self);
        let id = CMatrix::identity(self.rows);
        (&p - &id).max_norm() <= tol
    }

    /// Approximate entry-wise equality with absolute tolerance `tol`.
    pub fn approx_eq(&self, rhs: &CMatrix, tol: f64) -> bool {
        self.rows == rhs.rows && self.cols == rhs.cols && (self - rhs).max_norm() <= tol
    }

    /// Returns the `(r, c)` entry, or `None` if out of range.
    pub fn get(&self, r: usize, c: usize) -> Option<C64> {
        if r < self.rows && c < self.cols {
            Some(self.data[r * self.cols + c])
        } else {
            None
        }
    }

    /// Embeds `self` (acting on `k` qubits at positions `targets`) into an
    /// `n`-qubit operator via identity padding, with qubit 0 as the most
    /// significant bit of the index.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not `2^k × 2^k`, a target repeats, or a target is
    /// `≥ n`.
    pub fn embed(&self, targets: &[usize], n: usize) -> CMatrix {
        let k = targets.len();
        let dk = 1usize << k;
        assert_eq!(
            self.rows, dk,
            "operator dimension does not match target count"
        );
        assert!(self.is_square(), "embed requires a square operator");
        let mut seen = vec![false; n];
        for &t in targets {
            assert!(t < n, "target {t} out of range for {n} qubits");
            assert!(!seen[t], "duplicate target {t}");
            seen[t] = true;
        }
        let dn = 1usize << n;
        let mut out = CMatrix::zeros(dn, dn);
        // For every basis pair (row, col) of the big space, the entry is the
        // small-operator entry on the target bits when the non-target bits
        // agree, and zero otherwise.
        let rest: Vec<usize> = (0..n).filter(|q| !targets.contains(q)).collect();
        let dr = 1usize << rest.len();
        for tr in 0..dk {
            for tc in 0..dk {
                let v = self[(tr, tc)];
                if v == C64::ZERO {
                    continue;
                }
                for r_bits in 0..dr {
                    let mut row = 0usize;
                    let mut col = 0usize;
                    for (bit_idx, &q) in targets.iter().enumerate() {
                        // qubit 0 is the most significant bit
                        let shift = n - 1 - q;
                        let tb_r = (tr >> (k - 1 - bit_idx)) & 1;
                        let tb_c = (tc >> (k - 1 - bit_idx)) & 1;
                        row |= tb_r << shift;
                        col |= tb_c << shift;
                    }
                    for (bit_idx, &q) in rest.iter().enumerate() {
                        let shift = n - 1 - q;
                        let b = (r_bits >> (rest.len() - 1 - bit_idx)) & 1;
                        row |= b << shift;
                        col |= b << shift;
                    }
                    out[(row, col)] = v;
                }
            }
        }
        out
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = C64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &C64 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut C64 {
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &CMatrix {
    type Output = CMatrix;
    fn add(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "add shape mismatch"
        );
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }
}

impl Sub for &CMatrix {
    type Output = CMatrix;
    fn sub(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "sub shape mismatch"
        );
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a - *b)
                .collect(),
        }
    }
}

impl Mul for &CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: &CMatrix) -> CMatrix {
        self.matmul(rhs)
    }
}

impl Neg for &CMatrix {
    type Output = CMatrix;
    fn neg(self) -> CMatrix {
        self.scale_re(-1.0)
    }
}

impl AddAssign<&CMatrix> for CMatrix {
    fn add_assign(&mut self, rhs: &CMatrix) {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "add shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += *b;
        }
    }
}

impl SubAssign<&CMatrix> for CMatrix {
    fn sub_assign(&mut self, rhs: &CMatrix) {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "sub shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= *b;
        }
    }
}

impl fmt::Display for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                write!(f, "{} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pauli_x() -> CMatrix {
        CMatrix::from_rows(&[&[C64::ZERO, C64::ONE], &[C64::ONE, C64::ZERO]])
    }

    fn pauli_y() -> CMatrix {
        CMatrix::from_rows(&[&[C64::ZERO, -C64::I], &[C64::I, C64::ZERO]])
    }

    fn pauli_z() -> CMatrix {
        CMatrix::from_rows(&[&[C64::ONE, C64::ZERO], &[C64::ZERO, -C64::ONE]])
    }

    #[test]
    fn identity_is_neutral() {
        let x = pauli_x();
        let id = CMatrix::identity(2);
        assert!(x.matmul(&id).approx_eq(&x, 0.0));
        assert!(id.matmul(&x).approx_eq(&x, 0.0));
    }

    #[test]
    fn pauli_algebra() {
        let (x, y, z) = (pauli_x(), pauli_y(), pauli_z());
        // XY = iZ
        assert!(x.matmul(&y).approx_eq(&z.scale(C64::I), 1e-15));
        // X² = I
        assert!(x.matmul(&x).approx_eq(&CMatrix::identity(2), 1e-15));
        // traceless
        assert!(x.trace().abs() < 1e-15);
        assert!(y.trace().abs() < 1e-15);
        assert!(z.trace().abs() < 1e-15);
    }

    #[test]
    fn dagger_involution() {
        let m = CMatrix::from_fn(3, 2, |r, c| C64::new(r as f64, c as f64 + 0.5));
        assert!(m.dagger().dagger().approx_eq(&m, 0.0));
        assert_eq!(m.dagger().rows(), 2);
    }

    #[test]
    fn kron_dimensions_and_values() {
        let x = pauli_x();
        let z = pauli_z();
        let xz = x.kron(&z);
        assert_eq!(xz.rows(), 4);
        assert_eq!(xz[(0, 2)], C64::ONE);
        assert_eq!(xz[(1, 3)], -C64::ONE);
        // (X⊗Z)(X⊗Z) = I4
        assert!(xz.matmul(&xz).approx_eq(&CMatrix::identity(4), 1e-15));
    }

    #[test]
    fn hs_inner_orthogonality_of_paulis() {
        let paulis = [CMatrix::identity(2), pauli_x(), pauli_y(), pauli_z()];
        for (i, a) in paulis.iter().enumerate() {
            for (j, b) in paulis.iter().enumerate() {
                let v = a.hs_inner(b);
                if i == j {
                    assert!((v - C64::real(2.0)).abs() < 1e-14);
                } else {
                    assert!(v.abs() < 1e-14);
                }
            }
        }
    }

    #[test]
    fn hermiticity_and_unitarity_checks() {
        assert!(pauli_y().is_hermitian(1e-15));
        assert!(pauli_y().is_unitary(1e-15));
        let m = CMatrix::from_fn(2, 2, |r, c| C64::new((r + c) as f64, 1.0));
        assert!(!m.is_hermitian(1e-12));
    }

    #[test]
    fn embed_single_qubit_matches_kron() {
        let x = pauli_x();
        let id = CMatrix::identity(2);
        // Embed X on qubit 0 of 2 qubits (qubit 0 = MSB): X ⊗ I
        assert!(x.embed(&[0], 2).approx_eq(&x.kron(&id), 1e-15));
        // Qubit 1: I ⊗ X
        assert!(x.embed(&[1], 2).approx_eq(&id.kron(&x), 1e-15));
    }

    #[test]
    fn embed_two_qubit_reversed_targets_swaps_roles() {
        // CNOT with control=q0, target=q1 in the standard MSB convention.
        let cnot = CMatrix::from_rows(&[
            &[C64::ONE, C64::ZERO, C64::ZERO, C64::ZERO],
            &[C64::ZERO, C64::ONE, C64::ZERO, C64::ZERO],
            &[C64::ZERO, C64::ZERO, C64::ZERO, C64::ONE],
            &[C64::ZERO, C64::ZERO, C64::ONE, C64::ZERO],
        ]);
        let direct = cnot.embed(&[0, 1], 2);
        assert!(direct.approx_eq(&cnot, 1e-15));
        // Reversing targets exchanges control/target.
        let flipped = cnot.embed(&[1, 0], 2);
        // |01> -> |11>, i.e. column 1 -> row 3.
        assert_eq!(flipped[(3, 1)], C64::ONE);
        assert_eq!(flipped[(1, 1)], C64::ZERO);
    }

    #[test]
    fn outer_product_projector() {
        let plus = [C64::real(1.0 / 2f64.sqrt()), C64::real(1.0 / 2f64.sqrt())];
        let p = CMatrix::outer(&plus, &plus);
        assert!((p.trace() - C64::ONE).abs() < 1e-14);
        assert!(p.matmul(&p).approx_eq(&p, 1e-14));
    }

    #[test]
    fn matvec_matches_matmul() {
        let m = CMatrix::from_fn(3, 3, |r, c| C64::new((r * 3 + c) as f64, 0.0));
        let v = [C64::ONE, C64::I, C64::real(2.0)];
        let as_mat = CMatrix::from_vec(3, 1, v.to_vec());
        let lhs = m.matvec(&v);
        let rhs = m.matmul(&as_mat);
        for i in 0..3 {
            assert!(lhs[i].approx_eq(rhs[(i, 0)], 1e-14));
        }
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = CMatrix::zeros(2, 3);
        let b = CMatrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn from_diag_and_trace() {
        let d = CMatrix::from_diag(&[C64::ONE, C64::real(2.0), C64::I]);
        assert_eq!(d.trace(), C64::new(3.0, 1.0));
        assert_eq!(d[(1, 1)], C64::real(2.0));
        assert_eq!(d[(0, 1)], C64::ZERO);
    }
}
