//! Quantum program intermediate representation.
//!
//! A [`Circuit`] is a linear sequence of [`Instruction`]s over an `n`-qubit
//! register and a classical bit register. Tracepoints (the paper's
//! `T <id> q[..]` pragma) are first-class instructions: they mark *where* in
//! program time the verifier should capture the reduced density matrix of a
//! qubit subset.

use morph_qsim::Gate;
use serde::json::{FromValueError, Value};
use serde::{Deserialize, Serialize};

/// Identifier of a tracepoint within a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TracepointId(pub u32);

impl std::fmt::Display for TracepointId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// The first qubit `qubits` names twice, if any. A tracepoint over such a
/// list has no reduced state, so the parser and the characterization
/// preconditions both reject it.
pub fn repeated_qubit(qubits: &[usize]) -> Option<usize> {
    qubits
        .iter()
        .enumerate()
        .find_map(|(i, q)| qubits[..i].contains(q).then_some(*q))
}

/// One step of a quantum program.
#[derive(Debug, Clone, PartialEq)]
pub enum Instruction {
    /// Apply a unitary gate.
    Gate(Gate),
    /// Capture the reduced state of `qubits` under the given id.
    Tracepoint {
        /// Identifier referenced by assertions.
        id: TracepointId,
        /// Qubits whose joint reduced density matrix is recorded.
        qubits: Vec<usize>,
    },
    /// Projectively measure `qubit` into classical bit `cbit`.
    Measure {
        /// Measured qubit.
        qubit: usize,
        /// Classical bit receiving the outcome.
        cbit: usize,
    },
    /// Reset `qubit` to `|0⟩` (measure and conditionally flip).
    Reset(usize),
    /// Apply `gate` only when classical bit `cbit` equals `value`
    /// (classical feedback).
    Conditional {
        /// Classical bit examined.
        cbit: usize,
        /// Required value.
        value: u8,
        /// Gate applied when the condition holds.
        gate: Gate,
    },
    /// Scheduling barrier; a no-op for simulation.
    Barrier,
}

impl Instruction {
    /// Qubits touched by the instruction.
    pub fn qubits(&self) -> Vec<usize> {
        let mut qubits = Vec::new();
        self.for_each_qubit(|q| qubits.push(q));
        qubits
    }

    /// Calls `f` on each qubit the instruction touches, in
    /// [`Self::qubits`] order, without allocating.
    pub(crate) fn for_each_qubit(&self, mut f: impl FnMut(usize)) {
        match self {
            Instruction::Gate(g) | Instruction::Conditional { gate: g, .. } => g.for_each_qubit(f),
            Instruction::Tracepoint { qubits, .. } => qubits.iter().copied().for_each(f),
            Instruction::Measure { qubit, .. } | Instruction::Reset(qubit) => f(*qubit),
            Instruction::Barrier => {}
        }
    }
}

/// A quantum program: a register plus an ordered instruction list.
///
/// # Examples
///
/// ```
/// use morph_qprog::Circuit;
///
/// // GHZ with a tracepoint before and after.
/// let mut c = Circuit::new(3);
/// c.tracepoint(1, &[0, 1, 2]);
/// c.h(0).cx(0, 1).cx(1, 2);
/// c.tracepoint(2, &[0, 1, 2]);
/// assert_eq!(c.gate_count(), 3);
/// assert_eq!(c.tracepoints().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    n_qubits: usize,
    n_cbits: usize,
    instructions: Vec<Instruction>,
}

impl Circuit {
    /// Empty circuit on `n_qubits` qubits and no classical bits.
    pub fn new(n_qubits: usize) -> Self {
        Circuit {
            n_qubits,
            n_cbits: 0,
            instructions: Vec::new(),
        }
    }

    /// Empty circuit with an explicit classical register size.
    pub fn with_cbits(n_qubits: usize, n_cbits: usize) -> Self {
        Circuit {
            n_qubits,
            n_cbits,
            instructions: Vec::new(),
        }
    }

    /// Number of qubits in the register.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of classical bits.
    #[inline]
    pub fn n_cbits(&self) -> usize {
        self.n_cbits
    }

    /// The instruction sequence.
    #[inline]
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Appends an instruction after validating qubit/cbit indices.
    ///
    /// # Panics
    ///
    /// Panics if any referenced qubit or classical bit is out of range.
    pub fn push(&mut self, instruction: Instruction) -> &mut Self {
        let n_qubits = self.n_qubits;
        instruction.for_each_qubit(|q| {
            assert!(q < n_qubits, "qubit {q} out of range ({n_qubits} qubits)")
        });
        match &instruction {
            Instruction::Measure { cbit, .. } | Instruction::Conditional { cbit, .. }
                if *cbit >= self.n_cbits =>
            {
                self.n_cbits = cbit + 1;
            }
            _ => {}
        }
        self.instructions.push(instruction);
        self
    }

    /// Sets the classical register to `n_cbits` bits, widened to cover
    /// every classical bit an instruction already uses — the register that
    /// re-pushing the instructions onto `Circuit::with_cbits(.., n_cbits)`
    /// would give.
    pub(crate) fn declare_cbits(&mut self, n_cbits: usize) {
        self.n_cbits = self
            .instructions
            .iter()
            .filter_map(|inst| match inst {
                Instruction::Measure { cbit, .. } | Instruction::Conditional { cbit, .. } => {
                    Some(cbit + 1)
                }
                _ => None,
            })
            .fold(n_cbits, usize::max);
    }

    /// Appends a gate.
    pub fn gate(&mut self, g: Gate) -> &mut Self {
        self.push(Instruction::Gate(g))
    }

    /// Hadamard.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.gate(Gate::H(q))
    }

    /// Pauli-X.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.gate(Gate::X(q))
    }

    /// Pauli-Y.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.gate(Gate::Y(q))
    }

    /// Pauli-Z.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.gate(Gate::Z(q))
    }

    /// Phase gate S.
    pub fn s(&mut self, q: usize) -> &mut Self {
        self.gate(Gate::S(q))
    }

    /// T gate.
    pub fn t(&mut self, q: usize) -> &mut Self {
        self.gate(Gate::T(q))
    }

    /// X-rotation.
    pub fn rx(&mut self, q: usize, theta: f64) -> &mut Self {
        self.gate(Gate::RX(q, theta))
    }

    /// Y-rotation.
    pub fn ry(&mut self, q: usize, theta: f64) -> &mut Self {
        self.gate(Gate::RY(q, theta))
    }

    /// Z-rotation.
    pub fn rz(&mut self, q: usize, theta: f64) -> &mut Self {
        self.gate(Gate::RZ(q, theta))
    }

    /// Phase gate `diag(1, e^{iθ})`.
    pub fn phase(&mut self, q: usize, theta: f64) -> &mut Self {
        self.gate(Gate::Phase(q, theta))
    }

    /// CNOT.
    pub fn cx(&mut self, control: usize, target: usize) -> &mut Self {
        self.gate(Gate::CX(control, target))
    }

    /// Controlled-Z.
    pub fn cz(&mut self, a: usize, b: usize) -> &mut Self {
        self.gate(Gate::CZ(a, b))
    }

    /// SWAP.
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.gate(Gate::Swap(a, b))
    }

    /// Toffoli.
    pub fn ccx(&mut self, c1: usize, c2: usize, t: usize) -> &mut Self {
        self.gate(Gate::CCX(c1, c2, t))
    }

    /// Multi-controlled Z.
    pub fn mcz(&mut self, qubits: &[usize]) -> &mut Self {
        self.gate(Gate::MCZ(qubits.to_vec()))
    }

    /// Multi-controlled RX.
    pub fn mcrx(&mut self, controls: &[usize], target: usize, theta: f64) -> &mut Self {
        self.gate(Gate::MCRX(controls.to_vec(), target, theta))
    }

    /// Tracepoint pragma `T <id> q[..]`.
    pub fn tracepoint(&mut self, id: u32, qubits: &[usize]) -> &mut Self {
        self.push(Instruction::Tracepoint {
            id: TracepointId(id),
            qubits: qubits.to_vec(),
        })
    }

    /// Measurement into a classical bit.
    pub fn measure(&mut self, qubit: usize, cbit: usize) -> &mut Self {
        self.push(Instruction::Measure { qubit, cbit })
    }

    /// Classically conditioned gate.
    pub fn conditional(&mut self, cbit: usize, value: u8, gate: Gate) -> &mut Self {
        self.push(Instruction::Conditional { cbit, value, gate })
    }

    /// Appends every instruction of `other` (registers must be compatible).
    ///
    /// # Panics
    ///
    /// Panics if `other` uses more qubits than `self`.
    pub fn extend_from(&mut self, other: &Circuit) -> &mut Self {
        assert!(
            other.n_qubits <= self.n_qubits,
            "circuit extension exceeds register"
        );
        for inst in &other.instructions {
            self.push(inst.clone());
        }
        self
    }

    /// Number of gate instructions (excluding tracepoints, barriers,
    /// measurements).
    pub fn gate_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| matches!(i, Instruction::Gate(_) | Instruction::Conditional { .. }))
            .count()
    }

    /// Total two-qubit-equivalent operation cost (used by overhead
    /// accounting).
    pub fn op_cost(&self) -> usize {
        self.instructions
            .iter()
            .map(|i| match i {
                Instruction::Gate(g) | Instruction::Conditional { gate: g, .. } => g.op_cost(),
                Instruction::Measure { .. } | Instruction::Reset(_) => 1,
                _ => 0,
            })
            .sum()
    }

    /// Circuit depth: the length of the longest chain of instructions that
    /// touch overlapping qubits (barriers synchronize all qubits;
    /// tracepoints are transparent).
    pub fn depth(&self) -> usize {
        let mut ready = vec![0usize; self.n_qubits];
        let mut max_depth = 0usize;
        for inst in &self.instructions {
            match inst {
                Instruction::Tracepoint { .. } => {}
                Instruction::Barrier => {
                    let level = ready.iter().copied().max().unwrap_or(0);
                    ready.fill(level);
                }
                other => {
                    let qubits = other.qubits();
                    let level = qubits.iter().map(|&q| ready[q]).max().unwrap_or(0) + 1;
                    for &q in &qubits {
                        ready[q] = level;
                    }
                    max_depth = max_depth.max(level);
                }
            }
        }
        max_depth
    }

    /// Number of mid-circuit measurements.
    pub fn measurement_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| matches!(i, Instruction::Measure { .. } | Instruction::Reset(_)))
            .count()
    }

    /// All tracepoints in program order as `(id, qubits)` pairs.
    pub fn tracepoints(&self) -> Vec<(TracepointId, Vec<usize>)> {
        self.instructions
            .iter()
            .filter_map(|i| match i {
                Instruction::Tracepoint { id, qubits } => Some((*id, qubits.clone())),
                _ => None,
            })
            .collect()
    }

    /// Position (instruction index) of the given tracepoint, if present.
    pub fn tracepoint_position(&self, id: TracepointId) -> Option<usize> {
        self.instructions
            .iter()
            .position(|i| matches!(i, Instruction::Tracepoint { id: tid, .. } if *tid == id))
    }

    /// The inverse circuit. Only valid for measurement-free programs.
    ///
    /// # Panics
    ///
    /// Panics if the circuit contains measurements, resets, or conditionals.
    pub fn inverse(&self) -> Circuit {
        let mut inv = Circuit::new(self.n_qubits);
        for inst in self.instructions.iter().rev() {
            match inst {
                Instruction::Gate(g) => {
                    inv.gate(g.inverse());
                }
                Instruction::Tracepoint { .. } | Instruction::Barrier => {}
                other => panic!("cannot invert non-unitary instruction {other:?}"),
            }
        }
        inv
    }

    /// Embeds this circuit into a larger register: qubit `i` of `self`
    /// becomes `mapping[i]` in a fresh `n_qubits`-wide circuit.
    ///
    /// # Panics
    ///
    /// Panics if the mapping is shorter than the circuit's register, maps
    /// outside `n_qubits`, or contains duplicates.
    pub fn remap_qubits(&self, mapping: &[usize], n_qubits: usize) -> Circuit {
        assert!(
            mapping.len() >= self.n_qubits,
            "mapping shorter than register"
        );
        {
            let mut seen = vec![false; n_qubits];
            for &m in mapping {
                assert!(m < n_qubits, "mapping target {m} out of range");
                assert!(!seen[m], "duplicate mapping target {m}");
                seen[m] = true;
            }
        }
        let mut out = Circuit::with_cbits(n_qubits, self.n_cbits);
        for inst in &self.instructions {
            let mapped = match inst {
                Instruction::Gate(g) => Instruction::Gate(g.remapped(|q| mapping[q])),
                Instruction::Tracepoint { id, qubits } => Instruction::Tracepoint {
                    id: *id,
                    qubits: qubits.iter().map(|&q| mapping[q]).collect(),
                },
                Instruction::Measure { qubit, cbit } => Instruction::Measure {
                    qubit: mapping[*qubit],
                    cbit: *cbit,
                },
                Instruction::Reset(q) => Instruction::Reset(mapping[*q]),
                Instruction::Conditional { cbit, value, gate } => Instruction::Conditional {
                    cbit: *cbit,
                    value: *value,
                    gate: gate.remapped(|q| mapping[q]),
                },
                Instruction::Barrier => Instruction::Barrier,
            };
            out.push(mapped);
        }
        out
    }

    /// Inserts an instruction at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index > len` or the instruction references invalid qubits.
    pub fn insert(&mut self, index: usize, instruction: Instruction) {
        for q in instruction.qubits() {
            assert!(q < self.n_qubits, "qubit {q} out of range");
        }
        self.instructions.insert(index, instruction);
    }

    /// Removes and returns the instruction at `index`.
    pub fn remove(&mut self, index: usize) -> Instruction {
        self.instructions.remove(index)
    }

    /// `true` if the program contains mid-circuit measurement or feedback.
    pub fn has_nonunitary(&self) -> bool {
        self.instructions.iter().any(|i| {
            matches!(
                i,
                Instruction::Measure { .. }
                    | Instruction::Reset(_)
                    | Instruction::Conditional { .. }
            )
        })
    }

    /// Appends the circuit's canonical byte encoding used by morph-store
    /// fingerprinting: register sizes, instruction count, then each
    /// instruction as a one-byte opcode plus operands (gates via
    /// [`Gate::canonical_bytes`]). Tracepoints are instructions, so two
    /// programs that differ only in tracepoint placement fingerprint
    /// differently — their characterization artifacts are not interchangeable.
    pub fn canonical_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.n_qubits as u64).to_le_bytes());
        out.extend_from_slice(&(self.n_cbits as u64).to_le_bytes());
        out.extend_from_slice(&(self.instructions.len() as u64).to_le_bytes());
        for inst in &self.instructions {
            match inst {
                Instruction::Gate(g) => {
                    out.push(0);
                    g.canonical_bytes(out);
                }
                Instruction::Tracepoint { id, qubits } => {
                    out.push(1);
                    out.extend_from_slice(&u64::from(id.0).to_le_bytes());
                    out.extend_from_slice(&(qubits.len() as u64).to_le_bytes());
                    for &q in qubits {
                        out.extend_from_slice(&(q as u64).to_le_bytes());
                    }
                }
                Instruction::Measure { qubit, cbit } => {
                    out.push(2);
                    out.extend_from_slice(&(*qubit as u64).to_le_bytes());
                    out.extend_from_slice(&(*cbit as u64).to_le_bytes());
                }
                Instruction::Reset(q) => {
                    out.push(3);
                    out.extend_from_slice(&(*q as u64).to_le_bytes());
                }
                Instruction::Conditional { cbit, value, gate } => {
                    out.push(4);
                    out.extend_from_slice(&(*cbit as u64).to_le_bytes());
                    out.push(*value);
                    gate.canonical_bytes(out);
                }
                Instruction::Barrier => out.push(5),
            }
        }
    }
}

impl Serialize for TracepointId {
    fn to_value(&self) -> Value {
        Value::UInt(u64::from(self.0))
    }
}

impl<'de> Deserialize<'de> for TracepointId {
    fn from_value(value: &Value) -> Result<Self, FromValueError> {
        match value.as_u64() {
            Some(id) if id <= u64::from(u32::MAX) => Ok(TracepointId(id as u32)),
            _ => Err(FromValueError::expected("tracepoint id (u32)", value)),
        }
    }
}

impl Serialize for Instruction {
    /// Encodes as a tagged array, e.g. `["Measure", qubit, cbit]`.
    fn to_value(&self) -> Value {
        let v = match self {
            Instruction::Gate(g) => vec![Value::Str("Gate".into()), g.to_value()],
            Instruction::Tracepoint { id, qubits } => vec![
                Value::Str("Tracepoint".into()),
                id.to_value(),
                qubits.to_value(),
            ],
            Instruction::Measure { qubit, cbit } => vec![
                Value::Str("Measure".into()),
                Value::UInt(*qubit as u64),
                Value::UInt(*cbit as u64),
            ],
            Instruction::Reset(q) => vec![Value::Str("Reset".into()), Value::UInt(*q as u64)],
            Instruction::Conditional { cbit, value, gate } => vec![
                Value::Str("Conditional".into()),
                Value::UInt(*cbit as u64),
                Value::UInt(u64::from(*value)),
                gate.to_value(),
            ],
            Instruction::Barrier => vec![Value::Str("Barrier".into())],
        };
        Value::Array(v)
    }
}

impl<'de> Deserialize<'de> for Instruction {
    fn from_value(value: &Value) -> Result<Self, FromValueError> {
        let parts = value
            .as_array()
            .ok_or_else(|| FromValueError::expected("instruction array", value))?;
        let (tag, rest) = match parts.split_first() {
            Some((Value::Str(tag), rest)) => (tag.as_str(), rest),
            _ => return Err(FromValueError::expected("tagged instruction array", value)),
        };
        let index = |v: &Value, what: &str| {
            v.as_u64()
                .map(|q| q as usize)
                .ok_or_else(|| FromValueError::new(format!("expected {what} index")))
        };
        match (tag, rest) {
            ("Gate", [g]) => Ok(Instruction::Gate(Gate::from_value(g)?)),
            ("Tracepoint", [id, qubits]) => Ok(Instruction::Tracepoint {
                id: TracepointId::from_value(id)?,
                qubits: Vec::from_value(qubits)?,
            }),
            ("Measure", [qubit, cbit]) => Ok(Instruction::Measure {
                qubit: index(qubit, "qubit")?,
                cbit: index(cbit, "cbit")?,
            }),
            ("Reset", [q]) => Ok(Instruction::Reset(index(q, "qubit")?)),
            ("Conditional", [cbit, val, gate]) => {
                let value = val
                    .as_u64()
                    .filter(|&v| v <= u64::from(u8::MAX))
                    .ok_or_else(|| FromValueError::expected("condition value (u8)", val))?;
                Ok(Instruction::Conditional {
                    cbit: index(cbit, "cbit")?,
                    value: value as u8,
                    gate: Gate::from_value(gate)?,
                })
            }
            ("Barrier", []) => Ok(Instruction::Barrier),
            _ => Err(FromValueError::new(format!(
                "unknown or malformed instruction tag {tag:?}"
            ))),
        }
    }
}

impl Serialize for Circuit {
    fn to_value(&self) -> Value {
        let mut m = std::collections::BTreeMap::new();
        m.insert("n_qubits".to_string(), Value::UInt(self.n_qubits as u64));
        m.insert("n_cbits".to_string(), Value::UInt(self.n_cbits as u64));
        m.insert("instructions".to_string(), self.instructions.to_value());
        Value::Object(m)
    }
}

impl<'de> Deserialize<'de> for Circuit {
    /// Rebuilds the circuit, re-validating every instruction against the
    /// declared register sizes (a malformed artifact yields an error, never
    /// a panic from the builder's asserts).
    fn from_value(value: &Value) -> Result<Self, FromValueError> {
        let n_qubits = value
            .require("n_qubits")?
            .as_u64()
            .ok_or_else(|| FromValueError::new("n_qubits must be an unsigned integer"))?
            as usize;
        let n_cbits = value
            .require("n_cbits")?
            .as_u64()
            .ok_or_else(|| FromValueError::new("n_cbits must be an unsigned integer"))?
            as usize;
        let instructions: Vec<Instruction> = Vec::from_value(value.require("instructions")?)?;
        for inst in &instructions {
            for q in inst.qubits() {
                if q >= n_qubits {
                    return Err(FromValueError::new(format!(
                        "instruction references qubit {q} outside {n_qubits}-qubit register"
                    )));
                }
            }
            match inst {
                Instruction::Measure { cbit, .. } | Instruction::Conditional { cbit, .. }
                    if *cbit >= n_cbits =>
                {
                    return Err(FromValueError::new(format!(
                        "instruction references cbit {cbit} outside {n_cbits}-cbit register"
                    )));
                }
                _ => {}
            }
        }
        Ok(Circuit {
            n_qubits,
            n_cbits,
            instructions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).tracepoint(1, &[1]);
        assert_eq!(c.instructions().len(), 3);
        assert_eq!(c.gate_count(), 2);
        assert_eq!(c.tracepoints(), vec![(TracepointId(1), vec![1])]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_qubit_rejected() {
        let mut c = Circuit::new(2);
        c.h(2);
    }

    #[test]
    fn cbits_grow_on_demand() {
        let mut c = Circuit::new(2);
        assert_eq!(c.n_cbits(), 0);
        c.measure(0, 3);
        assert_eq!(c.n_cbits(), 4);
    }

    #[test]
    fn inverse_reverses_and_inverts() {
        let mut c = Circuit::new(2);
        c.h(0).s(1).cx(0, 1);
        let inv = c.inverse();
        assert_eq!(inv.gate_count(), 3);
        // First inverse instruction is the inverse of the last original.
        match &inv.instructions()[0] {
            Instruction::Gate(Gate::CX(0, 1)) => {}
            other => panic!("unexpected {other:?}"),
        }
        match &inv.instructions()[1] {
            Instruction::Gate(Gate::Sdg(1)) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "cannot invert")]
    fn inverse_rejects_measurement() {
        let mut c = Circuit::new(1);
        c.measure(0, 0);
        let _ = c.inverse();
    }

    #[test]
    fn tracepoint_position_lookup() {
        let mut c = Circuit::new(1);
        c.h(0).tracepoint(7, &[0]).x(0);
        assert_eq!(c.tracepoint_position(TracepointId(7)), Some(1));
        assert_eq!(c.tracepoint_position(TracepointId(8)), None);
    }

    #[test]
    fn op_cost_counts_multicontrolled() {
        let mut c = Circuit::new(4);
        c.h(0).mcz(&[0, 1, 2, 3]);
        assert!(c.op_cost() > 2);
    }

    #[test]
    fn has_nonunitary_detection() {
        let mut pure = Circuit::new(1);
        pure.h(0);
        assert!(!pure.has_nonunitary());
        let mut fb = Circuit::new(2);
        fb.measure(0, 0).conditional(0, 1, Gate::X(1));
        assert!(fb.has_nonunitary());
    }

    #[test]
    fn depth_tracks_qubit_dependencies() {
        let mut c = Circuit::new(3);
        // Parallel H layer: depth 1.
        c.h(0).h(1).h(2);
        assert_eq!(c.depth(), 1);
        // CX chain adds sequential depth.
        c.cx(0, 1).cx(1, 2);
        assert_eq!(c.depth(), 3);
        // Tracepoints are transparent.
        c.tracepoint(1, &[0, 1, 2]);
        assert_eq!(c.depth(), 3);
        // A gate on an idle qubit does not deepen the circuit.
        let mut d = Circuit::new(2);
        d.h(0).h(0).h(0).x(1);
        assert_eq!(d.depth(), 3);
    }

    #[test]
    fn barrier_synchronizes_depth() {
        let mut c = Circuit::new(2);
        c.h(0).h(0); // qubit 0 at depth 2
        c.push(Instruction::Barrier);
        c.x(1); // after the barrier, qubit 1 starts at depth 2
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn extend_from_appends() {
        let mut a = Circuit::new(2);
        a.h(0);
        let mut b = Circuit::new(2);
        b.cx(0, 1);
        a.extend_from(&b);
        assert_eq!(a.gate_count(), 2);
    }

    fn sample_program() -> Circuit {
        let mut c = Circuit::with_cbits(3, 2);
        c.tracepoint(1, &[0, 1]);
        c.h(0).cx(0, 1).rz(2, 0.25);
        c.push(Instruction::Barrier);
        c.measure(0, 0).conditional(0, 1, Gate::X(2));
        c.push(Instruction::Reset(1));
        c.tracepoint(2, &[2]);
        c
    }

    #[test]
    fn circuit_serialization_round_trips() {
        let c = sample_program();
        let json = serde::json::to_string(&c);
        let back: Circuit = serde::json::from_str(&json).expect("deserialize");
        assert_eq!(back, c);
    }

    #[test]
    fn circuit_deserialization_rejects_out_of_range_indices() {
        let mut c = Circuit::new(2);
        c.h(1);
        let json = serde::json::to_string(&c);
        // Shrink the register below the instruction's qubit index.
        let bad = json.replace("\"n_qubits\":2", "\"n_qubits\":1");
        assert_ne!(bad, json);
        assert!(serde::json::from_str::<Circuit>(&bad).is_err());
    }

    #[test]
    fn canonical_bytes_sensitive_to_structure() {
        let base = sample_program();
        let mut a = Vec::new();
        base.canonical_bytes(&mut a);

        // Same gates, tracepoint moved: different encoding.
        let mut moved = Circuit::with_cbits(3, 2);
        moved.h(0).tracepoint(1, &[0, 1]).cx(0, 1).rz(2, 0.25);
        moved.push(Instruction::Barrier);
        moved.measure(0, 0).conditional(0, 1, Gate::X(2));
        moved.push(Instruction::Reset(1));
        moved.tracepoint(2, &[2]);
        let mut b = Vec::new();
        moved.canonical_bytes(&mut b);
        assert_ne!(a, b);

        // Identical program: identical encoding.
        let mut c = Vec::new();
        sample_program().canonical_bytes(&mut c);
        assert_eq!(a, c);

        // Angle change: different encoding.
        let mut tweaked = sample_program();
        tweaked.rz(2, 0.250000001);
        let mut d = Vec::new();
        tweaked.canonical_bytes(&mut d);
        assert_ne!(a, d);
    }
}
