//! Parser for the QASM-like surface syntax with the tracepoint pragma.
//!
//! The grammar covers what the paper's listings use (Sections 4 and 7):
//!
//! ```text
//! qreg q[4];
//! creg c[1];
//! T 1 q[1,2,3];          // tracepoint pragma: "T <id> q[..]"
//! h q[0];
//! x q[1,2,3];            // single-qubit gates broadcast over lists
//! rx(0.5) q[0];
//! cx q[0],q[1];
//! mcz q[0,1,2],q[3];     // controls list, target
//! mcrx(1.2) q[0,1],q[2];
//! measure q[0] -> c[0];
//! if (c[0]==1) x q[1];
//! reset q[0];
//! barrier;
//! ```
//!
//! Qubit indices are 0-based. `//` comments run to end of line. Statements
//! are `;`-terminated. Angles must be finite.
//!
//! The parser works on slices of the source: gate names are matched in
//! place, angles and indices are parsed from their text, and operands go
//! to one buffer reused across statements, so a statement allocates only
//! what the circuit keeps (its instruction, and the qubit list of a
//! tracepoint or multi-controlled gate).

use morph_qsim::Gate;

use crate::circuit::{repeated_qubit, Circuit, Instruction, TracepointId};

/// Error reported when parsing a program fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseProgramError {
    /// 1-based line number of the offending statement.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseProgramError {}

/// Parses a program in the QASM-like syntax into a [`Circuit`].
///
/// # Errors
///
/// Returns [`ParseProgramError`] with the offending line on any syntax or
/// range violation, and on an angle that is not finite (`nan`, `inf`,
/// `1e400`, `pi/0`).
///
/// # Examples
///
/// ```
/// use morph_qprog::parse_program;
///
/// let circuit = parse_program(
///     "qreg q[2];\n\
///      T 1 q[0];\n\
///      h q[0];\n\
///      cx q[0],q[1];\n\
///      T 2 q[1];",
/// )?;
/// assert_eq!(circuit.n_qubits(), 2);
/// assert_eq!(circuit.tracepoints().len(), 2);
/// # Ok::<(), morph_qprog::ParseProgramError>(())
/// ```
pub fn parse_program(source: &str) -> Result<Circuit, ParseProgramError> {
    let mut parser = Parser {
        circuit: None,
        n_qubits: 0,
        operands: Operands::default(),
    };
    // One pass over the bytes: a statement ends at `;`, at a line break or
    // where a `//` comment starts, and a comment runs to the line break.
    let bytes = source.as_bytes();
    let mut line = 1;
    let mut start = 0;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b';' | b'\n' => {
                parser.statement(&source[start..i], line)?;
                if bytes[i] == b'\n' {
                    line += 1;
                }
                start = i + 1;
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                parser.statement(&source[start..i], line)?;
                i = bytes[i..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(bytes.len(), |n| i + n);
                start = i;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    parser.statement(&source[start..], line)?;
    parser
        .circuit
        .ok_or_else(|| err(0, "missing qreg declaration"))
}

fn err(line: usize, message: impl Into<String>) -> ParseProgramError {
    ParseProgramError {
        line,
        message: message.into(),
    }
}

fn before_qreg(line: usize) -> ParseProgramError {
    err(line, "statement before qreg declaration")
}

/// The qubit operands of one statement: comma-separated `q[..]` groups,
/// flattened in order.
#[derive(Default)]
struct Operands {
    qubits: Vec<usize>,
    /// Number of groups read.
    groups: usize,
    /// Length of the first group.
    first_len: usize,
}

impl Operands {
    /// Reads `q[0,1],q[2]`-style groups, splitting at commas outside
    /// brackets. Empty text has no groups.
    fn read(&mut self, s: &str) -> Result<(), String> {
        self.clear();
        let s = trim(s);
        if s.is_empty() {
            return Ok(());
        }
        let mut depth = 0usize;
        let mut start = 0usize;
        for (i, byte) in s.bytes().enumerate() {
            match byte {
                b'[' => depth += 1,
                b']' => depth = depth.saturating_sub(1),
                b',' if depth == 0 => {
                    self.read_group(&s[start..i])?;
                    start = i + 1;
                }
                _ => {}
            }
        }
        self.read_group(&s[start..])
    }

    /// Reads one `q[..]` list as the only group.
    fn read_list(&mut self, s: &str) -> Result<(), String> {
        self.clear();
        self.read_group(s)
    }

    fn read_group(&mut self, s: &str) -> Result<(), String> {
        for_each_index(s, 'q', |q| self.qubits.push(q))?;
        self.end_group();
        Ok(())
    }

    fn clear(&mut self) {
        self.qubits.clear();
        self.groups = 0;
    }

    fn end_group(&mut self) {
        self.groups += 1;
        if self.groups == 1 {
            self.first_len = self.qubits.len();
        }
    }
}

/// What a gate statement applies.
enum GateStmt {
    /// `ctor(q, angle)` on every operand, in order (single-qubit gates
    /// broadcast over their operands).
    Each(fn(usize, f64) -> Gate, f64),
    /// One gate.
    One(Gate),
}

struct Parser {
    circuit: Option<Circuit>,
    n_qubits: usize,
    operands: Operands,
}

impl Parser {
    /// Parses one statement's text; blank text is no statement.
    fn statement(&mut self, text: &str, line: usize) -> Result<(), ParseProgramError> {
        let stmt = trim(text);
        if stmt.is_empty() {
            return Ok(());
        }
        let (head, rest) = split_head(stmt);
        match head {
            "qreg" => {
                let n = parse_reg_decl(rest, 'q').map_err(|m| err(line, m))?;
                if self.circuit.is_some() {
                    return Err(err(line, "duplicate qreg declaration"));
                }
                self.n_qubits = n;
                self.circuit = Some(Circuit::new(n));
            }
            "creg" => {
                let n = parse_reg_decl(rest, 'c').map_err(|m| err(line, m))?;
                let circuit = self.circuit.as_mut().ok_or_else(|| before_qreg(line))?;
                circuit.declare_cbits(n);
            }
            "T" => {
                let (id_str, qubit_str) = split_head(rest);
                let id: u32 = id_str
                    .parse()
                    .map_err(|_| err(line, format!("invalid tracepoint id {id_str:?}")))?;
                self.operands
                    .read_list(qubit_str)
                    .map_err(|m| err(line, m))?;
                let qubits = &self.operands.qubits;
                self.validate_qubits(qubits, line)?;
                if let Some(q) = repeated_qubit(qubits) {
                    return Err(err(line, format!("tracepoint T{id} names qubit {q} twice")));
                }
                let circuit = self.circuit.as_mut().ok_or_else(|| before_qreg(line))?;
                circuit.push(Instruction::Tracepoint {
                    id: TracepointId(id),
                    qubits: qubits.clone(),
                });
            }
            "barrier" => {
                let circuit = self.circuit.as_mut().ok_or_else(|| before_qreg(line))?;
                circuit.push(Instruction::Barrier);
            }
            "measure" => {
                // measure q[i] -> c[j]
                let (qubit_str, cbit_str) = match rest.split_once("->") {
                    Some((q, c)) if !c.contains("->") => (q, c),
                    _ => return Err(err(line, "measure requires 'q[i] -> c[j]'")),
                };
                let qubit = single_index(qubit_str, 'q').map_err(|m| err(line, m))?;
                let cbit = single_index(cbit_str, 'c').map_err(|m| err(line, m))?;
                let (Some(qubit), Some(cbit)) = (qubit, cbit) else {
                    return Err(err(line, "measure takes exactly one qubit and one cbit"));
                };
                self.validate_qubits(&[qubit], line)?;
                let circuit = self.circuit.as_mut().ok_or_else(|| before_qreg(line))?;
                circuit.push(Instruction::Measure { qubit, cbit });
            }
            "reset" => {
                self.operands.read_list(rest).map_err(|m| err(line, m))?;
                self.validate_qubits(&self.operands.qubits, line)?;
                let circuit = self.circuit.as_mut().ok_or_else(|| before_qreg(line))?;
                for &q in &self.operands.qubits {
                    circuit.push(Instruction::Reset(q));
                }
            }
            "if" => {
                // if (c[j]==v) <gate stmt>
                let rest = trim(rest);
                if !rest.starts_with('(') {
                    return Err(err(line, "if requires a parenthesized condition"));
                }
                let close = rest
                    .find(')')
                    .ok_or_else(|| err(line, "unterminated if condition"))?;
                let cond = &rest[1..close];
                let body = trim(&rest[close + 1..]);
                let (cbit_str, value_str) = match cond.split_once("==") {
                    Some((c, v)) if !v.contains("==") => (c, v),
                    _ => return Err(err(line, "condition must be 'c[j]==v'")),
                };
                let cbit = single_index(cbit_str, 'c').map_err(|m| err(line, m))?;
                let value: u8 = trim(value_str)
                    .parse()
                    .map_err(|_| err(line, "condition value must be 0 or 1"))?;
                let (Some(cbit), 0..=1) = (cbit, value) else {
                    return Err(err(line, "condition must test one cbit against 0 or 1"));
                };
                let (name, operands) = split_head(body);
                let gate = match self.gate_statement(name, operands, line)? {
                    GateStmt::One(gate) => Some(gate),
                    GateStmt::Each(ctor, angle) => match self.operands.qubits[..] {
                        [q] => Some(ctor(q, angle)),
                        _ => None,
                    },
                }
                .ok_or_else(|| err(line, "conditional body must be a single gate"))?;
                let circuit = self.circuit.as_mut().ok_or_else(|| before_qreg(line))?;
                circuit.push(Instruction::Conditional { cbit, value, gate });
            }
            _ => {
                if self.circuit.is_none() {
                    return Err(before_qreg(line));
                }
                let stmt = self.gate_statement(head, rest, line)?;
                let circuit = self.circuit.as_mut().expect("checked above");
                match stmt {
                    GateStmt::Each(ctor, angle) => {
                        for &q in &self.operands.qubits {
                            circuit.gate(ctor(q, angle));
                        }
                    }
                    GateStmt::One(gate) => {
                        circuit.gate(gate);
                    }
                }
            }
        }
        Ok(())
    }

    fn validate_qubits(&self, qubits: &[usize], line: usize) -> Result<(), ParseProgramError> {
        match qubits.iter().find(|&&q| q >= self.n_qubits) {
            Some(q) => Err(err(line, format!("qubit {q} out of range"))),
            None => Ok(()),
        }
    }

    /// Parses a gate application like `rx(0.5) q[0]` or `cx q[0],q[1]`,
    /// given its first word and the rest, into `self.operands`.
    fn gate_statement(
        &mut self,
        word: &str,
        rest: &str,
        line: usize,
    ) -> Result<GateStmt, ParseProgramError> {
        let unterminated = || err(line, "unterminated angle parameter");
        let mut name = word;
        let mut angle: Option<f64> = None;
        let mut operand_str = rest;
        if let Some(open) = word.find('(') {
            // Angle attached to the name: rx(0.5). Text after the last `)`
            // is ignored, and so is a detached parenthesis that follows.
            let close = open + word[open..].rfind(')').ok_or_else(unterminated)?;
            angle = Some(angle_value(&word[open + 1..close], line)?);
            name = &word[..open];
            if rest.starts_with('(') {
                let close = rest.find(')').ok_or_else(unterminated)?;
                operand_str = trim(&rest[close + 1..]);
            }
        } else if rest.starts_with('(') {
            // Detached: rx (0.5) q[0].
            let close = rest.find(')').ok_or_else(unterminated)?;
            angle = Some(angle_value(&rest[1..close], line)?);
            operand_str = trim(&rest[close + 1..]);
        }

        self.operands.read(operand_str).map_err(|m| err(line, m))?;
        let ops = &self.operands;
        let qubits = &ops.qubits[..];
        self.validate_qubits(qubits, line)?;

        let need_angle =
            || angle.ok_or_else(|| err(line, format!("gate {name} requires an angle")));
        let single = |ctor: fn(usize, f64) -> Gate| {
            if qubits.is_empty() {
                return Err(err(line, format!("gate {name} requires qubits")));
            }
            Ok(GateStmt::Each(ctor, 0.0))
        };
        let pair = |gate: &str, ctor: fn(usize, usize, f64) -> Gate, angle: f64| match *qubits {
            [a, b] => Ok(GateStmt::One(ctor(a, b, angle))),
            _ => Err(err(line, format!("{gate} requires exactly two qubits"))),
        };
        let controlled = |gate: &str, ctor: fn(Vec<usize>, usize, f64) -> Gate| {
            let angle = need_angle()?;
            if ops.groups != 2 || qubits.len() != ops.first_len + 1 {
                return Err(err(
                    line,
                    format!("{gate} requires 'q[controls],q[target]'"),
                ));
            }
            let (controls, target) = qubits.split_at(ops.first_len);
            Ok(GateStmt::One(ctor(controls.to_vec(), target[0], angle)))
        };

        // Every gate name fits in 8 bytes; a longer word is no gate.
        let mut buf = [0u8; 8];
        let lower: &[u8] = match buf.get_mut(..name.len()) {
            Some(lower) => {
                lower.copy_from_slice(name.as_bytes());
                lower.make_ascii_lowercase();
                lower
            }
            None => b"",
        };
        match lower {
            b"h" => single(|q, _| Gate::H(q)),
            b"x" => single(|q, _| Gate::X(q)),
            b"y" => single(|q, _| Gate::Y(q)),
            b"z" => single(|q, _| Gate::Z(q)),
            b"s" => single(|q, _| Gate::S(q)),
            b"sdg" => single(|q, _| Gate::Sdg(q)),
            b"t" => single(|q, _| Gate::T(q)),
            b"tdg" => single(|q, _| Gate::Tdg(q)),
            b"rx" => Ok(GateStmt::Each(Gate::RX, need_angle()?)),
            b"ry" => Ok(GateStmt::Each(Gate::RY, need_angle()?)),
            b"rz" => Ok(GateStmt::Each(Gate::RZ, need_angle()?)),
            b"p" | b"phase" | b"u1" => Ok(GateStmt::Each(Gate::Phase, need_angle()?)),
            b"cx" | b"cnot" => pair("cx", |c, t, _| Gate::CX(c, t), 0.0),
            b"cz" => pair("cz", |a, b, _| Gate::CZ(a, b), 0.0),
            b"crz" => pair("crz", Gate::CRZ, need_angle()?),
            b"cp" | b"cphase" => pair("cp", Gate::CPhase, need_angle()?),
            b"swap" => pair("swap", |a, b, _| Gate::Swap(a, b), 0.0),
            b"ccx" | b"toffoli" => match *qubits {
                [c1, c2, t] => Ok(GateStmt::One(Gate::CCX(c1, c2, t))),
                _ => Err(err(line, "ccx requires exactly three qubits")),
            },
            b"mcz" => {
                if qubits.len() < 2 {
                    return Err(err(line, "mcz requires at least two qubits"));
                }
                Ok(GateStmt::One(Gate::MCZ(qubits.to_vec())))
            }
            b"mcrx" => controlled("mcrx", Gate::MCRX),
            b"mcry" => controlled("mcry", Gate::MCRY),
            _ => Err(err(
                line,
                format!("unknown gate {:?}", name.to_ascii_lowercase()),
            )),
        }
    }
}

/// `s.trim()`, without the search when `s` starts and ends with visible
/// ASCII.
fn trim(s: &str) -> &str {
    match (s.as_bytes().first(), s.as_bytes().last()) {
        (Some(a), Some(b)) if a.is_ascii_graphic() && b.is_ascii_graphic() => s,
        _ => s.trim(),
    }
}

fn split_head(s: &str) -> (&str, &str) {
    let s = trim(s);
    let head_end = if s.is_ascii() {
        // The ASCII characters that `char::is_whitespace` accepts.
        s.bytes().position(|b| matches!(b, b' ' | b'\t'..=b'\r'))
    } else {
        s.find(char::is_whitespace)
    };
    match head_end {
        Some(pos) => (&s[..pos], s[pos..].trim_start()),
        None => (s, ""),
    }
}

/// The text between `reg[` and a closing `]` that ends `s`.
fn bracketed(s: &str, reg: char) -> Option<&str> {
    s.strip_prefix(reg)?.strip_prefix('[')?.strip_suffix(']')
}

fn parse_reg_decl(s: &str, reg: char) -> Result<usize, String> {
    // "q[4]"
    let s = trim(s);
    let size = bracketed(s, reg).ok_or_else(|| format!("expected '{reg}[N]', found {s:?}"))?;
    size.parse()
        .map_err(|_| format!("invalid register size in {s:?}"))
}

/// Calls `f` on every index of a `reg[i,j,..]` list, in order.
fn for_each_index(s: &str, reg: char, mut f: impl FnMut(usize)) -> Result<(), String> {
    let s = trim(s);
    let list = bracketed(s, reg).ok_or_else(|| format!("expected '{reg}[..]', found {s:?}"))?;
    for part in list.split(',') {
        f(trim(part)
            .parse()
            .map_err(|_| format!("invalid index {part:?}"))?);
    }
    Ok(())
}

/// The index of a `reg[..]` list, or `None` unless it names exactly one.
fn single_index(s: &str, reg: char) -> Result<Option<usize>, String> {
    let mut count = 0usize;
    let mut first = 0usize;
    for_each_index(s, reg, |i| {
        if count == 0 {
            first = i;
        }
        count += 1;
    })?;
    Ok((count == 1).then_some(first))
}

/// The value of an angle expression, which must be finite.
fn angle_value(text: &str, line: usize) -> Result<f64, ParseProgramError> {
    match eval_angle(text) {
        Some(a) if a.is_finite() => Ok(a),
        Some(_) => Err(err(line, format!("angle {:?} is not finite", trim(text)))),
        None => Err(err(line, "invalid angle expression")),
    }
}

/// Evaluates simple angle expressions: a float literal, `pi`, `pi/N`,
/// `N*pi`, `-pi/N`, or `N*pi/M`. Whitespace anywhere is ignored.
fn eval_angle(s: &str) -> Option<f64> {
    // `f64` parsing rejects whitespace, so a float literal parses as written.
    if let Ok(v) = s.parse::<f64>() {
        return Some(v);
    }
    let compact: String;
    let s = if s.contains(char::is_whitespace) {
        compact = s.chars().filter(|c| !c.is_whitespace()).collect();
        &compact
    } else {
        s
    };
    if let Ok(v) = s.parse::<f64>() {
        return Some(v);
    }
    let (neg, body) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s),
    };
    let value = eval_pi_expr(body)?;
    Some(if neg { -value } else { value })
}

fn eval_pi_expr(s: &str) -> Option<f64> {
    // Forms: pi | pi/M | N*pi | N*pi/M
    let (num_part, denom) = match s.split_once('/') {
        Some((a, b)) => (a, b.parse::<f64>().ok()?),
        None => (s, 1.0),
    };
    let coeff = match num_part.split_once('*') {
        Some((n, "pi")) => n.parse::<f64>().ok()?,
        None if num_part == "pi" => 1.0,
        _ => return None,
    };
    Some(coeff * std::f64::consts::PI / denom)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_ghz_example() {
        // Listing from Section 4 (0-based indices).
        let src = "qreg q[3];\nh q[0];\ncx q[0],q[1];\nT 1 q[1];\ncx q[1],q[2];";
        let c = parse_program(src).unwrap();
        assert_eq!(c.n_qubits(), 3);
        assert_eq!(c.gate_count(), 3);
        assert_eq!(c.tracepoint_position(TracepointId(1)), Some(2));
    }

    #[test]
    fn parses_quantum_lock_listing() {
        // Section 7.1 listing adapted to 0-based indices.
        let src = "\
qreg q[4];
T 1 q[1,2,3];    // add tracepoint T1 on qubits 1,2,3
h q[0];
x q[1,2,3];
mcz q[0,1,2],q[3];
x q[1,2,3];
h q[0];
T 2 q[0];        // add tracepoint T2 on qubit 0
";
        let c = parse_program(src).unwrap();
        assert_eq!(c.tracepoints().len(), 2);
        // Broadcast x over three qubits, twice, plus h twice plus mcz.
        assert_eq!(c.gate_count(), 9);
        let mcz_count = c
            .instructions()
            .iter()
            .filter(|i| matches!(i, Instruction::Gate(Gate::MCZ(qs)) if qs.len() == 4))
            .count();
        assert_eq!(mcz_count, 1);
    }

    #[test]
    fn parses_angles() {
        let c = parse_program(
            "qreg q[1];\nrx(0.5) q[0];\nrz(pi/2) q[0];\nry(-pi) q[0];\np(2*pi/3) q[0];",
        )
        .unwrap();
        let angles: Vec<f64> = c
            .instructions()
            .iter()
            .filter_map(|i| match i {
                Instruction::Gate(Gate::RX(_, a))
                | Instruction::Gate(Gate::RZ(_, a))
                | Instruction::Gate(Gate::RY(_, a))
                | Instruction::Gate(Gate::Phase(_, a)) => Some(*a),
                _ => None,
            })
            .collect();
        assert!((angles[0] - 0.5).abs() < 1e-12);
        assert!((angles[1] - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!((angles[2] + std::f64::consts::PI).abs() < 1e-12);
        assert!((angles[3] - 2.0 * std::f64::consts::PI / 3.0).abs() < 1e-12);
    }

    #[test]
    fn parses_measure_and_feedback() {
        let src = "\
qreg q[2];
creg c[1];
h q[0];
measure q[0] -> c[0];
if (c[0]==1) x q[1];
";
        let c = parse_program(src).unwrap();
        assert_eq!(c.n_cbits(), 1);
        assert!(c.has_nonunitary());
        assert!(matches!(
            c.instructions().last(),
            Some(Instruction::Conditional {
                cbit: 0,
                value: 1,
                gate: Gate::X(1)
            })
        ));
    }

    #[test]
    fn parses_mcrx() {
        let c = parse_program("qreg q[3];\nmcrx(pi/3) q[0,1],q[2];").unwrap();
        match &c.instructions()[0] {
            Instruction::Gate(Gate::MCRX(cs, t, a)) => {
                assert_eq!(cs, &vec![0, 1]);
                assert_eq!(*t, 2);
                assert!((a - std::f64::consts::FRAC_PI_3).abs() < 1e-12);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_reports_line() {
        let err = parse_program("qreg q[2];\nbogus q[0];").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("bogus"));
    }

    #[test]
    fn rejects_non_finite_angles_with_their_line() {
        for angle in ["nan", "inf", "-inf", "1e400", "pi/0", "-pi/0", "0*pi/0"] {
            let src = format!("qreg q[2];\nh q[0];\ncrz({angle}) q[0],q[1];");
            let err = parse_program(&src).unwrap_err();
            assert_eq!(err.line, 3, "{angle}");
            assert_eq!(err.message, format!("angle {angle:?} is not finite"));
        }
        let err = parse_program("qreg q[1];\nrx (pi / 0) q[0];").unwrap_err();
        assert_eq!(
            (err.line, err.message.as_str()),
            (2, r#"angle "pi / 0" is not finite"#)
        );
    }

    #[test]
    fn rejects_out_of_range_qubit() {
        let err = parse_program("qreg q[2];\nh q[5];").unwrap_err();
        assert!(err.message.contains("out of range"));
    }

    #[test]
    fn rejects_tracepoint_naming_a_qubit_twice() {
        let err = parse_program("qreg q[2];\nT 1 q[0];\nh q[0];\nT 2 q[1,1];").unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.message.contains("T2 names qubit 1 twice"), "{err}");
        assert_eq!(repeated_qubit(&[0, 2, 1, 2]), Some(2));
        assert_eq!(repeated_qubit(&[3, 1, 0]), None);
    }

    #[test]
    fn rejects_statement_before_qreg() {
        let err = parse_program("h q[0];").unwrap_err();
        assert!(err.message.contains("before qreg"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let c = parse_program("// header\n\nqreg q[1]; // reg\n// mid\nh q[0]; // gate\n").unwrap();
        assert_eq!(c.gate_count(), 1);
    }

    #[test]
    fn multiple_statements_per_line() {
        let c = parse_program("qreg q[2]; h q[0]; cx q[0],q[1];").unwrap();
        assert_eq!(c.gate_count(), 2);
    }
}
