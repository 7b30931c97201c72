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
//! are `;`-terminated.

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
/// range violation.
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
    };
    for (line_idx, raw_line) in source.lines().enumerate() {
        let line_no = line_idx + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        for stmt in line.split(';') {
            let stmt = stmt.trim();
            if stmt.is_empty() {
                continue;
            }
            parser.statement(stmt, line_no)?;
        }
    }
    parser.circuit.ok_or_else(|| ParseProgramError {
        line: 0,
        message: "missing qreg declaration".into(),
    })
}

fn strip_comment(line: &str) -> &str {
    match line.find("//") {
        Some(pos) => &line[..pos],
        None => line,
    }
}

struct Parser {
    circuit: Option<Circuit>,
    n_qubits: usize,
}

impl Parser {
    fn err(&self, line: usize, message: impl Into<String>) -> ParseProgramError {
        ParseProgramError {
            line,
            message: message.into(),
        }
    }

    fn circuit_mut(&mut self, line: usize) -> Result<&mut Circuit, ParseProgramError> {
        if self.circuit.is_none() {
            return Err(self.err(line, "statement before qreg declaration"));
        }
        Ok(self.circuit.as_mut().expect("checked above"))
    }

    fn statement(&mut self, stmt: &str, line: usize) -> Result<(), ParseProgramError> {
        let (head, rest) = split_head(stmt);
        match head {
            "qreg" => {
                let n = parse_reg_decl(rest, 'q').map_err(|m| self.err(line, m))?;
                if self.circuit.is_some() {
                    return Err(self.err(line, "duplicate qreg declaration"));
                }
                self.n_qubits = n;
                self.circuit = Some(Circuit::new(n));
                Ok(())
            }
            "creg" => {
                let n = parse_reg_decl(rest, 'c').map_err(|m| self.err(line, m))?;
                let nq = self.n_qubits;
                let old = self.circuit_mut(line)?;
                let mut fresh = Circuit::with_cbits(nq, n);
                for inst in old.instructions() {
                    fresh.push(inst.clone());
                }
                *old = fresh;
                Ok(())
            }
            "T" => {
                let (id_str, qubit_str) = split_head(rest);
                let id: u32 = id_str
                    .parse()
                    .map_err(|_| self.err(line, format!("invalid tracepoint id {id_str:?}")))?;
                let qubits = parse_qubit_list(qubit_str).map_err(|m| self.err(line, m))?;
                self.validate_qubits(&qubits, line)?;
                if let Some(q) = repeated_qubit(&qubits) {
                    return Err(self.err(line, format!("tracepoint T{id} names qubit {q} twice")));
                }
                self.circuit_mut(line)?.push(Instruction::Tracepoint {
                    id: TracepointId(id),
                    qubits,
                });
                Ok(())
            }
            "barrier" => {
                self.circuit_mut(line)?.push(Instruction::Barrier);
                Ok(())
            }
            "measure" => {
                // measure q[i] -> c[j]
                let parts: Vec<&str> = rest.split("->").collect();
                if parts.len() != 2 {
                    return Err(self.err(line, "measure requires 'q[i] -> c[j]'"));
                }
                let qubits = parse_qubit_list(parts[0].trim()).map_err(|m| self.err(line, m))?;
                let cbits = parse_indexed(parts[1].trim(), 'c').map_err(|m| self.err(line, m))?;
                if qubits.len() != 1 || cbits.len() != 1 {
                    return Err(self.err(line, "measure takes exactly one qubit and one cbit"));
                }
                self.validate_qubits(&qubits, line)?;
                self.circuit_mut(line)?.push(Instruction::Measure {
                    qubit: qubits[0],
                    cbit: cbits[0],
                });
                Ok(())
            }
            "reset" => {
                let qubits = parse_qubit_list(rest).map_err(|m| self.err(line, m))?;
                self.validate_qubits(&qubits, line)?;
                let c = self.circuit_mut(line)?;
                for q in qubits {
                    c.push(Instruction::Reset(q));
                }
                Ok(())
            }
            "if" => {
                // if (c[j]==v) <gate stmt>
                let rest = rest.trim();
                if !rest.starts_with('(') {
                    return Err(self.err(line, "if requires a parenthesized condition"));
                }
                let close = rest
                    .find(')')
                    .ok_or_else(|| self.err(line, "unterminated if condition"))?;
                let cond = &rest[1..close];
                let body = rest[close + 1..].trim();
                let parts: Vec<&str> = cond.split("==").collect();
                if parts.len() != 2 {
                    return Err(self.err(line, "condition must be 'c[j]==v'"));
                }
                let cbits = parse_indexed(parts[0].trim(), 'c').map_err(|m| self.err(line, m))?;
                let value: u8 = parts[1]
                    .trim()
                    .parse()
                    .map_err(|_| self.err(line, "condition value must be 0 or 1"))?;
                if cbits.len() != 1 || value > 1 {
                    return Err(self.err(line, "condition must test one cbit against 0 or 1"));
                }
                let gates = self.parse_gate_statement(body, line)?;
                if gates.len() != 1 {
                    return Err(self.err(line, "conditional body must be a single gate"));
                }
                let gate = gates.into_iter().next().expect("length checked");
                self.circuit_mut(line)?.push(Instruction::Conditional {
                    cbit: cbits[0],
                    value,
                    gate,
                });
                Ok(())
            }
            _ => {
                self.circuit_mut(line)?;
                let gates = self.parse_gate_statement(stmt, line)?;
                let c = self.circuit_mut(line)?;
                for g in gates {
                    c.gate(g);
                }
                Ok(())
            }
        }
    }

    fn validate_qubits(&self, qubits: &[usize], line: usize) -> Result<(), ParseProgramError> {
        for &q in qubits {
            if q >= self.n_qubits {
                return Err(self.err(line, format!("qubit {q} out of range")));
            }
        }
        Ok(())
    }

    /// Parses a gate application like `rx(0.5) q[0]` or `cx q[0],q[1]`,
    /// broadcasting single-qubit gates over qubit lists.
    fn parse_gate_statement(
        &self,
        stmt: &str,
        line: usize,
    ) -> Result<Vec<Gate>, ParseProgramError> {
        let (mut name, rest) = split_head(stmt);
        let mut angle: Option<f64> = None;
        // Angle may be attached without whitespace: rx(0.5)
        let combined;
        if let Some(open) = name.find('(') {
            let close = name
                .rfind(')')
                .ok_or_else(|| self.err(line, "unterminated angle parameter"))?;
            angle = Some(
                eval_angle(&name[open + 1..close])
                    .ok_or_else(|| self.err(line, "invalid angle expression"))?,
            );
            combined = name[..open].to_string();
            name = &combined;
        } else if rest.starts_with('(') {
            // or separated: rx (0.5) q[0] — handled by re-splitting below
            let close = rest
                .find(')')
                .ok_or_else(|| self.err(line, "unterminated angle parameter"))?;
            angle = Some(
                eval_angle(&rest[1..close])
                    .ok_or_else(|| self.err(line, "invalid angle expression"))?,
            );
        }
        let operand_str = if angle.is_some() && rest.starts_with('(') {
            rest[rest.find(')').expect("checked") + 1..].trim()
        } else {
            rest
        };

        // Operands: comma-separated q[..] groups.
        let groups = parse_qubit_groups(operand_str).map_err(|m| self.err(line, m))?;
        let flat: Vec<usize> = groups.iter().flatten().copied().collect();
        self.validate_qubits(&flat, line)?;

        let need_angle = || -> Result<f64, ParseProgramError> {
            angle.ok_or_else(|| self.err(line, format!("gate {name} requires an angle")))
        };

        let single = |ctor: fn(usize) -> Gate| -> Result<Vec<Gate>, ParseProgramError> {
            if flat.is_empty() {
                return Err(self.err(line, format!("gate {name} requires qubits")));
            }
            Ok(flat.iter().map(|&q| ctor(q)).collect())
        };

        match name.to_ascii_lowercase().as_str() {
            "h" => single(Gate::H),
            "x" => single(Gate::X),
            "y" => single(Gate::Y),
            "z" => single(Gate::Z),
            "s" => single(Gate::S),
            "sdg" => single(Gate::Sdg),
            "t" => single(Gate::T),
            "tdg" => single(Gate::Tdg),
            "rx" => {
                let a = need_angle()?;
                Ok(flat.iter().map(|&q| Gate::RX(q, a)).collect())
            }
            "ry" => {
                let a = need_angle()?;
                Ok(flat.iter().map(|&q| Gate::RY(q, a)).collect())
            }
            "rz" => {
                let a = need_angle()?;
                Ok(flat.iter().map(|&q| Gate::RZ(q, a)).collect())
            }
            "p" | "phase" | "u1" => {
                let a = need_angle()?;
                Ok(flat.iter().map(|&q| Gate::Phase(q, a)).collect())
            }
            "cx" | "cnot" => {
                if flat.len() != 2 {
                    return Err(self.err(line, "cx requires exactly two qubits"));
                }
                Ok(vec![Gate::CX(flat[0], flat[1])])
            }
            "cz" => {
                if flat.len() != 2 {
                    return Err(self.err(line, "cz requires exactly two qubits"));
                }
                Ok(vec![Gate::CZ(flat[0], flat[1])])
            }
            "crz" => {
                let a = need_angle()?;
                if flat.len() != 2 {
                    return Err(self.err(line, "crz requires exactly two qubits"));
                }
                Ok(vec![Gate::CRZ(flat[0], flat[1], a)])
            }
            "cp" | "cphase" => {
                let a = need_angle()?;
                if flat.len() != 2 {
                    return Err(self.err(line, "cp requires exactly two qubits"));
                }
                Ok(vec![Gate::CPhase(flat[0], flat[1], a)])
            }
            "swap" => {
                if flat.len() != 2 {
                    return Err(self.err(line, "swap requires exactly two qubits"));
                }
                Ok(vec![Gate::Swap(flat[0], flat[1])])
            }
            "ccx" | "toffoli" => {
                if flat.len() != 3 {
                    return Err(self.err(line, "ccx requires exactly three qubits"));
                }
                Ok(vec![Gate::CCX(flat[0], flat[1], flat[2])])
            }
            "mcz" => {
                if flat.len() < 2 {
                    return Err(self.err(line, "mcz requires at least two qubits"));
                }
                Ok(vec![Gate::MCZ(flat)])
            }
            "mcrx" => {
                let a = need_angle()?;
                if groups.len() != 2 || groups[1].len() != 1 {
                    return Err(self.err(line, "mcrx requires 'q[controls],q[target]'"));
                }
                Ok(vec![Gate::MCRX(groups[0].clone(), groups[1][0], a)])
            }
            "mcry" => {
                let a = need_angle()?;
                if groups.len() != 2 || groups[1].len() != 1 {
                    return Err(self.err(line, "mcry requires 'q[controls],q[target]'"));
                }
                Ok(vec![Gate::MCRY(groups[0].clone(), groups[1][0], a)])
            }
            other => Err(self.err(line, format!("unknown gate {other:?}"))),
        }
    }
}

fn split_head(s: &str) -> (&str, &str) {
    let s = s.trim();
    match s.find(char::is_whitespace) {
        Some(pos) => (&s[..pos], s[pos..].trim_start()),
        None => (s, ""),
    }
}

fn parse_reg_decl(s: &str, reg: char) -> Result<usize, String> {
    // "q[4]"
    let s = s.trim().trim_end_matches(';').trim();
    let expected_prefix = format!("{reg}[");
    if !s.starts_with(&expected_prefix) || !s.ends_with(']') {
        return Err(format!("expected '{reg}[N]', found {s:?}"));
    }
    s[expected_prefix.len()..s.len() - 1]
        .parse()
        .map_err(|_| format!("invalid register size in {s:?}"))
}

fn parse_indexed(s: &str, reg: char) -> Result<Vec<usize>, String> {
    let s = s.trim();
    let expected_prefix = format!("{reg}[");
    if !s.starts_with(&expected_prefix) || !s.ends_with(']') {
        return Err(format!("expected '{reg}[..]', found {s:?}"));
    }
    s[expected_prefix.len()..s.len() - 1]
        .split(',')
        .map(|part| {
            part.trim()
                .parse()
                .map_err(|_| format!("invalid index {part:?}"))
        })
        .collect()
}

fn parse_qubit_list(s: &str) -> Result<Vec<usize>, String> {
    parse_indexed(s, 'q')
}

/// Splits `q[0,1],q[2]` into groups, respecting brackets.
fn parse_qubit_groups(s: &str) -> Result<Vec<Vec<usize>>, String> {
    let s = s.trim();
    if s.is_empty() {
        return Ok(Vec::new());
    }
    let mut groups = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, ch) in s.char_indices() {
        match ch {
            '[' => depth += 1,
            ']' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                groups.push(parse_qubit_list(&s[start..i])?);
                start = i + 1;
            }
            _ => {}
        }
    }
    groups.push(parse_qubit_list(&s[start..])?);
    Ok(groups)
}

/// Evaluates simple angle expressions: a float literal, `pi`, `pi/N`,
/// `N*pi`, `-pi/N`, or `N*pi/M`.
fn eval_angle(s: &str) -> Option<f64> {
    let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
    if let Ok(v) = s.parse::<f64>() {
        return Some(v);
    }
    let (neg, body) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s.as_str()),
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
