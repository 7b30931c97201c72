//! Renders a [`Circuit`] in the surface syntax `morph_qprog::parse_program`
//! reads, so every operation starts from program text the way a user's
//! does. Angles print in Rust's shortest round-trip form, so parsing the
//! text back yields the identical circuit.
//!
//! The benchmark renders the text itself rather than through
//! `morph_qprog::write_program`: the inputs must stay the same when a
//! change to the program under test touches its writer.

use std::fmt::Write;

use morph_qprog::{Circuit, Instruction};
use morph_qsim::Gate;

fn list(qubits: &[usize]) -> String {
    let items: Vec<String> = qubits.iter().map(|q| q.to_string()).collect();
    format!("q[{}]", items.join(","))
}

fn gate_text(g: &Gate) -> String {
    let one = |name: &str, q: usize| format!("{name} q[{q}]");
    let rot = |name: &str, q: usize, a: f64| format!("{name}({a:?}) q[{q}]");
    let two = |name: &str, a: usize, b: usize| format!("{name} q[{a}],q[{b}]");
    match g {
        Gate::H(q) => one("h", *q),
        Gate::X(q) => one("x", *q),
        Gate::Y(q) => one("y", *q),
        Gate::Z(q) => one("z", *q),
        Gate::S(q) => one("s", *q),
        Gate::Sdg(q) => one("sdg", *q),
        Gate::T(q) => one("t", *q),
        Gate::Tdg(q) => one("tdg", *q),
        Gate::RX(q, a) => rot("rx", *q, *a),
        Gate::RY(q, a) => rot("ry", *q, *a),
        Gate::RZ(q, a) => rot("rz", *q, *a),
        Gate::Phase(q, a) => rot("p", *q, *a),
        Gate::CX(c, t) => two("cx", *c, *t),
        Gate::CZ(a, b) => two("cz", *a, *b),
        Gate::CRZ(c, t, a) => format!("crz({a:?}) q[{c}],q[{t}]"),
        Gate::CPhase(c, t, a) => format!("cp({a:?}) q[{c}],q[{t}]"),
        Gate::Swap(a, b) => two("swap", *a, *b),
        Gate::CCX(a, b, t) => format!("ccx q[{a}],q[{b}],q[{t}]"),
        Gate::MCZ(qs) => format!("mcz {}", list(qs)),
        Gate::MCRX(cs, t, a) => format!("mcrx({a:?}) {},q[{t}]", list(cs)),
        Gate::MCRY(cs, t, a) => format!("mcry({a:?}) {},q[{t}]", list(cs)),
        Gate::Unitary(..) => panic!("arbitrary unitaries have no surface syntax"),
    }
}

/// The program text of `circuit` followed by one `// assert` line per
/// specification.
///
/// # Panics
///
/// Panics on a [`Gate::Unitary`], which the surface syntax cannot express.
pub fn program_text(circuit: &Circuit, specs: &[String]) -> String {
    let mut out = format!("qreg q[{}];\n", circuit.n_qubits());
    if circuit.n_cbits() > 0 {
        let _ = writeln!(out, "creg c[{}];", circuit.n_cbits());
    }
    for inst in circuit.instructions() {
        let line = match inst {
            Instruction::Gate(g) => gate_text(g),
            Instruction::Tracepoint { id, qubits } => format!("T {} {}", id.0, list(qubits)),
            Instruction::Measure { qubit, cbit } => format!("measure q[{qubit}] -> c[{cbit}]"),
            Instruction::Reset(q) => format!("reset q[{q}]"),
            Instruction::Conditional { cbit, value, gate } => {
                format!("if (c[{cbit}]=={value}) {}", gate_text(gate))
            }
            Instruction::Barrier => "barrier".to_string(),
        };
        out.push_str(&line);
        out.push_str(";\n");
    }
    for spec in specs {
        let _ = writeln!(out, "// assert {spec}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_parses_back_to_the_same_circuit() {
        let mut c = Circuit::with_cbits(4, 1);
        c.tracepoint(1, &[0, 1]);
        c.h(0).rx(1, 0.1 + 0.2).cx(0, 2).mcz(&[0, 1, 3]);
        c.gate(Gate::CPhase(1, 3, -std::f64::consts::PI / 7.0));
        c.gate(Gate::MCRY(vec![0, 1], 2, 1.25));
        c.measure(2, 0);
        c.conditional(0, 1, Gate::X(3));
        c.tracepoint(2, &[3]);
        let text = program_text(&c, &["guarantee equal(T1, T2)".to_string()]);
        let parsed = morph_qprog::parse_program(&text).unwrap();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        c.canonical_bytes(&mut a);
        parsed.canonical_bytes(&mut b);
        assert_eq!(a, b);
        assert_eq!(morphqpv::assertions_from_source(&text).unwrap().len(), 1);
    }
}
