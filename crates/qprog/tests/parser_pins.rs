//! Pins `parse_program`'s observable behaviour: the line and message of
//! every error path, the circuits its quirks accept, and — by a
//! token-alphabet property — that no input makes it panic or report a
//! line outside the source.

use morph_qprog::{parse_program, Circuit, Instruction, TracepointId};
use morph_qsim::Gate;
use proptest::prelude::*;

/// `(source, line, message)` for every error path of the parser.
const ERRORS: &[(&str, usize, &str)] = &[
    ("", 0, "missing qreg declaration"),
    ("// only a comment\n\n", 0, "missing qreg declaration"),
    ("qreg r[2];", 1, "expected 'q[N]', found \"r[2]\""),
    ("qreg q[two];", 1, "invalid register size in \"q[two]\""),
    ("qreg q[2];\nqreg q[3];", 2, "duplicate qreg declaration"),
    ("creg c[1];", 1, "statement before qreg declaration"),
    (
        "qreg q[1];\ncreg d[1];",
        2,
        "expected 'c[N]', found \"d[1]\"",
    ),
    (
        "qreg q[1];\ncreg c[x];",
        2,
        "invalid register size in \"c[x]\"",
    ),
    ("qreg q[1];\nT x q[0];", 2, "invalid tracepoint id \"x\""),
    (
        "qreg q[1];\nT 1 r[0];",
        2,
        "expected 'q[..]', found \"r[0]\"",
    ),
    ("qreg q[1];\nT 1 q[a];", 2, "invalid index \"a\""),
    ("qreg q[1];\nT 1 q[3];", 2, "qubit 3 out of range"),
    (
        "qreg q[2];\nT 1 q[1,1];",
        2,
        "tracepoint T1 names qubit 1 twice",
    ),
    ("T 1 q[0];", 1, "qubit 0 out of range"),
    ("barrier;", 1, "statement before qreg declaration"),
    (
        "qreg q[1];\nmeasure q[0];",
        2,
        "measure requires 'q[i] -> c[j]'",
    ),
    (
        "qreg q[1];\nmeasure q[0] -> c[0] -> c[1];",
        2,
        "measure requires 'q[i] -> c[j]'",
    ),
    (
        "qreg q[1];\nmeasure r[0] -> c[0];",
        2,
        "expected 'q[..]', found \"r[0]\"",
    ),
    (
        "qreg q[1];\nmeasure q[0] -> d[0];",
        2,
        "expected 'c[..]', found \"d[0]\"",
    ),
    (
        "qreg q[2];\nmeasure q[0,1] -> c[0];",
        2,
        "measure takes exactly one qubit and one cbit",
    ),
    (
        "qreg q[1];\nmeasure q[4] -> c[0];",
        2,
        "qubit 4 out of range",
    ),
    ("measure q[0] -> c[0];", 1, "qubit 0 out of range"),
    (
        "qreg q[1];\nreset r[0];",
        2,
        "expected 'q[..]', found \"r[0]\"",
    ),
    ("qreg q[1];\nreset q[2];", 2, "qubit 2 out of range"),
    ("reset q[0];", 1, "qubit 0 out of range"),
    (
        "qreg q[1];\nif c[0]==1 x q[0];",
        2,
        "if requires a parenthesized condition",
    ),
    (
        "qreg q[1];\nif (c[0]==1 x q[0];",
        2,
        "unterminated if condition",
    ),
    (
        "qreg q[1];\nif (c[0]=1) x q[0];",
        2,
        "condition must be 'c[j]==v'",
    ),
    (
        "qreg q[1];\nif (d[0]==1) x q[0];",
        2,
        "expected 'c[..]', found \"d[0]\"",
    ),
    (
        "qreg q[1];\nif (c[0]==2) x q[0];",
        2,
        "condition must test one cbit against 0 or 1",
    ),
    (
        "qreg q[1];\nif (c[0]==x) x q[0];",
        2,
        "condition value must be 0 or 1",
    ),
    (
        "qreg q[1];\nif (c[0,1]==1) x q[0];",
        2,
        "condition must test one cbit against 0 or 1",
    ),
    (
        "qreg q[2];\nif (c[0]==1) x q[0,1];",
        2,
        "conditional body must be a single gate",
    ),
    (
        "qreg q[1];\nif (c[0]==1) bogus q[0];",
        2,
        "unknown gate \"bogus\"",
    ),
    (
        "qreg q[1];\nif (c[0]==1) rx(0.5);",
        2,
        "conditional body must be a single gate",
    ),
    ("if (c[0]==1) x q[0];", 1, "qubit 0 out of range"),
    (
        "if (c[0]==1) rx(0.5);",
        1,
        "conditional body must be a single gate",
    ),
    ("h q[0];", 1, "statement before qreg declaration"),
    (
        "qreg q[1];\nrx(0.5 q[0];",
        2,
        "unterminated angle parameter",
    ),
    (
        "qreg q[1];\nrx (0.5 q[0];",
        2,
        "unterminated angle parameter",
    ),
    ("qreg q[1];\nrx(abc) q[0];", 2, "invalid angle expression"),
    ("qreg q[1];\nrx (abc) q[0];", 2, "invalid angle expression"),
    ("qreg q[1];\nrx q[0];", 2, "gate rx requires an angle"),
    ("qreg q[1];\nRX q[0];", 2, "gate RX requires an angle"),
    ("qreg q[1];\nry q[0];", 2, "gate ry requires an angle"),
    ("qreg q[1];\nrz q[0];", 2, "gate rz requires an angle"),
    ("qreg q[1];\np q[0];", 2, "gate p requires an angle"),
    ("qreg q[1];\nphase q[0];", 2, "gate phase requires an angle"),
    ("qreg q[1];\nu1 q[0];", 2, "gate u1 requires an angle"),
    ("qreg q[1];\nh;", 2, "gate h requires qubits"),
    ("qreg q[1];\nSdg;", 2, "gate Sdg requires qubits"),
    ("qreg q[1];\nh r[0];", 2, "expected 'q[..]', found \"r[0]\""),
    (
        "qreg q[1];\nh q[0],r[1];",
        2,
        "expected 'q[..]', found \"r[1]\"",
    ),
    ("qreg q[1];\nh q[ x];", 2, "invalid index \" x\""),
    ("qreg q[1];\nh q[];", 2, "invalid index \"\""),
    ("qreg q[1];\nh q[1];", 2, "qubit 1 out of range"),
    ("qreg q[2];\ncx q[0];", 2, "cx requires exactly two qubits"),
    (
        "qreg q[2];\ncnot q[0];",
        2,
        "cx requires exactly two qubits",
    ),
    ("qreg q[2];\ncz q[0];", 2, "cz requires exactly two qubits"),
    (
        "qreg q[2];\ncrz q[0],q[1];",
        2,
        "gate crz requires an angle",
    ),
    (
        "qreg q[2];\ncrz(0.1) q[0];",
        2,
        "crz requires exactly two qubits",
    ),
    (
        "qreg q[2];\ncp(0.1) q[0];",
        2,
        "cp requires exactly two qubits",
    ),
    (
        "qreg q[2];\ncphase q[0],q[1];",
        2,
        "gate cphase requires an angle",
    ),
    (
        "qreg q[2];\nswap q[0];",
        2,
        "swap requires exactly two qubits",
    ),
    (
        "qreg q[3];\nccx q[0],q[1];",
        2,
        "ccx requires exactly three qubits",
    ),
    (
        "qreg q[3];\ntoffoli q[0];",
        2,
        "ccx requires exactly three qubits",
    ),
    (
        "qreg q[2];\nmcz q[0];",
        2,
        "mcz requires at least two qubits",
    ),
    (
        "qreg q[3];\nmcrx(0.1) q[0,1,2];",
        2,
        "mcrx requires 'q[controls],q[target]'",
    ),
    (
        "qreg q[3];\nmcry(0.1) q[0],q[1,2];",
        2,
        "mcry requires 'q[controls],q[target]'",
    ),
    (
        "qreg q[3];\nmcrx q[0],q[1];",
        2,
        "gate mcrx requires an angle",
    ),
    ("qreg q[1];\nBOGUS q[0];", 2, "unknown gate \"bogus\""),
    ("qreg q[1];\nbogus(1) q[5];", 2, "qubit 5 out of range"),
    ("qreg q[1];\nbogus(x) q[0];", 2, "invalid angle expression"),
    (
        "qreg q[1]; h q[0]; bogus q[0];",
        1,
        "unknown gate \"bogus\"",
    ),
    ("\n// c\nqreg q[1];\n\nh q[9];", 5, "qubit 9 out of range"),
    (
        "qreg q[1];\nh q[0] // ; bogus\n;x q[5];",
        3,
        "qubit 5 out of range",
    ),
    (
        "qreg q[1];\r\nh q[0];\r\nx q[2];\r\n",
        3,
        "qubit 2 out of range",
    ),
    (
        "qreg q[1];\nrx(pi / 2) q[0];",
        2,
        "unterminated angle parameter",
    ),
    ("qreg q[1];\nrx(+pi) q[0];", 2, "invalid angle expression"),
    (
        "qreg q[1];\nrx(pi/2/2) q[0];",
        2,
        "invalid angle expression",
    ),
    (
        "qreg q[1];\nrx(2*pi*2) q[0];",
        2,
        "invalid angle expression",
    ),
    // A `)` only before the `(`, or a second angle left open, is an
    // unterminated angle.
    (
        "qreg q[1];\nrx)(0.5 q[0];",
        2,
        "unterminated angle parameter",
    ),
    ("qreg q[1];\nh q[0]; )(", 2, "unterminated angle parameter"),
    (
        "qreg q[1];\nrx(0.5) (0.3 q[0];",
        2,
        "unterminated angle parameter",
    ),
];

#[test]
fn every_error_path_reports_its_line_and_message() {
    for &(source, line, message) in ERRORS {
        let err = parse_program(source).expect_err(source);
        assert_eq!(
            (err.line, err.message.as_str()),
            (line, message),
            "{source:?}"
        );
    }
}

/// Inputs the parser accepts whose reading is not obvious from the
/// grammar, with the circuit each must give.
#[test]
fn accepted_quirks_give_their_circuits() {
    let one = |g: Gate| {
        let mut c = Circuit::new(2);
        c.gate(g);
        c
    };
    let cases: Vec<(&str, Circuit)> = vec![
        // Text after the angle's last `)` in the gate word is ignored.
        ("qreg q[2];\nrx(0.5)junk q[0];", one(Gate::RX(0, 0.5))),
        // A second parenthesized angle is skipped.
        ("qreg q[2];\nrx(0.5) (0.3) q[0];", one(Gate::RX(0, 0.5))),
        // The detached form may hold whitespace inside the expression.
        (
            "qreg q[2];\nrx (pi / 2) q[1];",
            one(Gate::RX(1, std::f64::consts::FRAC_PI_2)),
        ),
        // An angle on a gate that takes none is read and dropped.
        ("qreg q[2];\nh (0.5) q[0];", one(Gate::H(0))),
        // Gate names match case-insensitively; indices take a sign.
        ("qreg q[2];\nCX q[ +0 ], q[1];", one(Gate::CX(0, 1))),
        ("qreg q[2];\ncnot q[1],q[0];", one(Gate::CX(1, 0))),
        // Any Unicode whitespace separates words, vertical tab included.
        (
            "qreg q[2];\nh\u{a0}q[0];\nx\u{b}q[1];\ncx\u{2003}q[0],\u{b}q[1];",
            {
                let mut c = Circuit::new(2);
                c.h(0).x(1).cx(0, 1);
                c
            },
        ),
        ("qreg q[2];\ncp(-pi/4) q[0],q[1];", {
            one(Gate::CPhase(0, 1, -std::f64::consts::PI / 4.0))
        }),
        ("qreg q[2];\nu1(3*pi/2) q[0];", {
            one(Gate::Phase(0, 3.0 * std::f64::consts::PI / 2.0))
        }),
        // A rotation with no operands emits no gate.
        ("qreg q[2];\nrx(0.5);", Circuit::new(2)),
        ("qreg q[2];\n;; barrier ;", {
            let mut c = Circuit::new(2);
            c.push(Instruction::Barrier);
            c
        }),
        // Broadcast single-qubit gates and resets over lists.
        ("qreg q[3];\nry(0.25) q[2,0];\nreset q[1,2];", {
            let mut c = Circuit::new(3);
            c.ry(2, 0.25).ry(0, 0.25);
            c.push(Instruction::Reset(1)).push(Instruction::Reset(2));
            c
        }),
        // `creg` after a measurement keeps the larger classical register.
        ("qreg q[1];\nmeasure q[0] -> c[3];\ncreg c[2];", {
            let mut c = Circuit::with_cbits(1, 2);
            c.measure(0, 3);
            c
        }),
        (
            "qreg q[1];\nmeasure q[0] -> c[0];\ncreg c[2];\nif (c[1]==1) x q[0];",
            {
                let mut c = Circuit::with_cbits(1, 2);
                c.measure(0, 0).conditional(1, 1, Gate::X(0));
                c
            },
        ),
        ("qreg q[4];\nmcry(1) q[3,1],q[0];\nT 7 q[2,0];", {
            let mut c = Circuit::new(4);
            c.gate(Gate::MCRY(vec![3, 1], 0, 1.0));
            c.push(Instruction::Tracepoint {
                id: TracepointId(7),
                qubits: vec![2, 0],
            });
            c
        }),
    ];
    for (source, expected) in cases {
        let parsed = parse_program(source).unwrap_or_else(|e| panic!("{source:?}: {e}"));
        assert_eq!(parsed, expected, "{source:?}");
    }
}

/// Tokens the generated sources are built from: every keyword, gate name
/// and punctuation mark of the grammar, plus near misses.
const ALPHABET: &[&str] = &[
    "qreg", "creg", "T", "barrier", "measure", "reset", "if", "h", "x", "Sdg", "rx", "RY", "p",
    "cx", "cnot", "crz", "cp", "swap", "ccx", "mcz", "mcrx", "mcry", "bogus", "q", "c", "[", "]",
    "(", ")", ",", ";", ";", "\n", "\n", " ", " ", "\t", "->", "==", "=", "//", "0", "1", "2", "7",
    "-", "+", "*", "/", "pi", "0.5", "1e400", "nan", "inf", "q[0]", "q[1]", "q[0,1]", "q[2]",
    "c[0]", "\r\n", "é", "\u{a0}",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// No token sequence makes the parser panic, and every error names a
    /// line of the source (or line 0 for the missing register).
    #[test]
    fn never_panics_and_errors_name_a_source_line(
        prefix in 0..3usize,
        tokens in proptest::collection::vec(0..ALPHABET.len(), 0..40),
    ) {
        let mut source = String::from(["", "qreg q[3];\n", "qreg q[3]; creg c[1];\n"][prefix]);
        for &t in &tokens {
            source.push_str(ALPHABET[t]);
        }
        if let Err(err) = parse_program(&source) {
            let lines = source.lines().count();
            prop_assert!(
                (1..=lines).contains(&err.line)
                    || (err.line == 0 && err.message == "missing qreg declaration"),
                "{source:?}: {err}"
            );
        }
    }
}
