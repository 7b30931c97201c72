//! The known answers every operation is graded against.
//!
//! Each answer comes from the benchmark's own exact check
//! (`perfbench::oracle`), never from the verifier under test. These tests
//! pin that the check reproduces the algorithms' documented properties,
//! that every generated operation has a decided answer, and that the
//! corpus programs carry the verdicts they were built to have.

use morph_backend::{plan_characterization, BackendChoice, PlanInputs};
use morph_qalgo::{QuantumLock, RepetitionCode, Teleportation};
use morph_qprog::{BackendMode, Circuit};
use perfbench::corpus;
use perfbench::oracle::{known_answer, Answer, Check, Oracle};
use perfbench::{revise, serve};

fn traced(n: usize, cbits: usize, t1: &[usize], body: &Circuit, t2: &[usize]) -> Circuit {
    let mut c = Circuit::with_cbits(n, cbits);
    c.tracepoint(1, t1);
    c.extend_from(body);
    c.tracepoint(2, t2);
    c
}

#[test]
fn exact_check_reproduces_documented_properties() {
    // Teleportation moves the payload to Bob's qubit, coherently and with
    // measurement plus classical feedback; a missing correction breaks it.
    let t = Teleportation::new(1);
    let (a, b) = (t.input_qubits(), t.output_qubits());
    let ok = traced(3, 0, &a, &t.circuit_coherent(), &b);
    let measured = traced(3, 2, &a, &t.circuit(), &b);
    let broken = traced(3, 0, &a, &t.circuit_coherent_with_bug(0), &b);
    assert_eq!(known_answer(&ok, &a, Check::Equal), Some(Answer::Passed));
    assert_eq!(
        known_answer(&measured, &a, Check::Equal),
        Some(Answer::Passed)
    );
    assert_eq!(
        known_answer(&broken, &a, Check::Equal),
        Some(Answer::Refuted)
    );

    // The 3-qubit repetition code corrects any single bit flip.
    for q in 0..3 {
        let code = RepetitionCode::new(3).circuit(Some(q));
        assert_eq!(
            known_answer(&traced(3, 0, &[0], &code, &[0]), &[0], Check::Equal),
            Some(Answer::Passed)
        );
    }

    // A lock is its own inverse; a lock with an unexpected key is not.
    let lock = QuantumLock::new(4, 0b011);
    let mut pair = lock.circuit();
    pair.extend_from(&lock.circuit().inverse());
    let mut bad = lock.circuit_with_bug(0b100);
    bad.extend_from(&lock.circuit().inverse());
    let t = [0, 1, 2, 3];
    assert_eq!(
        known_answer(&traced(4, 0, &t, &pair, &t), &[1, 2, 3], Check::Equal),
        Some(Answer::Passed)
    );
    assert_eq!(
        known_answer(&traced(4, 0, &t, &bad, &t), &[1, 2, 3], Check::Equal),
        Some(Answer::Refuted)
    );
}

#[test]
fn corpus_programs_carry_the_verdicts_they_were_built_with() {
    for seed in [1, 2, 3] {
        let mut oracle = Oracle::default();
        let programs = corpus::build(seed, &mut oracle);
        assert_eq!(programs.len(), 180);
        for p in &programs {
            let answer = known_answer(&p.circuit, &p.input_qubits, p.check);
            assert_eq!(answer, Some(p.expect), "seed {seed}: {}", p.class);
            assert_eq!(
                p.class.ends_with("/ok"),
                p.expect == Answer::Passed,
                "{}",
                p.class
            );
            let parsed = morph_qprog::parse_program(&p.source).expect("program text parses");
            let (mut want, mut got) = (Vec::new(), Vec::new());
            p.circuit.canonical_bytes(&mut want);
            parsed.canonical_bytes(&mut got);
            assert_eq!(want, got, "{}: text and circuit differ", p.class);
        }
    }
}

#[test]
fn corpus_reaches_every_backend() {
    let mut oracle = Oracle::default();
    let programs = corpus::build(7, &mut oracle);
    let mut seen = std::collections::BTreeSet::new();
    for p in programs.iter().filter(|p| !p.noisy) {
        let plan = plan_characterization(&PlanInputs {
            circuit: &p.circuit,
            mode: BackendMode::Auto,
            noiseless: true,
            n_input_qubits: p.input_qubits.len(),
            preps_clifford: true,
        });
        seen.insert(match plan.choice {
            BackendChoice::CliffordPrefix { .. } => "clifford-prefix",
            other => other.as_str(),
        });
    }
    assert_eq!(
        seen.into_iter().collect::<Vec<_>>(),
        ["clifford-prefix", "dense", "sparse", "stabilizer"]
    );
    assert!(programs.iter().any(|p| p.noisy));
    assert!(programs.iter().any(|p| p.shots.is_some()));
}

#[test]
fn every_revision_has_a_decided_answer_and_one_edit() {
    for seed in [1, 2] {
        let mut oracle = Oracle::default();
        let streams = revise::build(seed, &mut oracle);
        assert_eq!(streams.len(), revise::STREAMS);
        for s in &streams {
            assert_eq!(s.revisions.len(), revise::REVISIONS);
            let answers: Vec<Option<Answer>> = s
                .revisions
                .iter()
                .map(|r| known_answer(&r.circuit, &revise::INPUTS, Check::Equal))
                .collect();
            assert!(
                answers.iter().all(Option::is_some),
                "seed {seed}: {answers:?}"
            );
            // The base program and its revert are correct.
            assert_eq!(answers[0], Some(Answer::Passed));
            assert_eq!(answers[2], Some(Answer::Passed));
            for pair in s.revisions.windows(2) {
                let gates = |c: &Circuit| c.gate_count() as i64;
                assert!((gates(&pair[0].circuit) - gates(&pair[1].circuit)).abs() <= 1);
            }
        }
    }
}

#[test]
fn every_request_has_a_known_status() {
    let mut oracle = Oracle::default();
    let pool = serve::pool(5, &mut oracle);
    assert!(pool.iter().all(|p| p.answer.is_some()));
    assert!(pool.iter().any(|p| p.answer == Some(Answer::Refuted)));
    let plan = serve::schedule(5, 10.0, &pool, 9);
    assert!(plan.iter().all(|r| r.expect.status != "undecided"));
    let lines = |class: &str| {
        plan.iter()
            .filter(|r| r.class == class)
            .map(|r| r.lines.len())
            .sum::<usize>()
    };
    let total = lines("hot") + lines("cold") + lines("refused");
    assert_eq!(total, (serve::RATE_PER_S * 10.0) as usize);
    assert!(plan.windows(2).all(|w| w[0].due <= w[1].due));
}
