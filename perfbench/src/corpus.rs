//! The `corpus` workload's programs: the paper's Table 3 programs (QNN,
//! quantum lock, QEC, Shor, XEB) at two or three widths, plus
//! teleportation (coherent, and measured with classical feedback), QRAM,
//! GHZ, Bernstein–Vazirani and Grover — each once correct and once with a
//! known bug.
//!
//! Every program carries two tracepoints and one assertion relating them.
//! Where the algorithm has a native round-trip property (teleportation,
//! the repetition codes) the assertion states it directly; otherwise the
//! program is the version under test followed by the inverse of the
//! reference version, and the assertion states that the pair acts as the
//! identity on the inputs (the equivalence check behind the paper's
//! mutation testing). Widths are chosen so `BackendMode::Auto` selects
//! every backend: dense batched, stabilizer (GHZ-15, BV-15), sparse
//! (QL-13) and the Clifford-prefix splice (QEC-15), plus the density
//! backend for the one noisy program.

use std::time::Instant;

use morph_qalgo::{
    bernstein_vazirani, ghz, grover, inject_phase_bug, shor_circuit, xeb_circuit, Qnn, Qram,
    QuantumLock, RepetitionCode, Teleportation,
};
use morph_qprog::Circuit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::emit::program_text;
use crate::oracle::{Answer, Check, Oracle};

/// One verification job on the plain path.
#[derive(Debug, Clone)]
pub struct Program {
    /// `<family>/<ok|bug>`, e.g. `QL-13/bug`.
    pub class: String,
    /// Surface-syntax text with its `// assert` line.
    pub source: String,
    /// The circuit the text encodes (what the oracle simulates).
    pub circuit: Circuit,
    /// Qubits carrying the program input.
    pub input_qubits: Vec<usize>,
    /// The assertion form.
    pub check: Check,
    /// Characterization samples (`4^k`: the Pauli-product ensemble then
    /// spans every input operator, Theorem 1's exact regime).
    pub samples: usize,
    /// Run under the `ibm_cairo` noise model (density backend).
    pub noisy: bool,
    /// Finite-shot tomography budget per Pauli setting (`None`: exact).
    pub shots: Option<usize>,
    /// The verdict the program was built to have.
    pub expect: Answer,
}

/// `T1 on t1; parts...; T2 on t2` on an `n`-qubit register with `cbits`
/// classical bits.
fn traced(n: usize, cbits: usize, t1: &[usize], parts: &[&Circuit], t2: &[usize]) -> Circuit {
    let mut c = Circuit::with_cbits(n, cbits);
    c.tracepoint(1, t1);
    for p in parts {
        c.extend_from(p);
    }
    c.tracepoint(2, t2);
    c
}

struct Programs<'a> {
    oracle: &'a mut Oracle,
    out: Vec<Program>,
}

/// How a family's programs are run.
#[derive(Clone)]
struct Spec {
    family: String,
    inputs: Vec<usize>,
    check: Check,
    noisy: bool,
    shots: Option<usize>,
}

impl Spec {
    fn new(family: &str, inputs: &[usize]) -> Self {
        Spec {
            family: family.to_string(),
            inputs: inputs.to_vec(),
            check: Check::Equal,
            noisy: false,
            shots: None,
        }
    }
}

impl Programs<'_> {
    fn push(&mut self, spec: &Spec, circuit: Circuit, expect: Answer) {
        let source = program_text(&circuit, &[spec.check.spec()]);
        let suffix = if expect == Answer::Passed {
            "ok"
        } else {
            "bug"
        };
        self.out.push(Program {
            class: format!("{}/{suffix}", spec.family),
            source,
            circuit,
            input_qubits: spec.inputs.clone(),
            check: spec.check,
            samples: 4usize.pow(spec.inputs.len() as u32),
            noisy: spec.noisy,
            shots: spec.shots,
            expect,
        });
    }

    /// The correct program `wrap(body)` and a phase-bug mutant of `body`
    /// (the paper's mutation operator) that the exact check confirms is
    /// visible on the inputs.
    fn with_mutant(
        &mut self,
        spec: &Spec,
        body: &Circuit,
        rng: &mut StdRng,
        wrap: impl Fn(&Circuit) -> Circuit,
    ) {
        self.push(spec, wrap(body), Answer::Passed);
        for _ in 0..64 {
            let (mutant, _) = inject_phase_bug(body, rng);
            let program = wrap(&mutant);
            let key = program_text(&program, &[spec.check.spec()]);
            if self.oracle.answer(&key, &program, &spec.inputs, spec.check) == Some(Answer::Refuted)
            {
                self.push(spec, program, Answer::Refuted);
                return;
            }
        }
        panic!("no visible mutant of {} in 64 draws", spec.family);
    }

    /// `body` followed by the inverse of `reference`, traced on `t`.
    fn mirror(n: usize, t: &[usize], body: &Circuit, reference: &Circuit) -> Circuit {
        traced(n, 0, t, &[body, &reference.inverse()], t)
    }

    fn mirror_pair(
        &mut self,
        spec: &Spec,
        n: usize,
        t: &[usize],
        reference: &Circuit,
        bug: &Circuit,
    ) {
        self.push(
            spec,
            Self::mirror(n, t, reference, reference),
            Answer::Passed,
        );
        self.push(spec, Self::mirror(n, t, bug, reference), Answer::Refuted);
    }

    fn mirror_mutant(&mut self, spec: &Spec, n: usize, reference: &Circuit, rng: &mut StdRng) {
        let t = spec.inputs.clone();
        self.with_mutant(spec, reference, rng, |b| Self::mirror(n, &t, b, reference));
    }
}

/// A key for the quantum lock whose set bits all fall on `inputs` (the
/// lock's other input qubits start in `|0⟩`), different from `key`.
fn visible_key(n: usize, inputs: &[usize], key: u64, rng: &mut StdRng) -> u64 {
    let n_in = n - 1;
    loop {
        let mut k = 0u64;
        for &q in inputs {
            if rng.gen_bool(0.5) {
                k |= 1 << (n_in - q);
            }
        }
        if k != key {
            return k;
        }
    }
}

/// Builds the corpus for `seed`: every program once correct and once
/// with its known bug, in a fixed order.
pub fn build(seed: u64, oracle: &mut Oracle) -> Vec<Program> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x636f_7270_7573);
    let mut b = Programs {
        oracle,
        out: Vec::new(),
    };

    for (n, inputs) in [(4usize, vec![0usize, 1]), (8, vec![0, 1])] {
        let body = Qnn::random(n, 2, &mut rng).body();
        b.mirror_mutant(&Spec::new(&format!("QNN-{n}"), &inputs), n, &body, &mut rng);
    }

    for n in [5usize, 13] {
        let inputs = [1usize, 2];
        let key = rng.gen_range(0..1u64 << (n - 1));
        let lock = QuantumLock::new(n, key);
        let bug_key = visible_key(n, &inputs, key, &mut rng);
        let spec = Spec::new(&format!("QL-{n}"), &inputs);
        b.mirror_pair(
            &spec,
            n,
            &[0, 1, 2],
            &lock.circuit(),
            &lock.circuit_with_bug(bug_key),
        );
    }

    // Bit-flip round trip with the Toffoli majority vote (3 qubits), the
    // phase-flip round trip (5), and a phase-flip code carrying a T gate
    // between encoder and decoder, checked against its reference (15).
    let spec = Spec::new("QEC-3", &[0]);
    let code = RepetitionCode::new(3).circuit(None);
    b.with_mutant(&spec, &code, &mut rng, |c| traced(3, 0, &[0], &[c], &[0]));
    let spec = Spec::new("QEC-5", &[0]);
    let code = RepetitionCode::new(5).phase_flip_circuit(None);
    b.with_mutant(&spec, &code, &mut rng, |c| traced(5, 0, &[0], &[c], &[0]));
    // Its known bug puts the T gate on the wrong wire: same gates, same
    // Clifford prefix, so both versions take the same backend path.
    let code = RepetitionCode::new(15);
    let t_code = |wire: usize| {
        let mut c = code.phase_flip_encoder();
        c.t(wire);
        c.extend_from(&code.phase_flip_decoder());
        c
    };
    let spec = Spec::new("QEC-15", &[0]);
    for _ in 0..ANCHOR_INSTANCES.2 {
        let reference = t_code(rng.gen_range(0..15));
        b.push(
            &spec,
            Programs::mirror(15, &[0], &reference, &reference),
            Answer::Passed,
        );
        loop {
            let bug = Programs::mirror(15, &[0], &t_code(rng.gen_range(0..15)), &reference);
            let key = program_text(&bug, &[spec.check.spec()]);
            if b.oracle.answer(&key, &bug, &spec.inputs, spec.check) == Some(Answer::Refuted) {
                b.push(&spec, bug, Answer::Refuted);
                break;
            }
        }
    }

    for (n, instances) in [(4usize, 1), (9, ANCHOR_INSTANCES.0)] {
        for _ in 0..instances {
            b.mirror_mutant(
                &Spec::new(&format!("Shor-{n}"), &[0, 1]),
                n,
                &shor_circuit(n),
                &mut rng,
            );
        }
    }
    let body = xeb_circuit(4, 4, &mut rng);
    b.mirror_mutant(&Spec::new("XEB-4", &[0, 1]), 4, &body, &mut rng);
    for _ in 0..ANCHOR_INSTANCES.1 {
        let body = xeb_circuit(6, 6, &mut rng);
        b.mirror_mutant(&Spec::new("XEB-6", &[0, 1, 2]), 6, &body, &mut rng);
    }

    for payload in [1usize, 2] {
        let layout = Teleportation::new(payload);
        let n = layout.n_qubits();
        let lane = rng.gen_range(0..payload);
        let spec = Spec::new(&format!("TP-{n}"), &layout.input_qubits());
        let (t1, t2) = (layout.input_qubits(), layout.output_qubits());
        b.push(
            &spec,
            traced(n, 0, &t1, &[&layout.circuit_coherent()], &t2),
            Answer::Passed,
        );
        let bug = layout.circuit_coherent_with_bug(lane);
        b.push(&spec, traced(n, 0, &t1, &[&bug], &t2), Answer::Refuted);
    }
    let layout = Teleportation::new(1);
    let spec = Spec::new("TPM-3", &layout.input_qubits());
    let (t1, t2) = (layout.input_qubits(), layout.output_qubits());
    b.with_mutant(&spec, &layout.circuit(), &mut rng, |c| {
        traced(3, 2, &t1, &[c], &t2)
    });

    let values: Vec<f64> = (0..4).map(|_| rng.gen_range(0.3..2.8)).collect();
    let bad = rng.gen_range(0..4);
    let qram = Qram::new(2, values.clone());
    let wrong = values[bad] + std::f64::consts::PI * if values[bad] < 1.5 { 1.0 } else { -1.0 };
    let spec = Spec::new("QRAM-3", &[0, 1]);
    b.mirror_pair(
        &spec,
        3,
        &[0, 1, 2],
        &qram.circuit(),
        &qram.circuit_with_bug(bad, wrong),
    );

    for (n, inputs) in [(5usize, vec![0usize, 1]), (15, vec![0])] {
        b.mirror_mutant(
            &Spec::new(&format!("GHZ-{n}"), &inputs),
            n,
            &ghz(n),
            &mut rng,
        );
    }

    let secret = rng.gen_range(0..1u64 << 14);
    let wrong_secret = secret ^ (1 << (13 - rng.gen_range(0..2)));
    let spec = Spec::new("BV-15", &[0, 1]);
    b.mirror_pair(
        &spec,
        15,
        &[0, 1],
        &bernstein_vazirani(14, secret),
        &bernstein_vazirani(14, wrong_secret),
    );

    let marked = rng.gen_range(0..16u64);
    let spec = Spec::new("Grover-4", &[0, 1]);
    b.with_mutant(&spec, &grover(4, marked), &mut rng, |c| {
        Programs::mirror(4, &[0, 1], c, &grover(4, marked))
    });

    // Noise and finite shots keep the characterized states a small
    // distance from the exact ones, so these assert closeness within a
    // tolerance far above that distance and far below the bugs' effect.
    let layout = Teleportation::new(1);
    let spec = Spec {
        check: Check::Within(0.25),
        noisy: true,
        ..Spec::new("TPnoisy-3", &layout.input_qubits())
    };
    let (t1, t2) = (layout.input_qubits(), layout.output_qubits());
    b.push(
        &spec,
        traced(3, 0, &t1, &[&layout.circuit_coherent()], &t2),
        Answer::Passed,
    );
    b.push(
        &spec,
        traced(3, 0, &t1, &[&layout.circuit_coherent_with_bug(0)], &t2),
        Answer::Refuted,
    );
    let spec = Spec {
        check: Check::Within(0.25),
        shots: Some(2000),
        ..Spec::new("QECshots-3", &[0])
    };
    let code = RepetitionCode::new(3).circuit(None);
    b.with_mutant(&spec, &code, &mut rng, |c| traced(3, 0, &[0], &[c], &[0]));

    b.out
}

/// Instances per pass of the three anchor families `(Shor-9, XEB-6,
/// QEC-15)`, each once correct and once buggy.
///
/// Their shares put one family across the median's rank and one across
/// the 90th percentile's, so neither percentile sits on the boundary
/// between programs of different cost, and the many instances average
/// each percentile over mutants and solver seeds instead of resting on one
/// draw. `QEC-15` spreads its 15-qubit sweep over every core, so its
/// latency follows how busy the machine's other cores are: with a second
/// busy process on two cores its median rose by half and `XEB-6`'s by at
/// most a tenth. It is kept to one pair, above the 90th percentile.
///
/// Per pass (180 operations), sorted by latency: 34 programs under
/// ~2.5 ms (ranks 1–34), 110 `Shor-9` and 2 `BV-15` at ~4–6 ms (ranks
/// 35–146, the median at 90), 32 `XEB-6` (dense, 3 traced qubits, ~18 ms;
/// ranks 147–178, the 90th percentile at 162), then 2 `QEC-15`.
const ANCHOR_INSTANCES: (usize, usize, usize) = (55, 16, 1);

/// One timed verification: program index, milliseconds, and the verdict
/// (`true` when every assertion passed) with the run's report.
type Timed = (usize, f64, Result<(bool, morphqpv::RunReport), String>);

/// Runs the `corpus` workload.
pub fn run(ctx: &crate::Ctx) -> crate::Outcome {
    use crate::plain::{probe_layers, span, verify, Job};
    use crate::stats::{EndToEnd, Op};
    use morph_clifford::InputEnsemble;

    let mut oracle = Oracle::default();
    // Set-up builds the corpus; the oracle's time is known answers, not
    // set-up. It is timed again, at reference speed, before every pass
    // of the untraced phase.
    let mut set_up = || {
        let t = Instant::now();
        let spent = oracle.spent;
        let programs = build(ctx.seed, &mut oracle);
        let secs = (t.elapsed() - (oracle.spent - spent)).as_secs_f64();
        (programs, secs)
    };
    let (programs, _) = set_up();
    // Every pass repeats the same (program, characterization seed) list,
    // so per-pass counts repeat exactly.
    let mut pass: Vec<(usize, u64)> = (0..programs.len())
        .map(|i| (i, crate::mix(ctx.seed, 100 + i as u64)))
        .collect();
    crate::shuffle(
        &mut pass,
        &mut StdRng::seed_from_u64(crate::mix(ctx.seed, 1)),
    );

    let measure = |seconds: f64, probes: bool, between: &mut dyn FnMut() -> Option<f64>| {
        let mut timed: Vec<Timed> = Vec::new();
        let measured = crate::run_passes(seconds, 1, between, |_| {
            for &(i, char_seed) in &pass {
                let p = &programs[i];
                let job = Job {
                    source: &p.source,
                    input_qubits: &p.input_qubits,
                    samples: p.samples,
                    ensemble: InputEnsemble::PauliProduct,
                    noisy: p.noisy,
                    shots: p.shots,
                };
                let t = Instant::now();
                let result = span(crate::layers::OP_SPAN, || verify(&job, char_seed));
                let ms = t.elapsed().as_secs_f64() * 1e3;
                if probes {
                    probe_layers(&job, char_seed);
                }
                crate::speed::after_op();
                timed.push((
                    i,
                    ms,
                    result
                        .map(|r| (r.all_passed(), r.run))
                        .map_err(|e| e.to_string()),
                ));
            }
        });
        (timed, measured)
    };
    let untraced_budget = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let (timed, measured) = measure(untraced_budget, false, &mut || {
        Some(crate::speed::at_reference_speed(&mut set_up).1)
    });
    let setup_s = crate::stats::trimmed_mean(&measured.setup_s);
    let traced_run = ctx.trace.then(|| {
        morph_trace::reset();
        morph_trace::set_enabled(true);
        let run = measure(ctx.seconds - untraced_budget, true, &mut || None);
        morph_trace::set_enabled(false);
        run
    });

    // Known answers, after the measured phases (mutants were decided
    // during set-up; the rest are decided here).
    let mut problems = Vec::new();
    let answers: Vec<Option<Answer>> = programs
        .iter()
        .map(|p| {
            let answer = oracle.answer(&p.source, &p.circuit, &p.input_qubits, p.check);
            if answer != Some(p.expect) {
                problems.push(format!(
                    "{}: known answer {answer:?}, built as {:?}",
                    p.class, p.expect
                ));
            }
            answer
        })
        .collect();
    let grade = |timed: &[Timed], problems: &mut Vec<String>| {
        let mut errors = 0;
        let ops: Vec<Op> = timed
            .iter()
            .map(|(i, ms, result)| {
                let ok = match result {
                    Ok((passed, _)) => {
                        answers[*i]
                            == Some(if *passed {
                                Answer::Passed
                            } else {
                                Answer::Refuted
                            })
                    }
                    Err(e) => {
                        errors += 1;
                        problems.push(format!("{}: {e}", programs[*i].class));
                        false
                    }
                };
                Op {
                    class: programs[*i].class.clone(),
                    ms: *ms,
                    ok,
                }
            })
            .collect();
        (ops, errors)
    };
    let (ops, errors) = grade(&timed, &mut problems);
    let mut report = crate::speed::note(&measured, &ops);
    let ops = measured.at_reference_speed(ops);
    let wrong = ops.iter().filter(|o| !o.ok).count();
    if wrong > 0 {
        problems.push(format!("{wrong} wrong verdicts on the plain path"));
    }
    let e2e = EndToEnd::from_ops(setup_s, &ops, &measured);

    let mut layers = Vec::new();
    if let Some((t_timed, t_measured)) = traced_run {
        let (doc, profile) = crate::layers::collect(&ctx.trace_schema, &mut problems);
        let (t_ops, _) = grade(&t_timed, &mut problems);
        let t_ops = t_measured.at_reference_speed(t_ops);
        let traced = EndToEnd::from_ops(setup_s, &t_ops, &t_measured);
        let n = t_timed.len() as f64;
        let reports: Vec<morphqpv::RunReport> = t_timed
            .iter()
            .filter_map(|(.., r)| r.as_ref().ok().map(|(_, run)| *run))
            .collect();
        let per_op =
            |f: fn(&morphqpv::RunReport) -> u64| reports.iter().map(f).sum::<u64>() as f64 / n;
        let confidence: f64 = crate::layers::span_durations_ms(&doc, "validate/confidence")
            .iter()
            .sum();
        let fast = reports
            .iter()
            .filter(|r| r.backend != morphqpv::BackendChoice::Dense)
            .count() as f64;
        layers = crate::layers::common_rows(&profile, &e2e, &traced);
        layers.extend(
            [
                ("morphqpv.confidence_ms", confidence / n, "ms"),
                ("qsim.quantum_ops", per_op(|r| r.quantum_ops), "count"),
                ("qsim.executions", per_op(|r| r.executions), "count"),
                ("tomography.shots", per_op(|r| r.shots), "count"),
                (
                    "optimize.evaluations",
                    per_op(|r| r.solver_evaluations),
                    "count",
                ),
                ("backend.fast_path_frac", fast / n, "ratio"),
            ]
            .map(|(name, value, unit)| (name.to_string(), value, unit.to_string())),
        );
        report.push_str(&crate::layers::render(&profile, &e2e, &traced));
    }
    let mut by_class: std::collections::BTreeMap<&str, (Vec<f64>, String)> = Default::default();
    for (i, ms, result) in &timed {
        let entry = by_class.entry(programs[*i].class.as_str()).or_default();
        entry.0.push(*ms);
        if let Ok((_, run)) = result {
            entry.1 = run.backend.tag();
        }
    }
    for (class, (ms, backend)) in &by_class {
        report.push_str(&format!(
            "class {class:<16} n={:<5} median_ms={:>9.3} backend={backend}\n",
            ms.len(),
            crate::stats::median(ms)
        ));
    }
    crate::Outcome {
        e2e,
        ops,
        errors,
        problems,
        layers,
        report,
    }
}
