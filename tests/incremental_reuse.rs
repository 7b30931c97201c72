//! Tests for incremental characterization, which counts the segments an
//! edit left unchanged and characterizes as the plain path does:
//!
//! - a random single-gate edit (insert / delete / mutate) hits every
//!   segment before its first changed fingerprint and misses every later
//!   one, and the warm characterization is bit-identical to a from-scratch
//!   run at any worker count;
//! - an incremental run reports what the plain path reports for the same
//!   seed, bit for bit — cold, warm, after an edit and after its revert,
//!   on the paper's programs at the default Clifford ensemble and sample
//!   budget.

use morphqpv_suite::clifford::InputEnsemble;
use morphqpv_suite::core::{
    parse_assertion, segment_fingerprint, segment_plan, try_characterize_incremental,
    AssumeGuarantee, CharacterizationConfig, SegmentedCache, SegmentedConfig, Verifier,
};
use morphqpv_suite::qalgo::{
    bernstein_vazirani, ghz, grover, inject_phase_bug, shor_circuit, xeb_circuit, Qnn,
};
use morphqpv_suite::qprog::{Circuit, Instruction};
use morphqpv_suite::qsim::{Gate, NoiseModel};
use morphqpv_suite::tomography::ReadoutMode::{self, Exact, Shots};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Debug;

/// Arbitrary 2-qubit gate drawn from the library.
fn arb_gate() -> impl Strategy<Value = Gate> {
    prop_oneof![
        (0..2usize).prop_map(Gate::H),
        (0..2usize).prop_map(Gate::X),
        (0..2usize).prop_map(Gate::S),
        ((0..2usize), -3.0..3.0f64).prop_map(|(q, a)| Gate::RY(q, a)),
        ((0..2usize), -3.0..3.0f64).prop_map(|(q, a)| Gate::RZ(q, a)),
        Just(Gate::CX(0, 1)),
        Just(Gate::CX(1, 0)),
    ]
}

fn arb_gates() -> impl Strategy<Value = Vec<Gate>> {
    proptest::collection::vec(arb_gate(), 3..10)
}

/// Builds the program under revision: gates split by a mid-circuit
/// tracepoint, with a final tracepoint on the full register.
fn traced(gates: &[Gate]) -> Circuit {
    let mut c = Circuit::new(2);
    let mid = gates.len() / 2;
    for g in &gates[..mid] {
        c.gate(g.clone());
    }
    c.tracepoint(1, &[0, 1]);
    for g in &gates[mid..] {
        c.gate(g.clone());
    }
    c.tracepoint(2, &[0, 1]);
    c
}

/// Applies one single-gate edit. `pos` is reduced modulo the number of
/// legal positions so every drawn value maps to a valid edit; deletes pick
/// among gate instructions only (tracepoints stay), and the generator's
/// minimum of three gates keeps a delete from emptying the program.
fn apply_edit(base: &Circuit, kind: usize, pos: usize, g: Gate) -> Circuit {
    let mut edited = base.clone();
    let gate_positions: Vec<usize> = edited
        .instructions()
        .iter()
        .enumerate()
        .filter(|(_, i)| matches!(i, Instruction::Gate(_)))
        .map(|(p, _)| p)
        .collect();
    match kind {
        0 => {
            let at = pos % (edited.instructions().len() + 1);
            edited.insert(at, Instruction::Gate(g));
        }
        1 => {
            let at = gate_positions[pos % gate_positions.len()];
            edited.remove(at);
        }
        _ => {
            let at = gate_positions[pos % gate_positions.len()];
            edited.remove(at);
            edited.insert(at, Instruction::Gate(g));
        }
    }
    edited
}

/// 40 samples fill two lane ranges (32 + 8), so a worker count can split
/// the sweep.
fn exact_config() -> CharacterizationConfig {
    CharacterizationConfig {
        ensemble: InputEnsemble::PauliProduct,
        ..CharacterizationConfig::exact(vec![0, 1], 40)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A single-gate edit to a cached program hits every segment before
    /// its first changed fingerprint and misses every later one.
    #[test]
    fn single_gate_edits_reuse_untouched_segments(
        gates in arb_gates(),
        kind in 0..3usize,
        pos in 0..64usize,
        g in arb_gate(),
    ) {
        let seg = SegmentedConfig::new().segment_gates(2);
        let config = exact_config();
        let base = traced(&gates);
        let cache = SegmentedCache::in_memory();

        let mut rng = StdRng::seed_from_u64(11);
        try_characterize_incremental(&base, &config, &seg, &mut rng, &cache)
            .expect("base characterization");

        let edited = apply_edit(&base, kind, pos, g);
        let mut rng = StdRng::seed_from_u64(11);
        let warm = try_characterize_incremental(&edited, &config, &seg, &mut rng, &cache)
            .expect("edited characterization");

        let master_seed: u64 = StdRng::seed_from_u64(11).gen();
        let fingerprints = |c: &Circuit| {
            segment_plan(c, &seg)
                .expect("plans")
                .segments
                .iter()
                .map(|s| segment_fingerprint(s, &config, master_seed))
                .collect::<Vec<_>>()
        };
        let unchanged = fingerprints(&base)
            .iter()
            .zip(&fingerprints(&edited))
            .take_while(|(a, b)| a == b)
            .count() as u64;
        prop_assert_eq!(warm.segments.hits, unchanged, "edit kind {}", kind);
        prop_assert_eq!(warm.segments.misses, warm.segments.total - unchanged);
    }

    /// The warm (cache-hitting) characterization of an edited program is
    /// bit-identical to a from-scratch run, and to a run at a different
    /// worker count — the cache only counts, and scheduling never reaches
    /// the result.
    #[test]
    fn incremental_is_bit_identical_to_from_scratch_at_any_worker_count(
        gates in arb_gates(),
        kind in 0..3usize,
        pos in 0..64usize,
        g in arb_gate(),
    ) {
        let seg = SegmentedConfig::new().segment_gates(2);
        let config = exact_config();
        let base = traced(&gates);
        let edited = apply_edit(&base, kind, pos, g);

        // Warm: base then edit against the same cache.
        let cache = SegmentedCache::in_memory();
        let mut rng = StdRng::seed_from_u64(11);
        try_characterize_incremental(&base, &config, &seg, &mut rng, &cache)
            .expect("base characterization");
        let mut rng = StdRng::seed_from_u64(11);
        let warm = try_characterize_incremental(&edited, &config, &seg, &mut rng, &cache)
            .expect("warm characterization");

        // Cold: the edited program alone, in a fresh cache.
        let fresh = SegmentedCache::in_memory();
        let mut rng = StdRng::seed_from_u64(11);
        let cold = try_characterize_incremental(&edited, &config, &seg, &mut rng, &fresh)
            .expect("cold characterization");
        prop_assert_eq!(bits(&warm.characterization), bits(&cold.characterization));

        // Cold again at an explicit worker count.
        let wide_config = CharacterizationConfig {
            parallelism: 3,
            ..config
        };
        let fresh = SegmentedCache::in_memory();
        let mut rng = StdRng::seed_from_u64(11);
        let wide = try_characterize_incremental(&edited, &wide_config, &seg, &mut rng, &fresh)
            .expect("wide characterization");
        prop_assert_eq!(bits(&warm.characterization), bits(&wide.characterization));
    }
}

/// `circuit` followed by its inverse, traced on `inputs` before and after.
fn mirror(circuit: &Circuit, inputs: &[usize]) -> Circuit {
    let mut c = Circuit::new(circuit.n_qubits());
    c.tracepoint(1, inputs);
    c.extend_from(circuit);
    c.extend_from(&circuit.inverse());
    c.tracepoint(2, inputs);
    c
}

/// A program under revision and the verifier of any revision of it.
type Case = (String, Circuit, Box<dyn Fn(&Circuit) -> Verifier>);

fn case(
    name: &str,
    base: Circuit,
    inputs: &'static [usize],
    spec: &'static str,
    noise: NoiseModel,
    readout: ReadoutMode,
) -> Case {
    let verifier = move |c: &Circuit| {
        Verifier::new(c.clone())
            .input_qubits(inputs)
            .noise(noise)
            .readout(readout)
            .assert_that(parse_assertion(spec).expect("spec parses"))
    };
    (name.to_string(), base, Box::new(verifier))
}

/// The paper's unitary families at 4 qubits (Grover at 3), each checked
/// against itself; `examples/programs/ghz.qasm`; and a GHZ mirror under
/// `ibm_cairo` noise and under shot readout.
fn corpus_cases() -> Vec<Case> {
    const EQUAL: &str = "assume is_pure(T1) guarantee equal(T1, T2)";
    const WITHIN: &str = "guarantee within(T1, T2, 0.25)";
    let mut rng = StdRng::seed_from_u64(0x1c5e);
    let noiseless = NoiseModel::noiseless();
    let mut cases: Vec<Case> = [
        ("ghz", ghz(4)),
        ("bernstein_vazirani", bernstein_vazirani(4, 0b1011)),
        ("grover", grover(3, 0b101)),
        ("qnn", Qnn::random(4, 2, &mut rng).body()),
        ("xeb", xeb_circuit(4, 4, &mut rng)),
        ("shor", shor_circuit(4)),
    ]
    .into_iter()
    .map(|(name, c)| case(name, mirror(&c, &[0, 1]), &[0, 1], EQUAL, noiseless, Exact))
    .collect();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/programs/ghz.qasm");
    let source = std::fs::read_to_string(path).expect("read ghz.qasm");
    let program = morphqpv_suite::qprog::parse_program(&source).expect("ghz.qasm parses");
    let pure = "assume is_pure(T1) guarantee is_pure(T2)";
    cases.push(case("ghz.qasm", program, &[0], pure, noiseless, Exact));
    let ghz3 = mirror(&ghz(3), &[0]);
    let cairo = NoiseModel::ibm_cairo();
    cases.push(case("cairo", ghz3.clone(), &[0], WITHIN, cairo, Exact));
    cases.push(case("shots", ghz3, &[0], WITHIN, noiseless, Shots(2000)));
    cases
}

/// `Debug` prints every f64 in round-trip form: equal strings are
/// bit-identical values.
fn bits(value: &impl Debug) -> String {
    format!("{value:?}")
}

/// Cold, warm, after a one-gate edit and after its revert, against one
/// cache: each incremental run reports the plain run of the same program
/// at the same seed bit for bit, advances the caller's RNG alike, and
/// misses only from the edit on.
#[test]
fn incremental_runs_agree_with_the_plain_path() {
    for (name, base, verifier) in corpus_cases() {
        let (edited, _) = inject_phase_bug(&base, &mut StdRng::seed_from_u64(7));
        for seed in 0..3u64 {
            let cache = SegmentedCache::in_memory();
            for (step, circuit) in [
                ("cold", &base),
                ("warm", &base),
                ("edit", &edited),
                ("revert", &base),
            ] {
                let what = format!("{name} seed {seed} {step}");
                let verifier = verifier(circuit);
                let (mut inc_rng, mut plain_rng) =
                    (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let inc = verifier
                    .try_run_incremental(&mut inc_rng, &cache)
                    .expect("incremental run");
                let plain = verifier.try_run(&mut plain_rng, None).expect("plain run");
                assert_eq!(
                    bits(&inc.characterization),
                    bits(&plain.characterization),
                    "{what}: characterization"
                );
                assert_eq!(
                    bits(&inc.outcomes),
                    bits(&plain.outcomes),
                    "{what}: outcomes"
                );
                assert_eq!(
                    inc_rng.gen::<u64>(),
                    plain_rng.gen::<u64>(),
                    "{what}: caller RNG"
                );
                let segments = inc.run.cache.expect("incremental runs carry a summary");
                match step {
                    "cold" => assert_eq!(segments.segment_hits, 0, "{what}"),
                    "edit" => assert!(segments.segment_misses > 0, "{what}"),
                    _ => assert_eq!(segments.segment_misses, 0, "{what}"),
                }
            }
        }
    }
}

/// perfbench `revise`'s base shape: a 6-qubit random layered circuit
/// followed by its inverse, traced on three input qubits, with the
/// identity assertion, at the verifier's default ensemble and budget.
#[test]
fn random_layers_then_their_inverse_pass_incrementally() {
    let spec: AssumeGuarantee =
        parse_assertion("assume is_pure(T1) guarantee equal(T1, T2)").expect("spec parses");
    for seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut half = Circuit::new(6);
        for layer in 0..2 {
            for q in 0..6 {
                half.gate(match rng.gen_range(0..4) {
                    0 => Gate::H(q),
                    1 => Gate::T(q),
                    2 => Gate::RY(q, std::f64::consts::FRAC_PI_2),
                    _ => Gate::S(q),
                });
            }
            for q in (layer % 2..5).step_by(2) {
                half.cx(q, q + 1);
            }
        }
        let program = mirror(&half, &[0, 1, 2]);
        let report = Verifier::new(program)
            .input_qubits(&[0, 1, 2])
            .incremental(SegmentedConfig::default())
            .assert_that(spec.clone())
            .try_run_incremental(&mut rng, &SegmentedCache::in_memory())
            .expect("verifies");
        assert!(
            report.all_passed(),
            "seed {seed}: {:?}",
            report.first_failure().map(|o| &o.verdict)
        );
    }
}
