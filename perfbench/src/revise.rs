//! The `revise` workload: streams of single-gate edits (mutate, insert,
//! delete, revert) to 6-qubit programs, each revision verified end to end
//! through `Verifier::incremental(..).try_run_incremental` against one
//! disk-backed `SegmentedCache` per stream.
//!
//! Every base program is a random circuit followed by its inverse, with
//! tracepoints on the three input qubits before and after and the
//! assertion that the program acts as the identity on them; edits break
//! and restore that property, and the exact check grades each revision.
//! The verifier keeps its default ensemble (Clifford) and sample budget
//! (`2^(k+1)` for `k` input qubits), so today's incremental mismatches —
//! segment fits over the full register are exact only at `4^n` samples
//! (ROADMAP item 2) — show in `ok_frac`.

use std::path::Path;
use std::time::Instant;

use morph_qprog::{Circuit, Instruction};
use morph_qsim::Gate;
use morph_store::Fingerprint;
use morphqpv::{
    characterize_segment, segment_fingerprint, segment_plan, segment_seed,
    try_characterize_incremental, CancelToken, MorphError, SegmentedCache, SegmentedConfig,
    Verifier,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::emit::program_text;
use crate::oracle::{Answer, Check, Oracle};
use crate::plain::{parse, span, Parsed};
use crate::stats::{EndToEnd, Op};

/// Segments of every base program under the default segmentation.
pub const BASE_SEGMENTS: usize = 8;
/// Register width of the edited programs.
pub const QUBITS: usize = 6;
/// Input (and traced) qubits.
pub const INPUTS: [usize; 3] = [0, 1, 2];
/// Streams per pass.
pub const STREAMS: usize = 60;
/// Revisions per stream, the first of them cold: cold revisions are a
/// fifth of all operations, so the 90th percentile falls inside them and
/// the median inside the warm ones.
pub const REVISIONS: usize = 5;
/// Streams per timed chunk. A pass takes about half a minute, so it is
/// timed in chunks of a few seconds whose figures are averaged (see
/// [`crate::stats::trimmed_mean`]).
pub const CHUNK_STREAMS: usize = 6;

/// One revision: its program text, circuit, and stream position.
#[derive(Debug, Clone)]
pub struct Revision {
    pub source: String,
    pub circuit: Circuit,
    /// `cold` for a stream's first revision, `warm` after.
    pub class: &'static str,
}

/// A stream of revisions sharing one segment cache and one seed.
#[derive(Debug, Clone)]
pub struct Stream {
    pub seed: u64,
    pub revisions: Vec<Revision>,
}

fn random_gate(rng: &mut StdRng) -> Gate {
    let q = rng.gen_range(0..QUBITS);
    let other = (q + rng.gen_range(1..QUBITS)) % QUBITS;
    match rng.gen_range(0..8) {
        0 => Gate::H(q),
        1 => Gate::S(q),
        2 => Gate::T(q),
        3 => Gate::X(q),
        4 => Gate::RY(q, std::f64::consts::FRAC_PI_2),
        5 => Gate::RZ(q, -std::f64::consts::FRAC_PI_2),
        6 => Gate::CX(q, other),
        _ => Gate::CZ(q, other),
    }
}

/// The gate body of a revision (everything between the tracepoints).
fn body_of(program: &Circuit) -> Vec<Gate> {
    program
        .instructions()
        .iter()
        .filter_map(|i| match i {
            Instruction::Gate(g) => Some(g.clone()),
            _ => None,
        })
        .collect()
}

fn program_from(body: &[Gate]) -> Circuit {
    let mut c = Circuit::new(QUBITS);
    c.tracepoint(1, &INPUTS);
    for g in body {
        c.gate(g.clone());
    }
    c.tracepoint(2, &INPUTS);
    c
}

/// A random layered circuit followed by its inverse.
fn base_body(rng: &mut StdRng) -> Vec<Gate> {
    let mut half = Circuit::new(QUBITS);
    for layer in 0..2 {
        for q in 0..QUBITS {
            half.gate(match rng.gen_range(0..4) {
                0 => Gate::H(q),
                1 => Gate::T(q),
                2 => Gate::RY(q, std::f64::consts::FRAC_PI_2),
                _ => Gate::S(q),
            });
        }
        for q in (layer % 2..QUBITS - 1).step_by(2) {
            half.cx(q, q + 1);
        }
    }
    let mut body = body_of(&half);
    body.extend(body_of(&half.inverse()));
    body
}

/// The edit that produces each revision after the first. Every stream
/// follows the same pattern, so the mix of edit kinds — and with it the
/// share of revisions that restore the original program — is the same
/// for every seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edit {
    /// Insert a random gate into the base program.
    Insert,
    /// Undo the previous edit (back to the base program).
    Revert,
    /// Replace one gate of the base program with a random gate.
    Mutate,
    /// Delete one gate of the previous revision.
    Delete,
}

/// Edits producing revisions 1.. of every stream.
pub const PATTERN: [Edit; REVISIONS - 1] = [Edit::Insert, Edit::Revert, Edit::Mutate, Edit::Delete];

fn apply(edit: Edit, base: &[Gate], previous: &[Gate], rng: &mut StdRng) -> Vec<Gate> {
    match edit {
        Edit::Insert => {
            let mut next = base.to_vec();
            next.insert(rng.gen_range(0..=next.len()), random_gate(rng));
            next
        }
        Edit::Revert => base.to_vec(),
        Edit::Mutate => {
            let mut next = base.to_vec();
            let at = rng.gen_range(0..next.len());
            next[at] = random_gate(rng);
            next
        }
        Edit::Delete => {
            let mut next = previous.to_vec();
            next.remove(rng.gen_range(0..next.len()));
            next
        }
    }
}

/// Builds the streams of one pass. An edit is redrawn until the exact
/// check decides its revision (the discrete gate set makes undecided
/// revisions rare); `oracle` keeps that time out of set-up.
pub fn build(seed: u64, oracle: &mut Oracle) -> Vec<Stream> {
    let check = Check::Equal;
    (0..STREAMS)
        .map(|s| {
            let mut rng = StdRng::seed_from_u64(crate::mix(seed, 0x7265_7669 + s as u64));
            // Drawn until the default segmentation cuts it into exactly
            // `BASE_SEGMENTS` segments, so every stream costs the same to
            // compose and cold revisions stand clear of warm ones.
            let base = loop {
                let body = base_body(&mut rng);
                let plan = segment_plan(&program_from(&body), &SegmentedConfig::default());
                if plan.is_ok_and(|p| p.segments.len() == BASE_SEGMENTS) {
                    break body;
                }
            };
            let mut bodies = vec![base.clone()];
            for &edit in &PATTERN {
                let previous = bodies.last().expect("base first").clone();
                let next = loop {
                    let candidate = apply(edit, &base, &previous, &mut rng);
                    let circuit = program_from(&candidate);
                    let source = program_text(&circuit, &[check.spec()]);
                    if oracle.answer(&source, &circuit, &INPUTS, check).is_some() {
                        break candidate;
                    }
                };
                bodies.push(next);
            }
            let revisions = bodies
                .iter()
                .enumerate()
                .map(|(r, body)| {
                    let circuit = program_from(body);
                    Revision {
                        source: program_text(&circuit, &[check.spec()]),
                        circuit,
                        class: if r == 0 { "cold" } else { "warm" },
                    }
                })
                .collect();
            Stream {
                seed: rng.gen(),
                revisions,
            }
        })
        .collect()
}

fn verifier((circuit, assertions): Parsed) -> Verifier {
    let mut v = Verifier::new(circuit)
        .input_qubits(&INPUTS)
        .incremental(SegmentedConfig::default());
    for a in assertions {
        v = v.assert_that(a);
    }
    v
}

/// What one timed revision reported.
#[derive(Debug, Clone, Copy)]
struct Done {
    passed: bool,
    hits: u64,
    misses: u64,
    /// Traced runs: the plain path's verdict on the same revision.
    plain_passed: Option<bool>,
}

/// Verifies one revision incrementally (untraced: exactly
/// `try_run_incremental`).
fn run_untraced(source: &str, seed: u64, cache: &mut SegmentedCache) -> Result<Done, MorphError> {
    let v = verifier(span("qprog.parse", || parse(source))?);
    let report = v.try_run_incremental(&mut StdRng::seed_from_u64(seed), cache)?;
    let summary = report.run.cache.unwrap_or_default();
    Ok(Done {
        passed: report.all_passed(),
        hits: summary.segment_hits,
        misses: summary.segment_misses,
        plain_passed: None,
    })
}

/// Traced revision. `try_run_incremental` is characterize-incremental
/// then validate on one RNG stream; the traced run makes the same two
/// calls through their public entry points so each gets its own span.
fn run_traced(source: &str, seed: u64, cache: &mut SegmentedCache) -> Result<Done, MorphError> {
    let v = verifier(span("qprog.parse", || parse(source))?);
    let config = v.characterization_config().clone();
    let mut rng = StdRng::seed_from_u64(seed);
    let inc = span("morphqpv.incremental", || {
        try_characterize_incremental(v.circuit(), &config, &v.segmented_config(), &mut rng, cache)
    })?;
    let segments = inc.segments;
    let cancel = CancelToken::new();
    let report = span("morphqpv.validate", || {
        v.try_validate_with(inc.characterization, &mut rng, None, &cancel)
    })?;
    Ok(Done {
        passed: report.all_passed(),
        hits: segments.hits,
        misses: segments.misses,
        plain_passed: None,
    })
}

/// The probes of one traced revision, run after it and outside its
/// `bench/op` span. First the segment planning, cache lookups, segment
/// fits and cache writes the incremental call makes internally are
/// repeated against `twin` — a second cache that sees the same sequence
/// of revisions — so each is timed without perturbing the real call.
/// Then the plain path verifies the same revision as the baseline; its
/// verdict is returned.
fn probe(source: &str, seed: u64, twin: &mut SegmentedCache) -> Result<bool, MorphError> {
    let _probe = morph_trace::span(crate::plain::PROBE_SPAN);
    let v = verifier(parse(source)?);
    let config = v.characterization_config().clone();
    let seg = v.segmented_config();
    let master_seed: u64 = StdRng::seed_from_u64(seed).gen();
    let (plan, fps) = span("morphqpv.segment_plan", || {
        let plan = segment_plan(v.circuit(), &seg)?;
        let fps: Vec<Fingerprint> = plan
            .segments
            .iter()
            .map(|s| segment_fingerprint(s, &config, master_seed))
            .collect();
        Ok::<_, MorphError>((plan, fps))
    })?;
    let mut seen = std::collections::BTreeSet::new();
    for (segment, fp) in plan.segments.iter().zip(&fps) {
        if !seen.insert(*fp) || span("store.get", || twin.get(fp)).is_some() {
            continue;
        }
        let artifact = span("morphqpv.segment_fit", || {
            characterize_segment(segment, &config, segment_seed(fp))
        });
        let _ = span("store.put", || twin.put(*fp, &artifact));
    }
    let cancel = CancelToken::new();
    let plain = span("plain.verify", || {
        let ch = v.try_characterize_for_seed(seed, &cancel)?;
        v.try_validate_with(ch, &mut StdRng::seed_from_u64(seed), None, &cancel)
    })?;
    Ok(plain.all_passed())
}

fn verdict(passed: bool) -> Answer {
    if passed {
        Answer::Passed
    } else {
        Answer::Refuted
    }
}

struct Timed {
    stream: usize,
    revision: usize,
    ms: f64,
    result: Result<Done, String>,
}

/// Runs streams `range` of `streams` once, each against fresh caches in
/// `dir`.
fn run_streams(
    streams: &[Stream],
    range: std::ops::Range<usize>,
    dir: &Path,
    traced: bool,
    out: &mut Vec<Timed>,
) {
    for (s, stream) in streams.iter().enumerate().take(range.end).skip(range.start) {
        let open = |tag: &str| SegmentedCache::open(dir.join(format!("s{s}-{tag}")));
        let (mut cache, mut twin) = match (open("real"), open("twin")) {
            (Ok(c), Ok(t)) => (c, t),
            (Err(e), _) | (_, Err(e)) => {
                out.push(Timed {
                    stream: s,
                    revision: 0,
                    ms: 0.0,
                    result: Err(format!("cache: {e}")),
                });
                continue;
            }
        };
        for (r, rev) in stream.revisions.iter().enumerate() {
            let t = Instant::now();
            let result = span(crate::layers::OP_SPAN, || {
                if traced {
                    run_traced(&rev.source, stream.seed, &mut cache)
                } else {
                    run_untraced(&rev.source, stream.seed, &mut cache)
                }
            });
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let result = result.and_then(|mut done| {
                if traced {
                    done.plain_passed = Some(probe(&rev.source, stream.seed, &mut twin)?);
                }
                Ok(done)
            });
            crate::speed::after_op();
            out.push(Timed {
                stream: s,
                revision: r,
                ms,
                result: result.map_err(|e| e.to_string()),
            });
        }
    }
}

/// Runs the `revise` workload.
pub fn run(ctx: &crate::Ctx) -> crate::Outcome {
    let mut oracle = Oracle::default();
    // Set-up builds the streams; the oracle's time is known answers, not
    // set-up. It is timed again, at reference speed, before every chunk
    // of the untraced phase.
    let mut set_up = || {
        let t = Instant::now();
        let spent = oracle.spent;
        let streams = build(ctx.seed, &mut oracle);
        let secs = (t.elapsed() - (oracle.spent - spent)).as_secs_f64();
        (streams, secs)
    };
    let (streams, _) = set_up();
    let mut chunk_no = 0;
    let mut measure = |seconds: f64, traced: bool, between: &mut dyn FnMut() -> Option<f64>| {
        let mut timed = Vec::new();
        let measured = crate::run_passes(seconds, STREAMS / CHUNK_STREAMS, between, |c| {
            let range = c * CHUNK_STREAMS..(c + 1) * CHUNK_STREAMS;
            let dir = ctx.work.join(format!("c{chunk_no}"));
            run_streams(&streams, range, &dir, traced, &mut timed);
            chunk_no += 1;
        });
        (timed, measured)
    };
    let grade = |timed: &[Timed], answers: &[Vec<Option<Answer>>], problems: &mut Vec<String>| {
        let mut errors = 0;
        let ops: Vec<Op> = timed
            .iter()
            .map(|t| {
                let answer = answers[t.stream][t.revision];
                if answer.is_none() {
                    problems.push(format!(
                        "stream {} revision {}: undecided known answer",
                        t.stream, t.revision
                    ));
                }
                let ok = match &t.result {
                    Ok(done) => answer == Some(verdict(done.passed)),
                    Err(e) => {
                        errors += 1;
                        problems.push(format!("stream {} revision {}: {e}", t.stream, t.revision));
                        false
                    }
                };
                Op {
                    class: streams[t.stream].revisions[t.revision].class.to_string(),
                    ms: t.ms,
                    ok,
                }
            })
            .collect();
        (ops, errors)
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
    // Known answers, after the measured phases (revisions built by edits
    // were decided during set-up; the rest are decided here).
    let answers: Vec<Vec<Option<Answer>>> = streams
        .iter()
        .map(|s| {
            s.revisions
                .iter()
                .map(|r| oracle.answer(&r.source, &r.circuit, &INPUTS, Check::Equal))
                .collect()
        })
        .collect();
    let mut problems = Vec::new();
    let (ops, errors) = grade(&timed, &answers, &mut problems);
    let mut report = crate::speed::note(&measured, &ops);
    let ops = measured.at_reference_speed(ops);
    let e2e = EndToEnd::from_ops(setup_s, &ops, &measured);
    let mut layers = Vec::new();
    if let Some((t_timed, t_measured)) = traced_run {
        let (_, profile) = crate::layers::collect(&ctx.trace_schema, &mut problems);
        let (t_ops, _) = grade(&t_timed, &answers, &mut problems);
        let t_ops = t_measured.at_reference_speed(t_ops);
        let traced = EndToEnd::from_ops(setup_s, &t_ops, &t_measured);
        let done: Vec<(&Timed, Done)> = t_timed
            .iter()
            .filter_map(|t| t.result.as_ref().ok().map(|d| (t, *d)))
            .collect();
        let n = t_timed.len() as f64;
        let (hits, misses): (u64, u64) = done
            .iter()
            .fold((0, 0), |(h, m), (_, d)| (h + d.hits, m + d.misses));
        let plain_ok = done
            .iter()
            .filter(|(t, d)| answers[t.stream][t.revision] == d.plain_passed.map(verdict))
            .count();
        let parts: f64 = [
            "morphqpv.segment_plan",
            "store.get",
            "morphqpv.segment_fit",
            "store.put",
        ]
        .iter()
        .map(|s| profile.ms_per_op(s))
        .sum();
        let mut rows = crate::layers::common_rows(&profile, &e2e, &traced);
        rows.extend(
            [
                (
                    "morphqpv.compose_ms",
                    profile.ms_per_op("morphqpv.incremental") - parts,
                    "ms",
                ),
                (
                    "morphqpv.segment_hit_frac",
                    hits as f64 / (hits + misses).max(1) as f64,
                    "ratio",
                ),
                ("morphqpv.segment_misses", misses as f64 / n, "count"),
                ("plain.ok_frac", plain_ok as f64 / n, "ratio"),
            ]
            .map(|(a, b, c)| (a.to_string(), b, c.to_string())),
        );
        layers = rows;
        report.push_str(&crate::layers::render(&profile, &e2e, &traced));
    }
    for class in ["cold", "warm"] {
        let ms: Vec<f64> = ops
            .iter()
            .filter(|o| o.class == class)
            .map(|o| o.ms)
            .collect();
        let ok = ops.iter().filter(|o| o.class == class && o.ok).count();
        if !ms.is_empty() {
            report.push_str(&format!(
                "class {class:<6} n={:<5} median_ms={:>9.3} ok={ok}\n",
                ms.len(),
                crate::stats::median(&ms)
            ));
        }
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
