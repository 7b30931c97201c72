//! Command-line verifier: check a surface-syntax program file containing
//! `T <id> q[..]` tracepoints and `// assert <spec>` comments.
//!
//! ```text
//! usage: verify <program.qasm> [--inputs 0,1,...] [--samples N] [--seed S]
//!               [--restarts N] [--cache-dir DIR] [--ensemble NAME]
//!               [--trace-json PATH]
//! ```
//!
//! Exit codes follow the grep convention for checkers:
//!
//! - `0` — every assertion confirmed,
//! - `2` — at least one assertion refuted (a counter-example was found),
//! - `1` — usage, parse, or runtime error (including a structurally failed
//!   solve, e.g. `--restarts 0`).
//!
//! Characterization caching: `--cache-dir DIR` persists characterization
//! artifacts in a morph-store directory, so re-verifying the same
//! program/configuration/seed charges zero new simulator cost. A run
//! without it is uncached. Cached and uncached runs print the same report
//! (a cached run adds one `cache:` line). Re-verifying an edited program
//! is a plain run: with `--cache-dir`, reverting to an earlier revision
//! hits that revision's artifact.
//!
//! `--ensemble NAME` selects the input ensemble (`clifford`, the default;
//! `pauli_product`; `basis`).
//!
//! Telemetry: `--trace-json PATH` (or `MORPH_TRACE=1` for a stderr summary
//! without the file) enables the `morph-trace` recorder and writes the span
//! tree as JSON. Tracing never changes the verification results or the
//! stdout report — only stderr and the trace file carry the extra output.

use std::io::{self, Write};

use morph_linalg::C64;
use morph_store::StoreStats;
use morphqpv::{
    CharacterizationCache, CounterExample, InputEnsemble, MorphError, ValidationConfig, Verdict,
    VerificationReport,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const USAGE: &str = "usage: verify <program.qasm> [--inputs 0,1,...] [--samples N] [--seed S] [--restarts N] [--cache-dir DIR] [--ensemble NAME] [--trace-json PATH]";

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<String> = None;
    let mut inputs: Vec<usize> = Vec::new();
    let mut samples: Option<usize> = None;
    let mut seed = 0u64;
    let mut cache_dir: Option<String> = None;
    let mut restarts: Option<usize> = None;
    let mut trace_json: Option<String> = None;
    let mut ensemble: Option<InputEnsemble> = None;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--inputs" => {
                let Some(v) = it.next() else {
                    eprintln!("--inputs requires a comma-separated list");
                    return 1;
                };
                inputs = match v.split(',').map(|s| s.trim().parse()).collect() {
                    Ok(list) => list,
                    Err(_) => {
                        eprintln!("invalid qubit list {v:?}");
                        return 1;
                    }
                };
            }
            "--samples" => {
                samples = it.next().and_then(|v| v.parse().ok()).filter(|&n| n > 0);
                if samples.is_none() {
                    eprintln!("--samples requires a positive integer");
                    return 1;
                }
            }
            "--seed" => {
                seed = match it.next().and_then(|v| v.parse().ok()) {
                    Some(s) => s,
                    None => {
                        eprintln!("--seed requires an integer");
                        return 1;
                    }
                };
            }
            "--cache-dir" => {
                cache_dir = match it.next() {
                    Some(dir) => Some(dir),
                    None => {
                        eprintln!("--cache-dir requires a directory path");
                        return 1;
                    }
                };
            }
            "--restarts" => {
                restarts = match it.next().and_then(|v| v.parse().ok()) {
                    Some(n) => Some(n),
                    None => {
                        eprintln!("--restarts requires a non-negative integer");
                        return 1;
                    }
                };
            }
            "--ensemble" => {
                let name = it.next();
                ensemble = name.as_deref().and_then(InputEnsemble::from_name);
                if ensemble.is_none() {
                    let got = name.as_deref().unwrap_or("nothing");
                    eprintln!(
                        "--ensemble expects `clifford`, `pauli_product`, or `basis`, got {got}"
                    );
                    return 1;
                }
            }
            "--trace-json" => {
                trace_json = match it.next() {
                    Some(p) => Some(p),
                    None => {
                        eprintln!("--trace-json requires a file path");
                        return 1;
                    }
                };
            }
            other if path.is_none() && !other.starts_with("--") => {
                path = Some(other.to_string());
            }
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!("{USAGE}");
                return 1;
            }
        }
    }
    let Some(path) = path else {
        eprintln!("{USAGE}");
        return 1;
    };
    let source = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return 1;
        }
    };
    // Default input register: qubit 0 (documented in --help text above);
    // the tracepoint pragma determines what gets asserted.
    if inputs.is_empty() {
        inputs = vec![0];
    }

    // All pipeline failures funnel through MorphError so the binary's exit
    // code is the workspace-wide convention (0 passed / 2 refuted / 1
    // failure) rather than ad-hoc per-site values.
    let circuit = match morph_qprog::parse_program(&source) {
        Ok(c) => c,
        Err(e) => {
            let e = MorphError::from(e);
            eprintln!("{e}");
            return e.exit_code();
        }
    };
    let assertions = match morphqpv::assertions_from_source(&source) {
        Ok(a) => a,
        Err(e) => {
            let e = MorphError::from(e);
            eprintln!("{e}");
            return e.exit_code();
        }
    };
    // MORPH_TRACE=1 enables the recorder even without a --trace-json file
    // (summary on stderr); the flag enables it unconditionally.
    morph_trace::enable_from_env();
    if trace_json.is_some() {
        morph_trace::set_enabled(true);
    }

    let mut verifier = morphqpv::Verifier::new(circuit).input_qubits(&inputs);
    if let Some(n) = samples {
        verifier = verifier.samples(n);
    }
    if let Some(e) = ensemble {
        verifier = verifier.ensemble(e);
    }
    if restarts.is_some() {
        verifier = verifier.validation(ValidationConfig {
            solver_restarts: restarts,
            ..ValidationConfig::default()
        });
    }
    for a in assertions {
        verifier = verifier.assert_that(a);
    }

    let cache = match &cache_dir {
        None => None,
        Some(dir) => match CharacterizationCache::open(dir) {
            Ok(cache) => Some(cache),
            Err(e) => {
                eprintln!("cannot open cache directory {dir}: {e}");
                return 1;
            }
        },
    };
    let report = match verifier.try_run(&mut StdRng::seed_from_u64(seed), cache.as_ref()) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{e}");
            write_trace(trace_json.as_deref());
            return e.exit_code();
        }
    };

    // A closed stdout (`verify … | head -1`) is an error exit, not a panic.
    let printed = print_report(
        &mut std::io::stdout().lock(),
        &report,
        cache.as_ref().map(CharacterizationCache::stats),
    );
    if morph_trace::enabled() {
        let run = &report.run;
        eprintln!(
            "trace: {} executions, {} shots, {} quantum ops, solver {} evaluations / {} iterations",
            run.executions,
            run.shots,
            run.quantum_ops,
            run.solver_evaluations,
            run.solver_iterations
        );
        if let Some(c) = &run.cache {
            eprintln!(
                "trace: cache {} hits, {} misses, {} writes, saved {} quantum ops",
                c.hits, c.misses, c.writes, c.cost_saved
            );
        }
    }
    write_trace(trace_json.as_deref());
    match printed {
        Ok(()) => report.exit_code(),
        Err(e) => {
            eprintln!("cannot write the report to stdout: {e}");
            1
        }
    }
}

/// Prints the verdicts, costs, and the `cache:` line when `store_stats` is
/// given.
fn print_report(
    out: &mut impl Write,
    report: &VerificationReport,
    store_stats: Option<StoreStats>,
) -> io::Result<()> {
    for (i, outcome) in report.outcomes.iter().enumerate() {
        match &outcome.verdict {
            Verdict::Passed {
                max_objective,
                confidence,
            } => {
                writeln!(
                    out,
                    "assertion {i}: PASSED (max objective {max_objective:.3e}, confidence {confidence:.3})"
                )?;
            }
            Verdict::Failed {
                max_objective,
                counterexample,
                ..
            } => {
                writeln!(out, "assertion {i}: FAILED (objective {max_objective:.3})")?;
                let refined = CounterExample::refine(counterexample);
                writeln!(
                    out,
                    "  counter-example: {}, dominance {:.2}",
                    witness(&refined),
                    refined.dominance
                )?;
            }
        }
    }
    writeln!(out, "cost: {}", report.ledger())?;
    writeln!(out, "backend: {}", report.run.backend.tag())?;
    // Printed only when a sparse register ran. The stats round-trip
    // through the artifact store, so warm (cached) runs print the same
    // line the cold run did and stdout stays byte-identical.
    let fp = &report.run.fast_path;
    if !fp.is_empty() {
        writeln!(
            out,
            "fast-path: {} spills, {} switches, {} splices, peak {} nonzeros",
            fp.spills, fp.switches, fp.splices, fp.peak_nonzeros
        )?;
    }
    if let Some(stats) = store_stats {
        writeln!(out, "cache: {stats}")?;
    }
    Ok(())
}

/// Names a counter-example's state: its amplitudes for at most two
/// qubits, e.g. `0.707|0> - 0.707|1>`, with the global phase fixed so the
/// largest amplitude (the first, on a tie) is real and positive and terms
/// below 1e-3 omitted; the dominant basis state for wider witnesses.
fn witness(ce: &CounterExample) -> String {
    let n = ce.state.n_qubits();
    if n > 2 {
        return format!("dominant basis state |{:b}>", ce.dominant_basis_state());
    }
    let amps = ce.state.amplitudes();
    let mut top = 0;
    for (i, a) in amps.iter().enumerate() {
        if a.abs() > amps[top].abs() + 1e-9 {
            top = i;
        }
    }
    let phase = amps[top].conj().scale(1.0 / amps[top].abs());
    let mut line = String::new();
    for (i, &a) in amps.iter().enumerate() {
        let a = a * phase;
        if a.abs() < 1e-3 {
            continue;
        }
        let (negative, coefficient) = coefficient(a);
        let sign = match (line.is_empty(), negative) {
            (true, false) => "",
            (true, true) => "-",
            (false, false) => " + ",
            (false, true) => " - ",
        };
        line.push_str(&format!("{sign}{coefficient}|{i:0n$b}>"));
    }
    line
}

/// A nonzero amplitude as a sign and a magnitude at three decimals:
/// `0.707` or `0.707i` when one part rounds to zero, else
/// `(0.500+0.500i)` with the sign taken from the real part.
fn coefficient(a: C64) -> (bool, String) {
    let zero = |x: f64| x.abs() < 5e-4;
    if zero(a.im) {
        (a.re < 0.0, format!("{:.3}", a.re.abs()))
    } else if zero(a.re) {
        (a.im < 0.0, format!("{:.3}i", a.im.abs()))
    } else {
        let negative = a.re < 0.0;
        let a = if negative { -a } else { a };
        let im_sign = if a.im < 0.0 { '-' } else { '+' };
        (
            negative,
            format!("({:.3}{im_sign}{:.3}i)", a.re, a.im.abs()),
        )
    }
}

/// Writes the recorded span tree to `path` as JSON, if a path was given.
fn write_trace(path: Option<&str>) {
    let Some(path) = path else { return };
    if let Err(e) = std::fs::write(path, morph_trace::export_json()) {
        eprintln!("cannot write trace to {path}: {e}");
    }
}
