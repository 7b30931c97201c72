//! End-to-end tests of the `verify` CLI: exit codes (0 = validated,
//! 2 = counter-example, 1 = error), telemetry output (`--trace-json`,
//! `MORPH_TRACE=1`), and the guarantee that tracing never perturbs the
//! stdout report.
//!
//! The binaries are invoked through `env!("CARGO_BIN_EXE_…")`, so `cargo
//! test` builds them first and no PATH assumptions are needed.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

use serde::json::{parse, Value};

const VERIFY: &str = env!("CARGO_BIN_EXE_verify");
const TRACE_LINT: &str = env!("CARGO_BIN_EXE_trace_lint");

/// A program whose assertions all hold: H·H is the identity.
const PASSING: &str = "qreg q[1];\n\
     T 1 q[0];\n\
     h q[0];\n\
     h q[0];\n\
     T 2 q[0];\n\
     // assert assume is_pure(T1) guarantee equal(T1, T2)\n";

/// A refutable program: X is not the identity.
const FAILING: &str = "qreg q[1];\n\
     T 1 q[0];\n\
     x q[0];\n\
     T 2 q[0];\n\
     // assert guarantee equal(T1, T2)\n";

/// A scratch directory unique to this test, cleaned up by the caller.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("verify-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_program(dir: &std::path::Path, source: &str) -> PathBuf {
    let path = dir.join("program.qasm");
    std::fs::write(&path, source).unwrap();
    path
}

/// Runs `verify` with the given extra args and a scrubbed environment
/// (`MORPH_TRACE` removed unless supplied via `envs`).
fn run_verify(program: &std::path::Path, args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(VERIFY);
    cmd.arg(program).args(args).env_remove("MORPH_TRACE");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("verify binary runs")
}

#[test]
fn passing_program_exits_zero() {
    let dir = scratch("pass");
    let program = write_program(&dir, PASSING);
    let out = run_verify(&program, &[], &[]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("PASSED"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn refuted_program_exits_two_with_counterexample() {
    let dir = scratch("fail");
    let program = write_program(&dir, FAILING);
    let out = run_verify(&program, &[], &[]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("FAILED"), "{stdout}");
    assert!(stdout.contains("counter-example"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The GHZ example's second assertion is refuted by |−⟩, whose P(0) is
/// 0.5: the witness line must name both amplitudes, not one of two tied
/// basis states.
#[test]
fn small_witnesses_print_their_amplitudes() {
    let program =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/programs/ghz.qasm");
    let out = run_verify(&program, &["--seed", "0"], &[]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let line = stdout
        .lines()
        .find(|l| l.contains("counter-example"))
        .unwrap_or_else(|| panic!("no counter-example line: {stdout}"));
    assert!(line.contains("|0>") && line.contains("|1>"), "{line}");
}

#[test]
fn zero_restarts_is_a_structured_error_exit_one() {
    let dir = scratch("restarts");
    let program = write_program(&dir, PASSING);
    let out = run_verify(&program, &["--restarts", "0"], &[]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("no restarts configured"),
        "error should explain the no-restart failure: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn undeclared_tracepoint_is_a_structured_error_exit_one() {
    let dir = scratch("undeclared");
    let program = write_program(
        &dir,
        "qreg q[2];\nT 1 q[0];\nh q[0];\nT 2 q[0,1];\n// assert guarantee is_pure(T9)\n",
    );
    let out = run_verify(&program, &[], &[]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("tracepoint T9"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tracepoint_naming_a_qubit_twice_is_a_parse_error_exit_one() {
    let dir = scratch("repeated");
    let program = write_program(
        &dir,
        "qreg q[2];\nT 1 q[0];\nh q[0];\nT 2 q[1,1];\n\
         // assert assume is_pure(T1) guarantee is_pure(T2)\n",
    );
    let out = run_verify(&program, &[], &[]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("line 4: tracepoint T2 names qubit 1 twice"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `verify … | head -1` closes stdout under the writer: the report cannot
/// be written, which is an error exit, not a panic.
#[test]
fn closed_stdout_is_an_error_exit_one() {
    let dir = scratch("closed-stdout");
    let program = write_program(&dir, PASSING);
    let mut child = Command::new(VERIFY)
        .arg(&program)
        .env_remove("MORPH_TRACE")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("verify binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("verify exits");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn usage_errors_exit_one() {
    let dir = scratch("usage");
    let program = write_program(&dir, PASSING);
    for args in [
        &["--bogus-flag"] as &[&str],
        &["--samples", "zero"],
        &["--restarts"],
        &["--trace-json"],
    ] {
        let out = run_verify(&program, args, &[]);
        assert_eq!(out.status.code(), Some(1), "args {args:?}: {out:?}");
    }
    let missing = Command::new(VERIFY)
        .arg(dir.join("no-such-file.qasm"))
        .output()
        .unwrap();
    assert_eq!(missing.status.code(), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_json_contains_pipeline_spans_and_counters() {
    let dir = scratch("trace");
    let program = write_program(&dir, PASSING);
    let trace_path = dir.join("trace.json");
    let out = run_verify(
        &program,
        &["--trace-json", trace_path.to_str().unwrap()],
        &[],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    let text = std::fs::read_to_string(&trace_path).expect("trace file written");
    let doc = parse(&text).expect("trace file is valid JSON");
    assert_eq!(doc.require("version").unwrap().as_u64(), Some(1));

    let mut names = Vec::new();
    let mut counters: Vec<(String, u64)> = Vec::new();
    collect(&doc, &mut names, &mut counters);
    for expected in [
        "verify/run",
        "characterize",
        "validate/assertion",
        "validate/confidence",
    ] {
        assert!(
            names.iter().any(|n| n == expected),
            "span {expected:?} missing from {names:?}"
        );
    }
    let total = |name: &str| -> u64 {
        counters
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .sum()
    };
    assert!(total("characterize/executions") > 0, "{counters:?}");
    assert!(total("evaluations") > 0, "{counters:?}");
    assert!(total("confidence_probes") > 0, "{counters:?}");
    assert!(total("tomography/readouts") > 0, "{counters:?}");

    // The checked-in schema accepts the export.
    let lint = Command::new(TRACE_LINT)
        .arg(&trace_path)
        .arg(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../docs/trace-schema.json"
        ))
        .output()
        .unwrap();
    assert_eq!(
        lint.status.code(),
        Some(0),
        "trace_lint rejected the export: {}",
        String::from_utf8_lossy(&lint.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Walks the export, collecting every span name and (name, value) counter
/// pair, root counters included.
fn collect(node: &Value, names: &mut Vec<String>, counters: &mut Vec<(String, u64)>) {
    if let Some(name) = node.get("name").and_then(Value::as_str) {
        names.push(name.to_string());
    }
    if let Some(Value::Object(map)) = node.get("counters") {
        for (k, v) in map {
            if let Some(n) = v.as_u64() {
                counters.push((k.clone(), n));
            }
        }
    }
    for key in ["spans", "children"] {
        if let Some(children) = node.get(key).and_then(Value::as_array) {
            for child in children {
                collect(child, names, counters);
            }
        }
    }
}

#[test]
fn tracing_does_not_change_the_stdout_report() {
    let dir = scratch("stdout");
    let program = write_program(&dir, PASSING);
    let plain = run_verify(&program, &["--seed", "11"], &[]);
    let traced = run_verify(&program, &["--seed", "11"], &[("MORPH_TRACE", "1")]);
    assert_eq!(plain.status.code(), Some(0));
    assert_eq!(traced.status.code(), Some(0));
    assert_eq!(
        plain.stdout, traced.stdout,
        "tracing must leave stdout byte-identical"
    );
    let stderr = String::from_utf8(traced.stderr).unwrap();
    assert!(
        stderr.contains("trace:"),
        "MORPH_TRACE=1 should print the run summary to stderr: {stderr}"
    );
    assert!(
        plain.stderr.is_empty(),
        "untraced run should keep stderr quiet: {:?}",
        String::from_utf8_lossy(&plain.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn morph_trace_zero_keeps_tracing_off() {
    let dir = scratch("trace-off");
    let program = write_program(&dir, PASSING);
    let out = run_verify(&program, &[], &[("MORPH_TRACE", "0")]);
    assert_eq!(out.status.code(), Some(0));
    assert!(
        out.stderr.is_empty(),
        "MORPH_TRACE=0 must not enable the summary: {:?}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
