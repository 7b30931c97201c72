//! `perfbench --workload <corpus|revise|serve> --seed N --seconds S
//! --trace <0|1> [--serve-bin PATH]`
//!
//! Runs one workload from the checkout root and prints a human-readable
//! report followed by one JSON result line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{stats, Ctx, Outcome, Row};

const USAGE: &str = "usage: perfbench --workload <corpus|revise|serve> --seed N --seconds S --trace <0|1> [--serve-bin PATH]";

fn parse(argv: &[String]) -> Result<(String, Ctx), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut serve_bin = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(value()? == "1"),
            "--serve-bin" => serve_bin = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let ctx = Ctx {
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        work: root
            .join(".perfbench_work")
            .join(std::process::id().to_string()),
        serve_bin: serve_bin.unwrap_or_else(|| root.join("target/release/morph-serve")),
        trace_schema: root.join("docs/trace-schema.json"),
    };
    Ok((workload.ok_or("missing --workload")?, ctx))
}

/// `(name, unit)` of every per-layer metric in the benchmark definition.
fn per_layer_metrics(path: &std::path::Path) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc = serde::json::parse(&text).map_err(|e| format!("{e:?}"))?;
    let metrics = doc
        .get("per_layer")
        .and_then(|m| m.as_array())
        .ok_or("no per_layer list")?;
    metrics
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(|v| v.as_str()).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| "per_layer entry without name or unit".to_string())
        })
        .collect()
}

/// Workspace `.rs` lines outside `crates/shims` (informational: nothing
/// gates on it).
fn workspace_rs_lines(dir: &std::path::Path) -> u64 {
    let mut total = 0;
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !name.starts_with('.') && name != "target" && name != "shims" && name != "perfbench"
            {
                total += workspace_rs_lines(&path);
            }
        } else if name.ends_with(".rs") {
            total += std::fs::read_to_string(&path).map_or(0, |t| t.lines().count() as u64);
        }
    }
    total
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (workload, ctx) = match parse(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !ctx.trace_schema.is_file() {
        eprintln!(
            "perfbench: run from the root of a repository checkout ({} is missing)",
            ctx.trace_schema.display()
        );
        return ExitCode::from(2);
    }
    // A traced run prints every per-layer metric `BENCHMARK.json` lists;
    // one the workload does not exercise reads 0.
    let per_layer = match per_layer_metrics(std::path::Path::new("BENCHMARK.json")) {
        Ok(list) => list,
        Err(e) => {
            eprintln!("perfbench: BENCHMARK.json: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("perfbench: {}: {e}", ctx.work.display());
        return ExitCode::from(2);
    }
    let outcome: Outcome = match workload.as_str() {
        "corpus" => perfbench::corpus::run(&ctx),
        "revise" => perfbench::revise::run(&ctx),
        "serve" => perfbench::serve::run(&ctx),
        other => {
            eprintln!("perfbench: unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    if let Some(parent) = ctx.work.parent() {
        let _ = std::fs::remove_dir(parent);
    }

    print!("{}", outcome.report);
    for (q, label) in [(0.5, "p50"), (0.9, "p90")] {
        let (class, share) = stats::class_at(&outcome.ops, q);
        println!(
            "{label} class: {class} ({:.0}% of the samples within 2.5% of its rank)",
            share * 100.0
        );
    }
    let mut ms: Vec<f64> = outcome.ops.iter().map(|o| o.ms).collect();
    ms.sort_by(f64::total_cmp);
    let beyond = ms
        .iter()
        .filter(|&&m| m > outcome.e2e.latency_p90_ms)
        .count();
    println!(
        "operations: {} ({beyond} beyond p90, {} errors)",
        ms.len(),
        outcome.errors
    );
    for p in &outcome.problems {
        println!("problem: {p}");
    }

    let rows: Vec<Row> = if ctx.trace {
        let mut layers = outcome.layers;
        let root = std::env::current_dir().unwrap_or_default();
        layers.push((
            "info.workspace_rs_lines".to_string(),
            workspace_rs_lines(&root) as f64,
            "count".to_string(),
        ));
        per_layer
            .into_iter()
            .map(|(name, unit)| {
                let value = layers.iter().find(|r| r.0 == name).map_or(0.0, |r| r.1);
                (name, value, unit)
            })
            .collect()
    } else {
        outcome
            .e2e
            .rows()
            .into_iter()
            .map(|(n, v, u)| (n.to_string(), v, u.to_string()))
            .collect()
    };
    let not_finite: Vec<&str> = rows
        .iter()
        .filter(|r| !r.1.is_finite())
        .map(|r| r.0.as_str())
        .collect();
    for name in &not_finite {
        println!("problem: {name} is not finite");
    }
    let attempted = outcome.ops.len();
    let correct = outcome.errors == 0
        && outcome.problems.is_empty()
        && not_finite.is_empty()
        && attempted > 0;
    println!(
        "{}",
        stats::result_line(correct, attempted, outcome.errors, &rows)
    );
    ExitCode::SUCCESS
}
