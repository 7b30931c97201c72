//! `morph-serve` — batch and network front-end for the verification
//! service.
//!
//! **Batch mode** (default): reads newline-delimited JSON job requests
//! from a file (or stdin when no file is given), runs them on the
//! concurrent service, and writes one response line per request to
//! stdout, in request order. Protocol: `docs/serve-protocol.md`.
//!
//! **Listener mode** (`--listen [ADDR]`): binds a TCP socket and serves
//! the same JSON-lines protocol to concurrent keep-alive connections.
//! The bound address is announced on stdout as `listening on HOST:PORT`
//! (port `0` in ADDR lets the OS pick); the process then runs until its
//! stdin reaches EOF, at which point it drains open connections and
//! exits 0.
//!
//! ```text
//! morph-serve [REQUESTS.jsonl] [--listen [ADDR]] [--workers N]
//!             [--queue-cap N] [--cache-dir DIR] [--deadline-ms MS]
//!             [--trace-json PATH]
//! ```
//!
//! Batch exit code: the maximum per-job code under the workspace
//! convention — 0 all assertions passed, 2 at least one refuted, 1 any
//! job failed (including unusable requests). Flag errors exit 1 with
//! usage on stderr.
//!
//! Without flags the service runs the defaults of `ServeConfig` and
//! `ListenerConfig`: one worker per core, a queue of 64, no cache
//! directory, no default deadline, and `--listen` on `127.0.0.1:0` (see
//! `docs/configuration.md`). `--trace-json`
//! enables the `morph-trace` recorder and writes the span/counter export
//! (including the `serve/coalesced_hit` and `serve/characterize_leader`
//! counters, and in listener mode the `serve/latency_ns` histogram) to
//! the given path on exit.

use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use morph_serve::{run_batch, serve_listener, ListenerConfig, ServeConfig, Service};

struct Args {
    requests: Option<PathBuf>,
    config: ServeConfig,
    trace_json: Option<PathBuf>,
    listen: Option<ListenerConfig>,
}

const USAGE: &str = "usage: morph-serve [REQUESTS.jsonl] [--listen [ADDR]] [--workers N] \
[--queue-cap N] [--cache-dir DIR] [--deadline-ms MS] [--trace-json PATH]";

fn take_value(argv: &[String], i: &mut usize, flag: &str) -> Result<String, String> {
    if *i < argv.len() {
        let value = argv[*i].clone();
        *i += 1;
        Ok(value)
    } else {
        Err(format!("{flag} requires a value"))
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        requests: None,
        config: ServeConfig::default(),
        trace_json: None,
        listen: None,
    };
    let mut i = 0;
    while i < argv.len() {
        let arg = argv[i].clone();
        i += 1;
        match arg.as_str() {
            "--listen" => {
                let mut listen = ListenerConfig::default();
                // ADDR is optional: consume the next token only if it
                // looks like host:port rather than another flag.
                if i < argv.len() && !argv[i].starts_with('-') && argv[i].contains(':') {
                    listen.addr = argv[i].clone();
                    i += 1;
                }
                args.listen = Some(listen);
            }
            "--workers" => {
                args.config.workers =
                    parse_count(&take_value(argv, &mut i, "--workers")?, "--workers")?;
            }
            "--queue-cap" => {
                let cap = parse_count(&take_value(argv, &mut i, "--queue-cap")?, "--queue-cap")?;
                if cap == 0 {
                    return Err("--queue-cap must be nonzero".to_string());
                }
                args.config.queue_capacity = cap;
            }
            "--cache-dir" => {
                args.config.cache_dir =
                    Some(PathBuf::from(take_value(argv, &mut i, "--cache-dir")?));
            }
            "--deadline-ms" => {
                args.config.default_deadline_ms = Some(parse_count(
                    &take_value(argv, &mut i, "--deadline-ms")?,
                    "--deadline-ms",
                )? as u64);
            }
            "--trace-json" => {
                args.trace_json = Some(PathBuf::from(take_value(argv, &mut i, "--trace-json")?));
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            path => {
                if args.requests.is_some() {
                    return Err("at most one requests file".to_string());
                }
                args.requests = Some(PathBuf::from(path));
            }
        }
    }
    if args.listen.is_some() && args.requests.is_some() {
        return Err("--listen does not take a requests file".to_string());
    }
    Ok(args)
}

fn parse_count(text: &str, flag: &str) -> Result<usize, String> {
    text.parse()
        .map_err(|_| format!("{flag}: `{text}` is not an unsigned integer"))
}

/// Runs listener mode: announce the bound address, serve until stdin EOF.
fn run_listener(config: &ServeConfig, listen: &ListenerConfig) -> io::Result<i32> {
    let service = Arc::new(Service::start(config)?);
    let listener = serve_listener(Arc::clone(&service), listen)?;
    {
        let mut stdout = io::stdout().lock();
        writeln!(stdout, "listening on {}", listener.local_addr())?;
        stdout.flush()?;
    }
    // Stdin EOF is the shutdown signal: parents (tests, CI, the
    // benchmark) hold a pipe open and close it to stop the server.
    let mut line = String::new();
    let mut stdin = io::stdin().lock();
    loop {
        line.clear();
        if stdin.read_line(&mut line)? == 0 {
            break;
        }
    }
    listener.shutdown();
    // The listener joined every connection thread, so this Arc is unique
    // again; drain the worker pool before exiting.
    if let Ok(service) = Arc::try_unwrap(service) {
        service.shutdown();
    }
    Ok(0)
}

fn run(args: &Args) -> io::Result<i32> {
    if args.trace_json.is_some() {
        morph_trace::set_enabled(true);
    }
    let exit = if let Some(listen) = &args.listen {
        run_listener(&args.config, listen)?
    } else {
        let stdout = io::stdout();
        match &args.requests {
            Some(path) => run_batch(
                BufReader::new(File::open(path)?),
                stdout.lock(),
                &args.config,
            )?,
            None => run_batch(io::stdin().lock(), stdout.lock(), &args.config)?,
        }
    };
    if let Some(path) = &args.trace_json {
        std::fs::write(path, morph_trace::export_json())?;
    }
    Ok(exit)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            if message != USAGE {
                eprintln!("{USAGE}");
            }
            return ExitCode::from(1);
        }
    };
    match run(&args) {
        Ok(code) => ExitCode::from(code.clamp(0, 255) as u8),
        Err(e) => {
            eprintln!("morph-serve: {e}");
            ExitCode::from(1)
        }
    }
}
