//! The `serve` workload: open-loop traffic against a spawned
//! `morph-serve --listen` with `--workers` = available cores and a
//! `--cache-dir` created for the run.
//!
//! One client holds one keep-alive connection per core, each driven by
//! one thread, and sends a seeded Poisson schedule at a fixed rate,
//! dealing requests to the connections in turn. Each request is timed
//! from its due time, so a stall delays every request queued behind it.
//! Request classes, by share of the schedule:
//!
//! - `hot` (62%): a program computed during set-up, repeated — the
//!   characterization cache hits and only validation runs;
//! - `cold` (24%): a pool program with a fresh seed — characterize,
//!   validate, publish the artifact to disk;
//! - `burst` (6%, counted as `cold`): a fresh request sent three times
//!   back to back — one leader computes, the others coalesce;
//! - `refused` (8%): a malformed line or a zero deadline, answered
//!   in-band with an error status.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use morph_qalgo::{ghz, inject_phase_bug, xeb_circuit, Qnn, QuantumLock};
use morph_qprog::Circuit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::json::Value;

use crate::emit::program_text;
use crate::oracle::{Answer, Check, Oracle};
use crate::stats::{cpu_seconds, peak_rss_mb, quantile, EndToEnd, Op};

/// Requests per second offered by the schedule. With the pool below the
/// server's CPU is busy about an eighth of the time on two cores, and a
/// response mostly waits on the client's delayed ACK (the server does not
/// set `TCP_NODELAY`), a kernel timer rather than the machine's speed.
/// Higher rates let CPU steal on a shared 2-vCPU machine build backlogs
/// past the per-connection in-flight quota, and tie latency to the
/// machine's speed at the moment.
pub const RATE_PER_S: f64 = 60.0;
/// Copies of each burst request.
pub const BURST: usize = 3;
/// Sampled inputs per job (the input register has 2 qubits).
pub const SAMPLES: usize = 16;

/// A running `morph-serve --listen` child.
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    /// Kept open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// `HOST:PORT` the listener announced.
    pub addr: String,
}

impl Server {
    /// Starts the server with a cache in `cache_dir` (and a trace export
    /// to `trace` when given) and waits for its `listening on` line.
    ///
    /// # Errors
    ///
    /// A message when the binary cannot start or never announces.
    pub fn start(bin: &Path, cache_dir: &Path, trace: Option<&Path>) -> Result<Server, String> {
        let workers = std::thread::available_parallelism().map_or(2, |n| n.get());
        let mut cmd = Command::new(bin);
        cmd.args([
            "--listen",
            "127.0.0.1:0",
            "--workers",
            &workers.to_string(),
            "--cache-dir",
        ])
        .arg(cache_dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
        if let Some(t) = trace {
            cmd.arg("--trace-json").arg(t);
        }
        let mut child = cmd.spawn().map_err(|e| format!("{}: {e}", bin.display()))?;
        let stdin = child.stdin.take();
        let mut line = String::new();
        let mut stdout = BufReader::new(child.stdout.take().ok_or("no server stdout")?);
        stdout.read_line(&mut line).map_err(|e| e.to_string())?;
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .map(str::to_string);
        let mut server = Server {
            child,
            stdin,
            _stdout: stdout,
            addr: String::new(),
        };
        match addr {
            Some(a) => {
                server.addr = a;
                Ok(server)
            }
            None => {
                server.stop();
                Err(format!("server did not announce its address: {line:?}"))
            }
        }
    }

    /// The server's process id, for `/proc` readings.
    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Closes stdin (the server's shutdown signal) and waits for exit.
    pub fn stop(&mut self) {
        self.stdin.take();
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A pool program: surface text and its known verdict.
#[derive(Debug, Clone)]
pub struct PoolProgram {
    pub name: String,
    pub source: String,
    pub answer: Option<Answer>,
}

fn mirror(n: usize, body: &Circuit, reference: &Circuit) -> Circuit {
    let mut c = Circuit::new(n);
    c.tracepoint(1, &[0, 1]);
    c.extend_from(body);
    c.extend_from(&reference.inverse());
    c.tracepoint(2, &[0, 1]);
    c
}

/// Pool templates: name, and whether the template's programs are correct
/// (the others carry a visible phase bug).
const TEMPLATES: [(&str, bool); 8] = [
    ("QNN-8", true),
    ("XEB-10", true),
    ("GHZ-12", true),
    ("QNN-10", true),
    ("QL-12", true),
    ("XEB-8", false),
    ("QNN-12", false),
    ("XEB-12", false),
];

/// Random instances of each template in the pool: many programs, so the
/// traffic's cost averages over circuits instead of resting on a few.
pub const POOL_INSTANCES: usize = 8;

/// The request pool: `POOL_INSTANCES` random programs per template (8–12
/// qubits, inputs on qubits 0 and 1), each a mirror of a paper program;
/// the buggy templates carry a phase bug the exact check confirms.
pub fn pool(seed: u64, oracle: &mut Oracle) -> Vec<PoolProgram> {
    let mut rng = StdRng::seed_from_u64(crate::mix(seed, 0x7365_7276));
    let check = Check::Equal;
    let mut out = Vec::new();
    for _ in 0..POOL_INSTANCES {
        for (name, correct) in TEMPLATES {
            let reference = match name {
                "QNN-8" => Qnn::random(8, 2, &mut rng).body(),
                "QNN-10" => Qnn::random(10, 2, &mut rng).body(),
                "QNN-12" => Qnn::random(12, 1, &mut rng).body(),
                "XEB-8" => xeb_circuit(8, 6, &mut rng),
                "XEB-10" => xeb_circuit(10, 6, &mut rng),
                "XEB-12" => xeb_circuit(12, 4, &mut rng),
                "GHZ-12" => ghz(12),
                _ => QuantumLock::new(12, rng.gen_range(0..1 << 11)).circuit(),
            };
            let n = reference.n_qubits();
            let circuit = if correct {
                mirror(n, &reference, &reference)
            } else {
                loop {
                    let (bug, _) = inject_phase_bug(&reference, &mut rng);
                    let c = mirror(n, &bug, &reference);
                    let key = program_text(&c, &[check.spec()]);
                    if oracle.answer(&key, &c, &[0, 1], check) == Some(Answer::Refuted) {
                        break c;
                    }
                }
            };
            let source = program_text(&circuit, &[check.spec()]);
            let answer = oracle.answer(&source, &circuit, &[0, 1], check);
            out.push(PoolProgram {
                name: name.to_string(),
                source,
                answer,
            });
        }
    }
    out
}

/// JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A `verify` request line.
fn verify_line(id: &str, program: &str, seed: u64, deadline_ms: Option<u64>) -> String {
    let deadline = deadline_ms.map_or(String::new(), |d| format!(",\"deadline_ms\":{d}"));
    format!(
        "{{\"id\":{},\"program\":{},\"input_qubits\":[0,1],\"seed\":{seed},\"samples\":{SAMPLES}{deadline}}}",
        json_str(id),
        json_str(program)
    )
}

/// What a request must be answered with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expect {
    /// `passed`, `refuted` or `error`.
    pub status: &'static str,
    /// The error kind for `error`.
    pub kind: Option<&'static str>,
}

/// One scheduled request (a burst is `BURST` lines with one due time).
#[derive(Debug, Clone)]
pub struct Scheduled {
    /// Offset of the due time from the start of the measured phase.
    pub due: Duration,
    pub class: &'static str,
    pub lines: Vec<String>,
    pub expect: Expect,
}

fn expect_for(answer: Option<Answer>) -> Expect {
    match answer {
        Some(Answer::Passed) => Expect {
            status: "passed",
            kind: None,
        },
        Some(Answer::Refuted) => Expect {
            status: "refuted",
            kind: None,
        },
        None => Expect {
            status: "undecided",
            kind: None,
        },
    }
}

/// The seeded schedule: exact class counts (so each class's share is
/// fixed), shuffled, at Poisson arrival times scaled to span `seconds`.
pub fn schedule(seed: u64, seconds: f64, pool: &[PoolProgram], hot_seed: u64) -> Vec<Scheduled> {
    let mut rng = StdRng::seed_from_u64(crate::mix(seed, 0x7363_6864));
    let total = (RATE_PER_S * seconds).round().max(50.0) as usize;
    // Shares in requests (a burst counts its copies).
    let bursts = (total as f64 * 0.06 / BURST as f64).round() as usize;
    let refused = (total as f64 * 0.08).round() as usize;
    let cold = (total as f64 * 0.24).round() as usize;
    let hot = total - bursts * BURST - refused - cold;
    let mut kinds: Vec<&'static str> = Vec::new();
    kinds.extend(std::iter::repeat("hot").take(hot));
    kinds.extend(std::iter::repeat("cold").take(cold));
    kinds.extend(std::iter::repeat("burst").take(bursts));
    kinds.extend(std::iter::repeat("refused").take(refused));
    crate::shuffle(&mut kinds, &mut rng);
    // Exponential gaps, rescaled so the last arrival lands at `seconds`.
    let gaps: Vec<f64> = kinds
        .iter()
        .map(|_| -(1.0 - rng.gen::<f64>()).ln())
        .collect();
    let scale = seconds / gaps.iter().sum::<f64>();
    let mut at = 0.0;
    kinds
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            at += gaps[i] * scale;
            let p = &pool[rng.gen_range(0..pool.len())];
            let fresh: u64 = rng.gen_range(1_000_000..u64::from(u32::MAX));
            let id = format!("r{i}");
            let (lines, expect) = match kind {
                "hot" => (
                    vec![verify_line(&id, &p.source, hot_seed, None)],
                    expect_for(p.answer),
                ),
                "cold" => (
                    vec![verify_line(&id, &p.source, fresh, None)],
                    expect_for(p.answer),
                ),
                "burst" => (
                    (0..BURST)
                        .map(|b| verify_line(&format!("{id}.{b}"), &p.source, fresh, None))
                        .collect(),
                    expect_for(p.answer),
                ),
                _ if i % 2 == 0 => (
                    vec![format!("{{\"id\":{},\"program\":", json_str(&id))],
                    Expect {
                        status: "error",
                        kind: Some("invalid_request"),
                    },
                ),
                _ => (
                    vec![verify_line(&id, &p.source, fresh, Some(0))],
                    Expect {
                        status: "error",
                        kind: Some("deadline_exceeded"),
                    },
                ),
            };
            Scheduled {
                due: Duration::from_secs_f64(at),
                class: if kind == "burst" { "cold" } else { kind },
                lines,
                expect,
            }
        })
        .collect()
}

/// A request's outcome as the client saw it.
#[derive(Debug, Clone)]
pub struct Answered {
    pub class: &'static str,
    /// Response time minus due time (for a lost request, the give-up
    /// horizon minus due time).
    pub ms: f64,
    /// Send time minus due time.
    pub late_ms: f64,
    pub ok: bool,
    /// The server shed the request (queue or in-flight quota full).
    pub shed: bool,
    /// The response was missing or unreadable.
    pub lost: bool,
}

/// Grades a response line: `(matches the known status, was shed by the
/// server's admission control)`. A shed request (`rejected`, because a
/// queue or quota was full) did not complete; it is a failure, not a
/// wrong answer.
fn grade(line: &str, expect: &Expect) -> (bool, bool) {
    let Ok(v) = serde::json::parse(line) else {
        return (false, false);
    };
    let status = v.get("status").and_then(Value::as_str);
    let kind = v
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Value::as_str);
    let ok = status == Some(expect.status) && (expect.kind.is_none() || kind == expect.kind);
    (ok, !ok && status == Some("rejected"))
}

/// How long the client sleeps between polls of an idle connection.
const POLL: Duration = Duration::from_micros(250);

/// How long past its last due time a connection waits for responses.
const GIVE_UP: Duration = Duration::from_secs(60);

/// Drives one connection through its share of the schedule: writes each
/// request at its due time and reads responses (in request order) as
/// they arrive. The socket is non-blocking and polled every [`POLL`]:
/// socket read timeouts are rounded to the kernel's tick, which would
/// make the generator run late.
fn drive(addr: &str, start: Instant, items: Vec<&Scheduled>) -> Vec<Answered> {
    let give_up = start + items.last().map_or(Duration::ZERO, |s| s.due) + GIVE_UP;
    // A lost request is charged the whole wait, up to the give-up horizon.
    let lost = |s: &Scheduled| Answered {
        class: s.class,
        ms: give_up.duration_since(start + s.due).as_secs_f64() * 1e3,
        late_ms: 0.0,
        ok: false,
        shed: false,
        lost: true,
    };
    let all_lost = |items: &[&Scheduled]| {
        items
            .iter()
            .flat_map(|s| s.lines.iter().map(move |_| lost(s)))
            .collect()
    };
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return all_lost(&items);
    };
    if stream
        .set_nodelay(true)
        .and_then(|()| stream.set_nonblocking(true))
        .is_err()
    {
        return all_lost(&items);
    }
    // Outstanding lines in send order: (schedule item, due, sent).
    let mut pending: std::collections::VecDeque<(&Scheduled, Instant, Instant)> =
        Default::default();
    let mut out = Vec::new();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 65536];
    let mut next = 0;
    while next < items.len() || !pending.is_empty() {
        let now = Instant::now();
        if next < items.len() && start + items[next].due <= now {
            let item = items[next];
            let text: String = item.lines.iter().map(|l| format!("{l}\n")).collect();
            let sent = Instant::now();
            if write_fully(&mut stream, text.as_bytes()).is_err() {
                break;
            }
            for _ in &item.lines {
                pending.push_back((item, start + item.due, sent));
            }
            next += 1;
            continue;
        }
        if now > give_up {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                let arrived = Instant::now();
                while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = buf.drain(..=pos).collect();
                    let Some((item, due, sent)) = pending.pop_front() else {
                        break;
                    };
                    let (ok, shed) = grade(String::from_utf8_lossy(&line).trim(), &item.expect);
                    out.push(Answered {
                        class: item.class,
                        ms: arrived.duration_since(due).as_secs_f64() * 1e3,
                        late_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
                        ok,
                        shed,
                        lost: false,
                    });
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                let until_due = items
                    .get(next)
                    .map_or(POLL, |i| (start + i.due).saturating_duration_since(now));
                std::thread::sleep(until_due.min(POLL));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    out.extend(pending.iter().map(|(item, ..)| lost(item)));
    for item in &items[next..] {
        out.extend(item.lines.iter().map(|_| lost(item)));
    }
    out
}

/// `write_all` on a non-blocking socket.
fn write_fully(stream: &mut TcpStream, mut bytes: &[u8]) -> std::io::Result<()> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Sends `schedule` over one connection per core, round-robin, starting
/// now; returns every answered line.
pub fn send(addr: &str, schedule: &[Scheduled]) -> Vec<Answered> {
    let conns = std::thread::available_parallelism().map_or(2, |n| n.get());
    let mut lanes: Vec<Vec<&Scheduled>> = vec![Vec::new(); conns];
    for (i, item) in schedule.iter().enumerate() {
        lanes[i % conns].push(item);
    }
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .into_iter()
            .map(|items| scope.spawn(move || drive(addr, start, items)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect()
    })
}

/// Starts a server and primes it with every pool program at the hot seed
/// (the warm-up a deployment does before taking traffic).
fn start_primed(
    ctx: &crate::Ctx,
    tag: &str,
    pool: &[PoolProgram],
    hot_seed: u64,
    trace: bool,
) -> Result<Server, String> {
    let dir = ctx.work.join(format!("serve-{tag}"));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let trace_path = dir.join("trace.json");
    let server = Server::start(
        &ctx.serve_bin,
        &dir.join("cache"),
        trace.then_some(trace_path.as_path()),
    )?;
    let prime: Vec<Scheduled> = pool
        .iter()
        .enumerate()
        .map(|(i, p)| Scheduled {
            due: Duration::ZERO,
            class: "prime",
            lines: vec![verify_line(&format!("prime{i}"), &p.source, hot_seed, None)],
            expect: expect_for(p.answer),
        })
        .collect();
    // In chunks, so no connection holds more unanswered jobs than the
    // server's per-connection in-flight quota admits.
    let answered: Vec<Answered> = prime
        .chunks(32)
        .flat_map(|chunk| send(&server.addr, chunk))
        .collect();
    if answered.len() != prime.len() || answered.iter().any(|a| !a.ok) {
        return Err("priming requests were not answered with their known verdicts".to_string());
    }
    Ok(server)
}

/// One measured phase against `server`: what the client saw, and the
/// server process's wall, CPU and peak memory.
struct Phase {
    answered: Vec<Answered>,
    server: crate::Measured,
}

fn measure(server: &Server, schedule: &[Scheduled]) -> Phase {
    let pid = server.pid();
    let (t0, cpu0) = (Instant::now(), cpu_seconds(&pid));
    let answered = send(&server.addr, schedule);
    Phase {
        answered,
        server: crate::Measured::whole(
            t0.elapsed().as_secs_f64(),
            cpu_seconds(&pid) - cpu0,
            peak_rss_mb(&pid),
        ),
    }
}

fn ops_of(phase: &Phase) -> Vec<Op> {
    phase
        .answered
        .iter()
        .map(|a| Op {
            class: a.class.to_string(),
            ms: a.ms,
            ok: a.ok,
        })
        .collect()
}

fn class_p50(phase: &Phase, class: &str) -> f64 {
    let mut ms: Vec<f64> = phase
        .answered
        .iter()
        .filter(|a| a.class == class && !a.lost)
        .map(|a| a.ms)
        .collect();
    ms.sort_by(f64::total_cmp);
    if ms.is_empty() {
        0.0
    } else {
        quantile(&ms, 0.5)
    }
}

/// Runs the `serve` workload.
pub fn run(ctx: &crate::Ctx) -> crate::Outcome {
    let mut oracle = Oracle::default();
    let pool = pool(ctx.seed, &mut oracle);
    let hot_seed = crate::mix(ctx.seed, 0x0068_6f74);
    let mut problems: Vec<String> = pool
        .iter()
        .filter(|p| p.answer.is_none())
        .map(|p| format!("{}: undecided known answer", p.name))
        .collect();
    let phase_seconds = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let plan = schedule(ctx.seed, phase_seconds, &pool, hot_seed);

    let mut tag = 0;
    let (server, setup_s) = crate::repeated_setup(crate::SETUP_REPEATS, || {
        let t = Instant::now();
        tag += 1;
        let server = start_primed(ctx, &format!("setup{tag}"), &pool, hot_seed, false);
        (server, t.elapsed().as_secs_f64())
    });
    let mut server = match server {
        Ok(s) => s,
        Err(e) => {
            problems.push(e);
            return crate::Outcome {
                e2e: EndToEnd::from_ops(
                    setup_s,
                    &[Op {
                        class: "none".into(),
                        ms: 0.0,
                        ok: false,
                    }],
                    &crate::Measured::whole(1.0, 0.0, 0.0),
                ),
                ops: Vec::new(),
                errors: 1,
                problems,
                layers: Vec::new(),
                report: String::new(),
            };
        }
    };
    let phase = measure(&server, &plan);
    server.stop();
    let ops = ops_of(&phase);
    // Lost and shed requests did not complete; any other mismatch is a
    // wrong answer.
    let errors = phase.answered.iter().filter(|a| a.lost || a.shed).count();
    let wrong = phase
        .answered
        .iter()
        .filter(|a| !a.ok && !a.lost && !a.shed)
        .count();
    if wrong > 0 {
        problems.push(format!("{wrong} responses differ from their known status"));
    }
    let e2e = EndToEnd::from_ops(setup_s, &ops, &phase.server);
    let cores = std::thread::available_parallelism().map_or(2, |n| n.get()) as f64;
    let mut report = format!(
        "schedule: {} lines at {RATE_PER_S}/s over {phase_seconds} s; server busy {:.0}% of {cores} cores; \
         hot p50 {:.3} ms, cold p50 {:.3} ms, refused p50 {:.3} ms\n",
        ops.len(),
        100.0 * phase.server.cpu_s.iter().sum::<f64>() / phase.server.wall_s() / cores,
        class_p50(&phase, "hot"),
        class_p50(&phase, "cold"),
        class_p50(&phase, "refused"),
    );

    let mut layers = Vec::new();
    if ctx.trace {
        let traced = start_primed(ctx, "traced", &pool, hot_seed, true).map(|mut server| {
            let phase = measure(&server, &plan);
            server.stop();
            phase
        });
        match traced {
            Err(e) => problems.push(e),
            Ok(t_phase) => {
                let export = std::fs::read_to_string(ctx.work.join("serve-traced/trace.json"))
                    .unwrap_or_default();
                let doc = crate::layers::parse(&export).unwrap_or_else(|e| {
                    problems.push(e);
                    Value::Null
                });
                problems.extend(crate::layers::lint(&doc, &ctx.trace_schema));
                let mut profile = crate::layers::fold(&doc);
                let t_ops = ops_of(&t_phase);
                profile.ops = t_ops.len() as u64;
                let traced_e2e = EndToEnd::from_ops(setup_s, &t_ops, &t_phase.server);
                let counter = |name: &str| profile.counters.get(name).copied().unwrap_or(0) as f64;
                let lookups = counter("serve/cache_hit")
                    + counter("serve/characterize_leader")
                    + counter("serve/coalesced_hit");
                let mut jobs = crate::layers::span_durations_ms(&doc, "serve/job");
                jobs.sort_by(f64::total_cmp);
                let job_sum: f64 = jobs.iter().sum();
                let client_sum: f64 = t_phase
                    .answered
                    .iter()
                    .filter(|a| !a.lost)
                    .map(|a| a.ms)
                    .sum();
                let mut late: Vec<f64> = t_phase.answered.iter().map(|a| a.late_ms).collect();
                late.sort_by(f64::total_cmp);
                let depth = crate::layers::gauge_samples(&doc, "serve/queue_depth")
                    .into_iter()
                    .fold(0.0, f64::max);
                let (plain_ms, plain_ok) = plain_baseline(&pool, hot_seed);
                let rows = [
                    (
                        "serve.hit_frac",
                        counter("serve/cache_hit") / lookups.max(1.0),
                        "ratio",
                    ),
                    (
                        "serve.characterize_leader",
                        counter("serve/characterize_leader"),
                        "count",
                    ),
                    (
                        "serve.job_p50_ms",
                        if jobs.is_empty() {
                            0.0
                        } else {
                            quantile(&jobs, 0.5)
                        },
                        "ms",
                    ),
                    (
                        "serve.server_p90_ms",
                        crate::layers::hist_quantile(&doc, "serve/latency_ns", 0.9).unwrap_or(0)
                            as f64
                            / 1e6,
                        "ms",
                    ),
                    ("serve.queue_depth_max", depth, "count"),
                    ("serve.hot_p50_ms", class_p50(&t_phase, "hot"), "ms"),
                    ("serve.cold_p50_ms", class_p50(&t_phase, "cold"), "ms"),
                    (
                        "loadgen.late_p90_ms",
                        if late.is_empty() {
                            0.0
                        } else {
                            quantile(&late, 0.9)
                        },
                        "ms",
                    ),
                    ("plain.verify_ms", plain_ms, "ms"),
                    ("plain.ok_frac", plain_ok, "ratio"),
                    (
                        "trace.overhead_frac",
                        traced_e2e.latency_p50_ms / e2e.latency_p50_ms - 1.0,
                        "ratio",
                    ),
                    (
                        "trace.coverage_frac",
                        job_sum / client_sum.max(1e-9),
                        "ratio",
                    ),
                    ("trace.peak_rss_mb", t_phase.server.rss_mb, "MiB"),
                ];
                layers = rows
                    .iter()
                    .map(|(a, b, c)| (a.to_string(), *b, c.to_string()))
                    .collect();
                report.push_str(&crate::layers::render(&profile, &e2e, &traced_e2e));
            }
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

/// The plain path, in this process, on every pool program at a fresh
/// seed (what a cold request computes): mean milliseconds per program and
/// the share of verdicts equal to the known answer.
fn plain_baseline(pool: &[PoolProgram], seed: u64) -> (f64, f64) {
    let t = Instant::now();
    let ok = pool
        .iter()
        .filter(|p| {
            let job = crate::plain::Job {
                source: &p.source,
                input_qubits: &[0, 1],
                samples: SAMPLES,
                ensemble: morph_clifford::InputEnsemble::Clifford,
                noisy: false,
                shots: None,
            };
            let verdict = crate::plain::verify(&job, seed ^ 1).ok().map(|r| {
                if r.all_passed() {
                    Answer::Passed
                } else {
                    Answer::Refuted
                }
            });
            verdict.is_some() && verdict == p.answer
        })
        .count();
    (
        t.elapsed().as_secs_f64() * 1e3 / pool.len() as f64,
        ok as f64 / pool.len() as f64,
    )
}
