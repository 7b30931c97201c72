//! End-to-end tests for the `morph-serve` TCP listener: golden replay
//! over a real socket, cross-client coalescing, admission control and the
//! protocol version of refusals, in-band error lines, response latency,
//! long-line framing and bounding, and the release of closed
//! connections' threads.
//!
//! Each test binds `127.0.0.1:0` (the OS picks a free port), talks the
//! newline-delimited JSON protocol through real `TcpStream`s, and shuts
//! the listener down at the end. Tests serialize on one lock, like
//! `tests/serve_service.rs`: some read the process-global trace recorder,
//! and the latency tests time round trips that a concurrent test would
//! slow.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use morphqpv_suite::serve::listener::{serve_listener, Listener, ListenerConfig, MAX_LINE_BYTES};
use morphqpv_suite::serve::{ServeConfig, Service};
use morphqpv_suite::trace;

fn serial() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

const GHZ_PROGRAM: &str = "qreg q[3];\nT 1 q[0];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\nT 2 q[0,1,2];\n// assert assume is_pure(T1) guarantee is_pure(T2)";

/// A request line matching the golden-fixture GHZ job, as raw JSON.
fn ghz_line(id: &str, seed: u64) -> String {
    let program = GHZ_PROGRAM.replace('\n', "\\n");
    format!(
        "{{\"id\":\"{id}\",\"program\":\"{program}\",\"input_qubits\":[0],\"seed\":{seed},\"samples\":4}}"
    )
}

fn start(workers: usize, listen: &ListenerConfig) -> (Arc<Service>, Listener) {
    let service = Arc::new(
        Service::start(&ServeConfig {
            workers,
            queue_capacity: 16,
            ..ServeConfig::default()
        })
        .expect("service starts"),
    );
    let listener = serve_listener(Arc::clone(&service), listen).expect("bind 127.0.0.1:0");
    (service, listener)
}

fn connect(listener: &Listener) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(listener.local_addr()).expect("connect");
    let reader = BufReader::new(stream.try_clone().expect("clone socket"));
    (stream, reader)
}

fn read_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response line");
    assert!(
        line.ends_with('\n'),
        "response lines are newline-terminated"
    );
    line.trim_end_matches('\n').to_string()
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let give_up = Instant::now() + Duration::from_secs(30);
    while !done() {
        assert!(Instant::now() < give_up, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The batch golden fixture must replay byte-for-byte over a socket: same
/// requests in, same response lines out, in request order.
#[test]
fn socket_replay_matches_the_batch_golden_fixture() {
    let _g = serial();
    let requests =
        std::fs::read_to_string("tests/fixtures/serve/requests.jsonl").expect("requests fixture");
    let golden =
        std::fs::read_to_string("tests/fixtures/serve/responses.jsonl").expect("golden fixture");

    let (service, listener) = start(4, &ListenerConfig::default());
    let (mut stream, mut reader) = connect(&listener);
    stream.write_all(requests.as_bytes()).expect("send batch");
    stream.flush().expect("flush");
    // Closing our write side tells the server the conversation is over;
    // it answers everything already read, then closes.
    stream.shutdown(Shutdown::Write).expect("half-close");

    let mut output = String::new();
    reader
        .read_to_string(&mut output)
        .expect("read all responses");
    assert_eq!(
        output, golden,
        "socket transcript drifted from the golden fixture"
    );

    listener.shutdown();
    if let Ok(service) = Arc::try_unwrap(service) {
        service.shutdown();
    }
}

/// Identical requests from two separate clients must run exactly one
/// characterization and answer both byte-identically.
#[test]
fn identical_requests_across_two_clients_share_one_characterization() {
    let _g = serial();
    trace::reset();
    trace::set_enabled(true);

    let (service, listener) = start(2, &ListenerConfig::default());
    // Hold the pool so both jobs are in the system before either runs.
    service.pause();
    let (mut a, mut a_reader) = connect(&listener);
    let (mut b, mut b_reader) = connect(&listener);
    writeln!(a, "{}", ghz_line("same", 7)).expect("send a");
    writeln!(b, "{}", ghz_line("same", 7)).expect("send b");
    a.flush().expect("flush a");
    b.flush().expect("flush b");
    wait_until("both jobs queued", || service.queue_depth() == 2);
    service.resume();

    let line_a = read_line(&mut a_reader);
    let line_b = read_line(&mut b_reader);
    assert_eq!(
        line_a, line_b,
        "cross-client responses must be bit-identical"
    );
    assert!(line_a.contains("\"status\":\"passed\""), "{line_a}");

    let leaders = trace::counter_total("serve/characterize_leader");
    let shared = trace::counter_total("serve/coalesced_hit")
        + trace::counter_total("serve/cache_hit")
        + trace::counter_total("serve/cross_process_hit");
    trace::set_enabled(false);
    assert_eq!(leaders, 1, "exactly one characterization may run");
    assert_eq!(shared, 1, "the second job must share the first's work");

    listener.shutdown();
    if let Ok(service) = Arc::try_unwrap(service) {
        service.shutdown();
    }
}

/// A connection past the quota gets one structured `connection_quota`
/// line and a clean close — never a silent drop.
#[test]
fn connection_quota_is_a_structured_line_then_close() {
    let _g = serial();
    let (service, listener) = start(
        1,
        &ListenerConfig {
            conn_limit: 1,
            ..ListenerConfig::default()
        },
    );
    let (mut a, mut a_reader) = connect(&listener);
    // Round-trip one job so connection A is registered before B arrives.
    writeln!(a, "{}", ghz_line("a-1", 7)).expect("send");
    a.flush().expect("flush");
    let first = read_line(&mut a_reader);
    assert!(first.contains("\"id\":\"a-1\""), "{first}");

    let (_b, mut b_reader) = connect(&listener);
    let refusal = read_line(&mut b_reader);
    assert!(
        refusal.contains("\"kind\":\"connection_quota\""),
        "{refusal}"
    );
    assert!(refusal.contains("\"status\":\"rejected\""), "{refusal}");
    assert!(refusal.contains("\"id\":\"<connection>\""), "{refusal}");
    let mut rest = String::new();
    b_reader.read_to_string(&mut rest).expect("read to close");
    assert!(rest.is_empty(), "quota refusal closes the connection");

    listener.shutdown();
    if let Ok(service) = Arc::try_unwrap(service) {
        service.shutdown();
    }
}

/// A request past the per-connection in-flight quota gets a `job_quota`
/// rejection in its response slot; request order is preserved.
#[test]
fn in_flight_quota_rejects_in_slot_in_request_order() {
    let _g = serial();
    trace::reset();
    trace::set_enabled(true);

    let (service, listener) = start(
        1,
        &ListenerConfig {
            inflight_limit: 1,
            ..ListenerConfig::default()
        },
    );
    // Hold the pool: the first job stays unanswered, so the second
    // request trips the in-flight quota deterministically.
    service.pause();
    let (mut a, mut a_reader) = connect(&listener);
    writeln!(a, "{}", ghz_line("keep", 7)).expect("send");
    writeln!(a, "{}", ghz_line("over", 7)).expect("send");
    a.flush().expect("flush");
    wait_until("the quota rejection", || {
        trace::counter_total("serve/job_quota_rejected") >= 1
    });
    service.resume();

    let first = read_line(&mut a_reader);
    let second = read_line(&mut a_reader);
    trace::set_enabled(false);
    assert!(first.contains("\"id\":\"keep\""), "{first}");
    assert!(first.contains("\"status\":\"passed\""), "{first}");
    assert!(second.contains("\"id\":\"over\""), "{second}");
    assert!(second.contains("\"kind\":\"job_quota\""), "{second}");

    listener.shutdown();
    if let Ok(service) = Arc::try_unwrap(service) {
        service.shutdown();
    }
}

/// A refusal carries the protocol version of the request it answers: a
/// job declaring `"v":1` refused by the in-flight quota answers on
/// `"protocol":1`, like the job it follows.
#[test]
fn refusals_carry_the_protocol_version_of_their_request() {
    let _g = serial();
    trace::reset();
    trace::set_enabled(true);

    let (service, listener) = start(
        1,
        &ListenerConfig {
            inflight_limit: 1,
            ..ListenerConfig::default()
        },
    );
    service.pause();
    let (mut a, mut a_reader) = connect(&listener);
    for id in ["r1", "r2"] {
        send_line(&mut a, &ghz_line(id, 7).replacen('{', r#"{"v":1,"#, 1));
    }
    wait_until("the quota rejection", || {
        trace::counter_total("serve/job_quota_rejected") >= 1
    });
    service.resume();

    let first = read_line(&mut a_reader);
    let second = read_line(&mut a_reader);
    trace::set_enabled(false);
    assert!(first.contains("\"id\":\"r1\""), "{first}");
    assert!(first.contains("\"protocol\":1"), "{first}");
    assert!(second.contains("\"id\":\"r2\""), "{second}");
    assert!(second.contains("\"kind\":\"job_quota\""), "{second}");
    assert!(second.contains("\"protocol\":1"), "{second}");

    listener.shutdown();
    if let Ok(service) = Arc::try_unwrap(service) {
        service.shutdown();
    }
}

/// Unparseable lines answer in-band and do not disturb neighbours:
/// responses stay in request order around the bad line.
#[test]
fn invalid_lines_answer_in_band_in_request_order() {
    let _g = serial();
    let (service, listener) = start(2, &ListenerConfig::default());
    let (mut a, mut a_reader) = connect(&listener);
    writeln!(a, "{}", ghz_line("before", 7)).expect("send");
    writeln!(a, "this is not json").expect("send");
    writeln!(a, "{}", ghz_line("after", 7)).expect("send");
    a.flush().expect("flush");

    let first = read_line(&mut a_reader);
    let second = read_line(&mut a_reader);
    let third = read_line(&mut a_reader);
    assert!(first.contains("\"id\":\"before\""), "{first}");
    assert!(second.contains("\"kind\":\"invalid_request\""), "{second}");
    assert!(third.contains("\"id\":\"after\""), "{third}");
    assert_eq!(
        first.replace("before", "x"),
        third.replace("after", "x"),
        "identical jobs around a bad line still answer identically"
    );

    listener.shutdown();
    if let Ok(service) = Arc::try_unwrap(service) {
        service.shutdown();
    }
}

/// Sends `line` and its newline in one write: a client split across
/// writes would wait on the server's delayed ACK itself.
fn send_line(stream: &mut TcpStream, line: &str) {
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("send line");
}

/// A client holding one request in flight on a keep-alive connection is
/// answered at job speed: no response line waits for the client's delayed
/// ACK (about 40 ms on Linux) to release its last bytes.
#[test]
fn one_request_in_flight_is_answered_at_job_speed() {
    let _g = serial();
    let (service, listener) = start(1, &ListenerConfig::default());
    let (mut a, mut a_reader) = connect(&listener);
    const ROUNDS: u32 = 40;
    let began = Instant::now();
    for i in 0..ROUNDS {
        send_line(&mut a, &format!("not json {i}"));
        let line = read_line(&mut a_reader);
        assert!(line.contains("\"kind\":\"invalid_request\""), "{line}");
    }
    let per_round = began.elapsed() / ROUNDS;
    assert!(
        per_round < Duration::from_millis(10),
        "{per_round:?} per round trip: responses wait on delayed ACKs"
    );

    listener.shutdown();
    if let Ok(service) = Arc::try_unwrap(service) {
        service.shutdown();
    }
}

/// Opens a connection, sends one invalid line, checks its answer and
/// closes.
fn one_shot(listener: &Listener, line: &str) {
    let (mut stream, mut reader) = connect(listener);
    send_line(&mut stream, line);
    let answer = read_line(&mut reader);
    assert!(answer.contains("\"kind\":\"invalid_request\""), "{answer}");
}

/// Each closed connection's thread is released while the listener runs.
/// An exited thread whose handle is kept keeps its stack mapped, so a long
/// run of one-shot clients would exhaust the process's memory mappings.
#[cfg(target_os = "linux")]
#[test]
fn closed_connections_release_their_threads() {
    let _g = serial();
    let (service, listener) = start(1, &ListenerConfig::default());
    let mappings = || {
        std::fs::read_to_string("/proc/self/maps")
            .expect("read /proc/self/maps")
            .lines()
            .count()
    };
    for i in 0..10 {
        one_shot(&listener, &format!("warm-up {i}"));
    }
    let before = mappings();
    for i in 0..100 {
        one_shot(&listener, &format!("not json {i}"));
    }
    let grown = mappings().saturating_sub(before);
    assert!(
        grown < 50,
        "{grown} new memory mappings after 100 closed connections"
    );

    listener.shutdown();
    if let Ok(service) = Arc::try_unwrap(service) {
        service.shutdown();
    }
}

/// An 8 MiB request line arriving in thousands of reads costs time linear
/// in its length, and the short request behind it on the same connection
/// is answered next, in order.
#[test]
fn an_oversized_line_is_framed_in_linear_time() {
    let _g = serial();
    let (service, listener) = start(1, &ListenerConfig::default());
    let (mut stream, mut reader) = connect(&listener);
    reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut bytes = "x".repeat(8 << 20).into_bytes();
    bytes.extend_from_slice(b"\n{\"id\":\"after\"}\n");

    let began = Instant::now();
    // The server reads the line while we send it; sending from another
    // thread keeps a slow server from holding this one past its deadline.
    let sender = std::thread::spawn(move || {
        let _ = stream.write_all(&bytes);
    });
    let mut first = String::new();
    let mut second = String::new();
    let answered = reader
        .read_line(&mut first)
        .and_then(|_| reader.read_line(&mut second));
    let elapsed = began.elapsed();
    assert!(
        answered.is_ok(),
        "no answer within 5 s ({elapsed:?}): framing rescans the pending line"
    );
    assert!(first.contains("\"id\":\"<unknown>\""), "{first}");
    assert!(first.contains("\"kind\":\"invalid_request\""), "{first}");
    assert!(second.contains("\"id\":\"after\""), "{second}");
    assert!(second.contains("\"kind\":\"invalid_request\""), "{second}");
    sender.join().expect("sender");

    listener.shutdown();
    if let Ok(service) = Arc::try_unwrap(service) {
        service.shutdown();
    }
}

/// A request line past `MAX_LINE_BYTES` answers one `invalid_request`
/// naming the limit, and the same connection answers its next request
/// normally.
#[test]
fn an_over_long_line_is_refused_and_the_connection_answers_the_next() {
    let _g = serial();
    let (service, listener) = start(1, &ListenerConfig::default());
    let (mut stream, mut reader) = connect(&listener);
    let program = "x".repeat(MAX_LINE_BYTES);
    let mut bytes = format!("{{\"id\":\"long\",\"program\":\"{program}\"}}\n").into_bytes();
    bytes.extend_from_slice(format!("{}\n", ghz_line("after", 7)).as_bytes());
    let sender = std::thread::spawn(move || {
        stream.write_all(&bytes).expect("send");
        stream
    });

    let refused = read_line(&mut reader);
    let answered = read_line(&mut reader);
    assert!(
        refused.contains("\"kind\":\"invalid_request\""),
        "{refused}"
    );
    assert!(refused.contains("\"id\":\"<unknown>\""), "{refused}");
    assert!(
        refused.contains(&format!("longer than {MAX_LINE_BYTES} bytes")),
        "{refused}"
    );
    assert!(answered.contains("\"id\":\"after\""), "{answered}");
    assert!(answered.contains("\"status\":\"passed\""), "{answered}");
    drop(sender.join().expect("sender"));

    listener.shutdown();
    if let Ok(service) = Arc::try_unwrap(service) {
        service.shutdown();
    }
}
