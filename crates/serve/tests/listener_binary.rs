//! The `morph-serve --listen` binary end to end: it announces its bound
//! address on stdout, answers the golden request batch over one
//! keep-alive connection byte for byte, and exits cleanly once its stdin
//! closes.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::process::{Child, Command, Stdio};

const MORPH_SERVE: &str = env!("CARGO_BIN_EXE_morph-serve");

fn fixture(name: &str) -> String {
    let path = format!(
        "{}/../../tests/fixtures/serve/{name}",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Kills the server if the test fails before it exits on its own.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn listener_replays_the_golden_fixture_and_exits_on_stdin_eof() {
    let mut server = Server(
        Command::new(MORPH_SERVE)
            .args(["--listen", "127.0.0.1:0", "--workers", "2"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn morph-serve"),
    );
    let mut announce = String::new();
    BufReader::new(server.0.stdout.take().expect("piped stdout"))
        .read_line(&mut announce)
        .expect("read the announcement");
    let addr = announce
        .trim_end()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected announcement {announce:?}"));

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(fixture("requests.jsonl").as_bytes())
        .expect("send the batch");
    // Half-closing ends the conversation: the server answers every request
    // it read, then closes the connection.
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut transcript = String::new();
    stream
        .read_to_string(&mut transcript)
        .expect("read every response");
    assert_eq!(
        transcript,
        fixture("responses.jsonl"),
        "socket transcript drifted from the golden fixture"
    );

    drop(server.0.stdin.take());
    let status = server.0.wait().expect("server exits");
    assert_eq!(status.code(), Some(0), "stdin EOF is a clean shutdown");
}
