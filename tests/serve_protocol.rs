//! Golden-fixture tests for the `morph-serve` JSON-lines protocol.
//!
//! `tests/fixtures/serve/requests.jsonl` exercises every response shape —
//! passed, refuted, coalesced duplicate, invalid request, deadline error,
//! unparseable line — and `responses.jsonl` is the checked-in expected
//! output, compared byte for byte. The diff only stays meaningful because
//! responses are deterministic: floats travel as bit-pattern strings,
//! object keys are sorted, and scheduling details never reach a response.
//!
//! Regenerate after an intentional protocol change with:
//!
//! ```text
//! MORPH_UPDATE_GOLDEN=1 cargo test --test serve_protocol
//! ```

use std::path::PathBuf;

use morphqpv_suite::bench::schema_lint;
use morphqpv_suite::serve::{run_batch, JobRequest, Request, RevisionsRequest, ServeConfig};
use serde::json::Value;

const REQUESTS: &str = "tests/fixtures/serve/requests.jsonl";
const GOLDEN: &str = "tests/fixtures/serve/responses.jsonl";
const REVISION_REQUESTS: &str = "tests/fixtures/serve/revisions-requests.jsonl";
const REVISION_GOLDEN: &str = "tests/fixtures/serve/revisions-responses.jsonl";

const SCHEMA: &str = "docs/serve-protocol.schema.json";

/// Runs request lines through `run_batch` and returns the response text
/// and the batch exit code.
fn run_lines(requests: &str, config: &ServeConfig) -> (String, i32) {
    let mut out = Vec::new();
    let exit = run_batch(requests.as_bytes(), &mut out, config).expect("batch I/O");
    (String::from_utf8(out).expect("responses are UTF-8"), exit)
}

fn run_batch_file(path: &str, workers: usize) -> (String, i32) {
    let requests = std::fs::read_to_string(path).expect("read requests fixture");
    run_lines(
        &requests,
        &ServeConfig {
            workers,
            queue_capacity: 8,
            ..ServeConfig::default()
        },
    )
}

fn run_fixture_batch(workers: usize) -> (String, i32) {
    run_batch_file(REQUESTS, workers)
}

#[test]
fn batch_output_matches_the_golden_fixture() {
    let (output, exit) = run_fixture_batch(4);
    // The batch contains a refuted job and error lines: refuted dominates.
    assert_eq!(exit, 2);

    if std::env::var_os("MORPH_UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &output).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("read golden fixture (set MORPH_UPDATE_GOLDEN=1 to create it)");
    assert_eq!(
        output, golden,
        "response lines drifted from the golden fixture; \
         rerun with MORPH_UPDATE_GOLDEN=1 if the change is intentional"
    );
}

#[test]
fn batch_output_is_worker_count_independent() {
    let (wide, wide_exit) = run_fixture_batch(8);
    let (narrow, narrow_exit) = run_fixture_batch(1);
    assert_eq!(wide, narrow);
    assert_eq!(wide_exit, narrow_exit);
}

#[test]
fn golden_lines_are_well_formed_protocol_responses() {
    let golden = std::fs::read_to_string(GOLDEN).expect("read golden fixture");
    let request_count = std::fs::read_to_string(REQUESTS)
        .expect("read requests fixture")
        .lines()
        .filter(|l| !l.trim().is_empty())
        .count();
    let lines: Vec<&str> = golden.lines().collect();
    assert_eq!(lines.len(), request_count, "one response per request line");
    for line in lines {
        let value = serde::json::parse(line).expect("golden line parses");
        assert_eq!(
            value.get("protocol").and_then(serde::json::Value::as_u64),
            Some(1)
        );
        let status = value
            .get("status")
            .and_then(serde::json::Value::as_str)
            .expect("status present");
        assert!(
            ["passed", "refuted", "rejected", "error"].contains(&status),
            "unknown status {status}"
        );
    }
}

#[test]
fn coalesced_twins_answer_identically_apart_from_their_ids() {
    let golden = std::fs::read_to_string(GOLDEN).expect("read golden fixture");
    let find = |id: &str| {
        golden
            .lines()
            .find(|l| l.contains(&format!("\"id\":\"{id}\"")))
            .unwrap_or_else(|| panic!("no golden line for {id}"))
            .replace(&format!("\"id\":\"{id}\""), "\"id\":\"_\"")
    };
    assert_eq!(find("ghz-pass"), find("ghz-pass-twin"));
}

#[test]
fn revisions_batch_matches_the_golden_fixture() {
    let (output, exit) = run_batch_file(REVISION_REQUESTS, 4);
    if std::env::var_os("MORPH_UPDATE_GOLDEN").is_some() {
        std::fs::write(REVISION_GOLDEN, &output).expect("write golden");
        return;
    }
    // The batch holds passing streams plus envelope/parse errors: 1.
    assert_eq!(exit, 1);
    let golden = std::fs::read_to_string(REVISION_GOLDEN)
        .expect("read golden fixture (set MORPH_UPDATE_GOLDEN=1 to create it)");
    assert_eq!(
        output, golden,
        "revision response lines drifted from the golden fixture; \
         rerun with MORPH_UPDATE_GOLDEN=1 if the change is intentional"
    );
}

#[test]
fn revisions_batch_is_worker_count_independent() {
    let (wide, wide_exit) = run_batch_file(REVISION_REQUESTS, 8);
    let (narrow, narrow_exit) = run_batch_file(REVISION_REQUESTS, 1);
    assert_eq!(wide, narrow);
    assert_eq!(wide_exit, narrow_exit);
}

/// A fresh, empty directory for one test's artifact store.
fn temp_dir(label: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after epoch")
        .as_nanos();
    let dir = std::env::temp_dir().join(format!(
        "morph-serve-{label}-{}-{nanos}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// The golden revisions request with the given id.
fn revision_fixture(id: &str) -> RevisionsRequest {
    let requests = std::fs::read_to_string(REVISION_REQUESTS).expect("read revisions requests");
    requests
        .lines()
        .find_map(|line| match Request::from_json_line(line) {
            Ok(Request::Revisions(stream)) if stream.id == id => Some(stream),
            _ => None,
        })
        .unwrap_or_else(|| panic!("no revisions request {id}"))
}

/// A stream's revisions run through the service's one artifact cache: the
/// `ghz-revise` stream (base, one inserted gate, revert) computes two
/// characterizations and writes both to the cache directory, the revert
/// hits the first, and the line is the golden one.
#[test]
fn revision_stream_writes_and_hits_the_artifact_store() {
    let stream = revision_fixture("ghz-revise");
    assert_eq!(
        stream.revisions[0], stream.revisions[2],
        "the stream reverts"
    );
    let dir = temp_dir("revise");
    let (output, exit) = run_lines(
        &format!("{}\n", stream.to_json_line()),
        &ServeConfig {
            workers: 2,
            queue_capacity: 8,
            cache_dir: Some(dir.clone()),
            ..ServeConfig::default()
        },
    );
    assert_eq!(exit, 0);
    let golden = std::fs::read_to_string(REVISION_GOLDEN).expect("read revisions golden");
    let golden_line = golden
        .lines()
        .find(|l| l.contains("\"id\":\"ghz-revise\""))
        .expect("ghz-revise response line");
    assert_eq!(output.trim_end(), golden_line);
    let artifacts = std::fs::read_dir(&dir)
        .expect("read cache dir")
        .filter(|entry| {
            let path = entry.as_ref().expect("dir entry").path();
            path.extension().is_some_and(|ext| ext == "json")
        })
        .count();
    assert_eq!(artifacts, 2, "one artifact per distinct revision");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Parses one response line per request line.
fn responses(output: &str) -> Vec<Value> {
    output
        .lines()
        .map(|line| serde::json::parse(line).expect("response line parses"))
        .collect()
}

/// A v1 response body without its v1-only fields, so it compares with a
/// revision entry.
fn as_revision_entry(response: &Value) -> Value {
    match response {
        Value::Object(m) => {
            let mut m = m.clone();
            for key in ["id", "protocol", "characterization_fp"] {
                m.remove(key);
            }
            Value::Object(m)
        }
        other => panic!("expected an object, found {other:?}"),
    }
}

/// Each revision answers what a `verify` request with its program, seed
/// and samples answers: a revision stream is v1 jobs in order. `programs`
/// run both as one stream and as one v1 request each, in one batch.
fn assert_revisions_answer_as_jobs(programs: &[&str], samples: usize) {
    let mut stream = RevisionsRequest::new(
        "stream",
        programs.iter().map(|p| p.to_string()).collect(),
        vec![0],
    );
    stream.seed = 7;
    stream.samples = Some(samples);
    let mut batch = stream.to_json_line() + "\n";
    for (i, program) in programs.iter().enumerate() {
        let mut job = JobRequest::new(format!("job-{i}"), *program, vec![0]);
        job.seed = 7;
        job.samples = Some(samples);
        batch += &(job.to_json_line() + "\n");
    }
    let (output, _) = run_lines(&batch, &ServeConfig::default());
    let lines = responses(&output);
    let entries = match lines[0].get("revisions") {
        Some(Value::Array(items)) => items.clone(),
        other => panic!("expected a revisions array, found {other:?}"),
    };
    assert_eq!(entries.len(), programs.len());
    for (i, entry) in entries.iter().enumerate() {
        let job = &lines[i + 1];
        assert!(
            job.get("assertions").is_some(),
            "job {i} completes: {job:?}"
        );
        assert_eq!(*entry, as_revision_entry(job), "revision {i}");
    }
}

/// A measured program is a plain program: its revision verifies exactly
/// as the v1 job does, instead of answering an in-band error.
#[test]
fn a_measured_revision_answers_as_its_v1_job() {
    let measured = "qreg q[2];\ncreg c[1];\nT 1 q[0];\nh q[0];\nmeasure q[1] -> c[0];\n\
                    T 2 q[0];\n// assert assume is_pure(T1) guarantee is_pure(T2)";
    assert_revisions_answer_as_jobs(&[measured], 4);
}

/// Every entry of a default-ensemble GHZ edit stream (base, one inserted
/// gate, revert) equals the v1 response for its program and seed, apart
/// from the v1-only fields.
#[test]
fn ghz_revisions_answer_as_their_v1_jobs() {
    let base = "qreg q[3];\nT 1 q[0];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\nT 2 q[0,1,2];\n\
                // assert assume is_pure(T1) guarantee is_pure(T2)";
    let edit = base.replace("T 2", "z q[2];\nT 2");
    assert_revisions_answer_as_jobs(&[base, &edit, base], 4);
}

/// Both golden fixtures validate line by line against the protocol
/// schema.
#[test]
fn golden_lines_validate_against_the_protocol_schema() {
    let schema = schema_lint::load(SCHEMA).expect("load the protocol schema");
    for golden in [GOLDEN, REVISION_GOLDEN] {
        let text = std::fs::read_to_string(golden).expect("read golden fixture");
        for (i, line) in text.lines().enumerate() {
            let doc = serde::json::parse(line).expect("golden line parses");
            let mut errors = Vec::new();
            schema_lint::validate(&doc, &schema, &schema, "$", &mut errors);
            assert!(errors.is_empty(), "{golden} line {}: {errors:?}", i + 1);
        }
    }
}

/// Legacy (v1) lines in a mixed batch keep answering with `protocol:1`
/// bodies, and a mid-stream failure is an in-band per-revision error.
#[test]
fn mixed_batch_keeps_legacy_lines_on_protocol_one() {
    let golden = std::fs::read_to_string(REVISION_GOLDEN).expect("read revisions golden");
    let find = |id: &str| {
        golden
            .lines()
            .find(|l| l.contains(&format!("\"id\":\"{id}\"")))
            .unwrap_or_else(|| panic!("no golden line for {id}"))
    };
    for id in ["legacy-ghz", "v1-explicit"] {
        let value = serde::json::parse(find(id)).expect("line parses");
        assert_eq!(
            value.get("protocol").and_then(serde::json::Value::as_u64),
            Some(1),
            "{id} must stay a v1 response"
        );
    }
    // Identical programs under both spellings answer identically.
    assert_eq!(
        find("legacy-ghz").replace("\"id\":\"legacy-ghz\"", "\"id\":\"_\""),
        find("v1-explicit").replace("\"id\":\"v1-explicit\"", "\"id\":\"_\"")
    );
    // The bad-tail stream: first revision verified, second an error.
    let value = serde::json::parse(find("revise-bad-tail")).expect("line parses");
    assert_eq!(
        value.get("status").and_then(serde::json::Value::as_str),
        Some("error")
    );
    let revisions = match value.get("revisions") {
        Some(serde::json::Value::Array(items)) => items.clone(),
        other => panic!("expected a revisions array, found {other:?}"),
    };
    assert_eq!(
        revisions[0]
            .get("status")
            .and_then(serde::json::Value::as_str),
        Some("passed")
    );
    assert_eq!(
        revisions[1]
            .get("status")
            .and_then(serde::json::Value::as_str),
        Some("error")
    );
    // Envelope errors answer as plain v1 error lines.
    for id in ["revise-needs-v2", "weird-kind", "from-the-future"] {
        let value = serde::json::parse(find(id)).expect("line parses");
        assert_eq!(
            value.get("status").and_then(serde::json::Value::as_str),
            Some("error"),
            "{id}"
        );
    }
}

#[test]
fn fixture_requests_round_trip_through_the_codec() {
    let requests = std::fs::read_to_string(REQUESTS).expect("read requests fixture");
    let mut parsed = 0;
    for line in requests.lines().filter(|l| !l.trim().is_empty()) {
        if let Ok(request) = JobRequest::from_json_line(line) {
            let reprinted = request.to_json_line();
            assert_eq!(
                JobRequest::from_json_line(&reprinted).expect("reprint parses"),
                request
            );
            parsed += 1;
        }
    }
    assert!(
        parsed >= 5,
        "fixture should hold at least five valid requests"
    );
}

#[test]
fn revision_fixture_requests_round_trip_through_the_codec() {
    let requests = std::fs::read_to_string(REVISION_REQUESTS).expect("read revisions requests");
    let mut streams = 0;
    for line in requests.lines().filter(|l| !l.trim().is_empty()) {
        if let Ok(Request::Revisions(request)) = Request::from_json_line(line) {
            let reprinted = request.to_json_line();
            match Request::from_json_line(&reprinted).expect("reprint parses") {
                Request::Revisions(again) => assert_eq!(again, request),
                other => panic!("reprint changed kind: {other:?}"),
            }
            streams += 1;
        }
    }
    assert!(
        streams >= 2,
        "fixture should hold at least two valid revision streams"
    );
}
