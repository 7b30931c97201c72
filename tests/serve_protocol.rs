//! Golden-fixture tests for the `morph-serve` JSON-lines protocol.
//!
//! `tests/fixtures/serve/requests.jsonl` exercises every response shape —
//! passed, refuted, coalesced duplicate, invalid request, deadline error,
//! unparseable line — and `responses.jsonl` is the checked-in expected
//! output, compared byte for byte. `edit-loop-requests.jsonl` holds an
//! edit loop — each revision of a program as its own `verify` line — and
//! the request envelope's cases, with `edit-loop-responses.jsonl` as its
//! golden. The diff only stays meaningful because responses are
//! deterministic: floats travel as bit-pattern strings, object keys are
//! sorted, and scheduling details never reach a response.
//!
//! Regenerate after an intentional protocol change with:
//!
//! ```text
//! MORPH_UPDATE_GOLDEN=1 cargo test --test serve_protocol
//! ```

use std::path::PathBuf;

use morphqpv_suite::bench::schema_lint;
use morphqpv_suite::serve::{run_batch, JobRequest, ServeConfig};

const REQUESTS: &str = "tests/fixtures/serve/requests.jsonl";
const GOLDEN: &str = "tests/fixtures/serve/responses.jsonl";
const EDIT_LOOP_REQUESTS: &str = "tests/fixtures/serve/edit-loop-requests.jsonl";
const EDIT_LOOP_GOLDEN: &str = "tests/fixtures/serve/edit-loop-responses.jsonl";

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
    let find =
        |id: &str| line_with_id(&golden, id).replace(&format!("\"id\":\"{id}\""), "\"id\":\"_\"");
    assert_eq!(find("ghz-pass"), find("ghz-pass-twin"));
}

#[test]
fn revisions_batch_matches_the_golden_fixture() {
    let (output, exit) = run_batch_file(EDIT_LOOP_REQUESTS, 4);
    if std::env::var_os("MORPH_UPDATE_GOLDEN").is_some() {
        std::fs::write(EDIT_LOOP_GOLDEN, &output).expect("write golden");
        return;
    }
    // The batch holds passing revisions plus envelope and parse errors: 1.
    assert_eq!(exit, 1);
    let golden = std::fs::read_to_string(EDIT_LOOP_GOLDEN)
        .expect("read golden fixture (set MORPH_UPDATE_GOLDEN=1 to create it)");
    assert_eq!(
        output, golden,
        "edit-loop response lines drifted from the golden fixture; \
         rerun with MORPH_UPDATE_GOLDEN=1 if the change is intentional"
    );
}

#[test]
fn revisions_batch_is_worker_count_independent() {
    let (wide, wide_exit) = run_batch_file(EDIT_LOOP_REQUESTS, 8);
    let (narrow, narrow_exit) = run_batch_file(EDIT_LOOP_REQUESTS, 1);
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

/// The line of `text` whose `id` is `id`.
fn line_with_id<'a>(text: &'a str, id: &str) -> &'a str {
    text.lines()
        .find(|l| l.contains(&format!("\"id\":\"{id}\"")))
        .unwrap_or_else(|| panic!("no line with id {id}"))
}

/// An edit loop is `verify` lines through the service's one artifact
/// cache: the `ghz-revise` revisions (base, one inserted gate, revert)
/// compute two characterizations and write both to the cache directory,
/// the revert answers the base line's bytes apart from its id, and the
/// lines are the golden ones.
#[test]
fn revision_stream_writes_and_hits_the_artifact_store() {
    let requests = std::fs::read_to_string(EDIT_LOOP_REQUESTS).expect("read edit-loop requests");
    let golden = std::fs::read_to_string(EDIT_LOOP_GOLDEN).expect("read edit-loop golden");
    let ids = ["ghz-revise-0", "ghz-revise-1", "ghz-revise-2"];
    let without_id = |line: &str, id: &str| line.replace(id, "_");
    assert_eq!(
        without_id(line_with_id(&requests, ids[0]), ids[0]),
        without_id(line_with_id(&requests, ids[2]), ids[2]),
        "the edit loop reverts"
    );
    let dir = temp_dir("revise");
    let batch: String = ids
        .iter()
        .map(|id| format!("{}\n", line_with_id(&requests, id)))
        .collect();
    let (output, exit) = run_lines(
        &batch,
        &ServeConfig {
            workers: 2,
            queue_capacity: 8,
            cache_dir: Some(dir.clone()),
            ..ServeConfig::default()
        },
    );
    assert_eq!(exit, 0);
    let lines: Vec<&str> = output.lines().collect();
    for (line, id) in lines.iter().zip(ids) {
        assert_eq!(*line, line_with_id(&golden, id));
    }
    assert_eq!(
        without_id(lines[2], ids[2]),
        without_id(lines[0], ids[0]),
        "the revert answers the base line's bytes"
    );
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

/// Both golden fixtures validate line by line against the protocol
/// schema.
#[test]
fn golden_lines_validate_against_the_protocol_schema() {
    let schema = schema_lint::load(SCHEMA).expect("load the protocol schema");
    for golden in [GOLDEN, EDIT_LOOP_GOLDEN] {
        let text = std::fs::read_to_string(golden).expect("read golden fixture");
        for (i, line) in text.lines().enumerate() {
            let doc = serde::json::parse(line).expect("golden line parses");
            let mut errors = Vec::new();
            schema_lint::validate(&doc, &schema, &schema, "$", &mut errors);
            assert!(errors.is_empty(), "{golden} line {}: {errors:?}", i + 1);
        }
    }
}

/// Lines with and without the envelope answer alike on protocol 1, a
/// revision that fails answers in-band on its own line, and every
/// envelope a build does not speak — a `"v":2` revision stream among them
/// — answers an `invalid_request` line on protocol 1.
#[test]
fn mixed_batch_keeps_legacy_lines_on_protocol_one() {
    let golden = std::fs::read_to_string(EDIT_LOOP_GOLDEN).expect("read edit-loop golden");
    let field = |id: &str, path: &[&str]| {
        let mut value = serde::json::parse(line_with_id(&golden, id)).expect("line parses");
        for key in path {
            value = value
                .get(key)
                .cloned()
                .unwrap_or_else(|| panic!("{id}: no {key}"));
        }
        value
    };
    for line in golden.lines() {
        let value = serde::json::parse(line).expect("line parses");
        assert_eq!(
            value.get("protocol").and_then(serde::json::Value::as_u64),
            Some(1),
            "{line}"
        );
    }
    // Identical programs under both spellings answer identically.
    assert_eq!(
        line_with_id(&golden, "legacy-ghz").replace("legacy-ghz", "_"),
        line_with_id(&golden, "v1-explicit").replace("v1-explicit", "_")
    );
    // The bad-tail edit loop: first revision verified, second an error.
    assert_eq!(
        field("revise-bad-tail-0", &["status"]).as_str(),
        Some("passed")
    );
    assert_eq!(
        field("revise-bad-tail-1", &["error", "kind"]).as_str(),
        Some("verification")
    );
    for id in ["revisions-v2", "weird-kind", "from-the-future"] {
        assert_eq!(
            field(id, &["error", "kind"]).as_str(),
            Some("invalid_request"),
            "{id}"
        );
    }
}

#[test]
fn fixture_requests_round_trip_through_the_codec() {
    let mut parsed = 0;
    for path in [REQUESTS, EDIT_LOOP_REQUESTS] {
        let requests = std::fs::read_to_string(path).expect("read requests fixture");
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
    }
    assert!(
        parsed >= 12,
        "the fixtures should hold at least twelve valid requests"
    );
}
