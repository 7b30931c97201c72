//! Cross-process store safety: two *processes* hammering one fingerprint
//! in a shared cache directory must produce exactly one on-disk artifact,
//! readable as valid JSON, with no lock debris left behind.
//!
//! The test re-execs its own binary (the `set_var`-free probe pattern
//! used across the workspace): each child starts a disk-backed
//! [`Service`], runs a burst of identical jobs, and exits 3 on success.
//! The parent runs two children concurrently against one directory and
//! then audits the directory. The fingerprint-keyed lock file that
//! `MorphStore::get_or_compute` takes around compute-and-publish is what
//! makes the concurrent leaders' writes converge on a single artifact
//! instead of torn JSON.

use std::path::{Path, PathBuf};

use morphqpv_suite::serve::{JobRequest, JobStatus, ServeConfig, Service};

const PROBE_ENV: &str = "MORPH_XPROC_PROBE_DIR";

const GHZ_PROGRAM: &str = "\
qreg q[3];
T 1 q[0];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
T 2 q[0,1,2];
// assert assume is_pure(T1) guarantee is_pure(T2)
";

/// Child body: run a burst of identical disk-backed jobs, exit 3/4.
fn probe(cache_dir: &Path) -> ! {
    let service = match Service::start(&ServeConfig {
        workers: 2,
        queue_capacity: 8,
        cache_dir: Some(cache_dir.to_path_buf()),
        ..ServeConfig::default()
    }) {
        Ok(service) => service,
        Err(_) => std::process::exit(4),
    };
    let handles: Vec<_> = (0..3)
        .map(|i| {
            let mut request = JobRequest::new(format!("xproc-{i}"), GHZ_PROGRAM, vec![0]);
            request.seed = 7;
            request.samples = Some(4);
            service.submit(request).expect("queue sized for the burst")
        })
        .collect();
    let ok = handles
        .into_iter()
        .all(|h| h.wait().status == JobStatus::Passed);
    service.shutdown();
    std::process::exit(if ok { 3 } else { 4 });
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read cache dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

#[test]
fn two_processes_one_fingerprint_one_artifact() {
    if let Some(dir) = std::env::var_os(PROBE_ENV) {
        probe(Path::new(&dir));
    }

    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after epoch")
        .as_nanos();
    let dir = std::env::temp_dir().join(format!("morph-xproc-{}-{nanos}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create cache dir");

    let exe = std::env::current_exe().expect("test binary path");
    let spawn = || {
        std::process::Command::new(&exe)
            .args([
                "--exact",
                "two_processes_one_fingerprint_one_artifact",
                "--nocapture",
            ])
            .env(PROBE_ENV, &dir)
            .stdout(std::process::Stdio::null())
            .spawn()
            .expect("spawn probe child")
    };
    let mut a = spawn();
    let mut b = spawn();
    let status_a = a.wait().expect("child a exits");
    let status_b = b.wait().expect("child b exits");
    assert_eq!(status_a.code(), Some(3), "child a's jobs all pass");
    assert_eq!(status_b.code(), Some(3), "child b's jobs all pass");

    let mut files = Vec::new();
    collect_files(&dir, &mut files);
    let artifacts: Vec<&PathBuf> = files
        .iter()
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    assert_eq!(
        artifacts.len(),
        1,
        "exactly one artifact for one fingerprint, found {files:?}"
    );
    let text = std::fs::read_to_string(artifacts[0]).expect("read artifact");
    serde::json::parse(&text).expect("artifact is valid JSON, not torn by concurrent writers");

    let debris: Vec<&PathBuf> = files
        .iter()
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().contains(".lock"))
        })
        .collect();
    assert!(debris.is_empty(), "no lock debris may remain: {debris:?}");

    std::fs::remove_dir_all(&dir).expect("cleanup");
}
