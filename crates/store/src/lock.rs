//! Fingerprint-keyed advisory file locks for cross-process store safety.
//!
//! Several `morph-serve` instances may share one on-disk artifact
//! directory (`MORPH_CACHE_DIR`). In-process single-flight coalescing
//! cannot see other processes, so without coordination every process
//! recomputes the same characterization. [`FingerprintLock`] closes that
//! gap with the weakest primitive that works everywhere the store does:
//! an exclusive *lock file* next to the artifact (`<fingerprint-hex>.lock`
//! beside `<fingerprint-hex>.json`), created with `O_CREAT|O_EXCL`
//! (`create_new`), which is atomic on every platform and filesystem the
//! store targets. No `flock(2)`-style OS locks: the workspace MSRV
//! predates `File::lock`, and advisory byte-range locks have famously
//! inconsistent semantics over NFS.
//!
//! The protocol callers follow (see `morph-serve`'s leader path):
//!
//! 1. try to acquire the lock for the fingerprint;
//! 2. once holding it, *re-check the store* — another process may have
//!    published the artifact while this one waited;
//! 3. compute, `put`, then release (drop the guard).
//!
//! Because the lock is advisory, a crashed holder leaves its file behind.
//! Waiters therefore break locks whose mtime is older than a staleness
//! bound; the break itself is raced through `rename` so exactly one
//! process reclaims a given stale file.

use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

use crate::fingerprint::Fingerprint;

/// Age after which a lock file is presumed abandoned by a crashed holder.
///
/// Generous relative to any real characterization: a healthy holder keeps
/// the lock only for one compute + one atomic write.
pub const DEFAULT_STALE_AFTER: Duration = Duration::from_secs(300);

/// Exclusive advisory lock on one fingerprint within a store directory.
///
/// Held from a successful [`FingerprintLock::try_acquire`] until drop;
/// dropping removes the lock file (best-effort — a failed removal degrades
/// to the stale-break path, never to a wedged artifact).
#[derive(Debug)]
pub struct FingerprintLock {
    path: PathBuf,
}

impl FingerprintLock {
    fn lock_path(dir: &Path, fp: &Fingerprint) -> PathBuf {
        dir.join(format!("{}.lock", fp.to_hex()))
    }

    /// Attempts to take the lock without blocking, using
    /// [`DEFAULT_STALE_AFTER`] as the abandonment bound.
    ///
    /// Returns `Ok(None)` when another holder has it (after breaking the
    /// file if it is stale — the *next* attempt then succeeds).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than "lock already held" (e.g. an
    /// unwritable store directory).
    pub fn try_acquire(dir: &Path, fp: &Fingerprint) -> io::Result<Option<Self>> {
        Self::try_acquire_with(dir, fp, DEFAULT_STALE_AFTER)
    }

    /// [`FingerprintLock::try_acquire`] with an explicit staleness bound.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than "lock already held".
    pub fn try_acquire_with(
        dir: &Path,
        fp: &Fingerprint,
        stale_after: Duration,
    ) -> io::Result<Option<Self>> {
        fs::create_dir_all(dir)?;
        let path = Self::lock_path(dir, fp);
        match OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(mut file) => {
                // The pid is diagnostic only — staleness is judged by
                // mtime, which works across machines sharing a directory.
                let _ = writeln!(file, "{}", std::process::id());
                Ok(Some(FingerprintLock { path }))
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                Self::break_if_stale(&path, stale_after);
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Blocks (polling every `poll`) until the lock is acquired or
    /// `give_up` returns `true`.
    ///
    /// Returns `Ok(None)` on give-up — the caller decides whether that
    /// means "proceed unlocked" (safe: the store's writes are atomic and
    /// last-writer-wins over identical content) or "abort the job".
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying acquisition attempts.
    pub fn acquire(
        dir: &Path,
        fp: &Fingerprint,
        poll: Duration,
        mut give_up: impl FnMut() -> bool,
    ) -> io::Result<Option<Self>> {
        loop {
            if let Some(lock) = Self::try_acquire(dir, fp)? {
                return Ok(Some(lock));
            }
            if give_up() {
                return Ok(None);
            }
            std::thread::sleep(poll);
        }
    }

    /// The lock file's path (diagnostics and tests).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Removes `path` if its mtime is older than `stale_after`.
    ///
    /// Raced through `rename` to a per-pid tombstone name: of N waiters
    /// observing the same stale file, exactly one rename succeeds, so the
    /// file is reclaimed once and a fresh holder's new lock is never
    /// deleted by a slow waiter acting on old metadata.
    fn break_if_stale(path: &Path, stale_after: Duration) {
        let Ok(meta) = fs::metadata(path) else {
            return; // Already released.
        };
        let age = meta
            .modified()
            .ok()
            .and_then(|m| SystemTime::now().duration_since(m).ok());
        if age.is_some_and(|a| a > stale_after) {
            let tomb = path.with_extension(format!("lock-broken.{}", std::process::id()));
            if fs::rename(path, &tomb).is_ok() {
                let _ = fs::remove_file(&tomb);
            }
        }
    }
}

impl Drop for FingerprintLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::FingerprintBuilder;
    use crate::store::tests::probe;

    fn temp_dir(label: &str) -> PathBuf {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock after epoch")
            .as_nanos();
        let dir = std::env::temp_dir().join(format!(
            "morph-lock-test-{label}-{}-{nanos}",
            std::process::id()
        ));
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn fp(n: u64) -> Fingerprint {
        FingerprintBuilder::new("lock-test/v1")
            .field_u64("n", n)
            .finish()
    }

    #[test]
    fn exclusive_until_released() {
        let dir = temp_dir("exclusive");
        let key = fp(1);
        let lock = FingerprintLock::try_acquire(&dir, &key)
            .unwrap()
            .expect("first acquire succeeds");
        assert!(lock.path().exists());
        assert!(
            FingerprintLock::try_acquire(&dir, &key).unwrap().is_none(),
            "second acquire is refused while held"
        );
        // An unrelated fingerprint is independent.
        assert!(FingerprintLock::try_acquire(&dir, &fp(2))
            .unwrap()
            .is_some());
        let path = lock.path().to_path_buf();
        drop(lock);
        assert!(!path.exists(), "drop removes the lock file");
        assert!(FingerprintLock::try_acquire(&dir, &key).unwrap().is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_lock_is_broken_then_reacquired() {
        let dir = temp_dir("stale");
        let key = fp(3);
        let abandoned = FingerprintLock::try_acquire(&dir, &key).unwrap().unwrap();
        let path = abandoned.path().to_path_buf();
        std::mem::forget(abandoned); // Simulate a crashed holder.
                                     // Zero staleness bound: the first refused attempt breaks the file,
                                     // the next attempt takes the lock.
        assert!(
            FingerprintLock::try_acquire_with(&dir, &key, Duration::ZERO)
                .unwrap()
                .is_none(),
            "breaking attempt still reports contention"
        );
        assert!(!path.exists(), "stale file was reclaimed");
        assert!(FingerprintLock::try_acquire(&dir, &key).unwrap().is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fresh_lock_survives_contention() {
        let dir = temp_dir("fresh");
        let key = fp(4);
        let held = FingerprintLock::try_acquire(&dir, &key).unwrap().unwrap();
        for _ in 0..3 {
            assert!(FingerprintLock::try_acquire(&dir, &key).unwrap().is_none());
        }
        assert!(held.path().exists(), "contenders never break a fresh lock");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn acquire_polls_until_release_or_give_up() {
        let dir = temp_dir("poll");
        let key = fp(5);
        let held = FingerprintLock::try_acquire(&dir, &key).unwrap().unwrap();

        // Give-up path: bounded number of polls, then None.
        let mut polls = 0;
        let got = FingerprintLock::acquire(&dir, &key, Duration::from_millis(1), || {
            polls += 1;
            polls >= 3
        })
        .unwrap();
        assert!(got.is_none());
        assert_eq!(polls, 3);

        // Release path: a waiter in another thread gets the lock.
        let dir2 = dir.clone();
        let waiter = std::thread::spawn(move || {
            FingerprintLock::acquire(&dir2, &fp(5), Duration::from_millis(1), || false).unwrap()
        });
        std::thread::sleep(Duration::from_millis(10));
        drop(held);
        let lock = waiter.join().unwrap();
        assert!(lock.is_some(), "waiter acquired after release");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lock_files_do_not_disturb_store_entries() {
        let dir = temp_dir("coexist");
        let key = fp(6);
        let store = crate::MorphStore::open(&dir).unwrap();
        store.put(key, probe(11, 5)).unwrap();
        let _lock = FingerprintLock::try_acquire(&dir, &key).unwrap().unwrap();
        store.drop_memory();
        assert_eq!(
            store.get(&key).as_deref(),
            Some(&probe(11, 5)),
            "artifact loads fine while its lock file exists"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
