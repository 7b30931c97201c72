//! Fingerprint-keyed advisory file locks for cross-process store safety.
//!
//! Several processes may share one store directory. The flights of
//! [`crate::MorphStore::get_or_compute`] cannot see other processes, so
//! without coordination every process would compute the same artifact.
//! [`FingerprintLock`] closes that gap with the weakest primitive that
//! works everywhere the store does: an exclusive *lock file* next to the
//! artifact (`<fingerprint-hex>.lock` beside `<fingerprint-hex>.json`),
//! created with `O_CREAT|O_EXCL` (`create_new`), which is atomic on every
//! platform and filesystem the store targets. No `flock(2)`-style OS
//! locks: the workspace MSRV predates `File::lock`, and advisory
//! byte-range locks have famously inconsistent semantics over NFS.
//!
//! A flight's leader takes the lock, reads the disk once more (another
//! process may have published while this one waited), computes, writes
//! the artifact, and drops the lock.
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
const STALE_AFTER: Duration = Duration::from_secs(300);

/// Exclusive advisory lock on one fingerprint within a store directory,
/// held until drop. Dropping removes the lock file (best-effort — a
/// failed removal degrades to the stale-break path, never to a wedged
/// artifact).
#[derive(Debug)]
pub(crate) struct FingerprintLock {
    path: PathBuf,
}

impl FingerprintLock {
    /// Takes the lock on `fp` in `dir`. While another holder has it, runs
    /// `give_up` every `tick` and returns its error.
    ///
    /// `Ok(None)` when the lock file cannot be created (an unwritable or
    /// vanished directory): the caller computes without the lock, as a
    /// failed artifact write leaves the artifact in memory only.
    pub(crate) fn acquire<E>(
        dir: &Path,
        fp: &Fingerprint,
        tick: Duration,
        give_up: &mut impl FnMut() -> Result<(), E>,
    ) -> Result<Option<Self>, E> {
        let path = dir.join(format!("{}.lock", fp.to_hex()));
        loop {
            match Self::try_acquire(&path, STALE_AFTER) {
                Ok(Some(lock)) => return Ok(Some(lock)),
                Ok(None) => {}
                Err(_) => return Ok(None),
            }
            give_up()?;
            std::thread::sleep(tick);
        }
    }

    /// One attempt: `Ok(None)` when another holder has the lock (after
    /// breaking the file if it is older than `stale_after` — the *next*
    /// attempt then succeeds).
    fn try_acquire(path: &Path, stale_after: Duration) -> io::Result<Option<Self>> {
        match OpenOptions::new().write(true).create_new(true).open(path) {
            Ok(mut file) => {
                // The pid is diagnostic only — staleness is judged by
                // mtime, which works across machines sharing a directory.
                let _ = writeln!(file, "{}", std::process::id());
                Ok(Some(FingerprintLock {
                    path: path.to_path_buf(),
                }))
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                Self::break_if_stale(path, stale_after);
                Ok(None)
            }
            Err(e) => Err(e),
        }
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

    const TICK: Duration = Duration::from_millis(1);

    /// Takes the lock without waiting: `None` while another holder has it.
    fn try_lock(dir: &Path, key: &Fingerprint) -> Option<FingerprintLock> {
        FingerprintLock::acquire(dir, key, TICK, &mut || Err(())).unwrap_or(None)
    }

    #[test]
    fn exclusive_until_released() {
        let dir = temp_dir("exclusive");
        let key = fp(1);
        let lock = try_lock(&dir, &key).expect("first acquire succeeds");
        for _ in 0..3 {
            assert!(try_lock(&dir, &key).is_none(), "refused while held");
        }
        assert!(lock.path.exists(), "contenders never break a fresh lock");
        // An unrelated fingerprint is independent.
        assert!(try_lock(&dir, &fp(2)).is_some());
        let path = lock.path.clone();
        drop(lock);
        assert!(!path.exists(), "drop removes the lock file");
        assert!(try_lock(&dir, &key).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_lock_is_broken_then_reacquired() {
        let dir = temp_dir("stale");
        let key = fp(3);
        let abandoned = try_lock(&dir, &key).unwrap();
        let path = abandoned.path.clone();
        std::mem::forget(abandoned); // Simulate a crashed holder.
                                     // Zero staleness bound: the first refused attempt breaks the file,
                                     // the next attempt takes the lock.
        assert!(
            FingerprintLock::try_acquire(&path, Duration::ZERO)
                .unwrap()
                .is_none(),
            "breaking attempt still reports contention"
        );
        assert!(!path.exists(), "stale file was reclaimed");
        assert!(try_lock(&dir, &key).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn acquire_waits_until_release_or_give_up() {
        let dir = temp_dir("poll");
        let key = fp(5);
        let held = try_lock(&dir, &key).unwrap();

        // Give-up path: the third check ends the wait with its error.
        let mut polls = 0;
        let got = FingerprintLock::acquire(&dir, &key, TICK, &mut || {
            polls += 1;
            if polls >= 3 {
                Err(polls)
            } else {
                Ok(())
            }
        });
        assert_eq!(got.unwrap_err(), 3);

        // Release path: a waiter in another thread gets the lock.
        let dir2 = dir.clone();
        let waiter = std::thread::spawn(move || {
            FingerprintLock::acquire(&dir2, &fp(5), TICK, &mut || Ok::<(), ()>(())).unwrap()
        });
        std::thread::sleep(Duration::from_millis(10));
        drop(held);
        assert!(
            waiter.join().unwrap().is_some(),
            "waiter acquired after release"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
