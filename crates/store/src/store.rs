//! The two-tier artifact store: decoded artifacts behind [`Arc`] in a
//! cost-aware LRU, over an on-disk JSON directory.
//!
//! Each artifact is keyed by its [`Fingerprint`]. The memory tier holds
//! the decoded value, so a memory hit is a pointer clone. The disk tier is
//! the only place an artifact is encoded or decoded: it stores one
//! `<fingerprint-hex>.json` file per artifact, wrapped in an envelope
//! carrying a schema version, the fingerprint, and the recompute cost.
//! Writes are atomic (write to a temp file, then rename), and loads are
//! corruption-tolerant: a truncated, malformed, schema-mismatched or
//! mislabeled envelope, or a payload that no longer decodes as the
//! artifact type, is counted as corrupt and treated as a miss — never a
//! panic — and its file is removed so a later `put` rewrites it.
//!
//! One mutex covers the LRU and its [`StoreStats`]. It is never held
//! during file I/O, encoding or decoding, so [`MorphStore::get`] and
//! [`MorphStore::put`] take `&self` and one store can be shared by every
//! worker of a service.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use serde::json::{self, Value};
use serde::{Deserialize, Serialize};

use crate::fingerprint::Fingerprint;
use crate::lru::CostAwareLru;

/// On-disk envelope schema revision. Bump when the envelope layout
/// changes; entries written under another revision load as misses.
pub const SCHEMA_VERSION: u32 = 1;

/// In-memory entry capacity of every store.
pub const MEMORY_CAPACITY: usize = 512;

/// A type the store can hold. It is encoded to a JSON value tree only on
/// the way to disk and decoded only on the way back.
pub trait Artifact: Serialize + for<'de> Deserialize<'de> + Send + Sync {
    /// The fingerprint domain of this artifact type. It names the store's
    /// `store/<DOMAIN>/{hit,miss,corrupt,cost_saved,write}` trace counters,
    /// so two stores of different types stay distinguishable in one trace.
    const DOMAIN: &'static str;

    /// Recompute cost (quantum ops), credited back on every hit and
    /// weighed by the eviction policy.
    fn cost(&self) -> u64;
}

/// Counters exposed by [`MorphStore::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups answered from memory.
    pub memory_hits: u64,
    /// Lookups answered from disk (then promoted to memory).
    pub disk_hits: u64,
    /// Lookups answered by neither tier.
    pub misses: u64,
    /// Disk entries rejected as damaged or version-mismatched.
    pub corrupt_entries: u64,
    /// Artifacts written.
    pub writes: u64,
    /// Total recompute cost (quantum ops) avoided by hits.
    pub cost_saved: u64,
}

impl StoreStats {
    /// Total hits across both tiers.
    pub fn hits(&self) -> u64 {
        self.memory_hits + self.disk_hits
    }
}

impl std::fmt::Display for StoreStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits ({} memory, {} disk), {} misses, saved {} quantum ops",
            self.hits(),
            self.memory_hits,
            self.disk_hits,
            self.misses,
            self.cost_saved
        )
    }
}

/// Content-addressed store of `T` artifacts with an LRU memory tier and an
/// optional persistent JSON tier.
///
/// # Examples
///
/// ```
/// use morph_store::{Artifact, FingerprintBuilder, MorphStore};
/// use serde::json::{FromValueError, Value};
/// use serde::{Deserialize, Serialize};
///
/// struct Answer(u64);
/// impl Serialize for Answer {
///     fn to_value(&self) -> Value {
///         Value::UInt(self.0)
///     }
/// }
/// impl<'de> Deserialize<'de> for Answer {
///     fn from_value(v: &Value) -> Result<Self, FromValueError> {
///         v.as_u64().map(Answer).ok_or_else(|| FromValueError::new("integer"))
///     }
/// }
/// impl Artifact for Answer {
///     const DOMAIN: &'static str = "demo/v1";
///     fn cost(&self) -> u64 {
///         100
///     }
/// }
///
/// let store = MorphStore::in_memory();
/// let fp = FingerprintBuilder::new("demo/v1").field_u64("k", 1).finish();
/// assert!(store.get(&fp).is_none());
/// store.put(fp, Answer(42)).unwrap();
/// assert_eq!(store.get(&fp).map(|a| a.0), Some(42));
/// assert_eq!(store.stats().cost_saved, 100);
/// ```
#[derive(Debug)]
pub struct MorphStore<T> {
    dir: Option<PathBuf>,
    memory: Mutex<Memory<T>>,
}

#[derive(Debug)]
struct Memory<T> {
    lru: CostAwareLru<Fingerprint, Arc<T>>,
    stats: StoreStats,
}

/// What the disk tier holds for one fingerprint.
enum DiskEntry<T> {
    Absent,
    Corrupt,
    Loaded(T, u64),
}

impl<T: Artifact> MorphStore<T> {
    /// A memory-only store.
    pub fn in_memory() -> Self {
        MorphStore::with_capacity(None, MEMORY_CAPACITY)
    }

    /// A persistent store rooted at `dir` (created if absent).
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(MorphStore::with_capacity(Some(dir), MEMORY_CAPACITY))
    }

    fn with_capacity(dir: Option<PathBuf>, capacity: usize) -> Self {
        MorphStore {
            dir,
            memory: Mutex::new(Memory {
                lru: CostAwareLru::new(capacity),
                stats: StoreStats::default(),
            }),
        }
    }

    /// The persistent directory, when this store has one.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> StoreStats {
        self.lock().stats
    }

    /// Looks up an artifact: memory first, then disk (promoting the entry
    /// into memory on a disk hit). Damaged disk entries count as corrupt
    /// misses.
    pub fn get(&self, fp: &Fingerprint) -> Option<Arc<T>> {
        {
            let mut memory = self.lock();
            if let Some(artifact) = memory.lru.get(fp).cloned() {
                let cost = memory.lru.cost_of(fp).unwrap_or(0);
                memory.stats.memory_hits += 1;
                memory.stats.cost_saved += cost;
                drop(memory);
                Self::count_hit(cost);
                return Some(artifact);
            }
        }
        match self.load_from_disk(fp) {
            DiskEntry::Loaded(artifact, cost) => {
                let artifact = Arc::new(artifact);
                let evicted = {
                    let mut memory = self.lock();
                    memory.stats.disk_hits += 1;
                    memory.stats.cost_saved += cost;
                    memory.lru.insert(*fp, Arc::clone(&artifact), cost)
                };
                drop(evicted);
                Self::count_hit(cost);
                Some(artifact)
            }
            DiskEntry::Corrupt => {
                {
                    let mut memory = self.lock();
                    memory.stats.corrupt_entries += 1;
                    memory.stats.misses += 1;
                }
                Self::count("corrupt", 1);
                Self::count("miss", 1);
                None
            }
            DiskEntry::Absent => {
                self.lock().stats.misses += 1;
                Self::count("miss", 1);
                None
            }
        }
    }

    /// Stores an artifact under its fingerprint. The memory tier is always
    /// updated; the disk tier is encoded and written atomically when
    /// configured.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the disk write fails (the
    /// memory tier keeps the artifact regardless).
    pub fn put(&self, fp: Fingerprint, artifact: impl Into<Arc<T>>) -> io::Result<()> {
        let artifact = artifact.into();
        let cost = artifact.cost();
        let evicted = {
            let mut memory = self.lock();
            memory.stats.writes += 1;
            memory.lru.insert(fp, Arc::clone(&artifact), cost)
        };
        drop(evicted);
        Self::count("write", 1);
        match &self.dir {
            Some(dir) => persist(&entry_path(dir, &fp), &fp, artifact.to_value(), cost),
            None => Ok(()),
        }
    }

    /// Drops the memory tier (disk entries survive). Useful in tests and
    /// benches to force disk loads.
    pub fn drop_memory(&self) {
        self.lock().lru.clear();
    }

    fn lock(&self) -> MutexGuard<'_, Memory<T>> {
        morph_trace::lock_or_recover(&self.memory)
    }

    fn count_hit(cost: u64) {
        Self::count("hit", 1);
        Self::count("cost_saved", cost);
    }

    /// Emits `store/<DOMAIN>/<name>`. The `format!` allocation only
    /// happens with the recorder enabled.
    fn count(name: &str, delta: u64) {
        if delta > 0 && morph_trace::enabled() {
            morph_trace::counter(&format!("store/{}/{name}", T::DOMAIN), delta);
        }
    }

    /// Reads and decodes a disk entry. A damaged or undecodable entry is
    /// removed best-effort, so the next `put` rewrites a clean one.
    fn load_from_disk(&self, fp: &Fingerprint) -> DiskEntry<T> {
        let Some(dir) = &self.dir else {
            return DiskEntry::Absent;
        };
        let path = entry_path(dir, fp);
        let Ok(text) = fs::read_to_string(&path) else {
            return DiskEntry::Absent;
        };
        match decode_entry(&text, fp) {
            Some((artifact, cost)) => DiskEntry::Loaded(artifact, cost),
            None => {
                let _ = fs::remove_file(&path);
                DiskEntry::Corrupt
            }
        }
    }
}

fn entry_path(dir: &Path, fp: &Fingerprint) -> PathBuf {
    dir.join(format!("{}.json", fp.to_hex()))
}

fn persist(path: &Path, fp: &Fingerprint, payload: Value, cost: u64) -> io::Result<()> {
    let mut envelope = std::collections::BTreeMap::new();
    envelope.insert("schema".to_string(), Value::UInt(u64::from(SCHEMA_VERSION)));
    envelope.insert("fingerprint".to_string(), Value::Str(fp.to_hex()));
    envelope.insert("cost".to_string(), Value::UInt(cost));
    envelope.insert("payload".to_string(), payload);
    let text = json::to_string(&Value::Object(envelope));

    // Atomic publish: a reader either sees the old entry or the new
    // one, never a torn write. The temp name includes the pid so
    // concurrent writers of the same artifact cannot collide; the final
    // rename is last-writer-wins over identical content.
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    fs::write(&tmp, text.as_bytes())?;
    match fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Parses an envelope and decodes its payload, returning `(artifact,
/// cost)` only when the schema version and fingerprint check out and the
/// payload decodes as `T`.
fn decode_entry<T: Artifact>(text: &str, expected: &Fingerprint) -> Option<(T, u64)> {
    let root = json::parse(text).ok()?;
    let schema = root.get("schema")?.as_u64()?;
    if schema != u64::from(SCHEMA_VERSION) {
        return None;
    }
    let fp = Fingerprint::from_hex(root.get("fingerprint")?.as_str()?)?;
    if fp != *expected {
        return None;
    }
    let cost = root.get("cost")?.as_u64()?;
    let artifact = T::from_value(root.get("payload")?).ok()?;
    Some((artifact, cost))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fingerprint::FingerprintBuilder;
    use serde::json::FromValueError;

    /// A test artifact: a number whose recompute cost is carried along.
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) struct Probe {
        n: u64,
        cost: u64,
    }

    pub(crate) fn probe(n: u64, cost: u64) -> Probe {
        Probe { n, cost }
    }

    impl Serialize for Probe {
        fn to_value(&self) -> Value {
            Value::Array(vec![Value::UInt(self.n), Value::UInt(self.cost)])
        }
    }

    impl<'de> Deserialize<'de> for Probe {
        fn from_value(value: &Value) -> Result<Self, FromValueError> {
            match value.as_array() {
                Some([n, cost]) => Ok(probe(
                    n.as_u64().ok_or_else(|| FromValueError::new("n"))?,
                    cost.as_u64().ok_or_else(|| FromValueError::new("cost"))?,
                )),
                _ => Err(FromValueError::new("probe must be [n, cost]")),
            }
        }
    }

    impl Artifact for Probe {
        const DOMAIN: &'static str = "test/v1";
        fn cost(&self) -> u64 {
            self.cost
        }
    }

    fn temp_dir(label: &str) -> PathBuf {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock after epoch")
            .as_nanos();
        let dir = std::env::temp_dir().join(format!(
            "morph-store-test-{label}-{}-{nanos}",
            std::process::id()
        ));
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn fp(n: u64) -> Fingerprint {
        FingerprintBuilder::new("test/v1")
            .field_u64("n", n)
            .finish()
    }

    fn value_of(store: &MorphStore<Probe>, key: &Fingerprint) -> Option<Probe> {
        store.get(key).map(|a| (*a).clone())
    }

    #[test]
    fn memory_round_trip_and_stats() {
        let store = MorphStore::in_memory();
        let key = fp(1);
        assert!(store.get(&key).is_none());
        store.put(key, probe(5, 7)).unwrap();
        assert_eq!(value_of(&store, &key), Some(probe(5, 7)));
        let stats = store.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.memory_hits, 1);
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.cost_saved, 7);
    }

    #[test]
    fn memory_hits_share_one_decoded_artifact() {
        let dir = temp_dir("shared");
        let store = MorphStore::open(&dir).unwrap();
        let put = Arc::new(probe(3, 1));
        store.put(fp(1), Arc::clone(&put)).unwrap();
        let (a, b) = (store.get(&fp(1)).unwrap(), store.get(&fp(1)).unwrap());
        assert!(Arc::ptr_eq(&a, &b), "a memory hit is a pointer clone");
        assert!(Arc::ptr_eq(&a, &put), "put keeps the caller's artifact");
        // A disk load decodes once; later hits share that decoded value.
        store.drop_memory();
        let (c, d) = (store.get(&fp(1)).unwrap(), store.get(&fp(1)).unwrap());
        assert!(!Arc::ptr_eq(&a, &c));
        assert!(Arc::ptr_eq(&c, &d));
        assert_eq!(store.stats().disk_hits, 1);
        assert_eq!(store.stats().memory_hits, 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_entries_survive_reopen() {
        let dir = temp_dir("reopen");
        {
            let store = MorphStore::open(&dir).unwrap();
            store.put(fp(2), probe(99, 1234)).unwrap();
        }
        let fresh = MorphStore::open(&dir).unwrap();
        assert_eq!(value_of(&fresh, &fp(2)), Some(probe(99, 1234)));
        assert_eq!(fresh.stats().disk_hits, 1);
        assert_eq!(fresh.stats().cost_saved, 1234);
        // Promoted into memory: second lookup is a memory hit.
        assert!(fresh.get(&fp(2)).is_some());
        assert_eq!(fresh.stats().memory_hits, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Rewrites `key`'s entry file with `edit`, then empties the memory tier
    /// so the next lookup reads it.
    fn tamper(store: &MorphStore<Probe>, key: &Fingerprint, edit: impl Fn(String) -> String) {
        let path = entry_path(store.dir().unwrap(), key);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, edit(text)).unwrap();
        store.drop_memory();
    }

    #[test]
    fn truncated_entry_degrades_to_miss() {
        let dir = temp_dir("truncated");
        let store = MorphStore::open(&dir).unwrap();
        store.put(fp(3), probe(1, 50)).unwrap();
        tamper(&store, &fp(3), |full| full[..full.len() / 2].to_string());
        assert_eq!(store.get(&fp(3)), None);
        assert_eq!(store.stats().corrupt_entries, 1);
        assert_eq!(store.stats().misses, 1);
        assert!(
            !entry_path(&dir, &fp(3)).exists(),
            "damaged entry is cleaned up"
        );
        // Rewriting repairs the entry.
        store.put(fp(3), probe(2, 50)).unwrap();
        store.drop_memory();
        assert_eq!(value_of(&store, &fp(3)), Some(probe(2, 50)));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// An envelope of another schema, and an intact envelope whose payload
    /// no longer decodes as the artifact type, are both corrupt misses
    /// that save nothing; the entry is removed.
    #[test]
    fn schema_or_payload_mismatch_degrades_to_miss() {
        for (from, to) in [
            ("\"schema\":1", "\"schema\":999"),
            ("\"payload\":[1,5]", "\"payload\":\"x\""),
        ] {
            let dir = temp_dir("mismatch");
            let store = MorphStore::open(&dir).unwrap();
            store.put(fp(4), probe(1, 5)).unwrap();
            tamper(&store, &fp(4), |t| t.replace(from, to));
            assert_eq!(store.get(&fp(4)), None, "{to}");
            let stats = store.stats();
            assert_eq!(
                (stats.hits(), stats.misses, stats.corrupt_entries),
                (0, 1, 1)
            );
            assert_eq!(stats.cost_saved, 0);
            assert!(!entry_path(&dir, &fp(4)).exists(), "{to}: entry removed");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn mislabeled_fingerprint_degrades_to_miss() {
        let dir = temp_dir("mislabel");
        let store = MorphStore::open(&dir).unwrap();
        store.put(fp(5), probe(1, 5)).unwrap();
        // Copy entry 5's file into entry 6's slot: content hash no longer
        // matches the address.
        fs::copy(entry_path(&dir, &fp(5)), entry_path(&dir, &fp(6))).unwrap();
        store.drop_memory();
        assert_eq!(store.get(&fp(6)), None);
        assert_eq!(store.stats().corrupt_entries, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn eviction_is_memory_only() {
        let dir = temp_dir("evict");
        fs::create_dir_all(&dir).unwrap();
        let store = MorphStore::with_capacity(Some(dir.clone()), 2);
        for n in 0..5 {
            store.put(fp(n), probe(n, 1)).unwrap();
        }
        // Evicted artifacts still load from disk.
        assert_eq!(value_of(&store, &fp(0)), Some(probe(0, 1)));
        assert_eq!(store.stats().disk_hits, 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
