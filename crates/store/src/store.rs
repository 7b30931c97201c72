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
//! panic — and its file is removed so a later write replaces it.
//!
//! [`MorphStore::get_or_compute`] computes each fingerprint once however
//! many callers ask for it at the same time. The computations in flight
//! live in the same map as the LRU, under one mutex, and a leader
//! publishes its artifact and retires its flight in one step, so no
//! caller ever re-checks the tiers. Across processes that share a
//! directory, the leader also holds the fingerprint's lock file (the
//! `lock` module) around compute-and-publish.
//!
//! The mutex covers the LRU, the flights and the [`StoreStats`]. It is
//! never held during file I/O, encoding, decoding or a computation, so
//! every method takes `&self` and one store can be shared by every worker
//! of a service.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

use serde::json::{self, Value};
use serde::{Deserialize, Serialize};

use crate::fingerprint::Fingerprint;
use crate::lock::FingerprintLock;
use crate::lru::CostAwareLru;

/// On-disk envelope schema revision. Bump when the envelope layout
/// changes; entries written under another revision load as misses.
pub const SCHEMA_VERSION: u32 = 1;

/// In-memory entry capacity of every store.
pub const MEMORY_CAPACITY: usize = 512;

/// How often a caller waiting on a flight, or on another process's lock
/// file, runs its `give_up` check.
const WAIT_TICK: Duration = Duration::from_millis(10);

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
    /// Lookups answered from memory, including callers that waited on
    /// another caller's computation.
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

/// Where [`MorphStore::get_or_compute`] found its artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The memory tier.
    Memory,
    /// The disk tier.
    Disk,
    /// The disk tier, on the read after taking the fingerprint's lock file:
    /// another process wrote the artifact after this call's first read.
    OtherProcess,
    /// Another caller's computation, in flight when this call arrived.
    Coalesced,
    /// This call's own `compute`.
    Computed,
}

/// Content-addressed store of `T` artifacts with an LRU memory tier and an
/// optional persistent JSON tier.
///
/// # Examples
///
/// ```
/// use morph_store::{Artifact, FingerprintBuilder, MorphStore, Source};
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
/// let (answer, source) = store.get_or_compute(&fp, || Ok(()), || Ok::<_, ()>(Answer(42)))?;
/// assert_eq!((answer.0, source), (42, Source::Computed));
/// let (again, source) = store.get_or_compute(&fp, || Ok(()), || Err(()))?;
/// assert_eq!((again.0, source), (42, Source::Memory));
/// assert_eq!(store.stats().cost_saved, 100);
/// # Ok::<(), ()>(())
/// ```
#[derive(Debug)]
pub struct MorphStore<T> {
    dir: Option<PathBuf>,
    memory: Mutex<Memory<T>>,
    /// Signalled whenever a flight retires.
    retired: Condvar,
}

#[derive(Debug)]
struct Memory<T> {
    lru: CostAwareLru<Fingerprint, Arc<T>>,
    /// The computations in flight, one per fingerprint.
    flights: HashMap<Fingerprint, Arc<Flight<T>>>,
    stats: StoreStats,
}

/// One computation in flight. Its leader sets it once, under the store's
/// mutex, as the flight retires: to the artifact, or to `None` when the
/// leader failed and a waiting caller must lead instead.
type Flight<T> = OnceLock<Option<Arc<T>>>;

/// How [`MorphStore::join`] left a caller.
enum Joined<'a, T: Artifact> {
    /// From memory, or from a flight that was in progress.
    Answered(Arc<T>, Source),
    /// This caller leads a new flight.
    Leading(Leader<'a, T>),
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
                flights: HashMap::new(),
                stats: StoreStats::default(),
            }),
            retired: Condvar::new(),
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> StoreStats {
        self.lock().stats
    }

    /// Returns the artifact stored under `fp`, computing it at most once
    /// however many callers ask for it at the same time.
    ///
    /// The answer comes from memory, from disk, from a computation already
    /// in flight for `fp` (this call waits for it), or from `compute`,
    /// which this call then runs as the flight's leader. The leader
    /// publishes the artifact to memory and retires the flight in one
    /// step, then writes it to disk. A failed write is not an error: the
    /// artifact stays in memory.
    ///
    /// On a disk-backed store the leader takes `fp`'s lock file before it
    /// computes, waiting while another process holds it, and reads the
    /// disk once more after taking it, so processes sharing the directory
    /// compute `fp` once between them. A lock file that cannot be created
    /// degrades to computing without it.
    ///
    /// While it waits, on a flight or on a lock file, the call runs
    /// `give_up` every 10 ms and returns its error. A waiting caller that
    /// gives up leaves the flight to finish for the others. A leader that
    /// gives up, or whose `compute` fails or panics, retires the flight
    /// empty, and a waiting caller leads in its place.
    ///
    /// # Errors
    ///
    /// The error of `give_up` or of `compute`.
    pub fn get_or_compute<E>(
        &self,
        fp: &Fingerprint,
        mut give_up: impl FnMut() -> Result<(), E>,
        compute: impl FnOnce() -> Result<T, E>,
    ) -> Result<(Arc<T>, Source), E> {
        let leader = match self.join(fp, &mut give_up)? {
            Joined::Answered(artifact, source) => return Ok((artifact, source)),
            Joined::Leading(leader) => leader,
        };
        let mut file_lock = None;
        if let Some(dir) = &self.dir {
            if let Some((artifact, cost)) = self.read_disk(fp) {
                return Ok(leader.publish(artifact, cost, Source::Disk));
            }
            file_lock = FingerprintLock::acquire(dir, fp, WAIT_TICK, &mut give_up)?;
            if file_lock.is_some() {
                if let Some((artifact, cost)) = self.read_disk(fp) {
                    return Ok(leader.publish(artifact, cost, Source::OtherProcess));
                }
            }
        }
        self.lock().stats.misses += 1;
        Self::count("miss", 1);
        let artifact = compute()?;
        let cost = artifact.cost();
        let (artifact, source) = leader.publish(artifact, cost, Source::Computed);
        if let Some(dir) = &self.dir {
            let _ = persist(&entry_path(dir, fp), fp, artifact.to_value(), cost);
        }
        drop(file_lock);
        Ok((artifact, source))
    }

    /// Drops the memory tier (disk entries survive). Useful in tests and
    /// benches to force disk loads.
    pub fn drop_memory(&self) {
        self.lock().lru.clear();
    }

    fn lock(&self) -> MutexGuard<'_, Memory<T>> {
        morph_trace::lock_or_recover(&self.memory)
    }

    /// Answers `fp` from memory, or from a flight in progress once it
    /// retires, or makes this caller the leader of a new flight.
    fn join<E>(
        &self,
        fp: &Fingerprint,
        give_up: &mut impl FnMut() -> Result<(), E>,
    ) -> Result<Joined<'_, T>, E> {
        loop {
            let flight = {
                let mut memory = self.lock();
                if let Some((artifact, cost)) = memory.hit(fp) {
                    drop(memory);
                    Self::count_hit(cost);
                    return Ok(Joined::Answered(artifact, Source::Memory));
                }
                match memory.flights.get(fp) {
                    Some(flight) => Arc::clone(flight),
                    None => {
                        let flight = Arc::new(Flight::new());
                        memory.flights.insert(*fp, Arc::clone(&flight));
                        return Ok(Joined::Leading(Leader {
                            store: self,
                            fp: *fp,
                            flight,
                        }));
                    }
                }
            };
            if let Some(artifact) = self.follow(&flight, give_up)? {
                return Ok(Joined::Answered(artifact, Source::Coalesced));
            }
            // Its leader failed: lead the next flight, or follow it.
        }
    }

    /// Waits for `flight` to retire and returns its artifact, or `None`
    /// when its leader failed.
    fn follow<E>(
        &self,
        flight: &Flight<T>,
        give_up: &mut impl FnMut() -> Result<(), E>,
    ) -> Result<Option<Arc<T>>, E> {
        loop {
            give_up()?;
            let mut memory = self.lock();
            if flight.get().is_none() {
                memory = self
                    .retired
                    .wait_timeout(memory, WAIT_TICK)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
            let Some(outcome) = flight.get() else {
                continue;
            };
            if let Some(artifact) = outcome {
                let cost = artifact.cost();
                memory.stats.memory_hits += 1;
                memory.stats.cost_saved += cost;
                drop(memory);
                Self::count_hit(cost);
            }
            return Ok(outcome.clone());
        }
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

    /// Reads and decodes `fp`'s disk entry, when the store has a
    /// directory. A damaged or undecodable entry counts as corrupt and is
    /// removed best-effort, so the next write replaces it.
    fn read_disk(&self, fp: &Fingerprint) -> Option<(T, u64)> {
        let path = entry_path(self.dir.as_ref()?, fp);
        let text = fs::read_to_string(&path).ok()?;
        let decoded = decode_entry(&text, fp);
        if decoded.is_none() {
            let _ = fs::remove_file(&path);
            self.lock().stats.corrupt_entries += 1;
            Self::count("corrupt", 1);
        }
        decoded
    }
}

impl<T> Memory<T> {
    /// A memory hit, credited to the stats.
    fn hit(&mut self, fp: &Fingerprint) -> Option<(Arc<T>, u64)> {
        let artifact = Arc::clone(self.lru.get(fp)?);
        let cost = self.lru.cost_of(fp).unwrap_or(0);
        self.stats.memory_hits += 1;
        self.stats.cost_saved += cost;
        Some((artifact, cost))
    }
}

/// The caller computing one flight's artifact. Dropped before it
/// publishes (its `compute` failed or panicked, or `give_up` ended its
/// wait for a lock file), it retires the flight empty.
struct Leader<'a, T: Artifact> {
    store: &'a MorphStore<T>,
    fp: Fingerprint,
    flight: Arc<Flight<T>>,
}

impl<T: Artifact> Leader<'_, T> {
    /// Publishes `artifact` to the memory tier and retires the flight with
    /// it, in one step. `source` is [`Source::Computed`] for an artifact
    /// this caller computed (a write), else the disk read it came from (a
    /// disk hit).
    fn publish(self, artifact: T, cost: u64, source: Source) -> (Arc<T>, Source) {
        let artifact = Arc::new(artifact);
        let evicted = {
            let mut memory = self.store.lock();
            if source == Source::Computed {
                memory.stats.writes += 1;
            } else {
                memory.stats.disk_hits += 1;
                memory.stats.cost_saved += cost;
            }
            let evicted = memory.lru.insert(self.fp, Arc::clone(&artifact), cost);
            self.retire(&mut memory, Some(Arc::clone(&artifact)));
            evicted
        };
        drop(evicted);
        self.store.retired.notify_all();
        match source {
            Source::Computed => MorphStore::<T>::count("write", 1),
            _ => MorphStore::<T>::count_hit(cost),
        }
        (artifact, source)
    }

    /// Removes the flight and sets its outcome, under the store's mutex;
    /// the waiting callers are woken once it is released.
    fn retire(&self, memory: &mut Memory<T>, outcome: Option<Arc<T>>) {
        memory.flights.remove(&self.fp);
        let _ = self.flight.set(outcome);
    }
}

impl<T: Artifact> Drop for Leader<'_, T> {
    fn drop(&mut self) {
        if self.flight.get().is_none() {
            self.retire(&mut self.store.lock(), None);
            self.store.retired.notify_all();
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
mod tests {
    use super::*;
    use crate::fingerprint::FingerprintBuilder;
    use serde::json::FromValueError;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Barrier};
    use std::thread;

    /// A test artifact: a number whose recompute cost is carried along.
    #[derive(Debug, Clone, PartialEq)]
    struct Probe {
        n: u64,
        cost: u64,
    }

    fn probe(n: u64, cost: u64) -> Probe {
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

    /// Looks `key` up without computing: `None` on a miss.
    fn lookup(store: &MorphStore<Probe>, key: &Fingerprint) -> Option<Arc<Probe>> {
        let found = store.get_or_compute(key, || Ok(()), || Err(()));
        found.ok().map(|(artifact, _)| artifact)
    }

    fn value_of(store: &MorphStore<Probe>, key: &Fingerprint) -> Option<Probe> {
        lookup(store, key).map(|a| (*a).clone())
    }

    /// Computes `artifact` under `key`: one miss, one write.
    fn seed(store: &MorphStore<Probe>, key: Fingerprint, artifact: Probe) -> Arc<Probe> {
        let computed = store.get_or_compute(&key, || Ok(()), || Ok::<_, ()>(artifact));
        computed.unwrap().0
    }

    #[test]
    fn memory_round_trip_and_stats() {
        let store = MorphStore::in_memory();
        let key = fp(1);
        assert!(lookup(&store, &key).is_none());
        seed(&store, key, probe(5, 7));
        assert_eq!(value_of(&store, &key), Some(probe(5, 7)));
        let stats = store.stats();
        assert_eq!(
            stats.misses, 2,
            "the failed lookup, then the computing call"
        );
        assert_eq!(stats.memory_hits, 1);
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.cost_saved, 7);
    }

    #[test]
    fn memory_hits_share_one_decoded_artifact() {
        let dir = temp_dir("shared");
        let store = MorphStore::open(&dir).unwrap();
        let computed = seed(&store, fp(1), probe(3, 1));
        let (a, b) = (answer(&store, 1).0, answer(&store, 1).0);
        assert!(Arc::ptr_eq(&a, &b), "a memory hit is a pointer clone");
        assert!(
            Arc::ptr_eq(&a, &computed),
            "the computed artifact is stored"
        );
        // A disk load decodes once; later hits share that decoded value.
        store.drop_memory();
        let (c, d) = (answer(&store, 1).0, answer(&store, 1).0);
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
            seed(&MorphStore::open(&dir).unwrap(), fp(2), probe(99, 1234));
        }
        let fresh = MorphStore::open(&dir).unwrap();
        assert_eq!(value_of(&fresh, &fp(2)), Some(probe(99, 1234)));
        assert_eq!(fresh.stats().disk_hits, 1);
        assert_eq!(fresh.stats().cost_saved, 1234);
        // Promoted into memory: second lookup is a memory hit.
        assert_eq!(answer(&fresh, 2).1, Source::Memory);
        assert_eq!(fresh.stats().memory_hits, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Rewrites `key`'s entry file with `edit`, then empties the memory tier
    /// so the next lookup reads it.
    fn tamper(store: &MorphStore<Probe>, key: &Fingerprint, edit: impl Fn(String) -> String) {
        let path = entry_path(store.dir.as_ref().unwrap(), key);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, edit(text)).unwrap();
        store.drop_memory();
    }

    #[test]
    fn truncated_entry_degrades_to_miss() {
        let dir = temp_dir("truncated");
        let store = MorphStore::open(&dir).unwrap();
        seed(&store, fp(3), probe(1, 50));
        tamper(&store, &fp(3), |full| full[..full.len() / 2].to_string());
        assert_eq!(value_of(&store, &fp(3)), None);
        assert_eq!(store.stats().corrupt_entries, 1);
        assert_eq!(store.stats().misses, 2, "the seeding call, then the damage");
        assert!(
            !entry_path(&dir, &fp(3)).exists(),
            "damaged entry is cleaned up"
        );
        // Recomputing repairs the entry.
        seed(&store, fp(3), probe(2, 50));
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
            seed(&store, fp(4), probe(1, 5));
            tamper(&store, &fp(4), |t| t.replace(from, to));
            assert_eq!(value_of(&store, &fp(4)), None, "{to}");
            let stats = store.stats();
            assert_eq!(
                (stats.hits(), stats.misses, stats.corrupt_entries),
                (0, 2, 1)
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
        seed(&store, fp(5), probe(1, 5));
        // Copy entry 5's file into entry 6's slot: content hash no longer
        // matches the address.
        fs::copy(entry_path(&dir, &fp(5)), entry_path(&dir, &fp(6))).unwrap();
        store.drop_memory();
        assert_eq!(value_of(&store, &fp(6)), None);
        assert_eq!(store.stats().corrupt_entries, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn eviction_is_memory_only() {
        let dir = temp_dir("evict");
        fs::create_dir_all(&dir).unwrap();
        let store = MorphStore::with_capacity(Some(dir.clone()), 2);
        for n in 0..5 {
            seed(&store, fp(n), probe(n, 1));
        }
        // Evicted artifacts still load from disk.
        assert_eq!(value_of(&store, &fp(0)), Some(probe(0, 1)));
        assert_eq!(store.stats().disk_hits, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Returns once some caller leads a flight on `store`.
    fn wait_for_a_flight(store: &MorphStore<Probe>) {
        while store.lock().flights.is_empty() {
            thread::yield_now();
        }
    }

    /// Runs `get_or_compute` on `fp(n)` with a `compute` that must not run.
    fn answer(store: &MorphStore<Probe>, n: u64) -> (Arc<Probe>, Source) {
        store
            .get_or_compute(
                &fp(n),
                || Ok::<(), ()>(()),
                || panic!("answered without computing"),
            )
            .unwrap()
    }

    /// Runs `call` on `n` threads released together.
    fn together<R: Send>(n: usize, call: impl Fn() -> R + Sync) -> Vec<R> {
        let barrier = Barrier::new(n);
        thread::scope(|s| {
            let calls: Vec<_> = (0..n)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        call()
                    })
                })
                .collect();
            calls.into_iter().map(|c| c.join().unwrap()).collect()
        })
    }

    #[test]
    fn concurrent_callers_compute_once_and_share_one_arc() {
        let store = MorphStore::in_memory();
        let computed = AtomicUsize::new(0);
        let answers = together(8, || {
            let compute = || {
                computed.fetch_add(1, Ordering::SeqCst);
                // Long enough for every caller to arrive.
                thread::sleep(Duration::from_millis(50));
                Ok::<_, ()>(probe(7, 3))
            };
            store.get_or_compute(&fp(1), || Ok(()), compute).unwrap()
        });
        assert_eq!(computed.load(Ordering::SeqCst), 1, "one computation");
        let computed_by = answers.iter().filter(|(_, s)| *s == Source::Computed);
        assert_eq!(computed_by.count(), 1);
        for (artifact, source) in &answers {
            assert!(Arc::ptr_eq(artifact, &answers[0].0), "{source:?}");
            assert!(matches!(
                source,
                Source::Computed | Source::Coalesced | Source::Memory
            ));
        }
        let stats = store.stats();
        assert_eq!((stats.misses, stats.memory_hits, stats.writes), (1, 7, 1));
        assert_eq!(stats.cost_saved, 7 * 3);
    }

    /// A leader whose `compute` fails, or panics, while another caller
    /// waits on its flight retires the flight empty; the waiting caller
    /// leads next and computes.
    #[test]
    fn a_failed_leader_hands_its_flight_to_a_waiting_caller() {
        for panics in [false, true] {
            let store = MorphStore::in_memory();
            let (waiting_tx, waiting_rx) = mpsc::channel();
            let failed = thread::scope(|s| {
                let store = &store;
                let leader = s.spawn(move || {
                    store.get_or_compute(
                        &fp(2),
                        || Ok(()),
                        || {
                            // Fail only once a second caller waits.
                            waiting_rx.recv().unwrap();
                            if panics {
                                panic!("leader panics");
                            }
                            Err("leader fails")
                        },
                    )
                });
                wait_for_a_flight(store);
                let follower = s.spawn(|| {
                    store.get_or_compute(
                        &fp(2),
                        || {
                            let _ = waiting_tx.send(());
                            Ok(())
                        },
                        || Ok::<_, &str>(probe(9, 1)),
                    )
                });
                let (artifact, source) = follower.join().unwrap().unwrap();
                assert_eq!((*artifact).clone(), probe(9, 1));
                assert_eq!(source, Source::Computed, "the waiting caller leads next");
                leader.join()
            });
            match failed {
                Ok(result) => assert_eq!(result.unwrap_err(), "leader fails"),
                Err(_) => assert!(panics, "only the panicking leader unwinds"),
            }
            assert_eq!(answer(&store, 2).1, Source::Memory);
        }
    }

    /// A caller whose `give_up` fails stops waiting; the flight still
    /// finishes for the caller that led it and for the one still waiting.
    #[test]
    fn giving_up_returns_that_caller_and_the_flight_completes_for_the_others() {
        let store = MorphStore::in_memory();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (waiting_tx, waiting_rx) = mpsc::channel();
        thread::scope(|s| {
            let store = &store;
            let leader = s.spawn(move || {
                store.get_or_compute(
                    &fp(3),
                    || Ok(()),
                    || {
                        release_rx.recv().unwrap();
                        Ok::<_, &str>(probe(3, 5))
                    },
                )
            });
            wait_for_a_flight(store);
            let patient = s.spawn(|| {
                store.get_or_compute(
                    &fp(3),
                    || {
                        let _ = waiting_tx.send(());
                        Ok(())
                    },
                    || Err("the patient caller never leads"),
                )
            });
            waiting_rx.recv().unwrap();
            let impatient = store.get_or_compute(&fp(3), || Err("gave up"), || Err("led"));
            assert_eq!(impatient.unwrap_err(), "gave up");
            release_tx.send(()).unwrap();
            let (led, source) = leader.join().unwrap().unwrap();
            assert_eq!(source, Source::Computed);
            let (followed, source) = patient.join().unwrap().unwrap();
            assert_eq!(source, Source::Coalesced);
            assert!(Arc::ptr_eq(&led, &followed));
        });
    }

    /// Callers that miss memory together while the artifact is on disk
    /// wait on the one caller reading it: one disk read among them.
    #[test]
    fn concurrent_misses_of_a_disk_artifact_cost_one_disk_read() {
        let dir = temp_dir("one-read");
        seed(&MorphStore::open(&dir).unwrap(), fp(4), probe(4, 2));
        let store = MorphStore::open(&dir).unwrap();
        let sources = together(6, || answer(&store, 4).1);
        assert_eq!(sources.iter().filter(|&&s| s == Source::Disk).count(), 1);
        let stats = store.stats();
        assert_eq!(
            (stats.disk_hits, stats.memory_hits, stats.misses),
            (1, 5, 0)
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A leader that finds another holder's lock file waits for it, then
    /// reads the artifact that holder wrote instead of computing.
    #[test]
    fn a_leader_reads_what_the_lock_holder_wrote() {
        let dir = temp_dir("other-process");
        let store: MorphStore<Probe> = MorphStore::open(&dir).unwrap();
        let mut held = || Err::<(), ()>(());
        let lock = FingerprintLock::acquire(&dir, &fp(5), WAIT_TICK, &mut held)
            .unwrap()
            .expect("lock taken");
        let (waiting_tx, waiting_rx) = mpsc::channel();
        thread::scope(|s| {
            let waiter = s.spawn(|| {
                store
                    .get_or_compute(
                        &fp(5),
                        || {
                            let _ = waiting_tx.send(());
                            Ok::<(), ()>(())
                        },
                        || panic!("the holder's artifact is read, not recomputed"),
                    )
                    .unwrap()
            });
            // The leader has missed the disk and found the lock taken.
            waiting_rx.recv().unwrap();
            let entry = entry_path(&dir, &fp(5));
            persist(&entry, &fp(5), probe(5, 8).to_value(), 8).unwrap();
            drop(lock);
            let (artifact, source) = waiter.join().unwrap();
            assert_eq!(
                ((*artifact).clone(), source),
                (probe(5, 8), Source::OtherProcess)
            );
        });
        let stats = store.stats();
        assert_eq!((stats.disk_hits, stats.misses), (1, 0));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A store whose directory has gone cannot create a lock file: the
    /// leader computes without one, and the artifact stays in memory.
    #[test]
    fn a_lock_file_that_cannot_be_created_degrades_to_computing() {
        let dir = temp_dir("vanished");
        let store = MorphStore::open(&dir).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        let (artifact, source) = store
            .get_or_compute(&fp(6), || Err(()), || Ok(probe(6, 1)))
            .unwrap();
        assert_eq!(
            ((*artifact).clone(), source),
            (probe(6, 1), Source::Computed)
        );
        assert_eq!(answer(&store, 6).1, Source::Memory);
    }
}
