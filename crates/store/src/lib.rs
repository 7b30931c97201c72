//! Content-addressed characterization artifact store for the MorphQPV
//! reproduction.
//!
//! The paper's headline cost is the characterization stage (Section 5:
//! per-input sampling plus tomography readout), and its amortization
//! argument is that one characterization is *reused* across many assertions
//! on the same program. This crate is the substrate for that reuse:
//!
//! - [`Fingerprint`] / [`FingerprintBuilder`] — SHA-256 content addresses
//!   over canonical byte encodings (`sha256` module implements the digest
//!   offline, checked against the FIPS vectors).
//! - [`CostAwareLru`] — the in-memory tier: LRU biased by each artifact's
//!   recompute cost, so expensive characterizations outlive cheap ones.
//! - [`MorphStore`] — the two-tier store, generic over its [`Artifact`]
//!   type: decoded artifacts behind `Arc` in memory (a hit is a pointer
//!   clone) over an on-disk JSON directory with a schema-version field,
//!   atomic write-then-rename persistence, and corruption-tolerant loads
//!   (a damaged entry, or a payload that no longer decodes, is a miss and
//!   gets rewritten, never a panic). Encoding and decoding happen only at
//!   the disk.
//! - [`MorphStore::get_or_compute`] — the one call that computes each
//!   fingerprint once: it answers from memory, from disk, from a
//!   computation already in flight (the caller waits), or by running the
//!   caller's computation as the flight's leader. Processes sharing a
//!   directory coordinate through a per-fingerprint lock file, so they
//!   too compute each fingerprint once. [`Source`] says which answered.
//!
//! The store knows artifact types only through the [`Artifact`] trait, so
//! it sits below every domain crate in the dependency graph.
//! `morphqpv::CharacterizationCache` is its instance for whole-run
//! characterizations; `morphqpv::Verifier::try_run` and morph-serve's
//! jobs obtain characterizations through `get_or_compute`. See
//! DESIGN.md "Characterization cache" for the fingerprint definition and
//! invalidation rules.

mod fingerprint;
mod lock;
mod lru;
pub mod sha256;
mod store;

pub use fingerprint::{Fingerprint, FingerprintBuilder};
pub use lru::CostAwareLru;
pub use store::{Artifact, MorphStore, Source, StoreStats, MEMORY_CAPACITY, SCHEMA_VERSION};
