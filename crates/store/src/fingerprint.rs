//! Content-addressed artifact keys.
//!
//! A [`Fingerprint`] is the SHA-256 digest of a *canonical byte encoding*
//! of everything that determines an artifact's content. The
//! [`FingerprintBuilder`] makes that encoding unambiguous: every field is
//! framed as `len(tag) ‖ tag ‖ len(payload) ‖ payload`, so no concatenation
//! of fields can collide with a different field split, and a leading domain
//! string separates unrelated artifact kinds.

use std::fmt;

use crate::sha256::Sha256;

/// A 256-bit content address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint(pub [u8; 32]);

impl Fingerprint {
    /// The lowercase-hex rendering used for file names and logs.
    pub fn to_hex(self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Parses the 64-hex-digit rendering produced by [`Fingerprint::to_hex`].
    pub fn from_hex(text: &str) -> Option<Fingerprint> {
        if text.len() != 64 {
            return None;
        }
        let mut bytes = [0u8; 32];
        for (i, byte) in bytes.iter_mut().enumerate() {
            *byte = u8::from_str_radix(&text[2 * i..2 * i + 2], 16).ok()?;
        }
        Some(Fingerprint(bytes))
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Full hex is noise in assertion output; eight bytes identify.
        write!(f, "Fingerprint({}…)", &self.to_hex()[..16])
    }
}

impl serde::Serialize for Fingerprint {
    fn to_value(&self) -> serde::json::Value {
        serde::json::Value::Str(self.to_hex())
    }
}

impl<'de> serde::Deserialize<'de> for Fingerprint {
    fn from_value(value: &serde::json::Value) -> Result<Self, serde::json::FromValueError> {
        let text = value
            .as_str()
            .ok_or_else(|| serde::json::FromValueError::expected("fingerprint hex", value))?;
        Fingerprint::from_hex(text).ok_or_else(|| {
            serde::json::FromValueError::new(format!("not a 64-hex-digit fingerprint: {text:?}"))
        })
    }
}

/// Builds a [`Fingerprint`] from tagged fields.
///
/// # Examples
///
/// ```
/// use morph_store::FingerprintBuilder;
///
/// let a = FingerprintBuilder::new("demo/v1")
///     .field_u64("seed", 7)
///     .field_bytes("payload", b"abc")
///     .finish();
/// let b = FingerprintBuilder::new("demo/v1")
///     .field_u64("seed", 8)
///     .field_bytes("payload", b"abc")
///     .finish();
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone)]
pub struct FingerprintBuilder {
    hasher: Sha256,
}

impl FingerprintBuilder {
    /// Starts a fingerprint in the given domain (artifact kind + schema
    /// revision, e.g. `"morphqpv/characterization/v1"`). Bump the revision
    /// whenever the field encoding changes — old entries then simply miss.
    pub fn new(domain: &str) -> Self {
        let mut hasher = Sha256::new();
        feed_framed(&mut hasher, domain.as_bytes());
        FingerprintBuilder { hasher }
    }

    /// Adds a raw byte field.
    pub fn field_bytes(mut self, tag: &str, bytes: &[u8]) -> Self {
        feed_framed(&mut self.hasher, tag.as_bytes());
        feed_framed(&mut self.hasher, bytes);
        self
    }

    /// Adds an unsigned integer field.
    pub fn field_u64(self, tag: &str, value: u64) -> Self {
        self.field_bytes(tag, &value.to_le_bytes())
    }

    /// Adds a float field by bit pattern (NaN-safe, sign-of-zero-exact).
    pub fn field_f64(self, tag: &str, value: f64) -> Self {
        self.field_bytes(tag, &value.to_bits().to_le_bytes())
    }

    /// Adds a string field.
    pub fn field_str(self, tag: &str, value: &str) -> Self {
        self.field_bytes(tag, value.as_bytes())
    }

    /// Adds a list of unsigned integers (length included in the frame).
    pub fn field_u64_list(self, tag: &str, values: &[u64]) -> Self {
        let mut bytes = Vec::with_capacity(values.len() * 8);
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.field_bytes(tag, &bytes)
    }

    /// Completes the digest.
    pub fn finish(self) -> Fingerprint {
        Fingerprint(self.hasher.finalize())
    }
}

fn feed_framed(hasher: &mut Sha256, bytes: &[u8]) {
    hasher.update(&(bytes.len() as u64).to_le_bytes());
    hasher.update(bytes);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trip() {
        let fp = FingerprintBuilder::new("t").finish();
        assert_eq!(Fingerprint::from_hex(&fp.to_hex()), Some(fp));
        assert_eq!(Fingerprint::from_hex("zz"), None);
        assert_eq!(Fingerprint::from_hex(&"0".repeat(63)), None);
    }

    #[test]
    fn serde_round_trip_as_hex_string() {
        use serde::{Deserialize, Serialize};
        let fp = FingerprintBuilder::new("t").field_u64("s", 9).finish();
        let value = fp.to_value();
        assert_eq!(value.as_str(), Some(fp.to_hex().as_str()));
        assert_eq!(Fingerprint::from_value(&value), Ok(fp));
        let bogus = serde::json::Value::Str("nope".into());
        assert!(Fingerprint::from_value(&bogus).is_err());
        assert!(Fingerprint::from_value(&serde::json::Value::Null).is_err());
    }

    #[test]
    fn framing_prevents_field_smearing() {
        // Same concatenated bytes, different field boundaries.
        let a = FingerprintBuilder::new("d")
            .field_bytes("x", b"ab")
            .field_bytes("y", b"c")
            .finish();
        let b = FingerprintBuilder::new("d")
            .field_bytes("x", b"a")
            .field_bytes("y", b"bc")
            .finish();
        assert_ne!(a, b);
    }

    #[test]
    fn domain_separates() {
        let a = FingerprintBuilder::new("domain-a")
            .field_u64("s", 1)
            .finish();
        let b = FingerprintBuilder::new("domain-b")
            .field_u64("s", 1)
            .finish();
        assert_ne!(a, b);
    }

    #[test]
    fn every_field_kind_is_significant() {
        let base = || FingerprintBuilder::new("d").field_u64("n", 3);
        let fp = base().field_f64("x", 1.0).finish();
        assert_ne!(fp, base().field_f64("x", -1.0).finish());
        assert_ne!(fp, base().field_f64("x", 1.0 + f64::EPSILON).finish());
        let list = base().field_u64_list("l", &[1, 2]).finish();
        assert_ne!(list, base().field_u64_list("l", &[2, 1]).finish());
        let s = base().field_str("s", "a").finish();
        assert_ne!(s, base().field_str("s", "b").finish());
    }

    #[test]
    fn fingerprint_is_stable_across_calls() {
        let make = || {
            FingerprintBuilder::new("morphqpv/test/v1")
                .field_u64("seed", 42)
                .field_f64("noise", 0.016)
                .field_u64_list("qubits", &[0, 2, 5])
                .finish()
        };
        assert_eq!(make(), make());
    }
}
