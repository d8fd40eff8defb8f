//! Flat, location-independent names (paper §2, §4.1).
//!
//! A flat name is an arbitrary bit string that serves the needs of the
//! application layer: a DNS name, a MAC address, or a *self-certifying*
//! identifier (the hash of a public key). The routing protocol never
//! interprets a name — it only hashes it (see [`crate::hash`]).

use std::fmt;

/// An arbitrary, location-independent node name.
///
/// Names are plain byte strings. Equality and hashing are byte-wise; two
/// nodes must not share a name.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlatName(Vec<u8>);

impl FlatName {
    /// A name from raw bytes.
    pub fn from_bytes(bytes: impl Into<Vec<u8>>) -> Self {
        FlatName(bytes.into())
    }

    /// A name from a UTF-8 string such as a DNS name (`"host.example.org"`)
    /// or a MAC address in text form.
    pub fn from_str_name(s: &str) -> Self {
        FlatName(s.as_bytes().to_vec())
    }

    /// A *self-certifying* name: the 20-byte digest of a public key, so the
    /// name itself proves ownership of the key without a PKI (paper §2).
    /// The digest here is the crate's internal mixer applied in
    /// sponge-fashion; it is not cryptographically strong, but the routing
    /// layer only requires uniformity (see README, "Substitutions", on the
    /// SHA-2 substitution).
    pub fn self_certifying(public_key: &[u8]) -> Self {
        let mut digest = Vec::with_capacity(20);
        let mut acc: u64 = 0x6a09e667f3bcc908;
        for (i, chunk) in public_key.chunks(8).enumerate() {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            acc = crate::hash::mix64(acc ^ u64::from_le_bytes(word) ^ (i as u64));
        }
        for round in 0u64..3 {
            acc = crate::hash::mix64(acc.wrapping_add(round));
            digest.extend_from_slice(&acc.to_be_bytes());
        }
        digest.truncate(20);
        FlatName(digest)
    }

    /// A deterministic synthetic name for simulation node `index`; used by
    /// the simulators to give every graph node a distinct flat name that has
    /// no relationship with its location.
    pub fn synthetic(index: usize) -> Self {
        FlatName(format!("node-{index:08x}").into_bytes())
    }

    /// The raw bytes of the name.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Length of the name in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the name is empty (permitted, but discouraged).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Debug for FlatName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match std::str::from_utf8(&self.0) {
            Ok(s) if s.chars().all(|c| c.is_ascii_graphic()) => write!(f, "FlatName({s})"),
            _ => {
                write!(f, "FlatName(0x")?;
                for b in &self.0 {
                    write!(f, "{b:02x}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl fmt::Display for FlatName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match std::str::from_utf8(&self.0) {
            Ok(s) if s.chars().all(|c| c.is_ascii_graphic()) => write!(f, "{s}"),
            _ => {
                for b in &self.0 {
                    write!(f, "{b:02x}")?;
                }
                Ok(())
            }
        }
    }
}

impl From<&str> for FlatName {
    fn from(s: &str) -> Self {
        FlatName::from_str_name(s)
    }
}

impl From<Vec<u8>> for FlatName {
    fn from(v: Vec<u8>) -> Self {
        FlatName(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_compare_bytewise() {
        assert_eq!(
            FlatName::from("alice"),
            FlatName::from_bytes(b"alice".to_vec())
        );
        assert_ne!(FlatName::from("alice"), FlatName::from("bob"));
    }

    #[test]
    fn synthetic_names_distinct() {
        let a = FlatName::synthetic(1);
        let b = FlatName::synthetic(2);
        assert_ne!(a, b);
        assert_eq!(a, FlatName::synthetic(1));
    }

    #[test]
    fn self_certifying_is_deterministic_and_key_dependent() {
        let k1 = vec![1u8; 32];
        let k2 = vec![2u8; 32];
        let n1 = FlatName::self_certifying(&k1);
        let n1b = FlatName::self_certifying(&k1);
        let n2 = FlatName::self_certifying(&k2);
        assert_eq!(n1, n1b);
        assert_ne!(n1, n2);
        assert_eq!(n1.len(), 20);
    }

    #[test]
    fn display_and_debug_of_text_and_binary() {
        let t = FlatName::from("host.example.org");
        assert_eq!(t.to_string(), "host.example.org");
        assert!(format!("{t:?}").contains("host.example.org"));
        let b = FlatName::from_bytes(vec![0u8, 255u8]);
        assert_eq!(b.to_string(), "00ff");
    }

    #[test]
    fn emptiness_and_len() {
        assert!(FlatName::from_bytes(Vec::new()).is_empty());
        assert_eq!(FlatName::from("ab").len(), 2);
    }
}
