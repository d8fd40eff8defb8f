//! Name resolution over the landmarks (paper §4.3).
//!
//! A consistent-hashing database runs over the globally-known set of
//! landmarks and maps `flat name → address`. Every node inserts its own
//! address under the key `h(name)`; any node can query the database to
//! bootstrap communication (and Disco also uses it to look up overlay
//! finger candidates). The state is *soft*: entries are re-inserted every
//! `t` minutes and expire after `2t + 1` minutes (the simulator uses
//! `t = 10` as in the paper).
//!
//! The ring uses multiple hash functions per landmark (virtual points),
//! which reduces consistent hashing's `Θ(log n)` load imbalance and keeps
//! the per-landmark share of the database at `O~(√n)` entries (Theorem 2).

use crate::address::Address;
use crate::config::DiscoConfig;
use crate::hash::{NameHash, NameHasher};
use crate::name::FlatName;
use disco_graph::NodeId;
use std::collections::HashMap;

/// Soft-state timing parameters (in minutes, as in the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftStateTimers {
    /// Re-insertion period `t`.
    pub refresh_minutes: f64,
    /// Expiry `2t + 1`.
    pub expiry_minutes: f64,
}

impl Default for SoftStateTimers {
    fn default() -> Self {
        SoftStateTimers::with_refresh(10.0)
    }
}

impl SoftStateTimers {
    /// Timers for a refresh period of `t` minutes (expiry `2t + 1`).
    pub fn with_refresh(t: f64) -> Self {
        SoftStateTimers {
            refresh_minutes: t,
            expiry_minutes: 2.0 * t + 1.0,
        }
    }
}

/// The consistent-hashing ring over the landmark set.
#[derive(Debug, Clone)]
pub struct ResolutionRing {
    /// Virtual points sorted by ring position: (position, landmark).
    points: Vec<(NameHash, NodeId)>,
    hasher: NameHasher,
}

impl ResolutionRing {
    /// Build the ring for the given landmark set with
    /// `cfg.resolution_hash_functions` virtual points per landmark.
    pub fn new(landmarks: &[NodeId], cfg: &DiscoConfig) -> Self {
        assert!(!landmarks.is_empty(), "resolution ring needs ≥1 landmark");
        let hasher = NameHasher::new(cfg.seed ^ 0xca11);
        let mut points = Vec::with_capacity(landmarks.len() * cfg.resolution_hash_functions.max(1));
        for &lm in landmarks {
            for vp in 0..cfg.resolution_hash_functions.max(1) {
                let pos = hasher.hash_u64(((vp as u64) << 48) ^ lm.0 as u64);
                points.push((pos, lm));
            }
        }
        points.sort();
        points.dedup_by_key(|p| p.0);
        ResolutionRing { points, hasher }
    }

    /// The hash function used to map keys onto the ring.
    pub fn hasher(&self) -> &NameHasher {
        &self.hasher
    }

    /// The landmark responsible for a ring position: the first virtual point
    /// clockwise from `key`.
    pub fn owner_of_hash(&self, key: NameHash) -> NodeId {
        match self.points.binary_search_by(|p| p.0.cmp(&key)) {
            Ok(i) => self.points[i].1,
            Err(i) => self.points[i % self.points.len()].1,
        }
    }

    /// The landmark responsible for a flat name.
    pub fn owner_of_name(&self, name: &FlatName) -> NodeId {
        self.owner_of_hash(self.hasher.hash_name(name))
    }

    /// Number of virtual points on the ring.
    pub fn virtual_point_count(&self) -> usize {
        self.points.len()
    }
}

/// The (simulated, centralized view of the) name-resolution database: which
/// landmark stores which `name → address` entries.
#[derive(Debug, Clone, Default)]
pub struct ResolutionDatabase {
    /// Entries stored at each landmark.
    per_landmark: HashMap<NodeId, HashMap<FlatName, Address>>,
}

impl ResolutionDatabase {
    /// Build the converged database: every node's address inserted at its
    /// owner landmark.
    pub fn build(ring: &ResolutionRing, names: &[FlatName], addresses: &[Address]) -> Self {
        assert_eq!(names.len(), addresses.len());
        let mut per_landmark: HashMap<NodeId, HashMap<FlatName, Address>> = HashMap::new();
        for (name, addr) in names.iter().zip(addresses) {
            let owner = ring.owner_of_name(name);
            per_landmark
                .entry(owner)
                .or_default()
                .insert(name.clone(), addr.clone());
        }
        ResolutionDatabase { per_landmark }
    }

    /// Resolve a name (as if querying the owner landmark).
    pub fn resolve(&self, ring: &ResolutionRing, name: &FlatName) -> Option<&Address> {
        let owner = ring.owner_of_name(name);
        self.per_landmark.get(&owner)?.get(name)
    }

    /// Number of entries stored at landmark `lm` — the quantity that enters
    /// the per-landmark state accounting of Theorem 2.
    pub fn entries_at(&self, lm: NodeId) -> usize {
        self.per_landmark.get(&lm).map(|m| m.len()).unwrap_or(0)
    }

    /// Total number of entries (equals the number of nodes).
    pub fn total_entries(&self) -> usize {
        self.per_landmark.values().map(|m| m.len()).sum()
    }

    /// Largest number of entries at any landmark.
    pub fn max_entries(&self) -> usize {
        self.per_landmark
            .values()
            .map(|m| m.len())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::landmark::select_landmarks;
    use disco_graph::Path;

    fn dummy_addresses(n: usize, landmarks: &[NodeId]) -> (Vec<FlatName>, Vec<Address>) {
        let names: Vec<FlatName> = (0..n).map(FlatName::synthetic).collect();
        let addrs: Vec<Address> = (0..n)
            .map(|i| Address {
                node: NodeId(i),
                landmark: landmarks[i % landmarks.len()],
                landmark_distance: 1.0,
                route: crate::label::ExplicitRoute::empty(landmarks[i % landmarks.len()]),
            })
            .collect();
        (names, addrs)
    }

    #[test]
    fn soft_state_timers_follow_paper_rule() {
        let t = SoftStateTimers::default();
        assert!((t.refresh_minutes - 10.0).abs() < 1e-12);
        assert!((t.expiry_minutes - 21.0).abs() < 1e-12);
        let t5 = SoftStateTimers::with_refresh(5.0);
        assert!((t5.expiry_minutes - 11.0).abs() < 1e-12);
    }

    #[test]
    fn ring_owner_is_deterministic_and_consistent() {
        let cfg = DiscoConfig::seeded(2);
        let landmarks = select_landmarks(1024, &cfg);
        let ring = ResolutionRing::new(&landmarks, &cfg);
        let name = FlatName::from("some-host");
        assert_eq!(ring.owner_of_name(&name), ring.owner_of_name(&name));
        assert!(landmarks.contains(&ring.owner_of_name(&name)));
        assert_eq!(
            ring.virtual_point_count(),
            landmarks.len() * cfg.resolution_hash_functions
        );
    }

    #[test]
    fn removing_one_landmark_moves_few_keys() {
        // Consistent hashing's defining property.
        let cfg = DiscoConfig::seeded(4);
        let landmarks = select_landmarks(4096, &cfg);
        let ring_full = ResolutionRing::new(&landmarks, &cfg);
        let reduced: Vec<NodeId> = landmarks[1..].to_vec();
        let ring_reduced = ResolutionRing::new(&reduced, &cfg);
        let n_keys = 2000;
        let moved = (0..n_keys)
            .filter(|&i| {
                let name = FlatName::synthetic(i);
                let a = ring_full.owner_of_name(&name);
                let b = ring_reduced.owner_of_name(&name);
                a != b && a != landmarks[0]
            })
            .count();
        // Keys not owned by the removed landmark should essentially never move.
        assert_eq!(moved, 0);
    }

    #[test]
    fn database_stores_and_resolves_every_name() {
        let cfg = DiscoConfig::seeded(6);
        let n = 512;
        let landmarks = select_landmarks(n, &cfg);
        let ring = ResolutionRing::new(&landmarks, &cfg);
        let (names, addrs) = dummy_addresses(n, &landmarks);
        let db = ResolutionDatabase::build(&ring, &names, &addrs);
        assert_eq!(db.total_entries(), n);
        for i in (0..n).step_by(37) {
            let got = db.resolve(&ring, &names[i]).unwrap();
            assert_eq!(got.node, NodeId(i));
        }
        assert!(db.resolve(&ring, &FlatName::from("unknown")).is_none());
    }

    #[test]
    fn load_is_roughly_balanced_with_virtual_points() {
        let cfg = DiscoConfig::seeded(8);
        let n = 4096;
        let landmarks = select_landmarks(n, &cfg);
        let ring = ResolutionRing::new(&landmarks, &cfg);
        let (names, addrs) = dummy_addresses(n, &landmarks);
        let db = ResolutionDatabase::build(&ring, &names, &addrs);
        let fair = n as f64 / landmarks.len() as f64;
        // With 8 virtual points the most loaded landmark should stay within
        // a small factor of fair share (paper: O(√n log n) entries w.h.p.).
        assert!(
            (db.max_entries() as f64) < fair * 8.0,
            "max {} vs fair {fair}",
            db.max_entries()
        );
    }

    #[test]
    fn paths_in_addresses_are_preserved() {
        // Ensure the database stores addresses verbatim (no lossy copies).
        let cfg = DiscoConfig::seeded(1);
        let g = disco_graph::generators::ring(16);
        let landmarks = vec![NodeId(0)];
        let ring = ResolutionRing::new(&landmarks, &cfg);
        let spt = disco_graph::dijkstra(&g, NodeId(0));
        let names: Vec<FlatName> = (0..16).map(FlatName::synthetic).collect();
        let addrs: Vec<Address> = (0..16)
            .map(|i| {
                let p: Path = spt.path_to(NodeId(i)).unwrap();
                Address::from_landmark_path(&g, NodeId(i), &p)
            })
            .collect();
        let db = ResolutionDatabase::build(&ring, &names, &addrs);
        let a = db.resolve(&ring, &names[9]).unwrap();
        assert_eq!(a.route_path(&g).unwrap().destination(), NodeId(9));
    }
}
