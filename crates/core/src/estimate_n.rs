//! Estimating the network size `n` (paper §4.1).
//!
//! Several of Disco's parameters — the landmark probability, the vicinity
//! size, the sloppy-group prefix length — are functions of `n`. The paper
//! proposes estimating `n` with *synopsis diffusion* \[36\]: each node draws a
//! small Flajolet–Martin-style synopsis and nodes gossip the bitwise OR of
//! the synopses they have seen; the union's lowest unset bit estimates the
//! count. The estimate is robust (order-and-duplicate-insensitive) and
//! cheap (a few hundred bytes per gossip message).
//!
//! This module provides
//!
//! * [`Synopsis`] — the FM sketch with union and count estimation,
//! * [`estimate_exact_union`] — the converged estimate every node would
//!   agree on after gossip stabilises, and
//! * [`NEstimates`] — per-node estimates with injectable error, used by the
//!   robustness experiment in §5.2 ("Error in Estimating Number of Nodes").
//!
//! The gossip itself runs inside the distributed protocol
//! ([`crate::protocol::DiscoProtocol`], `DiscoMsg::Gossip`).

use disco_graph::NodeId;
use disco_sim::rng::rng_for;
use rand::Rng;

/// Number of independent FM sketches averaged together. More sketches →
/// lower variance; 64 gives ≈ 13% standard error, comparable to the paper's
/// "within 10% on average using 256-byte synopses".
pub const SKETCH_COUNT: usize = 64;
/// Bits per sketch (enough for n up to 2^32).
pub const SKETCH_BITS: usize = 32;
/// Flajolet–Martin bias correction constant.
const FM_PHI: f64 = 0.77351;

/// RNG stream for synopsis generation.
const SYNOPSIS_STREAM: u64 = 0x33;
/// RNG stream for error injection.
const ERROR_STREAM: u64 = 0x34;

/// A Flajolet–Martin synopsis: `SKETCH_COUNT` bitmaps that can be unioned
/// with other nodes' synopses; the union over a set of nodes estimates the
/// set's size.
///
/// The FM union is *monotone* — a departed node's contribution can never
/// leave it, so the estimate can only grow. The `epoch` counter fixes
/// this: when the protocol observes departures it starts a new epoch, and
/// every node restarts its union from its own sketch upon adopting the
/// higher epoch (see `DiscoProtocol`), so only live nodes re-contribute
/// and the estimate can *fall*. Synopses of different epochs never union.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Synopsis {
    sketches: Vec<u32>,
    epoch: u64,
}

impl Default for Synopsis {
    fn default() -> Self {
        Synopsis {
            sketches: vec![0; SKETCH_COUNT],
            epoch: 0,
        }
    }
}

impl Synopsis {
    /// The empty synopsis (estimates 0 nodes).
    pub fn empty() -> Self {
        Self::default()
    }

    /// The synopsis contributed by a single node: in each sketch it sets bit
    /// `i` with probability `2^-(i+1)` (geometric), derived
    /// deterministically from the experiment seed and node id.
    pub fn for_node(node: NodeId, seed: u64) -> Self {
        let mut rng = rng_for(seed, SYNOPSIS_STREAM, node.0 as u64);
        let mut sketches = vec![0u32; SKETCH_COUNT];
        for s in sketches.iter_mut() {
            // Geometric: position of the first success in a fair-coin
            // sequence.
            let mut bit = 0usize;
            while bit + 1 < SKETCH_BITS && rng.gen::<bool>() {
                bit += 1;
            }
            *s = 1u32 << bit;
        }
        Synopsis { sketches, epoch: 0 }
    }

    /// The reset epoch this synopsis belongs to (0 at boot).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Move this synopsis to `epoch` (adopting a newer reset round). The
    /// sketch contents are untouched; the caller restarts them from its
    /// own contribution first.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Union (bitwise OR) with another synopsis — the gossip merge
    /// operation. Order- and duplicate-insensitive. Only meaningful for
    /// synopses of the same epoch (the protocol filters cross-epoch
    /// gossip before merging).
    pub fn union(&mut self, other: &Synopsis) {
        debug_assert_eq!(
            self.epoch, other.epoch,
            "cross-epoch synopsis union (filter by epoch first)"
        );
        for (a, b) in self.sketches.iter_mut().zip(&other.sketches) {
            *a |= b;
        }
    }

    /// Whether a union would change this synopsis.
    pub fn would_grow(&self, other: &Synopsis) -> bool {
        self.sketches
            .iter()
            .zip(&other.sketches)
            .any(|(a, b)| (*a | *b) != *a)
    }

    /// Estimate the number of distinct contributors.
    pub fn estimate(&self) -> f64 {
        let mean_r: f64 = self
            .sketches
            .iter()
            .map(|&s| lowest_zero_bit(s) as f64)
            .sum::<f64>()
            / self.sketches.len() as f64;
        2f64.powf(mean_r) / FM_PHI
    }

    /// Size of the synopsis on the wire, in bytes (the paper quotes
    /// 256-byte synopses).
    pub fn wire_bytes(&self) -> usize {
        self.sketches.len() * (SKETCH_BITS / 8)
    }
}

fn lowest_zero_bit(x: u32) -> u32 {
    (!x).trailing_zeros()
}

/// The estimate every node converges to once gossip has flooded the whole
/// (connected) network: the union of all per-node synopses.
pub fn estimate_exact_union(n: usize, seed: u64) -> f64 {
    let mut all = Synopsis::empty();
    for v in 0..n {
        all.union(&Synopsis::for_node(NodeId(v), seed));
    }
    all.estimate()
}

/// Per-node estimates of `n`, optionally with injected multiplicative error
/// (±`error` uniform), reproducing the paper's robustness experiment.
#[derive(Debug, Clone)]
pub struct NEstimates {
    estimates: Vec<usize>,
}

impl NEstimates {
    /// All nodes know `n` exactly.
    pub fn exact(n: usize) -> Self {
        NEstimates {
            estimates: vec![n; n],
        }
    }

    /// Each node's estimate is `n · (1 + e)` with `e` uniform in
    /// `[-error, +error]`, drawn deterministically from `seed`.
    pub fn with_error(n: usize, error: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&error), "error must be in [0, 1)");
        let estimates = (0..n)
            .map(|v| {
                let mut rng = rng_for(seed, ERROR_STREAM, v as u64);
                let e: f64 = rng.gen_range(-error..=error);
                ((n as f64) * (1.0 + e)).round().max(2.0) as usize
            })
            .collect();
        NEstimates { estimates }
    }

    /// Node `v`'s estimate of `n`.
    pub fn of(&self, v: NodeId) -> usize {
        self.estimates[v.0]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.estimates.len()
    }

    /// Whether there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.estimates.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_estimate_is_order_one() {
        let s = Synopsis::for_node(NodeId(0), 1);
        let est = s.estimate();
        assert!(est > 0.3 && est < 6.0, "estimate {est}");
    }

    #[test]
    fn union_estimate_tracks_true_n_within_tolerance() {
        for &n in &[128usize, 1024, 8192] {
            let est = estimate_exact_union(n, 7);
            let err = (est - n as f64).abs() / n as f64;
            assert!(err < 0.35, "n={n} estimated as {est} (err {err:.2})");
        }
    }

    #[test]
    fn union_is_idempotent_and_commutative() {
        let a = Synopsis::for_node(NodeId(1), 3);
        let b = Synopsis::for_node(NodeId(2), 3);
        let mut ab = a.clone();
        ab.union(&b);
        let mut ba = b.clone();
        ba.union(&a);
        assert_eq!(ab, ba);
        let mut abb = ab.clone();
        abb.union(&b);
        assert_eq!(abb, ab);
        assert!(!ab.would_grow(&b));
    }

    #[test]
    fn wire_size_matches_paper_scale() {
        // Paper quotes 256-byte synopses; ours are the same order.
        let s = Synopsis::empty();
        assert_eq!(s.wire_bytes(), SKETCH_COUNT * 4);
        assert!(s.wire_bytes() <= 512);
    }

    #[test]
    fn injected_error_respects_bounds() {
        let n = 1000;
        let est = NEstimates::with_error(n, 0.6, 5);
        assert_eq!(est.len(), n);
        for v in 0..n {
            let e = est.of(NodeId(v)) as f64;
            assert!(e >= n as f64 * 0.39 && e <= n as f64 * 1.61, "estimate {e}");
        }
        let exact = NEstimates::exact(n);
        assert!(!exact.is_empty());
        assert!((0..n).all(|v| exact.of(NodeId(v)) == n));
    }
}
