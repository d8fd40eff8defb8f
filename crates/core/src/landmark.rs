//! Landmark selection (paper §4.2).
//!
//! A landmark is a node to which all nodes know shortest paths; end-to-end
//! routes have the form `s ; ℓ ; t`. Landmarks are selected uniformly at
//! random by each node locally and independently: a node draws `p ∈ [0,1]`
//! and becomes a landmark iff `p < √(ln n / n)`, so the expected number of
//! landmarks is `√(n ln n)` and a Chernoff bound gives `Θ(√(n ln n))` with
//! high probability.
//!
//! Because `n` changes over time, a node re-evaluates its landmark status
//! only when its estimate of `n` has changed by at least a factor of 2
//! since the last flip ([`LandmarkStatus`]), amortising landmark churn over
//! `Ω(n)` joins/leaves.

use crate::config::DiscoConfig;
use disco_graph::NodeId;
use disco_sim::rng::rng_for;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// RNG stream id for landmark election (see `disco_sim::rng`).
const LANDMARK_STREAM: u64 = 0x11;

/// Decide whether node `v` elects itself landmark, exactly as each node
/// would locally: a deterministic pseudo-random draw from the experiment
/// seed compared against `√(ln n / n)`. `n_estimate` is the node's own
/// estimate of the network size.
pub fn elects_itself(v: NodeId, n_estimate: usize, cfg: &DiscoConfig) -> bool {
    let mut rng = rng_for(cfg.seed, LANDMARK_STREAM, v.0 as u64);
    let p: f64 = rng.gen();
    p < cfg.landmark_probability(n_estimate)
}

/// Select the landmark set for an `n`-node network in which every node uses
/// the same estimate of `n`. Returns the landmark ids in increasing order.
///
/// Guarantee: the result is never empty — if the random draws elect nobody
/// (possible only for tiny `n`), the deterministically lowest-id node is
/// promoted so the protocol stays well-defined.
pub fn select_landmarks(n: usize, cfg: &DiscoConfig) -> Vec<NodeId> {
    select_landmarks_with_estimates(n, cfg, |_| n)
}

/// The landmark set as a hash set for membership tests — the form a
/// harness needs to hand each node its own landmark status
/// (`lm_set.contains(&v)`) when constructing protocol instances.
/// [`DiscoProtocol::network`](crate::protocol::DiscoProtocol::network)
/// does that for the workspace; the standalone `benchmark/` harness calls
/// this and `DiscoProtocol::new` itself. `FxHashSet` like every other
/// simulator-internal map (deterministic, no SipHash cost on the per-node
/// probe during engine construction).
pub fn landmark_set(landmarks: &[NodeId]) -> disco_graph::FxHashSet<NodeId> {
    landmarks.iter().copied().collect()
}

/// Landmark selection where node `v` believes the network has
/// `estimate(v)` nodes — used by the robustness experiment that injects
/// error into the estimate of `n` (§5.2).
pub fn select_landmarks_with_estimates(
    n: usize,
    cfg: &DiscoConfig,
    estimate: impl Fn(NodeId) -> usize,
) -> Vec<NodeId> {
    let mut landmarks: Vec<NodeId> = (0..n)
        .map(NodeId)
        .filter(|&v| elects_itself(v, estimate(v), cfg))
        .collect();
    if landmarks.is_empty() && n > 0 {
        landmarks.push(NodeId(0));
    }
    landmarks
}

/// Per-node landmark status with the ×2 hysteresis rule of §4.2: the status
/// is re-drawn only when the node's estimate of `n` has changed by at least
/// a factor of two since the last decision.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LandmarkStatus {
    node: NodeId,
    is_landmark: bool,
    n_at_last_decision: usize,
}

impl LandmarkStatus {
    /// Initial decision for `node` with estimate `n_estimate`.
    pub fn new(node: NodeId, n_estimate: usize, cfg: &DiscoConfig) -> Self {
        LandmarkStatus {
            node,
            is_landmark: elects_itself(node, n_estimate, cfg),
            n_at_last_decision: n_estimate.max(1),
        }
    }

    /// Status carried over from an externally-made decision (e.g. a
    /// landmark set selected up front by the experiment harness), anchored
    /// at `n_estimate` for the ×2 hysteresis of future re-decisions.
    pub fn assumed(node: NodeId, is_landmark: bool, n_estimate: usize) -> Self {
        LandmarkStatus {
            node,
            is_landmark,
            n_at_last_decision: n_estimate.max(1),
        }
    }

    /// Whether the node currently serves as a landmark.
    pub fn is_landmark(&self) -> bool {
        self.is_landmark
    }

    /// The estimate of `n` at the time of the last (re-)decision.
    pub fn n_at_last_decision(&self) -> usize {
        self.n_at_last_decision
    }

    /// Update with a fresh estimate of `n`. The decision is re-drawn only
    /// when the estimate changed by ≥ 2× in either direction; returns `true`
    /// if the landmark status flipped (which requires re-announcing or
    /// withdrawing the landmark routes).
    pub fn update_estimate(&mut self, n_estimate: usize, cfg: &DiscoConfig) -> bool {
        let n_estimate = n_estimate.max(1);
        let old = self.n_at_last_decision as f64;
        let new = n_estimate as f64;
        if new < old * 2.0 && new > old / 2.0 {
            return false;
        }
        let was = self.is_landmark;
        self.is_landmark = elects_itself(self.node, n_estimate, cfg);
        self.n_at_last_decision = n_estimate;
        was != self.is_landmark
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_landmark_count_is_sqrt_n_log_n() {
        let cfg = DiscoConfig::seeded(3);
        let n = 4096;
        let l = select_landmarks(n, &cfg).len() as f64;
        let expect = ((n as f64) * (n as f64).ln()).sqrt(); // ≈ 184
        assert!(
            l > expect * 0.6 && l < expect * 1.4,
            "landmarks {l}, expected ≈ {expect}"
        );
    }

    #[test]
    fn selection_is_deterministic_in_seed() {
        let cfg = DiscoConfig::seeded(11);
        assert_eq!(select_landmarks(1000, &cfg), select_landmarks(1000, &cfg));
        let other = DiscoConfig::seeded(12);
        assert_ne!(select_landmarks(1000, &cfg), select_landmarks(1000, &other));
    }

    #[test]
    fn never_empty() {
        let cfg = DiscoConfig::seeded(0);
        for n in 1..20 {
            assert!(!select_landmarks(n, &cfg).is_empty(), "n={n}");
        }
    }

    #[test]
    fn landmarks_sorted_and_in_range() {
        let cfg = DiscoConfig::seeded(5);
        let l = select_landmarks(2000, &cfg);
        assert!(l.windows(2).all(|w| w[0] < w[1]));
        assert!(l.iter().all(|v| v.0 < 2000));
    }

    #[test]
    fn hysteresis_suppresses_small_changes() {
        let cfg = DiscoConfig::seeded(7);
        let mut status = LandmarkStatus::new(NodeId(5), 1000, &cfg);
        let before = status.is_landmark();
        // Estimate drifts by < 2x: no re-decision, no flip.
        assert!(!status.update_estimate(1500, &cfg));
        assert!(!status.update_estimate(700, &cfg));
        assert_eq!(status.is_landmark(), before);
        assert_eq!(status.n_at_last_decision(), 1000);
        // A 2x change triggers a re-decision (flip or not).
        let _ = status.update_estimate(2000, &cfg);
        assert_eq!(status.n_at_last_decision(), 2000);
    }

    #[test]
    fn estimate_errors_change_selection_only_mildly() {
        // With a 40% error in n the landmark set should still have a similar
        // size (the probability changes by ~sqrt(1/1.4) ≈ 0.85).
        let cfg = DiscoConfig::seeded(13);
        let exact = select_landmarks(4096, &cfg).len() as f64;
        let noisy = select_landmarks_with_estimates(4096, &cfg, |v| {
            if v.0 % 2 == 0 {
                (4096.0 * 1.4) as usize
            } else {
                (4096.0 * 0.6) as usize
            }
        })
        .len() as f64;
        assert!(
            (noisy / exact) > 0.5 && (noisy / exact) < 2.0,
            "noisy {noisy} exact {exact}"
        );
    }
}
