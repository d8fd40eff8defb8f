//! Protocol parameters.
//!
//! The paper leaves the vicinity size, the landmark probability and the
//! sloppy-group prefix length as `Θ(·)` choices; this module fixes them at
//! its evaluation settings (§5.1): vicinity size `⌈√(n ln n)⌉`, landmark
//! probability `√(ln n / n)`; its "No Path Knowledge" shortcutting is the
//! mode [`DiscoRouter`](crate::routing::DiscoRouter) applies.
//! [`DiscoConfig`] holds only what callers set: the seed, the overlay
//! fingers (the paper evaluates one and three), the injected estimation
//! error and the distributed protocol's two switches.

/// Tunable parameters for Disco / NDDisco.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscoConfig {
    /// Master seed; every random decision (landmark election, finger
    /// selection, hash salt) derives from it.
    pub seed: u64,
    /// Number of long-distance overlay fingers per node (paper evaluates 1
    /// and 3).
    pub fingers: usize,
    /// Whether the *distributed* protocol's path-vector RIB applies the
    /// forgetful eviction policy of §4.2 at runtime: each destination
    /// retains only the selected route plus
    /// [`FORGETFUL_ALTERNATES`](crate::protocol::FORGETFUL_ALTERNATES)
    /// failover candidates (table-resident destinations — landmarks and
    /// vicinity members — only; everything else keeps the selected route
    /// alone), re-soliciting forgotten alternates with route-refresh
    /// requests when a withdrawal needs them. Off by default: the recorded
    /// churn baselines keep the full per-neighbor Adj-RIB-In.
    pub forgetful_dynamic: bool,
    /// Relative error injected into each node's estimate of `n`
    /// (0.0 = perfect knowledge; the paper's robustness experiment uses up
    /// to 0.6).
    pub n_estimate_error: f64,
    /// Whether the *distributed* protocol runs synopsis-diffusion gossip
    /// (§4.1) and re-derives its parameters from the live estimate of `n`:
    /// vicinity capacity tracks `⌈√(n̂ ln n̂)⌉` and landmark status is
    /// re-drawn under the ×2 hysteresis rule of §4.2. On by default — the
    /// paper's protocol estimates `n` live; pass
    /// [`Self::with_dynamic_n_estimation`]`(false)` (or `--static-n` on
    /// the bench binaries) to pin nodes to their construction-time
    /// estimate instead.
    pub dynamic_n_estimation: bool,
}

impl Default for DiscoConfig {
    fn default() -> Self {
        DiscoConfig {
            seed: 0,
            fingers: 1,
            forgetful_dynamic: false,
            n_estimate_error: 0.0,
            dynamic_n_estimation: true,
        }
    }
}

impl DiscoConfig {
    /// Default configuration with the given seed.
    pub fn seeded(seed: u64) -> Self {
        DiscoConfig {
            seed,
            ..Default::default()
        }
    }

    /// Builder-style: set the number of overlay fingers.
    pub fn with_fingers(mut self, fingers: usize) -> Self {
        self.fingers = fingers;
        self
    }

    /// Builder-style: set the injected error on the estimate of `n`.
    pub fn with_n_estimate_error(mut self, error: f64) -> Self {
        self.n_estimate_error = error;
        self
    }

    /// Builder-style: enable live `n`-estimation in the distributed
    /// protocol (synopsis gossip + parameter re-derivation).
    pub fn with_dynamic_n_estimation(mut self, enabled: bool) -> Self {
        self.dynamic_n_estimation = enabled;
        self
    }

    /// Builder-style: enable forgetful eviction in the distributed
    /// protocol's path-vector RIB (§4.2).
    pub fn with_forgetful_dynamic(mut self, enabled: bool) -> Self {
        self.forgetful_dynamic = enabled;
        self
    }

    /// Target vicinity size for a network believed to contain `n` nodes:
    /// `⌈√(n ln n)⌉`, clamped to at least 2 and at most `n`.
    pub fn vicinity_size(&self, n: usize) -> usize {
        let n = n.max(2);
        let raw = ((n as f64) * (n as f64).ln()).sqrt();
        (raw.ceil() as usize).clamp(2, n)
    }

    /// Probability with which a node elects itself landmark:
    /// `√(ln n / n)`, clamped to (0, 1].
    pub fn landmark_probability(&self, n: usize) -> f64 {
        let n = n.max(2);
        ((n as f64).ln() / n as f64).sqrt().clamp(1e-12, 1.0)
    }

    /// The sloppy-group prefix length `k = ⌊log2(√n / ln n)⌋`, clamped to
    /// `[0, 63]` (paper §4.4). With this choice a group contains
    /// `Θ(√n·log n)` nodes in expectation.
    pub fn group_prefix_bits(&self, n: usize) -> u32 {
        let n = (n.max(4)) as f64;
        let ratio = n.sqrt() / n.ln();
        if ratio <= 1.0 {
            0
        } else {
            (ratio.log2().floor() as u32).min(63)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_defaults() {
        let c = DiscoConfig::default();
        assert_eq!(c.fingers, 1);
        assert_eq!(c.n_estimate_error, 0.0);
    }

    #[test]
    fn vicinity_size_scales_like_sqrt_n_log_n() {
        let c = DiscoConfig::default();
        let v1k = c.vicinity_size(1024);
        let v4k = c.vicinity_size(4096);
        // ratio should be near sqrt(4 * ln(4096)/ln(1024)) ≈ 2.19
        let ratio = v4k as f64 / v1k as f64;
        assert!(ratio > 1.8 && ratio < 2.6, "ratio {ratio}");
        assert!((80..=130).contains(&v1k), "v1k {v1k}");
    }

    #[test]
    fn vicinity_size_clamped_to_n() {
        let c = DiscoConfig::default();
        assert!(c.vicinity_size(4) <= 4);
        assert!(c.vicinity_size(2) >= 2);
    }

    #[test]
    fn landmark_probability_reasonable() {
        let c = DiscoConfig::default();
        let p = c.landmark_probability(1024);
        // sqrt(ln 1024 / 1024) ≈ 0.0823
        assert!((p - 0.0823).abs() < 0.01, "p {p}");
        assert!(c.landmark_probability(2) <= 1.0);
    }

    #[test]
    fn group_prefix_bits_track_group_size() {
        let c = DiscoConfig::default();
        let k = c.group_prefix_bits(16_384);
        // sqrt(16384)/ln(16384) = 128/9.70 ≈ 13.2 → k = 3
        assert_eq!(k, 3);
        // Expected group size n / 2^k should be Θ(√n log n).
        let group = 16_384.0 / f64::powi(2.0, k as i32);
        assert!(group > 1000.0 && group < 3000.0);
        // Tiny networks degrade to a single group.
        assert_eq!(c.group_prefix_bits(8), 0);
    }

    #[test]
    fn builder_methods() {
        let c = DiscoConfig::seeded(9)
            .with_fingers(3)
            .with_n_estimate_error(0.4);
        assert_eq!(c.seed, 9);
        assert_eq!(c.fingers, 3);
        assert!((c.n_estimate_error - 0.4).abs() < 1e-12);
    }
}
