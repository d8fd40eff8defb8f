//! Stretch measurement (paper §5.2 "Stretch", Fig. 3, Fig. 4/5 middle,
//! Fig. 6, Fig. 9 left).
//!
//! Stretch is the ratio of a protocol's route length to the shortest-path
//! length, measured over sampled source–destination pairs; the paper
//! reports both the first packet of a flow and subsequent ("later")
//! packets.
//!
//! ## One sampler
//!
//! [`sample`] measures every protocol: a protocol is a router factory and
//! a per-pair measurement, both closures. Every pair's samples are a pure
//! function of `(graph, state, pair)`, so the pair list is cut into one
//! contiguous share per CPU. Each worker builds its own router (the
//! routers' `RefCell` tree caches are not `Sync`) and writes its share's
//! samples by index, so the report holds the same bits for any CPU count.
//! Pairs from `sample_pairs_grouped` arrive grouped by source, so a
//! router's per-source tree cache pays off within a share.

use crate::cdf::Cdf;
use disco_graph::NodeId;

/// First- and later-packet stretch samples for one protocol.
#[derive(Debug, Clone, Default)]
pub struct StretchReport {
    /// Stretch of the first packet, one sample per pair.
    pub first: Vec<f64>,
    /// Stretch of subsequent packets, one sample per pair.
    pub later: Vec<f64>,
}

impl StretchReport {
    /// Mean first-packet stretch.
    pub fn mean_first(&self) -> f64 {
        mean(&self.first)
    }

    /// Mean later-packet stretch.
    pub fn mean_later(&self) -> f64 {
        mean(&self.later)
    }

    /// Maximum first-packet stretch.
    pub fn max_first(&self) -> f64 {
        self.first.iter().copied().fold(0.0, f64::max)
    }

    /// Maximum later-packet stretch.
    pub fn max_later(&self) -> f64 {
        self.later.iter().copied().fold(0.0, f64::max)
    }

    /// CDF of first-packet stretch over pairs.
    pub fn first_cdf(&self) -> Cdf {
        Cdf::new(self.first.clone())
    }

    /// CDF of later-packet stretch over pairs.
    pub fn later_cdf(&self) -> Cdf {
        Cdf::new(self.later.clone())
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Sample stretch over `pairs` on one worker per CPU. Each worker builds
/// one router with `router` and fills its share of the pairs, by index,
/// with `stretch(&router, s, t)` = `(first, later)`. A protocol without
/// the first/later distinction (VRR), or a measurement of one packet
/// (Fig. 6), returns its sample twice.
pub fn sample<R>(
    pairs: &[(NodeId, NodeId)],
    router: impl Fn() -> R + Sync,
    stretch: impl Fn(&R, NodeId, NodeId) -> (f64, f64) + Sync,
) -> StretchReport {
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get());
    let share = pairs.len().div_ceil(workers).max(1);
    let mut samples = vec![(0.0, 0.0); pairs.len()];
    std::thread::scope(|scope| {
        for (pairs, out) in pairs.chunks(share).zip(samples.chunks_mut(share)) {
            let (router, stretch) = (&router, &stretch);
            scope.spawn(move || {
                let router = router();
                for (&(s, t), slot) in pairs.iter().zip(out) {
                    *slot = stretch(&router, s, t);
                }
            });
        }
    });
    let (first, later) = samples.into_iter().unzip();
    StretchReport { first, later }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::sample_pairs_grouped;
    use disco_baselines::{S4Router, S4State, VrrRouter, VrrState};
    use disco_core::config::DiscoConfig;
    use disco_core::routing::DiscoRouter;
    use disco_core::shortcut::ShortcutMode;
    use disco_core::static_state::DiscoState;
    use disco_graph::generators;

    fn disco(r: &DiscoRouter<'_>, s: NodeId, t: NodeId) -> (f64, f64) {
        let d = r.true_distance(s, t);
        let first = r.route_first_packet(s, t).stretch(d);
        (first, r.route_later_packet(s, t).stretch(d))
    }

    fn nddisco(r: &DiscoRouter<'_>, s: NodeId, t: NodeId) -> (f64, f64) {
        let d = r.true_distance(s, t);
        let first = r.nddisco_first_packet(s, t).stretch(d);
        (first, r.nddisco_later_packet(s, t).stretch(d))
    }

    fn s4(r: &S4Router<'_>, s: NodeId, t: NodeId) -> (f64, f64) {
        (r.first_packet_stretch(s, t), r.later_packet_stretch(s, t))
    }

    fn vrr(r: &VrrRouter<'_>, s: NodeId, t: NodeId) -> (f64, f64) {
        let x = r.stretch(s, t);
        (x, x)
    }

    /// Disco's first packet under an explicit shortcut mode (Fig. 6).
    fn disco_with(mode: ShortcutMode) -> impl Fn(&DiscoRouter<'_>, NodeId, NodeId) -> (f64, f64) {
        move |r, s, t| {
            let x = r
                .route_first_packet_with(s, t, mode)
                .stretch(r.true_distance(s, t));
            (x, x)
        }
    }

    #[test]
    fn disco_stretch_bounds_and_ordering() {
        let n = 300;
        let g = generators::gnm_average_degree(n, 8.0, 3);
        let cfg = DiscoConfig::seeded(3);
        let state = DiscoState::build(&g, &cfg);
        let pairs = sample_pairs_grouped(n, 12, 10, 3);
        let rep = sample(&pairs, || DiscoRouter::new(&g, &state), disco);
        assert_eq!(rep.first.len(), pairs.len());
        assert!(rep.mean_first() >= 1.0 - 1e-9);
        assert!(rep.mean_later() <= rep.mean_first() + 1e-9);
        assert!(rep.max_first() <= 7.0 + 1e-9);
        assert!(rep.max_later() <= 3.0 + 1e-9);
    }

    #[test]
    fn shortcut_modes_reduce_mean_stretch_monotonically() {
        let n = 300;
        let g = generators::geometric_connected(n, 8.0, 5);
        let cfg = DiscoConfig::seeded(5);
        let state = DiscoState::build(&g, &cfg);
        let pairs = sample_pairs_grouped(n, 10, 10, 5);
        let mean = |mode| sample(&pairs, || DiscoRouter::new(&g, &state), disco_with(mode));
        let none = mean(ShortcutMode::None).mean_first();
        let to_dest = mean(ShortcutMode::ToDestination).mean_first();
        let npk = mean(ShortcutMode::NoPathKnowledge).mean_first();
        let pk = mean(ShortcutMode::PathKnowledge).mean_first();
        assert!(to_dest <= none + 1e-9);
        assert!(npk <= to_dest + 1e-9);
        assert!(pk <= npk + 1e-9);
        assert!(pk >= 1.0 - 1e-9);
    }

    #[test]
    fn s4_and_vrr_stretch_exceed_disco_on_average() {
        let n = 400;
        let g = generators::gnm_average_degree(n, 8.0, 7);
        let cfg = DiscoConfig::seeded(7);
        let disco_state = DiscoState::build(&g, &cfg);
        let s4_state = S4State::build(&g, &cfg);
        let vrr_state = VrrState::build(&g, &cfg);
        let pairs = sample_pairs_grouped(n, 15, 8, 7);
        let d = sample(&pairs, || DiscoRouter::new(&g, &disco_state), disco);
        let s = sample(&pairs, || S4Router::new(&g, &s4_state), s4);
        let v = sample(&pairs, || VrrRouter::new(&g, &vrr_state), vrr);
        // First-packet comparison is where Disco's advantage shows.
        assert!(
            d.mean_first() < s.mean_first() + 1e-9,
            "Disco {} vs S4 {}",
            d.mean_first(),
            s.mean_first()
        );
        assert!(
            d.mean_first() < v.mean_first(),
            "Disco {} vs VRR {}",
            d.mean_first(),
            v.mean_first()
        );
        // Later packets: both compact schemes are ≤ 3.
        assert!(d.max_later() <= 3.0 + 1e-9);
        assert!(s.max_later() <= 3.0 + 1e-9);
    }

    /// The sampler's shares, per-worker routers and index writes change no
    /// bit: each report equals one router walking the pairs in order.
    #[test]
    fn sampler_matches_a_plain_loop_over_each_router() {
        fn plain<R>(
            pairs: &[(NodeId, NodeId)],
            router: R,
            stretch: impl Fn(&R, NodeId, NodeId) -> (f64, f64),
        ) -> StretchReport {
            let (first, later) = pairs.iter().map(|&(s, t)| stretch(&router, s, t)).unzip();
            StretchReport { first, later }
        }
        fn same(a: &StretchReport, b: &StretchReport, what: &str) {
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.first), bits(&b.first), "{what} first");
            assert_eq!(bits(&a.later), bits(&b.later), "{what} later");
        }
        let n = 240;
        let g = generators::gnm_average_degree(n, 8.0, 11);
        let cfg = DiscoConfig::seeded(11);
        let state = DiscoState::build(&g, &cfg);
        let s4_state = S4State::build(&g, &cfg);
        let vrr_state = VrrState::build(&g, &cfg);
        let pairs = sample_pairs_grouped(n, 14, 9, 11);
        let disco_router = || DiscoRouter::new(&g, &state);

        let d = sample(&pairs, disco_router, disco);
        same(&d, &plain(&pairs, disco_router(), disco), "Disco");
        let nd = sample(&pairs, disco_router, nddisco);
        same(&nd, &plain(&pairs, disco_router(), nddisco), "ND-Disco");
        let s = sample(&pairs, || S4Router::new(&g, &s4_state), s4);
        same(&s, &plain(&pairs, S4Router::new(&g, &s4_state), s4), "S4");
        let v = sample(&pairs, || VrrRouter::new(&g, &vrr_state), vrr);
        same(
            &v,
            &plain(&pairs, VrrRouter::new(&g, &vrr_state), vrr),
            "VRR",
        );
        let pk = disco_with(ShortcutMode::PathKnowledge);
        let fig6 = sample(&pairs, disco_router, &pk).mean_first();
        let fig6_plain = plain(&pairs, disco_router(), &pk).mean_first();
        assert_eq!(fig6.to_bits(), fig6_plain.to_bits(), "Fig. 6 mean");
    }

    #[test]
    fn nddisco_stretch_at_most_5_and_3() {
        let n = 300;
        let g = generators::gnm_average_degree(n, 8.0, 9);
        let cfg = DiscoConfig::seeded(9);
        let state = DiscoState::build(&g, &cfg);
        let pairs = sample_pairs_grouped(n, 10, 10, 9);
        let rep = sample(&pairs, || DiscoRouter::new(&g, &state), nddisco);
        assert!(rep.max_first() <= 5.0 + 1e-9);
        assert!(rep.max_later() <= 3.0 + 1e-9);
    }
}
