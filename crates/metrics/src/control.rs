//! Per-component **control-plane** byte accounting for the dynamic
//! protocol — the companion to [`crate::state`]'s *data-plane* entry
//! counts, used by `exp_memory`.
//!
//! The paper's `Θ(√(n ln n))` bound speaks about routing *entries*;
//! compact-routing practice lives or dies on the constant factor per entry
//! (Krioukov et al., *On Compact Routing for the Internet*). After PR 3
//! bounded the Adj-RIB-In, resident memory was dominated by *non-RIB*
//! control state: the materialized Loc-RIB best map, the path arena's
//! intern map, and the dissemination bookkeeping. This module gives those
//! components names and numbers:
//!
//! * [`ControlBytes`] — one node's control state split into Adj-RIB-In
//!   proper, the Loc-RIB view, and dissemination/resolution bookkeeping;
//! * [`ControlAccounting`] — the per-node aggregator `exp_memory` folds
//!   the grid legs through.

/// One node's control-plane bytes, by component.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ControlBytes {
    /// Adj-RIB-In proper: per-neighbor candidate slabs + the destination
    /// interner.
    pub rib: usize,
    /// The Loc-RIB view: selection columns + ordered mirrors.
    pub loc_rib: usize,
    /// Dissemination bookkeeping: sloppy-group address store, overlay
    /// slots, forwarded-announcement dedup. (The resolution shard — §4.3
    /// application state — is deliberately excluded on both the measured
    /// and the legacy side; its layout is entry-count-driven either way.)
    pub dissemination: usize,
}

/// Aggregates per-node [`ControlBytes`] over the live nodes of one
/// experiment leg.
#[derive(Debug, Clone, Default)]
pub struct ControlAccounting {
    nodes: usize,
    measured: ControlBytes,
}

impl ControlAccounting {
    /// Fold in one node's measured component bytes.
    pub fn push(&mut self, measured: ControlBytes) {
        self.nodes += 1;
        self.measured.rib += measured.rib;
        self.measured.loc_rib += measured.loc_rib;
        self.measured.dissemination += measured.dissemination;
    }

    /// Nodes folded in.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Mean measured bytes per node, by component.
    pub fn mean(&self) -> (f64, f64, f64) {
        let n = self.nodes.max(1) as f64;
        (
            self.measured.rib as f64 / n,
            self.measured.loc_rib as f64 / n,
            self.measured.dissemination as f64 / n,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_aggregates() {
        let mut acc = ControlAccounting::default();
        for _ in 0..4 {
            acc.push(ControlBytes {
                rib: 1000,
                loc_rib: 300,
                dissemination: 200,
            });
        }
        assert_eq!(acc.nodes(), 4);
        assert_eq!(acc.mean(), (1000.0, 300.0, 200.0));
    }
}
