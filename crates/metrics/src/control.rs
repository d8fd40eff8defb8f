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
//!   the grid legs through;
//! * [`swiss_table_bytes`] — the allocation model of a hashbrown map, used
//!   wherever a layout is priced against a hash-map alternative
//!   ([`crate::forward::hash_fib_bytes`]).

/// Byte cost of a hashbrown (SwissTable) map holding `len` entries of
/// `payload` bytes each: buckets are the next power of two holding `len`
/// at 7/8 load, each bucket paying one control byte on top of the payload.
/// This is the allocation model behind both `std::collections::HashMap`
/// and the `FxHashMap` alias, independent of hasher.
pub fn swiss_table_bytes(len: usize, payload: usize) -> usize {
    if len == 0 {
        return 0;
    }
    let buckets = (len * 8).div_ceil(7).next_power_of_two();
    buckets * (payload + 1)
}

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

impl ControlBytes {
    /// Everything that is not the Adj-RIB-In: the Loc-RIB view plus the
    /// dissemination bookkeeping.
    pub fn non_rib(&self) -> usize {
        self.loc_rib + self.dissemination
    }

    /// Component-wise sum.
    pub fn total(&self) -> usize {
        self.rib + self.loc_rib + self.dissemination
    }
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
    fn swiss_model_matches_power_of_two_growth() {
        assert_eq!(swiss_table_bytes(0, 12), 0);
        // 7 entries fit 8 buckets at 7/8; 8 entries need 16.
        assert_eq!(swiss_table_bytes(7, 12), 8 * 13);
        assert_eq!(swiss_table_bytes(8, 12), 16 * 13);
        assert!(swiss_table_bytes(1000, 12) >= 1024 * 13);
    }

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
