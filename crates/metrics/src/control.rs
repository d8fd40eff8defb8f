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
//! * [`swiss_table_bytes`] and the `legacy_*` models — the byte cost the
//!   *pre-view* layouts (PR 3: `FxHashMap<NodeId, RouteEntry>` Loc-RIB,
//!   `FxHashMap<(u32, u32), u32>` arena intern map, `std::collections`
//!   dissemination maps) would spend on the *same* live contents, so a
//!   leg can report its before/after reduction from a single run.

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

/// Live contents of one node's control structures, from which both the
/// current and the legacy (pre-view) byte costs are derived.
#[derive(Debug, Clone, Copy, Default)]
pub struct ControlCounts {
    /// Destinations with a selected route (Loc-RIB occupancy).
    pub selected: usize,
    /// Entries across the ordered `locals`/`waiting`/`lm_best` mirrors
    /// (present in both layouts; 16-byte keys before, 12-byte now).
    pub mirror_entries: usize,
    /// Sloppy-group addresses stored.
    pub group_addresses: usize,
    /// Overlay neighbor slots actually filled (the legacy `HashMap` held
    /// only those; the measured side's slot vector is priced at capacity).
    pub overlay_slots: usize,
    /// Forwarded-announcement dedup entries.
    pub forwarded: usize,
}

/// Sizes of the PR 3-era per-entry payloads, used by the legacy model.
/// `RouteEntry` = dist f64 + next_hop usize + lm-dist f64 + path id u32 +
/// flag bool, padded to 32 B; a `WireAddress` is two `NodeId`s + a path id,
/// padded to 24 B.
const LEGACY_ROUTE_ENTRY: usize = 32;
const WIRE_ADDRESS: usize = 24;

/// Bytes the pre-view Loc-RIB (`best: FxHashMap<NodeId, RouteEntry>`)
/// would spend on `selected` destinations, plus the same ordered mirrors
/// at their former 16-byte `(dist, NodeId)` keys (~28 B amortized in
/// B-tree nodes, vs 24 B with today's compact 12-byte keys).
pub fn legacy_loc_rib_bytes(counts: &ControlCounts) -> usize {
    swiss_table_bytes(counts.selected, 8 + LEGACY_ROUTE_ENTRY) + counts.mirror_entries * 28
}

/// Bytes the pre-compaction dissemination bookkeeping would spend on the
/// same contents: `HashMap<(NodeId, bool), bool>` forwarded entries
/// (17 B payload), `HashMap<NodeId, WireAddress>` group store, and
/// `HashMap<usize, (NameHash, WireAddress)>` overlay slots.
pub fn legacy_dissemination_bytes(counts: &ControlCounts) -> usize {
    swiss_table_bytes(counts.forwarded, 17)
        + swiss_table_bytes(counts.group_addresses, 8 + WIRE_ADDRESS)
        + swiss_table_bytes(counts.overlay_slots, 8 + 8 + WIRE_ADDRESS)
}

/// Aggregates per-node [`ControlBytes`] (measured) and the legacy model's
/// equivalents over the live nodes of one experiment leg.
#[derive(Debug, Clone, Default)]
pub struct ControlAccounting {
    nodes: usize,
    measured: ControlBytes,
    legacy: ControlBytes,
}

impl ControlAccounting {
    /// Fold in one node: its measured component bytes and the live counts
    /// the legacy model is priced on.
    pub fn push(&mut self, measured: ControlBytes, counts: &ControlCounts) {
        self.nodes += 1;
        self.measured.rib += measured.rib;
        self.measured.loc_rib += measured.loc_rib;
        self.measured.dissemination += measured.dissemination;
        self.legacy.rib += measured.rib; // the RIB layout is unchanged
        self.legacy.loc_rib += legacy_loc_rib_bytes(counts);
        self.legacy.dissemination += legacy_dissemination_bytes(counts);
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

    /// Mean *legacy-model* bytes per node for the non-RIB components
    /// (loc-rib, dissemination) on the same contents.
    pub fn legacy_mean(&self) -> (f64, f64) {
        let n = self.nodes.max(1) as f64;
        (
            self.legacy.loc_rib as f64 / n,
            self.legacy.dissemination as f64 / n,
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
    fn legacy_models_dominate_compact_layouts() {
        // A selection column costs ~25 B per dest; the legacy map ≥ 40 B
        // plus capacity slack.
        let counts = ControlCounts {
            selected: 1000,
            ..Default::default()
        };
        assert!(legacy_loc_rib_bytes(&counts) > 1000 * 40);
    }

    #[test]
    fn accounting_aggregates_and_reduces() {
        let mut acc = ControlAccounting::default();
        for _ in 0..4 {
            acc.push(
                ControlBytes {
                    rib: 1000,
                    loc_rib: 300,
                    dissemination: 200,
                },
                &ControlCounts {
                    selected: 50,
                    mirror_entries: 60,
                    group_addresses: 20,
                    overlay_slots: 3,
                    forwarded: 40,
                },
            );
        }
        assert_eq!(acc.nodes(), 4);
        let (rib, loc, dis) = acc.mean();
        assert_eq!((rib, loc, dis), (1000.0, 300.0, 200.0));
        let (lloc, ldis) = acc.legacy_mean();
        assert!(lloc > loc && ldis > dis, "legacy must cost more");
        assert!(
            acc.legacy_mean().0 + acc.legacy_mean().1 > loc + dis,
            "legacy non-RIB components must sum higher"
        );
    }
}
