//! Shard-crossing wire forms of the protocol messages.
//!
//! [`InternedPath`] handles are pinned to the thread-local path arena that
//! created them (they are `!Send`), so a message crossing a shard boundary
//! must shed its interned paths first. The wire forms here detach every
//! path into an owned `Vec<NodeId>`; the receiving shard rebuilds the
//! node sequence in *its own* arena on ingestion (a fresh chain per
//! crossing: nothing looks up whether an equal path already lives there,
//! and path equality is structural, so nothing needs to). The round trip is
//! semantically lossless — node sequences, and therefore routing decisions
//! and accounted byte sizes, are identical on both sides — which is
//! exactly the `from_wire(to_wire(m)) ≡ m` contract
//! [`ShardProtocol`] requires for sharded determinism.
//!
//! Detaching costs one `Vec` per interned path per shard crossing; local
//! deliveries keep the zero-copy interned form. That matches the real
//! system's cost model, where a message leaving the process must be
//! serialized anyway.

use crate::estimate_n::{GossipEstimator, GossipMsg};
use crate::hash::NameHash;
use crate::path_vector::{Announcement, PathVectorNode};
use crate::protocol::{DiscoMsg, DiscoProtocol, FlowAddress, LookupKind, Payload};
use disco_graph::{InternedPath, NodeId, Weight};
use disco_sim::ShardProtocol;

/// [`Announcement`] with its path detached from the arena.
#[derive(Debug, Clone)]
pub struct WireAnnouncement {
    dest: NodeId,
    dist: Weight,
    path: Vec<NodeId>,
    dest_is_landmark: bool,
    dest_landmark_dist: Weight,
    withdrawn: bool,
    refresh: bool,
}

impl WireAnnouncement {
    fn detach(ann: Announcement) -> Self {
        WireAnnouncement {
            dest: ann.dest,
            dist: ann.dist,
            path: ann.path.to_vec(),
            dest_is_landmark: ann.dest_is_landmark,
            dest_landmark_dist: ann.dest_landmark_dist,
            withdrawn: ann.withdrawn,
            refresh: ann.refresh,
        }
    }

    fn attach(self) -> Announcement {
        Announcement {
            dest: self.dest,
            dist: self.dist,
            path: InternedPath::from_slice(&self.path),
            dest_is_landmark: self.dest_is_landmark,
            dest_landmark_dist: self.dest_landmark_dist,
            withdrawn: self.withdrawn,
            refresh: self.refresh,
        }
    }
}

/// [`Payload`] with every embedded path detached.
#[derive(Debug, Clone)]
pub enum WirePayload {
    /// Detached [`Payload::ResolutionInsert`].
    ResolutionInsert {
        hash: NameHash,
        address: FlowAddress,
    },
    /// Detached [`Payload::OverlayLookup`].
    OverlayLookup {
        target: NameHash,
        kind: LookupKind,
        exclude: NodeId,
        reply_route: Vec<NodeId>,
        slot: usize,
    },
    /// Detached [`Payload::OverlayReply`].
    OverlayReply {
        slot: usize,
        hash: NameHash,
        address: FlowAddress,
    },
    /// Detached [`Payload::GroupAnnouncement`].
    GroupAnnouncement {
        origin_hash: NameHash,
        address: FlowAddress,
        up: Option<bool>,
    },
}

impl WirePayload {
    fn detach(p: Payload) -> Self {
        match p {
            Payload::ResolutionInsert { hash, address } => WirePayload::ResolutionInsert {
                hash,
                address: address.detach(),
            },
            Payload::OverlayLookup {
                target,
                kind,
                exclude,
                reply_route,
                slot,
            } => WirePayload::OverlayLookup {
                target,
                kind,
                exclude,
                reply_route: reply_route.to_vec(),
                slot,
            },
            Payload::OverlayReply {
                slot,
                hash,
                address,
            } => WirePayload::OverlayReply {
                slot,
                hash,
                address: address.detach(),
            },
            Payload::GroupAnnouncement {
                origin_hash,
                address,
                up,
            } => WirePayload::GroupAnnouncement {
                origin_hash,
                address: address.detach(),
                up,
            },
        }
    }

    fn attach(self) -> Payload {
        match self {
            WirePayload::ResolutionInsert { hash, address } => Payload::ResolutionInsert {
                hash,
                address: address.attach(),
            },
            WirePayload::OverlayLookup {
                target,
                kind,
                exclude,
                reply_route,
                slot,
            } => Payload::OverlayLookup {
                target,
                kind,
                exclude,
                reply_route: InternedPath::from_slice(&reply_route),
                slot,
            },
            WirePayload::OverlayReply {
                slot,
                hash,
                address,
            } => Payload::OverlayReply {
                slot,
                hash,
                address: address.attach(),
            },
            WirePayload::GroupAnnouncement {
                origin_hash,
                address,
                up,
            } => Payload::GroupAnnouncement {
                origin_hash,
                address: address.attach(),
                up,
            },
        }
    }
}

/// [`DiscoMsg`] in shard-crossing form.
#[derive(Debug, Clone)]
pub enum WireDiscoMsg {
    /// Detached [`DiscoMsg::Route`].
    Route(WireAnnouncement),
    /// Detached [`DiscoMsg::Forward`].
    Forward {
        route: Vec<NodeId>,
        payload: WirePayload,
    },
    /// [`DiscoMsg::Gossip`] — the synopsis is plain owned data and crosses
    /// shards unchanged.
    Gossip(crate::estimate_n::Synopsis),
}

impl ShardProtocol for PathVectorNode {
    type Wire = WireAnnouncement;

    fn to_wire(msg: Announcement) -> WireAnnouncement {
        WireAnnouncement::detach(msg)
    }

    fn from_wire(wire: WireAnnouncement) -> Announcement {
        wire.attach()
    }
}

impl ShardProtocol for DiscoProtocol {
    type Wire = WireDiscoMsg;

    fn to_wire(msg: DiscoMsg) -> WireDiscoMsg {
        match msg {
            DiscoMsg::Route(ann) => WireDiscoMsg::Route(WireAnnouncement::detach(ann)),
            DiscoMsg::Forward { route, payload } => WireDiscoMsg::Forward {
                route: route.to_vec(),
                payload: WirePayload::detach(payload),
            },
            DiscoMsg::Gossip(s) => WireDiscoMsg::Gossip(s),
        }
    }

    fn from_wire(wire: WireDiscoMsg) -> DiscoMsg {
        match wire {
            WireDiscoMsg::Route(ann) => DiscoMsg::Route(ann.attach()),
            WireDiscoMsg::Forward { route, payload } => DiscoMsg::Forward {
                route: InternedPath::from_slice(&route),
                payload: payload.attach(),
            },
            WireDiscoMsg::Gossip(s) => DiscoMsg::Gossip(s),
        }
    }
}

impl ShardProtocol for GossipEstimator {
    type Wire = GossipMsg;

    fn to_wire(msg: GossipMsg) -> GossipMsg {
        msg
    }

    fn from_wire(wire: GossipMsg) -> GossipMsg {
        wire
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::WireAddress;

    fn ids(raw: &[usize]) -> Vec<NodeId> {
        raw.iter().copied().map(NodeId).collect()
    }

    #[test]
    fn announcement_round_trips() {
        let ann = Announcement {
            dest: NodeId(7),
            dist: 3.5,
            path: InternedPath::from_slice(&ids(&[2, 4, 7])),
            dest_is_landmark: true,
            dest_landmark_dist: 0.0,
            withdrawn: false,
            refresh: true,
        };
        let back = PathVectorNode::from_wire(PathVectorNode::to_wire(ann.clone()));
        assert_eq!(back.dest, ann.dest);
        assert_eq!(back.dist, ann.dist);
        assert_eq!(back.path.to_vec(), ann.path.to_vec());
        assert_eq!(back.dest_is_landmark, ann.dest_is_landmark);
        assert_eq!(back.withdrawn, ann.withdrawn);
        assert_eq!(back.refresh, ann.refresh);
    }

    #[test]
    fn forward_payload_round_trips() {
        let msg = DiscoMsg::Forward {
            route: InternedPath::from_slice(&ids(&[3, 1])),
            payload: Payload::OverlayLookup {
                target: NameHash(0xfeed),
                kind: LookupKind::Closest,
                exclude: NodeId(2),
                reply_route: InternedPath::from_slice(&ids(&[1, 3])),
                slot: 4,
            },
        };
        let back = DiscoProtocol::from_wire(DiscoProtocol::to_wire(msg));
        let DiscoMsg::Forward { route, payload } = back else {
            panic!("variant changed in flight");
        };
        assert_eq!(route.to_vec(), ids(&[3, 1]));
        let Payload::OverlayLookup {
            target,
            kind,
            exclude,
            reply_route,
            slot,
        } = payload
        else {
            panic!("payload variant changed in flight");
        };
        assert_eq!(target, NameHash(0xfeed));
        assert_eq!(kind, LookupKind::Closest);
        assert_eq!(exclude, NodeId(2));
        assert_eq!(reply_route.to_vec(), ids(&[1, 3]));
        assert_eq!(slot, 4);
    }

    #[test]
    fn resolution_insert_round_trips() {
        let msg = DiscoMsg::Forward {
            route: InternedPath::single(NodeId(0)),
            payload: Payload::ResolutionInsert {
                hash: NameHash(42),
                address: WireAddress {
                    node: NodeId(9),
                    landmark: NodeId(1),
                    path: InternedPath::from_slice(&ids(&[1, 5, 9])),
                },
            },
        };
        let back = DiscoProtocol::from_wire(DiscoProtocol::to_wire(msg));
        let DiscoMsg::Forward {
            payload: Payload::ResolutionInsert { hash, address },
            ..
        } = back
        else {
            panic!("variant changed in flight");
        };
        assert_eq!(hash, NameHash(42));
        assert_eq!(address.node, NodeId(9));
        assert_eq!(address.landmark, NodeId(1));
        assert_eq!(address.path.to_vec(), ids(&[1, 5, 9]));
    }
}
