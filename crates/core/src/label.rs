//! Compact forwarding labels and explicit routes (paper §4.2, "Addresses").
//!
//! A node's address carries "the necessary information to forward along
//! `ℓ_v ; v`": an explicit route given as a list of per-hop labels, one for
//! each hop along the path. Following the pathlet-routing format the paper
//! cites (\[19\]), the hop taken at a node of degree `d` is encoded in
//! `⌈log2 d⌉` bits — the index of the outgoing interface (the position of
//! the next hop in the forwarding node's sorted adjacency list).
//!
//! On the CAIDA router-level map the paper measures a maximum address size
//! of 10.6 bytes, a 95th percentile of 5 bytes and a mean of 2.93 bytes;
//! `paper exp_address_size` regenerates the equivalent numbers on
//! the synthetic router-level topology.
//!
//! This module provides:
//!
//! * [`BitWriter`] / [`BitReader`] — minimal MSB-first bit streams,
//! * [`ExplicitRoute`] — a route as a list of interface indices, with
//!   encoding to/decoding from the compact bit format and the byte-size
//!   accounting used in the paper's Table 7,
//! * the forwarding-label mapping each node keeps from label to outgoing
//!   interface (`label → neighbor`), which is simply the index into the
//!   node's sorted adjacency list (so it costs one entry per *used*
//!   neighbor; see Theorem 2's discussion).

use bytes::{BufMut, Bytes, BytesMut};
use disco_graph::{Graph, NodeId, Path};
use serde::{Deserialize, Serialize};

/// MSB-first bit stream writer.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    buf: BytesMut,
    /// Bits already written into the current partial byte (0..8).
    partial_bits: u8,
    partial: u8,
    len_bits: usize,
}

impl BitWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append the `width` least-significant bits of `value`, most
    /// significant first. `width` may be 0 (writes nothing).
    pub fn write_bits(&mut self, value: u64, width: u8) {
        assert!(width <= 64);
        for i in (0..width).rev() {
            let bit = ((value >> i) & 1) as u8;
            self.partial = (self.partial << 1) | bit;
            self.partial_bits += 1;
            self.len_bits += 1;
            if self.partial_bits == 8 {
                self.buf.put_u8(self.partial);
                self.partial = 0;
                self.partial_bits = 0;
            }
        }
    }

    /// Number of bits written so far.
    pub fn len_bits(&self) -> usize {
        self.len_bits
    }

    /// Finish, padding the last byte with zero bits.
    pub fn finish(mut self) -> Bytes {
        if self.partial_bits > 0 {
            self.partial <<= 8 - self.partial_bits;
            self.buf.put_u8(self.partial);
        }
        self.buf.freeze()
    }
}

/// MSB-first bit stream reader.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    data: &'a [u8],
    pos_bits: usize,
}

impl<'a> BitReader<'a> {
    /// A reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader { data, pos_bits: 0 }
    }

    /// Read `width` bits (MSB first). Returns `None` if the stream is
    /// exhausted.
    pub fn read_bits(&mut self, width: u8) -> Option<u64> {
        assert!(width <= 64);
        if width as usize + self.pos_bits > self.data.len() * 8 {
            return None;
        }
        let mut out = 0u64;
        for _ in 0..width {
            let byte = self.data[self.pos_bits / 8];
            let bit = (byte >> (7 - (self.pos_bits % 8))) & 1;
            out = (out << 1) | bit as u64;
            self.pos_bits += 1;
        }
        Some(out)
    }

    /// Bits consumed so far.
    pub fn position_bits(&self) -> usize {
        self.pos_bits
    }
}

/// Number of bits needed to address one of `degree` interfaces
/// (`⌈log2 d⌉`, and 0 when there is only one choice).
pub fn interface_bits(degree: usize) -> u8 {
    if degree <= 1 {
        0
    } else {
        (usize::BITS - (degree - 1).leading_zeros()) as u8
    }
}

/// The interface index of `next` in `at`'s sorted adjacency list.
/// Panics if `next` is not a neighbor of `at`.
pub fn interface_index(g: &Graph, at: NodeId, next: NodeId) -> usize {
    g.neighbors(at)
        .iter()
        .position(|nb| nb.node == next)
        .unwrap_or_else(|| panic!("{next} is not a neighbor of {at}"))
}

/// An explicit (source) route: the starting node plus one interface index
/// per hop. Encoded compactly, the hop leaving a node of degree `d`
/// occupies `⌈log2 d⌉` bits.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExplicitRoute {
    start: NodeId,
    interfaces: Vec<u32>,
}

impl ExplicitRoute {
    /// Build the explicit route following `path` (from its source to its
    /// destination) in graph `g`.
    pub fn from_path(g: &Graph, path: &Path) -> Self {
        let mut interfaces = Vec::with_capacity(path.hop_count());
        for (at, next) in path.edges() {
            interfaces.push(interface_index(g, at, next) as u32);
        }
        ExplicitRoute {
            start: path.source(),
            interfaces,
        }
    }

    /// An empty route that never leaves `start`.
    pub fn empty(start: NodeId) -> Self {
        ExplicitRoute {
            start,
            interfaces: Vec::new(),
        }
    }

    /// The node the route starts at.
    pub fn start(&self) -> NodeId {
        self.start
    }

    /// Number of hops.
    pub fn hop_count(&self) -> usize {
        self.interfaces.len()
    }

    /// The raw interface indices.
    pub fn interfaces(&self) -> &[u32] {
        &self.interfaces
    }

    /// Expand back into the node path by walking the interfaces in `g`.
    /// Returns `None` if an interface index is out of range (e.g. the graph
    /// changed since encoding).
    pub fn to_path(&self, g: &Graph) -> Option<Path> {
        let mut nodes = vec![self.start];
        let mut at = self.start;
        for &ifx in &self.interfaces {
            let nb = g.neighbors(at).get(ifx as usize)?;
            at = nb.node;
            nodes.push(at);
        }
        Some(Path::new(nodes))
    }

    /// Size of the compact encoding in bits: `Σ ⌈log2 deg(hop source)⌉`.
    pub fn encoded_bits(&self, g: &Graph) -> usize {
        let mut at = self.start;
        let mut bits = 0usize;
        for &ifx in &self.interfaces {
            bits += interface_bits(g.degree(at)) as usize;
            // follow to next node for the next hop's degree
            at = g.neighbors(at)[ifx as usize].node;
        }
        bits
    }

    /// Size of the compact encoding in whole bytes (the figure the paper
    /// reports: mean 2.93 B on the router-level Internet map).
    pub fn encoded_bytes(&self, g: &Graph) -> usize {
        self.encoded_bits(g).div_ceil(8)
    }

    /// Encode to the compact wire format.
    pub fn encode(&self, g: &Graph) -> Bytes {
        let mut w = BitWriter::new();
        let mut at = self.start;
        for &ifx in &self.interfaces {
            let width = interface_bits(g.degree(at));
            w.write_bits(ifx as u64, width);
            at = g.neighbors(at)[ifx as usize].node;
        }
        w.finish()
    }

    /// Decode a route of `hops` hops starting at `start` from the wire
    /// format produced by [`ExplicitRoute::encode`].
    pub fn decode(g: &Graph, start: NodeId, hops: usize, data: &[u8]) -> Option<Self> {
        let mut r = BitReader::new(data);
        let mut at = start;
        let mut interfaces = Vec::with_capacity(hops);
        for _ in 0..hops {
            let width = interface_bits(g.degree(at));
            let ifx = r.read_bits(width)? as u32;
            let nb = g.neighbors(at).get(ifx as usize)?;
            interfaces.push(ifx);
            at = nb.node;
        }
        Some(ExplicitRoute { start, interfaces })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_graph::{generators, shortest_path};

    #[test]
    fn bit_writer_reader_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0b1, 1);
        w.write_bits(0xABCD, 16);
        w.write_bits(0, 0);
        assert_eq!(w.len_bits(), 20);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3), Some(0b101));
        assert_eq!(r.read_bits(1), Some(0b1));
        assert_eq!(r.read_bits(16), Some(0xABCD));
        assert_eq!(r.read_bits(0), Some(0));
        // Only padding is left; asking for more than remains fails.
        assert_eq!(r.read_bits(8), None);
    }

    #[test]
    fn interface_bits_formula() {
        assert_eq!(interface_bits(0), 0);
        assert_eq!(interface_bits(1), 0);
        assert_eq!(interface_bits(2), 1);
        assert_eq!(interface_bits(3), 2);
        assert_eq!(interface_bits(4), 2);
        assert_eq!(interface_bits(5), 3);
        assert_eq!(interface_bits(256), 8);
        assert_eq!(interface_bits(257), 9);
    }

    #[test]
    fn explicit_route_roundtrip_on_random_graph() {
        let g = generators::gnm_connected(200, 800, 5);
        let spt = shortest_path::dijkstra(&g, NodeId(0));
        for target in [NodeId(50), NodeId(120), NodeId(199)] {
            let path = spt.path_to(target).unwrap();
            let route = ExplicitRoute::from_path(&g, &path);
            assert_eq!(route.hop_count(), path.hop_count());
            // Interface walk reproduces the node sequence.
            assert_eq!(route.to_path(&g).unwrap(), path);
            // Wire round trip.
            let wire = route.encode(&g);
            assert!(wire.len() <= route.encoded_bytes(&g) + 1);
            let decoded = ExplicitRoute::decode(&g, NodeId(0), route.hop_count(), &wire).unwrap();
            assert_eq!(decoded, route);
        }
    }

    #[test]
    fn empty_route() {
        let g = generators::ring(5);
        let r = ExplicitRoute::empty(NodeId(2));
        assert_eq!(r.hop_count(), 0);
        assert_eq!(r.encoded_bits(&g), 0);
        assert_eq!(r.encoded_bytes(&g), 0);
        assert_eq!(r.to_path(&g).unwrap(), Path::trivial(NodeId(2)));
    }

    #[test]
    fn encoded_size_matches_degree_profile() {
        // On a ring every node has degree 2, so each hop costs exactly 1 bit.
        let g = generators::ring(64);
        let spt = shortest_path::dijkstra(&g, NodeId(0));
        let path = spt.path_to(NodeId(10)).unwrap();
        let route = ExplicitRoute::from_path(&g, &path);
        assert_eq!(route.encoded_bits(&g), 10);
        assert_eq!(route.encoded_bytes(&g), 2);
    }

    #[test]
    fn decode_rejects_truncated_input() {
        let g = generators::gnm_connected(100, 400, 9);
        let spt = shortest_path::dijkstra(&g, NodeId(0));
        let path = spt.path_to(NodeId(73)).unwrap();
        let route = ExplicitRoute::from_path(&g, &path);
        let wire = route.encode(&g);
        if wire.len() > 1 {
            let truncated = &wire[..wire.len() - 1];
            // Either decodes to fewer hops or fails — must not panic.
            let _ = ExplicitRoute::decode(&g, NodeId(0), route.hop_count(), truncated);
        }
    }
}
