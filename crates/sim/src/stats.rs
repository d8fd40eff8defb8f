//! Message accounting.
//!
//! The paper's Fig. 8 reports "mean messages per node sent until
//! convergence"; this module collects exactly that, plus byte counts and
//! per-node breakdowns so the distribution (not just the mean) can be
//! inspected.

use disco_graph::NodeId;

/// Per-run message statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MessageStats {
    sent: Vec<u64>,
    received: Vec<u64>,
    bytes_sent: Vec<u64>,
    bytes_received: Vec<u64>,
}

impl MessageStats {
    /// Statistics for a network of `n` nodes with all counters zero.
    pub fn new(n: usize) -> Self {
        MessageStats {
            sent: vec![0; n],
            received: vec![0; n],
            bytes_sent: vec![0; n],
            bytes_received: vec![0; n],
        }
    }

    /// Extend the per-node counters to cover `n` nodes (newly joined nodes
    /// start at zero). Counters never shrink.
    pub fn grow_to(&mut self, n: usize) {
        if n > self.sent.len() {
            self.sent.resize(n, 0);
            self.received.resize(n, 0);
            self.bytes_sent.resize(n, 0);
            self.bytes_received.resize(n, 0);
        }
    }

    /// Record `copies` messages of `size_bytes` each sent by `from` (one
    /// send, or the copies of one flood).
    pub fn record_sends(&mut self, from: NodeId, copies: usize, size_bytes: usize) {
        self.sent[from.0] += copies as u64;
        self.bytes_sent[from.0] += (copies * size_bytes) as u64;
    }

    /// Record delivery of a message of `size_bytes` at `to`.
    pub fn record_receive(&mut self, to: NodeId, size_bytes: usize) {
        self.received[to.0] += 1;
        self.bytes_received[to.0] += size_bytes as u64;
    }

    /// Messages sent by `v`.
    pub fn sent_by(&self, v: NodeId) -> u64 {
        self.sent[v.0]
    }

    /// Messages received by `v`.
    pub fn received_by(&self, v: NodeId) -> u64 {
        self.received[v.0]
    }

    /// Bytes sent by `v`.
    pub fn bytes_sent_by(&self, v: NodeId) -> u64 {
        self.bytes_sent[v.0]
    }

    /// Bytes received by `v`. Sent and received totals differ exactly by
    /// the bytes lost in flight to link failures and departures.
    pub fn bytes_received_by(&self, v: NodeId) -> u64 {
        self.bytes_received[v.0]
    }

    /// Total bytes received across all nodes.
    pub fn total_bytes_received(&self) -> u64 {
        self.bytes_received.iter().sum()
    }

    /// Total messages sent across all nodes.
    pub fn total_sent(&self) -> u64 {
        self.sent.iter().sum()
    }

    /// Total bytes sent across all nodes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_sent.iter().sum()
    }

    /// Mean messages sent per node — the metric of the paper's Fig. 8.
    pub fn mean_sent_per_node(&self) -> f64 {
        if self.sent.is_empty() {
            0.0
        } else {
            self.total_sent() as f64 / self.sent.len() as f64
        }
    }

    /// Maximum messages sent by any single node.
    pub fn max_sent_per_node(&self) -> u64 {
        self.sent.iter().copied().max().unwrap_or(0)
    }

    /// Merge another table into this one by elementwise addition, growing
    /// to cover the larger node space. A sharded run's per-shard tables
    /// are row-disjoint (a node's sends *and* receives are both recorded
    /// on its owner shard), so summing them reassembles exactly the
    /// sequential run's table.
    pub fn absorb(&mut self, other: &MessageStats) {
        self.grow_to(other.sent.len());
        for (a, b) in self.sent.iter_mut().zip(&other.sent) {
            *a += b;
        }
        for (a, b) in self.received.iter_mut().zip(&other.received) {
            *a += b;
        }
        for (a, b) in self.bytes_sent.iter_mut().zip(&other.bytes_sent) {
            *a += b;
        }
        for (a, b) in self.bytes_received.iter_mut().zip(&other.bytes_received) {
            *a += b;
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.sent.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_aggregates() {
        let mut s = MessageStats::new(3);
        s.record_sends(NodeId(0), 1, 100);
        s.record_sends(NodeId(0), 1, 50);
        s.record_sends(NodeId(2), 1, 10);
        s.record_receive(NodeId(1), 100);
        assert_eq!(s.sent_by(NodeId(0)), 2);
        assert_eq!(s.sent_by(NodeId(1)), 0);
        assert_eq!(s.received_by(NodeId(1)), 1);
        assert_eq!(s.bytes_received_by(NodeId(1)), 100);
        assert_eq!(s.total_bytes_received(), 100);
        assert_eq!(s.bytes_sent_by(NodeId(0)), 150);
        assert_eq!(s.total_sent(), 3);
        assert_eq!(s.total_bytes(), 160);
        assert!((s.mean_sent_per_node() - 1.0).abs() < 1e-12);
        assert_eq!(s.max_sent_per_node(), 2);
        assert_eq!(s.node_count(), 3);
    }

    #[test]
    fn empty_stats() {
        let s = MessageStats::new(0);
        assert_eq!(s.total_sent(), 0);
        assert_eq!(s.mean_sent_per_node(), 0.0);
        assert_eq!(s.max_sent_per_node(), 0);
    }
}
