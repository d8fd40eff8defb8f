//! Per-shard lookahead-window accounting: where each worker of a sharded
//! run spent its wall-clock — working, ingesting other shards' sends, or
//! waiting at the barrier.

use crate::histogram::Log2Histogram;

/// What [`crate::Recorder::window_done`] reported for one shard, folded:
/// a log₂ histogram of per-window nanoseconds for each of the three parts
/// of a window, event and wire-event totals, and the cumulative
/// `[work, ingest, wait]` nanoseconds after every window (the timeline's
/// counter track). All wall-clock, so none of it enters the deterministic
/// summaries.
#[derive(Debug, Clone, Default)]
pub struct ShardWindows {
    /// Per-window nanoseconds running events and flushing the outbox.
    pub work: Log2Histogram,
    /// Per-window nanoseconds filing cross-shard arrivals.
    pub ingest: Log2Histogram,
    /// Per-window nanoseconds blocked waiting for the next command.
    pub wait: Log2Histogram,
    /// Events processed inside windows.
    pub events: u64,
    /// Cross-shard wire events received.
    pub wire_in: u64,
    /// Cross-shard wire events sent.
    pub wire_out: u64,
    /// `(sim time, cumulative [work, ingest, wait] ns)` after each window.
    samples: Vec<(f64, [u64; 3])>,
}

impl ShardWindows {
    /// Fold one finished window, stamped with the recorder's latest
    /// simulation time `now`.
    pub fn record(&mut self, now: f64, events: u64, parts_ns: [u64; 3], wire: [u64; 2]) {
        let [work, ingest, wait] = parts_ns;
        self.work.record(work);
        self.ingest.record(ingest);
        self.wait.record(wait);
        self.events += events;
        self.wire_in += wire[0];
        self.wire_out += wire[1];
        self.samples.push((now, self.totals_ns()));
    }

    /// Windows recorded.
    pub fn windows(&self) -> u64 {
        self.work.count()
    }

    /// Total `[work, ingest, wait]` nanoseconds.
    pub fn totals_ns(&self) -> [u64; 3] {
        [self.work.sum(), self.ingest.sum(), self.wait.sum()]
    }

    /// At most `max` evenly strided cumulative samples, always including
    /// the last.
    pub fn samples(&self, max: usize) -> impl Iterator<Item = &(f64, [u64; 3])> {
        let stride = self.samples.len().div_ceil(max.max(1)).max(1);
        let last = self.samples.len().saturating_sub(1);
        self.samples
            .iter()
            .enumerate()
            .filter(move |&(i, _)| i % stride == 0 || i == last)
            .map(|(_, s)| s)
    }

    /// Merge another recorder's view of the same shard (a sharded run's
    /// recorders each see one shard, so this normally meets an empty side).
    pub fn absorb(&mut self, other: ShardWindows) {
        self.work.absorb(&other.work);
        self.ingest.absorb(&other.ingest);
        self.wait.absorb(&other.wait);
        self.events += other.events;
        self.wire_in += other.wire_in;
        self.wire_out += other.wire_out;
        self.samples.extend(other.samples);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_windows_and_strides_samples() {
        let mut w = ShardWindows::default();
        for i in 0..100u64 {
            w.record(i as f64, 10, [1000, 200, 50], [3, 4]);
        }
        assert_eq!(w.windows(), 100);
        assert_eq!(w.totals_ns(), [100_000, 20_000, 5_000]);
        assert_eq!((w.events, w.wire_in, w.wire_out), (1000, 300, 400));
        let picked: Vec<f64> = w.samples(8).map(|s| s.0).collect();
        assert!(picked.len() <= 9, "{picked:?}");
        assert_eq!(picked.last(), Some(&99.0));
        assert_eq!(w.samples(1000).count(), 100);
        let mut merged = ShardWindows::default();
        merged.absorb(w.clone());
        assert_eq!(merged.totals_ns(), w.totals_ns());
    }
}
