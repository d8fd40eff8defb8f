//! Deterministic topology-event schedules.

use disco_sim::{
    LookaheadViolation, Recorder, ShardProtocol, ShardedEngine, SimTime, TopologyEvent,
};

/// A time-ordered stream of topology events, ready to be injected into a
/// [`ShardedEngine`]. Events at equal timestamps keep their insertion order
/// (they are keyed in injection order), so a schedule applied to the same
/// engine state always replays identically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schedule {
    events: Vec<(SimTime, TopologyEvent)>,
}

impl Schedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a schedule from events in arbitrary order (stable-sorted by
    /// time: equal-timestamp events keep their input order). O(k log k) —
    /// use this instead of repeated [`Schedule::push`] for bulk streams
    /// that interleave in time.
    pub fn from_events(mut events: Vec<(SimTime, TopologyEvent)>) -> Schedule {
        for (t, _) in &events {
            assert!(
                t.is_finite() && *t >= 0.0,
                "event time must be finite and non-negative"
            );
        }
        events.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        Schedule { events }
    }

    /// Append `event` at absolute simulation time `at`.
    pub fn push(&mut self, at: SimTime, event: TopologyEvent) {
        assert!(
            at.is_finite() && at >= 0.0,
            "event time must be finite and non-negative"
        );
        self.events.push((at, event));
        // Keep sorted: models emit in time order, so this is O(1) amortized;
        // occasional out-of-order pushes pay an insertion. Bulk out-of-order
        // producers should use [`Schedule::from_events`] instead.
        let mut i = self.events.len() - 1;
        while i > 0 && self.events[i - 1].0 > self.events[i].0 {
            self.events.swap(i - 1, i);
            i -= 1;
        }
    }

    /// Merge another schedule into this one, preserving time order (ties:
    /// `self`'s events first).
    pub fn merge(self, other: Schedule) -> Schedule {
        let mut events = self.events;
        events.extend(other.events);
        // Both inputs are sorted, so a stable sort is effectively a merge
        // pass and keeps `self`'s events first on ties.
        Schedule::from_events(events)
    }

    /// The events in time order.
    pub fn events(&self) -> &[(SimTime, TopologyEvent)] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Timestamp of the last event (0 for an empty schedule).
    pub fn horizon(&self) -> SimTime {
        self.events.last().map_or(0.0, |(t, _)| *t)
    }

    /// Shift every event later by `offset` (e.g. to start churn after the
    /// initial convergence phase).
    pub fn shifted(mut self, offset: SimTime) -> Schedule {
        for (t, _) in &mut self.events {
            *t += offset;
        }
        self
    }

    /// Schedule every event into `engine`, offset so the first event fires
    /// no earlier than the engine's current time. Events are injected in
    /// schedule order, so every shard count replays them under the same
    /// logical event keys. Fails on the first event that would introduce a
    /// link faster than the conservative lookahead window (the same check
    /// applies at every shard count, including 1).
    pub fn apply_to<P, R>(&self, engine: &mut ShardedEngine<P, R>) -> Result<(), LookaheadViolation>
    where
        P: ShardProtocol + 'static,
        R: Recorder + Send + 'static,
    {
        let now = engine.now();
        for (t, ev) in &self.events {
            engine.schedule_topology(now + t, ev.clone())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_graph::NodeId;

    fn leave(n: usize) -> TopologyEvent {
        TopologyEvent::NodeLeave { node: NodeId(n) }
    }

    #[test]
    fn push_keeps_time_order_with_stable_ties() {
        let mut s = Schedule::new();
        s.push(2.0, leave(2));
        s.push(1.0, leave(1));
        s.push(2.0, leave(3));
        s.push(0.5, leave(0));
        let order: Vec<(f64, usize)> = s
            .events()
            .iter()
            .map(|(t, e)| match e {
                TopologyEvent::NodeLeave { node } => (*t, node.0),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![(0.5, 0), (1.0, 1), (2.0, 2), (2.0, 3)]);
        assert_eq!(s.horizon(), 2.0);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn merge_and_shift() {
        let mut a = Schedule::new();
        a.push(1.0, leave(1));
        let mut b = Schedule::new();
        b.push(0.5, leave(2));
        let m = a.merge(b).shifted(10.0);
        assert_eq!(m.events()[0].0, 10.5);
        assert_eq!(m.events()[1].0, 11.0);
        assert_eq!(m.horizon(), 11.0);
    }

    #[test]
    #[should_panic]
    fn rejects_negative_times() {
        let mut s = Schedule::new();
        s.push(-1.0, leave(0));
    }
}
