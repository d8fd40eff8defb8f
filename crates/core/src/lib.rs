//! # disco-core — Distributed Compact Routing ("Disco")
//!
//! Reproduction of the routing protocol from *"Scalable Routing on Flat
//! Names"* (Singla, Godfrey, Fall, Iannaccone, Ratnasamy — ACM CoNEXT
//! 2010). Disco is the first dynamic, distributed routing protocol that
//! simultaneously guarantees
//!
//! * **scalability** — `O~(√n)` routing-table entries per node on any
//!   topology,
//! * **low stretch** — worst-case stretch 7 on the first packet of a flow
//!   and 3 on subsequent packets,
//! * **flat names** — routing on arbitrary, location-independent names.
//!
//! ## Architecture (paper §4)
//!
//! | Paper section | Module |
//! |---|---|
//! | §4.1 assumptions, estimating `n` | [`config`], [`estimate_n`] |
//! | §4.2 landmarks: election and the landmark forest (trees, `ℓ_v`) | [`landmark`] |
//! | §4.2 vicinities + path-vector learning | [`vicinity`], [`path_vector`] |
//! | §4.2 addresses / explicit routes / labels | [`address`], [`label`] |
//! | §4.2 routing + shortcutting heuristics | [`routing`], [`shortcut`] |
//! | §4.3 name resolution over landmarks | [`resolution`] |
//! | data plane: compiled flat tables, epoch publish | [`forward`] |
//! | §4.4 sloppy groups | [`sloppy_group`] |
//! | §4.4 dissemination overlay (Symphony-style) | [`overlay`], [`dissemination`] |
//! | §4.5 guarantees | exercised by tests & `tests/guarantees.rs` |
//! | §5 static simulation | [`static_state`] |
//! | §5 discrete-event simulation | [`protocol`] |
//!
//! Two entry points cover the paper's two simulators:
//!
//! * [`static_state::DiscoState`] — builds the *post-convergence* state of
//!   every node directly from a [`disco_graph::Graph`] (the paper's "static
//!   simulator", used for all state/stretch/congestion results) over one
//!   [`landmark::LandmarkForest`], the same build the S4 baseline holds,
//!   and
//! * [`protocol::DiscoProtocol`] — the distributed protocol run inside the
//!   [`disco_sim`] discrete-event engine (the paper's "custom discrete event
//!   simulator", used for convergence-messaging results).
//!
//! ```
//! use disco_core::prelude::*;
//! use disco_graph::generators;
//!
//! // Build Disco's converged state on a 512-node random graph.
//! let graph = generators::gnm_average_degree(512, 8.0, 7);
//! let state = DiscoState::build(&graph, &DiscoConfig::seeded(7));
//!
//! // Route on flat names: first packet of a flow, then subsequent packets.
//! let oracle = DiscoRouter::new(&graph, &state);
//! let (s, t) = (disco_graph::NodeId(3), disco_graph::NodeId(400));
//! let first = oracle.route_first_packet(s, t);
//! let later = oracle.route_later_packet(s, t);
//! let shortest = oracle.true_distance(s, t);
//! assert!(first.stretch(shortest) >= 1.0);
//! assert!(later.stretch(shortest) >= 1.0);
//! ```

pub mod address;
pub mod config;
pub mod dissemination;
pub mod estimate_n;
pub mod forward;
pub mod hash;
pub mod label;
pub mod landmark;
pub mod name;
pub mod overlay;
pub mod path_vector;
pub mod protocol;
pub mod resolution;
pub mod rib;
pub mod routing;
pub mod shortcut;
pub mod sloppy_group;
pub mod static_state;
pub mod vicinity;
pub mod wire;

/// `(0..len).map(job)` on one scoped worker per CPU. The workers take
/// `chunk` consecutive indices at a time from a shared cursor, so uneven
/// jobs still spread evenly, and each result lands in its own slot: the
/// output is the same for any CPU count.
pub(crate) fn map_per_cpu<T: Send>(
    len: usize,
    chunk: usize,
    job: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut out: Vec<Option<T>> = (0..len).map(|_| None).collect();
    let cursor = std::sync::Mutex::new(out.chunks_mut(chunk).enumerate());
    std::thread::scope(|scope| {
        for _ in 0..workers.min(len.div_ceil(chunk)) {
            scope.spawn(|| loop {
                let Some((c, slots)) = cursor.lock().expect("a worker panicked").next() else {
                    break;
                };
                for (off, slot) in slots.iter_mut().enumerate() {
                    *slot = Some(job(c * chunk + off));
                }
            });
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("every slot filled"))
        .collect()
}

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::address::Address;
    pub use crate::config::DiscoConfig;
    pub use crate::forward::{FlatRoute, ForwardingTable, TablePublisher};
    pub use crate::hash::{NameHash, NameHasher};
    pub use crate::label::ExplicitRoute;
    pub use crate::name::FlatName;
    pub use crate::routing::{DiscoRouter, NdDiscoRouter, RouteOutcome};
    pub use crate::shortcut::ShortcutMode;
    pub use crate::static_state::DiscoState;
}

pub use prelude::*;
