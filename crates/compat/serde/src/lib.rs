//! Empty shell of the offline `serde` stand-in. Nothing in the workspace
//! derives or names serde traits: nothing serializes. The crate and the
//! dependency lines naming it stay only because the standalone
//! `benchmark/` package's `Cargo.lock` lists it; unfreezing that lock
//! deletes both. See `crates/compat/README.md`.
