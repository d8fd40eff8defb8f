//! Empty shell of the offline `scoped_threadpool` stand-in. Nothing in the
//! workspace uses it: the static build runs on `std::thread::scope`, and
//! the sharded engine's persistent workers are `disco-sim`'s own. The
//! crate and the dependency lines naming it stay only because the
//! standalone `benchmark/` package's `Cargo.lock` lists it; unfreezing
//! that lock deletes both. See `crates/compat/README.md`.
