//! Empty shell of the offline `bytes` stand-in. Nothing in the workspace
//! uses it: the one user, `disco_core::label`'s bit writer, fills a
//! `Vec<u8>`. The crate and the dependency line naming it stay only
//! because the standalone `benchmark/` package's `Cargo.lock` lists it;
//! unfreezing that lock deletes both. See `crates/compat/README.md`.
