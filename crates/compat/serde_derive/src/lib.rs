//! Empty shell of the offline `serde_derive` stand-in (a proc-macro crate
//! that exports no macro). Nothing in the workspace derives serde traits.
//! The crate stays only because the standalone `benchmark/` package's
//! `Cargo.lock` lists it; unfreezing that lock deletes it. See
//! `crates/compat/README.md`.
