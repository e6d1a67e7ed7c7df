//! Sync-primitive switchyard for the runtime backend.
//!
//! Everything in `ovcomm-rt` that synchronizes between rank threads,
//! progress workers, and the watchdog imports its primitives from here
//! instead of naming `parking_lot` / `std::sync::atomic` directly. In a
//! normal build this module is a pure re-export — zero cost, identical
//! types. Built with `RUSTFLAGS="--cfg loom"`, the same names resolve to
//! the loom model-checking primitives, so the mailbox-matching and
//! rendezvous-handshake state machines can be exhaustively schedule-tested
//! (`tests/loom.rs`) without a second copy of the protocol code.
//!
//! One deliberate exception: [`crate::shared::RtShared::plan_cache`] stays
//! a `parking_lot::Mutex` unconditionally, because its type is pinned by
//! `ovcomm_simmpi::compile_plans`'s signature (shared verbatim with the
//! simulator backend) and it is never on a loom-checked path. The progress
//! pool's free list (`crate::progress::Pool`) is likewise a plain
//! `parking_lot::Mutex`, off every loom-checked path.

#[cfg(loom)]
pub use loom::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
#[cfg(loom)]
pub use loom::sync::{Condvar, Mutex, MutexGuard};

#[cfg(not(loom))]
pub use parking_lot::{Condvar, Mutex, MutexGuard};
#[cfg(not(loom))]
pub use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
