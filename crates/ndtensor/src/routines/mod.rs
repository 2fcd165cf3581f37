//! Shape-aware GEMM routine registry and selector (ROADMAP item 1).
//!
//! The PR 5 matmul kernels used one fixed tile configuration for every
//! shape. This module splits that into a *blueprint/routine* structure:
//!
//! * [`kernels`](self) — the candidate microkernels (tile-size variants,
//!   register-blocked accumulators), every one bitwise-equal to the
//!   naive kernel within its family;
//! * [`Routine`] / [`REGISTRY`] — the static table describing each
//!   candidate (name, family, shape predicate, priority);
//! * [`select`] — per-`(op, m, k, n)` choice, either a pure shape
//!   heuristic (default) or a one-shot seeded autotune cached in a
//!   deterministic in-process table (`SALIENCY_AUTOTUNE=on`), timed
//!   exclusively through a [`KernelTimer`] injected by `obs`.
//!
//! Selection is performance-only by construction: the entry points in
//! [`crate::matmul`] and [`crate::conv`] select once per call on the
//! caller thread and hand the chosen kernel fn to the row-parallel
//! workers, and every family member produces bit-identical output, so
//! neither the policy, the thread count, nor the autotune knob can change
//! a single output bit.

mod base;
mod kernels;
mod selector;

pub use base::{
    by_name, candidates, default_routine, run_serial, GemmOp, Kernel, Routine, REGISTRY,
};
pub use selector::{
    autotune_mode, clear_selection_table, heuristic, install_timer, pick, quantize_ns, select,
    selection_table, set_autotune, stats, timer_installed, AutotuneMode, AutotuneStats,
    KernelTimer, SelectionEntry,
};

pub(crate) use kernels::pack_at;
