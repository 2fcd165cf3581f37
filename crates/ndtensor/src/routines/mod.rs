//! Shape-aware GEMM kernel selection.
//!
//! Three GEMM families share one microkernel calling convention
//! ([`Kernel`]). [`select`] maps a family and its full problem shape to
//! one kernel with a single `match`:
//!
//! * accumulating families (`A·B`, and `Aᵀ·B` after the entry point packs
//!   the Aᵀ rows): the two-row 64-wide register kernel where the output
//!   is wide enough for its column block (`n ≥ 64`) and the `k × 64` B
//!   block stays L1-resident (`k ≤ 128`, ≤ 32 KB of f32); otherwise the
//!   panel-packed axpy kernel over 256-column tiles, whose packed panel
//!   amortizes over long `k`;
//! * `A·Bᵀ` (the convolution backward pass's dW GEMM): the tiled kernel
//!   with eight dot-product chains over 64-row B tiles.
//!
//! The entry points in [`crate::matmul`] and the convolution backward
//! pass select once per call on the caller thread and hand the kernel fn
//! to the row-parallel workers. Both kernels of an accumulating family
//! add each output element's products in one chain, ascending `k`,
//! skipping the same exact-zero `A` entries — the naive kernel's order —
//! so the shape match can never change an output bit.

mod kernels;

use std::sync::atomic::{AtomicU64, Ordering};

pub(crate) use kernels::pack_at;

/// One GEMM family, keyed by operand orientation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmOp {
    /// `C = A·B` — accumulating family (`A: [m, k]`, `B: [k, n]`).
    MatMul,
    /// `C = Aᵀ·B` — accumulating family after packing the Aᵀ rows
    /// (`A: [k, m]`, `B: [k, n]`).
    MatMulAtB,
    /// `C = A·Bᵀ` — assigning family (`A: [m, k]`, `B: [n, k]`).
    MatMulABt,
}

impl GemmOp {
    /// Stable identifier used in bench reports (matches the kernel names
    /// in `BENCH_pipeline.json`).
    pub fn as_str(self) -> &'static str {
        match self {
            GemmOp::MatMul => "matmul",
            GemmOp::MatMulAtB => "matmul_at_b",
            GemmOp::MatMulABt => "matmul_a_bt",
        }
    }
}

/// The uniform microkernel signature: `(arows, rows, k, bd, n, out)`.
///
/// `arows` is a packed `rows × k` block of A rows (for [`GemmOp::MatMulAtB`]
/// the entry point packs the Aᵀ chunk first), `bd` the full B operand in
/// the family's layout, `out` the `rows × n` output block — exactly the
/// per-chunk shape [`crate::par::for_each_block`] hands to workers.
/// Accumulating families add into `out`; the assigning family overwrites
/// every element.
pub type Kernel = fn(&[f32], usize, usize, &[f32], usize, &mut [f32]);

static LOOKUPS: AtomicU64 = AtomicU64::new(0);

/// Selects the kernel for one full problem shape (`k` inner, `n` output
/// columns) and returns it with its stable name.
///
/// Call once per entry-point invocation on the caller thread, *before*
/// row-splitting: the choice is a pure function of the shape, so it
/// cannot depend on the thread count.
pub fn select(op: GemmOp, k: usize, n: usize) -> (Kernel, &'static str) {
    LOOKUPS.fetch_add(1, Ordering::Relaxed);
    let wide_small_k = n >= 64 && k <= 128;
    match (op, wide_small_k) {
        (GemmOp::MatMul, true) => (kernels::mm_rr2, "mm-rr2-w64"),
        (GemmOp::MatMul, false) => (kernels::mm_axpy, "mm-axpy-c256"),
        (GemmOp::MatMulAtB, true) => (kernels::mm_rr2, "atb-rr2-w64"),
        (GemmOp::MatMulAtB, false) => (kernels::mm_axpy, "atb-axpy-c256"),
        (GemmOp::MatMulABt, _) => (kernels::abt_tiled, "abt-dot8-t64"),
    }
}

/// Selection counters since process start. Exists for the frame-verdict
/// benchmark, which reports `lookups` per frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectionStats {
    /// Total [`select`] calls.
    pub lookups: u64,
}

/// Snapshot of the selection counters (monotonic; diff two snapshots).
/// Exists for the frame-verdict benchmark.
pub fn stats() -> SelectionStats {
    SelectionStats {
        lookups: LOOKUPS.load(Ordering::Relaxed),
    }
}

/// Selection policy. Exists only so the frame-verdict benchmark, which
/// pins and prints it, still compiles: selection is always the shape
/// match in [`select`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AutotuneMode {
    /// The shape match in [`select`].
    Off,
}

/// Does nothing. Exists for the frame-verdict benchmark, which pins the
/// policy before it scores.
pub fn set_autotune(_mode: AutotuneMode) {}

/// Always [`AutotuneMode::Off`]. Exists for the frame-verdict benchmark's
/// environment line.
pub fn autotune_mode() -> AutotuneMode {
    AutotuneMode::Off
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_splits_accumulating_families_at_the_register_block() {
        let name = |op, k, n| select(op, k, n).1;
        assert_eq!(name(GemmOp::MatMul, 128, 64), "mm-rr2-w64");
        assert_eq!(name(GemmOp::MatMul, 129, 64), "mm-axpy-c256");
        assert_eq!(name(GemmOp::MatMul, 128, 63), "mm-axpy-c256");
        assert_eq!(name(GemmOp::MatMulAtB, 64, 9600), "atb-rr2-w64");
        assert_eq!(name(GemmOp::MatMulAtB, 9600, 64), "atb-axpy-c256");
        assert_eq!(name(GemmOp::MatMulABt, 1, 1), "abt-dot8-t64");
        assert_eq!(name(GemmOp::MatMulABt, 64, 9600), "abt-dot8-t64");
    }

    #[test]
    fn select_counts_lookups() {
        let before = stats().lookups;
        select(GemmOp::MatMul, 5, 7);
        assert!(stats().lookups > before);
    }
}
