//! The routine registry: every candidate microkernel, described.
//!
//! A [`Routine`] is a named, shape-gated entry into one GEMM family.
//! All candidates of a family share one calling convention ([`Kernel`]):
//! a packed `rows × k` row block of A against the full B operand,
//! writing a `rows × n` output block — exactly the per-chunk shape
//! [`crate::par::for_each_block`] hands to workers, so the selected
//! kernel drops straight into the existing row-parallel entry points.
//!
//! The registry is a static table ([`REGISTRY`]): adding a routine means
//! adding one wrapper fn and one table row. Selection (see
//! [`crate::routines::selector`]) never affects results — every family
//! member is bitwise-equal to the naive kernel — so the table can grow
//! freely without touching the determinism proofs.

use super::kernels;
use crate::scratch;

/// One GEMM family, keyed by operand orientation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
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
    /// Stable identifier used in bench reports and the selection table
    /// (matches the kernel names in `BENCH_pipeline.json`).
    pub fn as_str(self) -> &'static str {
        match self {
            GemmOp::MatMul => "matmul",
            GemmOp::MatMulAtB => "matmul_at_b",
            GemmOp::MatMulABt => "matmul_a_bt",
        }
    }

    /// Dense table index (used as the selection-table key component).
    pub(crate) fn index(self) -> u8 {
        match self {
            GemmOp::MatMul => 0,
            GemmOp::MatMulAtB => 1,
            GemmOp::MatMulABt => 2,
        }
    }
}

/// The uniform microkernel signature: `(arows, rows, k, bd, n, out)`.
///
/// `arows` is a packed `rows × k` block of A rows (for [`GemmOp::MatMulAtB`]
/// the entry point packs the Aᵀ chunk first), `bd` the full B operand in
/// the family's layout, `out` the `rows × n` output block. Accumulating
/// families add into `out`; the assigning family overwrites every element.
pub type Kernel = fn(&[f32], usize, usize, &[f32], usize, &mut [f32]);

/// One registered candidate microkernel.
#[derive(Debug, Clone, Copy)]
pub struct Routine {
    /// Stable name, unique across the registry; appears in bench JSON,
    /// the selection table and test failure messages.
    pub name: &'static str,
    /// The family this routine implements.
    pub op: GemmOp,
    /// Tie-break rank for selection: lower wins when measurements are
    /// indistinguishable. The PR 5 default of each family is 0, so ties
    /// always fall back to proven behaviour. Never compared across
    /// families.
    pub priority: u8,
    /// Shape-class predicate over the *full* problem `(m, k, n)`: a
    /// routine is only a candidate where this returns true. Kernels must
    /// still be correct for any chunk the row-splitter produces.
    pub applies: fn(m: usize, k: usize, n: usize) -> bool,
    /// The microkernel entry point.
    pub kernel: Kernel,
}

impl Routine {
    /// Whether this routine is a candidate for the full problem shape.
    pub fn applies_to(&self, m: usize, k: usize, n: usize) -> bool {
        (self.applies)(m, k, n)
    }
}

fn always(_m: usize, _k: usize, _n: usize) -> bool {
    true
}

// Wrapper fns: `Kernel` is a plain fn pointer, so each tile/width
// configuration gets a named zero-cost wrapper.

fn mm_axpy_c128(a: &[f32], rows: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    kernels::mm_axpy(a, rows, k, b, n, out, 128);
}
fn mm_axpy_c256(a: &[f32], rows: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    kernels::mm_axpy(a, rows, k, b, n, out, 256);
}
fn mm_axpy_c512(a: &[f32], rows: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    kernels::mm_axpy(a, rows, k, b, n, out, 512);
}
fn mm_reg8_c256(a: &[f32], rows: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    kernels::mm_regblock::<8>(a, rows, k, b, n, out, 256);
}
fn mm_reg16_c256(a: &[f32], rows: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    kernels::mm_regblock::<16>(a, rows, k, b, n, out, 256);
}
fn mm_rr2_w16(a: &[f32], rows: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    kernels::mm_rr2::<16>(a, rows, k, b, n, out);
}
fn mm_rr2_w32(a: &[f32], rows: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    kernels::mm_rr2::<32>(a, rows, k, b, n, out);
}
fn mm_rr2_w64(a: &[f32], rows: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    kernels::mm_rr2::<64>(a, rows, k, b, n, out);
}
fn mm_rr4_w16(a: &[f32], rows: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    kernels::mm_rr4::<16>(a, rows, k, b, n, out);
}
fn mm_rr4_w32(a: &[f32], rows: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    kernels::mm_rr4::<32>(a, rows, k, b, n, out);
}
fn mm_rr4_w64(a: &[f32], rows: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    kernels::mm_rr4::<64>(a, rows, k, b, n, out);
}
fn abt_dot8_t64(a: &[f32], rows: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    kernels::abt_tiled::<8>(a, rows, k, b, n, out, 64);
}
fn abt_dot8_t32(a: &[f32], rows: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    kernels::abt_tiled::<8>(a, rows, k, b, n, out, 32);
}
fn abt_dot16_t64(a: &[f32], rows: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    kernels::abt_tiled::<16>(a, rows, k, b, n, out, 64);
}

/// Every registered routine. Priority 0 rows are the PR 5 defaults; the
/// selector's tie-break and the bench regression gate are both anchored
/// to them. Table order is irrelevant to selection (ties break on
/// `(priority, name)`), which the selector-determinism proptest verifies
/// by shuffling candidate lists.
pub static REGISTRY: &[Routine] = &[
    // --- matmul (accumulating) ---
    Routine {
        name: "mm-axpy-c256",
        op: GemmOp::MatMul,
        priority: 0,
        applies: always,
        kernel: mm_axpy_c256,
    },
    Routine {
        name: "mm-axpy-c128",
        op: GemmOp::MatMul,
        priority: 10,
        applies: always,
        kernel: mm_axpy_c128,
    },
    Routine {
        name: "mm-axpy-c512",
        op: GemmOp::MatMul,
        priority: 11,
        applies: always,
        kernel: mm_axpy_c512,
    },
    Routine {
        name: "mm-reg8-c256",
        op: GemmOp::MatMul,
        priority: 20,
        applies: always,
        kernel: mm_reg8_c256,
    },
    Routine {
        name: "mm-reg16-c256",
        op: GemmOp::MatMul,
        priority: 21,
        applies: always,
        kernel: mm_reg16_c256,
    },
    Routine {
        name: "mm-rr2-w16",
        op: GemmOp::MatMul,
        priority: 40,
        applies: always,
        kernel: mm_rr2_w16,
    },
    Routine {
        name: "mm-rr2-w32",
        op: GemmOp::MatMul,
        priority: 41,
        applies: always,
        kernel: mm_rr2_w32,
    },
    Routine {
        name: "mm-rr2-w64",
        op: GemmOp::MatMul,
        priority: 44,
        applies: always,
        kernel: mm_rr2_w64,
    },
    Routine {
        name: "mm-rr4-w16",
        op: GemmOp::MatMul,
        priority: 42,
        applies: always,
        kernel: mm_rr4_w16,
    },
    Routine {
        name: "mm-rr4-w32",
        op: GemmOp::MatMul,
        priority: 43,
        applies: always,
        kernel: mm_rr4_w32,
    },
    Routine {
        name: "mm-rr4-w64",
        op: GemmOp::MatMul,
        priority: 45,
        applies: always,
        kernel: mm_rr4_w64,
    },
    // --- matmul_at_b (accumulating, entry point packs Aᵀ) ---
    Routine {
        name: "atb-axpy-c256",
        op: GemmOp::MatMulAtB,
        priority: 0,
        applies: always,
        kernel: mm_axpy_c256,
    },
    Routine {
        name: "atb-axpy-c128",
        op: GemmOp::MatMulAtB,
        priority: 10,
        applies: always,
        kernel: mm_axpy_c128,
    },
    Routine {
        name: "atb-axpy-c512",
        op: GemmOp::MatMulAtB,
        priority: 11,
        applies: always,
        kernel: mm_axpy_c512,
    },
    Routine {
        name: "atb-reg8-c256",
        op: GemmOp::MatMulAtB,
        priority: 20,
        applies: always,
        kernel: mm_reg8_c256,
    },
    Routine {
        name: "atb-reg16-c256",
        op: GemmOp::MatMulAtB,
        priority: 21,
        applies: always,
        kernel: mm_reg16_c256,
    },
    Routine {
        name: "atb-rr2-w16",
        op: GemmOp::MatMulAtB,
        priority: 40,
        applies: always,
        kernel: mm_rr2_w16,
    },
    Routine {
        name: "atb-rr2-w32",
        op: GemmOp::MatMulAtB,
        priority: 41,
        applies: always,
        kernel: mm_rr2_w32,
    },
    Routine {
        name: "atb-rr2-w64",
        op: GemmOp::MatMulAtB,
        priority: 44,
        applies: always,
        kernel: mm_rr2_w64,
    },
    Routine {
        name: "atb-rr4-w16",
        op: GemmOp::MatMulAtB,
        priority: 42,
        applies: always,
        kernel: mm_rr4_w16,
    },
    Routine {
        name: "atb-rr4-w32",
        op: GemmOp::MatMulAtB,
        priority: 43,
        applies: always,
        kernel: mm_rr4_w32,
    },
    Routine {
        name: "atb-rr4-w64",
        op: GemmOp::MatMulAtB,
        priority: 45,
        applies: always,
        kernel: mm_rr4_w64,
    },
    // --- matmul_a_bt (assigning) ---
    Routine {
        name: "abt-dot8-t64",
        op: GemmOp::MatMulABt,
        priority: 0,
        applies: always,
        kernel: abt_dot8_t64,
    },
    Routine {
        name: "abt-dot8-t32",
        op: GemmOp::MatMulABt,
        priority: 10,
        applies: always,
        kernel: abt_dot8_t32,
    },
    Routine {
        name: "abt-dot16-t64",
        op: GemmOp::MatMulABt,
        priority: 11,
        applies: always,
        kernel: abt_dot16_t64,
    },
];

/// Candidates of `op` applicable to the full shape `(m, k, n)`, in
/// registry order.
pub fn candidates(
    op: GemmOp,
    m: usize,
    k: usize,
    n: usize,
) -> impl Iterator<Item = &'static Routine> {
    REGISTRY
        .iter()
        .filter(move |r| r.op == op && r.applies_to(m, k, n))
}

/// The priority-0 (PR 5 default) routine of a family.
pub fn default_routine(op: GemmOp) -> &'static Routine {
    REGISTRY
        .iter()
        .find(|r| r.op == op && r.priority == 0)
        .unwrap_or(&REGISTRY[0]) // registry always contains the defaults
}

/// Looks a routine up by its stable name.
pub fn by_name(name: &str) -> Option<&'static Routine> {
    REGISTRY.iter().find(|r| r.name == name)
}

/// Index of a routine in [`REGISTRY`] (by name identity).
pub(crate) fn registry_index(routine: &'static Routine) -> usize {
    REGISTRY
        .iter()
        .position(|r| r.name == routine.name)
        .unwrap_or(0) // every &'static Routine comes from REGISTRY
}

/// Runs one routine over the *whole* problem on the calling thread, with
/// the same per-call preparation the entry points perform (zero-fill for
/// accumulating families, Aᵀ packing for [`GemmOp::MatMulAtB`]). Operand
/// layouts follow the family: `a` is `[m, k]` (`[k, m]` for `MatMulAtB`),
/// `b` is `[k, n]` (`[n, k]` for `MatMulABt`), `out` is `m·n` long.
///
/// This is the measurement body shared by the autotuner and the bench's
/// per-candidate timing: production and measurement run the same code.
pub fn run_serial(
    routine: &Routine,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(out.len(), m * n);
    match routine.op {
        GemmOp::MatMul => {
            out.fill(0.0);
            (routine.kernel)(a, m, k, b, n, out);
        }
        GemmOp::MatMulAtB => {
            out.fill(0.0);
            let pa = kernels::pack_at(a, k, m, 0, m);
            (routine.kernel)(&pa, m, k, b, n, out);
            scratch::give(pa);
        }
        GemmOp::MatMulABt => {
            (routine.kernel)(a, m, k, b, n, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_defaults_exist() {
        for (i, r) in REGISTRY.iter().enumerate() {
            for other in &REGISTRY[i + 1..] {
                assert_ne!(r.name, other.name);
            }
        }
        for op in [GemmOp::MatMul, GemmOp::MatMulAtB, GemmOp::MatMulABt] {
            let d = default_routine(op);
            assert_eq!(d.op, op);
            assert_eq!(d.priority, 0);
            assert!(d.applies_to(7, 5, 300), "defaults must apply everywhere");
        }
    }

    #[test]
    fn by_name_round_trips() {
        for r in REGISTRY {
            assert_eq!(by_name(r.name).unwrap().name, r.name);
            assert_eq!(registry_index(r), registry_index(by_name(r.name).unwrap()));
        }
        assert!(by_name("no-such-routine").is_none());
    }
}
