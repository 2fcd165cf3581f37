//! The GEMM microkernels [`super::select`] chooses between.
//!
//! Every kernel here honours one non-negotiable contract: **each output
//! element is accumulated in a single chain, ascending `k`, starting from
//! the element's initial value** — exactly the three-loop schoolbook
//! product. Tiling, packing and register blocking only reorder *which
//! element is worked on next*, never the additions inside one element,
//! so every kernel is bitwise-equal to the naive kernel and the two
//! accumulating kernels are bitwise-interchangeable (proven across
//! shapes and thread counts by `tests/kernel_parity.rs`).
//!
//! Families and their invariants:
//!
//! * **accumulating** (`matmul`, `matmul_at_b` after packing Aᵀ):
//!   [`mm_axpy`] and [`mm_rr2`] both keep the historical exact-zero skip
//!   on `A` entries verbatim — they skip the same `l` indices, so they
//!   agree on *all* inputs, zeros included.
//! * **assigning** (`A·Bᵀ`, the convolution backward pass's dW GEMM,
//!   [`abt_tiled`]): no zero skip anywhere (the original kernel never had
//!   one), every output element is written exactly once.
//!
//! The axpy kernel streams packed B panels; the register kernel holds a
//! group of output columns in local accumulators so each output element
//! is loaded and stored once instead of once per `k` step — on the
//! tall-skinny backward GEMM of the steering CNN (`m32 k64 n9600`) that
//! removes ~`k×` of output traffic and is worth >2×.

use crate::scratch;

/// Output columns per [`mm_axpy`] tile (and B panel).
const COL_TILE: usize = 256;

/// Accumulator width of [`mm_rr2`]: output columns held per row.
const W: usize = 64;

/// B rows per [`abt_tiled`] tile.
const ROW_TILE: usize = 64;

/// Independent dot-product chains in [`abt_tiled`].
const J: usize = 8;

/// Minimum rows in a chunk before packing the B panel pays for itself
/// (a decision that never affects values).
const PACK_MIN_ROWS: usize = 4;

/// Packs the `k × tw` column panel of `b` starting at column `jc` into
/// `panel` (cleared first): one streaming copy, then every row of the
/// chunk reuses it from cache.
fn pack_panel(bd: &[f32], k: usize, n: usize, jc: usize, tw: usize, panel: &mut Vec<f32>) {
    panel.clear();
    for l in 0..k {
        panel.extend_from_slice(&bd[l * n + jc..l * n + jc + tw]);
    }
}

/// Axpy-ordered accumulating kernel: `out[i][j] += Σ_l arows[i][l] ·
/// b[l][j]` over [`COL_TILE`]-column tiles with optional B-panel
/// packing. `out` must hold the `rows × n` output block already
/// initialised.
///
/// Per output element the summation is a single chain in ascending `l`,
/// skipping exact-zero `arows` entries — identical to the naive kernel.
pub(crate) fn mm_axpy(arows: &[f32], rows: usize, k: usize, bd: &[f32], n: usize, out: &mut [f32]) {
    debug_assert_eq!(arows.len(), rows * k);
    debug_assert_eq!(out.len(), rows * n);
    if rows == 0 || n == 0 || k == 0 {
        return;
    }
    let pack = rows >= PACK_MIN_ROWS;
    let mut panel = if pack {
        scratch::take(k * COL_TILE.min(n))
    } else {
        Vec::new()
    };
    let mut jc = 0;
    while jc < n {
        let tw = COL_TILE.min(n - jc);
        if pack {
            pack_panel(bd, k, n, jc, tw, &mut panel);
        }
        for i in 0..rows {
            let arow = &arows[i * k..(i + 1) * k];
            let orow = &mut out[i * n + jc..i * n + jc + tw];
            for (l, &av) in arow.iter().enumerate() {
                // sncheck:allow(no-float-eq): exact-zero sparsity skip,
                // not a tolerance check.
                if av == 0.0 {
                    continue;
                }
                let brow = if pack {
                    &panel[l * tw..(l + 1) * tw]
                } else {
                    &bd[l * n + jc..l * n + jc + tw]
                };
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        jc += tw;
    }
    scratch::give(panel);
}

/// Whether an A row contains no exact zero.
///
/// Gates the branch-free fast path of the register-row kernels: when no
/// element is zero, the skip-discipline loop and the branch-free loop
/// perform the identical sequence of multiplies and adds, so the fast
/// path is bitwise-equal on exactly the inputs where it is taken.
#[inline(always)]
fn dense_row(row: &[f32]) -> bool {
    // sncheck:allow(no-float-eq): exact-zero test is the gate condition
    // for the sparsity-skip discipline, not a tolerance comparison.
    row.iter().all(|&v| v != 0.0)
}

/// Single-row register block for [`mm_rr2`]'s remainder row.
#[inline(always)]
fn rr1_block(r0: &[f32], k: usize, bd: &[f32], n: usize, j: usize, acc0: &mut [f32; W]) {
    if dense_row(r0) {
        for l in 0..k {
            let brow = &bd[l * n + j..l * n + j + W];
            let a0 = r0[l];
            for t in 0..W {
                acc0[t] += a0 * brow[t];
            }
        }
    } else {
        for l in 0..k {
            let brow = &bd[l * n + j..l * n + j + W];
            let a0 = r0[l];
            // sncheck:allow(no-float-eq): exact-zero sparsity skip,
            // same discipline as mm_axpy.
            if a0 != 0.0 {
                for t in 0..W {
                    acc0[t] += a0 * brow[t];
                }
            }
        }
    }
}

/// Scalar column-remainder chains (identical order to the wide paths).
fn rr_col_remainder(
    arows: &[f32],
    rows: usize,
    k: usize,
    bd: &[f32],
    n: usize,
    out: &mut [f32],
    mut j: usize,
) {
    while j < n {
        for i in 0..rows {
            let mut s = out[i * n + j];
            for l in 0..k {
                let av = arows[i * k + l];
                // sncheck:allow(no-float-eq): exact-zero sparsity skip,
                // same discipline as mm_axpy.
                if av == 0.0 {
                    continue;
                }
                s += av * bd[l * n + j];
            }
            out[i * n + j] = s;
        }
        j += 1;
    }
}

/// Two-row register-blocked accumulating kernel: a pair of `W`-wide
/// accumulator rows lives in separate fixed-size locals (so scalar
/// replacement keeps them in vector registers for the whole `k` chain —
/// a nested `[[f32; W]; R]` block defeats that), seeded from `out` and
/// stored back once. The `k × W` B block is loaded once per `l`, shared
/// by both rows, and stays L1-resident across row pairs at the same
/// column offset, so B is effectively streamed from memory once per
/// call. Row pairs whose A rows contain no exact zero take a branch-free
/// inner loop; it performs the identical operation sequence as the
/// skip loop on those inputs, so the choice never changes bits. Each
/// output element's chain is ascending `l` either way.
pub(crate) fn mm_rr2(arows: &[f32], rows: usize, k: usize, bd: &[f32], n: usize, out: &mut [f32]) {
    debug_assert_eq!(arows.len(), rows * k);
    debug_assert_eq!(out.len(), rows * n);
    if rows == 0 || n == 0 || k == 0 {
        return;
    }
    let mut j = 0;
    while j + W <= n {
        let mut i = 0;
        while i + 2 <= rows {
            let r0 = &arows[i * k..(i + 1) * k];
            let r1 = &arows[(i + 1) * k..(i + 2) * k];
            let mut acc0 = [0.0f32; W];
            let mut acc1 = [0.0f32; W];
            acc0.copy_from_slice(&out[i * n + j..i * n + j + W]);
            acc1.copy_from_slice(&out[(i + 1) * n + j..(i + 1) * n + j + W]);
            if dense_row(r0) && dense_row(r1) {
                for l in 0..k {
                    let brow = &bd[l * n + j..l * n + j + W];
                    let a0 = r0[l];
                    let a1 = r1[l];
                    for t in 0..W {
                        acc0[t] += a0 * brow[t];
                    }
                    for t in 0..W {
                        acc1[t] += a1 * brow[t];
                    }
                }
            } else {
                for l in 0..k {
                    let brow = &bd[l * n + j..l * n + j + W];
                    let a0 = r0[l];
                    // sncheck:allow(no-float-eq): exact-zero sparsity
                    // skip, same discipline as mm_axpy.
                    if a0 != 0.0 {
                        for t in 0..W {
                            acc0[t] += a0 * brow[t];
                        }
                    }
                    let a1 = r1[l];
                    // sncheck:allow(no-float-eq): exact-zero sparsity
                    // skip, same discipline as mm_axpy.
                    if a1 != 0.0 {
                        for t in 0..W {
                            acc1[t] += a1 * brow[t];
                        }
                    }
                }
            }
            out[i * n + j..i * n + j + W].copy_from_slice(&acc0);
            out[(i + 1) * n + j..(i + 1) * n + j + W].copy_from_slice(&acc1);
            i += 2;
        }
        // Remainder row: single-row register block, identical chains.
        while i < rows {
            let r0 = &arows[i * k..(i + 1) * k];
            let mut acc0 = [0.0f32; W];
            acc0.copy_from_slice(&out[i * n + j..i * n + j + W]);
            rr1_block(r0, k, bd, n, j, &mut acc0);
            out[i * n + j..i * n + j + W].copy_from_slice(&acc0);
            i += 1;
        }
        j += W;
    }
    rr_col_remainder(arows, rows, k, bd, n, out, j);
}

/// Transposes the `Aᵀ` column block `i0..i0 + rows` of `A: [k, m]` into
/// a contiguous `rows × k` scratch buffer (single pass over `A`), so the
/// accumulating kernels see plain packed rows.
pub(crate) fn pack_at(ad: &[f32], k: usize, m: usize, i0: usize, rows: usize) -> Vec<f32> {
    let mut pa = scratch::take(rows * k);
    pa.resize(rows * k, 0.0);
    for l in 0..k {
        let acol = &ad[l * m + i0..l * m + i0 + rows];
        for (i, &av) in acol.iter().enumerate() {
            pa[i * k + l] = av;
        }
    }
    pa
}

/// Tiled assigning kernel for `A·Bᵀ`: `out[i][j] = Σ_l arows[i][l] ·
/// b[j][l]` over [`ROW_TILE`]-row B tiles, [`J`] independent dot-product
/// chains for instruction-level parallelism. Every element of `out` is
/// assigned.
pub(crate) fn abt_tiled(
    arows: &[f32],
    rows: usize,
    k: usize,
    bd: &[f32],
    n: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(arows.len(), rows * k);
    debug_assert_eq!(out.len(), rows * n);
    if rows == 0 || n == 0 {
        return;
    }
    let mut j0 = 0;
    loop {
        let tile_end = (j0 + ROW_TILE).min(n);
        for i in 0..rows {
            let arow = &arows[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            let mut j = j0;
            while j + J <= tile_end {
                let mut acc = [0.0f32; J];
                let base: [&[f32]; J] = std::array::from_fn(|t| &bd[(j + t) * k..(j + t + 1) * k]);
                for (l, &av) in arow.iter().enumerate() {
                    for t in 0..J {
                        acc[t] += av * base[t][l];
                    }
                }
                orow[j..j + J].copy_from_slice(&acc);
                j += J;
            }
            while j < tile_end {
                let brow = &bd[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&av, &bv) in arow.iter().zip(brow) {
                    acc += av * bv;
                }
                orow[j] = acc;
                j += 1;
            }
        }
        if tile_end == n {
            break;
        }
        j0 = tile_end;
    }
}
