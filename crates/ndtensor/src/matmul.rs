//! Blocked, multi-threaded matrix multiplication kernels.
//!
//! Two entry points cover the access patterns needed by dense layers and
//! backpropagation without materialising transposed copies:
//!
//! * [`matmul`] — `C = A·B`
//! * [`matmul_at_b`] — `C = Aᵀ·B`
//!
//! Each has a `_into` twin ([`matmul_into`], [`matmul_at_b_into`]) that
//! writes into a caller-provided buffer so hot loops can recycle storage;
//! the allocating forms are thin wrappers that draw their output from
//! [`crate::scratch`]. The `A·Bᵀ` family has no public entry point: its
//! only caller is the convolution backward pass, which selects its
//! kernel directly.
//!
//! The inner microkernels live in [`crate::routines`]: each entry point
//! asks [`routines::select`] for the kernel matching its full shape —
//! once per call, on the caller thread — and hands it to the
//! row-parallel workers. Both kernels of a family are bitwise-equal to
//! the naive kernel (blocking only reorders *which* output element is
//! worked on next; the per-element accumulation remains a single chain
//! in ascending-`k` order, with the historical exact-zero skips
//! preserved verbatim), so selection can never change a result bit.
//!
//! All kernels parallelise over output rows through [`crate::par`] once the
//! arithmetic volume crosses [`crate::par::PARALLEL_THRESHOLD`], so small
//! problems stay on one thread and avoid spawn overhead. Row partitioning
//! never changes the per-element summation order, so results are
//! bit-identical for any thread count.

use crate::par::for_each_block;
use crate::routines::{self, GemmOp};
use crate::{scratch, Result, Tensor, TensorError};

fn dims2(t: &Tensor, op: &'static str) -> Result<(usize, usize)> {
    if t.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 2,
            actual: t.rank(),
        });
    }
    Ok((t.shape().dims()[0], t.shape().dims()[1]))
}

fn check_out_len(actual: usize, expected: usize) -> Result<()> {
    if actual != expected {
        return Err(TensorError::LengthMismatch { expected, actual });
    }
    Ok(())
}

fn check_mm(a: &Tensor, b: &Tensor, op: &'static str) -> Result<(usize, usize, usize)> {
    let (m, k) = dims2(a, op)?;
    let (kb, n) = dims2(b, op)?;
    if k != kb {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: a.shape().clone(),
            rhs: b.shape().clone(),
        });
    }
    Ok((m, k, n))
}

fn matmul_slices(ad: &[f32], m: usize, k: usize, bd: &[f32], n: usize, out: &mut [f32]) {
    // One selection per call, on the caller thread: workers only see the
    // chosen kernel fn, so selection never contends or depends on the
    // thread count.
    let (kernel, _) = routines::select(GemmOp::MatMul, k, n);
    for_each_block(out, n, m * n * k, |row0, chunk| {
        let rows = chunk.len().checked_div(n).unwrap_or(0);
        kernel(&ad[row0 * k..(row0 + rows) * k], rows, k, bd, n, chunk);
    });
}

/// Computes `C = A·B` for `A: [m, k]` and `B: [k, n]`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrix inputs and
/// [`TensorError::ShapeMismatch`] when the inner dimensions disagree.
///
/// # Example
///
/// ```
/// use ndtensor::{matmul, Tensor};
/// # fn main() -> Result<(), ndtensor::TensorError> {
/// let id = Tensor::from_vec([2, 2], vec![1., 0., 0., 1.])?;
/// let a = Tensor::from_vec([2, 2], vec![1., 2., 3., 4.])?;
/// assert_eq!(matmul(&id, &a)?, a);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k, n) = check_mm(a, b, "matmul")?;
    let mut out = Tensor::zeros([m, n]);
    matmul_slices(a.as_slice(), m, k, b.as_slice(), n, out.as_mut_slice());
    Ok(out)
}

/// Computes `C = A·B` into `out` (length `m·n`), recycling its storage.
///
/// # Errors
///
/// Like [`matmul`], plus [`TensorError::LengthMismatch`] when `out` has
/// the wrong length.
pub fn matmul_into(a: &Tensor, b: &Tensor, out: &mut [f32]) -> Result<()> {
    let (m, k, n) = check_mm(a, b, "matmul_into")?;
    check_out_len(out.len(), m * n)?;
    out.fill(0.0);
    matmul_slices(a.as_slice(), m, k, b.as_slice(), n, out);
    Ok(())
}

fn matmul_at_b_slices(ad: &[f32], k: usize, m: usize, bd: &[f32], n: usize, out: &mut [f32]) {
    let (kernel, _) = routines::select(GemmOp::MatMulAtB, k, n);
    for_each_block(out, n, m * n * k, |row0, chunk| {
        let rows = chunk.len().checked_div(n).unwrap_or(0);
        if rows == 0 || k == 0 {
            return;
        }
        // Transpose this chunk's Aᵀ column block into contiguous scratch
        // (one pass over A), then run the selected accumulating kernel on
        // plain packed rows.
        let pa = routines::pack_at(ad, k, m, row0, rows);
        kernel(&pa, rows, k, bd, n, chunk);
        scratch::give(pa);
    });
}

/// Computes `C = Aᵀ·B` for `A: [k, m]` and `B: [k, n]` without transposing.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrix inputs and
/// [`TensorError::ShapeMismatch`] when the leading dimensions disagree.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (k, m) = dims2(a, "matmul_at_b")?;
    let (kb, n) = dims2(b, "matmul_at_b")?;
    if k != kb {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_at_b",
            lhs: a.shape().clone(),
            rhs: b.shape().clone(),
        });
    }
    let mut out = Tensor::zeros([m, n]);
    matmul_at_b_slices(a.as_slice(), k, m, b.as_slice(), n, out.as_mut_slice());
    Ok(out)
}

/// Computes `C = Aᵀ·B` into `out` (length `m·n`), recycling its storage.
///
/// # Errors
///
/// Like [`matmul_at_b`], plus [`TensorError::LengthMismatch`] when `out`
/// has the wrong length.
pub fn matmul_at_b_into(a: &Tensor, b: &Tensor, out: &mut [f32]) -> Result<()> {
    let (k, m) = dims2(a, "matmul_at_b_into")?;
    let (kb, n) = dims2(b, "matmul_at_b_into")?;
    if k != kb {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_at_b_into",
            lhs: a.shape().clone(),
            rhs: b.shape().clone(),
        });
    }
    check_out_len(out.len(), m * n)?;
    out.fill(0.0);
    matmul_at_b_slices(a.as_slice(), k, m, b.as_slice(), n, out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape().dims()[0], a.shape().dims()[1]);
        let n = b.shape().dims()[1];
        Tensor::from_fn([m, n], |idx| {
            (0..k)
                .map(|l| a.at(&[idx[0], l]).unwrap() * b.at(&[l, idx[1]]).unwrap())
                .sum()
        })
    }

    fn pseudo(shape: [usize; 2], seed: u64) -> Tensor {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Tensor::from_fn(shape, |_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        })
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() <= tol * (1.0 + x.abs()), "{x} vs {y}");
        }
    }

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::from_vec([3, 2], vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = pseudo([5, 5], 3);
        let id = Tensor::from_fn([5, 5], |i| if i[0] == i[1] { 1.0 } else { 0.0 });
        assert_close(&matmul(&a, &id).unwrap(), &a, 1e-6);
        assert_close(&matmul(&id, &a).unwrap(), &a, 1e-6);
    }

    #[test]
    fn rejects_bad_shapes() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        assert!(matmul(&a, &b).is_err());
        assert!(matmul(&a, &Tensor::zeros([3])).is_err());
        assert!(matmul_at_b(&Tensor::zeros([2, 3]), &Tensor::zeros([3, 2])).is_err());
    }

    #[test]
    fn into_variants_validate_output_length() {
        let a = pseudo([2, 3], 1);
        let b = pseudo([3, 4], 2);
        let mut short = vec![0.0f32; 7];
        assert!(matmul_into(&a, &b, &mut short).is_err());
        let at = pseudo([3, 2], 4);
        assert!(matmul_at_b_into(&at, &b, &mut short).is_err());
    }

    #[test]
    fn into_variants_are_bit_identical_to_wrappers() {
        for seed in 0..6u64 {
            let (m, k, n) = (3 + seed as usize, 5 + seed as usize, 300 + seed as usize);
            let a = pseudo([m, k], seed);
            let b = pseudo([k, n], seed + 10);
            let mut out = vec![7.0f32; m * n];
            matmul_into(&a, &b, &mut out).unwrap();
            assert_eq!(out, matmul(&a, &b).unwrap().as_slice());

            let at = pseudo([k, m], seed + 20);
            let mut out2 = vec![7.0f32; m * n];
            matmul_at_b_into(&at, &b, &mut out2).unwrap();
            assert_eq!(out2, matmul_at_b(&at, &b).unwrap().as_slice());
        }
    }

    #[test]
    fn shapes_spanning_tile_boundaries_match_naive() {
        // Exercise the column tiling (n > COL_TILE) and the remainder
        // loops.
        for &(m, k, n) in &[(5, 3, 513), (2, 7, 300), (9, 2, 65), (1, 300, 70)] {
            let a = pseudo([m, k], 91);
            let b = pseudo([k, n], 92);
            assert_close(&matmul(&a, &b).unwrap(), &naive(&a, &b), 1e-4);

            let at = pseudo([k, m], 93);
            let expect = naive(&at.transpose2d().unwrap(), &b);
            assert_close(&matmul_at_b(&at, &b).unwrap(), &expect, 1e-4);
        }
    }

    #[test]
    fn transposed_variants_match_explicit_transpose() {
        let a = pseudo([7, 4], 11);
        let b = pseudo([7, 5], 12);
        let expect = matmul(&a.transpose2d().unwrap(), &b).unwrap();
        assert_close(&matmul_at_b(&a, &b).unwrap(), &expect, 1e-5);
    }

    #[test]
    fn large_enough_to_trigger_parallel_path() {
        // 128×128×128 = 2^21 multiply-adds > PARALLEL_THRESHOLD.
        let a = pseudo([128, 128], 21);
        let b = pseudo([128, 128], 22);
        let fast = matmul(&a, &b).unwrap();
        let slow = naive(&a, &b);
        assert_close(&fast, &slow, 1e-4);
    }

    #[test]
    fn zero_sized_dimensions() {
        let a = Tensor::zeros([0, 3]);
        let b = Tensor::zeros([3, 2]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape().dims(), &[0, 2]);
        let d = matmul(&Tensor::zeros([2, 0]), &Tensor::zeros([0, 4])).unwrap();
        assert_eq!(d.shape().dims(), &[2, 4]);
        assert!(d.as_slice().iter().all(|&v| v == 0.0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn matches_naive_reference(
            m in 1usize..12, k in 1usize..12, n in 1usize..12, seed in 0u64..1_000
        ) {
            let a = pseudo([m, k], seed);
            let b = pseudo([k, n], seed + 1);
            assert_close(&matmul(&a, &b).unwrap(), &naive(&a, &b), 1e-4);
        }

        #[test]
        fn transposed_variants_match_naive_reference(
            m in 1usize..12, k in 1usize..12, n in 1usize..12, seed in 0u64..1_000
        ) {
            let a = pseudo([k, m], seed);
            let b = pseudo([k, n], seed + 1);
            let expect = naive(&a.transpose2d().unwrap(), &b);
            assert_close(&matmul_at_b(&a, &b).unwrap(), &expect, 1e-4);
        }

        #[test]
        fn into_matches_wrapper_bitwise(
            m in 1usize..10, k in 1usize..10, n in 1usize..10, seed in 0u64..1_000
        ) {
            let a = pseudo([m, k], seed);
            let b = pseudo([k, n], seed + 1);
            let mut out = vec![3.5f32; m * n];
            matmul_into(&a, &b, &mut out).unwrap();
            let reference = matmul(&a, &b).unwrap();
            prop_assert_eq!(out.as_slice(), reference.as_slice());
        }

        #[test]
        fn distributes_over_addition(
            m in 1usize..8, k in 1usize..8, n in 1usize..8, seed in 0u64..1_000
        ) {
            let a = pseudo([m, k], seed);
            let b = pseudo([k, n], seed + 1);
            let c = pseudo([k, n], seed + 2);
            let lhs = matmul(&a, &(&b + &c)).unwrap();
            let rhs = &matmul(&a, &b).unwrap() + &matmul(&a, &c).unwrap();
            assert_close(&lhs, &rhs, 1e-4);
        }
    }
}
