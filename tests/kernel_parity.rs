//! Bit-parity of the packed, cache-blocked GEMM kernels (and their
//! workspace `_into` variants) against an embedded naive reference, for
//! random shapes and thread counts {1, 2, 4}.
//!
//! The packed kernels in `ndtensor::matmul` tile output columns and pack
//! operand panels for locality, but the contract is strict: every output
//! element is accumulated over `k` ascending, in one chain, exactly like
//! the three-loop schoolbook product. These tests hold the kernels to
//! that contract at the bit level — any reassociation, blocking over
//! `k`, or FMA contraction would fail them.
//!
//! The tests mutate the process-wide thread configuration, so they all
//! serialise on one mutex (same convention as `parallel_parity.rs`).

use std::sync::Mutex;

use ndtensor::routines::{self, GemmOp};
use ndtensor::{
    conv2d, conv2d_into, matmul, matmul_at_b, matmul_at_b_into, matmul_into, set_thread_config,
    Conv2dSpec, Tensor, ThreadConfig,
};
use neural::layer::{Dense, Layer};
use proptest::prelude::*;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn pseudo(shape: impl Into<ndtensor::Shape>, seed: u64) -> Tensor {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    Tensor::from_fn(shape.into(), |_| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
    })
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Schoolbook `A[m,k] · B[k,n]`: one accumulation chain per output
/// element, `k` ascending. This is the reference order every production
/// kernel must reproduce bit-for-bit.
fn naive_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for l in 0..k {
                acc += a[i * k + l] * b[l * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// Schoolbook `Aᵀ[m,k] · B[k,n]` with `A` stored `[k, m]`.
fn naive_matmul_at_b(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for l in 0..k {
                acc += a[l * m + i] * b[l * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// Schoolbook `A[m,k] · Bᵀ[k,n]` with `B` stored `[n, k]`.
fn naive_matmul_a_bt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for l in 0..k {
                acc += a[i * k + l] * b[j * k + l];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// Runs `f` under every thread count and asserts its output bits match
/// `reference` each time. Restores the env config afterwards.
fn assert_parity_across_threads(
    reference: &[f32],
    label: &str,
    mut f: impl FnMut() -> Vec<f32>,
) -> Result<(), TestCaseError> {
    for threads in THREAD_COUNTS {
        set_thread_config(ThreadConfig::new(threads));
        let got = f();
        let ok = bits(&got) == bits(reference);
        set_thread_config(ThreadConfig::from_env());
        prop_assert!(ok, "{label}: mismatch vs naive at threads={threads}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `matmul` and `matmul_into` reproduce the naive chain bit-for-bit
    /// for random shapes spanning the column-tile boundary (n crosses
    /// 256) and the packing threshold (m crosses 4).
    #[test]
    fn matmul_bitwise_matches_naive(
        m in 1usize..10,
        k in 1usize..48,
        n in 1usize..320,
        seed in 0u64..1000,
    ) {
        let _guard = lock();
        let a = pseudo([m, k], seed);
        let b = pseudo([k, n], seed + 7);
        let reference = naive_matmul(a.as_slice(), b.as_slice(), m, k, n);
        assert_parity_across_threads(&reference, "matmul", || {
            matmul(&a, &b).unwrap().as_slice().to_vec()
        })?;
        assert_parity_across_threads(&reference, "matmul_into", || {
            let mut out = vec![0.0f32; m * n];
            matmul_into(&a, &b, &mut out).unwrap();
            out
        })?;
    }

    /// Same contract for the transposed-A kernel, whose production
    /// implementation packs the strided Aᵀ reads into a contiguous
    /// scratch panel first.
    #[test]
    fn matmul_at_b_bitwise_matches_naive(
        m in 1usize..10,
        k in 1usize..48,
        n in 1usize..320,
        seed in 0u64..1000,
    ) {
        let _guard = lock();
        let a = pseudo([k, m], seed);
        let b = pseudo([k, n], seed + 7);
        let reference = naive_matmul_at_b(a.as_slice(), b.as_slice(), m, k, n);
        assert_parity_across_threads(&reference, "matmul_at_b", || {
            matmul_at_b(&a, &b).unwrap().as_slice().to_vec()
        })?;
        assert_parity_across_threads(&reference, "matmul_at_b_into", || {
            let mut out = vec![0.0f32; m * n];
            matmul_at_b_into(&a, &b, &mut out).unwrap();
            out
        })?;
    }

    /// Same contract for the transposed-B kernel (the convolution
    /// backward pass's dW GEMM, which selects its kernel directly and has
    /// no public entry point), run whole-problem into a NaN-filled
    /// buffer so every element must be assigned.
    #[test]
    fn matmul_a_bt_bitwise_matches_naive(
        m in 1usize..10,
        k in 1usize..48,
        n in 1usize..96,
        seed in 0u64..1000,
    ) {
        let a = pseudo([m, k], seed);
        let b = pseudo([n, k], seed + 7);
        let reference = naive_matmul_a_bt(a.as_slice(), b.as_slice(), m, k, n);
        let (kernel, name) = routines::select(GemmOp::MatMulABt, k, n);
        let mut out = vec![f32::NAN; m * n];
        kernel(a.as_slice(), m, k, b.as_slice(), n, &mut out);
        prop_assert!(bits(&out) == bits(&reference), "{name} m{m} k{k} n{n}");
    }

    /// `Dense::forward` and `forward_train`, which multiply by a cached
    /// transposed weight panel through `matmul`, reproduce the schoolbook
    /// `Σ_l x[i][l]·W[j][l]` chain started at +0, plus bias, bit for bit:
    /// at every thread count, on inputs with exact zeros and -0.0 (which
    /// `matmul` skips and the schoolbook chain adds).
    #[test]
    fn dense_forward_bitwise_matches_schoolbook(
        m in 1usize..=17,
        k in 1usize..160,
        n in 1usize..320,
        zero_pick in 0usize..3,
        seed in 0u64..1000,
    ) {
        let _guard = lock();
        let zero_every = [0, 2, 3][zero_pick];
        let mut x = pseudo_sparse(m * k, seed, zero_every);
        // Every other exact zero becomes -0.0.
        for v in x.iter_mut().filter(|v| **v == 0.0).step_by(2) {
            *v = -0.0;
        }
        let w = pseudo_sparse(n * k, seed + 7, 0);
        let b = pseudo_sparse(n, seed + 13, 0);
        let mut reference = naive_matmul_a_bt(&x, &w, m, k, n);
        for (i, v) in reference.iter_mut().enumerate() {
            *v += b[i % n];
        }
        let x = Tensor::from_vec([m, k], x).unwrap();
        let mut layer = Dense::from_parts(
            Tensor::from_vec([n, k], w).unwrap(),
            Tensor::from_vec([n], b).unwrap(),
        )
        .unwrap();
        assert_parity_across_threads(&reference, "Dense::forward", || {
            layer.forward(&x).unwrap().as_slice().to_vec()
        })?;
        assert_parity_across_threads(&reference, "Dense::forward_train", || {
            layer.forward_train(&x).unwrap().as_slice().to_vec()
        })?;
    }

    /// The convolution (implicit GEMM over stride-phase planes) is
    /// bit-stable across thread counts and between the allocating and
    /// workspace entry points.
    #[test]
    fn conv2d_bitwise_stable_across_threads(
        n in 1usize..3,
        c in 1usize..3,
        f in 1usize..4,
        hw in 6usize..14,
        seed in 0u64..1000,
    ) {
        let _guard = lock();
        let spec = Conv2dSpec::new((1, 1), (1, 1));
        let input = pseudo([n, c, hw, hw], seed);
        let weight = pseudo([f, c, 3, 3], seed + 3);
        let bias = pseudo([f], seed + 5);
        set_thread_config(ThreadConfig::serial());
        let reference = conv2d(&input, &weight, Some(&bias), spec).unwrap();
        set_thread_config(ThreadConfig::from_env());
        assert_parity_across_threads(reference.as_slice(), "conv2d", || {
            conv2d(&input, &weight, Some(&bias), spec)
                .unwrap()
                .as_slice()
                .to_vec()
        })?;
        assert_parity_across_threads(reference.as_slice(), "conv2d_into", || {
            let mut out = vec![0.0f32; reference.len()];
            conv2d_into(&input, &weight, Some(&bias), spec, &mut out).unwrap();
            out
        })?;
    }
}

/// Schoolbook convolution in the chain every conv forward must
/// reproduce bit for bit: per output element start at +0, run the taps
/// `(ci, ky, kx)` in ascending order, skip exact-zero weights, read
/// padding as +0.0, then add the bias.
#[allow(clippy::too_many_arguments)]
fn schoolbook_conv(
    x: &[f32],
    wt: &[f32],
    bias: &[f32],
    [n, c, h, w]: [usize; 4],
    [f, kh, kw]: [usize; 3],
    spec: Conv2dSpec,
) -> Vec<f32> {
    let (oh, ow) = spec.output_hw(h, w, kh, kw).unwrap();
    let (sh, sw) = spec.stride;
    let (ph, pw) = spec.padding;
    let mut out = Vec::with_capacity(n * f * oh * ow);
    for ni in 0..n {
        for fi in 0..f {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ci in 0..c {
                        for ky in 0..kh {
                            for kx in 0..kw {
                                let a = wt[((fi * c + ci) * kh + ky) * kw + kx];
                                if a == 0.0 {
                                    continue;
                                }
                                let iy = (oy * sh + ky) as isize - ph as isize;
                                let ix = (ox * sw + kx) as isize - pw as isize;
                                let v = if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize
                                {
                                    0.0
                                } else {
                                    x[((ni * c + ci) * h + iy as usize) * w + ix as usize]
                                };
                                acc += a * v;
                            }
                        }
                    }
                    out.push(acc + bias[fi]);
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `conv2d` and `conv2d_into` reproduce the schoolbook chain bit for
    /// bit at every thread count, over strides, paddings and kernel
    /// sizes that give outputs narrower than one register block, single
    /// output columns, exact-zero weights and ±0.0 inputs.
    #[test]
    fn conv2d_bitwise_matches_schoolbook(
        (n, c, f) in (1usize..=3, 1usize..=4, 1usize..=5),
        (h, w) in (1usize..=20, 1usize..=20),
        (kh, kw) in (1usize..=5, 1usize..=5),
        (sh, sw, ph, pw) in (1usize..=3, 1usize..=3, 0usize..=2, 0usize..=2),
        zero_pick in 0usize..3,
        seed in 0u64..1000,
    ) {
        let _guard = lock();
        // Clamp the kernel to the padded input so every case runs.
        let (kh, kw) = (kh.min(h + 2 * ph), kw.min(w + 2 * pw));
        let spec = Conv2dSpec::new((sh, sw), (ph, pw));
        let mut x = pseudo_sparse(n * c * h * w, seed, 5);
        for v in x.iter_mut().filter(|v| **v == 0.0).step_by(2) {
            *v = -0.0;
        }
        let wt = pseudo_sparse(f * c * kh * kw, seed + 7, [0, 2, 3][zero_pick]);
        let b = pseudo_sparse(f, seed + 13, 0);
        let reference = schoolbook_conv(&x, &wt, &b, [n, c, h, w], [f, kh, kw], spec);
        let input = Tensor::from_vec([n, c, h, w], x).unwrap();
        let weight = Tensor::from_vec([f, c, kh, kw], wt).unwrap();
        let bias = Tensor::from_vec([f], b).unwrap();
        assert_parity_across_threads(&reference, "conv2d", || {
            conv2d(&input, &weight, Some(&bias), spec).unwrap().as_slice().to_vec()
        })?;
        assert_parity_across_threads(&reference, "conv2d_into", || {
            let mut out = vec![f32::NAN; reference.len()];
            conv2d_into(&input, &weight, Some(&bias), spec, &mut out).unwrap();
            out
        })?;
    }
}

/// Pseudo-random fill with every `zero_every`-th element an exact zero
/// (0 disables), to exercise the accumulating families' sparsity-skip
/// discipline and the register kernels' dense-row fast-path gate.
fn pseudo_sparse(len: usize, seed: u64, zero_every: usize) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..len)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if zero_every > 0 && i % zero_every == 0 {
                0.0
            } else {
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
            }
        })
        .collect()
}

/// Naive reference with a seeded accumulator: element `(i, j)` starts at
/// `init[i * n + j]` (the accumulate-into contract) and adds products in
/// ascending `l`. The assigning family ignores `init`.
fn naive_for(
    op: GemmOp,
    a: &[f32],
    b: &[f32],
    init: &[f32],
    m: usize,
    k: usize,
    n: usize,
) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = match op {
                GemmOp::MatMulABt => 0.0,
                _ => init[i * n + j],
            };
            for l in 0..k {
                let av = match op {
                    GemmOp::MatMulAtB => a[l * m + i],
                    _ => a[i * k + l],
                };
                let bv = match op {
                    GemmOp::MatMulABt => b[j * k + l],
                    _ => b[l * n + j],
                };
                // The accumulating families skip exact-zero A elements
                // (0.0 * inf = NaN and -0.0 + 0.0 = +0.0 make the skip
                // observable); the assigning family never skips.
                if av == 0.0 && op != GemmOp::MatMulABt {
                    continue;
                }
                acc += av * bv;
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// Packs A the way the entry points hand it to a [`routines::Kernel`]:
/// row-major `m × k` (a transpose for the `Aᵀ·B` family).
fn packed_a(op: GemmOp, a: &[f32], m: usize, k: usize) -> Vec<f32> {
    match op {
        GemmOp::MatMulAtB => {
            let mut pa = vec![0.0f32; m * k];
            for l in 0..k {
                for i in 0..m {
                    pa[i * k + l] = a[l * m + i];
                }
            }
            pa
        }
        _ => a.to_vec(),
    }
}

/// Every kernel `routines::select` returns reproduces the naive chain
/// bit-for-bit — through the entry points on the whole problem and on
/// every row chunking the thread row-splitter could produce (1, 2 and 4
/// contiguous chunks), on dense and zero-heavy A, and honouring the
/// accumulate-into contract (non-zero initial output for the
/// accumulating families).
///
/// Shapes fall on both sides of the accumulating families' shape match
/// (`n ≥ 64 && k ≤ 128`, both of whose kernels must be hit), on the
/// register block width (64 columns ±1), the axpy column tile, the
/// row-pair boundary and the pack threshold.
#[test]
fn every_selected_kernel_matches_naive_bitwise() {
    let _guard = lock();
    let shapes = [
        (1usize, 1usize, 1usize),
        (2, 3, 17),
        (3, 5, 63),
        (4, 8, 64),
        (5, 16, 65),
        (6, 7, 96),
        (7, 33, 128),
        (8, 64, 130),
        (9, 129, 160),
        (2, 130, 256),
        (5, 6, 300),
        (32, 64, 96),
        (3, 128, 64),
        (4, 129, 64),
    ];
    let mut hit = std::collections::BTreeSet::new();
    for (case, &(m, k, n)) in shapes.iter().enumerate() {
        for op in [GemmOp::MatMul, GemmOp::MatMulAtB, GemmOp::MatMulABt] {
            let (a_len, b_len) = match op {
                GemmOp::MatMul => (m * k, k * n),
                GemmOp::MatMulAtB => (k * m, k * n),
                GemmOp::MatMulABt => (m * k, n * k),
            };
            for zero_every in [0usize, 3] {
                let seed = 100 + case as u64;
                let a = pseudo_sparse(a_len, seed, zero_every);
                let b = pseudo_sparse(b_len, seed + 7, 0);
                let init = pseudo_sparse(m * n, seed + 13, 0);
                let zeroed = vec![0.0f32; m * n];
                let reference = naive_for(op, &a, &b, &zeroed, m, k, n);
                let reference_seeded = naive_for(op, &a, &b, &init, m, k, n);
                let pa = packed_a(op, &a, m, k);
                let (kernel, name) = routines::select(op, k, n);
                hit.insert(name);
                let label = format!("{name} m{m} k{k} n{n} zeros={zero_every}");
                // Whole problem through the public entry point, which
                // zero-fills `out` (the A·Bᵀ family has none: its kernel
                // must assign every NaN away).
                let mut out = vec![f32::NAN; m * n];
                match op {
                    GemmOp::MatMul => {
                        matmul_into(&tensor([m, k], &a), &tensor([k, n], &b), &mut out).unwrap()
                    }
                    GemmOp::MatMulAtB => {
                        matmul_at_b_into(&tensor([k, m], &a), &tensor([k, n], &b), &mut out)
                            .unwrap()
                    }
                    GemmOp::MatMulABt => kernel(&a, m, k, &b, n, &mut out),
                }
                assert_eq!(bits(&out), bits(&reference), "{label} (whole)");
                // Row-chunked invocations: exactly what the threaded
                // entry points do, for 1, 2 and 4 contiguous chunks.
                for chunks in [1usize, 2, 4] {
                    let mut out = match op {
                        GemmOp::MatMulABt => vec![f32::NAN; m * n],
                        _ => init.clone(),
                    };
                    let per = m.div_ceil(chunks);
                    let mut row0 = 0;
                    while row0 < m {
                        let rows = per.min(m - row0);
                        let (a_chunk, out_chunk) = (
                            &pa[row0 * k..(row0 + rows) * k],
                            &mut out[row0 * n..(row0 + rows) * n],
                        );
                        kernel(a_chunk, rows, k, &b, n, out_chunk);
                        row0 += rows;
                    }
                    let want = match op {
                        GemmOp::MatMulABt => &reference,
                        _ => &reference_seeded,
                    };
                    assert_eq!(bits(&out), bits(want), "{label} (chunks={chunks})");
                }
            }
        }
    }
    for name in [
        "mm-rr2-w64",
        "mm-axpy-c256",
        "atb-rr2-w64",
        "atb-axpy-c256",
        "abt-dot8-t64",
    ] {
        assert!(hit.contains(name), "no shape selected {name}: {hit:?}");
    }
}

fn tensor(shape: [usize; 2], data: &[f32]) -> Tensor {
    Tensor::from_vec(shape, data.to_vec()).unwrap()
}

/// Fixed shapes chosen to land exactly on kernel tile edges/// Fixed shapes chosen to land exactly on kernel tile edges: the column
/// tile (256), the `a_bt` row tile (64), the 8-wide accumulator group,
/// and the pack threshold (4 rows).
#[test]
fn tile_edge_shapes_match_naive_bitwise() {
    let _guard = lock();
    set_thread_config(ThreadConfig::serial());
    let cases = [
        (4usize, 16usize, 256usize),
        (3, 16, 257),
        (5, 16, 255),
        (1, 9, 512),
        (8, 1, 64),
        (2, 33, 65),
    ];
    for (idx, &(m, k, n)) in cases.iter().enumerate() {
        let seed = 40 + idx as u64;
        let a = pseudo([m, k], seed);
        let b = pseudo([k, n], seed + 7);
        let bt = pseudo([n, k], seed + 11);
        let at = pseudo([k, m], seed + 13);
        assert_eq!(
            bits(matmul(&a, &b).unwrap().as_slice()),
            bits(&naive_matmul(a.as_slice(), b.as_slice(), m, k, n)),
            "matmul m{m} k{k} n{n}"
        );
        assert_eq!(
            bits(matmul_at_b(&at, &b).unwrap().as_slice()),
            bits(&naive_matmul_at_b(at.as_slice(), b.as_slice(), m, k, n)),
            "matmul_at_b m{m} k{k} n{n}"
        );
        let reference = naive_matmul_a_bt(a.as_slice(), bt.as_slice(), m, k, n);
        let (kernel, name) = routines::select(GemmOp::MatMulABt, k, n);
        let mut out = vec![f32::NAN; m * n];
        kernel(a.as_slice(), m, k, bt.as_slice(), n, &mut out);
        assert_eq!(bits(&out), bits(&reference), "{name} m{m} k{k} n{n}");
    }
    set_thread_config(ThreadConfig::from_env());
}
