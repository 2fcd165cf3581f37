//! 2-D convolution (NCHW): implicit-GEMM forward, im2col backward.
//!
//! The forward pass multiplies the flattened kernel bank by the input's
//! column matrix without ever writing that matrix. The flattened view is
//! the weight tensor's own contiguous storage — `[F, C, KH, KW]`
//! row-major *is* `[F, C·KH·KW]` — so the kernel bank is "packed"
//! exactly once per layer. Each zero-padded input sample is split once
//! into stride-phase planes (see `Phases`); every tap's GEMM row is
//! then a contiguous slice of that buffer over flat output columns, and a
//! two-row register-blocked kernel reads those slices in place. Each
//! output element is one chain — +0.0, then the taps in ascending order
//! skipping exact-zero weights, then the bias — which is exactly what the
//! im2col lowering followed by either accumulating `MatMul` kernel
//! computes, so the forward pass needs no kernel selection.
//!
//! The backward pass still lowers each sample to a column matrix
//! ([`im2col`]) and runs the selected GEMM kernels on it.
//!
//! Both passes parallelise over the batch dimension through [`crate::par`]:
//! each worker owns a disjoint sample range (the inner GEMMs then stay on
//! that worker), and the weight/bias gradient reduction is performed by the
//! caller in sample order, so results are bit-identical for any thread
//! count.
//!
//! Hot-path buffers (phase planes, column matrices, per-sample gradients)
//! come from [`crate::scratch`], and [`conv2d_into`] /
//! [`conv2d_backward_into`] / [`im2col_into`] / [`col2im_into`] let
//! callers recycle output storage, so a warmed pipeline performs no
//! per-frame heap allocation.

use crate::par::{try_for_each_block, try_parallel_map};
use crate::routines::{self, GemmOp};
use crate::{scratch, Result, Tensor, TensorError};

/// Stride and zero-padding configuration for a 2-D convolution.
///
/// # Example
///
/// ```
/// use ndtensor::Conv2dSpec;
///
/// let spec = Conv2dSpec::new((2, 2), (1, 1));
/// // 60×160 input, 5×5 kernel, stride 2, pad 1 → 29×79 output.
/// assert_eq!(spec.output_hw(60, 160, 5, 5).unwrap(), (29, 79));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dSpec {
    /// Vertical and horizontal stride (must both be non-zero).
    pub stride: (usize, usize),
    /// Vertical and horizontal zero padding applied to both sides.
    pub padding: (usize, usize),
}

impl Default for Conv2dSpec {
    fn default() -> Self {
        Conv2dSpec {
            stride: (1, 1),
            padding: (0, 0),
        }
    }
}

impl Conv2dSpec {
    /// Creates a spec from `(stride_h, stride_w)` and `(pad_h, pad_w)`.
    pub fn new(stride: (usize, usize), padding: (usize, usize)) -> Self {
        Conv2dSpec { stride, padding }
    }

    /// Unit-stride, zero-padding spec.
    pub fn unit() -> Self {
        Self::default()
    }

    /// Output height/width for an input of `in_h × in_w` and a kernel of
    /// `kh × kw`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Invalid`] when the stride is zero or the
    /// padded input is smaller than the kernel.
    pub fn output_hw(
        &self,
        in_h: usize,
        in_w: usize,
        kh: usize,
        kw: usize,
    ) -> Result<(usize, usize)> {
        let (sh, sw) = self.stride;
        if sh == 0 || sw == 0 {
            return Err(TensorError::invalid("conv2d", "stride must be non-zero"));
        }
        if kh == 0 || kw == 0 {
            return Err(TensorError::invalid("conv2d", "kernel must be non-empty"));
        }
        let (ph, pw) = self.padding;
        let eff_h = in_h + 2 * ph;
        let eff_w = in_w + 2 * pw;
        if eff_h < kh || eff_w < kw {
            return Err(TensorError::invalid(
                "conv2d",
                format!("padded input {eff_h}x{eff_w} smaller than kernel {kh}x{kw}"),
            ));
        }
        Ok(((eff_h - kh) / sh + 1, (eff_w - kw) / sw + 1))
    }
}

fn im2col_geometry(
    sample_len: usize,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    spec: Conv2dSpec,
) -> Result<(usize, usize)> {
    if sample_len != c * h * w {
        return Err(TensorError::LengthMismatch {
            expected: c * h * w,
            actual: sample_len,
        });
    }
    spec.output_hw(h, w, kh, kw)
}

/// Writes the column matrix for one sample. Assigns every element of
/// `out` (padding taps become zeros), so the buffer needs no pre-zeroing.
/// Geometry must be validated by the caller.
#[allow(clippy::too_many_arguments)]
fn im2col_core(
    sample: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    spec: Conv2dSpec,
    oh: usize,
    ow: usize,
    out: &mut [f32],
) {
    let (sh, sw) = spec.stride;
    let (ph, pw) = spec.padding;
    let cols = oh * ow;
    debug_assert_eq!(out.len(), c * kh * kw * cols);
    for ci in 0..c {
        let plane = &sample[ci * h * w..(ci + 1) * h * w];
        for ky in 0..kh {
            for kx in 0..kw {
                let row = (ci * kh + ky) * kw + kx;
                let orow = &mut out[row * cols..(row + 1) * cols];
                for oy in 0..oh {
                    let iy = (oy * sh + ky) as isize - ph as isize;
                    let seg = &mut orow[oy * ow..(oy + 1) * ow];
                    if iy < 0 || iy >= h as isize {
                        seg.fill(0.0);
                        continue;
                    }
                    let prow = &plane[iy as usize * w..(iy as usize + 1) * w];
                    for (ox, o) in seg.iter_mut().enumerate() {
                        let ix = (ox * sw + kx) as isize - pw as isize;
                        *o = if ix < 0 || ix >= w as isize {
                            0.0
                        } else {
                            prow[ix as usize]
                        };
                    }
                }
            }
        }
    }
}

/// Accumulates a column matrix back into a sample buffer. `out` must be
/// zeroed (or hold a value to accumulate onto); geometry must be
/// validated by the caller.
#[allow(clippy::too_many_arguments)]
fn col2im_core(
    data: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    spec: Conv2dSpec,
    oh: usize,
    ow: usize,
    out: &mut [f32],
) {
    let (sh, sw) = spec.stride;
    let (ph, pw) = spec.padding;
    let ncols = oh * ow;
    debug_assert_eq!(out.len(), c * h * w);
    for ci in 0..c {
        let plane = &mut out[ci * h * w..(ci + 1) * h * w];
        for ky in 0..kh {
            for kx in 0..kw {
                let row = (ci * kh + ky) * kw + kx;
                let crow = &data[row * ncols..(row + 1) * ncols];
                for oy in 0..oh {
                    let iy = (oy * sh + ky) as isize - ph as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for ox in 0..ow {
                        let ix = (ox * sw + kx) as isize - pw as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        plane[iy as usize * w + ix as usize] += crow[oy * ow + ox];
                    }
                }
            }
        }
    }
}

/// Lowers one `C×H×W` sample to a `[C·KH·KW, OH·OW]` column matrix.
///
/// Out-of-bounds taps (from padding) contribute zeros. This is the exact
/// adjoint of [`col2im`].
///
/// # Errors
///
/// Propagates the shape errors of [`Conv2dSpec::output_hw`]; additionally
/// fails when `sample.len() != c*h*w`.
pub fn im2col(
    sample: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    spec: Conv2dSpec,
) -> Result<Tensor> {
    let (oh, ow) = im2col_geometry(sample.len(), c, h, w, kh, kw, spec)?;
    let mut out = Tensor::zeros([c * kh * kw, oh * ow]);
    im2col_core(sample, c, h, w, kh, kw, spec, oh, ow, out.as_mut_slice());
    Ok(out)
}

/// Like [`im2col`], but writes into `out` (length `c·kh·kw·oh·ow`),
/// recycling its storage.
///
/// # Errors
///
/// Like [`im2col`], plus [`TensorError::LengthMismatch`] when `out` has
/// the wrong length.
#[allow(clippy::too_many_arguments)]
pub fn im2col_into(
    sample: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    spec: Conv2dSpec,
    out: &mut [f32],
) -> Result<()> {
    let (oh, ow) = im2col_geometry(sample.len(), c, h, w, kh, kw, spec)?;
    let expected = c * kh * kw * oh * ow;
    if out.len() != expected {
        return Err(TensorError::LengthMismatch {
            expected,
            actual: out.len(),
        });
    }
    im2col_core(sample, c, h, w, kh, kw, spec, oh, ow, out);
    Ok(())
}

fn col2im_geometry(
    cols: &Tensor,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    spec: Conv2dSpec,
) -> Result<(usize, usize)> {
    let (oh, ow) = spec.output_hw(h, w, kh, kw)?;
    let rows = c * kh * kw;
    let ncols = oh * ow;
    if cols.shape().dims() != [rows, ncols] {
        return Err(TensorError::invalid(
            "col2im",
            format!(
                "column matrix shape {} does not match expected [{rows}, {ncols}]",
                cols.shape()
            ),
        ));
    }
    Ok((oh, ow))
}

/// Accumulates a `[C·KH·KW, OH·OW]` column matrix back into a `C×H×W`
/// sample buffer (the adjoint of [`im2col`]).
///
/// # Errors
///
/// Fails when the column matrix does not match the implied geometry.
pub fn col2im(
    cols: &Tensor,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    spec: Conv2dSpec,
) -> Result<Vec<f32>> {
    let (oh, ow) = col2im_geometry(cols, c, h, w, kh, kw, spec)?;
    let mut out = scratch::take(c * h * w);
    out.resize(c * h * w, 0.0);
    col2im_core(cols.as_slice(), c, h, w, kh, kw, spec, oh, ow, &mut out);
    Ok(out)
}

/// Like [`col2im`], but accumulates into `out` (length `c·h·w`), which
/// must be zeroed first unless accumulation onto existing values is
/// intended.
///
/// # Errors
///
/// Like [`col2im`], plus [`TensorError::LengthMismatch`] when `out` has
/// the wrong length.
#[allow(clippy::too_many_arguments)]
pub fn col2im_into(
    cols: &Tensor,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    spec: Conv2dSpec,
    out: &mut [f32],
) -> Result<()> {
    let (oh, ow) = col2im_geometry(cols, c, h, w, kh, kw, spec)?;
    if out.len() != c * h * w {
        return Err(TensorError::LengthMismatch {
            expected: c * h * w,
            actual: out.len(),
        });
    }
    col2im_core(cols.as_slice(), c, h, w, kh, kw, spec, oh, ow, out);
    Ok(())
}

/// Resolved geometry of one convolution: batch, channels, spatial sizes.
struct ConvGeometry {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    f: usize,
    kh: usize,
    kw: usize,
    oh: usize,
    ow: usize,
}

fn conv_geometry(input: &Tensor, weight: &Tensor, spec: Conv2dSpec) -> Result<ConvGeometry> {
    if input.rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: "conv2d",
            expected: 4,
            actual: input.rank(),
        });
    }
    if weight.rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: "conv2d",
            expected: 4,
            actual: weight.rank(),
        });
    }
    let [n, c, h, w] = [
        input.shape().dims()[0],
        input.shape().dims()[1],
        input.shape().dims()[2],
        input.shape().dims()[3],
    ];
    let [f, wc, kh, kw] = [
        weight.shape().dims()[0],
        weight.shape().dims()[1],
        weight.shape().dims()[2],
        weight.shape().dims()[3],
    ];
    if wc != c {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d",
            lhs: input.shape().clone(),
            rhs: weight.shape().clone(),
        });
    }
    let (oh, ow) = spec.output_hw(h, w, kh, kw)?;
    Ok(ConvGeometry {
        n,
        c,
        h,
        w,
        f,
        kh,
        kw,
        oh,
        ow,
    })
}

fn check_bias(bias: Option<&Tensor>, f: usize, weight: &Tensor) -> Result<()> {
    if let Some(b) = bias {
        if b.shape().dims() != [f] {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d",
                lhs: b.shape().clone(),
                rhs: weight.shape().clone(),
            });
        }
    }
    Ok(())
}

/// Output columns one register block of the implicit GEMM computes.
/// Measured over the steering CNN's five conv layers on an AVX-512 host
/// (which the compiler drives at 256-bit width): 64 beat 32 by ~1.2× on
/// the wide early layers and tied on the rest.
const BLOCK: usize = 64;

/// Width of the blocks that finish the last `< BLOCK` columns: the
/// narrow late layers (76 flat columns) compute 80 columns, where a
/// 32-wide tail computes 96 (the two measured as a tie) and a 64-wide
/// one 128.
const TAIL: usize = BLOCK / 4;

/// Stride-phase layout of one zero-padded sample: `[C, SH, SW, PH, PW]`
/// planes with `PH = ⌈Hp/SH⌉`, `PW = ⌈Wp/SW⌉`, where plane `(ry, rx)`
/// of channel `ci` holds padded pixel `(y·SH + ry, x·SW + rx)` at
/// `(y, x)`.
///
/// Writing kernel tap `(ky, kx)` as `(qy·SH + ry, qx·SW + rx)`, the
/// input that tap reads for output `(oy, ox)` sits at
/// `(oy + qy, ox + qx)` of plane `(ry, rx)`. Over the flat output
/// column `j = oy·PW + ox` the tap's GEMM row is therefore the
/// contiguous slice `phase[off + j..]` with `off = plane_start + qy·PW +
/// qx`. Columns with `ox ≥ OW` are computed and dropped; their reads
/// run at most `⌊(KW−1)/SW⌋` elements past the last plane, which the
/// tail slack covers.
struct Phases {
    /// Elements per plane, `PH·PW`.
    plane: usize,
    /// Plane width `PW`, the row pitch of the flat output columns.
    pw: usize,
    /// Buffer length: every plane plus the tail slack.
    len: usize,
}

impl Phases {
    fn of(g: &ConvGeometry, spec: Conv2dSpec) -> Phases {
        let (sh, sw) = spec.stride;
        let (ph, pw) = spec.padding;
        let rows = (g.h + 2 * ph).div_ceil(sh);
        let cols = (g.w + 2 * pw).div_ceil(sw);
        let plane = rows * cols;
        Phases {
            plane,
            pw: cols,
            len: g.c * sh * sw * plane + (g.kw - 1) / sw,
        }
    }

    /// Scatters one `C×H×W` sample into `out` (length [`Phases::len`]).
    /// Every sample of a geometry lands on the same positions, so a
    /// buffer zeroed once keeps +0.0 at every padding position — exactly
    /// the value im2col writes for a padding tap.
    fn split(&self, sample: &[f32], g: &ConvGeometry, spec: Conv2dSpec, out: &mut [f32]) {
        let (sh, sw) = spec.stride;
        let (ph, pw) = spec.padding;
        for ci in 0..g.c {
            for iy in 0..g.h {
                let py = iy + ph;
                let src = &sample[(ci * g.h + iy) * g.w..(ci * g.h + iy + 1) * g.w];
                for rx in 0..sw {
                    // First input column landing in phase `rx`, and its
                    // position within the phase row.
                    let ix0 = (rx + sw - pw % sw) % sw;
                    if ix0 >= g.w {
                        continue;
                    }
                    let plane = (ci * sh + py % sh) * sw + rx;
                    let start = plane * self.plane + (py / sh) * self.pw + (ix0 + pw) / sw;
                    let dst = &mut out[start..start + (g.w - ix0).div_ceil(sw)];
                    for (d, &s) in dst.iter_mut().zip(src[ix0..].iter().step_by(sw)) {
                        *d = s;
                    }
                }
            }
        }
    }
}

/// Calls `body(l, off)` for every GEMM row `l = (ci·KH + ky)·KW + kx`
/// in ascending order, with `off` the start of that tap's row in the
/// phase buffer.
#[inline(always)]
fn for_each_tap(
    g: &ConvGeometry,
    spec: Conv2dSpec,
    ph: &Phases,
    mut body: impl FnMut(usize, usize),
) {
    let (sh, sw) = spec.stride;
    let mut l = 0;
    for ci in 0..g.c {
        let (mut ry, mut qy) = (0, 0);
        for _ky in 0..g.kh {
            let row = (ci * sh + ry) * sw * ph.plane + qy * ph.pw;
            // `kx = qx·SW + rx` reads plane `rx` at column offset `qx`.
            let (mut rx, mut qx, mut col) = (0, 0, 0);
            for _kx in 0..g.kw {
                body(l, row + col);
                l += 1;
                rx += 1;
                if rx == sw {
                    rx = 0;
                    qx += 1;
                    col = qx;
                } else {
                    col += ph.plane;
                }
            }
            ry += 1;
            if ry == sh {
                ry = 0;
                qy += 1;
            }
        }
    }
}

/// One `W`-wide register block for filter rows `w0` and `w1` at flat
/// column `j`: two chains per column, each +0.0 then `+= w·b` over
/// ascending `l`. With `DENSE` (neither row holds an exact zero) the
/// zero skips compile away; on such rows both forms perform the same
/// operations, so the choice never changes a bit.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn pair_block<const W: usize, const DENSE: bool>(
    w0: &[f32],
    w1: &[f32],
    g: &ConvGeometry,
    spec: Conv2dSpec,
    ph: &Phases,
    phase: &[f32],
    j: usize,
) -> ([f32; W], [f32; W]) {
    let mut acc0 = [0.0f32; W];
    let mut acc1 = [0.0f32; W];
    for_each_tap(g, spec, ph, |l, off| {
        let b = &phase[off + j..off + j + W];
        let (a0, a1) = (w0[l], w1[l]);
        // sncheck:allow(no-float-eq): exact-zero sparsity skip, the
        // accumulating GEMM family's discipline.
        if DENSE || a0 != 0.0 {
            for t in 0..W {
                acc0[t] += a0 * b[t];
            }
        }
        // sncheck:allow(no-float-eq): exact-zero sparsity skip, the
        // accumulating GEMM family's discipline.
        if DENSE || a1 != 0.0 {
            for t in 0..W {
                acc1[t] += a1 * b[t];
            }
        }
    });
    (acc0, acc1)
}

/// Computes the flat output rows of filters `w0` (into `r0`) and `w1`
/// (into `r1`, when present) across all `ncols` columns: `BLOCK`-wide
/// blocks, then `TAIL`-wide blocks, the last overlapping its
/// predecessor instead of running a scalar tail (recomputed columns get
/// identical chains).
#[allow(clippy::too_many_arguments)]
fn row_pair<const DENSE: bool>(
    w0: &[f32],
    w1: &[f32],
    g: &ConvGeometry,
    spec: Conv2dSpec,
    ph: &Phases,
    phase: &[f32],
    r0: &mut [f32],
    mut r1: Option<&mut [f32]>,
) {
    let ncols = r0.len();
    let mut j = 0;
    while j + BLOCK <= ncols {
        let (a0, a1) = pair_block::<BLOCK, DENSE>(w0, w1, g, spec, ph, phase, j);
        r0[j..j + BLOCK].copy_from_slice(&a0);
        if let Some(r1) = r1.as_deref_mut() {
            r1[j..j + BLOCK].copy_from_slice(&a1);
        }
        j += BLOCK;
    }
    while j < ncols {
        let start = j.min(ncols - TAIL);
        let (a0, a1) = pair_block::<TAIL, DENSE>(w0, w1, g, spec, ph, phase, start);
        r0[start..start + TAIL].copy_from_slice(&a0);
        if let Some(r1) = r1.as_deref_mut() {
            r1[start..start + TAIL].copy_from_slice(&a1);
        }
        j = start + TAIL;
    }
}

/// Implicit GEMM `flat[F, ncols] = W[F, kdim] · B` where row `l` of `B`
/// is `phase[off(l)..][..ncols]` (see [`Phases`]). Every element of
/// `flat` is assigned one chain: +0.0, then `+= w·b` over ascending `l`,
/// skipping exact-zero weights — the chain of either accumulating
/// `MatMul` kernel on a zeroed output, so results match the im2col
/// lowering bit for bit.
///
/// Filters run in pairs of `BLOCK`-wide register rows; the last `<
/// BLOCK` columns run in `TAIL`-wide blocks, the final one overlapping
/// its predecessor instead of a scalar tail (recomputed columns get
/// identical chains). Outputs narrower than `TAIL` take a per-element
/// chain in the same order.
fn implicit_gemm(
    wd: &[f32],
    g: &ConvGeometry,
    spec: Conv2dSpec,
    ph: &Phases,
    phase: &[f32],
    ncols: usize,
    flat: &mut [f32],
) {
    let kdim = g.c * g.kh * g.kw;
    if ncols < TAIL {
        for (fi, orow) in flat.chunks_exact_mut(ncols).enumerate() {
            let wrow = &wd[fi * kdim..(fi + 1) * kdim];
            for (j, o) in orow.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for_each_tap(g, spec, ph, |l, off| {
                    let a = wrow[l];
                    // sncheck:allow(no-float-eq): exact-zero sparsity
                    // skip, the accumulating GEMM family's discipline.
                    if a != 0.0 {
                        acc += a * phase[off + j];
                    }
                });
                *o = acc;
            }
        }
        return;
    }
    // sncheck:allow(no-float-eq): exact-zero test gates the branch-free
    // path, not a tolerance comparison.
    let dense = |w: &[f32]| w.iter().all(|&v| v != 0.0);
    for (pair, rows) in flat.chunks_mut(2 * ncols).enumerate() {
        let f0 = 2 * pair;
        let (r0, r1) = rows.split_at_mut(ncols);
        let r1 = (!r1.is_empty()).then_some(r1);
        let f1 = if r1.is_some() { f0 + 1 } else { f0 };
        let w0 = &wd[f0 * kdim..(f0 + 1) * kdim];
        let w1 = &wd[f1 * kdim..(f1 + 1) * kdim];
        if dense(w0) && dense(w1) {
            row_pair::<true>(w0, w1, g, spec, ph, phase, r0, r1);
        } else {
            row_pair::<false>(w0, w1, g, spec, ph, phase, r0, r1);
        }
    }
}

/// Forward pass over a pre-validated geometry; assigns every element of
/// `out` (length `n·f·oh·ow`).
fn conv2d_impl(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
    g: &ConvGeometry,
    out: &mut [f32],
) -> Result<()> {
    // `[F, C, KH, KW]` row-major storage is already the `[F, C·KH·KW]`
    // GEMM operand: the kernel bank is packed once per layer, for free.
    let wd = weight.as_slice();
    let sample_len = g.c * g.h * g.w;
    let out_len = g.f * g.oh * g.ow;
    let ph = Phases::of(g, spec);
    let ncols = g.oh * ph.pw;
    let work = g.n * out_len * g.c * g.kh * g.kw;
    try_for_each_block(out, out_len, work, |n0, chunk| {
        // One phase and one flat-output buffer per worker chunk, reused
        // across its samples.
        let mut phase = scratch::take_zeroed(ph.len);
        let mut flat = scratch::take_zeroed(g.f * ncols);
        for (local, dst) in chunk.chunks_mut(out_len).enumerate() {
            let ni = n0 + local;
            let sample = &input.as_slice()[ni * sample_len..(ni + 1) * sample_len];
            ph.split(sample, g, spec, &mut phase);
            implicit_gemm(wd, g, spec, &ph, &phase, ncols, &mut flat);
            // Epilogue: keep each output row's `OW` valid columns, then
            // add the bias last, as the im2col lowering did.
            for (fi, (drow, frow)) in dst
                .chunks_exact_mut(g.oh * g.ow)
                .zip(flat.chunks_exact(ncols))
                .enumerate()
            {
                for (d, s) in drow.chunks_exact_mut(g.ow).zip(frow.chunks_exact(ph.pw)) {
                    d.copy_from_slice(&s[..g.ow]);
                    if let Some(b) = bias {
                        let bv = b.as_slice()[fi];
                        for v in d.iter_mut() {
                            *v += bv;
                        }
                    }
                }
            }
        }
        scratch::give(flat);
        scratch::give(phase);
        Ok(())
    })
}

/// 2-D convolution forward pass.
///
/// * `input`: `[N, C, H, W]`
/// * `weight`: `[F, C, KH, KW]`
/// * `bias`: optional `[F]`
///
/// Returns `[N, F, OH, OW]`.
///
/// # Errors
///
/// Fails on rank/shape mismatches or when the padded input is smaller than
/// the kernel.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
) -> Result<Tensor> {
    let g = conv_geometry(input, weight, spec)?;
    check_bias(bias, g.f, weight)?;
    let mut out = Tensor::zeros([g.n, g.f, g.oh, g.ow]);
    conv2d_impl(input, weight, bias, spec, &g, out.as_mut_slice())?;
    Ok(out)
}

/// Like [`conv2d`], but writes into `out` (length `n·f·oh·ow`), recycling
/// its storage.
///
/// # Errors
///
/// Like [`conv2d`], plus [`TensorError::LengthMismatch`] when `out` has
/// the wrong length.
pub fn conv2d_into(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
    out: &mut [f32],
) -> Result<()> {
    let g = conv_geometry(input, weight, spec)?;
    check_bias(bias, g.f, weight)?;
    let expected = g.n * g.f * g.oh * g.ow;
    if out.len() != expected {
        return Err(TensorError::LengthMismatch {
            expected,
            actual: out.len(),
        });
    }
    conv2d_impl(input, weight, bias, spec, &g, out)
}

/// Gradients produced by [`conv2d_backward`].
#[derive(Debug, Clone)]
pub struct Conv2dGrads {
    /// Gradient with respect to the input, `[N, C, H, W]`.
    pub grad_input: Tensor,
    /// Gradient with respect to the weights, `[F, C, KH, KW]`.
    pub grad_weight: Tensor,
    /// Gradient with respect to the bias, `[F]`.
    pub grad_bias: Tensor,
}

/// Backward pass over a pre-validated geometry, accumulating into zeroed
/// gradient slices.
#[allow(clippy::too_many_arguments)]
fn conv2d_backward_impl(
    input: &Tensor,
    weight: &Tensor,
    grad_output: &Tensor,
    spec: Conv2dSpec,
    g: &ConvGeometry,
    grad_input: &mut [f32],
    grad_weight: &mut [f32],
    grad_bias: &mut [f32],
) -> Result<()> {
    let &ConvGeometry {
        n,
        c,
        h,
        w,
        f,
        kh,
        kw,
        oh,
        ow,
    } = g;
    let wd = weight.as_slice();
    let god = grad_output.as_slice();
    let sample_len = c * h * w;
    let out_len = f * oh * ow;
    let kdim = c * kh * kw;
    let ncols = oh * ow;

    // Per-sample contributions are computed in parallel; the dW/dB
    // reduction below then accumulates them in sample order, which is the
    // exact floating-point summation sequence of the serial pass. All
    // per-sample buffers are pooled: the column matrix built here has the
    // exact forward-pass shape, so a training step reuses one buffer for
    // both directions instead of allocating twice.
    let work = 2 * n * out_len * kdim;
    // Both backward GEMM shapes repeat per sample; select each kernel
    // once on the caller thread and hand workers plain kernel fns. The
    // dCols GEMM is `Wᵀ · gOut` with the full Aᵀ column range, so its
    // packed rows are the whole `kdim × f` transpose.
    let (dw_kernel, _) = routines::select(GemmOp::MatMulABt, ncols, kdim);
    let (dcols_kernel, _) = routines::select(GemmOp::MatMulAtB, f, ncols);
    let wt = routines::pack_at(wd, f, kdim, 0, kdim);
    let per_sample = try_parallel_map(n, work, |ni| -> Result<(Vec<f32>, Vec<f32>, Vec<f32>)> {
        let mut cols = scratch::take(kdim * ncols);
        cols.resize(kdim * ncols, 0.0);
        im2col_core(
            &input.as_slice()[ni * sample_len..(ni + 1) * sample_len],
            c,
            h,
            w,
            kh,
            kw,
            spec,
            oh,
            ow,
            &mut cols,
        );
        let gout = &god[ni * out_len..(ni + 1) * out_len];
        // dW contribution: gOut · colsᵀ.
        let mut dw = scratch::take(f * kdim);
        dw.resize(f * kdim, 0.0);
        dw_kernel(gout, f, ncols, &cols, kdim, &mut dw);
        // dCols = Wᵀ · gOut, then scatter back to the input.
        let mut dcols = scratch::take(kdim * ncols);
        dcols.resize(kdim * ncols, 0.0);
        dcols_kernel(&wt, kdim, f, gout, ncols, &mut dcols);
        let mut dsample = scratch::take(sample_len);
        dsample.resize(sample_len, 0.0);
        col2im_core(&dcols, c, h, w, kh, kw, spec, oh, ow, &mut dsample);
        scratch::give(dcols);
        scratch::give(cols);
        // dB contribution: row sums of gOut.
        let mut db = scratch::take(f);
        for fi in 0..f {
            db.push(gout[fi * ncols..(fi + 1) * ncols].iter().sum());
        }
        Ok((dw, dsample, db))
    });
    scratch::give(wt);
    for (ni, (dw, dsample, db)) in per_sample?.into_iter().enumerate() {
        for (gw, &d) in grad_weight.iter_mut().zip(&dw) {
            *gw += d;
        }
        grad_input[ni * sample_len..(ni + 1) * sample_len].copy_from_slice(&dsample);
        for (gb, &d) in grad_bias.iter_mut().zip(&db) {
            *gb += d;
        }
        scratch::give(dw);
        scratch::give(dsample);
        scratch::give(db);
    }
    Ok(())
}

fn check_backward_shapes(grad_output: &Tensor, g: &ConvGeometry) -> Result<()> {
    if grad_output.shape().dims() != [g.n, g.f, g.oh, g.ow] {
        return Err(TensorError::invalid(
            "conv2d_backward",
            format!(
                "grad_output shape {} does not match expected [{}, {}, {}, {}]",
                grad_output.shape(),
                g.n,
                g.f,
                g.oh,
                g.ow
            ),
        ));
    }
    Ok(())
}

/// 2-D convolution backward pass.
///
/// `grad_output` must have the forward output shape `[N, F, OH, OW]`.
///
/// # Errors
///
/// Fails on rank/shape mismatches between the stored forward geometry and
/// `grad_output`.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_output: &Tensor,
    spec: Conv2dSpec,
) -> Result<Conv2dGrads> {
    let g = conv_geometry(input, weight, spec)?;
    check_backward_shapes(grad_output, &g)?;
    let mut grad_input = Tensor::zeros([g.n, g.c, g.h, g.w]);
    let mut grad_weight = Tensor::zeros([g.f, g.c, g.kh, g.kw]);
    let mut grad_bias = Tensor::zeros([g.f]);
    conv2d_backward_impl(
        input,
        weight,
        grad_output,
        spec,
        &g,
        grad_input.as_mut_slice(),
        grad_weight.as_mut_slice(),
        grad_bias.as_mut_slice(),
    )?;
    Ok(Conv2dGrads {
        grad_input,
        grad_weight,
        grad_bias,
    })
}

/// Like [`conv2d_backward`], but overwrites the tensors of an existing
/// [`Conv2dGrads`] (which must already have the right shapes), recycling
/// their storage.
///
/// # Errors
///
/// Like [`conv2d_backward`], plus [`TensorError::Invalid`] when `grads`
/// has mismatched shapes.
pub fn conv2d_backward_into(
    input: &Tensor,
    weight: &Tensor,
    grad_output: &Tensor,
    spec: Conv2dSpec,
    grads: &mut Conv2dGrads,
) -> Result<()> {
    let g = conv_geometry(input, weight, spec)?;
    check_backward_shapes(grad_output, &g)?;
    if grads.grad_input.shape().dims() != [g.n, g.c, g.h, g.w]
        || grads.grad_weight.shape().dims() != [g.f, g.c, g.kh, g.kw]
        || grads.grad_bias.shape().dims() != [g.f]
    {
        return Err(TensorError::invalid(
            "conv2d_backward_into",
            "gradient buffers do not match the convolution geometry",
        ));
    }
    grads.grad_input.as_mut_slice().fill(0.0);
    grads.grad_weight.as_mut_slice().fill(0.0);
    grads.grad_bias.as_mut_slice().fill(0.0);
    conv2d_backward_impl(
        input,
        weight,
        grad_output,
        spec,
        &g,
        grads.grad_input.as_mut_slice(),
        grads.grad_weight.as_mut_slice(),
        grads.grad_bias.as_mut_slice(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Direct (definition-level) convolution used as the test oracle.
    fn naive_conv(
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: Conv2dSpec,
    ) -> Tensor {
        let [n, c, h, w] = [
            input.shape().dims()[0],
            input.shape().dims()[1],
            input.shape().dims()[2],
            input.shape().dims()[3],
        ];
        let [f, _, kh, kw] = [
            weight.shape().dims()[0],
            weight.shape().dims()[1],
            weight.shape().dims()[2],
            weight.shape().dims()[3],
        ];
        let (oh, ow) = spec.output_hw(h, w, kh, kw).unwrap();
        let (sh, sw) = spec.stride;
        let (ph, pw) = spec.padding;
        Tensor::from_fn([n, f, oh, ow], |idx| {
            let (ni, fi, oy, ox) = (idx[0], idx[1], idx[2], idx[3]);
            let mut acc = bias.map(|b| b.at(&[fi]).unwrap()).unwrap_or(0.0);
            for ci in 0..c {
                for ky in 0..kh {
                    for kx in 0..kw {
                        let iy = (oy * sh + ky) as isize - ph as isize;
                        let ix = (ox * sw + kx) as isize - pw as isize;
                        if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                            continue;
                        }
                        acc += input.at(&[ni, ci, iy as usize, ix as usize]).unwrap()
                            * weight.at(&[fi, ci, ky, kx]).unwrap();
                    }
                }
            }
            acc
        })
    }

    fn pseudo(shape: impl Into<crate::Shape>, seed: u64) -> Tensor {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        Tensor::from_fn(shape.into(), |_| {
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
    fn output_geometry() {
        let spec = Conv2dSpec::new((2, 2), (0, 0));
        assert_eq!(spec.output_hw(60, 160, 5, 5).unwrap(), (28, 78));
        assert_eq!(Conv2dSpec::unit().output_hw(5, 5, 3, 3).unwrap(), (3, 3));
        assert!(Conv2dSpec::new((0, 1), (0, 0))
            .output_hw(5, 5, 3, 3)
            .is_err());
        assert!(Conv2dSpec::unit().output_hw(2, 2, 3, 3).is_err());
        // Padding rescues a too-small input.
        assert_eq!(
            Conv2dSpec::new((1, 1), (1, 1))
                .output_hw(2, 2, 3, 3)
                .unwrap(),
            (2, 2)
        );
    }

    #[test]
    fn conv_matches_naive_reference() {
        for &(spec, c, f) in &[
            (Conv2dSpec::unit(), 1usize, 1usize),
            (Conv2dSpec::new((2, 2), (0, 0)), 2, 3),
            (Conv2dSpec::new((1, 2), (1, 1)), 3, 2),
            (Conv2dSpec::new((2, 1), (2, 0)), 1, 4),
        ] {
            let input = pseudo([2, c, 9, 11], 5);
            let weight = pseudo([f, c, 3, 3], 6);
            let bias = pseudo([f], 7);
            let fast = conv2d(&input, &weight, Some(&bias), spec).unwrap();
            let slow = naive_conv(&input, &weight, Some(&bias), spec);
            assert_close(&fast, &slow, 1e-4);
        }
    }

    #[test]
    fn conv_without_bias() {
        let input = pseudo([1, 2, 6, 6], 1);
        let weight = pseudo([3, 2, 3, 3], 2);
        let spec = Conv2dSpec::unit();
        assert_close(
            &conv2d(&input, &weight, None, spec).unwrap(),
            &naive_conv(&input, &weight, None, spec),
            1e-4,
        );
    }

    #[test]
    fn conv_into_is_bit_identical_to_wrapper() {
        let input = pseudo([2, 2, 7, 9], 3);
        let weight = pseudo([4, 2, 3, 3], 4);
        let bias = pseudo([4], 5);
        let spec = Conv2dSpec::new((2, 1), (1, 0));
        let reference = conv2d(&input, &weight, Some(&bias), spec).unwrap();
        let mut out = vec![9.0f32; reference.len()];
        conv2d_into(&input, &weight, Some(&bias), spec, &mut out).unwrap();
        assert_eq!(out.as_slice(), reference.as_slice());
        let mut short = vec![0.0f32; 3];
        assert!(conv2d_into(&input, &weight, Some(&bias), spec, &mut short).is_err());
    }

    #[test]
    fn im2col_and_col2im_into_match_allocating_forms() {
        let (c, h, w, kh, kw) = (2, 6, 7, 3, 2);
        let spec = Conv2dSpec::new((2, 1), (1, 1));
        let x = pseudo([c * h * w], 17).into_vec();
        let cols = im2col(&x, c, h, w, kh, kw, spec).unwrap();
        let mut cols2 = vec![5.0f32; cols.len()];
        im2col_into(&x, c, h, w, kh, kw, spec, &mut cols2).unwrap();
        assert_eq!(cols2.as_slice(), cols.as_slice());

        let back = col2im(&cols, c, h, w, kh, kw, spec).unwrap();
        let mut back2 = vec![0.0f32; c * h * w];
        col2im_into(&cols, c, h, w, kh, kw, spec, &mut back2).unwrap();
        assert_eq!(back2, back);

        let mut short = vec![0.0f32; 3];
        assert!(im2col_into(&x, c, h, w, kh, kw, spec, &mut short).is_err());
        assert!(col2im_into(&cols, c, h, w, kh, kw, spec, &mut short).is_err());
    }

    #[test]
    fn backward_into_is_bit_identical_to_wrapper() {
        let spec = Conv2dSpec::new((2, 2), (1, 1));
        let input = pseudo([2, 2, 5, 6], 51);
        let weight = pseudo([3, 2, 3, 3], 52);
        let out = conv2d(&input, &weight, None, spec).unwrap();
        let gout = pseudo(out.shape().dims().to_vec(), 53);
        let reference = conv2d_backward(&input, &weight, &gout, spec).unwrap();
        let mut grads = Conv2dGrads {
            grad_input: Tensor::full(input.shape().clone(), 3.0),
            grad_weight: Tensor::full(weight.shape().clone(), 3.0),
            grad_bias: Tensor::full([3], 3.0),
        };
        conv2d_backward_into(&input, &weight, &gout, spec, &mut grads).unwrap();
        assert_eq!(grads.grad_input, reference.grad_input);
        assert_eq!(grads.grad_weight, reference.grad_weight);
        assert_eq!(grads.grad_bias, reference.grad_bias);

        grads.grad_bias = Tensor::zeros([7]);
        assert!(conv2d_backward_into(&input, &weight, &gout, spec, &mut grads).is_err());
    }

    #[test]
    fn conv_rejects_bad_shapes() {
        let input = pseudo([1, 2, 6, 6], 1);
        let weight = pseudo([3, 99, 3, 3], 2);
        assert!(conv2d(&input, &weight, None, Conv2dSpec::unit()).is_err());
        let weight_ok = pseudo([3, 2, 3, 3], 2);
        let bad_bias = pseudo([4], 3);
        assert!(conv2d(&input, &weight_ok, Some(&bad_bias), Conv2dSpec::unit()).is_err());
        assert!(conv2d(
            &Tensor::zeros([2, 6, 6]),
            &weight_ok,
            None,
            Conv2dSpec::unit()
        )
        .is_err());
    }

    #[test]
    fn im2col_col2im_are_adjoint() {
        // <im2col(x), y> must equal <x, col2im(y)> — the defining property
        // that makes the backward pass correct.
        let (c, h, w, kh, kw) = (2, 6, 7, 3, 2);
        let spec = Conv2dSpec::new((2, 1), (1, 1));
        let x = pseudo([c * h * w], 31).into_vec();
        let cols_shape_probe = im2col(&x, c, h, w, kh, kw, spec).unwrap();
        let y = pseudo(cols_shape_probe.shape().dims().to_vec(), 32);
        let cx = im2col(&x, c, h, w, kh, kw, spec).unwrap();
        let lhs = cx.dot(&y).unwrap();
        let back = col2im(&y, c, h, w, kh, kw, spec).unwrap();
        let rhs: f32 = x.iter().zip(&back).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn backward_matches_finite_differences() {
        let spec = Conv2dSpec::new((2, 2), (1, 1));
        let input = pseudo([1, 2, 5, 6], 41);
        let weight = pseudo([2, 2, 3, 3], 42);
        let bias = pseudo([2], 43);

        // Loss = sum(conv output); gradient of loss wrt output is all-ones.
        let out = conv2d(&input, &weight, Some(&bias), spec).unwrap();
        let gout = Tensor::ones(out.shape().clone());
        let grads = conv2d_backward(&input, &weight, &gout, spec).unwrap();

        let eps = 1e-2f32;
        let loss =
            |inp: &Tensor, wt: &Tensor, b: &Tensor| conv2d(inp, wt, Some(b), spec).unwrap().sum();

        for probe in [0usize, 7, 23, input.len() - 1] {
            let mut plus = input.clone();
            plus.as_mut_slice()[probe] += eps;
            let mut minus = input.clone();
            minus.as_mut_slice()[probe] -= eps;
            let numeric =
                (loss(&plus, &weight, &bias) - loss(&minus, &weight, &bias)) / (2.0 * eps);
            let analytic = grads.grad_input.as_slice()[probe];
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "input grad at {probe}: {numeric} vs {analytic}"
            );
        }
        for probe in [0usize, 5, weight.len() - 1] {
            let mut plus = weight.clone();
            plus.as_mut_slice()[probe] += eps;
            let mut minus = weight.clone();
            minus.as_mut_slice()[probe] -= eps;
            let numeric = (loss(&input, &plus, &bias) - loss(&input, &minus, &bias)) / (2.0 * eps);
            let analytic = grads.grad_weight.as_slice()[probe];
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "weight grad at {probe}: {numeric} vs {analytic}"
            );
        }
        for probe in 0..2 {
            let mut plus = bias.clone();
            plus.as_mut_slice()[probe] += eps;
            let mut minus = bias.clone();
            minus.as_mut_slice()[probe] -= eps;
            let numeric =
                (loss(&input, &weight, &plus) - loss(&input, &weight, &minus)) / (2.0 * eps);
            let analytic = grads.grad_bias.as_slice()[probe];
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "bias grad at {probe}: {numeric} vs {analytic}"
            );
        }
    }

    #[test]
    fn backward_rejects_wrong_grad_shape() {
        let input = pseudo([1, 1, 5, 5], 1);
        let weight = pseudo([1, 1, 3, 3], 2);
        let bad = Tensor::zeros([1, 1, 9, 9]);
        assert!(conv2d_backward(&input, &weight, &bad, Conv2dSpec::unit()).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn conv_linearity_in_input(
            h in 4usize..8, w in 4usize..8, seed in 0u64..500
        ) {
            let spec = Conv2dSpec::unit();
            let a = pseudo([1, 1, h, w], seed);
            let b = pseudo([1, 1, h, w], seed + 1);
            let k = pseudo([1, 1, 3, 3], seed + 2);
            let lhs = conv2d(&(&a + &b), &k, None, spec).unwrap();
            let rhs = &conv2d(&a, &k, None, spec).unwrap() + &conv2d(&b, &k, None, spec).unwrap();
            assert_close(&lhs, &rhs, 1e-4);
        }

        #[test]
        fn im2col_roundtrip_counts_taps(
            h in 3usize..7, w in 3usize..7
        ) {
            // col2im(im2col(ones)) counts, per input pixel, how many output
            // windows cover it — every entry must be ≥ 1 for unit stride,
            // zero padding, and kernel ≤ input.
            let spec = Conv2dSpec::unit();
            let x = vec![1.0f32; h * w];
            let cols = im2col(&x, 1, h, w, 2, 2, spec).unwrap();
            let back = col2im(&cols, 1, h, w, 2, 2, spec).unwrap();
            for v in back {
                prop_assert!(v >= 1.0);
            }
        }

        #[test]
        fn im2col_col2im_adjoint_under_varying_geometry(
            (c, h, w) in (1usize..3, 4usize..9, 4usize..9),
            (kh, kw, sh, sw) in (1usize..4, 1usize..4, 1usize..3, 1usize..3),
            (ph, pw) in (0usize..2, 0usize..2),
            seed in 0u64..500
        ) {
            // <im2col(x), y> == <x, col2im(y)> for arbitrary strides and
            // padding, not just the fixed geometry of the unit test above.
            prop_assume!(h + 2 * ph >= kh && w + 2 * pw >= kw);
            let spec = Conv2dSpec::new((sh, sw), (ph, pw));
            let x = pseudo([c * h * w], seed).into_vec();
            let cx = im2col(&x, c, h, w, kh, kw, spec).unwrap();
            let y = pseudo(cx.shape().dims().to_vec(), seed + 1);
            let lhs = cx.dot(&y).unwrap();
            let back = col2im(&y, c, h, w, kh, kw, spec).unwrap();
            let rhs: f32 = x.iter().zip(&back).map(|(a, b)| a * b).sum();
            prop_assert!(
                (lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()),
                "adjoint mismatch: {lhs} vs {rhs}"
            );
        }

        #[test]
        fn im2col_roundtrip_tap_counts_under_stride_and_padding(
            (h, w) in (3usize..8, 3usize..8),
            (kh, kw, sh, sw) in (1usize..4, 1usize..4, 1usize..3, 1usize..3),
            (ph, pw) in (0usize..2, 0usize..2)
        ) {
            // On an all-ones input, col2im(im2col(·)) yields per-pixel
            // window-coverage counts: integers bounded by the densest
            // possible overlap ⌈kh/sh⌉·⌈kw/sw⌉.
            prop_assume!(h + 2 * ph >= kh && w + 2 * pw >= kw);
            let spec = Conv2dSpec::new((sh, sw), (ph, pw));
            let x = vec![1.0f32; h * w];
            let cols = im2col(&x, 1, h, w, kh, kw, spec).unwrap();
            let back = col2im(&cols, 1, h, w, kh, kw, spec).unwrap();
            let max_cover = (kh.div_ceil(sh) * kw.div_ceil(sw)) as f32;
            for v in back {
                prop_assert!(v >= 0.0 && v <= max_cover && v.fract() == 0.0,
                    "coverage count {v} outside [0, {max_cover}]");
            }
        }
    }
}
