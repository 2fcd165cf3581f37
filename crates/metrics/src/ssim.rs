//! Structural Similarity (SSIM) with an analytic gradient.
//!
//! SSIM compares two images through local luminance, contrast and structure
//! statistics over sliding windows (the paper uses 11×11 patches with
//! α = β = γ = 1, reducing to the familiar two-factor form):
//!
//! ```text
//! SSIM_w(x, y) = (2 μx μy + C1)(2 σxy + C2)
//!                ───────────────────────────
//!                (μx² + μy² + C1)(σx² + σy² + C2)
//! ```
//!
//! The image-level score is the mean over all window positions. Because
//! the paper *trains* its autoencoder against SSIM, we also need
//! `∂SSIM/∂y` — derived in closed form below and evaluated in `O(H·W)`
//! using integral images, so SSIM-loss training costs the same order as
//! MSE-loss training.
//!
//! # Gradient derivation
//!
//! With `n` pixels per window, per-window statistics `μx, μy, σx², σy²,
//! σxy` (population normalisation), `A1 = 2μxμy + C1`, `A2 = 2σxy + C2`,
//! `B1 = μx² + μy² + C1`, `B2 = σx² + σy² + C2`, and `S = A1·A2/(B1·B2)`:
//!
//! ```text
//! ∂S/∂y_j = (2 / (n·B1·B2)) ·
//!           [ μx·A2 + (x_j − μx)·A1 − S·(μy·B2 + (y_j − μy)·B1) ]
//! ```
//!
//! Grouping terms that multiply `x_j`, `y_j` and `1` lets the sum over all
//! windows containing a pixel be evaluated with three box filters — the
//! same trick used by Zhao et al., *Loss Functions for Image Restoration
//! with Neural Networks* (2016).

use vision::Image;

use crate::{MetricsError, Result};

/// Configuration for SSIM computation.
///
/// # Example
///
/// ```
/// use metrics::SsimConfig;
///
/// let cfg = SsimConfig::default();
/// assert_eq!(cfg.window, 11);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsimConfig {
    /// Side length of the square sliding window (paper: 11).
    pub window: usize,
    /// Luminance stabiliser; `(0.01)²` for unit-range images.
    pub c1: f32,
    /// Contrast stabiliser; `(0.03)²` for unit-range images.
    pub c2: f32,
}

impl Default for SsimConfig {
    fn default() -> Self {
        SsimConfig {
            window: 11,
            c1: 0.01 * 0.01,
            c2: 0.03 * 0.03,
        }
    }
}

impl SsimConfig {
    /// A config with a custom window size and the standard stabilisers.
    pub fn with_window(window: usize) -> Self {
        SsimConfig {
            window,
            ..Self::default()
        }
    }

    fn validate(&self, h: usize, w: usize) -> Result<()> {
        if self.window == 0 {
            return Err(MetricsError::invalid("ssim", "window must be non-zero"));
        }
        if self.window > h || self.window > w {
            return Err(MetricsError::invalid(
                "ssim",
                format!("window {} larger than image {h}x{w}", self.window),
            ));
        }
        if !self.c1.is_finite() || !self.c2.is_finite() || self.c1 <= 0.0 || self.c2 <= 0.0 {
            return Err(MetricsError::invalid(
                "ssim",
                "stabilisers c1 and c2 must be positive and finite",
            ));
        }
        Ok(())
    }
}

/// Summed-area tables of `C` interleaved channels over an `h × w` grid:
/// `(h+1) × (w+1) × C` f64 entries, channel `c` of corner `(y, x)` at
/// `(y·(w+1) + x)·C + c`. One pass fills every channel, and one window
/// query reads each corner's `C` sums from one cache line.
///
/// The table borrows its storage from the [`ndtensor::scratch`] pool and
/// returns it on drop, so repeated SSIM evaluation (the per-frame scoring
/// hot path) allocates nothing once warmed.
struct Integral<const C: usize> {
    sums: Vec<f64>,
    w1: usize,
}

impl<const C: usize> Drop for Integral<C> {
    fn drop(&mut self) {
        ndtensor::scratch::give_f64(std::mem::take(&mut self.sums));
    }
}

impl<const C: usize> Integral<C> {
    /// Builds the tables from `cell(i)`, the `C` channel values of grid
    /// cell `i = y·w + x`.
    fn build(h: usize, w: usize, cell: impl Fn(usize) -> [f64; C]) -> Self {
        let w1 = w + 1;
        let mut sums = ndtensor::scratch::take_zeroed_f64((h + 1) * w1 * C);
        for y in 0..h {
            let mut row = [0.0f64; C];
            for x in 0..w {
                let v = cell(y * w + x);
                let up = (y * w1 + x + 1) * C;
                let at = up + w1 * C;
                for c in 0..C {
                    row[c] += v[c];
                    sums[at + c] = sums[up + c] + row[c];
                }
            }
        }
        Integral { sums, w1 }
    }

    /// Per-channel sum over the rectangle with top-left `(y, x)` and size
    /// `kh × kw`.
    #[inline]
    fn window(&self, y: usize, x: usize, kh: usize, kw: usize) -> [f64; C] {
        let at = |yy: usize, xx: usize| (yy * self.w1 + xx) * C;
        let (br, tl, tr, bl) = (at(y + kh, x + kw), at(y, x), at(y, x + kw), at(y + kh, x));
        let s = &self.sums;
        std::array::from_fn(|c| s[br + c] + s[tl + c] - s[tr + c] - s[bl + c])
    }
}

fn check_sizes(x: &Image, y: &Image, cfg: &SsimConfig) -> Result<(usize, usize)> {
    if x.height() != y.height() || x.width() != y.width() {
        return Err(MetricsError::invalid(
            "ssim",
            format!(
                "image sizes differ: {}x{} vs {}x{}",
                x.height(),
                x.width(),
                y.height(),
                y.width()
            ),
        ));
    }
    cfg.validate(x.height(), x.width())?;
    Ok((x.height(), x.width()))
}

struct WindowStats {
    mx: f64,
    my: f64,
    vx: f64,
    vy: f64,
    cxy: f64,
}

fn per_window<F: FnMut(usize, usize, WindowStats)>(
    x: &Image,
    y: &Image,
    cfg: &SsimConfig,
    mut visit: F,
) -> Result<()> {
    let (h, w) = check_sizes(x, y, cfg)?;
    let k = cfg.window;
    let n = (k * k) as f64;
    let xs = x.as_slice();
    let ys = y.as_slice();
    // x, y, x², y², xy.
    let sat = Integral::build(h, w, |i| {
        let (a, b) = (xs[i] as f64, ys[i] as f64);
        [a, b, a * a, b * b, a * b]
    });
    for wy in 0..=(h - k) {
        for wx in 0..=(w - k) {
            let [sx, sy, sxx, syy, sxy] = sat.window(wy, wx, k, k);
            let mx = sx / n;
            let my = sy / n;
            // Population variance/covariance; max(0) guards tiny negative
            // values from floating-point cancellation.
            let vx = (sxx / n - mx * mx).max(0.0);
            let vy = (syy / n - my * my).max(0.0);
            let cxy = sxy / n - mx * my;
            visit(
                wy,
                wx,
                WindowStats {
                    mx,
                    my,
                    vx,
                    vy,
                    cxy,
                },
            );
        }
    }
    Ok(())
}

fn window_score(s: &WindowStats, cfg: &SsimConfig) -> (f64, f64, f64, f64, f64) {
    let c1 = cfg.c1 as f64;
    let c2 = cfg.c2 as f64;
    let a1 = 2.0 * s.mx * s.my + c1;
    let a2 = 2.0 * s.cxy + c2;
    let b1 = s.mx * s.mx + s.my * s.my + c1;
    let b2 = s.vx + s.vy + c2;
    (a1 * a2 / (b1 * b2), a1, a2, b1, b2)
}

/// Mean SSIM between two same-size images.
///
/// Returns a value in `[-1, 1]`: 1.0 = identical structure, 0.0 = no
/// correspondence, −1.0 = perfect anti-correlation (paper §III.C).
///
/// # Errors
///
/// Fails when the images differ in size, the window exceeds the image, or
/// the config is invalid.
///
/// # Example
///
/// ```
/// use metrics::{ssim, SsimConfig};
/// use vision::Image;
///
/// # fn main() -> Result<(), metrics::MetricsError> {
/// let img = Image::from_fn(16, 16, |y, x| ((y + x) % 7) as f32 / 6.0).unwrap();
/// let score = ssim(&img, &img, &SsimConfig::default())?;
/// assert!((score - 1.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn ssim(x: &Image, y: &Image, cfg: &SsimConfig) -> Result<f32> {
    let mut total = 0.0f64;
    let mut count = 0usize;
    per_window(x, y, cfg, |_, _, s| {
        total += window_score(&s, cfg).0;
        count += 1;
    })?;
    Ok((total / count as f64) as f32)
}

/// Per-window SSIM map: entry `(wy, wx)` is the SSIM of the window with
/// that top-left corner. The map has size `(H−k+1) × (W−k+1)`.
///
/// # Errors
///
/// Same conditions as [`ssim`].
pub fn ssim_map(x: &Image, y: &Image, cfg: &SsimConfig) -> Result<Image> {
    let (h, w) = check_sizes(x, y, cfg)?;
    let k = cfg.window;
    let mut out = Image::new(h - k + 1, w - k + 1)
        .map_err(|e| MetricsError::invalid("ssim_map", e.to_string()))?;
    per_window(x, y, cfg, |wy, wx, s| {
        out.put(wy, wx, window_score(&s, cfg).0 as f32);
    })?;
    Ok(out)
}

/// Mean SSIM together with its gradient with respect to the second image
/// (`∂ mean-SSIM / ∂y`), as needed to train a reconstruction model that
/// *maximises* SSIM.
///
/// The returned gradient has the same dimensions as the inputs.
///
/// # Errors
///
/// Same conditions as [`ssim`].
pub fn ssim_with_grad(x: &Image, y: &Image, cfg: &SsimConfig) -> Result<(f32, Image)> {
    let (h, w) = check_sizes(x, y, cfg)?;
    let k = cfg.window;
    let n = (k * k) as f64;
    let mh = h - k + 1;
    let mw = w - k + 1;
    let windows = (mh * mw) as f64;

    // Per-window coefficients, interleaved (x, y, c), such that for pixel
    // j inside window w:
    //   ∂S_w/∂y_j = x_j·coef_x[w] + y_j·coef_y[w] + coef_c[w].
    let mut coefs = ndtensor::scratch::take_zeroed_f64(mh * mw * 3);
    let mut total = 0.0f64;
    per_window(x, y, cfg, |wy, wx, s| {
        let (score, a1, a2, b1, b2) = window_score(&s, cfg);
        total += score;
        let scale = 2.0 / (n * b1 * b2);
        // ∂S/∂y_j = scale·[ μx·A2 + (x_j−μx)·A1 − S·(μy·B2 + (y_j−μy)·B1) ]
        //         = x_j·(scale·A1) + y_j·(−scale·S·B1)
        //           + scale·(μx·A2 − μx·A1 − S·μy·B2 + S·μy·B1)
        let idx = (wy * mw + wx) * 3;
        coefs[idx] = scale * a1;
        coefs[idx + 1] = -scale * score * b1;
        coefs[idx + 2] = scale * (s.mx * a2 - s.mx * a1 - score * s.my * b2 + score * s.my * b1);
    })?;

    // Sum each coefficient over all windows covering a pixel with a second
    // round of integral images over the window-index grid.
    let icoef = Integral::build(mh, mw, |i| {
        [coefs[3 * i], coefs[3 * i + 1], coefs[3 * i + 2]]
    });
    ndtensor::scratch::give_f64(coefs);

    let xs = x.as_slice();
    let ys = y.as_slice();
    let mut grad = Image::new(h, w).map_err(|e| MetricsError::invalid("ssim", e.to_string()))?;
    for py in 0..h {
        // Windows covering row py have top row wy in [py−k+1, py] ∩ [0, mh).
        let wy0 = py.saturating_sub(k - 1).min(mh - 1);
        let wy1 = py.min(mh - 1);
        for px in 0..w {
            let wx0 = px.saturating_sub(k - 1).min(mw - 1);
            let wx1 = px.min(mw - 1);
            let (rh, rw) = (wy1 - wy0 + 1, wx1 - wx0 + 1);
            let [sx, sy, sc] = icoef.window(wy0, wx0, rh, rw);
            let j = py * w + px;
            let g = (xs[j] as f64) * sx + (ys[j] as f64) * sy + sc;
            grad.put(py, px, (g / windows) as f32);
        }
    }
    Ok(((total / windows) as f32, grad))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vision::perturb;

    fn textured(h: usize, w: usize, seed: u64) -> Image {
        Image::from_fn(h, w, |y, x| {
            let v = (y as u64 * 31 + x as u64 * 17 + seed * 101) % 97;
            0.2 + 0.6 * (v as f32 / 96.0)
        })
        .unwrap()
    }

    /// Naive direct SSIM used as the oracle.
    fn naive_ssim(x: &Image, y: &Image, cfg: &SsimConfig) -> f32 {
        let k = cfg.window;
        let n = (k * k) as f64;
        let mut total = 0.0f64;
        let mut count = 0usize;
        for wy in 0..=(x.height() - k) {
            for wx in 0..=(x.width() - k) {
                let mut sx = 0.0f64;
                let mut sy = 0.0f64;
                let mut sxx = 0.0f64;
                let mut syy = 0.0f64;
                let mut sxy = 0.0f64;
                for dy in 0..k {
                    for dx in 0..k {
                        let a = x.get(wy + dy, wx + dx) as f64;
                        let b = y.get(wy + dy, wx + dx) as f64;
                        sx += a;
                        sy += b;
                        sxx += a * a;
                        syy += b * b;
                        sxy += a * b;
                    }
                }
                let mx = sx / n;
                let my = sy / n;
                let vx = sxx / n - mx * mx;
                let vy = syy / n - my * my;
                let cxy = sxy / n - mx * my;
                let c1 = cfg.c1 as f64;
                let c2 = cfg.c2 as f64;
                total += (2.0 * mx * my + c1) * (2.0 * cxy + c2)
                    / ((mx * mx + my * my + c1) * (vx + vy + c2));
                count += 1;
            }
        }
        (total / count as f64) as f32
    }

    #[test]
    fn identical_images_score_one() {
        let img = textured(20, 30, 1);
        let s = ssim(&img, &img, &SsimConfig::default()).unwrap();
        assert!((s - 1.0).abs() < 1e-6, "SSIM(x,x) = {s}");
    }

    #[test]
    fn inverted_image_scores_negative() {
        // Zero-mean anticorrelated structure → strongly negative SSIM.
        let x = Image::from_fn(16, 16, |y, x| 0.5 + 0.4 * (((y + x) % 2) as f32 - 0.5)).unwrap();
        let y = x.map(|v| 1.0 - v);
        let s = ssim(&x, &y, &SsimConfig::default()).unwrap();
        assert!(s < -0.5, "anticorrelated SSIM = {s}");
    }

    #[test]
    fn matches_naive_reference() {
        for seed in 0..3 {
            let x = textured(18, 24, seed);
            let y = textured(18, 24, seed + 10);
            for k in [3usize, 7, 11] {
                let cfg = SsimConfig::with_window(k);
                let fast = ssim(&x, &y, &cfg).unwrap();
                let slow = naive_ssim(&x, &y, &cfg);
                assert!(
                    (fast - slow).abs() < 1e-5,
                    "k={k} seed={seed}: {fast} vs {slow}"
                );
            }
        }
    }

    #[test]
    fn score_is_symmetric() {
        let x = textured(16, 20, 4);
        let y = textured(16, 20, 9);
        let cfg = SsimConfig::default();
        let a = ssim(&x, &y, &cfg).unwrap();
        let b = ssim(&y, &x, &cfg).unwrap();
        assert!((a - b).abs() < 1e-6);
    }

    #[test]
    fn validates_inputs() {
        let x = Image::new(8, 8).unwrap();
        let cfg = SsimConfig::default(); // window 11 > 8
        assert!(ssim(&x, &x, &cfg).is_err());
        let y = Image::new(8, 9).unwrap();
        assert!(ssim(&x, &y, &SsimConfig::with_window(3)).is_err());
        assert!(ssim(&x, &x, &SsimConfig::with_window(0)).is_err());
        let mut bad = SsimConfig::with_window(3);
        bad.c1 = 0.0;
        assert!(ssim(&x, &x, &bad).is_err());
    }

    #[test]
    fn map_dimensions_and_values() {
        let x = textured(14, 18, 2);
        let y = perturb::adjust_brightness(&x, 0.05);
        let cfg = SsimConfig::with_window(5);
        let map = ssim_map(&x, &y, &cfg).unwrap();
        assert_eq!((map.height(), map.width()), (10, 14));
        let mean_of_map = map.mean();
        let s = ssim(&x, &y, &cfg).unwrap();
        assert!((mean_of_map - s).abs() < 1e-5);
    }

    #[test]
    fn constant_images_with_equal_mean_score_one() {
        let a = Image::filled(12, 12, 0.3).unwrap();
        let s = ssim(&a, &a.clone(), &SsimConfig::default()).unwrap();
        assert!((s - 1.0).abs() < 1e-6);
    }

    #[test]
    fn figure3_property_noise_hurts_more_than_brightness_at_equal_mse() {
        // The paper's Fig. 3: calibrate Gaussian noise and a brightness
        // shift to (approximately) the same MSE; SSIM must judge the noisy
        // image far less similar than the brightened one. Natural road
        // images are locally smooth, so the base image here is too.
        let base = Image::from_fn(40, 60, |y, x| {
            0.5 + 0.25 * (y as f32 / 6.0).sin() * (x as f32 / 9.0).cos()
        })
        .unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let sigma = 0.12;
        let noisy = perturb::add_gaussian_noise(&base, &mut rng, sigma).unwrap();
        let noise_mse = crate::mse(&base, &noisy).unwrap();
        // Brightness delta with the same MSE: delta = sqrt(mse).
        let bright = perturb::adjust_brightness(&base, noise_mse.sqrt());
        let bright_mse = crate::mse(&base, &bright).unwrap();
        assert!(
            (noise_mse - bright_mse).abs() / noise_mse < 0.2,
            "MSEs not comparable: {noise_mse} vs {bright_mse}"
        );
        let cfg = SsimConfig::default();
        let s_noise = ssim(&base, &noisy, &cfg).unwrap();
        let s_bright = ssim(&base, &bright, &cfg).unwrap();
        assert!(
            s_bright > s_noise + 0.2,
            "SSIM noise {s_noise} vs brightness {s_bright}"
        );
        assert!(
            s_bright > 0.8,
            "brightness SSIM unexpectedly low: {s_bright}"
        );
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let x = textured(12, 14, 3);
        let mut y = textured(12, 14, 8);
        let cfg = SsimConfig::with_window(5);
        let (_, grad) = ssim_with_grad(&x, &y, &cfg).unwrap();
        let eps = 1e-3f32;
        for &(py, px) in &[(0usize, 0usize), (5, 7), (11, 13), (3, 12), (6, 0)] {
            let orig = y.get(py, px);
            y.put(py, px, orig + eps);
            let plus = ssim(&x, &y, &cfg).unwrap();
            y.put(py, px, orig - eps);
            let minus = ssim(&x, &y, &cfg).unwrap();
            y.put(py, px, orig);
            let numeric = (plus - minus) / (2.0 * eps);
            let analytic = grad.get(py, px);
            assert!(
                (numeric - analytic).abs() < 2e-3 + 0.05 * numeric.abs(),
                "grad at ({py},{px}): numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn gradient_at_identity_is_tiny() {
        // SSIM is maximised at y = x, so the gradient there is ~0.
        let x = textured(16, 16, 5);
        let (s, grad) = ssim_with_grad(&x, &x.clone(), &SsimConfig::with_window(7)).unwrap();
        assert!((s - 1.0).abs() < 1e-6);
        for &g in grad.as_slice() {
            assert!(g.abs() < 1e-4, "gradient at optimum: {g}");
        }
    }

    #[test]
    fn gradient_ascent_improves_ssim() {
        // A few gradient steps on y must increase SSIM(x, y).
        let x = textured(16, 16, 6);
        let mut y = Image::filled(16, 16, 0.5).unwrap();
        let cfg = SsimConfig::with_window(5);
        let (mut prev, _) = ssim_with_grad(&x, &y, &cfg).unwrap();
        for _ in 0..20 {
            let (_, grad) = ssim_with_grad(&x, &y, &cfg).unwrap();
            for (p, g) in y.as_mut_slice().iter_mut().zip(grad.as_slice()) {
                *p += 5.0 * g;
            }
        }
        let (after, _) = ssim_with_grad(&x, &y, &cfg).unwrap();
        assert!(
            after > prev + 0.05,
            "gradient ascent did not improve: {prev} → {after}"
        );
        prev = after;
        let _ = prev;
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn score_is_bounded(seed_a in 0u64..50, seed_b in 0u64..50) {
            let x = textured(13, 15, seed_a);
            let y = textured(13, 15, seed_b);
            let s = ssim(&x, &y, &SsimConfig::with_window(5)).unwrap();
            prop_assert!((-1.0 - 1e-5..=1.0 + 1e-5).contains(&s));
        }

        #[test]
        fn more_noise_means_lower_ssim(seed in 0u64..30) {
            let x = textured(20, 20, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let mild = perturb::add_gaussian_noise(&x, &mut rng, 0.03).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let heavy = perturb::add_gaussian_noise(&x, &mut rng, 0.25).unwrap();
            let cfg = SsimConfig::with_window(7);
            let s_mild = ssim(&x, &mild, &cfg).unwrap();
            let s_heavy = ssim(&x, &heavy, &cfg).unwrap();
            prop_assert!(s_mild > s_heavy);
        }
    }
}
