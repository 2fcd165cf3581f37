//! Frame admission control: validate frames *before* they reach scoring.
//!
//! `NoveltyDetector::score` errors on malformed input, but a deployed
//! monitor needs to know *why* a frame is unusable — a NaN-poisoned
//! transfer, a blown-out exposure and a stuck sensor call for the same
//! fallback decision but very different maintenance responses.
//! [`FrameGate`] classifies incoming frames into [`FrameFault`] classes
//! cheaply (one pass over the pixels, no network evaluation) so the
//! streaming runtime can route rejects to its fallback policy and feed
//! its health state machine with structured evidence.

use vision::Image;

use crate::{NoveltyError, Result};

/// Why the gate refused to forward a frame to scoring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FrameFault {
    /// No frame arrived at all (sensor drop upstream of the gate).
    MissingFrame,
    /// The frame's geometry does not match the detector's input size.
    WrongDimensions {
        /// `(height, width)` the detector was trained on.
        expected: (usize, usize),
        /// `(height, width)` actually delivered.
        got: (usize, usize),
    },
    /// The frame contains NaN or infinite pixels.
    NonFinitePixels {
        /// Number of non-finite pixels found.
        count: usize,
    },
    /// Finite pixels fall outside the admissible intensity range.
    OutOfRangePixels {
        /// Smallest pixel observed.
        min: f32,
        /// Largest pixel observed.
        max: f32,
    },
    /// The frame is (nearly) uniformly dark — lens cap, dead sensor.
    AllBlack,
    /// The frame is (nearly) uniformly bright — blinding glare, blown
    /// exposure.
    Saturated,
    /// The frame is bit-identical to a run of preceding frames longer
    /// than the configured tolerance — the feed is frozen.
    StuckFrame {
        /// Length of the identical run, this frame included.
        run: usize,
    },
}

impl FrameFault {
    /// Stable kebab-case class name, used in counters and alarm logs.
    pub fn class(&self) -> &'static str {
        match self {
            FrameFault::MissingFrame => "missing-frame",
            FrameFault::WrongDimensions { .. } => "wrong-dimensions",
            FrameFault::NonFinitePixels { .. } => "non-finite-pixels",
            FrameFault::OutOfRangePixels { .. } => "out-of-range-pixels",
            FrameFault::AllBlack => "all-black",
            FrameFault::Saturated => "saturated",
            FrameFault::StuckFrame { .. } => "stuck-frame",
        }
    }

    /// Every fault class name, in a stable order (for exhaustive
    /// reporting even when a class never fired).
    pub fn all_classes() -> [&'static str; 7] {
        [
            "missing-frame",
            "wrong-dimensions",
            "non-finite-pixels",
            "out-of-range-pixels",
            "all-black",
            "saturated",
            "stuck-frame",
        ]
    }
}

impl std::fmt::Display for FrameFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameFault::MissingFrame => write!(f, "frame missing from the stream"),
            FrameFault::WrongDimensions { expected, got } => write!(
                f,
                "frame is {}x{} but the detector expects {}x{}",
                got.0, got.1, expected.0, expected.1
            ),
            FrameFault::NonFinitePixels { count } => {
                write!(f, "{count} NaN/infinite pixels")
            }
            FrameFault::OutOfRangePixels { min, max } => {
                write!(
                    f,
                    "pixels outside the admissible range (min {min}, max {max})"
                )
            }
            FrameFault::AllBlack => write!(f, "frame is uniformly dark"),
            FrameFault::Saturated => write!(f, "frame is uniformly bright"),
            FrameFault::StuckFrame { run } => {
                write!(f, "frame identical to the previous {} frames", run - 1)
            }
        }
    }
}

/// Validation thresholds for a [`FrameGate`].
#[derive(Debug, Clone, PartialEq)]
pub struct GateConfig {
    /// `(height, width)` every frame must match.
    pub expected: (usize, usize),
    /// Smallest admissible pixel value (default −0.01: nominal range is
    /// `[0, 1]` with a little slack for resampling ringing).
    pub min_pixel: f32,
    /// Largest admissible pixel value (default 1.01).
    pub max_pixel: f32,
    /// Frames with mean intensity at or below this are [`FrameFault::AllBlack`]
    /// (default 0.02).
    pub black_mean: f32,
    /// Frames with mean intensity at or above this are
    /// [`FrameFault::Saturated`] (default 0.98).
    pub saturated_mean: f32,
    /// Longest tolerated run of bit-identical frames; the next identical
    /// frame is rejected as [`FrameFault::StuckFrame`] (default 2 —
    /// temporally coherent streams repeat a frame occasionally, three in
    /// a row means the feed is frozen). Zero disables stuck detection.
    pub stuck_after: usize,
}

impl GateConfig {
    /// Defaults for a detector trained on `height`×`width` frames.
    pub fn new(height: usize, width: usize) -> Self {
        GateConfig {
            expected: (height, width),
            min_pixel: -0.01,
            max_pixel: 1.01,
            black_mean: 0.02,
            saturated_mean: 0.98,
            stuck_after: 2,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.expected.0 == 0 || self.expected.1 == 0 {
            return Err(NoveltyError::invalid(
                "FrameGate",
                "expected dimensions must be non-zero",
            ));
        }
        if self.expected.0.checked_mul(self.expected.1).is_none() {
            return Err(NoveltyError::invalid(
                "FrameGate",
                "expected dimensions overflow the pixel count",
            ));
        }
        // partial_cmp so NaN thresholds are rejected, not admitted.
        if self.min_pixel.partial_cmp(&self.max_pixel) != Some(std::cmp::Ordering::Less) {
            return Err(NoveltyError::invalid(
                "FrameGate",
                format!(
                    "min_pixel must be below max_pixel, got [{}, {}]",
                    self.min_pixel, self.max_pixel
                ),
            ));
        }
        if self.black_mean.partial_cmp(&self.saturated_mean) != Some(std::cmp::Ordering::Less) {
            return Err(NoveltyError::invalid(
                "FrameGate",
                "black_mean must be below saturated_mean",
            ));
        }
        Ok(())
    }
}

/// Stateful frame validator for one stream.
///
/// The only state is the stuck-frame tracker (the previous right-size
/// frame's pixel bits and the run length), so gating is deterministic:
/// the same frame sequence always produces the same sequence of
/// [`FrameFault`]s.
///
/// # Example
///
/// ```
/// use novelty::{FrameGate, GateConfig};
/// use vision::Image;
///
/// # fn main() -> Result<(), novelty::NoveltyError> {
/// let mut gate = FrameGate::new(GateConfig::new(4, 4))?;
/// let frame = Image::filled(4, 4, 0.5)?;
/// assert!(gate.admit(Some(&frame)).is_none());
/// let nan = Image::filled(4, 4, f32::NAN)?;
/// assert_eq!(gate.admit(Some(&nan)).unwrap().class(), "non-finite-pixels");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FrameGate {
    config: GateConfig,
    /// Pixel bits of the previous delivered frame when it had the
    /// expected size; empty when there is none. Sized once at
    /// construction, so admitting never allocates.
    last: Vec<u32>,
    run: usize,
}

impl FrameGate {
    /// A gate enforcing `config`.
    ///
    /// # Errors
    ///
    /// Fails when the configuration is internally inconsistent.
    pub fn new(config: GateConfig) -> Result<Self> {
        config.validate()?;
        let pixels = config.expected.0 * config.expected.1;
        Ok(FrameGate {
            config,
            last: Vec::with_capacity(pixels),
            run: 0,
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &GateConfig {
        &self.config
    }

    /// Classifies one frame; `None` means the frame is admissible.
    ///
    /// Pass `None` for a frame that never arrived — it is classified as
    /// [`FrameFault::MissingFrame`] so missing frames are first-class
    /// events rather than silent gaps.
    ///
    /// Checks run cheapest-first and the first failure wins: dimensions,
    /// finiteness, range, black/saturated, stuck. The stuck tracker
    /// advances on every *delivered* frame (even rejected ones), so a
    /// frozen feed of corrupt frames still reads as frozen once it
    /// recovers pixel validity. "Identical" is exact: every pixel's
    /// `f32` bits match, so a one-ulp change or a different NaN payload
    /// breaks the run.
    #[must_use = "ignoring the gate's classification feeds unvetted frames to the detector"]
    pub fn admit(&mut self, frame: Option<&Image>) -> Option<FrameFault> {
        let Some(frame) = frame else {
            // No bits arrived: the stuck tracker keeps its run (a frozen
            // sensor interleaving drops is still frozen).
            return Some(FrameFault::MissingFrame);
        };
        let got = (frame.height(), frame.width());
        if got != self.config.expected {
            // A right-size frame can never equal this one, so the next
            // one starts a fresh run.
            self.reset();
            return Some(FrameFault::WrongDimensions {
                expected: self.config.expected,
                got,
            });
        }
        let pixels = frame.as_slice();
        let repeat = !self.last.is_empty() && same_bits(&self.last, pixels);
        if repeat {
            self.run += 1;
        } else {
            self.run = 1;
            self.last.clear();
            self.last.extend(pixels.iter().map(|px| px.to_bits()));
        }
        let run = self.run;

        let stats = PixelStats::lanes(pixels);
        if stats.non_finite > 0 {
            return Some(FrameFault::NonFinitePixels {
                count: stats.non_finite,
            });
        }
        if stats.min < self.config.min_pixel || stats.max > self.config.max_pixel {
            // Report the extremes the in-order scan finds (they differ
            // from the lane scan's at most in the sign of a zero).
            let exact = PixelStats::in_order(pixels);
            return Some(FrameFault::OutOfRangePixels {
                min: exact.min,
                max: exact.max,
            });
        }
        let mean = stats.mean(pixels, [self.config.black_mean, self.config.saturated_mean]);
        if mean <= self.config.black_mean {
            return Some(FrameFault::AllBlack);
        }
        if mean >= self.config.saturated_mean {
            return Some(FrameFault::Saturated);
        }
        if self.config.stuck_after > 0 && run > self.config.stuck_after {
            return Some(FrameFault::StuckFrame { run });
        }
        None
    }

    /// Forgets the stuck-frame history (e.g. after a camera restart).
    pub fn reset(&mut self) {
        self.last.clear();
        self.run = 0;
    }
}

/// Non-finite count, extremes and `f64` sum of a frame's pixels; the
/// extremes and sum cover finite pixels only, and only matter when
/// there are no non-finite ones.
struct PixelStats {
    non_finite: usize,
    min: f32,
    max: f32,
    sum: f64,
}

impl PixelStats {
    /// One pass in the pixel order: the definition the gate's
    /// classifications are held to.
    fn in_order(pixels: &[f32]) -> PixelStats {
        let mut stats = PixelStats {
            non_finite: 0,
            min: f32::INFINITY,
            max: f32::NEG_INFINITY,
            sum: 0.0,
        };
        for &px in pixels {
            if !px.is_finite() {
                stats.non_finite += 1;
                continue;
            }
            stats.min = stats.min.min(px);
            stats.max = stats.max.max(px);
            stats.sum += px as f64;
        }
        stats
    }

    /// The same statistics over `LANES` interleaved lanes, which
    /// vectorizes where the in-order pass is one long add chain. The
    /// count is exact; on all-finite frames the extremes equal the
    /// in-order ones up to the sign of a zero, and the sum differs by
    /// rounding only (see [`PixelStats::mean`]).
    fn lanes(pixels: &[f32]) -> PixelStats {
        const LANES: usize = 8;
        let mut bad = [0usize; LANES];
        let mut lo = [f32::INFINITY; LANES];
        let mut hi = [f32::NEG_INFINITY; LANES];
        let mut sum = [0.0f64; LANES];
        let chunks = pixels.chunks_exact(LANES);
        let tail = PixelStats::in_order(chunks.remainder());
        for chunk in chunks {
            for t in 0..LANES {
                let px = chunk[t];
                bad[t] += usize::from(!px.is_finite());
                lo[t] = lo[t].min(px);
                hi[t] = hi[t].max(px);
                sum[t] += px as f64;
            }
        }
        PixelStats {
            non_finite: tail.non_finite + bad.iter().sum::<usize>(),
            min: lo.iter().fold(tail.min, |a, &b| a.min(b)),
            max: hi.iter().fold(tail.max, |a, &b| a.max(b)),
            sum: tail.sum + sum.iter().sum::<f64>(),
        }
    }

    /// The frame mean as the in-order pass computes it, for comparison
    /// against `thresholds`. Both sums carry at most `(n+1)·u·Σ|px|` of
    /// rounding (`u` the f64 unit roundoff), so the lane mean is within
    /// `2(n+2)·u·max|px|` of the in-order one, and an `f32` comparison
    /// can only flip within half an `f32` ulp (or, near zero, one
    /// subnormal step) of a threshold. A lane mean farther than both
    /// from every threshold decides exactly as the in-order one; a
    /// nearer one is recomputed in order.
    fn mean(&self, pixels: &[f32], thresholds: [f32; 2]) -> f32 {
        let n = pixels.len() as f64;
        let mean = self.sum / n;
        let magnitude = f64::from(self.min.abs().max(self.max.abs()));
        let near = thresholds.iter().any(|&t| {
            let t = f64::from(t);
            let slack = t.abs() * f64::from(f32::EPSILON)
                + 4.0 * (n + 1.0) * f64::EPSILON * magnitude
                + f64::from(f32::MIN_POSITIVE);
            (mean - t).abs() <= slack
        });
        if near {
            (PixelStats::in_order(pixels).sum / n) as f32
        } else {
            mean as f32
        }
    }
}

/// Whether `pixels` has exactly the bit patterns in `bits` (equal
/// lengths assumed). Compares 16-pixel chunks with a branch-free XOR
/// fold, which vectorizes.
fn same_bits(bits: &[u32], pixels: &[f32]) -> bool {
    const LANES: usize = 16;
    let diff = |a: &[u32], b: &[f32]| {
        a.iter()
            .zip(b)
            .fold(0u32, |acc, (&x, &y)| acc | (x ^ y.to_bits()))
    };
    let (a, b) = (bits.chunks_exact(LANES), pixels.chunks_exact(LANES));
    diff(a.remainder(), b.remainder()) == 0 && a.zip(b).all(|(x, y)| diff(x, y) == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate() -> FrameGate {
        FrameGate::new(GateConfig::new(6, 8)).unwrap()
    }

    fn textured(seed: f32) -> Image {
        Image::from_fn(6, 8, |y, x| {
            0.2 + 0.5 * ((y * 8 + x) as f32 * 0.07 + seed).sin().abs()
        })
        .unwrap()
    }

    #[test]
    fn config_is_validated() {
        assert!(FrameGate::new(GateConfig::new(0, 8)).is_err());
        let mut bad = GateConfig::new(6, 8);
        bad.min_pixel = 2.0;
        assert!(FrameGate::new(bad).is_err());
        let mut bad = GateConfig::new(6, 8);
        bad.black_mean = 0.99;
        assert!(FrameGate::new(bad).is_err());
    }

    #[test]
    fn clean_frames_are_admitted() {
        let mut g = gate();
        for i in 0..5 {
            assert_eq!(g.admit(Some(&textured(i as f32))), None, "frame {i}");
        }
    }

    #[test]
    fn each_fault_class_is_detected() {
        let mut g = gate();
        assert_eq!(g.admit(None), Some(FrameFault::MissingFrame));

        let wrong = Image::filled(3, 8, 0.5).unwrap();
        assert!(matches!(
            g.admit(Some(&wrong)),
            Some(FrameFault::WrongDimensions {
                expected: (6, 8),
                got: (3, 8)
            })
        ));

        let mut nan = textured(1.0);
        nan.put(2, 2, f32::NAN);
        nan.put(2, 3, f32::INFINITY);
        assert_eq!(
            g.admit(Some(&nan)),
            Some(FrameFault::NonFinitePixels { count: 2 })
        );

        let hot = textured(2.0).map(|v| v * 3.0);
        assert!(matches!(
            g.admit(Some(&hot)),
            Some(FrameFault::OutOfRangePixels { .. })
        ));

        let black = Image::filled(6, 8, 0.001).unwrap();
        assert_eq!(g.admit(Some(&black)), Some(FrameFault::AllBlack));

        let white = Image::filled(6, 8, 0.999).unwrap();
        assert_eq!(g.admit(Some(&white)), Some(FrameFault::Saturated));
    }

    #[test]
    fn stuck_frames_reject_after_tolerated_run() {
        let mut g = gate();
        let frame = textured(3.0);
        assert_eq!(g.admit(Some(&frame)), None); // run 1
        assert_eq!(g.admit(Some(&frame)), None); // run 2: tolerated
        assert_eq!(
            g.admit(Some(&frame)),
            Some(FrameFault::StuckFrame { run: 3 })
        );
        assert_eq!(
            g.admit(Some(&frame)),
            Some(FrameFault::StuckFrame { run: 4 })
        );
        // A fresh frame clears the run.
        assert_eq!(g.admit(Some(&textured(4.0))), None);
        assert_eq!(g.admit(Some(&frame)), None);
    }

    #[test]
    fn drops_do_not_break_a_stuck_run() {
        let mut g = gate();
        let frame = textured(5.0);
        assert_eq!(g.admit(Some(&frame)), None);
        assert_eq!(g.admit(Some(&frame)), None);
        assert_eq!(g.admit(None), Some(FrameFault::MissingFrame));
        assert!(matches!(
            g.admit(Some(&frame)),
            Some(FrameFault::StuckFrame { .. })
        ));
    }

    #[test]
    fn reset_clears_stuck_history() {
        let mut g = gate();
        let frame = textured(6.0);
        assert_eq!(g.admit(Some(&frame)), None);
        assert_eq!(g.admit(Some(&frame)), None);
        g.reset();
        assert_eq!(g.admit(Some(&frame)), None);
    }

    #[test]
    fn stuck_detection_can_be_disabled() {
        let mut config = GateConfig::new(6, 8);
        config.stuck_after = 0;
        let mut g = FrameGate::new(config).unwrap();
        let frame = textured(7.0);
        for _ in 0..10 {
            assert_eq!(g.admit(Some(&frame)), None);
        }
    }

    #[test]
    fn classes_are_stable_and_exhaustive() {
        let faults = [
            FrameFault::MissingFrame,
            FrameFault::WrongDimensions {
                expected: (1, 1),
                got: (2, 2),
            },
            FrameFault::NonFinitePixels { count: 1 },
            FrameFault::OutOfRangePixels {
                min: -2.0,
                max: 3.0,
            },
            FrameFault::AllBlack,
            FrameFault::Saturated,
            FrameFault::StuckFrame { run: 3 },
        ];
        let classes: Vec<_> = faults.iter().map(|f| f.class()).collect();
        assert_eq!(classes, FrameFault::all_classes());
        for fault in &faults {
            assert!(!fault.to_string().is_empty());
        }
    }

    /// The gate as it was before exact stuck tracking and lane
    /// statistics: a `frame_digest` run tracker updated by every
    /// delivered frame, then one in-order pixel pass.
    struct DigestGate {
        config: GateConfig,
        last_digest: Option<u64>,
        run: usize,
    }

    impl DigestGate {
        fn admit(&mut self, frame: Option<&Image>) -> Option<FrameFault> {
            let Some(frame) = frame else {
                return Some(FrameFault::MissingFrame);
            };
            let digest = simdrive::frame_digest(frame);
            let run = if self.last_digest == Some(digest) {
                self.run + 1
            } else {
                1
            };
            self.last_digest = Some(digest);
            self.run = run;
            let got = (frame.height(), frame.width());
            if got != self.config.expected {
                return Some(FrameFault::WrongDimensions {
                    expected: self.config.expected,
                    got,
                });
            }
            let mut non_finite = 0usize;
            let mut min = f32::INFINITY;
            let mut max = f32::NEG_INFINITY;
            let mut sum = 0.0f64;
            for &px in frame.as_slice() {
                if !px.is_finite() {
                    non_finite += 1;
                    continue;
                }
                min = min.min(px);
                max = max.max(px);
                sum += px as f64;
            }
            if non_finite > 0 {
                return Some(FrameFault::NonFinitePixels { count: non_finite });
            }
            if min < self.config.min_pixel || max > self.config.max_pixel {
                return Some(FrameFault::OutOfRangePixels { min, max });
            }
            let mean = (sum / frame.len() as f64) as f32;
            if mean <= self.config.black_mean {
                return Some(FrameFault::AllBlack);
            }
            if mean >= self.config.saturated_mean {
                return Some(FrameFault::Saturated);
            }
            if self.config.stuck_after > 0 && run > self.config.stuck_after {
                return Some(FrameFault::StuckFrame { run });
            }
            None
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The gate agrees with the digest-based, in-order gate it
        /// replaced, fault for fault (`StuckFrame { run }` for run, and
        /// the reported extremes bit for bit), over sequences of
        /// repeats, one-ulp edits, NaN frames with two payloads,
        /// wrong-size frames, drops, fresh frames, frames whose mean
        /// sits on the black or saturated threshold, and out-of-range
        /// frames whose minimum is a signed zero.
        #[test]
        fn gate_matches_digest_gate(
            ops in proptest::collection::vec((0u8..10, 0usize..55), 1..48),
            stuck_after in 0usize..4,
        ) {
            // 55 pixels: three 16-pixel compare chunks plus a remainder,
            // six 8-pixel stat lanes plus a remainder.
            let (h, w) = (5, 11);
            let fresh = |seed: f32| {
                Image::from_fn(h, w, |y, x| {
                    0.2 + 0.5 * ((y * w + x) as f32 * 0.07 + seed).sin().abs()
                })
                .unwrap()
            };
            let config = GateConfig {
                stuck_after,
                ..GateConfig::new(h, w)
            };
            let mut gate = FrameGate::new(config.clone()).unwrap();
            let mut reference = DigestGate {
                config: config.clone(),
                last_digest: None,
                run: 0,
            };
            let mut current = fresh(0.0);
            let wrong = Image::filled(h, w - 1, 0.5).unwrap();
            for (step, &(op, arg)) in ops.iter().enumerate() {
                let frame = match op {
                    // Repeat the current frame.
                    0 | 1 => Some(current.clone()),
                    // One-ulp edit of one pixel.
                    2 => {
                        let (y, x) = (arg / w, arg % w);
                        let v = current.get(y, x);
                        current.put(y, x, f32::from_bits(v.to_bits() + 1));
                        Some(current.clone())
                    }
                    // A NaN pixel, with one of two payloads.
                    3 => {
                        let payload = 0x7fc0_0000 | (arg as u32 & 1);
                        current.put(arg / w, arg % w, f32::from_bits(payload));
                        Some(current.clone())
                    }
                    4 => Some(wrong.clone()),
                    5 => None,
                    // A frame whose mean sits on a threshold: every
                    // pixel within two ulps of it.
                    6 | 7 => {
                        let t = if op == 6 {
                            config.black_mean
                        } else {
                            config.saturated_mean
                        };
                        current = Image::from_fn(h, w, |y, x| {
                            let ulps = ((y * w + x) * 7 + arg) % 5;
                            f32::from_bits(t.to_bits() + ulps as u32 - 2)
                        })
                        .unwrap();
                        Some(current.clone())
                    }
                    // Out of range, with both signed zeros as the minimum.
                    8 => {
                        current = fresh(arg as f32);
                        current.put(0, arg % w, 0.0);
                        current.put(1, (arg + 3) % w, -0.0);
                        current.put(4, 10, 1.5);
                        Some(current.clone())
                    }
                    // A fresh frame.
                    _ => {
                        current = fresh(arg as f32);
                        Some(current.clone())
                    }
                };
                let got = gate.admit(frame.as_ref());
                let want = reference.admit(frame.as_ref());
                // Debug forms tell -0.0 from 0.0.
                proptest::prop_assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "step {} op {}", step, op
                );
            }
        }
    }

    fn rendered_frame(seed: u64) -> Image {
        simdrive::DatasetConfig::outdoor()
            .with_len(1)
            .with_size(24, 64)
            .with_supersample(1)
            .generate(seed)
            .frames()[0]
            .image
            .clone()
    }

    fn scene_gate() -> FrameGate {
        FrameGate::new(GateConfig::new(24, 64)).unwrap()
    }

    #[test]
    fn scene_modifiers_at_full_intensity_pass_the_gate() {
        // The gate exists to catch sensor faults, not weather: even the
        // heaviest fog/night/glare/rain must be admitted while the
        // degenerate frames they superficially resemble are rejected.
        let base = rendered_frame(31);
        for spec in [
            "fog@1.0",
            "night@1.0",
            "glare@1.0",
            "rain@1.0",
            "tunnel@1.0",
        ] {
            let stack = simdrive::ModifierStack::parse(spec).unwrap();
            let mut g = scene_gate();
            for frame_index in 0..3u64 {
                let modified = stack.apply(9, frame_index, &base);
                assert_eq!(
                    g.admit(Some(&modified)),
                    None,
                    "{spec} frame {frame_index} must be admitted"
                );
            }
        }
    }

    #[test]
    fn fog_is_distinguished_from_all_black() {
        // Full fog pulls every pixel toward a mid luminance; the
        // all-black detector keys on the frame *mean*, which fog raises.
        let foggy =
            simdrive::ModifierStack::parse("fog@1.0")
                .unwrap()
                .apply(9, 0, &rendered_frame(32));
        assert_eq!(scene_gate().admit(Some(&foggy)), None);
        let dead_sensor = Image::filled(24, 64, 0.001).unwrap();
        assert_eq!(
            scene_gate().admit(Some(&dead_sensor)),
            Some(FrameFault::AllBlack)
        );
    }

    #[test]
    fn glare_is_distinguished_from_saturated_fault() {
        // Glare is a localized bloom: the frame mean stays far below the
        // saturated threshold even at intensity 1.
        let glared =
            simdrive::ModifierStack::parse("glare@1.0")
                .unwrap()
                .apply(9, 0, &rendered_frame(33));
        assert_eq!(scene_gate().admit(Some(&glared)), None);
        let stuck_high = Image::filled(24, 64, 0.999).unwrap();
        assert_eq!(
            scene_gate().admit(Some(&stuck_high)),
            Some(FrameFault::Saturated)
        );
    }

    #[test]
    fn faults_on_modified_frames_are_still_caught() {
        // A real sensor fault on top of bad weather must not hide behind
        // the weather: inject the brightness-spike and NaN faults into a
        // fog+night frame and check the gate still fires.
        let stack = simdrive::ModifierStack::parse("fog@0.8+night@0.7").unwrap();
        let weathered = stack.apply(9, 0, &rendered_frame(34));
        assert_eq!(scene_gate().admit(Some(&weathered)), None);

        let spiked = weathered.map(|v| v * 4.0 + 0.5);
        assert!(matches!(
            scene_gate().admit(Some(&spiked)),
            Some(FrameFault::OutOfRangePixels { .. })
        ));

        let mut burst = weathered.clone();
        burst.put(3, 3, f32::NAN);
        assert!(matches!(
            scene_gate().admit(Some(&burst)),
            Some(FrameFault::NonFinitePixels { .. })
        ));
    }
}
