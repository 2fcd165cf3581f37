//! VisualBackProp (Bojarski et al., ICRA 2018).
//!
//! The algorithm, as described in the paper's §III.B:
//!
//! 1. run a forward pass up to the deepest convolutional block, keeping
//!    each block's feature maps (after their ReLU),
//! 2. average each block's feature maps over channels,
//! 3. starting from the deepest averaged map, repeatedly *deconvolve* the
//!    running mask up to the previous block's resolution (transposed
//!    convolution with the block's kernel/stride geometry) and multiply
//!    it pointwise with that block's averaged map,
//! 4. deconvolve once more to input resolution and normalise.
//!
//! The pointwise products make the mask keep only pixels that excite
//! *every* level of the feature hierarchy, which is what lets the paper
//! use it to strip steering-irrelevant detail from images.

use std::cell::RefCell;

use ndtensor::{resize_bilinear, scratch, upsample_sum, Conv2dSpec, Tensor};
use neural::{LayerKind, Network};
use vision::Image;

use crate::{Result, SaliencyError};

/// Reusable per-thread buffers for [`visual_backprop`]: the activation
/// and averaged-map vectors keep their capacity between frames (their
/// tensors draw storage from [`ndtensor::scratch`]), so a warmed stream
/// computes masks without heap allocation.
#[derive(Default)]
struct VbpWorkspace {
    blocks: Vec<ConvBlock>,
    acts: Vec<Tensor>,
    averages: Vec<Tensor>,
}

thread_local! {
    static VBP_WORKSPACE: RefCell<VbpWorkspace> = RefCell::new(VbpWorkspace::default());
}

/// One convolutional block discovered in a network: the conv layer plus
/// the activation (post-ReLU when present) that VBP averages.
pub(crate) struct ConvBlock {
    /// Index into `forward_collect` output of the activation to average.
    pub act_index: usize,
    /// Kernel size of the conv layer.
    pub kernel: (usize, usize),
    /// Stride/padding of the conv layer.
    pub spec: Conv2dSpec,
}

/// Finds the conv blocks of a network in execution order, refilling a
/// reused vector.
fn conv_blocks_into(network: &Network, blocks: &mut Vec<ConvBlock>) {
    let layers = network.layers();
    blocks.clear();
    for (i, layer) in layers.iter().enumerate() {
        if let LayerKind::Conv2d { kernel, spec, .. } = layer.kind() {
            // Use the ReLU right after the conv when present, as VBP
            // averages activated feature maps.
            let act_index = match layers.get(i + 1).map(|l| l.kind()) {
                Some(LayerKind::ReLU) => i + 1,
                _ => i,
            };
            blocks.push(ConvBlock {
                act_index,
                kernel,
                spec,
            });
        }
    }
}

/// Converts a grayscale image to a `[1, 1, H, W]` batch tensor.
pub(crate) fn image_to_batch(image: &Image) -> Result<Tensor> {
    Ok(image
        .tensor()
        .reshape([1, 1, image.height(), image.width()])?)
}

/// Channel-average of a `[1, C, h, w]` activation into an `[h, w]` map.
pub(crate) fn channel_mean(activation: &Tensor) -> Result<Tensor> {
    if activation.rank() != 4 || activation.shape().dims()[0] != 1 {
        return Err(SaliencyError::invalid(
            "channel_mean",
            format!(
                "expected [1, C, h, w] activation, got {}",
                activation.shape()
            ),
        ));
    }
    let [c, h, w] = [
        activation.shape().dims()[1],
        activation.shape().dims()[2],
        activation.shape().dims()[3],
    ];
    let data = activation.as_slice();
    let mut out = scratch::take(h * w);
    out.resize(h * w, 0.0);
    for ci in 0..c {
        let plane = &data[ci * h * w..(ci + 1) * h * w];
        for (acc, &v) in out.iter_mut().zip(plane) {
            *acc += v;
        }
    }
    let inv = 1.0 / c as f32;
    for v in &mut out {
        *v *= inv;
    }
    Ok(Tensor::from_vec([h, w], out)?)
}

/// Deconvolves (upscales) a mask through a conv layer's geometry to the
/// layer's *input* resolution `(target_h, target_w)`.
pub(crate) fn deconv_to(
    mask: &Tensor,
    kernel: (usize, usize),
    spec: Conv2dSpec,
    target_h: usize,
    target_w: usize,
) -> Result<Tensor> {
    let up = upsample_sum(mask, kernel.0, kernel.1, spec.stride.0, spec.stride.1)?;
    // Remove the zero padding the forward conv added, when possible.
    let (ph, pw) = spec.padding;
    let (uh, uw) = (up.shape().dims()[0], up.shape().dims()[1]);
    let cropped = if (ph > 0 || pw > 0) && uh > 2 * ph && uw > 2 * pw {
        let mut data = scratch::take((uh - 2 * ph) * (uw - 2 * pw));
        for y in ph..(uh - ph) {
            for x in pw..(uw - pw) {
                data.push(up.as_slice()[y * uw + x]);
            }
        }
        Tensor::from_vec([uh - 2 * ph, uw - 2 * pw], data)?
    } else {
        up
    };
    // Strided convolutions may not tile the input exactly; settle any
    // remainder with a bilinear resize.
    if cropped.shape().dims() == [target_h, target_w] {
        Ok(cropped)
    } else {
        Ok(resize_bilinear(&cropped, target_h, target_w)?)
    }
}

/// Computes the VisualBackProp saliency mask of `image` under `network`,
/// normalised to `[0, 1]` at input resolution.
///
/// # Errors
///
/// Fails when the network contains no convolutional layers or rejects the
/// image's dimensions.
///
/// # Example
///
/// ```
/// use neural::models::{pilotnet, PilotNetConfig};
/// use saliency::visual_backprop;
/// use vision::Image;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = pilotnet(&PilotNetConfig::compact(), 3)?;
/// let frame = Image::from_fn(60, 160, |y, x| ((y + x) % 9) as f32 / 8.0)?;
/// let mask = visual_backprop(&net, &frame)?;
/// assert_eq!((mask.height(), mask.width()), (60, 160));
/// # Ok(())
/// # }
/// ```
pub fn visual_backprop(network: &Network, image: &Image) -> Result<Image> {
    VBP_WORKSPACE.with(|ws| {
        let mut ws = ws.borrow_mut();
        let VbpWorkspace {
            blocks,
            acts,
            averages,
        } = &mut *ws;
        conv_blocks_into(network, blocks);
        let Some(deepest) = blocks.last() else {
            return Err(SaliencyError::invalid(
                "visual_backprop",
                "network contains no convolutional layers",
            ));
        };
        let input = image_to_batch(image)?;
        // Stop at the deepest averaged activation: the head after it
        // (flatten, dense, tanh) does not feed the mask.
        network.forward_collect_into(&input, deepest.act_index + 1, acts)?;

        // Channel-averaged feature map per block, shallow → deep.
        averages.clear();
        for b in blocks.iter() {
            averages.push(channel_mean(&acts[b.act_index])?);
        }
        acts.clear();

        // The deepest averaged map seeds the mask; popping it (instead of
        // cloning) hands its pooled storage straight to the walk below.
        let mut mask = averages.pop().ok_or_else(|| {
            SaliencyError::invalid("visual_backprop", "network has no conv blocks")
        })?;
        // Walk deep → shallow, upscaling through each conv's geometry and
        // gating with the shallower averaged map.
        for j in (1..blocks.len()).rev() {
            let target = &averages[j - 1];
            let (th, tw) = (target.shape().dims()[0], target.shape().dims()[1]);
            let up = deconv_to(&mask, blocks[j].kernel, blocks[j].spec, th, tw)?;
            mask = &up * target;
        }
        averages.clear();
        // Final deconvolution through the first conv layer to input size.
        let final_mask = deconv_to(
            &mask,
            blocks[0].kernel,
            blocks[0].spec,
            image.height(),
            image.width(),
        )?;
        Ok(Image::from_tensor(final_mask.normalize_minmax())?)
    })
}

/// Computes the VisualBackProp masks of a whole image set in parallel.
///
/// Images are fanned out over the work pool configured in
/// [`ndtensor::par`]; each mask is computed exactly as
/// [`visual_backprop`] would, so the result is bit-identical to mapping
/// the single-image function serially, for any thread count. On failure
/// the error of the lowest-indexed failing image is returned — the same
/// error serial iteration would surface first.
///
/// # Errors
///
/// Same conditions as [`visual_backprop`], per image.
pub fn visual_backprop_batch(network: &Network, images: &[Image]) -> Result<Vec<Image>> {
    visual_backprop_batch_recorded(network, images, obs::noop())
}

/// [`visual_backprop_batch`] with observability: the whole batch runs
/// under a `vbp` span, `vbp.masks_computed` counts the masks produced,
/// `vbp.batch_size` collects batch-size samples, and the work pool's
/// activity during the batch lands under `vbp.par.*`.
///
/// Recording never changes what is computed — the returned masks are
/// bit-identical with any recorder, at any thread count.
///
/// # Errors
///
/// Same conditions as [`visual_backprop`], per image.
pub fn visual_backprop_batch_recorded(
    network: &Network,
    images: &[Image],
    recorder: &dyn obs::Recorder,
) -> Result<Vec<Image>> {
    let work = images
        .len()
        .saturating_mul(images.first().map_or(0, |img| img.height() * img.width()))
        .saturating_mul(64);
    let pool_before = recorder.enabled().then(obs::par_snapshot);
    let scratch_before = recorder.enabled().then(obs::scratch_snapshot);
    let masks = obs::time(recorder, "vbp", || {
        ndtensor::par::try_parallel_map(images.len(), work, |i| {
            visual_backprop(network, &images[i])
        })
    })?;
    recorder.add("vbp.masks_computed", masks.len() as u64);
    recorder.observe("vbp.batch_size", images.len() as f64);
    if let Some(before) = pool_before {
        obs::record_par_delta(&obs::Scoped::new(recorder, "vbp"), before);
    }
    if let Some(before) = scratch_before {
        obs::record_scratch_delta(&obs::Scoped::new(recorder, "vbp"), before);
    }
    Ok(masks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndtensor::Conv2dSpec;
    use neural::layer::{Conv2d, Dense, Flatten, ReLU, Tanh};
    use neural::models::{pilotnet, PilotNetConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_image() -> Image {
        // A bright diagonal band on a dark background.
        Image::from_fn(20, 30, |y, x| {
            if (x as i64 - y as i64).unsigned_abs() < 3 {
                0.9
            } else {
                0.05
            }
        })
        .unwrap()
    }

    #[test]
    fn identity_conv_network_yields_normalized_activation() {
        // conv(1→1, 1×1, weight 1, bias 0) + ReLU: VBP mask must equal the
        // min-max-normalised ReLU output = normalised image.
        let conv = Conv2d::from_parts(
            Tensor::ones([1, 1, 1, 1]),
            Tensor::zeros([1]),
            Conv2dSpec::unit(),
        )
        .unwrap();
        let net = Network::new().with(conv).with(ReLU::new());
        let img = test_image();
        let mask = visual_backprop(&net, &img).unwrap();
        let expect = img.normalize_minmax();
        for (m, e) in mask.as_slice().iter().zip(expect.as_slice()) {
            assert!((m - e).abs() < 1e-5);
        }
    }

    #[test]
    fn mask_is_input_sized_and_unit_range() {
        let net = pilotnet(&PilotNetConfig::compact(), 11).unwrap();
        let img = Image::from_fn(60, 160, |y, x| ((y * 3 + x) % 11) as f32 / 10.0).unwrap();
        let mask = visual_backprop(&net, &img).unwrap();
        assert_eq!((mask.height(), mask.width()), (60, 160));
        assert!(mask.tensor().min_value() >= 0.0);
        assert!(mask.tensor().max_value() <= 1.0);
        assert!(!mask.tensor().has_non_finite());
    }

    #[test]
    fn salient_structure_attracts_mask_mass() {
        // With positive random conv weights, activations track local
        // brightness, so the bright band must receive more saliency than
        // the dark background.
        let mut rng = StdRng::seed_from_u64(3);
        let mut conv1 =
            Conv2d::new(1, 4, (3, 3), Conv2dSpec::new((2, 2), (0, 0)), &mut rng).unwrap();
        let mut conv2 = Conv2d::new(4, 6, (3, 3), Conv2dSpec::unit(), &mut rng).unwrap();
        // Make all weights positive so brightness → activation.
        let abs_weights = |layer: &mut Conv2d| {
            let mut pgs = neural::Layer::params_and_grads(layer);
            pgs[0].param.map_inplace(f32::abs);
        };
        abs_weights(&mut conv1);
        abs_weights(&mut conv2);
        let net = Network::new()
            .with(conv1)
            .with(ReLU::new())
            .with(conv2)
            .with(ReLU::new());
        let img = test_image();
        let mask = visual_backprop(&net, &img).unwrap();
        let mut on_band = 0.0f32;
        let mut on_band_n = 0;
        let mut off_band = 0.0f32;
        let mut off_band_n = 0;
        for y in 0..img.height() {
            for x in 0..img.width() {
                if img.get(y, x) > 0.5 {
                    on_band += mask.get(y, x);
                    on_band_n += 1;
                } else {
                    off_band += mask.get(y, x);
                    off_band_n += 1;
                }
            }
        }
        let on_mean = on_band / on_band_n as f32;
        let off_mean = off_band / off_band_n as f32;
        assert!(
            on_mean > 2.0 * off_mean,
            "band saliency {on_mean} vs background {off_mean}"
        );
    }

    #[test]
    fn batch_masks_match_serial_masks_bitwise() {
        let net = pilotnet(&PilotNetConfig::compact(), 17).unwrap();
        let images: Vec<Image> = (0..5)
            .map(|s| {
                Image::from_fn(60, 160, |y, x| {
                    ((y * 7 + x * 3 + s * 13) % 17) as f32 / 16.0
                })
                .unwrap()
            })
            .collect();
        let serial: Vec<Image> = images
            .iter()
            .map(|img| visual_backprop(&net, img).unwrap())
            .collect();
        let batch = visual_backprop_batch(&net, &images).unwrap();
        assert_eq!(batch.len(), serial.len());
        for (b, s) in batch.iter().zip(&serial) {
            assert_eq!(b.as_slice(), s.as_slice());
        }
    }

    #[test]
    fn recorded_batch_matches_plain_batch_and_counts_masks() {
        let net = pilotnet(&PilotNetConfig::compact(), 23).unwrap();
        let images: Vec<Image> = (0..3)
            .map(|s| {
                Image::from_fn(60, 160, |y, x| ((y * 5 + x + s * 31) % 13) as f32 / 12.0).unwrap()
            })
            .collect();
        let rec = obs::RunRecorder::new();
        let recorded = visual_backprop_batch_recorded(&net, &images, &rec).unwrap();
        let plain = visual_backprop_batch(&net, &images).unwrap();
        for (a, b) in recorded.iter().zip(&plain) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
        let report = rec.report("vbp");
        assert_eq!(report.counter("vbp.masks_computed"), Some(3));
        assert!(report.stage("vbp").unwrap().total_secs > 0.0);
        assert_eq!(report.histogram("vbp.batch_size").unwrap().count, 1);
        assert!(report.counter("vbp.par.jobs").unwrap_or(0) >= 1);
    }

    #[test]
    fn batch_surfaces_first_failing_image() {
        let net = pilotnet(&PilotNetConfig::compact(), 1).unwrap();
        let good = Image::from_fn(60, 160, |_, _| 0.5).unwrap();
        let bad = Image::from_fn(10, 10, |_, _| 0.5).unwrap();
        assert!(visual_backprop_batch(&net, &[good, bad]).is_err());
    }

    #[test]
    fn rejects_networks_without_convs() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = Network::new()
            .with(Flatten::new())
            .with(Dense::new(12, 1, &mut rng).unwrap())
            .with(Tanh::new());
        let img = Image::from_fn(3, 4, |_, _| 0.5).unwrap();
        assert!(matches!(
            visual_backprop(&net, &img),
            Err(SaliencyError::Invalid { .. })
        ));
    }

    #[test]
    fn rejects_wrong_input_size() {
        let net = pilotnet(&PilotNetConfig::compact(), 1).unwrap();
        let img = Image::from_fn(10, 10, |_, _| 0.5).unwrap();
        assert!(visual_backprop(&net, &img).is_err());
    }

    #[test]
    fn deconv_restores_conv_input_geometry() {
        // 60×160 through 5×5 stride-2 conv → 28×78; deconv_to must map
        // back exactly.
        let spec = Conv2dSpec::new((2, 2), (0, 0));
        let mask = Tensor::ones([28, 78]);
        let up = deconv_to(&mask, (5, 5), spec, 60, 160).unwrap();
        assert_eq!(up.shape().dims(), &[60, 160]);
        // Padded conv: 4×17 through 3×3 pad 1 → crop back to 4×17.
        let spec_p = Conv2dSpec::new((1, 1), (1, 1));
        let up2 = deconv_to(&Tensor::ones([4, 17]), (3, 3), spec_p, 4, 17).unwrap();
        assert_eq!(up2.shape().dims(), &[4, 17]);
    }

    #[test]
    fn channel_mean_averages_planes() {
        let act = Tensor::from_fn([1, 2, 2, 2], |i| if i[1] == 0 { 1.0 } else { 3.0 });
        let m = channel_mean(&act).unwrap();
        assert!(m.as_slice().iter().all(|&v| (v - 2.0).abs() < 1e-6));
        assert!(channel_mean(&Tensor::zeros([2, 2, 2, 2])).is_err());
    }
}
