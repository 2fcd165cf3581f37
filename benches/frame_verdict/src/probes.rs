//! Layer probes of the traced run. Each probe times a layer's public
//! entry points from outside, on pool frames and on the geometry of the
//! loaded detector, and reports the median over its samples.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use metrics::SsimConfig;
use ndtensor::{im2col_into, matmul_into, Conv2dSpec, Tensor};
use neural::{LayerKind, Network};
use novelty::{
    detector_from_spec, DetectorSpec, FrameGate, NoveltyDetector, ReconstructionObjective,
    ScoreOutcome, StreamConfig, StreamRuntime, StreamServer, TenantSpec, Verdict,
};
use obs::RunRecorder;
use saliency::visual_backprop;
use vision::Image;

use crate::sys::median;
use crate::workloads::{pool_index, Workload, TENANTS};

/// Named metric values, in report order.
pub type Metrics = Vec<(String, f64, &'static str)>;

fn us(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Loads the fixture `reps` times through `NoveltyDetector::load`'s own
/// three steps, timing each; returns the last detector.
pub fn persist(fixture: &Path, reps: usize, out: &mut Metrics) -> Result<NoveltyDetector, String> {
    let (mut read, mut parse, mut build) = (Vec::new(), Vec::new(), Vec::new());
    let mut detector = None;
    for _ in 0..reps {
        let t = Instant::now();
        let json = std::fs::read_to_string(fixture).map_err(err)?;
        read.push(us(t) / 1e3);
        let t = Instant::now();
        let spec: DetectorSpec = serde_json::from_str(&json).map_err(err)?;
        parse.push(us(t) / 1e3);
        drop(json);
        let t = Instant::now();
        detector = Some(detector_from_spec(spec).map_err(err)?);
        build.push(us(t) / 1e3);
    }
    let file_mb = std::fs::metadata(fixture).map_err(err)?.len() as f64 / 1e6;
    out.push(("persist.read_ms".into(), median(&read), "ms"));
    out.push(("persist.parse_ms".into(), median(&parse), "ms"));
    out.push(("persist.build_ms".into(), median(&build), "ms"));
    out.push(("persist.file_mb".into(), file_mb, "MB"));
    detector.ok_or_else(|| "persist probe needs at least one repetition".to_string())
}

/// A run of consecutive layers timed as one unit: a conv or dense layer
/// and the activations that follow it, or the CNN's dense head.
struct Block {
    name: String,
    layers: std::ops::Range<usize>,
}

/// Splits `net` into blocks, each opened by a layer `opens` accepts; a
/// `Flatten` opens the head block of a CNN.
fn blocks(net: &Network, prefix: &str, opens: impl Fn(&LayerKind) -> bool) -> Vec<Block> {
    let mut out: Vec<Block> = Vec::new();
    for (i, layer) in net.layers().iter().enumerate() {
        let kind = layer.kind();
        let head = matches!(kind, LayerKind::Flatten);
        if opens(&kind) || head || out.is_empty() {
            let name = if head {
                format!("{prefix}.head")
            } else {
                let n = out.len() + 1;
                let tag = if prefix == "cnn" { "conv" } else { "dense" };
                format!("{prefix}.{tag}{n}")
            };
            out.push(Block {
                name,
                layers: i..i + 1,
            });
        } else if let Some(last) = out.last_mut() {
            last.layers.end = i + 1;
        }
    }
    out
}

/// One conv layer's lowering: the im2col and GEMM a scored frame runs,
/// at the geometry read from the layer's kind and its input activation,
/// with the buffers they write.
struct Lowering {
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    spec: Conv2dSpec,
    f: usize,
    kdim: usize,
    ncols: usize,
    weight: Tensor,
    cols: Vec<f32>,
    product: Vec<f32>,
}

impl Lowering {
    fn of(net: &Network, layer: usize, input: &Tensor) -> Result<Lowering, String> {
        let l = &net.layers()[layer];
        let LayerKind::Conv2d {
            in_channels,
            out_channels,
            kernel: (kh, kw),
            spec,
        } = l.kind()
        else {
            return Err("a conv block must open with a conv layer".into());
        };
        let dims = input.shape().dims();
        let (h, w) = (dims[2], dims[3]);
        let (oh, ow) = spec.output_hw(h, w, kh, kw).map_err(err)?;
        let (kdim, ncols) = (in_channels * kh * kw, oh * ow);
        Ok(Lowering {
            c: in_channels,
            h,
            w,
            kh,
            kw,
            spec,
            f: out_channels,
            kdim,
            ncols,
            weight: l.params()[0].reshape([out_channels, kdim]).map_err(err)?,
            cols: vec![0.0; kdim * ncols],
            product: vec![0.0; out_channels * ncols],
        })
    }
}

fn ssim_config(detector: &NoveltyDetector) -> Result<SsimConfig, String> {
    match detector.classifier().map(|c| c.objective()) {
        Some(ReconstructionObjective::Ssim { window }) => Ok(SsimConfig::with_window(*window)),
        _ => Err("the fixture must be a VBP+SSIM detector".into()),
    }
}

/// The per-frame stage chain of `StreamRuntime::process`, plus the CNN
/// and autoencoder layer by layer and the conv lowerings; `shapes` gets a
/// line per im2col and GEMM shape a scored frame runs.
pub fn layers(
    detector: &NoveltyDetector,
    pool: &[Image],
    iters: usize,
    out: &mut Metrics,
    shapes: &mut Vec<String>,
) -> Result<(), String> {
    let cnn = detector
        .steering_network()
        .ok_or("the fixture carries no steering CNN")?;
    let classifier = detector
        .classifier()
        .ok_or("the fixture has no autoencoder")?;
    let ae = classifier.network();
    let (h, w) = detector.input_size();
    let cfg = ssim_config(detector)?;
    let stream = StreamConfig::for_detector(detector);
    let verdicts: Vec<Verdict> = pool
        .iter()
        .map(|f| detector.classify(f).map_err(err))
        .collect::<Result<_, _>>()?;
    let masks: Vec<Image> = pool
        .iter()
        .map(|f| visual_backprop(cnn, f).map_err(err))
        .collect::<Result<_, _>>()?;

    // Stage chain, in process() order, frame after frame.
    let mut gate = FrameGate::new(stream.gate.clone()).map_err(err)?;
    let mut runtime = StreamRuntime::new(detector, stream).map_err(err)?;
    let (mut gate_us, mut vbp_us, mut ae_us, mut ssim_us, mut resolve_us) =
        (vec![], vec![], vec![], vec![], vec![]);
    for i in 0..iters {
        let frame = &pool[i % pool.len()];
        let t = Instant::now();
        let fault = gate.admit(Some(frame));
        gate_us.push(us(t));
        if fault.is_some() {
            return Err(format!(
                "the gate rejected clean pool frame {}",
                i % pool.len()
            ));
        }
        let t = Instant::now();
        let mask = visual_backprop(cnn, frame).map_err(err)?;
        vbp_us.push(us(t));
        let flat = mask.tensor().reshape([1, h * w]).map_err(err)?;
        let t = Instant::now();
        let recon = ae.forward(&flat).map_err(err)?;
        ae_us.push(us(t));
        let recon = Image::from_tensor(recon.reshape([h, w]).map_err(err)?).map_err(err)?;
        let t = Instant::now();
        let _ = black_box(metrics::ssim(&mask, &recon, &cfg).map_err(err)?);
        ssim_us.push(us(t));
        let admission = runtime.admit(Some(frame));
        let outcome = ScoreOutcome::Scored {
            verdict: verdicts[i % pool.len()].clone(),
            elapsed: None,
        };
        let t = Instant::now();
        let _ = black_box(runtime.resolve(admission, outcome));
        resolve_us.push(us(t));
    }

    // The steering CNN layer by layer, and each conv's lowering at the
    // geometry the layer reads.
    let cnn_blocks = blocks(cnn, "cnn", |k| matches!(k, LayerKind::Conv2d { .. }));
    let convs = cnn_blocks.iter().filter(|b| b.name != "cnn.head").count();
    if convs != 5 {
        return Err(format!("expected a 5-conv steering CNN, found {convs}"));
    }
    let mut block_us = vec![Vec::with_capacity(iters); cnn_blocks.len()];
    let mut im2col_us = vec![Vec::with_capacity(iters); convs];
    let mut gemm_us = vec![Vec::with_capacity(iters); convs];
    let mut lowerings = Vec::with_capacity(convs);
    let mut x = pool[0].tensor().reshape([1, 1, h, w]).map_err(err)?;
    for block in &cnn_blocks[..convs] {
        lowerings.push(Lowering::of(cnn, block.layers.start, &x)?);
        for layer in &cnn.layers()[block.layers.clone()] {
            x = layer.forward(&x).map_err(err)?;
        }
    }
    for i in 0..iters {
        let frame = &pool[i % pool.len()];
        let mut x = frame.tensor().reshape([1, 1, h, w]).map_err(err)?;
        for (b, block) in cnn_blocks.iter().enumerate() {
            if let Some(l) = lowerings.get_mut(b) {
                let t = Instant::now();
                im2col_into(x.as_slice(), l.c, l.h, l.w, l.kh, l.kw, l.spec, &mut l.cols)
                    .map_err(err)?;
                im2col_us[b].push(us(t));
                let cols = Tensor::from_slice([l.kdim, l.ncols], &l.cols).map_err(err)?;
                let t = Instant::now();
                matmul_into(&l.weight, &cols, &mut l.product).map_err(err)?;
                gemm_us[b].push(us(t));
            }
            let t = Instant::now();
            for layer in &cnn.layers()[block.layers.clone()] {
                x = layer.forward(&x).map_err(err)?;
            }
            block_us[b].push(us(t));
        }
    }
    // VBP runs the whole network forward, head included, before its mask
    // walk.
    let mut forward_sum = 0.0;
    for (b, block) in cnn_blocks.iter().enumerate() {
        let forward = median(&block_us[b]);
        forward_sum += forward;
        if b < convs {
            out.push((format!("{}.forward_us", block.name), forward, "us"));
        } else {
            out.push(("cnn.head_us".into(), forward, "us"));
        }
    }
    for (b, (block, s)) in cnn_blocks.iter().zip(&lowerings).enumerate() {
        out.push((
            format!("{}.im2col_us", block.name),
            median(&im2col_us[b]),
            "us",
        ));
        out.push((format!("{}.gemm_us", block.name), median(&gemm_us[b]), "us"));
        out.push((
            format!("{}.macs", block.name),
            (s.f * s.kdim * s.ncols) as f64,
            "count",
        ));
        out.push((
            format!("{}.im2col_bytes", block.name),
            (s.kdim * s.ncols * std::mem::size_of::<f32>()) as f64,
            "bytes",
        ));
        shapes.push(format!(
            "{}: im2col c{} h{} w{} k{}x{} stride{:?} pad{:?} -> [{}, {}]; matmul m{} k{} n{}",
            block.name,
            s.c,
            s.h,
            s.w,
            s.kh,
            s.kw,
            s.spec.stride,
            s.spec.padding,
            s.kdim,
            s.ncols,
            s.f,
            s.kdim,
            s.ncols
        ));
    }
    let vbp_total = median(&vbp_us);
    out.push(("vbp.total_us".into(), vbp_total, "us"));
    out.push(("vbp.mask_walk_us".into(), vbp_total - forward_sum, "us"));

    // The autoencoder layer by layer at batch 1.
    let ae_blocks = blocks(ae, "ae", |k| matches!(k, LayerKind::Dense { .. }));
    if ae_blocks.len() != 4 {
        return Err(format!(
            "expected a 4-dense autoencoder, found {}",
            ae_blocks.len()
        ));
    }
    let mut dense_us = vec![Vec::with_capacity(iters); ae_blocks.len()];
    for i in 0..iters {
        let mut x = masks[i % masks.len()]
            .tensor()
            .reshape([1, h * w])
            .map_err(err)?;
        for (b, block) in ae_blocks.iter().enumerate() {
            let t = Instant::now();
            for layer in &ae.layers()[block.layers.clone()] {
                x = layer.forward(&x).map_err(err)?;
            }
            dense_us[b].push(us(t));
        }
    }
    for (b, block) in ae_blocks.iter().enumerate() {
        out.push((format!("{}.b1_us", block.name), median(&dense_us[b]), "us"));
        let LayerKind::Dense {
            in_features,
            out_features,
        } = ae.layers()[block.layers.start].kind()
        else {
            return Err("an autoencoder block must open with a dense layer".into());
        };
        out.push((
            format!("{}.macs", block.name),
            (in_features * out_features) as f64,
            "count",
        ));
        shapes.push(format!(
            "{}: matmul_a_bt m1 k{in_features} n{out_features} (m16 batched)",
            block.name
        ));
    }
    out.push(("ae.forward_b1_us".into(), median(&ae_us), "us"));
    out.push(("ssim.us".into(), median(&ssim_us), "us"));
    out.push(("gate.admit_us".into(), median(&gate_us), "us"));
    out.push(("runtime.resolve_us".into(), median(&resolve_us), "us"));

    // Batch 16: the autoencoder layer by layer, the whole forward and the
    // classifier's batched scorer, each per row.
    const B: usize = 16;
    let rows: Vec<&Image> = (0..B).map(|i| &masks[i % masks.len()]).collect();
    let mut stacked = Vec::with_capacity(B * h * w);
    for m in &rows {
        stacked.extend_from_slice(m.as_slice());
    }
    let stacked = Tensor::from_vec([B, h * w], stacked).map_err(err)?;
    let batches = (iters / 8).max(2);
    let mut dense16_us = vec![Vec::with_capacity(batches); ae_blocks.len()];
    let (mut fwd16_us, mut many16_us) = (vec![], vec![]);
    for _ in 0..batches {
        let mut x = stacked.clone();
        for (b, block) in ae_blocks.iter().enumerate() {
            let t = Instant::now();
            for layer in &ae.layers()[block.layers.clone()] {
                x = layer.forward(&x).map_err(err)?;
            }
            dense16_us[b].push(us(t) / B as f64);
        }
        let t = Instant::now();
        let _ = black_box(ae.forward_batch(&stacked).map_err(err)?);
        fwd16_us.push(us(t) / B as f64);
        let t = Instant::now();
        let _ = black_box(classifier.score_many(&rows).map_err(err)?);
        many16_us.push(us(t) / B as f64);
    }
    for (b, block) in ae_blocks.iter().enumerate() {
        out.push((
            format!("{}.b16_us", block.name),
            median(&dense16_us[b]),
            "us",
        ));
    }
    out.push(("ae.forward_b16_us".into(), median(&fwd16_us), "us"));
    out.push((
        "classifier.score_many_b16_us".into(),
        median(&many16_us),
        "us",
    ));
    Ok(())
}

/// Per-frame cost of the serving layer around scoring, and of the live
/// recorder, on the workload's own batch shape: the plain system, the
/// system with a `RunRecorder`, and the scorer alone on the same frames.
/// Returns `(step_overhead_us, obs_overhead_us)`.
pub fn serving(
    detector: &NoveltyDetector,
    workload: Workload,
    pool: &[Image],
    rounds: usize,
) -> Result<(f64, f64), String> {
    let config = StreamConfig::for_detector(detector);
    let recorder = RunRecorder::new();
    // Plain system, recorded system, scorer alone.
    let mut samples: [Vec<f64>; 3] = Default::default();
    match workload {
        Workload::StreamB1 => {
            let mut plain = StreamRuntime::new(detector, config.clone()).map_err(err)?;
            let mut recorded = StreamRuntime::new(detector, config).map_err(err)?;
            for r in 0..rounds {
                let frame = &pool[r % pool.len()];
                rotated(
                    r,
                    1.0,
                    &mut samples,
                    [
                        &mut || drop(black_box(plain.process(Some(frame)))),
                        &mut || drop(black_box(recorded.process_recorded(Some(frame), &recorder))),
                        &mut || drop(black_box(detector.classify(frame))),
                    ],
                );
            }
        }
        Workload::ServeRig | Workload::ServeStaggered => {
            let specs = || {
                (0..TENANTS)
                    .map(|t| TenantSpec::new(format!("cam-{t:02}"), config.clone()))
                    .collect::<Vec<_>>()
            };
            let mut plain = StreamServer::new(detector, specs()).map_err(err)?;
            let mut recorded = StreamServer::new(detector, specs()).map_err(err)?;
            let per_round = if workload == Workload::ServeRig {
                TENANTS
            } else {
                1
            };
            let mut cursor = [0usize; TENANTS];
            for r in 0..rounds {
                let mut images = Vec::with_capacity(per_round);
                for k in 0..per_round {
                    let tenant = (r * per_round + k) % TENANTS;
                    let frame = &pool[pool_index(tenant, cursor[tenant], pool.len())];
                    cursor[tenant] += 1;
                    plain.offer(tenant, Some(frame.clone())).map_err(err)?;
                    recorded.offer(tenant, Some(frame.clone())).map_err(err)?;
                    images.push(frame.clone());
                }
                rotated(
                    r,
                    per_round as f64,
                    &mut samples,
                    [
                        &mut || drop(black_box(plain.step())),
                        &mut || drop(black_box(recorded.step_recorded(&recorder))),
                        // The server scores a lone frame through classify()
                        // and a batch through classify_each().
                        &mut || match images.as_slice() {
                            [one] => drop(black_box(detector.classify(one))),
                            batch => drop(black_box(detector.classify_each(batch))),
                        },
                    ],
                );
            }
        }
    }
    let [plain, recorded, scorer] = samples.map(|s| median(&s));
    // The staggered workload serves with the recorder attached.
    let served = if workload == Workload::ServeStaggered {
        recorded
    } else {
        plain
    };
    Ok((served - scorer, recorded - plain))
}

/// Times three calls on the same frames, per frame, rotating their order
/// each round so that cache state and clock drift favour none of them.
fn rotated(round: usize, frames: f64, samples: &mut [Vec<f64>; 3], calls: [&mut dyn FnMut(); 3]) {
    for k in 0..3 {
        let i = (round + k) % 3;
        let t = Instant::now();
        calls[i]();
        samples[i].push(us(t) / frames);
    }
}
