//! Serial-parity harness for the parallel execution layer.
//!
//! Every parallel kernel in the workspace must produce *bit-identical*
//! output for any thread count: work is partitioned into disjoint output
//! regions and reductions happen in a fixed order, so no floating-point
//! summation is ever reordered. These tests pin that guarantee from the
//! GEMM kernels all the way up to novelty scores, across thread counts
//! {1, 2, 4} and several seeds.
//!
//! The tests mutate the process-wide thread configuration, so they all
//! serialise on one mutex.

use std::sync::Mutex;

use ndtensor::routines::{self, GemmOp};
use ndtensor::{
    conv2d, conv2d_backward, matmul, matmul_at_b, set_thread_config, Conv2dSpec, Tensor,
    ThreadConfig,
};
use neural::models::{pilotnet, PilotNetConfig};
use novelty::NoveltyDetectorBuilder;
use saliency::{visual_backprop, visual_backprop_batch};
use saliency_novelty::prelude::*;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Restores the environment-derived config when dropped, so a failing
/// test does not leak its thread count into later tests.
struct ConfigRestore;

impl Drop for ConfigRestore {
    fn drop(&mut self) {
        set_thread_config(ThreadConfig::from_env());
    }
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];
const SEEDS: [u64; 3] = [11, 12, 13];

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

#[test]
fn matmul_kernels_are_bit_identical_across_thread_counts() {
    let _guard = lock();
    let _restore = ConfigRestore;
    for seed in SEEDS {
        // 128³ = 2²¹ multiply-adds: comfortably past the parallel
        // threshold, so every thread count actually exercises the pool.
        let a = pseudo([128, 96], seed);
        let b = pseudo([96, 144], seed + 100);
        let at = pseudo([96, 128], seed + 200);
        let bt = pseudo([144, 96], seed + 300);

        set_thread_config(ThreadConfig::serial());
        let ref_ab = matmul(&a, &b).unwrap();
        let ref_atb = matmul_at_b(&at, &b).unwrap();

        for threads in THREAD_COUNTS {
            set_thread_config(ThreadConfig::new(threads));
            assert_eq!(
                bits(matmul(&a, &b).unwrap().as_slice()),
                bits(ref_ab.as_slice()),
                "matmul seed={seed} threads={threads}"
            );
            assert_eq!(
                bits(matmul_at_b(&at, &b).unwrap().as_slice()),
                bits(ref_atb.as_slice()),
                "matmul_at_b seed={seed} threads={threads}"
            );
        }

        // The `A·Bᵀ` family has no threaded entry point (the convolution
        // backward pass calls it per sample): split its rows into as
        // many contiguous chunks as the pool would, for every routine.
        let (m, k, n) = (128, 96, 144);
        let mut ref_abt = vec![0.0f32; m * n];
        let default = routines::default_routine(GemmOp::MatMulABt);
        routines::run_serial(default, m, k, n, a.as_slice(), bt.as_slice(), &mut ref_abt);
        for routine in routines::candidates(GemmOp::MatMulABt, m, k, n) {
            for chunks in THREAD_COUNTS {
                let mut out = vec![f32::NAN; m * n];
                let per = m.div_ceil(chunks);
                for (c, block) in out.chunks_mut(per * n).enumerate() {
                    let rows = block.len() / n;
                    let a_rows = &a.as_slice()[c * per * k..(c * per + rows) * k];
                    (routine.kernel)(a_rows, rows, k, bt.as_slice(), n, block);
                }
                assert_eq!(
                    bits(&out),
                    bits(&ref_abt),
                    "{} seed={seed} chunks={chunks}",
                    routine.name
                );
            }
        }
    }
}

#[test]
fn conv2d_forward_and_backward_are_bit_identical_across_thread_counts() {
    let _guard = lock();
    let _restore = ConfigRestore;
    let spec = Conv2dSpec::new((2, 2), (1, 1));
    for seed in SEEDS {
        let input = pseudo([8, 2, 32, 32], seed);
        let weight = pseudo([8, 2, 3, 3], seed + 1);
        let bias = pseudo([8], seed + 2);

        set_thread_config(ThreadConfig::serial());
        let ref_out = conv2d(&input, &weight, Some(&bias), spec).unwrap();
        let gout = pseudo(ref_out.shape().dims().to_vec(), seed + 3);
        let ref_grads = conv2d_backward(&input, &weight, &gout, spec).unwrap();

        for threads in THREAD_COUNTS {
            set_thread_config(ThreadConfig::new(threads));
            let out = conv2d(&input, &weight, Some(&bias), spec).unwrap();
            assert_eq!(
                bits(out.as_slice()),
                bits(ref_out.as_slice()),
                "conv2d seed={seed} threads={threads}"
            );
            let grads = conv2d_backward(&input, &weight, &gout, spec).unwrap();
            for (name, got, want) in [
                ("grad_input", &grads.grad_input, &ref_grads.grad_input),
                ("grad_weight", &grads.grad_weight, &ref_grads.grad_weight),
                ("grad_bias", &grads.grad_bias, &ref_grads.grad_bias),
            ] {
                assert_eq!(
                    bits(got.as_slice()),
                    bits(want.as_slice()),
                    "conv2d_backward {name} seed={seed} threads={threads}"
                );
            }
        }
    }
}

#[test]
fn network_forward_batch_is_bit_identical_across_thread_counts() {
    let _guard = lock();
    let _restore = ConfigRestore;
    for seed in SEEDS {
        let net = pilotnet(&PilotNetConfig::compact(), seed).unwrap();
        let batch = pseudo([6, 1, 60, 160], seed + 500);

        set_thread_config(ThreadConfig::serial());
        let reference = net.forward(&batch).unwrap();

        for threads in THREAD_COUNTS {
            set_thread_config(ThreadConfig::new(threads));
            let out = net.forward_batch(&batch).unwrap();
            assert_eq!(out.shape(), reference.shape());
            assert_eq!(
                bits(out.as_slice()),
                bits(reference.as_slice()),
                "forward_batch seed={seed} threads={threads}"
            );
        }
    }
}

#[test]
fn visual_backprop_batch_is_bit_identical_across_thread_counts() {
    let _guard = lock();
    let _restore = ConfigRestore;
    for seed in SEEDS {
        let net = pilotnet(&PilotNetConfig::compact(), seed).unwrap();
        let images: Vec<Image> = (0..6)
            .map(|s| {
                Image::from_fn(60, 160, |y, x| {
                    ((y * 5 + x * 3 + s * 7 + seed as usize) % 23) as f32 / 22.0
                })
                .unwrap()
            })
            .collect();

        set_thread_config(ThreadConfig::serial());
        let reference: Vec<Image> = images
            .iter()
            .map(|img| visual_backprop(&net, img).unwrap())
            .collect();

        for threads in THREAD_COUNTS {
            set_thread_config(ThreadConfig::new(threads));
            let masks = visual_backprop_batch(&net, &images).unwrap();
            assert_eq!(masks.len(), reference.len());
            for (i, (got, want)) in masks.iter().zip(&reference).enumerate() {
                assert_eq!(
                    bits(got.as_slice()),
                    bits(want.as_slice()),
                    "vbp image={i} seed={seed} threads={threads}"
                );
            }
        }
    }
}

#[test]
fn score_batch_is_bit_identical_across_thread_counts() {
    let _guard = lock();
    let _restore = ConfigRestore;
    // One small detector (training is the expensive part); scoring parity
    // is then checked for several image sets.
    set_thread_config(ThreadConfig::serial());
    let data = DatasetConfig::indoor()
        .with_len(20)
        .with_size(40, 80)
        .with_supersample(1)
        .generate(71);
    let detector = NoveltyDetectorBuilder::paper()
        .cnn_epochs(1)
        .ae_epochs(2)
        .seed(7)
        .train(&data)
        .expect("tiny detector trains");

    for seed in SEEDS {
        let images: Vec<Image> = (0..8)
            .map(|s| {
                Image::from_fn(40, 80, |y, x| {
                    ((y * 11 + x * 5 + s * 3 + seed as usize) % 29) as f32 / 28.0
                })
                .unwrap()
            })
            .collect();

        set_thread_config(ThreadConfig::serial());
        let reference: Vec<f32> = images
            .iter()
            .map(|img| detector.score(img).unwrap())
            .collect();

        for threads in THREAD_COUNTS {
            set_thread_config(ThreadConfig::new(threads));
            let scores = detector.score_batch(&images).unwrap();
            assert_eq!(
                bits(&scores),
                bits(&reference),
                "score_batch seed={seed} threads={threads}"
            );
        }
    }
}

#[test]
fn training_is_bit_identical_across_thread_counts() {
    let _guard = lock();
    let _restore = ConfigRestore;
    // The full training path (CNN fit → VBP representations → autoencoder
    // → calibration) also runs on the pool; a detector trained at 4
    // threads must carry exactly the serial detector's calibration.
    let data = DatasetConfig::indoor()
        .with_len(12)
        .with_size(40, 80)
        .with_supersample(1)
        .generate(72);
    let build = || {
        NoveltyDetectorBuilder::paper()
            .cnn_epochs(1)
            .ae_epochs(1)
            .seed(9)
            .train(&data)
            .expect("tiny detector trains")
    };

    set_thread_config(ThreadConfig::serial());
    let reference = build();
    for threads in THREAD_COUNTS {
        set_thread_config(ThreadConfig::new(threads));
        let detector = build();
        assert_eq!(
            bits(detector.training_scores()),
            bits(reference.training_scores()),
            "training_scores threads={threads}"
        );
        assert_eq!(
            detector.threshold().value().to_bits(),
            reference.threshold().value().to_bits(),
            "threshold threads={threads}"
        );
    }
}
