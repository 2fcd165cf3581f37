//! Throughput of the numeric substrate: GEMM and convolution at
//! the sizes the pipeline actually runs (autoencoder dense layers,
//! PilotNet conv layers).

use criterion::{criterion_group, criterion_main, Criterion};
use ndtensor::{conv2d, matmul, set_thread_config, Conv2dSpec, Tensor, ThreadConfig};
use std::hint::black_box;

fn pseudo(shape: impl Into<ndtensor::Shape>, seed: u64) -> Tensor {
    let mut state = seed | 1;
    Tensor::from_fn(shape.into(), |_| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
    })
}

fn tensor_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("tensor_kernels");

    // Autoencoder encoder layer: batch 32 × (9600 → 64).
    let x = pseudo([32, 9600], 1);
    let w = pseudo([9600, 64], 2);
    group.bench_function("gemm_32x9600x64", |b| {
        b.iter(|| matmul(black_box(&x), black_box(&w)).unwrap())
    });

    // Square GEMM reference point.
    let a = pseudo([256, 256], 3);
    let bm = pseudo([256, 256], 4);
    group.bench_function("gemm_256^3", |b| {
        b.iter(|| matmul(black_box(&a), black_box(&bm)).unwrap())
    });

    // First PilotNet conv on one frame: 1×60×160, 8 filters 5×5 stride 2.
    let frame = pseudo([1, 1, 60, 160], 5);
    let kernel = pseudo([8, 1, 5, 5], 6);
    let spec = Conv2dSpec::new((2, 2), (0, 0));
    group.bench_function("conv5x5s2_60x160_8f", |b| {
        b.iter(|| conv2d(black_box(&frame), black_box(&kernel), None, spec).unwrap())
    });

    // Mid-stack conv: 12×28×78 → 16 filters 5×5 stride 2.
    let mid = pseudo([1, 8, 28, 78], 7);
    let kernel2 = pseudo([12, 8, 5, 5], 8);
    group.bench_function("conv5x5s2_28x78_8to12f", |b| {
        b.iter(|| conv2d(black_box(&mid), black_box(&kernel2), None, spec).unwrap())
    });

    group.finish();
}

/// The same kernels under pinned thread counts, to expose the scaling of
/// the parallel execution layer (results are bit-identical by design; only
/// the timing differs).
fn tensor_kernels_thread_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("tensor_kernels_threads");

    let a = pseudo([256, 256], 3);
    let bm = pseudo([256, 256], 4);
    // Batched first-layer conv: 64 frames of 60×160.
    let batch = pseudo([64, 1, 60, 160], 9);
    let kernel = pseudo([8, 1, 5, 5], 6);
    let spec = Conv2dSpec::new((2, 2), (0, 0));

    for threads in [1usize, 2, 4] {
        set_thread_config(ThreadConfig::new(threads));
        group.bench_function(&format!("gemm_256^3_t{threads}"), |b| {
            b.iter(|| matmul(black_box(&a), black_box(&bm)).unwrap())
        });
        group.bench_function(&format!("conv5x5s2_60x160_batch64_t{threads}"), |b| {
            b.iter(|| conv2d(black_box(&batch), black_box(&kernel), None, spec).unwrap())
        });
    }
    set_thread_config(ThreadConfig::from_env());

    group.finish();
}

criterion_group!(benches, tensor_kernels, tensor_kernels_thread_scaling);
criterion_main!(benches);
