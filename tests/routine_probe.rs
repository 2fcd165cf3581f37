//! Manual perf probe: times every registered routine on the GEMM shapes
//! a scored frame runs. Run with
//! `cargo test --release --test routine_probe -- --ignored --nocapture`.

use std::time::Instant;

use ndtensor::routines::{candidates, run_serial, GemmOp};

fn fill(buf: &mut [f32], seed: u64, zero_every: usize) {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    for (i, v) in buf.iter_mut().enumerate() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *v = if zero_every > 0 && i % zero_every == 0 {
            0.0
        } else {
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        };
    }
}

#[test]
#[ignore = "manual perf probe"]
fn probe() {
    // The GEMMs one scored 60×160 frame runs (the frame-verdict
    // benchmark's traced run prints the same list as `# shape` lines):
    // the five PilotNet conv layers as im2col GEMMs, then the
    // autoencoder's large dense layers at batch 1 on their transposed
    // weight panels (encode, decode).
    let shapes = [
        (GemmOp::MatMul, 8, 25, 2184),
        (GemmOp::MatMul, 12, 200, 444),
        (GemmOp::MatMul, 16, 300, 68),
        (GemmOp::MatMul, 20, 144, 68),
        (GemmOp::MatMul, 20, 180, 68),
        (GemmOp::MatMul, 1, 9600, 64),
        (GemmOp::MatMul, 1, 64, 9600),
    ];
    for (op, m, k, n) in shapes {
        let (a_len, b_len) = match op {
            GemmOp::MatMul => (m * k, k * n),
            GemmOp::MatMulAtB => (k * m, k * n),
            GemmOp::MatMulABt => (m * k, n * k),
        };
        // Dense A: matches the bench operands (pseudo data has no exact
        // zeros), so numbers are comparable to BENCH_pipeline.json.
        let mut a = vec![0.0f32; a_len];
        fill(&mut a, 1, 0);
        let mut b = vec![0.0f32; b_len];
        fill(&mut b, 2, 0);
        let mut out = vec![0.0f32; m * n];
        println!("== {} m{} k{} n{}", op.as_str(), m, k, n);
        for r in candidates(op, m, k, n) {
            // warmup
            for _ in 0..3 {
                run_serial(r, m, k, n, &a, &b, &mut out);
            }
            let mut best = u128::MAX;
            for _ in 0..5 {
                let reps = 20usize.max(2_000_000 / (m * k * n + 1));
                let t = Instant::now();
                for _ in 0..reps {
                    run_serial(r, m, k, n, &a, &b, &mut out);
                }
                best = best.min(t.elapsed().as_nanos() / reps as u128);
            }
            println!("  {:<16} {:>12} ns/iter", r.name, best);
        }
    }
}
