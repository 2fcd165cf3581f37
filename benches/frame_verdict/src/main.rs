//! Frame-to-verdict benchmark of the novelty detector's serving path.
//!
//! ```text
//! frame-verdict --workload <stream-b1|serve-rig|serve-staggered> --seed N
//!               --seconds S --trace <0|1> [--quick] [--plant <wrong-ref|alloc>]
//! ```
//!
//! Each run trains the quick fixture from the code under test in a child
//! process and saves it under `work/`, renders a seeded pool of frames
//! (half outdoor, half indoor), loads the fixture, and drives the
//! workload for `--seconds` with scoring pinned to one thread and the
//! routine autotuner off. Every decision is checked bit for bit against
//! `NoveltyDetector::score` on the same pool frame. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones (see
//! README.md). The last stdout line is one JSON object; the exit code is
//! non-zero when a verdict mismatches or warmed `stream-b1` allocates.
//!
//! `--quick` shrinks the pool, the warm-up and the probes for tests.
//! `--plant` is a test hook that plants the defect a gate must catch.

mod probes;
mod sys;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use ndtensor::routines::{self, AutotuneMode};
use ndtensor::ThreadConfig;
use novelty::{ClassifierConfig, NoveltyDetector, NoveltyDetectorBuilder, ReconstructionObjective};
use simdrive::DatasetConfig;
use vision::Image;

use probes::Metrics;
use sys::{median, quantile, status_mb, HeapCount};
use workloads::{Check, Frames, Schedule, SpanOptions, System, Tally, Workload};

#[global_allocator]
static GLOBAL: sys::CountingAllocator = sys::CountingAllocator;

/// Frames in the rendered pool (half outdoor, half indoor).
const POOL_FRAMES: usize = 48;
const QUICK_POOL_FRAMES: usize = 8;
/// Unmeasured warm-up before the measured span.
const WARMUP: Duration = Duration::from_secs(1);
const QUICK_WARMUP: Duration = Duration::from_millis(200);
/// Cold starts per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 3;
/// Frames through each layer probe of the traced run.
const PROBE_FRAMES: usize = 300;
const QUICK_PROBE_FRAMES: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plant {
    /// Flip the low bit of one reference score.
    WrongRef,
    /// Allocate once per frame inside the counted region of `stream-b1`.
    Alloc,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    plant: Option<Plant>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut quick, mut plant) = (false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            "--quick" => quick = true,
            "--plant" => {
                plant = Some(match value()?.as_str() {
                    "wrong-ref" => Plant::WrongRef,
                    "alloc" => Plant::Alloc,
                    other => return Err(format!("unknown plant {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        quick,
        plant,
    })
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Scoring on one thread with the static routine heuristic, whatever the
/// environment says; the raw environment is reported with the results.
fn pin_scoring() {
    ndtensor::set_thread_config(ThreadConfig::serial());
    routines::set_autotune(AutotuneMode::Off);
}

/// The quick fixture, trained at a fixed seed by the code under test.
fn train_fixture(out: &Path) -> Result<(), String> {
    pin_scoring();
    let data = DatasetConfig::outdoor().with_len(24).generate(7);
    let detector = NoveltyDetectorBuilder::paper()
        .cnn_epochs(1)
        .classifier_config(ClassifierConfig {
            epochs: 1,
            warmup_epochs: 0,
            objective: ReconstructionObjective::paper_ssim(),
            ..ClassifierConfig::paper()
        })
        .seed(1)
        .train(&data)
        .map_err(err)?;
    detector.save(out).map_err(err)
}

/// The seeded frame pool: outdoor and indoor frames, alternating.
fn render_pool(seed: u64, frames: usize) -> Vec<Image> {
    let half = frames.div_ceil(2);
    let outdoor = DatasetConfig::outdoor().with_len(half).generate(seed);
    let indoor = DatasetConfig::indoor()
        .with_len(half)
        .generate(seed ^ 0x1D00_2000);
    outdoor
        .frames()
        .iter()
        .zip(indoor.frames())
        .flat_map(|(o, i)| [o.image.clone(), i.image.clone()])
        .take(frames)
        .collect()
}

/// Builds the workload's system on a loaded detector and gets the first
/// decision on `frame`: the end of cold start.
fn start_system<'d>(
    detector: &'d NoveltyDetector,
    workload: Workload,
    frame: &Image,
) -> Result<(System<'d>, novelty::StreamDecision), String> {
    let mut system = System::build(detector, workload)?;
    let decision = system.first_decision(frame)?;
    Ok((system, decision))
}

fn setup_probe_main(args: &[String]) -> Result<(), String> {
    let [fixture, workload, seed] = args else {
        return Err("usage: setup-probe <fixture> <workload> <seed>".into());
    };
    pin_scoring();
    let workload = Workload::parse(workload).ok_or("unknown workload")?;
    let frame = render_pool(seed.parse().map_err(err)?, 1).remove(0);
    let start = Instant::now();
    let detector = NoveltyDetector::load(fixture).map_err(err)?;
    let (_, decision) = start_system(&detector, workload, &frame)?;
    let secs = start.elapsed().as_secs_f64();
    if decision.verdict.is_none() {
        return Err("the first decision carries no verdict".into());
    }
    println!("{secs}");
    Ok(())
}

/// Runs this binary as a child and returns its stdout.
fn child(args: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(err)?;
    let out = Command::new(exe).args(args).output().map_err(err)?;
    if !out.status.success() {
        return Err(format!(
            "child {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Removes the run's fixture however the run ends.
struct FixtureFile(PathBuf);

impl Drop for FixtureFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn env_or_unset(name: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| "<unset>".into())
}

/// FNV-1a over each pool frame's verified verdict, in pool order.
fn digest(seen: &[Option<workloads::Reference>]) -> (u64, usize) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut covered = 0;
    for r in seen.iter().flatten() {
        covered += 1;
        for byte in r
            .score_bits
            .to_le_bytes()
            .into_iter()
            .chain([r.is_novel as u8])
        {
            h = (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    }
    (h, covered)
}

fn merge_seen(into: &mut [Option<workloads::Reference>], from: &[Option<workloads::Reference>]) {
    for (a, b) in into.iter_mut().zip(from) {
        if a.is_none() {
            *a = *b;
        }
    }
}

/// The end-to-end metrics of a span. Timings are medians over the
/// span's statistics windows (see `workloads::WINDOW`).
fn end_to_end(tally: &Tally, setup: &[f64], peak_rss_mb: f64) -> Metrics {
    let windows = tally.windows();
    let per_window = |f: &dyn Fn(&workloads::Mark, &workloads::Mark) -> f64| {
        median(&windows.iter().map(|(a, b)| f(a, b)).collect::<Vec<_>>())
    };
    vec![
        (
            "frames_per_s".into(),
            per_window(&|a, b| (b.verified - a.verified) as f64 / (b.wall_s - a.wall_s)),
            "1/s",
        ),
        ("latency_p50_ms".into(), median(&tally.latency_ms), "ms"),
        (
            "latency_p95_ms".into(),
            per_window(&|a, b| quantile(&tally.latency_ms[a.samples..b.samples], 0.95)),
            "ms",
        ),
        (
            "cpu_ms_per_frame".into(),
            per_window(&|a, b| {
                (b.cpu_s - a.cpu_s) * 1e3 / (b.decisions - a.decisions).max(1) as f64
            }),
            "ms",
        ),
        ("setup_s".into(), median(setup), "s"),
        ("peak_rss_mb".into(), peak_rss_mb, "MB"),
    ]
}

fn json_metrics(metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run_main(args: &Args) -> Result<ExitCode, String> {
    pin_scoring();
    let workload = args.workload;
    println!(
        "# frame-verdict workload={} seed={} seconds={} trace={} quick={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick
    );
    println!(
        "# env SALIENCY_THREADS={} SALIENCY_AUTOTUNE={} -> resolved threads={} autotune={:?} cores={}",
        env_or_unset("SALIENCY_THREADS"),
        env_or_unset("SALIENCY_AUTOTUNE"),
        ndtensor::thread_config().threads(),
        routines::autotune_mode(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    let work = Path::new(env!("CARGO_MANIFEST_DIR")).join("work");
    std::fs::create_dir_all(&work).map_err(err)?;
    let fixture = FixtureFile(work.join(format!("fixture-{}.json", std::process::id())));
    let fixture_arg = fixture.0.to_str().ok_or("work path is not UTF-8")?;
    child(&["fixture", fixture_arg])?;

    // Cold starts in fresh processes, before this one touches the fixture.
    let mut setup = Vec::new();
    if !args.trace && !args.quick {
        for _ in 1..SETUP_SAMPLES {
            let seed = args.seed.to_string();
            let out = child(&["setup-probe", fixture_arg, workload.name(), &seed])?;
            setup.push(out.trim().parse::<f64>().map_err(err)?);
        }
    }

    let pool = render_pool(
        args.seed,
        if args.quick {
            QUICK_POOL_FRAMES
        } else {
            POOL_FRAMES
        },
    );
    let mut layer_metrics: Metrics = Vec::new();
    let start = Instant::now();
    let detector = if args.trace {
        // The traced run loads through the persist probe's three steps.
        let reps = if args.quick { 1 } else { SETUP_SAMPLES };
        probes::persist(&fixture.0, reps, &mut layer_metrics)?
    } else {
        NoveltyDetector::load(&fixture.0).map_err(err)?
    };
    let (mut system, first) = start_system(&detector, workload, &pool[0])?;
    if !args.trace {
        setup.push(start.elapsed().as_secs_f64());
    }
    let detector = &detector;

    let mut frames = Frames::with_references(pool, detector)?;
    if args.plant == Some(Plant::WrongRef) {
        frames.refs[0].score_bits ^= 1;
    }
    // Tenant 0 sent pool frame 0 as its first frame.
    let mut cursor = vec![0usize; workload.tenants()];
    cursor[0] = 1;
    let mut mismatches = u64::from(frames.check(0, &first) == Check::Mismatch);

    let schedule = match workload {
        Workload::ServeStaggered => Schedule::staggered(args.seed, workloads::STAGGERED_PERIOD),
        _ => Schedule::aligned(workloads::RIG_PERIOD),
    };
    let plant_alloc = args.plant == Some(Plant::Alloc);
    let span = |secs: f64, traced: bool| SpanOptions {
        length: Duration::from_secs_f64(secs),
        traced,
        plant_alloc,
    };
    let warmup = if args.quick { QUICK_WARMUP } else { WARMUP };
    let warm = workloads::run_span(
        &mut system,
        &frames,
        &schedule,
        &mut cursor,
        span(warmup.as_secs_f64(), false),
    );
    mismatches += warm.mismatches;

    // The measured span; the traced run splits its time between an
    // untraced and a traced span so it can report the tracing overhead.
    let measured_secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let tally = workloads::run_span(
        &mut system,
        &frames,
        &schedule,
        &mut cursor,
        span(measured_secs, false),
    );
    let peak_rss_mb = status_mb("VmHWM");
    let mut seen = warm.seen;

    let mut spans = vec![tally];
    let mut shapes = Vec::new();
    if args.trace {
        let iters = if args.quick {
            QUICK_PROBE_FRAMES
        } else {
            PROBE_FRAMES
        };
        probes::layers(
            detector,
            &frames.pool,
            iters,
            &mut layer_metrics,
            &mut shapes,
        )?;
        let rounds = match workload {
            Workload::ServeRig => (iters / 8).max(2),
            _ => iters,
        };
        let (step_overhead, obs_overhead) =
            probes::serving(detector, workload, &frames.pool, rounds)?;
        let traced = workloads::run_span(
            &mut system,
            &frames,
            &schedule,
            &mut cursor,
            span(measured_secs, true),
        );
        layer_metrics.extend(trace_metrics(
            workload,
            &spans[0],
            &traced,
            &layer_metrics,
            step_overhead,
            obs_overhead,
        ));
        spans.push(traced);
    }
    let (mut offered, mut failed, mut decisions) = (0, 0, 0);
    let mut heap = HeapCount::default();
    for t in &spans {
        offered += t.offered;
        failed += t.failed;
        decisions += t.decisions;
        mismatches += t.mismatches;
        heap.add(t.heap);
        merge_seen(&mut seen, &t.seen);
    }

    for shape in &shapes {
        println!("# shape {shape}");
    }
    let metrics = if args.trace {
        layer_metrics
    } else {
        end_to_end(&spans[0], &setup, peak_rss_mb)
    };
    for (name, value, unit) in &metrics {
        println!("metric {name} {value} {unit}");
    }
    println!(
        "metric failed_frac {} fraction",
        failed as f64 / offered.max(1) as f64
    );
    let untraced = &spans[0];
    println!(
        "# samples: {} latency samples in {} windows, {} decisions, whole-span p95 {} ms, \
         generator lag p95 {} ms, setup samples {setup:?}",
        untraced.latency_ms.len(),
        untraced.windows().len(),
        untraced.decisions,
        quantile(&untraced.latency_ms, 0.95),
        quantile(&untraced.lag_ms, 0.95),
    );
    let (hash, covered) = digest(&seen);
    println!(
        "verdict_digest {} {hash:016x} ({covered}/{} pool frames)",
        workload.name(),
        frames.pool.len()
    );

    let mut problems = Vec::new();
    if mismatches > 0 {
        problems.push(format!(
            "{mismatches} verdicts differ from NoveltyDetector::score"
        ));
    }
    if workload == Workload::StreamB1 && heap.count > 0 {
        problems.push(format!(
            "warmed stream-b1 made {} heap allocations ({} bytes) over {decisions} frames",
            heap.count, heap.bytes,
        ));
    }
    for p in &problems {
        eprintln!("frame-verdict: FAIL: {p}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        problems.is_empty(),
        offered.max(1),
        failed,
        json_metrics(&metrics)
    );
    Ok(if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn metric(metrics: &Metrics, name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _, _)| n == name)
        .map_or(f64::NAN, |(_, v, _)| *v)
}

/// Per-layer metrics that come from the workload spans themselves.
fn trace_metrics(
    workload: Workload,
    untraced: &Tally,
    traced: &Tally,
    layers: &Metrics,
    step_overhead_us: f64,
    obs_overhead_us: f64,
) -> Metrics {
    let frames = traced.decisions.max(1) as f64;
    let tenant_p95_max = untraced
        .tenant_latency_ms
        .iter()
        .filter(|l| !l.is_empty())
        .map(|l| quantile(l, 0.95))
        .fold(f64::NAN, f64::max);
    // The stages a frame passes through, timed one by one by the probes,
    // against the per-frame time of the traced span's scoring steps.
    let m = |name| metric(layers, name);
    let scoring = match workload {
        Workload::ServeRig => m("classifier.score_many_b16_us"),
        _ => m("ae.forward_b1_us") + m("ssim.us"),
    };
    let mut stages = m("gate.admit_us") + m("vbp.total_us") + scoring + m("runtime.resolve_us");
    if workload == Workload::ServeStaggered {
        stages += obs_overhead_us;
    }
    vec![
        (
            "serve.batch_mean".into(),
            traced.step_frames as f64 / traced.steps.max(1) as f64,
            "frames",
        ),
        ("serve.step_overhead_us".into(), step_overhead_us, "us"),
        ("serve.tenant_p95_max_ms".into(), tenant_p95_max, "ms"),
        (
            "scratch.misses_per_frame".into(),
            traced.scratch.misses as f64 / frames,
            "count",
        ),
        (
            "scratch.bytes_per_frame".into(),
            traced.scratch.bytes_allocated as f64 / frames,
            "bytes",
        ),
        (
            "routines.lookups_per_frame".into(),
            traced.lookups as f64 / frames,
            "count",
        ),
        (
            "alloc.count_per_frame".into(),
            traced.heap.count as f64 / frames,
            "count",
        ),
        (
            "alloc.bytes_per_frame".into(),
            traced.heap.bytes as f64 / frames,
            "bytes",
        ),
        ("obs.overhead_us".into(), obs_overhead_us, "us"),
        (
            "obs.rss_growth_mb".into(),
            untraced.rss_end_mb - untraced.rss_start_mb,
            "MB",
        ),
        (
            "loadgen.lag_p95_ms".into(),
            quantile(&untraced.lag_ms, 0.95),
            "ms",
        ),
        (
            "trace.overhead_pct".into(),
            (median(&traced.latency_ms) / median(&untraced.latency_ms) - 1.0) * 100.0,
            "%",
        ),
        (
            "trace.stage_sum_ratio".into(),
            stages / median(&traced.step_us_per_frame),
            "ratio",
        ),
    ]
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("fixture") => match &args[1..] {
            [out] => train_fixture(Path::new(out)).map(|()| ExitCode::SUCCESS),
            _ => Err("usage: fixture <out.json>".into()),
        },
        Some("setup-probe") => setup_probe_main(&args[1..]).map(|()| ExitCode::SUCCESS),
        _ => parse_args(&args).and_then(|a| run_main(&a)),
    };
    result.unwrap_or_else(|e| {
        eprintln!("frame-verdict: {e}");
        ExitCode::from(2)
    })
}
