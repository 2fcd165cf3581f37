//! The three serving workloads and the loops that drive them.
//!
//! Every decision is checked bit for bit against a reference score that
//! `NoveltyDetector::score` computed, untimed, on the same pool frame.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

use ndtensor::scratch::{self, ScratchStats};
use novelty::{
    DecisionSource, NoveltyDetector, StreamConfig, StreamDecision, StreamRuntime, StreamServer,
    TenantSpec,
};
use obs::RunRecorder;
use vision::Image;

use crate::sys::{thread_cpu_secs, HeapCount};

/// Tenants (cameras) on the serve workloads.
pub const TENANTS: usize = 16;
/// Frame period of the `serve-rig` cameras: 20 Hz, so each tick is one
/// batch of 16 and 16 cameras offer 320 frames/s.
pub const RIG_PERIOD: Duration = Duration::from_millis(50);
/// Frame period of the `serve-staggered` cameras: 10 Hz, 160 frames/s.
/// Single frames with the recorder attached cost ~2.5 ms of CPU each;
/// at 20 Hz the loop would run at 80–90% load, where the host's own
/// speed swings (±15% CPU per frame between identical runs) tip it into
/// queueing and latency stops being repeatable.
pub const STAGGERED_PERIOD: Duration = Duration::from_millis(100);
/// Offset between tenants' walks through the frame pool. With a pool of
/// at least `TENANTS * TENANT_STRIDE` frames the 16 frames of one
/// aligned tick are distinct.
const TENANT_STRIDE: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, one `StreamRuntime`, one camera.
    StreamB1,
    /// Open loop, one `StreamServer`, 16 cameras ticking together.
    ServeRig,
    /// Open loop, the same 16 cameras with seeded phase offsets and a
    /// live `obs::RunRecorder`.
    ServeStaggered,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamB1 => "stream-b1",
            Workload::ServeRig => "serve-rig",
            Workload::ServeStaggered => "serve-staggered",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        [
            Workload::StreamB1,
            Workload::ServeRig,
            Workload::ServeStaggered,
        ]
        .into_iter()
        .find(|w| w.name() == name)
    }

    pub fn tenants(self) -> usize {
        match self {
            Workload::StreamB1 => 1,
            Workload::ServeRig | Workload::ServeStaggered => TENANTS,
        }
    }
}

/// The pool frame a tenant's camera sends as its `j`-th frame.
/// Consecutive frames of one tenant always differ, so the gate's
/// stuck-frame check (repeated digests) never fires on clean input.
pub fn pool_index(tenant: usize, j: usize, pool_len: usize) -> usize {
    (j + tenant * TENANT_STRIDE) % pool_len
}

/// SplitMix64: the benchmark's only randomness, derived from `--seed`.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What every decision on a pool frame must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    pub score_bits: u32,
    pub is_novel: bool,
}

/// How a decision compares with its pool frame's reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    Verified(Reference),
    /// A fresh verdict that differs from the reference.
    Mismatch,
    /// No fresh verdict: shed, gated or failed.
    NoVerdict,
}

/// The rendered frame pool and its untimed references.
pub struct Frames {
    pub pool: Vec<Image>,
    pub refs: Vec<Reference>,
}

impl Frames {
    pub fn with_references(pool: Vec<Image>, detector: &NoveltyDetector) -> Result<Frames, String> {
        let refs = pool
            .iter()
            .map(|frame| {
                let score = detector.score(frame).map_err(|e| e.to_string())?;
                Ok(Reference {
                    score_bits: score.to_bits(),
                    is_novel: detector.threshold().is_novel(score),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Frames { pool, refs })
    }

    pub fn check(&self, pool_idx: usize, decision: &StreamDecision) -> Check {
        match (&decision.verdict, decision.source) {
            (Some(verdict), DecisionSource::Scored) => {
                let got = Reference {
                    score_bits: verdict.score.to_bits(),
                    is_novel: verdict.is_novel,
                };
                if got == self.refs[pool_idx] {
                    Check::Verified(got)
                } else {
                    Check::Mismatch
                }
            }
            _ => Check::NoVerdict,
        }
    }
}

/// The system a workload drives.
pub enum System<'d> {
    Stream(StreamRuntime<'d>),
    Server {
        server: StreamServer<'d>,
        recorder: Option<RunRecorder>,
    },
}

impl<'d> System<'d> {
    pub fn build(detector: &'d NoveltyDetector, workload: Workload) -> Result<System<'d>, String> {
        let config = StreamConfig::for_detector(detector);
        Ok(match workload {
            Workload::StreamB1 => {
                System::Stream(StreamRuntime::new(detector, config).map_err(|e| e.to_string())?)
            }
            Workload::ServeRig | Workload::ServeStaggered => {
                let tenants = (0..TENANTS)
                    .map(|t| TenantSpec::new(format!("cam-{t:02}"), config.clone()))
                    .collect();
                System::Server {
                    server: StreamServer::new(detector, tenants).map_err(|e| e.to_string())?,
                    recorder: (workload == Workload::ServeStaggered).then(RunRecorder::new),
                }
            }
        })
    }

    /// Sends one frame from tenant 0 and returns its decision: the end of
    /// cold start.
    pub fn first_decision(&mut self, frame: &Image) -> Result<StreamDecision, String> {
        match self {
            System::Stream(runtime) => Ok(runtime.process(Some(frame))),
            System::Server { server, recorder } => {
                server
                    .offer(0, Some(frame.clone()))
                    .map_err(|e| e.to_string())?;
                let decisions = match recorder {
                    Some(r) => server.step_recorded(r),
                    None => server.step(),
                };
                decisions
                    .into_iter()
                    .next()
                    .map(|(_, d)| d)
                    .ok_or_else(|| "the first step returned no decision".to_string())
            }
        }
    }
}

/// Independent latency samples per statistics window. A span's timing
/// metrics are medians over its windows, so a host hiccup that spoils a
/// few windows does not move them; 200 samples leave 10 beyond a
/// window's p95.
pub const WINDOW: usize = 200;

/// The span's running totals at a window boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mark {
    pub samples: usize,
    pub decisions: u64,
    pub verified: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Everything one measured span yields.
#[derive(Debug, Default)]
pub struct Tally {
    /// Frames offered to the system.
    pub offered: u64,
    /// Decisions returned.
    pub decisions: u64,
    /// Decisions with a fresh verdict equal to the reference.
    pub verified: u64,
    /// Decisions without one: shed, gated, failed or mismatched.
    pub failed: u64,
    /// Fresh verdicts that differ from the reference.
    pub mismatches: u64,
    /// Frame-to-decision latency, one sample per independent arrival (a
    /// frame, or an aligned tick of frames).
    pub latency_ms: Vec<f64>,
    /// Per-frame latency, per tenant.
    pub tenant_latency_ms: Vec<Vec<f64>>,
    /// How late the load generator offered each arrival.
    pub lag_ms: Vec<f64>,
    /// Scoring steps (calls into the runtime or server) that decided a
    /// frame, and the frames they decided.
    pub steps: u64,
    pub step_frames: u64,
    /// Heap traffic inside the calls into the system.
    pub heap: HeapCount,
    /// Thread CPU time inside the calls into the system, in seconds.
    pub cpu_s: f64,
    /// Scratch-pool and routine-selector counters over the span.
    pub scratch: ScratchStats,
    pub lookups: u64,
    /// Per-frame time of each scoring step (step time over the frames it
    /// decided); recorded in traced spans only.
    pub step_us_per_frame: Vec<f64>,
    /// Resident memory at the start and end of the span.
    pub rss_start_mb: f64,
    pub rss_end_mb: f64,
    /// The verified verdict of each pool frame, for the digest.
    pub seen: Vec<Option<Reference>>,
    /// Totals at the span start, at every `WINDOW`-th latency sample and
    /// at the span end.
    pub marks: Vec<Mark>,
}

/// Where a span started, and the global counters its deltas start from.
struct SpanStart {
    at: Instant,
    scratch: ScratchStats,
    lookups: u64,
}

impl Tally {
    fn open(frames: &Frames, tenants: usize) -> (Tally, SpanStart) {
        let mut tally = Tally {
            tenant_latency_ms: vec![Vec::new(); tenants],
            seen: vec![None; frames.pool.len()],
            rss_start_mb: crate::sys::status_mb("VmRSS"),
            ..Tally::default()
        };
        let start = SpanStart {
            at: Instant::now(),
            scratch: scratch::stats(),
            lookups: ndtensor::routines::stats().lookups,
        };
        tally.mark(start.at, true);
        (tally, start)
    }

    fn close(mut self, start: SpanStart) -> Tally {
        self.mark(start.at, true);
        self.rss_end_mb = crate::sys::status_mb("VmRSS");
        self.scratch = scratch::stats().since(start.scratch);
        self.lookups = ndtensor::routines::stats().lookups - start.lookups;
        self
    }

    /// Records a mark once the latency samples reach the next window
    /// boundary (or unconditionally with `force`).
    fn mark(&mut self, start: Instant, force: bool) {
        let boundary = self.marks.len() * WINDOW;
        if force || self.latency_ms.len() >= boundary {
            self.marks.push(Mark {
                samples: self.latency_ms.len(),
                decisions: self.decisions,
                verified: self.verified,
                wall_s: start.elapsed().as_secs_f64(),
                cpu_s: self.cpu_s,
            });
        }
    }

    /// The `(start, end)` marks of each complete window; the whole span
    /// when no window completed. The last mark closes a partial window.
    pub fn windows(&self) -> Vec<(Mark, Mark)> {
        let boundaries = &self.marks[..self.marks.len().saturating_sub(1)];
        match (boundaries.len(), self.marks.first(), self.marks.last()) {
            (0 | 1, Some(a), Some(b)) => vec![(*a, *b)],
            _ => boundaries.windows(2).map(|w| (w[0], w[1])).collect(),
        }
    }

    fn settle(&mut self, frames: &Frames, pool_idx: usize, decision: &StreamDecision) {
        self.decisions += 1;
        match frames.check(pool_idx, decision) {
            Check::Verified(got) => {
                self.verified += 1;
                self.seen[pool_idx] = Some(got);
            }
            Check::Mismatch => {
                self.mismatches += 1;
                self.failed += 1;
            }
            Check::NoVerdict => self.failed += 1,
        }
    }
}

/// Options of one measured span.
#[derive(Debug, Clone, Copy)]
pub struct SpanOptions {
    pub length: Duration,
    /// Record a per-step timing span (the traced run).
    pub traced: bool,
    /// Test hook: allocate once per frame inside the counted region.
    pub plant_alloc: bool,
}

/// Per-tenant frame counters, carried across spans so a tenant's frame
/// sequence continues where the previous span left it.
pub type Cursor = Vec<usize>;

/// The serve cameras' frame period and their arrival phases within it.
pub struct Schedule {
    period: Duration,
    phases: Vec<Duration>,
    /// Tenants in arrival order within a period.
    order: Vec<usize>,
}

impl Schedule {
    /// All cameras tick together.
    pub fn aligned(period: Duration) -> Schedule {
        Schedule {
            period,
            phases: vec![Duration::ZERO; TENANTS],
            order: (0..TENANTS).collect(),
        }
    }

    /// Each camera gets its own slot of the period (a seeded
    /// permutation) plus a seeded jitter of under a quarter slot, so
    /// arrivals spread out evenly whatever the seed.
    pub fn staggered(seed: u64, period: Duration) -> Schedule {
        let mut state = seed ^ 0x5EED_57A6_6E2E_D000;
        let mut slots: Vec<usize> = (0..TENANTS).collect();
        for i in (1..TENANTS).rev() {
            let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
            slots.swap(i, j);
        }
        let slot = period / TENANTS as u32;
        let phases: Vec<Duration> = slots
            .iter()
            .map(|&s| {
                let jitter = (splitmix(&mut state) % 1_000) as u32;
                slot * s as u32 + slot / 4 * jitter / 1_000
            })
            .collect();
        let mut order: Vec<usize> = (0..TENANTS).collect();
        order.sort_by_key(|&t| phases[t]);
        Schedule {
            period,
            phases,
            order,
        }
    }

    /// Due time (from the span start) and tenant of arrival `e`.
    fn arrival(&self, e: usize) -> (Duration, usize) {
        let tenant = self.order[e % TENANTS];
        let due = self.period * (e / TENANTS) as u32 + self.phases[tenant];
        (due, tenant)
    }
}

/// Closed loop: the next frame goes in when the previous decision
/// returns.
pub fn closed_loop(
    runtime: &mut StreamRuntime<'_>,
    frames: &Frames,
    cursor: &mut Cursor,
    opts: SpanOptions,
) -> Tally {
    let expected = (opts.length.as_secs_f64() * 4_000.0) as usize;
    let (mut tally, span) = Tally::open(frames, 1);
    let start = span.at;
    tally.latency_ms.reserve(expected);
    tally.lag_ms.reserve(expected);
    if opts.traced {
        tally.step_us_per_frame.reserve(expected);
    }
    // A closed-loop frame is due when the previous decision returns.
    let mut due = Instant::now();
    while start.elapsed() < opts.length {
        let idx = pool_index(0, cursor[0], frames.pool.len());
        cursor[0] += 1;
        let (heap0, cpu0) = (HeapCount::now(), thread_cpu_secs());
        let sent = Instant::now();
        let decision = runtime.process(Some(&frames.pool[idx]));
        if opts.plant_alloc {
            black_box(Box::new(idx));
        }
        let done = Instant::now();
        tally.cpu_s += thread_cpu_secs() - cpu0;
        tally.heap.add(HeapCount::now().since(heap0));
        tally.lag_ms.push((sent - due).as_secs_f64() * 1e3);
        due = done;
        let ms = (done - sent).as_secs_f64() * 1e3;
        tally.offered += 1;
        tally.steps += 1;
        tally.step_frames += 1;
        tally.latency_ms.push(ms);
        tally.tenant_latency_ms[0].push(ms);
        if opts.traced {
            tally.step_us_per_frame.push(ms * 1e3);
        }
        tally.settle(frames, idx, &decision);
        tally.mark(start, false);
    }
    tally.close(span)
}

/// Open loop: arrivals follow `schedule` whatever the server's state.
/// The server steps while it holds frames, and the generator offers
/// every arrival that fell due before each step; with nothing queued it
/// waits for the next arrival. Latency runs from an arrival's due time
/// to its decision.
pub fn open_loop(
    server: &mut StreamServer<'_>,
    recorder: Option<&RunRecorder>,
    frames: &Frames,
    schedule: &Schedule,
    cursor: &mut Cursor,
    opts: SpanOptions,
) -> Tally {
    let expected = (opts.length.as_secs_f64() / schedule.period.as_secs_f64()) as usize * TENANTS;
    let mut pending: Vec<VecDeque<(Duration, usize)>> =
        (0..TENANTS).map(|_| VecDeque::with_capacity(16)).collect();
    let mut step_dues: Vec<Duration> = Vec::with_capacity(TENANTS * 4);
    let (mut tally, span) = Tally::open(frames, TENANTS);
    let start = span.at;
    tally.latency_ms.reserve(expected);
    tally.lag_ms.reserve(expected);
    let mut next = 0usize;
    loop {
        let now = start.elapsed();
        loop {
            let (due, tenant) = schedule.arrival(next);
            if due > now || due >= opts.length {
                break;
            }
            next += 1;
            let idx = pool_index(tenant, cursor[tenant], frames.pool.len());
            cursor[tenant] += 1;
            let frame = frames.pool[idx].clone();
            tally.lag_ms.push((now - due).as_secs_f64() * 1e3);
            let (heap0, cpu0) = (HeapCount::now(), thread_cpu_secs());
            server
                .offer(tenant, Some(frame))
                .expect("tenant indices are below the tenant count");
            tally.cpu_s += thread_cpu_secs() - cpu0;
            tally.heap.add(HeapCount::now().since(heap0));
            pending[tenant].push_back((due, idx));
            tally.offered += 1;
        }
        if server.pending() == 0 {
            let (due, _) = schedule.arrival(next);
            if due >= opts.length {
                break;
            }
            // Idle until the next camera fires. The wait spins: a
            // sleeping thread on a shared virtual machine wakes up late
            // by up to several milliseconds, by an amount that changes
            // from run to run, and that delay would swamp the tail
            // latency being measured. CPU time is counted inside the
            // calls into the server only, so spinning does not inflate
            // it.
            while start.elapsed() < due {
                std::hint::spin_loop();
            }
            continue;
        }
        let (heap0, cpu0) = (HeapCount::now(), thread_cpu_secs());
        let stepped = Instant::now();
        let decisions = match recorder {
            Some(r) => server.step_recorded(r),
            None => server.step(),
        };
        let took = stepped.elapsed();
        let done = start.elapsed();
        tally.cpu_s += thread_cpu_secs() - cpu0;
        tally.heap.add(HeapCount::now().since(heap0));
        step_dues.clear();
        for (tenant, decision) in &decisions {
            let (due, idx) = pending[*tenant]
                .pop_front()
                .expect("the server decides only frames it was offered");
            let ms = (done - due).as_secs_f64() * 1e3;
            tally.tenant_latency_ms[*tenant].push(ms);
            // Frames that arrived together (an aligned tick) are one
            // independent latency sample.
            if !step_dues.contains(&due) {
                step_dues.push(due);
                tally.latency_ms.push(ms);
            }
            tally.settle(frames, idx, decision);
        }
        if !decisions.is_empty() {
            tally.steps += 1;
            tally.step_frames += decisions.len() as u64;
            if opts.traced {
                tally
                    .step_us_per_frame
                    .push(took.as_secs_f64() * 1e6 / decisions.len() as f64);
            }
        }
        tally.mark(start, false);
    }
    tally.close(span)
}

/// Runs one span of `workload` on `system`.
pub fn run_span(
    system: &mut System<'_>,
    frames: &Frames,
    schedule: &Schedule,
    cursor: &mut Cursor,
    opts: SpanOptions,
) -> Tally {
    match system {
        System::Stream(runtime) => closed_loop(runtime, frames, cursor, opts),
        System::Server { server, recorder } => {
            open_loop(server, recorder.as_ref(), frames, schedule, cursor, opts)
        }
    }
}
