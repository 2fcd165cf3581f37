//! Per-shape routine selection: static heuristic or one-shot autotune.
//!
//! [`select`] maps `(op, m, k, n)` to one registered [`Routine`]. Two
//! policies exist, switched by the `SALIENCY_AUTOTUNE` environment
//! variable (or [`set_autotune`]):
//!
//! * **off** (default) — a pure arithmetic heuristic over the shape. No
//!   locks, no clocks, no state: the same build always selects the same
//!   routine.
//! * **on** — first sight of a shape measures every applicable candidate
//!   on seeded synthetic data and caches the winner in a process-global
//!   table. Timing goes through an injected [`KernelTimer`] (installed
//!   by `obs` from its sanctioned `Stopwatch` — `ndtensor` itself never
//!   touches a clock); without an installed timer, autotune degrades to
//!   the heuristic. Measurements are taken serially, min-of-N, and
//!   quantized to half-octave (×1.5) buckets before comparison, with
//!   ties broken by `(priority, name)` — never by registration order —
//!   so the cached table is reproducible run to run on a quiet machine.
//!
//! Selection policy is *performance only*: every candidate of a family
//! is bitwise-equal on all inputs (see `tests/kernel_parity.rs`), so
//! detector output is byte-identical whichever policy runs — the
//! autotune-on/off CI job proves this end to end.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use super::base::{candidates, default_routine, registry_index, GemmOp, Routine, REGISTRY};
use super::run_serial;
use crate::scratch;

/// Selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AutotuneMode {
    /// Static shape heuristic (the default).
    Off,
    /// One-shot measured selection, cached per shape.
    On,
}

/// 0 = unresolved, 1 = off, 2 = on (same lazy-env pattern as
/// `par::thread_config`).
static MODE: AtomicUsize = AtomicUsize::new(0);

/// Replaces the process-wide autotune mode and clears the cached
/// selection table so the new policy is applied from scratch.
pub fn set_autotune(mode: AutotuneMode) {
    MODE.store(
        match mode {
            AutotuneMode::Off => 1,
            AutotuneMode::On => 2,
        },
        Ordering::Relaxed,
    );
    clear_selection_table();
}

/// The process-wide autotune mode, resolving `SALIENCY_AUTOTUNE` on
/// first use. Accepted values: `on`/`1` and `off`/`0` (unset means off);
/// anything else warns on stderr and falls back to off, never panicking.
pub fn autotune_mode() -> AutotuneMode {
    match MODE.load(Ordering::Relaxed) {
        1 => return AutotuneMode::Off,
        2 => return AutotuneMode::On,
        _ => {}
    }
    let resolved = match std::env::var("SALIENCY_AUTOTUNE") {
        Err(_) => AutotuneMode::Off,
        Ok(raw) => match raw.trim() {
            "on" | "1" => AutotuneMode::On,
            "off" | "0" | "" => AutotuneMode::Off,
            _ => {
                // sncheck:allow(no-stdout-in-lib): one-shot env-var
                // misconfiguration warning; no recorder exists this
                // early in process startup.
                eprintln!(
                    "warning: ignoring invalid SALIENCY_AUTOTUNE={raw:?} \
                     (expected on/off); autotune stays off"
                );
                AutotuneMode::Off
            }
        },
    };
    MODE.store(
        match resolved {
            AutotuneMode::Off => 1,
            AutotuneMode::On => 2,
        },
        Ordering::Relaxed,
    );
    resolved
}

/// Injected timing primitive: runs the closure and returns elapsed
/// nanoseconds. `obs::install_kernel_timer` provides the only sanctioned
/// implementation (backed by `obs::Stopwatch`); `ndtensor` deliberately
/// has no clock of its own, so autotune without an installed timer falls
/// back to the heuristic.
pub type KernelTimer = fn(&mut dyn FnMut()) -> u64;

static TIMER: OnceLock<KernelTimer> = OnceLock::new();

/// Installs the process-wide kernel timer. The first installation wins;
/// returns whether this call installed it.
pub fn install_timer(timer: KernelTimer) -> bool {
    TIMER.set(timer).is_ok()
}

/// Whether a kernel timer has been installed.
pub fn timer_installed() -> bool {
    TIMER.get().is_some()
}

/// Selection-table key: `(op index, m, k, n)`.
type ShapeKey = (u8, usize, usize, usize);

/// Cached selections: [`ShapeKey`] → `(registry index, measured)`.
/// BTreeMap so [`selection_table`] iterates in one deterministic order.
static TABLE: Mutex<BTreeMap<ShapeKey, (usize, bool)>> = Mutex::new(BTreeMap::new());

static STAT_LOOKUPS: AtomicU64 = AtomicU64::new(0);
static STAT_HITS: AtomicU64 = AtomicU64::new(0);
static STAT_MEASURED: AtomicU64 = AtomicU64::new(0);
static STAT_HEURISTIC: AtomicU64 = AtomicU64::new(0);

/// Cumulative selector activity since process start (monotonic; snapshot
/// and diff like `par::stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AutotuneStats {
    /// Total [`select`] calls.
    pub lookups: u64,
    /// Lookups answered from the cached selection table.
    pub table_hits: u64,
    /// Shapes decided by measurement (one per table entry with
    /// `measured`).
    pub measured: u64,
    /// Lookups decided by the static heuristic (mode off, or no timer).
    pub heuristic: u64,
}

/// Snapshot of the selector counters.
pub fn stats() -> AutotuneStats {
    AutotuneStats {
        lookups: STAT_LOOKUPS.load(Ordering::Relaxed),
        table_hits: STAT_HITS.load(Ordering::Relaxed),
        measured: STAT_MEASURED.load(Ordering::Relaxed),
        heuristic: STAT_HEURISTIC.load(Ordering::Relaxed),
    }
}

/// One row of the cached selection table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectionEntry {
    /// GEMM family.
    pub op: GemmOp,
    /// Problem rows.
    pub m: usize,
    /// Inner dimension.
    pub k: usize,
    /// Problem columns.
    pub n: usize,
    /// Stable name of the selected routine.
    pub routine: &'static str,
    /// Whether the entry came from measurement (false: heuristic
    /// fallback cached under autotune without a timer).
    pub measured: bool,
}

/// The cached selection table in deterministic (op, m, k, n) order.
/// Empty while autotune is off (the heuristic caches nothing).
pub fn selection_table() -> Vec<SelectionEntry> {
    let table = TABLE.lock().unwrap_or_else(|e| e.into_inner());
    let mut out = Vec::new();
    for (&(op, m, k, n), &(idx, measured)) in table.iter() {
        let op = match op {
            0 => GemmOp::MatMul,
            1 => GemmOp::MatMulAtB,
            _ => GemmOp::MatMulABt,
        };
        out.push(SelectionEntry {
            op,
            m,
            k,
            n,
            routine: REGISTRY[idx].name,
            measured,
        });
    }
    out
}

/// Drops every cached selection (tests and mode changes).
pub fn clear_selection_table() {
    TABLE.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// Static shape heuristic: the selection used when autotune is off.
///
/// * Accumulating families: the two-row 64-wide register kernel where
///   its accumulator block fits the problem — output wide enough for the
///   64-column block (`n ≥ 64`) and `k` small enough that the `k × 64` B
///   block stays L1-resident (`k ≤ 128`, i.e. ≤ 32 KB of f32). That is
///   every conv-as-GEMM forward shape and the wide backward GEMMs, where
///   register accumulation beats the panel-packed axpy default by
///   1.5–2×. Outside that region the PR 5 axpy default wins (its packed
///   panel amortizes over long `k`), so the heuristic stays on proven
///   behaviour.
/// * `A·Bᵀ` (convolution backward only): the PR 5 tiled kernel.
pub fn heuristic(op: GemmOp, m: usize, k: usize, n: usize) -> &'static Routine {
    let wide_small_k = n >= 64 && k <= 128;
    let name = match op {
        GemmOp::MatMul => {
            if wide_small_k {
                "mm-rr2-w64"
            } else {
                "mm-axpy-c256"
            }
        }
        GemmOp::MatMulAtB => {
            if wide_small_k {
                "atb-rr2-w64"
            } else {
                "atb-axpy-c256"
            }
        }
        GemmOp::MatMulABt => "abt-dot8-t64",
    };
    REGISTRY
        .iter()
        .find(|r| r.name == name && r.applies_to(m, k, n))
        .unwrap_or_else(|| default_routine(op))
}

/// Selects the routine for one full problem shape.
///
/// Call once per entry-point invocation on the caller thread, *before*
/// row-splitting — workers receive the chosen kernel fn and never touch
/// the selector, so there is no per-chunk lock traffic and the choice
/// cannot depend on the thread count.
pub fn select(op: GemmOp, m: usize, k: usize, n: usize) -> &'static Routine {
    STAT_LOOKUPS.fetch_add(1, Ordering::Relaxed);
    if autotune_mode() == AutotuneMode::Off {
        STAT_HEURISTIC.fetch_add(1, Ordering::Relaxed);
        return heuristic(op, m, k, n);
    }
    let key = (op.index(), m, k, n);
    // The table lock is held across a miss's measurement so concurrent
    // first sightings of one shape serialize and cache a single verdict.
    let mut table = TABLE.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(&(idx, _)) = table.get(&key) {
        STAT_HITS.fetch_add(1, Ordering::Relaxed);
        return &REGISTRY[idx];
    }
    let entry = match TIMER.get() {
        Some(&timer) => {
            STAT_MEASURED.fetch_add(1, Ordering::Relaxed);
            (measure_shape(op, m, k, n, timer), true)
        }
        None => {
            STAT_HEURISTIC.fetch_add(1, Ordering::Relaxed);
            (registry_index(heuristic(op, m, k, n)), false)
        }
    };
    table.insert(key, entry);
    &REGISTRY[entry.0]
}

/// Half-octave quantization: maps nanoseconds to a ×1.5 bucket index so
/// run-to-run timing jitter inside a bucket cannot flip a selection.
/// Integer arithmetic only; everything below 64 ns shares bucket 0
/// (below timer resolution).
pub fn quantize_ns(ns: u64) -> u32 {
    let mut bucket = 0u32;
    let mut x = ns;
    while x >= 64 {
        x = x * 2 / 3;
        bucket += 1;
    }
    bucket
}

/// Pure selection over measured candidates `(name, priority, ns/iter)`:
/// returns the index of the winner. Ranking is `(quantized ns, priority,
/// name)` ascending, so the result is independent of input order — the
/// selector-determinism proptest shuffles the slice and expects the same
/// winning name.
pub fn pick(measured: &[(&str, u8, u64)]) -> Option<usize> {
    measured
        .iter()
        .enumerate()
        .min_by_key(|(_, &(name, priority, ns))| (quantize_ns(ns), priority, name))
        .map(|(i, _)| i)
}

/// Trials per candidate; the minimum is kept (noise on a busy machine is
/// one-sided, so min-of-N converges on the true floor).
const TRIALS: usize = 4;

/// Target duration of one timed trial: repetitions are scaled so even
/// microsecond kernels are measured over ≥ ~200 µs, keeping timer
/// resolution out of the quantized buckets.
const TARGET_TRIAL_NS: u64 = 200_000;

/// Fills `buf` with a seeded LCG sequence in (-1, 1); every `zero_every`-th
/// element (when > 0) is an exact zero so the accumulating families'
/// sparsity skip is exercised the way post-ReLU activations exercise it.
fn fill_seeded(buf: &mut [f32], seed: u64, zero_every: usize) {
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

/// Measures every applicable candidate on seeded synthetic operands and
/// returns the registry index of the winner ([`pick`] semantics).
///
/// Measurement is serial (direct kernel invocation through
/// [`run_serial`], no row-splitting) so the verdict cannot depend on the
/// thread configuration, and the synthetic operands depend only on the
/// shape — same build, same knob, same table.
fn measure_shape(op: GemmOp, m: usize, k: usize, n: usize, timer: KernelTimer) -> usize {
    let (a_len, b_len) = match op {
        GemmOp::MatMul => (m * k, k * n),
        GemmOp::MatMulAtB => (k * m, k * n),
        GemmOp::MatMulABt => (m * k, n * k),
    };
    let mut a = scratch::take(a_len);
    a.resize(a_len, 0.0);
    let seed = 0x5EED ^ (op.index() as u64) << 48 ^ (m as u64) << 32 ^ (k as u64) << 16 ^ n as u64;
    fill_seeded(&mut a, seed, 4);
    let mut b = scratch::take(b_len);
    b.resize(b_len, 0.0);
    fill_seeded(&mut b, seed ^ 0xB00F, 0);
    let mut out = scratch::take(m * n);
    out.resize(m * n, 0.0);

    let mut best: Option<(u32, u8, &'static str, usize)> = None;
    for routine in candidates(op, m, k, n) {
        let idx = registry_index(routine);
        // Warmup + single-shot estimate to size the timed trials.
        run_serial(routine, m, k, n, &a, &b, &mut out);
        let est = timer(&mut || run_serial(routine, m, k, n, &a, &b, &mut out)).max(1);
        let reps = (TARGET_TRIAL_NS / est).clamp(1, 10_000);
        let mut floor_ns = u64::MAX;
        for _ in 0..TRIALS {
            let t = timer(&mut || {
                for _ in 0..reps {
                    run_serial(routine, m, k, n, &a, &b, &mut out);
                }
            });
            floor_ns = floor_ns.min(t / reps);
        }
        let rank = (quantize_ns(floor_ns), routine.priority, routine.name);
        if best.is_none_or(|(q, p, name, _)| (q, p, name) > rank) {
            best = Some((rank.0, rank.1, rank.2, idx));
        }
    }
    scratch::give(out);
    scratch::give(b);
    scratch::give(a);
    best.map(|(_, _, _, idx)| idx)
        .unwrap_or_else(|| registry_index(default_routine(op)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantization_is_monotone_and_absorbs_jitter() {
        assert_eq!(quantize_ns(0), 0);
        assert_eq!(quantize_ns(63), 0);
        assert!(quantize_ns(100) >= 1);
        // Points 1% apart share a bucket almost everywhere.
        assert_eq!(quantize_ns(10_000), quantize_ns(10_100));
        // A 2x difference never shares a bucket.
        for ns in [100u64, 1_000, 10_000, 1_000_000] {
            assert!(quantize_ns(2 * ns) > quantize_ns(ns), "{ns}");
        }
        for w in [1u64, 10, 1_000, 123_456] {
            assert!(quantize_ns(w + 1) >= quantize_ns(w));
        }
    }

    #[test]
    fn pick_prefers_fast_then_priority_then_name() {
        // Clear winner by time.
        let m = [("slow", 0, 10_000u64), ("fast", 9, 100)];
        assert_eq!(pick(&m), Some(1));
        // Same bucket: priority breaks the tie.
        let m = [("b", 5, 1_000u64), ("a", 0, 1_010)];
        assert_eq!(pick(&m), Some(1));
        // Same bucket and priority: name breaks the tie.
        let m = [("zeta", 3, 1_000u64), ("alpha", 3, 1_001)];
        assert_eq!(pick(&m), Some(1));
        assert_eq!(pick(&[]), None);
    }

    #[test]
    fn heuristic_is_pure_and_total() {
        for op in [GemmOp::MatMul, GemmOp::MatMulAtB, GemmOp::MatMulABt] {
            for &(m, k, n) in &[
                (1, 1, 1),
                (1, 64, 9600),
                (32, 64, 9600),
                (5, 3, 8),
                (64, 64, 64),
            ] {
                let a = heuristic(op, m, k, n);
                let b = heuristic(op, m, k, n);
                assert_eq!(a.name, b.name);
                assert_eq!(a.op, op);
                assert!(a.applies_to(m, k, n));
            }
        }
    }

    #[test]
    fn select_off_mode_matches_heuristic_and_caches_nothing() {
        set_autotune(AutotuneMode::Off);
        let before = stats();
        let r = select(GemmOp::MatMulAtB, 32, 64, 9600);
        assert_eq!(r.name, heuristic(GemmOp::MatMulAtB, 32, 64, 9600).name);
        assert!(selection_table().is_empty());
        let d = stats();
        assert!(d.lookups > before.lookups);
        assert!(d.heuristic > before.heuristic);
    }

    #[test]
    fn select_on_mode_without_timer_caches_heuristic_fallback() {
        // The timer may or may not be installed in this process (other
        // tests / obs). Either way the selection must be cached and
        // stable across repeated lookups.
        set_autotune(AutotuneMode::On);
        let first = select(GemmOp::MatMul, 6, 5, 40).name;
        let again = select(GemmOp::MatMul, 6, 5, 40).name;
        assert_eq!(first, again);
        let table = selection_table();
        assert!(table.iter().any(|e| e.op == GemmOp::MatMul
            && (e.m, e.k, e.n) == (6, 5, 40)
            && e.routine == first));
        set_autotune(AutotuneMode::Off);
        assert!(selection_table().is_empty(), "mode change clears table");
    }
}
