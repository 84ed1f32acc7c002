//! Heap accounting: a counting [`GlobalAlloc`] shim plus best-effort
//! peak-RSS sampling.
//!
//! The shim wraps the system allocator and tracks the **current** number
//! of live heap bytes and its monotone **high-water mark**. Installing it
//! here (the telemetry crate is a dependency of every workspace binary)
//! makes the counters available program-wide without per-crate opt-in.
//!
//! The live count is sharded: each thread adds its allocations and frees
//! to one of `SHARDS` cache-line-aligned counters (assigned round-robin
//! on its first allocation), and a reading folds the shards. A single
//! process-global counter written on every `malloc` by every analysis
//! worker bounced one cache line between cores and kept parallel
//! analysis from scaling; with shards, each worker writes only its own
//! line, on the telemetry-on and telemetry-off paths alike.
//!
//! Precision, also documented in DESIGN.md §3h:
//! - **current** is exact: every allocation and free lands in some shard,
//!   whichever thread makes it and whether or not that thread has since
//!   exited, so the folded sum never drifts.
//! - **peak** is sampled by folding the shards each time a thread has
//!   allocated another `PEAK_SAMPLE_BYTES` (64 KiB) since its last
//!   sample, and on every [`MemoryGauge`] reading. Each thread leaves
//!   less than `PEAK_SAMPLE_BYTES` unsampled, and a thread that exits
//!   keeps its unsampled bytes while what it allocated may stay live
//!   elsewhere (a worker's shard returned to the main thread). So the
//!   peak may lag the true high-water mark by less than `threads that
//!   allocated since the last sample, exited ones included, ×
//!   PEAK_SAMPLE_BYTES` (192 KiB for two analysis workers plus the main
//!   thread).
//!
//! The counters see only Rust heap allocations routed through the global
//! allocator — stacks, memory-mapped files, and allocator slack are
//! invisible, which is why [`MemoryGauge::peak_rss_bytes`] additionally
//! samples the kernel's `VmHWM` on Linux. The peak is monotone and never
//! reset, so a span's recorded peak is "high-water mark by span close",
//! not a span-local maximum.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Number of live-byte shards; threads beyond it share shards (still
/// exact, only no longer contention-free).
const SHARDS: usize = 32;

/// Bytes a thread allocates between two peak samples.
const PEAK_SAMPLE_BYTES: u64 = 64 << 10;

/// One live-byte counter on its own pair of cache lines (adjacent-line
/// prefetch pairs 64-byte lines). Signed: a shard whose threads free
/// memory that other threads allocated goes negative; only the folded
/// sum is meaningful.
#[repr(align(128))]
struct Shard(AtomicI64);

static LIVE: [Shard; SHARDS] = [const { Shard(AtomicI64::new(0)) }; SHARDS];
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Per-thread accounting state. `Cell`s without a destructor, so the
/// thread-local stays usable from the allocator at any point of a
/// thread's life, including its teardown.
struct Local {
    /// Index into [`LIVE`]; `usize::MAX` until the first allocation.
    shard: Cell<usize>,
    /// Bytes allocated since this thread's last peak sample.
    unsampled: Cell<u64>,
}

thread_local! {
    static LOCAL: Local = const {
        Local { shard: Cell::new(usize::MAX), unsampled: Cell::new(0) }
    };
}

/// Folds the shards into the live byte count.
fn live_bytes() -> u64 {
    LIVE.iter().map(|s| s.0.load(Relaxed)).sum::<i64>().max(0) as u64
}

fn sample_peak() {
    let now = live_bytes();
    // Racy check-then-max keeps the common (non-peak) path to one load;
    // fetch_max makes the slow path correct under contention.
    if now > PEAK.load(Relaxed) {
        PEAK.fetch_max(now, Relaxed);
    }
}

#[inline]
fn record(delta: i64) {
    LOCAL.with(|local| {
        let mut shard = local.shard.get();
        if shard == usize::MAX {
            shard = NEXT_SHARD.fetch_add(1, Relaxed) % SHARDS;
            local.shard.set(shard);
        }
        LIVE[shard].0.fetch_add(delta, Relaxed);
        if delta > 0 {
            let unsampled = local.unsampled.get() + delta as u64;
            if unsampled >= PEAK_SAMPLE_BYTES {
                local.unsampled.set(0);
                sample_peak();
            } else {
                local.unsampled.set(unsampled);
            }
        }
    });
}

/// The counting allocator shim; installed as the `#[global_allocator]`
/// for every binary that (transitively) links this crate.
pub struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the byte
// accounting has no effect on the returned pointers or layouts.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            record(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        record(-(layout.size() as i64));
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            record(layout.size() as i64);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            record(new_size as i64 - layout.size() as i64);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A point-in-time heap reading from the counting allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemSnapshot {
    /// Live heap bytes right now.
    pub current_bytes: u64,
    /// Monotone high-water mark of live heap bytes since process start.
    pub peak_bytes: u64,
}

/// Process-wide memory readings backed by [`CountingAlloc`] plus
/// best-effort kernel RSS sampling.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemoryGauge;

impl MemoryGauge {
    /// Live heap bytes allocated through the global allocator.
    pub fn current_bytes() -> u64 {
        live_bytes()
    }

    /// Monotone high-water mark of live heap bytes since process start,
    /// lagging the true mark by less than `PEAK_SAMPLE_BYTES` per thread
    /// that allocated since the last sample, exited threads included;
    /// never below a preceding [`current_bytes`](Self::current_bytes)
    /// reading.
    pub fn peak_bytes() -> u64 {
        sample_peak();
        PEAK.load(Relaxed)
    }

    /// Both counters in one call (the pair is not atomic, which is fine
    /// for reporting).
    pub fn snapshot() -> MemSnapshot {
        MemSnapshot { current_bytes: Self::current_bytes(), peak_bytes: Self::peak_bytes() }
    }

    /// The kernel's peak resident-set size (`VmHWM`) in bytes, when the
    /// platform exposes it (`/proc/self/status` on Linux); `None`
    /// elsewhere or on read failure.
    pub fn peak_rss_bytes() -> Option<u64> {
        #[cfg(target_os = "linux")]
        {
            let status = std::fs::read_to_string("/proc/self/status").ok()?;
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
                    return Some(kb * 1024);
                }
            }
            None
        }
        #[cfg(not(target_os = "linux"))]
        {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_move_the_counters() {
        // Other test threads allocate concurrently, so only assert on
        // properties that hold under interference: the block is live at
        // the `during` reading, and the peak is a monotone global.
        let before_peak = MemoryGauge::peak_bytes();
        let block = vec![0u8; 16 << 20];
        let during = MemoryGauge::snapshot();
        assert!(
            during.current_bytes >= 16 << 20,
            "a live 16 MiB block must be visible in current ({during:?})"
        );
        assert!(during.peak_bytes >= 16 << 20, "peak must cover the live block");
        assert!(during.peak_bytes >= before_peak, "peak is monotone");
        drop(block);
        assert!(MemoryGauge::peak_bytes() >= during.peak_bytes, "peak survives dealloc");
    }

    #[test]
    fn short_lived_threads_leave_current_at_baseline() {
        // Each thread allocates a block below the peak-sample interval
        // and hands it to this thread, which frees it after the thread has
        // exited: every allocation is counted in the exited thread's shard
        // and every free in this one's. If either were lost, `current`
        // would move by 8 × 64 × 48 KiB = 24 MiB; it must return to the
        // baseline up to the other test threads' small concurrent
        // allocations. A concurrent test's short-lived 16 MiB block can
        // still land inside one window, so a drift must show on three
        // attempts in a row; a real one always does.
        const BLOCK: usize = 48 << 10;
        const BOUND: i64 = 4 << 20;
        let drift = || {
            let baseline = MemoryGauge::current_bytes() as i64;
            for _round in 0..8 {
                let handles: Vec<_> = (0..64)
                    .map(|_| {
                        std::thread::spawn(|| {
                            let mut churn = Vec::new();
                            for n in 0..100usize {
                                churn.push(vec![n as u8; 1 + n * 7]);
                                if churn.len() > 8 {
                                    churn.remove(0);
                                }
                            }
                            drop(churn);
                            vec![1u8; BLOCK]
                        })
                    })
                    .collect();
                let blocks: Vec<Vec<u8>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
                assert!(blocks.iter().all(|b| b.len() == BLOCK));
            }
            MemoryGauge::current_bytes() as i64 - baseline
        };
        let drifts: Vec<i64> = (0..3).map(|_| drift()).collect();
        assert!(
            drifts.iter().any(|d| d.abs() < BOUND),
            "current drifted by {drifts:?} bytes over 512 short-lived threads (bound {BOUND})"
        );
    }

    #[test]
    fn peak_rss_is_plausible_when_available() {
        if let Some(rss) = MemoryGauge::peak_rss_bytes() {
            // A running test binary surely has more than 1 MiB resident
            // and (sanity bound) less than 1 TiB.
            assert!(rss > 1 << 20, "VmHWM {rss} too small");
            assert!(rss < 1 << 40, "VmHWM {rss} too large");
        }
    }
}
