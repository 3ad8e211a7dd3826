//! The composed two-level hierarchy with the VSV signal interface.
//!
//! # Clock domains
//!
//! Following §4.3 of the paper, the L1 caches share the pipeline's
//! clock: their 2-cycle hit latency is expressed in *pipeline* cycles
//! and applied by the core, so [`Hierarchy::access_data`] /
//! [`Hierarchy::access_inst`] report hits combinationally. Everything
//! deeper — the L2 lookup, the split-transaction bus, DRAM — is on an
//! asynchronous interface with latencies in nanoseconds, advanced by
//! [`Hierarchy::tick`]. An L2 miss is *detected* one L2-hit-latency
//! after the request reaches the L2 (the paper's conservative
//! assumption, §5), which is when [`VsvSignal::L2MissDetected`] fires.
//!
//! # Simplifications (documented deviations)
//!
//! * L1→L2 request transport is instantaneous (the 12 ns L2 latency
//!   subsumes it, as in SimpleScalar-family simulators).
//! * L2 tag-port contention is not modeled; the bus and MSHR files are
//!   the throttles, as in the paper's Wattch setup.
//! * Write-backs consume bus/DRAM bandwidth but complete instantly at
//!   the next level's tags (no write buffer stalls).
//!
//! # One uncore path
//!
//! The L2, the bus, DRAM and the L2-MSHR slot pool always live in a
//! [`SharedFabric`]: a standalone hierarchy builds and owns a one-core
//! fabric, and a chip core swaps in the chip's shared one with
//! [`Hierarchy::attach_shared`]. The private slice — L1s, their MSHR
//! files, the prefetch buffer, the L2 MSHR file's waiter bookkeeping
//! and the refill event queue — stays here.

use std::collections::VecDeque;

use vsv_isa::Addr;
use vsv_power::counter_rng;

use crate::bus::BusConfig;
use crate::cache::{Cache, CacheConfig};
use crate::dram::DramConfig;
use crate::event::EventQueue;
use crate::fx::FxHashMap;
use crate::mshr::{MshrFile, MshrOutcome};
use crate::shared::{FabricCoreStats, SharedFabric, SharedHandle};

/// Identifies one outstanding memory request issued by the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemToken(pub u64);

/// Bounded retries per erroneous read before escalation (TS-Cache
/// style detect-and-retry; see `ErrorCurve` in `vsv-power`).
pub const MAX_READ_RETRIES: u8 = 3;

/// Nanoseconds to *detect* a timing error on a delivered read (the
/// razor/ECC-check latency charged before a retry can be issued).
pub const READ_ERROR_DETECT_NS: u64 = 2;

/// Nanoseconds to re-issue the read at the same operating point after
/// detection. One failed attempt therefore costs
/// `READ_ERROR_DETECT_NS + READ_ERROR_RETRY_NS` = 8 ns of added
/// refill latency.
pub const READ_ERROR_RETRY_NS: u64 = 6;

/// One low-voltage read error observed by the hierarchy, drained by
/// the simulator for metrics/trace/policy consumption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadErrorEvent {
    /// When the erroneous delivery was attempted (ns).
    pub at: u64,
    /// Zero-based attempt number that failed (`0` = the first
    /// delivery, `MAX_READ_RETRIES` = the last permitted retry).
    pub attempt: u8,
    /// `true` when the retry budget is exhausted: no retry was
    /// scheduled and the read must escalate to a typed simulation
    /// error.
    pub exhausted: bool,
}

/// What a data-side access is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A demand load.
    Read,
    /// A committed store.
    Write,
    /// A software prefetch (non-binding; its L2 misses are *prefetch*
    /// misses and never arm VSV's down-FSM).
    SwPrefetch,
}

/// Where a completed refill was sourced from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataSource {
    /// Satisfied by an L2 hit.
    L2,
    /// Came all the way from main memory.
    Memory,
}

/// A finished refill for a request that missed in the L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The request this completes.
    pub token: MemToken,
    /// Completion time in nanoseconds.
    pub at: u64,
    /// Which level supplied the data.
    pub source: DataSource,
}

/// Why an access could not be accepted this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallReason {
    /// The instruction-L1 MSHR file is full.
    Il1MshrFull,
    /// The data-L1 MSHR file is full.
    Dl1MshrFull,
}

/// Immediate outcome of an L1 access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L1Outcome {
    /// L1 hit: the core applies its own L1 hit latency.
    Hit,
    /// Hit in the Time-Keeping prefetch buffer (2-cycle structure next
    /// to the L1); the block is promoted into the L1.
    PrefetchBufferHit,
    /// L1 miss, now in flight; a [`Completion`] with this token will
    /// appear later.
    Miss(MemToken),
    /// The access could not be accepted; retry next cycle.
    Blocked(StallReason),
}

/// Events the VSV mode controller consumes (paper §4.2/§4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VsvSignal {
    /// An L2 miss was detected (one hit-latency after reaching the L2).
    /// `demand` is `false` for misses caused purely by prefetches,
    /// which must not trigger the low-power transition.
    L2MissDetected {
        /// Whether any demand access is waiting on this miss.
        demand: bool,
        /// Detection time in nanoseconds.
        at: u64,
        /// Provable lower bound on the miss's return time: the
        /// already-scheduled DRAM data-ready time for this miss's L2
        /// block (the response bus transfer can only add delay).
        /// `None` when no schedule exists yet (the L2 MSHR file was
        /// full and the allocation went to the retry queue). Only an
        /// oracle consumer may act on this — it is simulator
        /// knowledge, not an implementable hardware signal.
        earliest_return: Option<u64>,
    },
    /// An L2 miss's data returned to the processor.
    L2MissReturned {
        /// Whether any demand access was waiting on this miss.
        demand: bool,
        /// Return time in nanoseconds.
        at: u64,
        /// Demand misses still outstanding *after* this return.
        outstanding_demand: usize,
    },
}

impl VsvSignal {
    /// The simulated time (ns) the signal was raised. Structured
    /// tracing maps these signals one-to-one onto `miss_detected` /
    /// `miss_returned` events (schema: `docs/observability.md` at the
    /// repository root).
    #[must_use]
    pub fn at(&self) -> u64 {
        match *self {
            VsvSignal::L2MissDetected { at, .. } | VsvSignal::L2MissReturned { at, .. } => at,
        }
    }
}

/// Which L1-side structure a refill feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Side {
    Inst,
    Data,
    PrefetchBuffer,
}

#[derive(Debug, Clone, Copy)]
struct Waiter {
    side: Side,
    l1_block: Addr,
    demand: bool,
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// The L2 lookup for `waiter` resolves (hit or detected miss).
    L2Probe { waiter: u64, l2_block: Addr },
    /// A refill reaches the L1 side for `waiter`. `attempt` counts
    /// prior failed deliveries of this refill (0 on the first try;
    /// bumped when the timing-error model forces a retry).
    L1Fill {
        waiter: u64,
        source: DataSource,
        attempt: u8,
    },
    /// DRAM data is ready; arbitrate for the response transfer.
    /// (Split transaction: the bus is only reserved when the transfer
    /// actually starts, so requests interleave with earlier misses'
    /// DRAM latency.)
    DramDone { l2_block: Addr },
    /// A memory refill fills the L2 block and all its waiters.
    L2Fill { l2_block: Addr },
}

/// Configuration of the whole hierarchy.
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Debug, Clone, Copy)]
pub struct HierarchyConfig {
    /// Instruction L1 geometry.
    pub l1i: CacheConfig,
    /// Data L1 geometry.
    pub l1d: CacheConfig,
    /// Unified L2 geometry. Its `hit_latency` (ns) is also the
    /// miss-detection latency.
    pub l2: CacheConfig,
    /// IL1 MSHR entries (Table 1: 32).
    pub il1_mshrs: usize,
    /// DL1 MSHR entries (Table 1: 32).
    pub dl1_mshrs: usize,
    /// L2 MSHR entries (Table 1: 64).
    pub l2_mshrs: usize,
    /// Merged targets per MSHR entry.
    pub mshr_targets: usize,
    /// Memory bus parameters.
    pub bus: BusConfig,
    /// Main memory parameters.
    pub dram: DramConfig,
    /// Geometry of the Time-Keeping prefetch buffer, if enabled
    /// (128-entry fully-associative FIFO, 2-cycle, paper §5.1).
    pub prefetch_buffer: Option<CacheConfig>,
}

impl HierarchyConfig {
    /// The paper's Table 1 configuration (no prefetch buffer).
    #[must_use]
    pub fn baseline() -> Self {
        HierarchyConfig {
            l1i: CacheConfig::l1_baseline(),
            l1d: CacheConfig::l1_baseline(),
            l2: CacheConfig::l2_baseline(),
            il1_mshrs: 32,
            dl1_mshrs: 32,
            l2_mshrs: 64,
            mshr_targets: 16,
            bus: BusConfig::baseline(),
            dram: DramConfig::baseline(),
            prefetch_buffer: None,
        }
    }

    /// Table 1 plus the Time-Keeping prefetch buffer (§5.1): 128
    /// entries, fully associative, 32-byte blocks, 2-cycle access.
    #[must_use]
    pub fn with_prefetch_buffer() -> Self {
        let mut cfg = Self::baseline();
        cfg.prefetch_buffer = Some(CacheConfig {
            capacity_bytes: 128 * 32,
            assoc: 128,
            block_bytes: 32,
            hit_latency: 2,
        });
        cfg
    }
}

/// Aggregate statistics for the hierarchy.
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Demand (non-prefetch) L2 misses detected.
    pub l2_demand_misses: u64,
    /// Prefetch-only L2 misses detected.
    pub l2_prefetch_misses: u64,
    /// Refills delivered from the L2 (L2 hits for L1 misses).
    pub l2_hit_refills: u64,
    /// Refills delivered from main memory.
    pub memory_refills: u64,
    /// Hits in the prefetch buffer.
    pub prefetch_buffer_hits: u64,
    /// Hardware prefetches accepted.
    pub hw_prefetches: u64,
    /// Hardware prefetches dropped (already resident or in flight).
    pub hw_prefetches_dropped: u64,
    /// Low-voltage read errors detected (every failed delivery
    /// attempt, including the final one of an exhausted read).
    pub read_errors: u64,
    /// Retries issued after a detected read error (errors that were
    /// *not* the final attempt).
    pub read_retries: u64,
    /// Successful architectural refills by the number of failed
    /// attempts that preceded them: `[0]` = delivered clean, `[k]` =
    /// delivered after `k` retries. Feeds the SLO added-latency
    /// percentile (each failed attempt adds
    /// `READ_ERROR_DETECT_NS + READ_ERROR_RETRY_NS` ns).
    pub fill_retry_hist: [u64; MAX_READ_RETRIES as usize + 1],
}

/// The composed memory hierarchy.
///
/// See the `vsv-mem` crate-level docs for the clock-domain contract and the
/// crate docs for a usage example.
#[derive(Debug)]
pub struct Hierarchy {
    cfg: HierarchyConfig,
    l1i: Cache,
    l1d: Cache,
    prefetch_buffer: Option<Cache>,
    il1_mshr: MshrFile,
    dl1_mshr: MshrFile,
    l2_mshr: MshrFile,
    events: EventQueue<Event>,
    retry: VecDeque<(u64, Addr)>,
    // Fx-hashed: point lookups only, never iterated, so the hash
    // function cannot affect simulated results (see `crate::fx`).
    waiters: FxHashMap<u64, Waiter>,
    waiter_index: FxHashMap<(Side, Addr), u64>,
    // Scheduled DRAM data-ready time per in-flight L2 miss, so merged
    // misses can report the same return bound as their primary.
    inflight_return: FxHashMap<Addr, u64>,
    next_waiter: u64,
    next_token: u64,
    completions: Vec<Completion>,
    vsv_signals: Vec<VsvSignal>,
    l1d_evictions: Vec<Addr>,
    // Scratch reused by `tick` so firing events never allocates.
    event_scratch: Vec<Event>,
    stats: HierarchyStats,
    // ---- low-voltage timing-error model ----
    // Counter-based PRNG state: one draw per enabled delivery attempt,
    // advanced regardless of the current threshold so the stream is
    // identical at every operating point (VDDH included).
    error_enabled: bool,
    error_seed: u64,
    error_counter: u64,
    // Probability of the *current* operating point in u64 threshold
    // space (0 at VDDH); pushed by the simulator on voltage changes.
    error_threshold: u64,
    // Injected-fault hook: while armed, every delivery attempt errs,
    // so the affected read marches straight through its retry budget
    // into escalation. Cleared on exhaustion.
    force_error: bool,
    read_error_events: Vec<ReadErrorEvent>,
    // The L2, bus, DRAM and L2-MSHR slot pool: this hierarchy's own
    // one-core fabric, or a chip's shared one once attached.
    uncore: SharedHandle,
    now: u64,
}

impl Hierarchy {
    /// Builds an empty hierarchy over its own one-core
    /// [`SharedFabric`].
    ///
    /// # Panics
    ///
    /// Panics if any component configuration is invalid (see the
    /// component constructors).
    #[must_use]
    pub fn new(cfg: HierarchyConfig) -> Self {
        Hierarchy {
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            prefetch_buffer: cfg.prefetch_buffer.map(Cache::fifo),
            il1_mshr: MshrFile::new(cfg.il1_mshrs, cfg.mshr_targets),
            dl1_mshr: MshrFile::new(cfg.dl1_mshrs, cfg.mshr_targets),
            l2_mshr: MshrFile::new(cfg.l2_mshrs, cfg.mshr_targets),
            events: EventQueue::new(),
            retry: VecDeque::new(),
            waiters: FxHashMap::default(),
            waiter_index: FxHashMap::default(),
            inflight_return: FxHashMap::default(),
            next_waiter: 0,
            next_token: 0,
            completions: Vec::new(),
            vsv_signals: Vec::new(),
            l1d_evictions: Vec::new(),
            event_scratch: Vec::new(),
            stats: HierarchyStats::default(),
            error_enabled: false,
            error_seed: 0,
            error_counter: 0,
            error_threshold: 0,
            force_error: false,
            read_error_events: Vec::new(),
            uncore: SharedHandle::new(SharedFabric::new(cfg, 1).into_shared(), 0),
            cfg,
            now: 0,
        }
    }

    /// Attaches this hierarchy to a chip's [`SharedFabric`] (`handle`
    /// carries the core index), dropping the hierarchy's own one-core
    /// fabric. Attach before simulating — never mid-flight, or
    /// in-flight misses would straddle two fabrics.
    pub fn attach_shared(&mut self, handle: SharedHandle) {
        debug_assert!(
            self.events.is_empty() && self.retry.is_empty(),
            "attach the shared fabric before simulating"
        );
        self.uncore = handle;
    }

    /// This core's slice of the fabric statistics: the L2 lookups,
    /// bus transactions and DRAM accesses it caused, for uncore
    /// energy accounting. Cumulative — [`Self::reset_stats`] leaves
    /// them alone.
    #[must_use]
    pub fn fabric_stats(&self) -> FabricCoreStats {
        self.uncore.stats()
    }

    /// Enables the low-voltage timing-error model with the given PRNG
    /// seed. Draw outcomes depend only on `(seed, ordinal)` — never on
    /// wall clock, thread count, or fast-forward batching — so a fixed
    /// seed replays bit-identically. While disabled (the default) no
    /// draws happen and behavior is bit-identical to a build without
    /// the model.
    pub fn enable_read_error_model(&mut self, seed: u64) {
        self.error_enabled = true;
        self.error_seed = seed;
    }

    /// Sets the per-read error probability of the *current* operating
    /// point, pre-mapped into u64 threshold space (see
    /// `ErrorCurve::threshold` in `vsv-power`). The simulator calls
    /// this whenever the supply voltage changes; 0 (VDDH) means no
    /// draw can err.
    pub fn set_read_error_threshold(&mut self, threshold: u64) {
        self.error_threshold = threshold;
    }

    /// Arms a forced read error (the injected-fault rehearsal path):
    /// every subsequent delivery attempt errs — independent of the
    /// probabilistic model — until one read exhausts its retries and
    /// escalates, which disarms the hook.
    pub fn arm_forced_read_error(&mut self) {
        self.force_error = true;
    }

    /// Whether read-error events are buffered awaiting a drain.
    #[must_use]
    pub fn has_buffered_read_errors(&self) -> bool {
        !self.read_error_events.is_empty()
    }

    /// Moves the read errors recorded since the last call into `out`
    /// (cleared first), retaining both buffers' capacities.
    pub fn take_read_error_events_into(&mut self, out: &mut Vec<ReadErrorEvent>) {
        out.clear();
        out.append(&mut self.read_error_events);
    }

    /// The hierarchy's configuration.
    #[must_use]
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// An instruction fetch of `addr` at time `now` (ns).
    pub fn access_inst(&mut self, now: u64, addr: Addr) -> L1Outcome {
        self.now = self.now.max(now);
        if self.l1i.access(addr, false) {
            return L1Outcome::Hit;
        }
        self.miss_to_l2(now, Side::Inst, addr, true)
    }

    /// A data access of `addr` at time `now` (ns).
    pub fn access_data(&mut self, now: u64, addr: Addr, kind: AccessKind) -> L1Outcome {
        self.now = self.now.max(now);
        let write = kind == AccessKind::Write;
        if self.l1d.access(addr, write) {
            return L1Outcome::Hit;
        }
        // Check the prefetch buffer next to the L1 (paper §5.1): a hit
        // promotes the block into the L1.
        let l1_block = addr.block(self.cfg.l1d.block_bytes);
        let pb_hit = self
            .prefetch_buffer
            .as_mut()
            .is_some_and(|pb| pb.access(l1_block, false));
        if pb_hit {
            if let Some(pb) = self.prefetch_buffer.as_mut() {
                pb.invalidate(l1_block);
            }
            self.stats.prefetch_buffer_hits += 1;
            self.fill_l1d(l1_block, write);
            return L1Outcome::PrefetchBufferHit;
        }
        let demand = kind != AccessKind::SwPrefetch;
        self.miss_to_l2(now, Side::Data, addr, demand)
    }

    /// Injects a hardware prefetch for `addr` (Time-Keeping). The
    /// returned block fills the L2 *and* the prefetch buffer, never the
    /// L1 (paper §5.1). Returns `true` if the prefetch was issued.
    pub fn hw_prefetch(&mut self, now: u64, addr: Addr) -> bool {
        self.now = self.now.max(now);
        let Some(pb) = self.prefetch_buffer.as_ref() else {
            return false;
        };
        let l1_block = addr.block(self.cfg.l1d.block_bytes);
        // Useless if already close to the core or already in flight.
        if self.l1d.probe(l1_block)
            || pb.probe(l1_block)
            || self
                .waiter_index
                .contains_key(&(Side::PrefetchBuffer, l1_block))
        {
            self.stats.hw_prefetches_dropped += 1;
            return false;
        }
        self.stats.hw_prefetches += 1;
        let l2_block = addr.block(self.cfg.l2.block_bytes);
        let id = self.register_waiter(Side::PrefetchBuffer, l1_block, false);
        self.events.push(
            now + u64::from(self.cfg.l2.hit_latency),
            Event::L2Probe {
                waiter: id,
                l2_block,
            },
        );
        true
    }

    /// Advances the asynchronous (ns) domain to time `now`, firing any
    /// due L2/bus/DRAM events.
    pub fn tick(&mut self, now: u64) {
        self.now = self.now.max(now);
        // Retry L2-MSHR allocations that were rejected while full.
        while let Some(&(waiter, l2_block)) = self.retry.front() {
            if self.l2_mshr.is_full() && !self.l2_mshr.contains(l2_block) {
                break;
            }
            self.retry.pop_front();
            let queued = self.retry.len();
            let _ = self.start_l2_miss(now, waiter, l2_block);
            if self.retry.len() > queued {
                // The slot pool rejected it and re-queued it at the
                // back: restore it to the front (first-in, first-out)
                // and wait for a slot to free.
                self.retry.rotate_right(1);
                break;
            }
        }
        loop {
            let mut ready = std::mem::take(&mut self.event_scratch);
            self.events.pop_ready_into(now, &mut ready);
            if ready.is_empty() {
                self.event_scratch = ready;
                break;
            }
            for &ev in &ready {
                self.process(ev);
            }
            ready.clear();
            self.event_scratch = ready;
        }
    }

    /// Takes all refill completions produced since the last call.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Moves all refill completions produced since the last call into
    /// `out` (cleared first). Both the internal buffer's and `out`'s
    /// capacities are retained, so a caller reusing the same scratch
    /// `Vec` makes the hot loop allocation-free.
    pub fn take_completions_into(&mut self, out: &mut Vec<Completion>) {
        out.clear();
        out.append(&mut self.completions);
    }

    /// Takes all VSV mode-controller signals produced since the last
    /// call, in chronological order.
    pub fn drain_vsv_signals(&mut self) -> Vec<VsvSignal> {
        std::mem::take(&mut self.vsv_signals)
    }

    /// Visits (and consumes) all VSV mode-controller signals produced
    /// since the last call, in chronological order. Unlike
    /// [`Self::drain_vsv_signals`] this retains the buffer's capacity,
    /// so the steady-state hot loop never allocates.
    pub fn visit_vsv_signals(&mut self, mut f: impl FnMut(&VsvSignal)) {
        for sig in self.vsv_signals.drain(..) {
            f(&sig);
        }
    }

    /// Takes the addresses of L1-D blocks evicted since the last call
    /// (consumed by the Time-Keeping predictor).
    pub fn drain_l1d_evictions(&mut self) -> Vec<Addr> {
        std::mem::take(&mut self.l1d_evictions)
    }

    /// Moves the addresses of L1-D blocks evicted since the last call
    /// into `out` (cleared first), retaining both buffers' capacities.
    pub fn take_l1d_evictions_into(&mut self, out: &mut Vec<Addr>) {
        out.clear();
        out.append(&mut self.l1d_evictions);
    }

    /// The time of the next scheduled refill event, if any. Retries
    /// queued behind a full L2 MSHR are handled on every tick, so a
    /// caller may only treat the hierarchy as idle until this time if
    /// [`Self::retry_pending`] is also false.
    #[must_use]
    pub fn next_event_time(&self) -> Option<u64> {
        self.events.next_time()
    }

    /// Whether any L2-MSHR-full retries are queued (these are polled
    /// every tick, so the hierarchy is not idle while one is pending).
    #[must_use]
    pub fn retry_pending(&self) -> bool {
        !self.retry.is_empty()
    }

    /// Whether refill completions are buffered awaiting a drain.
    #[must_use]
    pub fn has_buffered_completions(&self) -> bool {
        !self.completions.is_empty()
    }

    /// Whether VSV signals are buffered awaiting a drain.
    #[must_use]
    pub fn has_buffered_vsv_signals(&self) -> bool {
        !self.vsv_signals.is_empty()
    }

    /// Whether L1-D evictions are buffered awaiting a drain.
    #[must_use]
    pub fn has_buffered_l1d_evictions(&self) -> bool {
        !self.l1d_evictions.is_empty()
    }

    /// Number of L2 demand misses currently outstanding.
    #[must_use]
    pub fn outstanding_demand_misses(&self) -> usize {
        self.l2_mshr.demand_occupancy()
    }

    /// Whether any refill activity is still in flight.
    #[must_use]
    pub fn quiescent(&self) -> bool {
        self.events.is_empty() && self.retry.is_empty()
    }

    /// Aggregate statistics.
    #[must_use]
    pub fn stats(&self) -> HierarchyStats {
        self.stats
    }

    /// Per-cache statistics `(l1i, l1d, l2)`. The L2 element is the
    /// fabric's, so on a chip it counts every core's lookups.
    #[must_use]
    pub fn cache_stats(&self) -> (crate::CacheStats, crate::CacheStats, crate::CacheStats) {
        (self.l1i.stats(), self.l1d.stats(), self.uncore.l2_stats())
    }

    /// Resets this core's private statistics (after warm-up), keeping
    /// cache contents. The fabric's L2 and per-core counters may be
    /// shared with other cores, so they stay cumulative.
    pub fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        if let Some(pb) = self.prefetch_buffer.as_mut() {
            pb.reset_stats();
        }
        self.stats = HierarchyStats::default();
    }

    /// Direct read-only access to the L1 data cache (predictor hooks).
    #[must_use]
    pub fn l1d(&self) -> &Cache {
        &self.l1d
    }

    // ---- internals ------------------------------------------------

    fn miss_to_l2(&mut self, now: u64, side: Side, addr: Addr, demand: bool) -> L1Outcome {
        let (l1_cfg, mshr) = match side {
            Side::Inst => (self.cfg.l1i, &mut self.il1_mshr),
            Side::Data => (self.cfg.l1d, &mut self.dl1_mshr),
            Side::PrefetchBuffer => unreachable!("prefetches use hw_prefetch"),
        };
        let l1_block = addr.block(l1_cfg.block_bytes);
        let token = MemToken(self.next_token);
        match mshr.allocate(l1_block, token.0, demand) {
            MshrOutcome::Primary => {
                self.next_token += 1;
                let l2_block = addr.block(self.cfg.l2.block_bytes);
                let id = self.register_waiter(side, l1_block, demand);
                self.events.push(
                    now + u64::from(self.cfg.l2.hit_latency),
                    Event::L2Probe {
                        waiter: id,
                        l2_block,
                    },
                );
                L1Outcome::Miss(token)
            }
            MshrOutcome::Merged => {
                self.next_token += 1;
                if demand {
                    // Upgrade the in-flight request to demand status so
                    // the VSV controller sees it (paper §4.2).
                    if let Some(&id) = self.waiter_index.get(&(side, l1_block)) {
                        if let Some(w) = self.waiters.get_mut(&id) {
                            w.demand = true;
                        }
                    }
                    let l2_block = addr.block(self.cfg.l2.block_bytes);
                    self.l2_mshr.promote_to_demand(l2_block);
                }
                L1Outcome::Miss(token)
            }
            MshrOutcome::Full => L1Outcome::Blocked(match side {
                Side::Inst => StallReason::Il1MshrFull,
                _ => StallReason::Dl1MshrFull,
            }),
        }
    }

    fn register_waiter(&mut self, side: Side, l1_block: Addr, demand: bool) -> u64 {
        let id = self.next_waiter;
        self.next_waiter += 1;
        self.waiters.insert(
            id,
            Waiter {
                side,
                l1_block,
                demand,
            },
        );
        self.waiter_index.insert((side, l1_block), id);
        id
    }

    fn process(&mut self, ev: Event) {
        match ev {
            Event::L2Probe { waiter, l2_block } => self.l2_probe(waiter, l2_block),
            Event::L1Fill {
                waiter,
                source,
                attempt,
            } => self.l1_fill(waiter, source, attempt),
            Event::DramDone { l2_block } => self.dram_done(l2_block),
            Event::L2Fill { l2_block } => self.l2_fill(l2_block),
        }
    }

    fn l2_probe(&mut self, waiter: u64, l2_block: Addr) {
        let now = self.now;
        let demand = self.waiters.get(&waiter).is_some_and(|w| w.demand);
        if self.uncore.l2_access(l2_block) {
            self.stats.l2_hit_refills += 1;
            self.events.push(
                now,
                Event::L1Fill {
                    waiter,
                    source: DataSource::L2,
                    attempt: 0,
                },
            );
            return;
        }
        // Miss detected, one hit-latency after arrival (we are at that
        // point now). Tell the VSV controller.
        if demand {
            self.stats.l2_demand_misses += 1;
        } else {
            self.stats.l2_prefetch_misses += 1;
        }
        // `start_l2_miss` pushes no VSV signals, so starting the miss
        // first (to learn its scheduled return time) keeps the signal
        // stream identical.
        let earliest_return = self.start_l2_miss(now, waiter, l2_block);
        self.vsv_signals.push(VsvSignal::L2MissDetected {
            demand,
            at: now,
            earliest_return,
        });
    }

    /// Starts (or merges into) the L2 miss for `l2_block`, returning
    /// the scheduled DRAM data-ready time when one is known — the
    /// lower bound carried by [`VsvSignal::L2MissDetected`].
    fn start_l2_miss(&mut self, now: u64, waiter: u64, l2_block: Addr) -> Option<u64> {
        let demand = self.waiters.get(&waiter).is_some_and(|w| w.demand);
        // Slot-pool admission: the fabric's pool caps how many L2
        // misses can be outstanding across all its cores. A merge into
        // an already-in-flight miss needs no new slot, so only a fresh
        // block claims one.
        let pool_slot = !self.inflight_return.contains_key(&l2_block);
        if pool_slot && !self.uncore.try_acquire_mshr() {
            self.retry.push_back((waiter, l2_block));
            return None;
        }
        match self.l2_mshr.allocate(l2_block, waiter, demand) {
            MshrOutcome::Primary => {
                // Request beat on the bus, then DRAM. The response
                // transfer arbitrates only when the data is ready
                // (split transaction), so later requests are not
                // blocked behind this miss's future response slot.
                let (_, req_done) = self.uncore.schedule(now, 0);
                let data_ready = self.uncore.dram_access(req_done);
                self.events.push(data_ready, Event::DramDone { l2_block });
                self.inflight_return.insert(l2_block, data_ready);
                Some(data_ready)
            }
            MshrOutcome::Merged => {
                if pool_slot {
                    self.uncore.release_mshr();
                }
                self.inflight_return.get(&l2_block).copied()
            }
            MshrOutcome::Full => {
                if pool_slot {
                    self.uncore.release_mshr();
                }
                self.retry.push_back((waiter, l2_block));
                None
            }
        }
    }

    /// DRAM data ready: claim the bus for the response transfer.
    fn dram_done(&mut self, l2_block: Addr) {
        let now = self.now;
        let (_, resp_done) = self.uncore.schedule(now, self.cfg.l2.block_bytes);
        self.events.push(resp_done, Event::L2Fill { l2_block });
    }

    fn l2_fill(&mut self, l2_block: Addr) {
        let now = self.now;
        self.stats.memory_refills += 1;
        self.inflight_return.remove(&l2_block);
        // The refill retires its pool slot (held since the primary
        // allocation in `start_l2_miss`).
        self.uncore.release_mshr();
        if self.uncore.l2_fill(l2_block, false).is_some() {
            // Dirty L2 eviction: write back over the bus to memory.
            let (_, wb_done) = self.uncore.schedule(now, self.cfg.l2.block_bytes);
            let _ = self.uncore.dram_access(wb_done);
        }
        let Some((waiter_ids, demand)) = self.l2_mshr.complete(l2_block) else {
            return;
        };
        for id in waiter_ids {
            self.l1_fill(id, DataSource::Memory, 0);
        }
        let outstanding = self.l2_mshr.demand_occupancy();
        self.vsv_signals.push(VsvSignal::L2MissReturned {
            demand,
            at: now,
            outstanding_demand: outstanding,
        });
    }

    fn l1_fill(&mut self, waiter: u64, source: DataSource, attempt: u8) {
        let now = self.now;
        let Some(&w) = self.waiters.get(&waiter) else {
            return;
        };
        // Low-voltage timing-error model: architectural (L1-bound)
        // deliveries may err and retry at the current operating point.
        // Prefetch-buffer fills are non-binding and skip the model (a
        // documented deviation: an erroneous speculative fill is
        // simply useless, never incorrect).
        if w.side != Side::PrefetchBuffer && (self.error_enabled || self.force_error) {
            let mut errs = self.force_error;
            if self.error_enabled {
                // The counter advances on *every* enabled delivery
                // attempt, threshold hit or not, so the draw stream is
                // identical at every operating point — error-rate
                // behavior at VDDH (threshold 0) is bit-identical to
                // the model being off.
                let draw = counter_rng(self.error_seed, self.error_counter);
                self.error_counter += 1;
                errs = errs || (self.error_threshold > 0 && draw < self.error_threshold);
            }
            if errs {
                self.stats.read_errors += 1;
                if attempt < MAX_READ_RETRIES {
                    // Detect, then re-issue the read at the same
                    // level; the waiter stays registered so merged
                    // demands keep targeting it.
                    self.stats.read_retries += 1;
                    self.read_error_events.push(ReadErrorEvent {
                        at: now,
                        attempt,
                        exhausted: false,
                    });
                    self.events.push(
                        now + READ_ERROR_DETECT_NS + READ_ERROR_RETRY_NS,
                        Event::L1Fill {
                            waiter,
                            source,
                            attempt: attempt + 1,
                        },
                    );
                    return;
                }
                // Retry budget exhausted: drop the waiter and report —
                // the simulator escalates to a typed error, so the
                // never-completing MSHR targets cannot deadlock a run.
                self.read_error_events.push(ReadErrorEvent {
                    at: now,
                    attempt,
                    exhausted: true,
                });
                self.force_error = false;
                self.waiters.remove(&waiter);
                self.waiter_index.remove(&(w.side, w.l1_block));
                return;
            }
        }
        if w.side != Side::PrefetchBuffer {
            self.stats.fill_retry_hist[attempt as usize] += 1;
        }
        self.waiters.remove(&waiter);
        self.waiter_index.remove(&(w.side, w.l1_block));
        match w.side {
            Side::Inst => {
                let _ = self.l1i.fill(w.l1_block);
                if let Some((targets, _)) = self.il1_mshr.complete(w.l1_block) {
                    for t in targets {
                        self.completions.push(Completion {
                            token: MemToken(t),
                            at: now,
                            source,
                        });
                    }
                }
            }
            Side::Data => {
                self.fill_l1d(w.l1_block, false);
                if let Some((targets, _)) = self.dl1_mshr.complete(w.l1_block) {
                    for t in targets {
                        self.completions.push(Completion {
                            token: MemToken(t),
                            at: now,
                            source,
                        });
                    }
                }
            }
            Side::PrefetchBuffer => {
                if let Some(pb) = self.prefetch_buffer.as_mut() {
                    let _ = pb.fill(w.l1_block);
                }
            }
        }
    }

    /// Fills the L1-D, propagating a dirty eviction into the L2 tags
    /// and recording every eviction (clean or dirty) for the
    /// dead-block predictor.
    fn fill_l1d(&mut self, l1_block: Addr, dirty: bool) {
        if let Some(victim) = self.l1d.fill_evicting(l1_block, dirty) {
            if victim.dirty {
                let v_l2 = victim.addr.block(self.cfg.l2.block_bytes);
                if !self.uncore.l2_mark_dirty(v_l2) {
                    // Victim not in L2 (e.g. L2 evicted it first):
                    // write-allocate it back, possibly cascading a
                    // dirty L2 eviction to memory.
                    if self.uncore.l2_fill(v_l2, true).is_some() {
                        let now = self.now;
                        let (_, wb_done) = self.uncore.schedule(now, self.cfg.l2.block_bytes);
                        let _ = self.uncore.dram_access(wb_done);
                    }
                }
            }
            self.l1d_evictions.push(victim.addr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_until_complete(mem: &mut Hierarchy, token: MemToken, deadline: u64) -> Completion {
        for now in 0..deadline {
            mem.tick(now);
            if let Some(c) = mem
                .drain_completions()
                .into_iter()
                .find(|c| c.token == token)
            {
                return c;
            }
        }
        panic!("request {token:?} did not complete by {deadline}");
    }

    #[test]
    fn l1_hit_after_refill() {
        let mut mem = Hierarchy::new(HierarchyConfig::baseline());
        let addr = Addr(0x4000);
        let L1Outcome::Miss(tok) = mem.access_data(0, addr, AccessKind::Read) else {
            panic!("expected miss");
        };
        let c = run_until_complete(&mut mem, tok, 500);
        assert_eq!(c.source, DataSource::Memory);
        assert_eq!(
            mem.access_data(c.at, addr, AccessKind::Read),
            L1Outcome::Hit
        );
    }

    #[test]
    fn memory_refill_latency_matches_paper_shape() {
        // detect(12) + req beat(4) + dram(100) + response(8 for 64B)
        let mut mem = Hierarchy::new(HierarchyConfig::baseline());
        let L1Outcome::Miss(tok) = mem.access_data(0, Addr(0), AccessKind::Read) else {
            panic!();
        };
        let c = run_until_complete(&mut mem, tok, 500);
        assert_eq!(c.at, 12 + 4 + 100 + 8);
    }

    #[test]
    fn l2_hit_completes_at_hit_latency() {
        let mut mem = Hierarchy::new(HierarchyConfig::baseline());
        // Warm the L2 with block 0, then evict it from L1 by filling
        // conflicting blocks... simpler: use a second L1 block in the
        // same L2 block (64B L2 blocks hold two 32B L1 blocks).
        let L1Outcome::Miss(t0) = mem.access_data(0, Addr(0), AccessKind::Read) else {
            panic!();
        };
        let c0 = run_until_complete(&mut mem, t0, 500);
        // Addr 32 is a different L1 block but the same L2 block: L2 hit.
        let start = c0.at + 1;
        let L1Outcome::Miss(t1) = mem.access_data(start, Addr(32), AccessKind::Read) else {
            panic!("expected L1 miss for sibling block");
        };
        let c1 = run_until_complete(&mut mem, t1, start + 100);
        assert_eq!(c1.source, DataSource::L2);
        assert_eq!(c1.at, start + 12);
    }

    #[test]
    fn demand_miss_emits_vsv_signals() {
        let mut mem = Hierarchy::new(HierarchyConfig::baseline());
        let L1Outcome::Miss(tok) = mem.access_data(0, Addr(0x100), AccessKind::Read) else {
            panic!();
        };
        let c = run_until_complete(&mut mem, tok, 500);
        let signals = mem.drain_vsv_signals();
        assert!(signals
            .iter()
            .any(|s| matches!(s, VsvSignal::L2MissDetected { demand: true, at, .. } if *at == 12)));
        assert!(signals.iter().any(|s| matches!(
            s,
            VsvSignal::L2MissReturned { demand: true, at, outstanding_demand: 0 } if *at == c.at
        )));
        // The detection carries the scheduled DRAM data-ready time — a
        // provable lower bound on (and here strictly before) the
        // actual return, which adds the response bus transfer.
        let bound = signals
            .iter()
            .find_map(|s| match s {
                VsvSignal::L2MissDetected {
                    earliest_return, ..
                } => Some(*earliest_return),
                VsvSignal::L2MissReturned { .. } => None,
            })
            .expect("a detection was emitted");
        assert_eq!(bound, Some(12 + 4 + 100), "req beat + DRAM latency");
        assert!(bound.expect("scheduled") < c.at);
    }

    #[test]
    fn merged_miss_reports_the_primary_return_bound() {
        let mut mem = Hierarchy::new(HierarchyConfig::baseline());
        // Two L1 blocks in the same L2 block (64B L2 / 32B L1): the
        // second detection merges into the first's L2 MSHR entry and
        // must report the same scheduled return time.
        let L1Outcome::Miss(_) = mem.access_data(0, Addr(0x800), AccessKind::Read) else {
            panic!();
        };
        let L1Outcome::Miss(tok) = mem.access_data(1, Addr(0x820), AccessKind::Read) else {
            panic!("sibling L1 block should miss separately");
        };
        let _ = run_until_complete(&mut mem, tok, 500);
        let bounds: Vec<Option<u64>> = mem
            .drain_vsv_signals()
            .iter()
            .filter_map(|s| match s {
                VsvSignal::L2MissDetected {
                    earliest_return, ..
                } => Some(*earliest_return),
                VsvSignal::L2MissReturned { .. } => None,
            })
            .collect();
        assert_eq!(bounds.len(), 2, "both probes detect the miss");
        assert!(bounds[0].is_some());
        assert_eq!(bounds[0], bounds[1], "merged miss shares the bound");
    }

    #[test]
    fn sw_prefetch_miss_is_not_demand() {
        let mut mem = Hierarchy::new(HierarchyConfig::baseline());
        let L1Outcome::Miss(_) = mem.access_data(0, Addr(0x200), AccessKind::SwPrefetch) else {
            panic!();
        };
        for now in 0..200 {
            mem.tick(now);
        }
        let signals = mem.drain_vsv_signals();
        assert!(signals
            .iter()
            .any(|s| matches!(s, VsvSignal::L2MissDetected { demand: false, .. })));
        assert_eq!(mem.stats().l2_prefetch_misses, 1);
        assert_eq!(mem.stats().l2_demand_misses, 0);
    }

    #[test]
    fn demand_merge_upgrades_prefetch_miss() {
        let mut mem = Hierarchy::new(HierarchyConfig::baseline());
        let L1Outcome::Miss(_) = mem.access_data(0, Addr(0x300), AccessKind::SwPrefetch) else {
            panic!();
        };
        // Merge a demand load into the same L1 block before detection.
        let L1Outcome::Miss(tok) = mem.access_data(5, Addr(0x308), AccessKind::Read) else {
            panic!("expected merged miss");
        };
        let c = run_until_complete(&mut mem, tok, 500);
        let signals = mem.drain_vsv_signals();
        // Detection sees a demand miss because of the merge.
        assert!(signals
            .iter()
            .any(|s| matches!(s, VsvSignal::L2MissDetected { demand: true, .. })));
        assert!(c.at >= 100);
    }

    #[test]
    fn merged_misses_complete_together() {
        let mut mem = Hierarchy::new(HierarchyConfig::baseline());
        let L1Outcome::Miss(t0) = mem.access_data(0, Addr(0x400), AccessKind::Read) else {
            panic!();
        };
        let L1Outcome::Miss(t1) = mem.access_data(1, Addr(0x404), AccessKind::Read) else {
            panic!("second access to same block should merge");
        };
        assert_ne!(t0, t1);
        let mut done = Vec::new();
        for now in 0..500 {
            mem.tick(now);
            done.extend(mem.drain_completions());
            if done.len() == 2 {
                break;
            }
        }
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].at, done[1].at);
        // Only one memory refill for the merged pair.
        assert_eq!(mem.stats().memory_refills, 1);
    }

    #[test]
    fn mshr_full_blocks_access() {
        let mut cfg = HierarchyConfig::baseline();
        cfg.dl1_mshrs = 1;
        let mut mem = Hierarchy::new(cfg);
        let L1Outcome::Miss(_) = mem.access_data(0, Addr(0x000), AccessKind::Read) else {
            panic!();
        };
        match mem.access_data(0, Addr(0x800), AccessKind::Read) {
            L1Outcome::Blocked(StallReason::Dl1MshrFull) => {}
            other => panic!("expected block, got {other:?}"),
        }
    }

    #[test]
    fn inst_side_uses_separate_mshrs() {
        let mut cfg = HierarchyConfig::baseline();
        cfg.dl1_mshrs = 1;
        let mut mem = Hierarchy::new(cfg);
        let L1Outcome::Miss(_) = mem.access_data(0, Addr(0x000), AccessKind::Read) else {
            panic!();
        };
        // Instruction side is unaffected by the data MSHR being full.
        match mem.access_inst(0, Addr(0x1000)) {
            L1Outcome::Miss(_) => {}
            other => panic!("expected inst miss to proceed, got {other:?}"),
        }
    }

    #[test]
    fn hw_prefetch_fills_buffer_then_promotes_to_l1() {
        let mut mem = Hierarchy::new(HierarchyConfig::with_prefetch_buffer());
        assert!(mem.hw_prefetch(0, Addr(0x900)));
        for now in 0..300 {
            mem.tick(now);
        }
        // The demand access now hits the prefetch buffer, not memory.
        match mem.access_data(300, Addr(0x900), AccessKind::Read) {
            L1Outcome::PrefetchBufferHit => {}
            other => panic!("expected PB hit, got {other:?}"),
        }
        assert_eq!(mem.stats().prefetch_buffer_hits, 1);
        // And the block was promoted into the L1.
        assert_eq!(
            mem.access_data(301, Addr(0x900), AccessKind::Read),
            L1Outcome::Hit
        );
    }

    #[test]
    fn hw_prefetch_miss_is_never_demand() {
        let mut mem = Hierarchy::new(HierarchyConfig::with_prefetch_buffer());
        assert!(mem.hw_prefetch(0, Addr(0xa00)));
        for now in 0..300 {
            mem.tick(now);
        }
        for s in mem.drain_vsv_signals() {
            match s {
                VsvSignal::L2MissDetected { demand, .. } => assert!(!demand),
                VsvSignal::L2MissReturned { demand, .. } => assert!(!demand),
            }
        }
    }

    #[test]
    fn hw_prefetch_dropped_without_buffer_or_when_resident() {
        let mut mem = Hierarchy::new(HierarchyConfig::baseline());
        assert!(!mem.hw_prefetch(0, Addr(0x900)), "no buffer configured");

        let mut mem = Hierarchy::new(HierarchyConfig::with_prefetch_buffer());
        let L1Outcome::Miss(tok) = mem.access_data(0, Addr(0xb00), AccessKind::Read) else {
            panic!();
        };
        let c = run_until_complete(&mut mem, tok, 500);
        assert!(!mem.hw_prefetch(c.at, Addr(0xb00)), "already in L1");
        assert_eq!(mem.stats().hw_prefetches_dropped, 1);
    }

    #[test]
    fn outstanding_demand_misses_counts_l2_entries() {
        let mut mem = Hierarchy::new(HierarchyConfig::baseline());
        let _ = mem.access_data(0, Addr(0x0000), AccessKind::Read);
        let _ = mem.access_data(0, Addr(0x8000), AccessKind::Read);
        mem.tick(12); // both misses detected
        assert_eq!(mem.outstanding_demand_misses(), 2);
        for now in 13..500 {
            mem.tick(now);
        }
        assert_eq!(mem.outstanding_demand_misses(), 0);
        assert!(mem.quiescent());
    }

    #[test]
    fn bus_serialises_simultaneous_misses() {
        let mut mem = Hierarchy::new(HierarchyConfig::baseline());
        let L1Outcome::Miss(t0) = mem.access_data(0, Addr(0x0000), AccessKind::Read) else {
            panic!();
        };
        let L1Outcome::Miss(t1) = mem.access_data(0, Addr(0x8000), AccessKind::Read) else {
            panic!();
        };
        let c0 = run_until_complete(&mut mem, t0, 500);
        let c1 = run_until_complete(&mut mem, t1, 500);
        assert!(c1.at > c0.at, "second miss pays bus serialisation");
    }

    #[test]
    fn l1d_evictions_are_reported() {
        // Tiny L1 to force evictions quickly.
        let mut cfg = HierarchyConfig::baseline();
        cfg.l1d = CacheConfig {
            capacity_bytes: 64,
            assoc: 1,
            block_bytes: 32,
            hit_latency: 2,
        };
        let mut mem = Hierarchy::new(cfg);
        // Write block A (dirty), then fill B mapping to the same set.
        let L1Outcome::Miss(t0) = mem.access_data(0, Addr(0x000), AccessKind::Write) else {
            panic!();
        };
        let c0 = run_until_complete(&mut mem, t0, 500);
        // Dirty the resident block.
        assert_eq!(
            mem.access_data(c0.at, Addr(0x000), AccessKind::Write),
            L1Outcome::Hit
        );
        let L1Outcome::Miss(t1) = mem.access_data(c0.at + 1, Addr(0x040), AccessKind::Read) else {
            panic!();
        };
        let _ = run_until_complete(&mut mem, t1, 1000);
        let evictions = mem.drain_l1d_evictions();
        assert!(evictions.contains(&Addr(0x000)));
    }
}

#[cfg(test)]
mod pressure_tests {
    use super::*;

    fn drain(mem: &mut Hierarchy, from: u64, to: u64) -> Vec<Completion> {
        let mut done = Vec::new();
        for now in from..to {
            mem.tick(now);
            done.extend(mem.drain_completions());
        }
        done
    }

    #[test]
    fn l2_mshr_full_requests_queue_and_eventually_complete() {
        let mut cfg = HierarchyConfig::baseline();
        cfg.l2_mshrs = 1;
        let mut mem = Hierarchy::new(cfg);
        let mut tokens = Vec::new();
        for i in 0..4u64 {
            match mem.access_data(0, Addr(0x10_0000 + i * 4096), AccessKind::Read) {
                L1Outcome::Miss(t) => tokens.push(t),
                other => panic!("expected miss, got {other:?}"),
            }
        }
        let done = drain(&mut mem, 1, 2_000);
        assert_eq!(done.len(), 4, "all retried misses must complete");
        for t in tokens {
            assert!(done.iter().any(|c| c.token == t));
        }
        assert!(mem.quiescent());
    }

    #[test]
    fn shared_mshr_pool_exhaustion_retries_until_every_miss_completes() {
        let mut cfg = HierarchyConfig::baseline();
        cfg.l2_mshrs = 1;
        let fabric = crate::SharedFabric::new(cfg, 2).into_shared();
        let mut mems: Vec<Hierarchy> = (0..2)
            .map(|core| {
                let mut mem = Hierarchy::new(cfg);
                mem.attach_shared(SharedHandle::new(std::rc::Rc::clone(&fabric), core));
                mem
            })
            .collect();
        // Four cold misses per core against one chip-wide MSHR slot:
        // each core's probes find the pool held by the other core (or
        // by its own earlier miss) and queue for retry.
        let mut tokens: Vec<Vec<MemToken>> = vec![Vec::new(); 2];
        for (mem, tokens) in mems.iter_mut().zip(&mut tokens) {
            for i in 0..4u64 {
                match mem.access_data(0, Addr(0x10_0000 + i * 4096), AccessKind::Read) {
                    L1Outcome::Miss(t) => tokens.push(t),
                    other => panic!("expected miss, got {other:?}"),
                }
            }
        }
        let mut done: Vec<Vec<Completion>> = vec![Vec::new(); 2];
        for now in 1..10_000 {
            for (mem, done) in mems.iter_mut().zip(&mut done) {
                mem.tick(now);
                done.extend(mem.drain_completions());
            }
        }
        for ((mem, done), tokens) in mems.iter().zip(&done).zip(&tokens) {
            assert_eq!(done.len(), 4, "every retried miss must complete");
            for t in tokens {
                assert!(done.iter().any(|c| c.token == *t));
            }
            assert!(mem.quiescent());
        }
        let stalls: u64 = (0..2)
            .map(|i| fabric.borrow().core_stats(i).shared_mshr_stalls)
            .sum();
        assert!(stalls > 0, "the single slot must have been contended");
    }

    #[test]
    fn dirty_l1_victim_with_evicted_l2_copy_reallocates_into_l2() {
        // Deliberately inverted geometry (L1 with more sets than the
        // L2) so a block can be displaced from the L2 while staying
        // dirty in the L1: the later L1 eviction must write-allocate
        // it back into the L2 rather than lose the dirty data.
        let mut cfg = HierarchyConfig::baseline();
        cfg.l1d = CacheConfig {
            capacity_bytes: 256,
            assoc: 1,
            block_bytes: 32,
            hit_latency: 2,
        };
        cfg.l2 = CacheConfig {
            capacity_bytes: 128,
            assoc: 1,
            block_bytes: 64,
            hit_latency: 12,
        };
        let mut mem = Hierarchy::new(cfg);

        // Write block A (L1+L2 resident, dirty in L1).
        let a = Addr(0x0000);
        let L1Outcome::Miss(_) = mem.access_data(0, a, AccessKind::Write) else {
            panic!()
        };
        drain(&mut mem, 1, 400);
        assert_eq!(mem.access_data(400, a, AccessKind::Write), L1Outcome::Hit);

        // Evict A's copy from the L2 (same L2 set 0 via +128, which is
        // L1 set 4 — so A stays resident and dirty in the L1).
        let l2_conflict = Addr(128);
        let L1Outcome::Miss(_) = mem.access_data(401, l2_conflict, AccessKind::Read) else {
            panic!()
        };
        drain(&mut mem, 402, 800);
        assert!(!mem.uncore.l2_probe(a), "A must be gone from the L2");
        assert!(mem.l1d().probe(a), "A still dirty in the L1");

        // Evict A from the L1 (same L1 set 0 via +256): the dirty
        // victim must be write-allocated back into the L2.
        let l1_conflict = Addr(256);
        let L1Outcome::Miss(_) = mem.access_data(801, l1_conflict, AccessKind::Read) else {
            panic!()
        };
        drain(&mut mem, 802, 1_400);
        assert!(mem.drain_l1d_evictions().contains(&a));
        assert!(
            mem.uncore.l2_probe(a),
            "the dirty victim must be re-allocated into the L2"
        );
    }

    #[test]
    fn prefetch_buffer_is_fifo_bounded() {
        let mut mem = Hierarchy::new(HierarchyConfig::with_prefetch_buffer());
        // Issue more prefetches than the 128-entry buffer holds.
        for i in 0..160u64 {
            assert!(mem.hw_prefetch(i * 2, Addr(0x40_0000 + i * 32)));
        }
        let mut now = 320;
        for _ in 0..2_000 {
            mem.tick(now);
            now += 1;
        }
        // The earliest prefetched block was pushed out of the FIFO...
        match mem.access_data(now, Addr(0x40_0000), AccessKind::Read) {
            L1Outcome::Miss(_) => {}
            other => panic!("first prefetch should be evicted from PB, got {other:?}"),
        }
        // ...but a late one still hits the buffer.
        match mem.access_data(now + 1, Addr(0x40_0000 + 159 * 32), AccessKind::Read) {
            L1Outcome::PrefetchBufferHit => {}
            other => panic!("latest prefetch should hit PB, got {other:?}"),
        }
    }

    #[test]
    fn inst_and_data_streams_are_independent() {
        let mut mem = Hierarchy::new(HierarchyConfig::baseline());
        let L1Outcome::Miss(ti) = mem.access_inst(0, Addr(0x1000)) else {
            panic!()
        };
        let L1Outcome::Miss(td) = mem.access_data(0, Addr(0x1000), AccessKind::Read) else {
            panic!("same address misses separately in the D-side");
        };
        assert_ne!(ti, td);
        let done = drain(&mut mem, 1, 400);
        assert!(done.iter().any(|c| c.token == ti));
        assert!(done.iter().any(|c| c.token == td));
        // Both L1s now hold the block independently.
        assert_eq!(mem.access_inst(400, Addr(0x1000)), L1Outcome::Hit);
        assert_eq!(
            mem.access_data(400, Addr(0x1000), AccessKind::Read),
            L1Outcome::Hit
        );
    }

    #[test]
    fn vsv_signal_order_is_detect_before_return() {
        let mut mem = Hierarchy::new(HierarchyConfig::baseline());
        let _ = mem.access_data(0, Addr(0x77_0000), AccessKind::Read);
        for now in 1..400 {
            mem.tick(now);
        }
        let signals = mem.drain_vsv_signals();
        assert_eq!(signals.len(), 2);
        match (&signals[0], &signals[1]) {
            (
                VsvSignal::L2MissDetected { at: t_detect, .. },
                VsvSignal::L2MissReturned { at: t_return, .. },
            ) => assert!(t_detect < t_return),
            other => panic!("unexpected signal order: {other:?}"),
        }
    }

    #[test]
    fn forced_read_error_retries_then_exhausts() {
        let mut mem = Hierarchy::new(HierarchyConfig::baseline());
        mem.arm_forced_read_error();
        let L1Outcome::Miss(tok) = mem.access_data(0, Addr(0x6000), AccessKind::Read) else {
            panic!()
        };
        for now in 1..600 {
            mem.tick(now);
        }
        // Every attempt erred: 1 initial + MAX retries, then escalation.
        let mut errors = Vec::new();
        mem.take_read_error_events_into(&mut errors);
        assert_eq!(errors.len(), usize::from(MAX_READ_RETRIES) + 1);
        assert!(errors[..errors.len() - 1].iter().all(|e| !e.exhausted));
        let last = errors.last().expect("nonempty");
        assert!(last.exhausted);
        assert_eq!(last.attempt, MAX_READ_RETRIES);
        // Each retry costs detect + reissue.
        assert_eq!(
            errors[1].at - errors[0].at,
            READ_ERROR_DETECT_NS + READ_ERROR_RETRY_NS
        );
        // The read never completes; the simulator escalates instead.
        assert!(!mem.drain_completions().iter().any(|c| c.token == tok));
        assert_eq!(mem.stats().read_errors, u64::from(MAX_READ_RETRIES) + 1);
        assert_eq!(mem.stats().read_retries, u64::from(MAX_READ_RETRIES));
    }

    #[test]
    fn certain_error_rate_retries_every_fill() {
        let mut mem = Hierarchy::new(HierarchyConfig::baseline());
        mem.enable_read_error_model(42);
        mem.set_read_error_threshold(u64::MAX); // p = 1: every attempt errs
        let L1Outcome::Miss(_) = mem.access_data(0, Addr(0x7000), AccessKind::Read) else {
            panic!()
        };
        for now in 1..600 {
            mem.tick(now);
        }
        let mut errors = Vec::new();
        mem.take_read_error_events_into(&mut errors);
        assert!(errors.last().is_some_and(|e| e.exhausted));
    }

    #[test]
    fn zero_threshold_draws_but_never_errs() {
        let run = |enable: bool| {
            let mut mem = Hierarchy::new(HierarchyConfig::baseline());
            if enable {
                mem.enable_read_error_model(42);
                mem.set_read_error_threshold(0);
            }
            let L1Outcome::Miss(tok) = mem.access_data(0, Addr(0x9000), AccessKind::Read) else {
                panic!()
            };
            let done = drain(&mut mem, 1, 500);
            done.iter()
                .find(|c| c.token == tok)
                .expect("completes clean")
                .at
        };
        // Threshold 0 (= VDDH) is bit-identical to the model being off.
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn retried_fill_succeeds_and_lands_in_the_histogram() {
        let mut mem = Hierarchy::new(HierarchyConfig::baseline());
        mem.enable_read_error_model(7);
        // Find a seed/counter pair where the first draw errs but the
        // second succeeds under a 50% threshold... simpler: use a
        // threshold of 1/2 and scan addresses until one retried fill
        // completes.
        mem.set_read_error_threshold(1u64 << 63);
        let mut retried_success = false;
        let mut at = 0u64;
        for i in 0..64u64 {
            let addr = Addr(0x20_0000 + i * 4096);
            let L1Outcome::Miss(tok) = mem.access_data(at, addr, AccessKind::Read) else {
                panic!()
            };
            let mut done = None;
            for now in at + 1..at + 2_000 {
                mem.tick(now);
                if let Some(c) = mem.drain_completions().into_iter().find(|c| c.token == tok) {
                    done = Some(c);
                    break;
                }
                let mut errs = Vec::new();
                mem.take_read_error_events_into(&mut errs);
                if errs.iter().any(|e| e.exhausted) {
                    break;
                }
            }
            at += 2_000;
            if let Some(_c) = done {
                let hist = mem.stats().fill_retry_hist;
                if hist[1..].iter().sum::<u64>() > 0 {
                    retried_success = true;
                    break;
                }
            }
        }
        assert!(retried_success, "no retried fill completed in 64 tries");
    }

    #[test]
    fn reset_stats_clears_counters_but_keeps_contents() {
        let mut mem = Hierarchy::new(HierarchyConfig::baseline());
        let L1Outcome::Miss(_) = mem.access_data(0, Addr(0x5000), AccessKind::Read) else {
            panic!()
        };
        for now in 1..400 {
            mem.tick(now);
        }
        assert!(mem.stats().l2_demand_misses > 0);
        mem.reset_stats();
        assert_eq!(mem.stats().l2_demand_misses, 0);
        // Contents survive: the block still hits.
        assert_eq!(
            mem.access_data(400, Addr(0x5000), AccessKind::Read),
            L1Outcome::Hit
        );
    }
}
