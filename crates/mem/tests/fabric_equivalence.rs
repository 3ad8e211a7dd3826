//! The one-uncore-path contract at the memory layer: a standalone
//! [`Hierarchy`], which owns a one-core [`SharedFabric`], behaves
//! exactly like one core of a two-core fabric whose other core stays
//! idle. The shared L2 tags each core's blocks above the index bits and
//! the MSHR slot pool keeps its single-core size, so nothing about the
//! idle neighbour may show.
//!
//! Random read / write / instruction-fetch / software-prefetch /
//! hardware-prefetch traces run against a small L1-D and L2, a
//! prefetch buffer, and an L2 MSHR pool cut to 4 slots, so L1 and L2
//! evictions, dirty write-backs, prefetch-buffer hits, pool rejections
//! and retries all happen. Half the cases also enable the low-voltage
//! read-error model. Both hierarchies must produce the same L1
//! outcomes, completions, VSV signals, read errors, L1-D evictions,
//! [`HierarchyStats`] and per-core [`FabricCoreStats`].
//!
//! Inputs come from a seeded xorshift generator over fixed seeds, as in
//! the workspace property tests: a failure names the case, whose seed
//! reproduces the exact trace.

use std::rc::Rc;

use vsv_isa::Addr;
use vsv_mem::{
    AccessKind, CacheConfig, CacheStats, Completion, FabricCoreStats, Hierarchy, HierarchyConfig,
    HierarchyStats, L1Outcome, ReadErrorEvent, SharedFabric, SharedHandle, VsvSignal,
};

/// Random traces checked.
const CASES: u64 = 48;

/// Memory operations per trace.
const OPS: usize = 600;

/// Distinct 32-byte blocks a trace touches (a 32 KB footprint: four
/// times the L2 below).
const BLOCKS: u64 = 1024;

/// Blocks in the hot region that half the accesses reuse, so L1 hits,
/// MSHR merges and prefetch-buffer hits occur.
const HOT_BLOCKS: u64 = 48;

/// Nanoseconds a trace may take to drain after its last operation.
const DRAIN_NS: u64 = 20_000;

/// Marsaglia's xorshift64.
struct XorShift64(u64);

impl XorShift64 {
    fn new(case: u64) -> Self {
        XorShift64(case.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Read,
    Write,
    Inst,
    SwPrefetch,
    HwPrefetch,
}

/// One operation: issue time (ns), kind, address.
type TraceOp = (u64, Op, Addr);

fn trace(case: u64) -> Vec<TraceOp> {
    let mut r = XorShift64::new(case);
    let mut at = 0;
    (0..OPS)
        .map(|_| {
            at += r.below(3);
            let op = match r.below(16) {
                0..=6 => Op::Read,
                7..=10 => Op::Write,
                11 => Op::Inst,
                12 => Op::SwPrefetch,
                _ => Op::HwPrefetch,
            };
            let block = if r.below(2) == 0 {
                r.below(HOT_BLOCKS)
            } else {
                r.below(BLOCKS)
            };
            (at, op, Addr(0x10_0000 + block * 32 + r.below(32)))
        })
        .collect()
}

/// A small L1-D and L2 (so both evict, dirty blocks included), the
/// Time-Keeping prefetch buffer, and an L2 MSHR pool of 4.
fn config() -> HierarchyConfig {
    let mut cfg = HierarchyConfig::with_prefetch_buffer();
    cfg.l1d = CacheConfig {
        capacity_bytes: 1024,
        assoc: 2,
        block_bytes: 32,
        hit_latency: 2,
    };
    cfg.l2 = CacheConfig {
        capacity_bytes: 8 * 1024,
        assoc: 4,
        block_bytes: 64,
        hit_latency: 12,
    };
    cfg.l2_mshrs = 4;
    cfg
}

/// Everything the active hierarchy reported over one trace.
#[derive(Debug, Default, PartialEq)]
struct Transcript {
    /// Each access's immediate outcome (`None` for a hardware
    /// prefetch, whose outcome is `issued`).
    outcomes: Vec<(Option<L1Outcome>, bool)>,
    completions: Vec<Completion>,
    signals: Vec<VsvSignal>,
    read_errors: Vec<ReadErrorEvent>,
    evictions: Vec<Addr>,
    stats: HierarchyStats,
    fabric: FabricCoreStats,
    l2: CacheStats,
}

/// Ticks every hierarchy to `now` in index order (the lockstep order)
/// and collects the active one's output.
fn settle(mems: &mut [Hierarchy], active: usize, now: u64, t: &mut Transcript) {
    for mem in mems.iter_mut() {
        mem.tick(now);
    }
    let mem = &mut mems[active];
    t.completions.extend(mem.drain_completions());
    t.signals.extend(mem.drain_vsv_signals());
    t.evictions.extend(mem.drain_l1d_evictions());
    let mut errors = Vec::new();
    mem.take_read_error_events_into(&mut errors);
    t.read_errors.extend(errors);
}

/// Runs `ops` on `mems[active]` while the other hierarchies stay idle,
/// then drains until every refill has landed.
fn drive(mems: &mut [Hierarchy], active: usize, ops: &[TraceOp], case: u64) -> Transcript {
    let mut t = Transcript::default();
    let mut now = 0;
    for &(at, op, addr) in ops {
        while now < at {
            now += 1;
            settle(mems, active, now, &mut t);
        }
        let mem = &mut mems[active];
        let outcome = match op {
            Op::Read => Some(mem.access_data(now, addr, AccessKind::Read)),
            Op::Write => Some(mem.access_data(now, addr, AccessKind::Write)),
            Op::SwPrefetch => Some(mem.access_data(now, addr, AccessKind::SwPrefetch)),
            Op::Inst => Some(mem.access_inst(now, addr)),
            Op::HwPrefetch => None,
        };
        let issued = outcome.is_none() && mem.hw_prefetch(now, addr);
        t.outcomes.push((outcome, issued));
    }
    let deadline = now + DRAIN_NS;
    while !mems[active].quiescent() {
        assert!(now < deadline, "case {case}: trace did not drain");
        now += 1;
        settle(mems, active, now, &mut t);
    }
    let mem = &mems[active];
    t.stats = mem.stats();
    t.fabric = mem.fabric_stats();
    t.l2 = mem.cache_stats().2;
    t
}

fn with_error_model(mut mem: Hierarchy, case: u64) -> Hierarchy {
    if case % 2 == 1 {
        mem.enable_read_error_model(case);
        mem.set_read_error_threshold(u64::MAX / 16);
    }
    mem
}

/// A standalone hierarchy and either core of a two-core fabric (the
/// other core idle) report identical transcripts on every trace.
#[test]
fn standalone_hierarchy_matches_one_core_of_an_idle_pair() {
    let cfg = config();
    let mut totals = (HierarchyStats::default(), FabricCoreStats::default());
    for case in 0..CASES {
        let ops = trace(case);
        let solo = drive(
            &mut [with_error_model(Hierarchy::new(cfg), case)],
            0,
            &ops,
            case,
        );
        for active in 0..2 {
            let fabric = SharedFabric::new(cfg, 2).into_shared();
            let mut pair: Vec<Hierarchy> = (0..2)
                .map(|core| {
                    let mut mem = Hierarchy::new(cfg);
                    mem.attach_shared(SharedHandle::new(Rc::clone(&fabric), core));
                    with_error_model(mem, case)
                })
                .collect();
            let chip = drive(&mut pair, active, &ops, case);
            assert!(
                chip == solo,
                "case {case}: core {active} of an idle pair diverged from the standalone \
                 hierarchy\n chip: {:?} {:?}\n solo: {:?} {:?}",
                chip.stats,
                chip.fabric,
                solo.stats,
                solo.fabric
            );
            let idle = pair[1 - active].fabric_stats();
            assert_eq!(idle, FabricCoreStats::default(), "case {case}: idle core");
        }
        let (stats, fabric) = &mut totals;
        stats.hw_prefetches += solo.stats.hw_prefetches;
        stats.prefetch_buffer_hits += solo.stats.prefetch_buffer_hits;
        stats.l2_prefetch_misses += solo.stats.l2_prefetch_misses;
        stats.read_retries += solo.stats.read_retries;
        fabric.shared_mshr_stalls += solo.fabric.shared_mshr_stalls;
        fabric.dram_accesses += solo.fabric.dram_accesses;
        fabric.bus_wait_ns += solo.fabric.bus_wait_ns;
    }
    // The traces must reach the paths the contract is about.
    let (stats, fabric) = totals;
    assert!(stats.hw_prefetches > 0, "no hardware prefetch issued");
    assert!(stats.prefetch_buffer_hits > 0, "no prefetch-buffer hit");
    assert!(stats.l2_prefetch_misses > 0, "no prefetch-only L2 miss");
    assert!(stats.read_retries > 0, "no read-error retry");
    assert!(
        fabric.shared_mshr_stalls > 0,
        "the MSHR pool never rejected"
    );
    assert!(fabric.bus_wait_ns > 0, "the bus never queued");
    assert!(fabric.dram_accesses > 0, "no DRAM traffic");
}
