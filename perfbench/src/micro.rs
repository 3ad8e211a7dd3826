//! Hot-structure microbenchmarks: cache lookup, RUU ready scan, event
//! queue and shared-fabric access, each replaying inputs recorded from
//! a workload's run through the structure's public API, timed with
//! `std::time::Instant` only.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use vsv_isa::{Addr, Inst, OpClass};
use vsv_mem::{AccessKind, Cache, CacheConfig, EventQueue, Hierarchy, HierarchyConfig, L1Outcome};
use vsv_mem::{SharedFabric, SharedHandle};
use vsv_uarch::{CoreConfig, Ruu};

use crate::stats::median;

/// Repetitions of each microbenchmark; the reported figure is their
/// median.
pub const REPS: usize = 7;

/// Cost of one `Instant::now()`, ns: subtracted from every interval
/// that a pair of chained readings brackets.
#[must_use]
pub fn instant_overhead_ns() -> f64 {
    const N: u32 = 200_000;
    let mut samples = Vec::with_capacity(5);
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..N {
            black_box(Instant::now());
        }
        samples.push(t.elapsed().as_nanos() as f64 / f64::from(N));
    }
    median(&samples)
}

/// Runs `rep` [`REPS`] times; each returns (elapsed ns, operations).
/// Returns each repetition's ns per operation.
fn repeat(mut rep: impl FnMut() -> (f64, u64)) -> Vec<f64> {
    (0..REPS)
        .map(|_| match rep() {
            (_, 0) => 0.0,
            (ns, n) => ns / n as f64,
        })
        .collect()
}

/// The data accesses of `insts`: (address, is a store).
#[must_use]
pub fn data_accesses(insts: &[Inst]) -> Vec<(Addr, bool)> {
    insts
        .iter()
        .filter_map(|i| match i.op() {
            OpClass::Load | OpClass::Store => i.mem_addr().map(|a| (a, i.op() == OpClass::Store)),
            _ => None,
        })
        .collect()
}

/// Cache lookup: every recorded data access through a fresh L1 data
/// cache. Also returns the addresses that missed (the fabric replay's
/// input).
#[must_use]
pub fn cache_lookup(accesses: &[(Addr, bool)], cfg: CacheConfig) -> (Vec<f64>, Vec<Addr>) {
    let mut misses = Vec::new();
    let mut first = true;
    let per_op = repeat(|| {
        let mut cache = Cache::new(cfg);
        let t = Instant::now();
        for &(addr, write) in accesses {
            let hit = cache.access(black_box(addr), write);
            if !hit {
                cache.fill(addr);
                if first {
                    misses.push(addr);
                }
            }
        }
        let ns = t.elapsed().as_nanos() as f64;
        first = false;
        (ns, accesses.len() as u64)
    });
    (per_op, misses)
}

/// RUU ready scan: the recorded instructions flow through a window of
/// the core's size, issuing up to the issue width per cycle and
/// completing on the next; each cycle's `ready_seqs_into` is timed.
#[must_use]
pub fn ruu_scan(insts: &[Inst], core: &CoreConfig, instant_ns: f64) -> Vec<f64> {
    repeat(|| {
        let mut ruu = Ruu::new(core.ruu_entries, core.lsq_entries);
        let mut ready = Vec::with_capacity(core.issue_width);
        let mut issued: Vec<u64> = Vec::with_capacity(core.issue_width);
        let mut next = insts.iter();
        let mut pending = next.next();
        let (mut ns, mut scans) = (0.0, 0u64);
        for cycle in 0.. {
            for seq in issued.drain(..) {
                ruu.complete(seq);
            }
            while ruu.commit_ready().is_some() {
                ruu.pop_commit();
            }
            let mut dispatched = 0;
            while let Some(&inst) = pending {
                if dispatched == core.decode_width || !ruu.can_dispatch(&inst) {
                    break;
                }
                ruu.dispatch(inst, false);
                dispatched += 1;
                pending = next.next();
            }
            if ruu.is_empty() && pending.is_none() {
                break;
            }
            let t = Instant::now();
            ruu.ready_seqs_into(core.issue_width, &mut ready);
            ns += t.elapsed().as_nanos() as f64 - instant_ns;
            scans += 1;
            for &seq in &ready {
                ruu.mark_issued(seq, cycle);
                issued.push(seq);
            }
        }
        (ns.max(0.0), scans)
    })
}

/// Event queue: the recorded (scheduled at, fires at) memory-event
/// pattern replayed through a fresh queue, popping ready events every
/// nanosecond as the hierarchy does. Reports ns per queue call.
#[must_use]
pub fn event_queue(pattern: &[(u64, u64)]) -> Vec<f64> {
    let (Some(&(start, _)), Some(end)) = (pattern.first(), pattern.iter().map(|p| p.1).max())
    else {
        return vec![0.0];
    };
    repeat(|| {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut out = Vec::new();
        let mut calls = 0u64;
        let mut next = pattern.iter().peekable();
        let t = Instant::now();
        for now in start..=end {
            while let Some(&&(at, fires)) = next.peek() {
                if at > now {
                    break;
                }
                q.push(fires, black_box(fires));
                calls += 1;
                next.next();
            }
            q.pop_ready_into(now, &mut out);
            calls += 1;
            black_box(&out);
        }
        (t.elapsed().as_nanos() as f64, calls)
    })
}

/// Outstanding fabric misses the replay allows at once: below the
/// shared L2-MSHR pool (`l2_mshrs`, 64 by default). `Hierarchy::tick`
/// spins without end when a core holds a pending retry while the pool
/// is exhausted, so the replay must never exhaust it.
const FABRIC_INFLIGHT: usize = 48;

/// Shared-fabric access: the recorded L1-missing addresses spread
/// round-robin over `cores` hierarchies attached to one shared fabric,
/// at most one new access per nanosecond and at most
/// [`FABRIC_INFLIGHT`] outstanding, every hierarchy ticked every
/// nanosecond until the fabric drains. Reports ns per access.
#[must_use]
pub fn fabric_access(misses: &[Addr], cfg: HierarchyConfig, cores: usize) -> Vec<f64> {
    let inflight_cap = FABRIC_INFLIGHT
        .min(cfg.l2_mshrs.saturating_sub(cfg.l2_mshrs / 4))
        .max(1);
    repeat(|| {
        let fabric = Rc::new(RefCell::new(SharedFabric::new(cfg, cores)));
        let mut hier: Vec<Hierarchy> = (0..cores)
            .map(|i| {
                let mut h = Hierarchy::new(cfg);
                h.attach_shared(SharedHandle::new(Rc::clone(&fabric), i));
                h
            })
            .collect();
        let mut done = Vec::new();
        let mut evicted = Vec::new();
        let (mut issued, mut inflight) = (0u64, 0usize);
        let mut now = 0u64;
        let mut pending = misses.iter().enumerate().peekable();
        // A bound on simulated time, should an access never drain.
        let limit = 1_000 * misses.len() as u64 + 1_000_000;
        let t = Instant::now();
        loop {
            if inflight < inflight_cap {
                if let Some(&(i, &addr)) = pending.peek() {
                    match hier[i % cores].access_data(now, addr, AccessKind::Read) {
                        L1Outcome::Blocked(_) => {}
                        L1Outcome::Miss(_) => {
                            inflight += 1;
                            issued += 1;
                            pending.next();
                        }
                        L1Outcome::Hit | L1Outcome::PrefetchBufferHit => {
                            issued += 1;
                            pending.next();
                        }
                    }
                }
            }
            for h in &mut hier {
                h.tick(now);
                h.take_completions_into(&mut done);
                h.take_l1d_evictions_into(&mut evicted);
                h.visit_vsv_signals(|s| {
                    black_box(s);
                });
                inflight = inflight.saturating_sub(done.len());
                done.clear();
                evicted.clear();
            }
            let drained = pending.peek().is_none() && inflight == 0;
            if drained || now >= limit {
                break;
            }
            now += 1;
        }
        (t.elapsed().as_nanos() as f64, issued)
    })
}
