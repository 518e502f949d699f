//! The campaign-level allocation ratchet: a pooled scenario run on a warm
//! [`PlatformPool`] must stay under a hard allocation ceiling.
//!
//! A fresh 100k-cycle platform slice used to cost ~677k allocations, almost
//! all of it re-provisioning (RSA keygen + image/TA signing) and rebuilding
//! platform buffers per run. With the pool, provisioning is cached per cell
//! and the platform is recycled through [`cres_platform::Platform::reset`],
//! so a warm pooled run must do none of that work again. The ceiling here
//! (and the matching `platform_slice_100k` gate in `bench_report`) is the
//! ratchet: it can go down, never up.
//!
//! Also pins the warm evidence-append path at **zero** allocations — the
//! record's category/payload strings are inline [`cres_ssm::EvText`] now,
//! and the incremental Merkle accumulator appends without rebuilding any
//! tree.
//!
//! Allocations are counted per thread: libtest runs the two tests on
//! parallel threads, and a shared counter would charge the pooled run's
//! allocations to the append window.

use cres_platform::config::{PlatformConfig, PlatformProfile};
use cres_platform::runner::{Scenario, ScenarioRunner};
use cres_platform::PlatformPool;
use cres_sim::{SimDuration, SimTime};
use cres_ssm::EvidenceStore;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Hard ceiling for one warm pooled 100k-cycle run. Headroom over the
/// measured count (513 in both the release and the test profile) without
/// letting re-provisioning (~600k), wholesale buffer rebuilds, a boxed
/// closure per scheduled event or an allocating task step (22,560 with a
/// cloned block and a write buffer per step) sneak back in.
const POOLED_RUN_ALLOC_CEILING: u64 = 1_000;

struct CountingAlloc;

thread_local! {
    // `const`-initialised and without a destructor, so counting never
    // allocates inside the allocator and works during thread teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    ALLOCS.with(|allocs| allocs.set(allocs.get() + 1));
}

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: delegates every operation to `System` unchanged; the counter is
// a side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn slice_scenario() -> Scenario {
    Scenario::quiet(SimDuration::cycles(100_000))
}

#[test]
fn warm_pooled_run_stays_under_alloc_ceiling() {
    let config = PlatformConfig::new(PlatformProfile::CyberResilient, 42);
    let mut pool = PlatformPool::new();

    // Warm-up: provisions the cell, builds the platform, grows every
    // lazily sized buffer.
    let warm = ScenarioRunner::new(config).run_pooled(&mut pool, slice_scenario());
    assert!(warm.boot_ok);

    let before = allocs();
    let report = ScenarioRunner::new(config).run_pooled(&mut pool, slice_scenario());
    let after = allocs();

    assert!(report.boot_ok);
    assert_eq!(report, warm, "pooled rerun diverged from its own warm-up");
    let allocs = after - before;
    assert!(
        allocs <= POOLED_RUN_ALLOC_CEILING,
        "warm pooled 100k-cycle run performed {allocs} heap allocations \
         (ceiling {POOLED_RUN_ALLOC_CEILING}); the provisioning cache or \
         platform recycling regressed"
    );
    let stats = pool.stats();
    assert_eq!(
        (stats.provision_hits, stats.provision_misses),
        (1, 1),
        "provisioning was not cached"
    );
}

#[test]
fn warm_evidence_append_is_allocation_free() {
    let mut store = EvidenceStore::new(b"alloc-ratchet-key");
    // Warm past the 1024→2048 Vec doubling so the measured window sits
    // strictly inside existing capacity.
    for i in 0..1152u64 {
        store.append(SimTime::at_cycle(i), "bench", "payload line");
    }

    let before = allocs();
    for i in 1152..1408u64 {
        store.append(SimTime::at_cycle(i), "bench", "payload line");
    }
    let after = allocs();

    assert_eq!(
        after - before,
        0,
        "warm evidence append allocated {} times over 256 records; \
         category/payload must stay inline and the accumulator must not \
         rebuild the tree",
        after - before
    );
    assert_eq!(store.records().len(), 1408);
}
