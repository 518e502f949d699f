//! The fleet-level allocation ratchet: once a shard's pool has seen every
//! provisioning cell, each further device must cost bounded heap — spec
//! forking, one summary, and the warm pooled run itself — with no
//! re-provisioning (RSA keygen, ~600k allocs) sneaking back in. Runs the
//! exact per-device body the fleet worker runs, minus threads and
//! channels, so the count is stable under CI scheduling.

use cres_fleet::spec::{DeviceSpec, FleetConfig};
use cres_fleet::summary::DeviceSummary;
use cres_platform::runner::ScenarioRunner;
use cres_platform::PlatformPool;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Hard per-device ceiling for a warm shard (60k-cycle device). Measured:
/// 13,947 in release and 13,927 in the test profile, spec forking and a
/// summary included (see `alloc_campaign` in cres-platform for the pooled
/// run alone). A boxed closure per scheduled event would cost 16,244;
/// re-provisioning alone would blow through this 40x over.
const WARM_DEVICE_ALLOC_CEILING: u64 = 15_000;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System` unchanged; the counter is
// a side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn run_device(config: &FleetConfig, pool: &mut PlatformPool, id: u32) -> DeviceSummary {
    let spec = DeviceSpec::generate(config, id);
    let scenario = spec
        .scenario_spec()
        .materialise(&cres_attacks::catalog::try_build)
        .expect("catalog attack");
    let report =
        ScenarioRunner::new(spec.platform_config(config.telemetry)).run_pooled(pool, scenario);
    DeviceSummary::from_report(id, &report)
}

#[test]
fn warm_shard_devices_stay_under_alloc_ceiling() {
    let mut config = FleetConfig::new(40, 42);
    config.device_cycles = 60_000;
    let mut pool = PlatformPool::new();

    // Warm-up: enough devices to touch every provisioning cell
    // (batches × TEE deployments) and grow every lazily sized buffer.
    for id in 0..24 {
        run_device(&config, &mut pool, id);
    }
    let (_, misses_warm) = pool.provision_cache_stats();

    const MEASURED: u64 = 16;
    let before = ALLOCS.load(Ordering::Relaxed);
    for id in 24..40 {
        let summary = run_device(&config, &mut pool, id);
        assert_eq!(summary.device, id);
    }
    let after = ALLOCS.load(Ordering::Relaxed);

    let (_, misses_after) = pool.provision_cache_stats();
    assert_eq!(
        misses_warm, misses_after,
        "a provisioning cell was first seen inside the measured window; \
         extend the warm-up"
    );
    let per_device = (after - before) / MEASURED;
    assert!(
        per_device <= WARM_DEVICE_ALLOC_CEILING,
        "warm fleet device cost {per_device} heap allocations \
         (ceiling {WARM_DEVICE_ALLOC_CEILING}); provisioning caching or \
         platform recycling regressed in the fleet path"
    );
    let stats = pool.stats();
    assert!(
        stats.hit_rate() >= 0.9,
        "steady-state shard pool hit rate {:.3} < 0.9 ({stats:?})",
        stats.hit_rate()
    );
}
