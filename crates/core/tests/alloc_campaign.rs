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
//! A cold cell gets a ceiling too: one `provision` per benchmark
//! provisioning seed, so RSA's modular exponentiation cannot go back to a
//! heap multiply and division per step.
//!
//! Also pins the warm evidence-append path at **zero** allocations — the
//! record's category/payload strings are inline [`cres_ssm::EvText`] now,
//! and the incremental Merkle accumulator appends without rebuilding any
//! tree.
//!
//! Heap bytes get a ratchet as well: warm pooled devices may hold only
//! about one device's memory image between them, so a pool that keeps the
//! old SoC alive while it builds the new one, or a memory map that backs
//! regions nothing writes, fails it.
//!
//! Allocations and live bytes are counted per thread: libtest runs the
//! tests on parallel threads, and a shared counter would charge the pooled
//! run's allocations to the append window.

use cres_platform::campaign::ScenarioSpec;
use cres_platform::config::{PlatformConfig, PlatformProfile};
use cres_platform::provision::provision;
use cres_platform::runner::{Scenario, ScenarioRunner};
use cres_platform::PlatformPool;
use cres_sim::{SimDuration, SimTime};
use cres_ssm::EvidenceStore;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Hard ceiling for one warm pooled 100k-cycle run: about twice the
/// measured count (254 in both the release and the test profile; 513
/// before boot verification's RSA stopped allocating per step). Keeps
/// re-provisioning, wholesale buffer rebuilds, a boxed closure per
/// scheduled event or an allocating task step (22,560 with a cloned block
/// and a write buffer per step) from sneaking back in.
const POOLED_RUN_ALLOC_CEILING: u64 = 500;

/// Hard ceiling for one cold `provision` (RSA keygen, image and TA
/// signing, TEE set-up): about twice the largest count measured at the
/// benchmark's provisioning seeds 8, 11 and 1979 (922, 1,071 and 8,311 in
/// both the release and the test profile; seed 1979's prime search draws
/// the most candidates). The heap schoolbook exponentiation cost 175,756,
/// 246,782 and 1,299,716.
const COLD_PROVISION_ALLOC_CEILING: u64 = 16_000;

/// Hard ceiling, in bytes, on the heap that 64 warm pooled fleet-style
/// devices hold at their peak above what the idle pool held before them:
/// about twice the measured 5,778 bytes (test and release profiles). It
/// read 1,776,061 while every region was backed at build, 1,344 KiB a
/// device, and a reset built the new SoC beside the old one.
const WARM_DEVICE_PEAK_HEAP_CEILING: i64 = 12 << 10;

struct CountingAlloc;

thread_local! {
    // `const`-initialised and without a destructor, so counting never
    // allocates inside the allocator and works during thread teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated minus the bytes it freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// Highest `LIVE` since the last [`reset_peak`].
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn count_alloc() {
    ALLOCS.with(|allocs| allocs.set(allocs.get() + 1));
}

/// Adds `bytes` (negative when freed) to the calling thread's live heap.
fn count_bytes(bytes: i64) {
    let live = LIVE.with(|live| {
        live.set(live.get() + bytes);
        live.get()
    });
    PEAK.with(|peak| peak.set(peak.get().max(live)));
}

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Heap bytes the calling thread holds now.
fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// Starts a new peak at the calling thread's live heap.
fn reset_peak() {
    PEAK.with(|peak| peak.set(live()));
}

/// The calling thread's highest live heap since [`reset_peak`].
fn peak() -> i64 {
    PEAK.with(Cell::get)
}

fn signed(bytes: usize) -> i64 {
    i64::try_from(bytes).expect("allocation fits i64")
}

// SAFETY: delegates every operation to `System` unchanged; the counters
// are side effects only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        count_bytes(signed(layout.size()));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_bytes(-signed(layout.size()));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        count_bytes(signed(new_size) - signed(layout.size()));
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

/// Fleet-style device `id`: one of three profiles at one of two seeds,
/// quiet or under one of five catalog attacks, 60k cycles.
fn fleet_device(pool: &mut PlatformPool, id: usize) {
    const PROFILES: [PlatformProfile; 3] = [
        PlatformProfile::CyberResilient,
        PlatformProfile::PassiveTrust,
        PlatformProfile::TeeShared,
    ];
    const ATTACKS: [Option<&str>; 6] = [
        None,
        Some("code-injection"),
        Some("memory-probe"),
        Some("dma-exfil"),
        Some("firmware-downgrade"),
        Some("network-flood"),
    ];
    let config = PlatformConfig::new(PROFILES[id % 3], 42 + (id / 3 % 2) as u64);
    let mut spec = ScenarioSpec::quiet(SimDuration::cycles(60_000));
    if let Some(name) = ATTACKS[id % ATTACKS.len()] {
        spec = spec.attack(
            name.to_string(),
            SimTime::at_cycle(20_000),
            SimDuration::cycles(5_000),
        );
    }
    let scenario = spec
        .materialise(&cres_attacks::catalog::try_build)
        .expect("catalog attack");
    let report = ScenarioRunner::new(config).run_pooled(pool, scenario);
    assert!(report.boot_ok);
}

#[test]
fn warm_pooled_devices_hold_one_memory_image() {
    let mut pool = PlatformPool::new();
    // Warm-up: every cell under every attack, so the cache is full and
    // each lazily sized buffer has grown.
    for id in 0..36 {
        fleet_device(&mut pool, id);
    }
    let misses = pool.stats().provision_misses;
    let idle = live();
    reset_peak();
    for id in 36..100 {
        fleet_device(&mut pool, id);
    }
    let above_idle = peak() - idle;
    assert!(
        above_idle <= WARM_DEVICE_PEAK_HEAP_CEILING,
        "64 warm pooled devices peaked at {} KiB above the idle pool \
         (ceiling {} KiB); the pool holds two SoCs at once or regions are \
         backed before their first write",
        above_idle >> 10,
        WARM_DEVICE_PEAK_HEAP_CEILING >> 10
    );
    assert_eq!(
        pool.stats().provision_misses,
        misses,
        "a warm cell was provisioned again"
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

#[test]
fn cold_provisioning_stays_under_alloc_ceiling() {
    for seed in [8, 11, 1979] {
        let config = PlatformConfig::new(PlatformProfile::CyberResilient, seed);
        let before = allocs();
        let cell = provision(&config);
        let allocs = allocs() - before;
        assert_eq!(cell.vendor.public.modulus_len(), config.rsa_bits / 8);
        assert!(
            allocs <= COLD_PROVISION_ALLOC_CEILING,
            "cold provisioning of seed {seed} performed {allocs} heap allocations \
             (ceiling {COLD_PROVISION_ALLOC_CEILING}); RSA arithmetic regressed"
        );
    }
}
