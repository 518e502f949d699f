//! Proof that the steady-state monitor→SSM→evidence tick and the task
//! step are allocation-free.
//!
//! A counting global allocator wraps `System`; after warming the platform
//! up (so every lazily grown buffer — the event buffer, the fault-plane
//! scratch, monitor ring cursors, SSM correlation windows — has reached
//! its steady capacity), one full no-incident tick must perform **zero**
//! heap allocations: benign bus traffic, a full `sample_monitors_buffered`
//! pass over every monitor, and `ingest_sampled` through the SSM. So must
//! a thousand rounds of task steps, each through the bus, the MPU, the tap
//! ring and the CFI and syscall monitors, with and without MPU denials.
//!
//! This is the tentpole contract of the allocation-free hot path: if any
//! future change re-introduces a per-tick or per-step `String`, `Vec`, or
//! `format!`, these tests fail with the exact allocation count.
//!
//! Allocations are counted per thread: libtest runs the tests on parallel
//! threads, and a shared counter would charge one test's allocations to
//! the other's window.

use cres_platform::runner::ScenarioRunner;
use cres_platform::{Platform, PlatformConfig, PlatformProfile};
use cres_sim::SimTime;
use cres_soc::addr::MasterId;
use cres_soc::soc::layout;
use cres_soc::task::TaskId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::Range;

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

/// One steady-state tick: kick the watchdog, issue benign in-policy bus
/// traffic, sample every monitor into the reusable buffer, ingest.
fn tick(p: &mut Platform, n: u64) -> usize {
    let now = SimTime::at_cycle(n * 5_000);
    p.soc.watchdog.kick(now);
    let sram = layout::SRAM.0;
    for k in 0..32u64 {
        let _ = p.soc.bus.write(
            SimTime::at_cycle(n * 5_000 - 32 + k),
            MasterId::CPU0,
            sram.offset(64 + 8 * k),
            &[0u8; 8],
            &mut p.soc.mem,
        );
    }
    let collected = p.sample_monitors_buffered(now);
    let plans = p.ingest_sampled(now);
    assert!(plans.is_empty(), "steady-state tick raised a response plan");
    collected
}

#[test]
fn steady_state_tick_is_allocation_free() {
    let mut p = Platform::new(PlatformConfig::new(PlatformProfile::CyberResilient, 7));
    p.train_syscall_monitor(50);

    // Warm-up: let every internal buffer reach steady capacity.
    for n in 1..=32u64 {
        let collected = tick(&mut p, n);
        assert_eq!(collected, 0, "warm-up tick {n} emitted events");
    }

    // The measured tick must not touch the heap at all.
    let before = allocs();
    let collected = tick(&mut p, 33);
    let after = allocs();

    assert_eq!(collected, 0, "measured tick emitted events");
    assert_eq!(
        after - before,
        0,
        "steady-state tick performed {} heap allocations; the hot path \
         must stay allocation-free",
        after - before
    );
}

/// Steps tasks 1–3 of the default workload once per round, 1,000 cycles
/// apart.
fn step_rounds(p: &mut Platform, rounds: Range<u64>) {
    for round in rounds {
        let now = SimTime::at_cycle(round * 1_000);
        for id in 1..=3 {
            p.step_task_and_observe(TaskId(id), now);
        }
    }
}

#[test]
fn task_step_is_allocation_free() {
    for deny_periph in [false, true] {
        let mut p = Platform::new(PlatformConfig::new(PlatformProfile::CyberResilient, 7));
        ScenarioRunner::install_default_workload(&mut p);
        p.train_syscall_monitor(50);
        if deny_periph {
            // task 1 runs on CPU0 and reads and writes the peripheral window
            let periph = p.soc.mem.region_by_name("periph").expect("layout").id();
            p.soc.mem.revoke(MasterId::CPU0, periph);
        }

        // Warm-up: let the tap ring and the monitors' buffers settle.
        step_rounds(&mut p, 0..2_000);

        let denied_before = p.soc.bus.stats(MasterId::CPU0).denied;
        let before = allocs();
        step_rounds(&mut p, 2_000..3_000);
        let after = allocs();
        let denied = p.soc.bus.stats(MasterId::CPU0).denied - denied_before;

        assert_eq!(
            denied > 0,
            deny_periph,
            "CPU0 saw {denied} denials in the measured window"
        );
        assert_eq!(
            after - before,
            0,
            "3,000 task steps (periph denied: {deny_periph}) performed {} heap \
             allocations; the task step must stay allocation-free",
            after - before
        );
    }
}
