//! Property tests of the ordered executor against a naive sequential
//! fold. Whatever the item count, worker count and schedule, `fold` sees
//! every index exactly once and in order, the folded values equal
//! `(0..items).map(work)`, every item is counted to exactly one worker,
//! and at most `REORDER_WINDOW + workers` finished results wait for the
//! fold — even when one slow item lets every other worker race ahead.

use cres_platform::campaign::{run_ordered, REORDER_WINDOW};
use proptest::prelude::*;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// The work under test: a pure function of the index.
fn value(index: usize) -> u64 {
    (index as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(17)
}

/// Runs [`run_and_check`] on its own thread, so an executor that loses a
/// result or parks a worker too early fails the test instead of hanging it.
fn check(items: usize, workers: usize, slow: usize) {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        run_and_check(items, workers, slow);
        tx.send(()).expect("the test is waiting");
    });
    match rx.recv_timeout(Duration::from_secs(30)) {
        Ok(()) => handle.join().expect("the check passed"),
        Err(RecvTimeoutError::Disconnected) => {
            resume_unwind(handle.join().expect_err("the check failed"))
        }
        Err(RecvTimeoutError::Timeout) => {
            panic!("{items} items on {workers} workers (slow item {slow}) hung")
        }
    }
}

/// Runs `items` items on `workers` workers, holding item `slow` until
/// every other item the executor can finish meanwhile has finished: the
/// items before it, a full window after it, and one more per other worker,
/// which then parks. Checks the result against the naive fold and the
/// finished-but-unfolded count against the window.
fn run_and_check(items: usize, workers: usize, slow: usize) {
    let effective = workers.clamp(1, items.max(1));
    let gate = if effective > 1 && slow < items {
        (items - 1).min(slow + REORDER_WINDOW - 1 + effective - 1)
    } else {
        0
    };
    let finished = Mutex::new(0usize);
    let progressed = Condvar::new();
    let pending = AtomicUsize::new(0);
    let peak = AtomicUsize::new(0);
    let mut folded = Vec::with_capacity(items);
    let stats = run_ordered(
        items,
        workers,
        |_, index| {
            if index == slow {
                let done = finished.lock().expect("no test code panics holding it");
                drop(progressed.wait_while(done, |done| *done < gate));
            }
            let now = pending.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            if index != slow {
                *finished.lock().expect("no test code panics holding it") += 1;
                progressed.notify_all();
            }
            (index, value(index))
        },
        |result| {
            pending.fetch_sub(1, Ordering::SeqCst);
            folded.push(result);
        },
    );

    let naive: Vec<(usize, u64)> = (0..items).map(|index| (index, value(index))).collect();
    assert_eq!(folded, naive, "{items} items on {workers} workers");
    assert_eq!(stats.len(), effective);
    assert!(stats.iter().enumerate().all(|(i, s)| s.worker == i));
    assert_eq!(stats.iter().map(|s| s.items).sum::<usize>(), items);
    let peak = peak.into_inner();
    assert!(
        peak <= REORDER_WINDOW + effective,
        "{peak} results waited for the fold ({items} items, {effective} workers)"
    );
    if gate > 0 {
        // the slow item really did let the others fill the window
        assert!(peak >= (items - slow).min(REORDER_WINDOW + effective - 1));
    }
}

proptest! {
    #[test]
    fn fold_equals_the_naive_sequential_fold(
        items in 0usize..=300,
        workers in 1usize..=8,
        slow in 0usize..300,
    ) {
        check(items, workers, slow % items.max(1));
    }
}

#[test]
fn empty_and_tiny_runs_with_idle_workers() {
    for items in [0, 1, 2, 5] {
        for workers in 1..=8 {
            check(items, workers, 0);
            check(items, workers, items.saturating_sub(1));
        }
    }
}
