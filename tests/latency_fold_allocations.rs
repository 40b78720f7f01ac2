//! Allocation regression test: folding one run's latency report into a
//! long-lived aggregate pays for that run, not for everything the
//! aggregate has seen.
//!
//! The serving front end folds every batch's `LatencyReport` into one
//! lifetime aggregate, under the world lock and before the batch's results
//! are stamped. Here a one-transaction run's report, once with no blocked
//! span and once with one, is folded into aggregates that have seen 8 and
//! 2,048 distinct blocked objects. A counting global allocator around
//! [`System`] counts the allocations of the fold alone; the fold into the
//! 2,048-object aggregate may make at most 5% plus 16 more than the fold
//! into the 8-object one. Unlike a timing gate, the count does not move
//! with host load.
//!
//! The binary holds this one test so that no other test allocates while a
//! fold is being counted. Run it with
//! `cargo test --release --test latency_fold_allocations -- --nocapture`
//! to see the counts.

use obase::core::ids::{ExecId, ObjectId};
use obase::obs::{LatencyReport, ObsEvent, ObsStamped};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// [`System`], counting every allocation and reallocation.
struct Counting;

/// Allocations so far. `Relaxed`: a statistic that publishes no other data.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method passes its caller's arguments unchanged to the same
// method of `System`, so `System`'s guarantees hold for the caller; the
// count beside it touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn at(at_micros: u64, event: ObsEvent) -> ObsStamped {
    ObsStamped { at_micros, event }
}

/// The report of a run of one transaction that blocks once on each of
/// `blocked_on`, in turn, for 1 to 40 µs.
fn one_transaction(blocked_on: &[ObjectId]) -> LatencyReport {
    let top = ExecId(0);
    let mut events = vec![
        at(
            0,
            ObsEvent::Submit {
                spec: 0,
                attempt: 0,
            },
        ),
        at(
            3,
            ObsEvent::Admit {
                top,
                spec: 0,
                attempt: 0,
            },
        ),
    ];
    let mut t = 5;
    for (i, &object) in blocked_on.iter().enumerate() {
        let shard = i % 4;
        events.push(at(t, ObsEvent::BlockBegin { top, object, shard }));
        t += 1 + (i as u64 * 7) % 40;
        events.push(at(t, ObsEvent::BlockEnd { top, object, shard }));
    }
    events.push(at(t + 10, ObsEvent::CertifyBegin { top }));
    events.push(at(t + 12, ObsEvent::Commit { top }));
    LatencyReport::from_events(&[("worker-0".to_owned(), events)])
}

/// An aggregate that has seen `objects` distinct blocked objects.
fn aggregate(objects: u32) -> LatencyReport {
    let ids: Vec<ObjectId> = (0..objects).map(ObjectId).collect();
    let mut aggregate = one_transaction(&ids);
    aggregate.merge(&one_transaction(&[]));
    aggregate
}

/// The fewest allocations any of 10 folds of `run` into a fresh copy of
/// `aggregate` made.
fn fold_allocations(aggregate: &LatencyReport, run: &LatencyReport) -> u64 {
    (0..10)
        .map(|_| {
            let mut into = aggregate.clone();
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            into.merge(run);
            let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
            assert_eq!(into.e2e().count(), aggregate.e2e().count() + 1);
            made
        })
        .min()
        .expect("ten folds")
}

#[test]
fn a_fold_allocates_for_the_run_not_for_the_aggregate() {
    let (small, large) = (aggregate(8), aggregate(2_048));
    let unblocked = one_transaction(&[]);
    // An object neither aggregate has seen, so the fold adds a key.
    let blocked = one_transaction(&[ObjectId(1_000_000)]);
    for (label, run) in [
        ("no blocked span", &unblocked),
        ("one blocked span", &blocked),
    ] {
        let at_8 = fold_allocations(&small, run);
        let at_2048 = fold_allocations(&large, run);
        println!(
            "allocations per fold of a run with {label}: {at_8} into 8 blocked objects, \
             {at_2048} into 2048"
        );
        let bound = at_8 + at_8 / 20 + 16;
        assert!(
            at_2048 <= bound,
            "folding a run with {label} into an aggregate of 2048 blocked objects made \
             {at_2048} allocations against {at_8} into 8 (bound {bound}): the fold is paying \
             for the aggregate's size"
        );
    }
}
