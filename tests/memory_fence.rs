//! The memory fence: an engine's heap follows its cache, not the number
//! of updates it has applied.
//!
//! The repository keeps only the update history the cache can still ask
//! for — the records above each resident copy's applied version — and
//! forgets the rest as the cache's floor moves. This test counts the
//! engine's live heap with its own global allocator and checks, for
//! NoCache, Replica and VCover on one seeded stream:
//!
//! * at every event, the records the repository retains are exactly
//!   Σ (version − applied) over the residents — zero throughout for
//!   NoCache, which caches nothing;
//! * NoCache's and Replica's live heap at event 2N is no larger than at
//!   event N plus [`SLACK`];
//! * VCover's live heap never exceeds [`VCOVER_BOUND`].

use delta::core::{CachingPolicy, Engine, NoCache, Replica, VCover};
use delta::storage::ObjectCatalog;
use delta::workload::{SyntheticSurvey, Trace, WorkloadConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the bytes live on the allocating thread. Per-thread, so the
/// test harness's own threads cannot move the count; the engine under
/// test allocates and frees on the test thread only.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn count(delta: isize) {
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

fn live() -> isize {
    LIVE.with(Cell::get)
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap growth allowed between event N and event 2N for the policies
/// whose cache state is fixed in size: objects first updated in the
/// second half each get one small log allocation, and nothing else may
/// grow.
const SLACK: isize = 16 * 1024;

/// VCover's cover graph is capped per object and in retained queries,
/// so its heap is bounded by the catalog, not by the stream length. On
/// this stream it peaks near 0.3 MiB.
const VCOVER_BOUND: isize = 1024 * 1024;

fn survey() -> SyntheticSurvey {
    let mut cfg = WorkloadConfig::small();
    cfg.n_queries = 10_000;
    cfg.n_updates = 10_000;
    SyntheticSurvey::generate(&cfg)
}

/// What one policy's run measured.
struct Run {
    /// Live engine heap after event N and after event 2N.
    at_half: isize,
    at_end: isize,
    /// Largest live engine heap seen at any event.
    peak: isize,
    /// Largest retained-record count seen at any event.
    retained_max: u64,
}

fn run(policy: Box<dyn CachingPolicy>, catalog: &ObjectCatalog, trace: &Trace) -> Run {
    let cache = (catalog.total_bytes() as f64 * 0.3) as u64;
    let before = live();
    let mut engine = Engine::new(policy, catalog, cache);
    engine.init(None);
    let half = trace.len() / 2;
    let mut out = Run {
        at_half: 0,
        at_end: 0,
        peak: 0,
        retained_max: 0,
    };
    for (i, event) in trace.iter().enumerate() {
        engine.apply(event).unwrap();
        let heap = live() - before;
        out.peak = out.peak.max(heap);
        if i + 1 == half {
            out.at_half = heap;
        }

        let repo = engine.repo();
        let lag: u64 = engine
            .cache()
            .iter()
            .map(|(o, r)| repo.version(o) - r.applied_version)
            .sum();
        let retained = repo.retained();
        assert_eq!(
            retained,
            lag,
            "{} retains {retained} update records after event {i} but its residents lag by {lag}",
            engine.policy_name()
        );
        out.retained_max = out.retained_max.max(retained);
    }
    out.at_end = live() - before;
    eprintln!(
        "{}: heap {} B at N, {} B at 2N, peak {} B; retained max {}",
        engine.policy_name(),
        out.at_half,
        out.at_end,
        out.peak,
        out.retained_max
    );
    out
}

#[test]
fn engine_heap_follows_the_cache_not_the_update_count() {
    let s = survey();
    let updates = s.trace.n_updates() as u64;

    let nocache = run(Box::new(NoCache), &s.catalog, &s.trace);
    assert_eq!(
        nocache.retained_max, 0,
        "NoCache caches nothing to lag behind"
    );

    let replica = run(Box::new(Replica), &s.catalog, &s.trace);
    for (name, r) in [("NoCache", &nocache), ("Replica", &replica)] {
        assert!(
            r.at_end <= r.at_half + SLACK,
            "{name}'s heap grew from {} B at event N to {} B at event 2N ({updates} updates)",
            r.at_half,
            r.at_end
        );
    }

    let cache = (s.catalog.total_bytes() as f64 * 0.3) as u64;
    let vcover = run(Box::new(VCover::new(cache, 7)), &s.catalog, &s.trace);
    assert!(
        vcover.retained_max > 0,
        "the stream must leave VCover's residents lagging at some point"
    );
    assert!(
        vcover.peak <= VCOVER_BOUND,
        "VCover's heap peaked at {} B, over the {VCOVER_BOUND} B bound",
        vcover.peak
    );
}
