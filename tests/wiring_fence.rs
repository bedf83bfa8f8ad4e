//! The wiring fence: what the VCover decisions add to the cover graph, as
//! exact counts, on `decision_fence`'s capped stream.
//!
//! A query needs a prefix of each object's segments, and the relay chains
//! wire it once per object instead of once per segment of that prefix; a
//! split or a new tail segment adds one relay and two edges, a coalesce
//! none. This pins the whole-run totals and checks, decision by decision,
//! that no query wires more than one edge per object it reads plus two
//! per segment it created.

use delta::core::{simulate, CachingPolicy, SimContext, SimOptions, VCover};
use delta::storage::{ObjectCatalog, ObjectId};
use delta::workload::{Event, QueryEvent, QueryKind, Trace, UpdateEvent};

/// `decision_fence`'s stream, event for event.
const SIZES: [u64; 6] = [2_000, 3_000, 120_000, 40_000, 200_000, 60_000];
const EVENTS: u64 = 11_000;
const WARMUP: u64 = 1_500;

fn stream() -> Trace {
    let mut x = 0x2010_0607_dead_beefu64;
    let mut rng = move |n: u64| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) % n
    };
    let mut events = Vec::new();
    for seq in 1..=EVENTS {
        if seq > WARMUP && rng(10) < 3 {
            let object = if rng(2) == 0 { rng(2) } else { 2 + rng(4) };
            let bytes = if object < 2 {
                5_000_000 + rng(1_000_000)
            } else {
                500 + rng(8_000)
            };
            events.push(Event::Update(UpdateEvent {
                seq,
                object: ObjectId(object as u32),
                bytes,
            }));
            continue;
        }
        let first = if rng(3) < 2 { rng(2) } else { 2 + rng(4) };
        let mut objects = vec![ObjectId(first as u32)];
        if rng(4) == 0 {
            let second = rng(SIZES.len() as u64);
            if second != first {
                objects.push(ObjectId(second as u32));
                objects.sort();
            }
        }
        let cheap = seq > WARMUP && objects.iter().any(|o| o.0 < 2);
        let result_bytes = match (cheap, rng(40)) {
            (true, _) => 1 + rng(40),
            (false, 0) => 5_000_000,
            (false, _) => 50 + rng(3_000),
        };
        events.push(Event::Query(QueryEvent {
            seq,
            objects,
            result_bytes,
            tolerance: if rng(3) == 0 { 0 } else { 1 + rng(3_000) },
            kind: QueryKind::Cone,
        }));
    }
    Trace::new(events)
}

/// VCover with the per-decision bound checked around every query.
struct Fenced {
    inner: VCover,
    decisions: u64,
}

impl CachingPolicy for Fenced {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn init(&mut self, ctx: &mut SimContext<'_>) {
        self.inner.init(ctx);
    }

    fn on_query(&mut self, q: &QueryEvent, ctx: &mut SimContext<'_>) {
        let before = self.inner.update_manager_stats();
        self.inner.on_query(q, ctx);
        let after = self.inner.update_manager_stats();
        let wired = after.wiring_edges - before.wiring_edges;
        let created = (after.segment_splits - before.segment_splits)
            + (after.segments_appended - before.segments_appended);
        assert!(
            wired <= q.objects.len() as u64 + 2 * created,
            "query {} wired {wired} edges for {} objects and {created} new segments",
            q.seq,
            q.objects.len()
        );
        self.decisions += u64::from(after.solves > before.solves);
    }

    fn on_update(&mut self, u: &UpdateEvent, ctx: &mut SimContext<'_>) {
        self.inner.on_update(u, ctx);
    }
}

#[test]
fn capped_stream_wires_once_per_object() {
    let catalog = ObjectCatalog::from_sizes(&SIZES);
    let opts = SimOptions {
        cache_bytes: 4_000_000,
        sample_every: EVENTS,
        link: None,
    };
    let mut fenced = Fenced {
        inner: VCover::new(opts.cache_bytes, 20100607),
        decisions: 0,
    };
    simulate(&mut fenced, &catalog, &stream(), opts);
    let um = fenced.inner.update_manager_stats();
    assert_eq!(fenced.decisions, um.solves);

    assert_eq!(
        um.segment_splits, 1_087,
        "the same stream as decision_fence"
    );
    assert_eq!(um.segments_appended, 1_282);
    assert_eq!(um.wiring_edges, 10_695);
}
