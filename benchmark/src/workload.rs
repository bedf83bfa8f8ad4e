//! Trace generation from `--seed`, and the wire frames cut from it.
//!
//! The served program never sees the seed: it receives the catalog
//! (object sizes) at start-up and the generated events over the wire.

use crate::spec::{Frames, Seeding, Segments, Spec};
use delta_server::{BatchItem, Request};
use delta_storage::ObjectCatalog;
use delta_workload::{Event, SyntheticSurvey};

/// Relative half-width of the per-event byte-size jitter.
const JITTER: f64 = 0.01;

/// SplitMix64 — the jitter stream; one draw per event, so the stream
/// stays aligned with the trace whatever the events are.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn jitter(bytes: u64, state: &mut u64) -> u64 {
    let u = (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
    let factor = 1.0 + JITTER * (2.0 * u - 1.0);
    ((bytes as f64 * factor) as u64).max(1)
}

/// Generates the workload's catalog and events from `seed`.
pub fn generate(spec: &Spec, seed: u64) -> (ObjectCatalog, Vec<Event>) {
    let mut config = spec.config.clone();
    match spec.seeding {
        Seeding::Full => {
            config.seed = seed;
            let survey = SyntheticSurvey::generate(&config);
            (survey.catalog, survey.trace.events)
        }
        Seeding::Jitter { scenario } => {
            config.seed = scenario;
            let survey = SyntheticSurvey::generate(&config);
            let mut events = survey.trace.events;
            let mut state = seed;
            for event in &mut events {
                match event {
                    Event::Query(q) => q.result_bytes = jitter(q.result_bytes, &mut state),
                    Event::Update(u) => u.bytes = jitter(u.bytes, &mut state),
                }
            }
            (survey.catalog, events)
        }
    }
}

fn single(event: &Event) -> Request {
    match event {
        Event::Query(q) => Request::Query(q.clone()),
        Event::Update(u) => Request::Update(*u),
    }
}

fn tagged(corr: u64, inner: Request) -> Request {
    Request::Tagged {
        corr,
        inner: Box::new(inner),
    }
}

/// Wraps `events` as `Tagged(Batch)` frames of `size` items; the
/// correlation id is the frame's index.
pub fn batch_frames(events: &[Event], size: usize) -> Vec<Request> {
    events
        .chunks(size)
        .enumerate()
        .map(|(i, chunk)| {
            let items = chunk
                .iter()
                .map(|e| match e {
                    Event::Query(q) => BatchItem::Query(q.clone()),
                    Event::Update(u) => BatchItem::Update(*u),
                })
                .collect();
            tagged(i as u64, Request::Batch(items))
        })
        .collect()
}

/// Wraps `events` as single-event `Tagged` frames; the correlation id
/// is the event's index in `events`.
pub fn single_frames(events: &[Event]) -> Vec<Request> {
    events
        .iter()
        .enumerate()
        .map(|(i, e)| tagged(i as u64, single(e)))
        .collect()
}

/// Every frame of one run, built once during set-up. Frame `Request`s
/// own their events, so the trace itself is kept only for the oracle.
pub struct Plan {
    pub catalog: ObjectCatalog,
    pub events: Vec<Event>,
    pub segments: Segments,
    /// Seconds spent in the trace generator alone.
    pub generate_s: f64,
    /// Unmeasured warm-up frames, in the closed phase's frame shape.
    pub warmup: Vec<Request>,
    /// Closed-phase frames.
    pub closed: Vec<Request>,
    /// Paced-phase frames (always single-event).
    pub paced: Vec<Request>,
}

impl Plan {
    pub fn build(spec: &Spec, seed: u64, seconds: u64) -> Plan {
        let t0 = std::time::Instant::now();
        let (catalog, mut events) = generate(spec, seed);
        let generate_s = t0.elapsed().as_secs_f64();
        let segments = spec.segments(seconds);
        events.truncate(segments.total());
        let (warm, rest) = events.split_at(segments.warmup);
        let (closed, paced) = rest.split_at(segments.closed);
        let shape = |events: &[Event]| match spec.frames {
            Frames::Batch { size, .. } => batch_frames(events, size),
            Frames::Single { .. } => single_frames(events),
        };
        let warmup = shape(warm);
        let closed_frames = shape(closed);
        let paced_frames = single_frames(paced);
        Plan {
            catalog,
            segments,
            generate_s,
            warmup,
            closed: closed_frames,
            paced: paced_frames,
            events,
        }
    }

    /// The events of the closed segment.
    pub fn closed_events(&self) -> &[Event] {
        &self.events[self.segments.warmup..self.segments.warmup + self.segments.closed]
    }

    /// The events of the paced segment.
    pub fn paced_events(&self) -> &[Event] {
        &self.events[self.segments.warmup + self.segments.closed..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for spec in spec::all() {
            let spec = spec.quick();
            let (cat_a, a) = generate(&spec, 7);
            let (cat_b, b) = generate(&spec, 7);
            let (_, c) = generate(&spec, 8);
            assert_eq!(a, b, "{}", spec.name);
            assert_eq!(cat_a.len(), cat_b.len());
            assert_ne!(a, c, "{}", spec.name);
        }
    }

    #[test]
    fn jitter_stays_within_one_percent_and_keeps_order() {
        let spec = spec::by_name("sdss_mixed").unwrap().quick();
        let (_, a) = generate(&spec, 1);
        let (_, b) = generate(&spec, 2);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.seq(), y.seq());
            let (bx, by) = (x.ship_bytes() as f64, y.ship_bytes() as f64);
            assert!((bx - by).abs() <= 0.0202 * bx.max(by) + 1.0);
        }
    }

    #[test]
    fn plan_frames_every_event_exactly_once() {
        let spec = spec::by_name("small_frames").unwrap().quick();
        let plan = Plan::build(&spec, 3, 10);
        assert_eq!(plan.closed.len(), plan.segments.closed);
        assert_eq!(plan.paced.len(), plan.segments.paced);
        assert_eq!(plan.events.len(), plan.segments.total());
    }
}
