//! Parked node replies: the reactor's per-connection reply queue and
//! the per-loop backend that releases it when replication offsets
//! settle (see [`crate::replication`] for the settle predicate).
//!
//! A node's handler serves each frame as soon as it arrives and hands
//! the response to the connection's `ReplyQueue` together with the
//! `(log, offset)` pairs the frame's events must reach on every backup
//! before the client may see them:
//!
//! * a reply with nothing to wait for, or whose offsets already
//!   settled, and nothing parked ahead of it is written straight to the
//!   write buffer — every reply at `--replicas 0`, which never touches
//!   the backend;
//! * anything else is parked. Replies leave strictly in arrival order,
//!   so only the queue's head is ever watched: its first unsettled
//!   offset is registered with the log through the loop's
//!   `AckBackend`, whose wake pipe the log pokes once that offset
//!   settles, and the loop resumes the connection;
//! * the head also carries a [`REPL_WAIT_MAX`] deadline, held as an
//!   entry of the backend's timer wheel. Past it the reply leaves
//!   unreplicated and counts under `replica.acked_below_r`.
//!
//! Invariant: a reply leaves only once its offsets settled or its
//! deadline fired, and never ahead of an earlier reply on its
//! connection.

use crate::connection::LoopBackend;
use crate::protocol::{append_frame_with, Response};
use crate::replication::{ReplState, SettleWaker, REPL_WAIT_MAX};
use delta_net::{TrafficClass, TrafficMeter};
use delta_reactor::{TimerKey, TimerWheel};
use delta_telemetry::{Counter, Histogram, Telemetry};
use std::any::Any;
use std::collections::VecDeque;
use std::io::{self, Read};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A replication log and the offset a reply waits for on it.
pub(crate) type Wait = (Arc<ReplState>, u64);

/// Parked replies per connection before the front stops reading its
/// frames (handler saturation backpressure).
const MAX_PARKED: usize = 128;

/// The backend's only descriptor token: its ack wake pipe.
pub(crate) const ACK_PIPE_TOKEN: usize = 0;

/// The replication metrics the parking path records.
#[derive(Clone)]
pub(crate) struct ParkTelemetry {
    /// Replies one settle wake released on a loop — the group-commit
    /// factor.
    replies_per_ack: Arc<Histogram>,
    /// Replies that left on their deadline with offsets unsettled.
    acked_below_r: Arc<Counter>,
}

impl ParkTelemetry {
    /// Resolves the handles from a node registry.
    pub(crate) fn register(t: &Telemetry) -> ParkTelemetry {
        ParkTelemetry {
            replies_per_ack: t.histogram("replica.replies_per_ack"),
            acked_below_r: t.counter("replica.acked_below_r"),
        }
    }
}

/// Appends `response` as one frame and meters its bytes as control
/// traffic; `true` when it is the `Shutdown` acknowledgement (the
/// connection closes once it drains).
fn write_reply(meter: &TrafficMeter, wbuf: &mut Vec<u8>, response: &Response) -> io::Result<bool> {
    let before = wbuf.len();
    append_frame_with(wbuf, |buf| response.encode_into(buf))?;
    meter.record(TrafficClass::Control, (wbuf.len() - before) as u64);
    Ok(match response {
        Response::ShutdownOk => true,
        Response::Tagged { inner, .. } => matches!(**inner, Response::ShutdownOk),
        _ => false,
    })
}

/// One parked reply.
struct Parked {
    response: Response,
    /// Offsets not yet seen settled; settled ones are popped.
    waits: Vec<Wait>,
    /// When the reply leaves regardless.
    deadline: Instant,
}

/// One connection's replies in arrival order.
pub(crate) struct ReplyQueue {
    meter: Arc<TrafficMeter>,
    slots: VecDeque<Parked>,
}

impl ReplyQueue {
    /// An empty queue metering its writes on `meter`.
    pub(crate) fn new(meter: Arc<TrafficMeter>) -> ReplyQueue {
        ReplyQueue {
            meter,
            slots: VecDeque::new(),
        }
    }

    /// True while replies are parked.
    pub(crate) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// True when the connection should stop feeding frames.
    pub(crate) fn is_full(&self) -> bool {
        self.slots.len() >= MAX_PARKED
    }

    /// Takes one served frame's reply and the offsets it waits for
    /// (drained from `waits`): writes it to `wbuf` when it may leave
    /// now, parks it otherwise. Returns the close flag of a written
    /// reply.
    pub(crate) fn push(
        &mut self,
        key: usize,
        response: Response,
        waits: &mut Vec<Wait>,
        wbuf: &mut Vec<u8>,
        backend: &mut dyn LoopBackend,
    ) -> io::Result<bool> {
        if self.slots.is_empty() {
            if waits.is_empty() {
                return write_reply(&self.meter, wbuf, &response);
            }
            if settle(key, waits, ack_backend(backend)) {
                return write_reply(&self.meter, wbuf, &response);
            }
        }
        let deadline = Instant::now() + REPL_WAIT_MAX;
        self.slots.push_back(Parked {
            response,
            waits: std::mem::take(waits),
            deadline,
        });
        if self.slots.len() == 1 {
            ack_backend(backend).ensure_deadline(key, deadline);
        }
        Ok(false)
    }

    /// Writes every reply now free to leave, in order: the head while
    /// its offsets settled or its deadline passed. Returns the close
    /// flag of any written reply.
    pub(crate) fn release(
        &mut self,
        key: usize,
        wbuf: &mut Vec<u8>,
        backend: &mut dyn LoopBackend,
    ) -> io::Result<bool> {
        let acks = ack_backend(backend);
        let mut close = false;
        while let Some(head) = self.slots.front_mut() {
            if settle(key, &mut head.waits, acks) {
                acks.released += 1;
            } else if head.deadline <= acks.now {
                acks.tel.acked_below_r.inc();
            } else {
                break;
            }
            let head = self.slots.pop_front().expect("front exists");
            close |= write_reply(&self.meter, wbuf, &head.response)?;
        }
        if let Some(head) = self.slots.front() {
            acks.ensure_deadline(key, head.deadline);
        }
        Ok(close)
    }
}

/// Pops the settled offsets off `waits`, registering the first
/// unsettled one for `key`; `true` when none is left.
fn settle(key: usize, waits: &mut Vec<Wait>, acks: &mut AckBackend) -> bool {
    while let Some((repl, offset)) = waits.last() {
        if !acks.watch(key, repl, *offset) {
            return false;
        }
        waits.pop();
    }
    true
}

/// Downcasts the loop backend — a node reactor that replicates always
/// runs an [`AckBackend`], and only then do replies carry offsets.
fn ack_backend(backend: &mut dyn LoopBackend) -> &mut AckBackend {
    backend
        .as_any()
        .downcast_mut::<AckBackend>()
        .expect("a replicating node's reactor runs an AckBackend")
}

/// One event loop's side of parking: the wake pipe replication logs
/// poke when a watched offset settles, and the wheel of head-reply
/// deadlines.
pub(crate) struct AckBackend {
    /// Read end of the wake pipe, polled under the backend token.
    pipe: UnixStream,
    waker: Arc<SettleWaker>,
    wheel: TimerWheel,
    /// The armed deadline per connection key (at most one: the head's,
    /// or an earlier head's, which fires early and re-arms).
    timers: Vec<Option<TimerKey>>,
    /// Connections whose head registered a watch since the last wake.
    watching: Vec<usize>,
    resumable: Vec<usize>,
    /// Scratch for wheel polls.
    expired: Vec<usize>,
    /// The loop's time as of the last `tick`; deadlines compare to it.
    now: Instant,
    /// Replies released on settled offsets since the last flush.
    released: u64,
    tel: ParkTelemetry,
}

impl AckBackend {
    /// A backend with a fresh wake pipe; register [`AckBackend::pipe`]
    /// with the loop's poller under [`ACK_PIPE_TOKEN`].
    pub(crate) fn new(tel: ParkTelemetry) -> io::Result<AckBackend> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        let now = Instant::now();
        Ok(AckBackend {
            pipe: rx,
            waker: Arc::new(SettleWaker::pipe(tx)),
            // 256 × 100 ms spans the 15 s deadline in one revolution.
            wheel: TimerWheel::new(Duration::from_millis(100), 256, now),
            timers: Vec::new(),
            watching: Vec::new(),
            resumable: Vec::new(),
            expired: Vec::new(),
            now,
            released: 0,
            tel,
        })
    }

    /// The wake pipe's read end.
    pub(crate) fn pipe(&self) -> &UnixStream {
        &self.pipe
    }

    /// Whether `offset` of `repl` settled; if not, the loop is woken
    /// once it does and `key` is resumed then.
    fn watch(&mut self, key: usize, repl: &ReplState, offset: u64) -> bool {
        if repl.watch(offset, &self.waker) {
            return true;
        }
        if !self.watching.contains(&key) {
            self.watching.push(key);
        }
        false
    }

    /// Arms `key`'s deadline unless one is armed already (an armed one
    /// belongs to an earlier head, so it is never later than needed).
    fn ensure_deadline(&mut self, key: usize, deadline: Instant) {
        if key >= self.timers.len() {
            self.timers.resize(key + 1, None);
        }
        if self.timers[key].is_none() {
            self.timers[key] = Some(self.wheel.insert(deadline, key));
        }
    }
}

impl LoopBackend for AckBackend {
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }

    fn on_event(&mut self, token: usize, _now: Instant) {
        if token != ACK_PIPE_TOKEN {
            return;
        }
        self.waker.rearm();
        let mut sink = [0u8; 64];
        while matches!((&self.pipe).read(&mut sink), Ok(n) if n > 0) {}
        // Resume every watching connection: each re-checks its head and
        // watches again whatever is still unsettled.
        self.resumable.append(&mut self.watching);
    }

    fn tick(&mut self, now: Instant) {
        self.now = now;
        self.expired.clear();
        self.wheel.poll(now, &mut self.expired);
        for &key in &self.expired {
            self.timers[key] = None;
            self.resumable.push(key);
        }
    }

    fn take_resumable(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.resumable)
    }

    fn flush(&mut self, _now: Instant) {
        if self.released > 0 {
            self.tel.replies_per_ack.record(self.released);
            self.released = 0;
        }
    }

    fn conn_closed(&mut self, key: usize) {
        if let Some(timer) = self.timers.get_mut(key).and_then(Option::take) {
            self.wheel.cancel(timer);
        }
        self.watching.retain(|&k| k != key);
        self.resumable.retain(|&k| k != key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::read_frame;
    use crate::replication::{Notifier, TargetStatus};

    fn backend() -> AckBackend {
        AckBackend::new(ParkTelemetry {
            replies_per_ack: Arc::new(Histogram::new()),
            acked_below_r: Arc::new(Counter::default()),
        })
        .unwrap()
    }

    /// A log with `targets` live backups and `events` applied events.
    fn log(targets: usize, events: u64) -> Arc<ReplState> {
        let repl = Arc::new(ReplState::new(0, 0, targets, Arc::new(Notifier::new())));
        for t in 0..targets {
            repl.mark_bootstrapped(t, 0);
        }
        for seq in 1..=events {
            repl.append_batch(vec![crate::protocol::BatchItem::Update(
                delta_workload::UpdateEvent {
                    seq,
                    object: delta_storage::ObjectId(0),
                    bytes: 1,
                },
            )]);
        }
        repl
    }

    fn reply(version: u64) -> Response {
        Response::UpdateOk { shard: 0, version }
    }

    /// The versions of the reply frames in `wbuf`, consumed.
    fn written(wbuf: &mut Vec<u8>) -> Vec<u64> {
        let mut cursor = &wbuf[..];
        let mut out = Vec::new();
        while !cursor.is_empty() {
            match Response::decode(&read_frame(&mut cursor).unwrap()).unwrap() {
                Response::UpdateOk { version, .. } => out.push(version),
                other => panic!("unexpected {other:?}"),
            }
        }
        wbuf.clear();
        out
    }

    /// What the loop does after a settle: take the wake, then resume
    /// every resumable connection.
    fn wake_and_resume(b: &mut AckBackend, q: &mut ReplyQueue, key: usize, wbuf: &mut Vec<u8>) {
        b.on_event(ACK_PIPE_TOKEN, Instant::now());
        resume(b, q, key, wbuf);
    }

    fn resume(b: &mut AckBackend, q: &mut ReplyQueue, key: usize, wbuf: &mut Vec<u8>) {
        if b.take_resumable().contains(&key) {
            q.release(key, wbuf, b).unwrap();
        }
        b.flush(Instant::now());
    }

    fn queue() -> ReplyQueue {
        ReplyQueue::new(Arc::new(TrafficMeter::new()))
    }

    #[test]
    fn no_reply_leaves_before_every_live_target_acked() {
        let repl = log(2, 3);
        let (mut b, mut q, mut wbuf) = (backend(), queue(), Vec::new());
        q.push(
            7,
            reply(1),
            &mut vec![(Arc::clone(&repl), 3)],
            &mut wbuf,
            &mut b,
        )
        .unwrap();
        assert!(wbuf.is_empty() && !q.is_empty(), "parked");
        repl.record_ack(0, 3);
        wake_and_resume(&mut b, &mut q, 7, &mut wbuf);
        assert!(wbuf.is_empty(), "one of two targets acked");
        repl.record_ack(1, 2);
        wake_and_resume(&mut b, &mut q, 7, &mut wbuf);
        assert!(
            wbuf.is_empty(),
            "the second target acked short of the offset"
        );
        repl.record_ack(1, 3);
        wake_and_resume(&mut b, &mut q, 7, &mut wbuf);
        assert_eq!(written(&mut wbuf), vec![1]);
        assert!(q.is_empty());
        assert_eq!(b.tel.replies_per_ack.snapshot().count, 1);
    }

    #[test]
    fn replies_stay_fifo_when_a_later_shard_settles_first() {
        let (first, second) = (log(1, 5), log(1, 9));
        let (mut b, mut q, mut wbuf) = (backend(), queue(), Vec::new());
        q.push(
            1,
            reply(1),
            &mut vec![(Arc::clone(&first), 5)],
            &mut wbuf,
            &mut b,
        )
        .unwrap();
        q.push(
            1,
            reply(2),
            &mut vec![(Arc::clone(&second), 9)],
            &mut wbuf,
            &mut b,
        )
        .unwrap();
        second.record_ack(0, 9);
        wake_and_resume(&mut b, &mut q, 1, &mut wbuf);
        assert!(
            wbuf.is_empty(),
            "frame 2 settled, but frame 1 is ahead of it"
        );
        first.record_ack(0, 5);
        wake_and_resume(&mut b, &mut q, 1, &mut wbuf);
        assert_eq!(written(&mut wbuf), vec![1, 2]);
        let acks = b.tel.replies_per_ack.snapshot();
        assert_eq!((acks.count, acks.max), (1, 2), "one wake released both");
    }

    #[test]
    fn a_target_going_down_releases_parked_replies() {
        let repl = log(2, 4);
        repl.record_ack(0, 4);
        let (mut b, mut q, mut wbuf) = (backend(), queue(), Vec::new());
        for v in 1..=3 {
            q.push(
                3,
                reply(v),
                &mut vec![(Arc::clone(&repl), v + 1)],
                &mut wbuf,
                &mut b,
            )
            .unwrap();
        }
        assert!(wbuf.is_empty());
        repl.set_status(1, TargetStatus::Down);
        wake_and_resume(&mut b, &mut q, 3, &mut wbuf);
        assert_eq!(written(&mut wbuf), vec![1, 2, 3]);
        assert_eq!(b.tel.acked_below_r.get(), 0, "settled, not timed out");
    }

    #[test]
    fn pump_exit_at_shutdown_releases_every_connection() {
        // A pump leaving its session (shutdown included) marks each of
        // its targets down on every hosted log; that alone must drain
        // every parked reply on the loop.
        let (a, c) = (log(1, 2), log(1, 2));
        let mut b = backend();
        let (mut qa, mut qc) = (queue(), queue());
        let (mut wa, mut wc) = (Vec::new(), Vec::new());
        qa.push(0, reply(1), &mut vec![(Arc::clone(&a), 2)], &mut wa, &mut b)
            .unwrap();
        qc.push(
            1,
            reply(2),
            &mut vec![(Arc::clone(&a), 1), (Arc::clone(&c), 2)],
            &mut wc,
            &mut b,
        )
        .unwrap();
        for repl in [&a, &c] {
            repl.set_status(0, TargetStatus::Down);
        }
        b.on_event(ACK_PIPE_TOKEN, Instant::now());
        let keys = b.take_resumable();
        assert!(keys.contains(&0) && keys.contains(&1), "{keys:?}");
        qa.release(0, &mut wa, &mut b).unwrap();
        qc.release(1, &mut wc, &mut b).unwrap();
        assert_eq!((written(&mut wa), written(&mut wc)), (vec![1], vec![2]));
        assert!(qa.is_empty() && qc.is_empty());
    }

    #[test]
    fn the_deadline_fires_through_the_wheel() {
        let repl = log(1, 1);
        let (mut b, mut q, mut wbuf) = (backend(), queue(), Vec::new());
        let t0 = Instant::now();
        q.push(
            2,
            reply(1),
            &mut vec![(Arc::clone(&repl), 1)],
            &mut wbuf,
            &mut b,
        )
        .unwrap();
        q.push(
            2,
            reply(2),
            &mut vec![(Arc::clone(&repl), 1)],
            &mut wbuf,
            &mut b,
        )
        .unwrap();
        b.tick(t0 + REPL_WAIT_MAX - Duration::from_secs(1));
        resume(&mut b, &mut q, 2, &mut wbuf);
        assert!(wbuf.is_empty(), "before the deadline");
        b.tick(t0 + REPL_WAIT_MAX + Duration::from_secs(1));
        resume(&mut b, &mut q, 2, &mut wbuf);
        assert_eq!(written(&mut wbuf), vec![1, 2]);
        assert_eq!(b.tel.acked_below_r.get(), 2, "both left below R");
        assert_eq!(b.tel.replies_per_ack.snapshot().count, 0);
    }

    #[test]
    fn a_closed_connection_drops_its_replies_and_deadline() {
        let repl = log(1, 1);
        let (mut b, mut q, mut wbuf) = (backend(), queue(), Vec::new());
        let t0 = Instant::now();
        q.push(
            4,
            reply(1),
            &mut vec![(Arc::clone(&repl), 1)],
            &mut wbuf,
            &mut b,
        )
        .unwrap();
        assert_eq!(b.wheel.len(), 1);
        drop(q);
        b.conn_closed(4);
        assert!(b.wheel.is_empty(), "deadline cancelled");
        repl.record_ack(0, 1);
        b.on_event(ACK_PIPE_TOKEN, t0);
        b.tick(t0 + 2 * REPL_WAIT_MAX);
        assert!(
            b.take_resumable().is_empty(),
            "nothing owed to the closed key"
        );
    }

    #[test]
    fn nothing_to_wait_for_never_parks() {
        // The `--replicas 0` shape: no log, no offsets, no backend.
        let mut none = crate::connection::NoBackend;
        let (mut q, mut wbuf) = (queue(), Vec::new());
        for v in 1..=3 {
            assert!(!q
                .push(9, reply(v), &mut Vec::new(), &mut wbuf, &mut none)
                .unwrap());
            assert!(q.is_empty());
        }
        assert_eq!(written(&mut wbuf), vec![1, 2, 3]);
        // And an already-settled offset leaves at once, unwatched.
        let repl = log(1, 2);
        repl.record_ack(0, 2);
        let mut b = backend();
        q.push(9, reply(4), &mut vec![(repl, 2)], &mut wbuf, &mut b)
            .unwrap();
        assert_eq!(written(&mut wbuf), vec![4]);
        assert!(q.is_empty() && b.wheel.is_empty() && b.watching.is_empty());
    }
}
