//! Primary/backup replication state: the per-shard applied-event log a
//! primary ships to its backups, acknowledged replication offsets, and
//! the settle notification that releases replies parked on them.
//!
//! The engine is a deterministic state machine, so a backup that holds
//! the same starting state and applies the same shard-local event log
//! in the same order *is* the primary — byte-identical ledger and all.
//! Replication therefore ships exactly what the primary applied: every
//! successful event is appended to a [`ReplState`] log inside the same
//! engine-lock window that applied it (log order ≡ apply order; a
//! shard sub-batch appends once, via [`ReplState::append_batch`]), and
//! pump threads ship unshipped suffixes to each backup target.
//!
//! ## Settling and parked replies
//!
//! Offset `o` of a shard is **settled** when every backup target is
//! either [`TargetStatus::Down`] or has acknowledged at least `o`. A
//! reply carrying events leaves only once the offsets of every shard it
//! touched settled. That is what makes failover lossless: a client
//! holding an `Ok` for an event knows every live backup holds that
//! event too, so the most-caught-up backup the router promotes can
//! never miss an acknowledged write.
//!
//! Nothing blocks on it. The handler that applied the events notes each
//! touched log's end next to its response and hands both to the
//! connection's reply queue ([`crate::parked`]): the reply is written
//! at once when every offset already settled (always, at
//! `--replicas 0`, where no log exists), and is otherwise **parked**
//! behind the connection's earlier replies — replies leave in arrival
//! order. The parked reply's event loop registers a [`SettleWaker`]
//! with [`ReplState::watch`]; [`ReplState::record_ack`],
//! [`ReplState::set_status`] and [`ReplState::mark_bootstrapped`]
//! publish the new settled offset and wake only the registered loops
//! whose offset it covers. While one `Replicate` round trip is in
//! flight, the loop keeps applying pipelined frames; the next suffix
//! carries all of them and one acknowledgement releases every reply it
//! covers (group commit).
//!
//! Availability beats durability when a backup dies: targets marked
//! [`TargetStatus::Down`] are excluded from the predicate (the shard
//! keeps serving as a sole copy — degraded, never stalled), and every
//! parked reply carries a [`REPL_WAIT_MAX`] deadline after which it
//! leaves unreplicated, counted under `replica.acked_below_r`, so a
//! wedged pump can delay a reply by a bounded amount, never forever.
//!
//! Offsets are applied-event *counts* (the engine's `events()`), not
//! sequence numbers: deterministic replay means the `n`-th applied
//! event is the same event on every copy, so "backup holds `n` events"
//! is exactly "backup equals the primary as of event `n`".

use crate::protocol::BatchItem;
use std::collections::VecDeque;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Most retained log entries per shard. A target that falls further
/// behind than the cap (only possible while it is unreachable or
/// bootstrapping) is re-seeded from a snapshot instead of the log.
pub const LOG_CAP: usize = 16_384;

/// Most items shipped in one `Replicate` frame, bounding frame size.
pub const REPL_BATCH_MAX: usize = 4_096;

/// How long a reply stays parked on unsettled offsets before it leaves
/// unreplicated (counted under `replica.acked_below_r`) — the stall
/// bound when a pump wedges without detecting its target as down first.
pub const REPL_WAIT_MAX: Duration = Duration::from_secs(15);

/// Where a backup target stands, from its primary's point of view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TargetStatus {
    /// The target needs a (re-)bootstrap before log shipping: it is
    /// freshly configured, answered with an offset mismatch, or the
    /// log was truncated past its acknowledged offset.
    NeedsBootstrap,
    /// The target is bootstrapped and absorbing log suffixes; replies
    /// wait for its acknowledgements.
    Live,
    /// The target is unreachable; replies leave without it.
    Down,
}

/// One backup target's replication progress.
#[derive(Clone, Copy, Debug)]
struct Target {
    /// Applied events the target has acknowledged.
    acked: u64,
    /// Whether the target is live, down, or awaiting bootstrap.
    status: TargetStatus,
}

/// The retained applied-event log plus per-target progress.
struct ReplLog {
    /// Offset of the first retained item (events applied before it).
    start: u64,
    /// Retained applied events, in apply order.
    items: VecDeque<BatchItem>,
    /// Per-target progress, indexed by successor rank.
    targets: Vec<Target>,
    /// Registered wakers and the offset each waits for, at most one
    /// entry per waker.
    waiters: Vec<(u64, Arc<SettleWaker>)>,
}

impl ReplLog {
    fn end(&self) -> u64 {
        self.start + self.items.len() as u64
    }

    /// The highest settled offset: the smallest acknowledgement among
    /// targets that are not down (`u64::MAX` when every target is).
    fn settled(&self) -> u64 {
        self.targets
            .iter()
            .filter(|t| t.status != TargetStatus::Down)
            .map(|t| t.acked)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Drops log entries no live target still needs, and hard-caps the
    /// log at [`LOG_CAP`]: a target truncated past must re-bootstrap.
    fn truncate(&mut self) {
        let floor = self
            .targets
            .iter()
            .filter(|t| t.status == TargetStatus::Live)
            .map(|t| t.acked)
            .min()
            .unwrap_or_else(|| self.end());
        while self.start < floor && !self.items.is_empty() {
            self.items.pop_front();
            self.start += 1;
        }
        while self.items.len() > LOG_CAP {
            self.items.pop_front();
            self.start += 1;
        }
        for t in &mut self.targets {
            if t.status == TargetStatus::Live && t.acked < self.start {
                t.status = TargetStatus::NeedsBootstrap;
            }
        }
    }
}

/// Wakes pump threads when any shard appended to its log. One notifier
/// serves every pump on the node; a woken pump re-scans its shards, so
/// spurious wakeups are merely cheap.
pub struct Notifier {
    gen: Mutex<u64>,
    cv: Condvar,
}

impl Default for Notifier {
    fn default() -> Self {
        Self::new()
    }
}

impl Notifier {
    /// A fresh notifier at generation zero.
    pub fn new() -> Notifier {
        Notifier {
            gen: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    /// Advances the generation and wakes every waiting pump.
    pub fn bump(&self) {
        let mut gen = self.gen.lock().expect("notifier poisoned");
        *gen += 1;
        self.cv.notify_all();
    }

    /// The current generation, for a pump entering its wait loop.
    pub fn snapshot(&self) -> u64 {
        *self.gen.lock().expect("notifier poisoned")
    }

    /// Blocks until the generation moves past `seen` or `timeout`
    /// elapses; returns the generation observed on wake.
    pub fn wait(&self, seen: u64, timeout: Duration) -> u64 {
        let gen = self.gen.lock().expect("notifier poisoned");
        let (gen, _) = self
            .cv
            .wait_timeout_while(gen, timeout, |g| *g == seen)
            .expect("notifier poisoned");
        *gen
    }
}

/// Pokes an event loop with parked replies when a watched offset
/// settles, through the write end of the loop's nonblocking wake pair.
/// `poked` keeps at most one byte outstanding until the loop takes the
/// wake. The settle itself is published under the log mutex, which the
/// loop's re-check takes; the flag only dedupes pokes.
pub struct SettleWaker {
    tx: UnixStream,
    poked: AtomicBool,
}

impl SettleWaker {
    /// Wakes an event loop by writing to `tx`, whose peer the loop
    /// polls. `tx` must be nonblocking.
    pub fn pipe(tx: UnixStream) -> SettleWaker {
        SettleWaker {
            tx,
            poked: AtomicBool::new(false),
        }
    }

    /// Delivers one wake. Wakes coalesce until [`SettleWaker::rearm`].
    pub fn wake(&self) {
        if !self.poked.swap(true, Ordering::SeqCst) {
            // A full pipe already guarantees a pending wake.
            let _ = (&self.tx).write(&[1u8]);
        }
    }

    /// The loop took the pending wake: the next one writes again. Call
    /// before draining the pipe and re-checking, so no settle between
    /// the check and the next wait goes unannounced.
    pub fn rearm(&self) {
        self.poked.store(false, Ordering::SeqCst);
    }
}

/// One primary shard's replication state: the retained log, per-target
/// acknowledgements, and the wakers watching for offsets to settle.
pub struct ReplState {
    shard: u16,
    inner: Mutex<ReplLog>,
    notifier: std::sync::Arc<Notifier>,
}

impl ReplState {
    /// A log starting at `start` applied events (non-zero when the
    /// primary warm-restarted from a snapshot: earlier events are not
    /// replayable, so targets bootstrap from a snapshot instead) with
    /// `n_targets` backup targets, all awaiting bootstrap.
    pub fn new(
        shard: u16,
        start: u64,
        n_targets: usize,
        notifier: std::sync::Arc<Notifier>,
    ) -> ReplState {
        ReplState {
            shard,
            inner: Mutex::new(ReplLog {
                start,
                items: VecDeque::new(),
                targets: vec![
                    Target {
                        acked: 0,
                        status: TargetStatus::NeedsBootstrap,
                    };
                    n_targets
                ],
                waiters: Vec::new(),
            }),
            notifier,
        }
    }

    /// The shard this log replicates.
    pub fn shard(&self) -> u16 {
        self.shard
    }

    fn lock(&self) -> MutexGuard<'_, ReplLog> {
        self.inner.lock().expect("replication log poisoned")
    }

    /// Appends a shard sub-batch's applied events, in order, under one
    /// lock, one truncation and one pump wake. Callers invoke this
    /// inside the same engine-lock window that applied the events, so
    /// the log order is the apply order (the lock order is engine → log,
    /// everywhere).
    pub fn append_batch(&self, items: Vec<BatchItem>) {
        if items.is_empty() {
            return;
        }
        let mut log = self.lock();
        log.items.extend(items);
        log.truncate();
        drop(log);
        self.notifier.bump();
    }

    /// Applied events the log ends at (the primary's current offset).
    pub fn end(&self) -> u64 {
        self.lock().end()
    }

    /// The unshipped suffix for `target` (at most [`REPL_BATCH_MAX`]
    /// items): `Some((from_offset, items))` when the target is live and
    /// the log still covers its acknowledged offset; `None` when the
    /// target is not live, is fully caught up, or fell behind the log
    /// (in which case it is flipped to [`TargetStatus::NeedsBootstrap`]
    /// for the pump to re-seed).
    pub fn suffix_for(&self, target: usize) -> Option<(u64, Vec<BatchItem>)> {
        let mut log = self.lock();
        let t = log.targets[target];
        if t.status != TargetStatus::Live {
            return None;
        }
        if t.acked < log.start {
            log.targets[target].status = TargetStatus::NeedsBootstrap;
            return None;
        }
        if t.acked >= log.end() {
            return None;
        }
        let skip = (t.acked - log.start) as usize;
        let items: Vec<BatchItem> = log
            .items
            .iter()
            .skip(skip)
            .take(REPL_BATCH_MAX)
            .cloned()
            .collect();
        Some((t.acked, items))
    }

    /// Records an acknowledged offset for `target` (monotone: stale
    /// acks are ignored), trims the log, and wakes the watchers whose
    /// offset settled.
    pub fn record_ack(&self, target: usize, offset: u64) {
        let mut log = self.lock();
        let t = &mut log.targets[target];
        t.acked = t.acked.max(offset);
        self.publish(log);
    }

    /// Marks `target` live at `offset` after a successful bootstrap.
    pub fn mark_bootstrapped(&self, target: usize, offset: u64) {
        let mut log = self.lock();
        log.targets[target] = Target {
            acked: offset,
            status: TargetStatus::Live,
        };
        self.publish(log);
    }

    /// Sets `target`'s status (marking it down settles every offset it
    /// was holding back).
    pub fn set_status(&self, target: usize, status: TargetStatus) {
        let mut log = self.lock();
        log.targets[target].status = status;
        self.publish(log);
    }

    /// Trims after a progress change, then wakes — with the lock
    /// released — every waker whose offset the new settled offset
    /// covers, dropping their registrations.
    fn publish(&self, mut log: MutexGuard<'_, ReplLog>) {
        log.truncate();
        let settled = log.settled();
        if log.waiters.iter().all(|(offset, _)| *offset > settled) {
            return;
        }
        let (due, waiting): (Vec<_>, Vec<_>) = std::mem::take(&mut log.waiters)
            .into_iter()
            .partition(|(offset, _)| *offset <= settled);
        log.waiters = waiting;
        drop(log);
        for (_, waker) in due {
            waker.wake();
        }
    }

    /// `target`'s current status.
    pub fn status(&self, target: usize) -> TargetStatus {
        self.lock().targets[target].status
    }

    /// Whether `offset` is settled; if not, registers `waker` to be
    /// woken once it is. A waker holds at most one registration per log
    /// (registering again keeps the lower offset), so a loop's standing
    /// watch costs one entry however many replies it parks. A woken
    /// waker is unregistered: what is still unsettled is watched again.
    pub fn watch(&self, offset: u64, waker: &Arc<SettleWaker>) -> bool {
        let mut log = self.lock();
        if log.settled() >= offset {
            return true;
        }
        match log.waiters.iter_mut().find(|(_, w)| Arc::ptr_eq(w, waker)) {
            Some((watched, _)) => *watched = (*watched).min(offset),
            None => log.waiters.push((offset, Arc::clone(waker))),
        }
        false
    }

    /// The worst lag across targets: log end minus the smallest
    /// acknowledged offset (0 with no targets). Down targets count —
    /// an unreachable backup's growing lag is the honest number.
    pub fn lag(&self) -> u64 {
        let log = self.lock();
        log.targets
            .iter()
            .map(|t| log.end().saturating_sub(t.acked))
            .max()
            .unwrap_or(0)
    }
}

/// A uniformly jittered delay in `[base/2, base]` — enough spread to
/// de-synchronize reconnect storms (every pump and router link backing
/// off from the same death would otherwise probe in lockstep), never
/// longer than the cap the caller chose.
pub(crate) fn jittered(rng: &mut u64, base: Duration) -> Duration {
    // xorshift64: tiny, seedable, plenty for timing jitter.
    *rng ^= *rng << 13;
    *rng ^= *rng >> 7;
    *rng ^= *rng << 17;
    let half = base.as_micros() as u64 / 2;
    let extra = if half == 0 { 0 } else { *rng % (half + 1) };
    Duration::from_micros(half + extra)
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_storage::ObjectId;
    use delta_workload::UpdateEvent;
    use std::sync::Arc;

    fn item(seq: u64) -> BatchItem {
        BatchItem::Update(UpdateEvent {
            seq,
            object: ObjectId(0),
            bytes: 1,
        })
    }

    #[test]
    fn suffixes_track_acks_and_truncate() {
        let repl = ReplState::new(3, 0, 2, Arc::new(Notifier::new()));
        repl.mark_bootstrapped(0, 0);
        repl.mark_bootstrapped(1, 0);
        for seq in 1..=5 {
            repl.append_batch(vec![item(seq)]);
        }
        let (from, items) = repl.suffix_for(0).expect("unshipped suffix");
        assert_eq!(from, 0);
        assert_eq!(items.len(), 5);

        repl.record_ack(0, 5);
        assert!(repl.suffix_for(0).is_none(), "caught up");
        let (from, items) = repl.suffix_for(1).expect("target 1 still behind");
        assert_eq!((from, items.len()), (0, 5));
        assert_eq!(repl.lag(), 5);

        repl.record_ack(1, 3);
        // The log trims to the slowest live target.
        let (from, items) = repl.suffix_for(1).expect("suffix from 3");
        assert_eq!((from, items.len()), (3, 2));
        assert_eq!(repl.lag(), 2);
    }

    #[test]
    fn hard_cap_flips_laggards_to_bootstrap() {
        let repl = ReplState::new(0, 0, 1, Arc::new(Notifier::new()));
        repl.mark_bootstrapped(0, 0);
        repl.set_status(0, TargetStatus::Down);
        for seq in 0..(LOG_CAP as u64 + 10) {
            repl.append_batch(vec![item(seq)]);
        }
        // The down target came back: its acked offset predates the
        // retained log, so shipping must demand a re-bootstrap.
        repl.set_status(0, TargetStatus::Live);
        assert!(repl.suffix_for(0).is_none());
        assert_eq!(repl.status(0), TargetStatus::NeedsBootstrap);
    }

    /// A loop-style waker plus the read end it pokes.
    fn pipe_waker() -> (Arc<SettleWaker>, UnixStream) {
        let (tx, rx) = UnixStream::pair().unwrap();
        tx.set_nonblocking(true).unwrap();
        rx.set_nonblocking(true).unwrap();
        (Arc::new(SettleWaker::pipe(tx)), rx)
    }

    /// Bytes waiting on a wake pipe's read end.
    fn pokes(rx: &UnixStream) -> usize {
        use std::io::Read;
        let mut buf = [0u8; 16];
        (&*rx).read(&mut buf).unwrap_or(0)
    }

    #[test]
    fn settling_skips_down_targets() {
        let repl = ReplState::new(0, 0, 2, Arc::new(Notifier::new()));
        repl.mark_bootstrapped(0, 0);
        repl.mark_bootstrapped(1, 0);
        repl.append_batch(vec![item(1)]);
        let (waker, rx) = pipe_waker();
        assert!(!repl.watch(1, &waker), "no acks yet");
        repl.record_ack(0, 1);
        assert_eq!(pokes(&rx), 0, "one of two targets acked: not settled");
        repl.set_status(1, TargetStatus::Down);
        assert_eq!(pokes(&rx), 1, "one ack plus one down target settles");
        assert!(repl.watch(1, &waker));
    }

    #[test]
    fn wakes_only_the_watchers_an_ack_covers() {
        let repl = ReplState::new(0, 0, 1, Arc::new(Notifier::new()));
        repl.mark_bootstrapped(0, 0);
        repl.append_batch((1..=10).map(item).collect());
        assert_eq!(repl.end(), 10, "one sub-batch append, ten events");
        let (early, early_rx) = pipe_waker();
        let (late, late_rx) = pipe_waker();
        assert!(!repl.watch(4, &early));
        assert!(!repl.watch(2, &early), "a second watch lowers the offset");
        assert!(!repl.watch(9, &late));
        repl.record_ack(0, 3);
        assert_eq!((pokes(&early_rx), pokes(&late_rx)), (1, 0));
        repl.record_ack(0, 8);
        assert_eq!(
            (pokes(&early_rx), pokes(&late_rx)),
            (0, 0),
            "a woken waker is unregistered"
        );
        repl.record_ack(0, 10);
        assert_eq!(pokes(&late_rx), 1);
    }

    #[test]
    fn pipe_wakes_coalesce_until_rearmed() {
        let (waker, rx) = pipe_waker();
        waker.wake();
        waker.wake();
        assert_eq!(pokes(&rx), 1);
        waker.rearm();
        waker.wake();
        assert_eq!(pokes(&rx), 1);
    }

    #[test]
    fn warm_restart_log_starts_past_zero() {
        let repl = ReplState::new(0, 100, 1, Arc::new(Notifier::new()));
        assert_eq!(repl.end(), 100);
        // A fresh target cannot be served from the log (its history
        // starts mid-stream) until a bootstrap marks it live at or
        // past the log start.
        assert_eq!(repl.status(0), TargetStatus::NeedsBootstrap);
        repl.mark_bootstrapped(0, 100);
        repl.append_batch(vec![item(101)]);
        let (from, items) = repl.suffix_for(0).expect("suffix after bootstrap");
        assert_eq!((from, items.len()), (100, 1));
    }

    #[test]
    fn jittered_delay_stays_in_bounds() {
        // The anti-thundering-herd contract: spread, but never past the
        // cap the caller chose and never under half of it.
        let mut rng = 0x1234_5678_9abc_def0u64;
        for base_ms in [1u64, 50, 320, 1000] {
            let base = Duration::from_millis(base_ms);
            for _ in 0..1_000 {
                let d = jittered(&mut rng, base);
                assert!(d >= base / 2, "{d:?} under half of {base:?}");
                assert!(d <= base, "{d:?} over the {base:?} cap");
            }
        }
        // Degenerate base: still terminates, still bounded.
        assert_eq!(jittered(&mut rng, Duration::ZERO), Duration::ZERO);
    }

    #[test]
    fn notifier_wakes_on_bump() {
        let n = Arc::new(Notifier::new());
        let seen = n.snapshot();
        let waiter = {
            let n = Arc::clone(&n);
            std::thread::spawn(move || n.wait(seen, Duration::from_secs(5)))
        };
        // Give the waiter a moment to park, then wake it.
        std::thread::sleep(Duration::from_millis(20));
        n.bump();
        let got = waiter.join().unwrap();
        assert!(got > seen, "wait returned a newer generation");
    }
}
