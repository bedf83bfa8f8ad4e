//! The benchmark's own wire client: a closed-loop windowed pipeline, an
//! open-loop paced sender/receiver pair and a lockstep prober, all over
//! the program's public framing (`append_frame_with`, `Response::decode`).
//!
//! The typed clients of `delta_server` are not used for measured
//! traffic because the traced run needs a span around each step
//! (encode, write, wait, decode) and they expose none.

use delta_server::protocol::append_frame_with;
use delta_server::protocol::PROTOCOL_VERSION;
use delta_server::{buffered_frame_len, prepare_read_buffer, BatchReply, Request, Response};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How long a blocked read may last before the run is declared hung.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// One TCP connection with a flat read buffer (every buffered frame is
/// drained between read syscalls, like the server's own loop).
pub struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            stream,
            rbuf: vec![0; delta_server::connection::READ_BUF],
            start: 0,
            end: 0,
        })
    }

    /// Declares routing epoch 0 and waits for the answer. Besides the
    /// handshake itself this proves the peer's accept thread (which
    /// polls every 25 ms) has handed the connection to an event loop, so
    /// no measured frame pays for that.
    pub fn hello(&mut self) -> io::Result<()> {
        let hello = Request::Hello {
            version: PROTOCOL_VERSION,
            epoch: 0,
        };
        let mut wire = Vec::new();
        append_frame_with(&mut wire, |buf| hello.encode_into(buf))?;
        self.stream.write_all(&wire)?;
        loop {
            if let Some(payload) = self.next_frame()? {
                return match Response::decode(payload)? {
                    Response::HelloOk(_) => Ok(()),
                    other => Err(io::Error::other(format!("hello answered {other:?}"))),
                };
            }
            self.fill()?;
        }
    }

    /// The payload of the next fully buffered frame, if any.
    fn next_frame(&mut self) -> io::Result<Option<&[u8]>> {
        match buffered_frame_len(&self.rbuf[self.start..self.end])? {
            Some(total) => {
                let payload = &self.rbuf[self.start + 4..self.start + total];
                self.start += total;
                Ok(Some(payload))
            }
            None => Ok(None),
        }
    }

    /// One blocking read syscall.
    fn fill(&mut self) -> io::Result<()> {
        prepare_read_buffer(&mut self.rbuf, &mut self.start, &mut self.end);
        let n = self.stream.read(&mut self.rbuf[self.end..])?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "peer closed the connection mid-run",
            ));
        }
        self.end += n;
        Ok(())
    }
}

/// Events carried by a request frame.
pub fn frame_events(request: &Request) -> u64 {
    match request {
        Request::Tagged { inner, .. } => frame_events(inner),
        Request::Batch(items) => items.len() as u64,
        _ => 1,
    }
}

/// Checks one reply against what its request must produce; returns the
/// number of failed events (a wrong frame fails every event it carried).
fn failed_events(reply: &Response, expect_corr: u64, carried: u64) -> u64 {
    let Response::Tagged { corr, inner } = reply else {
        return carried;
    };
    if *corr != expect_corr {
        return carried;
    }
    match &**inner {
        Response::QueryOk { .. } | Response::UpdateOk { .. } => 0,
        Response::BatchOk(replies) if replies.len() as u64 == carried => replies
            .iter()
            .filter(|r| matches!(r, BatchReply::Error { .. }))
            .count()
            as u64,
        _ => carried,
    }
}

/// The four client-side span kinds, indexable.
pub const SPAN_NAMES: [&str; 4] = [
    "client.encode",
    "client.write",
    "client.wait",
    "client.decode",
];
const ENCODE: usize = 0;
const WRITE: usize = 1;
const WAIT: usize = 2;
const DECODE: usize = 3;

/// One recorded span. `frame` is the correlation id the span belongs to
/// (for `write` and `wait`, which serve several frames at once, the
/// first frame of the group).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: u8,
    pub frame: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store of one connection: running totals for every
/// span, full records for one frame in `sample_every`.
pub struct Spans {
    origin: Instant,
    sample_every: u64,
    pub total_ns: [u64; 4],
    pub count: [u64; 4],
    pub sampled: Vec<Span>,
    /// The first replies as received, for the `protocol` driver.
    pub replies: Vec<Response>,
}

/// Replies kept per connection for the `protocol` driver.
const KEEP_REPLIES: usize = 16_384;

impl Spans {
    pub fn new(origin: Instant, sample_every: u64) -> Spans {
        Spans {
            origin,
            sample_every: sample_every.max(1),
            total_ns: [0; 4],
            count: [0; 4],
            sampled: Vec::new(),
            replies: Vec::new(),
        }
    }

    fn record(&mut self, kind: usize, frame: u64, start: Instant, end: Instant) {
        let start_ns = (start - self.origin).as_nanos() as u64;
        let end_ns = (end - self.origin).as_nanos() as u64;
        self.total_ns[kind] += end_ns - start_ns;
        self.count[kind] += 1;
        if frame.is_multiple_of(self.sample_every) {
            self.sampled.push(Span {
                kind: kind as u8,
                frame,
                start_ns,
                end_ns,
            });
        }
    }
}

/// What one connection's closed phase did.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClosedOutcome {
    pub events: u64,
    pub failed: u64,
}

/// The closed loop's in-flight limit, and the in-flight level at or
/// below which it refills the window to the top in one coalesced write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Window {
    pub size: usize,
    pub refill_at: usize,
}

/// Sends `frames` closed-loop with at most `window.size` in flight,
/// refilling per `window.refill_at` (`spec::Frames::window` says which
/// rule each frame shape gets and why). With `TRACE = false` no clock
/// is read inside the loop.
pub fn closed_loop<const TRACE: bool>(
    conn: &mut Conn,
    frames: &[Request],
    window: Window,
    spans: &mut Spans,
) -> io::Result<ClosedOutcome> {
    let mut wire: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut outcome = ClosedOutcome::default();
    let (mut sent, mut received) = (0usize, 0usize);
    while received < frames.len() {
        let first = sent;
        let refill = sent - received <= window.refill_at;
        while refill && sent < frames.len() && sent - received < window.size {
            let t0 = TRACE.then(Instant::now);
            append_frame_with(&mut wire, |buf| frames[sent].encode_into(buf))?;
            if let Some(t0) = t0 {
                spans.record(ENCODE, sent as u64, t0, Instant::now());
            }
            sent += 1;
        }
        if sent > first {
            let t0 = TRACE.then(Instant::now);
            conn.stream.write_all(&wire)?;
            if let Some(t0) = t0 {
                spans.record(WRITE, first as u64, t0, Instant::now());
            }
            wire.clear();
        }
        let before = received;
        loop {
            loop {
                let t0 = TRACE.then(Instant::now);
                let Some(payload) = conn.next_frame()? else {
                    break;
                };
                let reply = Response::decode(payload)?;
                let carried = frame_events(&frames[received]);
                outcome.events += carried;
                outcome.failed += failed_events(&reply, received as u64, carried);
                if let Some(t0) = t0 {
                    spans.record(DECODE, received as u64, t0, Instant::now());
                    if spans.replies.len() < KEEP_REPLIES {
                        spans.replies.push(reply);
                    }
                }
                received += 1;
            }
            if received > before {
                break;
            }
            let t0 = TRACE.then(Instant::now);
            conn.fill()?;
            if let Some(t0) = t0 {
                spans.record(WAIT, received as u64, t0, Instant::now());
            }
        }
    }
    Ok(outcome)
}

/// Lockstep round trips (one frame in flight), each timed; nanoseconds.
pub fn lockstep(
    conn: &mut Conn,
    requests: impl Iterator<Item = Request>,
) -> io::Result<(Vec<u64>, u64)> {
    let mut wire = Vec::new();
    let mut rtts = Vec::new();
    let mut failed = 0;
    for request in requests {
        wire.clear();
        append_frame_with(&mut wire, |buf| request.encode_into(buf))?;
        let t0 = Instant::now();
        conn.stream.write_all(&wire)?;
        let reply = loop {
            if let Some(payload) = conn.next_frame()? {
                break Response::decode(payload)?;
            }
            conn.fill()?;
        };
        rtts.push(t0.elapsed().as_nanos() as u64);
        if !matches!(reply, Response::QueryOk { .. } | Response::UpdateOk { .. }) {
            failed += 1;
        }
    }
    Ok((rtts, failed))
}

/// What the paced phase measured.
#[derive(Debug, Default)]
pub struct PacedOutcome {
    /// Latency from due time, nanoseconds, one per answered query.
    pub query_ns: Vec<u64>,
    /// Latency from due time, nanoseconds, one per answered update.
    pub update_ns: Vec<u64>,
    /// How late each event left the generator, nanoseconds.
    pub sched_lag_ns: Vec<u64>,
    /// Largest number of events sent and not yet answered.
    pub backlog_max: u64,
    /// Target send duration over achieved send duration (1 = on time).
    pub achieved_share: f64,
    pub events: u64,
    pub failed: u64,
}

/// Sends `frames` (single-event, correlation id = index) open-loop:
/// event `i` is due at `t0 + i / rate` whatever the replies do. One
/// sender thread, one receiver thread, over a connection the closed
/// phase already used (a fresh one would wait up to 25 ms for the
/// accept thread's poll, and through a router would land on the other
/// event loop — README, "Replication health"). Every event due by the
/// time the sender looks goes out in one write, so a stall costs the
/// events behind it their wait and nothing else.
///
/// Between events the sender spins. `thread::sleep` cannot be used: it
/// returns 50 us late (the kernel's default timer slack, which std
/// cannot lower), and a sender that sleeps lets its vCPU halt, after
/// which the median latency of a run is 19 us or 50 us depending on
/// which vCPUs happened to be awake (measured on `update_surge` at
/// 5k/s: IQR/median 32 %). `yield_now` cannot be used either: it hands
/// the core to a reactor thread inside a 3 ms cover solve and the
/// sender comes back 2 ms late.
pub fn paced(
    conn: &mut Conn,
    frames: &[Request],
    is_query: &[bool],
    rate: f64,
) -> io::Result<PacedOutcome> {
    let mut writer = conn.stream.try_clone()?;
    let n = frames.len();
    let period_ns = 1e9 / rate;
    let t0 = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| t0 + Duration::from_nanos((i as f64 * period_ns) as u64);
    let received = AtomicU64::new(0);

    std::thread::scope(|scope| {
        let receiver = scope.spawn(|| -> io::Result<(Vec<u64>, Vec<u64>, u64)> {
            let (mut query_ns, mut update_ns, mut failed) = (Vec::new(), Vec::new(), 0u64);
            let mut got = 0usize;
            while got < n {
                while let Some(payload) = conn.next_frame()? {
                    let now = Instant::now();
                    let reply = Response::decode(payload)?;
                    // Replies come back in order on one connection; an
                    // out-of-order or foreign id fails the event.
                    failed += failed_events(&reply, got as u64, 1);
                    let ns = now.saturating_duration_since(due(got)).as_nanos() as u64;
                    if is_query[got] {
                        query_ns.push(ns);
                    } else {
                        update_ns.push(ns);
                    }
                    got += 1;
                    received.store(got as u64, Ordering::Release);
                }
                if got < n {
                    conn.fill()?;
                }
            }
            Ok((query_ns, update_ns, failed))
        });

        let mut wire: Vec<u8> = Vec::with_capacity(16 * 1024);
        let mut sched_lag_ns = Vec::with_capacity(n);
        let mut backlog_max = 0u64;
        let mut next = 0usize;
        let mut last_send = t0;
        while next < n {
            let now = Instant::now();
            let first = next;
            while next < n && due(next) <= now {
                append_frame_with(&mut wire, |buf| frames[next].encode_into(buf))?;
                sched_lag_ns.push((now - due(next)).as_nanos() as u64);
                next += 1;
            }
            if next > first {
                writer.write_all(&wire)?;
                wire.clear();
                last_send = now;
                let backlog = next as u64 - received.load(Ordering::Acquire);
                backlog_max = backlog_max.max(backlog);
            } else {
                // Spin, never sleep or yield (see above).
                std::hint::spin_loop();
            }
        }
        let (query_ns, update_ns, failed) = receiver
            .join()
            .map_err(|_| io::Error::other("paced receiver panicked"))??;
        let target = due(n - 1) - t0;
        let achieved = last_send - t0;
        Ok(PacedOutcome {
            query_ns,
            update_ns,
            sched_lag_ns,
            backlog_max,
            achieved_share: if achieved > target {
                target.as_secs_f64() / achieved.as_secs_f64()
            } else {
                1.0
            },
            events: n as u64,
            failed,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrong_frames_fail_every_event_they_carried() {
        let ok = Response::Tagged {
            corr: 3,
            inner: Box::new(Response::BatchOk(vec![
                BatchReply::Update {
                    shard: 0,
                    version: 1,
                },
                BatchReply::Error {
                    code: 2,
                    message: "no".into(),
                },
            ])),
        };
        assert_eq!(failed_events(&ok, 3, 2), 1, "one item failed");
        assert_eq!(failed_events(&ok, 4, 2), 2, "foreign correlation id");
        assert_eq!(failed_events(&ok, 3, 5), 5, "item count mismatch");
        let error = Response::Error {
            code: 1,
            message: "bad".into(),
        };
        assert_eq!(failed_events(&error, 0, 64), 64, "untagged error frame");
    }
}
