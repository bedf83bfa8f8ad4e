//! The epoll reactor front door: a few event-loop threads multiplexing
//! every connection, replacing thread-per-connection at the edge.
//!
//! ## Shape
//!
//! An accept thread hands fresh sockets round-robin to `N` reactor
//! threads over channels. Each reactor owns a [`Poller`] (level-
//! triggered epoll), a [`Slab`] of connections whose keys double as
//! epoll tokens, and a [`TimerWheel`] of stall deadlines. One iteration:
//! wait for readiness (bounded by the 25 ms poll tick so the shutdown
//! flag and timers stay live), pump every ready connection, adopt queued
//! sockets, fire expired deadlines.
//!
//! ## The per-connection state machine
//!
//! Each connection reuses the exact buffer discipline of the threaded
//! front ([`crate::connection`]): a flat read buffer compacted and
//! grown/shrunk by [`prepare_read_buffer`], and a coalesced write buffer
//! flushed only when the loop would otherwise block. A pump serves
//! every complete frame that has arrived, then flushes; a partial write
//! parks the remainder (`wpos`) and arms write interest — readiness, not
//! blocking, picks it back up.
//!
//! ## Deadlines (the half-open fix)
//!
//! A connection is on the stall clock whenever it is **mid-frame** (sent
//! part of a request and went quiet) or has an **undrained response**.
//! Progress re-arms the deadline; `stall_limit` without progress reaps
//! the connection and counts it under `conn.stall_drops`. Idling at a
//! frame boundary is free — that is just a connection with nothing to
//! say. On shutdown, boundary-idle connections close immediately and
//! everything else gets one stall grace period, mirroring the threaded
//! front.
//!
//! ## Invariants
//!
//! * Frames are served in arrival order per connection; responses are
//!   appended in the same order — identical to the threaded front, so
//!   ledgers are byte-identical under either door.
//! * Read interest is dropped while more than `WRITE_COALESCE_BYTES`
//!   of response is undrained (backpressure), so a client that stops
//!   reading cannot balloon the write buffer.
//! * A handler error flushes the responses already earned before the
//!   connection drops — executed requests' acks never vanish.

use crate::connection::{
    append_oversize_reply, buffered_frame_len, classify_drop, drop_cause, drop_error,
    prepare_read_buffer, DropCause, FrameHandler, LoopBackend, NoBackend, WireTelemetry, POLL,
    READ_BUF, WRITE_COALESCE_BYTES,
};
use delta_reactor::{Events, Interest, Poller, Slab, TimerKey, TimerWheel};
use delta_telemetry::{Counter, Histogram, Telemetry};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Builds one [`FrameHandler`] per accepted connection (each gets its
/// own mutable per-connection state, e.g. a SQL compiler clone).
pub(crate) type FrameFactory = Arc<dyn Fn() -> Box<dyn FrameHandler> + Send + Sync>;

/// Builds one [`LoopBackend`] per reactor event loop. The backend gets
/// a handle on the loop's poller so it can register its own sockets
/// under [`BACKEND_TOKEN`]-tagged tokens.
pub(crate) type BackendFactory = Arc<dyn Fn(Arc<Poller>) -> Box<dyn LoopBackend> + Send + Sync>;

/// High bit of an epoll token: set on every descriptor a [`LoopBackend`]
/// registers, clear on client connections (slab keys), so one poller
/// multiplexes both without collisions.
pub(crate) const BACKEND_TOKEN: usize = 1 << (usize::BITS - 1);

/// Token of the accept thread's wake pipe: one byte lands here whenever
/// a socket was queued for adoption, so a reactor parked in
/// `poller.wait` picks up new connections immediately instead of on the
/// next `POLL` timeout (up to 25 ms later — a whole pipeline window's
/// worth of stall on the connection's first frames).
const WAKE_TOKEN: usize = BACKEND_TOKEN - 1;

/// Reads per connection per wakeup before yielding to the rest of the
/// ready set. Level-triggered epoll re-notifies unread data, so a
/// firehose client costs fairness nothing — it just gets re-pumped next
/// iteration. Sized so a deep pipelined window drains in one wakeup
/// (each read pulls up to 64 KiB, several frames' worth): at 4 the
/// windowed bench paid an extra epoll round-trip every few frames and
/// lost ~15% against the thread-per-connection front.
const READS_PER_PUMP: usize = 16;

/// The reactor tier's own metrics, alongside the shared `conn.*` wire
/// counters.
#[derive(Clone)]
pub(crate) struct ReactorTelemetry {
    /// Sockets the accept thread handed to reactors.
    pub(crate) accepted: Arc<Counter>,
    /// Connections closed (any cause; deliberate drops also count under
    /// their `conn.*` counter).
    pub(crate) closed: Arc<Counter>,
    /// `epoll_wait` returns.
    pub(crate) wakeups: Arc<Counter>,
    /// Ready-set size per wakeup that had any readiness.
    pub(crate) ready_per_wakeup: Arc<Histogram>,
    /// Frames served across the ready set per non-empty wakeup.
    pub(crate) frames_per_wakeup: Arc<Histogram>,
}

impl ReactorTelemetry {
    /// Resolves the reactor handles from a tier's registry.
    pub(crate) fn register(t: &Telemetry) -> ReactorTelemetry {
        ReactorTelemetry {
            accepted: t.counter("reactor.accepted"),
            closed: t.counter("reactor.closed"),
            wakeups: t.counter("reactor.wakeups"),
            ready_per_wakeup: t.histogram("reactor.ready_per_wakeup"),
            frames_per_wakeup: t.histogram("reactor.frames_per_wakeup"),
        }
    }
}

/// Resolves a configured thread count: `0` means automatic — a few
/// loops, never more than the machine offers. Event loops multiplex, so
/// a handful covers tens of thousands of connections.
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads > 0 {
        return threads;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .clamp(1, 4)
}

/// Everything a reactor front door needs besides the listener; bundled
/// so the server and router tiers construct it identically.
pub(crate) struct ReactorFront {
    /// Tier name for thread names and traces (`delta-server`, ...).
    pub(crate) name: &'static str,
    /// Configured event-loop threads (`0` = automatic).
    pub(crate) threads: usize,
    /// The tier's shutdown flag.
    pub(crate) shutdown: Arc<AtomicBool>,
    /// Shared wire counters (`conn.*`).
    pub(crate) wire: WireTelemetry,
    /// Reactor metrics (`reactor.*`).
    pub(crate) rtel: ReactorTelemetry,
    /// Reap limit for stalled connections.
    pub(crate) stall_limit: Duration,
    /// Builds one handler per connection.
    pub(crate) factory: FrameFactory,
    /// Builds one backend per event loop (`None` = no internal events).
    pub(crate) backend: Option<BackendFactory>,
}

impl ReactorFront {
    /// Runs the front door on the calling (accept) thread: spawns the
    /// reactor loops, distributes accepted sockets round-robin, and on
    /// shutdown waits for every loop to drain its connections.
    /// `listener` must already be nonblocking.
    pub(crate) fn run(self, listener: TcpListener) {
        let threads = resolve_threads(self.threads);
        let mut senders = Vec::with_capacity(threads);
        let mut wakers = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for i in 0..threads {
            let (tx, rx) = mpsc::channel::<TcpStream>();
            senders.push(tx);
            // The adoption channel can't wake a parked `poller.wait`, so
            // each loop also watches one end of a nonblocking socket
            // pair; the accept thread pokes it after every handoff.
            let (wake_tx, wake_rx) = UnixStream::pair().expect("create reactor wake pipe");
            wake_tx
                .set_nonblocking(true)
                .and(wake_rx.set_nonblocking(true))
                .expect("nonblocking wake pipe");
            wakers.push(wake_tx);
            let name = self.name;
            let shutdown = Arc::clone(&self.shutdown);
            let wire = self.wire.clone();
            let rtel = self.rtel.clone();
            let stall_limit = self.stall_limit;
            let factory = Arc::clone(&self.factory);
            let backend = self.backend.clone();
            let handle = std::thread::Builder::new()
                .name(format!("{name}-reactor-{i}"))
                .spawn(move || {
                    reactor_loop(
                        rx,
                        wake_rx,
                        name,
                        shutdown,
                        wire,
                        rtel,
                        stall_limit,
                        factory,
                        backend,
                    )
                })
                .expect("spawn reactor thread");
            handles.push(handle);
        }
        let mut next = 0usize;
        while !self.shutdown.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    self.rtel.accepted.inc();
                    // A reactor only disappears with the process; a
                    // failed send means we're past caring about this
                    // socket.
                    let slot = next % senders.len();
                    let _ = senders[slot].send(stream);
                    // Wake the loop out of its poll wait; a full pipe
                    // (WouldBlock) already guarantees a pending wake.
                    let _ = (&wakers[slot]).write(&[1u8]);
                    next += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
                Err(e) => {
                    eprintln!("{}: accept error: {e}", self.name);
                    std::thread::sleep(POLL);
                }
            }
        }
        // Hang up the channels so draining reactors stop expecting
        // sockets, then wait for every connection to finish or stall
        // out.
        drop(senders);
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// One multiplexed connection.
struct Conn {
    stream: TcpStream,
    handler: Box<dyn FrameHandler>,
    peer: String,
    rbuf: Vec<u8>,
    start: usize,
    end: usize,
    wbuf: Vec<u8>,
    /// Bytes of `wbuf` already written; `wpos < wbuf.len()` is an
    /// in-flight partial flush.
    wpos: usize,
    interest: Interest,
    timer: Option<TimerKey>,
    /// Input is done (served a `Shutdown`, or the peer half-closed);
    /// close as soon as the write buffer drains.
    closing: bool,
}

impl Conn {
    fn pending_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    fn mid_frame(&self) -> bool {
        self.end > self.start
    }

    /// Whether this connection is on the stall clock.
    fn on_clock(&self) -> bool {
        self.mid_frame() || self.pending_write()
    }

    fn backpressured(&self) -> bool {
        self.wbuf.len() - self.wpos >= WRITE_COALESCE_BYTES
    }

    fn desired_interest(&self) -> Interest {
        Interest {
            readable: !self.closing && !self.backpressured(),
            writable: self.pending_write(),
        }
    }
}

/// What one pump of a connection did.
struct Pump {
    /// Keep the connection open (false = clean close now).
    keep: bool,
    /// Any bytes moved in either direction (re-arms the stall clock).
    progressed: bool,
    /// Frames served.
    frames: u64,
}

/// Ships as much of the write buffer as the socket accepts, returning
/// the bytes written. A completed buffer counts one coalesced flush,
/// mirroring the threaded front's metering.
fn try_flush(conn: &mut Conn, wire: &WireTelemetry) -> io::Result<usize> {
    let mut shipped = 0usize;
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                conn.wpos += n;
                shipped += n;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    if conn.wpos > 0 && conn.wpos == conn.wbuf.len() {
        wire.flushes.inc();
        wire.bytes_out.add(conn.wbuf.len() as u64);
        conn.wbuf.clear();
        conn.wpos = 0;
    }
    Ok(shipped)
}

/// Advances one connection as far as the socket allows: flush what was
/// pending, then alternate serving buffered frames and reading, stopping
/// at `WouldBlock`, backpressure, handler saturation, or the per-pump
/// read bound.
fn pump(
    conn: &mut Conn,
    key: usize,
    wire: &WireTelemetry,
    backend: &mut dyn LoopBackend,
) -> io::Result<Pump> {
    let mut progressed = try_flush(conn, wire)? > 0;
    let mut frames = 0u64;
    if conn.closing {
        return Ok(Pump {
            keep: conn.pending_write(),
            progressed,
            frames,
        });
    }
    'io: for read_round in 0..=READS_PER_PUMP {
        // Serve every complete frame already buffered. Counters batch
        // per drain, like the threaded front.
        let mut frames_this_read = 0u64;
        loop {
            if conn.backpressured() || conn.handler.saturated() {
                // Stop consuming input until the peer drains responses
                // (or resumptions drain the handler's pending queue);
                // readiness will pump us again.
                break 'io;
            }
            let total = match buffered_frame_len(&conn.rbuf[conn.start..conn.end]) {
                Ok(Some(total)) => total,
                Ok(None) => break,
                Err(e) => {
                    if drop_cause(&e) == Some(DropCause::Oversize) {
                        append_oversize_reply(&mut conn.wbuf, &e);
                    }
                    let _ = try_flush(conn, wire);
                    return Err(e);
                }
            };
            let payload = &conn.rbuf[conn.start + 4..conn.start + total];
            let close = match conn.handler.on_frame(key, payload, &mut conn.wbuf, backend) {
                Ok(close) => close,
                Err(e) => {
                    // Flush the acks already earned by executed
                    // requests before the error takes the connection.
                    let _ = try_flush(conn, wire);
                    return Err(e);
                }
            };
            conn.start += total;
            frames_this_read += 1;
            if close {
                conn.closing = true;
                break;
            }
        }
        if frames_this_read > 0 {
            frames += frames_this_read;
            progressed = true;
            wire.frames_in.add(frames_this_read);
            wire.frames_out.add(frames_this_read);
            wire.frames_per_read.record(frames_this_read);
        }
        if conn.closing || read_round == READS_PER_PUMP {
            break;
        }
        prepare_read_buffer(&mut conn.rbuf, &mut conn.start, &mut conn.end);
        match (&conn.stream).read(&mut conn.rbuf[conn.end..]) {
            Ok(0) => {
                if conn.end == conn.start {
                    // EOF at a frame boundary: clean. Anything still in
                    // the write buffer ships before the close.
                    conn.closing = true;
                    break;
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ));
            }
            Ok(n) => {
                conn.end += n;
                progressed = true;
                wire.bytes_in.add(n as u64);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    // About to go back to waiting: ship the coalesced responses. A
    // closing connection is kept only while responses remain undrained.
    progressed |= try_flush(conn, wire)? > 0;
    Ok(Pump {
        keep: !conn.closing || conn.pending_write(),
        progressed,
        frames,
    })
}

/// One reactor event loop: owns its connections end to end.
#[allow(clippy::too_many_arguments)]
fn reactor_loop(
    rx: Receiver<TcpStream>,
    wake: UnixStream,
    name: &'static str,
    shutdown: Arc<AtomicBool>,
    wire: WireTelemetry,
    rtel: ReactorTelemetry,
    stall_limit: Duration,
    factory: FrameFactory,
    backend_factory: Option<BackendFactory>,
) {
    let poller = Arc::new(Poller::new().expect("create epoll instance"));
    poller
        .add(&wake, WAKE_TOKEN, Interest::READ)
        .expect("register reactor wake pipe");
    let mut backend: Box<dyn LoopBackend> = match &backend_factory {
        Some(make) => make(Arc::clone(&poller)),
        None => Box::new(NoBackend),
    };
    let mut events = Events::with_capacity(1024);
    let mut conns: Slab<Conn> = Slab::new();
    // 512 × 25 ms ≈ 12.8 s of wheel span comfortably covers the default
    // 5 s stall limit; longer limits park and re-bucket.
    let mut wheel = TimerWheel::new(POLL, 512, Instant::now());
    let mut expired: Vec<usize> = Vec::new();
    let mut accepting = true;
    let mut draining = false;

    loop {
        let n = match poller.wait(&mut events, Some(POLL)) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("{name}: reactor wait error: {e}");
                0
            }
        };
        rtel.wakeups.inc();
        if n > 0 {
            rtel.ready_per_wakeup.record(n as u64);
        }
        let now = Instant::now();
        let mut frames_this_wakeup = 0u64;
        for ev in events.iter() {
            let key = ev.token;
            if key == WAKE_TOKEN {
                // Drain every pending poke; the adoption loop below
                // picks up whatever sockets they announced.
                let mut sink = [0u8; 64];
                while matches!((&wake).read(&mut sink), Ok(n) if n > 0) {}
                continue;
            }
            if key & BACKEND_TOKEN != 0 {
                backend.on_event(key & !BACKEND_TOKEN, now);
                continue;
            }
            let Some(conn) = conns.get_mut(key) else {
                continue; // closed earlier this wakeup
            };
            match pump(conn, key, &wire, backend.as_mut()) {
                Ok(p) => {
                    frames_this_wakeup += p.frames;
                    let conn = conns.get_mut(key).unwrap();
                    let idle = !conn.on_clock() && !conn.closing && !conn.handler.suspended();
                    if !p.keep || (draining && idle) {
                        close_conn(
                            &poller,
                            &mut wheel,
                            &mut conns,
                            &rtel,
                            backend.as_mut(),
                            key,
                            None,
                        );
                    } else {
                        refresh(
                            &poller,
                            &mut wheel,
                            conns.get_mut(key).unwrap(),
                            key,
                            p.progressed,
                            now,
                            stall_limit,
                        );
                    }
                }
                Err(e) => {
                    let peer = conns.get(key).map(|c| c.peer.clone()).unwrap_or_default();
                    close_conn(
                        &poller,
                        &mut wheel,
                        &mut conns,
                        &rtel,
                        backend.as_mut(),
                        key,
                        Some(&e),
                    );
                    classify_drop(&e, &wire, &peer, stall_limit);
                }
            }
        }
        if n > 0 {
            rtel.frames_per_wakeup.record(frames_this_wakeup);
        }

        // Adopt queued sockets (dropped unserved once draining).
        while accepting {
            match rx.try_recv() {
                Ok(stream) => {
                    if draining {
                        continue;
                    }
                    register(&poller, &mut conns, &factory, stream, name);
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    accepting = false;
                }
            }
        }

        // Fire stall deadlines.
        expired.clear();
        wheel.poll(now, &mut expired);
        for &key in &expired {
            let Some(conn) = conns.get_mut(key) else {
                continue;
            };
            conn.timer = None;
            let peer = conn.peer.clone();
            let e = drop_error(
                DropCause::Stall,
                format!("no progress for {stall_limit:?} (reactor deadline)"),
            );
            close_conn(
                &poller,
                &mut wheel,
                &mut conns,
                &rtel,
                backend.as_mut(),
                key,
                Some(&e),
            );
            classify_drop(&e, &wire, &peer, stall_limit);
        }

        // Backend deadlines (node timeouts), then resume suspended
        // connections whose internal work completed, then ship the
        // backend's coalesced writes — once per iteration, so every
        // sub-request enqueued this wakeup rides one flush per link.
        // A flush failure can itself complete suspended work (a dead
        // link fails its fan-outs), so resume once more; the second
        // flush is a no-op in the common case.
        backend.tick(now);
        for _ in 0..2 {
            resume_pass(
                &poller,
                &mut wheel,
                &mut conns,
                backend.as_mut(),
                &wire,
                &rtel,
                stall_limit,
                now,
                draining,
            );
            backend.flush(now);
        }

        // Shutdown: close boundary-idle connections now; everything else
        // gets one stall grace period (the deadline is already armed for
        // anything on the clock — arm the rest). A suspended connection
        // is not idle: its response is still owed.
        if !draining && shutdown.load(Ordering::SeqCst) {
            draining = true;
            for key in conns.keys() {
                // One last pump so requests that raced the flag are
                // served, mirroring the threaded drain.
                let conn = conns.get_mut(key).expect("live key");
                match pump(conn, key, &wire, backend.as_mut()) {
                    Ok(p) => {
                        let conn = conns.get_mut(key).unwrap();
                        let idle = !conn.on_clock() && !conn.closing && !conn.handler.suspended();
                        if !p.keep || idle {
                            close_conn(
                                &poller,
                                &mut wheel,
                                &mut conns,
                                &rtel,
                                backend.as_mut(),
                                key,
                                None,
                            );
                        } else {
                            refresh(&poller, &mut wheel, conn, key, true, now, stall_limit);
                        }
                    }
                    Err(e) => {
                        let peer = conns.get(key).map(|c| c.peer.clone()).unwrap_or_default();
                        close_conn(
                            &poller,
                            &mut wheel,
                            &mut conns,
                            &rtel,
                            backend.as_mut(),
                            key,
                            Some(&e),
                        );
                        classify_drop(&e, &wire, &peer, stall_limit);
                    }
                }
            }
            backend.flush(now);
        }
        if draining && conns.is_empty() && !accepting {
            return;
        }
    }
}

/// Resumes every connection whose suspended work completed: deliver the
/// completions via [`FrameHandler::on_resume`], then pump as usual so
/// the freshly appended responses flush and buffered input (parked by
/// handler saturation) is served.
#[allow(clippy::too_many_arguments)]
fn resume_pass(
    poller: &Poller,
    wheel: &mut TimerWheel,
    conns: &mut Slab<Conn>,
    backend: &mut dyn LoopBackend,
    wire: &WireTelemetry,
    rtel: &ReactorTelemetry,
    stall_limit: Duration,
    now: Instant,
    draining: bool,
) {
    let mut keys = backend.take_resumable();
    keys.sort_unstable();
    keys.dedup();
    for key in keys {
        let Some(conn) = conns.get_mut(key) else {
            continue; // closed before its work completed
        };
        match conn.handler.on_resume(key, &mut conn.wbuf, backend) {
            Ok(close) => {
                if close {
                    conn.closing = true;
                }
            }
            Err(e) => {
                // Same contract as a handler error in pump: flush the
                // responses already earned, then drop the connection.
                let _ = try_flush(conn, wire);
                let peer = conn.peer.clone();
                close_conn(poller, wheel, conns, rtel, backend, key, Some(&e));
                classify_drop(&e, wire, &peer, stall_limit);
                continue;
            }
        }
        match pump(conns.get_mut(key).unwrap(), key, wire, backend) {
            Ok(p) => {
                let conn = conns.get_mut(key).unwrap();
                let idle = !conn.on_clock() && !conn.closing && !conn.handler.suspended();
                if !p.keep || (draining && idle) {
                    close_conn(poller, wheel, conns, rtel, backend, key, None);
                } else {
                    refresh(poller, wheel, conn, key, p.progressed, now, stall_limit);
                }
            }
            Err(e) => {
                let peer = conns.get(key).map(|c| c.peer.clone()).unwrap_or_default();
                close_conn(poller, wheel, conns, rtel, backend, key, Some(&e));
                classify_drop(&e, wire, &peer, stall_limit);
            }
        }
    }
}

/// Adopts a fresh socket: nonblocking, registered for read interest, one
/// handler built for its lifetime.
fn register(
    poller: &Poller,
    conns: &mut Slab<Conn>,
    factory: &FrameFactory,
    stream: TcpStream,
    name: &str,
) {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "<unknown peer>".to_string());
    if let Err(e) = stream.set_nonblocking(true).and(stream.set_nodelay(true)) {
        eprintln!("{name}: rejecting {peer}: {e}");
        return;
    }
    let key = conns.insert(Conn {
        stream,
        handler: factory(),
        peer,
        rbuf: vec![0u8; READ_BUF],
        start: 0,
        end: 0,
        wbuf: Vec::with_capacity(16 * 1024),
        wpos: 0,
        interest: Interest::READ,
        timer: None,
        closing: false,
    });
    let conn = conns.get(key).expect("just inserted");
    if let Err(e) = poller.add(&conn.stream, key, Interest::READ) {
        eprintln!("{name}: rejecting {}: {e}", conn.peer);
        conns.remove(key);
    }
}

/// Brings a connection's epoll interest and stall deadline in line with
/// its state: progress re-arms the clock, a clear clock disarms it.
fn refresh(
    poller: &Poller,
    wheel: &mut TimerWheel,
    conn: &mut Conn,
    key: usize,
    progressed: bool,
    now: Instant,
    stall_limit: Duration,
) {
    let want = conn.desired_interest();
    if want != conn.interest && poller.modify(&conn.stream, key, want).is_ok() {
        conn.interest = want;
    }
    let on_clock = conn.on_clock();
    match (on_clock, conn.timer) {
        (false, Some(t)) => {
            wheel.cancel(t);
            conn.timer = None;
        }
        (true, None) => {
            conn.timer = Some(wheel.insert(now + stall_limit, key));
        }
        (true, Some(t)) if progressed => {
            wheel.cancel(t);
            conn.timer = Some(wheel.insert(now + stall_limit, key));
        }
        _ => {}
    }
}

/// Removes a connection from the poller, wheel and slab. `err` is only
/// for deciding trace noise — deliberate drops were already classified
/// by the caller.
fn close_conn(
    poller: &Poller,
    wheel: &mut TimerWheel,
    conns: &mut Slab<Conn>,
    rtel: &ReactorTelemetry,
    backend: &mut dyn LoopBackend,
    key: usize,
    err: Option<&io::Error>,
) {
    let Some(conn) = conns.remove(key) else {
        return;
    };
    if let Some(t) = conn.timer {
        wheel.cancel(t);
    }
    let _ = poller.delete(&conn.stream);
    backend.conn_closed(key);
    rtel.closed.inc();
    if let Some(e) = err {
        let routine = drop_cause(e).is_some()
            || matches!(
                e.kind(),
                io::ErrorKind::UnexpectedEof
                    | io::ErrorKind::TimedOut
                    | io::ErrorKind::WouldBlock
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::BrokenPipe
            );
        if !routine {
            eprintln!("delta-reactor: dropping {}: {e}", conn.peer);
        }
    }
}
