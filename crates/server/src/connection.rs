//! The shared per-connection frame loop both the server and the router
//! run: a flat read buffer that drains every complete frame between
//! syscalls, a coalesced write buffer flushed right before the loop
//! would block, and shutdown-aware polling — the wire hot path distilled
//! so the two tiers cannot drift apart.

use crate::protocol::{append_frame_with, error_code, Response};
use delta_telemetry::{Counter, Histogram, Telemetry};
use std::any::Any;
use std::fmt;
use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often blocked accept/read loops re-check the shutdown flag.
pub(crate) const POLL: Duration = Duration::from_millis(25);

/// Default for how long a connection may sit mid-frame (a started but
/// unfinished request) or on a blocked flush before it is reaped. The
/// effective limit is configurable per tier ([`crate::ServerConfig`] /
/// [`crate::RouterConfig`]); this is the out-of-the-box value.
pub const STALL_LIMIT: Duration = Duration::from_secs(5);

/// Initial per-connection read-buffer size; grows only when a single
/// frame outgrows it.
pub const READ_BUF: usize = 64 * 1024;

/// Cap on coalesced response bytes before an early flush, bounding
/// per-connection memory under huge pipelined windows.
pub(crate) const WRITE_COALESCE_BYTES: usize = 256 * 1024;

/// Why the wire tier deliberately dropped a connection — the typed
/// replacement for matching on error strings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropCause {
    /// Stalled mid-frame (half-open / slowloris) or on a blocked flush
    /// past the stall limit.
    Stall,
    /// Sent a frame whose length word exceeds
    /// [`MAX_FRAME_BYTES`](crate::protocol::MAX_FRAME_BYTES).
    Oversize,
}

/// The payload carried inside the `io::Error` for a deliberate drop, so
/// classification is a downcast instead of a substring match.
#[derive(Debug)]
struct ConnDrop {
    cause: DropCause,
    detail: String,
}

impl fmt::Display for ConnDrop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.detail)
    }
}

impl std::error::Error for ConnDrop {}

/// Builds the typed `io::Error` for a deliberate connection drop.
pub(crate) fn drop_error(cause: DropCause, detail: String) -> io::Error {
    let kind = match cause {
        DropCause::Stall => io::ErrorKind::TimedOut,
        DropCause::Oversize => io::ErrorKind::InvalidData,
    };
    io::Error::new(kind, ConnDrop { cause, detail })
}

/// Recovers the typed drop cause from an `io::Error`, if the error is a
/// deliberate wire-tier drop (and not, say, a raw socket failure).
pub fn drop_cause(e: &io::Error) -> Option<DropCause> {
    e.get_ref()
        .and_then(|inner| inner.downcast_ref::<ConnDrop>())
        .map(|d| d.cause)
}

/// The frame loop's view of the node's telemetry: wire-level counters
/// and the frames-per-read histogram, resolved from the registry once
/// at startup so the hot path never touches the registry lock. One set
/// is shared by every connection of a tier (increments are relaxed
/// atomics, batched per syscall where it matters); the registry's
/// `conn.*` names are common to server and router, so cluster roll-ups
/// merge them naturally.
#[derive(Clone)]
pub(crate) struct WireTelemetry {
    /// Payload bytes read off sockets.
    pub(crate) bytes_in: Arc<Counter>,
    /// Response bytes written to sockets.
    pub(crate) bytes_out: Arc<Counter>,
    /// Request frames served.
    pub(crate) frames_in: Arc<Counter>,
    /// Response frames shipped (1:1 with requests in this protocol).
    pub(crate) frames_out: Arc<Counter>,
    /// Coalesced `write_all` flushes (the write-combining win: under
    /// pipelining this is per *window*, not per frame).
    pub(crate) flushes: Arc<Counter>,
    /// Connections dropped for stalling past the stall limit.
    pub(crate) stall_drops: Arc<Counter>,
    /// Connections dropped for a frame above `MAX_FRAME_BYTES`.
    pub(crate) oversize_rejects: Arc<Counter>,
    /// Complete frames drained per read syscall.
    pub(crate) frames_per_read: Arc<Histogram>,
}

impl WireTelemetry {
    /// Resolves the wire-level handles from a node registry.
    pub(crate) fn register(t: &Telemetry) -> WireTelemetry {
        WireTelemetry {
            bytes_in: t.counter("conn.bytes_in"),
            bytes_out: t.counter("conn.bytes_out"),
            frames_in: t.counter("conn.frames_in"),
            frames_out: t.counter("conn.frames_out"),
            flushes: t.counter("conn.flushes"),
            stall_drops: t.counter("conn.stall_drops"),
            oversize_rejects: t.counter("conn.oversize_rejects"),
            frames_per_read: t.histogram("conn.frames_per_read"),
        }
    }
}

/// A per-connection frame handler with **suspension**: the reactor
/// front's per-connection state machine.
///
/// `on_frame` may answer synchronously (appending response frames to
/// `wbuf`) or *suspend* the response — park the frame's outcome on an
/// internal event (a node reply on a shared link, a backup's
/// acknowledgement) and return with
/// nothing appended. A suspended connection is resumed by the event
/// loop via `on_resume` when its [`LoopBackend`] reports progress, not
/// by socket readiness. Response **order always equals frame arrival
/// order** per connection: a handler that suspends must queue later
/// responses behind earlier suspended ones.
///
/// Both hooks return `true` to close the connection once the write
/// buffer drains (a served `Shutdown`) — even when that response was
/// suspended and only emitted on resume.
pub(crate) trait FrameHandler: Send {
    /// Serves one complete frame payload. `key` is the connection's
    /// loop-local key (its epoll token), which backends use to address
    /// resumptions.
    fn on_frame(
        &mut self,
        key: usize,
        payload: &[u8],
        wbuf: &mut Vec<u8>,
        backend: &mut dyn LoopBackend,
    ) -> io::Result<bool>;

    /// Delivers completed internal work for this connection: emit every
    /// response now emittable in arrival order. Only called on keys the
    /// backend marked resumable.
    fn on_resume(
        &mut self,
        _key: usize,
        _wbuf: &mut Vec<u8>,
        _backend: &mut dyn LoopBackend,
    ) -> io::Result<bool> {
        Ok(false)
    }

    /// True while responses are suspended on internal events — the
    /// connection must not be reaped as idle (shutdown drain waits for
    /// it like it waits for an undrained write buffer).
    fn suspended(&self) -> bool {
        false
    }

    /// True when the handler cannot accept more frames right now (its
    /// pending-response queue is full); the pump stops consuming input
    /// until resumptions drain it, exactly like write backpressure.
    fn saturated(&self) -> bool {
        false
    }
}

/// Per-event-loop machinery that frame handlers suspend on: the
/// reactor loop drives it alongside the client connections. The
/// router's shared node links and a replicating node's ack wake pipe
/// implement this; tiers without internal events use [`NoBackend`].
///
/// The loop contract per iteration: readiness events whose token has
/// the backend bit set are routed to `on_event`; `tick` fires internal
/// deadlines; every key in `take_resumable` gets an
/// [`FrameHandler::on_resume`]; `flush` runs after resumptions so
/// writes enqueued anywhere in the iteration coalesce into one flush
/// per link per pump.
pub(crate) trait LoopBackend: Send {
    /// Downcast hook so a tier's handler can reach its concrete
    /// backend (they are registered as a pair by construction).
    fn as_any(&mut self) -> &mut dyn Any;

    /// A readiness event for backend token `token` (bit already
    /// stripped).
    fn on_event(&mut self, _token: usize, _now: Instant) {}

    /// Advances internal deadlines (the backend owns its own timer
    /// wheel, separate from the connection stall wheel).
    fn tick(&mut self, _now: Instant) {}

    /// Connection keys with newly completed internal work; drained.
    fn take_resumable(&mut self) -> Vec<usize> {
        Vec::new()
    }

    /// Ships coalesced internal writes — once per loop iteration.
    fn flush(&mut self, _now: Instant) {}

    /// Connection `key` closed: abandon its pending internal work.
    fn conn_closed(&mut self, _key: usize) {}
}

/// The no-op backend for tiers whose handlers never suspend.
pub(crate) struct NoBackend;

impl LoopBackend for NoBackend {
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// Length of the complete frame (header + payload) at the front of
/// `buf`, or `None` when more bytes are needed. Rejects corrupt length
/// words before any allocation, with a typed [`DropCause::Oversize`]
/// error (recoverable via [`drop_cause`]).
pub fn buffered_frame_len(buf: &[u8]) -> io::Result<Option<usize>> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_be_bytes(buf[..4].try_into().unwrap());
    if len > crate::protocol::MAX_FRAME_BYTES {
        return Err(drop_error(
            DropCause::Oversize,
            format!(
                "frame length {len} exceeds MAX_FRAME_BYTES ({})",
                crate::protocol::MAX_FRAME_BYTES
            ),
        ));
    }
    let total = 4 + len as usize;
    Ok(if buf.len() >= total {
        Some(total)
    } else {
        None
    })
}

/// Readies `rbuf` for the next read syscall: compacts the unconsumed
/// region `[*start, *end)` to the front, grows the buffer when the
/// pending frame's validated length word says it could never complete
/// in the current capacity, and shrinks a buffer grown for a *past*
/// oversized frame back to [`READ_BUF`] once nothing pending needs the
/// extra room (100 idle connections that each saw one 64 MiB frame must
/// not hold gigabytes).
///
/// The caller must have validated any buffered length word via
/// [`buffered_frame_len`] first — this function trusts it.
pub fn prepare_read_buffer(rbuf: &mut Vec<u8>, start: &mut usize, end: &mut usize) {
    if *start > 0 {
        rbuf.copy_within(*start..*end, 0);
        *end -= *start;
        *start = 0;
    }
    let needed = if *end >= 4 {
        4 + u32::from_be_bytes(rbuf[..4].try_into().unwrap()) as usize
    } else {
        *end
    };
    if needed > rbuf.len() {
        rbuf.resize(needed, 0);
    } else if rbuf.len() > READ_BUF && *end <= READ_BUF && needed <= READ_BUF {
        rbuf.truncate(READ_BUF);
        rbuf.shrink_to_fit();
    }
}

/// Pulls more bytes into `rbuf[*end..]` after compacting/resizing via
/// [`prepare_read_buffer`], polling the shutdown flag while idle.
///
/// Returns `Ok(false)` on a clean stop — EOF or shutdown, both only at a
/// frame boundary (no partial frame buffered). A connection that is
/// *mid-frame* — it sent part of a request and went quiet — is on the
/// `stall_limit` clock **unconditionally**: a half-open or slowloris
/// client is reaped during normal operation, not only once shutdown
/// arms. (This deadline used to arm only post-shutdown, which let one
/// quiet client pin a thread and its read buffer forever.) Idling at a
/// frame boundary is always allowed: that is just a connection with
/// nothing to say. EOF mid-frame is an error immediately.
pub(crate) fn fill_polling(
    reader: &mut TcpStream,
    rbuf: &mut Vec<u8>,
    start: &mut usize,
    end: &mut usize,
    shutdown: &AtomicBool,
    stall_limit: Duration,
) -> io::Result<bool> {
    use std::io::Read;
    prepare_read_buffer(rbuf, start, end);
    let at_boundary = *end == 0;
    let mut stall_started: Option<std::time::Instant> = None;
    loop {
        match reader.read(&mut rbuf[*end..]) {
            Ok(0) => {
                if at_boundary {
                    return Ok(false);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ));
            }
            Ok(n) => {
                *end += n;
                return Ok(true);
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if at_boundary {
                    if shutdown.load(Ordering::SeqCst) {
                        return Ok(false);
                    }
                } else {
                    let started = stall_started.get_or_insert_with(std::time::Instant::now);
                    if started.elapsed() > stall_limit {
                        return Err(drop_error(
                            DropCause::Stall,
                            format!("mid-frame stall past {stall_limit:?}"),
                        ));
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// The per-connection serve loop, built around two reusable buffers:
///
/// * **Read side** — one flat buffer; a `read` syscall pulls as many
///   pipelined frames as the socket holds, and the loop serves every
///   complete frame before touching the socket again. No per-frame
///   allocation, and typically one syscall per *window* rather than two
///   per frame.
/// * **Write side** — the handler appends length-prefixed response
///   frames to a coalesced buffer that hits the socket with a single
///   `write_all` right before the loop would block for input — one flush
///   per window under pipelining, per frame under lockstep (where it
///   cannot be avoided: the client is waiting).
///
/// `handle` is called once per complete frame payload; it appends its
/// response frame(s) to the write buffer and returns `true` when the
/// connection must close after flushing (a served `Shutdown`). On a
/// handler error the responses already earned by executed requests are
/// flushed before the error propagates — engine state mutated; the acks
/// must not vanish with the buffer.
pub(crate) fn serve_frames<H>(
    stream: TcpStream,
    shutdown: &AtomicBool,
    wire: &WireTelemetry,
    stall_limit: Duration,
    handle: H,
) -> io::Result<()>
where
    H: FnMut(&[u8], &mut Vec<u8>) -> io::Result<bool>,
{
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "<unknown peer>".to_string());
    let result = serve_frames_inner(stream, shutdown, wire, stall_limit, handle);
    if let Err(e) = &result {
        classify_drop(e, wire, &peer, stall_limit);
    }
    result
}

/// Counts a deliberate drop and leaves one line of trace with the peer
/// that hit it. Classification is the typed [`drop_cause`] payload;
/// raw socket timeouts (a blocked `write_all` hitting the write
/// timeout) fall back to their `io::ErrorKind` and still count as
/// stalls.
pub(crate) fn classify_drop(
    e: &io::Error,
    wire: &WireTelemetry,
    peer: &str,
    stall_limit: Duration,
) {
    match drop_cause(e) {
        Some(DropCause::Stall) => {
            wire.stall_drops.inc();
            eprintln!("delta-conn: dropping {peer}: stalled past {stall_limit:?} ({e})");
        }
        Some(DropCause::Oversize) => {
            wire.oversize_rejects.inc();
            eprintln!("delta-conn: dropping {peer}: oversized frame ({e})");
        }
        None => {
            if matches!(
                e.kind(),
                io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
            ) {
                wire.stall_drops.inc();
                eprintln!("delta-conn: dropping {peer}: stalled past {stall_limit:?} ({e})");
            }
        }
    }
}

/// Appends the typed oversize error frame a client receives before the
/// connection closes. Oversize is detected at the decode position — by
/// construction a frame boundary — so unlike a mid-frame stall, a
/// well-formed reply *can* precede the close instead of a silent EOF.
pub(crate) fn append_oversize_reply(wbuf: &mut Vec<u8>, e: &io::Error) {
    let response = Response::Error {
        code: error_code::FRAME_TOO_LARGE,
        message: e.to_string(),
    };
    // Encoding a short error frame cannot itself exceed MAX_FRAME_BYTES.
    let _ = append_frame_with(wbuf, |buf| response.encode_into(buf));
}

fn serve_frames_inner<H>(
    stream: TcpStream,
    shutdown: &AtomicBool,
    wire: &WireTelemetry,
    stall_limit: Duration,
    mut handle: H,
) -> io::Result<()>
where
    H: FnMut(&[u8], &mut Vec<u8>) -> io::Result<bool>,
{
    // BSD-derived platforms propagate the listener's O_NONBLOCK to
    // accepted sockets; clear it so the read timeout below governs.
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(POLL))?;
    // A client that stops draining responses must not be able to wedge
    // graceful shutdown behind an unbounded blocking write.
    stream.set_write_timeout(Some(stall_limit))?;
    let mut reader = stream.try_clone()?;
    let mut writer = stream;

    let mut rbuf = vec![0u8; READ_BUF];
    let (mut start, mut end) = (0usize, 0usize);
    let mut wbuf: Vec<u8> = Vec::with_capacity(16 * 1024);
    // One coalesced flush: counted once, bytes counted once.
    let flush = |writer: &mut TcpStream, wbuf: &[u8]| -> io::Result<()> {
        writer.write_all(wbuf)?;
        wire.flushes.inc();
        wire.bytes_out.add(wbuf.len() as u64);
        Ok(())
    };
    let mut filled_once = false;

    loop {
        // Serve every complete frame already buffered. The telemetry
        // counters are batched per drain (one set of atomic adds per
        // read syscall, not per frame).
        let mut frames_this_read = 0u64;
        let closing = loop {
            let total = match buffered_frame_len(&rbuf[start..end]) {
                Ok(Some(total)) => total,
                Ok(None) => break None,
                Err(e) => {
                    if drop_cause(&e) == Some(DropCause::Oversize) {
                        append_oversize_reply(&mut wbuf, &e);
                    }
                    let _ = flush(&mut writer, &wbuf);
                    break Some(Err(e));
                }
            };
            let payload = &rbuf[start + 4..start + total];
            let closing = match handle(payload, &mut wbuf) {
                Ok(closing) => closing,
                Err(e) => {
                    let _ = flush(&mut writer, &wbuf);
                    break Some(Err(e));
                }
            };
            start += total;
            frames_this_read += 1;
            if closing {
                break Some(flush(&mut writer, &wbuf));
            }
            if wbuf.len() >= WRITE_COALESCE_BYTES {
                flush(&mut writer, &wbuf)?;
                wbuf.clear();
            }
        };
        if frames_this_read > 0 {
            wire.frames_in.add(frames_this_read);
            wire.frames_out.add(frames_this_read);
        }
        if filled_once {
            wire.frames_per_read.record(frames_this_read);
        }
        if let Some(result) = closing {
            return result;
        }
        // About to wait for input: ship the coalesced responses first so
        // the client can make progress (and so lockstep never stalls).
        if !wbuf.is_empty() {
            flush(&mut writer, &wbuf)?;
            wbuf.clear();
        }
        let pending = end - start;
        if !fill_polling(
            &mut reader,
            &mut rbuf,
            &mut start,
            &mut end,
            shutdown,
            stall_limit,
        )? {
            return Ok(());
        }
        // `fill_polling` compacted to start == 0, so the growth of the
        // buffered region is exactly what the read syscall returned.
        wire.bytes_in.add((end - pending) as u64);
        filled_once = true;
    }
}
