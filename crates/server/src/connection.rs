//! The connection-level pieces both tiers' reactor front doors share
//! ([`crate::front`] drives them): framing ([`buffered_frame_len`]),
//! read-buffer preparation ([`prepare_read_buffer`]), typed drop
//! classification ([`DropCause`], [`classify_drop`]), the wire
//! telemetry handles, and the [`FrameHandler`] / [`LoopBackend`] traits
//! a tier plugs its request handling into. There is no frame loop
//! here; the event loop owns every socket.

use crate::protocol::{append_frame_with, error_code, Response};
use delta_telemetry::{Counter, Histogram, Telemetry};
use std::any::Any;
use std::fmt;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The accept thread's sleep between empty accepts, and the tick of the
/// reactor loops' poll wait and timer wheels.
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

/// The front door's view of the node's telemetry: wire-level counters
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
    /// Drained write buffers (the write-combining win: under pipelining
    /// this is per *window*, not per frame).
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

/// Counts a deliberate drop and leaves one line of trace with the peer
/// that hit it. Classification is the typed [`drop_cause`] payload;
/// an untyped socket timeout falls back to its `io::ErrorKind` and
/// still counts as a stall.
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
