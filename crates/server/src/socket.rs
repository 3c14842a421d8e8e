//! The TCP transport: an accept loop and a fixed worker pool that move
//! bytes between sockets and [`Session`](crate::Session)s.
//!
//! Everything a reply says is decided by the session. What is left here is
//! what only a socket has: admission control (`max_conns`, `max_pending`),
//! the idle deadline (the socket's read timeout) and the write deadline,
//! and the stop that has to reach every thread asleep in `accept()`, on the
//! hand-off queue or in a connection's `read()`.

use crate::proto::{busy_reply, BUSY_ERR};
use crate::{cap_or_max, Engine, LineAction, ServerConfig, ServerStats, READ_BUF};
use gsr_core::{CancelToken, GsrError, RangeReachIndex};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// First sleep of the accept loop's exponential backoff on `accept()`
/// failures.
const ACCEPT_BACKOFF_START: Duration = Duration::from_millis(25);

/// Ceiling of the accept loop's exponential backoff on repeated
/// `accept()` failures. Also bounds shutdown latency during such a storm.
const ACCEPT_BACKOFF_CAP: Duration = Duration::from_secs(1);

/// The `retry_ms` hint sent with `ERR 7 busy` shed replies. A courtesy
/// backoff suggestion, not a promise of capacity.
const BUSY_RETRY_MS: u64 = 100;

/// Write deadline of the one `ERR 7 busy` line a shed connection gets.
/// The accept loop writes it, so it must be short: a refused peer that
/// does not take twelve bytes at once forfeits the courtesy.
const SHED_WRITE_TIMEOUT: Duration = Duration::from_millis(25);

/// How long a stop waits for the connection that wakes `accept()`.
const WAKE_CONNECT_TIMEOUT: Duration = Duration::from_millis(250);

/// Locks a mutex whose data every update leaves whole (a queue push or
/// pop, a map insert or remove), so a holder's panic cannot have left it
/// half-written: the poison flag is ignored and shutdown can still reach
/// every connection.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What stopping the server must reach, shared between the
/// [`QueryServer`] and every [`StopHandle`] it handed out.
struct Shared {
    /// The engine's cancellation flag.
    cancel: CancelToken,
    /// Where a stop connects to wake `accept()`: the listener's own
    /// address (loopback when it listens on every interface).
    wake_addr: SocketAddr,
    /// The accept→worker hand-off queue: admitted connections with their
    /// ids, waiting for a worker.
    pending: Mutex<VecDeque<(u64, TcpStream)>>,
    /// Signalled per queued connection, and to all on stop.
    ready: Condvar,
    /// A second handle on the socket of every admitted connection (queued
    /// or being served), by connection id: what a stop shuts down to get
    /// workers out of `read()`. Entered at admission, removed by
    /// [`LiveGuard`]; the `live` gauge of [`ServerStats`] counts it.
    live: Mutex<HashMap<u64, TcpStream>>,
}

impl Shared {
    /// Stops the server: sets the flag, then wakes every place a thread
    /// can be asleep — `accept()`, the queue's `Condvar`, a connection's
    /// `read()` or `write()`. Idempotent.
    ///
    /// The flag is set first and every sleeper re-checks it before going
    /// back to sleep, so none can miss the stop: a worker checks it under
    /// the queue lock (taken here before notifying) and before every
    /// `read()` of a connection that was registered before its first.
    fn stop(&self) {
        self.cancel.cancel();
        // Best-effort: when it fails the listener's backlog is full (so
        // `accept()` is about to return anyway) or the server is gone.
        let _ = TcpStream::connect_timeout(&self.wake_addr, WAKE_CONNECT_TIMEOUT);
        drop(lock(&self.pending));
        self.ready.notify_all();
        for stream in lock(&self.live).values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// Stops a running [`QueryServer`] from outside it. Clones (and the
/// handles of one server) are interchangeable.
#[derive(Clone)]
pub struct StopHandle(Arc<Shared>);

impl StopHandle {
    /// Stops the server: the accept loop exits, idle workers wake and
    /// drain, every open connection is shut down (its client sees EOF),
    /// and [`QueryServer::run`] returns. Idempotent.
    pub fn cancel(&self) {
        self.0.stop();
    }
}

/// A bound TCP query service. Construct with [`QueryServer::bind_many`],
/// then call [`QueryServer::run`] to serve until shutdown.
pub struct QueryServer {
    listener: TcpListener,
    local_addr: SocketAddr,
    engine: Engine,
    shared: Arc<Shared>,
}

/// Ends a connection's admission on drop: takes its second socket handle
/// out of the live registry and closes it. Declared before the handler is
/// given the stream, so it drops *after* the handler's handle — only then
/// is the socket's last handle gone and the FIN sent, after the admission
/// slot frees, even if a handler returns early.
struct LiveGuard<'a> {
    shared: &'a Shared,
    stats: &'a ServerStats,
    id: u64,
}

impl Drop for LiveGuard<'_> {
    fn drop(&mut self) {
        self.stats.live.fetch_sub(1, Ordering::Relaxed);
        lock(&self.shared.live).remove(&self.id);
    }
}

impl QueryServer {
    /// Binds the service to `addr` (port 0 lets the OS pick one; see
    /// [`QueryServer::local_addr`]) with a registry of named indexes (see
    /// [`Engine::new`]): connections start on the first entry and switch
    /// with `USE <name>`.
    pub fn bind_many(
        addr: impl ToSocketAddrs,
        indexes: Vec<(String, Arc<dyn RangeReachIndex>)>,
        config: ServerConfig,
    ) -> Result<Self, GsrError> {
        let engine = Engine::new(indexes, config)?;
        let listener =
            TcpListener::bind(addr).map_err(|e| GsrError::Internal(format!("server bind: {e}")))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| GsrError::Internal(format!("server local_addr: {e}")))?;
        let mut wake_addr = local_addr;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let shared = Arc::new(Shared {
            cancel: engine.cancel.clone(),
            wake_addr,
            pending: Mutex::default(),
            ready: Condvar::new(),
            live: Mutex::default(),
        });
        Ok(QueryServer { listener, local_addr, engine, shared })
    }

    /// The bound address (resolves port 0 to the OS-assigned port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle that stops the server when cancelled: the accept loop
    /// exits, idle workers wake and drain, open connections are shut down,
    /// and [`QueryServer::run`] returns.
    pub fn cancel_token(&self) -> StopHandle {
        StopHandle(Arc::clone(&self.shared))
    }

    /// The live service counters (shared with the workers).
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.engine.stats)
    }

    /// Serves until stopped (by a [`StopHandle`] or a client's
    /// `SHUTDOWN`), then returns once every worker has let go of its
    /// connection.
    pub fn run(self) -> Result<(), GsrError> {
        let workers = gsr_graph::par::effective_threads(self.engine.config.threads);

        // Task 0 is the accept loop; tasks 1..=workers are the fixed
        // connection-handler pool. All are blocking tasks on the same
        // scoped-thread pool the index builders use; requesting exactly
        // `workers + 1` threads gives every task its own OS thread.
        gsr_graph::par::map_indexed(workers + 1, workers + 1, |i| {
            if i == 0 {
                self.accept_loop();
            } else {
                self.worker_loop();
            }
        });
        Ok(())
    }

    fn accept_loop(&self) {
        let mut backoff = ACCEPT_BACKOFF_START;
        let mut next_id = 0u64;
        loop {
            let accepted = self.listener.accept();
            if self.shared.cancel.is_cancelled() {
                // Whatever woke the loop — the stop's own connection or a
                // late client — is closed unanswered.
                return;
            }
            match accepted {
                Ok((stream, _peer)) => {
                    backoff = ACCEPT_BACKOFF_START;
                    self.admit(stream, next_id);
                    next_id += 1;
                }
                Err(_) => {
                    // Transient accept failure (EMFILE storms, aborted
                    // handshakes): count it and back off with capped
                    // exponential sleep instead of hot-spinning, so a
                    // persistent storm costs a bounded trickle of wakeups.
                    self.engine.stats.record_accept_error();
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(ACCEPT_BACKOFF_CAP);
                }
            }
        }
    }

    /// Admission control: queue the connection for a worker, or shed it
    /// with one `ERR 7 busy` line and a close. Shedding at the door keeps
    /// both the hand-off queue and total connection state bounded no
    /// matter how fast clients arrive.
    fn admit(&self, stream: TcpStream, id: u64) {
        let (shared, stats, config) = (&self.shared, &self.engine.stats, &self.engine.config);
        if stats.live.load(Ordering::Relaxed) >= cap_or_max(config.max_conns) as u64 {
            stats.record_rejected();
            Self::shed(stream);
            return;
        }
        let mut pending = lock(&shared.pending);
        if shared.cancel.is_cancelled() {
            // Checked under the queue lock, under which the workers decide
            // to exit: nothing is queued once they may all be gone.
            return;
        }
        if pending.len() >= cap_or_max(config.max_pending) {
            drop(pending);
            stats.record_shed();
            Self::shed(stream);
            return;
        }
        let Ok(twin) = stream.try_clone() else {
            // Out of descriptors: the same storm `accept()` fails in.
            stats.record_accept_error();
            return;
        };
        // Registered before any worker can read from it, so a stop that
        // comes after a worker's cancellation check finds it here.
        stats.live.fetch_add(1, Ordering::Relaxed);
        lock(&shared.live).insert(id, twin);
        pending.push_back((id, stream));
        drop(pending);
        shared.ready.notify_one();
    }

    /// Refuses a connection: one busy line under a short write deadline,
    /// then close (on drop). Best-effort — the close is the mechanism,
    /// the hint is a courtesy.
    fn shed(mut stream: TcpStream) {
        let _ = stream.set_write_timeout(Some(SHED_WRITE_TIMEOUT));
        let _ = stream.write_all(busy_reply(BUSY_RETRY_MS).as_bytes());
    }

    fn worker_loop(&self) {
        let shared = &self.shared;
        loop {
            let (id, stream) = {
                let mut pending = lock(&shared.pending);
                loop {
                    if let Some(next) = pending.pop_front() {
                        break next;
                    }
                    if shared.cancel.is_cancelled() {
                        return;
                    }
                    pending = shared.ready.wait(pending).unwrap_or_else(PoisonError::into_inner);
                }
            };
            // Guard first, stream into the handler second: the handler's
            // handle drops before the registry's.
            let _live = LiveGuard { shared, stats: &self.engine.stats, id };
            self.handle_connection(stream);
        }
    }

    /// Moves one connection's bytes through a [`Session`](crate::Session)
    /// until EOF, a fatal socket error, the session closing it, the idle
    /// deadline, or shutdown.
    fn handle_connection(&self, mut stream: TcpStream) {
        let config = &self.engine.config;
        // The only read timeout a connection has is its idle deadline: the
        // worker sleeps in `read()` until request bytes, EOF, that
        // deadline, or a stop shutting the socket down. (The OS rejects a
        // zero timeout, hence the floor.)
        let _ =
            stream.set_read_timeout(config.idle_timeout.map(|t| t.max(Duration::from_millis(1))));
        // A write deadline keeps one stalled reader from wedging this
        // worker: a reply write that cannot make progress errors out and
        // the connection closes.
        let _ = stream.set_write_timeout(config.write_timeout);
        let _ = stream.set_nodelay(true);

        let mut session = self.engine.session();
        let mut buf = vec![0u8; READ_BUF];
        let mut out = Vec::new();
        loop {
            if self.shared.cancel.is_cancelled() {
                return;
            }
            let action = match stream.read(&mut buf) {
                // EOF: the peer may have half-closed and still be waiting
                // for the reply to an unterminated last line.
                Ok(0) => {
                    let action = session.finish(&mut out);
                    self.send(&mut stream, &mut out, action);
                    return;
                }
                Ok(n) => session.feed(&buf[..n], &mut out),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if let Some(idle) = config.idle_timeout {
                        // Reap the silent connection; the reply names the
                        // reason so a live-but-lazy client can tell this
                        // from a crash.
                        self.engine.stats.record_protocol_error();
                        let reply =
                            format!("ERR {BUSY_ERR} idle timeout after {} ms\n", idle.as_millis());
                        let _ = stream.write_all(reply.as_bytes());
                    }
                    return;
                }
                Err(_) => return,
            };
            if !self.send(&mut stream, &mut out, action) {
                return;
            }
        }
    }

    /// Writes what a feed answered with one `write_all`; a `SHUTDOWN`
    /// among it stops the server once its `OK shutdown` is on the wire.
    /// Returns whether the connection goes on.
    fn send(&self, stream: &mut TcpStream, out: &mut Vec<u8>, action: LineAction) -> bool {
        let written = stream.write_all(out);
        // A feed of many short malformed lines is answered with far more
        // bytes than it had; do not keep that for the connection's life.
        out.clear();
        out.shrink_to(READ_BUF);
        if action == LineAction::Shutdown {
            self.shared.stop();
        }
        written.is_ok() && action == LineAction::Continue
    }
}
