//! The event-driven filter server: every connection served from one
//! nonblocking readiness loop ([`eventloop::Poller`] — raw-syscall
//! epoll on x86_64 Linux, the scan fallback elsewhere).
//!
//! # Why a second transport
//!
//! The threaded server pins one worker per live connection, so its
//! concurrency is the pool size and each idle connection costs a
//! blocked thread. The evented server inverts that: one loop thread
//! owns every socket, sleeping in `epoll_wait` until some socket has
//! bytes, so thousands of mostly-idle connections cost one thread and
//! a few KB of buffers each — the classic C10K argument, applied to a
//! filter sidecar whose requests are microseconds long (dispatching
//! inline on the loop thread is *cheaper* than handing off to a pool
//! for work this small).
//!
//! # Pipelining and parity
//!
//! Each connection is a socket plus a `Session`, the sans-IO core
//! the threaded server runs too. One readiness drain reads until the
//! socket is empty, then the session serves **every** complete frame
//! buffered, responses strictly in request order. While the session's
//! output bound pauses it, the loop watches that socket for write
//! readiness only: level-triggered readable events would otherwise
//! fire on every wait. Since framing, dispatch and accounting all
//! happen in the session, responses and deterministic STATS counters
//! are bit-identical across transports (`tests/service_e2e.rs`
//! asserts it), and so is the drain contract: shutdown stops
//! accepting, writes the responses already queued, and closes.
//!
//! # Safety
//!
//! This module is pure safe code (`service` forbids unsafe); all fd
//! handling lives behind `eventloop`'s audited syscall island. The
//! loop tolerates spurious readiness by construction — a read or
//! write that would block just ends the drain — which is exactly the
//! contract the scan-fallback poller needs, and why
//! `BEYOND_BLOOM_FORCE_POLL=1` runs the full e2e suite unchanged.

use crate::engine::{render_metrics, Engine, ServerConfig};
use crate::session::{Session, READ_CHUNK};
use eventloop::{net, os_fd, BackendKind, Event, Interest, Poller, Token};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Token 0 is the listener; connection n lives at token n + 1.
const LISTENER: Token = Token(0);

/// Per-connection state: the socket, what the poller watches it for,
/// and the protocol session.
struct Conn {
    stream: TcpStream,
    interest: Interest,
    session: Session,
}

/// An event-driven [`FilterServer`](crate::server::FilterServer)
/// equivalent: same engine, same wire protocol, same drain semantics,
/// one readiness loop instead of a thread pool.
pub struct EventedFilterServer {
    engine: Arc<Engine>,
    addr: SocketAddr,
    backend: BackendKind,
    looper: Option<JoinHandle<()>>,
}

impl EventedFilterServer {
    /// Bind `addr` (port 0 for ephemeral) and start the loop thread.
    /// Takes the same [`ServerConfig`] as the threaded server
    /// (`workers`/`backlog` are ignored; the loop serves everyone).
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        net::set_reuseaddr(&listener)?;
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        let backend = poller.kind();
        crate::engine::register_all_layers();
        let engine = Arc::new(Engine::new(config));
        let looper = {
            let engine = Arc::clone(&engine);
            std::thread::Builder::new()
                .name("filter-evented".into())
                .spawn(move || event_loop(&engine, listener, poller))
                .expect("spawn evented loop")
        };
        Ok(EventedFilterServer {
            engine,
            addr: local,
            backend,
            looper: Some(looper),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Which readiness backend the loop runs on (epoll or the
    /// portable scan fallback).
    pub fn poll_backend(&self) -> BackendKind {
        self.backend
    }

    /// Racing snapshot of the server metrics (same data STATS serves).
    pub fn metrics(&self) -> &crate::metrics::ServerMetrics {
        self.engine.metrics()
    }

    /// Install a filter directly, bypassing the wire CREATE. Returns
    /// `false` when the name is already taken.
    pub fn register(&self, name: &str, filter: crate::engine::ServedFilter) -> bool {
        self.engine.register(name, filter)
    }

    /// Render the METRICS exposition in-process.
    pub fn metrics_text(&self) -> String {
        render_metrics(&self.engine)
    }

    /// Stop accepting, flush queued responses, close every
    /// connection, join the loop thread. The loop observes the flag
    /// within one readiness-wait tick, so no wake-up connection is
    /// needed.
    pub fn shutdown(mut self) {
        self.engine.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.looper.take() {
            let _ = h.join();
        }
    }
}

fn event_loop(engine: &Engine, listener: TcpListener, mut poller: Poller) {
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: VecDeque<usize> = VecDeque::new();
    let mut events: Vec<Event> = Vec::new();
    // One read buffer for the whole loop: zeroing 64 KiB on every
    // readable event costs more than dispatching a small request.
    let mut chunk = vec![0u8; READ_CHUNK];
    if poller
        .register(os_fd(&listener), LISTENER, Interest::READABLE)
        .is_err()
    {
        return;
    }
    let tick = engine.config.read_timeout;
    loop {
        if engine.stopping() {
            break;
        }
        if poller.wait(&mut events, Some(tick)).is_err() {
            break;
        }
        for ev in &events {
            if ev.token == LISTENER {
                accept_ready(engine, &listener, &mut poller, &mut conns, &mut free);
            } else {
                let idx = ev.token.0 - 1;
                // A slot freed earlier in this same batch can leave a
                // stale event behind; with level-triggered readiness,
                // skipping or spuriously servicing a reused slot are
                // both harmless.
                let closed = match conns.get_mut(idx) {
                    Some(Some(conn)) => conn_ready(engine, conn, &mut poller, ev, &mut chunk),
                    _ => false,
                };
                if closed {
                    close_conn(engine, &mut poller, &mut conns, &mut free, idx);
                }
            }
        }
        // Idle sweep: close connections past the idle deadline.
        if engine.config.idle_timeout.is_some() {
            for idx in 0..conns.len() {
                if conns[idx]
                    .as_ref()
                    .is_some_and(|c| c.session.expired(engine))
                {
                    close_conn(engine, &mut poller, &mut conns, &mut free, idx);
                }
            }
        }
    }
    // Drain: stop accepting (loop exited), finish writing whatever is
    // already queued with a bounded blocking flush, close everything.
    poller.deregister(os_fd(&listener), LISTENER).ok();
    for idx in 0..conns.len() {
        if let Some(conn) = &mut conns[idx] {
            if !conn.session.output().is_empty() {
                // Bounded blocking flush (bytes/counters were already
                // accounted at queue time).
                let _ = conn.stream.set_nonblocking(false);
                let _ = conn
                    .stream
                    .set_write_timeout(Some(tick.max(std::time::Duration::from_millis(100))));
                let _ = conn.stream.write_all(conn.session.output());
            }
        }
        if conns[idx].is_some() {
            close_conn(engine, &mut poller, &mut conns, &mut free, idx);
        }
    }
}

/// Accept until `WouldBlock`, registering each new socket.
fn accept_ready(
    engine: &Engine,
    listener: &TcpListener,
    poller: &mut Poller,
    conns: &mut Vec<Option<Conn>>,
    free: &mut VecDeque<usize>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if engine.stopping() {
                    drop(stream);
                    return;
                }
                if stream.set_nonblocking(true).is_err() {
                    engine.metrics.accept_errors.inc();
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let idx = free.pop_front().unwrap_or_else(|| {
                    conns.push(None);
                    conns.len() - 1
                });
                let token = Token(idx + 1);
                if poller
                    .register(os_fd(&stream), token, Interest::READABLE)
                    .is_err()
                {
                    engine.metrics.accept_errors.inc();
                    free.push_back(idx);
                    continue;
                }
                engine.metrics.connections_opened.inc();
                engine.metrics.open_connections.add(1);
                let session = Session::new(stream.peer_addr().ok());
                conns[idx] = Some(Conn {
                    stream,
                    interest: Interest::READABLE,
                    session,
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                engine.metrics.accept_errors.inc();
                return;
            }
        }
    }
}

/// Serve one readiness event: read while the session wants input,
/// let it serve and write, then watch the socket for what the session
/// waits on. Returns `true` when the connection should close now.
fn conn_ready(
    engine: &Engine,
    conn: &mut Conn,
    poller: &mut Poller,
    ev: &Event,
    chunk: &mut [u8],
) -> bool {
    if ev.readable {
        while conn.session.wants_input(engine) {
            match conn.stream.read(chunk) {
                Ok(n) => {
                    conn.session.feed(&chunk[..n]);
                    // A short read emptied the socket: skip the read
                    // that would return `WouldBlock`. Level-triggered
                    // readiness reports any bytes that arrive later.
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return true,
            }
        }
    }
    let session = &mut conn.session;
    if session.drive(engine, |out| conn.stream.write(out)).is_err() || session.finished() {
        return true;
    }
    let want = match (session.wants_input(engine), session.output().is_empty()) {
        (true, true) => Interest::READABLE,
        (true, false) => Interest::BOTH,
        (false, _) => Interest::WRITABLE,
    };
    if want != conn.interest {
        conn.interest = want;
        let _ = poller.modify(os_fd(&conn.stream), ev.token, want);
    }
    false
}

fn close_conn(
    engine: &Engine,
    poller: &mut Poller,
    conns: &mut [Option<Conn>],
    free: &mut VecDeque<usize>,
    idx: usize,
) {
    if let Some(conn) = conns[idx].take() {
        let _ = poller.deregister(os_fd(&conn.stream), Token(idx + 1));
        drop(conn);
        engine.metrics.connections_closed.inc();
        engine.metrics.open_connections.add(-1);
        free.push_back(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::FilterClient;
    use crate::proto::{Backend, ErrorCode, FrameEvent, FrameReader, Response};
    use std::time::Duration;

    fn quick_config() -> ServerConfig {
        ServerConfig {
            read_timeout: Duration::from_millis(10),
            ..ServerConfig::default()
        }
    }

    #[test]
    fn serve_create_insert_query_shutdown() {
        let server = EventedFilterServer::bind("127.0.0.1:0", quick_config()).unwrap();
        let mut c = FilterClient::connect(server.local_addr()).unwrap();
        c.create("t", Backend::AtomicBloom, 10_000, 0.01, 0, 7)
            .unwrap();
        c.insert("t", &[1, 2, 3]).unwrap();
        let got = c.contains("t", &[1, 2, 3, 999_999]).unwrap();
        assert_eq!(&got[..3], &[true, true, true]);
        let stats = c.stats().unwrap();
        assert_eq!(stats.filters.len(), 1);
        assert!(stats.counters.frames_received >= 3);
        assert_eq!(stats.counters.open_connections, 1);
        drop(c);
        server.shutdown();
    }

    #[test]
    fn pipelined_frames_answered_in_order() {
        use crate::proto::{write_frame, Request};
        let server = EventedFilterServer::bind("127.0.0.1:0", quick_config()).unwrap();
        let mut c = FilterClient::connect(server.local_addr()).unwrap();
        c.create("p", Backend::ShardedCqf, 10_000, 0.01, 2, 7)
            .unwrap();
        drop(c);
        // Raw pipelining: many request frames in one burst, no reads
        // in between, then collect the responses in order. TCP may
        // deliver a burst in pieces under load (one frame per
        // readable event keeps the watermark at 1), so retry until a
        // burst lands in one drain — one attempt almost always does.
        let mut attempts = 0;
        while server.metrics().pipelined_depth.get() <= 1 {
            attempts += 1;
            assert!(attempts <= 20, "no burst ever drained as a pipeline");
            let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
            let n = 32;
            let mut wire = Vec::new();
            for i in 0..n {
                let req = Request::Insert {
                    name: "p".into(),
                    keys: vec![i, i + 1_000],
                };
                write_frame(&mut wire, &req.encode()).unwrap();
            }
            let probe = Request::Count {
                name: "p".into(),
                keys: (0..n).collect(),
            };
            write_frame(&mut wire, &probe.encode()).unwrap();
            stream.write_all(&wire).unwrap();
            let mut frames =
                FrameReader::new(stream.try_clone().unwrap(), crate::proto::DEFAULT_MAX_FRAME);
            for _ in 0..n {
                match frames.read_frame().unwrap() {
                    FrameEvent::Frame(p, _) => {
                        assert_eq!(Response::decode(&p).unwrap(), Response::Ok)
                    }
                    FrameEvent::Closed => panic!("closed early"),
                }
            }
            match frames.read_frame().unwrap() {
                FrameEvent::Frame(p, _) => match Response::decode(&p).unwrap() {
                    Response::Counts(c) => assert!(c.iter().all(|&v| v >= 1)),
                    other => panic!("wanted Counts, got {other:?}"),
                },
                FrameEvent::Closed => panic!("closed early"),
            }
        }
        assert!(server.metrics().pipelined_depth.get() > 1);
        server.shutdown();
    }

    #[test]
    fn oversized_prefix_answered_then_closed() {
        let server = EventedFilterServer::bind("127.0.0.1:0", quick_config()).unwrap();
        let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
        stream.write_all(&[0u8; 64]).unwrap();
        let mut frames =
            FrameReader::new(stream.try_clone().unwrap(), crate::proto::DEFAULT_MAX_FRAME);
        match frames.read_frame().unwrap() {
            FrameEvent::Frame(p, _) => match Response::decode(&p).unwrap() {
                Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadFrame),
                other => panic!("wanted Error, got {other:?}"),
            },
            FrameEvent::Closed => panic!("closed without answering"),
        }
        // Then the server closes.
        assert!(matches!(
            frames.read_frame(),
            Ok(FrameEvent::Closed) | Err(_)
        ));
        server.shutdown();
    }
}
