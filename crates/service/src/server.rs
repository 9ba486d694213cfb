//! The threaded filter server: a thread-pooled `std::net` TCP
//! transport over the shared [`crate::engine::Engine`] core.
//!
//! # Threading model
//!
//! One *accept* thread pulls connections off the listener and feeds a
//! bounded queue (`mpsc::sync_channel`); a fixed pool of *worker*
//! threads pulls from that queue and serves one connection at a time
//! (thread-per-connection semantics over a bounded pool — the classic
//! shape for a filter sidecar where connections are few and
//! long-lived). There is no async runtime: the container
//! builds offline and the paper's measurements concern filter
//! throughput, not connection scaling. For connection scaling, see
//! [`crate::evented::EventedFilterServer`], which serves the same
//! engine from a readiness loop.
//!
//! Each worker runs its connection through the `Session` the evented
//! server runs too, feeding it whatever bytes arrived and writing its
//! answers with a blocking write (this transport's backpressure). After
//! every read or read timeout the worker checks the shutdown flag and
//! the [`ServerConfig::idle_timeout`] deadline, so a peer dribbling
//! bytes without completing a frame is still closed.
//!
//! # Shutdown
//!
//! [`FilterServer::shutdown`] sets a flag, nudges the accept thread
//! awake with a self-connection, and joins everything. Workers finish
//! the request they are executing (its response is written) and then
//! close; queued-but-unserved connections are dropped. That is the
//! "drain in-flight, refuse new" contract, and the evented server
//! implements the same one.

use crate::engine::{render_metrics, Engine};
use crate::session::{Session, READ_CHUNK};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

pub use crate::engine::{
    build_atomic_bloom, build_compacting, build_sharded_cqf, build_sharded_cuckoo,
    build_sharded_register_bloom, build_sharded_two_choice, cuckoo_fp_bits, register_metrics,
    ServedFilter, ServerConfig, FILTERS_REGISTERED, SERVICE_REQUESTS, SERVICE_SLOW_REQUESTS,
};

/// A running filter server. Dropping the handle without calling
/// [`FilterServer::shutdown`] detaches the threads (they keep serving
/// until the process exits); tests and the load generator call
/// `shutdown` for a deterministic drain.
pub struct FilterServer {
    engine: Arc<Engine>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl FilterServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start the
    /// accept thread plus worker pool.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<FilterServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        // Belt-and-braces: std sets SO_REUSEADDR before binding on
        // unix; this asserts it at the kernel so a quick restart can
        // rebind through TIME_WAIT.
        eventloop::net::set_reuseaddr(&listener)?;
        // Eager registration: every layer's families render in the
        // METRICS exposition from the first scrape, traffic or not.
        crate::engine::register_all_layers();
        let engine = Arc::new(Engine::new(config));

        let (tx, rx) = sync_channel::<TcpStream>(engine.config.backlog.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..engine.config.workers.max(1))
            .map(|i| {
                let engine = Arc::clone(&engine);
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("filter-worker-{i}"))
                    .spawn(move || worker_loop(&engine, &rx))
                    .expect("spawn worker")
            })
            .collect();

        let accept = {
            let engine = Arc::clone(&engine);
            std::thread::Builder::new()
                .name("filter-accept".into())
                .spawn(move || accept_loop(&engine, &listener, tx))
                .expect("spawn accept thread")
        };

        Ok(FilterServer {
            engine,
            addr: local,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Racing snapshot of the server metrics (same data STATS serves).
    pub fn metrics(&self) -> &crate::metrics::ServerMetrics {
        self.engine.metrics()
    }

    /// Install a filter directly, bypassing the wire CREATE (used by
    /// the example and by tests seeding large filters in-process).
    /// Returns `false` when the name is already taken.
    pub fn register(&self, name: &str, filter: ServedFilter) -> bool {
        self.engine.register(name, filter)
    }

    /// Render the same Prometheus-text exposition the METRICS opcode
    /// serves (in-process scrape for tests and examples).
    pub fn metrics_text(&self) -> String {
        render_metrics(&self.engine)
    }

    /// Stop accepting, drain in-flight requests, join all threads.
    pub fn shutdown(mut self) {
        self.engine.stop.store(true, Ordering::Relaxed);
        // Wake the accept thread out of its blocking accept().
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn accept_loop(
    engine: &Engine,
    listener: &TcpListener,
    tx: std::sync::mpsc::SyncSender<TcpStream>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if engine.stopping() {
                    // The wake-up self-connection (or a late client)
                    // lands here; refuse and exit.
                    drop(stream);
                    break;
                }
                engine.metrics.connections_opened.inc();
                engine.metrics.open_connections.add(1);
                if tx.send(stream).is_err() {
                    break;
                }
            }
            Err(_) => {
                if engine.stopping() {
                    break;
                }
                // Transient accept errors (e.g. ECONNABORTED) are not
                // fatal to the listener.
                engine.metrics.accept_errors.inc();
            }
        }
    }
    // Dropping `tx` disconnects the channel; workers exit once the
    // queue is empty.
}

fn worker_loop(engine: &Engine, rx: &Mutex<Receiver<TcpStream>>) {
    loop {
        let next = {
            let guard = rx.lock().unwrap_or_else(|p| p.into_inner());
            guard.recv()
        };
        match next {
            Ok(stream) => {
                if engine.stopping() {
                    drop(stream);
                    engine.metrics.open_connections.add(-1);
                    continue; // keep draining the queue until disconnect
                }
                serve_connection(engine, stream);
                engine.metrics.connections_closed.inc();
                engine.metrics.open_connections.add(-1);
            }
            Err(_) => break,
        }
    }
}

/// Serve one connection to completion: bytes in, answers out, until
/// the peer closes, errors, idles past the deadline, or the server
/// drains for shutdown.
fn serve_connection(engine: &Engine, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(engine.config.read_timeout));
    let mut session = Session::new(stream.peer_addr().ok());
    let mut chunk = vec![0u8; READ_CHUNK];
    loop {
        // The blocking write is this transport's backpressure.
        if session.drive(engine, |out| (&stream).write(out)).is_err()
            || session.finished()
            || engine.stopping()
            || session.expired(engine)
        {
            return;
        }
        match (&stream).read(&mut chunk) {
            Ok(n) => session.feed(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::FilterClient;
    use crate::proto::{Backend, ErrorCode};
    use std::time::Duration;

    fn quick_config() -> ServerConfig {
        ServerConfig {
            workers: 2,
            read_timeout: Duration::from_millis(10),
            ..ServerConfig::default()
        }
    }

    #[test]
    fn serve_create_insert_query_shutdown() {
        let server = FilterServer::bind("127.0.0.1:0", quick_config()).unwrap();
        let mut c = FilterClient::connect(server.local_addr()).unwrap();
        c.create("t", Backend::AtomicBloom, 10_000, 0.01, 0, 7)
            .unwrap();
        c.insert("t", &[1, 2, 3]).unwrap();
        let got = c.contains("t", &[1, 2, 3, 999_999]).unwrap();
        assert_eq!(&got[..3], &[true, true, true]);
        let stats = c.stats().unwrap();
        assert_eq!(stats.filters.len(), 1);
        assert_eq!(stats.filters[0].name, "t");
        assert!(stats.counters.frames_received >= 3);
        assert_eq!(stats.counters.open_connections, 1);
        assert_eq!(stats.counters.pipelined_depth, 1);
        drop(c);
        server.shutdown();
    }

    #[test]
    fn unknown_filter_and_duplicate_create_report_codes() {
        let server = FilterServer::bind("127.0.0.1:0", quick_config()).unwrap();
        let mut c = FilterClient::connect(server.local_addr()).unwrap();
        let e = c.insert("nope", &[1]).unwrap_err();
        assert!(matches!(
            e,
            crate::client::ClientError::Remote {
                code: ErrorCode::NoSuchFilter,
                ..
            }
        ));
        c.create("dup", Backend::ShardedCuckoo, 1_000, 0.01, 2, 1)
            .unwrap();
        let e = c
            .create("dup", Backend::ShardedCuckoo, 1_000, 0.01, 2, 1)
            .unwrap_err();
        assert!(matches!(
            e,
            crate::client::ClientError::Remote {
                code: ErrorCode::FilterExists,
                ..
            }
        ));
        drop(c);
        server.shutdown();
    }

    #[test]
    fn idle_timeout_closes_silent_connections() {
        let server = FilterServer::bind(
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                read_timeout: Duration::from_millis(5),
                idle_timeout: Some(Duration::from_millis(40)),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut c = FilterClient::connect(server.local_addr()).unwrap();
        // Active clients are untouched by the deadline.
        c.create("t", Backend::AtomicBloom, 1_000, 0.01, 0, 7)
            .unwrap();
        // Then go silent: the server closes us, observable as the
        // next call failing rather than hanging.
        std::thread::sleep(Duration::from_millis(120));
        assert!(c.insert("t", &[1]).is_err());
        server.shutdown();
    }
}
