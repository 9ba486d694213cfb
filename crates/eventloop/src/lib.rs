//! # eventloop
//!
//! An in-tree nonblocking readiness loop: the substrate under the
//! service crate's `EventedFilterServer`. The workspace builds with no
//! crates.io access, so there is no mio/tokio to lean on — on x86_64
//! Linux the [`Poller`] drives raw `epoll` through direct syscalls
//! (see [`sys`]; no libc), and everywhere else it degrades to a
//! portable *scan* poller built from pure safe std, so non-Linux
//! targets still build and test offline.
//!
//! ## The two backends
//!
//! * **epoll** — level-triggered readiness from the kernel: `wait`
//!   blocks until a registered fd is actually readable/writable, so an
//!   idle server costs zero CPU. This is the production path.
//! * **scan** — a readiness *oracle-free* fallback: `wait` sleeps one
//!   short tick and then reports every registered source ready for
//!   its registered interests. Callers must treat readiness as a hint
//!   (attempt the op, tolerate `WouldBlock`), which level-triggered
//!   epoll consumers already do — so the same server logic runs on
//!   both, just with a busy tick instead of a kernel wait. CI forces
//!   this backend on Linux (`BEYOND_BLOOM_FORCE_POLL=1`) to prove no
//!   server behaviour secretly depends on precise readiness.
//!
//! Readiness is deliberately *spurious-tolerant* in the contract: even
//! epoll can report a readable socket whose data a checksum failure
//! later revokes. Correct callers loop `read`/`write` until
//! `WouldBlock` regardless of backend, which is exactly how the
//! evented server's connection state machine is written.

#![warn(missing_docs)]
#![deny(unsafe_code)] // the one exception is the audited sys module

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub mod sys;

use std::io;
use std::time::Duration;

/// A raw file descriptor as a plain integer. On the epoll backend it
/// names the kernel object to watch; the scan backend carries it
/// opaquely (non-unix callers may pass `-1`).
pub type OsFd = i32;

/// Caller-chosen cookie identifying a registered source; returned
/// verbatim in every [`Event`] for that source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token(pub usize);

/// Which readiness kinds a registration asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the source has bytes to read (or a peer hangup to
    /// observe via a zero-length read).
    pub readable: bool,
    /// Wake when the source can accept more written bytes.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Write-only interest (a connection that reads nothing until its
    /// queued output drains).
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Read + write interest (a connection with queued output).
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The registration's cookie.
    pub token: Token,
    /// The source is (probably) readable.
    pub readable: bool,
    /// The source is (probably) writable.
    pub writable: bool,
    /// The kernel reported an error/hangup condition (epoll only; the
    /// scan backend leaves this false and lets the zero-length read
    /// surface the close).
    pub hangup: bool,
}

/// Which backend a [`Poller`] is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Raw-syscall epoll (x86_64 Linux only).
    Epoll,
    /// Portable sleep-and-scan fallback.
    Scan,
}

impl BackendKind {
    /// Stable lowercase name for logs and experiment output.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Epoll => "epoll",
            BackendKind::Scan => "scan",
        }
    }
}

/// Env var that pins [`Poller::new`] to the scan fallback even where
/// epoll is available (the CI forced-fallback run).
pub const FORCE_POLL_ENV: &str = "BEYOND_BLOOM_FORCE_POLL";

enum Backend {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    Epoll(EpollPoller),
    Scan(ScanPoller),
}

/// A readiness poller over registered file descriptors.
///
/// All three mutation calls key a source by `(fd, token)`: epoll needs
/// the fd, the scan backend needs the token, and carrying both keeps
/// one uniform signature.
pub struct Poller {
    backend: Backend,
}

impl Poller {
    /// The best backend for this platform: epoll on x86_64 Linux
    /// (unless [`FORCE_POLL_ENV`] is set), the scan fallback
    /// elsewhere. Falls back to scan if epoll creation itself fails.
    pub fn new() -> io::Result<Poller> {
        if std::env::var_os(FORCE_POLL_ENV).is_some_and(|v| v != "0" && !v.is_empty()) {
            return Self::with_backend(BackendKind::Scan);
        }
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        {
            if let Ok(p) = Self::with_backend(BackendKind::Epoll) {
                return Ok(p);
            }
        }
        Self::with_backend(BackendKind::Scan)
    }

    /// Construct a specific backend (tests pin both explicitly).
    pub fn with_backend(kind: BackendKind) -> io::Result<Poller> {
        let backend = match kind {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            BackendKind::Epoll => Backend::Epoll(EpollPoller::new()?),
            #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
            BackendKind::Epoll => {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "epoll backend requires x86_64 linux",
                ))
            }
            BackendKind::Scan => Backend::Scan(ScanPoller::default()),
        };
        Ok(Poller { backend })
    }

    /// Which backend this poller runs.
    pub fn kind(&self) -> BackendKind {
        match &self.backend {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Backend::Epoll(_) => BackendKind::Epoll,
            Backend::Scan(_) => BackendKind::Scan,
        }
    }

    /// Start watching `fd` under `token` for `interest`.
    pub fn register(&mut self, fd: OsFd, token: Token, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Backend::Epoll(p) => p.register(fd, token, interest),
            Backend::Scan(p) => p.register(fd, token, interest),
        }
    }

    /// Change an existing registration's interests.
    pub fn modify(&mut self, fd: OsFd, token: Token, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Backend::Epoll(p) => p.modify(fd, token, interest),
            Backend::Scan(p) => p.modify(fd, token, interest),
        }
    }

    /// Stop watching a source. Must be called before the fd is closed
    /// (epoll auto-removes closed fds, but the scan backend would keep
    /// reporting a stale token).
    pub fn deregister(&mut self, fd: OsFd, token: Token) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Backend::Epoll(p) => p.deregister(fd, token),
            Backend::Scan(p) => p.deregister(fd, token),
        }
    }

    /// Wait up to `timeout` (forever when `None`) and append readiness
    /// events to `out` (cleared first). Returns the number of events.
    /// An interrupted wait (`EINTR`) reports zero events rather than
    /// an error — callers treat it as a tick, exactly like a timeout.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        out.clear();
        match &mut self.backend {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Backend::Epoll(p) => p.wait(out, timeout),
            Backend::Scan(p) => p.wait(out, timeout),
        }
    }
}

// ------------------------------------------------------------------
// epoll backend
// ------------------------------------------------------------------

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
struct EpollPoller {
    epfd: OsFd,
    buf: Vec<sys::EpollEvent>,
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
impl EpollPoller {
    fn new() -> io::Result<EpollPoller> {
        Ok(EpollPoller {
            epfd: sys::epoll_create1()?,
            buf: vec![sys::EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    fn events_for(interest: Interest) -> u32 {
        // A peer's half-close is read interest: reported while only
        // writing, the level-triggered RDHUP would wake every wait.
        let mut ev = 0;
        if interest.readable {
            ev |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if interest.writable {
            ev |= sys::EPOLLOUT;
        }
        ev
    }

    fn register(&mut self, fd: OsFd, token: Token, interest: Interest) -> io::Result<()> {
        sys::epoll_ctl(
            self.epfd,
            sys::EPOLL_CTL_ADD,
            fd,
            Self::events_for(interest),
            token.0 as u64,
        )
    }

    fn modify(&mut self, fd: OsFd, token: Token, interest: Interest) -> io::Result<()> {
        sys::epoll_ctl(
            self.epfd,
            sys::EPOLL_CTL_MOD,
            fd,
            Self::events_for(interest),
            token.0 as u64,
        )
    }

    fn deregister(&mut self, fd: OsFd, _token: Token) -> io::Result<()> {
        sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, 0, 0)
    }

    fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        let ms = match timeout {
            None => -1,
            // Round up so a 0 < t < 1ms timeout still sleeps rather
            // than busy-polling.
            Some(t) => {
                let mut ms = t.as_millis();
                if t.subsec_nanos() % 1_000_000 != 0 {
                    ms += 1;
                }
                ms.min(i32::MAX as u128) as i32
            }
        };
        let n = match sys::epoll_wait(self.epfd, &mut self.buf, ms) {
            Ok(n) => n,
            // EINTR: a signal cut the wait short; report a tick.
            Err(e) if e.raw_os_error() == Some(4) => 0,
            Err(e) => return Err(e),
        };
        for raw in &self.buf[..n] {
            let events = { raw.events };
            let hangup = events & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0;
            out.push(Event {
                token: Token({ raw.data } as usize),
                // A hangup must wake the read path so the zero-length
                // read (or error) is actually observed.
                readable: events & sys::EPOLLIN != 0 || hangup,
                writable: events & sys::EPOLLOUT != 0,
                hangup,
            });
        }
        Ok(n)
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
impl Drop for EpollPoller {
    fn drop(&mut self) {
        sys::close(self.epfd);
    }
}

// ------------------------------------------------------------------
// scan fallback
// ------------------------------------------------------------------

/// How long the scan backend sleeps per `wait` before reporting every
/// registered source ready. Short enough that a request/response
/// round trip stays interactive, long enough that an idle scan loop
/// is a trickle rather than a spin.
const SCAN_TICK: Duration = Duration::from_millis(1);

#[derive(Default)]
struct ScanPoller {
    entries: Vec<(OsFd, Token, Interest)>,
}

impl ScanPoller {
    fn position(&self, fd: OsFd, token: Token) -> Option<usize> {
        self.entries
            .iter()
            .position(|&(f, t, _)| f == fd && t == token)
    }

    fn register(&mut self, fd: OsFd, token: Token, interest: Interest) -> io::Result<()> {
        if self.position(fd, token).is_some() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "source already registered",
            ));
        }
        self.entries.push((fd, token, interest));
        Ok(())
    }

    fn modify(&mut self, fd: OsFd, token: Token, interest: Interest) -> io::Result<()> {
        match self.position(fd, token) {
            Some(i) => {
                self.entries[i].2 = interest;
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                "source not registered",
            )),
        }
    }

    fn deregister(&mut self, fd: OsFd, token: Token) -> io::Result<()> {
        match self.position(fd, token) {
            Some(i) => {
                self.entries.swap_remove(i);
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                "source not registered",
            )),
        }
    }

    fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        let tick = match timeout {
            None => SCAN_TICK,
            Some(t) => t.min(SCAN_TICK),
        };
        if !tick.is_zero() {
            std::thread::sleep(tick);
        }
        for &(_, token, interest) in &self.entries {
            out.push(Event {
                token,
                readable: interest.readable,
                writable: interest.writable,
                hangup: false,
            });
        }
        Ok(out.len())
    }
}

// ------------------------------------------------------------------
// socket-option helpers
// ------------------------------------------------------------------

/// Socket-option helpers shared by both servers and the clients.
pub mod net {
    use std::io;
    use std::net::TcpListener;

    /// Set `SO_REUSEADDR` on a bound listener so an immediate rebind
    /// of the same address (test restarts, CI re-runs, rolling
    /// restarts of a node) does not hit `EADDRINUSE` while the old
    /// socket lingers in `TIME_WAIT`. Rust's std sets this on unix at
    /// bind time; this helper makes the guarantee explicit and
    /// kernel-verified on the raw-syscall platform, and is a no-op
    /// where the syscall path is unavailable.
    pub fn set_reuseaddr(listener: &TcpListener) -> io::Result<()> {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        {
            use std::os::unix::io::AsRawFd;
            crate::sys::setsockopt_int(
                listener.as_raw_fd(),
                crate::sys::SOL_SOCKET,
                crate::sys::SO_REUSEADDR,
                1,
            )
        }
        #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
        {
            let _ = listener;
            Ok(())
        }
    }
}

/// The raw fd of a stream/listener on unix, or `-1` elsewhere (the
/// scan backend, the only one available there, never inspects it).
#[cfg(unix)]
pub fn os_fd<T: std::os::unix::io::AsRawFd>(source: &T) -> OsFd {
    source.as_raw_fd()
}

/// The raw fd of a stream/listener on unix, or `-1` elsewhere (the
/// scan backend, the only one available there, never inspects it).
#[cfg(not(unix))]
pub fn os_fd<T>(_source: &T) -> OsFd {
    -1
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    fn backends() -> Vec<Poller> {
        let mut v = vec![Poller::with_backend(BackendKind::Scan).unwrap()];
        if let Ok(p) = Poller::with_backend(BackendKind::Epoll) {
            v.push(p);
        }
        v
    }

    #[test]
    fn readable_after_peer_write() {
        for mut poller in backends() {
            let (mut a, b) = pair();
            b.set_nonblocking(true).unwrap();
            poller
                .register(os_fd(&b), Token(7), Interest::READABLE)
                .unwrap();
            a.write_all(b"ping").unwrap();
            // Readiness may be reported on any tick; poll briefly.
            let mut events = Vec::new();
            let deadline = std::time::Instant::now() + Duration::from_secs(2);
            let mut got = false;
            while std::time::Instant::now() < deadline {
                poller
                    .wait(&mut events, Some(Duration::from_millis(50)))
                    .unwrap();
                if events.iter().any(|e| e.token == Token(7) && e.readable) {
                    got = true;
                    break;
                }
            }
            assert!(got, "no readable event ({:?})", poller.kind());
            let mut buf = [0u8; 8];
            let mut c = &b;
            assert_eq!(c.read(&mut buf).unwrap(), 4);
            poller.deregister(os_fd(&b), Token(7)).unwrap();
        }
    }

    #[test]
    fn modify_gates_writable_interest() {
        for mut poller in backends() {
            let (_a, b) = pair();
            b.set_nonblocking(true).unwrap();
            poller
                .register(os_fd(&b), Token(1), Interest::READABLE)
                .unwrap();
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            assert!(
                events.iter().all(|e| !e.writable),
                "writable without interest ({:?})",
                poller.kind()
            );
            poller.modify(os_fd(&b), Token(1), Interest::BOTH).unwrap();
            let deadline = std::time::Instant::now() + Duration::from_secs(2);
            let mut got = false;
            while std::time::Instant::now() < deadline {
                poller
                    .wait(&mut events, Some(Duration::from_millis(50)))
                    .unwrap();
                if events.iter().any(|e| e.token == Token(1) && e.writable) {
                    got = true;
                    break;
                }
            }
            assert!(got, "an idle socket must report writable");
        }
    }

    #[test]
    fn deregistered_sources_stay_silent() {
        for mut poller in backends() {
            let (mut a, b) = pair();
            b.set_nonblocking(true).unwrap();
            poller
                .register(os_fd(&b), Token(3), Interest::READABLE)
                .unwrap();
            poller.deregister(os_fd(&b), Token(3)).unwrap();
            a.write_all(b"x").unwrap();
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(30)))
                .unwrap();
            assert!(events.is_empty(), "{:?}", poller.kind());
        }
    }

    #[test]
    fn scan_double_register_rejected() {
        let mut p = Poller::with_backend(BackendKind::Scan).unwrap();
        p.register(5, Token(1), Interest::READABLE).unwrap();
        assert!(p.register(5, Token(1), Interest::READABLE).is_err());
        assert!(p.deregister(5, Token(1)).is_ok());
        assert!(p.deregister(5, Token(1)).is_err());
    }

    #[test]
    fn reuseaddr_helper_accepts_a_listener() {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        net::set_reuseaddr(&l).unwrap();
    }
}
