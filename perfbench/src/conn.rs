//! One client connection, split into send and receive so that one
//! client thread can keep several requests in flight.
//!
//! The frames are exactly `FilterClient::call`'s: `Request::encode`,
//! `proto::write_frame`, `FrameReader::read_frame`, `Response::decode`.
//! The split exposes the instants the traced run needs around encode
//! and decode.

use service::proto::{write_frame, FrameError, FrameEvent, FrameReader};
use service::{Request, Response};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// Frame limit of the benchmark's connections and server, both ways.
/// A 524,288-key sharded CQF's SNAPSHOT is ~11.6 MB, over the 8 MiB
/// `DEFAULT_MAX_FRAME`, and a move sends it back as a blob-CREATE; the
/// larger limit lets every move complete, so the snapshot's size shows
/// in move latency instead of as failed ops.
pub const MAX_FRAME: u32 = 64 << 20;

pub struct Conn {
    stream: TcpStream,
    frames: FrameReader<TcpStream>,
}

/// A request on the wire: its payload and when encoding began (`t0`)
/// and ended (`t1`, the write starts here).
pub struct Sent {
    pub payload: Vec<u8>,
    pub t0: Instant,
    pub t1: Instant,
}

/// A response off the wire: when its frame was read (`t2`) and when
/// decoding ended (`t3`).
pub struct Received {
    pub resp: Response,
    pub t2: Instant,
    pub t3: Instant,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let frames = FrameReader::new(stream.try_clone()?, MAX_FRAME);
        Ok(Conn { stream, frames })
    }

    pub fn send(&mut self, req: &Request) -> io::Result<Sent> {
        let t0 = Instant::now();
        let payload = req.encode();
        let t1 = Instant::now();
        write_frame(&mut self.stream, &payload)?;
        Ok(Sent { payload, t0, t1 })
    }

    /// The next response. After an error the connection is unusable
    /// (an oversized frame's body is still unread) and must be
    /// replaced.
    pub fn recv(&mut self) -> Result<Received, String> {
        let payload = match self.frames.read_frame() {
            Ok(FrameEvent::Frame(p, _)) => p,
            Ok(FrameEvent::Closed) => return Err("server closed the connection".into()),
            Err(FrameError::Oversized(n)) => {
                return Err(format!("oversized response frame ({n} B)"))
            }
            Err(e) => return Err(e.to_string()),
        };
        let t2 = Instant::now();
        let resp = Response::decode(&payload).map_err(|e| format!("bad response frame: {e}"))?;
        Ok(Received {
            resp,
            t2,
            t3: Instant::now(),
        })
    }

    /// Send one request and wait for its answer.
    pub fn call(&mut self, req: &Request) -> Result<(Sent, Received), String> {
        let sent = self.send(req).map_err(|e| e.to_string())?;
        let got = self.recv()?;
        Ok((sent, got))
    }
}
