//! The sans-IO connection core both transports share.
//!
//! A [`Session`] takes the bytes a peer sent and appends framed
//! responses to an output buffer; it touches no socket. Framing, the
//! per-request path and the connection policies (idle deadline, output
//! bound, close after a refused header, drain on shutdown) exist here
//! once, so the threaded and evented shells cannot drift apart in what
//! they answer or count.
//!
//! While at least `max_frame` bytes of output are unsent, the session
//! serves no new frame and asks its shell to stop reading, so a peer
//! that pipelines without reading holds at most `max_frame` bytes plus
//! one response. A response is never truncated.

use crate::engine::{dispatch, err, Engine};
use crate::proto::{decode_frame_header, ErrorCode, FrameError, Response};
use std::io;
use std::net::SocketAddr;
use std::time::Instant;
use telemetry::trace::TraceContext;

/// How much a shell reads from its socket per `read()` call.
pub(crate) const READ_CHUNK: usize = 64 * 1024;

/// One connection's protocol state: inbound and outbound buffers and
/// the clocks and flags that decide when the connection ends.
pub(crate) struct Session {
    /// Inbound bytes; `ibuf[start..]` is not yet parsed into frames.
    ibuf: Vec<u8>,
    start: usize,
    /// Framed responses; `obuf[osent..]` is not yet written.
    obuf: Vec<u8>,
    osent: usize,
    /// When the last complete frame arrived. Dribbled bytes do not
    /// reset this idle-deadline clock; only whole frames do (the
    /// slow-loris backstop).
    last_frame: Instant,
    /// Close once the pending output is written: a refused frame
    /// header, the peer's EOF, or shutdown.
    close_after_flush: bool,
    /// The peer sent EOF; no more input will arrive.
    input_closed: bool,
    /// Peer address, for the slow-request log.
    peer: Option<SocketAddr>,
}

impl Session {
    pub(crate) fn new(peer: Option<SocketAddr>) -> Session {
        Session {
            ibuf: Vec::new(),
            start: 0,
            obuf: Vec::new(),
            osent: 0,
            last_frame: Instant::now(),
            close_after_flush: false,
            input_closed: false,
            peer,
        }
    }

    /// Append bytes read from the peer. No bytes means EOF, as for a
    /// zero-length read; frames already buffered are still served.
    pub(crate) fn feed(&mut self, bytes: &[u8]) {
        self.input_closed |= bytes.is_empty();
        self.ibuf.extend_from_slice(bytes);
    }

    /// Should the shell read more from the peer? False once input
    /// ended, once the session is closing, and while the output bound
    /// pauses processing.
    pub(crate) fn wants_input(&self, engine: &Engine) -> bool {
        !self.input_closed && !self.close_after_flush && !self.output_full(engine)
    }

    /// Framed responses not yet written.
    pub(crate) fn output(&self) -> &[u8] {
        &self.obuf[self.osent..]
    }

    /// Mark the first `n` bytes of [`Session::output`] as written.
    fn consume(&mut self, n: usize) {
        self.osent += n;
        if self.osent == self.obuf.len() {
            self.obuf.clear();
            self.osent = 0;
        }
    }

    /// Serve buffered frames and hand the output to `write` until
    /// neither makes progress: `write` would block, or nothing is left
    /// to serve. Writing lets the session serve frames its output
    /// bound held back. An error means the connection is broken.
    pub(crate) fn drive(
        &mut self,
        engine: &Engine,
        mut write: impl FnMut(&[u8]) -> io::Result<usize>,
    ) -> io::Result<()> {
        loop {
            // A session paused by its output bound serves nothing until
            // the write below drains it; it must then serve again, or
            // frames already buffered wait for readiness that never
            // comes (the peer sent them and awaits the answers).
            let paused = self.output_full(engine);
            let served = self.process(engine);
            while !self.output().is_empty() {
                match write(self.output()) {
                    Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                    Ok(n) => self.consume(n),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            if served == 0 && !paused {
                return Ok(());
            }
        }
    }

    /// The connection is done: it is closing and its output is written.
    pub(crate) fn finished(&self) -> bool {
        self.close_after_flush && self.output().is_empty()
    }

    /// Has the connection gone longer than the idle deadline without
    /// completing a frame?
    pub(crate) fn expired(&self, engine: &Engine) -> bool {
        engine
            .config
            .idle_timeout
            .is_some_and(|idle| self.last_frame.elapsed() >= idle)
    }

    fn output_full(&self, engine: &Engine) -> bool {
        self.output().len() >= engine.config.max_frame as usize
    }

    /// Serve every complete buffered frame the output bound allows, in
    /// arrival order, appending each framed response to the output.
    /// Returns how many frames were served; that count is this
    /// drain's pipelining depth.
    fn process(&mut self, engine: &Engine) -> usize {
        let m = &engine.metrics;
        let max_frame = engine.config.max_frame;
        let mut served = 0;
        while !self.close_after_flush && !self.output_full(engine) {
            let avail = &self.ibuf[self.start..];
            let Some(head) = avail.first_chunk::<4>() else {
                break;
            };
            let (len, traced) = match decode_frame_header(*head, max_frame) {
                Ok(h) => h,
                Err(e) => {
                    // Answer with the reason, then close: the unread
                    // body makes resync impossible.
                    m.protocol_errors.inc();
                    let message = match e {
                        FrameError::Oversized(n) => {
                            format!("frame length {n} exceeds limit {max_frame}")
                        }
                        FrameError::Io(e) => e.to_string(),
                        other => other.to_string(),
                    };
                    self.queue(engine, &err(ErrorCode::BadFrame, message));
                    self.close_after_flush = true;
                    break;
                }
            };
            let Some(body) = avail.get(4..4 + len) else {
                break; // partial frame: wait for more bytes
            };
            // bytes_in counts the payload after the trace context is
            // stripped.
            let (ctx, payload) = if traced {
                (TraceContext::decode(body), &body[TraceContext::WIRE_LEN..])
            } else {
                (None, body)
            };
            m.frames_received.inc();
            m.bytes_in.add(payload.len() as u64);
            let t0 = Instant::now();
            let req_trace = telemetry::trace::begin("server:request", ctx);
            let (resp, info) = dispatch(engine, payload);
            let error = matches!(resp, Response::Error { .. });
            self.queue(engine, &resp);
            let dt = t0.elapsed();
            let slow = dt >= engine.config.slow_request_threshold;
            // Only a slow request reads (and, for an unsampled one,
            // mints) its trace id — the fast path stays free of id work.
            let trace_id = if slow { req_trace.trace_id() } else { 0 };
            engine.record_request(dt, info, self.peer, trace_id);
            req_trace.finish_timed(dt, slow, error);
            self.start += 4 + len;
            self.last_frame = Instant::now();
            served += 1;
            if engine.stopping() {
                // Drain contract: serve nothing more once stopping;
                // the shell writes what is already queued.
                self.close_after_flush = true;
            }
        }
        if served > 0 {
            m.raise_pipelined_depth(served as i64);
        }
        // The loop stopped on an incomplete frame and no more bytes
        // will come: close, counting a peer that vanished mid-frame.
        if self.input_closed && !self.close_after_flush && !self.output_full(engine) {
            if self.start < self.ibuf.len() {
                m.disconnects_mid_frame.inc();
            }
            self.close_after_flush = true;
        }
        // Compact the consumed prefix so the buffer doesn't grow
        // without bound across drains.
        if self.start == self.ibuf.len() {
            self.ibuf.clear();
            self.start = 0;
        } else if self.start > 4096 {
            self.ibuf.drain(..self.start);
            self.start = 0;
        }
        served
    }

    /// Append one length-prefixed response to the output. A response
    /// counts as sent once it is queued, before any write, so a peer
    /// that reads its answer and then asks for STATS always finds that
    /// answer counted.
    fn queue(&mut self, engine: &Engine, resp: &Response) {
        let m = &engine.metrics;
        if matches!(resp, Response::Error { .. }) {
            m.error_responses.inc();
        }
        let bytes = resp.encode();
        self.obuf
            .extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        self.obuf.extend_from_slice(&bytes);
        m.responses_sent.inc();
        m.bytes_out.add(bytes.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServerConfig;
    use crate::metrics::CountersSnapshot;
    use crate::proto::{write_frame, write_frame_traced, Backend, Request};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn create(name: &str, backend: Backend, capacity: u64) -> Request {
        Request::Create {
            name: name.to_string(),
            backend,
            capacity,
            eps: 1.0 / 128.0,
            shard_bits: 1,
            seed: 0x5e55,
            blob: Vec::new(),
        }
    }

    /// Split a response stream into its frame payloads.
    fn frames(mut wire: &[u8]) -> Vec<&[u8]> {
        let mut out = Vec::new();
        while let Some(head) = wire.first_chunk::<4>() {
            let len = u32::from_le_bytes(*head) as usize;
            out.push(&wire[4..4 + len]);
            wire = &wire[4 + len..];
        }
        out
    }

    /// The counters a request stream moves the same way however its
    /// bytes are chunked (latency, depth and connection counters
    /// depend on timing or chunking, not on what was served).
    fn deterministic(c: &CountersSnapshot) -> [u64; 9] {
        [
            c.frames_received,
            c.responses_sent,
            c.protocol_errors,
            c.error_responses,
            c.keys_processed,
            c.batched_ops,
            c.bytes_in,
            c.bytes_out,
            c.disconnects_mid_frame,
        ]
    }

    /// Every opcode, one traced frame, one garbage payload, and a final
    /// oversized prefix that ends the session.
    fn script() -> Vec<u8> {
        let keys: Vec<u64> = (0..300).map(|i| i * 7919).collect();
        let mut wire = Vec::new();
        for req in [
            create("b", Backend::AtomicBloom, 2_000),
            create("q", Backend::ShardedCqf, 2_000),
            Request::Insert {
                name: "b".into(),
                keys: keys.clone(),
            },
            Request::Insert {
                name: "q".into(),
                keys: keys.clone(),
            },
            Request::Contains {
                name: "b".into(),
                keys: (0..600).map(|i| i * 7919).collect(),
            },
            Request::Count {
                name: "q".into(),
                keys: keys[..50].to_vec(),
            },
            Request::Delete {
                name: "q".into(),
                keys: keys[..20].to_vec(),
            },
            Request::MultiContains {
                keys: keys[..40].to_vec(),
            },
            Request::Snapshot { name: "b".into() },
            Request::Stats,
            Request::Metrics,
            Request::Traces { json: false },
            Request::Forget { name: "b".into() },
        ] {
            write_frame(&mut wire, &req.encode()).unwrap();
        }
        let ctx = TraceContext {
            trace_id: 0x7ace,
            span_id: 0x5a11,
            flags: 0,
        };
        let traced = Request::Contains {
            name: "q".into(),
            keys: keys[..10].to_vec(),
        };
        write_frame_traced(&mut wire, &traced.encode(), Some(&ctx)).unwrap();
        write_frame(&mut wire, &[0u8; 16]).unwrap();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire
    }

    /// Feed `chunks` to a fresh session, draining its output after
    /// every chunk. Returns the response stream with timing-dependent
    /// answers reduced to what is deterministic, plus the counters.
    fn run(chunks: &[&[u8]]) -> (Vec<Vec<u8>>, [u64; 9]) {
        let engine = Engine::new(ServerConfig::default());
        let mut session = Session::new(None);
        let mut wire = Vec::new();
        let mut drain = |session: &mut Session| {
            while session.process(&engine) > 0 || !session.output().is_empty() {
                wire.extend_from_slice(session.output());
                session.consume(session.output().len());
            }
        };
        for chunk in chunks {
            session.feed(chunk);
            drain(&mut session);
        }
        assert!(session.finished(), "the oversized prefix ends the session");
        let mut counters = deterministic(&engine.metrics.snapshot());
        let payloads = frames(&wire);
        let sent: usize = payloads.iter().map(|p| p.len()).sum();
        assert_eq!(counters[7], sent as u64, "bytes_out counts what was queued");
        let out = payloads
            .into_iter()
            .map(|p| {
                // STATS, METRICS and TRACES report timings; keep what
                // the request stream alone determines, and leave
                // their sizes out of bytes_out.
                let kept = match Response::decode(p).unwrap() {
                    Response::Stats(s) => {
                        format!("{:?} {:?}", deterministic(&s.counters), s.filters).into_bytes()
                    }
                    Response::Text(_) => b"metrics".to_vec(),
                    Response::Traces(_) => b"traces".to_vec(),
                    _ => return p.to_vec(),
                };
                counters[7] -= p.len() as u64;
                kept
            })
            .collect();
        (out, counters)
    }

    fn assert_same(got: &(Vec<Vec<u8>>, [u64; 9]), want: &(Vec<Vec<u8>>, [u64; 9]), what: &str) {
        assert_eq!(got.0.len(), want.0.len(), "{what}: answer count");
        for (i, (g, w)) in got.0.iter().zip(&want.0).enumerate() {
            assert!(g == w, "{what}: answer #{i} differs");
        }
        assert_eq!(got.1, want.1, "{what}: counters");
    }

    #[test]
    fn chunking_does_not_change_the_output() {
        let wire = script();
        let whole = run(&[&wire]);
        assert_eq!(whole.0.len(), 16, "one answer per frame");
        assert_eq!(
            Response::decode(&whole.0[15]).unwrap(),
            Response::Error {
                code: ErrorCode::BadFrame,
                message: format!(
                    "frame length {} exceeds limit {}",
                    u32::MAX >> 1,
                    crate::proto::DEFAULT_MAX_FRAME
                ),
            }
        );

        let bytewise: Vec<&[u8]> = wire.chunks(1).collect();
        assert_same(&run(&bytewise), &whole, "split at every byte boundary");

        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut chunks = Vec::new();
            let mut rest = &wire[..];
            while !rest.is_empty() {
                let n = rng.gen_range(1..=rest.len().min(64));
                let (chunk, tail) = rest.split_at(n);
                chunks.push(chunk);
                rest = tail;
            }
            assert_same(
                &run(&chunks),
                &whole,
                &format!("random chunks, seed {seed}"),
            );
        }
    }

    /// Pipelined SNAPSHOTs against filters whose answers straddle the
    /// output bound.
    struct Snapshots {
        engine: Engine,
        max_frame: usize,
        /// 200 SNAPSHOT request frames, cycling over the filters.
        wire: Vec<u8>,
        /// The answer to request `i` is `expected[i % expected.len()]`.
        expected: Vec<Vec<u8>>,
        /// The largest framed answer.
        largest: usize,
    }

    const SNAPSHOTS: usize = 200;

    fn snapshots() -> Snapshots {
        let max_frame = 16 * 1024;
        let engine = Engine::new(ServerConfig {
            max_frame,
            ..ServerConfig::default()
        });
        // Snapshots below and above the bound: the largest must still
        // go out whole.
        let names = ["s0", "s1", "s2"];
        for (name, capacity) in names.iter().zip([1_000, 5_000, 40_000]) {
            let (resp, _) = dispatch(
                &engine,
                &create(name, Backend::AtomicBloom, capacity).encode(),
            );
            assert_eq!(resp, Response::Ok);
        }
        let snapshot = |name: &str| Request::Snapshot { name: name.into() }.encode();
        let expected: Vec<Vec<u8>> = names
            .iter()
            .map(|n| dispatch(&engine, &snapshot(n)).0.encode())
            .collect();
        let largest = expected.iter().map(|e| 4 + e.len()).max().unwrap();
        assert!(largest > max_frame as usize);
        let mut wire = Vec::new();
        for i in 0..SNAPSHOTS {
            write_frame(&mut wire, &snapshot(names[i % names.len()])).unwrap();
        }
        Snapshots {
            engine,
            max_frame: max_frame as usize,
            wire,
            expected,
            largest,
        }
    }

    fn assert_in_order(out: &[u8], expected: &[Vec<u8>]) {
        let got = frames(out);
        assert_eq!(got.len(), SNAPSHOTS);
        for (i, payload) in got.iter().enumerate() {
            assert_eq!(*payload, &expected[i % expected.len()][..], "answer #{i}");
        }
    }

    #[test]
    fn output_bound_pauses_processing_and_keeps_order() {
        let Snapshots {
            engine,
            max_frame,
            wire,
            expected,
            largest,
        } = snapshots();
        let mut session = Session::new(None);
        session.feed(&wire);
        // Never drain: processing pauses at the bound.
        for _ in 0..3 {
            session.process(&engine);
            assert!(session.output().len() <= max_frame + largest);
            assert!(!session.wants_input(&engine));
        }
        assert_eq!(session.process(&engine), 0, "paused while output is full");

        // Drain a little at a time: every answer arrives, in order.
        let mut out = Vec::new();
        loop {
            let n = session.output().len().min(7_000);
            out.extend_from_slice(&session.output()[..n]);
            session.consume(n);
            session.process(&engine);
            assert!(session.output().len() <= max_frame + largest);
            if session.output().is_empty() {
                break;
            }
        }
        assert_in_order(&out, &expected);
        assert!(session.wants_input(&engine));
    }

    #[test]
    fn drive_serves_frames_held_back_by_a_blocked_write() {
        let Snapshots {
            engine,
            max_frame,
            wire,
            expected,
            ..
        } = snapshots();
        let mut session = Session::new(None);
        session.feed(&wire);
        // The first write would block with the output at its bound, as
        // a full socket send buffer does.
        session
            .drive(&engine, |_| Err(io::ErrorKind::WouldBlock.into()))
            .unwrap();
        assert!(session.output().len() >= max_frame);
        assert!(!session.wants_input(&engine));
        // The socket turns writable and takes everything: one drive
        // must serve every buffered frame, since no more input (and so
        // no more readiness) is coming.
        let mut out = Vec::new();
        session
            .drive(&engine, |bytes| {
                out.extend_from_slice(bytes);
                Ok(bytes.len())
            })
            .unwrap();
        assert!(session.output().is_empty());
        assert_in_order(&out, &expected);
        assert!(session.wants_input(&engine));
    }
}
