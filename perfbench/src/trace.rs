//! The traced run: spans around each layer call, recorded from this
//! benchmark's own code.
//!
//! Client-side spans time the client thread's own calls. Server-side
//! layers run on the server's loop thread where the client cannot time
//! them, so each payload the client sends is replayed into a mirror
//! [`Engine`] that has received the same CREATE and INSERT stream:
//! `Request::decode`, `engine::dispatch`, `Response::encode` and
//! `Engine::record_request`, plus the backend's batch call on a copy of
//! the filter built with the public `build_*` functions. Replayed spans
//! are children of the request's `evented.wire` span, and a span's self
//! time is its duration minus its children's.
//!
//! Spans stay in memory; [`TraceLog::write_tsv`] writes them out when
//! the run ends.

use filter_core::BatchedFilter;
use service::engine::{dispatch, Engine};
use service::{
    build_atomic_bloom, build_compacting, build_sharded_cqf, build_sharded_cuckoo,
    build_sharded_register_bloom, build_sharded_two_choice, Backend, Request, ServedFilter,
    ServerConfig,
};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use crate::conn::{Received, Sent};
use crate::stats::median;

/// Requests traced per run; later ones are only applied to the mirror.
/// Bounds the spans held in memory (nine or so per request).
const TRACED_REQUESTS: usize = 50_000;

/// One timed layer call.
pub struct Span {
    /// Request id; the spans of one request share it.
    pub req: u32,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    /// Nanoseconds since the tracer started.
    pub start: u64,
    pub end: u64,
    /// Keys the call handled.
    pub keys: u32,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end - self.start
    }
}

pub struct Tracer {
    epoch: Instant,
    mirror: Engine,
    kernels: HashMap<String, ServedFilter>,
    /// Off during set-up and warm-up, when payloads only keep the
    /// mirror in step with the server.
    pub recording: bool,
    spans: Vec<Span>,
    /// Request kind per request id.
    kinds: Vec<&'static str>,
}

/// What the traced run leaves behind once the mirror is dropped.
pub struct TraceLog {
    spans: Vec<Span>,
    kinds: Vec<&'static str>,
}

fn kind(req: &Request) -> &'static str {
    match req {
        Request::Create { blob, .. } if blob.is_empty() => "create",
        Request::Create { .. } => "blob_create",
        Request::Insert { .. } => "insert",
        Request::Contains { .. } => "contains",
        Request::Count { .. } => "count",
        Request::Delete { .. } => "delete",
        Request::Stats => "stats",
        Request::Metrics => "metrics",
        Request::Snapshot { .. } => "snapshot",
        Request::Forget { .. } => "forget",
        Request::MultiContains { .. } => "multi_contains",
        Request::Traces { .. } => "traces",
    }
}

fn request_keys(req: &Request) -> usize {
    match req {
        Request::Insert { keys, .. }
        | Request::Contains { keys, .. }
        | Request::Count { keys, .. }
        | Request::Delete { keys, .. }
        | Request::MultiContains { keys } => keys.len(),
        _ => 0,
    }
}

fn build(backend: Backend, capacity: u64, eps: f64, shard_bits: u32, seed: u64) -> ServedFilter {
    match backend {
        Backend::AtomicBloom => ServedFilter::Bloom(build_atomic_bloom(capacity, eps, seed)),
        Backend::ShardedCuckoo => {
            ServedFilter::Cuckoo(build_sharded_cuckoo(capacity, eps, shard_bits, seed))
        }
        Backend::ShardedCqf => {
            ServedFilter::Cqf(build_sharded_cqf(capacity, eps, shard_bits, seed))
        }
        Backend::RegisterBloom => ServedFilter::RegisterBloom(build_sharded_register_bloom(
            capacity, eps, shard_bits, seed,
        )),
        Backend::Compacting => ServedFilter::Compacting(build_compacting(capacity, eps, seed)),
        Backend::TwoChoiceBloom => {
            ServedFilter::TwoChoice(build_sharded_two_choice(capacity, eps, shard_bits, seed))
        }
    }
}

/// The span name of a backend's batch INSERT or CONTAINS: the module
/// that owns the kernel, then the operation.
fn kernel_name(f: &ServedFilter, insert: bool) -> &'static str {
    match (f, insert) {
        (ServedFilter::Cqf(_), true) => "quotient.insert",
        (ServedFilter::Cqf(_), false) => "quotient.contains",
        (ServedFilter::Cuckoo(_), true) => "cuckoo.insert",
        (ServedFilter::Cuckoo(_), false) => "cuckoo.contains",
        (ServedFilter::Compacting(_), true) => "compacting.insert",
        (ServedFilter::Compacting(_), false) => "compacting.contains",
        (_, true) => "bloom.insert",
        (_, false) => "bloom.contains",
    }
}

fn insert_batch(f: &ServedFilter, keys: &[u64]) {
    // Refusals are the server's to report; the copy only has to hold
    // the same keys.
    let _ = match f {
        ServedFilter::Bloom(b) => {
            b.insert_batch(keys);
            Ok(())
        }
        ServedFilter::Cuckoo(c) => c.insert_batch(keys),
        ServedFilter::Cqf(q) => q.insert_batch(keys),
        ServedFilter::RegisterBloom(r) => r.insert_batch(keys),
        ServedFilter::Compacting(c) => {
            keys.iter().for_each(|&k| c.insert(k));
            Ok(())
        }
        ServedFilter::TwoChoice(t) => t.insert_batch(keys),
    };
}

fn contains_batch(f: &ServedFilter, keys: &[u64]) -> Vec<bool> {
    match f {
        ServedFilter::Bloom(b) => b.contains_batch(keys),
        ServedFilter::Cuckoo(c) => c.contains_batch(keys),
        ServedFilter::Cqf(q) => q.contains_batch(keys),
        ServedFilter::RegisterBloom(r) => r.contains_batch(keys),
        ServedFilter::Compacting(c) => c.contains_batch(keys),
        ServedFilter::TwoChoice(t) => t.contains_batch(keys),
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            mirror: Engine::new(ServerConfig::default()),
            kernels: HashMap::new(),
            recording: false,
            spans: Vec::new(),
            kinds: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn span(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        (a, b): (Instant, Instant),
        keys: usize,
    ) {
        let (start, end) = (self.ns(a), self.ns(b));
        self.spans.push(Span {
            req: self.kinds.len() as u32 - 1,
            name,
            parent,
            start,
            end,
            keys: keys as u32,
        });
    }

    /// Replay one request the client sent. `got` is its answer; a
    /// request that got none, or that comes after the first
    /// [`TRACED_REQUESTS`], is applied to the mirror but not traced.
    pub fn replay(&mut self, sent: &Sent, got: Option<&Received>) {
        let Ok(Ok(req)) = Request::decode(&sent.payload) else {
            return;
        };
        let got = match got {
            Some(g) if self.recording && self.kinds.len() < TRACED_REQUESTS => g,
            _ => {
                self.apply(&req, &sent.payload);
                return;
            }
        };
        let keys = request_keys(&req);
        self.kinds.push(kind(&req));
        self.span("client.request", None, (sent.t0, got.t3), keys);
        self.span(
            "client.req_encode",
            Some("client.request"),
            (sent.t0, sent.t1),
            keys,
        );
        self.span(
            "evented.wire",
            Some("client.request"),
            (sent.t1, got.t2),
            keys,
        );
        self.span(
            "client.resp_decode",
            Some("client.request"),
            (got.t2, got.t3),
            keys,
        );

        let a = Instant::now();
        black_box(Request::decode(black_box(&sent.payload)).ok());
        let b = Instant::now();
        let (resp, info) = dispatch(&self.mirror, &sent.payload);
        let c = Instant::now();
        black_box(resp.encode());
        let d = Instant::now();
        self.mirror.record_request(c - b, info, None, 0);
        let e = Instant::now();
        self.span("proto.req_decode", Some("engine.dispatch"), (a, b), keys);
        self.span("engine.dispatch", Some("evented.wire"), (b, c), keys);
        self.span("proto.resp_encode", Some("evented.wire"), (c, d), keys);
        self.span("engine.record", Some("evented.wire"), (d, e), keys);
        self.kernel(&req, true);
    }

    /// Keep the mirror and the kernel copies in step with the server,
    /// untimed.
    fn apply(&mut self, req: &Request, payload: &[u8]) {
        black_box(dispatch(&self.mirror, payload));
        self.kernel(req, false);
    }

    fn kernel(&mut self, req: &Request, timed: bool) {
        const PARENT: Option<&str> = Some("engine.dispatch");
        match req {
            Request::Create {
                name,
                backend,
                capacity,
                eps,
                shard_bits,
                seed,
                blob,
            } if blob.is_empty() => {
                let f = build(*backend, *capacity, *eps, *shard_bits, *seed);
                self.kernels.insert(name.clone(), f);
            }
            Request::Insert { name, keys } => {
                let Some(f) = self.kernels.get(name) else {
                    return;
                };
                let a = Instant::now();
                insert_batch(f, keys);
                let b = Instant::now();
                if timed {
                    let n = kernel_name(f, true);
                    self.span(n, PARENT, (a, b), keys.len());
                }
            }
            Request::Contains { name, keys } if timed => {
                let Some(f) = self.kernels.get(name) else {
                    return;
                };
                let a = Instant::now();
                black_box(contains_batch(f, keys));
                let b = Instant::now();
                let n = kernel_name(f, false);
                self.span(n, PARENT, (a, b), keys.len());
            }
            Request::Count { name, keys } if timed => {
                let Some(ServedFilter::Cqf(q)) = self.kernels.get(name) else {
                    return;
                };
                let a = Instant::now();
                black_box(q.count_batch(keys));
                let b = Instant::now();
                self.span("quotient.count", PARENT, (a, b), keys.len());
            }
            Request::MultiContains { keys } if timed => {
                let a = Instant::now();
                black_box(self.mirror.multi_contains(keys));
                let b = Instant::now();
                black_box(self.mirror.multi_contains_flat(keys));
                let c = Instant::now();
                self.span("bloofi.multi_contains", PARENT, (a, b), keys.len());
                // The flat scan answers the same question without the
                // index: a bypass measured beside the request, not in it.
                self.span("bloofi.flat", None, (b, c), keys.len());
            }
            _ => {}
        }
    }

    /// Stop tracing and drop the mirror.
    pub fn finish(self) -> TraceLog {
        TraceLog {
            spans: self.spans,
            kinds: self.kinds,
        }
    }
}

/// Kernel span names that hold a backend's batch call.
fn is_kernel(name: &str) -> bool {
    [
        "bloom.",
        "quotient.",
        "cuckoo.",
        "compacting.",
        "bloofi.multi",
    ]
    .iter()
    .any(|p| name.starts_with(p))
}

impl TraceLog {
    /// Spans grouped by request.
    fn requests(&self) -> impl Iterator<Item = &[Span]> {
        self.spans.chunk_by(|a, b| a.req == b.req)
    }

    /// Median duration in ns of each span name, over the requests
    /// that have one, and of each span's self time.
    pub fn medians(&self) -> (BTreeMap<&'static str, f64>, BTreeMap<&'static str, f64>) {
        let mut dur: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut own: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for spans in self.requests() {
            for s in spans {
                let children: u64 = spans
                    .iter()
                    .filter(|c| c.parent == Some(s.name))
                    .map(Span::dur)
                    .sum();
                dur.entry(s.name).or_default().push(s.dur() as f64);
                own.entry(s.name)
                    .or_default()
                    .push(s.dur() as f64 - children as f64);
            }
        }
        let med = |m: BTreeMap<&'static str, Vec<f64>>| {
            m.into_iter()
                .map(|(k, mut v)| (k, median(&mut v)))
                .collect()
        };
        (med(dur), med(own))
    }

    /// Median ns per key of each kernel span.
    pub fn ns_per_key(&self) -> BTreeMap<&'static str, f64> {
        let mut per: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.keys > 0) {
            per.entry(s.name)
                .or_default()
                .push(s.dur() as f64 / f64::from(s.keys));
        }
        per.into_iter()
            .map(|(k, mut v)| (k, median(&mut v)))
            .collect()
    }

    /// Median kernel time per request, over requests with a kernel
    /// call.
    pub fn kernel_ns(&self) -> f64 {
        let mut v: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| is_kernel(s.name))
            .map(|s| s.dur() as f64)
            .collect();
        median(&mut v)
    }

    /// Sum of kernel time, all requests.
    pub fn kernel_total_ns(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| is_kernel(s.name))
            .map(|s| s.dur() as f64)
            .sum()
    }

    /// Median time in ns of `engine.dispatch` for requests of `kind`.
    pub fn dispatch_ns_of(&self, kind: &str) -> f64 {
        let mut v: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == "engine.dispatch" && self.kinds[s.req as usize] == kind)
            .map(|s| s.dur() as f64)
            .collect();
        median(&mut v)
    }

    /// Median of dispatch minus decode minus kernel, per request.
    pub fn overhead_ns(&self) -> f64 {
        let mut v: Vec<f64> = self
            .requests()
            .filter_map(|spans| {
                let of = |pred: &dyn Fn(&Span) -> bool| -> u64 {
                    spans.iter().filter(|s| pred(s)).map(Span::dur).sum()
                };
                let dispatch = of(&|s| s.name == "engine.dispatch");
                let inner = of(&|s| s.parent == Some("engine.dispatch"));
                (dispatch > 0).then_some(dispatch as f64 - inner as f64)
            })
            .collect();
        median(&mut v)
    }

    pub fn request_count(&self) -> usize {
        self.kinds.len()
    }

    /// The spans of the first `max_requests` requests as tab-separated
    /// lines.
    pub fn write_tsv(&self, path: &std::path::Path, max_requests: u32) -> std::io::Result<()> {
        let mut out = String::from("req\tkind\tspan\tparent\tstart_ns\tend_ns\tkeys\n");
        for s in self.spans.iter().take_while(|s| s.req < max_requests) {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.req,
                self.kinds[s.req as usize],
                s.name,
                s.parent.unwrap_or("-"),
                s.start,
                s.end,
                s.keys
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
