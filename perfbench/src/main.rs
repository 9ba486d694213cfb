//! End-to-end and per-layer benchmark of the filter service.
//!
//! ```text
//! perfbench --workload <point|bulk|tenants> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The command starts an `EventedFilterServer` in this process on
//! loopback and drives it from this thread, closed loop: callers of a
//! filter service block on the answer. The server's single loop thread
//! plus this client thread fit two cores. Inputs come from `--seed`
//! alone, and every answer is checked against the generator's ground
//! truth; a wrong answer makes the command exit with code 1.
//!
//! With `--trace 0` the run sets up at least [`SETUP_REPS`] times and
//! for at least [`SETUP_MIN`], measures `--seconds` and reports the
//! end-to-end metrics, each percentile exact over every op of its class
//! and the throughput a median over blocks of [`Workload::BLOCK`] steps.
//! With `--trace 1` the run measures half the time with spans recorded
//! (see [`trace`]) and half without, and reports the per-layer metrics.
//! Either way it prints one metric per line with its unit, then a JSON
//! object as the last line of stdout.

mod alloc;
mod bulk;
mod conn;
mod point;
mod procfs;
mod stats;
mod tenants;
mod trace;

use conn::{Conn, Received, Sent};
use service::{EventedFilterServer, FilterClient, Request, Response, ServerConfig};
use stats::{median, percentile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::rc::Rc;
use std::time::{Duration, Instant};
use trace::Tracer;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Least set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Least total set-up time per untraced run, so that a workload whose
/// set-up is short takes its median over more set-ups.
const SETUP_MIN: Duration = Duration::from_secs(2);
/// Closed-loop traffic before measuring, so caches fill and lazy
/// set-up finishes.
const WARM_UP: Duration = Duration::from_millis(500);
/// Requests whose spans the traced run writes out.
const SPAN_REQUESTS: u32 = 10_000;
/// Keys per INSERT during preload, and per CONTAINS in the fpr probe.
pub const LOAD_BATCH: usize = 4096;
/// Known-absent keys per round of the false-positive probe.
pub const PROBE_ROUND: u64 = 1 << 18;
const FPR_POSITIVES: u64 = 4096;
const FPR_MAX_PROBES: u64 = 1 << 24;

/// The operation classes the workloads send.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    Contains,
    Insert,
    Count,
    MultiContains,
    Scrape,
    Move,
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::Contains => "contains",
            Op::Insert => "insert",
            Op::Count => "count",
            Op::MultiContains => "multi_contains",
            Op::Scrape => "scrape",
            Op::Move => "move",
        }
    }
}

/// Outcomes of the operations of one window.
#[derive(Default)]
pub struct Recorder {
    /// Latency in ns per op class; a failed op is `u64::MAX`, beyond
    /// any limit.
    lat: [Vec<u64>; 6],
    attempted: u64,
    completed: u64,
    /// Errors, refusals and wrong answers.
    failed: u64,
    /// Wrong answers alone.
    wrong: u64,
    /// Keys carried by completed ops.
    keys: u64,
    first_failure: Option<String>,
}

impl Recorder {
    pub fn ok(&mut self, op: Op, t0: Instant, t1: Instant, keys: usize) {
        self.attempted += 1;
        self.completed += 1;
        self.keys += keys as u64;
        self.lat[op as usize].push(t1.saturating_duration_since(t0).as_nanos() as u64);
    }

    pub fn failed(&mut self, op: Op, why: &str) {
        self.attempted += 1;
        self.failed += 1;
        self.lat[op as usize].push(u64::MAX);
        self.first_failure
            .get_or_insert_with(|| format!("{}: {why}", op.name()));
    }

    pub fn wrong(&mut self, op: Op, why: &str) {
        self.wrong += 1;
        self.failed(op, &format!("wrong answer: {why}"));
    }

    /// Check one response and record the op: `check` returns why the
    /// answer is wrong, if it is.
    pub fn check(
        &mut self,
        op: Op,
        sent: &Sent,
        got: &Received,
        keys: usize,
        check: impl FnOnce(&Response) -> Result<(), String>,
    ) -> bool {
        if let Response::Error { code, message } = &got.resp {
            self.failed(op, &format!("server error {code}: {message}"));
            return false;
        }
        match check(&got.resp) {
            Ok(()) => {
                self.ok(op, sent.t0, got.t3, keys);
                true
            }
            Err(why) => {
                self.wrong(op, &why);
                false
            }
        }
    }

    /// Keep another recorder's wrong answers (warm-up, drain), without
    /// its samples or op counts.
    fn absorb_wrong(&mut self, other: Recorder) {
        self.wrong += other.wrong;
        if let Some(f) = other.first_failure {
            self.first_failure.get_or_insert(f);
        }
    }

    /// Keep a measured window's op counts and wrong answers.
    fn absorb(&mut self, other: Recorder) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.absorb_wrong(other);
    }

    /// The `p`-quantile of one op class in µs (0 without samples; -1
    /// when it falls on a failed op) and its sample counts.
    fn quantile_us(&self, op: Op, p: f64) -> (f64, usize, usize) {
        let mut v = self.lat[op as usize].clone();
        v.sort_unstable();
        match percentile(&v, p) {
            None => (0.0, 0, 0),
            Some((u64::MAX, beyond)) => (-1.0, v.len(), beyond),
            Some((ns, beyond)) => (ns as f64 / 1e3, v.len(), beyond),
        }
    }
}

/// What a workload does; `main` runs every workload the same way.
pub trait Workload: Sized {
    type Inputs;
    /// Steps per block of a measured window; the throughput metrics
    /// are medians over whole blocks, so a stall of the host
    /// moves only the blocks it falls in. A block holds whole cycles of
    /// any fixed schedule in the mix.
    const BLOCK: u64;
    /// Everything the run will send, drawn from the seed.
    fn inputs(seed: u64) -> Self::Inputs;
    /// Bind a server, CREATE the filters and preload them over the
    /// wire: the part `setup_s` times.
    fn setup(inputs: &Rc<Self::Inputs>, tracer: Option<&mut Tracer>) -> Result<Self, String>;
    /// Work before the warm-up whose effect the measured window must
    /// already see.
    fn prepare(&mut self, _rec: &mut Recorder, _tracer: Option<&mut Tracer>) -> Result<(), String> {
        Ok(())
    }
    /// Complete at least one operation. An `Err` ends the run.
    fn step(&mut self, rec: &mut Recorder, tracer: Option<&mut Tracer>) -> Result<(), String>;
    /// Collect the answers still in flight.
    fn drain(&mut self, _rec: &mut Recorder) -> Result<(), String> {
        Ok(())
    }
    /// Round `round` of the false-positive probe: (filter name,
    /// [`PROBE_ROUND`] known-absent keys in all), distinct keys in every
    /// round.
    fn absent_probe(&self, round: u64) -> Vec<(String, Vec<u64>)>;
    /// Distinct keys the filters hold after set-up.
    fn true_keys(&self) -> u64;
    /// Workload-specific lines for the report.
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }
    fn server(&self) -> &EventedFilterServer;
    fn shutdown(self);
}

/// A short description of a response that fails a check.
pub fn unexpected(resp: &Response) -> String {
    let text = format!("{resp:?}");
    format!(
        "unexpected response {}",
        text.chars().take(120).collect::<String>()
    )
}

/// Bind a server on an ephemeral loopback port.
pub fn bind() -> Result<EventedFilterServer, String> {
    let config = ServerConfig {
        max_frame: conn::MAX_FRAME,
        ..ServerConfig::default()
    };
    EventedFilterServer::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))
}

/// Send a set-up request, keep the mirror in step, and require a
/// non-error answer.
pub fn call_ok(conn: &mut Conn, req: &Request, tracer: Option<&mut Tracer>) -> Result<(), String> {
    let (sent, got) = conn.call(req)?;
    if let Some(t) = tracer {
        t.replay(&sent, Some(&got));
    }
    match got.resp {
        Response::Error { code, message } => Err(format!("server error {code}: {message}")),
        _ => Ok(()),
    }
}

/// INSERT `keys` into `name` in [`LOAD_BATCH`]-key requests.
pub fn preload(
    conn: &mut Conn,
    name: &str,
    keys: &[u64],
    mut tracer: Option<&mut Tracer>,
) -> Result<(), String> {
    for chunk in keys.chunks(LOAD_BATCH) {
        let req = Request::Insert {
            name: name.to_string(),
            keys: chunk.to_vec(),
        };
        call_ok(conn, &req, tracer.as_deref_mut())?;
    }
    Ok(())
}

/// Positive answers over known-absent keys, and how many were asked:
/// rounds of probes until [`FPR_POSITIVES`] positives or
/// [`FPR_MAX_PROBES`] probes, so the estimate's relative error stays
/// near 1/sqrt(FPR_POSITIVES) whatever the rate.
fn probe_absent<W: Workload>(wl: &W) -> Result<(u64, u64), String> {
    let mut c = FilterClient::connect(wl.server().local_addr()).map_err(|e| e.to_string())?;
    let (mut pos, mut n) = (0u64, 0u64);
    let mut round = 0;
    while pos < FPR_POSITIVES && n < FPR_MAX_PROBES {
        for (name, keys) in wl.absent_probe(round) {
            for chunk in keys.chunks(LOAD_BATCH) {
                let got = c.contains(&name, chunk).map_err(|e| e.to_string())?;
                pos += got.iter().filter(|&&b| b).count() as u64;
                n += chunk.len() as u64;
            }
        }
        round += 1;
    }
    Ok((pos, n))
}

/// Heap bytes of every served filter, from STATS.
fn filter_bytes(addr: SocketAddr) -> Result<u64, String> {
    let mut c = FilterClient::connect(addr).map_err(|e| e.to_string())?;
    let stats = c.stats().map_err(|e| e.to_string())?;
    Ok(stats.filters.iter().map(|f| f.size_in_bytes).sum())
}

/// Counters read at a window's edges.
struct Snap {
    at: Instant,
    ticks: u64,
    allocs: (u64, u64),
}

impl Snap {
    fn take() -> Snap {
        Snap {
            at: Instant::now(),
            ticks: procfs::process_ticks(),
            allocs: alloc::totals(),
        }
    }
}

/// One measured window.
struct Window {
    rec: Recorder,
    secs: f64,
    cpu_us: f64,
    allocs: u64,
    alloc_bytes: u64,
    /// Its whole blocks of [`Workload::BLOCK`] steps.
    blocks: Vec<Block>,
}

struct Block {
    secs: f64,
    ops: u64,
    keys: u64,
}

fn measure<W: Workload>(
    wl: &mut W,
    len: Duration,
    mut tracer: Option<&mut Tracer>,
) -> Result<Window, String> {
    let mut rec = Recorder::default();
    let a = Snap::take();
    let deadline = a.at + len;
    let mut blocks = Vec::new();
    let (mut edge, mut ops, mut keys) = (a.at, 0, 0);
    let mut steps = 0u64;
    while Instant::now() < deadline {
        wl.step(&mut rec, tracer.as_deref_mut())?;
        steps += 1;
        if steps.is_multiple_of(W::BLOCK) {
            let at = Instant::now();
            blocks.push(Block {
                secs: (at - edge).as_secs_f64(),
                ops: rec.completed - ops,
                keys: rec.keys - keys,
            });
            (edge, ops, keys) = (at, rec.completed, rec.keys);
        }
    }
    let b = Snap::take();
    Ok(Window {
        rec,
        secs: (b.at - a.at).as_secs_f64(),
        cpu_us: (b.ticks - a.ticks) as f64 / procfs::TICKS_PER_S * 1e6,
        allocs: b.allocs.0 - a.allocs.0,
        alloc_bytes: b.allocs.1 - a.allocs.1,
        blocks,
    })
}

/// (metric, samples, samples beyond the percentile).
type SampleCounts = Vec<(&'static str, usize, usize)>;

/// Closed-loop metrics of one window, and the sample counts behind
/// each percentile.
fn window_metrics(w: &Window) -> (BTreeMap<&'static str, f64>, SampleCounts) {
    let r = &w.rec;
    let done = r.completed.max(1) as f64;
    let mut m = BTreeMap::new();
    let mut counts = Vec::new();
    // Over the whole window when it is shorter than a block.
    let per_block = |f: &dyn Fn(&Block) -> f64, whole: f64| {
        let mut v: Vec<f64> = w.blocks.iter().map(f).collect();
        if v.is_empty() {
            whole
        } else {
            median(&mut v)
        }
    };
    m.insert(
        "ops_per_s",
        per_block(&|b| b.ops as f64 / b.secs, r.completed as f64 / w.secs),
    );
    m.insert(
        "keys_per_s",
        per_block(&|b| b.keys as f64 / b.secs, r.keys as f64 / w.secs),
    );
    m.insert("cpu_us_per_op", w.cpu_us / done);
    m.insert("failed_frac", r.failed as f64 / r.attempted.max(1) as f64);
    for (name, op, p) in [
        ("contains_p50_us", Op::Contains, 0.5),
        ("contains_p99_us", Op::Contains, 0.99),
        ("insert_p50_us", Op::Insert, 0.5),
        ("insert_p99_us", Op::Insert, 0.99),
        ("count_p50_us", Op::Count, 0.5),
        ("multi_contains_p50_us", Op::MultiContains, 0.5),
        ("multi_contains_p99_us", Op::MultiContains, 0.99),
        ("move_p50_us", Op::Move, 0.5),
        ("scrape_p50_us", Op::Scrape, 0.5),
    ] {
        let (v, n, beyond) = r.quantile_us(op, p);
        m.insert(name, v);
        if n > 0 {
            counts.push((name, n, beyond));
        }
    }
    (m, counts)
}

/// Metric name → unit, for every metric the command can print.
fn unit(name: &str) -> &'static str {
    match name {
        "setup_s" => "s",
        "ops_per_s" => "1/s",
        "keys_per_s" => "keys/s",
        "fpr" | "failed_frac" | "evented.sys_frac" | "trace.overhead_frac" => "ratio",
        "bits_per_key" => "bits/key",
        "cpu_us_per_op"
        | "client.cpu_us_per_op"
        | "evented.cpu_us_per_op"
        | "compactor.cpu_us_per_op" => "us/op",
        "proto.wire_bytes_per_key" => "B/key",
        "evented.ctx_switches_per_op" => "switches/op",
        "evented.pipelined_depth" => "requests",
        "quotient.cluster_spills_per_op" => "spills/op",
        "bloofi.descent_width" => "probes/key",
        "alloc.per_op" => "allocs/op",
        "alloc.bytes_per_op" => "B/op",
        n if n.ends_with("_ns_per_key") => "ns/key",
        n if n.ends_with("_ns") => "ns",
        _ => "us",
    }
}

/// The end-to-end metrics `--trace 0` reports: the ones every
/// workload's ops produce that stay steady from run to run.
const END_TO_END: [&str; 8] = [
    "setup_s",
    "ops_per_s",
    "keys_per_s",
    "contains_p50_us",
    "insert_p50_us",
    "fpr",
    "bits_per_key",
    "cpu_us_per_op",
];

/// Client-side metrics `--trace 1` reports from its untraced half, and
/// `--trace 0` prints as notes: the tails, which a busy host moves by
/// more than any bound, and the metrics of ops that not every workload
/// sends (0 where it sends none).
const UNGATED: [&str; 8] = [
    "contains_p99_us",
    "insert_p99_us",
    "count_p50_us",
    "multi_contains_p50_us",
    "multi_contains_p99_us",
    "move_p50_us",
    "scrape_p50_us",
    "failed_frac",
];

struct Outcome {
    metrics: Vec<(&'static str, f64)>,
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
    wrong: u64,
    first_failure: Option<String>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|e| format!("{flag} {val}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn run<W: Workload>(args: &Args) -> Result<Outcome, String> {
    let inputs = Rc::new(W::inputs(args.seed));
    let mut tracer = args.trace.then(Tracer::new);
    let mut setup = Vec::new();
    let mut wl: Option<W> = None;
    let begun = Instant::now();
    while wl.is_none() || !args.trace && (setup.len() < SETUP_REPS || begun.elapsed() < SETUP_MIN) {
        if let Some(old) = wl.take() {
            old.shutdown();
        }
        let t = Instant::now();
        wl = Some(W::setup(&inputs, tracer.as_mut())?);
        setup.push(t.elapsed().as_secs_f64());
    }
    let mut wl = wl.expect("at least one set-up");
    let addr = wl.server().local_addr();
    // Space and false-positive rate of the filters as set up: after the
    // window they would depend on how many keys the run got to insert.
    let bits_per_key = filter_bytes(addr)? as f64 * 8.0 / wl.true_keys() as f64;
    let (fp, probes) = if args.trace {
        (0, 0)
    } else {
        probe_absent(&wl)?
    };

    let mut total = Recorder::default();
    let mut side = Recorder::default();
    wl.prepare(&mut side, tracer.as_mut())?;
    measure(&mut wl, WARM_UP, tracer.as_mut())?;
    let len = Duration::from_secs(args.seconds);
    let mut out = Vec::new();
    let mut notes = Vec::new();

    if let Some(mut tr) = tracer.take() {
        tr.recording = true;
        let traced = measure(&mut wl, len / 2, Some(&mut tr))?;
        let log = tr.finish();
        let (untraced, counters) = measure_layers(&mut wl, len / 2)?;
        wl.drain(&mut side)?;
        out.extend(layers(&log, &traced, &untraced, &counters, &mut notes));
        let path = format!(".bench_out/spans-{}-{}.tsv", args.workload, args.seed);
        if let Err(e) = log.write_tsv(path.as_ref(), SPAN_REQUESTS) {
            eprintln!("perfbench: writing {path}: {e}");
        }
        total.absorb(traced.rec);
        total.absorb(untraced.rec);
    } else {
        let w = measure(&mut wl, len, None)?;
        wl.drain(&mut side)?;
        let (mut all, counts) = window_metrics(&w);
        notes.push(format!(
            "ops_per_s, keys_per_s: medians over {} blocks of {} steps",
            w.blocks.len(),
            W::BLOCK
        ));
        for (k, n, beyond) in counts {
            notes.push(format!("{k}: {n} samples, {beyond} beyond"));
        }
        all.insert("setup_s", median(&mut setup));
        all.insert("fpr", fp as f64 / probes.max(1) as f64);
        all.insert("bits_per_key", bits_per_key);
        notes.push(format!(
            "fpr: {fp} positives over {probes} known-absent keys"
        ));
        notes.push(format!("setup_s over {} set-ups: {setup:?}", setup.len()));
        for name in END_TO_END {
            out.push((name, all[name]));
        }
        for name in UNGATED {
            if all[name] != 0.0 {
                notes.push(format!("{name} = {} {}", all[name], unit(name)));
            }
        }
        total.absorb(w.rec);
    }
    notes.extend(wl.notes());
    wl.shutdown();
    total.absorb_wrong(side);
    Ok(Outcome {
        metrics: out,
        notes,
        attempted: total.attempted,
        failed: total.failed,
        wrong: total.wrong,
        first_failure: total.first_failure,
    })
}

/// Counters the untraced half of a traced run reads around its window.
struct LayerCounters {
    client: procfs::ThreadStat,
    evented: procfs::ThreadStat,
    compactor: procfs::ThreadStat,
    /// Differences of the server's METRICS families across the window.
    scrape: BTreeMap<&'static str, f64>,
    pipelined_depth: f64,
}

const SCRAPED: [&str; 5] = [
    "bb_bloofi_descent_width_sum",
    "bb_bloofi_descent_width_count",
    "bb_cqf_cluster_spills_total",
    "bb_server_bytes_in_total",
    "bb_server_bytes_out_total",
];

fn scrape(server: &EventedFilterServer) -> Result<telemetry::expo::Exposition, String> {
    telemetry::expo::parse(&server.metrics_text()).map_err(|e| format!("METRICS: {e}"))
}

fn measure_layers<W: Workload>(
    wl: &mut W,
    len: Duration,
) -> Result<(Window, LayerCounters), String> {
    let client_tid = std::process::id();
    let e0 = scrape(wl.server())?;
    let t0 = procfs::threads();
    let w = measure(wl, len, None)?;
    let t1 = procfs::threads();
    let e1 = scrape(wl.server())?;
    let by_name = |name: &'static str| procfs::thread_delta(&t0, &t1, move |_, t| t.name == name);
    let scrape = SCRAPED
        .iter()
        .map(|&n| (n, e1.value(n).unwrap_or(0.0) - e0.value(n).unwrap_or(0.0)))
        .collect();
    Ok((
        w,
        LayerCounters {
            client: procfs::thread_delta(&t0, &t1, |tid, _| tid == client_tid),
            evented: by_name("filter-evented"),
            compactor: by_name("bb-compactor"),
            scrape,
            pipelined_depth: e1.value("bb_server_pipelined_depth").unwrap_or(0.0),
        },
    ))
}

/// The per-layer metrics of a traced run.
fn layers(
    log: &trace::TraceLog,
    traced: &Window,
    untraced: &Window,
    c: &LayerCounters,
    notes: &mut Vec<String>,
) -> Vec<(&'static str, f64)> {
    let (dur, own) = log.medians();
    let npk = log.ns_per_key();
    let d = |k: &str| dur.get(k).copied().unwrap_or(0.0);
    let per_key = |k: &str| npk.get(k).copied().unwrap_or(0.0);
    let ops = untraced.rec.completed.max(1) as f64;
    let tick_us = 1e6 / procfs::TICKS_PER_S;
    let cpu_per_op = |t: &procfs::ThreadStat| (t.utime + t.stime) as f64 * tick_us / ops;
    let s = |k: &str| c.scrape.get(k).copied().unwrap_or(0.0);

    let rtt = d("client.request");
    let parts = [
        "client.req_encode",
        "client.resp_decode",
        "engine.dispatch",
        "proto.resp_encode",
        "engine.record",
    ];
    let layer_sum: f64 = parts.iter().map(|p| d(p)).sum();
    let residual = rtt - layer_sum;
    let p50 = |w: &Window| {
        let mut all: Vec<u64> = w.rec.lat.iter().flatten().copied().collect();
        all.sort_unstable();
        percentile(&all, 0.5).map_or(0.0, |(v, _)| v as f64)
    };
    let evented_cpu = cpu_per_op(&c.evented);
    let evented_ticks = (c.evented.utime + c.evented.stime).max(1) as f64;
    let (untraced_m, counts) = window_metrics(untraced);
    for (k, n, beyond) in counts {
        notes.push(format!("{k} (untraced half): {n} samples, {beyond} beyond"));
    }

    let mut m: Vec<(&'static str, f64)> = vec![
        ("client.req_encode_ns", d("client.req_encode")),
        ("client.resp_decode_ns", d("client.resp_decode")),
        ("client.cpu_us_per_op", cpu_per_op(&c.client)),
        ("client.rtt_p50_us", rtt / 1e3),
        ("proto.req_decode_ns", d("proto.req_decode")),
        ("proto.resp_encode_ns", d("proto.resp_encode")),
        (
            "proto.wire_bytes_per_key",
            (s("bb_server_bytes_in_total") + s("bb_server_bytes_out_total"))
                / untraced.rec.keys.max(1) as f64,
        ),
        ("engine.dispatch_ns", d("engine.dispatch")),
        ("engine.overhead_ns", log.overhead_ns()),
        ("engine.record_ns", d("engine.record")),
        ("engine.kernel_ns", log.kernel_ns()),
        ("engine.snapshot_us", log.dispatch_ns_of("snapshot") / 1e3),
        (
            "engine.blob_create_us",
            log.dispatch_ns_of("blob_create") / 1e3,
        ),
        ("evented.cpu_us_per_op", evented_cpu),
        ("evented.sys_frac", c.evented.stime as f64 / evented_ticks),
        (
            "evented.ctx_switches_per_op",
            c.evented.ctx_switches as f64 / ops,
        ),
        ("evented.pipelined_depth", c.pipelined_depth),
        ("evented.residual_us", residual / 1e3),
        ("compactor.cpu_us_per_op", cpu_per_op(&c.compactor)),
        ("bloom.contains_ns_per_key", per_key("bloom.contains")),
        ("quotient.contains_ns_per_key", per_key("quotient.contains")),
        ("quotient.insert_ns_per_key", per_key("quotient.insert")),
        ("quotient.count_ns_per_key", per_key("quotient.count")),
        (
            "quotient.cluster_spills_per_op",
            s("bb_cqf_cluster_spills_total") / ops,
        ),
        (
            "bloofi.multi_contains_ns_per_key",
            per_key("bloofi.multi_contains"),
        ),
        ("bloofi.flat_ns_per_key", per_key("bloofi.flat")),
        (
            "bloofi.descent_width",
            s("bb_bloofi_descent_width_sum") / s("bb_bloofi_descent_width_count").max(1.0),
        ),
        ("metrics.render_us", log.dispatch_ns_of("metrics") / 1e3),
        ("alloc.per_op", untraced.allocs as f64 / ops),
        ("alloc.bytes_per_op", untraced.alloc_bytes as f64 / ops),
        (
            "trace.overhead_frac",
            p50(traced) / p50(untraced).max(1.0) - 1.0,
        ),
    ];
    m.extend(UNGATED.iter().map(|&n| (n, untraced_m[n])));

    notes.push(format!(
        "traced requests: {} (spans of the first {SPAN_REQUESTS} written out)",
        log.request_count()
    ));
    notes.push(format!(
        "round trip p50 {:.0} ns = {} + residual {residual:.0} ns",
        rtt,
        parts
            .iter()
            .map(|p| format!("{p} {:.0}", d(p)))
            .collect::<Vec<_>>()
            .join(" + ")
    ));
    notes.push(format!(
        "dispatch share of round trip: {:.3}",
        d("engine.dispatch") / rtt.max(1.0)
    ));
    // Server CPU comes from the untraced half: in the traced half the
    // loop thread waits on the replaying client. One op is one request
    // except for a move, which is three.
    let kernel_per_req = log.kernel_total_ns() / log.request_count().max(1) as f64;
    notes.push(format!(
        "kernel share of server-thread CPU: {:.3} ({kernel_per_req:.0} ns replayed kernel time per request, {:.0} ns server CPU per op)",
        kernel_per_req / (evented_cpu * 1e3).max(1.0),
        evented_cpu * 1e3
    ));
    for (name, v) in &own {
        notes.push(format!("self time {name}: {v:.0} ns"));
    }
    m
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <point|bulk|tenants> --seed <n> --seconds <n> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "point" => run::<point::Point>(&args),
        "bulk" => run::<bulk::Bulk>(&args),
        "tenants" => run::<tenants::Tenants>(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let o = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for note in &o.notes {
        println!("# {note}");
    }
    if let Some(f) = &o.first_failure {
        println!("# first failure: {f}");
    }
    println!(
        "# attempted {} failed {} wrong {}",
        o.attempted, o.failed, o.wrong
    );
    let mut json = String::new();
    for (name, v) in &o.metrics {
        println!("{name:<34} {v:>16.4} {}", unit(name));
        if !json.is_empty() {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            json_number(*v),
            unit(name)
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        o.wrong == 0,
        o.attempted.max(1),
        o.failed
    );
    if o.wrong > 0 {
        std::process::exit(1);
    }
}
