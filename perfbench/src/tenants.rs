//! `tenants`: one connection, 512 filters across all six backends.
//!
//! Tenant `i` holds 2^19 / (i + 1) keys, so sizes are Zipf-skewed and
//! the largest is a 524,288-key sharded CQF. Backends cycle by size
//! rank; compacting tenants are every 64th, since each one runs its
//! own `bb-compactor` thread. The mix: 86% CONTAINS of 16 keys on a
//! Zipf(1.1)-chosen tenant, 11% INSERT of 8 new keys, 2% MULTI_CONTAINS
//! of 16 keys, 1% METRICS scrapes, and every 2000th op a tenant move
//! (SNAPSHOT, FORGET, blob-CREATE). The registry over many names, the
//! Bloofi descent, metrics rendering and blob decoding work only here.
//!
//! Moves cycle through every 32nd tenant by size rank. A blob-created
//! tenant gets a saturated Bloofi leaf, so a fixed move set keeps the
//! MULTI_CONTAINS cost from drifting once each member has moved once,
//! which [`Workload::prepare`] does before the warm-up. The set keeps
//! the largest CQF tenant, whose ~11.6 MB SNAPSHOT (about 4x its STATS
//! size) is over `DEFAULT_MAX_FRAME`; the benchmark raises the frame
//! limit ([`crate::conn::MAX_FRAME`]) so that move completes and its
//! cost shows in the throughput. The report notes the largest snapshot
//! a move carried.

use crate::conn::Conn;
use crate::trace::Tracer;
use crate::{bind, call_ok, preload, unexpected, Op, Recorder, Workload, PROBE_ROUND};
use rand::rngs::StdRng;
use rand::Rng;
use service::{Backend, EventedFilterServer, Request, Response};
use std::rc::Rc;
use std::time::Instant;
use workloads::Zipf;

const TENANTS: usize = 512;
const TOP_KEYS: u64 = 1 << 19;
/// Backends by size rank, apart from the compacting tenants.
const CYCLE: [Backend; 5] = [
    Backend::ShardedCqf,
    Backend::RegisterBloom,
    Backend::ShardedCuckoo,
    Backend::AtomicBloom,
    Backend::TwoChoiceBloom,
];
const COMPACTING_EVERY: usize = 64;
const MOVE_EVERY: usize = 32;
/// Steps per move. Moving the largest CQF tenant takes ~0.5 s, so at
/// one op in 100 its moves alone filled ~80% of the window.
const MOVE_PERIOD: u64 = 2000;
const EPS: f64 = 0.01;
const SHARD_BITS: u32 = 2;
const CONTAINS_BATCH: usize = 16;
const INSERT_BATCH: usize = 8;
const MULTI_BATCH: usize = 16;
/// Keys probed before and after a move; half present, half absent.
const MOVE_PROBES: usize = 32;
/// Key indices at and above this are never inserted.
const ABSENT: u64 = 1 << 31;

fn size(i: usize) -> u64 {
    TOP_KEYS / (i as u64 + 1)
}

fn backend(i: usize) -> Backend {
    if i % COMPACTING_EVERY == COMPACTING_EVERY - 1 {
        Backend::Compacting
    } else {
        CYCLE[i % CYCLE.len()]
    }
}

fn name(i: usize) -> String {
    format!("t{i:03}")
}

pub struct Inputs {
    salt: u64,
    filter_seed: u64,
    op_seed: u64,
}

impl Inputs {
    /// Key `j` of tenant `i`; distinct for every (i, j).
    fn key(&self, i: usize, j: u64) -> u64 {
        filter_core::hash::mix64(((i as u64) << 32 | j) ^ self.salt)
    }
}

pub struct Tenants {
    inputs: Rc<Inputs>,
    server: EventedFilterServer,
    conn: Conn,
    /// Keys acknowledged per tenant: keys 0..count are present.
    count: Vec<u64>,
    rng: StdRng,
    zipf: Zipf,
    next_move: usize,
    steps: u64,
    /// Largest SNAPSHOT a move carried: (bytes, tenant).
    largest_blob: (usize, usize),
}

impl Tenants {
    fn tenant(&mut self) -> usize {
        self.zipf.sample(&mut self.rng) as usize - 1
    }

    /// A present key of tenant `i`, or an absent one; and which.
    fn probe_key(&mut self, i: usize) -> (u64, bool) {
        if self.rng.gen::<bool>() {
            let j = self.rng.gen_range(0..self.count[i]);
            (self.inputs.key(i, j), true)
        } else {
            let j = ABSENT + u64::from(self.rng.gen::<u32>() >> 2);
            (self.inputs.key(i, j), false)
        }
    }

    fn contains(&mut self, rec: &mut Recorder, tracer: Option<&mut Tracer>) -> Result<(), String> {
        let t = self.tenant();
        let (keys, present): (Vec<u64>, Vec<bool>) =
            (0..CONTAINS_BATCH).map(|_| self.probe_key(t)).unzip();
        let req = Request::Contains {
            name: name(t),
            keys,
        };
        let (sent, got) = self.conn.call(&req)?;
        rec.check(
            Op::Contains,
            &sent,
            &got,
            CONTAINS_BATCH,
            |resp| match resp {
                Response::Bools(b) => no_false_negative(b, &present),
                other => Err(unexpected(other)),
            },
        );
        if let Some(tr) = tracer {
            tr.replay(&sent, Some(&got));
        }
        Ok(())
    }

    fn insert(&mut self, rec: &mut Recorder, tracer: Option<&mut Tracer>) -> Result<(), String> {
        let t = self.tenant();
        let first = self.count[t];
        let keys = (first..first + INSERT_BATCH as u64)
            .map(|j| self.inputs.key(t, j))
            .collect();
        let req = Request::Insert {
            name: name(t),
            keys,
        };
        let (sent, got) = self.conn.call(&req)?;
        let ok = rec.check(Op::Insert, &sent, &got, INSERT_BATCH, |resp| match resp {
            Response::Ok => Ok(()),
            other => Err(unexpected(other)),
        });
        if ok {
            self.count[t] += INSERT_BATCH as u64;
        }
        if let Some(tr) = tracer {
            tr.replay(&sent, Some(&got));
        }
        Ok(())
    }

    fn multi_contains(
        &mut self,
        rec: &mut Recorder,
        tracer: Option<&mut Tracer>,
    ) -> Result<(), String> {
        let mut keys = Vec::with_capacity(MULTI_BATCH);
        let mut owners = Vec::with_capacity(MULTI_BATCH);
        for _ in 0..MULTI_BATCH {
            let t = self.tenant();
            let (k, present) = self.probe_key(t);
            keys.push(k);
            owners.push(present.then(|| name(t)));
        }
        let req = Request::MultiContains { keys };
        let (sent, got) = self.conn.call(&req)?;
        rec.check(
            Op::MultiContains,
            &sent,
            &got,
            MULTI_BATCH,
            |resp| match resp {
                Response::NameLists(lists) if lists.len() == MULTI_BATCH => {
                    for (list, owner) in lists.iter().zip(&owners) {
                        if let Some(o) = owner {
                            if !list.contains(o) {
                                return Err(format!("{o} missing from a key's owners"));
                            }
                        }
                    }
                    Ok(())
                }
                other => Err(unexpected(other)),
            },
        );
        if let Some(tr) = tracer {
            tr.replay(&sent, Some(&got));
        }
        Ok(())
    }

    fn scrape(&mut self, rec: &mut Recorder, tracer: Option<&mut Tracer>) -> Result<(), String> {
        let (sent, got) = self.conn.call(&Request::Metrics)?;
        rec.check(Op::Scrape, &sent, &got, 0, |resp| match resp {
            Response::Text(t) if t.contains("bb_server_frames_received_total") => Ok(()),
            other => Err(unexpected(other)),
        });
        if let Some(tr) = tracer {
            tr.replay(&sent, Some(&got));
        }
        Ok(())
    }

    /// CONTAINS answers for a fixed probe set of tenant `t`, checked
    /// for false negatives. Not an op of the mix: it checks moves.
    fn move_probe(
        &mut self,
        t: usize,
        keys: &[u64],
        present: &[bool],
    ) -> Result<Vec<bool>, String> {
        let req = Request::Contains {
            name: name(t),
            keys: keys.to_vec(),
        };
        match self.conn.call(&req)?.1.resp {
            Response::Bools(b) => no_false_negative(&b, present)
                .map(|()| b)
                .map_err(|why| format!("probe of moving {}: {why}", name(t))),
            other => Err(format!(
                "probe of moving {}: {}",
                name(t),
                unexpected(&other)
            )),
        }
    }

    /// SNAPSHOT → FORGET → blob-CREATE of the next tenant in the move
    /// set; the tenant must answer the same afterwards.
    fn relocate(
        &mut self,
        rec: &mut Recorder,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<(), String> {
        let t = self.next_move;
        self.next_move = (self.next_move + MOVE_EVERY) % TENANTS;
        let (keys, present): (Vec<u64>, Vec<bool>) = (0..MOVE_PROBES)
            .map(|n| {
                if n % 2 == 0 {
                    let j = self.rng.gen_range(0..self.count[t]);
                    (self.inputs.key(t, j), true)
                } else {
                    (self.inputs.key(t, ABSENT + (1 << 30) + n as u64), false)
                }
            })
            .unzip();
        let before = match self.move_probe(t, &keys, &present) {
            Ok(b) => b,
            Err(why) => {
                rec.wrong(Op::Move, &why);
                return Ok(());
            }
        };

        let t0 = Instant::now();
        let snapshot = Request::Snapshot { name: name(t) };
        let sent = self.conn.send(&snapshot).map_err(|e| e.to_string())?;
        let blob = match self.conn.recv() {
            Ok(got) => {
                if let Some(tr) = tracer.as_deref_mut() {
                    tr.replay(&sent, Some(&got));
                }
                match got.resp {
                    Response::Blob { bytes, .. } => {
                        self.largest_blob = self.largest_blob.max((bytes.len(), t));
                        bytes
                    }
                    other => {
                        rec.failed(
                            Op::Move,
                            &format!("SNAPSHOT of {}: {}", name(t), unexpected(&other)),
                        );
                        return Ok(());
                    }
                }
            }
            Err(why) => {
                // The frame's unread body leaves the connection
                // unusable; the tenant stays where it was.
                if let Some(tr) = tracer.as_deref_mut() {
                    tr.replay(&sent, None);
                }
                rec.failed(Op::Move, &format!("SNAPSHOT of {}: {why}", name(t)));
                self.conn = Conn::connect(self.server.local_addr()).map_err(|e| e.to_string())?;
                return Ok(());
            }
        };
        let forget = Request::Forget { name: name(t) };
        let create = Request::Create {
            name: name(t),
            backend: backend(t),
            capacity: 0,
            eps: 0.0,
            shard_bits: 0,
            seed: 0,
            blob,
        };
        for req in [forget, create] {
            if let Err(why) = call_ok(&mut self.conn, &req, tracer.as_deref_mut()) {
                rec.failed(Op::Move, &format!("moving {}: {why}", name(t)));
                return Ok(());
            }
        }
        let t1 = Instant::now();
        match self.move_probe(t, &keys, &present) {
            Ok(after) if after == before => rec.ok(Op::Move, t0, t1, 0),
            Ok(_) => rec.wrong(
                Op::Move,
                &format!("{} answers differently after its move", name(t)),
            ),
            Err(why) => rec.wrong(Op::Move, &why),
        }
        Ok(())
    }
}

fn no_false_negative(answers: &[bool], present: &[bool]) -> Result<(), String> {
    if answers.len() != present.len() {
        return Err(format!(
            "{} answers for {} keys",
            answers.len(),
            present.len()
        ));
    }
    match present.iter().zip(answers).position(|(&p, &got)| p && !got) {
        Some(i) => Err(format!("false negative on probe {i}")),
        None => Ok(()),
    }
}

impl Workload for Tenants {
    type Inputs = Inputs;
    /// One pass of the move set: every block moves each member once.
    const BLOCK: u64 = MOVE_PERIOD * (TENANTS / MOVE_EVERY) as u64;

    fn inputs(seed: u64) -> Inputs {
        let mut rng = workloads::rng(seed);
        Inputs {
            salt: rng.gen(),
            filter_seed: rng.gen(),
            op_seed: rng.gen(),
        }
    }

    fn setup(inputs: &Rc<Inputs>, mut tracer: Option<&mut Tracer>) -> Result<Self, String> {
        let server = bind()?;
        let mut conn = Conn::connect(server.local_addr()).map_err(|e| e.to_string())?;
        let mut keys = Vec::new();
        for i in 0..TENANTS {
            let create = Request::Create {
                name: name(i),
                backend: backend(i),
                // Twice the preload: the run's inserts never fill one.
                capacity: 2 * size(i),
                eps: EPS,
                shard_bits: SHARD_BITS,
                seed: inputs.filter_seed ^ i as u64,
                blob: Vec::new(),
            };
            call_ok(&mut conn, &create, tracer.as_deref_mut())?;
            keys.clear();
            keys.extend((0..size(i)).map(|j| inputs.key(i, j)));
            preload(&mut conn, &name(i), &keys, tracer.as_deref_mut())?;
        }
        Ok(Tenants {
            inputs: Rc::clone(inputs),
            server,
            conn,
            count: (0..TENANTS).map(size).collect(),
            rng: workloads::rng(inputs.op_seed),
            zipf: Zipf::new(TENANTS as u64, 1.1),
            next_move: 0,
            steps: 0,
            largest_blob: (0, 0),
        })
    }

    fn prepare(
        &mut self,
        rec: &mut Recorder,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<(), String> {
        for _ in 0..TENANTS / MOVE_EVERY {
            self.relocate(rec, tracer.as_deref_mut())?;
        }
        Ok(())
    }

    fn step(&mut self, rec: &mut Recorder, tracer: Option<&mut Tracer>) -> Result<(), String> {
        // MULTI_CONTAINS, moves and scrapes each cost tens of CONTAINS
        // and swing most with the host's memory traffic, so they are a
        // few percent of the mix: enough samples for their own
        // percentiles, while the light ops set the throughput. Moves are
        // rarer still, and on a fixed schedule so that every block holds
        // the same moves.
        self.steps += 1;
        if self.steps.is_multiple_of(MOVE_PERIOD) {
            return self.relocate(rec, tracer);
        }
        match self.rng.gen_range(0..MOVE_PERIOD as u32 - 1) {
            0..=1718 => self.contains(rec, tracer),
            1719..=1938 => self.insert(rec, tracer),
            1939..=1978 => self.multi_contains(rec, tracer),
            _ => self.scrape(rec, tracer),
        }
    }

    fn absent_probe(&self, round: u64) -> Vec<(String, Vec<u64>)> {
        let per_tenant = PROBE_ROUND / TENANTS as u64;
        let first = ABSENT + round * per_tenant;
        (0..TENANTS)
            .map(|i| {
                let keys = (first..first + per_tenant)
                    .map(|j| self.inputs.key(i, j))
                    .collect();
                (name(i), keys)
            })
            .collect()
    }

    fn true_keys(&self) -> u64 {
        (0..TENANTS).map(size).sum()
    }

    fn notes(&self) -> Vec<String> {
        let (bytes, t) = self.largest_blob;
        vec![format!(
            "largest move snapshot: {bytes} B, {} ({} keys, {:.1} bits/key)",
            name(t),
            self.count[t],
            bytes as f64 * 8.0 / self.count[t] as f64
        )]
    }

    fn server(&self) -> &EventedFilterServer {
        &self.server
    }

    fn shutdown(self) {
        self.server.shutdown();
    }
}
