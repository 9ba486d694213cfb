//! `point`: one connection, one request in flight, one key a request.
//!
//! 95% CONTAINS and 5% INSERT on one register-blocked Bloom filter,
//! keys Zipf(1.1) over 2^20 ranks with a random half preloaded. The
//! per-request fixed cost of client, proto, evented loop and engine is
//! the whole round trip here; the engine's dispatch, kernel included,
//! is about a microsecond of it.

use crate::conn::Conn;
use crate::trace::Tracer;
use crate::{bind, call_ok, preload, unexpected, Op, Recorder, Workload, PROBE_ROUND};
use rand::Rng;
use service::{Backend, EventedFilterServer, Request, Response};
use std::rc::Rc;
use workloads::{rank_to_key, Zipf};

const NAME: &str = "point";
const RANKS: u64 = 1 << 20;
/// Length of the op stream; the client cycles through it.
const STREAM: usize = 1 << 20;
const INSERT_SHARE: f64 = 0.05;
/// Marks an INSERT in the op stream; the low bits hold the rank.
const INSERT_BIT: u32 = 1 << 31;
const EPS: f64 = 0.01;
const SHARD_BITS: u32 = 4;

pub struct Inputs {
    salt: u64,
    filter_seed: u64,
    preloaded: Vec<u64>,
    stream: Vec<u32>,
}

pub struct Point {
    inputs: Rc<Inputs>,
    server: EventedFilterServer,
    conn: Conn,
    /// Bit `rank` is set once the server acknowledged the key.
    present: Vec<u64>,
    pos: usize,
}

impl Point {
    fn is_present(&self, rank: u64) -> bool {
        self.present[(rank / 64) as usize] >> (rank % 64) & 1 == 1
    }

    fn set_present(&mut self, rank: u64) {
        self.present[(rank / 64) as usize] |= 1 << (rank % 64);
    }
}

impl Workload for Point {
    type Inputs = Inputs;
    const BLOCK: u64 = 1 << 15;

    fn inputs(seed: u64) -> Inputs {
        let mut rng = workloads::rng(seed);
        let salt = rng.gen();
        let filter_seed = rng.gen();
        let preloaded = (1..=RANKS).filter(|_| rng.gen::<bool>()).collect();
        let zipf = Zipf::new(RANKS, 1.1);
        let stream = (0..STREAM)
            .map(|_| {
                let rank = zipf.sample(&mut rng) as u32;
                if rng.gen_bool(INSERT_SHARE) {
                    rank | INSERT_BIT
                } else {
                    rank
                }
            })
            .collect();
        Inputs {
            salt,
            filter_seed,
            preloaded,
            stream,
        }
    }

    fn setup(inputs: &Rc<Inputs>, mut tracer: Option<&mut Tracer>) -> Result<Self, String> {
        let server = bind()?;
        let mut conn = Conn::connect(server.local_addr()).map_err(|e| e.to_string())?;
        let create = Request::Create {
            name: NAME.into(),
            backend: Backend::RegisterBloom,
            capacity: RANKS,
            eps: EPS,
            shard_bits: SHARD_BITS,
            seed: inputs.filter_seed,
            blob: Vec::new(),
        };
        call_ok(&mut conn, &create, tracer.as_deref_mut())?;
        let keys: Vec<u64> = inputs
            .preloaded
            .iter()
            .map(|&r| rank_to_key(r, inputs.salt))
            .collect();
        preload(&mut conn, NAME, &keys, tracer)?;
        let mut p = Point {
            inputs: Rc::clone(inputs),
            server,
            conn,
            present: vec![0; (RANKS / 64 + 1) as usize],
            pos: 0,
        };
        for &r in &inputs.preloaded {
            p.set_present(r);
        }
        Ok(p)
    }

    fn step(&mut self, rec: &mut Recorder, tracer: Option<&mut Tracer>) -> Result<(), String> {
        let entry = self.inputs.stream[self.pos];
        self.pos = (self.pos + 1) % STREAM;
        let rank = u64::from(entry & !INSERT_BIT);
        let keys = vec![rank_to_key(rank, self.inputs.salt)];
        let name = NAME.to_string();
        let (op, req) = if entry & INSERT_BIT != 0 {
            (Op::Insert, Request::Insert { name, keys })
        } else {
            (Op::Contains, Request::Contains { name, keys })
        };
        let (sent, got) = self.conn.call(&req)?;
        let present = self.is_present(rank);
        let ok = rec.check(op, &sent, &got, 1, |resp| match (op, resp) {
            (Op::Insert, Response::Ok) => Ok(()),
            (Op::Contains, Response::Bools(b)) if b.len() == 1 => {
                if present && !b[0] {
                    Err(format!("false negative on rank {rank}"))
                } else {
                    Ok(())
                }
            }
            _ => Err(unexpected(resp)),
        });
        if ok && op == Op::Insert {
            self.set_present(rank);
        }
        if let Some(t) = tracer {
            t.replay(&sent, Some(&got));
        }
        Ok(())
    }

    fn absent_probe(&self, round: u64) -> Vec<(String, Vec<u64>)> {
        // Ranks past the Zipf range are never sent, so never inserted.
        let first = RANKS + 1 + round * PROBE_ROUND;
        let keys = (first..first + PROBE_ROUND)
            .map(|r| rank_to_key(r, self.inputs.salt))
            .collect();
        vec![(NAME.into(), keys)]
    }

    fn true_keys(&self) -> u64 {
        self.inputs.preloaded.len() as u64
    }

    fn server(&self) -> &EventedFilterServer {
        &self.server
    }

    fn shutdown(self) {
        self.server.shutdown();
    }
}
