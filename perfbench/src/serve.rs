//! The served phase: two `ServedCommunicator` clients of one job, each
//! step one dense all-reduce plus one sparse index/value all-gather pair,
//! every result checked against the sum or concatenation computed here.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use acp_collectives::{CommError, Communicator, ReduceOp};
use acp_serve::{ServedCommunicator, Server};

/// Elements of the dense all-reduce per step (256 KiB of `f32`).
pub const DENSE_ELEMS: usize = 65_536;
/// Index/value pairs each client contributes to the sparse gather.
pub const SPARSE_K: usize = 1_024;
/// Server operations per step: the all-reduce and the two gathers.
pub const OPS_PER_STEP: u64 = 3;
/// Job id the clients aggregate under.
const JOB: u64 = 1;
/// Distinct input sets, cycled by step number.
const VARIANTS: usize = 4;

/// The clients' inputs and the results the server must return, made
/// from the workload seed before any client connects.
pub struct ServeInputs {
    /// `dense[variant][client]`.
    dense: Vec<Vec<Vec<f32>>>,
    /// Element-wise sum of both clients' dense inputs, per variant.
    sums: Vec<Vec<f32>>,
    /// `indices[variant][client]`: sorted, distinct, below `DENSE_ELEMS`.
    indices: Vec<Vec<Vec<u32>>>,
    /// `values[variant][client]`.
    values: Vec<Vec<Vec<f32>>>,
}

impl ServeInputs {
    /// Inputs for `clients` clients from `seed`. Values are drawn away
    /// from zero so the expected sum does not depend on the sign of zero.
    pub fn new(seed: u64, clients: usize) -> Self {
        let mut rng = Rng::new(seed ^ 0x5e_55e5);
        let nonzero = |rng: &mut Rng| {
            let v = rng.unit_f32() * 2.0 - 1.0;
            if v.abs() < 1e-3 {
                0.5
            } else {
                v
            }
        };
        let mut dense = Vec::with_capacity(VARIANTS);
        let mut indices = Vec::with_capacity(VARIANTS);
        let mut values = Vec::with_capacity(VARIANTS);
        for _ in 0..VARIANTS {
            dense.push(
                (0..clients)
                    .map(|_| (0..DENSE_ELEMS).map(|_| nonzero(&mut rng)).collect())
                    .collect::<Vec<Vec<f32>>>(),
            );
            indices.push(
                (0..clients)
                    .map(|_| rng.sorted_distinct(SPARSE_K, DENSE_ELEMS as u32))
                    .collect(),
            );
            values.push(
                (0..clients)
                    .map(|_| (0..SPARSE_K).map(|_| nonzero(&mut rng)).collect())
                    .collect(),
            );
        }
        let sums = dense
            .iter()
            .map(|per_client| {
                (0..DENSE_ELEMS)
                    .map(|i| per_client.iter().map(|c| c[i]).sum())
                    .collect()
            })
            .collect();
        ServeInputs {
            dense,
            sums,
            indices,
            values,
        }
    }
}

/// One client's timings of one step.
pub struct ServeSample {
    /// Time inside `all_reduce`.
    pub dense: Duration,
    /// Time inside the index and value gathers.
    pub sparse: Duration,
    /// Whether every result matched the expected one.
    pub correct: bool,
}

/// One closed-loop client: it submits its next step only after the
/// previous one returned.
pub struct ServeClient {
    comm: ServedCommunicator,
    client: usize,
    buf: Vec<f32>,
    step: usize,
}

impl ServeClient {
    /// Connects as `client` of the job's `clients`.
    pub fn connect(addr: SocketAddr, client: usize, clients: usize) -> Result<Self, CommError> {
        let comm = ServedCommunicator::connect(addr, JOB, client as u32, clients as u32)?;
        Ok(ServeClient {
            comm,
            client,
            buf: vec![0.0; DENSE_ELEMS],
            step: 0,
        })
    }

    /// Runs and checks one step.
    pub fn step(&mut self, inputs: &ServeInputs) -> Result<ServeSample, CommError> {
        let v = self.step % VARIANTS;
        self.step += 1;
        self.buf.copy_from_slice(&inputs.dense[v][self.client]);
        let start = Instant::now();
        self.comm.all_reduce(&mut self.buf, ReduceOp::Sum)?;
        let dense = start.elapsed();
        let start = Instant::now();
        let indices = self.comm.all_gather_u32(&inputs.indices[v][self.client])?;
        let values = self.comm.all_gather_f32(&inputs.values[v][self.client])?;
        let sparse = start.elapsed();
        let correct = same_bits(&self.buf, &inputs.sums[v])
            && indices == inputs.indices[v].concat()
            && same_bits(&values, &inputs.values[v].concat());
        Ok(ServeSample {
            dense,
            sparse,
            correct,
        })
    }
}

/// Whether the server's counters agree with the `steps` steps the
/// clients made: one server step per operation, and no schedule
/// mismatch.
pub fn server_counts_agree(server: &Server, steps: u64) -> bool {
    let stats = server.stats();
    stats.steps == steps * OPS_PER_STEP && stats.schedule_mismatches == 0
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// SplitMix64: the benchmark's own generator for served inputs.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// `k` distinct values below `n`, ascending.
    fn sorted_distinct(&mut self, k: usize, n: u32) -> Vec<u32> {
        let mut set = std::collections::BTreeSet::new();
        while set.len() < k {
            set.insert((self.next_u64() % u64::from(n)) as u32);
        }
        set.into_iter().collect()
    }
}
