//! The low-rank codec Power-SGD and ACP-SGD share: per-tensor state
//! (matrices compressed, vectors sent raw), the fused factor all-reduce,
//! and the uncompressed warm start. The two algorithms differ only in the
//! per-matrix [`LowRankCompressor`] and in how many factor rounds a step
//! takes.

use std::fmt;

use acp_collectives::{CollectiveOp, CollectiveResult, ReduceOp};
use acp_compression::CompressError;
use acp_tensor::{Matrix, MatrixShape};

use crate::error::CoreError;
use crate::pipeline::{Bucket, BucketCodec, Fused, Round, DEFAULT_BUFFER_BYTES};
use crate::ssgd::{single_f32, MeanCodec};

/// Configuration of the low-rank aggregators
/// ([`PowerSgdAggregator`](crate::PowerSgdAggregator) and
/// [`AcpSgdAggregator`](crate::AcpSgdAggregator)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LowRankConfig {
    /// Factorization rank (paper: 4 for CNNs, 32 for transformers).
    pub rank: usize,
    /// Maintain per-matrix error-feedback residuals (Algorithm 2) —
    /// required for convergence parity with S-SGD (Fig. 7).
    pub error_feedback: bool,
    /// Reuse the previous aggregated factor as the power-iteration query —
    /// the second Fig. 7 ingredient.
    pub reuse: bool,
    /// Base seed for the rank-shared random factor initialization.
    pub seed: u64,
    /// Number of initial steps aggregated *uncompressed* (exact averaging)
    /// before low-rank compression kicks in — the `start_powerSGD_iter`
    /// warm start of PyTorch's PowerSGD hook, which avoids compressing the
    /// large, fast-changing early-training gradients.
    pub warm_start_steps: u64,
    /// Tensor-fusion buffer capacity in bytes (0 disables fusion).
    pub buffer_bytes: usize,
}

impl Default for LowRankConfig {
    fn default() -> Self {
        LowRankConfig {
            rank: 4,
            error_feedback: true,
            reuse: true,
            seed: 42,
            warm_start_steps: 0,
            buffer_bytes: DEFAULT_BUFFER_BYTES,
        }
    }
}

impl LowRankConfig {
    /// Sets the factorization rank.
    #[must_use]
    pub fn with_rank(mut self, rank: usize) -> Self {
        self.rank = rank;
        self
    }

    /// Enables or disables error feedback.
    #[must_use]
    pub fn with_error_feedback(mut self, error_feedback: bool) -> Self {
        self.error_feedback = error_feedback;
        self
    }

    /// Enables or disables query reuse.
    #[must_use]
    pub fn with_reuse(mut self, reuse: bool) -> Self {
        self.reuse = reuse;
        self
    }

    /// Sets the base seed for factor initialization.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of uncompressed warm-start steps.
    #[must_use]
    pub fn with_warm_start_steps(mut self, steps: u64) -> Self {
        self.warm_start_steps = steps;
        self
    }

    /// Sets the tensor-fusion buffer capacity in bytes.
    #[must_use]
    pub fn with_buffer_bytes(mut self, buffer_bytes: usize) -> Self {
        self.buffer_bytes = buffer_bytes;
        self
    }
}

/// What a [`LowRankCompressor`] makes of one all-reduced factor.
#[derive(Debug)]
pub enum LowRankRound {
    /// Another local factor to all-reduce (Power-SGD's `Q` after `P̂`).
    Next(Matrix),
    /// The decompressed gradient approximation is in the matrix's bucket
    /// segment; the step is done.
    Done,
}

/// The per-matrix compression state machine [`LowRankCodec`] drives. Both
/// methods work on the matrix's segment of the fusion bucket (row-major
/// `rows × cols`), so a step copies no gradient.
pub trait LowRankCompressor: Send + fmt::Debug + Sized {
    /// Algorithm name the aggregator reports.
    const NAME: &'static str;

    /// Creates the state for a `rows × cols` gradient matrix; `seed` is
    /// already specific to the tensor.
    fn create(rows: usize, cols: usize, cfg: &LowRankConfig, seed: u64) -> Self;

    /// Norm of the error-feedback residual (zero without error feedback).
    fn error_norm(&self) -> f32;

    /// The step's first local factor, from the local gradient in `grad`.
    ///
    /// # Errors
    ///
    /// The compressor's phase or shape violation.
    fn first_factor(&mut self, grad: &[f32]) -> Result<Matrix, CompressError>;

    /// Consumes the all-reduced factor of the step's first round
    /// (`first_round`) or of a later one. `seg` holds the local gradient
    /// until the step is done, when it receives the approximation.
    ///
    /// # Errors
    ///
    /// The compressor's phase or shape violation.
    fn reduced(
        &mut self,
        factor: Matrix,
        first_round: bool,
        seg: &mut [f32],
    ) -> Result<LowRankRound, CompressError>;
}

/// Per-tensor compression state.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // few instances, one per tensor
enum LrState<S> {
    /// Matrix-shaped tensor, compressed.
    Matrix(S),
    /// Vector tensor, transmitted uncompressed in the first round.
    Vector,
}

/// Per-bucket codec state: one [`LrState`] per tensor in the bucket, plus
/// what is in flight between rounds.
#[derive(Debug)]
struct LrBucket<S> {
    states: Vec<LrState<S>>,
    /// This round's local factors, one per matrix, in slot order.
    factors: Vec<Matrix>,
    /// Whether the round in flight is the step's first.
    first_round: bool,
}

/// The low-rank bucket codec: each round all-reduces one fused buffer of
/// every matrix's local factor (plus, in the first round, the raw vector
/// gradients) with mean; during the warm start it is a [`MeanCodec`].
#[derive(Debug)]
pub struct LowRankCodec<S> {
    cfg: LowRankConfig,
    /// Completed steps.
    steps: u64,
    /// Exact averaging this step (warm start)?
    warm: bool,
    buckets: Vec<Option<LrBucket<S>>>,
}

impl<S: LowRankCompressor> LowRankCodec<S> {
    fn state_for(&mut self, bucket: &Bucket) -> &mut LrBucket<S> {
        if self.buckets.len() <= bucket.index {
            self.buckets.resize_with(bucket.index + 1, || None);
        }
        let cfg = self.cfg;
        let tensors_start = bucket.tensors.start;
        let dims = &bucket.dims;
        self.buckets[bucket.index].get_or_insert_with(|| {
            let states = dims
                .iter()
                .enumerate()
                .map(|(slot, d)| match MatrixShape::from_tensor_shape(d) {
                    MatrixShape::Matrix { rows, cols } => {
                        // Seed by *global* tensor index so per-tensor random
                        // streams are identical across ranks and independent
                        // of the bucket layout.
                        let i = tensors_start + slot;
                        let seed = cfg.seed ^ (i as u64).wrapping_mul(0x9E3779B9);
                        LrState::Matrix(S::create(rows, cols, &cfg, seed))
                    }
                    MatrixShape::Vector { .. } => LrState::Vector,
                })
                .collect();
            LrBucket {
                states,
                factors: Vec::new(),
                first_round: true,
            }
        })
    }

    fn total_error_norm(&self) -> f32 {
        self.buckets
            .iter()
            .flatten()
            .flat_map(|b| &b.states)
            .map(|s| match s {
                LrState::Matrix(state) => state.error_norm(),
                LrState::Vector => 0.0,
            })
            .sum()
    }

    /// Every matrix's compression state, in bucket and slot order.
    pub(crate) fn matrix_states(&self) -> impl Iterator<Item = &S> {
        self.buckets
            .iter()
            .flatten()
            .flat_map(|b| &b.states)
            .filter_map(|s| match s {
                LrState::Matrix(state) => Some(state),
                LrState::Vector => None,
            })
    }

    fn in_warm_start(&self) -> bool {
        self.steps < self.cfg.warm_start_steps
    }
}

impl<S: LowRankCompressor> BucketCodec for LowRankCodec<S> {
    /// Compresses each matrix from its segment of [`Bucket::data`], which
    /// stays in place: the decode rounds write the aggregate back into it.
    fn encode(&mut self, bucket: &mut Bucket) -> Result<Vec<CollectiveOp>, CoreError> {
        if self.warm {
            // No compression state touched, so the warm start never
            // perturbs the factor schedule.
            return MeanCodec.encode(bucket);
        }
        let st = self.state_for(bucket);
        st.factors.clear();
        st.first_round = true;
        // One fused payload: a local factor per matrix, raw data per vector.
        let mut buf = Vec::new();
        for (slot, lr) in st.states.iter_mut().enumerate() {
            let seg = &bucket.data[bucket.offsets[slot]..bucket.offsets[slot + 1]];
            match lr {
                LrState::Matrix(state) => {
                    let f = state.first_factor(seg)?;
                    buf.extend_from_slice(f.as_slice());
                    st.factors.push(f);
                }
                LrState::Vector => buf.extend_from_slice(seg),
            }
        }
        bucket.payload_bytes += 4 * buf.len() as u64;
        Ok(vec![CollectiveOp::AllReduce {
            buf,
            op: ReduceOp::Mean,
        }])
    }

    /// Writes the round's reduced vectors and finished approximations
    /// straight into their segments of [`Bucket::data`].
    fn decode(
        &mut self,
        bucket: &mut Bucket,
        results: Vec<CollectiveResult>,
    ) -> Result<Round, CoreError> {
        if self.warm {
            return MeanCodec.decode(bucket, results);
        }
        let reduced = single_f32(results)?;
        let st = self
            .buckets
            .get_mut(bucket.index)
            .and_then(Option::as_mut)
            .ok_or(CoreError::CodecProtocol(
                "decode without a pending encode state",
            ))?;
        // The reduced buffer holds exactly this rank's factors, plus the
        // raw vectors in the first round; reject it before touching state.
        let mut expected: usize = st.factors.iter().map(Matrix::len).sum();
        if st.first_round {
            for (slot, lr) in st.states.iter().enumerate() {
                if let LrState::Vector = lr {
                    expected += bucket.offsets[slot + 1] - bucket.offsets[slot];
                }
            }
        }
        if reduced.len() != expected {
            return Err(CoreError::CodecProtocol(
                "reduced buffer length differs from the bucket's factors",
            ));
        }
        let first_round = std::mem::replace(&mut st.first_round, false);
        let mut factors = std::mem::take(&mut st.factors).into_iter();
        let mut next = Vec::new();
        let mut pos = 0usize;
        for (slot, lr) in st.states.iter_mut().enumerate() {
            let seg = &mut bucket.data[bucket.offsets[slot]..bucket.offsets[slot + 1]];
            match lr {
                LrState::Matrix(state) => {
                    let mut f_hat = factors.next().ok_or(CoreError::CodecProtocol(
                        "missing low-rank factor for matrix slot",
                    ))?;
                    let n = f_hat.len();
                    f_hat.as_mut_slice().copy_from_slice(&reduced[pos..pos + n]);
                    pos += n;
                    if let LowRankRound::Next(f) = state.reduced(f_hat, first_round, seg)? {
                        next.push(f);
                    }
                }
                LrState::Vector if first_round => {
                    seg.copy_from_slice(&reduced[pos..pos + seg.len()]);
                    pos += seg.len();
                }
                LrState::Vector => {}
            }
        }
        if next.is_empty() {
            return Ok(Round::Done);
        }
        let mut buf = Vec::new();
        for f in &next {
            buf.extend_from_slice(f.as_slice());
        }
        bucket.payload_bytes += 4 * buf.len() as u64;
        st.factors = next;
        Ok(Round::Next(vec![CollectiveOp::AllReduce {
            buf,
            op: ReduceOp::Mean,
        }]))
    }

    fn name(&self) -> &'static str {
        S::NAME
    }

    fn residual_norm(&self) -> Option<f64> {
        (!self.warm && self.cfg.error_feedback).then(|| self.total_error_norm() as f64)
    }

    fn reset(&mut self) {
        self.buckets.clear();
    }

    fn begin_step(&mut self) {
        self.warm = self.in_warm_start();
    }

    fn end_step(&mut self) {
        self.steps += 1;
    }
}

impl<S: LowRankCompressor> Fused<LowRankCodec<S>> {
    /// Creates the aggregator; per-tensor state initializes lazily on the
    /// first [`DistributedOptimizer::aggregate`](crate::DistributedOptimizer::aggregate)
    /// call.
    pub fn new(cfg: LowRankConfig) -> Self {
        Fused::from_codec(
            cfg.buffer_bytes,
            LowRankCodec {
                cfg,
                steps: 0,
                warm: cfg.warm_start_steps > 0,
                buckets: Vec::new(),
            },
        )
    }

    /// Number of completed aggregation steps.
    pub fn steps(&self) -> u64 {
        self.codec.steps
    }

    /// Whether the next step still uses the uncompressed warm start.
    pub fn in_warm_start(&self) -> bool {
        self.codec.in_warm_start()
    }

    /// Sum of per-matrix error-feedback residual norms (diagnostics).
    pub fn total_error_norm(&self) -> f32 {
        self.codec.total_error_norm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acp_compression::acp::AcpSgd;
    use acp_compression::powersgd::PowerSgd;

    /// A 4×3 matrix and a 2-vector in one bucket.
    fn bucket() -> Bucket {
        Bucket {
            index: 0,
            tensors: 0..2,
            dims: vec![vec![4, 3], vec![2]],
            offsets: vec![0, 12, 14],
            elems: 14,
            world_size: 1,
            data: (0..14).map(|i| i as f32 * 0.25 - 1.0).collect(),
            payload_bytes: 0,
        }
    }

    fn sent_len(ops: &[CollectiveOp]) -> usize {
        match ops {
            [CollectiveOp::AllReduce { buf, .. }] => buf.len(),
            _ => 0,
        }
    }

    /// Runs `rounds - 1` rounds with the exact reduction (the local
    /// payload, as on one rank), then feeds the last round a hand-built
    /// reduction `delta` elements off what was sent.
    fn last_round_off_by<S: LowRankCompressor>(
        rounds: usize,
        delta: isize,
    ) -> (Result<Round, CoreError>, Vec<f32>, Vec<f32>) {
        let mut codec = LowRankCodec::<S> {
            cfg: LowRankConfig::default().with_rank(2),
            steps: 0,
            warm: false,
            buckets: Vec::new(),
        };
        let mut b = bucket();
        let mut sent = sent_len(&codec.encode(&mut b).unwrap());
        for _ in 1..rounds {
            let reduced = vec![0.5; sent];
            match codec.decode(&mut b, vec![CollectiveResult::F32(reduced)]) {
                Ok(Round::Next(ops)) => sent = sent_len(&ops),
                other => panic!("expected another round, got {other:?}"),
            }
        }
        let before = b.data.clone();
        let len = sent.saturating_add_signed(delta);
        let round = codec.decode(&mut b, vec![CollectiveResult::F32(vec![0.5; len])]);
        (round, before, b.data)
    }

    #[test]
    fn wrong_length_reductions_are_rejected_before_any_write() {
        for delta in [-1, 1, -4, 7] {
            for (round, before, after) in [
                last_round_off_by::<AcpSgd>(1, delta),
                last_round_off_by::<PowerSgd>(1, delta),
                last_round_off_by::<PowerSgd>(2, delta),
            ] {
                assert!(
                    matches!(round, Err(CoreError::CodecProtocol(_))),
                    "delta {delta}: {round:?}"
                );
                assert_eq!(before, after, "delta {delta}: bucket written");
            }
        }
    }

    #[test]
    fn exact_length_reductions_decode_into_the_bucket() {
        let (round, _, data) = last_round_off_by::<AcpSgd>(1, 0);
        assert!(matches!(round, Ok(Round::Done)));
        // The vector slot is the reduced value itself.
        assert_eq!(&data[12..], &[0.5, 0.5]);
        let (round, _, _) = last_round_off_by::<PowerSgd>(1, 0);
        assert!(matches!(round, Ok(Round::Next(_))));
        let (round, _, data) = last_round_off_by::<PowerSgd>(2, 0);
        assert!(matches!(round, Ok(Round::Done)));
        assert_eq!(&data[12..], &[0.5, 0.5]);
    }
}
