//! The fused-bucket aggregation pipeline every aggregator runs on.
//!
//! One aggregation step is always the same skeleton: partition the
//! forward-order tensor list into fusion buckets ([`bucket_ranges`]), and
//! per bucket *compress → dispatch → wait → decompress*. What differs
//! between algorithms is only the compression applied to a bucket and the
//! collectives it needs — captured by the [`BucketCodec`] trait, including
//! multi-round exchanges ([`Round::Next`], e.g. Power-SGD's dependent `Q`
//! all-reduce).
//!
//! The pipeline has two entry points with identical results:
//!
//! * [`FusedPipeline::finish`] alone — the *blocking* path: every bucket is
//!   packed and dispatched in plan order, then drained in plan order. The
//!   dispatch/drain split means bucket `b+1` communicates while bucket `b`
//!   is being awaited (tensor-fusion pipelining).
//! * [`FusedPipeline::push`] per ready gradient + `finish` — the *WFBP*
//!   path: a bucket's collective is dispatched the moment its last tensor
//!   arrives, overlapping communication with the rest of backward.
//!
//! Both paths feed each bucket the same data to the same per-bucket codec
//! state, and the comm worker executes submissions in FIFO order, so the
//! overlapped schedule is **bit-identical** to the blocking one by
//! construction.

use std::fmt;
use std::ops::Range;

use acp_collectives::{wait_all, CollectiveOp, CollectiveResult, Communicator, PendingOp};
use acp_telemetry::{keys, Recorder, RecorderCell, RecorderHandle, SpanGuard};

use crate::error::CoreError;
use crate::fusion::bucket_ranges;
use crate::optimizer::{check_shapes, DistributedOptimizer, GradViewMut};

/// Default DDP fusion buffer: 25 MB.
pub const DEFAULT_BUFFER_BYTES: usize = 25 * 1024 * 1024;

/// One fusion bucket: a contiguous run of forward-order tensors whose
/// gradients travel together in fused collective payloads.
#[derive(Debug)]
pub struct Bucket {
    /// Bucket position in the plan. Stable across steps — codecs key their
    /// per-bucket compression state (residuals, factor queries) by it so
    /// dispatch order cannot change results.
    pub index: usize,
    /// Range of tensor indices fused into the bucket.
    pub tensors: Range<usize>,
    /// Dims of each tensor in the bucket, in order.
    pub dims: Vec<Vec<usize>>,
    /// Element offset of each tensor inside [`Bucket::data`]
    /// (`dims.len() + 1` entries; last is the total).
    pub offsets: Vec<usize>,
    /// Total elements in the bucket.
    pub elems: usize,
    /// World size of the communicator driving the current step.
    pub world_size: usize,
    /// The bucket's flattened gradient: input to [`BucketCodec::encode`],
    /// and the aggregated result after the final [`BucketCodec::decode`]
    /// round. A codec either moves it into its collective (`std::mem::take`
    /// in `encode`, assign the result in the last `decode`) or leaves it in
    /// place and writes the aggregate into it, as the low-rank codec does.
    pub data: Vec<f32>,
    /// Wire bytes the codec reports for the current step; add the
    /// compressed payload size here in `encode` (and in later rounds).
    pub payload_bytes: u64,
}

/// What a codec wants next after consuming one round of results.
#[derive(Debug)]
pub enum Round {
    /// Dispatch another round of collectives for this bucket (e.g.
    /// Power-SGD's `Q` all-reduce, which depends on the reduced `P`).
    Next(Vec<CollectiveOp>),
    /// The bucket is complete; [`Bucket::data`] holds the aggregated
    /// gradient.
    Done,
}

/// The per-bucket compression half of an aggregation algorithm.
///
/// [`encode`](BucketCodec::encode) turns a packed bucket into its first
/// round of collectives; [`decode`](BucketCodec::decode) consumes each
/// round's results (in request order) until it returns [`Round::Done`]
/// with the aggregated gradient in [`Bucket::data`]. State must be keyed
/// by [`Bucket::index`] — never by call order — so the blocking and
/// overlapped schedules stay bit-identical.
pub trait BucketCodec: Send {
    /// Compresses a freshly packed bucket and returns the first round of
    /// collectives to dispatch for it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Compress`] if the compressor state machine
    /// rejects the bucket (phase, shape or matrix-dimension violation).
    fn encode(&mut self, bucket: &mut Bucket) -> Result<Vec<CollectiveOp>, CoreError>;

    /// Consumes one round of results; returns the next round or finishes
    /// the bucket.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Collective`] if a result has the wrong payload
    /// type for the requested operation.
    fn decode(
        &mut self,
        bucket: &mut Bucket,
        results: Vec<CollectiveResult>,
    ) -> Result<Round, CoreError>;

    /// Short algorithm name, reported by [`DistributedOptimizer::name`].
    fn name(&self) -> &'static str {
        std::any::type_name::<Self>()
    }

    /// Error-feedback residual norm to record as
    /// [`keys::EF_RESIDUAL_NORM`] after a step, or `None` when this step
    /// kept no residual. Called only when a recorder is enabled.
    fn residual_norm(&self) -> Option<f64> {
        None
    }

    /// Drops all state keyed by [`Bucket::index`]; called when the bucket
    /// plan is rebuilt (fusion re-plan or membership change), since a new
    /// plan means new buckets.
    fn reset(&mut self) {}

    /// Called before each step's first `push` and before its `finish`.
    fn begin_step(&mut self) {}

    /// Called after each successful step.
    fn end_step(&mut self) {}
}

/// Byte/time accounting for one pipeline step, for the per-step telemetry
/// [`Fused`] records.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepStats {
    /// Dense gradient bytes the step aggregated.
    pub dense_bytes: u64,
    /// Compressed wire bytes the codec reported across all buckets.
    pub payload_bytes: u64,
    /// Time spent inside codec `encode`/`decode` calls, microseconds.
    pub compress_us: u64,
    /// Recorder timestamp at which the step opened.
    pub step_start_us: u64,
}

/// The shared pack → dispatch → wait → decompress engine.
///
/// Owns the bucket plan (built lazily from the first step's tensor list
/// and a `buffer_bytes` capacity), the per-bucket staging buffers, and the
/// in-flight [`PendingOp`] handles. See the [module docs](self) for the
/// two entry points.
#[derive(Default)]
pub struct FusedPipeline {
    buffer_bytes: usize,
    shapes: Vec<Vec<usize>>,
    buckets: Vec<Bucket>,
    tensor_to_bucket: Vec<usize>,
    inflight: Vec<Option<Vec<PendingOp>>>,
    pushed: Vec<Vec<bool>>,
    pushed_count: Vec<usize>,
    dispatched: Vec<bool>,
    step_open: bool,
    compress_us: u64,
    step_start_us: u64,
}

impl fmt::Debug for FusedPipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FusedPipeline")
            .field("buffer_bytes", &self.buffer_bytes)
            .field("buckets", &self.buckets.len())
            .field("step_open", &self.step_open)
            .finish()
    }
}

impl FusedPipeline {
    /// Creates a pipeline with an explicit fusion buffer capacity in bytes
    /// (`0` disables fusion: one bucket per tensor).
    pub fn new(buffer_bytes: usize) -> Self {
        FusedPipeline {
            buffer_bytes,
            ..FusedPipeline::default()
        }
    }

    /// The configured fusion buffer capacity in bytes.
    pub fn buffer_bytes(&self) -> usize {
        self.buffer_bytes
    }

    /// Number of buckets in the plan (0 before the first step).
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Reconfigures the fusion buffer capacity, discarding the bucket plan
    /// so the next step rebuilds it — the closed-loop autotuner applies
    /// its tuned size through this between profiling and epoch 1. A no-op
    /// when the capacity is unchanged. The recorded tensor shapes are
    /// kept, so shape/count-change detection still works across the
    /// re-plan.
    ///
    /// # Panics
    ///
    /// Panics if called mid-step (after a `push`, before its `finish`),
    /// when collectives may be in flight against the old plan.
    pub fn set_buffer_bytes(&mut self, buffer_bytes: usize) {
        if buffer_bytes == self.buffer_bytes {
            return;
        }
        assert!(
            !self.step_open,
            "cannot re-plan fusion buckets while a step is open"
        );
        self.buffer_bytes = buffer_bytes;
        self.buckets.clear();
        self.tensor_to_bucket.clear();
        self.inflight.clear();
        self.pushed.clear();
        self.pushed_count.clear();
        self.dispatched.clear();
    }

    /// Aborts any open step and discards the bucket plan so the next step
    /// rebuilds it from scratch — the membership hook. After a rank dies
    /// and the group `reform()`s, in-flight handles belong to a collective
    /// the survivors abandoned and the bucket plan may have been sized for
    /// the old world; both are dropped here. Recorded tensor shapes are
    /// kept so shape/count-change detection survives the re-plan.
    pub fn replan(&mut self) {
        self.step_open = false;
        self.compress_us = 0;
        self.buckets.clear();
        self.tensor_to_bucket.clear();
        self.inflight.clear();
        self.pushed.clear();
        self.pushed_count.clear();
        self.dispatched.clear();
    }

    fn ensure_plan(&mut self, grads: &[GradViewMut<'_>]) {
        if !self.buckets.is_empty() || grads.is_empty() {
            return;
        }
        let sizes: Vec<usize> = grads.iter().map(|g| 4 * g.grad.len()).collect();
        self.tensor_to_bucket = vec![0; grads.len()];
        for (bi, range) in bucket_ranges(&sizes, self.buffer_bytes)
            .into_iter()
            .enumerate()
        {
            let mut offsets = vec![0usize];
            let mut dims = Vec::with_capacity(range.len());
            for t in range.clone() {
                self.tensor_to_bucket[t] = bi;
                dims.push(grads[t].dims.to_vec());
                // allow_verify(reason = "offsets is seeded with one element above; last() is infallible")
                offsets.push(offsets.last().unwrap() + grads[t].grad.len());
            }
            // allow_verify(reason = "offsets is seeded with one element above; last() is infallible")
            let elems = *offsets.last().unwrap();
            self.pushed.push(vec![false; dims.len()]);
            self.pushed_count.push(0);
            self.dispatched.push(false);
            self.inflight.push(None);
            self.buckets.push(Bucket {
                index: bi,
                tensors: range,
                dims,
                offsets,
                elems,
                world_size: 1,
                data: Vec::new(),
                payload_bytes: 0,
            });
        }
    }

    fn open_step(&mut self, world_size: usize, rec: &dyn Recorder) {
        self.step_open = true;
        self.step_start_us = rec.now_us();
        self.compress_us = 0;
        for bucket in &mut self.buckets {
            bucket.world_size = world_size;
            bucket.payload_bytes = 0;
            bucket.data.clear();
            bucket.data.resize(bucket.elems, 0.0);
        }
        for (flags, count) in self.pushed.iter_mut().zip(&mut self.pushed_count) {
            flags.iter_mut().for_each(|f| *f = false);
            *count = 0;
        }
        self.dispatched.iter_mut().for_each(|d| *d = false);
    }

    fn close_step(&mut self) {
        self.step_open = false;
        for slot in &mut self.inflight {
            *slot = None;
        }
    }

    fn dispatch_bucket<C: BucketCodec + ?Sized>(
        &mut self,
        codec: &mut C,
        b: usize,
        comm: &mut dyn Communicator,
        rec: &dyn Recorder,
    ) -> Result<(), CoreError> {
        let track = comm.rank_id().as_usize() as u64;
        let _g = SpanGuard::start(rec, keys::SPAN_BUCKET_DISPATCH, keys::CAT_PIPELINE, track);
        let encode_start = rec.now_us();
        let ops = codec.encode(&mut self.buckets[b])?;
        self.compress_us += rec.now_us().saturating_sub(encode_start);
        let pending: Vec<PendingOp> = ops.into_iter().map(|op| comm.dispatch(op)).collect();
        // allow_verify(reason = "pending ops stored in inflight[b] are drained by finish_bucket/drain, which wait or drop every handle before the bucket is reused")
        self.inflight[b] = Some(pending);
        self.dispatched[b] = true;
        rec.add(keys::PIPELINE_BUCKETS, 1);
        Ok(())
    }

    /// Offers one tensor's ready gradient (WFBP). The gradient is copied
    /// into its bucket slot; when the bucket's last tensor arrives, the
    /// bucket is compressed and its collectives dispatched immediately.
    ///
    /// Before the plan exists (the first-ever step), pushes are accepted
    /// and ignored — [`finish`](FusedPipeline::finish) runs that step
    /// blocking and builds the plan, exactly like PyTorch DDP's first
    /// iteration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShapeChanged`] /
    /// [`CoreError::TensorCountChanged`] if `index`/`dims` disagree with
    /// the recorded tensor list.
    pub fn push<C: BucketCodec + ?Sized>(
        &mut self,
        codec: &mut C,
        index: usize,
        dims: &[usize],
        grad: &[f32],
        comm: &mut dyn Communicator,
        rec: &dyn Recorder,
    ) -> Result<(), CoreError> {
        if self.buckets.is_empty() {
            return Ok(());
        }
        if index >= self.shapes.len() {
            return Err(CoreError::TensorCountChanged {
                expected: self.shapes.len(),
                actual: index + 1,
            });
        }
        if self.shapes[index] != dims {
            return Err(CoreError::ShapeChanged {
                index,
                expected: self.shapes[index].clone(),
                actual: dims.to_vec(),
            });
        }
        if !self.step_open {
            self.open_step(comm.world_size(), rec);
        }
        let b = self.tensor_to_bucket[index];
        if self.dispatched[b] {
            return Ok(());
        }
        let bucket = &mut self.buckets[b];
        let slot = index - bucket.tensors.start;
        let (start, end) = (bucket.offsets[slot], bucket.offsets[slot + 1]);
        bucket.data[start..end].copy_from_slice(grad);
        if !self.pushed[b][slot] {
            self.pushed[b][slot] = true;
            self.pushed_count[b] += 1;
        }
        if self.pushed_count[b] == self.buckets[b].dims.len() {
            self.dispatch_bucket(codec, b, comm, rec)?;
        }
        Ok(())
    }

    /// Completes a step: packs and dispatches every bucket not already
    /// dispatched by [`push`](FusedPipeline::push) (in plan order), then
    /// drains all buckets in plan order — waiting, running codec rounds,
    /// and writing aggregated gradients back into `grads`.
    ///
    /// Calling `finish` without any prior pushes *is* the blocking
    /// aggregation path.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Collective`] on communication failure and the
    /// shape errors of `check_shapes`; any in-flight state is discarded
    /// so the pipeline is reusable afterwards.
    pub fn finish<C: BucketCodec + ?Sized>(
        &mut self,
        codec: &mut C,
        grads: &mut [GradViewMut<'_>],
        comm: &mut dyn Communicator,
        rec: &dyn Recorder,
    ) -> Result<StepStats, CoreError> {
        let result = self.finish_inner(codec, grads, comm, rec);
        self.close_step();
        result
    }

    fn finish_inner<C: BucketCodec + ?Sized>(
        &mut self,
        codec: &mut C,
        grads: &mut [GradViewMut<'_>],
        comm: &mut dyn Communicator,
        rec: &dyn Recorder,
    ) -> Result<StepStats, CoreError> {
        check_shapes(&mut self.shapes, grads)?;
        self.ensure_plan(grads);
        if !self.step_open {
            self.open_step(comm.world_size(), rec);
        }
        // Pack and dispatch whatever backward did not push, in plan order.
        for b in 0..self.buckets.len() {
            if self.dispatched[b] {
                continue;
            }
            let bucket = &mut self.buckets[b];
            for (slot, t) in bucket.tensors.clone().enumerate() {
                if !self.pushed[b][slot] {
                    let (start, end) = (bucket.offsets[slot], bucket.offsets[slot + 1]);
                    bucket.data[start..end].copy_from_slice(grads[t].grad);
                }
            }
            self.dispatch_bucket(codec, b, comm, rec)?;
        }
        // Drain in plan order, running any dependent rounds.
        let track = comm.rank_id().as_usize() as u64;
        for b in 0..self.buckets.len() {
            // allow_verify(reason = "the flush loop above dispatches every bucket before any drain")
            let mut pending = self.inflight[b].take().expect("every bucket dispatched");
            let wait_start = rec.now_us();
            {
                let _g = SpanGuard::start(rec, keys::SPAN_BUCKET_WAIT, keys::CAT_PIPELINE, track);
                loop {
                    let results = wait_all(pending)?;
                    let decode_start = rec.now_us();
                    let round = codec.decode(&mut self.buckets[b], results)?;
                    self.compress_us += rec.now_us().saturating_sub(decode_start);
                    match round {
                        Round::Next(ops) => {
                            pending = ops.into_iter().map(|op| comm.dispatch(op)).collect();
                        }
                        Round::Done => break,
                    }
                }
            }
            if rec.enabled() {
                rec.observe(
                    keys::PIPELINE_EXPOSED_WAIT_US,
                    rec.now_us().saturating_sub(wait_start) as f64,
                );
            }
            let bucket = &self.buckets[b];
            if bucket.data.len() != bucket.elems {
                // A peer or server returned a wrong-length reduction.
                return Err(CoreError::CodecProtocol(
                    "aggregated bucket length differs from the bucket's elements",
                ));
            }
            for (slot, t) in bucket.tensors.clone().enumerate() {
                let (start, end) = (bucket.offsets[slot], bucket.offsets[slot + 1]);
                grads[t].grad.copy_from_slice(&bucket.data[start..end]);
            }
        }
        Ok(StepStats {
            dense_bytes: self.buckets.iter().map(|b| 4 * b.elems as u64).sum(),
            payload_bytes: self.buckets.iter().map(|b| b.payload_bytes).sum(),
            compress_us: self.compress_us,
            step_start_us: self.step_start_us,
        })
    }
}

/// An aggregator: one [`FusedPipeline`] driving one [`BucketCodec`], plus
/// the telemetry recorder. Every aggregator in this crate is a `Fused`
/// over its codec (e.g. [`SSgdAggregator`](crate::SSgdAggregator) is
/// `Fused<MeanCodec>`), so the codec is the only thing that differs
/// between algorithms.
#[derive(Debug, Default)]
pub struct Fused<C: BucketCodec> {
    pipeline: FusedPipeline,
    pub(crate) codec: C,
    recorder: RecorderCell,
}

impl<C: BucketCodec> Fused<C> {
    pub(crate) fn from_codec(buffer_bytes: usize, codec: C) -> Self {
        Fused {
            pipeline: FusedPipeline::new(buffer_bytes),
            codec,
            recorder: RecorderCell::default(),
        }
    }
}

impl<C: BucketCodec> DistributedOptimizer for Fused<C> {
    fn name(&self) -> &'static str {
        self.codec.name()
    }

    fn aggregate(
        &mut self,
        grads: &mut [GradViewMut<'_>],
        comm: &mut dyn Communicator,
    ) -> Result<(), CoreError> {
        self.codec.begin_step();
        let enabled = self.recorder.enabled();
        let stats = self
            .pipeline
            .finish(&mut self.codec, grads, comm, &*self.recorder)?;
        if enabled {
            let rec = &*self.recorder;
            rec.add(keys::COMPRESS_DENSE_BYTES, stats.dense_bytes);
            rec.add(keys::COMPRESS_PAYLOAD_BYTES, stats.payload_bytes);
            rec.observe(
                keys::COMPRESS_RATIO,
                stats.dense_bytes as f64 / stats.payload_bytes.max(1) as f64,
            );
            rec.observe(keys::COMPRESS_TIME_US, stats.compress_us as f64);
            if let Some(norm) = self.codec.residual_norm() {
                rec.observe(keys::EF_RESIDUAL_NORM, norm);
            }
            rec.observe(
                keys::STEP_AGGREGATE_US,
                rec.now_us().saturating_sub(stats.step_start_us) as f64,
            );
        }
        self.codec.end_step();
        Ok(())
    }

    fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.recorder.set(recorder);
    }

    fn push_ready(
        &mut self,
        index: usize,
        dims: &[usize],
        grad: &[f32],
        comm: &mut dyn Communicator,
    ) -> Result<(), CoreError> {
        self.codec.begin_step();
        self.pipeline
            .push(&mut self.codec, index, dims, grad, comm, &*self.recorder)
    }

    fn finish_overlap(
        &mut self,
        grads: &mut [GradViewMut<'_>],
        comm: &mut dyn Communicator,
    ) -> Result<(), CoreError> {
        self.aggregate(grads, comm)
    }

    fn set_buffer_bytes(&mut self, buffer_bytes: usize) {
        self.pipeline.set_buffer_bytes(buffer_bytes);
        self.codec.reset();
    }

    fn on_membership_change(&mut self) {
        self.pipeline.replan();
        self.codec.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssgd::MeanCodec;
    use acp_collectives::{ReduceOp, ThreadGroup};
    use acp_telemetry::{noop, InMemoryRecorder};
    use std::sync::Arc;

    /// Two dependent mean all-reduce rounds (halve, reduce, halve, reduce)
    /// to exercise `Round::Next`.
    #[derive(Default)]
    struct TwoRoundCodec {
        round2: Vec<bool>,
    }

    impl BucketCodec for TwoRoundCodec {
        fn encode(&mut self, bucket: &mut Bucket) -> Result<Vec<CollectiveOp>, CoreError> {
            if self.round2.len() <= bucket.index {
                self.round2.resize(bucket.index + 1, false);
            }
            self.round2[bucket.index] = false;
            Ok(vec![CollectiveOp::AllReduce {
                buf: std::mem::take(&mut bucket.data),
                op: ReduceOp::Mean,
            }])
        }

        fn decode(
            &mut self,
            bucket: &mut Bucket,
            results: Vec<CollectiveResult>,
        ) -> Result<Round, CoreError> {
            let buf = results
                .into_iter()
                .next()
                .expect("one op per round")
                .into_f32()
                .map_err(CoreError::from)?;
            if self.round2[bucket.index] {
                bucket.data = buf;
                Ok(Round::Done)
            } else {
                self.round2[bucket.index] = true;
                Ok(Round::Next(vec![CollectiveOp::AllReduce {
                    buf,
                    op: ReduceOp::Mean,
                }]))
            }
        }
    }

    fn views<'a>(dims: &'a [Vec<usize>], grads: &'a mut [Vec<f32>]) -> Vec<GradViewMut<'a>> {
        dims.iter()
            .zip(grads.iter_mut())
            .map(|(d, g)| GradViewMut { dims: d, grad: g })
            .collect()
    }

    #[test]
    fn blocking_step_averages_every_bucket() {
        let results = ThreadGroup::run(3, |mut comm| {
            // 8 bytes per tensor, 8-byte capacity: one bucket per tensor.
            let mut pipeline = FusedPipeline::new(8);
            let mut codec = MeanCodec;
            let r = comm.rank_id().as_usize() as f32;
            let dims = vec![vec![2usize], vec![2usize], vec![2usize]];
            let mut grads = vec![vec![r; 2], vec![10.0 * r; 2], vec![r + 1.0; 2]];
            let mut v = views(&dims, &mut grads);
            pipeline
                .finish(&mut codec, &mut v, &mut comm, &*noop())
                .unwrap();
            assert_eq!(pipeline.num_buckets(), 3);
            grads
        });
        for g in results {
            assert_eq!(g[0], vec![1.0; 2]); // mean of 0,1,2
            assert_eq!(g[1], vec![10.0; 2]);
            assert_eq!(g[2], vec![2.0; 2]);
        }
    }

    #[test]
    fn pushed_step_is_bit_identical_to_blocking() {
        // Same gradients through the WFBP path (reverse-order pushes) and
        // the blocking path must agree bitwise.
        let run = |overlapped: bool| {
            ThreadGroup::run(4, move |mut comm| {
                let mut pipeline = FusedPipeline::new(12); // 2 buckets of 3+2 bytes? see sizes
                let mut codec = MeanCodec;
                let r = comm.rank_id().as_usize() as f32;
                let dims = vec![vec![3usize], vec![2usize], vec![4usize]];
                let mut out = Vec::new();
                for step in 0..3 {
                    let s = step as f32;
                    let mut grads = vec![
                        vec![r * 0.25 + s; 3],
                        vec![r - s * 0.5; 2],
                        vec![(r + 1.0) * (s + 1.0); 4],
                    ];
                    if overlapped && step > 0 {
                        // Backward order: deepest tensor first.
                        for i in (0..3).rev() {
                            pipeline
                                .push(
                                    &mut codec,
                                    i,
                                    &dims[i],
                                    &grads[i].clone(),
                                    &mut comm,
                                    &*noop(),
                                )
                                .unwrap();
                        }
                    }
                    let mut v = views(&dims, &mut grads);
                    pipeline
                        .finish(&mut codec, &mut v, &mut comm, &*noop())
                        .unwrap();
                    out = grads.concat();
                }
                out
            })
        };
        let blocking = run(false);
        let overlapped = run(true);
        for (b, o) in blocking.iter().zip(&overlapped) {
            assert_eq!(b.len(), o.len());
            for (x, y) in b.iter().zip(o) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn multi_round_codec_runs_dependent_collectives() {
        let results = ThreadGroup::run(2, |mut comm| {
            let mut pipeline = FusedPipeline::new(0); // one bucket per tensor
            let mut codec = TwoRoundCodec::default();
            let r = comm.rank_id().as_usize() as f32;
            let dims = vec![vec![2usize], vec![1usize]];
            let mut grads = vec![vec![4.0 * r; 2], vec![8.0 * r]];
            let mut v = views(&dims, &mut grads);
            pipeline
                .finish(&mut codec, &mut v, &mut comm, &*noop())
                .unwrap();
            grads
        });
        for g in results {
            // Two mean rounds: mean(0,4)=2 then mean(2,2)=2.
            assert_eq!(g[0], vec![2.0; 2]);
            assert_eq!(g[1], vec![4.0]);
        }
    }

    /// [`MeanCodec`] fed a hand-built reduction `delta` elements longer
    /// (or shorter) than the bucket, as a faulty peer or server could send.
    struct WrongLengthMean {
        delta: isize,
    }

    impl BucketCodec for WrongLengthMean {
        fn encode(&mut self, bucket: &mut Bucket) -> Result<Vec<CollectiveOp>, CoreError> {
            MeanCodec.encode(bucket)
        }

        fn decode(
            &mut self,
            bucket: &mut Bucket,
            _results: Vec<CollectiveResult>,
        ) -> Result<Round, CoreError> {
            let len = bucket.elems.saturating_add_signed(self.delta);
            MeanCodec.decode(bucket, vec![CollectiveResult::F32(vec![1.0; len])])
        }
    }

    #[test]
    fn wrong_length_reduction_is_a_protocol_error_not_a_panic() {
        use acp_collectives::LocalCommunicator;
        let mut pipeline = FusedPipeline::new(DEFAULT_BUFFER_BYTES);
        let mut comm = LocalCommunicator::new();
        let dims = vec![vec![3usize], vec![2usize]];
        for delta in [-1, 1, -5] {
            let mut codec = WrongLengthMean { delta };
            let mut grads = vec![vec![2.0f32; 3], vec![4.0f32; 2]];
            let mut v = views(&dims, &mut grads);
            assert!(matches!(
                pipeline.finish(&mut codec, &mut v, &mut comm, &*noop()),
                Err(CoreError::CodecProtocol(_))
            ));
            // Nothing was written back, and the pipeline stays usable.
            assert_eq!(grads, vec![vec![2.0f32; 3], vec![4.0f32; 2]]);
        }
        let mut codec = WrongLengthMean { delta: 0 };
        let mut grads = vec![vec![2.0f32; 3], vec![4.0f32; 2]];
        let mut v = views(&dims, &mut grads);
        pipeline
            .finish(&mut codec, &mut v, &mut comm, &*noop())
            .unwrap();
        assert_eq!(grads, vec![vec![1.0f32; 3], vec![1.0f32; 2]]);
    }

    #[test]
    fn shape_change_is_rejected_on_push_and_finish() {
        use acp_collectives::LocalCommunicator;
        let mut pipeline = FusedPipeline::new(DEFAULT_BUFFER_BYTES);
        let mut codec = MeanCodec;
        let mut comm = LocalCommunicator::new();
        let dims = vec![vec![2usize]];
        let mut grads = vec![vec![1.0f32; 2]];
        let mut v = views(&dims, &mut grads);
        pipeline
            .finish(&mut codec, &mut v, &mut comm, &*noop())
            .unwrap();
        // Wrong dims on push.
        let err = pipeline
            .push(&mut codec, 0, &[3], &[0.0; 3], &mut comm, &*noop())
            .unwrap_err();
        assert!(matches!(err, CoreError::ShapeChanged { index: 0, .. }));
        // Wrong index on push.
        let err = pipeline
            .push(&mut codec, 1, &[2], &[0.0; 2], &mut comm, &*noop())
            .unwrap_err();
        assert!(matches!(err, CoreError::TensorCountChanged { .. }));
        // Wrong tensor count on finish.
        let mut extra = vec![vec![1.0f32; 2], vec![2.0f32; 2]];
        let dims2 = vec![vec![2usize], vec![2usize]];
        let mut v = views(&dims2, &mut extra);
        assert!(matches!(
            pipeline.finish(&mut codec, &mut v, &mut comm, &*noop()),
            Err(CoreError::TensorCountChanged {
                expected: 1,
                actual: 2,
            })
        ));
        // The pipeline stays usable after the error.
        let mut grads = vec![vec![3.0f32; 2]];
        let mut v = views(&dims, &mut grads);
        pipeline
            .finish(&mut codec, &mut v, &mut comm, &*noop())
            .unwrap();
        assert_eq!(grads[0], vec![3.0; 2]);
    }

    #[test]
    fn records_bucket_spans_and_counters() {
        let rec = Arc::new(InMemoryRecorder::new());
        let rec2 = Arc::clone(&rec);
        ThreadGroup::run(2, move |mut comm| {
            let mut pipeline = FusedPipeline::new(8);
            let mut codec = MeanCodec;
            let dims = vec![vec![2usize], vec![2usize]];
            let mut grads = vec![vec![1.0f32; 2], vec![2.0f32; 2]];
            let mut v = views(&dims, &mut grads);
            let handle: acp_telemetry::RecorderHandle = rec2.clone();
            pipeline
                .finish(&mut codec, &mut v, &mut comm, &*handle)
                .unwrap();
        });
        // 2 ranks x 2 buckets.
        assert_eq!(rec.counter(keys::PIPELINE_BUCKETS), 4);
        assert_eq!(rec.values(keys::PIPELINE_EXPOSED_WAIT_US).len(), 4);
        let spans = rec.spans();
        let dispatch = spans
            .iter()
            .filter(|s| s.name == keys::SPAN_BUCKET_DISPATCH)
            .count();
        let wait = spans
            .iter()
            .filter(|s| s.name == keys::SPAN_BUCKET_WAIT)
            .count();
        assert_eq!(dispatch, 4);
        assert_eq!(wait, 4);
        assert!(spans.iter().filter(|s| s.cat == keys::CAT_PIPELINE).count() >= 8);
    }

    #[test]
    fn error_mid_overlap_drains_inflight_collectives_on_all_ranks() {
        // Regression (ISSUE 4): before `PendingOp` had a `Drop` impl, an
        // early-error return from the overlapped path abandoned the
        // in-flight collective, letting the erroring rank race ahead of
        // its own comm worker (and wedge peers blocked inside the ring).
        // Every rank errors out mid-overlap here; the test terminating
        // with all three errors observed *is* the assertion.
        let errs = ThreadGroup::run(3, |mut comm| {
            let mut pipeline = FusedPipeline::new(0); // one bucket per tensor
            let mut codec = MeanCodec;
            let r = comm.rank_id().as_usize() as f32;
            let dims = vec![vec![2usize], vec![2usize]];
            // Step 1: blocking, builds the plan.
            let mut grads = vec![vec![r; 2], vec![r; 2]];
            let mut v = views(&dims, &mut grads);
            pipeline
                .finish(&mut codec, &mut v, &mut comm, &*noop())
                .unwrap();
            // Step 2, WFBP order: the deepest tensor's bucket dispatches
            // its collective the moment it is pushed...
            pipeline
                .push(&mut codec, 1, &dims[1], &[r; 2], &mut comm, &*noop())
                .unwrap();
            // ...then a shape change errors out of the step with that
            // collective still in flight. Dropping the pipeline (and its
            // PendingOp) must drain it before this rank moves on.
            let err = pipeline
                .push(&mut codec, 0, &[3], &[0.0; 3], &mut comm, &*noop())
                .unwrap_err();
            matches!(err, CoreError::ShapeChanged { index: 0, .. })
        });
        assert_eq!(errs, vec![true, true, true]);
    }

    #[test]
    fn set_buffer_bytes_rebuilds_the_plan() {
        let results = ThreadGroup::run(2, |mut comm| {
            let mut pipeline = FusedPipeline::new(0); // one bucket per tensor
            let mut codec = MeanCodec;
            let r = comm.rank_id().as_usize() as f32;
            let dims = vec![vec![2usize], vec![2usize], vec![2usize]];
            let mut grads = vec![vec![r; 2], vec![r; 2], vec![r; 2]];
            let mut v = views(&dims, &mut grads);
            pipeline
                .finish(&mut codec, &mut v, &mut comm, &*noop())
                .unwrap();
            assert_eq!(pipeline.num_buckets(), 3);
            // Retune: everything fits one bucket now; results must still
            // be the mean, and the old plan must be fully discarded.
            pipeline.set_buffer_bytes(DEFAULT_BUFFER_BYTES);
            assert_eq!(pipeline.num_buckets(), 0);
            let mut grads = vec![vec![r; 2], vec![10.0 * r; 2], vec![r + 2.0; 2]];
            let mut v = views(&dims, &mut grads);
            pipeline
                .finish(&mut codec, &mut v, &mut comm, &*noop())
                .unwrap();
            assert_eq!(pipeline.num_buckets(), 1);
            // Setting the same capacity again keeps the plan.
            pipeline.set_buffer_bytes(DEFAULT_BUFFER_BYTES);
            assert_eq!(pipeline.num_buckets(), 1);
            grads
        });
        for g in results {
            assert_eq!(g[0], vec![0.5; 2]); // mean of 0,1
            assert_eq!(g[1], vec![5.0; 2]);
            assert_eq!(g[2], vec![2.5; 2]);
        }
    }

    #[test]
    fn replan_aborts_an_open_step_and_rebuilds() {
        use acp_collectives::LocalCommunicator;
        let mut pipeline = FusedPipeline::new(0); // one bucket per tensor
        let mut codec = MeanCodec;
        let dims = vec![vec![2usize], vec![2usize]];
        // Step 1 builds the plan.
        let mut grads = vec![vec![1.0f32; 2], vec![2.0f32; 2]];
        let mut v = views(&dims, &mut grads);
        let mut comm = LocalCommunicator::new();
        pipeline
            .finish(&mut codec, &mut v, &mut comm, &*noop())
            .unwrap();
        assert_eq!(pipeline.num_buckets(), 2);
        // Step 2 starts (a push opens the step and dispatches its bucket),
        // then membership changes mid-step: replan must abort the open
        // step and drop the plan...
        pipeline
            .push(&mut codec, 1, &dims[1], &[3.0; 2], &mut comm, &*noop())
            .unwrap();
        pipeline.replan();
        assert_eq!(pipeline.num_buckets(), 0);
        // ...while the next full step re-plans and aggregates cleanly, and
        // the recorded shapes still police shape changes.
        let mut grads = vec![vec![4.0f32; 2], vec![5.0f32; 2]];
        let mut v = views(&dims, &mut grads);
        pipeline
            .finish(&mut codec, &mut v, &mut comm, &*noop())
            .unwrap();
        assert_eq!(pipeline.num_buckets(), 2);
        assert_eq!(grads[0], vec![4.0; 2]);
        let err = pipeline
            .push(&mut codec, 0, &[3], &[0.0; 3], &mut comm, &*noop())
            .unwrap_err();
        assert!(matches!(err, CoreError::ShapeChanged { index: 0, .. }));
    }

    #[test]
    fn first_step_pushes_are_deferred_until_plan_exists() {
        use acp_collectives::LocalCommunicator;
        let mut pipeline = FusedPipeline::new(DEFAULT_BUFFER_BYTES);
        let mut codec = MeanCodec;
        let mut comm = LocalCommunicator::new();
        // Push before any plan: accepted, ignored.
        pipeline
            .push(&mut codec, 0, &[2], &[5.0, 6.0], &mut comm, &*noop())
            .unwrap();
        assert_eq!(pipeline.num_buckets(), 0);
        let dims = vec![vec![2usize]];
        let mut grads = vec![vec![5.0f32, 6.0]];
        let mut v = views(&dims, &mut grads);
        pipeline
            .finish(&mut codec, &mut v, &mut comm, &*noop())
            .unwrap();
        assert_eq!(pipeline.num_buckets(), 1);
        assert_eq!(grads[0], vec![5.0, 6.0]);
    }
}
