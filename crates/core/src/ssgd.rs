//! The well-optimized S-SGD baseline: uncompressed gradient averaging with
//! tensor fusion over ring all-reduce (PyTorch-DDP semantics).

use acp_collectives::{CollectiveOp, CollectiveResult, ReduceOp};

use crate::error::CoreError;
use crate::pipeline::{Bucket, BucketCodec, Fused, Round};

pub use crate::pipeline::DEFAULT_BUFFER_BYTES;

/// Codec: one fused mean all-reduce per bucket, no compression.
#[derive(Debug, Default)]
pub struct MeanCodec;

impl BucketCodec for MeanCodec {
    fn encode(&mut self, bucket: &mut Bucket) -> Result<Vec<CollectiveOp>, CoreError> {
        bucket.payload_bytes += 4 * bucket.elems as u64;
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
        bucket.data = single_f32(results)?;
        Ok(Round::Done)
    }

    fn name(&self) -> &'static str {
        "ssgd"
    }
}

/// The `f32` buffer of a round that dispatched one dense collective.
pub(crate) fn single_f32(results: Vec<CollectiveResult>) -> Result<Vec<f32>, CoreError> {
    results
        .into_iter()
        .next()
        .ok_or(CoreError::CodecProtocol(
            "expected one collective result per round",
        ))?
        .into_f32()
        .map_err(CoreError::from)
}

/// Uncompressed gradient-averaging aggregator.
///
/// # Examples
///
/// ```
/// use acp_collectives::{Communicator, ThreadGroup};
/// use acp_core::{DistributedOptimizer, GradViewMut, SSgdAggregator};
///
/// let results = ThreadGroup::run(2, |mut comm| {
///     let mut opt = SSgdAggregator::new();
///     let mut g = vec![comm.rank_id().as_usize() as f32 * 2.0; 3];
///     let dims = [3usize];
///     let mut views = [GradViewMut { dims: &dims, grad: &mut g }];
///     opt.aggregate(&mut views, &mut comm).unwrap();
///     g
/// });
/// assert_eq!(results[0], vec![1.0, 1.0, 1.0]); // mean of 0 and 2
/// ```
pub type SSgdAggregator = Fused<MeanCodec>;

impl SSgdAggregator {
    /// Creates the aggregator with the default 25 MB fusion buffer.
    pub fn new() -> Self {
        Self::with_buffer_bytes(DEFAULT_BUFFER_BYTES)
    }

    /// Creates the aggregator with an explicit fusion buffer capacity
    /// (0 disables fusion).
    #[must_use]
    pub fn with_buffer_bytes(buffer_bytes: usize) -> Self {
        Fused::from_codec(buffer_bytes, MeanCodec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{DistributedOptimizer, GradViewMut};
    use acp_collectives::ThreadGroup;

    #[test]
    fn averages_across_workers() {
        let p = 4;
        let results = ThreadGroup::run(p, |mut comm| {
            let mut opt = SSgdAggregator::new();
            let r = comm.rank_id().as_usize() as f32;
            let mut a = vec![r, 2.0 * r];
            let mut b = vec![10.0 * r; 3];
            let da = [2usize];
            let db = [3usize];
            let mut views = [
                GradViewMut {
                    dims: &da,
                    grad: &mut a,
                },
                GradViewMut {
                    dims: &db,
                    grad: &mut b,
                },
            ];
            opt.aggregate(&mut views, &mut comm).unwrap();
            (a, b)
        });
        // mean rank = 1.5
        for (a, b) in results {
            assert_eq!(a, vec![1.5, 3.0]);
            assert_eq!(b, vec![15.0; 3]);
        }
    }

    #[test]
    fn tiny_buffer_still_correct() {
        // Forces one bucket per tensor.
        let results = ThreadGroup::run(2, |mut comm| {
            let mut opt = SSgdAggregator::with_buffer_bytes(1);
            let r = comm.rank_id().as_usize() as f32;
            let mut a = vec![r; 5];
            let mut b = vec![r + 1.0; 7];
            let da = [5usize];
            let db = [7usize];
            let mut views = [
                GradViewMut {
                    dims: &da,
                    grad: &mut a,
                },
                GradViewMut {
                    dims: &db,
                    grad: &mut b,
                },
            ];
            opt.aggregate(&mut views, &mut comm).unwrap();
            (a, b)
        });
        for (a, b) in results {
            assert_eq!(a, vec![0.5; 5]);
            assert_eq!(b, vec![1.5; 7]);
        }
    }
}
