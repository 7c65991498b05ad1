//! Power-SGD distributed aggregation: two fused all-reduces per step
//! (Algorithm 1 wired to a real communicator).

use acp_compression::powersgd::{PowerSgd, PowerSgdConfig as PowerSgdCompressionConfig};
use acp_compression::CompressError;
use acp_tensor::Matrix;

use crate::lowrank::{LowRankCodec, LowRankCompressor, LowRankConfig, LowRankRound};
use crate::pipeline::Fused;

/// Configuration of [`PowerSgdAggregator`]: the [`LowRankConfig`] it shares
/// with ACP-SGD.
pub type PowerSgdConfig = LowRankConfig;

/// Former name of [`PowerSgdConfig`].
#[deprecated(since = "0.2.0", note = "renamed to `PowerSgdConfig`")]
pub type PowerSgdAggregatorConfig = PowerSgdConfig; // allow_verify(reason = "the shim definition itself")

/// Round one all-reduces the fused `P` factors (plus raw vectors); round
/// two, dispatched from `decode`, all-reduces the fused `Q` factors.
impl LowRankCompressor for PowerSgd {
    const NAME: &'static str = "powersgd";

    fn create(rows: usize, cols: usize, cfg: &LowRankConfig, seed: u64) -> Self {
        PowerSgd::new(
            rows,
            cols,
            PowerSgdCompressionConfig {
                rank: cfg.rank,
                error_feedback: cfg.error_feedback,
                reuse: cfg.reuse,
                seed,
                ..PowerSgdCompressionConfig::default()
            },
        )
    }

    fn error_norm(&self) -> f32 {
        PowerSgd::error_norm(self)
    }

    fn first_factor(&mut self, grad: &[f32]) -> Result<Matrix, CompressError> {
        self.try_compute_p_slice(grad)
    }

    /// Round one reads `M` from the untouched segment (without error
    /// feedback); round two writes `P̂ Q̂ᵀ` over it.
    fn reduced(
        &mut self,
        factor: Matrix,
        first_round: bool,
        seg: &mut [f32],
    ) -> Result<LowRankRound, CompressError> {
        if first_round {
            self.try_compute_q_slice(factor, seg)
                .map(LowRankRound::Next)
        } else {
            self.try_finish_into(factor, seg)?;
            Ok(LowRankRound::Done)
        }
    }
}

/// The Power-SGD bucket codec.
pub type PowerCodec = LowRankCodec<PowerSgd>;

/// Power-SGD aggregator over real collectives.
///
/// Per step and bucket: compute every matrix's `P` factor, all-reduce the
/// fused `P` factors together with the uncompressed vector gradients,
/// orthogonalize and compute the `Q` factors, all-reduce the fused `Q`s,
/// decompress. Two collectives per bucket, the second blocked on the first
/// — the structural cost ACP-SGD removes. Runs on the shared
/// [`FusedPipeline`](crate::FusedPipeline), so buckets still overlap with
/// each other (and with backward compute under WFBP) even though each
/// bucket's rounds serialize.
pub type PowerSgdAggregator = Fused<PowerCodec>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{DistributedOptimizer, GradViewMut};
    use acp_collectives::ThreadGroup;
    use acp_tensor::vecops::relative_error;

    #[test]
    fn identical_inputs_converge_to_input() {
        // All workers hold the same rank-2 gradient; repeated aggregation
        // must converge to it (power iteration on a fixed matrix).
        use acp_tensor::SeedableStdNormal;
        let a = Matrix::random_std_normal(8, 2, 1);
        let b = Matrix::random_std_normal(6, 2, 2);
        let truth = a.matmul_nt(&b); // 8x6 rank 2
        let results = ThreadGroup::run(3, |mut comm| {
            let cfg = PowerSgdConfig {
                rank: 2,
                error_feedback: false,
                ..Default::default()
            };
            let mut opt = PowerSgdAggregator::new(cfg);
            let dims = [8usize, 6];
            let mut out = Vec::new();
            for _ in 0..6 {
                let mut g = truth.as_slice().to_vec();
                let mut views = [GradViewMut {
                    dims: &dims,
                    grad: &mut g,
                }];
                opt.aggregate(&mut views, &mut comm).unwrap();
                out = g;
            }
            out
        });
        for g in results {
            let err = relative_error(truth.as_slice(), &g);
            assert!(err < 1e-2, "relative error {err}");
        }
    }

    #[test]
    fn vectors_are_plainly_averaged() {
        let results = ThreadGroup::run(2, |mut comm| {
            let mut opt = PowerSgdAggregator::new(PowerSgdConfig::default());
            let r = comm.rank_id().as_usize() as f32;
            let mut w = vec![r; 12]; // 4x3 matrix
            let mut b = vec![10.0 * (r + 1.0); 3]; // bias vector
            let dw = [4usize, 3];
            let db = [3usize];
            let mut views = [
                GradViewMut {
                    dims: &dw,
                    grad: &mut w,
                },
                GradViewMut {
                    dims: &db,
                    grad: &mut b,
                },
            ];
            opt.aggregate(&mut views, &mut comm).unwrap();
            b
        });
        for b in results {
            assert_eq!(b, vec![15.0; 3]); // exact mean, no compression
        }
    }

    #[test]
    fn all_ranks_receive_identical_gradients() {
        let results = ThreadGroup::run(4, |mut comm| {
            let mut opt = PowerSgdAggregator::new(PowerSgdConfig::default());
            let r = comm.rank_id().as_usize() as f32 + 1.0;
            let mut g: Vec<f32> = (0..30).map(|i| (i as f32).sin() * r).collect();
            let dims = [5usize, 6];
            let mut views = [GradViewMut {
                dims: &dims,
                grad: &mut g,
            }];
            opt.aggregate(&mut views, &mut comm).unwrap();
            g
        });
        for g in &results[1..] {
            for (x, y) in g.iter().zip(&results[0]) {
                assert!((x - y).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn error_feedback_conserves_gradient_mass() {
        // Single worker: transmitted + residual accounts for the gradient.
        use acp_collectives::LocalCommunicator;
        let mut opt = PowerSgdAggregator::new(PowerSgdConfig {
            rank: 1,
            ..Default::default()
        });
        let mut comm = LocalCommunicator::new();
        let dims = [4usize, 4];
        let grad: Vec<f32> = (0..16).map(|i| (i as f32 * 0.7).cos()).collect();
        let mut g = grad.clone();
        let mut views = [GradViewMut {
            dims: &dims,
            grad: &mut g,
        }];
        opt.aggregate(&mut views, &mut comm).unwrap();
        // ||grad - transmitted|| == residual norm (EF identity, step 1).
        let diff: f32 = grad
            .iter()
            .zip(&g)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt();
        assert!((diff - opt.total_error_norm()).abs() < 1e-4);
    }
}
