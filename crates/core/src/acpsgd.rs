//! The ACP-SGD distributed aggregator: **one** fused all-reduce per step
//! (Algorithms 1–2 wired to a real communicator).

use acp_compression::acp::{AcpSgd, AcpSgdConfig as AcpCompressionConfig, FactorSide};
use acp_compression::CompressError;
use acp_tensor::Matrix;

use crate::lowrank::{LowRankCodec, LowRankCompressor, LowRankConfig, LowRankRound};
use crate::pipeline::Fused;

/// Configuration of [`AcpSgdAggregator`]: the [`LowRankConfig`] it shares
/// with Power-SGD.
pub type AcpSgdConfig = LowRankConfig;

/// One round: the step's single factor (`P` or `Q`) is all-reduced and
/// decompressed straight away.
impl LowRankCompressor for AcpSgd {
    const NAME: &'static str = "acpsgd";

    fn create(rows: usize, cols: usize, cfg: &LowRankConfig, seed: u64) -> Self {
        AcpSgd::new(
            rows,
            cols,
            AcpCompressionConfig {
                rank: cfg.rank,
                error_feedback: cfg.error_feedback,
                reuse: cfg.reuse,
                seed,
                ..AcpCompressionConfig::default()
            },
        )
    }

    fn error_norm(&self) -> f32 {
        AcpSgd::error_norm(self)
    }

    fn first_factor(&mut self, grad: &[f32]) -> Result<Matrix, CompressError> {
        self.try_compress_slice(grad)
    }

    fn reduced(
        &mut self,
        factor: Matrix,
        _first_round: bool,
        seg: &mut [f32],
    ) -> Result<LowRankRound, CompressError> {
        self.try_finish_into(factor, seg)?;
        Ok(LowRankRound::Done)
    }
}

/// The ACP-SGD bucket codec.
pub type AcpCodec = LowRankCodec<AcpSgd>;

/// ACP-SGD aggregator over real collectives.
///
/// Per step each matrix gradient is compressed into *one* low-rank factor
/// (`P` on odd steps, `Q` on even steps); the factors and the uncompressed
/// vector gradients are fused into a single mean all-reduce per bucket,
/// after which every rank decompresses the identical `P Qᵀ` approximation.
/// Exactly one non-blocking collective per bucket per step — the property
/// that lets the paper apply WFBP and tensor fusion, both available here
/// through the shared [`FusedPipeline`](crate::FusedPipeline).
///
/// # Examples
///
/// See the crate-level example.
pub type AcpSgdAggregator = Fused<AcpCodec>;

impl AcpSgdAggregator {
    /// Which factor the next step will transmit (`None` before the first
    /// step or for models with no matrix parameters).
    pub fn next_side(&self) -> Option<FactorSide> {
        self.codec.matrix_states().next().map(AcpSgd::next_side)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{DistributedOptimizer, GradViewMut};
    use acp_collectives::ThreadGroup;
    use acp_tensor::vecops::relative_error;
    use acp_tensor::SeedableStdNormal;

    #[test]
    fn alternates_sides_across_steps() {
        use acp_collectives::LocalCommunicator;
        let mut opt = AcpSgdAggregator::new(AcpSgdConfig::default());
        let mut comm = LocalCommunicator::new();
        let dims = [4usize, 3];
        let mut g = vec![1.0f32; 12];
        let mut views = [GradViewMut {
            dims: &dims,
            grad: &mut g,
        }];
        opt.aggregate(&mut views, &mut comm).unwrap();
        assert_eq!(opt.next_side(), Some(FactorSide::Q));
        let mut views = [GradViewMut {
            dims: &dims,
            grad: &mut g,
        }];
        opt.aggregate(&mut views, &mut comm).unwrap();
        assert_eq!(opt.next_side(), Some(FactorSide::P));
    }

    #[test]
    fn identical_inputs_converge_to_input() {
        let a = Matrix::random_std_normal(8, 2, 1);
        let b = Matrix::random_std_normal(6, 2, 2);
        let truth = a.matmul_nt(&b);
        let results = ThreadGroup::run(3, |mut comm| {
            let cfg = AcpSgdConfig {
                rank: 2,
                error_feedback: false,
                ..Default::default()
            };
            let mut opt = AcpSgdAggregator::new(cfg);
            let dims = [8usize, 6];
            let mut out = Vec::new();
            for _ in 0..10 {
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
    fn all_ranks_receive_identical_gradients() {
        let results = ThreadGroup::run(4, |mut comm| {
            let mut opt = AcpSgdAggregator::new(AcpSgdConfig::default());
            let r = comm.rank_id().as_usize() as f32 + 1.0;
            let mut w: Vec<f32> = (0..30).map(|i| (i as f32).sin() * r).collect();
            let mut bias = vec![r; 5];
            let dw = [5usize, 6];
            let db = [5usize];
            let mut views = [
                GradViewMut {
                    dims: &dw,
                    grad: &mut w,
                },
                GradViewMut {
                    dims: &db,
                    grad: &mut bias,
                },
            ];
            opt.aggregate(&mut views, &mut comm).unwrap();
            (w, bias)
        });
        for (w, bias) in &results[1..] {
            for (x, y) in w.iter().zip(&results[0].0) {
                assert!((x - y).abs() < 1e-5);
            }
            assert_eq!(bias, &results[0].1);
        }
        // Vector averaged exactly: mean of ranks+1 = 2.5.
        assert_eq!(results[0].1, vec![2.5; 5]);
    }

    #[test]
    fn error_feedback_conserves_gradient_mass() {
        use acp_collectives::LocalCommunicator;
        let mut opt = AcpSgdAggregator::new(AcpSgdConfig {
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
        let diff: f32 = grad
            .iter()
            .zip(&g)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt();
        assert!((diff - opt.total_error_norm()).abs() < 1e-4);
    }

    #[test]
    fn matches_powersgd_quality_on_static_gradient() {
        // Convergence-quality parity on a fixed gradient: ACP after 2k
        // steps ≈ Power-SGD after k steps.
        use crate::powersgd::{PowerSgdAggregator, PowerSgdConfig};
        use acp_collectives::LocalCommunicator;
        let truth = Matrix::random_std_normal(12, 10, 7);
        let dims = [12usize, 10];
        let mut comm = LocalCommunicator::new();
        let mut power = PowerSgdAggregator::new(PowerSgdConfig {
            rank: 3,
            error_feedback: false,
            ..Default::default()
        });
        let mut p_out = Vec::new();
        for _ in 0..4 {
            let mut g = truth.as_slice().to_vec();
            let mut views = [GradViewMut {
                dims: &dims,
                grad: &mut g,
            }];
            power.aggregate(&mut views, &mut comm).unwrap();
            p_out = g;
        }
        let mut acp = AcpSgdAggregator::new(AcpSgdConfig {
            rank: 3,
            error_feedback: false,
            ..Default::default()
        });
        let mut a_out = Vec::new();
        for _ in 0..8 {
            let mut g = truth.as_slice().to_vec();
            let mut views = [GradViewMut {
                dims: &dims,
                grad: &mut g,
            }];
            acp.aggregate(&mut views, &mut comm).unwrap();
            a_out = g;
        }
        let p_err = relative_error(truth.as_slice(), &p_out);
        let a_err = relative_error(truth.as_slice(), &a_out);
        assert!(a_err < p_err * 1.5 + 0.05, "ACP {a_err} vs Power {p_err}");
    }

    #[test]
    fn warm_start_uses_exact_averaging() {
        let results = ThreadGroup::run(2, |mut comm| {
            let cfg = AcpSgdConfig {
                rank: 1,
                warm_start_steps: 2,
                ..Default::default()
            };
            let mut opt = AcpSgdAggregator::new(cfg);
            let dims = [3usize, 3];
            let mut outputs = Vec::new();
            for step in 0..3 {
                assert_eq!(opt.in_warm_start(), step < 2);
                let mut g = vec![comm.rank_id().as_usize() as f32 + step as f32; 9];
                let mut views = [GradViewMut {
                    dims: &dims,
                    grad: &mut g,
                }];
                opt.aggregate(&mut views, &mut comm).unwrap();
                outputs.push(g);
            }
            outputs
        });
        for out in results {
            // First two steps: exact mean of {step, step+1} = step + 0.5.
            assert_eq!(out[0], vec![0.5; 9]);
            assert_eq!(out[1], vec![1.5; 9]);
            // Third step: compressed (rank 1 of a constant matrix happens
            // to be exact up to float error, so just check consistency).
            assert!(out[2].iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn vector_only_model_works() {
        // A model with no matrices degenerates to plain averaging.
        let results = ThreadGroup::run(2, |mut comm| {
            let mut opt = AcpSgdAggregator::new(AcpSgdConfig::default());
            let mut b = vec![comm.rank_id().as_usize() as f32; 4];
            let db = [4usize];
            let mut views = [GradViewMut {
                dims: &db,
                grad: &mut b,
            }];
            opt.aggregate(&mut views, &mut comm).unwrap();
            assert_eq!(opt.next_side(), None);
            b
        });
        for b in results {
            assert_eq!(b, vec![0.5; 4]);
        }
    }
}
