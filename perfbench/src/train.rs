//! One training phase per aggregator: the step loop of data-parallel
//! training, driven through the public model, loss, aggregator and
//! optimizer calls, each timed from outside.

use std::time::{Duration, Instant};

use acp_collectives::Communicator;
use acp_core::{
    build_optimizer, AcpSgdConfig, Aggregator, CoreError, DgcConfig, DistributedOptimizer,
    GradViewMut, PowerSgdConfig, SignSgdConfig, TopkSgdConfig,
};
use acp_telemetry::{keys, Recorder, RecorderHandle, Span};
use acp_training::loss::softmax_cross_entropy;
use acp_training::tensor4::Tensor;
use acp_training::{mlp, Dataset, Sequential, SgdMomentum};

/// Layer widths of the trained MLP: 1.32 M parameters, a 5.3 MB gradient.
pub const MODEL_DIMS: [usize; 4] = [256, 1024, 1024, 10];
/// Samples per rank per step.
pub const BATCH: usize = 16;
/// Fusion buffer of every aggregator. At the 25 MB default the whole
/// 5.3 MB gradient is one bucket, dispatched only after backward ends,
/// so wait-free backpropagation has nothing to overlap; 1 MiB splits it
/// into several buckets (four collectives per step for S-SGD) that are
/// sent while earlier layers still compute.
pub const BUCKET_BYTES: usize = 1 << 20;
/// Learning rate of the local SGD update. Small, so the weights stay near
/// their initial values through a run and so does the cost of a step: at
/// 0.05 the single-worker baseline's throughput fell threefold within one
/// 15 s run as training progressed.
const LR: f32 = 1e-3;
/// Momentum of the local SGD update (the paper's 0.9).
const MOMENTUM: f32 = 0.9;
/// Kept fraction of gradient elements for the sparsifying aggregators.
const DENSITY: f64 = 0.001;
/// Rank of the low-rank factors of Power-SGD and ACP-SGD.
const LOW_RANK: usize = 4;

/// Span category of the calls the benchmark times itself.
const CAT_BENCH: &str = "bench";
/// Span of `forward` plus the loss.
const SPAN_FORWARD: &str = "bench.forward";
/// Span of `finish_overlap`.
const SPAN_FINISH: &str = "bench.finish_overlap";
/// Span of the local optimizer update.
const SPAN_OPTIMIZER: &str = "bench.optimizer";

/// One benchmarked training configuration.
#[derive(Clone, Copy)]
pub struct Spec {
    /// Metric prefix, e.g. `ssgd`.
    pub name: &'static str,
    /// The aggregator; `None` trains one worker with no aggregation.
    pub aggregator: Option<Aggregator>,
    /// Momentum of the local SGD update.
    pub momentum: f32,
}

/// The single-worker baseline and the seven aggregators, in run order:
/// dense S-SGD, the two low-rank methods, then the sparsifying and sign
/// methods.
pub fn specs() -> Vec<Spec> {
    let spec = |name, aggregator| Spec {
        name,
        aggregator,
        momentum: MOMENTUM,
    };
    vec![
        spec("single", None),
        spec("ssgd", Some(Aggregator::Ssgd)),
        spec(
            "powersgd",
            Some(Aggregator::PowerSgd(PowerSgdConfig {
                rank: LOW_RANK,
                ..PowerSgdConfig::default()
            })),
        ),
        spec(
            "acpsgd",
            Some(Aggregator::AcpSgd(AcpSgdConfig {
                rank: LOW_RANK,
                ..AcpSgdConfig::default()
            })),
        ),
        spec(
            "topk",
            Some(Aggregator::Topk(
                TopkSgdConfig::default().with_density(DENSITY),
            )),
        ),
        spec("gtopk", Some(Aggregator::GTopk { density: DENSITY })),
        Spec {
            // DGC applies momentum correction to the gradient it
            // accumulates, so it carries its own momentum; a second 0.9
            // momentum in the local SGD update compounds the two and the
            // loss diverges to NaN within a few dozen steps.
            momentum: 0.0,
            ..spec(
                "dgc",
                Some(Aggregator::Dgc(DgcConfig::default().with_density(DENSITY))),
            )
        },
        spec(
            "signsgd",
            Some(Aggregator::SignSgd(SignSgdConfig::default())),
        ),
    ]
}

/// Inputs and labels of one mini-batch.
pub type Batch = (Tensor, Vec<usize>);

/// A rank's pre-built mini-batches from its shard of the dataset.
pub fn batches(data: &Dataset, rank: usize, world: usize) -> Vec<Batch> {
    let shard = data.shard_indices(rank, world);
    shard
        .chunks_exact(BATCH)
        .map(|chunk| {
            let mut x = Vec::with_capacity(chunk.len() * data.feature_len());
            let mut y = Vec::with_capacity(chunk.len());
            for &i in chunk {
                let (features, label) = data.train_sample(i);
                x.extend_from_slice(features);
                y.push(label);
            }
            let mut dims = vec![chunk.len()];
            dims.extend_from_slice(data.sample_dims());
            (Tensor::from_vec(&dims, x), y)
        })
        .collect()
}

/// Time spent in each call of one training step.
#[derive(Clone, Copy, Default)]
pub struct StepTimes {
    /// The whole step, from forward to the end of the optimizer update.
    pub wall: Duration,
    /// `forward` plus `softmax_cross_entropy`.
    pub forward: Duration,
    /// `backward_with` minus the time inside `push_ready`.
    pub backward: Duration,
    /// Time inside `push_ready`.
    pub push: Duration,
    /// Time inside `finish_overlap`.
    pub finish: Duration,
    /// Time inside `SgdMomentum::step`.
    pub optimizer: Duration,
}

impl StepTimes {
    /// The phases that should add up to the wall time.
    pub fn phase_sum(&self) -> Duration {
        self.forward + self.backward + self.push + self.finish + self.optimizer
    }
}

/// Why a step failed.
#[derive(Debug)]
pub enum StepError {
    /// The aggregator or its collectives returned an error.
    Core(CoreError),
    /// The loss was NaN or infinite.
    NonFiniteLoss(f32),
}

impl From<CoreError> for StepError {
    fn from(e: CoreError) -> Self {
        StepError::Core(e)
    }
}

impl std::fmt::Display for StepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepError::Core(e) => write!(f, "aggregation failed: {e}"),
            StepError::NonFiniteLoss(loss) => write!(f, "loss is not finite: {loss}"),
        }
    }
}

/// One rank's model, local optimizer and aggregator for one [`Spec`].
pub struct TrainPhase {
    /// The spec's metric prefix.
    pub name: &'static str,
    model: Sequential,
    sgd: SgdMomentum,
    aggregator: Option<Box<dyn DistributedOptimizer>>,
    /// Forward-order index of each layer's first parameter tensor, the
    /// index space of `push_ready`.
    layer_offsets: Vec<usize>,
    /// Steps taken so far, warm-up included.
    pub steps: usize,
}

impl TrainPhase {
    /// Builds the model with initial weights from `seed` (the same on
    /// every rank), the local optimizer and the aggregator.
    pub fn new(spec: &Spec, seed: u64) -> Self {
        let mut model = mlp(&MODEL_DIMS, seed);
        let layer_offsets = model
            .params_per_layer()
            .into_iter()
            .scan(0, |next, count| {
                let first = *next;
                *next += count;
                Some(first)
            })
            .collect();
        let aggregator = spec.aggregator.map(|a| {
            let mut agg = build_optimizer(&a);
            agg.set_buffer_bytes(BUCKET_BYTES);
            agg
        });
        TrainPhase {
            name: spec.name,
            model,
            sgd: SgdMomentum::new(LR, spec.momentum, 0.0),
            aggregator,
            layer_offsets,
            steps: 0,
        }
    }

    /// Whether the phase aggregates across ranks.
    pub fn distributed(&self) -> bool {
        self.aggregator.is_some()
    }

    /// Attaches `recorder` to the aggregator.
    pub fn set_recorder(&mut self, recorder: &RecorderHandle) {
        if let Some(agg) = &mut self.aggregator {
            agg.set_recorder(recorder.clone());
        }
    }

    /// Runs one step on `batch` and returns its loss and timings. With a
    /// recorder, each call is also recorded as a span on `track`; the
    /// backward pass under the name the overlap analysis looks for.
    pub fn step(
        &mut self,
        batch: &Batch,
        comm: &mut dyn Communicator,
        recorder: Option<(&dyn Recorder, u64)>,
    ) -> Result<(f32, StepTimes), StepError> {
        self.steps += 1;
        let now_us = || recorder.map_or(0, |(rec, _)| rec.now_us());
        let span = |name, cat, start_us| {
            if let Some((rec, track)) = recorder {
                rec.span(Span {
                    name,
                    cat,
                    track,
                    start_us,
                    end_us: rec.now_us(),
                });
            }
        };

        let step_start = Instant::now();
        let start_us = now_us();
        let logits = self.model.forward(&batch.0);
        let (loss, dlogits) = softmax_cross_entropy(&logits, &batch.1);
        let forward = step_start.elapsed();
        span(SPAN_FORWARD, CAT_BENCH, start_us);

        let start_us = now_us();
        let start = Instant::now();
        let mut push = Duration::ZERO;
        let mut push_result = Ok(());
        match &mut self.aggregator {
            Some(agg) => {
                let offsets = &self.layer_offsets;
                self.model.backward_with(&dlogits, |layer, params| {
                    let start = Instant::now();
                    for (slot, p) in params.iter_mut().enumerate() {
                        if push_result.is_ok() {
                            push_result =
                                agg.push_ready(offsets[layer] + slot, p.dims, p.grad, comm);
                        }
                    }
                    push += start.elapsed();
                });
            }
            None => self.model.backward(&dlogits),
        }
        let backward = start.elapsed().saturating_sub(push);
        span(keys::SPAN_BACKWARD, keys::CAT_COMPUTE, start_us);
        push_result?;

        let mut finish = Duration::ZERO;
        if let Some(agg) = &mut self.aggregator {
            let mut params = self.model.params();
            let mut views: Vec<GradViewMut<'_>> = params
                .iter_mut()
                .map(|p| GradViewMut {
                    dims: p.dims,
                    grad: &mut *p.grad,
                })
                .collect();
            let start_us = now_us();
            let start = Instant::now();
            agg.finish_overlap(&mut views, comm)?;
            finish = start.elapsed();
            span(SPAN_FINISH, CAT_BENCH, start_us);
        }

        let start_us = now_us();
        let start = Instant::now();
        self.sgd.step(&mut self.model.params());
        let optimizer = start.elapsed();
        span(SPAN_OPTIMIZER, CAT_BENCH, start_us);

        let times = StepTimes {
            wall: step_start.elapsed(),
            forward,
            backward,
            push,
            finish,
            optimizer,
        };
        if !loss.is_finite() {
            return Err(StepError::NonFiniteLoss(loss));
        }
        Ok((loss, times))
    }

    /// FNV-1a digest of every parameter's bits, to compare ranks.
    pub fn param_digest(&mut self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for p in self.model.params() {
            for v in p.value.iter() {
                for b in v.to_bits().to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }
}
