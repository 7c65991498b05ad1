//! One table over every `Aggregator` variant, built through
//! `build_optimizer`: the contract every aggregator shares because all of
//! them run one fused pipeline.
//!
//! Each case checks, on a 3-rank group with a 16-byte fusion buffer and a
//! mix of matrix and vector tensors:
//!
//! * overlapped reverse-order `push_ready` + `finish_overlap` is bitwise
//!   equal to blocking `aggregate`, step after step;
//! * a changed tensor shape or tensor count is rejected;
//! * a step after `set_buffer_bytes` and after `on_membership_change` still
//!   agrees bitwise across ranks, and a membership change drops the same
//!   codec state a re-plan does;
//! * with a recorder attached, `EF_RESIDUAL_NORM` is recorded on exactly
//!   the steps where the configuration keeps an error-feedback residual.

use std::sync::Arc;

use acp_collectives::{Communicator, LocalCommunicator, ThreadGroup};
use acp_core::{
    build_optimizer, AcpSgdConfig, Aggregator, CoreError, DgcConfig, DistributedOptimizer,
    GradViewMut, PowerSgdConfig, SignSgdConfig, TopkSgdConfig,
};
use acp_telemetry::{keys, InMemoryRecorder, RecorderHandle};

const WORLD: usize = 3;
const BUFFER_BYTES: usize = 16;
const STEPS: usize = 3;

/// Matrices (low-rank path) interleaved with vectors (raw path).
fn shapes() -> Vec<Vec<usize>> {
    vec![vec![4, 4], vec![6], vec![3, 5], vec![2]]
}

struct Case {
    spec: Aggregator,
    /// Steps (of `STEPS`) on which `EF_RESIDUAL_NORM` is recorded.
    residual_steps: usize,
}

fn cases() -> Vec<Case> {
    let lowrank = |warm: u64| {
        PowerSgdConfig::default()
            .with_rank(2)
            .with_warm_start_steps(warm)
    };
    let acp = |warm: u64| {
        AcpSgdConfig::default()
            .with_rank(2)
            .with_warm_start_steps(warm)
    };
    vec![
        Case {
            spec: Aggregator::Ssgd,
            residual_steps: 0,
        },
        Case {
            spec: Aggregator::SignSgd(SignSgdConfig::default()),
            residual_steps: 0,
        },
        Case {
            spec: Aggregator::SignSgd(SignSgdConfig::default().with_error_feedback(true)),
            residual_steps: STEPS,
        },
        Case {
            spec: Aggregator::Topk(TopkSgdConfig::default().with_density(0.25)),
            residual_steps: STEPS,
        },
        Case {
            spec: Aggregator::Topk(
                TopkSgdConfig::default()
                    .with_density(0.25)
                    .with_error_feedback(false),
            ),
            residual_steps: 0,
        },
        Case {
            spec: Aggregator::GTopk { density: 0.25 },
            residual_steps: STEPS,
        },
        Case {
            spec: Aggregator::Dgc(DgcConfig::default().with_density(0.25)),
            residual_steps: STEPS,
        },
        Case {
            spec: Aggregator::PowerSgd(lowrank(0)),
            residual_steps: STEPS,
        },
        Case {
            spec: Aggregator::PowerSgd(lowrank(1)),
            residual_steps: STEPS - 1,
        },
        Case {
            spec: Aggregator::PowerSgd(lowrank(0).with_error_feedback(false)),
            residual_steps: 0,
        },
        Case {
            spec: Aggregator::AcpSgd(acp(0)),
            residual_steps: STEPS,
        },
        Case {
            spec: Aggregator::AcpSgd(acp(2)),
            residual_steps: STEPS - 2,
        },
        Case {
            spec: Aggregator::AcpSgd(acp(0).with_error_feedback(false)),
            residual_steps: 0,
        },
    ]
}

fn build(spec: &Aggregator) -> Box<dyn DistributedOptimizer> {
    let mut opt = build_optimizer(spec);
    opt.set_buffer_bytes(BUFFER_BYTES);
    opt
}

/// Rank- and step-dependent gradients for `shapes()`.
fn grads(rank: usize, step: usize) -> Vec<Vec<f32>> {
    shapes()
        .iter()
        .enumerate()
        .map(|(t, dims)| {
            let n: usize = dims.iter().product();
            (0..n)
                .map(|i| (((i + 3 * t) as f32) * 0.37 * (rank as f32 + 1.0) + step as f32).sin())
                .collect()
        })
        .collect()
}

fn views<'a>(dims: &'a [Vec<usize>], grads: &'a mut [Vec<f32>]) -> Vec<GradViewMut<'a>> {
    dims.iter()
        .zip(grads.iter_mut())
        .map(|(d, g)| GradViewMut { dims: d, grad: g })
        .collect()
}

/// One step, blocking or overlapped (every tensor pushed deepest-first).
fn step(
    opt: &mut dyn DistributedOptimizer,
    comm: &mut dyn Communicator,
    step: usize,
    overlapped: bool,
) -> Vec<f32> {
    let dims = shapes();
    let mut g = grads(comm.rank_id().as_usize(), step);
    if overlapped {
        for i in (0..dims.len()).rev() {
            opt.push_ready(i, &dims[i], &g[i].clone(), comm)
                .expect("push_ready");
        }
        opt.finish_overlap(&mut views(&dims, &mut g), comm)
            .expect("finish_overlap");
    } else {
        opt.aggregate(&mut views(&dims, &mut g), comm)
            .expect("aggregate");
    }
    g.concat()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn overlapped_steps_match_blocking_bitwise() {
    for case in cases() {
        let run = |overlapped: bool| {
            let spec = case.spec;
            ThreadGroup::run(WORLD, move |mut comm| {
                let mut opt = build(&spec);
                (0..STEPS)
                    .map(|s| bits(&step(&mut *opt, &mut comm, s, overlapped)))
                    .collect::<Vec<_>>()
            })
        };
        let blocking = run(false);
        assert_eq!(blocking, run(true), "{}", case.spec.name());
        for rank in &blocking[1..] {
            assert_eq!(rank, &blocking[0], "{}: ranks disagree", case.spec.name());
        }
    }
}

#[test]
fn changed_shape_or_tensor_count_is_rejected() {
    for case in cases() {
        let name = case.spec.name();
        let mut opt = build(&case.spec);
        let mut comm = LocalCommunicator::new();
        step(&mut *opt, &mut comm, 0, false);

        let mut dims = shapes();
        dims[2] = vec![5, 3];
        let mut g = grads(0, 1);
        assert!(
            matches!(
                opt.aggregate(&mut views(&dims, &mut g), &mut comm),
                Err(CoreError::ShapeChanged { index: 2, .. })
            ),
            "{name}: shape change on aggregate"
        );
        assert!(
            matches!(
                opt.push_ready(2, &dims[2], &g[2], &mut comm),
                Err(CoreError::ShapeChanged { index: 2, .. })
            ),
            "{name}: shape change on push_ready"
        );

        let mut dims = shapes();
        dims.push(vec![3]);
        let mut g = grads(0, 1);
        g.push(vec![1.0; 3]);
        assert!(
            matches!(
                opt.aggregate(&mut views(&dims, &mut g), &mut comm),
                Err(CoreError::TensorCountChanged {
                    expected: 4,
                    actual: 5
                })
            ),
            "{name}: tensor count change"
        );
    }
}

#[test]
fn steps_after_replan_and_membership_change_agree_across_ranks() {
    for case in cases() {
        let spec = case.spec;
        // `membership == false` re-plans to the unchanged capacity instead,
        // which keeps the plan but drops the codec's bucket state.
        let run = |membership: bool| {
            ThreadGroup::run(WORLD, move |mut comm| {
                let mut opt = build(&spec);
                let mut out = vec![bits(&step(&mut *opt, &mut comm, 0, false))];
                opt.set_buffer_bytes(1024);
                out.push(bits(&step(&mut *opt, &mut comm, 1, false)));
                out.push(bits(&step(&mut *opt, &mut comm, 2, true)));
                if membership {
                    opt.on_membership_change();
                } else {
                    opt.set_buffer_bytes(1024);
                }
                out.push(bits(&step(&mut *opt, &mut comm, 3, false)));
                out.push(bits(&step(&mut *opt, &mut comm, 4, true)));
                out
            })
        };
        let results = run(true);
        for rank in &results[1..] {
            assert_eq!(rank, &results[0], "{}: ranks disagree", spec.name());
        }
        assert_eq!(
            results,
            run(false),
            "{}: a membership change must drop the codec state a re-plan drops",
            spec.name()
        );
    }
}

#[test]
fn residual_norm_is_recorded_exactly_when_error_feedback_runs() {
    for case in cases() {
        let rec = Arc::new(InMemoryRecorder::new());
        let mut opt = build(&case.spec);
        let handle: RecorderHandle = rec.clone();
        opt.set_recorder(handle);
        let mut comm = LocalCommunicator::new();
        for s in 0..STEPS {
            step(&mut *opt, &mut comm, s, s > 0);
        }
        assert_eq!(
            rec.values(keys::EF_RESIDUAL_NORM).len(),
            case.residual_steps,
            "{}",
            case.spec.name()
        );
        assert_eq!(
            rec.values(keys::STEP_AGGREGATE_US).len(),
            STEPS,
            "{}",
            case.spec.name()
        );
    }
}
