//! Golden digests of the low-rank aggregators' output bits.
//!
//! The constants were captured from the implementation that preceded the
//! in-place one (it copied each gradient into fresh matrices). Any
//! rewrite of the Power-SGD / ACP-SGD hot path must reproduce every bit
//! of every aggregated gradient and every recorded `EF_RESIDUAL_NORM`.
//!
//! Each case runs 6 steps on a 3-rank `ThreadGroup` over matrices, plain
//! vectors, a 1-row tensor (sent raw), a 2-row matrix (rank clamped) and
//! a matrix large enough for the pooled kernels, spread over several
//! fusion buckets; steps alternate blocking and overlapped, and the fusion
//! buffer is re-planned after step 3.

use std::sync::Arc;

use acp_collectives::ThreadGroup;
use acp_compression::acp::{AcpSgd, AcpSgdConfig as AcpCompressionConfig};
use acp_compression::powersgd::{PowerSgd, PowerSgdConfig as PowerCompressionConfig};
use acp_core::{build_optimizer, AcpSgdConfig, Aggregator, GradViewMut, PowerSgdConfig};
use acp_telemetry::{keys, InMemoryRecorder, RecorderHandle};
use acp_tensor::{Matrix, SeedableStdNormal};

const WORLD: usize = 3;
const STEPS: usize = 6;
const RANK: usize = 3;
/// Fusion buffer before and after the re-plan.
const BUFFER_BYTES: [usize; 2] = [4096, 200];
const REPLAN_AFTER: usize = 3;

fn shapes() -> Vec<Vec<usize>> {
    vec![
        vec![150, 160],
        vec![7],
        vec![1, 7],
        vec![2, 9],
        vec![6, 2, 3, 3],
        vec![33, 20],
        vec![5],
    ]
}

/// Rank- and step-dependent gradients with a few exact zeros.
fn grads(rank: usize, step: usize) -> Vec<Vec<f32>> {
    shapes()
        .iter()
        .enumerate()
        .map(|(t, dims)| {
            let n: usize = dims.iter().product();
            (0..n)
                .map(|i| {
                    if (i + t + step).is_multiple_of(29) {
                        0.0
                    } else {
                        (((i * 7 + 3 * t) as f32) * 0.013 * (rank as f32 + 1.0) + step as f32).sin()
                    }
                })
                .collect()
        })
        .collect()
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a over little-endian value bits.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f32s(&mut self, v: &[f32]) {
        for x in v {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }

    fn f64s(&mut self, v: &[f64]) {
        for x in v {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }
}

/// Runs one case; returns the digest of every rank's aggregated output
/// bits and the digest of every rank's recorded residual norms.
fn run(spec: Aggregator) -> (u64, u64) {
    let per_rank = ThreadGroup::run(WORLD, move |mut comm| {
        let rec = Arc::new(InMemoryRecorder::new());
        let mut opt = build_optimizer(&spec);
        let handle: RecorderHandle = rec.clone();
        opt.set_recorder(handle);
        opt.set_buffer_bytes(BUFFER_BYTES[0]);
        let dims = shapes();
        let mut outputs = Vec::new();
        for s in 0..STEPS {
            if s == REPLAN_AFTER {
                opt.set_buffer_bytes(BUFFER_BYTES[1]);
            }
            let mut g = grads(comm.rank_id().as_usize(), s);
            if s % 2 == 1 {
                for i in (0..dims.len()).rev() {
                    opt.push_ready(i, &dims[i], &g[i].clone(), &mut comm)
                        .expect("push_ready");
                }
            }
            let mut views: Vec<GradViewMut<'_>> = dims
                .iter()
                .zip(g.iter_mut())
                .map(|(d, g)| GradViewMut { dims: d, grad: g })
                .collect();
            if s % 2 == 1 {
                opt.finish_overlap(&mut views, &mut comm)
                    .expect("finish_overlap");
            } else {
                opt.aggregate(&mut views, &mut comm).expect("aggregate");
            }
            outputs.push(g.concat());
        }
        (outputs, rec.values(keys::EF_RESIDUAL_NORM))
    });
    let mut out = Fnv::new();
    let mut norms = Fnv::new();
    for (outputs, residuals) in &per_rank {
        for o in outputs {
            out.f32s(o);
        }
        norms.f64s(residuals);
    }
    (out.0, norms.0)
}

fn cases() -> Vec<(String, Aggregator)> {
    let mut cases = Vec::new();
    for (ef, reuse) in [(true, true), (true, false), (false, true), (false, false)] {
        let power = PowerSgdConfig::default()
            .with_rank(RANK)
            .with_error_feedback(ef)
            .with_reuse(reuse);
        let acp = AcpSgdConfig::default()
            .with_rank(RANK)
            .with_error_feedback(ef)
            .with_reuse(reuse);
        let suffix = format!(
            "{}/{}",
            if ef { "ef" } else { "no-ef" },
            if reuse { "reuse" } else { "fresh" }
        );
        cases.push((format!("powersgd/{suffix}"), Aggregator::PowerSgd(power)));
        cases.push((format!("acpsgd/{suffix}"), Aggregator::AcpSgd(acp)));
    }
    cases
}

/// The digest of no values: without error feedback no residual norm is
/// ever recorded.
const NO_RESIDUALS: u64 = FNV_OFFSET;

/// `(case, output digest, residual-norm digest)`.
const GOLDEN: [(&str, u64, u64); 8] = [
    (
        "powersgd/ef/reuse",
        0xd360_f648_9797_de9c,
        0xbf8d_a97f_8224_ce22,
    ),
    (
        "acpsgd/ef/reuse",
        0xb491_94bf_b8a5_23fb,
        0x6879_087f_8087_a2cc,
    ),
    (
        "powersgd/ef/fresh",
        0x4c72_5cac_2f36_8f83,
        0x33b8_ad16_7e7c_445a,
    ),
    (
        "acpsgd/ef/fresh",
        0x0d4e_f205_b806_d737,
        0xf905_6b54_a351_0563,
    ),
    ("powersgd/no-ef/reuse", 0xba39_c257_306d_7f53, NO_RESIDUALS),
    ("acpsgd/no-ef/reuse", 0x084d_45fb_9181_0c29, NO_RESIDUALS),
    ("powersgd/no-ef/fresh", 0x66fd_74ec_79be_536a, NO_RESIDUALS),
    ("acpsgd/no-ef/fresh", 0x93ef_014a_96b1_11eb, NO_RESIDUALS),
];

#[test]
fn aggregated_bits_and_residual_norms_match_the_golden_digests() {
    let got: Vec<(String, u64, u64)> = cases()
        .into_iter()
        .map(|(name, spec)| {
            let (out, norms) = run(spec);
            (name, out, norms)
        })
        .collect();
    let want: Vec<(String, u64, u64)> = GOLDEN
        .iter()
        .map(|&(name, out, norms)| (name.to_string(), out, norms))
        .collect();
    assert_eq!(got, want, "got {got:#x?}");
}

/// The compressors' `Matrix` surface, single worker (the all-reduce is the
/// identity): every approximation bit and residual norm over 6 steps.
fn compressor_digest(ef: bool, reuse: bool) -> (u64, u64) {
    let (n, m) = (37, 21);
    let mut power = PowerSgd::new(
        n,
        m,
        PowerCompressionConfig {
            rank: RANK,
            error_feedback: ef,
            reuse,
            seed: 5,
            ..PowerCompressionConfig::default()
        },
    );
    let mut acp = AcpSgd::new(
        n,
        m,
        AcpCompressionConfig {
            rank: RANK,
            error_feedback: ef,
            reuse,
            seed: 5,
            ..AcpCompressionConfig::default()
        },
    );
    let mut out = Fnv::new();
    let mut norms = Fnv::new();
    for s in 0..STEPS as u64 {
        let grad = Matrix::random_std_normal(n, m, 100 + s);
        let p = power.compute_p(&grad);
        out.f32s(p.as_slice());
        let q = power.compute_q(p);
        out.f32s(q.as_slice());
        out.f32s(power.finish(q).as_slice());
        let f = acp.compress(&grad);
        out.f32s(f.as_slice());
        out.f32s(acp.finish(f).as_slice());
        norms.f64s(&[f64::from(power.error_norm()), f64::from(acp.error_norm())]);
    }
    (out.0, norms.0)
}

/// `(error_feedback, reuse, output digest, residual-norm digest)`.
const GOLDEN_COMPRESSORS: [(bool, bool, u64, u64); 4] = [
    (true, true, 0x1245_778d_c7b7_de57, 0x7e76_7e7a_3995_7c6b),
    (true, false, 0x1db0_8f91_2469_0b3e, 0x6394_0c80_0522_442b),
    (false, true, 0xdb0b_e33c_6c82_ee20, 0x0243_cfa8_4518_5aa5),
    (false, false, 0xf387_de9c_46c7_0d3d, 0x0243_cfa8_4518_5aa5),
];

#[test]
fn compressor_matrix_surface_matches_the_golden_digests() {
    let got: Vec<(bool, bool, u64, u64)> = GOLDEN_COMPRESSORS
        .iter()
        .map(|&(ef, reuse, ..)| {
            let (out, norms) = compressor_digest(ef, reuse);
            (ef, reuse, out, norms)
        })
        .collect();
    assert_eq!(got, GOLDEN_COMPRESSORS, "got {got:#x?}");
}
