//! End-to-end and per-layer benchmark of the workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tcp|thread> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload: a two-rank group on the workload's
//! backend trains the same MLP with a single-worker baseline and each of
//! the seven aggregators, and the same two ranks act as the closed-loop
//! clients of an in-process `acp-serve` server. Phases are interleaved in
//! rounds (a few steps of each per round) so host noise falls on all of
//! them alike. With `--trace 0` nothing is recorded and the last line of
//! standard output is a JSON object with the end-to-end metrics; with
//! `--trace 1` every other round runs with in-memory recorders attached,
//! the line carries the per-layer metrics, and the recorded spans are
//! written as a Chrome trace to `perfbench/out/trace-<workload>.json`.

mod serve;
mod stats;
mod train;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use acp_collectives::{Communicator, ReduceOp, ThreadGroup};
use acp_serve::{ServeConfig, Server};
use acp_telemetry::{
    analysis, keys, noop, ChromeTraceBuilder, InMemoryRecorder, Recorder, RecorderHandle,
    SpanRecord,
};
use acp_training::Dataset;

use crate::serve::{ServeClient, ServeInputs};
use crate::stats::{median, quantile, Metrics};
use crate::train::{Batch, StepError, StepTimes, TrainPhase, BATCH};

/// Ranks of the training group, and clients of the served job.
const WORLD: usize = 2;
/// Set-ups per run; `setup_s` is their median. Only the first goes on to
/// the timed window.
const SETUP_REPS: usize = 3;
/// Untimed steps per phase after set-up: they build the fusion plan and
/// the low-rank queries.
const WARMUP_STEPS: usize = 2;
/// Timed steps of each training phase per round. Even, so ACP-SGD's
/// alternating P and Q steps weigh the same in every round.
const CHUNK_STEPS: usize = 2;
/// Timed served steps per round.
const SERVE_CHUNK: usize = 64;
/// Rounds run even when the time is up, so that `final_loss` is always
/// taken at the same step and a traced run has traced rounds.
const MIN_ROUNDS: usize = 8;
/// The step whose rank-0 loss is reported as `final_loss`: the last step
/// of the last round every run makes. The same seed gives the same loss.
const LOSS_STEP: usize = WARMUP_STEPS + MIN_ROUNDS * CHUNK_STEPS;
/// Quantile of the per-round rates reported as a phase's rate. Time the
/// host steals from the virtual CPUs only ever slows a round; on a shared
/// 2-vCPU virtual machine it came in bursts, and over ten runs the 90th
/// percentile of the round rates moved about half as much as their median
/// (interquartile range over median 0.02–0.28 against 0.05–0.46).
const RATE_QUANTILE: f64 = 0.9;
/// Largest share of a phase's step wall time that the timed calls may
/// leave unaccounted (building gradient views and reading the clock).
const PHASE_SUM_TOLERANCE: f64 = 0.05;
/// Dataset: Gaussian clusters, one per class, in the MLP's input width.
const CLASSES: usize = 10;
const SAMPLES_PER_CLASS: usize = 64;
/// Per-coordinate noise around each cluster centre: wide enough that the
/// loss is still well above zero at `LOSS_STEP`.
const SPREAD: f32 = 2.0;

#[derive(Clone, Copy, PartialEq)]
enum Backend {
    /// `acp_net::run_local`: a TCP ring over loopback sockets.
    Tcp,
    /// `ThreadGroup::run`: in-process channels.
    Thread,
}

struct Workload {
    name: &'static str,
    backend: Backend,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "tcp",
        backend: Backend::Tcp,
    },
    Workload {
        name: "thread",
        backend: Backend::Thread,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or(format!("unknown workload {name:?} (tcp, thread)"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Operations attempted and failed checks, summed over ranks.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// What one traced step recorded, for one rank.
struct LayerSample {
    times: StepTimes,
    exposed_wait_us: f64,
    compress_us: f64,
    calls: u64,
    bytes: u64,
    busy_us: u64,
    hidden_us: u64,
    /// Everything the step recorded, for the Chrome trace.
    spans: Vec<SpanRecord>,
}

/// A per-layer metric: name after the phase prefix, its value for one
/// traced step, unit.
type LayerMetric = (&'static str, fn(&LayerSample) -> f64, &'static str);

/// Per-layer metrics of every training phase.
const TRAINING_METRICS: [LayerMetric; 3] = [
    ("training.forward_ms", |s| ms(s.times.forward), "ms"),
    ("training.backward_ms", |s| ms(s.times.backward), "ms"),
    ("training.optimizer_ms", |s| ms(s.times.optimizer), "ms"),
];

/// Per-layer metrics of the phases that aggregate.
const AGGREGATION_METRICS: [LayerMetric; 8] = [
    ("core.push_ms", |s| ms(s.times.push), "ms"),
    ("core.finish_ms", |s| ms(s.times.finish), "ms"),
    ("core.exposed_wait_ms", |s| s.exposed_wait_us / 1e3, "ms"),
    ("compression.ms", |s| s.compress_us / 1e3, "ms"),
    ("collectives.calls", |s| s.calls as f64, "count"),
    ("collectives.bytes", |s| s.bytes as f64, "B"),
    ("collectives.busy_ms", |s| s.busy_us as f64 / 1e3, "ms"),
    ("collectives.hidden_ms", |s| s.hidden_us as f64 / 1e3, "ms"),
];

/// One rank's results for one training phase.
#[derive(Default)]
struct PhaseOut {
    name: &'static str,
    distributed: bool,
    /// Samples per second of each round's chunk, untraced rounds.
    rate: Vec<f64>,
    /// The same, traced rounds.
    rate_traced: Vec<f64>,
    layers: Vec<LayerSample>,
    loss_at: Option<f32>,
    digest: u64,
}

/// One rank's results.
struct RankOut {
    setup_done: Instant,
    /// One entry per phase; `None` where this rank does not run it.
    phases: Vec<Option<PhaseOut>>,
    serve_rate: Vec<f64>,
    serve_step_ms: Vec<f64>,
    serve_dense_ms: Vec<f64>,
    serve_sparse_ms: Vec<f64>,
    serve_steps: u64,
    tally: Tally,
}

/// Read-only inputs shared by the ranks of one set-up.
struct Ctx<'a> {
    args: &'a Args,
    data: &'a Dataset,
    inputs: &'a ServeInputs,
    addr: std::net::SocketAddr,
    /// Whether this set-up goes on to the timed window.
    measure: bool,
    recorders: &'a [Arc<InMemoryRecorder>],
}

fn run_group<T: Send>(backend: Backend, f: impl Fn(&mut dyn Communicator) -> T + Sync) -> Vec<T> {
    match backend {
        Backend::Tcp => acp_net::run_local(WORLD, |mut comm| f(&mut comm)),
        Backend::Thread => ThreadGroup::run(WORLD, |mut comm| f(&mut comm)),
    }
}

/// Runs one training step and folds its outcome into `out`; returns
/// whether the step counts. A non-finite loss is a failed check, an
/// aggregation error ends the run.
fn train_step(
    phase: &mut TrainPhase,
    out: &mut PhaseOut,
    tally: &mut Tally,
    batches: &[Batch],
    comm: &mut dyn Communicator,
    recorder: Option<&InMemoryRecorder>,
) -> Result<bool, String> {
    let batch = &batches[phase.steps % batches.len()];
    let bytes_before = comm.bytes_sent();
    if let Some(rec) = recorder {
        rec.reset();
    }
    let track = comm.rank() as u64;
    let result = phase.step(batch, comm, recorder.map(|r| (r as &dyn Recorder, track)));
    let (loss, times) = match result {
        Ok(ok) => ok,
        Err(StepError::NonFiniteLoss(_)) => {
            tally.check(false);
            return Ok(false);
        }
        Err(e) => return Err(format!("{}: {e}", phase.name)),
    };
    tally.check(true);
    if phase.steps == LOSS_STEP {
        out.loss_at = Some(loss);
    }
    if let Some(rec) = recorder {
        let spans = rec.spans();
        out.layers.push(LayerSample {
            times,
            exposed_wait_us: rec.value_sum(keys::PIPELINE_EXPOSED_WAIT_US),
            compress_us: rec.value_sum(keys::COMPRESS_TIME_US),
            calls: rec.counter(keys::COMM_CALLS),
            bytes: comm.bytes_sent() - bytes_before,
            busy_us: analysis::busy_us(&spans, keys::CAT_COMM),
            hidden_us: analysis::overlap_us(&spans, keys::CAT_COMM, keys::SPAN_BACKWARD),
            spans,
        });
    }
    Ok(true)
}

/// Runs and checks one served step; a timed step's latencies are kept.
fn serve_step(
    client: &mut ServeClient,
    inputs: &ServeInputs,
    rank: &mut RankOut,
    timed: bool,
) -> Result<(), String> {
    let sample = client
        .step(inputs)
        .map_err(|e| format!("served step: {e}"))?;
    rank.tally.check(sample.correct);
    rank.serve_steps += 1;
    if timed {
        rank.serve_dense_ms.push(ms(sample.dense));
        rank.serve_sparse_ms.push(ms(sample.sparse));
        rank.serve_step_ms.push(ms(sample.dense + sample.sparse));
    }
    Ok(())
}

fn barrier(comm: &mut dyn Communicator) -> Result<(), String> {
    comm.barrier().map_err(|e| format!("barrier: {e}"))
}

/// A phase's rate from its per-round rates.
fn rate(rounds: &[f64]) -> Option<f64> {
    quantile(rounds, RATE_QUANTILE)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One rank: set up and warm up, run the timed rounds if this set-up
/// measures, and digest the final parameters.
fn rank_main(comm: &mut dyn Communicator, ctx: &Ctx<'_>) -> Result<RankOut, String> {
    let rank = comm.rank();
    let specs = train::specs();
    let batches = train::batches(ctx.data, rank, WORLD);
    // The single-worker baseline runs on rank 0 only.
    let mut phases: Vec<Option<TrainPhase>> = specs
        .iter()
        .map(|s| (s.aggregator.is_some() || rank == 0).then(|| TrainPhase::new(s, ctx.args.seed)))
        .collect();
    let mut client =
        ServeClient::connect(ctx.addr, rank, WORLD).map_err(|e| format!("connect: {e}"))?;
    let mut out = RankOut {
        setup_done: Instant::now(),
        phases: phases
            .iter()
            .map(|p| {
                p.as_ref().map(|p| PhaseOut {
                    name: p.name,
                    distributed: p.distributed(),
                    ..PhaseOut::default()
                })
            })
            .collect(),
        serve_rate: Vec::new(),
        serve_step_ms: Vec::new(),
        serve_dense_ms: Vec::new(),
        serve_sparse_ms: Vec::new(),
        serve_steps: 0,
        tally: Tally::default(),
    };

    for (phase, po) in phases.iter_mut().zip(&mut out.phases) {
        barrier(comm)?;
        if let (Some(phase), Some(po)) = (phase.as_mut(), po.as_mut()) {
            for _ in 0..WARMUP_STEPS {
                train_step(phase, po, &mut out.tally, &batches, comm, None)?;
            }
        }
    }
    barrier(comm)?;
    for _ in 0..WARMUP_STEPS {
        serve_step(&mut client, ctx.inputs, &mut out, false)?;
    }
    barrier(comm)?;
    out.setup_done = Instant::now();
    if ctx.measure {
        timed_rounds(comm, ctx, &mut phases, &batches, &mut client, &mut out)?;
    }
    for (phase, po) in phases.iter_mut().zip(&mut out.phases) {
        if let (Some(phase), Some(po)) = (phase.as_mut(), po.as_mut()) {
            po.digest = phase.param_digest();
        }
    }
    Ok(out)
}

/// Runs rounds until rank 0 sees the time is up: in each, a few steps of
/// every phase, each phase's chunk starting together on both ranks, then
/// a chunk of served steps. When tracing, every other round records.
fn timed_rounds(
    comm: &mut dyn Communicator,
    ctx: &Ctx<'_>,
    phases: &mut [Option<TrainPhase>],
    batches: &[Batch],
    client: &mut ServeClient,
    out: &mut RankOut,
) -> Result<(), String> {
    let rank = comm.rank();
    let recorder = &ctx.recorders[rank];
    let window = Instant::now();
    let mut round = 0usize;
    loop {
        let traced = ctx.args.trace && round.is_multiple_of(2);
        let handle: RecorderHandle = if traced { recorder.clone() } else { noop() };
        comm.set_recorder(handle.clone());
        for phase in phases.iter_mut().flatten() {
            phase.set_recorder(&handle);
        }
        for (phase, po) in phases.iter_mut().zip(&mut out.phases) {
            barrier(comm)?;
            let (Some(phase), Some(po)) = (phase.as_mut(), po.as_mut()) else {
                continue;
            };
            let start = Instant::now();
            let mut done = 0usize;
            for _ in 0..CHUNK_STEPS {
                let rec = traced.then_some(&**recorder);
                if train_step(phase, po, &mut out.tally, batches, comm, rec)? {
                    done += 1;
                }
            }
            let samples = done * BATCH * if po.distributed { WORLD } else { 1 };
            let rate = samples as f64 / start.elapsed().as_secs_f64();
            if traced {
                po.rate_traced.push(rate);
            } else {
                po.rate.push(rate);
            }
        }
        barrier(comm)?;
        let start = Instant::now();
        for _ in 0..SERVE_CHUNK {
            serve_step(client, ctx.inputs, out, true)?;
        }
        out.serve_rate
            .push(SERVE_CHUNK as f64 / start.elapsed().as_secs_f64());
        round += 1;

        let done = round >= MIN_ROUNDS && window.elapsed().as_secs_f64() >= ctx.args.seconds;
        let mut flag = [if rank == 0 && done { 1.0 } else { 0.0 }];
        comm.all_reduce(&mut flag, ReduceOp::Sum)
            .map_err(|e| format!("stop vote: {e}"))?;
        if flag[0] > 0.0 {
            break;
        }
    }
    comm.set_recorder(noop());
    Ok(())
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// What the measured set-up leaves for the metrics.
struct Measured {
    ranks: Vec<RankOut>,
    server_rec: Arc<InMemoryRecorder>,
    peak_rss_mb: Option<f64>,
}

/// Sets up the workload `SETUP_REPS` times (once when tracing, which does
/// not report `setup_s`); the first set-up goes on to the timed window.
fn run(args: &Args, process_start: Instant) -> Result<(Metrics, Tally), String> {
    let mut tally = Tally::default();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut measured = None;
    let reps = if args.trace { 1 } else { SETUP_REPS };
    for rep in 0..reps {
        let start = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let measure = rep == 0;
        let data = Dataset::gaussian_clusters(
            CLASSES,
            train::MODEL_DIMS[0],
            SAMPLES_PER_CLASS,
            SPREAD,
            args.seed,
        );
        let inputs = ServeInputs::new(args.seed, WORLD);
        let server_rec = Arc::new(InMemoryRecorder::new());
        let server_handle: RecorderHandle = if args.trace {
            server_rec.clone()
        } else {
            noop()
        };
        let cfg = ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        };
        let mut server = Server::spawn_with_recorder(cfg, server_handle)
            .map_err(|e| format!("spawn server: {e}"))?;
        let recorders: Vec<Arc<InMemoryRecorder>> = (0..WORLD)
            .map(|_| Arc::new(InMemoryRecorder::new()))
            .collect();
        let ctx = Ctx {
            args,
            data: &data,
            inputs: &inputs,
            addr: server.addr(),
            measure,
            recorders: &recorders,
        };
        let ranks = run_group(args.workload.backend, |comm| rank_main(comm, &ctx))
            .into_iter()
            .collect::<Result<Vec<RankOut>, String>>()?;
        setup_s.push(ranks[0].setup_done.duration_since(start).as_secs_f64());

        for r in &ranks {
            tally.attempted += r.tally.attempted;
            tally.failed += r.tally.failed;
        }
        // Both ranks end every aggregated phase with identical parameters.
        for (p0, p1) in ranks[0].phases.iter().zip(&ranks[1].phases) {
            if let (Some(p0), Some(p1)) = (p0, p1) {
                tally.check(p0.digest == p1.digest);
            }
        }
        // The server aggregated exactly the steps the clients made.
        tally.check(serve::server_counts_agree(&server, ranks[0].serve_steps));
        server.shutdown();
        if measure {
            // Read before the further set-ups can raise it.
            let peak_rss_mb = peak_rss_mb();
            measured = Some(Measured {
                ranks,
                server_rec,
                peak_rss_mb,
            });
        }
    }
    let measured = measured.ok_or("no set-up measured")?;
    let mut metrics = Metrics::default();
    let missing = if args.trace {
        trace_metrics(&mut metrics, &mut tally, &measured, args.workload.name)?
    } else {
        end_to_end_metrics(&mut metrics, &measured, &setup_s)
    };
    for name in &missing {
        eprintln!("perfbench: no value for {name}");
    }
    tally.failed += missing.len() as u64;
    Ok((metrics, tally))
}

/// Step latencies of both served clients.
fn serve_latency(ranks: &[RankOut]) -> Vec<f64> {
    ranks
        .iter()
        .flat_map(|r| r.serve_step_ms.iter().copied())
        .collect()
}

fn end_to_end_metrics(metrics: &mut Metrics, m: &Measured, setup_s: &[f64]) -> Vec<String> {
    let ranks = &m.ranks;
    let mut missing = Vec::new();
    let mut put = |name: &str, value, unit| {
        if let Err(name) = metrics.put(name, value, unit) {
            missing.push(name);
        }
    };
    put("setup_s", median(setup_s), "s");
    put("peak_rss_mb", m.peak_rss_mb, "MB");
    for po in ranks[0].phases.iter().flatten() {
        put(
            &format!("{}.samples_per_s", po.name),
            rate(&po.rate),
            "samples/s",
        );
    }
    put(
        "serve.step_ms.p10",
        quantile(&serve_latency(ranks), 0.1),
        "ms",
    );
    missing
}

fn trace_metrics(
    metrics: &mut Metrics,
    tally: &mut Tally,
    m: &Measured,
    workload: &str,
) -> Result<Vec<String>, String> {
    let (ranks, server_rec) = (&m.ranks, &m.server_rec);
    let mut missing = Vec::new();
    let mut overhead = Vec::new();
    {
        let mut put = |name: String, value, unit| {
            if let Err(name) = metrics.put(&name, value, unit) {
                missing.push(name);
            }
        };
        for po in ranks[0].phases.iter().flatten() {
            let n = po.name;
            let aggregation: &[LayerMetric] = if po.distributed {
                &AGGREGATION_METRICS
            } else {
                &[]
            };
            for (metric, of_step, unit) in TRAINING_METRICS.iter().chain(aggregation) {
                let per_step: Vec<f64> = po.layers.iter().map(of_step).collect();
                put(format!("{n}.{metric}"), median(&per_step), unit);
            }
            put(format!("{n}.final_loss"), po.loss_at.map(f64::from), "nats");
            // The timed calls account for the step's wall time.
            let wall: f64 = po.layers.iter().map(|s| s.times.wall.as_secs_f64()).sum();
            let phases: f64 = po
                .layers
                .iter()
                .map(|s| s.times.phase_sum().as_secs_f64())
                .sum();
            let ok = wall > 0.0 && (1.0 - phases / wall).abs() <= PHASE_SUM_TOLERANCE;
            eprintln!(
                "perfbench: {n}: timed calls cover {:.2}% of {:.3} s step wall time{}",
                100.0 * phases / wall,
                wall,
                if ok { "" } else { " (outside tolerance)" }
            );
            tally.check(ok);
            if let (Some(plain), Some(traced)) = (rate(&po.rate), rate(&po.rate_traced)) {
                overhead.push((plain / traced - 1.0) * 100.0);
            }
        }
        let pooled = |f: fn(&RankOut) -> &Vec<f64>| -> Vec<f64> {
            ranks.iter().flat_map(|r| f(r).iter().copied()).collect()
        };
        put(
            "serve.client.dense_ms".into(),
            median(&pooled(|r| &r.serve_dense_ms)),
            "ms",
        );
        put(
            "serve.client.sparse_ms".into(),
            median(&pooled(|r| &r.serve_sparse_ms)),
            "ms",
        );
        let server_step_ms: Vec<f64> = server_rec
            .values(keys::SERVE_STEP_US)
            .iter()
            .map(|us| us / 1e3)
            .collect();
        put("serve.server.step_ms".into(), median(&server_step_ms), "ms");
        let depth = server_rec.values(keys::SERVE_QUEUE_DEPTH);
        let mean_depth =
            (!depth.is_empty()).then(|| depth.iter().sum::<f64>() / depth.len() as f64);
        put("serve.server.queue_depth".into(), mean_depth, "count");
        put(
            "serve.busy_rejects".into(),
            Some(server_rec.counter(keys::SERVE_REJECT_BUSY) as f64),
            "count",
        );
        put(
            "serve.steps_per_s".into(),
            rate(&ranks[0].serve_rate),
            "steps/s",
        );
        let latency = serve_latency(ranks);
        for (name, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
            put(format!("serve.step_ms.{name}"), quantile(&latency, q), "ms");
        }
        put("telemetry.overhead_pct".into(), median(&overhead), "%");
    }
    let mut trace = ChromeTraceBuilder::new();
    for (rank, r) in ranks.iter().enumerate() {
        for (pid, po) in r.phases.iter().enumerate() {
            let Some(po) = po else { continue };
            let pid = pid as u64;
            if rank == 0 {
                trace.process_name(pid, po.name);
            }
            trace.thread_name(pid, rank as u64, &format!("rank {rank}"));
            for sample in &po.layers {
                trace.add_spans(pid, &sample.spans);
            }
        }
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}.json"));
    trace
        .write_to(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("perfbench: wrote {}", path.display());
    Ok(missing)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <tcp|thread> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args, process_start) {
        Ok((metrics, tally)) => {
            let correct = tally.failed == 0;
            println!(
                "{}",
                metrics.to_json(correct, tally.attempted, tally.failed)
            );
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
