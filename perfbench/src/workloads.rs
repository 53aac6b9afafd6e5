//! The four benchmark workloads, built and driven through the public APIs
//! of `fp-fl`, `fedprophet` and `fp-bench`'s environment builders.
//!
//! Every workload is a pure function of its seed: building it twice and
//! running it twice yields the same model hash, ledger and virtual clock,
//! which is what the output checks in `main.rs` rely on.

use crate::replay;
use crate::trace::{span, timed, TimedBackend, Traced};
use fedprophet::{assign_modules, partition_model, FedProphet, ModulePartition, ProphetConfig};
use fp_bench::envs::{cifar_env, Het, Scale};
use fp_data::{generate, SynthConfig};
use fp_fl::{
    model_hash, over_select_count, AsyncConfig, AsyncScheduler, AsyncStopPoint, AttackKind,
    AttackPlan, ByzTrainer, CommConfig, EventScheduler, FlConfig, FlEnv, JFat, QuantConfig,
    QuantTrainer, RobustRule, SchedConfig, SyntheticTrainer, TopologyConfig, TracePlan,
};
use fp_hwsim::{param_transfer_bytes, SamplingMode, CIFAR_POOL};
use fp_nn::models::{vgg_atom_specs, VggConfig};
use fp_nn::CascadeModel;
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "prophet_sync",
    "jfat_sync",
    "fleet_async_10k",
    "planes_sync_5k",
];

/// FedProphet rounds: two per module over the medium cascade's four
/// modules.
pub const PROPHET_ROUNDS: usize = 8;
/// jFAT rounds on the same environment.
pub const JFAT_ROUNDS: usize = 4;
/// Clients of the lazily materialized async fleet.
pub const FLEET_CLIENTS: usize = 10_000;
/// Buffered aggregations of the async fleet run.
pub const FLEET_AGGS: usize = 200;
/// Clients of the all-planes sync fleet.
pub const PLANES_CLIENTS: usize = 5_000;
/// Rounds of the all-planes sync run (checkpointed after half of them).
pub const PLANES_ROUNDS: usize = 300;
/// Seed of the fixed corpus the FedProphet and jFAT workloads train on.
pub const CORPUS_SEED: u64 = 2025;
/// Batches of checkpoint round trips per run (at least;
/// `CKPT_BATCHES_PER_RUN` follow every timed run); `ckpt_s` is the
/// fastest round trip of all of them.
pub const CKPT_BATCHES: usize = 12;
/// Batches of checkpoint round trips after each timed run, so they are
/// spread over the whole measurement rather than bunched at its end.
pub const CKPT_BATCHES_PER_RUN: usize = 3;
/// Seconds each batch of checkpoint round trips lasts (at least one
/// round trip).
pub const CKPT_BATCH_S: f64 = 0.25;
/// Validation slice every final model is scored on: the head of the
/// held-out test split.
pub const VAL_SAMPLES: usize = 512;

/// Everything a finished run reports, independent of the workload.
#[derive(Debug, Clone)]
pub struct RunOut {
    /// `model_hash` of the final global model.
    pub hash: u64,
    /// The final global model (scored on the validation slice).
    pub model: CascadeModel,
    /// Simulated (hwsim) training time.
    pub virtual_s: f64,
    /// Up- plus down-link bytes.
    pub wire_bytes: u64,
    /// Up-link bytes alone.
    pub up_bytes: u64,
    /// Simulated client round trips (dispatches).
    pub dispatches: u64,
    /// Client updates merged into the global model.
    pub merged: u64,
    /// Dispatches whose download was delta-encoded.
    pub delta_dispatches: u64,
    /// Local training examples the dispatches stand for.
    pub samples: u64,
    /// The ledger, one JSON record per round or aggregation (kept only
    /// when asked for; FedProphet has no scheduler ledger).
    pub records: Vec<String>,
    /// FedProphet's per-round records (empty for other workloads).
    pub prophet_rounds: Vec<fedprophet::ProphetRound>,
}

/// A built workload: the environment plus what its runs need.
pub enum Built {
    Prophet {
        env: FlEnv,
        alg: FedProphet,
        partition: ModulePartition,
    },
    Jfat {
        env: FlEnv,
        sched: EventScheduler<JFat>,
    },
    Fleet {
        env: FlEnv,
        sched: AsyncScheduler<SyntheticTrainer>,
    },
    Planes {
        env: FlEnv,
        sched: EventScheduler<PlanesTrainer>,
    },
}

/// The all-planes trainer stack: attacks corrupt the quantized update.
pub type PlanesTrainer = ByzTrainer<QuantTrainer<SyntheticTrainer>>;

/// The async fleet's buffering policy.
pub fn fleet_async_cfg() -> AsyncConfig {
    AsyncConfig {
        concurrency: 64,
        buffer_k: 4,
        staleness_exp: 0.5,
        ..AsyncConfig::default()
    }
}

fn delta_comm() -> CommConfig {
    CommConfig {
        delta_downloads: true,
        snapshot_retention: 8,
        cache_rows: 256,
    }
}

/// The synthetic fleets' dataset: tiny images with a large held-out
/// split, so the (untrained) final model's accuracy is measured on
/// enough samples to be steady.
fn fleet_data(seed: u64) -> fp_data::SynthDataset {
    generate(
        &SynthConfig {
            test_per_class: VAL_SAMPLES / 4,
            ..SynthConfig::tiny(4, 8)
        },
        seed,
    )
}

fn fleet_env(seed: u64) -> FlEnv {
    let mut cfg = FlConfig::fast(FLEET_AGGS, seed);
    cfg.n_clients = FLEET_CLIENTS;
    cfg.clients_per_round = 4;
    let data = fleet_data(seed);
    let specs = vgg_atom_specs(&VggConfig::tiny(3, 8, 4, &[8, 16]));
    FlEnv::lazy(data, &CIFAR_POOL, SamplingMode::Balanced, specs, cfg)
}

fn planes_env(seed: u64) -> FlEnv {
    let mut cfg = FlConfig::fast(PLANES_ROUNDS, seed);
    cfg.n_clients = PLANES_CLIENTS;
    cfg.clients_per_round = 32;
    let data = fleet_data(seed);
    // ~24k parameters: large enough that codecs and robust rules do
    // real work per update.
    let specs = vgg_atom_specs(&VggConfig::tiny(3, 8, 4, &[16, 32, 64]));
    FlEnv::lazy(data, &CIFAR_POOL, SamplingMode::Balanced, specs, cfg)
}

/// Two tiers at the default backhaul hop: the hop outlasts client round
/// trips, so the whole fleet churns through the dispatch picker within
/// one model version.
fn fleet_topology() -> TopologyConfig {
    TopologyConfig::two_tier(32, 4)
}

/// Diurnal availability over a short simulated day, so the run crosses
/// several day cycles.
fn planes_trace() -> TracePlan {
    TracePlan::diurnal(0.1)
}

fn planes_trainer() -> PlanesTrainer {
    let quant = QuantConfig {
        // LRU-bounded residual table: unbounded, the mid-run checkpoint
        // carries one ~24k-float row per client ever trained.
        ef_rows: 32,
        ..QuantConfig::new(4)
    };
    ByzTrainer::new(
        QuantTrainer::new(SyntheticTrainer, quant),
        RobustRule::MultiKrum {
            f: 7,
            m: 20,
            clip: 1.05,
        },
        Some(AttackPlan {
            fraction: 0.2,
            salt: 11,
            kind: AttackKind::SignFlip { scale: 4.0 },
        }),
    )
}

/// Builds workload `name` for `seed` (environment, partition and
/// scheduler): the work `setup_s` times.
pub fn build(name: &str, seed: u64) -> Built {
    match name {
        "prophet_sync" | "jfat_sync" => {
            // The corpus (synthetic dataset, client partition, device
            // fleet) is a fixed asset, as CIFAR-10 and a device census
            // would be; the seed draws the run itself (client sampling,
            // availability, initialization, PGD starts).
            let mut env = cifar_env(Scale::Medium, Het::Unbalanced, CORPUS_SEED);
            env.cfg.seed = seed;
            if name == "jfat_sync" {
                env.cfg.rounds = JFAT_ROUNDS;
                return Built::Jfat {
                    env,
                    sched: EventScheduler::new(JFat::new(), SchedConfig::default()),
                };
            }
            env.cfg.rounds = PROPHET_ROUNDS;
            let alg = FedProphet::new(ProphetConfig::default());
            let partition = prophet_partition(&env);
            Built::Prophet {
                env,
                alg,
                partition,
            }
        }
        "fleet_async_10k" => Built::Fleet {
            env: fleet_env(seed),
            sched: AsyncScheduler::with_topology(
                SyntheticTrainer,
                fleet_async_cfg(),
                delta_comm(),
                fleet_topology(),
            ),
        },
        "planes_sync_5k" => Built::Planes {
            env: planes_env(seed),
            sched: EventScheduler::with_trace(
                planes_trainer(),
                SchedConfig::default(),
                delta_comm(),
                TopologyConfig::single(),
                Some(planes_trace()),
            ),
        },
        other => panic!("unknown workload `{other}`"),
    }
}

/// FedProphet's module partition of the environment (Algorithm 1), as
/// `FedProphet::run_detailed` computes it.
pub fn prophet_partition(env: &FlEnv) -> ModulePartition {
    partition_model(
        &env.reference_specs,
        &env.input_shape,
        env.cfg.batch_size,
        env.data.train.n_classes(),
        env.r_min(),
    )
}

impl Built {
    /// The workload's environment.
    pub fn env(&self) -> &FlEnv {
        match self {
            Built::Prophet { env, .. }
            | Built::Jfat { env, .. }
            | Built::Fleet { env, .. }
            | Built::Planes { env, .. } => env,
        }
    }

    /// Modelled peak client training memory: FedProphet's largest module
    /// (aux head included), the full model otherwise.
    pub fn client_mem_bytes(&self) -> u64 {
        match self {
            Built::Prophet { partition, .. } => partition.max_module_mem(),
            other => other.env().full_mem_req(),
        }
    }

    /// Runs the workload uninterrupted; `keep_ledger` also serializes the
    /// ledger records (outside what a caller would time).
    pub fn run(&self, keep_ledger: bool) -> RunOut {
        match self {
            Built::Prophet {
                env,
                alg,
                partition,
            } => {
                let out = alg.run_detailed(env);
                let (wire, up, dispatches) = prophet_wire(env, partition, &out.rounds);
                let cfg = &env.cfg;
                let mut run = finish(
                    out.model,
                    out.rounds.iter().map(|r| r.round_time_s).sum(),
                    wire,
                    up,
                    dispatches,
                    out.rounds.iter().map(|r| r.completed as u64).sum(),
                    0,
                    (cfg.local_iters * cfg.batch_size) as u64,
                );
                run.prophet_rounds = out.rounds;
                run
            }
            Built::Jfat { env, sched } => sched_out(env, sched.run(env), keep_ledger),
            Built::Fleet { env, sched } => {
                // A stop point at the last aggregation is the whole run,
                // and unlike `run` it reports the dispatch count.
                let ck = sched.run_until(env, AsyncStopPoint::after_agg(FLEET_AGGS));
                async_out(env, ck.state.0, &ck.ledger, ck.dispatch_count, keep_ledger)
            }
            Built::Planes { env, sched } => sched_out(env, sched.run(env), keep_ledger),
        }
    }

    /// Runs the workload with a mid-run stop: checkpoint, serialize to
    /// JSON, parse, resume. Returns the resumed run's output and a
    /// [`CkptBatch`] timing further round trips of the same checkpoint.
    pub fn run_checkpointed(&self) -> (RunOut, CkptBatch) {
        match self {
            Built::Prophet { .. } => {
                // FedProphet has no mid-run resume API: its stall is the
                // final model's checkpoint round trip.
                let mut out = self.run(false);
                let ck = fp_nn::Checkpoint::capture(&out.model);
                let parsed = parse_back(&ck);
                let model = {
                    let _s = span("fl.resume");
                    parsed.restore().expect("model checkpoint restores")
                };
                out.hash = model_hash(&model);
                out.model = model;
                (out, batches(ck))
            }
            Built::Jfat { env, sched } => {
                let ck = sched.run_until(env, env.cfg.rounds / 2);
                let out = sched.resume(env, &parse_back(&ck));
                (sched_out(env, out, false), batches(ck))
            }
            Built::Fleet { env, sched } => {
                let ck = sched.run_until(env, AsyncStopPoint::after_agg(FLEET_AGGS / 2));
                let out = sched.resume(env, &parse_back(&ck));
                let run = async_out(env, out.model, &out.ledger, ck.dispatch_count, false);
                (run, batches(ck))
            }
            Built::Planes { env, sched } => {
                let ck = sched.run_until(env, PLANES_ROUNDS / 2);
                let out = sched.resume(env, &parse_back(&ck));
                (sched_out(env, out, false), batches(ck))
            }
        }
    }

    /// Seconds `resume` takes on a checkpoint captured after the last
    /// round: the restore bookkeeping alone, with no rounds left to run.
    /// FedProphet's equivalent is the model restore inside
    /// `run_checkpointed` (recorded under the `fl.resume` span there).
    pub fn resume_overhead_s(&self) -> f64 {
        let time = |f: &dyn Fn()| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        };
        match self {
            Built::Prophet { .. } => 0.0,
            Built::Jfat { env, sched } => {
                let ck = sched.run_until(env, env.cfg.rounds);
                time(&|| drop(sched.resume(env, &ck)))
            }
            Built::Fleet { env, sched } => {
                let ck = sched.run_until(env, AsyncStopPoint::after_agg(FLEET_AGGS));
                time(&|| drop(sched.resume(env, &ck)))
            }
            Built::Planes { env, sched } => {
                let ck = sched.run_until(env, env.cfg.rounds);
                time(&|| drop(sched.resume(env, &ck)))
            }
        }
    }

    /// The traced run: the same workload with every layer boundary under
    /// a span (see `trace.rs` and `replay.rs`). `reference` is the
    /// untraced run of the same build, whose records the traced run must
    /// reproduce.
    pub fn traced_run(&self, reference: &RunOut) -> TracedOut {
        let backend = TimedBackend::handle(fp_tensor::default_backend());
        let mut gaps = Gaps::new();
        let mut records = Vec::new();
        let t0 = Instant::now();
        let (hash, step_ms) = match self {
            Built::Prophet {
                env,
                alg,
                partition,
            } => {
                let step_ms = {
                    let _s = span("core.run");
                    replay::replay_prophet(
                        env,
                        partition,
                        &alg.config,
                        &reference.prophet_rounds,
                        &backend,
                    )
                };
                // The replay leaves out BN-statistics averaging, so its
                // model drifts from the run's: only its cost structure is
                // the run's. Faithfulness is checked per client step and
                // shows in `trace.overhead`.
                (reference.hash, step_ms)
            }
            Built::Jfat { env, .. } => {
                let sched = EventScheduler::new(
                    Traced(replay::JfatReplay(JFat::new())),
                    SchedConfig::default(),
                );
                let _s = span("fl.sched");
                let out = sched.run_streamed(env, &mut |r| {
                    gaps.tick();
                    records.push(to_json(r));
                });
                (model_hash(&out.model), Vec::new())
            }
            Built::Fleet { env, .. } => {
                let sched = AsyncScheduler::with_topology(
                    Traced(SyntheticTrainer),
                    fleet_async_cfg(),
                    delta_comm(),
                    fleet_topology(),
                );
                let _s = span("fl.sched");
                let out = sched.run_streamed(env, &mut |r| {
                    gaps.tick();
                    records.push(to_json(r));
                });
                (model_hash(&out.model), Vec::new())
            }
            Built::Planes { env, .. } => {
                let sched = EventScheduler::with_trace(
                    Traced(planes_trainer()),
                    SchedConfig::default(),
                    delta_comm(),
                    TopologyConfig::single(),
                    Some(planes_trace()),
                );
                let _s = span("fl.sched");
                let out = sched.run_streamed(env, &mut |r| {
                    gaps.tick();
                    records.push(to_json(r));
                });
                (model_hash(&out.model), Vec::new())
            }
        };
        TracedOut {
            wall_s: t0.elapsed().as_secs_f64(),
            hash,
            records,
            first_agg_s: gaps.first_s,
            gap_ms: gaps.gaps_ms,
            step_ms,
        }
    }
}

/// What a traced run reports besides its spans.
#[derive(Debug)]
pub struct TracedOut {
    /// Wall time of the traced run.
    pub wall_s: f64,
    /// `model_hash` of the traced run's final model.
    pub hash: u64,
    /// The traced run's ledger, one JSON record per round or aggregation.
    pub records: Vec<String>,
    /// Seconds from the start of the run to its first aggregation.
    pub first_agg_s: f64,
    /// Wall milliseconds between consecutive aggregations.
    pub gap_ms: Vec<f64>,
    /// Wall milliseconds of each replayed FedProphet client step.
    pub step_ms: Vec<f64>,
}

/// Wall-clock gaps between ledger callbacks.
struct Gaps {
    start: Instant,
    last: Option<Instant>,
    first_s: f64,
    gaps_ms: Vec<f64>,
}

impl Gaps {
    fn new() -> Self {
        Gaps {
            start: Instant::now(),
            last: None,
            first_s: 0.0,
            gaps_ms: Vec::new(),
        }
    }

    fn tick(&mut self) {
        let now = Instant::now();
        match self.last {
            None => self.first_s = (now - self.start).as_secs_f64(),
            Some(prev) => self.gaps_ms.push((now - prev).as_secs_f64() * 1e3),
        }
        self.last = Some(now);
    }
}

fn to_json<R: serde::Serialize>(r: &R) -> String {
    serde_json::to_string(r).expect("ledger record serializes")
}

/// One checkpoint serialize + parse round trip.
#[derive(Debug, Clone, Copy)]
pub struct CkptTiming {
    pub ser_s: f64,
    pub de_s: f64,
    pub bytes: u64,
}

impl CkptTiming {
    /// Serialize plus parse.
    pub fn total_s(&self) -> f64 {
        self.ser_s + self.de_s
    }
}

/// One batch of checkpoint round trips: serialize to JSON and parse back
/// (under the `fl.ckpt_ser` / `fl.ckpt_de` spans) for `CKPT_BATCH_S`
/// seconds, at least once, returning the batch's fastest round trip.
/// The shared host slows memory-bound code by up to ~1.7× in stretches
/// that come and go over seconds (user time, no faults, no preemption),
/// while single round trips still reach the uncontended speed every few
/// seconds; the fastest of many, spread over the run, is the round
/// trip's own cost.
pub type CkptBatch = Box<dyn FnMut() -> CkptTiming>;

/// The JSON round trip a resume starts from.
fn parse_back<C: serde::Serialize + serde::Deserialize>(ck: &C) -> C {
    let json = serde_json::to_string(ck).expect("checkpoint serializes");
    serde_json::from_str(&json).expect("checkpoint parses")
}

fn batches<C: serde::Serialize + serde::Deserialize + 'static>(ck: C) -> CkptBatch {
    Box::new(move || {
        let mut best: Option<CkptTiming> = None;
        let start = Instant::now();
        while best.is_none() || start.elapsed().as_secs_f64() < CKPT_BATCH_S {
            let t0 = Instant::now();
            let json = timed("fl.ckpt_ser", || {
                serde_json::to_string(&ck).expect("checkpoint serializes")
            });
            let ser_s = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let back: C = timed("fl.ckpt_de", || {
                serde_json::from_str(&json).expect("checkpoint parses")
            });
            let de_s = t1.elapsed().as_secs_f64();
            drop(std::hint::black_box(back));
            let trip = CkptTiming {
                ser_s,
                de_s,
                bytes: json.len() as u64,
            };
            if best.is_none_or(|b| trip.total_s() < b.total_s()) {
                best = Some(trip);
            }
        }
        best.expect("at least one round trip")
    })
}

#[allow(clippy::too_many_arguments)]
fn finish(
    model: CascadeModel,
    virtual_s: f64,
    wire_bytes: u64,
    up_bytes: u64,
    dispatches: u64,
    merged: u64,
    delta_dispatches: u64,
    samples_per_dispatch: u64,
) -> RunOut {
    RunOut {
        hash: model_hash(&model),
        model,
        virtual_s,
        wire_bytes,
        up_bytes,
        dispatches,
        merged,
        delta_dispatches,
        samples: dispatches * samples_per_dispatch,
        records: Vec::new(),
        prophet_rounds: Vec::new(),
    }
}

fn sched_out<S>(env: &FlEnv, out: fp_fl::SchedOutcome<S>, keep_ledger: bool) -> RunOut {
    let l = &out.ledger;
    let sum = |f: &dyn Fn(&fp_fl::SchedRound) -> u64| l.iter().map(f).sum::<u64>();
    let cfg = &env.cfg;
    let mut run = finish(
        out.model,
        l.last().map_or(0.0, |r| r.clock_s),
        sum(&|r| r.up_bytes + r.down_bytes),
        sum(&|r| r.up_bytes),
        sum(&|r| (r.selected - r.unavailable) as u64),
        sum(&|r| r.completed as u64),
        sum(&|r| r.delta_dispatches as u64),
        (cfg.local_iters * cfg.batch_size) as u64,
    );
    if keep_ledger {
        run.records = l.iter().map(to_json).collect();
    }
    run
}

fn async_out(
    env: &FlEnv,
    model: CascadeModel,
    l: &[fp_fl::AsyncAggRecord],
    dispatches: u64,
    keep_ledger: bool,
) -> RunOut {
    let sum = |f: &dyn Fn(&fp_fl::AsyncAggRecord) -> u64| l.iter().map(f).sum::<u64>();
    let cfg = &env.cfg;
    let mut run = finish(
        model,
        l.last().map_or(0.0, |r| r.clock_s),
        sum(&|r| r.up_bytes + r.down_bytes),
        sum(&|r| r.up_bytes),
        dispatches,
        sum(&|r| r.merged as u64),
        sum(&|r| r.delta_merged as u64),
        (cfg.local_iters * cfg.batch_size) as u64,
    );
    if keep_ledger {
        run.records = l.iter().map(to_json).collect();
    }
    run
}

/// Up+down wire bytes, up bytes and dispatches of a wait-all FedProphet
/// run, re-derived from its records: every selected client ships its
/// DMA-assigned window's weights down and back up. The assignment is
/// recomputed from the same public pieces `run_detailed` composes
/// (round sampling, the shared availability stream, `assign_modules`),
/// and checked against the record's `mean_assigned`.
fn prophet_wire(
    env: &FlEnv,
    partition: &ModulePartition,
    rounds: &[fedprophet::ProphetRound],
) -> (u64, u64, u64) {
    let cfg = &env.cfg;
    let (mut wire, mut up, mut dispatches) = (0u64, 0u64, 0u64);
    for r in rounds {
        let n_sel = over_select_count(cfg.clients_per_round, 1.0, cfg.n_clients);
        let ids = env.sample_round_n(r.round, n_sel);
        let avail: Vec<(u64, f64)> = ids
            .iter()
            .map(|&k| replay::availability(env, r.round, k))
            .collect();
        let perf_min = avail.iter().map(|&(_, p)| p).fold(f64::INFINITY, f64::min);
        let mut assigned = 0usize;
        for &(mem, perf) in &avail {
            let a = assign_modules(partition, r.module, mem, perf, perf_min);
            let (f, t) = a.atom_window(partition);
            let bytes = param_transfer_bytes(&env.reference_specs[f..t]);
            wire += 2 * bytes;
            up += bytes;
            assigned += a.count();
        }
        dispatches += ids.len() as u64;
        let mean = assigned as f32 / ids.len() as f32;
        assert_eq!(
            mean, r.mean_assigned,
            "re-derived DMA assignment disagrees with round {}",
            r.round
        );
    }
    (wire, up, dispatches)
}

/// Clean and PGD accuracy of `model` on the validation slice (the first
/// `VAL_SAMPLES` test samples), attacked with the environment's
/// training budget.
pub fn score(env: &FlEnv, model: &mut CascadeModel) -> (f32, f32) {
    let test = &env.data.test;
    let idx: Vec<usize> = (0..test.len().min(VAL_SAMPLES)).collect();
    let (x, y) = test.batch(&idx);
    let acc = |logits: &fp_tensor::Tensor| {
        let hits = fp_tensor::argmax_rows(logits)
            .iter()
            .zip(&y)
            .filter(|(p, l)| p == l)
            .count();
        hits as f32 / y.len() as f32
    };
    let clean = acc(&model.forward(&x, fp_nn::Mode::Eval));
    let pgd = fp_attack::Pgd::new(fp_attack::PgdConfig {
        steps: env.cfg.pgd_steps.max(1),
        ..fp_attack::PgdConfig::train_linf(env.cfg.eps0)
    });
    let mut rng = fp_tensor::seeded_rng(env.cfg.seed ^ 0x5C0E);
    let adv_x = pgd.attack(&mut fp_attack::ModelTarget::new(model), &x, &y, &mut rng);
    let adv = acc(&model.forward(&adv_x, fp_nn::Mode::Eval));
    (clean, adv)
}
