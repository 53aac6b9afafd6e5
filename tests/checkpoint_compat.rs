//! Backward compatibility of the generalized server-state checkpoints.
//!
//! The committed fixtures under `tests/fixtures/` were emitted by the
//! pre-generalization schedulers (whose checkpoints hard-coded one
//! `fp-nn` model under the `"model"` key). The generalized
//! `SchedCheckpoint<S>` / `AsyncCheckpoint<S>` with the default
//! single-model [`ModelState`] wrapper must keep loading them and must
//! re-serialize them **byte-identically** — the wrapper's serialized
//! form *is* the plain model checkpoint.
//!
//! The `*_planes_v2.json` fixtures pin the same guarantees with every
//! opt-in plane on at once (see the section at the end of this file).

use fedprophet_repro::data::{generate, partition_pathological, SynthConfig};
use fedprophet_repro::fl::{
    model_hash, AsyncCheckpoint, AsyncConfig, AsyncScheduler, AsyncStopPoint, AttackKind,
    AttackPlan, ByzTrainer, CommConfig, DeadlinePolicy, EventScheduler, FlConfig, FlEnv, JFat,
    OutagePlan, QuantConfig, QuantTrainer, RobustRule, SchedCheckpoint, SchedConfig, StragglePlan,
    SyntheticTrainer, TopologyConfig, TracePlan,
};
use fedprophet_repro::hwsim::{sample_fleet, SamplingMode, CIFAR_POOL};
use fedprophet_repro::nn::models::{vgg_atom_specs, VggConfig};

fn env(rounds: usize, seed: u64) -> FlEnv {
    let cfg = FlConfig::fast(rounds, seed);
    let data = generate(&SynthConfig::tiny(4, 8), seed);
    let splits = partition_pathological(&data.train, cfg.n_clients, 0.8, 0.25, seed);
    let mut rng = fedprophet_repro::tensor::seeded_rng(seed ^ 0xF1EE7);
    let fleet = sample_fleet(&CIFAR_POOL, cfg.n_clients, SamplingMode::Balanced, &mut rng);
    let specs = vgg_atom_specs(&VggConfig::tiny(3, 8, 4, &[8, 16, 24]));
    FlEnv::new(data, splits, fleet, specs, cfg)
}

#[test]
fn pre_refactor_sched_checkpoint_loads_and_reserializes_bit_identically() {
    let json = include_str!("fixtures/sched_checkpoint_v1.json");
    // Default type parameter = ModelState: the historical single-model
    // checkpoint shape.
    let ckpt: SchedCheckpoint = serde_json::from_str(json).expect("v1 checkpoint deserializes");
    assert_eq!(ckpt.next_round, 3);
    assert_eq!(ckpt.algorithm, "jFAT");
    assert_eq!(ckpt.ledger.len(), 3);
    let reserialized = serde_json::to_string(&ckpt).expect("serializes");
    assert_eq!(
        reserialized, json,
        "ModelState must serialize byte-identically to the v1 model checkpoint"
    );
}

#[test]
fn pre_refactor_sched_checkpoint_resumes() {
    let json = include_str!("fixtures/sched_checkpoint_v1.json");
    let ckpt: SchedCheckpoint = serde_json::from_str(json).expect("v1 checkpoint deserializes");
    // The fixture's originating run: seed 77, 6 rounds, the e2e
    // deadline/dropout/over-selection policy.
    let sched = EventScheduler::new(
        JFat::new(),
        SchedConfig {
            over_select: 1.5,
            dropout_p: 0.15,
            deadline: DeadlinePolicy::MedianMultiple(1.25),
            min_completions: 1,
        },
    );
    let e = env(6, 77);
    let out = sched.resume(&e, &ckpt);
    assert_eq!(out.ledger.len(), 6, "resume finishes the remaining rounds");
    assert_eq!(
        &out.ledger[..3],
        &ckpt.ledger[..],
        "the checkpointed prefix is preserved verbatim"
    );
    // The continuation rides the machine-independent schedule streams:
    // clocks advance monotonically past the checkpoint.
    assert!(out.ledger[3..].iter().all(|r| r.clock_s > ckpt.clock_s));
    assert!(out.ledger.windows(2).all(|w| w[1].clock_s >= w[0].clock_s));
}

#[test]
fn pre_refactor_async_checkpoint_loads_and_reserializes_bit_identically() {
    let json = include_str!("fixtures/async_checkpoint_v1.json");
    let ckpt: AsyncCheckpoint = serde_json::from_str(json).expect("v1 checkpoint deserializes");
    assert_eq!(ckpt.version, 2);
    assert_eq!(ckpt.algorithm, "jFAT");
    assert_eq!(ckpt.buffer.len(), 1, "fixture was taken mid-flight");
    assert!(!ckpt.in_flight.is_empty());
    assert!(
        !ckpt.past_states.is_empty(),
        "pending dispatches keep their version's model alive"
    );
    let reserialized = serde_json::to_string(&ckpt).expect("serializes");
    assert_eq!(
        reserialized, json,
        "ModelState must serialize byte-identically to the v1 model checkpoint"
    );
}

#[test]
fn pre_refactor_async_checkpoint_resumes() {
    let json = include_str!("fixtures/async_checkpoint_v1.json");
    let ckpt: AsyncCheckpoint = serde_json::from_str(json).expect("v1 checkpoint deserializes");
    let sched = AsyncScheduler::new(
        JFat::new(),
        AsyncConfig {
            concurrency: 4,
            buffer_k: 2,
            staleness_exp: 0.5,
            ..AsyncConfig::default()
        },
    );
    let e = env(5, 77);
    let out = sched.resume(&e, &ckpt);
    assert_eq!(out.ledger.len(), 5, "resume finishes the remaining aggs");
    assert_eq!(&out.ledger[..2], &ckpt.ledger[..]);
    assert!(out.ledger[2..]
        .iter()
        .all(|r| r.clock_s > ckpt.last_agg_clock_s));
}

// ------------------------------------------------- all-planes v2 fixtures
//
// `sched_checkpoint_planes_v2.json` / `async_checkpoint_planes_v2.json`
// are mid-run `SyntheticTrainer` checkpoints with every plane on at once:
// two-tier topology, LRU-bounded delta downloads, a hot diurnal trace
// plan with outages and a timing adversary, 4-bit error feedback with an
// LRU residual table, and multi-Krum against sign-flip attackers. They
// pin every plane key's name, order and encoding: a renamed or
// reordered key fails the byte-identity checks below, which self
// round-trips cannot catch.

const PLANES_SEED: u64 = 2026;
const PLANES_ROUNDS: usize = 5;

fn planes_env() -> FlEnv {
    let mut cfg = FlConfig::fast(PLANES_ROUNDS, PLANES_SEED);
    cfg.n_clients = 16;
    cfg.clients_per_round = 8;
    let data = generate(&SynthConfig::tiny(4, 8), PLANES_SEED);
    let specs = vgg_atom_specs(&VggConfig::tiny(3, 8, 4, &[4]));
    FlEnv::lazy(data, &CIFAR_POOL, SamplingMode::Balanced, specs, cfg)
}

/// Byzantine wrapper outside, quantizer inside: attackers corrupt what
/// the 4-bit wire carries, and multi-Krum judges it.
fn planes_trainer() -> ByzTrainer<QuantTrainer<SyntheticTrainer>> {
    let quant = QuantConfig {
        ef_rows: 4,
        ..QuantConfig::new(4)
    };
    ByzTrainer::new(
        QuantTrainer::new(SyntheticTrainer, quant),
        RobustRule::MultiKrum {
            f: 1,
            m: 3,
            clip: 1.05,
        },
        Some(AttackPlan {
            fraction: 0.3,
            salt: 7,
            kind: AttackKind::SignFlip { scale: 4.0 },
        }),
    )
}

fn planes_comm() -> CommConfig {
    CommConfig {
        delta_downloads: true,
        snapshot_retention: 2,
        cache_rows: 6,
    }
}

/// The stock diurnal mix with a hair-trigger thermal envelope (every
/// busy second throttles, and heat lasts a day), a timing adversary over
/// the attack cohort, and outage windows short enough (10 µs) to strike
/// the adversary's inflated round trips mid-flight.
fn planes_trace() -> TracePlan {
    let mut plan = TracePlan {
        outage: Some(OutagePlan {
            p: 0.05,
            window_s: 1e-5,
            regions: 4,
        }),
        straggle: Some(StragglePlan {
            fraction: 0.3,
            salt: 7,
            factor: 20.0,
        }),
        ..TracePlan::diurnal(86_400.0)
    };
    for class in &mut plan.classes {
        class.throttle_after_s = 0.0;
        class.throttle_per_s = 0.05;
        class.throttle_cap = 3.0;
        class.cooldown_s = 86_400.0;
    }
    plan
}

fn planes_sync() -> EventScheduler<ByzTrainer<QuantTrainer<SyntheticTrainer>>> {
    EventScheduler::with_trace(
        planes_trainer(),
        SchedConfig {
            over_select: 1.5,
            dropout_p: 0.2,
            deadline: DeadlinePolicy::MedianMultiple(1.25),
            min_completions: 1,
        },
        planes_comm(),
        TopologyConfig::two_tier(2, 2),
        Some(planes_trace()),
    )
}

fn planes_async() -> AsyncScheduler<ByzTrainer<QuantTrainer<SyntheticTrainer>>> {
    AsyncScheduler::with_trace(
        planes_trainer(),
        AsyncConfig {
            concurrency: 8,
            buffer_k: 4,
            staleness_exp: 0.5,
            dropout_p: 0.1,
            timeout_s: Some(60.0),
            adaptive_buffer: Some((2, 6)),
        },
        planes_comm(),
        TopologyConfig::two_tier(2, 2),
        Some(planes_trace()),
    )
}

const PLANES_ASYNC_STOP: AsyncStopPoint = AsyncStopPoint {
    aggregations: 4,
    buffered: 1,
};

#[test]
fn all_planes_sync_checkpoint_loads_reserializes_and_resumes_exactly() {
    let json = include_str!("fixtures/sched_checkpoint_planes_v2.json");
    let ckpt: SchedCheckpoint = serde_json::from_str(json).expect("v2 checkpoint deserializes");
    assert_eq!(
        serde_json::to_string(&ckpt).expect("serializes"),
        json,
        "every plane key must re-serialize byte-identically"
    );
    // The fixture exercises every plane's non-trivial encoding.
    assert_eq!(ckpt.next_round, 3);
    assert!(ckpt.ledger.iter().any(|r| !r.filtered.is_empty()));
    assert!(ckpt
        .ledger
        .iter()
        .any(|r| r.unavailable > 0 && r.throttled > 0));
    let comm = ckpt.comm.as_ref().expect("comm plane");
    assert_eq!(comm.cfg, planes_comm());
    assert_eq!(ckpt.topo, Some(TopologyConfig::two_tier(2, 2)));
    let trace = ckpt.trace.as_ref().expect("trace plane");
    assert_eq!(trace.plan, planes_trace());
    assert!(!trace.thermal.is_empty());
    let quant = ckpt.quant.as_ref().expect("quant plane");
    assert!(!quant.rows.is_empty() && !quant.lost.is_trivial());
    assert!(ckpt.byz.is_some());

    // It is a capture of the run below: resuming it reproduces the
    // uninterrupted run exactly, and so does a fresh capture.
    let env = planes_env();
    let full = planes_sync().run(&env);
    let resumed = planes_sync().resume(&env, &ckpt);
    assert_eq!(full.ledger, resumed.ledger);
    assert_eq!(model_hash(&full.model), model_hash(&resumed.model));
    let fresh = serde_json::to_string(&planes_sync().run_until(&env, 3)).unwrap();
    assert_eq!(fresh, json, "the fixture's originating run drifted");
}

#[test]
fn all_planes_async_checkpoint_loads_reserializes_and_resumes_exactly() {
    let json = include_str!("fixtures/async_checkpoint_planes_v2.json");
    let ckpt: AsyncCheckpoint = serde_json::from_str(json).expect("v2 checkpoint deserializes");
    assert_eq!(
        serde_json::to_string(&ckpt).expect("serializes"),
        json,
        "every plane key must re-serialize byte-identically"
    );
    assert_eq!(ckpt.version, PLANES_ASYNC_STOP.aggregations);
    assert!(ckpt.ledger.iter().any(|r| !r.filtered.is_empty()));
    assert!(ckpt.in_flight.iter().any(|p| p.cause.is_some()));
    assert!(ckpt.in_flight.iter().any(|p| p.throttled));
    assert!(ckpt.cur_k.is_some());
    assert!(!ckpt.edge_buffers.is_empty() || !ckpt.upstream.is_empty());
    let trace = ckpt.trace.as_ref().expect("trace plane");
    assert!(!trace.thermal.is_empty() && trace.unavailable > 0);
    let quant = ckpt.quant.as_ref().expect("quant plane");
    assert!(!quant.rows.is_empty() && !quant.lost.is_trivial());

    let env = planes_env();
    let full = planes_async().run(&env);
    let resumed = planes_async().resume(&env, &ckpt);
    assert_eq!(full.ledger, resumed.ledger);
    assert_eq!(model_hash(&full.model), model_hash(&resumed.model));
    let fresh = serde_json::to_string(&planes_async().run_until(&env, PLANES_ASYNC_STOP)).unwrap();
    assert_eq!(fresh, json, "the fixture's originating run drifted");
}

// ------------------------------------------------------ 64-bit integers

/// Seeds and salts at or above 2^53 used to round through the f64 number
/// model of checkpoint JSON, so `resume` rejected the run's own
/// checkpoint on the `seed` (and Byzantine-plan salt) check.
#[test]
fn seed_above_2_pow_53_resumes_from_its_own_json_checkpoint() {
    let seed: u64 = (1 << 60) + 1;
    let mut cfg = FlConfig::fast(4, seed);
    cfg.n_clients = 12;
    cfg.clients_per_round = 4;
    let data = generate(&SynthConfig::tiny(4, 8), 5);
    let specs = vgg_atom_specs(&VggConfig::tiny(3, 8, 4, &[4]));
    let env = FlEnv::lazy(data, &CIFAR_POOL, SamplingMode::Balanced, specs, cfg);
    let build = || {
        EventScheduler::new(
            ByzTrainer::new(
                SyntheticTrainer,
                RobustRule::FedAvg,
                Some(AttackPlan {
                    fraction: 0.25,
                    salt: 0xDEAD_BEEF_DEAD_BEEF,
                    kind: AttackKind::GaussNoise { sigma: 0.1 },
                }),
            ),
            SchedConfig::default(),
        )
    };
    let full = build().run(&env);
    let json = serde_json::to_string(&build().run_until(&env, 2)).unwrap();
    assert!(json.contains("\"seed\":1152921504606846977"));
    let ckpt: SchedCheckpoint = serde_json::from_str(&json).unwrap();
    assert_eq!(ckpt.seed, seed);
    let resumed = build().resume(&env, &ckpt);
    assert_eq!(full.ledger, resumed.ledger);
    assert_eq!(model_hash(&full.model), model_hash(&resumed.model));
}
