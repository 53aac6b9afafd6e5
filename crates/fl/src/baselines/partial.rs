//! Partial-training baselines: HeteroFL-AT, FedDrop-AT, FedRolex-AT.

use crate::engine::{FlAlgorithm, FlEnv};
use crate::local::{local_train, LocalTrainConfig};
use crate::metrics::FlOutcome;
use crate::sched::{EventScheduler, ModelTrainer, SchedConfig, ScheduledTrainer};
use crate::submodel::{
    channel_groups, extract_submodel, keep_sets, slice_specs, SubmodelAccumulator, SubmodelScheme,
};
use fp_attack::PgdConfig;
use fp_hwsim::{
    forward_macs, param_transfer_bytes, LatencyModel, PayloadSpec, TrainingPassProfile,
};
use fp_nn::CascadeModel;
use fp_tensor::seeded_rng;
use std::collections::HashMap;

/// Shape-fingerprint salt for width-sliced submodel payloads.
const SHAPE_SALT: u64 = 0x51_1CE5;

/// Partial-training federated adversarial training: each client trains a
/// width-sliced sub-model sized to its memory budget
/// (`ratio = R_k / R_max`, Appendix B.2) and the server partial-averages
/// the updates (Eq. 16).
///
/// The [`SubmodelScheme`] selects the baseline: `Static` = HeteroFL,
/// `Rolling` = FedRolex, `Random` = FedDrop.
#[derive(Debug, Clone, Copy)]
pub struct PartialTraining {
    /// Channel-selection scheme.
    pub scheme: SubmodelScheme,
}

impl PartialTraining {
    /// HeteroFL-AT.
    pub fn heterofl() -> Self {
        PartialTraining {
            scheme: SubmodelScheme::Static,
        }
    }

    /// FedRolex-AT.
    pub fn fedrolex() -> Self {
        PartialTraining {
            scheme: SubmodelScheme::Rolling,
        }
    }

    /// FedDrop-AT.
    pub fn feddrop() -> Self {
        PartialTraining {
            scheme: SubmodelScheme::Random,
        }
    }
}

impl PartialTraining {
    /// The width ratio client `k` trains at (`R_k / R_max`, Appendix
    /// B.2).
    fn ratio(env: &FlEnv, k: usize) -> f32 {
        ((env.mem_budget(k) as f64 / env.full_mem_req() as f64) as f32).clamp(0.1, 1.0)
    }

    /// The RNG feeding a client's round-`t` keep-set draw and submodel
    /// extraction — shared verbatim by `train` and `payload_params` so
    /// the payload the server diffs is bit-identical to the submodel the
    /// client trains.
    fn submodel_rng(env: &FlEnv, t: usize, k: usize) -> rand::rngs::StdRng {
        seeded_rng(env.cfg.seed ^ 0x5B_0000 ^ (t as u64) << 20 ^ k as u64)
    }

    /// Fingerprint of the keep-set shape of client `k`'s round-`t`
    /// payload. A delta download is only valid when the client's cached
    /// slice has the same channels: the `Static` scheme keeps one slice
    /// per ratio forever (delta-eligible round over round), `Rolling`
    /// shifts every round and `Random` redraws per `(round, client)` —
    /// their fingerprints change, forcing full windows.
    fn shape_id(&self, env: &FlEnv, t: usize, k: usize) -> u64 {
        let mut h = SHAPE_SALT ^ Self::ratio(env, k).to_bits() as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
        h ^= match self.scheme {
            SubmodelScheme::Static => 0,
            SubmodelScheme::Rolling => 1 + t as u64,
            SubmodelScheme::Random => ((1 + t as u64) << 20) | ((k as u64 + 1) << 1),
        };
        // The 48-bit mask dates from when checkpoint JSON rounded
        // integers above 2^53; it stays because committed checkpoints
        // store these fingerprints. `| 1` keeps clear of FULL_SHAPE.
        (h | 1) & 0xFFFF_FFFF_FFFF
    }
}

impl ModelTrainer for PartialTraining {
    type Update = (CascadeModel, HashMap<usize, Vec<usize>>);

    fn name(&self) -> &'static str {
        match self.scheme {
            SubmodelScheme::Static => "HeteroFL-AT",
            SubmodelScheme::Rolling => "FedRolex-AT",
            SubmodelScheme::Random => "FedDrop-AT",
        }
    }

    fn cost(&self, env: &FlEnv, _t: usize, k: usize) -> LatencyModel {
        // Width slicing keeps a `ratio` fraction of every hidden channel
        // group, so memory scales ≈ linearly and MACs ≈ quadratically in
        // the ratio (both conv operands shrink).
        let ratio = Self::ratio(env, k) as f64;
        let full_macs = forward_macs(&env.reference_specs, &env.input_shape) as f64;
        LatencyModel {
            mem_req_bytes: (ratio * env.full_mem_req() as f64) as u64,
            fwd_macs_per_sample: (ratio * ratio * full_macs) as u64,
            batch: env.cfg.batch_size,
            profile: TrainingPassProfile::adversarial(env.cfg.pgd_steps),
        }
    }

    fn payload_spec(&self, env: &FlEnv, t: usize, k: usize) -> PayloadSpec {
        // Only the kept slice crosses the wire. The byte count is the
        // *exact* serialized size of the sliced specs — the same slice
        // `payload_params` materializes — not the historical ratio²
        // approximation, so narrow clients delta correctly too.
        let groups = channel_groups(&env.reference_specs);
        let ratio = Self::ratio(env, k);
        let mut rng = Self::submodel_rng(env, t, k);
        let keep = keep_sets(&groups, ratio, self.scheme, t, &mut rng);
        let sliced = slice_specs(&env.reference_specs, &keep);
        PayloadSpec::window(param_transfer_bytes(&sliced), self.shape_id(env, t, k))
    }

    fn payload_params(&self, env: &FlEnv, global: &CascadeModel, t: usize, k: usize) -> Vec<f32> {
        // The exact parameters the client materializes: its keep-set
        // slice of `global`, extracted with the same RNG stream `train`
        // uses — so diffing two versions of the same slice is exact.
        let groups = channel_groups(&env.reference_specs);
        let ratio = Self::ratio(env, k);
        let mut rng = Self::submodel_rng(env, t, k);
        let keep = keep_sets(&groups, ratio, self.scheme, t, &mut rng);
        extract_submodel(global, &keep, &mut rng).flat_params()
    }

    fn train(
        &self,
        env: &FlEnv,
        global: &CascadeModel,
        t: usize,
        k: usize,
        lr: f32,
        backend: fp_tensor::BackendHandle,
    ) -> (Self::Update, f32) {
        let cfg = &env.cfg;
        let groups = channel_groups(&env.reference_specs);
        let ratio = Self::ratio(env, k);
        let mut rng = Self::submodel_rng(env, t, k);
        let keep = keep_sets(&groups, ratio, self.scheme, t, &mut rng);
        let mut sub = extract_submodel(global, &keep, &mut rng);
        sub.set_backend(&backend);
        let ltc = LocalTrainConfig {
            iters: cfg.local_iters,
            batch_size: cfg.batch_size,
            lr,
            momentum: cfg.momentum,
            weight_decay: cfg.weight_decay,
            pgd: Some(PgdConfig {
                steps: cfg.pgd_steps,
                ..PgdConfig::train_linf(cfg.eps0)
            }),
            seed: cfg.seed ^ (t as u64) << 24 ^ k as u64,
        };
        let loss = local_train(&mut sub, &env.data.train, &env.splits[k].indices, &ltc);
        ((sub, keep), loss)
    }

    fn merge_weighted(
        &self,
        _env: &FlEnv,
        global: &mut CascadeModel,
        _t: usize,
        updates: Vec<(usize, Self::Update)>,
        weights: &[f32],
    ) {
        let mut acc = SubmodelAccumulator::new(global);
        for ((_, (sub, keep)), &w) in updates.iter().zip(weights) {
            acc.add(sub, keep, w);
        }
        acc.apply(global);
    }
}

impl FlAlgorithm for PartialTraining {
    fn name(&self) -> &'static str {
        ScheduledTrainer::name(self)
    }

    fn run(&self, env: &FlEnv) -> FlOutcome {
        EventScheduler::new(*self, SchedConfig::default())
            .run(env)
            .into_fl_outcome()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testenv::make_env;
    use super::*;

    #[test]
    fn all_three_schemes_run_and_learn() {
        for alg in [
            PartialTraining::heterofl(),
            PartialTraining::fedrolex(),
            PartialTraining::feddrop(),
        ] {
            let env = make_env(8, 21);
            let outcome = alg.run(&env);
            let clean = outcome.final_val_clean().unwrap();
            assert!(
                clean > 0.3,
                "{} failed to learn: clean {clean}",
                ScheduledTrainer::name(&alg)
            );
        }
    }

    /// The declared payload bytes must equal the serialized size of the
    /// exact parameter slice the client ships (4 bytes per f32).
    #[test]
    fn payload_spec_bytes_are_exact() {
        let env = make_env(8, 33);
        let global = crate::baselines::init_global(&env);
        for alg in [
            PartialTraining::heterofl(),
            PartialTraining::fedrolex(),
            PartialTraining::feddrop(),
        ] {
            for t in 0..3 {
                for k in 0..env.cfg.n_clients {
                    let spec = ModelTrainer::payload_spec(&alg, &env, t, k);
                    let params = ModelTrainer::payload_params(&alg, &env, &global, t, k);
                    assert_eq!(
                        spec.bytes,
                        params.len() as u64 * 4,
                        "{} t={t} k={k}",
                        ScheduledTrainer::name(&alg)
                    );
                }
            }
        }
    }

    #[test]
    fn scheme_names_match_paper() {
        assert_eq!(
            ScheduledTrainer::name(&PartialTraining::heterofl()),
            "HeteroFL-AT"
        );
        assert_eq!(
            ScheduledTrainer::name(&PartialTraining::fedrolex()),
            "FedRolex-AT"
        );
        assert_eq!(
            ScheduledTrainer::name(&PartialTraining::feddrop()),
            "FedDrop-AT"
        );
    }
}
