//! Client-side work replayed through the public pieces the library's own
//! loops compose, with a span around every call into a layer.
//!
//! * [`prophet_step`] is `fedprophet::train_module_window` taken apart:
//!   `BatchIter`, the frozen-prefix `forward_range`, `Pgd::attack` on a
//!   `ModuleTarget` (or `FinalWindowTarget`), `loss_and_grads` and
//!   `Sgd::step`. It returns the same loss bit-for-bit (checked).
//! * [`JfatReplay`] is jFAT with its `train` hook replayed the same way
//!   (`fp_fl::local_train`'s pieces); every other hook forwards to
//!   `JFat`. A scheduler run with it writes the same ledger (checked).
//! * [`replay_prophet`] replays every round of a finished FedProphet run:
//!   the DMA assignment and hwsim costing of each selected client, its
//!   client step, partial averaging of the module windows, validation of
//!   the cascaded prefix, and the `max‖Δz‖` probe after each module.

use crate::trace::{span, timed};
use fedprophet::{
    assign_modules, max_feature_perturbation, AuxHead, FinalWindowTarget, ModulePartition,
    ModuleTarget, ProphetConfig, ProphetRound,
};
use fp_attack::{AttackTarget, ModelTarget, NormBall, Pgd, PgdConfig};
use fp_data::{BatchIter, Dataset};
use fp_fl::sched::SALT_AVAIL;
use fp_fl::{over_select_count, FlEnv, JFat, ModelTrainer};
use fp_hwsim::{param_transfer_bytes, LatencyModel, Payload, PayloadSpec, TrainingPassProfile};
use fp_nn::{CascadeModel, CrossEntropyLoss, Mode, Param, Sgd};
use fp_tensor::{argmax_rows, seeded_rng, BackendHandle, Tensor};
use rand::Rng;
use std::time::Instant;

/// One client's module-window training, as `train_module_window`
/// configures it.
#[derive(Debug, Clone, Copy)]
pub struct StepCfg {
    pub from: usize,
    pub to: usize,
    pub epsilon: f32,
    pub mu: f32,
    pub pgd_steps: usize,
    pub iters: usize,
    pub batch_size: usize,
    pub lr: f32,
    pub momentum: f32,
    pub weight_decay: f32,
    pub seed: u64,
}

impl StepCfg {
    /// The library's configuration of the same step (kernel threads 0:
    /// the model keeps the backend it was given).
    pub fn window_cfg(&self) -> fedprophet::WindowTrainConfig {
        fedprophet::WindowTrainConfig {
            from_atom: self.from,
            to_atom: self.to,
            epsilon: self.epsilon,
            mu: self.mu,
            pgd_steps: self.pgd_steps,
            iters: self.iters,
            batch_size: self.batch_size,
            lr: self.lr,
            momentum: self.momentum,
            weight_decay: self.weight_decay,
            seed: self.seed,
            backend_threads: 0,
        }
    }
}

/// Replays `train_module_window(model, aux, ds, indices, cfg)` with a
/// span around each piece; returns the mean regularized loss.
pub fn prophet_step(
    model: &mut CascadeModel,
    mut aux: Option<&mut AuxHead>,
    ds: &Dataset,
    indices: &[usize],
    c: &StepCfg,
) -> f32 {
    let _step = span("core.client_step");
    let mut it = BatchIter::new(ds, indices, c.batch_size, c.seed);
    let mut opt = Sgd::new(c.momentum, c.weight_decay);
    // The stream `train_module_window` draws its PGD starts from.
    let mut rng = seeded_rng(c.seed ^ 0xCA5CADE);
    let (ball, clamp) = if c.from == 0 {
        (NormBall::Linf(c.epsilon), Some((0.0, 1.0)))
    } else {
        (NormBall::L2(c.epsilon), None)
    };
    let attack = (c.pgd_steps > 0 && c.epsilon > 0.0).then(|| {
        Pgd::new(PgdConfig {
            steps: c.pgd_steps,
            alpha: None,
            ball,
            random_start: true,
            restarts: 1,
            clamp,
        })
    });
    let mut total = 0.0f64;
    for _ in 0..c.iters {
        let (x, y) = timed("data.batch", || it.next_batch());
        let z_in = if c.from == 0 {
            x
        } else {
            timed("core.prefix_fwd", || {
                model.forward_range(&x, 0, c.from, Mode::Eval)
            })
        };
        let loss = match aux.as_deref_mut() {
            Some(head) => {
                let mut target = ModuleTarget::new(model, head, c.from, c.to, c.mu);
                let adv = match &attack {
                    Some(p) => timed("attack.pgd", || p.attack(&mut target, &z_in, &y, &mut rng)),
                    None => z_in.clone(),
                };
                let loss = timed("nn.train_step", || {
                    target.zero_grad();
                    target.loss_and_grads(&adv, &y, Mode::Train).0
                });
                let _s = span("nn.sgd");
                let mut params: Vec<&mut Param> = model.params_range_mut(c.from, c.to);
                params.extend(head.params_mut());
                opt.step(&mut params, c.lr);
                loss
            }
            None => {
                let mut target = FinalWindowTarget::new(model, c.from, c.to);
                let adv = match &attack {
                    Some(p) => timed("attack.pgd", || p.attack(&mut target, &z_in, &y, &mut rng)),
                    None => z_in.clone(),
                };
                let loss = timed("nn.train_step", || {
                    target.zero_grad();
                    target.train_step(&adv, &y)
                });
                let _s = span("nn.sgd");
                let mut params: Vec<&mut Param> = model.params_range_mut(c.from, c.to);
                opt.step(&mut params, c.lr);
                loss
            }
        };
        total += loss as f64;
    }
    (total / c.iters as f64) as f32
}

/// jFAT with its client step replayed under spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct JfatReplay(pub JFat);

impl ModelTrainer for JfatReplay {
    type Update = CascadeModel;

    fn name(&self) -> &'static str {
        ModelTrainer::name(&self.0)
    }

    fn cost(&self, env: &FlEnv, t: usize, k: usize) -> LatencyModel {
        ModelTrainer::cost(&self.0, env, t, k)
    }

    fn payload_spec(&self, env: &FlEnv, t: usize, k: usize) -> PayloadSpec {
        ModelTrainer::payload_spec(&self.0, env, t, k)
    }

    fn payload_params(&self, env: &FlEnv, global: &CascadeModel, t: usize, k: usize) -> Vec<f32> {
        ModelTrainer::payload_params(&self.0, env, global, t, k)
    }

    fn init(&self, env: &FlEnv) -> CascadeModel {
        ModelTrainer::init(&self.0, env)
    }

    /// `JFat::train` + `fp_fl::local_train`, piece by piece.
    fn train(
        &self,
        env: &FlEnv,
        global: &CascadeModel,
        t: usize,
        k: usize,
        lr: f32,
        backend: BackendHandle,
    ) -> (CascadeModel, f32) {
        let _s = span("fl.local_train");
        let cfg = &env.cfg;
        let mut model = global.clone();
        model.set_backend(&backend);
        let seed = cfg.seed ^ (t as u64) << 24 ^ k as u64;
        let pgd = Pgd::new(PgdConfig {
            steps: cfg.pgd_steps,
            ..PgdConfig::train_linf(cfg.eps0)
        });
        let mut it = BatchIter::new(
            &env.data.train,
            &env.splits[k].indices,
            cfg.batch_size,
            seed,
        );
        let mut opt = Sgd::new(cfg.momentum, cfg.weight_decay);
        let ce = CrossEntropyLoss::new();
        // The stream `local_train` draws its PGD starts from.
        let mut rng = seeded_rng(seed ^ 0xADC0FFEE);
        let mut total = 0.0f64;
        for _ in 0..cfg.local_iters {
            let (x, y) = timed("data.batch", || it.next_batch());
            let adv = timed("attack.pgd", || {
                pgd.attack(&mut ModelTarget::new(&mut model), &x, &y, &mut rng)
            });
            let loss = timed("nn.train_step", || {
                let logits = model.forward(&adv, Mode::Train);
                let (loss, dlogits) = ce.forward(&logits, &y);
                model.zero_grad();
                model.backward(&dlogits);
                loss
            });
            timed("nn.sgd", || opt.step(&mut model.params_mut(), lr));
            total += loss as f64;
        }
        (model, (total / cfg.local_iters as f64) as f32)
    }

    fn merge_weighted(
        &self,
        env: &FlEnv,
        global: &mut CascadeModel,
        t: usize,
        updates: Vec<(usize, CascadeModel)>,
        weights: &[f32],
    ) {
        ModelTrainer::merge_weighted(&self.0, env, global, t, updates, weights)
    }
}

/// Client `k`'s round-`t` availability draw, from the stream FedProphet's
/// loop shares with the schedulers.
pub fn availability(env: &FlEnv, t: usize, k: usize) -> (u64, f64) {
    let mut rng = env.client_rng(t, k, SALT_AVAIL);
    let mem = (env.mem_budget(k) as f64 * (0.8 + 0.2 * rng.gen::<f64>())) as u64;
    let perf = env.fleet[k].device.tflops * (0.2 + 0.8 * rng.gen::<f64>());
    (mem, perf)
}

/// The hwsim cost model of training modules `first..=last` for one
/// local iteration batch, adversarially.
pub fn window_cost(
    env: &FlEnv,
    partition: &ModulePartition,
    first: usize,
    last: usize,
) -> LatencyModel {
    LatencyModel {
        mem_req_bytes: (first..=last).map(|n| partition.mem_bytes[n]).sum(),
        fwd_macs_per_sample: (first..=last).map(|n| partition.fwd_macs[n]).sum(),
        batch: env.cfg.batch_size,
        profile: TrainingPassProfile::adversarial(env.cfg.pgd_steps),
    }
}

/// Replays every round of a finished wait-all FedProphet run (its
/// records give each round's module and ε), from a fresh model
/// initialized as `run_detailed` initializes it, with `backend` installed
/// on every model the replay trains or evaluates. Returns the wall
/// milliseconds of every client step.
pub fn replay_prophet(
    env: &FlEnv,
    partition: &ModulePartition,
    pcfg: &ProphetConfig,
    rounds: &[ProphetRound],
    backend: &BackendHandle,
) -> Vec<f64> {
    let cfg = &env.cfg;
    let n_classes = env.data.train.n_classes();
    let n_modules = partition.num_modules();
    let mut rng = seeded_rng(cfg.seed ^ 0x9120_9127);
    let mut global =
        fp_nn::models::instantiate(&env.reference_specs, &env.input_shape, n_classes, &mut rng);
    global.set_backend(backend);
    let mut heads: Vec<Option<AuxHead>> = (0..n_modules)
        .map(|m| {
            (m + 1 < n_modules).then(|| {
                let (_, t) = partition.windows[m];
                let mut h = AuxHead::new(
                    &format!("aux{m}"),
                    &global.feature_shape(t),
                    n_classes,
                    &mut rng,
                );
                h.set_backend(backend);
                h
            })
        })
        .collect();
    let mut step_ms = Vec::new();
    for (i, r) in rounds.iter().enumerate() {
        let m = r.module;
        let n_sel = over_select_count(cfg.clients_per_round, pcfg.sched.over_select, cfg.n_clients);
        let ids = env.sample_round_n(r.round, n_sel);
        let avail: Vec<(u64, f64)> = ids.iter().map(|&k| availability(env, r.round, k)).collect();
        let perf_min = avail.iter().map(|&(_, p)| p).fold(f64::INFINITY, f64::min);
        let assigns: Vec<_> = avail
            .iter()
            .map(|&(mem, perf)| assign_modules(partition, m, mem, perf, perf_min))
            .collect();
        for ((&k, a), &(mem, perf)) in ids.iter().zip(&assigns).zip(&avail) {
            let _s = span("hwsim.cost");
            let (f, t) = a.atom_window(partition);
            let payload = Payload::full(param_transfer_bytes(&env.reference_specs[f..t]));
            let mut dev = env.fleet[k];
            dev.avail_mem_bytes = mem;
            dev.avail_tflops = perf;
            let cost = window_cost(env, partition, a.current, a.last);
            std::hint::black_box(cost.dispatch_round_trip(&dev, cfg.local_iters, &payload));
        }
        let mut results = Vec::with_capacity(ids.len());
        for (&k, a) in ids.iter().zip(&assigns) {
            let (from, to) = a.atom_window(partition);
            let mut model = global.clone();
            let mut aux = (a.last + 1 < n_modules)
                .then(|| heads[a.last].clone().expect("non-final module has a head"));
            let step = StepCfg {
                from,
                to,
                epsilon: r.epsilon,
                mu: pcfg.mu,
                pgd_steps: cfg.pgd_steps,
                iters: cfg.local_iters,
                batch_size: cfg.batch_size,
                lr: cfg.lr.at(r.round),
                momentum: cfg.momentum,
                weight_decay: cfg.weight_decay,
                seed: cfg.seed ^ (r.round as u64) << 24 ^ k as u64,
            };
            let t0 = Instant::now();
            prophet_step(
                &mut model,
                aux.as_mut(),
                &env.data.train,
                &env.splits[k].indices,
                &step,
            );
            step_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            results.push((*a, model, aux, env.splits[k].weight));
        }
        {
            // Partial averaging (Eq. 16/17) of every module window and
            // aux head the round's clients trained.
            let _s = span("core.aggregate");
            #[allow(clippy::needless_range_loop)] // `n` indexes windows and heads alike
            for n in m..n_modules {
                let (f, t) = partition.windows[n];
                let updates: Vec<(Vec<f32>, f32)> = results
                    .iter()
                    .filter(|(a, ..)| a.current <= n && n <= a.last)
                    .map(|(_, model, _, w)| (model.flat_params_range(f, t), *w))
                    .collect();
                if !updates.is_empty() {
                    let avg = fp_fl::aggregate::weighted_average(&updates);
                    global.set_flat_params_range(&avg, f, t);
                }
                let heads_n: Vec<(Vec<f32>, f32)> = results
                    .iter()
                    .filter(|(a, ..)| a.last == n)
                    .filter_map(|(_, _, aux, w)| aux.as_ref().map(|h| (h.flat_params(), *w)))
                    .collect();
                if let (false, Some(h)) = (heads_n.is_empty(), heads[n].as_mut()) {
                    h.set_flat_params(&fp_fl::aggregate::weighted_average(&heads_n));
                }
            }
        }
        validate_prefix(
            env,
            &mut global,
            &mut heads,
            partition,
            m,
            pcfg.val_samples,
            r.round,
        );
        let module_done = rounds.get(i + 1).is_none_or(|next| next.module != m);
        if module_done {
            validate_prefix(
                env,
                &mut global,
                &mut heads,
                partition,
                m,
                pcfg.val_samples,
                r.round,
            );
            if m + 1 < n_modules {
                let _s = span("core.probe");
                let (f, t) = partition.windows[m];
                let head = heads[m].as_mut().expect("probed module has a head");
                for k in env.sample_round(usize::MAX - m) {
                    max_feature_perturbation(
                        &mut global,
                        head,
                        f,
                        t,
                        &env.data.train,
                        &env.splits[k].indices,
                        r.epsilon,
                        pcfg.mu,
                        cfg.pgd_steps,
                        cfg.batch_size,
                        pcfg.probe_batches,
                        cfg.seed ^ 0x0B5E ^ k as u64,
                    );
                }
            }
        }
    }
    step_ms
}

/// Clean and PGD accuracy of the cascaded prefix through module `m`, as
/// FedProphet validates after every round.
fn validate_prefix(
    env: &FlEnv,
    global: &mut CascadeModel,
    heads: &mut [Option<AuxHead>],
    partition: &ModulePartition,
    m: usize,
    val_samples: usize,
    round: usize,
) -> (f32, f32) {
    let _s = span("core.validate");
    let n = env.data.val.len().min(val_samples);
    let idx: Vec<usize> = (0..n).collect();
    let (x, y) = env.data.val.batch(&idx);
    let pgd = Pgd::new(PgdConfig {
        steps: env.cfg.pgd_steps.max(1),
        ..PgdConfig::train_linf(env.cfg.eps0)
    });
    let mut rng = seeded_rng(env.cfg.seed ^ 0x7E57 ^ round as u64);
    let (_, t) = partition.windows[m];
    let mut eval = |target: &mut dyn AttackTarget| {
        let acc = |logits: &Tensor| {
            argmax_rows(logits)
                .iter()
                .zip(&y)
                .filter(|(p, l)| p == l)
                .count() as f32
                / n as f32
        };
        let clean = acc(&target.logits(&x));
        let adv_x = timed("attack.eval", || pgd.attack(target, &x, &y, &mut rng));
        (clean, acc(&target.logits(&adv_x)))
    };
    if m + 1 == partition.num_modules() {
        eval(&mut ModelTarget::new(global))
    } else {
        let head = heads[m].as_mut().expect("non-final module has a head");
        eval(&mut ModuleTarget::new(global, head, 0, t, 0.0))
    }
}
