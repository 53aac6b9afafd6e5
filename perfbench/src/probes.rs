//! Standalone per-layer probes: single layers driven at a workload's own
//! sizes, outside the traced run, each timed on its own.

use crate::replay::{prophet_step, window_cost, StepCfg};
use crate::trace::median;
use fedprophet::{train_module_window, AuxHead, ModulePartition, ProphetRound};
use fp_fl::{model_hash, AsyncTimeline, FlEnv, RobustRule};
use fp_nn::{apply_param_delta, param_diff, CascadeModel, Mode, QuantizedUpdate};
use fp_tensor::{seeded_rng, BackendHandle, Tensor};
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;

/// Runs `f` until at least `min_s` seconds and `min_reps` calls have
/// passed; returns the median seconds per call.
pub fn per_call_s(min_s: f64, min_reps: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps || start.elapsed().as_secs_f64() < min_s {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// Forward and backward milliseconds of every atom of `model` on a batch
/// of `batch` inputs, each the median of several calls.
pub fn atom_ms(model: &mut CascadeModel, batch: usize, seed: u64) -> Vec<(f64, f64)> {
    let mut rng = seeded_rng(seed);
    let mut shape = vec![batch];
    shape.extend_from_slice(model.input_shape());
    let numel: usize = shape.iter().product();
    let x = Tensor::from_vec(
        (0..numel).map(|_| rng.gen_range(0.0f32..1.0)).collect(),
        &shape,
    );
    let mut z = x;
    let mut out = Vec::new();
    for i in 0..model.num_atoms() {
        let mut next = None;
        let fwd = per_call_s(0.02, 5, || {
            next = Some(model.forward_range(&z, i, i + 1, Mode::Train));
        });
        let y = next.expect("forward ran");
        let grad = Tensor::from_vec(vec![1.0; y.data().len()], y.shape());
        let bwd = per_call_s(0.02, 5, || {
            // Each backward consumes the activations of a forward.
            model.forward_range(&z, i, i + 1, Mode::Train);
            black_box(model.backward_range(&grad, i, i + 1));
        }) - fwd;
        out.push((fwd * 1e3, bwd.max(0.0) * 1e3));
        z = y;
    }
    out
}

/// Codec and robust-rule throughput at one workload's update size.
#[derive(Debug, Default, Clone, Copy)]
pub struct CodecProbe {
    /// `fp_tensor::quant` quantize + dequantize, GB/s of f32 input.
    pub tensor_quant_gbps: f64,
    /// `QuantizedUpdate::encode` + `decode`, GB/s of f32 input.
    pub qcodec_gbps: f64,
    /// `param_diff` + `apply_param_delta`, GB/s of f32 input.
    pub delta_gbps: f64,
    /// Seconds per `RobustRule::apply` on one merge.
    pub robust_s: f64,
}

/// Probes the 4-bit codecs and XOR deltas on `params` floats and the
/// multi-Krum rule on a merge of `merge` such updates.
pub fn codecs(params: usize, merge: usize, seed: u64) -> CodecProbe {
    let mut rng = seeded_rng(seed ^ 0xC0DEC);
    let x: Vec<f32> = (0..params).map(|_| rng.gen_range(-0.1f32..0.1)).collect();
    let y: Vec<f32> = x
        .iter()
        .map(|v| v + rng.gen_range(-1e-3f32..1e-3))
        .collect();
    let gb = (params * 4) as f64 / 1e9;
    let tensor_quant = per_call_s(0.05, 5, || {
        let (codes, scales) = fp_tensor::quant::quantize(&x, 4, 256, seed);
        black_box(fp_tensor::quant::dequantize(&codes, &scales, 4, 256));
    });
    let qcodec = per_call_s(0.05, 5, || {
        black_box(QuantizedUpdate::encode(&x, 4, 256, seed).decode());
    });
    let delta = per_call_s(0.05, 5, || {
        black_box(apply_param_delta(&x, &param_diff(&x, &y)));
    });
    let rule = RobustRule::MultiKrum {
        f: merge.saturating_sub(3) / 4,
        m: merge.div_ceil(2),
        clip: 1.05,
    };
    let updates: Vec<(usize, Vec<f32>)> = (0..merge)
        .map(|k| {
            (
                k,
                x.iter()
                    .map(|v| v + rng.gen_range(-1e-2f32..1e-2))
                    .collect(),
            )
        })
        .collect();
    let weights = vec![1.0f32; merge];
    let robust_s = per_call_s(0.05, 3, || {
        black_box(rule.apply(updates.clone(), &weights));
    });
    CodecProbe {
        tensor_quant_gbps: gb / tensor_quant,
        qcodec_gbps: gb / qcodec,
        delta_gbps: gb / delta,
        robust_s,
    }
}

/// Microseconds of every `AsyncTimeline::pick_dispatches` call while
/// `n_clients` churn through one model version at `concurrency` slots
/// (each dispatch finishes a millisecond or so after it starts, and the
/// version never advances).
pub fn picker_us(seed: u64, n_clients: usize, concurrency: usize) -> Vec<f64> {
    let mut tl = AsyncTimeline::new(seed, n_clients, concurrency);
    let mut samples = Vec::new();
    loop {
        let t0 = Instant::now();
        let picked = tl.pick_dispatches();
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
        for &k in &picked {
            let finish = tl.clock_s() + 1e-3 * (1.0 + (k % 7) as f64);
            tl.schedule_finish(k, finish);
        }
        if tl.next_finish().is_none() {
            break;
        }
    }
    samples
}

/// The FedProphet module probes: measured milliseconds per local
/// iteration of each module's window trained alone (host, default
/// backend), and hwsim's predicted compute milliseconds per iteration of
/// the same window on the fleet's median device.
pub fn module_step_ms(
    env: &FlEnv,
    partition: &ModulePartition,
    rounds: &[ProphetRound],
    mu: f32,
) -> Vec<(f64, f64)> {
    let cfg = &env.cfg;
    let n_classes = env.data.train.n_classes();
    let mut rng = seeded_rng(cfg.seed ^ 0x57E9);
    let model =
        fp_nn::models::instantiate(&env.reference_specs, &env.input_shape, n_classes, &mut rng);
    let mut devices = env.fleet.clone();
    devices.sort_by(|a, b| a.avail_tflops.total_cmp(&b.avail_tflops));
    let median_dev = devices[devices.len() / 2];
    let n_modules = partition.num_modules();
    (0..n_modules)
        .map(|m| {
            let (from, to) = partition.windows[m];
            let mut aux = (m + 1 < n_modules)
                .then(|| AuxHead::new("probe", &model.feature_shape(to), n_classes, &mut rng));
            let epsilon = rounds
                .iter()
                .find(|r| r.module == m)
                .map_or(cfg.eps0, |r| r.epsilon);
            let step = StepCfg {
                from,
                to,
                epsilon,
                mu,
                pgd_steps: cfg.pgd_steps,
                iters: cfg.local_iters,
                batch_size: cfg.batch_size,
                lr: cfg.lr.at(0),
                momentum: cfg.momentum,
                weight_decay: cfg.weight_decay,
                seed: cfg.seed ^ m as u64,
            };
            let t0 = Instant::now();
            prophet_step(
                &mut model.clone(),
                aux.as_mut(),
                &env.data.train,
                &env.splits[0].indices,
                &step,
            );
            let measured = t0.elapsed().as_secs_f64() * 1e3 / cfg.local_iters as f64;
            let predicted = window_cost(env, partition, m, m)
                .local_training(&median_dev, 1)
                .compute_s
                * 1e3;
            (measured, predicted)
        })
        .collect()
}

/// Checks that the replayed FedProphet client step is the library's:
/// `train_module_window` on one model and `prophet_step` under `backend`
/// on an identical one must return the same loss bit-for-bit and leave
/// identical models. One step per module window.
pub fn prophet_step_is_faithful(
    env: &FlEnv,
    partition: &ModulePartition,
    rounds: &[ProphetRound],
    mu: f32,
    backend: &BackendHandle,
) -> Result<(), String> {
    let cfg = &env.cfg;
    let n_classes = env.data.train.n_classes();
    let n_modules = partition.num_modules();
    let mut rng = seeded_rng(cfg.seed ^ 0xFA17);
    let model =
        fp_nn::models::instantiate(&env.reference_specs, &env.input_shape, n_classes, &mut rng);
    for m in 0..n_modules {
        let (from, to) = partition.windows[m];
        let aux = (m + 1 < n_modules)
            .then(|| AuxHead::new("check", &model.feature_shape(to), n_classes, &mut rng));
        let epsilon = rounds
            .iter()
            .find(|r| r.module == m)
            .map_or(cfg.eps0, |r| r.epsilon);
        let step = StepCfg {
            from,
            to,
            epsilon,
            mu,
            pgd_steps: cfg.pgd_steps,
            iters: 2,
            batch_size: cfg.batch_size,
            lr: cfg.lr.at(0),
            momentum: cfg.momentum,
            weight_decay: cfg.weight_decay,
            seed: cfg.seed ^ 0xFA17 ^ m as u64,
        };
        let k = m % env.splits.len();
        let (mut lib_model, mut lib_aux) = (model.clone(), aux.clone());
        let lib_loss = train_module_window(
            &mut lib_model,
            lib_aux.as_mut(),
            &env.data.train,
            &env.splits[k].indices,
            &step.window_cfg(),
        );
        let (mut rep_model, mut rep_aux) = (model.clone(), aux.clone());
        rep_model.set_backend(backend);
        if let Some(a) = rep_aux.as_mut() {
            a.set_backend(backend);
        }
        let rep_loss = prophet_step(
            &mut rep_model,
            rep_aux.as_mut(),
            &env.data.train,
            &env.splits[k].indices,
            &step,
        );
        if lib_loss.to_bits() != rep_loss.to_bits() {
            return Err(format!(
                "module {m}: replayed step loss {rep_loss} != train_module_window {lib_loss}"
            ));
        }
        if model_hash(&lib_model) != model_hash(&rep_model) {
            return Err(format!("module {m}: replayed step left a different model"));
        }
        let heads = (
            lib_aux.map(|a| a.flat_params()),
            rep_aux.map(|a| a.flat_params()),
        );
        if heads.0 != heads.1 {
            return Err(format!(
                "module {m}: replayed step left a different aux head"
            ));
        }
    }
    Ok(())
}
