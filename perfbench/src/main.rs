//! `perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `prophet_sync`, `jfat_sync`, `fleet_async_10k`,
//! `planes_sync_5k` (see `README.md` for why each exists and which layer
//! metric should move which end-to-end metric).
//!
//! With `--trace 0` it builds the workload several times (`setup_s`),
//! runs it back to back for `--seconds` at the machine's thread budget
//! and reports the fastest sample of each timing, then checks its
//! outputs. With `--trace 1` it runs the workload at a thread budget of
//! 1, once plain and once with spans at every layer boundary, and reports
//! the per-layer ledger. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod probes;
mod replay;
mod trace;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use trace::{fastest, p50_tail, Acc};
use workloads::{Built, RunOut, WORKLOADS};

/// Seconds of repeated builds before the first run; `setup_s` is the
/// fastest build of all (see `trace::fastest` for why).
const SETUP_S: f64 = 1.0;
/// Seconds of repeated builds after each timed run, so builds are spread
/// over the whole measurement like the checkpoint round trips.
const SETUP_BATCH_S: f64 = 0.25;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        let bad = |what: &str| format!("flag `{flag}`: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(bad(&format!("expected one of {WORKLOADS:?}")));
                }
                workload = Some(value);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s >= 1)
                    .ok_or_else(|| bad("expected a positive integer"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing `--workload <name>`")?,
        seed,
        seconds,
        trace,
    })
}

/// Attempts and failures of one invocation: every workload execution is
/// an attempt; one that panics or fails an output check is a failure.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn attempt<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(msg)) => {
                eprintln!("perfbench: {what}: check failed: {msg}");
                self.failed += 1;
                None
            }
            Err(_) => {
                eprintln!("perfbench: {what}: panicked");
                self.failed += 1;
                None
            }
        }
    }
}

/// Metrics in emission order: `(name, value, unit)`.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        // `+ 0.0` turns the `-0.0` of an empty float sum into `0.0`.
        self.0.push((name.into(), value + 0.0, unit));
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    if args.trace {
        fp_tensor::parallel::set_thread_budget(1);
        traced(&args, &mut tally, &mut metrics);
    } else {
        untraced(&args, &mut tally, &mut metrics);
    }
    let correct = tally.failed == 0 && metrics.0.iter().all(|(_, v, _)| v.is_finite());
    for (name, value, unit) in &metrics.0 {
        println!("{name:<32} {value:>18.6} {unit}");
    }
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
}

/// The run's environment, as the first line of the report.
fn print_info(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={nproc} thread_budget={} gemm_isa={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        fp_tensor::parallel::max_threads(),
        gemm_isa()
    );
}

/// The microkernel family the packed GEMM selects at run time, by the
/// same feature test it applies.
fn gemm_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512";
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return "avx2";
        }
    }
    "portable"
}

/// Peak resident memory of this process, MB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

/// Builds the workload repeatedly for `seconds` (at least once); returns
/// the last build and every build's time.
fn setup(args: &Args, seconds: f64) -> (Built, Vec<f64>) {
    let (start, mut times, mut built) = (Instant::now(), Vec::new(), None);
    while times.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        built = Some(workloads::build(&args.workload, args.seed));
        times.push(t0.elapsed().as_secs_f64());
    }
    (built.expect("at least one build"), times)
}

/// Checks a second run against the reference: same model, same virtual
/// clock, same wire bytes.
fn same_run(what: &str, a: &RunOut, b: &RunOut) -> Result<(), String> {
    if a.hash != b.hash {
        return Err(format!(
            "{what}: model hash {:016x} != {:016x}",
            b.hash, a.hash
        ));
    }
    if a.virtual_s.to_bits() != b.virtual_s.to_bits() {
        return Err(format!(
            "{what}: virtual_s {} != {}",
            b.virtual_s, a.virtual_s
        ));
    }
    if a.wire_bytes != b.wire_bytes {
        return Err(format!(
            "{what}: wire bytes {} != {}",
            b.wire_bytes, a.wire_bytes
        ));
    }
    Ok(())
}

fn check_accuracy(built: &Built, model: &mut fp_nn::CascadeModel) -> Result<(f32, f32), String> {
    let (clean, adv) = workloads::score(built.env(), model);
    if clean.is_finite()
        && adv.is_finite()
        && (0.0..=1.0).contains(&clean)
        && (0.0..=1.0).contains(&adv)
    {
        Ok((clean, adv))
    } else {
        Err(format!("accuracies not finite fractions: {clean} / {adv}"))
    }
}

fn untraced(args: &Args, tally: &mut Tally, m: &mut Metrics) {
    print_info(args);
    let (built, mut setup_s) = setup(args, SETUP_S);
    // A run at a thread budget of 1, stopped halfway, checkpointed through
    // JSON and resumed. It warms the allocator and caches, is not timed,
    // and must end exactly where the uninterrupted runs at the full budget
    // end.
    fp_tensor::parallel::set_thread_budget(1);
    let resumed = tally.attempt("checkpointed run at thread budget 1", || {
        Ok(built.run_checkpointed())
    });
    fp_tensor::parallel::set_thread_budget(0);
    let Some((resumed, mut batch)) = resumed else {
        return;
    };
    // Timed runs back to back until `--seconds` have passed, each followed
    // by batches of checkpoint round trips and of builds, so `ckpt_s` and
    // `setup_s` sample the same stretch of time as `wall_s`. All three
    // report their fastest sample: the host's slow states come and go over
    // seconds and only add time.
    let (mut walls, mut ckpts) = (Vec::new(), Vec::new());
    let mut reference: Option<RunOut> = None;
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    for rep in 1.. {
        if rep > 2 && start.elapsed() >= budget {
            break;
        }
        let wall = tally.attempt(&format!("run {rep}"), || {
            let t0 = Instant::now();
            let out = built.run(false);
            let wall = t0.elapsed().as_secs_f64();
            match &reference {
                Some(first) => same_run(&format!("run {rep} vs the first run"), first, &out)?,
                None => {
                    same_run("resumed at budget 1 vs uninterrupted", &out, &resumed)?;
                    reference = Some(out);
                }
            }
            Ok(wall)
        });
        walls.extend(wall);
        ckpts.extend((0..workloads::CKPT_BATCHES_PER_RUN).map(|_| batch()));
        setup_s.extend(setup(args, SETUP_BATCH_S).1);
    }
    while ckpts.len() < workloads::CKPT_BATCHES {
        ckpts.push(batch());
    }
    let Some(mut reference) = reference else {
        return;
    };
    let acc = tally.attempt("validation accuracy", || {
        check_accuracy(&built, &mut reference.model)
    });
    let wall = fastest(&walls);
    if let Some((clean, adv)) = acc {
        println!(
            "# reps={} walls={walls:?} hash={:016x} virtual_s={} val_clean={clean} val_adv={adv}",
            walls.len(),
            reference.hash,
            reference.virtual_s
        );
    }
    m.put("setup_s", fastest(&setup_s), "s");
    m.put("wall_s", wall, "s");
    m.put(
        "train_samples_per_s",
        reference.samples as f64 / wall,
        "1/s",
    );
    m.put(
        "dispatches_per_s",
        reference.dispatches as f64 / wall,
        "1/s",
    );
    m.put("client_mem_mb", built.client_mem_bytes() as f64 / 1e6, "MB");
    m.put("wire_mb", reference.wire_bytes as f64 / 1e6, "MB");
    let ckpt_s = fastest(&ckpts.iter().map(|c| c.total_s()).collect::<Vec<_>>());
    m.put("ckpt_s", ckpt_s, "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
}

fn total(spans: &std::collections::BTreeMap<&'static str, Acc>, name: &str) -> Acc {
    spans.get(name).copied().unwrap_or_default()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Span-name prefixes of the workspace's layers: `fp-tensor`, `fp-nn`,
/// `fp-attack`, `fp-data`, `fedprophet`, `fp-hwsim`, `fp-fl`.
const LAYERS: [&str; 7] = ["tensor", "nn", "attack", "data", "core", "hwsim", "fl"];

/// FedProphet modules the medium cascade partitions into.
const MODULES: usize = 4;

fn traced(args: &Args, tally: &mut Tally, m: &mut Metrics) {
    print_info(args);
    let built = workloads::build(&args.workload, args.seed);
    let env = built.env();
    let cfg = &env.cfg;
    let Some((w_untraced, reference)) = tally.attempt("untraced reference run", || {
        let t0 = Instant::now();
        let out = built.run(true);
        Ok((t0.elapsed().as_secs_f64(), out))
    }) else {
        return;
    };
    trace::take();
    let traced_out = tally.attempt("traced run", || {
        let out = built.traced_run(&reference);
        if !reference.prophet_rounds.is_empty() {
            return Ok(out);
        }
        if out.records != reference.records {
            return Err("traced ledger differs from the untraced ledger".into());
        }
        if out.hash != reference.hash {
            return Err("traced run ended with a different model".into());
        }
        Ok(out)
    });
    let spans = trace::take();
    let Some(tr) = traced_out else {
        return;
    };

    let timed_backend = trace::TimedBackend::handle(fp_tensor::default_backend());
    let (mut partition_ms, mut modules) = (0.0, Vec::new());
    if let Built::Prophet { partition, alg, .. } = &built {
        tally.attempt("replayed client step matches train_module_window", || {
            probes::prophet_step_is_faithful(
                env,
                partition,
                &reference.prophet_rounds,
                alg.config.mu,
                &timed_backend,
            )
        });
        partition_ms = probes::per_call_s(0.05, 5, || {
            std::hint::black_box(workloads::prophet_partition(env));
        }) * 1e3;
        modules = probes::module_step_ms(env, partition, &reference.prophet_rounds, alg.config.mu);
    }
    trace::take();
    let ckpt = tally.attempt("checkpointed run", || {
        let (out, mut batch) = built.run_checkpointed();
        same_run("resumed vs uninterrupted", &reference, &out)?;
        Ok((0..workloads::CKPT_BATCHES)
            .map(|_| batch())
            .collect::<Vec<_>>())
    });
    let resume_spans = trace::take();
    let resume_s = match &built {
        Built::Prophet { .. } => {
            let r = total(&resume_spans, "fl.resume");
            ratio(r.total_s, r.count as f64)
        }
        other => tally
            .attempt("resume after the last round", || {
                Ok(other.resume_overhead_s())
            })
            .unwrap_or(f64::NAN),
    };
    let mut model = reference.model.clone();
    let acc = tally.attempt("validation accuracy", || check_accuracy(&built, &mut model));

    // Per-layer probes at the workload's own sizes.
    let params: usize = env.reference_specs.iter().map(|a| a.param_count()).sum();
    let merge = match &built {
        Built::Fleet { .. } => workloads::fleet_async_cfg().buffer_k,
        _ => cfg.clients_per_round,
    };
    let codec = probes::codecs(params, merge, args.seed);
    let picks = probes::picker_us(args.seed, cfg.n_clients, 64.min(cfg.n_clients));
    let mut medium = {
        let specs = fp_bench::envs::reference_specs(3, 16, 8, &[12, 24, 32, 48]);
        let mut rng = fp_tensor::seeded_rng(args.seed);
        fp_nn::models::instantiate(&specs, &[3, 16, 16], 8, &mut rng)
    };
    let atoms = probes::atom_ms(&mut medium, 32, args.seed);

    // ---- fp-tensor
    let kernels: Vec<Acc> = spans
        .iter()
        .filter(|(k, _)| k.starts_with("tensor."))
        .map(|(_, a)| *a)
        .collect();
    let gflops = |name: &str| {
        let a = total(&spans, name);
        ratio(a.work, a.total_s) / 1e9
    };
    m.put(
        "tensor.busy_s",
        kernels.iter().map(|a| a.total_s).sum(),
        "s",
    );
    m.put(
        "tensor.calls",
        kernels.iter().map(|a| a.count as f64).sum(),
        "count",
    );
    m.put("tensor.gemm_gflops", gflops("tensor.gemm"), "GFLOP/s");
    m.put(
        "tensor.conv_fwd_gflops",
        gflops("tensor.conv_fwd"),
        "GFLOP/s",
    );
    m.put(
        "tensor.conv_bwd_gflops",
        gflops("tensor.conv_bwd"),
        "GFLOP/s",
    );
    m.put("tensor.quant_gbps", codec.tensor_quant_gbps, "GB/s");
    // ---- fp-nn
    for (i, (fwd, bwd)) in atoms.iter().enumerate() {
        m.put(format!("nn.atom{i}.fwd_ms"), *fwd, "ms");
        m.put(format!("nn.atom{i}.bwd_ms"), *bwd, "ms");
    }
    m.put(
        "nn.train_step_s",
        total(&spans, "nn.train_step").total_s,
        "s",
    );
    m.put("nn.sgd_s", total(&spans, "nn.sgd").total_s, "s");
    m.put("nn.qcodec_gbps", codec.qcodec_gbps, "GB/s");
    m.put("nn.delta_gbps", codec.delta_gbps, "GB/s");
    // ---- fp-attack
    let pgd = total(&spans, "attack.pgd").total_s;
    let client_work =
        total(&spans, "core.client_step").total_s + total(&spans, "fl.local_train").total_s;
    m.put("attack.pgd_s", pgd, "s");
    m.put("attack.pgd_share", ratio(pgd, client_work), "ratio");
    m.put("attack.eval_s", total(&spans, "attack.eval").total_s, "s");
    // ---- fp-data
    m.put("data.batch_s", total(&spans, "data.batch").total_s, "s");
    // ---- fedprophet
    let steps = total(&spans, "core.client_step");
    let (step_p50, step_tail, step_pct) = p50_tail(&tr.step_ms);
    m.put("core.client_step_s", steps.total_s, "s");
    m.put("core.client_steps", steps.count as f64, "count");
    m.put("core.client_step_ms_p50", step_p50, "ms");
    m.put("core.client_step_ms_tail", step_tail, "ms");
    m.put("core.client_step_tail_pct", step_pct, "%");
    m.put(
        "core.prefix_fwd_s",
        total(&spans, "core.prefix_fwd").total_s,
        "s",
    );
    m.put(
        "core.aggregate_s",
        total(&spans, "core.aggregate").total_s,
        "s",
    );
    m.put(
        "core.validate_s",
        total(&spans, "core.validate").total_s,
        "s",
    );
    m.put("core.probe_s", total(&spans, "core.probe").total_s, "s");
    m.put("core.partition_ms", partition_ms, "ms");
    for i in 0..MODULES {
        let measured = modules.get(i).map_or(0.0, |&(ms, _)| ms);
        m.put(format!("core.step_ms.m{i}"), measured, "ms");
    }
    // ---- fp-hwsim
    let cost = total(&spans, "hwsim.cost");
    m.put(
        "hwsim.cost_us",
        ratio(cost.total_s, cost.count as f64) * 1e6,
        "us",
    );
    for i in 0..MODULES {
        // hwsim's prediction, unvalidated against real devices: compare
        // only its ranking of modules with `core.step_ms.m<i>`.
        let predicted = modules.get(i).map_or(0.0, |&(_, ms)| ms);
        m.put(format!("hwsim.pred_ms.m{i}"), predicted, "sim_ms");
    }
    m.put("hwsim.virtual_s", reference.virtual_s, "sim_s");
    // ---- fp-fl
    let (pick_p50, pick_tail, pick_pct) = p50_tail(&picks);
    let (agg_p50, agg_tail, agg_pct) = p50_tail(&tr.gap_ms);
    let d = reference.dispatches as f64;
    m.put("fl.sched_self_s", total(&spans, "fl.sched").self_s, "s");
    m.put("fl.pick_us_p50", pick_p50, "us");
    m.put("fl.pick_us_tail", pick_tail, "us");
    m.put("fl.pick_tail_pct", pick_pct, "%");
    m.put("fl.picks", picks.len() as f64, "count");
    m.put("fl.first_agg_s", tr.first_agg_s, "s");
    m.put("fl.agg_ms_p50", agg_p50, "ms");
    m.put("fl.agg_ms_tail", agg_tail, "ms");
    m.put("fl.agg_tail_pct", agg_pct, "%");
    m.put("fl.agg_gaps", tr.gap_ms.len() as f64, "count");
    m.put("fl.dispatches", d, "count");
    m.put("fl.useful_frac", ratio(reference.merged as f64, d), "ratio");
    m.put("fl.trainer_s", total(&spans, "fl.train").total_s, "s");
    m.put("fl.merge_s", total(&spans, "fl.merge").total_s, "s");
    m.put("fl.robust_s", codec.robust_s, "s");
    m.put(
        "fl.delta_frac",
        ratio(reference.delta_dispatches as f64, d),
        "ratio",
    );
    m.put("fl.up_mb", reference.up_bytes as f64 / 1e6, "MB");
    m.put(
        "fl.down_mb",
        (reference.wire_bytes - reference.up_bytes) as f64 / 1e6,
        "MB",
    );
    // The fastest round trip's split, as `ckpt_s` reports it.
    let ck = ckpt
        .unwrap_or_default()
        .into_iter()
        .min_by(|a, b| a.total_s().total_cmp(&b.total_s()))
        .unwrap_or(workloads::CkptTiming {
            ser_s: f64::NAN,
            de_s: f64::NAN,
            bytes: 0,
        });
    m.put("fl.ckpt_ser_s", ck.ser_s, "s");
    m.put("fl.ckpt_de_s", ck.de_s, "s");
    m.put("fl.resume_s", resume_s, "s");
    m.put("fl.ckpt_mb", ck.bytes as f64 / 1e6, "MB");
    m.put(
        "fl.local_train_s",
        total(&spans, "fl.local_train").total_s,
        "s",
    );
    // ---- model quality (deterministic per seed; checked, not gated)
    let (clean, adv) = acc.unwrap_or((f32::NAN, f32::NAN));
    m.put("model.val_clean", clean as f64, "frac");
    m.put("model.val_adv", adv as f64, "frac");
    // ---- roll-ups: self time per layer over the traced run
    let mut attributed = 0.0;
    for prefix in LAYERS {
        let s: f64 = spans
            .iter()
            .filter(|(k, _)| k.split('.').next() == Some(prefix))
            .map(|(_, a)| a.self_s)
            .sum();
        attributed += s;
        m.put(format!("self.{prefix}_s"), s, "s");
    }
    m.put("trace.wall_s", tr.wall_s, "s");
    m.put("trace.untraced_wall_s", w_untraced, "s");
    m.put("trace.overhead", tr.wall_s / w_untraced - 1.0, "ratio");
    m.put(
        "trace.unattributed_share",
        1.0 - attributed / tr.wall_s,
        "ratio",
    );
}
