//! Spans recorded from the benchmark's own files around calls into each
//! layer of the workspace, plus the wrappers that place them.
//!
//! A span is named `<layer>.<what>`; its *self* time is its duration minus
//! the part covered by spans opened inside it on the same thread. Traced
//! runs execute at a thread budget of 1, so every span nests on the
//! calling thread and self times add up to at most the traced wall time.

use fp_fl::{FlEnv, ScheduledTrainer};
use fp_hwsim::{LatencyModel, PayloadSpec};
use fp_nn::CascadeModel;
use fp_tensor::{Backend, BackendHandle, Conv2dGeometry};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Accumulated time of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    /// Sum of span durations, seconds.
    pub total_s: f64,
    /// Sum of self times (duration minus nested spans), seconds.
    pub self_s: f64,
    /// Spans closed.
    pub count: u64,
    /// Work units attributed to the span name (FLOPs for kernels).
    pub work: f64,
}

static LEDGER: Mutex<BTreeMap<&'static str, Acc>> = Mutex::new(BTreeMap::new());

thread_local! {
    /// Time covered by child spans, one entry per open span.
    static STACK: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// An open span; closes (and records) on drop.
pub struct Span {
    name: &'static str,
    start: Instant,
    work: f64,
}

/// Opens span `name`.
pub fn span(name: &'static str) -> Span {
    STACK.with(|s| s.borrow_mut().push(0.0));
    Span {
        name,
        start: Instant::now(),
        work: 0.0,
    }
}

/// Opens span `name` that did `work` units (FLOPs, bytes).
pub fn span_work(name: &'static str, work: f64) -> Span {
    let mut s = span(name);
    s.work = work;
    s
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur = self.start.elapsed().as_secs_f64();
        let child = STACK.with(|s| {
            let mut st = s.borrow_mut();
            let child = st.pop().unwrap_or(0.0);
            if let Some(parent) = st.last_mut() {
                *parent += dur;
            }
            child
        });
        // A poisoned ledger only loses trace data; never panic in drop.
        if let Ok(mut ledger) = LEDGER.lock() {
            let acc = ledger.entry(self.name).or_default();
            acc.total_s += dur;
            acc.self_s += (dur - child).max(0.0);
            acc.count += 1;
            acc.work += self.work;
        }
    }
}

/// Times `f` under span `name`.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _s = span(name);
    f()
}

/// Drains the ledger.
pub fn take() -> BTreeMap<&'static str, Acc> {
    std::mem::take(&mut *LEDGER.lock().expect("trace ledger lock"))
}

// ------------------------------------------------------------- kernels

/// A `fp_tensor::Backend` that times every kernel call of the backend it
/// wraps and counts its FLOPs. Each method forwards to the same method of
/// the inner backend, so results are bit-identical.
#[derive(Debug)]
pub struct TimedBackend(pub BackendHandle);

impl TimedBackend {
    /// Wraps `inner`.
    pub fn handle(inner: BackendHandle) -> BackendHandle {
        Arc::new(TimedBackend(inner))
    }
}

fn conv_flops(batch: usize, c_out: usize, geo: &Conv2dGeometry) -> f64 {
    2.0 * (batch * c_out * geo.col_rows() * geo.col_cols()) as f64
}

impl Backend for TimedBackend {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn matmul_into(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        let _s = span_work("tensor.gemm", 2.0 * (m * k * n) as f64);
        self.0.matmul_into(a, b, out, m, k, n)
    }

    fn matmul_tn_into(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        let _s = span_work("tensor.gemm", 2.0 * (m * k * n) as f64);
        self.0.matmul_tn_into(a, b, out, m, k, n)
    }

    fn matmul_nt_into(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, n: usize, k: usize) {
        let _s = span_work("tensor.gemm", 2.0 * (m * k * n) as f64);
        self.0.matmul_nt_into(a, b, out, m, n, k)
    }

    fn im2col(&self, img: &[f32], geo: &Conv2dGeometry, cols: &mut [f32]) {
        let _s = span("tensor.im2col");
        self.0.im2col(img, geo, cols)
    }

    fn col2im(&self, cols: &[f32], geo: &Conv2dGeometry, img_grad: &mut [f32]) {
        let _s = span("tensor.im2col");
        self.0.col2im(cols, geo, img_grad)
    }

    fn conv2d_forward(
        &self,
        x: &[f32],
        w: &[f32],
        bias: Option<&[f32]>,
        out: &mut [f32],
        batch: usize,
        c_out: usize,
        geo: &Conv2dGeometry,
        ws: &mut Vec<f32>,
    ) {
        let _s = span_work("tensor.conv_fwd", conv_flops(batch, c_out, geo));
        self.0
            .conv2d_forward(x, w, bias, out, batch, c_out, geo, ws)
    }

    fn conv2d_backward_weights(
        &self,
        x: &[f32],
        grad: &[f32],
        dw: &mut [f32],
        batch: usize,
        c_out: usize,
        geo: &Conv2dGeometry,
        ws: &mut Vec<f32>,
    ) {
        let _s = span_work("tensor.conv_bwd", conv_flops(batch, c_out, geo));
        self.0
            .conv2d_backward_weights(x, grad, dw, batch, c_out, geo, ws)
    }

    fn conv2d_backward_input(
        &self,
        w: &[f32],
        grad: &[f32],
        dx: &mut [f32],
        batch: usize,
        c_out: usize,
        geo: &Conv2dGeometry,
        ws: &mut Vec<f32>,
    ) {
        let _s = span_work("tensor.conv_bwd", conv_flops(batch, c_out, geo));
        self.0
            .conv2d_backward_input(w, grad, dx, batch, c_out, geo, ws)
    }

    fn matmul_grouped_into(
        &self,
        a: &[f32],
        bs: &[&[f32]],
        outs: &mut [&mut [f32]],
        m: usize,
        k: usize,
        n: usize,
    ) {
        let _s = span_work("tensor.gemm", 2.0 * (bs.len() * m * k * n) as f64);
        self.0.matmul_grouped_into(a, bs, outs, m, k, n)
    }
}

// ------------------------------------------------------------ trainers

/// A `ScheduledTrainer` that forwards every hook to the trainer it wraps
/// and times the hooks under `fl.*` / `hwsim.*` spans. `train` hands the
/// inner trainer a [`TimedBackend`] around the scheduler's handle, so
/// kernel time is attributed too. Nothing else changes: the wrapped
/// run's ledger is byte-identical to the unwrapped one (checked).
pub struct Traced<T>(pub T);

impl<T: ScheduledTrainer> ScheduledTrainer for Traced<T> {
    type Update = T::Update;
    type ServerState = T::ServerState;

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn cost(&self, env: &FlEnv, t: usize, k: usize) -> LatencyModel {
        timed("hwsim.cost", || self.0.cost(env, t, k))
    }

    fn payload_spec(&self, env: &FlEnv, t: usize, k: usize) -> PayloadSpec {
        timed("fl.payload", || self.0.payload_spec(env, t, k))
    }

    fn payload_params(
        &self,
        env: &FlEnv,
        state: &Self::ServerState,
        t: usize,
        k: usize,
    ) -> Vec<f32> {
        timed("fl.payload", || self.0.payload_params(env, state, t, k))
    }

    fn init(&self, env: &FlEnv) -> Self::ServerState {
        timed("fl.init", || self.0.init(env))
    }

    fn global_model<'a>(&self, state: &'a Self::ServerState) -> &'a CascadeModel {
        self.0.global_model(state)
    }

    fn global_model_mut<'a>(&self, state: &'a mut Self::ServerState) -> &'a mut CascadeModel {
        self.0.global_model_mut(state)
    }

    fn train(
        &self,
        env: &FlEnv,
        state: &Self::ServerState,
        t: usize,
        k: usize,
        lr: f32,
        backend: BackendHandle,
    ) -> (Self::Update, f32) {
        let backend = TimedBackend::handle(backend);
        timed("fl.train", || self.0.train(env, state, t, k, lr, backend))
    }

    fn merge_weighted(
        &self,
        env: &FlEnv,
        state: &mut Self::ServerState,
        t: usize,
        updates: Vec<(usize, Self::Update)>,
        weights: &[f32],
    ) {
        timed("fl.merge", || {
            self.0.merge_weighted(env, state, t, updates, weights)
        })
    }

    fn merge(
        &self,
        env: &FlEnv,
        state: &mut Self::ServerState,
        t: usize,
        updates: Vec<(usize, Self::Update)>,
    ) {
        timed("fl.merge", || self.0.merge(env, state, t, updates))
    }

    fn byz_policy(&self) -> Option<fp_fl::ByzPolicy> {
        self.0.byz_policy()
    }

    fn take_robust_stats(&self) -> fp_fl::RobustStats {
        self.0.take_robust_stats()
    }

    fn quant_policy(&self) -> Option<fp_fl::QuantConfig> {
        self.0.quant_policy()
    }

    fn quant_up_bytes(&self, spec: &PayloadSpec) -> Option<u64> {
        self.0.quant_up_bytes(spec)
    }

    fn quant_invalidate(&self, k: usize, cause: fp_fl::QuantLoss) {
        self.0.quant_invalidate(k, cause)
    }

    fn quant_state(&self) -> Option<fp_fl::QuantState> {
        self.0.quant_state()
    }

    fn restore_quant(&self, state: &fp_fl::QuantState) {
        self.0.restore_quant(state)
    }

    fn reset_quant(&self) {
        self.0.reset_quant()
    }
}

// ----------------------------------------------------------- summaries

/// The median and the highest percentile with at least ten samples
/// beyond it, as `(p50, tail, tail_percentile)`. With fewer than eleven
/// samples the tail is the maximum (percentile 100).
pub fn p50_tail(samples: &[f64]) -> (f64, f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let p50 = v[(n - 1) / 2];
    if n < 11 {
        return (p50, v[n - 1], 100.0);
    }
    // The largest of 50, 90, 99, 99.9, ... whose rank leaves at least
    // ten samples above it.
    let mut pct = 50.0;
    for p in [90.0, 99.0, 99.9, 99.99] {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if n.saturating_sub(rank) >= 10 {
            pct = p;
        }
    }
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    (p50, v[rank.clamp(1, n) - 1], pct)
}

/// The smallest of `v` (NaN when empty). The shared host only ever slows
/// a measurement down, so the fastest of several samples taken seconds
/// apart is the code's own cost; medians carry the host's drift.
pub fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// The median of `v` (the mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
