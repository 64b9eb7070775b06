//! `train_step` micro-benchmark: the refactored in-place training path
//! ([`Trainer`] + workspace kernels) against a faithful re-creation of
//! the pre-refactor allocating implementation.
//!
//! The baseline below reproduces the old code path operation for
//! operation: fresh matrices for every matmul, per-step gradient
//! matrices, dense `a * b^T` dot loops for the backward products, and a
//! dense embedding-gradient table per batch. Both sides start from
//! identical weights and train on the same fixed batch, so their loss
//! trajectories must agree — the benchmark fails if they diverge, which
//! guards against "optimizing" the math into something different.
//!
//! ```text
//! cargo run --release -p nfv-bench --bin train_step -- \
//!     [--fast] [--seed N] [--json PATH] [--min-speedup X]
//! ```

use nfv_nn::activation::sigmoid;
use nfv_nn::{
    Adam, Optimizer, SeqView, SequenceModel, SequenceModelConfig, Trainable, Trainer, TrainerConfig,
};
use nfv_tensor::Matrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

// ---------------------------------------------------------------------
// Pre-refactor reference kernels: allocate the output, skip zero scalars.
// ---------------------------------------------------------------------

/// Old `a.matmul(b)`: ikj loop over a fresh zeroed output.
fn matmul_ref(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows());
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        let a_row = a.row(i);
        for (k, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = b.row(k);
            let out_row = out.row_mut(i);
            for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                *o += av * bv;
            }
        }
    }
    out
}

/// Old `a.matmul_tn(b)` (`a^T * b`): accumulate over the shared row index.
fn matmul_tn_ref(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows());
    let mut out = Matrix::zeros(a.cols(), b.cols());
    for i in 0..a.rows() {
        let a_row = a.row(i);
        let b_row = b.row(i);
        for (k, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let out_row = out.row_mut(k);
            for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                *o += av * bv;
            }
        }
    }
    out
}

/// Old `a.matmul_nt(b)` (`a * b^T`): one dot product per output element.
fn matmul_nt_ref(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols());
    let mut out = Matrix::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        let a_row = a.row(i);
        let out_row = out.row_mut(i);
        for (j, o) in out_row.iter_mut().enumerate() {
            *o = a_row.iter().zip(b.row(j).iter()).map(|(x, y)| x * y).sum();
        }
    }
    out
}

fn sum_rows_ref(a: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(1, a.cols());
    for r in 0..a.rows() {
        let src = a.row(r);
        let dst = out.row_mut(0);
        for (o, &v) in dst.iter_mut().zip(src.iter()) {
            *o += v;
        }
    }
    out
}

// ---------------------------------------------------------------------
// Pre-refactor reference model: owned weight copies, allocating layers.
// ---------------------------------------------------------------------

struct RefLstm {
    wx: Matrix,
    wh: Matrix,
    b: Matrix,
    hidden: usize,
}

struct RefStep {
    x: Matrix,
    h_prev: Matrix,
    c_prev: Matrix,
    gates: Matrix,
    tanh_c: Matrix,
}

impl RefLstm {
    fn forward_seq(&self, xs: &[Matrix]) -> (Vec<Matrix>, Vec<RefStep>) {
        let batch = xs[0].rows();
        let hd = self.hidden;
        let mut outs = Vec::with_capacity(xs.len());
        let mut steps = Vec::with_capacity(xs.len());
        let mut h = Matrix::zeros(batch, hd);
        let mut c = Matrix::zeros(batch, hd);
        for x in xs {
            let h_prev = h.clone();
            let c_prev = c.clone();
            let mut gates = matmul_ref(x, &self.wx);
            let zh = matmul_ref(&h_prev, &self.wh);
            gates.add_assign(&zh);
            gates.add_row_broadcast(self.b.row(0));
            for r in 0..batch {
                let row = gates.row_mut(r);
                for k in 0..hd {
                    row[k] = sigmoid(row[k]); // i
                    row[hd + k] = sigmoid(row[hd + k]); // f
                    row[2 * hd + k] = row[2 * hd + k].tanh(); // g
                    row[3 * hd + k] = sigmoid(row[3 * hd + k]); // o
                }
            }
            let mut tanh_c = Matrix::zeros(batch, hd);
            for r in 0..batch {
                let g_row = gates.row(r);
                for k in 0..hd {
                    let ct = g_row[hd + k] * c_prev.get(r, k) + g_row[k] * g_row[2 * hd + k];
                    let tc = ct.tanh();
                    c.set(r, k, ct);
                    tanh_c.set(r, k, tc);
                    h.set(r, k, g_row[3 * hd + k] * tc);
                }
            }
            outs.push(h.clone());
            steps.push(RefStep { x: x.clone(), h_prev, c_prev, gates, tanh_c });
        }
        (outs, steps)
    }

    /// Returns `(dxs, dwx, dwh, db)`.
    fn backward_seq(&self, steps: &[RefStep], d_hs: &[Matrix]) -> (Vec<Matrix>, [Matrix; 3]) {
        let t_len = steps.len();
        let batch = steps[0].x.rows();
        let hd = self.hidden;
        let mut dwx = Matrix::zeros(self.wx.rows(), self.wx.cols());
        let mut dwh = Matrix::zeros(self.wh.rows(), self.wh.cols());
        let mut db = Matrix::zeros(1, 4 * hd);
        let mut dxs = vec![Matrix::zeros(0, 0); t_len];
        let mut dh_next = Matrix::zeros(batch, hd);
        let mut dc_next = Matrix::zeros(batch, hd);
        for t in (0..t_len).rev() {
            let step = &steps[t];
            let mut dh = d_hs[t].clone();
            dh.add_assign(&dh_next);
            let mut dz = Matrix::zeros(batch, 4 * hd);
            let mut dc_prev = Matrix::zeros(batch, hd);
            for r in 0..batch {
                let gates = step.gates.row(r);
                for k in 0..hd {
                    let i = gates[k];
                    let f = gates[hd + k];
                    let g = gates[2 * hd + k];
                    let o = gates[3 * hd + k];
                    let tc = step.tanh_c.get(r, k);
                    let dh_v = dh.get(r, k);

                    let do_ = dh_v * tc;
                    let dtc = dh_v * o;
                    let dc = dc_next.get(r, k) + dtc * (1.0 - tc * tc);

                    let di = dc * g;
                    let df = dc * step.c_prev.get(r, k);
                    let dg = dc * i;
                    dc_prev.set(r, k, dc * f);

                    let row = dz.row_mut(r);
                    row[k] = di * i * (1.0 - i);
                    row[hd + k] = df * f * (1.0 - f);
                    row[2 * hd + k] = dg * (1.0 - g * g);
                    row[3 * hd + k] = do_ * o * (1.0 - o);
                }
            }
            dwx.add_assign(&matmul_tn_ref(&step.x, &dz));
            dwh.add_assign(&matmul_tn_ref(&step.h_prev, &dz));
            db.add_assign(&sum_rows_ref(&dz));
            dxs[t] = matmul_nt_ref(&dz, &self.wx);
            dh_next = matmul_nt_ref(&dz, &self.wh);
            dc_next = dc_prev;
        }
        (dxs, [dwx, dwh, db])
    }
}

struct RefModel {
    table: Matrix,
    layers: Vec<RefLstm>,
    head_w: Matrix,
    head_b: Matrix,
    embed: usize,
    use_gap: bool,
}

impl RefModel {
    /// Copies the weights of a freshly initialized [`SequenceModel`] so
    /// both benchmark sides start from identical parameters.
    fn from_model(model: &SequenceModel) -> RefModel {
        let cfg = model.config().clone();
        let params = model.params();
        let mut layers = Vec::with_capacity(cfg.layers);
        for l in 0..cfg.layers {
            layers.push(RefLstm {
                wx: params[1 + 3 * l].clone(),
                wh: params[2 + 3 * l].clone(),
                b: params[3 + 3 * l].clone(),
                hidden: cfg.hidden,
            });
        }
        RefModel {
            table: params[0].clone(),
            layers,
            head_w: params[params.len() - 2].clone(),
            head_b: params[params.len() - 1].clone(),
            embed: cfg.embed_dim,
            use_gap: cfg.use_gap_feature,
        }
    }

    /// The pre-refactor `train_step`: full forward, full BPTT, fresh
    /// gradient matrices, clip, one Adam step. Returns the batch loss.
    fn train_step(
        &mut self,
        ids: &[Vec<usize>],
        gaps: &[Vec<f32>],
        targets: &[usize],
        opt: &mut Adam,
    ) -> f32 {
        let batch = ids.len();
        let t_len = ids[0].len();
        let in0 = self.embed + usize::from(self.use_gap);

        let xs: Vec<Matrix> = (0..t_len)
            .map(|t| {
                let mut x = Matrix::zeros(batch, in0);
                for r in 0..batch {
                    x.row_mut(r)[..self.embed].copy_from_slice(self.table.row(ids[r][t]));
                    if self.use_gap {
                        x.set(r, in0 - 1, gaps[r][t]);
                    }
                }
                x
            })
            .collect();

        let mut caches = Vec::with_capacity(self.layers.len());
        let mut seq = xs;
        for layer in &self.layers {
            let (outs, steps) = layer.forward_seq(&seq);
            caches.push(steps);
            seq = outs;
        }
        let top = seq.last().expect("non-empty window");
        let mut logits = matmul_ref(top, &self.head_w);
        logits.add_row_broadcast(self.head_b.row(0));
        let (loss, dlogits) = nfv_nn::loss::softmax_cross_entropy(&logits, targets);

        // Head backward (identity activation).
        let dhead_w = matmul_tn_ref(top, &dlogits);
        let dhead_b = sum_rows_ref(&dlogits);
        let mut d_seq = vec![Matrix::zeros(batch, self.layers[0].hidden); t_len];
        d_seq[t_len - 1] = matmul_nt_ref(&dlogits, &self.head_w);

        let mut lstm_grads: Vec<[Matrix; 3]> = Vec::with_capacity(self.layers.len());
        for (layer, steps) in self.layers.iter().zip(caches.iter()).rev() {
            let (dxs, grads) = layer.backward_seq(steps, &d_seq);
            lstm_grads.push(grads);
            d_seq = dxs;
        }
        lstm_grads.reverse();

        // One fresh per-timestep table added into the total, exactly as
        // the old `Embedding::backward` + `add_assign` sequence did.
        let mut dtable = Matrix::zeros(self.table.rows(), self.embed);
        for (t, dx) in d_seq.iter().enumerate() {
            let mut dtable_t = Matrix::zeros(self.table.rows(), self.embed);
            for (r, window) in ids.iter().enumerate() {
                let src = &dx.row(r)[..self.embed];
                let dst = dtable_t.row_mut(window[t]);
                for (d, &s) in dst.iter_mut().zip(src.iter()) {
                    *d += s;
                }
            }
            dtable.add_assign(&dtable_t);
        }

        let mut grads = vec![dtable];
        for [dwx, dwh, db] in lstm_grads {
            grads.extend([dwx, dwh, db]);
        }
        grads.extend([dhead_w, dhead_b]);
        for g in &mut grads {
            g.clip_inplace(5.0);
        }
        let grad_refs: Vec<Option<&Matrix>> = grads.iter().map(Some).collect();
        let mut params: Vec<&mut Matrix> = Vec::with_capacity(grads.len());
        params.push(&mut self.table);
        for layer in &mut self.layers {
            params.push(&mut layer.wx);
            params.push(&mut layer.wh);
            params.push(&mut layer.b);
        }
        params.push(&mut self.head_w);
        params.push(&mut self.head_b);
        opt.step(&mut params, &grad_refs);
        loss
    }
}

// ---------------------------------------------------------------------

struct Args {
    fast: bool,
    seed: u64,
    json: Option<String>,
    min_speedup: Option<f32>,
}

fn parse_args() -> Args {
    let mut out = Args { fast: false, seed: 1, json: None, min_speedup: None };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => out.fast = true,
            "--seed" => {
                out.seed = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    usage("--seed needs an integer");
                })
            }
            "--json" => {
                out.json = Some(args.next().unwrap_or_else(|| usage("--json needs a path")))
            }
            "--min-speedup" => {
                out.min_speedup =
                    Some(args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                        usage("--min-speedup needs a number");
                    }))
            }
            other => usage(&format!("unknown flag {:?}", other)),
        }
    }
    out
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {}", msg);
    eprintln!("usage: train_step [--fast] [--seed N] [--json PATH] [--min-speedup X]");
    std::process::exit(2)
}

fn main() {
    let args = parse_args();
    let (warmup, iters) = if args.fast { (5, 30) } else { (20, 300) };
    let cfg = SequenceModelConfig::default();
    let batch = 64usize;
    let window = 10usize;

    let mut rng = SmallRng::seed_from_u64(args.seed);
    let model = SequenceModel::new(cfg.clone(), &mut rng);
    let ids: Vec<Vec<usize>> =
        (0..batch).map(|_| (0..window).map(|_| rng.gen_range(0..cfg.vocab)).collect()).collect();
    let gaps: Vec<Vec<f32>> =
        (0..batch).map(|_| (0..window).map(|_| rng.gen::<f32>()).collect()).collect();
    let targets: Vec<usize> = (0..batch).map(|_| rng.gen_range(0..cfg.vocab)).collect();

    // Baseline: the pre-refactor allocating implementation.
    let mut reference = RefModel::from_model(&model);
    let mut ref_opt = Adam::new(1e-3, &model.param_shapes());
    let mut ref_losses = Vec::with_capacity(warmup + iters);
    for _ in 0..warmup {
        ref_losses.push(reference.train_step(&ids, &gaps, &targets, &mut ref_opt));
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        ref_losses.push(reference.train_step(&ids, &gaps, &targets, &mut ref_opt));
    }
    let baseline_ms = t0.elapsed().as_secs_f64() * 1e3 / iters as f64;

    // Refactored path: Trainer + in-place kernels, same starting weights.
    let mut optimized = model;
    let shapes = optimized.param_shapes();
    let mut trainer = Trainer::new(
        TrainerConfig { batch_size: batch, shuffle: false, ..Default::default() },
        Adam::new(1e-3, &shapes),
        &shapes,
    );
    let view = SeqView { ids: &ids, gaps: &gaps, targets: &targets };
    let indices: Vec<usize> = (0..batch).collect();
    for _ in 0..warmup {
        trainer.train_batch(&mut optimized, &view, &indices).expect("finite loss");
    }
    let t1 = Instant::now();
    for _ in 0..iters {
        trainer.train_batch(&mut optimized, &view, &indices).expect("finite loss");
    }
    let trainer_ms = t1.elapsed().as_secs_f64() * 1e3 / iters as f64;

    let max_loss_diff = ref_losses
        .iter()
        .zip(trainer.step_losses().iter())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    let speedup = baseline_ms / trainer_ms;

    println!(
        "config\tvocab {} embed {} hidden {} layers {} batch {} window {}",
        cfg.vocab, cfg.embed_dim, cfg.hidden, cfg.layers, batch, window
    );
    println!("baseline\t{:.3} ms/step", baseline_ms);
    println!("trainer\t{:.3} ms/step", trainer_ms);
    println!("speedup\t{:.2}x", speedup);
    println!("max |loss diff| over {} steps\t{:.3e}", warmup + iters, max_loss_diff);

    if let Some(path) = &args.json {
        let value = serde_json::json!({
            "bench": "train_step",
            "config": {
                "vocab": cfg.vocab,
                "embed_dim": cfg.embed_dim,
                "hidden": cfg.hidden,
                "lstm_layers": cfg.layers,
                "use_gap_feature": cfg.use_gap_feature,
                "batch": batch,
                "window": window,
                "lr": 1e-3,
                "seed": args.seed,
                "fast": args.fast,
                "warmup": warmup,
                "iters": iters,
            },
            "baseline_ms_per_step": baseline_ms,
            "trainer_ms_per_step": trainer_ms,
            "speedup": speedup,
            "max_loss_diff": max_loss_diff,
        });
        std::fs::write(path, serde_json::to_string_pretty(&value).expect("serializable"))
            .unwrap_or_else(|e| eprintln!("failed to write {}: {}", path, e));
        eprintln!("wrote {}", path);
    }

    if max_loss_diff > 1e-5 {
        eprintln!("FAIL: trajectories diverged (max |loss diff| {:.3e})", max_loss_diff);
        std::process::exit(1);
    }
    if let Some(min) = args.min_speedup {
        if (speedup as f32) < min {
            eprintln!("FAIL: speedup {:.2}x below required {:.2}x", speedup, min);
            std::process::exit(1);
        }
    }
}
