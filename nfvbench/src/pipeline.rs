//! The `pipeline-update` workload: `run_pipeline` (LSTM, with
//! customization and adaptation) followed by `eval::sweep_prc`, on a
//! fast-preset fleet whose software update lands inside the window so
//! at least one adaptation fires.
//!
//! The end-to-end run repeats the pipeline for `--seconds` and gates
//! that every repetition yields the same month-score digest and the
//! same best F-measure. The traced run replays the pipeline's public
//! calls (codec mining and encoding, grouping, per-group fit, update and
//! adapt, batched scoring, warning mapping) on the same trace and
//! config, one span per call, and times the threshold sweep and the
//! checkpoint writes.

use crate::layers::timed_setup;
use crate::probe;
use crate::report::Report;
use crate::stats::{self, Digest};
use crate::trace::Tracer;
use crate::Opts;
use nfv_detect::eval;
use nfv_detect::mapping::{map_clusters, warning_clusters};
use nfv_detect::pipeline::{
    run_pipeline, ticket_free, CheckpointConfig, DetectorKind, PipelineConfig, PipelineRun,
};
use nfv_detect::{AnomalyDetector, GroupModelStore, Grouping, LogCodec, LstmDetector};
use nfv_simnet::{FleetTrace, SimConfig, SimPreset, Ticket};
use nfv_syslog::time::{month_start, MINUTE};
use nfv_syslog::{LogStream, SyslogMessage};
use std::time::Instant;

/// Thresholds in the precision-recall sweep.
const SWEEP_THRESHOLDS: usize = 24;

/// A fast-preset fleet of four vPEs whose update rolls out, to every
/// vPE, in month 2 of 3.
fn sim_config(seed: u64) -> SimConfig {
    let mut sim = SimConfig::preset(SimPreset::Fast, seed);
    sim.n_vpes = 4;
    sim.months = 3;
    sim.update_month = Some(2);
    // Denser than the preset's 40 minutes: with sparse logs the
    // post-update anomalies rarely form one-minute clusters, so the
    // false-alarm surge that triggers adaptation depends on the seed.
    sim.mean_log_gap = 10.0 * MINUTE as f64;
    sim.update_fraction = 1.0;
    sim
}

/// The harnesses' fast pipeline settings, with every thread count at
/// `threads`.
fn pipeline_config(seed: u64, threads: usize, tiny: bool) -> PipelineConfig {
    let mut cfg =
        PipelineConfig { detector: DetectorKind::Lstm, seed, threads, ..Default::default() };
    cfg.lstm.epochs = 1;
    cfg.lstm.oversample_rounds = 1;
    cfg.lstm.hidden = 16;
    cfg.lstm.max_train_windows = if tiny { 1_000 } else { 2_000 };
    cfg.lstm.threads = threads;
    cfg
}

/// Digest of every scored event of every month, bit for bit.
fn month_digest(run: &PipelineRun) -> u64 {
    let mut d = Digest::default();
    for m in &run.months {
        d.u64(m.month as u64);
        for events in &m.per_vpe {
            d.u64(events.len() as u64);
            for e in events {
                d.u64(e.time);
                d.u64(e.score.to_bits() as u64);
            }
        }
    }
    d.value()
}

/// One pipeline run plus its threshold sweep.
struct Rep {
    pipeline_s: f64,
    sweep_s: f64,
    digest: u64,
    best_f: f32,
    run: PipelineRun,
}

fn rep(trace: &FleetTrace, cfg: &PipelineConfig) -> Result<Rep, String> {
    let t = Instant::now();
    let run = run_pipeline(trace, cfg).map_err(|e| e.to_string())?;
    let pipeline_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let curve = eval::sweep_prc(&run, &cfg.mapping, SWEEP_THRESHOLDS);
    let sweep_s = t.elapsed().as_secs_f64();
    let best_f = curve.best_f_point().map_or(0.0, |p| p.f_measure);
    if run.adaptations.is_empty() {
        return Err("the software update triggered no adaptation".into());
    }
    Ok(Rep { pipeline_s, sweep_s, digest: month_digest(&run), best_f, run })
}

/// Fleets per run. Runs cycle through them, so a run's figures average
/// over fleets instead of hinging on one fleet's adaptation count.
const FLEETS: usize = 3;

/// The `pipeline-update` workload.
pub fn run(opts: &Opts, report: &mut Report) -> Result<(), String> {
    let threads = opts.nproc;
    let cfg = pipeline_config(opts.seed, threads, opts.tiny);
    let traces: Vec<FleetTrace> = timed_setup(report, threads, || {
        (0..FLEETS)
            .map(|i| FleetTrace::simulate(sim_config(opts.seed ^ ((i as u64) << 32))))
            .collect()
    });
    let months = (traces[0].config.months - 1) as u64;
    report.threads("pipeline", threads);
    report.threads("gemm", threads);
    report.threads("probe", threads);

    // A warm-up run first. The first run of each fleet fixes its scores
    // and best F; every later run of the fleet must reproduce them bit
    // for bit.
    let warm = rep(&traces[0], &cfg)?;
    let mut firsts: Vec<Option<Rep>> = (0..FLEETS).map(|_| None).collect();
    firsts[0] = Some(warm);
    // Each run is paired with the probes taken while it ran.
    let (mut wall_ms, mut lines, mut probes) = (Vec::new(), Vec::new(), Vec::new());
    let mut again = |fleet: usize, report: &mut Report| -> Result<f64, String> {
        let (r, p) = probe::during(threads, || rep(&traces[fleet], &cfg));
        let r = r?;
        probes.push(p);
        wall_ms.push(r.pipeline_s * 1e3);
        lines.push(traces[fleet].total_messages() as f64);
        let pipeline_s = r.pipeline_s;
        match &firsts[fleet] {
            Some(first)
                if r.digest != first.digest || r.best_f.to_bits() != first.best_f.to_bits() =>
            {
                return Err(format!(
                    "fleet {} run differs: digest {:016x} vs {:016x}, best F {} vs {}",
                    fleet, r.digest, first.digest, r.best_f, first.best_f
                ));
            }
            Some(_) => {}
            None => {
                eprintln!(
                    "pipeline-update: fleet {} has {} groups, best F {:.4}, adaptations {:?}",
                    fleet, r.run.grouping.k, r.best_f, r.run.adaptations
                );
                // `run_pipeline` trains one thread per group whatever
                // `threads` says; record the most.
                let k = report.thread_count("pipeline_group_fits").max(r.run.grouping.k);
                report.threads("pipeline_group_fits", k);
                firsts[fleet] = Some(r);
            }
        }
        Ok(pipeline_s)
    };
    if !opts.trace {
        let deadline = Instant::now() + std::time::Duration::from_secs_f64(opts.seconds);
        let mut n = 0;
        while Instant::now() < deadline || n < 2 * FLEETS {
            again(n % FLEETS, report)?;
            n += 1;
        }
        report.count(months * n as u64, 0);
        // Every line's result arrives when `run_pipeline` returns, so a
        // line's latency is its run's wall time.
        let norm = probe::normalize(&wall_ms, &probes, 1);
        let mut rate: Vec<f64> = lines.iter().zip(&norm).map(|(l, t)| l * 1e3 / t).collect();
        let mut wall_rate: Vec<f64> =
            lines.iter().zip(&wall_ms).map(|(l, t)| l * 1e3 / t).collect();
        report.latency(&norm, &wall_ms, traces[0].total_messages() as u64, norm.len());
        report.set("lines_per_s", stats::median(&mut rate));
        report.wall("lines_per_s", stats::median(&mut wall_rate), probe::speed(&probes));
        return Ok(());
    }

    // Traced run, on the first fleet: an untraced run as the baseline,
    // the same run inside a span, then a replay of its stages.
    let base = again(0, report)?;
    let mut tracer = Tracer::new(true);
    let h = tracer.open("pipeline.run");
    let traced = again(0, report)?;
    tracer.close(h);
    let first = firsts[0].as_ref().expect("fleet 0 ran");
    report.count(months * 3, 0);
    let n = probes.len();
    report.set("trace.overhead_frac", (traced / probes[n - 1]) / (base / probes[n - 2]) - 1.0);
    report.set("host.speed", probe::speed(&probes));
    report.set("eval.sweep_prc_s", first.sweep_s);
    report.set("eval.best_f", first.best_f as f64);
    report.set("pipeline.adaptations", first.run.adaptations.len() as f64);
    let trace = &traces[0];

    let windows = replay(trace, &cfg, &first.run.adaptations, &mut tracer);
    let spans = tracer.summary();
    let busy = |name: &str| spans.get(name).map_or(0.0, |s| s.busy_ns / 1e9);
    let stages = [
        ("codec.train", "codec.train_s"),
        ("codec.encode", "codec.encode_s"),
        ("grouping.cluster", "grouping.cluster_s"),
        ("lstm_detector.fit", "lstm_detector.fit_s"),
        ("lstm_detector.update", "lstm_detector.update_s"),
        ("lstm_detector.adapt", "lstm_detector.adapt_s"),
        ("group_store.score", "group_store.score_s"),
        ("mapping.map", "mapping.map_s"),
    ];
    let mut covered = 0.0;
    for (span, metric) in stages {
        report.set(metric, busy(span));
        covered += busy(span);
    }
    report.set("group_store.windows_per_s", windows as f64 / busy("group_store.score"));
    report.set("trace.covered_frac", covered / base);

    // Checkpoint cost: the same run with a checkpoint directory.
    let dir = std::path::PathBuf::from(format!(".bench_out/ckpt-{}", std::process::id()));
    let mut ck = cfg.clone();
    ck.checkpoint = CheckpointConfig { dir: Some(dir.clone()), ..Default::default() };
    let ((with_ckpt, ckpt_s), p) = probe::during(threads, || {
        let t = Instant::now();
        (run_pipeline(trace, &ck).map_err(|e| e.to_string()), t.elapsed().as_secs_f64())
    });
    let _ = std::fs::remove_dir_all(&dir);
    if month_digest(&with_ckpt?) != first.digest {
        return Err("checkpointed pipeline run differs from the plain one".into());
    }
    // Both runs at the nominal host speed.
    let nominal = |s: f64, probe: f64| s * probe::NOMINAL_MS / probe;
    report.set("pipeline_ckpt.save_s", nominal(ckpt_s, p) - nominal(base, probes[n - 2]));
    report.set("trace.spans", tracer.len() as f64);
    report.spans(&tracer);
    Ok(())
}

/// Replays `run_pipeline`'s public calls on the same trace and config,
/// one span per call, taking the adaptation decisions from `adapted`
/// (the (month, group) pairs the real run adapted). Returns the windows
/// scored.
fn replay(
    trace: &FleetTrace,
    cfg: &PipelineConfig,
    adapted: &[(usize, usize)],
    tracer: &mut Tracer,
) -> usize {
    let mut windows = 0usize;
    let mut count = |events: &[Vec<nfv_detect::ScoredEvent>]| {
        windows += events.iter().map(Vec::len).sum::<usize>()
    };
    let n = trace.config.n_vpes;
    let threads = cfg.threads;
    let m1 = month_start(1);
    let tickets: Vec<Vec<&Ticket>> = (0..n).map(|v| trace.tickets_for(v)).collect();
    let msgs = |v: usize| trace.messages(v);

    // Codec mined from an interleaved month-0 sample.
    let per_vpe = (cfg.codec_sample / n).max(1);
    let sample: Vec<SyslogMessage> = (0..n)
        .flat_map(|v| msgs(v).iter().take_while(|m| m.timestamp < m1).take(per_vpe).cloned())
        .collect();
    let mut codec = tracer.time("codec.train", || LogCodec::train(&sample, cfg.spare_vocab));
    let vocab = codec.vocab_size();
    let mut consumed: Vec<usize> =
        (0..n).map(|v| msgs(v).partition_point(|m| m.timestamp < m1)).collect();
    let mut trimmed = vec![0usize; n];
    let mut streams: Vec<LogStream> = tracer.time("codec.encode", || {
        (0..n).map(|v| codec.encode_stream(&msgs(v)[..consumed[v]])).collect()
    });

    let grouping = tracer.time("grouping.cluster", || {
        if cfg.customize {
            Grouping::cluster(&streams, vocab, 0, m1, 2..=6, cfg.seed)
        } else {
            Grouping::single(n)
        }
    });
    let members = grouping.members();
    let pooled = |streams: &[LogStream], g: usize, start: u64, end: u64| -> Vec<LogStream> {
        members[g]
            .iter()
            .map(|&v| ticket_free(&streams[v], &tickets[v], cfg.train_exclusion, start, end))
            .collect()
    };
    let mut detectors: Vec<Box<dyn AnomalyDetector>> = Vec::new();
    for g in 0..grouping.k {
        let mut c = cfg.lstm.clone();
        c.vocab = vocab;
        c.threads = threads;
        c.seed ^= (g as u64) << 17;
        let mut det = LstmDetector::new(c);
        let pool = pooled(&streams, g, 0, m1);
        tracer.time("lstm_detector.fit", || det.fit(&pool.iter().collect::<Vec<_>>()));
        detectors.push(Box::new(det));
    }
    let mut store = GroupModelStore::new(grouping, detectors);
    for g in 0..store.k() {
        let scores =
            tracer.time("group_store.score", || store.score_group(g, &streams, 0, m1, threads));
        count(&scores);
        store.trigger[g] = quantile(&scores, cfg.trigger_quantile);
    }

    let margin = cfg.lstm.window + 1;
    for m in 1..trace.config.months {
        let (m_start, m_end) = (month_start(m), month_start(m + 1));
        for (v, s) in streams.iter_mut().enumerate() {
            let drop = s.len().saturating_sub(margin);
            s.drop_front(drop);
            trimmed[v] += drop;
        }
        tracer.time("codec.encode", || {
            for (v, s) in streams.iter_mut().enumerate() {
                let hi = msgs(v).partition_point(|msg| msg.timestamp < m_end);
                s.append(codec.encode_stream(&msgs(v)[consumed[v]..hi]));
                consumed[v] = hi;
            }
        });
        let per_vpe_events = tracer
            .time("group_store.score", || store.score_fleet(&streams, m_start, m_end, threads));
        count(&per_vpe_events);
        tracer.time("mapping.map", || {
            for g in 0..store.k() {
                for &v in &store.members[g] {
                    let clusters =
                        warning_clusters(&per_vpe_events[v], store.trigger[g], &cfg.mapping);
                    let own: Vec<Ticket> = tickets[v].iter().map(|&&t| t).collect();
                    std::hint::black_box(map_clusters(&clusters, &own, &cfg.mapping));
                }
            }
        });
        for &(_, g) in adapted.iter().filter(|(am, _)| *am == m) {
            let week_end = m_start + cfg.adapt_span;
            let week: Vec<SyslogMessage> = members[g]
                .iter()
                .flat_map(|&v| {
                    let all = msgs(v);
                    let lo = all.partition_point(|x| x.timestamp < m_start);
                    let hi = all.partition_point(|x| x.timestamp < week_end);
                    all[lo..hi].to_vec()
                })
                .collect();
            tracer.time("codec.train", || codec.refresh(&week));
            tracer.time("codec.encode", || {
                for &v in &members[g] {
                    let hi = msgs(v).partition_point(|x| x.timestamp < m_end);
                    streams[v] = codec.encode_stream(&msgs(v)[trimmed[v]..hi]);
                    consumed[v] = hi;
                }
            });
            let pool = pooled(&streams, g, m_start, week_end);
            tracer.time("lstm_detector.adapt", || {
                store.detectors[g].adapt(&pool.iter().collect::<Vec<_>>())
            });
            let (rescored, scores) = tracer.time("group_store.score", || {
                (
                    store.score_group(g, &streams, week_end, m_end, threads),
                    store.score_group(g, &streams, m_start, week_end, threads),
                )
            });
            count(&rescored);
            count(&scores);
            store.trigger[g] = quantile(&scores, cfg.trigger_quantile);
        }
        for g in 0..store.k() {
            let pool = pooled(&streams, g, m_start, m_end);
            tracer.time("lstm_detector.update", || {
                store.detectors[g].update(&pool.iter().collect::<Vec<_>>())
            });
        }
    }
    windows
}

/// The `q`-quantile of every score (the pipeline's trigger
/// calibration); +inf when there are none.
fn quantile(events: &[Vec<nfv_detect::ScoredEvent>], q: f32) -> f32 {
    let mut scores: Vec<f64> = events.iter().flatten().map(|e| e.score as f64).collect();
    if scores.is_empty() {
        return f32::INFINITY;
    }
    stats::quantile(&mut scores, q as f64) as f32
}
