//! The `fleet-month` workload: one month of a `MegaFleet` with a few
//! thousand vPEs, one vPE resident at a time. Each vPE's log is
//! synthesized, encoded with the shared codec and trimmed to month 1
//! plus its scoring context; then `GroupModelStore::score_fleet` scores
//! the month across vPEs in one batched call per group.
//!
//! The month is repeated for `--seconds`; every repetition must score
//! the same bits, and the batched scores of a fixed sample of vPEs must
//! equal the per-vPE `score` reference bit for bit.

use crate::layers::{self, timed_setup};
use crate::probe;
use crate::report::Report;
use crate::stats::{self, Digest};
use crate::trace::Tracer;
use crate::Opts;
use nfv_detect::{
    AnomalyDetector, GroupModelStore, Grouping, LogCodec, LstmDetector, LstmDetectorConfig,
    ScoredEvent,
};
use nfv_simnet::{MegaFleet, SimConfig};
use nfv_syslog::time::month_start;
use nfv_syslog::LogStream;
use std::time::{Duration, Instant};

/// vPEs in the fleet.
const VPES: usize = 1_000;
/// Month-0 trainers per behaviour group.
const TRAINERS_PER_GROUP: usize = 4;
/// vPEs sampled, evenly across the fleet, to mine the shared codec.
const CODEC_SAMPLE_VPES: usize = 32;
/// Every `GATE_STRIDE`-th vPE is checked against the per-vPE path in
/// the end-to-end run (the traced run checks every vPE).
const GATE_STRIDE: usize = 16;
/// LSTM window.
const WINDOW: usize = 6;

/// The fleet, its shared codec and its per-group models.
struct Fleet {
    fleet: MegaFleet,
    codec: LogCodec,
    store: GroupModelStore,
}

fn setup(seed: u64, vpes: usize, threads: usize) -> Fleet {
    let fleet = MegaFleet::new(SimConfig::mega(vpes, 2, seed));
    let m1 = month_start(1);
    let stride = (vpes / CODEC_SAMPLE_VPES).max(1);
    let sample: Vec<_> = (0..vpes)
        .step_by(stride)
        .flat_map(|v| fleet.synthesize(v).into_iter().filter(|m| m.timestamp < m1))
        .collect();
    let codec = LogCodec::train(&sample, 32);
    let grouping = Grouping::from_assignment(fleet.topology.vpes.iter().map(|v| v.group).collect());
    let detectors = grouping
        .members()
        .iter()
        .enumerate()
        .map(|(g, members)| {
            let pool: Vec<LogStream> = members
                .iter()
                .take(TRAINERS_PER_GROUP)
                .map(|&v| {
                    let msgs = fleet.synthesize(v);
                    let pre = msgs.partition_point(|m| m.timestamp < m1);
                    codec.encode_stream(&msgs[..pre])
                })
                .collect();
            let mut det = LstmDetector::new(LstmDetectorConfig {
                vocab: codec.vocab_size(),
                window: WINDOW,
                embed_dim: 8,
                hidden: 16,
                epochs: 1,
                max_train_windows: 4_000,
                threads,
                seed: seed + 100 + g as u64,
                ..Default::default()
            });
            det.fit(&pool.iter().collect::<Vec<_>>());
            Box::new(det) as Box<dyn AnomalyDetector>
        })
        .collect();
    Fleet { fleet, codec, store: GroupModelStore::new(grouping, detectors) }
}

/// One month of the fleet.
struct Month {
    synth: Duration,
    encode: Duration,
    score: Duration,
    /// Median probes taken during the encode loop and during scoring.
    probe_encode: f64,
    probe_score: f64,
    wall: Duration,
    lines: usize,
    streams: Vec<LogStream>,
    scored: Vec<Vec<ScoredEvent>>,
}

impl Month {
    /// `fleet_month_s`: encode calls plus the batched scoring call.
    fn seconds(&self) -> f64 {
        (self.encode + self.score).as_secs_f64()
    }

    /// [`Month::seconds`] at the nominal host speed.
    fn normalized_s(&self) -> f64 {
        (self.encode.as_secs_f64() / self.probe_encode
            + self.score.as_secs_f64() / self.probe_score)
            * probe::NOMINAL_MS
    }

    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for events in &self.scored {
            d.u64(events.len() as u64);
            for e in events {
                d.u64(e.time);
                d.u64(e.score.to_bits() as u64);
            }
        }
        d.value()
    }
}

fn month(f: &Fleet, threads: usize, tracer: &mut Tracer) -> Month {
    let (m1, m2) = (month_start(1), month_start(2));
    let n = f.fleet.n_vpes();
    let start = Instant::now();
    let ((streams, synth, encode, lines), probe_encode) = probe::during(1, || {
        let (mut synth, mut encode, mut lines) = (Duration::ZERO, Duration::ZERO, 0);
        let mut streams = Vec::with_capacity(n);
        for v in 0..n {
            let t0 = Instant::now();
            let msgs = tracer.time("simnet.synth", || f.fleet.synthesize(v));
            let t1 = Instant::now();
            let mut stream = tracer.time("codec.encode", || f.codec.encode_stream(&msgs));
            let t2 = Instant::now();
            synth += t1 - t0;
            encode += t2 - t1;
            lines += msgs.len();
            let pre = stream.records().partition_point(|r| r.time < m1);
            stream.drop_front(pre.saturating_sub(WINDOW + 1));
            streams.push(stream);
        }
        (streams, synth, encode, lines)
    });
    let loop_wall = start.elapsed();
    let ((scored, score), probe_score) = probe::during(threads, || {
        let t = Instant::now();
        let scored =
            tracer.time("group_store.score", || f.store.score_fleet(&streams, m1, m2, threads));
        (scored, t.elapsed())
    });
    Month {
        synth,
        encode,
        score,
        probe_encode,
        probe_score,
        wall: loop_wall + score,
        lines,
        streams,
        scored,
    }
}

/// vPEs whose batched scores differ from the per-vPE `score` path,
/// over every `stride`-th vPE.
fn mismatches(f: &Fleet, m: &Month, stride: usize) -> usize {
    let (m1, m2) = (month_start(1), month_start(2));
    (0..m.streams.len())
        .step_by(stride)
        .filter(|&v| {
            let want = f.store.detector_for(v).score(&m.streams[v], m1, m2);
            let got = &m.scored[v];
            got.len() != want.len()
                || got
                    .iter()
                    .zip(&want)
                    .any(|(a, b)| a.time != b.time || a.score.to_bits() != b.score.to_bits())
        })
        .count()
}

/// The `fleet-month` workload.
pub fn run(opts: &Opts, report: &mut Report) -> Result<(), String> {
    let threads = opts.nproc;
    let vpes = if opts.tiny { 64 } else { VPES };
    let f = timed_setup(report, threads, || setup(opts.seed, vpes, threads));
    let model_setup_s = report.get("setup_s");
    report.threads("score", threads);
    report.threads("train", threads);
    report.threads("probe", threads);
    let mut off = Tracer::new(false);

    // Warm-up month, gated against the per-vPE reference.
    let first = month(&f, threads, &mut off);
    let bad = mismatches(&f, &first, if opts.trace { 1 } else { GATE_STRIDE });
    if bad > 0 {
        return Err(format!("batched scores differ from the per-vPE path on {bad} vPEs"));
    }
    let digest = first.digest();
    let checked = vpes.div_ceil(GATE_STRIDE) as u64;

    if !opts.trace {
        let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
        let (mut wall, mut norm, mut synth, mut probes) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        while Instant::now() < deadline || wall.len() < 3 {
            let m = month(&f, threads, &mut off);
            if m.digest() != digest {
                return Err(format!("month repetition {} scored different bits", wall.len() + 1));
            }
            wall.push(m.seconds() * 1e3);
            norm.push(m.normalized_s() * 1e3);
            synth.push(m.synth.as_secs_f64() * probe::NOMINAL_MS / m.probe_encode);
            probes.push(m.probe_encode);
        }
        report.count(checked + (vpes * wall.len()) as u64, 0);
        report.set("setup_s", model_setup_s + stats::median(&mut synth));
        // Every line's score arrives when `score_fleet` returns, so a
        // line's latency is the month's encode-plus-score time.
        report.latency(&norm, &wall, first.lines as u64, norm.len());
        report.set("lines_per_s", first.lines as f64 * 1e3 / stats::median(&mut norm));
        report.wall(
            "lines_per_s",
            first.lines as f64 * 1e3 / stats::median(&mut wall),
            probe::speed(&probes),
        );
        return Ok(());
    }

    // Traced run: an untraced month for the overhead baseline, then a
    // traced month, then the per-vPE reference on its streams.
    let base = month(&f, threads, &mut off);
    let mut tracer = Tracer::new(true);
    let m = month(&f, threads, &mut tracer);
    if m.digest() != digest || base.digest() != digest {
        return Err("traced month scored different bits".into());
    }
    let t = Instant::now();
    let bad = tracer.time("group_store.per_vpe", || mismatches(&f, &m, 1));
    let per_vpe_s = t.elapsed().as_secs_f64();
    if bad > 0 {
        return Err(format!("batched scores differ from the per-vPE path on {bad} vPEs"));
    }
    report.count(2 * vpes as u64, 0);
    let windows: usize = m.scored.iter().map(Vec::len).sum();
    report.set("trace.overhead_frac", m.normalized_s() / base.normalized_s() - 1.0);
    report.set(
        "trace.covered_frac",
        (m.synth + m.encode + m.score).as_secs_f64() / m.wall.as_secs_f64(),
    );
    report.set("simnet.synth_s", m.synth.as_secs_f64());
    report.set("host.speed", probe::speed(&[m.probe_encode, m.probe_score]));
    report.set("codec.encode_s", m.encode.as_secs_f64());
    report.set("group_store.score_s", m.score.as_secs_f64());
    report.set("group_store.windows_per_s", windows as f64 / m.score.as_secs_f64());
    report.set("group_store.per_vpe_s", per_vpe_s);
    fleet_replays(&f, &m, windows, report);
    report.set("trace.spans", tracer.len() as f64);
    report.spans(&tracer);
    Ok(())
}

/// Stage costs per call on this month's inputs: `encode_text` per
/// message and batched scoring per window from the month's own timings,
/// and the text replays on a sample of vPEs.
fn fleet_replays(f: &Fleet, m: &Month, windows: usize, report: &mut Report) {
    let sample: Vec<_> =
        (0..f.fleet.n_vpes()).step_by(GATE_STRIDE).map(|v| f.fleet.synthesize(v)).collect();
    let lines: Vec<Vec<String>> =
        sample.iter().map(|msgs| msgs.iter().map(|m| m.to_line()).collect()).collect();
    let bodies: Vec<&str> = sample.iter().flatten().map(|m| m.text.as_str()).collect();
    layers::text_stages(&lines, &bodies, &f.codec, report);
    report.set("codec.encode_ns", m.encode.as_nanos() as f64 / m.lines.max(1) as f64);
    report.set("lstm_detector.score_ns", m.score.as_nanos() as f64 / windows.max(1) as f64);
}
