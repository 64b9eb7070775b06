//! The serve workloads.
//!
//! * `serve-heartbeat`: closed loop, one feed, one batch in flight.
//!   Clean `LoadGen` heartbeat chatter (every body unique) through
//!   `ServeCore::offer` then `ServeCore::sweep`, scored by the tiny LSTM
//!   `nfvpredict serve` trains for itself.
//! * `serve-fleet`: open loop from one producer thread into one feed per
//!   simulated vPE. Lines are the simulator's rendered syslog passed
//!   through `TransportSim` (duplicates, reordering, a little
//!   corruption); the model is a codec and LSTM trained on month 0 of the
//!   same fleet. Each line is timed from its due time to the return of
//!   the sweep that delivered it.
//!
//! Traced runs wrap each monitor in [`Timed`], which records a span per
//! `observe_batch` call and keeps the first messages it sees so each
//! stage's public function can be replayed on the run's own inputs.

use crate::layers::{self, frac, per, timed_setup};
use crate::probe;
use crate::report::{Report, LATENCY_LIMIT_MS};
use crate::stats::{self, Digest};
use crate::trace::Tracer;
use crate::Opts;
use nfv_detect::pipeline::ticket_free;
use nfv_detect::serve::{ServeConfig, ServeCore, ServeEvent, ServeState};
use nfv_detect::supervisor::{FeedObserver, FleetEvent, FleetMonitor, FleetMonitorConfig};
use nfv_detect::{
    AnomalyDetector, LogCodec, LstmDetector, LstmDetectorConfig, MappingConfig, ModelBundle,
    OnlineMonitor, SharedModel, Warning,
};
use nfv_simnet::TransportSim;
use nfv_simnet::{FleetTrace, LoadGen, LoadSpec, SimConfig, SimPreset, TransportFaults};
use nfv_syslog::stream::{gap_feature, WindowSet};
use nfv_syslog::time::{month_start, DAY, MINUTE};
use nfv_syslog::{LogRecord, LogStream, SyslogMessage};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Messages a traced run keeps for the stage replays.
const CAPTURE_CAP: usize = 20_000;

// ---------------------------------------------------------------------------
// Observer wrapper and stage replays
// ---------------------------------------------------------------------------

/// Messages handed to one `observe_batch` call, in order.
struct CapturedBatch {
    feed: usize,
    messages: Vec<SyslogMessage>,
}

/// What the traced run records beyond spans.
#[derive(Default)]
struct Capture {
    batches: Vec<CapturedBatch>,
    messages: usize,
    /// Raw lines offered, per feed, for the parse replay.
    lines: Vec<Vec<String>>,
}

/// Monitor wrapper of the traced run: a span around every
/// `observe_batch`, and a copy of the first [`CAPTURE_CAP`] messages.
/// The copy is recorded as its own span so it is not charged to the
/// sweep's self time.
struct Timed {
    inner: OnlineMonitor,
    feed: usize,
    tracer: Rc<RefCell<Tracer>>,
    capture: Rc<RefCell<Capture>>,
}

impl FeedObserver for Timed {
    fn observe(&mut self, message: &SyslogMessage) -> Option<Warning> {
        let mut warnings = Vec::new();
        self.observe_batch(std::slice::from_ref(message), &mut warnings);
        warnings.pop()
    }

    fn observe_batch(&mut self, messages: &[SyslogMessage], warnings: &mut Vec<Warning>) {
        let t0 = Instant::now();
        self.inner.observe_batch(messages, warnings);
        let t1 = Instant::now();
        self.tracer.borrow_mut().record("online.observe_batch", t0, t1);
        let mut cap = self.capture.borrow_mut();
        if cap.messages < CAPTURE_CAP {
            cap.messages += messages.len();
            cap.batches.push(CapturedBatch { feed: self.feed, messages: messages.to_vec() });
            drop(cap);
            self.tracer.borrow_mut().record("bench.capture", t1, Instant::now());
        }
    }

    fn set_stride(&mut self, stride: usize) {
        self.inner.set_stride(stride)
    }
}

/// A feed observer whose monitor counters the benchmark can read.
trait Observed: FeedObserver {
    fn monitor(&self) -> &OnlineMonitor;
}

impl Observed for OnlineMonitor {
    fn monitor(&self) -> &OnlineMonitor {
        self
    }
}

impl Observed for Timed {
    fn monitor(&self) -> &OnlineMonitor {
        &self.inner
    }
}

/// Builds one monitor per feed, wrapped when tracing.
fn monitors<O>(
    shared: &SharedModel,
    feeds: usize,
    wrap: impl Fn(usize, OnlineMonitor) -> O,
) -> Vec<O> {
    (0..feeds).map(|f| wrap(f, shared.monitor())).collect()
}

/// Replays `parse_line`, `encode_text` and `score_events` on the traced
/// run's captured inputs and records the per-stage metrics.
fn replay_stages(cap: &Capture, shared: &SharedModel, report: &mut Report) {
    let bodies: Vec<&str> =
        cap.batches.iter().flat_map(|b| b.messages.iter().map(|m| m.text.as_str())).collect();
    let ids = layers::text_stages(&cap.lines, &bodies, &shared.codec, report);

    // lstm_detector.score_ns: the windows each captured batch produced,
    // rebuilt as the monitor builds them, scored in the same batch sizes.
    let det = &shared.detector;
    let window = det.window();
    let feeds = cap.batches.iter().map(|b| b.feed + 1).max().unwrap_or(0);
    let mut context: Vec<(u64, VecDeque<LogRecord>)> = vec![(0, VecDeque::new()); feeds];
    let mut sets = Vec::new();
    let mut id = ids.iter();
    for b in &cap.batches {
        let (last_time, recent) = &mut context[b.feed];
        let mut batch = Vec::with_capacity(b.messages.len());
        for m in &b.messages {
            *last_time = m.timestamp.max(*last_time);
            batch.push(LogRecord {
                time: *last_time,
                template: *id.next().expect("one id per body"),
            });
        }
        sets.push(windows_of(recent, &batch, window));
        recent.extend(batch);
        while recent.len() > window + 1 {
            recent.pop_front();
        }
    }
    let n_windows: usize = sets.iter().map(|s| s.len()).sum();
    let t = Instant::now();
    for ws in sets.iter().filter(|ws| !ws.is_empty()) {
        std::hint::black_box(det.score_events(ws));
    }
    report.set("lstm_detector.score_ns", per(t.elapsed(), n_windows));
}

/// The windows `OnlineMonitor::observe_batch` scores for `batch` given
/// its trailing context (stride 1).
fn windows_of(recent: &VecDeque<LogRecord>, batch: &[LogRecord], window: usize) -> WindowSet {
    let ctx = recent.len();
    let at = |i: usize| if i < ctx { recent[i] } else { batch[i - ctx] };
    let mut ws = WindowSet::default();
    for (pos, record) in batch.iter().enumerate() {
        let g = ctx + pos;
        if g < window + 1 {
            continue;
        }
        let ids = (g - window..g).map(|i| at(i).template).collect();
        let gaps = (g - window..g).map(|i| gap_feature(at(i).time - at(i - 1).time)).collect();
        ws.ids.push(ids);
        ws.gaps.push(gaps);
        ws.targets.push(record.template);
        ws.times.push(record.time);
    }
    ws
}

/// Per-layer metrics the serve spans and counters give directly.
fn layer_metrics<O: Observed>(
    core: &ServeCore<O>,
    tracer: &Tracer,
    sweeps_with_lines: u64,
    report: &mut Report,
) {
    let st = core.stats();
    let delivered = st.delivered() as usize;
    let spans = tracer.summary();
    let busy = |name: &str| spans.get(name).map_or(0.0, |s| s.busy_ns);
    let sweep = spans.get("serve.sweep").copied().unwrap_or_default();
    let capture = busy("bench.capture");
    report.set("spsc.offer_ns", busy("spsc.offer") / st.lines_in().max(1) as f64);
    report.set("serve.sweep_ns", (sweep.busy_ns - capture) / delivered.max(1) as f64);
    report.set("supervisor.admit_ns", sweep.self_ns / delivered.max(1) as f64);
    report.set("serve.lines_per_sweep", delivered as f64 / sweeps_with_lines.max(1) as f64);
    report.set(
        "serve.peak_occupancy",
        st.feeds.iter().map(|f| f.peak_occupancy).max().unwrap_or(0) as f64,
    );
    report.set("serve.dropped", st.dropped() as f64);
    report.set("serve.degraded_episodes", st.degraded_episodes as f64);

    let (mut seen, mut dups, mut reorders, mut parse_errors, mut windows, mut observed) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for f in 0..core.fleet().feed_count() {
        let h = core.fleet().health(f);
        seen += h.messages + h.parse_errors + h.duplicates_dropped + h.skipped;
        dups += h.duplicates_dropped;
        reorders += h.reorders_absorbed;
        parse_errors += h.parse_errors;
        if let Some(o) = core.fleet().observer(f) {
            windows += o.monitor().windows_scored();
            observed += o.monitor().messages_seen();
        }
    }
    let observe_ns = busy("online.observe_batch");
    report.set("supervisor.dup_frac", frac(dups as usize, seen as usize));
    report.set("supervisor.reorder_frac", frac(reorders as usize, seen as usize));
    report.set("supervisor.parse_error_frac", frac(parse_errors as usize, seen as usize));
    report.set("online.observe_ns", observe_ns / observed.max(1) as f64);
    report.set("online.windows_per_line", windows as f64 / observed.max(1) as f64);
}

/// `online.self_ns`: observe time per message minus the replayed encode
/// and score costs, leaving window build plus the cluster rule.
fn online_self(report: &mut Report) {
    let self_ns = report.get("online.observe_ns")
        - report.get("codec.encode_ns")
        - report.get("online.windows_per_line") * report.get("lstm_detector.score_ns");
    report.set("online.self_ns", self_ns);
}

/// Checks every feed's ledger after `finish`: `lines_in == delivered +
/// dropped`, and returns lines dropped plus windows stride-skipped.
fn ledger<O: Observed>(core: &ServeCore<O>) -> Result<u64, String> {
    let st = core.stats();
    let mut lost = 0;
    for (f, s) in st.feeds.iter().enumerate() {
        if s.lines_in != s.delivered + s.dropped() {
            return Err(format!(
                "feed {} ledger broken: lines_in {} != delivered {} + dropped {}",
                f,
                s.lines_in,
                s.delivered,
                s.dropped()
            ));
        }
        lost += s.dropped();
        if let Some(o) = core.fleet().observer(f) {
            lost += o.monitor().windows_stride_skipped();
        }
    }
    Ok(lost)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------------
// serve-heartbeat
// ---------------------------------------------------------------------------

/// Lines per offered batch (one batch in flight).
const HEARTBEAT_BATCH: u64 = 512;

/// The monitor `nfvpredict serve` self-trains when given no model:
/// cyclic heartbeat chatter, window-4 LSTM, threshold just above every
/// training score.
fn self_trained(gen: &LoadGen) -> SharedModel {
    let ticks = (1200 / gen.spec().base_rate.max(1)).max(4);
    let train = gen.training_messages(ticks);
    let codec = LogCodec::train(&train, 4);
    let mut det = LstmDetector::new(LstmDetectorConfig {
        vocab: codec.vocab_size(),
        window: 4,
        embed_dim: 6,
        hidden: 10,
        epochs: 3,
        max_train_windows: 2000,
        threads: 1,
        ..Default::default()
    });
    let stream = codec.encode_stream(&train);
    det.fit(&[&stream]);
    let max_score = det.score(&stream, 0, u64::MAX).iter().map(|e| e.score).fold(0.0f32, f32::max);
    ModelBundle::pack(&codec, &det, max_score * 1.05, &MappingConfig::default())
        .try_unpack_shared()
        .expect("freshly packed bundle unpacks")
}

struct HeartbeatPass {
    lines: u64,
    /// Offer-start to sweep-return time of each batch, ms.
    round_trips: Vec<f64>,
    /// Offer-start to sweep-start time of each batch, ms.
    waits: Vec<f64>,
    /// Host-speed probe taken after each batch, ms.
    probes: Vec<f64>,
    busy: Duration,
    lost: u64,
}

/// One closed-loop pass of `seconds` over `gen` starting at `tick`.
fn heartbeat_pass<O: Observed>(
    mut core: ServeCore<O>,
    gen: &mut LoadGen,
    tick: &mut u64,
    seconds: f64,
    tracer: &Rc<RefCell<Tracer>>,
    mut keep_lines: Option<&mut Vec<String>>,
) -> Result<(HeartbeatPass, ServeCore<O>), String> {
    let mut pass = HeartbeatPass {
        lines: 0,
        round_trips: Vec::new(),
        waits: Vec::new(),
        probes: Vec::new(),
        busy: Duration::ZERO,
        lost: 0,
    };
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let lines = gen.tick_lines(*tick, 0);
        *tick += 1;
        let t0 = Instant::now();
        let h = tracer.borrow_mut().open("spsc.offer");
        for line in &lines {
            core.offer(0, line).map_err(|e| e.to_string())?;
        }
        tracer.borrow_mut().close(h);
        pass.waits.push(ms(t0.elapsed()));
        let h = tracer.borrow_mut().open("serve.sweep");
        core.sweep();
        tracer.borrow_mut().close(h);
        let rt = t0.elapsed();
        pass.busy += rt;
        pass.round_trips.push(ms(rt));
        pass.lines += lines.len() as u64;
        pass.probes.push(probe::probe_ms());
        if let Some(keep) = keep_lines.as_deref_mut() {
            if keep.len() < CAPTURE_CAP {
                keep.extend(lines);
            }
        }
    }
    core.finish();
    pass.lost = ledger(&core)?;
    let st = core.stats();
    if st.state != ServeState::Healthy {
        return Err("heartbeat run ended degraded".into());
    }
    let h = core.fleet().health(0);
    if h.messages != st.delivered() {
        return Err(format!(
            "clean heartbeat traffic lost lines in admission: {} delivered, {} scored",
            st.delivered(),
            h.messages
        ));
    }
    Ok((pass, core))
}

fn heartbeat_core<O: Observed>(monitors: Vec<O>) -> ServeCore<O> {
    let fleet =
        FleetMonitor::new(monitors, FleetMonitorConfig { reorder_window: 0, ..Default::default() });
    ServeCore::new(fleet, ServeConfig { capacity: 8192, tick_budget: 2048, ..Default::default() })
}

/// The `serve-heartbeat` workload.
pub fn heartbeat(opts: &Opts, report: &mut Report) -> Result<(), String> {
    let spec =
        LoadSpec { feeds: 1, base_rate: HEARTBEAT_BATCH, seed: opts.seed, ..Default::default() };
    // The seed picks where in the endless heartbeat sequence the run
    // starts, so each seed offers different (still unique) bodies.
    let mut tick = (opts.seed % 4096) * 1024;
    let shared = timed_setup(report, 1, || self_trained(&LoadGen::new(spec.clone())));
    let mut gen = LoadGen::new(spec.clone());
    gen.seek(tick);
    report.threads("scorer", 1);

    let off = Rc::new(RefCell::new(Tracer::new(false)));
    if !opts.trace {
        let core = heartbeat_core(monitors(&shared, 1, |_, m| m));
        let (pass, _) = heartbeat_pass(core, &mut gen, &mut tick, opts.seconds, &off, None)?;
        let over = pass.round_trips.iter().filter(|&&t| t > LATENCY_LIMIT_MS).count() as u64;
        report.count(pass.lines, (pass.lost + over * HEARTBEAT_BATCH).min(pass.lines));
        let norm = probe::normalize(&pass.round_trips, &pass.probes, 4);
        report.set("lines_per_s", pass.lines as f64 * 1e3 / norm.iter().sum::<f64>());
        report.wall(
            "lines_per_s",
            pass.lines as f64 / pass.busy.as_secs_f64(),
            probe::speed(&pass.probes),
        );
        report.latency(&norm, &pass.round_trips, HEARTBEAT_BATCH, opts.seconds as usize);
        return Ok(());
    }

    // Traced run: an untraced half for the overhead baseline, then the
    // traced half.
    let core = heartbeat_core(monitors(&shared, 1, |_, m| m));
    let (base, _) = heartbeat_pass(core, &mut gen, &mut tick, opts.seconds / 2.0, &off, None)?;
    let tracer = Rc::new(RefCell::new(Tracer::new(true)));
    let capture = Rc::new(RefCell::new(Capture { lines: vec![Vec::new()], ..Default::default() }));
    let core = heartbeat_core(monitors(&shared, 1, |feed, inner| Timed {
        inner,
        feed,
        tracer: Rc::clone(&tracer),
        capture: Rc::clone(&capture),
    }));
    let mut kept = Vec::new();
    let (pass, core) =
        heartbeat_pass(core, &mut gen, &mut tick, opts.seconds / 2.0, &tracer, Some(&mut kept))?;
    capture.borrow_mut().lines[0] = kept;
    report.count(pass.lines + base.lines, pass.lost + base.lost);

    let tracer = tracer.borrow();
    layer_metrics(&core, &tracer, pass.round_trips.len() as u64, report);
    let per_line = |p: &HeartbeatPass| {
        probe::normalize(&p.round_trips, &p.probes, 4).iter().sum::<f64>() / p.lines.max(1) as f64
    };
    report.set("trace.overhead_frac", per_line(&pass) / per_line(&base) - 1.0);
    let spans = tracer.summary();
    let covered = spans.get("spsc.offer").map_or(0.0, |s| s.busy_ns)
        + spans.get("serve.sweep").map_or(0.0, |s| s.busy_ns);
    report.set("trace.covered_frac", covered / pass.busy.as_nanos() as f64);
    report.set(
        "serve.busy_frac",
        spans.get("serve.sweep").map_or(0.0, |s| s.busy_ns) / pass.busy.as_nanos() as f64,
    );
    let (mut waits, n) = (pass.waits.clone(), pass.waits.len());
    report.set("serve.queue_wait_p50_ms", stats::quantile(&mut waits, 0.5));
    report.set("serve.queue_wait_p99_ms", stats::quantile(&mut waits, 0.99));
    report.set("serve.latency_samples", (n as u64 * HEARTBEAT_BATCH) as f64);
    report.set("trace.spans", tracer.len() as f64);
    report.set("host.speed", probe::speed(&pass.probes));
    replay_stages(&capture.borrow(), &shared, report);
    online_self(report);
    report.spans(&tracer);
    Ok(())
}

// ---------------------------------------------------------------------------
// serve-fleet
// ---------------------------------------------------------------------------

/// Feeds, one per simulated vPE.
const FLEET_FEEDS: usize = 8;
/// Arrival tick of the open loop: every feed's lines for a tick are due
/// at the tick's start.
const TICK: Duration = Duration::from_millis(10);
/// Offered rate of the latency phase, lines/s summed over feeds.
const REFERENCE_RATE: usize = 8_000;
/// Share of `--seconds` spent in the reference-rate phase; the
/// saturation phase takes the rest of the measured time.
const REFERENCE_SHARE: f64 = 0.6;
/// Per-feed ring fill the saturation producer stays under: below the
/// shed (0.875) and degrade (0.75 of all rings) watermarks, so no line
/// is dropped and scoring never strides.
const SATURATION_FILL: f64 = 0.5;
/// Scorer sleep when every ring is empty, as in `nfvpredict serve`.
const IDLE: Duration = Duration::from_millis(1);
/// Per-feed ring capacity of the fleet runtime.
const FLEET_CAPACITY: usize = 4096;

/// Transport chaos on the served lines: duplicates, bounded reordering
/// and a little corruption; no loss (a lost line never reaches the
/// runtime, so it exercises nothing).
fn fleet_faults() -> TransportFaults {
    TransportFaults { loss: 0.0, dup: 0.02, reorder: 30, corrupt: 0.002, skew: 0 }
}

/// Model and input lines of `serve-fleet`.
struct FleetInput {
    shared: SharedModel,
    /// Month-1 lines of each vPE after transport faults, one feed each.
    lines: Vec<Vec<String>>,
}

/// Simulates the fleet, trains the codec and LSTM on month 0 the way
/// `nfvpredict train` does, and renders month 1 through the transport.
fn fleet_setup(seed: u64, threads: usize, tiny: bool) -> FleetInput {
    let mut sim = SimConfig::preset(SimPreset::Fast, seed);
    sim.n_vpes = FLEET_FEEDS;
    sim.months = 2;
    sim.mean_log_gap = if tiny { 20.0 } else { 2.0 } * MINUTE as f64;
    let trace = FleetTrace::simulate(sim);
    let m1 = month_start(1);
    let month0: Vec<&[SyslogMessage]> = (0..FLEET_FEEDS)
        .map(|v| {
            let msgs = trace.messages(v);
            &msgs[..msgs.partition_point(|m| m.timestamp < m1)]
        })
        .collect();
    let sample: Vec<SyslogMessage> =
        month0.iter().flat_map(|msgs| msgs.iter().take(4_000).cloned()).collect();
    let codec = LogCodec::train(&sample, 24);
    let streams: Vec<LogStream> = month0
        .iter()
        .enumerate()
        .map(|(v, msgs)| {
            ticket_free(&codec.encode_stream(msgs), &trace.tickets_for(v), 3 * DAY, 0, m1)
        })
        .collect();
    let refs: Vec<&LogStream> = streams.iter().collect();
    let mut det = LstmDetector::new(LstmDetectorConfig {
        vocab: codec.vocab_size(),
        window: 6,
        embed_dim: 8,
        hidden: 16,
        epochs: 1,
        oversample_rounds: 1,
        max_train_windows: if tiny { 500 } else { 4_000 },
        threads,
        seed,
        ..Default::default()
    });
    det.fit(&refs);
    // Threshold at the 99.5th percentile of month-0 scores, on a prefix
    // of each stream to keep set-up short.
    let head: Vec<LogStream> = streams
        .iter()
        .map(|s| LogStream::from_records(s.records()[..s.len().min(1_500)].to_vec()))
        .collect();
    let mut scores: Vec<f64> = det
        .score_batch(&head.iter().collect::<Vec<_>>(), 0, u64::MAX, threads)
        .into_iter()
        .flatten()
        .map(|e| e.score as f64)
        .collect();
    let threshold = stats::quantile(&mut scores, 0.995) as f32;
    det.set_threads(1);
    let shared = ModelBundle::pack(&codec, &det, threshold, &MappingConfig::default())
        .try_unpack_shared()
        .expect("freshly packed bundle unpacks");
    let transport = TransportSim::new(fleet_faults(), seed);
    let lines = (0..FLEET_FEEDS)
        .map(|v| transport.deliver(v, &trace.messages(v)[month0[v].len()..]))
        .collect();
    FleetInput { shared, lines }
}

fn fleet_core<O: Observed>(monitors: Vec<O>) -> ServeCore<O> {
    let cfg = FleetMonitorConfig { reorder_window: fleet_faults().reorder, ..Default::default() };
    ServeCore::new(
        FleetMonitor::new(monitors, cfg),
        ServeConfig { capacity: FLEET_CAPACITY, ..Default::default() },
    )
}

/// Per-feed digests of the warnings in `events`, in arrival order.
fn note_warnings(events: &[ServeEvent], digests: &mut [Digest], warnings: &mut u64) {
    for ev in events {
        if let ServeEvent::Fleet { event: FleetEvent::Warning { feed, warning }, .. } = ev {
            let d = &mut digests[*feed];
            d.u64(warning.start);
            d.u64(warning.anomalies as u64);
            d.u64(warning.peak_score.to_bits() as u64);
            d.bytes(warning.peak_text.as_bytes());
            *warnings += 1;
        }
    }
}

/// Result of one open-loop phase.
struct OpenLoop {
    offered: u64,
    /// Due time to sweep return, ms, one sample per delivered line.
    latency: Vec<f64>,
    /// Host-speed probe paired with each latency sample, ms.
    probes: Vec<f64>,
    /// Due time to the start of the delivering sweep, ms.
    waits: Vec<f64>,
    /// Producer lateness per tick, ms.
    late: Vec<f64>,
    sweeps: u64,
    busy: Duration,
    wall: Duration,
    lost: u64,
    degraded: u64,
    digests: Vec<Digest>,
    warnings: u64,
}

impl OpenLoop {
    /// Fails the run when the reference rate shed load or strode.
    fn steady(self) -> Result<OpenLoop, String> {
        if self.degraded > 0 || self.lost > 0 {
            return Err(format!(
                "serve-fleet lost {} lines or degraded at the reference rate of {} lines/s",
                self.lost, REFERENCE_RATE
            ));
        }
        Ok(self)
    }
}

/// Open loop at `rate` lines/s for `ticks` ticks: a producer thread
/// offers each feed's share of a tick at the tick's due time, while
/// this thread sweeps whenever a ring holds a line.
fn open_loop<O: Observed>(
    mut core: ServeCore<O>,
    lines: &[Vec<String>],
    per_tick: usize,
    ticks: usize,
    tracer: &Rc<RefCell<Tracer>>,
) -> Result<(OpenLoop, ServeCore<O>, Tracer), String> {
    let feeds = lines.len();
    let mut ports = Vec::with_capacity(feeds);
    for f in 0..feeds {
        ports.push(core.take_port(f).map_err(|e| e.to_string())?);
    }
    let traced = tracer.borrow().enabled();
    let mut out = OpenLoop {
        offered: (feeds * per_tick * ticks) as u64,
        latency: Vec::with_capacity(feeds * per_tick * ticks),
        probes: Vec::new(),
        waits: Vec::with_capacity(feeds * per_tick * ticks),
        late: Vec::new(),
        sweeps: 0,
        busy: Duration::ZERO,
        wall: Duration::ZERO,
        lost: 0,
        degraded: 0,
        digests: vec![Digest::default(); feeds],
        warnings: 0,
    };
    let start = Instant::now() + Duration::from_millis(5);
    let due = |k: usize| start + TICK * (k / per_tick) as u32;
    let mut done = vec![0usize; feeds];
    // Tick of each latency sample, to pair it with that tick's probe.
    let mut sample_tick: Vec<usize> = Vec::with_capacity(feeds * per_tick * ticks);
    let mut account = |core: &ServeCore<O>, s0: Instant, s1: Instant, out: &mut OpenLoop| {
        let st = core.stats();
        for (f, d) in done.iter_mut().enumerate() {
            let now = st.feeds[f].delivered as usize;
            for k in *d..now {
                out.latency.push(ms(s1.saturating_duration_since(due(k))));
                out.waits.push(ms(s0.saturating_duration_since(due(k))));
                sample_tick.push(k / per_tick);
            }
            *d = now;
        }
    };
    // One probe per tick, taken once the tick's lines are scored and the
    // rings are empty, so it never delays a sweep that has work.
    let mut tick_probe: Vec<Option<f64>> = vec![None; ticks];
    let producer_tracer = std::thread::scope(|scope| {
        let producer = scope.spawn(move || {
            let mut tr = Tracer::new(traced);
            let mut late = Vec::with_capacity(ticks);
            for t in 0..ticks {
                let due = start + TICK * t as u32;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                late.push(ms(Instant::now().saturating_duration_since(due)));
                for (f, port) in ports.iter_mut().enumerate() {
                    let h = tr.open("spsc.offer");
                    for line in &lines[f][t * per_tick..(t + 1) * per_tick] {
                        port.offer(line);
                    }
                    tr.close(h);
                }
            }
            (late, tr)
        });
        loop {
            let finished = producer.is_finished();
            if core.backlog() == 0 {
                if finished {
                    break;
                }
                let tick =
                    Instant::now().saturating_duration_since(start).as_nanos() / TICK.as_nanos();
                if let Some(slot @ None) = tick_probe.get_mut(tick as usize) {
                    *slot = Some(probe::probe_ms());
                }
                // Idle like `nfvpredict serve`'s scorer loop.
                std::thread::sleep(IDLE);
                continue;
            }
            let h = tracer.borrow_mut().open("serve.sweep");
            let s0 = Instant::now();
            let events = core.sweep();
            let s1 = Instant::now();
            tracer.borrow_mut().close(h);
            out.sweeps += 1;
            out.busy += s1 - s0;
            note_warnings(&events, &mut out.digests, &mut out.warnings);
            account(&core, s0, s1, &mut out);
        }
        let (late, tr) = producer.join().expect("producer thread panicked");
        out.late = late;
        tr
    });
    let s0 = Instant::now();
    let events = core.finish();
    let s1 = Instant::now();
    note_warnings(&events, &mut out.digests, &mut out.warnings);
    account(&core, s0, s1, &mut out);
    out.wall = s1.saturating_duration_since(start);
    out.lost = ledger(&core)?;
    // A tick without its own probe takes the nearest earlier one.
    let mut last = tick_probe.iter().flatten().next().copied().unwrap_or(probe::NOMINAL_MS);
    let filled: Vec<f64> = tick_probe
        .iter()
        .map(|p| {
            last = p.unwrap_or(last);
            last
        })
        .collect();
    out.probes = sample_tick.iter().map(|&t| filled[t.min(ticks - 1)]).collect();
    out.degraded = core.stats().degraded_episodes;
    Ok((out, core, producer_tracer))
}

/// The same lines in deterministic step mode: each tick offered then
/// swept to empty. Returns the per-feed warning digests.
fn step_replay(
    shared: &SharedModel,
    lines: &[Vec<String>],
    per_tick: usize,
    ticks: usize,
) -> Result<Vec<Digest>, String> {
    let feeds = lines.len();
    let mut core = fleet_core(monitors(shared, feeds, |_, m| m));
    let mut digests = vec![Digest::default(); feeds];
    let mut warnings = 0;
    for t in 0..ticks {
        for (f, feed_lines) in lines.iter().enumerate() {
            for line in &feed_lines[t * per_tick..(t + 1) * per_tick] {
                core.offer(f, line).map_err(|e| e.to_string())?;
            }
        }
        while core.backlog() > 0 {
            note_warnings(&core.sweep(), &mut digests, &mut warnings);
        }
    }
    note_warnings(&core.finish(), &mut digests, &mut warnings);
    Ok(digests)
}

/// Closed-loop saturation: the producer offers as fast as the rings
/// take lines while keeping each under [`SATURATION_FILL`]. Returns
/// delivered lines per second, lines offered, and lines lost.
fn saturation(
    shared: &SharedModel,
    lines: &[Vec<String>],
    seconds: f64,
    report: &mut Report,
) -> Result<(f64, u64, u64), String> {
    let feeds = lines.len();
    let mut core = fleet_core(monitors(shared, feeds, |_, m| m));
    let mut ports = Vec::with_capacity(feeds);
    for f in 0..feeds {
        ports.push(core.take_port(f).map_err(|e| e.to_string())?);
    }
    let limit = (FLEET_CAPACITY as f64 * SATURATION_FILL) as usize;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut sweeps, mut probes, mut delivered) = (Vec::new(), Vec::new(), 0u64);
    let (mut probe, mut last_probe) = (probe::probe_ms(), Instant::now());
    std::thread::scope(|scope| {
        let producer = scope.spawn(move || {
            let mut next = vec![0usize; feeds];
            while Instant::now() < deadline && next.iter().zip(lines).any(|(n, l)| *n < l.len()) {
                let mut offered = false;
                for (f, port) in ports.iter_mut().enumerate() {
                    while next[f] < lines[f].len() && port.occupancy() < limit {
                        port.offer(&lines[f][next[f]]);
                        next[f] += 1;
                        offered = true;
                    }
                }
                if !offered {
                    std::hint::spin_loop();
                }
            }
        });
        loop {
            let finished = producer.is_finished();
            if core.backlog() == 0 {
                if finished {
                    break;
                }
                std::hint::spin_loop();
                continue;
            }
            if last_probe.elapsed() >= TICK {
                probe = probe::probe_ms();
                last_probe = Instant::now();
            }
            let before = core.stats().delivered();
            let t = Instant::now();
            core.sweep();
            sweeps.push(ms(t.elapsed()));
            probes.push(probe);
            delivered += core.stats().delivered() - before;
        }
        producer.join().expect("producer thread panicked");
    });
    core.finish();
    let lost = ledger(&core)?;
    let st = core.stats();
    if st.degraded_episodes > 0 {
        return Err("saturation phase entered degraded mode".into());
    }
    // Lines delivered per second of sweeping, at the nominal host speed.
    let norm: f64 = probe::normalize(&sweeps, &probes, 4).iter().sum();
    let rate = delivered as f64 * 1e3 / norm;
    let wall = delivered as f64 * 1e3 / sweeps.iter().sum::<f64>();
    report.wall("lines_per_s", wall, probe::speed(&probes));
    Ok((rate, st.lines_in(), lost))
}

/// The `serve-fleet` workload.
pub fn fleet(opts: &Opts, report: &mut Report) -> Result<(), String> {
    let threads = opts.nproc;
    let input = timed_setup(report, threads, || fleet_setup(opts.seed, threads, opts.tiny));
    report.threads("setup_train", threads);
    report.threads("producer", 1);
    report.threads("scorer", 1);
    let per_tick = (REFERENCE_RATE * TICK.as_millis() as usize / 1000 / FLEET_FEEDS).max(1);
    let available = input.lines.iter().map(|l| l.len()).min().unwrap_or(0) / per_tick;
    let ref_seconds = opts.seconds * if opts.trace { 0.5 } else { REFERENCE_SHARE };
    let ticks = ((ref_seconds / TICK.as_secs_f64()) as usize).min(available);
    if ticks == 0 {
        return Err("serve-fleet input too short for one tick".into());
    }

    let off = Rc::new(RefCell::new(Tracer::new(false)));
    if !opts.trace {
        let core = fleet_core(monitors(&input.shared, FLEET_FEEDS, |_, m| m));
        let run = open_loop(core, &input.lines, per_tick, ticks, &off)?.0.steady()?;
        let replay = step_replay(&input.shared, &input.lines, per_tick, ticks)?;
        for (f, (a, b)) in run.digests.iter().zip(&replay).enumerate() {
            if a.value() != b.value() {
                return Err(format!("feed {} warnings differ from the step-mode replay", f));
            }
        }
        let sat_seconds = opts.seconds * (1.0 - REFERENCE_SHARE);
        let (rate, sat_lines, sat_lost) =
            saturation(&input.shared, &input.lines, sat_seconds, report)?;
        let over = run.latency.iter().filter(|&&l| l > LATENCY_LIMIT_MS).count() as u64;
        report.count(run.offered + sat_lines, run.lost + over + sat_lost);
        report.set("lines_per_s", rate);
        eprintln!(
            "serve-fleet: {} lines at {} lines/s, {} warnings, saturation {:.0} lines/s",
            run.offered, REFERENCE_RATE, run.warnings, rate
        );
        let norm = probe::normalize(&run.latency, &run.probes, 4);
        report.latency(&norm, &run.latency, 1, (ref_seconds * 4.0).ceil() as usize);
        return Ok(());
    }

    // Traced run: the untraced reference phase for the overhead
    // baseline, then the same lines traced.
    let core = fleet_core(monitors(&input.shared, FLEET_FEEDS, |_, m| m));
    let base = open_loop(core, &input.lines, per_tick, ticks, &off)?.0.steady()?;
    let tracer = Rc::new(RefCell::new(Tracer::new(true)));
    let capture = Rc::new(RefCell::new(Capture::default()));
    let core = fleet_core(monitors(&input.shared, FLEET_FEEDS, |feed, inner| Timed {
        inner,
        feed,
        tracer: Rc::clone(&tracer),
        capture: Rc::clone(&capture),
    }));
    let (run, core, producer) = open_loop(core, &input.lines, per_tick, ticks, &tracer)?;
    let mut run = run.steady()?;
    report.count(run.offered + base.offered, run.lost + base.lost);
    let keep = CAPTURE_CAP / FLEET_FEEDS;
    capture.borrow_mut().lines =
        input.lines.iter().map(|l| l[..l.len().min(keep)].to_vec()).collect();
    let mut tracer = tracer.borrow_mut();
    tracer.merge(producer);
    layer_metrics(&core, &tracer, run.sweeps, report);
    // Scorer time per line at the nominal host speed, traced over not.
    let per_line =
        |r: &OpenLoop| r.busy.as_secs_f64() / r.offered.max(1) as f64 * probe::speed(&r.probes);
    report.set("trace.overhead_frac", per_line(&run) / per_line(&base) - 1.0);
    report.set("serve.busy_frac", run.busy.as_secs_f64() / run.wall.as_secs_f64());
    report.set("trace.covered_frac", tracer.busy_s("serve.sweep") / run.wall.as_secs_f64());
    report.set("serve.queue_wait_p50_ms", stats::quantile(&mut run.waits, 0.5));
    report.set("serve.queue_wait_p99_ms", stats::quantile(&mut run.waits, 0.99));
    report.set("serve.latency_samples", run.latency.len() as f64);
    report.set("load.late_ms", stats::quantile(&mut run.late, 0.99));
    report.set("host.speed", probe::speed(&run.probes));
    let sustained = ladder(&input, report)?;
    report.set("serve.sustained_lines_per_s", sustained as f64);
    report.set("trace.spans", tracer.len() as f64);
    replay_stages(&capture.borrow(), &input.shared, report);
    online_self(report);
    report.spans(&tracer);
    Ok(())
}

/// Offered rates of the traced run's ladder, lines/s over all feeds.
const LADDER: [usize; 4] =
    [REFERENCE_RATE, 2 * REFERENCE_RATE, 4 * REFERENCE_RATE, 8 * REFERENCE_RATE];

/// One second of open loop at each [`LADDER`] rate, fresh monitors each
/// time, stopping at the first rate that drops a line, degrades, or puts
/// `p99_ms` over the latency limit. Returns the highest rate that did
/// none of these and records every step in the run record.
fn ladder(input: &FleetInput, report: &mut Report) -> Result<usize, String> {
    let off = Rc::new(RefCell::new(Tracer::new(false)));
    let mut sustained = 0;
    let mut steps = Vec::new();
    for rate in LADDER {
        let per_tick = (rate * TICK.as_millis() as usize / 1000 / FLEET_FEEDS).max(1);
        let ticks = (1.0 / TICK.as_secs_f64()) as usize;
        if input.lines.iter().any(|l| l.len() < per_tick * ticks) {
            break;
        }
        let core = fleet_core(monitors(&input.shared, FLEET_FEEDS, |_, m| m));
        let (run, _, _) = open_loop(core, &input.lines, per_tick, ticks, &off)?;
        let norm = probe::normalize(&run.latency, &run.probes, 4);
        let p99 = stats::windowed_quantile(&norm, 4, 0.99);
        let busy = run.busy.as_secs_f64() / run.wall.as_secs_f64();
        steps.push(serde_json::json!({
            "rate": rate, "p99_ms": p99, "busy_frac": busy,
            "lost": run.lost, "degraded": run.degraded,
        }));
        if run.lost > 0 || run.degraded > 0 || p99 > LATENCY_LIMIT_MS {
            break;
        }
        sustained = rate;
    }
    report.note("ladder", serde_json::Value::Array(steps));
    Ok(sustained)
}
