//! Tier-2 fault-injection matrix: every IO/durability boundary wired
//! with an `nfv_fail` failpoint is driven through its `err`, `torn` and
//! `delay` policies, and each injected fault must either *self-heal*
//! (retry within budget, degrade to warn-and-continue, fall back to an
//! older generation) or surface as a *typed error* — never a panic,
//! never a wrong answer.
//!
//! The file also locks the serve snapshot contract: a run interrupted
//! mid-stream and warm-restarted from its snapshot must produce final
//! stats, health ledgers and observer counters bitwise identical to an
//! uninterrupted run.
//!
//! The failpoint registry is process-global, so every test here
//! serializes on one mutex and starts from a cleared registry.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use nfv_detect::pipeline::{
    run_pipeline, CrashPoint, DetectorKind, PipelineConfig, PipelineError, PipelineEvent,
    PipelineRun,
};
use nfv_detect::seq_detector::LstmDetectorConfig;
use nfv_detect::serve::{ServeConfig, ServeCore, ServeEvent, ServeStats};
use nfv_detect::{
    AnomalyDetector, FeedHealth, FleetMonitor, FleetMonitorConfig, LogCodec, LstmDetector,
    MappingConfig, ModelBundle, OnlineMonitor,
};
use nfv_pool::Pool;
use nfv_simnet::load::{BurstSpec, LoadGen, LoadSpec, WindowSpec};
use nfv_simnet::{FleetTrace, SimConfig, SimPreset, TransportFaults};

/// The registry is process-global; tests must not interleave.
fn lock() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    let guard = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    nfv_fail::clear();
    nfv_fail::set_seed(0);
    guard
}

fn scratch_dir(label: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "nfv_failpoints_{}_{}_{}",
        std::process::id(),
        label,
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// ---------------------------------------------------------------------
// Pipeline checkpoints under injected IO faults
// ---------------------------------------------------------------------

const MONTHS: usize = 4;

fn trace() -> &'static FleetTrace {
    static TRACE: OnceLock<FleetTrace> = OnceLock::new();
    TRACE.get_or_init(|| {
        let mut sim = SimConfig::preset(SimPreset::Fast, 11);
        sim.n_vpes = 3;
        sim.months = MONTHS;
        FleetTrace::simulate(sim)
    })
}

fn pca_cfg() -> PipelineConfig {
    PipelineConfig { detector: DetectorKind::Pca, threads: 1, ..PipelineConfig::default() }
}

/// Uninterrupted, checkpoint-free reference run.
fn baseline() -> &'static PipelineRun {
    static RUN: OnceLock<PipelineRun> = OnceLock::new();
    RUN.get_or_init(|| run_pipeline(trace(), &pca_cfg()).unwrap())
}

/// Bitwise equality of the result surface: event times, score bit
/// patterns, adaptations and surfaced events.
fn assert_same_results(a: &PipelineRun, b: &PipelineRun, label: &str) {
    assert_eq!(a.months.len(), b.months.len(), "{label}: month count");
    for (ma, mb) in a.months.iter().zip(&b.months) {
        assert_eq!(ma.month, mb.month, "{label}: month index");
        for (vpe, (ea, eb)) in ma.per_vpe.iter().zip(&mb.per_vpe).enumerate() {
            assert_eq!(ea.len(), eb.len(), "{label}: month {} vpe {} events", ma.month, vpe);
            for (x, y) in ea.iter().zip(eb.iter()) {
                assert_eq!(x.time, y.time, "{label}: event time");
                assert_eq!(x.score.to_bits(), y.score.to_bits(), "{label}: score bits");
            }
        }
    }
    assert_eq!(a.adaptations, b.adaptations, "{label}: adaptations");
    assert_eq!(a.grouping.assignment, b.grouping.assignment, "{label}: grouping");
}

fn skip_events(run: &PipelineRun) -> Vec<(usize, u32)> {
    run.events
        .iter()
        .filter_map(|e| match e {
            PipelineEvent::CheckpointSkipped { month, attempts } => Some((*month, *attempts)),
            _ => None,
        })
        .collect()
}

#[test]
fn ckpt_save_errors_within_retry_budget_heal_bit_identically() {
    let _g = lock();
    let dir = scratch_dir("heal");
    // Two transient rename failures; the default retry budget is 3
    // attempts per boundary, so the first boundary heals on attempt 3.
    nfv_fail::configure("ckpt.save.rename=err(2)").unwrap();
    let mut cfg = pca_cfg();
    cfg.checkpoint.dir = Some(dir.clone());
    let run = run_pipeline(trace(), &cfg).unwrap();
    assert!(nfv_fail::fired("ckpt.save.rename") == 2, "both injected errors must fire");
    assert!(skip_events(&run).is_empty(), "a healed save must not be reported skipped");
    assert_same_results(baseline(), &run, "healed ckpt saves");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ckpt_save_errors_past_budget_degrade_to_skip_not_abort() {
    let _g = lock();
    let dir = scratch_dir("skip");
    // Every save attempt at every boundary fails: each boundary burns
    // its whole retry budget, reports a typed skip event, and the run
    // still completes with bit-identical results.
    nfv_fail::configure("ckpt.save=err(1000)").unwrap();
    let mut cfg = pca_cfg();
    cfg.checkpoint.dir = Some(dir.clone());
    let run = run_pipeline(trace(), &cfg).unwrap();
    let skips = skip_events(&run);
    assert_eq!(
        skips.len(),
        MONTHS,
        "every boundary (gen 0 + each month) must degrade to a skip: {:?}",
        skips
    );
    assert!(skips.iter().all(|&(_, attempts)| attempts == cfg.checkpoint.retry_attempts));
    assert_same_results(baseline(), &run, "all ckpt saves skipped");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_ckpt_write_from_failpoint_falls_back_on_resume() {
    let _g = lock();
    let dir = scratch_dir("torn");
    // The generation-0 write is torn (truncated but reported as a
    // success — the crash-mid-write failure mode), then the run is
    // killed right after that boundary. Resume must detect the torn
    // file by checksum and fall back — here to a fresh start — and
    // still match the uninterrupted run bit for bit.
    nfv_fail::configure("ckpt.save.write=torn(0.4)").unwrap();
    let mut cfg = pca_cfg();
    cfg.checkpoint.dir = Some(dir.clone());
    cfg.checkpoint.crash = Some(CrashPoint::AfterMonth(0));
    match run_pipeline(trace(), &cfg) {
        Err(PipelineError::CrashInjected(CrashPoint::AfterMonth(0))) => {}
        other => panic!("expected injected crash, got {:?}", other.err().map(|e| e.to_string())),
    }
    assert_eq!(nfv_fail::fired("ckpt.save.write"), 1, "the torn policy must have fired");

    nfv_fail::clear();
    let mut cfg = pca_cfg();
    cfg.checkpoint.dir = Some(dir.clone());
    cfg.checkpoint.resume = true;
    let resumed = run_pipeline(trace(), &cfg).unwrap();
    assert_same_results(baseline(), &resumed, "torn gen-0 fallback");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Model bundle IO under injected faults
// ---------------------------------------------------------------------

/// A tiny LoadGen-cadence spec shared by the bundle and serve tests.
fn serve_spec() -> LoadSpec {
    LoadSpec {
        feeds: 2,
        base_rate: 15,
        bursts: vec![BurstSpec { start: 10, len: 4, mult: 6 }],
        anomalies: vec![WindowSpec { start: 30, len: 3 }],
        faults: TransportFaults::parse("loss=0.05").unwrap(),
        seed: 0xABC,
        ..Default::default()
    }
}

/// One small trained bundle, shared across tests (training is the
/// expensive part; the bundle itself is immutable).
fn bundle() -> &'static ModelBundle {
    static BUNDLE: OnceLock<ModelBundle> = OnceLock::new();
    BUNDLE.get_or_init(|| {
        let train = LoadGen::new(serve_spec()).training_messages(30);
        let codec = LogCodec::train(&train, 4);
        let mut det = LstmDetector::new(LstmDetectorConfig {
            vocab: codec.vocab_size(),
            window: 4,
            embed_dim: 6,
            hidden: 10,
            epochs: 3,
            max_train_windows: 2000,
            ..Default::default()
        });
        let stream = codec.encode_stream(&train);
        det.fit(&[&stream]);
        let max_score =
            det.score(&stream, 0, u64::MAX).iter().map(|e| e.score).fold(0.0f32, f32::max);
        ModelBundle::pack(&codec, &det, max_score * 1.05, &MappingConfig::default())
    })
}

#[test]
fn bundle_load_errors_heal_with_retry_and_fail_typed_past_budget() {
    let _g = lock();
    let dir = scratch_dir("bundle");
    let path = dir.join("model.json");
    bundle().save(&path).unwrap();

    // Two transient read errors heal inside a 3-attempt retry budget.
    nfv_fail::configure("bundle.load=err(2)").unwrap();
    let loaded = ModelBundle::load_with_retry(&path, 3, Duration::from_millis(1));
    assert!(loaded.is_ok(), "2 transient errors must heal in 3 attempts: {:?}", loaded.err());
    assert_eq!(nfv_fail::fired("bundle.load"), 2);

    // A persistent fault exhausts the budget and surfaces typed.
    nfv_fail::clear();
    nfv_fail::configure("bundle.load=err(1000)").unwrap();
    let denied = ModelBundle::load_with_retry(&path, 3, Duration::from_millis(1));
    assert!(denied.is_err(), "a persistent fault must fail typed, not hang or panic");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bundle_torn_write_is_caught_by_checksum_on_load() {
    let _g = lock();
    let dir = scratch_dir("bundle_torn");
    let path = dir.join("model.json");

    // The torn write reports success — exactly what a crash mid-write
    // looks like to the writer. The *reader* must catch it.
    nfv_fail::configure("bundle.save.write=torn(0.5)").unwrap();
    bundle().save(&path).expect("a torn write is indistinguishable from success to the writer");
    let torn = ModelBundle::load(&path);
    assert!(torn.is_err(), "a torn bundle must fail its checksum, not deserialize garbage");

    // With the fault gone, the same save/load pair round-trips.
    nfv_fail::clear();
    bundle().save(&path).unwrap();
    assert!(ModelBundle::load(&path).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Thread pool spawn failures
// ---------------------------------------------------------------------

#[test]
fn pool_spawn_failures_degrade_to_a_smaller_pool_that_still_computes() {
    let _g = lock();
    nfv_fail::configure("pool.spawn=err(2)").unwrap();
    let pool = Pool::new(4);
    assert_eq!(pool.size(), 2, "two failed spawns must shrink the pool, not abort it");

    // A fully failed spawn sequence leaves zero workers: every task
    // runs inline on the caller, and results stay correct.
    nfv_fail::clear();
    nfv_fail::configure("pool.spawn=err(1000)").unwrap();
    let inline = Pool::new(3);
    assert_eq!(inline.size(), 0);
    let results: Vec<Mutex<u64>> = (0..8).map(|_| Mutex::new(0)).collect();
    inline.scope(|s| {
        for (i, slot) in results.iter().enumerate() {
            s.spawn(move || {
                *slot.lock().unwrap() = (i as u64 + 1) * 3;
            });
        }
    });
    let sum: u64 = results.iter().map(|m| *m.lock().unwrap()).sum();
    assert_eq!(sum, (1..=8).map(|i| i * 3).sum::<u64>(), "inline fallback must still compute");
}

// ---------------------------------------------------------------------
// Serving runtime: watchdog, snapshots, warm restart
// ---------------------------------------------------------------------

fn fresh_core(spec: &LoadSpec) -> ServeCore<OnlineMonitor> {
    let shared = bundle().try_unpack_shared().expect("freshly packed bundle is valid");
    let monitors: Vec<OnlineMonitor> = (0..spec.feeds).map(|_| shared.monitor()).collect();
    let fleet =
        FleetMonitor::new(monitors, FleetMonitorConfig { reorder_window: 0, ..Default::default() });
    let cfg = ServeConfig { capacity: 256, tick_budget: 120, ..Default::default() };
    ServeCore::new(fleet, cfg)
}

/// Aggregates compared across interrupted and uninterrupted runs.
/// Latency quantiles (wall clock) and the bounded recent-event log
/// (restarts empty) are deliberately outside the bit-identity contract.
struct ServeOutcome {
    stats: ServeStats,
    healths: Vec<FeedHealth>,
    windows: Vec<(u64, u64)>,
}

fn drive(core: &mut ServeCore<OnlineMonitor>, spec: &LoadSpec, from: u64, to: u64) {
    let mut gen = LoadGen::new(spec.clone());
    gen.seek(from);
    for tick in from..to {
        for feed in 0..spec.feeds {
            for line in gen.tick_lines(tick, feed) {
                core.offer(feed, &line).unwrap();
            }
        }
        core.sweep();
    }
    core.finish();
}

fn outcome(core: &ServeCore<OnlineMonitor>, spec: &LoadSpec) -> ServeOutcome {
    let healths = core.fleet().healths().into_iter().cloned().collect();
    let windows = (0..spec.feeds)
        .map(|f| {
            let o = core.fleet().observer(f).expect("observer is live");
            (o.windows_scored(), o.windows_stride_skipped())
        })
        .collect();
    ServeOutcome { stats: core.stats(), healths, windows }
}

fn assert_same_serve(a: &ServeOutcome, b: &ServeOutcome, label: &str) {
    assert_eq!(a.stats.feeds, b.stats.feeds, "{label}: per-feed serve stats");
    assert_eq!(a.stats.ticks, b.stats.ticks, "{label}: sweep count");
    assert_eq!(a.stats.state, b.stats.state, "{label}: final state");
    assert_eq!(a.stats.warnings, b.stats.warnings, "{label}: warnings");
    assert_eq!(a.stats.degraded_episodes, b.stats.degraded_episodes, "{label}: episodes");
    assert_eq!(a.stats.watchdog_trips, b.stats.watchdog_trips, "{label}: watchdog trips");
    assert_eq!(a.healths, b.healths, "{label}: fleet health ledger");
    assert_eq!(a.windows, b.windows, "{label}: observer window counters");
}

#[test]
fn serve_snapshot_restart_is_bit_identical_to_uninterrupted() {
    let _g = lock();
    let spec = serve_spec();
    const TICKS: u64 = 60;
    const CUT: u64 = 30;

    let mut full = fresh_core(&spec);
    drive(&mut full, &spec, 0, TICKS);
    let full_out = outcome(&full, &spec);
    assert!(full_out.stats.warnings >= 1, "the anomaly window must warn in the reference run");

    // Interrupted run: stream to the cut, persist a snapshot, throw the
    // core away (the "crash"), warm-restart a fresh one from disk.
    let dir = scratch_dir("warm");
    let snap = dir.join("serve-snap.json");
    let mut first = fresh_core(&spec);
    {
        let mut gen = LoadGen::new(spec.clone());
        for tick in 0..CUT {
            for feed in 0..spec.feeds {
                for line in gen.tick_lines(tick, feed) {
                    first.offer(feed, &line).unwrap();
                }
            }
            first.sweep();
        }
        first.save_snapshot(&snap, CUT).unwrap();
    }
    drop(first);

    let mut resumed = fresh_core(&spec);
    let at = resumed.load_snapshot(&snap).unwrap();
    assert_eq!(at, CUT, "the snapshot must carry its load tick");
    drive(&mut resumed, &spec, at, TICKS);
    assert_same_serve(&full_out, &outcome(&resumed, &spec), "warm restart");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_snapshot_io_faults_are_typed_and_heal() {
    let _g = lock();
    let spec = serve_spec();
    let dir = scratch_dir("snapio");
    let snap = dir.join("serve-snap.json");
    let mut core = fresh_core(&spec);
    let mut gen = LoadGen::new(spec.clone());
    for tick in 0..5 {
        for feed in 0..spec.feeds {
            for line in gen.tick_lines(tick, feed) {
                core.offer(feed, &line).unwrap();
            }
        }
        core.sweep();
    }

    // err on rename: the save fails typed and the retry heals.
    nfv_fail::configure("serve.snapshot.rename=err(1)").unwrap();
    assert!(core.save_snapshot(&snap, 5).is_err(), "injected rename failure must be typed");
    assert!(core.save_snapshot(&snap, 5).is_ok(), "the next attempt must heal");

    // torn write: success to the writer, checksum failure to the reader.
    nfv_fail::configure("serve.snapshot.write=torn(0.5)").unwrap();
    core.save_snapshot(&snap, 5).expect("a torn write looks like success to the writer");
    assert!(
        fresh_core(&spec).load_snapshot(&snap).is_err(),
        "a torn snapshot must fail its checksum"
    );

    // With the fault cleared, save/load round-trips again; a transient
    // load error then heals on retry too.
    nfv_fail::clear();
    core.save_snapshot(&snap, 5).unwrap();
    nfv_fail::configure("serve.snapshot.load=err(1)").unwrap();
    assert!(fresh_core(&spec).load_snapshot(&snap).is_err());
    assert_eq!(fresh_core(&spec).load_snapshot(&snap).unwrap(), 5);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_heartbeat_stall_trips_watchdog_then_recovers() {
    let _g = lock();
    let spec = serve_spec();
    let mut core = fresh_core(&spec);
    let dog = core.spawn_watchdog(Duration::from_millis(10));

    // Each sweep stalls 60ms before bumping the heartbeat — six missed
    // deadlines per sweep from the watchdog's point of view.
    nfv_fail::configure("serve.heartbeat=delay(60)").unwrap();
    let mut events = Vec::new();
    let mut gen = LoadGen::new(spec.clone());
    for tick in 0..4u64 {
        for feed in 0..spec.feeds {
            for line in gen.tick_lines(tick, feed) {
                core.offer(feed, &line).unwrap();
            }
        }
        events.extend(core.sweep());
    }
    // Stall gone: the scorer drains and the state machine recovers.
    nfv_fail::clear();
    for tick in 4..40u64 {
        for feed in 0..spec.feeds {
            for line in gen.tick_lines(tick, feed) {
                core.offer(feed, &line).unwrap();
            }
        }
        events.extend(core.sweep());
    }
    events.extend(core.finish());
    dog.stop();

    let stats = core.stats();
    assert!(stats.watchdog_trips >= 1, "a stalled scorer must trip the watchdog");
    assert!(events.iter().any(|e| matches!(e, ServeEvent::WatchdogTrip { .. })));
    assert!(
        events.iter().any(|e| matches!(e, ServeEvent::Recovered { .. })),
        "the runtime must recover once the stall clears"
    );
    // Exact ledger even through the stall.
    for (feed, f) in stats.feeds.iter().enumerate() {
        assert_eq!(
            f.lines_in,
            f.delivered + f.dropped(),
            "feed {} accounting must stay exact through a watchdog trip",
            feed
        );
    }
}

// ---------------------------------------------------------------------
// Seed-swept chaos soak: every registered failpoint armed at once
// ---------------------------------------------------------------------

/// Arms every name in [`nfv_fail::KNOWN_POINTS`] (plus the write-stage
/// points the atomic-write tag scheme derives from them) with a
/// low-probability fault policy.
fn arm_everything() {
    nfv_fail::configure(concat!(
        "ckpt.save=err(1000000)@0.1;",
        "ckpt.save.create=err(1000000)@0.05;",
        "ckpt.save.write=err(1000000)@0.05;",
        "ckpt.save.rename=err(1000000)@0.1;",
        "ckpt.load=err(1000000)@0.2;",
        "bundle.save.rename=err(1000000)@0.2;",
        "bundle.load=err(1000000)@0.2;",
        "serve.snapshot.rename=err(1000000)@0.25;",
        "serve.snapshot.load=err(1000000)@0.25;",
        "serve.heartbeat=delay(1)@0.02;",
        "pool.spawn=err(1000000)@0.3",
    ))
    .unwrap();
}

#[test]
fn chaos_soak_every_failpoint_under_seed_sweep() {
    let _g = lock();
    let spec = serve_spec();
    // Materialize the shared fixtures before arming anything.
    let clean_pipeline = baseline();
    let model = bundle();

    for seed in [1u64, 2, 3] {
        nfv_fail::clear();
        nfv_fail::set_seed(seed);
        arm_everything();
        let label = format!("chaos seed {}", seed);

        // Degraded-but-correct pool construction.
        let pool = Pool::new(4);
        assert!(pool.size() <= 4, "{label}: pool never grows past the request");

        // Bundle round-trip: saves retry in a bounded loop (the CLI's
        // policy), loads use the built-in retry; both end typed or Ok.
        let dir = scratch_dir("soak");
        let path = dir.join("model.json");
        let mut saved = false;
        for _ in 0..8 {
            if model.save(&path).is_ok() {
                saved = true;
                break;
            }
        }
        assert!(saved, "{label}: bundle save must succeed within 8 attempts at p=0.2");
        ModelBundle::load_with_retry(&path, 8, Duration::from_millis(1))
            .unwrap_or_else(|e| panic!("{label}: bundle load must heal within 8 attempts: {e}"));

        // Full pipeline with checkpointing: transient save faults heal
        // or degrade to typed skips; results stay bit-identical.
        let mut cfg = pca_cfg();
        cfg.checkpoint.dir = Some(dir.join("ckpt"));
        cfg.checkpoint.retry_backoff_ms = 1;
        let run = run_pipeline(trace(), &cfg)
            .unwrap_or_else(|e| panic!("{label}: pipeline must survive the soak: {e}"));
        assert_same_results(clean_pipeline, &run, &label);

        // Serving under the soak: snapshot mid-stream (in memory, like
        // the periodic saver), finish the run, then warm-restart from
        // the snapshot and demand bit-identical aggregates.
        let mut core = fresh_core(&spec);
        let mut gen = LoadGen::new(spec.clone());
        let mut snapshot = None;
        for tick in 0..40u64 {
            for feed in 0..spec.feeds {
                for line in gen.tick_lines(tick, feed) {
                    core.offer(feed, &line).unwrap();
                }
            }
            core.sweep();
            if tick + 1 == 20 {
                snapshot = Some(core.snapshot_value(20).unwrap());
            }
        }
        core.finish();
        let full = outcome(&core, &spec);
        for (feed, f) in full.stats.feeds.iter().enumerate() {
            assert_eq!(
                f.lines_in,
                f.delivered + f.dropped(),
                "{label}: feed {feed} ledger must stay exact under chaos"
            );
        }
        let mut resumed = fresh_core(&spec);
        let at = resumed.restore_snapshot(&snapshot.expect("snapshot taken at tick 20")).unwrap();
        drive(&mut resumed, &spec, at, 40);
        assert_same_serve(&full, &outcome(&resumed, &spec), &label);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
