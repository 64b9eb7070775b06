//! Tier-2 chaos test: the supervised fleet monitor under transport
//! faults.
//!
//! A 38-feed fleet (the paper's vPE count) is streamed through the
//! [`FleetMonitor`] twice — once clean, once through a [`TransportSim`]
//! injecting 5% loss, 2% duplication, 30s bounded reordering and 1%
//! corruption — and the runs are compared:
//!
//! * the faulted run completes without a panic and no feed is poisoned;
//! * every feed is accounted for, with health counters that exactly
//!   partition the delivered lines;
//! * warning recall degrades by no more than 10% relative to the clean
//!   run.
//!
//! A second scenario points a bursty firehose (2–10x scorer capacity,
//! 5% loss) at the [`ServeCore`] serving runtime and asserts bounded
//! memory, exact drop accounting, deterministic degrade-and-recover,
//! and that anomalies injected after recovery are still caught.

use nfv_detect::seq_detector::LstmDetectorConfig;
use nfv_detect::serve::{ServeConfig, ServeCore, ServeEvent, ServeState, ServeStats};
use nfv_detect::{
    AnomalyDetector, FeedHealth, FeedState, FleetEvent, FleetMonitor, FleetMonitorConfig, LogCodec,
    LstmDetector, MappingConfig, ModelBundle, OnlineMonitor,
};
use nfv_simnet::load::{BurstSpec, LoadGen, LoadSpec, WindowSpec};
use nfv_simnet::{TransportFaults, TransportSim};
use nfv_syslog::message::Severity;
use nfv_syslog::SyslogMessage;

/// The paper's fleet size.
const FEEDS: usize = 38;
/// Heartbeats per feed (60s apart).
const NORMALS: usize = 220;
/// Indices after which an anomaly burst is injected.
const BURSTS: [usize; 2] = [80, 160];
/// Messages per burst (10s apart; well above `min_cluster`).
const BURST_LEN: u64 = 5;

fn msg(feed: usize, time: u64, text: &str) -> SyslogMessage {
    SyslogMessage {
        timestamp: time,
        host: format!("vpe{:02}", feed),
        process: "rpd".to_string(),
        severity: Severity::Info,
        text: text.to_string(),
    }
}

/// Cyclic normal chatter the LSTM learns to predict.
fn normal_text(i: usize) -> String {
    format!("heartbeat stage{} counter {} status ok", i % 4, i)
}

/// Trains one small detector on clean cyclic traffic and packs it the
/// way the CLI would ship it to a monitoring host.
fn trained_bundle() -> ModelBundle {
    let train: Vec<SyslogMessage> =
        (0..1200).map(|i| msg(0, i as u64 * 60, &normal_text(i))).collect();
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
    // Threshold just above every training score.
    let max_score = det.score(&stream, 0, u64::MAX).iter().map(|e| e.score).fold(0.0f32, f32::max);
    ModelBundle::pack(&codec, &det, max_score * 1.05, &MappingConfig::default())
}

/// One feed's stream: steady 60s heartbeats with two never-seen anomaly
/// bursts at known positions. Burst lines are distinct so the dedup ring
/// cannot legitimately swallow them.
fn feed_messages(feed: usize) -> Vec<SyslogMessage> {
    let mut out = Vec::new();
    for i in 0..NORMALS {
        out.push(msg(feed, i as u64 * 60, &normal_text(i)));
        if BURSTS.contains(&i) {
            for j in 0..BURST_LEN {
                out.push(msg(
                    feed,
                    i as u64 * 60 + 5 + j * 10,
                    &format!("chassis alarm unknown fault storm event {} feed {}", j, feed),
                ));
            }
        }
    }
    out
}

/// A fresh supervised fleet, one monitor per feed, all sharing one
/// unpacked model.
fn fresh_fleet(bundle: &ModelBundle) -> FleetMonitor {
    let shared = bundle.try_unpack_shared().expect("freshly packed bundle is valid");
    let monitors: Vec<OnlineMonitor> = (0..FEEDS).map(|_| shared.monitor()).collect();
    FleetMonitor::new(monitors, FleetMonitorConfig::default())
}

/// Streams per-feed raw lines through a fleet; returns all events.
fn run_fleet(fleet: &mut FleetMonitor, lines_per_feed: &[Vec<String>]) -> Vec<FleetEvent> {
    let mut events = Vec::new();
    for (feed, lines) in lines_per_feed.iter().enumerate() {
        for line in lines {
            events.extend(fleet.ingest_line(feed, line));
        }
    }
    events.extend(fleet.flush());
    events
}

fn warning_count(events: &[FleetEvent]) -> usize {
    events.iter().filter(|e| matches!(e, FleetEvent::Warning { .. })).count()
}

#[test]
fn fleet_monitor_survives_transport_chaos_with_recall_intact() {
    let bundle = trained_bundle();
    let streams: Vec<Vec<SyslogMessage>> = (0..FEEDS).map(feed_messages).collect();

    // Clean reference run.
    let clean_lines: Vec<Vec<String>> =
        streams.iter().map(|s| s.iter().map(|m| m.to_line()).collect()).collect();
    let mut clean_fleet = fresh_fleet(&bundle);
    let clean_events = run_fleet(&mut clean_fleet, &clean_lines);
    let clean_warnings = warning_count(&clean_events);
    // Two bursts per feed, each reported once.
    assert!(
        clean_warnings >= FEEDS,
        "clean run should warn on most bursts, got {} warnings for {} bursts",
        clean_warnings,
        FEEDS * BURSTS.len()
    );

    // Faulted run: the ISSUE's chaos profile.
    let faults = TransportFaults::parse("loss=0.05,dup=0.02,reorder=30,corrupt=0.01").unwrap();
    let sim = TransportSim::new(faults, 0xC0FFEE);
    let faulted: Vec<Vec<String>> =
        streams.iter().enumerate().map(|(f, s)| sim.deliver(f, s)).collect();
    let mut fleet = fresh_fleet(&bundle);
    let events = run_fleet(&mut fleet, &faulted);

    // Surviving the stream at all is the zero-panic half of the claim;
    // no monitor may have been poisoned along the way.
    assert!(
        !events.iter().any(|e| matches!(e, FleetEvent::FeedPoisoned { .. })),
        "no monitor should panic under transport faults"
    );

    // Every feed accounted for, with exact line accounting: each
    // delivered line lands in exactly one health counter.
    let healths = fleet.healths();
    assert_eq!(healths.len(), FEEDS);
    for (feed, h) in healths.iter().enumerate() {
        assert_eq!(h.state, FeedState::Active, "feed {} should stay active", feed);
        assert!(h.messages > 0, "feed {} processed no messages", feed);
        let delivered = faulted[feed].len() as u64;
        assert_eq!(
            h.messages + h.parse_errors + h.duplicates_dropped + h.skipped,
            delivered,
            "feed {} counters do not partition its {} delivered lines: {:?}",
            feed,
            delivered,
            h
        );
    }
    let total_parse_errors: u64 = healths.iter().map(|h| h.parse_errors).sum();
    let total_dups: u64 = healths.iter().map(|h| h.duplicates_dropped).sum();
    assert!(total_parse_errors > 0, "1% corruption must produce some unparseable lines");
    assert!(total_dups > 0, "2% duplication must trip the dedup ring");

    // Recall: warnings may not degrade more than 10% relative.
    let faulted_warnings = warning_count(&events);
    let lost = clean_warnings.saturating_sub(faulted_warnings);
    assert!(
        lost * 10 <= clean_warnings,
        "warning recall degraded over 10%: {} clean vs {} faulted",
        clean_warnings,
        faulted_warnings
    );
}

/// The overload scenario from the ISSUE: three feeds whose steady rate
/// the scorer handles comfortably, a 10x firehose burst and a later 4x
/// burst, all under 5% transport loss.
fn overload_spec() -> LoadSpec {
    LoadSpec {
        feeds: 3,
        base_rate: 25,
        bursts: vec![
            BurstSpec { start: 10, len: 8, mult: 10 },
            BurstSpec { start: 45, len: 6, mult: 4 },
        ],
        // Injected after both bursts have drained: the monitor must
        // still catch anomalies once it has recovered to full stride.
        anomalies: vec![WindowSpec { start: 70, len: 4 }],
        faults: TransportFaults::parse("loss=0.05").unwrap(),
        seed: 0xF1EE7,
        ..Default::default()
    }
}

/// Trains a bundle on the load generator's own clean cadence, the way
/// the serve CLI self-trains.
fn serve_bundle(spec: &LoadSpec) -> ModelBundle {
    let train = LoadGen::new(spec.clone()).training_messages(30);
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
    let max_score = det.score(&stream, 0, u64::MAX).iter().map(|e| e.score).fold(0.0f32, f32::max);
    ModelBundle::pack(&codec, &det, max_score * 1.05, &MappingConfig::default())
}

/// Everything observable about one overload run: the stats snapshot,
/// the full event stream, the fleet's per-feed health ledger, and
/// per-feed `(windows_scored, windows_stride_skipped)` observer
/// counters.
struct OverloadRun {
    stats: ServeStats,
    events: Vec<ServeEvent>,
    healths: Vec<FeedHealth>,
    windows: Vec<(u64, u64)>,
}

/// Drives one full overload scenario through a fresh serving runtime in
/// step mode (offer + sweep per tick, no wall clock).
fn run_overload(bundle: &ModelBundle, spec: &LoadSpec) -> OverloadRun {
    let shared = bundle.try_unpack_shared().expect("freshly packed bundle is valid");
    let monitors: Vec<OnlineMonitor> = (0..spec.feeds).map(|_| shared.monitor()).collect();
    let fleet =
        FleetMonitor::new(monitors, FleetMonitorConfig { reorder_window: 0, ..Default::default() });
    let cfg = ServeConfig {
        capacity: 256,
        // Quota of 40 lines per feed per sweep: comfortable at the base
        // rate of 25, hopeless against the 10x burst.
        tick_budget: 120,
        degrade_enter: 0.5,
        degrade_exit: 0.125,
        recover_ticks: 3,
        degraded_stride: 4,
        ..Default::default()
    };
    let mut core = ServeCore::new(fleet, cfg);
    let mut gen = LoadGen::new(spec.clone());
    let mut events = Vec::new();
    for tick in 0..90u64 {
        for feed in 0..spec.feeds {
            for line in gen.tick_lines(tick, feed) {
                core.offer(feed, &line).unwrap();
            }
        }
        events.extend(core.sweep());
    }
    events.extend(core.finish());
    // Bounded memory also covers the event log itself.
    assert!(core.recent_events().count() <= 64, "recent-event log must stay bounded");
    let healths = core.fleet().healths().into_iter().cloned().collect();
    let windows = (0..spec.feeds)
        .map(|f| {
            let o = core.fleet().observer(f).expect("observer is live");
            (o.windows_scored(), o.windows_stride_skipped())
        })
        .collect();
    OverloadRun { stats: core.stats(), events, healths, windows }
}

#[test]
fn serving_runtime_sheds_firehose_load_with_exact_accounting() {
    let spec = overload_spec();
    let bundle = serve_bundle(&spec);

    let OverloadRun { stats, events, healths, windows } = run_overload(&bundle, &spec);

    // Bounded memory: no ring ever held more than its fixed capacity.
    for (feed, f) in stats.feeds.iter().enumerate() {
        assert!(
            f.peak_occupancy <= 256,
            "feed {} ring grew past capacity: {}",
            feed,
            f.peak_occupancy
        );
    }

    // Exact accounting, per feed and against the fleet's own ledger:
    // every offered line is either delivered or counted dropped, the
    // fleet's overload counter matches the runtime's, and every
    // delivered line lands in exactly one health counter.
    for (feed, f) in stats.feeds.iter().enumerate() {
        assert!(f.lines_in > 0, "feed {} saw no input", feed);
        assert_eq!(
            f.lines_in,
            f.delivered + f.dropped_overflow + f.dropped_shed,
            "feed {} drop accounting is not exact: {:?}",
            feed,
            f
        );
        let h = &healths[feed];
        assert_eq!(h.overload_dropped, f.dropped(), "feed {} fleet ledger disagrees", feed);
        assert_eq!(h.state, FeedState::Active, "feed {} must survive the firehose", feed);
        assert_eq!(
            h.messages + h.parse_errors + h.duplicates_dropped + h.skipped,
            f.delivered,
            "feed {} health counters do not partition its delivered lines: {:?}",
            feed,
            h
        );
    }
    let overflow: u64 = stats.feeds.iter().map(|f| f.dropped_overflow).sum();
    let shed: u64 = stats.feeds.iter().map(|f| f.dropped_shed).sum();
    assert!(overflow > 0, "the 10x burst must overflow the bounded rings");
    assert!(shed > 0, "drop-oldest shedding must engage under sustained overload");

    // Graceful degradation engaged, stride shedding really skipped
    // windows, and the runtime recovered once the bursts drained.
    assert!(stats.degraded_episodes >= 1, "overload must force a degraded episode");
    assert!(events.iter().any(|e| matches!(e, ServeEvent::Degraded { .. })));
    assert!(events.iter().any(|e| matches!(e, ServeEvent::Recovered { .. })));
    assert!(
        events.iter().any(|e| matches!(
            e,
            ServeEvent::Fleet { event: FleetEvent::FeedOverloaded { .. }, .. }
        )),
        "overload episodes must surface as fleet events"
    );
    assert_eq!(stats.state, ServeState::Healthy, "runtime must recover after the firehose");
    assert_eq!(stats.watchdog_trips, 0, "a live scorer must never trip the watchdog");
    let skipped: u64 = windows.iter().map(|&(_, s)| s).sum();
    assert!(skipped > 0, "degraded stride must actually skip windows");

    // The anomaly window injected after recovery must still warn.
    assert!(stats.warnings >= 1, "post-recovery anomalies must still be caught");

    // Deterministic replay: a fresh fleet over the same spec reproduces
    // the run bit for bit — stats, events, ledger, and observer counters.
    let again = run_overload(&bundle, &spec);
    assert_eq!(stats.feeds, again.stats.feeds, "per-feed serve stats must replay identically");
    assert_eq!(stats.ticks, again.stats.ticks);
    assert_eq!(stats.state, again.stats.state);
    assert_eq!(stats.degraded_episodes, again.stats.degraded_episodes);
    assert_eq!(stats.watchdog_trips, again.stats.watchdog_trips);
    assert_eq!(stats.warnings, again.stats.warnings);
    assert_eq!(events, again.events, "event stream must replay identically");
    assert_eq!(healths, again.healths, "fleet ledger must replay identically");
    assert_eq!(windows, again.windows, "observer counters must replay identically");
}

#[test]
fn interleaved_garbage_lines_are_counted_not_fatal() {
    let bundle = trained_bundle();
    let monitors = vec![bundle.try_unpack_shared().unwrap().monitor()];
    let mut fleet = FleetMonitor::new(monitors, FleetMonitorConfig::default());

    // Every 7th line is binary-ish garbage; the rest is the usual
    // heartbeat traffic plus one burst.
    let msgs = feed_messages(0);
    let mut garbage = 0u64;
    let mut events = Vec::new();
    for (i, m) in msgs.iter().enumerate() {
        if i % 7 == 3 {
            garbage += 1;
            events.extend(fleet.ingest_line(0, &format!("\u{1}\u{2} corrupt frame {} \u{7f}", i)));
        }
        events.extend(fleet.ingest_line(0, &m.to_line()));
    }
    events.extend(fleet.flush());

    let h = fleet.health(0).clone();
    assert_eq!(h.state, FeedState::Active, "sparse garbage must not quarantine: {:?}", h);
    assert_eq!(h.parse_errors, garbage);
    assert_eq!(h.messages, msgs.len() as u64);
    assert_eq!(h.quarantines, 0);
    assert!(
        warning_count(&events) >= BURSTS.len(),
        "bursts must still be detected through interleaved garbage"
    );
}
