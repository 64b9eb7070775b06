//! §5.2 "Reducing Training Overhead" table: how much training data the
//! two mechanisms save.
//!
//! Part A — initial training: with vPE clustering, one month of pooled
//! group data reaches the quality that three months of a vPE's own data
//! would (paper: 3 months -> 1 month).
//!
//! Part B — post-update recovery: transfer-learning adaptation on one
//! week of post-update data reaches the quality that retraining from
//! scratch only achieves with months of data (paper: 3 months -> 1 week).
//!
//! ```text
//! cargo run --release -p nfv-bench --bin tab_overhead [-- --fast]
//! ```

use nfv_bench::BenchArgs;
use nfv_detect::codec::LogCodec;
use nfv_detect::detector::AnomalyDetector;
use nfv_detect::eval::{fleet_mapping, sweep_prc};
use nfv_detect::grouping::Grouping;
use nfv_detect::mapping::MappingConfig;
use nfv_detect::pipeline::{MonthScores, PipelineRun};
use nfv_detect::seq_detector::{LstmDetector, LstmDetectorConfig};
use nfv_simnet::{FleetTrace, SimConfig, SimPreset, TicketCause};
use nfv_syslog::time::{month_start, DAY};
use nfv_syslog::LogStream;

fn ticket_free(
    stream: &LogStream,
    trace: &FleetTrace,
    vpe: usize,
    start: u64,
    end: u64,
) -> LogStream {
    nfv_detect::pipeline::ticket_free(stream, &trace.tickets_for(vpe), 3 * DAY, start, end)
}

/// Scores the fleet over a test month and returns the best F-measure.
fn best_f(
    detector_of: &dyn Fn(usize) -> usize,
    detectors: &[LstmDetector],
    streams: &[LogStream],
    trace: &FleetTrace,
    test_month: usize,
    mapping: &MappingConfig,
) -> (f32, f32, f32) {
    let (start, end) = (month_start(test_month), month_start(test_month + 1));
    let per_vpe: Vec<Vec<nfv_detect::ScoredEvent>> = (0..streams.len())
        .map(|v| detectors[detector_of(v)].score(&streams[v], start, end))
        .collect();
    let tickets = trace
        .tickets
        .iter()
        .filter(|t| {
            t.cause != TicketCause::Maintenance && t.report_time >= start && t.report_time < end
        })
        .copied()
        .collect();
    let suppression = (0..streams.len())
        .map(|v| {
            trace
                .tickets_for(v)
                .iter()
                .filter(|t| t.cause == TicketCause::Maintenance)
                .map(|t| (t.report_time, t.repair_time))
                .collect()
        })
        .collect();
    let run = PipelineRun {
        months: vec![MonthScores { month: test_month, per_vpe }],
        rollups: vec![],
        tickets,
        adaptations: vec![],
        grouping: Grouping::single(streams.len()),
        vocab: 0,
        suppression,
        events: vec![],
    };
    let curve = sweep_prc(&run, mapping, 32);
    match curve.best_f_point() {
        Some(p) => {
            let counts = fleet_mapping(&run, p.threshold, mapping).confusion();
            (counts.f_measure(), counts.precision(), counts.recall())
        }
        None => (0.0, 0.0, 0.0),
    }
}

fn lstm_cfg(args: &BenchArgs, vocab: usize, seed: u64) -> LstmDetectorConfig {
    let mut cfg = args.pipeline_config(nfv_detect::DetectorKind::Lstm).lstm;
    cfg.vocab = vocab;
    cfg.seed = seed;
    cfg
}

fn main() {
    let args = BenchArgs::parse();
    let mapping = MappingConfig::default();

    // ---------- Part A: initial training-data budget. ----------
    let sim = if args.fast {
        let mut c = SimConfig::preset(SimPreset::Fast, args.seed);
        c.months = 5;
        c.n_vpes = 8;
        c
    } else {
        let mut c = SimConfig::preset(SimPreset::Full, args.seed);
        c.months = 5;
        c.update_month = None;
        c
    };
    let trace = FleetTrace::simulate(sim.clone());
    eprintln!("part A: {} messages", trace.total_messages());

    let mut sample = Vec::new();
    for v in 0..sim.n_vpes {
        sample.extend(trace.messages(v).iter().filter(|m| m.timestamp < month_start(1)).cloned());
    }
    let codec = LogCodec::train(&sample, 16);
    let vocab = codec.vocab_size();
    let streams: Vec<LogStream> =
        (0..sim.n_vpes).map(|v| codec.encode_stream(trace.messages(v))).collect();

    let grouping = Grouping::cluster(&streams, vocab, 0, month_start(1), 2..=6, args.seed);
    let test_month = 4;

    println!("# Part A: initial training (test month {})", test_month);
    println!("variant\tf\tprecision\trecall");
    let mut json_a = serde_json::Map::new();
    for (name, months, pooled) in
        [("own-1mo", 1usize, false), ("own-3mo", 3, false), ("cluster-1mo", 1, true)]
    {
        let end = month_start(months);
        let mut detectors: Vec<LstmDetector> = Vec::new();
        let group_of: Box<dyn Fn(usize) -> usize> = if pooled {
            let members = grouping.members();
            for (g, group_members) in members.iter().enumerate() {
                let mut det = LstmDetector::new(lstm_cfg(&args, vocab, 1000 + g as u64));
                let pools: Vec<LogStream> = group_members
                    .iter()
                    .map(|&v| ticket_free(&streams[v], &trace, v, 0, end))
                    .collect();
                det.fit(&pools.iter().collect::<Vec<_>>());
                detectors.push(det);
            }
            let g = grouping.clone();
            Box::new(move |v| g.group_of(v))
        } else {
            for (v, stream) in streams.iter().enumerate() {
                let mut det = LstmDetector::new(lstm_cfg(&args, vocab, 2000 + v as u64));
                let own = ticket_free(stream, &trace, v, 0, end);
                det.fit(&[&own]);
                detectors.push(det);
            }
            Box::new(|v| v)
        };
        let (f, p, r) = best_f(&group_of, &detectors, &streams, &trace, test_month, &mapping);
        println!("{}\t{:.3}\t{:.3}\t{:.3}", name, f, p, r);
        json_a.insert(name.to_string(), serde_json::json!({ "f": f, "p": p, "r": r }));
    }
    println!("# paper: clustering cuts the initial data need from 3 months to 1 month\n");

    // ---------- Part B: post-update recovery budget. ----------
    let sim_b = if args.fast {
        let mut c = SimConfig::preset(SimPreset::Fast, args.seed + 1);
        c.months = 7;
        c.n_vpes = 8;
        c.update_month = Some(2);
        c
    } else {
        let mut c = SimConfig::preset(SimPreset::Full, args.seed + 1);
        c.months = 8;
        c.update_month = Some(2);
        c
    };
    let trace_b = FleetTrace::simulate(sim_b.clone());
    eprintln!("part B: {} messages", trace_b.total_messages());
    let update_month = sim_b.update_month.expect("configured");
    // Everything from this month onward is fully post-update.
    let post_start_month = update_month + 1;
    let test_month_b = sim_b.months - 1;

    let mut sample_b = Vec::new();
    for v in 0..sim_b.n_vpes {
        sample_b
            .extend(trace_b.messages(v).iter().filter(|m| m.timestamp < month_start(1)).cloned());
    }
    let mut codec_b = LogCodec::train(&sample_b, 24);
    // Refresh with a post-update week so new templates have dense ids
    // for every variant (variants differ in *model* training, not codec).
    let mut week = Vec::new();
    for v in 0..sim_b.n_vpes {
        week.extend(
            trace_b
                .messages(v)
                .iter()
                .filter(|m| {
                    m.timestamp >= month_start(post_start_month)
                        && m.timestamp < month_start(post_start_month) + 7 * DAY
                })
                .cloned(),
        );
    }
    codec_b.refresh(&week);
    let vocab_b = codec_b.vocab_size();
    let streams_b: Vec<LogStream> =
        (0..sim_b.n_vpes).map(|v| codec_b.encode_stream(trace_b.messages(v))).collect();
    let grouping_b = Grouping::cluster(&streams_b, vocab_b, 0, month_start(1), 2..=6, args.seed);
    let members_b = grouping_b.members();

    // Teacher models: trained on the pre-update months.
    let teachers: Vec<LstmDetector> = members_b
        .iter()
        .enumerate()
        .map(|(g, ms)| {
            let mut det = LstmDetector::new(lstm_cfg(&args, vocab_b, 3000 + g as u64));
            let pools: Vec<LogStream> = ms
                .iter()
                .map(|&v| ticket_free(&streams_b[v], &trace_b, v, 0, month_start(update_month)))
                .collect();
            det.fit(&pools.iter().collect::<Vec<_>>());
            det
        })
        .collect();

    println!(
        "# Part B: post-update recovery (update month {}, test month {})",
        update_month, test_month_b
    );
    println!("variant\tdata\tf\tprecision\trecall");
    let mut json_b = serde_json::Map::new();
    let post0 = month_start(post_start_month);
    let spans: [(&str, u64, bool); 5] = [
        ("stale-teacher", 0, false),
        ("adapt-transfer", 7 * DAY, true),
        ("scratch", 7 * DAY, false),
        ("scratch", 30 * DAY, false),
        ("scratch", 60 * DAY, false),
    ];
    for (kind, span, transfer) in spans {
        let detectors: Vec<LstmDetector> = members_b
            .iter()
            .enumerate()
            .map(|(g, ms)| {
                let pools: Vec<LogStream> = ms
                    .iter()
                    .map(|&v| ticket_free(&streams_b[v], &trace_b, v, post0, post0 + span))
                    .collect();
                let refs: Vec<&LogStream> = pools.iter().collect();
                if transfer {
                    let mut student = LstmDetector::new(lstm_cfg(&args, vocab_b, 4000 + g as u64));
                    student.copy_weights_from(&teachers[g]);
                    student.adapt(&refs);
                    student
                } else if span == 0 {
                    let mut stale = LstmDetector::new(lstm_cfg(&args, vocab_b, 4500 + g as u64));
                    stale.copy_weights_from(&teachers[g]);
                    stale
                } else {
                    let mut fresh = LstmDetector::new(lstm_cfg(&args, vocab_b, 5000 + g as u64));
                    fresh.fit(&refs);
                    fresh
                }
            })
            .collect();
        let g = grouping_b.clone();
        let (f, p, r) = best_f(
            &move |v| g.group_of(v),
            &detectors,
            &streams_b,
            &trace_b,
            test_month_b,
            &mapping,
        );
        let label = if span == 0 {
            "-".to_string()
        } else if span < 30 * DAY {
            format!("{}d", span / DAY)
        } else {
            format!("{}mo", span / (30 * DAY))
        };
        println!("{}\t{}\t{:.3}\t{:.3}\t{:.3}", kind, label, f, p, r);
        json_b.insert(format!("{}-{}", kind, label), serde_json::json!({ "f": f, "p": p, "r": r }));
    }
    println!("# paper: transfer learning cuts recovery from ~3 months of data to 1 week");

    args.maybe_write_json(&serde_json::json!({ "part_a": json_a, "part_b": json_b }));
}
