//! Fleet-scale scoring benchmark: a synthetic 10,000-vPE month scored
//! within a fixed memory budget, with the batched cross-vPE path gated
//! bit-identical against the one-vPE-at-a-time reference.
//!
//! The fleet is synthesized on demand ([`MegaFleet`]) so raw text never
//! accumulates: each vPE's log is rendered, encoded against the single
//! shared codec table, trimmed to a scoring-context tail of month 0
//! plus month 1, and dropped. What stays resident is O(groups) models
//! plus compact per-vPE streams — the ownership model this benchmark
//! exists to validate at scale.
//!
//! Exit is non-zero when either gate fails:
//! * every vPE's scored events must match the per-vPE reference path
//!   bitwise (times equal, scores equal as `f32` bit patterns);
//! * peak RSS (`VmHWM`) must stay within the budget.
//!
//! ```text
//! cargo run --release -p nfv-bench --bin fleet10k \
//!     [-- --fast --vpes N --seed N --json PATH --rss-budget-mib=N]
//! ```
//!
//! Defaults: 10,000 vPEs (512 with `--fast`), budget 1024 MiB (512 MiB
//! under 4096 vPEs), one worker per host core. `--json PATH` also
//! writes the results as JSON.

use nfv_bench::BenchArgs;
use nfv_detect::codec::LogCodec;
use nfv_detect::detector::AnomalyDetector;
use nfv_detect::group_store::GroupModelStore;
use nfv_detect::grouping::Grouping;
use nfv_detect::seq_detector::{LstmDetector, LstmDetectorConfig};
use nfv_simnet::{MegaFleet, SimConfig};
use nfv_syslog::time::month_start;
use nfv_syslog::LogStream;
use std::time::Instant;

/// Peak resident set size of this process in MiB, from `VmHWM` in
/// `/proc/self/status`. `None` off Linux (the gate is then skipped).
fn vm_hwm_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Per-group trainer vPEs: the first few members carry the pooled
/// month-0 training data so training cost stays O(groups), not O(vPEs).
const TRAINERS_PER_GROUP: usize = 4;
/// vPEs sampled (evenly across the fleet) to mine the shared codec.
const CODEC_SAMPLE_VPES: usize = 32;

fn main() {
    let mut rss_budget_mib: Option<f64> = None;
    let args = BenchArgs::parse_with(|flag| match flag.strip_prefix("--rss-budget-mib=") {
        Some(v) => {
            rss_budget_mib = v.parse().ok();
            rss_budget_mib.is_some()
        }
        None => false,
    });
    // Auto: one worker per host core, the count the JSON records.
    let threads = nfv_pool::resolve_workers(0, usize::MAX);
    let n_vpes = args.vpes.unwrap_or(if args.fast { 512 } else { 10_000 });
    let budget_mib = rss_budget_mib.unwrap_or(if n_vpes >= 4096 { 1024.0 } else { 512.0 });
    let window = 6usize;

    let t_all = Instant::now();
    let fleet = MegaFleet::new(SimConfig::mega(n_vpes, 2, args.seed));
    let (m1, m2) = (month_start(1), month_start(2));

    // ---- Shared codec: mined from a thin sample of the fleet. ----
    let stride = (n_vpes / CODEC_SAMPLE_VPES).max(1);
    let mut sample = Vec::new();
    for v in (0..n_vpes).step_by(stride) {
        sample.extend(fleet.synthesize(v).into_iter().filter(|m| m.timestamp < m1));
    }
    let codec = LogCodec::train(&sample, 32);
    let vocab = codec.vocab_size();
    drop(sample);
    eprintln!("codec: {} templates from {} sampled vPEs", vocab, n_vpes.div_ceil(stride));

    // ---- Synthesize, encode, trim: one vPE resident at a time. ----
    // Grouping comes from the simulator's latent roles — at this scale
    // the benchmark measures scoring, not cluster recovery (which
    // fig3/ablation already evaluate at paper scale).
    let grouping = Grouping::from_assignment(fleet.topology.vpes.iter().map(|v| v.group).collect());
    let members = grouping.members();
    let trainers: Vec<Vec<usize>> =
        members.iter().map(|m| m.iter().copied().take(TRAINERS_PER_GROUP).collect()).collect();

    let t_encode = Instant::now();
    let mut streams: Vec<LogStream> = Vec::with_capacity(n_vpes);
    let mut pools: Vec<Vec<LogStream>> = vec![Vec::new(); grouping.k];
    let mut total_messages = 0usize;
    let mut retained_records = 0usize;
    for v in 0..n_vpes {
        let msgs = fleet.synthesize(v);
        total_messages += msgs.len();
        let mut stream = codec.encode_stream(&msgs);
        drop(msgs);
        let pre = stream.records().partition_point(|r| r.time < m1);
        let g = grouping.group_of(v);
        if trainers[g].contains(&v) {
            pools[g].push(LogStream::from_records(stream.records()[..pre].to_vec()));
        }
        // Keep month 1 plus a window+1 scoring-context tail of month 0
        // (the same margin the pipeline's history trimming uses).
        stream.drop_front(pre.saturating_sub(window + 1));
        retained_records += stream.len();
        streams.push(stream);
    }
    let encode_secs = t_encode.elapsed().as_secs_f64();
    eprintln!(
        "encoded {} messages -> {} retained records across {} vPEs in {:.1}s",
        total_messages, retained_records, n_vpes, encode_secs
    );

    // ---- One model per group, trained on pooled month-0 data. ----
    let t_train = Instant::now();
    let detectors: Vec<Box<dyn AnomalyDetector>> = pools
        .iter()
        .enumerate()
        .map(|(g, pool)| {
            let mut det = LstmDetector::new(LstmDetectorConfig {
                vocab,
                window,
                embed_dim: 8,
                hidden: 16,
                epochs: if args.fast { 1 } else { 2 },
                max_train_windows: 4_000,
                threads,
                seed: args.seed + 100 + g as u64,
                ..Default::default()
            });
            let refs: Vec<&LogStream> = pool.iter().collect();
            det.fit(&refs);
            Box::new(det) as Box<dyn AnomalyDetector>
        })
        .collect();
    let train_secs = t_train.elapsed().as_secs_f64();
    drop(pools);
    let store = GroupModelStore::new(grouping, detectors);

    // ---- Batched cross-vPE scoring (the refactored path). ----
    let t_batched = Instant::now();
    let batched = store.score_fleet(&streams, m1, m2, threads);
    let batched_secs = t_batched.elapsed().as_secs_f64();
    let events: usize = batched.iter().map(|e| e.len()).sum();
    eprintln!("batched: {} events in {:.2}s", events, batched_secs);

    // ---- Per-vPE reference (the pre-refactor path) + bitwise gate. ----
    let t_ref = Instant::now();
    let mut mismatches = 0usize;
    for (v, got) in batched.iter().enumerate() {
        let want = store.detector_for(v).score(&streams[v], m1, m2);
        if got.len() != want.len()
            || got
                .iter()
                .zip(&want)
                .any(|(a, b)| a.time != b.time || a.score.to_bits() != b.score.to_bits())
        {
            mismatches += 1;
        }
    }
    let per_vpe_secs = t_ref.elapsed().as_secs_f64();
    eprintln!("per-vPE reference: {:.2}s, {} mismatching vPEs", per_vpe_secs, mismatches);

    let rss_mib = vm_hwm_mib();
    let total_secs = t_all.elapsed().as_secs_f64();
    let speedup = per_vpe_secs / batched_secs.max(1e-9);

    println!("vpes\tgroups\tvocab\tevents\tbatched_s\tper_vpe_s\tspeedup\trss_mib");
    println!(
        "{}\t{}\t{}\t{}\t{:.2}\t{:.2}\t{:.2}x\t{}",
        n_vpes,
        store.k(),
        vocab,
        events,
        batched_secs,
        per_vpe_secs,
        speedup,
        rss_mib.map_or("n/a".into(), |m| format!("{:.0}", m)),
    );

    let value = serde_json::json!({
        "n_vpes": n_vpes,
        "months_scored": 1,
        "groups": store.k(),
        "vocab": vocab,
        "total_messages": total_messages,
        "retained_records": retained_records,
        "events_scored": events,
        "threads": threads,
        "host_cores": std::thread::available_parallelism().map_or(1, usize::from),
        "encode_secs": encode_secs,
        "train_secs": train_secs,
        "batched_secs": batched_secs,
        "per_vpe_secs": per_vpe_secs,
        "speedup_vs_per_vpe": speedup,
        "total_secs": total_secs,
        "bit_identical": mismatches == 0,
        "rss_hwm_mib": rss_mib,
        "rss_budget_mib": budget_mib,
        "seed": args.seed,
        "fast": args.fast,
    });
    args.maybe_write_json(&value);

    let mut failed = false;
    if mismatches > 0 {
        eprintln!("FAIL: batched scoring diverged from the per-vPE path on {} vPEs", mismatches);
        failed = true;
    }
    if let Some(m) = rss_mib {
        if m > budget_mib {
            eprintln!("FAIL: peak RSS {:.0} MiB exceeds budget {:.0} MiB", m, budget_mib);
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
