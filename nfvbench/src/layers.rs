//! Measurements shared by the workloads: set-up timing and replays of
//! the text stages (`parse_line`, `encode_text`) on a run's own inputs.

use crate::probe;
use crate::report::Report;
use crate::stats;
use crate::SETUP_REPS;
use nfv_detect::LogCodec;
use nfv_syslog::parse::parse_line;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Runs `setup` [`SETUP_REPS`] times and records the median as
/// `setup_s`, each time scaled to the nominal host speed by the probes
/// taken while it ran. Returns the last product.
pub fn timed_setup<T>(report: &mut Report, cores: usize, mut setup: impl FnMut() -> T) -> T {
    let (mut norm, mut wall, mut probes) = (Vec::new(), Vec::new(), Vec::new());
    let mut out = None;
    for _ in 0..SETUP_REPS {
        let ((product, s), p) = probe::during(cores, || {
            let t = Instant::now();
            let product = setup();
            (product, t.elapsed().as_secs_f64())
        });
        out = Some(product);
        norm.push(s * probe::NOMINAL_MS / p);
        wall.push(s);
        probes.push(p);
    }
    report.set("setup_s", stats::median(&mut norm));
    report.wall("setup_s", stats::median(&mut wall), probe::speed(&probes));
    out.expect("at least one setup")
}

/// Replays `parse_line` over each feed's raw `lines` (in order, as the
/// admission path parses them) and `encode_text` over `bodies`, and
/// records `syslog.parse_ns`, `codec.encode_ns`,
/// `codec.repeat_text_frac` and `codec.unknown_frac`. Returns the ids.
pub fn text_stages(
    lines: &[Vec<String>],
    bodies: &[&str],
    codec: &LogCodec,
    report: &mut Report,
) -> Vec<usize> {
    let mut parsed = 0usize;
    let t = Instant::now();
    for feed in lines {
        let mut not_before = 0;
        for line in feed {
            if let Ok(m) = parse_line(std::hint::black_box(line), not_before) {
                not_before = m.timestamp;
            }
            parsed += 1;
        }
    }
    report.set("syslog.parse_ns", per(t.elapsed(), parsed));

    let t = Instant::now();
    let ids: Vec<usize> =
        bodies.iter().map(|b| codec.encode_text(std::hint::black_box(b))).collect();
    report.set("codec.encode_ns", per(t.elapsed(), bodies.len()));
    let mut seen = HashSet::new();
    let repeats = bodies.iter().filter(|b| !seen.insert(**b)).count();
    report.set("codec.repeat_text_frac", frac(repeats, bodies.len()));
    report.set("codec.unknown_frac", frac(ids.iter().filter(|&&id| id == 0).count(), bodies.len()));
    ids
}

/// Nanoseconds per item.
pub fn per(d: Duration, n: usize) -> f64 {
    d.as_nanos() as f64 / n.max(1) as f64
}

/// `num / den`, 0 for an empty denominator.
pub fn frac(num: usize, den: usize) -> f64 {
    num as f64 / den.max(1) as f64
}
