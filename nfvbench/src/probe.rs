//! Host-speed probe.
//!
//! The benchmark shares its host with other tenants. When they load it,
//! this process slows down by up to 2x for seconds to minutes at a time:
//! on the recording host the same heartbeat batch took 3.1 ms in one
//! minute and 6-7 ms in the next. No run length or order statistic
//! removes that from a wall-clock figure, so every measured interval is
//! paired with a probe: a fixed piece of the benchmark's own arithmetic,
//! timed next to it on the same thread, whose cost does not depend on
//! the program under test. A figure is then reported at the nominal
//! host speed: its wall time scaled by [`NOMINAL_MS`] over the probe
//! time of its neighbourhood. The raw wall-clock figures are kept in the
//! run record under `.bench_out/`.

use crate::stats;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Probe duration on an undisturbed host of the recording type. Any
/// constant gives comparable figures; this one keeps them close to the
/// wall-clock figures of an idle host.
pub const NOMINAL_MS: f64 = 0.1;

/// Interval between background probes.
const PERIOD: Duration = Duration::from_millis(50);

/// Times the probe kernel once on this thread, in ms.
pub fn probe_ms() -> f64 {
    const N: usize = 64;
    let a: Vec<f32> = (0..N * N).map(|i| (i % 7) as f32 * 0.01).collect();
    let mut x: Vec<f32> = (0..N).map(|i| i as f32 * 0.001).collect();
    let t = Instant::now();
    for _ in 0..32 {
        let mut y = [0f32; N];
        for (r, yr) in y.iter_mut().enumerate() {
            let row = &a[r * N..(r + 1) * N];
            *yr = row.iter().zip(&x).map(|(p, q)| p * q).sum::<f32>().tanh();
        }
        x.copy_from_slice(&y);
    }
    std::hint::black_box(&x);
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` while a background thread probes the host every
/// [`PERIOD`], and returns `f`'s result with the median probe. Suits
/// stages that keep cores busy (training, batched scoring), where a
/// probe on the measuring thread would have to stop the work. Each
/// sample probes `cores` cores at once and keeps the slowest, since a
/// stage spread over several cores waits for its slowest one. The probe
/// threads sleep between samples; they add no load to speak of.
pub fn during<R>(cores: usize, f: impl FnOnce() -> R) -> (R, f64) {
    let stop = AtomicBool::new(false);
    let sample = || -> f64 {
        std::thread::scope(|s| {
            let probes: Vec<_> = (0..cores.max(1)).map(|_| s.spawn(probe_ms)).collect();
            probes.into_iter().map(|h| h.join().expect("probe thread panicked")).fold(0.0, f64::max)
        })
    };
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut probes = vec![sample()];
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(PERIOD);
                probes.push(sample());
            }
            stats::median(&mut probes)
        });
        let out = f();
        stop.store(true, Ordering::Relaxed);
        (out, sampler.join().expect("probe thread panicked"))
    })
}

/// Scales time-ordered `samples` to the nominal host speed: sample `i`
/// is multiplied by `NOMINAL_MS` over the median of the probes paired
/// with the `neighbourhood` samples around it (`probes[i]` is the probe
/// paired with sample `i`).
pub fn normalize(samples: &[f64], probes: &[f64], neighbourhood: usize) -> Vec<f64> {
    assert_eq!(samples.len(), probes.len(), "one probe per sample");
    let n = neighbourhood.max(1);
    let mut out = Vec::with_capacity(samples.len());
    for (s, p) in samples.chunks(n).zip(probes.chunks(n)) {
        let speed = NOMINAL_MS / stats::median(&mut p.to_vec());
        out.extend(s.iter().map(|v| v * speed));
    }
    out
}

/// Host speed over the run relative to nominal (1 = undisturbed).
pub fn speed(probes: &[f64]) -> f64 {
    NOMINAL_MS / stats::median(&mut probes.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_divides_out_each_neighbourhoods_probe() {
        let samples = vec![2.0; 8];
        let mut probes = vec![NOMINAL_MS; 4];
        probes.extend(vec![2.0 * NOMINAL_MS; 4]);
        let out = normalize(&samples, &probes, 4);
        assert!(out[..4].iter().all(|&v| v == 2.0));
        assert!(out[4..].iter().all(|&v| v == 1.0));
    }

    #[test]
    fn probe_takes_measurable_time() {
        assert!(probe_ms() > 0.0);
        let (v, p) = during(2, || 7);
        assert_eq!(v, 7);
        assert!(p > 0.0);
    }
}
