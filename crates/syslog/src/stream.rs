//! Time-ordered template streams and sliding-window extraction.
//!
//! After signature matching, a vPE's syslog becomes a sequence of
//! `(template id, timestamp)` records. The LSTM consumes fixed-length
//! windows of `(id, normalized gap)` tuples and predicts the next id
//! (§4.2 of the paper).

use crate::time::{month_index, DAY};

/// One structured log record: a template occurrence at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogRecord {
    /// Seconds since the simulation epoch.
    pub time: u64,
    /// Template id (catalog or vocabulary id, per context).
    pub template: usize,
}

/// A time-sorted sequence of log records for one host (or one pooled
/// group of hosts).
#[derive(Debug, Clone, Default)]
pub struct LogStream {
    records: Vec<LogRecord>,
}

/// Normalizes an inter-arrival gap (seconds) into `[0, 1]` with a
/// logarithmic scale saturating at one day.
pub fn gap_feature(gap_seconds: u64) -> f32 {
    let g = (1.0 + gap_seconds as f64).ln() / (1.0 + DAY as f64).ln();
    g.min(1.0) as f32
}

/// Fixed-length windows extracted from a stream, ready for the sequence
/// model: window `i` covers `ids[i]`/`gaps[i]` and the training target is
/// `targets[i]`, the template that actually followed at `times[i]`.
#[derive(Debug, Clone, Default)]
pub struct WindowSet {
    /// Template-id windows.
    pub ids: Vec<Vec<usize>>,
    /// Normalized gap windows, parallel to `ids`.
    pub gaps: Vec<Vec<f32>>,
    /// The observed next template for each window.
    pub targets: Vec<usize>,
    /// Timestamp of each target record.
    pub times: Vec<u64>,
}

impl WindowSet {
    /// Number of windows.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no window was extracted.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Appends all windows of `other`.
    pub fn extend(&mut self, other: WindowSet) {
        self.ids.extend(other.ids);
        self.gaps.extend(other.gaps);
        self.targets.extend(other.targets);
        self.times.extend(other.times);
    }

    /// Selects a subset of windows by index (used by the over-sampling
    /// training loop).
    pub fn gather(&self, indices: &[usize]) -> WindowSet {
        WindowSet {
            ids: indices.iter().map(|&i| self.ids[i].clone()).collect(),
            gaps: indices.iter().map(|&i| self.gaps[i].clone()).collect(),
            targets: indices.iter().map(|&i| self.targets[i]).collect(),
            times: indices.iter().map(|&i| self.times[i]).collect(),
        }
    }
}

impl LogStream {
    /// Builds a stream, sorting records by time (stable, so equal-time
    /// records keep their relative order).
    pub fn from_records(mut records: Vec<LogRecord>) -> LogStream {
        records.sort_by_key(|r| r.time);
        LogStream { records }
    }

    /// Appends another stream's records in place, keeping time order.
    ///
    /// The common case — `tail` starts at or after this stream's last
    /// record, as when the pipeline appends a freshly-encoded month — is
    /// a plain `extend` with no re-sort and no rebuild of the existing
    /// prefix. Overlapping tails fall back to a stable sort, which
    /// produces exactly what [`LogStream::from_records`] over the
    /// concatenation would.
    pub fn append(&mut self, tail: LogStream) {
        if tail.records.is_empty() {
            return;
        }
        let sorted = match (self.records.last(), tail.records.first()) {
            (Some(last), Some(first)) => last.time <= first.time,
            _ => true,
        };
        self.records.extend(tail.records);
        if !sorted {
            self.records.sort_by_key(|r| r.time);
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the stream holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records, time-ordered.
    pub fn records(&self) -> &[LogRecord] {
        &self.records
    }

    /// Drops the oldest `n` records in place (all of them when `n`
    /// exceeds the length). Used by the pipeline's history trimming:
    /// once a month is scored and trained on, only a scoring-context
    /// tail of the stream is ever read again, so the prefix can go.
    pub fn drop_front(&mut self, n: usize) {
        let n = n.min(self.records.len());
        self.records.drain(..n);
    }

    /// Records with `start <= time < end`.
    pub fn slice_time(&self, start: u64, end: u64) -> &[LogRecord] {
        let lo = self.records.partition_point(|r| r.time < start);
        let hi = self.records.partition_point(|r| r.time < end);
        &self.records[lo..hi]
    }

    /// Normalized template frequency distribution over `vocab` ids for
    /// records in `[start, end)`.
    pub fn template_distribution(&self, vocab: usize, start: u64, end: u64) -> Vec<f32> {
        let mut dist = vec![0.0f32; vocab];
        let slice = self.slice_time(start, end);
        for r in slice {
            if r.template < vocab {
                dist[r.template] += 1.0;
            }
        }
        normalize_l1(&mut dist);
        dist
    }

    /// Extracts every window of `k` consecutive records followed by a
    /// target record, restricted to targets inside `[start, end)`.
    ///
    /// A `filter` receives the *target* record and can exclude windows
    /// (used to drop log entries near tickets when building "normal"
    /// training data).
    pub fn windows_in(
        &self,
        k: usize,
        start: u64,
        end: u64,
        mut filter: impl FnMut(&LogRecord) -> bool,
    ) -> WindowSet {
        assert!(k >= 1, "windows_in: window length must be >= 1");
        let mut out = WindowSet::default();
        // Records are time-sorted, so the targets in [start, end) are one
        // contiguous run, and their windows lie in records[lo - k..hi - 1].
        let lo = self.records.partition_point(|r| r.time < start).max(k);
        let hi = self.records.partition_point(|r| r.time < end);
        if lo >= hi {
            return out;
        }
        // Each record's gap feature, computed once for the k windows that
        // hold it.
        let first = lo - k;
        let gaps: Vec<f32> = (first..hi - 1).map(|i| self.gap_of(i)).collect();
        for t in lo..hi {
            if filter(&self.records[t]) {
                self.push_window(&mut out, k, t, |i| gaps[i - first]);
            }
        }
        out
    }

    /// All windows of the stream (no time restriction or filter).
    pub fn windows(&self, k: usize) -> WindowSet {
        self.windows_in(k, 0, u64::MAX, |_| true)
    }

    /// Number of windows [`LogStream::windows`] extracts.
    pub fn window_count(&self, k: usize) -> usize {
        let hi = self.records.partition_point(|r| r.time < u64::MAX);
        hi.saturating_sub(k)
    }

    /// Appends window `i` of [`LogStream::windows`] (`i <` [`LogStream::window_count`])
    /// to `out`, equal to the one `windows` builds, without building the
    /// others.
    pub fn push_window_at(&self, k: usize, i: usize, out: &mut WindowSet) {
        assert!(k >= 1, "push_window_at: window length must be >= 1");
        assert!(i < self.window_count(k), "push_window_at: window {i} out of range");
        self.push_window(out, k, k + i, |j| self.gap_of(j));
    }

    /// Record `i`'s gap to its predecessor (0 for the stream's first
    /// record) as a feature.
    fn gap_of(&self, i: usize) -> f32 {
        gap_feature(self.records[i].time - self.records[i.saturating_sub(1)].time)
    }

    /// Appends the window of the `k` records before record `t`, with `t`
    /// as its target; `gap(j)` is record `j`'s gap feature.
    fn push_window(&self, out: &mut WindowSet, k: usize, t: usize, gap: impl Fn(usize) -> f32) {
        let target = &self.records[t];
        out.ids.push(self.records[t - k..t].iter().map(|r| r.template).collect());
        out.gaps.push((t - k..t).map(gap).collect());
        out.targets.push(target.template);
        out.times.push(target.time);
    }

    /// Splits the stream into per-month sub-streams keyed by the
    /// zero-based month index since the epoch.
    pub fn split_by_month(&self) -> Vec<(usize, LogStream)> {
        let mut out: Vec<(usize, LogStream)> = Vec::new();
        for r in &self.records {
            let m = month_index(r.time);
            match out.last_mut() {
                Some((month, stream)) if *month == m => stream.records.push(*r),
                _ => out.push((m, LogStream { records: vec![*r] })),
            }
        }
        out
    }
}

/// Local L1-normalize: nfv-syslog deliberately has no dependency on
/// nfv-tensor, so this mirrors `nfv_tensor::vecops::normalize_l1`.
fn normalize_l1(v: &mut [f32]) {
    let sum: f32 = v.iter().sum();
    if sum > 0.0 {
        for x in v.iter_mut() {
            *x /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream() -> LogStream {
        LogStream::from_records(vec![
            LogRecord { time: 10, template: 0 },
            LogRecord { time: 20, template: 1 },
            LogRecord { time: 35, template: 2 },
            LogRecord { time: 50, template: 1 },
            LogRecord { time: 90, template: 0 },
        ])
    }

    #[test]
    fn records_are_sorted_on_construction() {
        let s = LogStream::from_records(vec![
            LogRecord { time: 50, template: 1 },
            LogRecord { time: 10, template: 0 },
        ]);
        assert_eq!(s.records()[0].time, 10);
    }

    #[test]
    fn slice_time_bounds_are_half_open() {
        let s = stream();
        let slice = s.slice_time(20, 50);
        assert_eq!(slice.len(), 2);
        assert_eq!(slice[0].time, 20);
        assert_eq!(slice[1].time, 35);
    }

    #[test]
    fn template_distribution_is_normalized() {
        let s = stream();
        let dist = s.template_distribution(3, 0, 100);
        assert_eq!(dist.len(), 3);
        assert!((dist.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!((dist[1] - 0.4).abs() < 1e-6);
    }

    #[test]
    fn windows_have_correct_targets_and_gaps() {
        let s = stream();
        let ws = s.windows(2);
        assert_eq!(ws.len(), 3);
        assert_eq!(ws.ids[0], vec![0, 1]);
        assert_eq!(ws.targets[0], 2);
        assert_eq!(ws.times[0], 35);
        // Gap of the very first record is defined as 0.
        assert_eq!(ws.gaps[0][0], gap_feature(0));
        assert_eq!(ws.gaps[0][1], gap_feature(10));
        // Last window: records at 35, 50 targeting 90.
        assert_eq!(ws.ids[2], vec![2, 1]);
        assert_eq!(ws.targets[2], 0);
    }

    #[test]
    fn window_filter_excludes_targets() {
        let s = stream();
        let ws = s.windows_in(2, 0, u64::MAX, |r| r.template != 0);
        // The target=0 window at time 90 is dropped.
        assert_eq!(ws.len(), 2);
        assert!(ws.targets.iter().all(|&t| t != 0));
    }

    #[test]
    fn time_bounded_windows_equal_the_bounded_share_of_all_windows() {
        let s = stream();
        for k in 1..=3 {
            let all = s.windows(k);
            for (start, end) in
                [(0, u64::MAX), (0, 35), (20, 50), (35, 90), (36, 91), (50, 51), (90, 10), (91, 99)]
            {
                let keep: Vec<usize> =
                    (0..all.len()).filter(|&i| (start..end).contains(&all.times[i])).collect();
                let want = all.gather(&keep);
                let got = s.windows_in(k, start, end, |_| true);
                let case = format!("k {k}, [{start}, {end})");
                assert_eq!(got.ids, want.ids, "{case}");
                assert_eq!(got.gaps, want.gaps, "{case}");
                assert_eq!(got.targets, want.targets, "{case}");
                assert_eq!(got.times, want.times, "{case}");
            }
            // A filter sees exactly the in-range targets, in order.
            let mut seen = Vec::new();
            s.windows_in(k, 20, 60, |r| {
                seen.push(r.time);
                true
            });
            let want: Vec<u64> =
                all.times.iter().copied().filter(|t| (20..60).contains(t)).collect();
            assert_eq!(seen, want, "k {k}: filter calls");
        }
    }

    #[test]
    fn short_stream_yields_no_windows() {
        let s = LogStream::from_records(vec![LogRecord { time: 1, template: 0 }]);
        assert!(s.windows(3).is_empty());
    }

    #[test]
    fn gap_feature_is_monotone_and_saturates() {
        assert_eq!(gap_feature(0), 0.0);
        assert!(gap_feature(60) < gap_feature(3600));
        assert_eq!(gap_feature(DAY), 1.0);
        assert_eq!(gap_feature(10 * DAY), 1.0);
    }

    #[test]
    fn split_by_month_groups_contiguously() {
        let s = LogStream::from_records(vec![
            LogRecord { time: 0, template: 0 },
            LogRecord { time: 5 * DAY, template: 1 },
            LogRecord { time: 40 * DAY, template: 2 },
        ]);
        let months = s.split_by_month();
        assert_eq!(months.len(), 2);
        assert_eq!(months[0].0, 0);
        assert_eq!(months[0].1.len(), 2);
        assert_eq!(months[1].0, 1);
    }

    #[test]
    fn append_matches_rebuild_from_concatenated_records() {
        let base = vec![
            LogRecord { time: 10, template: 1 },
            LogRecord { time: 20, template: 2 },
            LogRecord { time: 20, template: 3 },
        ];
        // In-order tail (the monthly-append fast path) and an overlapping
        // tail (forces the stable-sort fallback).
        for tail in [
            vec![LogRecord { time: 20, template: 4 }, LogRecord { time: 30, template: 5 }],
            vec![LogRecord { time: 5, template: 6 }, LogRecord { time: 25, template: 7 }],
        ] {
            let mut appended = LogStream::from_records(base.clone());
            appended.append(LogStream::from_records(tail.clone()));
            let mut combined = base.clone();
            combined.extend(tail);
            let rebuilt = LogStream::from_records(combined);
            assert_eq!(appended.records(), rebuilt.records());
        }
    }

    #[test]
    fn append_empty_tail_is_a_noop() {
        let mut s = LogStream::from_records(vec![LogRecord { time: 1, template: 0 }]);
        s.append(LogStream::from_records(vec![]));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn push_window_at_builds_the_window_windows_builds() {
        let s = stream();
        for k in 1..=3 {
            let all = s.windows(k);
            assert_eq!(s.window_count(k), all.len());
            let order: Vec<usize> = (0..all.len()).rev().collect();
            let mut got = WindowSet::default();
            for &i in &order {
                s.push_window_at(k, i, &mut got);
            }
            let want = all.gather(&order);
            assert_eq!(got.ids, want.ids);
            assert_eq!(got.gaps, want.gaps);
            assert_eq!(got.targets, want.targets);
            assert_eq!(got.times, want.times);
        }
    }

    #[test]
    fn gather_selects_windows() {
        let s = stream();
        let ws = s.windows(2);
        let sub = ws.gather(&[2, 0]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.ids[0], ws.ids[2]);
        assert_eq!(sub.targets[1], ws.targets[0]);
    }
}
