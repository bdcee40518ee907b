//! Arithmetic shared by every workload: order statistics, the failure
//! fraction, and the in-memory span recorder behind the traced run.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// A nearest-rank percentile together with the evidence behind it: the
/// sample count and how many samples lie strictly above the value. A
/// tail percentile is only worth quoting with at least ten samples
/// beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The percentile value.
    pub value: f64,
    /// Samples the percentile was read from.
    pub n: usize,
    /// Samples strictly greater than `value`.
    pub beyond: usize,
}

/// Nearest-rank `p`-th percentile (`0 < p <= 100`) of `samples`, in any
/// order: the smallest sample with at least `p`% of the sample at or
/// below it.
///
/// # Panics
/// Panics on an empty sample or `p` outside `1..=100`.
pub fn percentile(samples: &[f64], p: usize) -> Pct {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    assert!((1..=100).contains(&p), "percentile rank out of range");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let value = sorted[(p * n).div_ceil(100) - 1];
    let beyond = sorted.iter().filter(|&&v| v > value).count();
    Pct { value, n, beyond }
}

/// Median as Python's `statistics.median` takes it: the middle sample,
/// or the mean of the two middle samples of an even-sized sample.
///
/// # Panics
/// Panics on an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Failed operations over attempted ones; zero when nothing was
/// attempted.
pub fn fail_frac(failed: u64, attempted: u64) -> f64 {
    ratio(failed as f64, attempted as f64)
}

/// The fastest time seen for each item of a repeated work list. A
/// shared host can alternate between fast and slow phases lasting
/// seconds; an item's fastest repetition drops the slow phases that a
/// median over one run still averages in.
#[derive(Debug, Clone)]
pub struct Fastest(Vec<f64>);

impl Fastest {
    /// `n` items, none timed yet.
    pub fn new(n: usize) -> Self {
        Fastest(vec![f64::INFINITY; n])
    }

    /// One repetition of item `i` took `t`.
    pub fn record(&mut self, i: usize, t: f64) {
        self.0[i] = self.0[i].min(t);
    }

    /// Every item's fastest time.
    ///
    /// # Panics
    /// Panics if some item was never timed.
    pub fn times(&self) -> &[f64] {
        assert!(
            self.0.iter().all(|t| t.is_finite()),
            "an item was never timed"
        );
        &self.0
    }

    /// Items per unit of time, at every item's fastest time.
    pub fn rate(&self) -> f64 {
        self.0.len() as f64 / self.times().iter().sum::<f64>()
    }
}

/// `num / den`, or zero for an empty denominator (a ratio of counters
/// where the layer never ran).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One timed call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer function the span wraps, e.g. `core.check`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Request the span served: a session, stream, history or check.
    pub req: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept in memory on one thread; nested spans close innermost
/// first.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty recorder timing from `origin`; recorders that will be
    /// merged must share it.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span inside the innermost open one; returns its id.
    pub fn begin(&mut self, name: &'static str, req: u64) -> usize {
        let start_ns = self.now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one; returns its
    /// duration in nanoseconds.
    pub fn end(&mut self, id: usize) -> u64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end = self.now();
        self.spans[id].end_ns = end;
        self.spans[id].dur_ns()
    }

    /// Append another recorder's spans (re-indexing their parents).
    pub fn absorb(&mut self, other: Tracer) {
        assert!(
            other.open.is_empty(),
            "absorbing a recorder with open spans"
        );
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "taking spans while some are open");
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children of one parent never overlap
/// (one recorder records one thread).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            covered[p] += hi.saturating_sub(lo);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Per span name: how many spans, their total time and their total
/// self time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
}

/// Aggregate spans by name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Write spans as tab-separated `id name start_ns end_ns parent req`
/// lines (`-` for no parent).
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tname\tstart_ns\tend_ns\tparent\treq")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
        writeln!(
            w,
            "{i}\t{}\t{}\t{}\t{parent}\t{}",
            s.name, s.start_ns, s.end_ns, s.req
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50).value, 50.0);
        assert_eq!(percentile(&s, 99).value, 99.0);
        assert_eq!(percentile(&s, 100).value, 100.0);
        assert_eq!(percentile(&s, 99).beyond, 1);
        // Input order does not matter.
        let rev: Vec<f64> = s.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 90), percentile(&s, 90));
    }

    #[test]
    fn percentile_on_ties_counts_only_strictly_greater_samples() {
        let s = [3.0, 2.0, 2.0, 2.0, 2.0, 1.0];
        let p = percentile(&s, 50);
        assert_eq!(p.value, 2.0);
        assert_eq!(p.n, 6);
        // Ranks 2..=5 all hold 2.0; only the 3.0 lies beyond.
        assert_eq!(p.beyond, 1);
        let all_equal = [5.0; 40];
        let p = percentile(&all_equal, 99);
        assert_eq!((p.value, p.beyond), (5.0, 0));
    }

    #[test]
    fn percentile_reports_thin_tails() {
        // 50 samples: p99 is the maximum, with nothing beyond it, and
        // p90 has only 5 samples beyond — both below the ten-sample
        // rule, which the caller must see.
        let s: Vec<f64> = (1..=50).map(f64::from).collect();
        let p99 = percentile(&s, 99);
        assert_eq!((p99.value, p99.beyond), (50.0, 0));
        let p90 = percentile(&s, 90);
        assert_eq!((p90.value, p90.beyond), (45.0, 5));
        let p50 = percentile(&s, 50);
        assert_eq!((p50.value, p50.beyond), (25.0, 25));
        // One sample: every percentile is that sample.
        assert_eq!(percentile(&[7.0], 99).value, 7.0);
        assert_eq!(percentile(&[7.0], 1).beyond, 0);
    }

    #[test]
    fn median_matches_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[9.0]), 9.0);
    }

    #[test]
    fn fastest_keeps_each_items_minimum() {
        let mut f = Fastest::new(3);
        for (i, t) in [(0, 4.0), (1, 2.0), (2, 6.0), (0, 3.0), (1, 5.0), (2, 1.0)] {
            f.record(i, t);
        }
        assert_eq!(f.times(), &[3.0, 2.0, 1.0]);
        assert_eq!(f.rate(), 0.5);
    }

    #[test]
    #[should_panic(expected = "never timed")]
    fn fastest_rejects_untimed_items() {
        let mut f = Fastest::new(2);
        f.record(0, 1.0);
        f.rate();
    }

    #[test]
    fn fail_frac_is_failed_over_attempted() {
        assert_eq!(fail_frac(0, 1000), 0.0);
        assert_eq!(fail_frac(3, 12), 0.25);
        assert_eq!(fail_frac(5, 5), 1.0);
        assert_eq!(fail_frac(0, 0), 0.0);
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 20, 30, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["root"].total_ns, 100);
        assert_eq!(totals["root"].self_ns, 30);
        // Self times partition the root's wall time.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = [span("p", 10, 20, None), span("c", 15, 30, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 15]);
    }

    #[test]
    fn tracer_records_nesting_and_absorbs_other_threads() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin);
        let outer = t.begin("outer", 1);
        let inner = t.begin("inner", 1);
        t.end(inner);
        t.end(outer);
        let mut other = Tracer::new(origin);
        let a = other.begin("x", 2);
        let b = other.begin("y", 2);
        other.end(b);
        other.end(a);
        t.absorb(other);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let selfs = self_times(&spans);
        assert!(selfs[0] <= spans[0].dur_ns());
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn tracer_rejects_crossed_spans() {
        let mut t = Tracer::new(Instant::now());
        let a = t.begin("a", 0);
        let _b = t.begin("b", 0);
        t.end(a);
    }
}
