//! Sample statistics and the in-memory span trace.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// How many samples must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile of ascending `sorted`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it: a p99 needs 1,000 samples,
/// a p90 100 and a p50 20.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The median of a small sample (passes, set-ups), which the
/// beyond-count rule does not apply to.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a over `bytes`, continuing from `hash`.
pub fn fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Digest of a complete text, such as a wire answer as
/// `QueryPlanner::answer_line` renders it.
pub fn digest(text: &str) -> u64 {
    fnv(FNV_OFFSET, text.as_bytes())
}

/// Sorts nanosecond samples into ascending `f64`s for [`percentile`].
pub fn sorted_ns(samples: &[u64]) -> Vec<f64> {
    let mut out: Vec<f64> = samples.iter().map(|&ns| ns as f64).collect();
    out.sort_by(f64::total_cmp);
    out
}

/// One timed interval: nanoseconds since the trace's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// The operation the span belongs to (request, delta or pass number).
    pub request: u64,
}

/// Spans kept in memory and written out when the run ends. Each load
/// thread records into its own trace; [`Trace::absorb`] merges them.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; [`Trace::close`] sets its end.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    #[cfg(test)]
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another trace's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Trace) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|span| Span {
            parent: span.parent.map(|p| p + offset),
            ..span
        }));
    }

    /// Each span's duration minus the part of it its children cover.
    /// Children may overlap each other; the covered part is the length
    /// of their union, clipped to the parent.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start, span.end));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(reach), end.min(span.end));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                (span.end - span.start) - covered
            })
            .collect()
    }

    /// Durations of every span named `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Writes every span as one tab-separated line:
    /// `name start_ns end_ns self_ns parent request`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns\tself_ns\tparent\trequest")?;
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            let parent = span.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{}\t{}\t{}\t{own}\t{parent}\t{}",
                span.name, span.start, span.end, span.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples is the 90th; exactly ten lie beyond it.
        assert_eq!(percentile(&sorted, 0.90), Some(90.0));
        assert_eq!(percentile(&sorted[..99], 0.90), None);
        assert_eq!(percentile(&sorted, 0.99), None);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 0.99), Some(990.0));
        assert_eq!(percentile(&thousand[..999], 0.99), None);
        assert_eq!(percentile(&sorted[..20], 0.50), Some(10.0));
        assert_eq!(percentile(&sorted[..19], 0.50), None);
        assert_eq!(percentile(&[], 0.50), None);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let mut trace = Trace::new(Instant::now());
        let root = trace.push(span(0, 100, None));
        trace.push(span(10, 50, Some(root)));
        trace.push(span(30, 70, Some(root)));
        // Nested inside the first child: covered once, not twice.
        trace.push(span(20, 40, Some(root)));
        // Sticks out past the parent's end: clipped.
        trace.push(span(90, 120, Some(root)));
        let own = trace.self_times();
        // Children cover 10..70 and 90..100: 70 of 100.
        assert_eq!(own[root], 30);
        assert_eq!(own[1], 40);
    }

    #[test]
    fn self_time_counts_only_direct_children() {
        let mut trace = Trace::new(Instant::now());
        let root = trace.push(span(0, 100, None));
        let child = trace.push(span(0, 60, Some(root)));
        trace.push(span(10, 30, Some(child)));
        let own = trace.self_times();
        assert_eq!(own, vec![40, 40, 20]);
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let origin = Instant::now();
        let mut a = Trace::new(origin);
        a.push(span(0, 10, None));
        let mut b = Trace::new(origin);
        let root = b.push(span(0, 10, None));
        b.push(span(2, 4, Some(root)));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.self_times(), vec![10, 8, 2]);
    }
}
