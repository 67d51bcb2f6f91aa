//! In-memory spans for the traced run. The untraced run holds a recorder
//! that is off: every method returns at once and nothing is stored.
//!
//! Spans are recorded from this benchmark's own files, around the public
//! calls into each layer; the program itself is not instrumented here.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// 0 is "no span": the parent of a root, and what a recorder that is off
/// hands out.
pub type SpanId = u64;

#[derive(Debug, Clone)]
struct Span {
    id: SpanId,
    parent: SpanId,
    request: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    counts: Vec<(&'static str, f64)>,
}

#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    /// High bits of every id this recorder hands out, so recorders forked
    /// for other threads never collide.
    lane: u64,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            lane: 0,
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// A recorder for another thread: same clock, its own id space.
    /// Hand it back with [`absorb`](Self::absorb).
    pub fn fork(&self, lane: u64) -> Recorder {
        Recorder {
            on: self.on,
            epoch: self.epoch,
            lane: lane + 1,
            spans: Vec::new(),
        }
    }

    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
    }

    /// Records a span over an interval the caller already timed, so the
    /// traced run reads the clock no more often than the untraced one.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.on {
            return 0;
        }
        let id = (self.lane << 40) | (self.spans.len() as u64 + 1);
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
            counts: Vec::new(),
        });
        id
    }

    /// Attaches a count to the most recent span of this recorder.
    pub fn count(&mut self, key: &'static str, value: f64) {
        if let Some(span) = self.spans.last_mut() {
            span.counts.push((key, value));
        }
    }

    /// How many spans were recorded.
    pub fn count_spans(&self) -> usize {
        self.spans.len()
    }

    /// Every value recorded under `key`, in span order.
    pub fn counts_of<'a>(&'a self, key: &'a str) -> impl Iterator<Item = f64> + 'a {
        self.spans
            .iter()
            .flat_map(|s| &s.counts)
            .filter(move |(k, _)| *k == key)
            .map(|(_, v)| *v)
    }

    /// One JSON object per line: `id`, `parent`, `request`, `name`,
    /// `start_ns`, `end_ns`, `counts`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let mut counts = String::new();
            for (k, v) in &s.counts {
                if !counts.is_empty() {
                    counts.push_str(", ");
                }
                write!(counts, "\"{k}\": {v}").unwrap();
            }
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"counts\": {{{counts}}}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    /// Per span name: how many, total time, and self time — a span's
    /// duration minus the part of it its children cover.
    pub fn self_time_table(&self) -> String {
        let mut covered: BTreeMap<SpanId, u64> = BTreeMap::new();
        let bounds: BTreeMap<SpanId, (u64, u64)> = self
            .spans
            .iter()
            .map(|s| (s.id, (s.start_ns, s.end_ns)))
            .collect();
        for s in &self.spans {
            if let Some(&(p_start, p_end)) = bounds.get(&s.parent) {
                let overlap = s.end_ns.min(p_end).saturating_sub(s.start_ns.max(p_start));
                *covered.entry(s.parent).or_default() += overlap;
            }
        }
        let mut rows: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let total = s.end_ns - s.start_ns;
            let own = total.saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
            let row = rows.entry(s.name).or_default();
            row.0 += 1;
            row.1 += total;
            row.2 += own;
        }
        let mut out = format!(
            "{:<28} {:>9} {:>12} {:>12} {:>12}\n",
            "span", "count", "total_ms", "self_ms", "mean_us"
        );
        for (name, (count, total, own)) in rows {
            writeln!(
                out,
                "{name:<28} {count:>9} {:>12.3} {:>12.3} {:>12.2}",
                total as f64 / 1e6,
                own as f64 / 1e6,
                total as f64 / 1e3 / count as f64
            )
            .unwrap();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_off_records_nothing() {
        let mut rec = Recorder::new(true);
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let parent = rec.span("parent", 0, 7, at(0), at(10));
        rec.span("child", parent, 7, at(2), at(5));
        let mut other = rec.fork(0);
        other.span("child", parent, 7, at(6), at(8));
        rec.absorb(other);
        let table = rec.self_time_table();
        let parent_row = table.lines().find(|l| l.starts_with("parent")).unwrap();
        let cols: Vec<&str> = parent_row.split_whitespace().collect();
        assert_eq!(cols[2], "10.000");
        assert_eq!(cols[3], "5.000");

        let mut off = Recorder::new(false);
        assert_eq!(off.span("x", 0, 0, at(0), at(1)), 0);
        assert_eq!(off.count_spans(), 0);
    }
}
