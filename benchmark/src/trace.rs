//! In-memory spans around the benchmark's calls into each simulator
//! layer, their self times, and a Chrome trace-format export.
//!
//! Spans are recorded only by the benchmark's own code; the simulator is
//! not instrumented. A disabled [`Tracer`] records nothing, so the timed
//! and traced runs execute the same cell code.

use std::time::Instant;

use crate::json::Json;

/// One closed span. Times are seconds since the run's epoch; `parent`
/// indexes the same cell's span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records nested spans for one cell.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("end() matches a begin()");
        self.spans[idx].end = self.epoch.elapsed().as_secs_f64();
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span closed");
        self.spans
    }
}

/// Self time of each span: its duration minus the part of it covered by
/// its direct children (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    spans
        .iter()
        .enumerate()
        .map(|(i, span)| {
            let mut children: Vec<(f64, f64)> = spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(|c| (c.start.max(span.start), c.end.min(span.end)))
                .filter(|(s, e)| e > s)
                .collect();
            children.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (s, e) in children {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            span.duration() - covered
        })
        .collect()
}

/// Chrome trace-format document ("X" complete events, microseconds) for
/// the given cells: `(cell index, worker, spans)`.
pub fn chrome_trace(cells: &[(usize, usize, &[Span])]) -> Json {
    let mut events = Vec::new();
    for &(cell, worker, spans) in cells {
        for span in spans {
            events.push(Json::obj([
                ("name", Json::from(span.name)),
                ("ph", Json::from("X")),
                ("ts", Json::from(span.start * 1e6)),
                ("dur", Json::from(span.duration() * 1e6)),
                ("pid", Json::from(1u64)),
                ("tid", Json::from(worker)),
                ("args", Json::obj([("cell", Json::from(cell))])),
            ]));
        }
    }
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::from("ms")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_once() {
        let spans = [
            span("cell", 0.0, 10.0, None),
            span("new", 1.0, 3.0, Some(0)),
            span("run", 3.0, 8.0, Some(0)),
            // A grandchild is covered by its parent, not by the root.
            span("inner", 4.0, 5.0, Some(2)),
            // Overlapping siblings under `new`'s sibling count once.
            span("harvest", 8.0, 9.5, Some(0)),
            span("a", 8.0, 9.0, Some(4)),
            span("b", 8.5, 9.5, Some(4)),
        ];
        let st = self_times(&spans);
        let close = |x: f64, y: f64| (x - y).abs() < 1e-12;
        assert!(close(st[0], 10.0 - 2.0 - 5.0 - 1.5), "{st:?}");
        assert!(close(st[1], 2.0));
        assert!(close(st[2], 4.0));
        assert!(close(st[3], 1.0));
        assert!(close(st[4], 0.0));
        assert!(close(st[5], 1.0) && close(st[6], 1.0));
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch, true);
        t.begin("cell");
        t.begin("Machine::new");
        t.end();
        t.begin("Machine::run");
        t.end();
        t.end();
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end >= spans[2].end && spans[2].start >= spans[1].end);

        let mut off = Tracer::new(epoch, false);
        off.begin("cell");
        off.end();
        assert!(off.into_spans().is_empty());

        let doc = chrome_trace(&[(7, 1, &spans)]);
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].get("name").and_then(Json::as_str), Some("cell"));
        assert_eq!(
            events[2].get("args").and_then(|a| a.get("cell")),
            Some(&Json::from(7u64))
        );
    }
}
