//! In-memory span recording around the calls the benchmark makes into
//! each layer, self-time accounting, and Chrome-trace export.
//!
//! Spans live in the benchmark's own code only: nothing inside the
//! simulator is instrumented, so a span boundary is always a public
//! function call.

use crate::json::Json;
use std::time::Instant;

/// One timed call. `parent` indexes the enclosing span in the same
/// recorder; spans of one op share `op`.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans against one clock origin; kept in memory and
/// written out when the benchmark ends.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    last_closed_ns: u64,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), last_closed_ns: 0 }
    }
}

impl Recorder {
    /// Times `f` as a span named `name` under the currently open span.
    pub fn span<T>(&mut self, name: &str, op: u32, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        let start = self.origin.elapsed();
        let out = f(self);
        let end = self.origin.elapsed();
        self.open.pop();
        let s = &mut self.spans[id as usize];
        s.start_ns = start.as_nanos() as u64;
        s.end_ns = end.as_nanos() as u64;
        self.last_closed_ns = s.end_ns - s.start_ns;
        out
    }

    /// Duration of the span that closed last.
    pub fn last_closed_ns(&self) -> u64 {
        self.last_closed_ns
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of that
/// interval its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let covered =
                s.end_ns.min(parent.end_ns).saturating_sub(s.start_ns.max(parent.start_ns));
            own[p as usize] = own[p as usize].saturating_sub(covered);
        }
    }
    own
}

/// Chrome-trace ("Trace Event Format") complete events, one per span.
/// `pid` separates workloads, `tid` separates passes.
pub fn chrome_events(spans: &[Span], pid: u32, tid: u32, out: &mut Vec<Json>) {
    for (i, s) in spans.iter().enumerate() {
        out.push(Json::obj([
            ("name", Json::str(s.name.as_str())),
            ("ph", Json::str("X")),
            ("ts", Json::Num(s.start_ns as f64 / 1e3)),
            ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
            ("pid", Json::Num(f64::from(pid))),
            ("tid", Json::Num(f64::from(tid))),
            (
                "args",
                Json::obj([
                    ("id", Json::Num(i as f64)),
                    ("op", Json::Num(f64::from(s.op))),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p)))),
                ]),
            ),
        ]));
    }
}

/// Wire form for the child → parent pass protocol.
pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::str(s.name.as_str()),
                    Json::Num(s.start_ns as f64),
                    Json::Num(s.end_ns as f64),
                    s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                    Json::Num(f64::from(s.op)),
                ])
            })
            .collect(),
    )
}

pub fn from_json(v: &Json) -> Option<Vec<Span>> {
    v.as_arr()?
        .iter()
        .map(|s| {
            let f = s.as_arr()?;
            Some(Span {
                name: f.first()?.as_str()?.to_owned(),
                start_ns: f.get(1)?.as_f64()? as u64,
                end_ns: f.get(2)?.as_f64()? as u64,
                parent: f.get(3)?.as_f64().map(|p| p as u32),
                op: f.get(4)?.as_f64()? as u32,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span { name: name.into(), start_ns: start, end_ns: end, parent, op: 0 }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("fork", 5, 25, Some(0)),
            span("event_loop", 25, 85, Some(0)),
            span("kernel", 30, 50, Some(2)), // grandchild: charged to event_loop only
            span("drop", 90, 98, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 20 - 60 - 8, 20, 40, 20, 8]);
    }

    #[test]
    fn a_child_overhanging_its_parent_is_clipped() {
        let spans = vec![span("op", 10, 20, None), span("late", 15, 30, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 15]);
    }

    #[test]
    fn recorder_nests_and_orders_spans() {
        let mut rec = Recorder::default();
        let got = rec.span("op", 7, |rec| {
            rec.span("fork", 7, |_| std::hint::black_box(1 + 1));
            rec.span("event_loop", 7, |_| 42)
        });
        assert_eq!(got, 42, "a span hands its closure's value through");
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert!(spans[1].end_ns <= spans[2].start_ns);
        assert!(spans.iter().all(|s| s.op == 7));
        let own = self_times(&spans);
        assert_eq!(own[0], spans[0].dur_ns() - spans[1].dur_ns() - spans[2].dur_ns());
    }

    #[test]
    fn spans_survive_the_wire_and_export_as_complete_events() {
        let spans = vec![span("op", 1_000, 9_000, None), span("fork", 2_000, 3_000, Some(0))];
        assert_eq!(from_json(&Json::parse(&to_json(&spans).render()).unwrap()).unwrap(), spans);
        let mut events = Vec::new();
        chrome_events(&spans, 2, 1, &mut events);
        let e = &events[1];
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(e.get("ts").and_then(Json::as_f64), Some(2.0));
        assert_eq!(e.get("dur").and_then(Json::as_f64), Some(1.0));
        assert_eq!(e.get("args").and_then(|a| a.get("parent")).and_then(Json::as_f64), Some(0.0));
    }
}
