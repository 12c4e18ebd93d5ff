//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer's
//! public functions (`arch.stall_split`, `shuffle.reduce_fetch`, ...),
//! kept in memory, and written out as JSON when the run ends. A span's
//! layer is its name up to the first `.`. A layer's time is the sum of
//! its spans' self times, where self time is a span's duration minus its
//! children's durations. Every span descends from one root per point.
//!
//! A *mirror* span re-runs, with the same inputs, a layer call that the
//! simulator makes internally (HDFS placement, the shuffle solver, fault
//! sampling, metering) and is attached as a child of the simulator call
//! that contains the original. Its duration then moves from the
//! simulator call's self time to the mirrored layer. The duplicated work
//! is reported as `trace.mirror_s`, and the self times of all layers add
//! up to the traced wall time minus it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use crate::probe::HostStamp;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call` name.
    pub name: &'static str,
    /// Start, relative to the recorder's epoch.
    pub start: Duration,
    /// End, relative to the recorder's epoch.
    pub end: Duration,
    /// Index of the parent span, `None` for a point's root.
    pub parent: Option<usize>,
    /// For a mirror span, the span it physically ran inside (its
    /// parent is the simulator call it stands in for).
    pub host: Option<usize>,
    /// The point (artifact, sweep point, plan) the span belongs to.
    pub point: u32,
    /// The pass the span was recorded in.
    pub pass: u32,
}

impl Span {
    fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Handle of an open (or, when tracing is off, absent) span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Span recorder plus the deterministic counters of the current pass.
pub struct Tracer {
    on: bool,
    epoch: HostStamp,
    spans: Vec<Span>,
    stack: Vec<usize>,
    point: u32,
    pass: u32,
    /// First span of the current pass.
    pass_start: usize,
    /// Deterministic counts of the current pass, by metric name.
    counts: BTreeMap<&'static str, f64>,
    /// Host timings of the current pass measured outside spans.
    timings: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A recorder; while off, every span call is a passthrough.
    pub fn dormant() -> Self {
        Tracer {
            on: false,
            epoch: HostStamp::now_host(),
            spans: Vec::new(),
            stack: Vec::new(),
            point: 0,
            pass: 0,
            pass_start: 0,
            counts: BTreeMap::new(),
            timings: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Starts pass `pass`, recording spans only if `on`: clears the
    /// counters and timings.
    pub fn begin_pass(&mut self, pass: u32, on: bool) {
        self.on = on;
        self.pass = pass;
        self.pass_start = self.spans.len();
        self.counts.clear();
        self.timings.clear();
    }

    /// Opens a span under the innermost open span.
    pub fn enter_span(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.epoch.since_stamp(),
            end: Duration::ZERO,
            parent: self.stack.last().copied(),
            host: None,
            point: self.point,
            pass: self.pass,
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit_span(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            let now = self.epoch.since_stamp();
            debug_assert_eq!(self.stack.last(), Some(&i), "spans close innermost first");
            self.stack.pop();
            if let Some(s) = self.spans.get_mut(i) {
                s.end = now;
            }
        }
    }

    /// Opens the root span of point `point`.
    pub fn open_point(&mut self, name: &'static str, point: u32) -> SpanId {
        self.point = point;
        self.enter_span(name)
    }

    /// Runs `f` inside a span named `name`. The result passes through
    /// `black_box`, so a call whose result the caller drops (a mirror) is
    /// still computed.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter_span(name);
        let out = std::hint::black_box(f());
        self.exit_span(id);
        out
    }

    /// Runs `f` as a mirror span: recorded now, but as a child of the
    /// already closed span `parent` (see the module docs).
    pub fn mirror<T>(&mut self, parent: SpanId, name: &'static str, f: impl FnOnce() -> T) -> T {
        let host = self.stack.last().copied();
        let saved = std::mem::replace(&mut self.stack, parent.0.into_iter().collect());
        let first = self.spans.len();
        let out = self.time(name, f);
        self.stack = saved;
        if let Some(s) = self.spans.get_mut(first) {
            s.host = host;
        }
        out
    }

    /// Adds `v` to the deterministic counter `name`.
    pub fn add_count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    /// The current pass's deterministic counters.
    pub fn pass_counts(&self) -> &BTreeMap<&'static str, f64> {
        &self.counts
    }

    /// Adds `seconds` to the host timing `name` (a time the program
    /// reports or the benchmark takes outside any span).
    pub fn add_timing(&mut self, name: &'static str, seconds: f64) {
        *self.timings.entry(name).or_insert(0.0) += seconds;
    }

    /// The current pass's host timings.
    pub fn timings(&self) -> &BTreeMap<&'static str, f64> {
        &self.timings
    }

    /// Self time per layer and per span name over the current pass.
    ///
    /// A mirror's duration is taken off both the call it stands in for
    /// and the span it ran inside, so the layers' self times add up to
    /// the traced wall time minus the mirrored (duplicated) work, which
    /// is reported as `mirror_s`.
    pub fn pass_self_times(&self) -> SelfTimes {
        let spans = self.spans.get(self.pass_start..).unwrap_or(&[]);
        let local = |i: Option<usize>| i.and_then(|i| i.checked_sub(self.pass_start));
        let mut child = vec![0.0; spans.len()];
        let mut out = SelfTimes::default();
        for s in spans {
            let d = s.duration().as_secs_f64();
            for p in [local(s.parent), local(s.host)].into_iter().flatten() {
                if let Some(c) = child.get_mut(p) {
                    *c += d;
                }
            }
            if s.host.is_some() {
                out.mirror_s += d;
            }
        }
        for (s, c) in spans.iter().zip(child) {
            // Signed on purpose: a mirror may run a little longer than
            // the call it stands in for, and clamping would break the
            // partition of the traced wall time.
            let own = s.duration().as_secs_f64() - c;
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.layer.entry(layer).or_insert(0.0) += own;
            *out.name.entry(s.name).or_insert(0.0) += own;
            if s.parent.is_none() {
                out.roots_s += s.duration().as_secs_f64();
            }
        }
        out
    }

    /// All spans as a JSON document (one object per span).
    pub fn spans_json(&self) -> String {
        let mut out = String::from("{\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"id\":{i},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent},\"mirror\":{},\"point\":{},\"pass\":{}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start.as_secs_f64(),
                s.end.as_secs_f64(),
                s.host.is_some(),
                s.point,
                s.pass,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self times of one traced pass.
#[derive(Debug, Default)]
pub struct SelfTimes {
    /// Seconds per layer.
    pub layer: BTreeMap<&'static str, f64>,
    /// Seconds per span name.
    pub name: BTreeMap<&'static str, f64>,
    /// Summed duration of the root spans.
    pub roots_s: f64,
    /// Summed duration of the mirror spans.
    pub mirror_s: f64,
}

impl SelfTimes {
    /// Self seconds of `layer` (0 when it recorded no span).
    pub fn layer(&self, layer: &str) -> f64 {
        self.layer.get(layer).copied().unwrap_or(0.0)
    }

    /// Self seconds of spans named `name`.
    pub fn span(&self, name: &str) -> f64 {
        self.name.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_roots() {
        let mut tr = Tracer::dormant();
        tr.begin_pass(0, true);
        let root = tr.open_point("model.point", 7);
        let run = tr.enter_span("cluster.run");
        std::thread::sleep(Duration::from_millis(2));
        tr.exit_span(run);
        tr.mirror(run, "shuffle.reduce_fetch", || {
            std::thread::sleep(Duration::from_millis(1))
        });
        tr.exit_span(root);
        let st = tr.pass_self_times();
        let sum: f64 = st.layer.values().sum();
        assert!(
            (sum + st.mirror_s - st.roots_s).abs() < 1e-9,
            "{sum} + {} vs {}",
            st.mirror_s,
            st.roots_s
        );
        assert!(st.layer("shuffle") > 0.0);
        assert!(
            st.layer("model") >= 0.0,
            "the mirror is not the root's own time"
        );
        assert_eq!(tr.spans[2].parent, Some(1), "mirror hangs under the run");
        assert_eq!(tr.spans[2].host, Some(0), "and ran inside the root");
        assert_eq!(tr.spans[2].point, 7);
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::dormant();
        tr.begin_pass(0, false);
        let x = tr.time("arch.stall_split", || 3);
        assert_eq!(x, 3);
        assert!(tr.spans.is_empty());
        assert!(tr.pass_self_times().layer.is_empty());
    }
}
