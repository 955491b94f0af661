//! Per-request tracing: timestamped spans, the race members' frame
//! stream and its trace recorder, and a bounded ring of recent traces.
//!
//! A [`Trace`] is owned by the worker thread handling one request —
//! building it never synchronises. Race members emit one stream of
//! [`Frame`]s; a traced race records it through a `TraceRecorder`
//! into [`MemberTrace`]s, which the solver/session glue converts to
//! `member/<model>` spans. Finished traces are rendered to JSON once
//! and pushed into the service's [`TraceRing`], where `trace_dump`
//! reads them back newest-last; when the ring is full the *oldest*
//! trace is evicted first.
//!
//! Span taxonomy (all offsets µs-relative to the trace start):
//! `parse` (request line → typed request), `cache_lookup`, `admission`
//! (queue-depth check), `race` (the whole portfolio race),
//! `member/<model>` (one race member, with its improvement timeline),
//! `repair` / `resolve` (the two legs of a session event).

use crate::json::Json;
pub use ga::stats::GenerationSample;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed leg of a request.
#[derive(Debug, Clone)]
pub struct Span {
    /// Taxonomy name (`parse`, `cache_lookup`, `member/island`, ...).
    pub name: String,
    /// Start offset from the trace start, in µs.
    pub start_us: u64,
    /// Duration, in µs.
    pub dur_us: u64,
    /// Span-specific payload fields, rendered verbatim into the span
    /// object (e.g. `hit` on `cache_lookup`, `timeline` on members).
    pub fields: Vec<(String, Json)>,
}

impl Span {
    /// Renders the span as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name".to_string(), Json::Str(self.name.clone())),
            ("start_us".to_string(), self.start_us.into()),
            ("dur_us".to_string(), self.dur_us.into()),
        ];
        fields.extend(self.fields.iter().cloned());
        Json::Obj(fields)
    }
}

/// One race member's trace: when it ran (µs-relative to the race
/// start) and its anytime improvement points `(elapsed_us,
/// best_value)` — the first point is the member's initial best, each
/// further point a strict improvement.
#[derive(Debug, Clone, Default)]
pub struct MemberTrace {
    /// The member's stable model label (`master_slave`, `island`, ...).
    pub member: String,
    /// Run start, µs after the race began (includes pool queue wait).
    pub start_us: u64,
    /// Run duration in µs.
    pub dur_us: u64,
    /// `(elapsed_us since race start, best value)` improvement points.
    pub points: Vec<(u64, f64)>,
    /// Per-generation convergence samples retained for this member
    /// (decimated to a bounded count by the `TraceRecorder`).
    pub samples: Vec<GenerationSample>,
}

impl MemberTrace {
    /// Renders the timeline as `[[elapsed_us, value], ...]`.
    pub fn timeline_json(&self) -> Json {
        Json::Arr(
            self.points
                .iter()
                .map(|&(us, v)| Json::Arr(vec![us.into(), v.into()]))
                .collect(),
        )
    }

    /// Renders the retained convergence samples as an array of
    /// `{generation, evaluations, best, mean, diversity,
    /// since_improvement, island?, migration?}` objects (the optional
    /// fields are omitted when `None`/`false` to keep traces compact).
    pub fn samples_json(&self) -> Json {
        Json::Arr(self.samples.iter().map(sample_json).collect())
    }
}

/// Renders one [`GenerationSample`] as a JSON object.
pub fn sample_json(s: &GenerationSample) -> Json {
    Json::Obj(sample_fields(s))
}

/// A sample's fields, shared by [`sample_json`] (trace retention) and
/// the `sample` watch frame.
fn sample_fields(s: &GenerationSample) -> Vec<(String, Json)> {
    let mut fields = vec![
        ("generation".to_string(), s.generation.into()),
        ("evaluations".to_string(), s.evaluations.into()),
        ("best".to_string(), s.best_cost.into()),
        ("mean".to_string(), s.mean_cost.into()),
        ("diversity".to_string(), s.diversity.into()),
        ("since_improvement".to_string(), s.since_improvement.into()),
    ];
    if let Some(island) = s.island {
        fields.push(("island".to_string(), u64::from(island).into()));
    }
    if s.migration {
        fields.push(("migration".to_string(), Json::Bool(true)));
    }
    fields
}

/// Where a race's frames go. The server implements this as one frame
/// log per watched race, followed by the subscribing connection and
/// any attachers, and a traced race interposes a `TraceRecorder`; the
/// portfolio only ever *emits*.
/// Emission happens from racer threads concurrently, so
/// implementations must serialise internally, and must never block
/// the race on a slow consumer (drop or buffer — the race's trajectory
/// must not depend on who is watching). A pooled member popped just
/// before cancellation can still run to completion after the race core
/// has returned at the deadline, so `emit` may be called *after* the
/// submitting thread moved on: implementations that write a terminal
/// record must disarm themselves first (the server's watch log drops
/// post-seal frames).
pub trait WatchSink: Send + Sync {
    /// Delivers one frame.
    fn emit(&self, frame: &Frame);
}

/// One event of a race member's stream: what a `watch` subscriber
/// receives and what a `TraceRecorder` records. Per member the order
/// is `start`, then `best`/`sample` frames, then `finish`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Frame {
    /// The member's lineup index.
    pub member: usize,
    /// The member's stable model label (`master_slave`, `island`, ...).
    pub model: &'static str,
    /// What happened.
    pub payload: Payload,
}

/// The event a [`Frame`] reports. `elapsed_us` is µs since the race
/// began.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Payload {
    /// The member started running (after any racer-pool queue wait).
    Start {
        /// When it started.
        elapsed_us: u64,
    },
    /// The member's starting best, or a strict improvement on it.
    Best {
        /// The new best value.
        value: f64,
        /// When it was reported.
        elapsed_us: u64,
    },
    /// One per-generation convergence sample (one per island on island
    /// members). Untimed: samples read no clock.
    Sample(GenerationSample),
    /// The member stopped.
    Finish {
        /// When it stopped.
        elapsed_us: u64,
        /// The member's final best value.
        best: f64,
    },
}

impl Frame {
    /// Renders the frame's wire object: `{"frame": kind, "member": i,
    /// "model": name, ...payload fields}`. The only writer of the
    /// watch-frame layout.
    pub fn to_json(&self) -> Json {
        let f = |k: &str, v: Json| (k.to_string(), v);
        let (kind, payload) = match self.payload {
            Payload::Start { elapsed_us } => ("start", vec![f("elapsed_us", elapsed_us.into())]),
            Payload::Best { value, elapsed_us } => (
                "best",
                vec![f("value", value.into()), f("elapsed_us", elapsed_us.into())],
            ),
            Payload::Sample(s) => ("sample", sample_fields(&s)),
            Payload::Finish { elapsed_us, best } => (
                "finish",
                vec![f("elapsed_us", elapsed_us.into()), f("best", best.into())],
            ),
        };
        let mut fields = vec![
            f("frame", kind.into()),
            f("member", (self.member as u64).into()),
            f("model", self.model.into()),
        ];
        fields.extend(payload);
        Json::Obj(fields)
    }
}

/// Retained convergence samples per member are capped at this count.
const SAMPLE_CAP: usize = 256;

/// One member's recording, built from its frames.
#[derive(Debug, Default)]
struct MemberLog {
    trace: MemberTrace,
    /// Samples are kept for generations that are multiples of 2^halvings.
    halvings: u32,
}

impl MemberLog {
    fn record(&mut self, frame: &Frame) {
        let t = &mut self.trace;
        match frame.payload {
            Payload::Start { elapsed_us } => {
                t.member = frame.model.to_string();
                t.start_us = elapsed_us;
            }
            Payload::Best { value, elapsed_us } => t.points.push((elapsed_us, value)),
            Payload::Sample(s) => self.retain(s),
            Payload::Finish { elapsed_us, .. } => t.dur_us = elapsed_us.saturating_sub(t.start_us),
        }
    }

    /// Keeps `s` when its generation is a multiple of the stride; at
    /// the cap the stride doubles and the generations off it are
    /// dropped, so a long run keeps a bounded, evenly thinned, fresh
    /// history. Keyed on the generation, a kept generation keeps all
    /// its islands (a stride over the sample count that divides the
    /// island count would keep the same islands forever).
    fn retain(&mut self, s: GenerationSample) {
        let samples = &mut self.trace.samples;
        if !s.generation.is_multiple_of(1 << self.halvings) {
            return;
        }
        samples.push(s);
        if samples.len() >= SAMPLE_CAP {
            self.halvings += 1;
            let stride = 1 << self.halvings;
            samples.retain(|k| k.generation.is_multiple_of(stride));
        }
    }
}

/// The [`WatchSink`] of a traced race: records each member's
/// [`MemberTrace`] from its frames (`start_us`/`dur_us` from `start`
/// and `finish`, the timeline from `best`, decimated `sample`s) and
/// forwards every frame to the inner sink, the subscriber's when the
/// race is also watched — so a trace records exactly the watched stream.
pub(crate) struct TraceRecorder {
    members: Vec<Mutex<MemberLog>>,
    inner: Option<Arc<dyn WatchSink>>,
}

impl TraceRecorder {
    /// A recorder for a race of `members` members, forwarding to
    /// `inner`.
    pub(crate) fn new(members: usize, inner: Option<Arc<dyn WatchSink>>) -> Self {
        TraceRecorder {
            members: (0..members).map(|_| Mutex::default()).collect(),
            inner,
        }
    }

    /// The recordings of the members `ran` selects, in lineup order.
    pub(crate) fn traces(&self, ran: impl Fn(usize) -> bool) -> Vec<MemberTrace> {
        self.members
            .iter()
            .enumerate()
            .filter(|&(i, _)| ran(i))
            .map(|(_, log)| log.lock().expect("member trace poisoned").trace.clone())
            .collect()
    }
}

impl WatchSink for TraceRecorder {
    fn emit(&self, frame: &Frame) {
        self.members[frame.member]
            .lock()
            .expect("member trace poisoned")
            .record(frame);
        if let Some(inner) = &self.inner {
            inner.emit(frame);
        }
    }
}

/// A request trace under construction: an id, a kind, a start instant
/// and the spans recorded so far.
#[derive(Debug)]
pub struct Trace {
    /// Ring-unique trace id.
    pub id: u64,
    /// Request kind (`solve`, `session_event`, ...).
    pub kind: &'static str,
    /// Session the request belonged to (`session_event` traces); lets
    /// `trace_dump` filter one session's traffic out of the ring.
    pub session: Option<String>,
    started: Instant,
    /// Spans recorded so far, in recording order.
    pub spans: Vec<Span>,
}

impl Trace {
    /// Starts a trace now.
    pub fn new(id: u64, kind: &'static str) -> Self {
        Trace {
            id,
            kind,
            session: None,
            started: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// µs elapsed since the trace started — use as a span's start
    /// offset before the work, then close with [`Trace::span`].
    pub fn elapsed_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// Records a span that started at offset `start_us` and ends now.
    pub fn span(&mut self, name: &str, start_us: u64, fields: Vec<(String, Json)>) {
        let dur_us = self.elapsed_us().saturating_sub(start_us);
        self.span_at(name, start_us, dur_us, fields);
    }

    /// Records a span with an explicit duration (legs timed elsewhere,
    /// e.g. race members).
    pub fn span_at(&mut self, name: &str, start_us: u64, dur_us: u64, fields: Vec<(String, Json)>) {
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            dur_us,
            fields,
        });
    }

    /// Records one `member/<model>` span per race-member timeline,
    /// offset by `base_us` — the race's start within this trace — so
    /// member spans and their anytime `timeline` points share the
    /// trace's clock.
    pub fn member_spans(&mut self, base_us: u64, timelines: &[MemberTrace]) {
        for m in timelines {
            let mut fields = vec![("timeline".to_string(), m.timeline_json())];
            if !m.samples.is_empty() {
                fields.push(("samples".to_string(), m.samples_json()));
            }
            self.span_at(
                &format!("member/{}", m.member),
                base_us + m.start_us,
                m.dur_us,
                fields,
            );
        }
    }

    /// Renders the finished trace: `{id, kind, session?, total_us,
    /// spans}` (`session` only on session-scoped traces).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id".to_string(), self.id.into()),
            ("kind".to_string(), self.kind.into()),
        ];
        if let Some(session) = &self.session {
            fields.push(("session".to_string(), Json::Str(session.clone())));
        }
        fields.push(("total_us".to_string(), self.elapsed_us().into()));
        fields.push((
            "spans".to_string(),
            Json::Arr(self.spans.iter().map(Span::to_json).collect()),
        ));
        Json::Obj(fields)
    }
}

/// Bounded ring of recently finished traces (rendered JSON). Push
/// evicts the oldest entry once the ring is at capacity.
#[derive(Debug)]
pub struct TraceRing {
    capacity: usize,
    next_id: AtomicU64,
    ring: Mutex<VecDeque<Json>>,
}

impl TraceRing {
    /// A ring holding at most `capacity` traces (minimum 1).
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            capacity: capacity.max(1),
            next_id: AtomicU64::new(1),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Mints the next trace id.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Capacity the ring was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of traces currently held.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("trace ring poisoned").len()
    }

    /// True when no trace has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stores a finished trace, evicting the oldest when full.
    pub fn push(&self, trace: Json) {
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// The most recent `limit` traces, oldest first.
    pub fn dump(&self, limit: usize) -> Vec<Json> {
        let ring = self.ring.lock().expect("trace ring poisoned");
        let skip = ring.len().saturating_sub(limit);
        ring.iter().skip(skip).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    #[test]
    fn spans_render_with_offsets_and_fields() {
        let mut t = Trace::new(3, "solve");
        let s = t.elapsed_us();
        t.span("parse", s, vec![("bytes".to_string(), 42u64.into())]);
        t.span_at("member/island", 10, 250, vec![]);
        let json = t.to_json();
        assert_eq!(json.get("id").and_then(Json::as_u64), Some(3));
        assert_eq!(json.get("kind").and_then(Json::as_str), Some("solve"));
        let spans = json.get("spans").and_then(Json::as_arr).expect("spans");
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("name").and_then(Json::as_str), Some("parse"));
        assert_eq!(spans[0].get("bytes").and_then(Json::as_u64), Some(42));
        assert_eq!(spans[1].get("start_us").and_then(Json::as_u64), Some(10));
        assert_eq!(spans[1].get("dur_us").and_then(Json::as_u64), Some(250));
    }

    #[test]
    fn member_timeline_renders_point_pairs() {
        let m = MemberTrace {
            member: "cellular".to_string(),
            start_us: 5,
            dur_us: 100,
            points: vec![(7, 61.0), (80, 55.0)],
            samples: Vec::new(),
        };
        let tl = m.timeline_json();
        let points = tl.as_arr().expect("timeline array");
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].as_arr().unwrap()[1].as_f64(), Some(61.0));
        assert_eq!(points[1].as_arr().unwrap()[0].as_u64(), Some(80));
    }

    #[test]
    fn samples_render_compactly_and_only_when_present() {
        let sample = GenerationSample {
            island: Some(2),
            generation: 7,
            evaluations: 140,
            best_cost: 55.0,
            mean_cost: 61.5,
            diversity: 0.42,
            since_improvement: 3,
            migration: true,
        };
        let quiet = GenerationSample {
            island: None,
            migration: false,
            ..sample
        };
        let m = MemberTrace {
            member: "island".to_string(),
            start_us: 0,
            dur_us: 10,
            points: vec![(0, 61.0)],
            samples: vec![sample, quiet],
        };
        let arr = m.samples_json();
        let arr = arr.as_arr().expect("samples array");
        assert_eq!(arr[0].get("island").and_then(Json::as_u64), Some(2));
        assert_eq!(arr[0].get("migration"), Some(&Json::Bool(true)));
        assert_eq!(arr[0].get("best").and_then(Json::as_f64), Some(55.0));
        assert_eq!(
            arr[0].get("since_improvement").and_then(Json::as_u64),
            Some(3)
        );
        // Panmictic, migration-free samples omit the optional fields.
        assert!(arr[1].get("island").is_none());
        assert!(arr[1].get("migration").is_none());

        // member_spans only attaches `samples` when retained.
        let mut t = Trace::new(1, "solve");
        let bare = MemberTrace {
            member: "master_slave".to_string(),
            start_us: 0,
            dur_us: 5,
            points: Vec::new(),
            samples: Vec::new(),
        };
        t.member_spans(0, &[m, bare]);
        assert!(t.spans[0].fields.iter().any(|(k, _)| k == "samples"));
        assert!(!t.spans[1].fields.iter().any(|(k, _)| k == "samples"));
    }

    #[test]
    fn session_tag_renders_only_when_set() {
        let mut t = Trace::new(9, "session_event");
        assert!(t.to_json().get("session").is_none());
        t.session = Some("s-1".to_string());
        assert_eq!(
            t.to_json().get("session").and_then(Json::as_str),
            Some("s-1")
        );
    }

    #[test]
    fn ring_is_bounded_and_evicts_oldest_first() {
        let ring = TraceRing::new(3);
        for i in 0..5u64 {
            ring.push(obj([("id", i.into())]));
        }
        assert_eq!(ring.len(), 3);
        let all = ring.dump(usize::MAX);
        let ids: Vec<u64> = all
            .iter()
            .map(|t| t.get("id").and_then(Json::as_u64).unwrap())
            .collect();
        // 0 and 1 were evicted (oldest first); survivors stay ordered.
        assert_eq!(ids, vec![2, 3, 4]);
        // A bounded dump returns the most recent traces, oldest first.
        let last_two: Vec<u64> = ring
            .dump(2)
            .iter()
            .map(|t| t.get("id").and_then(Json::as_u64).unwrap())
            .collect();
        assert_eq!(last_two, vec![3, 4]);
    }

    fn frame(member: usize, model: &'static str, payload: Payload) -> Frame {
        Frame {
            member,
            model,
            payload,
        }
    }

    fn island_sample(island: u32, generation: u64) -> GenerationSample {
        GenerationSample {
            island: Some(island),
            generation,
            evaluations: generation * 12,
            best_cost: 60.0,
            mean_cost: 70.0,
            diversity: 0.5,
            since_improvement: 0,
            migration: false,
        }
    }

    /// Collects every frame it is handed.
    #[derive(Default)]
    struct Collect(Mutex<Vec<Frame>>);

    impl WatchSink for Collect {
        fn emit(&self, frame: &Frame) {
            self.0.lock().unwrap().push(*frame);
        }
    }

    #[test]
    fn frames_render_the_wire_layout() {
        let sample = GenerationSample {
            island: None,
            generation: 1,
            evaluations: 72,
            best_cost: 47.0,
            mean_cost: 50.25,
            diversity: 0.5,
            since_improvement: 1,
            migration: false,
        };
        let lines: Vec<String> = [
            Payload::Start { elapsed_us: 5 },
            Payload::Best {
                value: 47.0,
                elapsed_us: 83,
            },
            Payload::Sample(sample),
            Payload::Finish {
                elapsed_us: 284193,
                best: 46.0,
            },
        ]
        .into_iter()
        .map(|p| frame(0, "cellular", p).to_json().encode())
        .collect();
        assert_eq!(
            lines,
            [
                r#"{"frame":"start","member":0,"model":"cellular","elapsed_us":5}"#,
                r#"{"frame":"best","member":0,"model":"cellular","value":47,"elapsed_us":83}"#,
                r#"{"frame":"sample","member":0,"model":"cellular","generation":1,"evaluations":72,"best":47,"mean":50.25,"diversity":0.5,"since_improvement":1}"#,
                r#"{"frame":"finish","member":0,"model":"cellular","elapsed_us":284193,"best":46}"#,
            ]
        );
    }

    /// The recorder forwards every frame, in order, and builds each
    /// member's trace from them; members the caller leaves out (a
    /// straggler with no result) are absent.
    #[test]
    fn recorder_records_the_stream_it_forwards() {
        let inner = Arc::new(Collect::default());
        let rec = TraceRecorder::new(2, Some(Arc::clone(&inner) as Arc<dyn WatchSink>));
        let frames = [
            frame(1, "island", Payload::Start { elapsed_us: 40 }),
            frame(
                1,
                "island",
                Payload::Best {
                    value: 61.0,
                    elapsed_us: 45,
                },
            ),
            frame(1, "island", Payload::Sample(island_sample(0, 1))),
            frame(
                1,
                "island",
                Payload::Best {
                    value: 55.0,
                    elapsed_us: 90,
                },
            ),
            frame(
                1,
                "island",
                Payload::Finish {
                    elapsed_us: 300,
                    best: 55.0,
                },
            ),
            frame(0, "cellular", Payload::Start { elapsed_us: 5 }),
        ];
        for f in &frames {
            rec.emit(f);
        }
        assert_eq!(*inner.0.lock().unwrap(), frames);
        let traces = rec.traces(|i| i == 1);
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.member, "island");
        assert_eq!((t.start_us, t.dur_us), (40, 260));
        assert_eq!(t.points, [(45, 61.0), (90, 55.0)]);
        assert_eq!(t.samples, [island_sample(0, 1)]);
    }

    /// An island member emits its islands in order every generation. A
    /// stride over the emitted-sample count that divides the island
    /// count keeps the same islands forever; keyed on the generation,
    /// every kept generation keeps all of its islands.
    #[test]
    fn recorder_keeps_every_island_of_the_generations_it_keeps() {
        let rec = TraceRecorder::new(1, None);
        rec.emit(&frame(0, "island", Payload::Start { elapsed_us: 0 }));
        for generation in 1..=200 {
            for island in 0..4 {
                let s = island_sample(island, generation);
                rec.emit(&frame(0, "island", Payload::Sample(s)));
            }
        }
        let samples = &rec.traces(|_| true)[0].samples;
        assert!(samples.len() <= SAMPLE_CAP, "{} held", samples.len());
        let newest = samples.iter().map(|s| s.generation).max().unwrap();
        let islands: Vec<u32> = samples
            .iter()
            .filter(|s| s.generation == newest)
            .filter_map(|s| s.island)
            .collect();
        assert_eq!(islands, [0, 1, 2, 3], "newest kept generation {newest}");
        for s in samples {
            let n = samples
                .iter()
                .filter(|k| k.generation == s.generation)
                .count();
            assert_eq!(n, 4, "generation {} kept whole", s.generation);
        }
    }

    #[test]
    fn ring_ids_are_unique_and_monotone() {
        let ring = TraceRing::new(2);
        let a = ring.next_id();
        let b = ring.next_id();
        assert!(b > a);
    }
}
