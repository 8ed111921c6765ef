//! Deterministic request-path tracing: sampled per-request step lists.
//!
//! A trace answers the question aggregates and events cannot: *what did
//! this one request go through* — which edge node it hit, whether it
//! failed over, probed a peer hint, fell through to the shield tier,
//! how many origin attempts it took and with what backoff. Recording
//! every request would dwarf the serving work, so the recorder samples
//! `1/N` of requests with a decision that is a **pure function of
//! `(object_id, trace_time)`** hashed through the workspace's fixed-seed
//! [`FastHasher`] — never wall clock, never thread id — so the sampled
//! set, and therefore the whole `--obs` export, is byte-identical at any
//! thread count (the determinism contract's seventh clause).
//!
//! Each sampled request becomes one [`TraceRecord`]: an ordered list of
//! [`TraceStep`]s stamped with *simulated* milliseconds since the request
//! started (the same latency-model components that build the request's
//! final latency) and byte sizes. Records serialize as the
//! `{"record":"trace",...}` JSONL tag and merge shard-deterministically
//! in [`crate::Obs::absorb_shards`] by their globally unique request
//! index.
//!
//! *Exemplars* connect traces back to the windowed series: at export
//! time the worst-latency sampled trace of each metric window is marked
//! `"exemplar":true` (see [`exemplar_marks`]), so a spike in a window's
//! story line comes with a concrete request to look at.

use lhr_util::hash::FastHasher;
use lhr_util::json::{FromJson, Json, JsonError, ObjectWriter};
use std::borrow::Cow;
use std::hash::Hasher;

/// One step of a sampled request's journey. Step names and detail keys
/// are literals at every hook point of the serving path, so a recorded
/// step borrows them; only a step parsed back from an export owns its
/// strings.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStep {
    /// Step name: `edge_lookup`, `failover`, `peer_hint`, `shield_lookup`,
    /// `origin_fetch`, `breaker`, `stale_serve`, `coalesce`.
    pub step: Cow<'static, str>,
    /// Simulated milliseconds since the request started (trace-time
    /// latency-model deltas, never wall clock).
    pub dt_ms: f64,
    /// Bytes involved in the step (0 when not meaningful).
    pub bytes: u64,
    /// Step-specific payload in insertion order, e.g. `{node, hit}` for
    /// `edge_lookup` or `{attempt, outcome, backoff_ms}` for
    /// `origin_fetch`.
    pub detail: Vec<(Cow<'static, str>, Json)>,
}

impl FromJson for TraceStep {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let detail: &[(String, Json)] = match v.get("detail") {
            Some(Json::Object(fields)) => fields,
            Some(other) => return Err(JsonError::new(format!("bad step detail: {other}"))),
            None => &[],
        };
        Ok(TraceStep {
            step: Cow::Owned(lhr_util::json::field(v, "step")?),
            dt_ms: lhr_util::json::field(v, "dt_ms")?,
            bytes: lhr_util::json::field(v, "bytes")?,
            detail: detail
                .iter()
                .map(|(k, v)| (Cow::Owned(k.clone()), v.clone()))
                .collect(),
        })
    }
}

/// One sampled request's full path.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Trace id: the request's global index in the replayed trace —
    /// unique, stable across thread counts, and what `obs trace --id`
    /// looks up.
    pub id: u64,
    /// Object id the request asked for.
    pub object: u64,
    /// Trace time of the request, seconds.
    pub t: f64,
    /// Object size in bytes.
    pub bytes: u64,
    /// Metric window index the request was credited to.
    pub window: u64,
    /// Total simulated latency of the request, milliseconds.
    pub latency_ms: f64,
    /// Whether this is the worst-latency sampled trace of its window
    /// (the export writes it from [`exemplar_marks`]; a recorded trace holds
    /// `false`).
    pub exemplar: bool,
    /// The ordered step list.
    pub steps: Vec<TraceStep>,
}

impl TraceRecord {
    /// This trace's fields in export order, for
    /// [`crate::ObsRecord::write_line`]. `exemplar` stands in for the
    /// record's own flag: the export computes the marks over the complete
    /// set without touching the buffered traces.
    pub(crate) fn write_fields(&self, w: &mut ObjectWriter<'_>, exemplar: bool) {
        w.uint("id", self.id);
        w.uint("object", self.object);
        w.float("t", self.t);
        w.uint("bytes", self.bytes);
        w.uint("window", self.window);
        w.float("latency_ms", self.latency_ms);
        w.boolean("exemplar", exemplar);
        let out = w.key("steps");
        out.push('[');
        for (i, step) in self.steps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let mut s = ObjectWriter::new(out);
            s.string("step", &step.step);
            s.float("dt_ms", step.dt_ms);
            s.uint("bytes", step.bytes);
            let mut detail = ObjectWriter::new(s.key("detail"));
            for (k, v) in &step.detail {
                detail.json(k, v);
            }
            detail.end();
            s.end();
        }
        out.push(']');
    }
}

impl FromJson for TraceRecord {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let steps = match v.get("steps") {
            Some(Json::Array(items)) => items
                .iter()
                .map(TraceStep::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            Some(other) => return Err(JsonError::new(format!("bad trace steps: {other}"))),
            None => Vec::new(),
        };
        Ok(TraceRecord {
            id: lhr_util::json::field(v, "id")?,
            object: lhr_util::json::field(v, "object")?,
            t: lhr_util::json::field(v, "t")?,
            bytes: lhr_util::json::field(v, "bytes")?,
            window: lhr_util::json::field(v, "window")?,
            latency_ms: lhr_util::json::field(v, "latency_ms")?,
            exemplar: lhr_util::json::field(v, "exemplar")?,
            steps,
        })
    }
}

/// Parses the CLI `--trace-sample` syntax: `1/64` (sample one request in
/// 64) or a bare integer `64` meaning the same. `1/1` traces everything;
/// `off` (or a bare `0`) disables tracing. One request in zero is not a
/// rate: `1/0` is refused like any other malformed fraction.
pub fn parse_sample(raw: &str) -> Result<u64, String> {
    let raw = raw.trim();
    if raw.eq_ignore_ascii_case("off") {
        return Ok(0);
    }
    let every = match raw.split_once('/') {
        Some((num, denom)) if num.trim() == "1" => {
            denom.trim().parse::<u64>().ok().filter(|&n| n > 0)
        }
        Some(_) => None,
        None => raw.parse::<u64>().ok(),
    };
    every.ok_or_else(|| format!("bad sample rate `{raw}` (want `1/N`, e.g. `1/64`, or `off`)"))
}

/// The hash the sampling decision is taken on: `(object, t_micros)`
/// through the workspace's fixed-seed [`FastHasher`].
#[inline]
fn request_hash(object: u64, t_micros: u64) -> u64 {
    let mut h = FastHasher::default();
    h.write_u64(object);
    h.write_u64(t_micros);
    h.finish()
}

/// The pure sampling decision: hash `(object, t_micros)` through the
/// fixed-seed [`FastHasher`] and keep one residue class out of `every`.
/// `every == 0` disables sampling; `every == 1` samples everything.
///
/// Both inputs are trace data — the decision cannot depend on thread
/// count, shard layout, or wall clock, so the sampled set is identical
/// in every replay of the same trace. This is the definition, and the
/// oracle [`TraceRecorder`]'s divide-free test is held to.
#[inline]
pub fn sampled(object: u64, t_micros: u64, every: u64) -> bool {
    match every {
        0 => false,
        1 => true,
        _ => request_hash(object, t_micros).is_multiple_of(every),
    }
}

/// Per-run tracing front-end held by an instrumented replay loop: owns
/// the sampling rate and mints [`TraceBuilder`]s for sampled requests.
///
/// It keeps the sampled set of [`sampled`] without that function's 64-bit
/// divide per request. Write `every = 2^k · q` with `q` odd: `h` is a
/// multiple of `q` iff `h · q⁻¹ (mod 2⁶⁴) ≤ ⌊(2⁶⁴−1) / q⌋`, and rotating
/// that product right by `k` moves the `k` low bits a multiple of `2^k`
/// must have clear to the top, so one compare against `⌊(2⁶⁴−1) / every⌋`
/// tests both (Granlund–Montgomery; Lemire et al., "Faster remainder by
/// direct computation", 2019).
#[derive(Debug, Clone, Copy)]
pub struct TraceRecorder {
    every: u64,
    /// `q⁻¹ mod 2⁶⁴`.
    odd_inverse: u64,
    /// `k`.
    twos: u32,
    /// `⌊(2⁶⁴−1) / every⌋`.
    limit: u64,
}

impl TraceRecorder {
    /// A recorder sampling one request in `every` (0 disables).
    pub fn new(every: u64) -> Self {
        let twos = every.trailing_zeros() % 64;
        let q = every >> twos;
        // Newton's iteration doubles the correct low bits each round; an
        // odd q is its own inverse mod 8, so five rounds reach 96 > 64.
        let mut odd_inverse = q;
        for _ in 0..5 {
            odd_inverse = odd_inverse.wrapping_mul(2u64.wrapping_sub(q.wrapping_mul(odd_inverse)));
        }
        TraceRecorder {
            every,
            odd_inverse,
            twos,
            limit: u64::MAX.checked_div(every).unwrap_or(0),
        }
    }

    /// Whether any request can be sampled at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.every > 0
    }

    /// Whether a request hashing to `h` is kept: `h % every == 0` (never,
    /// when disabled) without the divide.
    #[inline]
    pub fn keeps(&self, h: u64) -> bool {
        self.every > 0 && h.wrapping_mul(self.odd_inverse).rotate_right(self.twos) <= self.limit
    }

    /// Starts a trace for the request iff `(object, t_micros)` falls in
    /// the sampled class — [`sampled`]'s decision. `id` is the request's
    /// global trace index.
    #[inline]
    pub fn begin(&self, id: u64, object: u64, t_micros: u64, bytes: u64) -> Option<TraceBuilder> {
        // `enabled` first: a recorder that samples nothing hashes nothing.
        if self.enabled() && self.keeps(request_hash(object, t_micros)) {
            Some(TraceBuilder::new(id, object, t_micros, bytes))
        } else {
            None
        }
    }
}

/// In-flight step collector for one sampled request. Threaded as
/// `Option<&mut TraceBuilder>` through the serving path; `None` costs one
/// branch per hook point.
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    id: u64,
    object: u64,
    t_micros: u64,
    bytes: u64,
    /// Simulated milliseconds elapsed since the request started.
    cursor_ms: f64,
    steps: Vec<TraceStep>,
}

impl TraceBuilder {
    /// A builder for request `id` on `object` at trace time `t_micros`.
    pub fn new(id: u64, object: u64, t_micros: u64, bytes: u64) -> Self {
        TraceBuilder {
            id,
            object,
            t_micros,
            bytes,
            cursor_ms: 0.0,
            steps: Vec::new(),
        }
    }

    /// Advances the simulated clock by `ms` (latency-model components).
    #[inline]
    pub fn advance(&mut self, ms: f64) {
        self.cursor_ms += ms;
    }

    /// Appends a step stamped at the current simulated offset.
    #[inline]
    pub fn push(&mut self, step: &'static str, bytes: u64, detail: Vec<(Cow<'static, str>, Json)>) {
        self.steps.push(TraceStep {
            step: Cow::Borrowed(step),
            dt_ms: self.cursor_ms,
            bytes,
            detail,
        });
    }

    /// Seals the trace with the request's final latency and the metric
    /// window it was credited to.
    pub fn finish(self, latency_ms: f64, window: u64) -> TraceRecord {
        TraceRecord {
            id: self.id,
            object: self.object,
            t: self.t_micros as f64 / 1e6,
            bytes: self.bytes,
            window,
            latency_ms,
            exemplar: false,
            steps: self.steps,
        }
    }
}

/// Per trace, whether it is its metric window's exemplar: the
/// worst-latency trace of the window (ties break toward the smaller trace
/// id, which comes first in the id-sorted export). Computed at export time
/// over the complete merged trace list so the marks are independent of
/// thread count.
pub fn exemplar_marks(traces: &[TraceRecord]) -> Vec<bool> {
    use std::collections::BTreeMap;
    let mut best: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, t) in traces.iter().enumerate() {
        match best.get(&t.window) {
            Some(&j) if traces[j].latency_ms >= t.latency_ms => {}
            _ => {
                best.insert(t.window, i);
            }
        }
    }
    let mut marks = vec![false; traces.len()];
    for i in best.into_values() {
        marks[i] = true;
    }
    marks
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhr_util::json::ToJson;

    fn sample_trace() -> TraceRecord {
        TraceRecord {
            id: 1234,
            object: 0xDEAD_BEEF,
            t: 17.25,
            bytes: 1_000_000,
            window: 3,
            latency_ms: 182.5,
            exemplar: true,
            steps: vec![
                TraceStep {
                    step: "edge_lookup".into(),
                    dt_ms: 0.0,
                    bytes: 1_000_000,
                    detail: vec![
                        ("node".into(), 2u64.to_json()),
                        ("hit".into(), false.to_json()),
                    ],
                },
                TraceStep {
                    step: "origin_fetch".into(),
                    dt_ms: 12.5,
                    bytes: 1_000_000,
                    detail: vec![
                        ("attempt".into(), 1u64.to_json()),
                        ("outcome".into(), "timeout".to_json()),
                        ("backoff_ms".into(), 50u64.to_json()),
                    ],
                },
            ],
        }
    }

    #[test]
    fn trace_record_roundtrips_byte_identically() {
        let record = crate::ObsRecord::Trace(sample_trace());
        let line = record.to_line();
        let back = crate::ObsRecord::parse_line(&line).unwrap();
        assert_eq!(back, record);
        assert_eq!(back.to_line(), line);
    }

    #[test]
    fn sampling_is_a_pure_function_and_roughly_one_in_n() {
        // Identical inputs, identical decision — across recorder instances.
        for every in [2u64, 16, 64] {
            for id in 0..64u64 {
                let a = sampled(id, id * 1_000_003, every);
                let b = sampled(id, id * 1_000_003, every);
                assert_eq!(a, b);
            }
        }
        // Rough rate check at 1/16 over a larger population.
        let hits = (0..100_000u64)
            .filter(|&i| sampled(i.wrapping_mul(0x9E37_79B9), i * 131, 16))
            .count();
        assert!(
            (3_000..10_000).contains(&hits),
            "1/16 sampling wildly off: {hits}/100000"
        );
    }

    #[test]
    fn sample_rate_parses() {
        assert_eq!(parse_sample("1/64").unwrap(), 64);
        assert_eq!(parse_sample(" 1 / 8 ").unwrap(), 8);
        assert_eq!(parse_sample("64").unwrap(), 64);
        assert_eq!(parse_sample("1/1").unwrap(), 1);
        assert_eq!(parse_sample("0").unwrap(), 0);
        assert_eq!(parse_sample("off").unwrap(), 0);
        for bad in ["2/64", "0/1", "1/0", "1/", "x", "1/x", ""] {
            assert!(parse_sample(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn builder_stamps_simulated_offsets() {
        let mut b = TraceBuilder::new(7, 42, 2_500_000, 100);
        b.push("edge_lookup", 100, vec![("hit".into(), false.to_json())]);
        b.advance(12.0);
        b.push("origin_fetch", 100, Vec::new());
        b.advance(3.5);
        let t = b.finish(15.5, 2);
        assert_eq!(t.id, 7);
        assert_eq!(t.t, 2.5);
        assert_eq!(t.window, 2);
        assert!(!t.exemplar);
        assert_eq!(t.steps[0].dt_ms, 0.0);
        assert_eq!(t.steps[1].dt_ms, 12.0);
        assert_eq!(t.latency_ms, 15.5);
    }

    #[test]
    fn exemplars_mark_worst_latency_per_window_with_smallest_id_ties() {
        let mk = |id: u64, window: u64, latency_ms: f64| TraceRecord {
            id,
            window,
            latency_ms,
            ..sample_trace()
        };
        let traces = vec![
            mk(1, 0, 10.0),
            mk(2, 0, 50.0),
            mk(3, 0, 50.0), // tie: id 2 keeps the mark
            mk(4, 1, 5.0),
        ];
        assert_eq!(exemplar_marks(&traces), vec![false, true, false, true]);
    }

    #[test]
    fn disabled_recorder_samples_nothing() {
        let rec = TraceRecorder::new(0);
        assert!(!rec.enabled());
        assert!(rec.begin(0, 1, 2, 3).is_none());
        let all = TraceRecorder::new(1);
        assert!(all.begin(0, 1, 2, 3).is_some());
    }
}
