//! The JSONL line model: everything [`crate::Obs`] exports is one
//! [`ObsRecord`] per line, tagged by a leading `"record"` field so a
//! stream can be parsed back without knowing what produced it.
//!
//! Line shapes (field order is fixed — output is byte-deterministic):
//!
//! ```text
//! {"record":"meta","policy":"lhr","seed":42,...}
//! {"record":"window","index":0,"start_requests":0,...}
//! {"record":"event","t":12.5,"kind":"Retrain","fields":{...}}
//! {"record":"counter","name":"sim.requests","value":100000}
//! {"record":"gauge","name":"lhr.threshold","value":0.37}
//! {"record":"hist","name":"server.latency_us","total":...,"buckets":[[...]]}
//! {"record":"span","path":"sim.run","count":1,"total_secs":0,"self_secs":0}
//! {"record":"trace","id":1234,"object":...,"steps":[{...}]}
//! ```

use crate::event::Event;
use crate::hist::LogHistogram;
use crate::series::WindowRecord;
use crate::span::SpanRecord;
use crate::trace::TraceRecord;
use lhr_util::json::{FromJson, Json, JsonError, ObjectWriter};

/// One line of an obs JSONL stream.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsRecord {
    /// Run-level metadata (policy, preset, seed, window spec, …).
    Meta(Vec<(String, Json)>),
    /// One completed window of the metric series.
    Window(WindowRecord),
    /// One structured event.
    Event(Event),
    /// A named monotonic counter's final value.
    Counter {
        /// Counter name, dot-namespaced (`sim.requests`).
        name: String,
        /// Final value.
        value: u64,
    },
    /// A named gauge's final value.
    Gauge {
        /// Gauge name, dot-namespaced (`lhr.threshold`).
        name: String,
        /// Final value.
        value: f64,
    },
    /// A named histogram.
    Hist {
        /// Histogram name, dot-namespaced (`server.latency_us`).
        name: String,
        /// The aggregated distribution.
        hist: LogHistogram,
    },
    /// One node of the profiling span tree.
    Span(SpanRecord),
    /// One sampled request's path trace.
    Trace(TraceRecord),
}

impl ObsRecord {
    /// The value of the `"record"` tag this variant serializes with.
    pub fn tag(&self) -> &'static str {
        self.as_ref().tag()
    }

    /// Appends this record's JSONL line (no trailing newline) to `out`,
    /// written field by field through [`ObjectWriter`] — the export's one
    /// serializer. The line is the canonical spelling:
    /// `Json::parse(line)?.to_string()` is the line itself.
    pub fn write_line(&self, out: &mut String) {
        self.as_ref().write_line(out);
    }

    /// Serializes to one JSONL line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut line = String::new();
        self.write_line(&mut line);
        line
    }

    /// Parses one JSONL line.
    pub fn parse_line(line: &str) -> Result<ObsRecord, JsonError> {
        ObsRecord::from_json(&Json::parse(line)?)
    }

    fn as_ref(&self) -> RecordRef<'_> {
        match self {
            ObsRecord::Meta(fields) => RecordRef::Meta(fields),
            ObsRecord::Window(w) => RecordRef::Window(w),
            ObsRecord::Event(e) => RecordRef::Event(e),
            ObsRecord::Counter { name, value } => RecordRef::Counter {
                name,
                value: *value,
            },
            ObsRecord::Gauge { name, value } => RecordRef::Gauge {
                name,
                value: *value,
            },
            ObsRecord::Hist { name, hist } => RecordRef::Hist { name, hist },
            ObsRecord::Span(s) => RecordRef::Span(s),
            ObsRecord::Trace(trace) => RecordRef::Trace {
                trace,
                exemplar: trace.exemplar,
            },
        }
    }
}

/// A borrowed [`ObsRecord`]: what the recorder walks its buffers with at
/// export, so a line is written straight from the buffered window, event
/// or trace without cloning it into an owned record first.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RecordRef<'a> {
    Meta(&'a [(String, Json)]),
    Window(&'a WindowRecord),
    Event(&'a Event),
    Counter {
        name: &'a str,
        value: u64,
    },
    Gauge {
        name: &'a str,
        value: f64,
    },
    Hist {
        name: &'a str,
        hist: &'a LogHistogram,
    },
    Span(&'a SpanRecord),
    /// `exemplar` overrides the buffered trace's own flag: the marks are
    /// computed over the complete set at export time.
    Trace {
        trace: &'a TraceRecord,
        exemplar: bool,
    },
}

impl RecordRef<'_> {
    fn tag(&self) -> &'static str {
        match self {
            RecordRef::Meta(_) => "meta",
            RecordRef::Window(_) => "window",
            RecordRef::Event(_) => "event",
            RecordRef::Counter { .. } => "counter",
            RecordRef::Gauge { .. } => "gauge",
            RecordRef::Hist { .. } => "hist",
            RecordRef::Span(_) => "span",
            RecordRef::Trace { .. } => "trace",
        }
    }

    /// The line of [`ObsRecord::write_line`]. Each variant writes its
    /// fields in the fixed order of the module docs (the serving goldens
    /// under `tests/golden/serving/` pin it).
    pub(crate) fn write_line(&self, out: &mut String) {
        let mut w = ObjectWriter::new(out);
        w.string("record", self.tag());
        match *self {
            RecordRef::Meta(fields) => {
                for (k, v) in fields {
                    w.json(k, v);
                }
            }
            RecordRef::Window(window) => window.write_fields(&mut w),
            RecordRef::Event(e) => e.write_fields(&mut w),
            RecordRef::Counter { name, value } => {
                w.string("name", name);
                w.uint("value", value);
            }
            RecordRef::Gauge { name, value } => {
                w.string("name", name);
                w.float("value", value);
            }
            RecordRef::Hist { name, hist } => {
                w.string("name", name);
                hist.write_fields(&mut w);
            }
            RecordRef::Span(s) => s.write_fields(&mut w),
            RecordRef::Trace { trace, exemplar } => trace.write_fields(&mut w, exemplar),
        }
        w.end();
    }

    /// The owned record this borrows from.
    pub(crate) fn to_record(self) -> ObsRecord {
        match self {
            RecordRef::Meta(fields) => ObsRecord::Meta(fields.to_vec()),
            RecordRef::Window(w) => ObsRecord::Window(w.clone()),
            RecordRef::Event(e) => ObsRecord::Event(e.clone()),
            RecordRef::Counter { name, value } => ObsRecord::Counter {
                name: name.to_string(),
                value,
            },
            RecordRef::Gauge { name, value } => ObsRecord::Gauge {
                name: name.to_string(),
                value,
            },
            RecordRef::Hist { name, hist } => ObsRecord::Hist {
                name: name.to_string(),
                hist: hist.clone(),
            },
            RecordRef::Span(s) => ObsRecord::Span(s.clone()),
            RecordRef::Trace { trace, exemplar } => ObsRecord::Trace(TraceRecord {
                exemplar,
                ..trace.clone()
            }),
        }
    }
}

impl FromJson for ObsRecord {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let tag: String = lhr_util::json::field(v, "record")?;
        // The struct FromJson impls look fields up by name and ignore the
        // extra "record" key, so the tagged object parses directly.
        match tag.as_str() {
            "meta" => {
                let fields = match v {
                    Json::Object(fields) => fields
                        .iter()
                        .filter(|(k, _)| k != "record")
                        .cloned()
                        .collect(),
                    _ => return Err(JsonError::new("meta record must be an object")),
                };
                Ok(ObsRecord::Meta(fields))
            }
            "window" => Ok(ObsRecord::Window(WindowRecord::from_json(v)?)),
            "event" => Ok(ObsRecord::Event(Event::from_json(v)?)),
            "counter" => Ok(ObsRecord::Counter {
                name: lhr_util::json::field(v, "name")?,
                value: lhr_util::json::field(v, "value")?,
            }),
            "gauge" => Ok(ObsRecord::Gauge {
                name: lhr_util::json::field(v, "name")?,
                value: lhr_util::json::field(v, "value")?,
            }),
            "hist" => Ok(ObsRecord::Hist {
                name: lhr_util::json::field(v, "name")?,
                hist: LogHistogram::from_json(v)?,
            }),
            "span" => Ok(ObsRecord::Span(SpanRecord::from_json(v)?)),
            "trace" => Ok(ObsRecord::Trace(TraceRecord::from_json(v)?)),
            other => Err(JsonError::new(format!("unknown obs record tag `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use lhr_util::json::ToJson;

    #[test]
    fn every_variant_roundtrips_byte_identically() {
        let mut hist = LogHistogram::new();
        hist.record(100);
        let records = vec![
            ObsRecord::Meta(vec![
                ("policy".to_string(), "lhr".to_json()),
                ("seed".to_string(), 42u64.to_json()),
            ]),
            ObsRecord::Window(WindowRecord {
                index: 1,
                requests: 10,
                hits: 7,
                ..WindowRecord::default()
            }),
            ObsRecord::Event(Event::new(3.5, EventKind::Detect).field("alpha", 0.8f64)),
            ObsRecord::Counter {
                name: "sim.requests".to_string(),
                value: 100_000,
            },
            ObsRecord::Gauge {
                name: "lhr.threshold".to_string(),
                value: 0.375,
            },
            ObsRecord::Hist {
                name: "server.latency_us".to_string(),
                hist,
            },
            ObsRecord::Span(SpanRecord {
                path: "sim.run".to_string(),
                count: 1,
                total_secs: 0.0,
                self_secs: 0.0,
            }),
            ObsRecord::Trace(crate::trace::TraceRecord {
                id: 9,
                object: 0xFEED,
                t: 1.5,
                bytes: 4096,
                window: 0,
                latency_ms: 42.5,
                exemplar: true,
                steps: vec![crate::trace::TraceStep {
                    step: "edge_lookup".into(),
                    dt_ms: 0.0,
                    bytes: 4096,
                    detail: vec![
                        ("node".into(), 1u64.to_json()),
                        ("hit".into(), true.to_json()),
                    ],
                }],
            }),
        ];
        for r in records {
            let line = r.to_line();
            assert!(line.starts_with("{\"record\":\""), "{line}");
            let back = ObsRecord::parse_line(&line).unwrap();
            assert_eq!(back, r, "{line}");
            assert_eq!(back.to_line(), line);
        }
    }

    #[test]
    fn unknown_tag_is_an_error() {
        assert!(ObsRecord::parse_line("{\"record\":\"nope\"}").is_err());
        assert!(ObsRecord::parse_line("not json").is_err());
    }
}
