//! The structured event bus: typed, trace-timestamped records of the
//! discrete things that happen during a run.
//!
//! Events answer the questions aggregates cannot: *why* did a retrain fire
//! (which detection, at what α), *when* did the circuit breaker flap,
//! *which* requests rode out an outage on stale copies. Emitters build an
//! [`Event`] with the fluent [`Event::field`] builder and hand it to
//! [`crate::Obs::emit`]; events serialize one per JSONL line in emission
//! order (trace order for all workspace emitters).

use lhr_util::json::{FromJson, Json, JsonError, ObjectWriter, ToJson};

/// The event taxonomy. One variant per discrete occurrence the workspace
/// instruments; the JSONL encoding is the variant name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// LHR retrained its admission model (fields: `window`, `rows`,
    /// `trainings`, `wall_secs` — zeroed in deterministic mode).
    Retrain,
    /// The Zipf-α detector examined a completed window (fields: `window`,
    /// `alpha`, `retrain` — whether the shift exceeded ε).
    Detect,
    /// The δ-threshold estimator adopted a new admission threshold
    /// (fields: `window`, `old`, `new`).
    ThresholdUpdate,
    /// A retrained admission model was installed at a window edge: the
    /// training set scheduled at the edge before, fit at this one on the
    /// serving thread (fields: `window`, `rows`, `epoch`, `wall_secs` —
    /// zeroed in deterministic mode).
    ModelSwap,
    /// The circuit breaker tripped open (fields: `opens`).
    BreakerOpen,
    /// The circuit breaker closed again after half-open probes
    /// (fields: `closes`).
    BreakerClose,
    /// An injected origin outage began (fields: `until_secs`).
    OutageStart,
    /// An injected origin outage ended.
    OutageEnd,
    /// A request was served from an expired cached copy (fields: `id`).
    StaleServe,
    /// A request got an error response (fields: `id`).
    ErrorServe,
    /// A miss joined an already in-flight origin fetch (fields: `id`).
    Coalesce,
    /// An injected node-level fault took a fleet node down
    /// (fields: `node`, `until_secs`).
    NodeDown,
    /// A downed fleet node rejoined the ring (fields: `node`).
    NodeUp,
    /// An edge miss was served from a ring peer via the peer-hint
    /// protocol instead of going to the origin (fields: `id`, `peer`).
    PeerHint,
    /// A service-level objective entered breach: both the fast and slow
    /// burn rates exceeded 1.0 (fields: `objective`, `window`,
    /// `fast_burn`, `slow_burn` — or `p99_ms` for run-level latency
    /// objectives).
    SloBreach,
    /// A breached objective's burn rates dropped back under 1.0
    /// (fields: `objective`, `window`, `fast_burn`, `slow_burn`).
    SloRecover,
}

impl EventKind {
    /// Every kind, in declaration order.
    pub const ALL: [EventKind; 16] = [
        EventKind::Retrain,
        EventKind::Detect,
        EventKind::ThresholdUpdate,
        EventKind::ModelSwap,
        EventKind::BreakerOpen,
        EventKind::BreakerClose,
        EventKind::OutageStart,
        EventKind::OutageEnd,
        EventKind::StaleServe,
        EventKind::ErrorServe,
        EventKind::Coalesce,
        EventKind::NodeDown,
        EventKind::NodeUp,
        EventKind::PeerHint,
        EventKind::SloBreach,
        EventKind::SloRecover,
    ];

    /// The variant name — the kind's JSONL spelling.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Retrain => "Retrain",
            EventKind::Detect => "Detect",
            EventKind::ThresholdUpdate => "ThresholdUpdate",
            EventKind::ModelSwap => "ModelSwap",
            EventKind::BreakerOpen => "BreakerOpen",
            EventKind::BreakerClose => "BreakerClose",
            EventKind::OutageStart => "OutageStart",
            EventKind::OutageEnd => "OutageEnd",
            EventKind::StaleServe => "StaleServe",
            EventKind::ErrorServe => "ErrorServe",
            EventKind::Coalesce => "Coalesce",
            EventKind::NodeDown => "NodeDown",
            EventKind::NodeUp => "NodeUp",
            EventKind::PeerHint => "PeerHint",
            EventKind::SloBreach => "SloBreach",
            EventKind::SloRecover => "SloRecover",
        }
    }
}

impl FromJson for EventKind {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        EventKind::ALL
            .into_iter()
            .find(|kind| v.as_str() == Some(kind.name()))
            .ok_or_else(|| {
                JsonError::new(format!(
                    "expected one of the EventKind variant names, found {v}"
                ))
            })
    }
}

/// One typed, trace-timestamped event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Trace time, seconds.
    pub t: f64,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific payload, in insertion order.
    pub fields: Vec<(String, Json)>,
}

impl Event {
    /// An event with no payload yet.
    pub fn new(t: f64, kind: EventKind) -> Self {
        Event {
            t,
            kind,
            fields: Vec::new(),
        }
    }

    /// Appends one payload field (builder style).
    pub fn field(mut self, name: &str, value: impl ToJson) -> Self {
        self.fields.push((name.to_string(), value.to_json()));
        self
    }

    /// Payload field lookup.
    pub fn get(&self, name: &str) -> Option<&Json> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }
}

impl Event {
    /// This event's fields in export order, for
    /// [`crate::ObsRecord::write_line`].
    pub(crate) fn write_fields(&self, w: &mut ObjectWriter<'_>) {
        w.float("t", self.t);
        w.string("kind", self.kind.name());
        let mut fields = ObjectWriter::new(w.key("fields"));
        for (k, v) in &self.fields {
            fields.json(k, v);
        }
        fields.end();
    }
}

impl FromJson for Event {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let fields = match v.get("fields") {
            Some(Json::Object(fields)) => fields.clone(),
            Some(other) => return Err(JsonError::new(format!("bad event fields: {other}"))),
            None => Vec::new(),
        };
        Ok(Event {
            t: lhr_util::json::field(v, "t")?,
            kind: lhr_util::json::field(v, "kind")?,
            fields,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_line_roundtrip_is_byte_identical() {
        let e = Event::new(12.5, EventKind::Retrain)
            .field("window", 3u64)
            .field("rows", 4096u64)
            .field("wall_secs", 0.25f64);
        let record = crate::ObsRecord::Event(e);
        let line = record.to_line();
        assert_eq!(
            line,
            r#"{"record":"event","t":12.5,"kind":"Retrain","fields":{"window":3,"rows":4096,"wall_secs":0.25}}"#
        );
        let back = crate::ObsRecord::parse_line(&line).unwrap();
        assert_eq!(back, record);
        let crate::ObsRecord::Event(back) = back else {
            unreachable!("an event line parses to an event")
        };
        assert_eq!(back.get("rows").unwrap().as_f64().unwrap(), 4096.0);
    }

    #[test]
    fn every_kind_roundtrips() {
        for kind in EventKind::ALL {
            assert_eq!(kind.name(), format!("{kind:?}"), "name is the variant name");
            assert_eq!(
                EventKind::from_json(&Json::Str(kind.name().to_string())).unwrap(),
                kind
            );
        }
        assert!(EventKind::from_json(&Json::parse("\"Nope\"").unwrap()).is_err());
    }
}
