//! The one reader of an `--obs` export: [`Export`] parses a JSONL file
//! once into its sections, and `obs summarize`, `obs trace` and `obs slo`
//! all read those.

use crate::event::Event;
use crate::hist::LogHistogram;
use crate::record::ObsRecord;
use crate::series::WindowRecord;
use crate::span::SpanRecord;
use crate::trace::TraceRecord;
use lhr_util::json::Json;
use std::collections::BTreeMap;

/// A parsed `--obs` export: one field per section, in the order the
/// recorder writes them, each holding its records in file order (the
/// histograms by name, which is how the recorder writes them).
#[derive(Debug, Default, PartialEq)]
pub struct Export {
    /// The `meta` line's fields: recorder configuration, then run metadata.
    pub meta: Vec<(String, Json)>,
    /// The window series.
    pub windows: Vec<WindowRecord>,
    /// Recorded events, then the SLO verdict events.
    pub events: Vec<Event>,
    /// Sampled request traces, exemplar-marked.
    pub traces: Vec<TraceRecord>,
    /// Counters' final values.
    pub counters: Vec<(String, u64)>,
    /// Gauges' final values.
    pub gauges: Vec<(String, f64)>,
    /// Named histograms.
    pub hists: BTreeMap<String, LogHistogram>,
    /// The profiling span tree, depth first.
    pub spans: Vec<SpanRecord>,
}

impl Export {
    /// Reads and parses the export at `path`.
    pub fn read(path: &str) -> Result<Export, String> {
        let jsonl = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Export::parse(&jsonl, path)
    }

    /// Parses a JSONL export, skipping blank lines. The first line that is
    /// not a record is the error, as `source:N: reason` (N counts from 1).
    pub fn parse(jsonl: &str, source: &str) -> Result<Export, String> {
        let mut export = Export::default();
        for (i, line) in jsonl.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match ObsRecord::parse_line(line).map_err(|e| format!("{source}:{}: {e}", i + 1))? {
                ObsRecord::Meta(fields) => export.meta.extend(fields),
                ObsRecord::Window(w) => export.windows.push(w),
                ObsRecord::Event(e) => export.events.push(e),
                ObsRecord::Trace(t) => export.traces.push(t),
                ObsRecord::Counter { name, value } => export.counters.push((name, value)),
                ObsRecord::Gauge { name, value } => export.gauges.push((name, value)),
                ObsRecord::Hist { name, hist } => {
                    export.hists.insert(name, hist);
                }
                ObsRecord::Span(s) => export.spans.push(s),
            }
        }
        Ok(export)
    }

    /// The value the meta line gives `key` (the last one, should it be
    /// given twice).
    pub fn meta_value(&self, key: &str) -> Option<&Json> {
        self.meta
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventKind, Obs, ObsConfig};

    #[test]
    fn sections_come_back_in_export_order() {
        let obs = Obs::new(ObsConfig {
            deterministic: true,
            ..ObsConfig::default()
        });
        obs.set_meta("policy", "lru");
        obs.counter_add("sim.requests", 10);
        obs.gauge_set("lhr.threshold", 0.5);
        obs.emit(Event::new(1.0, EventKind::Detect));
        obs.push_windows(vec![WindowRecord::default()]);
        {
            let _g = obs.span("run");
        }
        let export = Export::parse(&obs.to_jsonl(), "x").unwrap();
        assert_eq!(export.meta_value("policy"), Some(&Json::Str("lru".into())));
        assert_eq!(export.windows.len(), 1);
        assert_eq!(export.events.len(), 1);
        assert_eq!(export.counters, [("sim.requests".to_string(), 10)]);
        assert_eq!(export.gauges, [("lhr.threshold".to_string(), 0.5)]);
        assert_eq!(export.spans.len(), 1);
        assert!(export.traces.is_empty() && export.hists.is_empty());
    }

    #[test]
    fn a_bad_line_is_named_by_source_and_number() {
        let jsonl = "{\"record\":\"meta\"}\n\n{\"record\":\"window\"\n";
        let err = Export::parse(jsonl, "run.jsonl").unwrap_err();
        assert!(err.starts_with("run.jsonl:3: "), "{err}");
        assert_eq!(Export::parse("", "x").unwrap(), Export::default());
        let err = Export::read("lhr-obs-no-such-export.jsonl").unwrap_err();
        assert!(err.starts_with("lhr-obs-no-such-export.jsonl: "), "{err}");
    }
}
