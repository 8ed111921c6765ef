//! Observability integration tests: the determinism contract of the obs
//! layer end-to-end (fixed seed ⇒ byte-identical recordings), the
//! detection-gated retrain events on a shifting-α workload, and
//! byte-identical JSON round-trips for every exported record shape.

use lhr_repro::core::cache::{LhrCache, LhrConfig};
use lhr_repro::obs::{EventKind, Export, Obs, ObsConfig, ObsRecord, ObsWindow};
use lhr_repro::policies::Lru;
use lhr_repro::proto::{presets, CdnServer};
use lhr_repro::sim::{CachePolicy, SimConfig, SimMetrics, Simulator};
use lhr_repro::trace::synth::{IrmConfig, SizeModel};
use lhr_repro::trace::{Request, Time, Trace};
use lhr_util::json::{FromJson, Json, ToJson};

fn zipf_trace(seed: u64) -> Trace {
    IrmConfig::new(400, 20_000)
        .zipf_alpha(1.0)
        .size_model(SizeModel::BoundedPareto {
            alpha: 1.2,
            min: 1_000,
            max: 100_000,
        })
        .seed(seed)
        .generate()
}

fn deterministic_obs() -> Obs {
    Obs::new(ObsConfig {
        window: ObsWindow::Requests(2_000),
        deterministic: true,
        ..ObsConfig::default()
    })
}

/// One instrumented simulator run, returning the full JSONL export.
fn record_sim(build: &dyn Fn(&Obs) -> Box<dyn CachePolicy>) -> String {
    let trace = zipf_trace(11);
    let obs = deterministic_obs();
    let mut policy = build(&obs);
    Simulator::new(SimConfig::default())
        .with_obs(obs.clone())
        .run(&mut policy, &trace);
    obs.to_jsonl()
}

#[test]
fn fixed_seed_deterministic_recordings_are_byte_identical() {
    let builders: Vec<(&str, Box<dyn Fn(&Obs) -> Box<dyn CachePolicy>>)> = vec![
        (
            "LRU",
            Box::new(|_: &Obs| -> Box<dyn CachePolicy> { Box::new(Lru::new(200_000)) }),
        ),
        (
            "LHR",
            Box::new(|obs: &Obs| -> Box<dyn CachePolicy> {
                Box::new(LhrCache::new(120_000, LhrConfig::default()).with_obs(obs.clone()))
            }),
        ),
    ];
    for (name, build) in &builders {
        let a = record_sim(build);
        let b = record_sim(build);
        assert!(!a.is_empty(), "{name}: recording must not be empty");
        assert!(a.contains("\"record\":\"window\""), "{name}: {a}");
        assert_eq!(a, b, "{name}: two fixed-seed runs must record identically");
    }
}

#[test]
fn server_deterministic_recording_is_byte_identical() {
    let trace = zipf_trace(5);
    let run = || {
        let obs = deterministic_obs();
        let mut config =
            presets::fault_preset("outage", 7, trace.duration().as_secs_f64()).unwrap();
        config.deterministic = true;
        let mut server = CdnServer::new(Box::new(Lru::new(200_000)), config).with_obs(obs.clone());
        let report = server.replay(&trace);
        (obs.to_jsonl(), report.stable_json())
    };
    let (jsonl_a, report_a) = run();
    let (jsonl_b, report_b) = run();
    assert_eq!(jsonl_a, jsonl_b);
    assert_eq!(report_a, report_b);
    assert!(jsonl_a.contains("\"kind\":\"OutageStart\""), "{jsonl_a}");
}

/// Two IRM halves over the same object population with very different Zipf
/// exponents, the second shifted past the end of the first. Fixed sizes keep
/// the per-object size invariant across the seam.
fn shifting_alpha_trace() -> Trace {
    let half = |alpha: f64, seed: u64| {
        IrmConfig::new(400, 25_000)
            .zipf_alpha(alpha)
            .size_model(SizeModel::Fixed { bytes: 2_000 })
            .seed(seed)
            .generate()
    };
    let a = half(0.5, 3);
    let b = half(1.3, 4);
    let offset = a.duration().as_micros() + 1_000_000;
    let mut out = Trace::new("alpha-shift");
    for r in &a {
        out.push(Request::new(r.ts, r.id, r.size));
    }
    for r in &b {
        out.push(Request::new(
            Time::from_micros(r.ts.as_micros() + offset),
            r.id,
            r.size,
        ));
    }
    out.validate().expect("seam must preserve trace invariants");
    out
}

#[test]
fn shifting_alpha_triggers_a_detection_gated_retrain() {
    let trace = shifting_alpha_trace();
    let obs = deterministic_obs();
    let mut cache = LhrCache::new(100_000, LhrConfig::default()).with_obs(obs.clone());
    Simulator::new(SimConfig::default())
        .with_obs(obs.clone())
        .run(&mut cache, &trace);
    let events = obs.events();
    // A Detect event past the first window must have fired with
    // retrain=true (the α shift crosses ε), and the retrain it gated must
    // have actually happened on the same window.
    let gated: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == EventKind::Detect)
        .filter(|e| matches!(e.get("retrain"), Some(Json::Bool(true))))
        .filter_map(|e| e.get("window").and_then(|v| v.as_f64()))
        .map(|w| w as u64)
        .filter(|&w| w > 0)
        .collect();
    assert!(
        !gated.is_empty(),
        "no detection-gated retrain on an α 0.5→1.3 shift; events: {events:?}"
    );
    for window in &gated {
        assert!(
            events.iter().any(|e| e.kind == EventKind::Retrain
                && e.get("window").and_then(|v| v.as_f64()) == Some(*window as f64)),
            "Detect(window={window}, retrain=true) without a matching Retrain"
        );
    }
}

#[test]
fn every_obs_jsonl_line_round_trips_byte_identically() {
    // One learning-loop recording and one faulted-server recording between
    // them exercise every record shape: meta, window, event, counter,
    // gauge, hist, span.
    let sim_jsonl = record_sim(&|obs: &Obs| -> Box<dyn CachePolicy> {
        Box::new(LhrCache::new(120_000, LhrConfig::default()).with_obs(obs.clone()))
    });
    let trace = zipf_trace(5);
    let server_jsonl = {
        let obs = deterministic_obs();
        let config = presets::fault_preset("outage", 7, trace.duration().as_secs_f64()).unwrap();
        CdnServer::new(Box::new(Lru::new(200_000)), config)
            .with_obs(obs.clone())
            .replay(&trace);
        obs.to_jsonl()
    };
    let mut tags_seen = std::collections::BTreeSet::new();
    for line in sim_jsonl.lines().chain(server_jsonl.lines()) {
        let record = ObsRecord::parse_line(line).expect(line);
        tags_seen.insert(record.tag());
        assert_eq!(record.to_line(), line, "round-trip must be byte-identical");
    }
    for tag in [
        "meta", "window", "event", "counter", "gauge", "hist", "span",
    ] {
        assert!(tags_seen.contains(tag), "no `{tag}` record exercised");
    }
}

/// The export reader against every committed export: each golden
/// `.obs.jsonl` reads into its sections through [`Export::read`], and its
/// records, rewritten section by section with `write_line`, are the file's
/// bytes — so no record is lost, moved to another section or reordered.
#[test]
fn every_golden_export_reads_into_sections_that_rewrite_to_its_bytes() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut files = 0;
    for dir in ["serving", "sim"] {
        for entry in std::fs::read_dir(root.join(dir)).expect("golden dir") {
            let path = entry.expect("dir entry").path();
            let path = path.to_str().expect("utf-8 path");
            if !path.ends_with(".obs.jsonl") {
                continue;
            }
            files += 1;
            let export = Export::read(path).expect(path);
            let mut out = String::new();
            let mut write = |record: ObsRecord| {
                record.write_line(&mut out);
                out.push('\n');
            };
            write(ObsRecord::Meta(export.meta));
            export
                .windows
                .into_iter()
                .map(ObsRecord::Window)
                .for_each(&mut write);
            export
                .events
                .into_iter()
                .map(ObsRecord::Event)
                .for_each(&mut write);
            export
                .traces
                .into_iter()
                .map(ObsRecord::Trace)
                .for_each(&mut write);
            for (name, value) in export.counters {
                write(ObsRecord::Counter { name, value });
            }
            for (name, value) in export.gauges {
                write(ObsRecord::Gauge { name, value });
            }
            for (name, hist) in export.hists {
                write(ObsRecord::Hist { name, hist });
            }
            export
                .spans
                .into_iter()
                .map(ObsRecord::Span)
                .for_each(&mut write);
            let file = std::fs::read_to_string(path).expect(path);
            assert!(
                out == file,
                "{path}: the sections do not rewrite to the file"
            );
        }
    }
    assert_eq!(files, 46, "golden exports found");
}

fn stream_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("lhr-obs-it-{tag}-{}.jsonl", std::process::id()))
}

/// The streaming sink end-to-end through the serving path: windows are
/// written to the file as they close mid-replay, and the finished file is
/// byte-for-byte the buffered export.
#[test]
fn streamed_server_recording_matches_buffered_bytes() {
    let trace = zipf_trace(5);
    let obs = deterministic_obs();
    let path = stream_path("server");
    obs.stream_to(&path).expect("open stream");
    let mut config = presets::fault_preset("outage", 7, trace.duration().as_secs_f64()).unwrap();
    config.deterministic = true;
    CdnServer::new(Box::new(Lru::new(200_000)), config)
        .with_obs(obs.clone())
        .replay(&trace);
    obs.close_stream().expect("close stream");
    let streamed = std::fs::read_to_string(&path).expect("read streamed file");
    std::fs::remove_file(&path).ok();
    assert_eq!(streamed, obs.to_jsonl());
    // 20k requests at 2k-request windows: the incremental path really ran.
    let windows = streamed
        .lines()
        .filter(|l| l.contains("\"record\":\"window\""))
        .count();
    assert!(windows >= 9, "expected ≥9 streamed windows, got {windows}");
    // The lazily-written meta line leads and already carries run metadata.
    let first = streamed.lines().next().expect("non-empty");
    assert!(first.contains("\"record\":\"meta\""), "{first}");
    assert!(first.contains("\"policy\":\"LRU\""), "{first}");
}

/// Same contract through the sharded engine: the shard-merged windows
/// stream in `absorb_shards`, and a streamed multi-threaded run produces
/// the same bytes as a buffered single-threaded one.
#[test]
fn streamed_engine_recording_matches_buffered_across_threads() {
    use lhr_repro::proto::{EngineConfig, ShardedEngine};
    use lhr_repro::sim::shard::RouteConfig;
    let trace = zipf_trace(5);
    let run = |threads: usize, stream: Option<&std::path::Path>| {
        let obs = deterministic_obs();
        if let Some(path) = stream {
            obs.stream_to(path).expect("open stream");
        }
        let config = EngineConfig {
            total_capacity: 2 << 20,
            n_shards: 8,
            route: RouteConfig { threads },
            ..EngineConfig::new(2 << 20)
        };
        ShardedEngine::new(config)
            .with_obs(obs.clone())
            .replay(&trace, |_shard, capacity, _obs| Lru::new(capacity));
        obs.close_stream().expect("close stream");
        obs.to_jsonl()
    };
    let path = stream_path("engine");
    let buffered_t1 = run(1, None);
    let jsonl_t2 = run(2, Some(&path));
    let streamed_t2 = std::fs::read_to_string(&path).expect("read streamed file");
    std::fs::remove_file(&path).ok();
    assert_eq!(streamed_t2, jsonl_t2, "streamed file == buffered export");
    assert_eq!(streamed_t2, buffered_t1, "thread count leaks into stream");
}

#[test]
fn sim_metrics_json_round_trips_byte_identically() {
    let trace = zipf_trace(2);
    let mut policy = Lru::new(150_000);
    let result = Simulator::new(SimConfig::default()).run(&mut policy, &trace);
    let text = result.metrics.to_json().to_string();
    let back = SimMetrics::from_json(&Json::parse(&text).unwrap()).unwrap();
    assert_eq!(back, result.metrics);
    assert_eq!(back.to_json().to_string(), text);
}

#[test]
fn server_report_stable_json_round_trips_byte_identically() {
    use lhr_repro::proto::ServerReport;
    let trace = zipf_trace(9);
    let mut config = presets::fault_preset("flaky", 3, trace.duration().as_secs_f64()).unwrap();
    config.deterministic = true;
    let report = CdnServer::new(Box::new(Lru::new(200_000)), config).replay(&trace);
    let text = report.stable_json();
    let back = ServerReport::from_json(&Json::parse(&text).unwrap()).unwrap();
    assert_eq!(back.to_json().to_string(), text);
}

/// The `obs-1shard` benchmark workload's shape — default 10 000-request
/// windows, 1/100 request tracing, both SLOs, one shard, export streamed —
/// at threads 1, 2 and 8: the streamed file is the buffered export, the
/// thread count does not show, and every line re-serialises to itself
/// through both the writer (`to_line`) and the tree (`to_json`), which are
/// the same bytes by contract.
#[test]
fn obs_1shard_shape_streams_its_buffered_export_and_reserialises_line_by_line() {
    use lhr_repro::proto::{EngineConfig, ShardedEngine};
    use lhr_repro::sim::shard::RouteConfig;
    let trace = IrmConfig::new(20_000, 45_000)
        .zipf_alpha(0.9)
        .size_model(SizeModel::BoundedPareto {
            alpha: 1.2,
            min: 10_000,
            max: 1_000_000,
        })
        .seed(17)
        .generate();
    let run = |threads: usize| {
        let obs = Obs::new(ObsConfig {
            deterministic: true,
            trace_sample: lhr_repro::obs::trace::parse_sample("1/100").unwrap(),
            slos: lhr_repro::obs::slo::parse_objectives("avail:99.9,hitratio:50").unwrap(),
            ..ObsConfig::default()
        });
        let path = stream_path(&format!("obs-1shard-t{threads}"));
        obs.stream_to(&path).expect("open stream");
        ShardedEngine::new(EngineConfig {
            n_shards: 1,
            route: RouteConfig { threads },
            ..EngineConfig::new(8 << 20)
        })
        .with_obs(obs.clone())
        .replay(&trace, |_shard, capacity, _obs| Lru::new(capacity));
        obs.close_stream().expect("close stream");
        let streamed = std::fs::read_to_string(&path).expect("read streamed file");
        std::fs::remove_file(&path).ok();
        assert_eq!(streamed, obs.to_jsonl(), "streamed file == buffered export");
        streamed
    };
    let export = run(1);
    for threads in [2, 8] {
        assert_eq!(run(threads), export, "thread count leaks at {threads}");
    }
    let mut tags = std::collections::BTreeMap::new();
    for line in export.lines() {
        let record = ObsRecord::parse_line(line).expect(line);
        assert_eq!(record.to_line(), line);
        assert_eq!(Json::parse(line).unwrap().to_string(), line);
        *tags.entry(record.tag()).or_insert(0u32) += 1;
    }
    // 45 000 requests: four full windows and the partial fifth, ≈450
    // sampled traces, and the hit-ratio objective's verdict event.
    assert_eq!(tags["window"], 5);
    assert!((300..600).contains(&tags["trace"]), "{tags:?}");
    assert!(tags.contains_key("event"), "{tags:?}");
    assert_eq!(tags["meta"], 1);
}
