//! Chrome trace-event export, structural validation, and the shared
//! env-var JSON dump helper.
//!
//! The emitter produces the Trace Event Format's JSON-array flavor —
//! `B`/`E` duration pairs per lane, `i` instants, `M` metadata naming
//! processes and threads — loadable directly in Perfetto or
//! `chrome://tracing`. Both directions go through [`Json`]: the
//! emitter builds one array of event objects, and the validator
//! re-parses a trace with [`Json::parse`] and checks the structural
//! contract CI relies on: required keys, nondecreasing `ts`, and
//! matched `B`/`E` pairs per thread.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::recorder::{ArgValue, Args, Lane, LaneEngine, TraceRecord};

/// A trace event's common keys. `ts` is in microseconds.
fn event(name: &str, cat: &str, ph: &str, ts_ns: u64, pid: u64, tid: u64) -> Json {
    Json::object()
        .field("name", name)
        .field("cat", cat)
        .field("ph", ph)
        .field("ts", ts_ns as f64 / 1000.0)
        .field("pid", pid)
        .field("tid", tid)
}

impl From<&ArgValue> for Json {
    fn from(value: &ArgValue) -> Json {
        match value {
            ArgValue::U64(v) => Json::from(*v),
            ArgValue::F64(v) => Json::from(*v),
            ArgValue::Text(v) => Json::from(v.as_str()),
        }
    }
}

fn record_args(id: u64, args: &Args) -> Json {
    let record_id = Json::object().field("record_id", id);
    args.iter()
        .fold(record_id, |obj, (key, value)| obj.field(key, value))
}

/// Stable (pid, tid, process name, thread name) assignment for a lane.
fn lane_track(lane: &Lane, stage_tids: &BTreeMap<&str, u64>) -> (u64, u64, &'static str, String) {
    match lane {
        Lane::Request { id } => (1, id + 1, "requests", format!("request {id}")),
        Lane::Device { device, engine } => {
            let slot = match engine {
                LaneEngine::H2d => 0,
                LaneEngine::Kernel => 1,
                LaneEngine::D2h => 2,
            };
            (
                2,
                device * 3 + slot + 1,
                "devices",
                format!("dev{device} {}", engine.label()),
            )
        }
        Lane::Stage { name } => (
            3,
            stage_tids.get(name.as_str()).copied().unwrap_or(0) + 1,
            "sink-stages",
            name.clone(),
        ),
        Lane::Control => (4, 1, "control", "events".to_string()),
        Lane::Node { node } => (5, node + 1, "nodes", format!("node {node}")),
    }
}

fn lane_category(lane: &Lane) -> &'static str {
    match lane {
        Lane::Request { .. } => "request",
        Lane::Device { .. } => "device",
        Lane::Stage { .. } => "stage",
        Lane::Control => "control",
        Lane::Node { .. } => "node",
    }
}

/// Renders records as a Chrome trace-event JSON array.
///
/// Spans become `B`/`E` pairs; because a lane's spans are emitted with
/// an explicit nesting sweep (close-before-open at shared boundaries),
/// every `B` has a matching same-name `E` on its thread and `ts` is
/// globally nondecreasing — the properties [`validate_chrome_trace`]
/// checks.
pub fn chrome_trace_json(records: &[TraceRecord]) -> String {
    // Stage lanes get dense tids in name order.
    let mut stage_tids: BTreeMap<&str, u64> = BTreeMap::new();
    for r in records {
        if let Lane::Stage { name } = r.lane() {
            let next = stage_tids.len() as u64;
            stage_tids.entry(name.as_str()).or_insert(next);
        }
    }

    // Group span records per lane; instants go straight to the pool.
    let mut lanes: BTreeMap<Lane, Vec<&TraceRecord>> = BTreeMap::new();
    let mut events: Vec<(u64, Json)> = Vec::new(); // (ts ns, event)
    let mut tracks: BTreeMap<(u64, u64), (&'static str, String)> = BTreeMap::new();
    for r in records {
        let (pid, tid, pname, tname) = lane_track(r.lane(), &stage_tids);
        tracks.entry((pid, tid)).or_insert((pname, tname));
        match r {
            TraceRecord::Span { .. } => lanes.entry(r.lane().clone()).or_default().push(r),
            TraceRecord::Instant {
                id, name, at, args, ..
            } => {
                let ts = at.as_nanos();
                let instant = event(name, lane_category(r.lane()), "i", ts, pid, tid)
                    .field("s", "t")
                    .field("args", record_args(*id, args));
                events.push((ts, instant));
            }
        }
    }

    // Per lane: sort spans (start asc, end desc, id asc) and sweep with
    // an explicit stack so B/E pairs nest. Spans on one lane must not
    // partially overlap (the recorder's lane discipline); if one does,
    // its end is clamped to its enclosing span to keep the trace
    // loadable.
    for (lane, mut spans) in lanes {
        let (pid, tid, _, _) = lane_track(&lane, &stage_tids);
        let cat = lane_category(&lane);
        spans.sort_by(|a, b| {
            let (
                TraceRecord::Span {
                    start: sa,
                    end: ea,
                    id: ia,
                    ..
                },
                TraceRecord::Span {
                    start: sb,
                    end: eb,
                    id: ib,
                    ..
                },
            ) = (a, b)
            else {
                unreachable!("lane groups hold spans only")
            };
            sa.cmp(sb).then(eb.cmp(ea)).then(ia.cmp(ib))
        });
        let mut stack: Vec<(u64, &'static str)> = Vec::new(); // (end ns, name)
        let close =
            |stack: &mut Vec<(u64, &'static str)>, events: &mut Vec<(u64, Json)>, upto: u64| {
                while let Some(&(end, name)) = stack.last() {
                    if end > upto {
                        break;
                    }
                    stack.pop();
                    events.push((end, event(name, cat, "E", end, pid, tid)));
                }
            };
        for r in spans {
            let TraceRecord::Span {
                id,
                name,
                start,
                end,
                args,
                ..
            } = r
            else {
                unreachable!("lane groups hold spans only")
            };
            let (start, mut end) = (start.as_nanos(), end.as_nanos());
            close(&mut stack, &mut events, start);
            if let Some(&(outer_end, _)) = stack.last() {
                end = end.min(outer_end);
            }
            let begin =
                event(name, cat, "B", start, pid, tid).field("args", record_args(*id, args));
            events.push((start, begin));
            stack.push((end, name));
        }
        close(&mut stack, &mut events, u64::MAX);
    }

    // Globally: stable sort by ts. Per-lane streams are already in
    // order, and cross-lane ties keep deterministic insertion order.
    events.sort_by_key(|&(ts, _)| ts);

    // Metadata first: process names, then thread names.
    let mut pids_named: BTreeMap<u64, &'static str> = BTreeMap::new();
    for (&(pid, _), &(pname, _)) in &tracks {
        pids_named.entry(pid).or_insert(pname);
    }
    let name_event = |kind: &str, pid: u64, tid: u64, name: &str| {
        event(kind, "__metadata", "M", 0, pid, tid)
            .field("args", Json::object().field("name", name))
    };
    let processes = pids_named
        .iter()
        .map(|(&pid, pname)| name_event("process_name", pid, 0, pname));
    let threads = tracks
        .iter()
        .map(|(&(pid, tid), (_, tname))| name_event("thread_name", pid, tid, tname));
    processes
        .chain(threads)
        .chain(events.into_iter().map(|(_, e)| e))
        .collect::<Json>()
        .to_string()
}

// ---------------------------------------------------------------------
// Structural validation.
// ---------------------------------------------------------------------

/// Summary counts from a validated trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCheck {
    /// Total events in the array.
    pub events: usize,
    /// Matched `B`/`E` span pairs.
    pub spans: usize,
    /// `i` instant events.
    pub instants: usize,
    /// `M` metadata events.
    pub metadata: usize,
}

/// Parses and structurally validates a Chrome trace-event JSON array.
///
/// Checks, in order: the document is a JSON array of objects; every
/// event carries `name` (string), `ph` (one of `M`/`B`/`E`/`i`), `ts`,
/// `pid` and `tid` (numbers); `ts` is nondecreasing across non-`M`
/// events in array order; and per `(pid, tid)` thread every `B` has a
/// matching same-name `E` (LIFO), with none left open at the end.
///
/// # Examples
///
/// ```
/// use shredder_telemetry::validate_chrome_trace;
///
/// let trace = r#"[
///   {"name": "request", "ph": "B", "ts": 1.000, "pid": 1, "tid": 1, "args": {}},
///   {"name": "request", "ph": "E", "ts": 5.000, "pid": 1, "tid": 1}
/// ]"#;
/// let check = validate_chrome_trace(trace).unwrap();
/// assert_eq!(check.spans, 1);
/// ```
pub fn validate_chrome_trace(json: &str) -> Result<TraceCheck, String> {
    let Json::Arr(events) = Json::parse(json)? else {
        return Err("trace must be a JSON array of events".to_string());
    };

    let mut check = TraceCheck {
        events: events.len(),
        ..TraceCheck::default()
    };
    let mut last_ts: Option<f64> = None;
    let mut stacks: BTreeMap<(u64, u64), Vec<String>> = BTreeMap::new();
    let mut begins = 0usize;
    let mut ends = 0usize;

    for (i, ev) in events.iter().enumerate() {
        let ctx = |msg: String| format!("event {i}: {msg}");
        if !matches!(ev, Json::Obj(_)) {
            return Err(ctx("not an object".to_string()));
        }
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("missing string 'name'".to_string()))?
            .to_string();
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("missing string 'ph'".to_string()))?;
        let ts = ev
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| ctx("missing numeric 'ts'".to_string()))?;
        let pid = ev
            .get("pid")
            .and_then(Json::as_f64)
            .ok_or_else(|| ctx("missing numeric 'pid'".to_string()))? as u64;
        let tid = ev
            .get("tid")
            .and_then(Json::as_f64)
            .ok_or_else(|| ctx("missing numeric 'tid'".to_string()))? as u64;

        match ph {
            "M" => check.metadata += 1,
            "B" | "E" | "i" => {
                if let Some(last) = last_ts {
                    if ts < last {
                        return Err(ctx(format!("ts went backwards: {ts} after {last}")));
                    }
                }
                last_ts = Some(ts);
                match ph {
                    "B" => {
                        begins += 1;
                        stacks.entry((pid, tid)).or_default().push(name);
                    }
                    "E" => {
                        ends += 1;
                        let open =
                            stacks
                                .get_mut(&(pid, tid))
                                .and_then(Vec::pop)
                                .ok_or_else(|| {
                                    ctx(format!("'E' with no open span on pid {pid} tid {tid}"))
                                })?;
                        if open != name {
                            return Err(ctx(format!(
                                "'E' name '{name}' does not match open span '{open}'"
                            )));
                        }
                    }
                    _ => check.instants += 1,
                }
            }
            other => return Err(ctx(format!("unknown ph '{other}'"))),
        }
    }

    for ((pid, tid), stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!(
                "span '{open}' on pid {pid} tid {tid} never ends ({} left open)",
                stack.len()
            ));
        }
    }
    if begins != ends {
        return Err(format!("{begins} 'B' events vs {ends} 'E' events"));
    }
    check.spans = begins;
    Ok(check)
}

// ---------------------------------------------------------------------
// Env-var dump plumbing.
// ---------------------------------------------------------------------

/// Writes `json` (a [`Json`] or an already-rendered trace) to the
/// path named by the environment variable `env_var`, if set and
/// non-empty.
///
/// This is the single dump gate for `SHREDDER_BENCH_JSON`,
/// `SHREDDER_FAULT_JSON`, `SHREDDER_FLEET_JSON` and
/// `SHREDDER_TRACE_JSON`: returns `None` (and writes nothing) when the
/// variable is unset, and returns the path written otherwise.
///
/// # Panics
///
/// Panics if the write fails — a requested dump that cannot land is a
/// hard error, never a silent skip (CI depends on the artifact).
pub fn dump_json(env_var: &str, json: impl std::fmt::Display) -> Option<String> {
    let path = std::env::var(env_var).ok().filter(|p| !p.is_empty())?;
    std::fs::write(&path, json.to_string())
        .unwrap_or_else(|e| panic!("could not write {env_var} JSON to {path}: {e}"));
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{TelemetryConfig, TraceRecorder};
    use shredder_des::SimTime;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn sample_records() -> Vec<TraceRecord> {
        let mut rec = TraceRecorder::new(&TelemetryConfig::enabled());
        // Retroactively recorded outer span: export must still order B
        // before the nested span's B.
        rec.span(
            Lane::Request { id: 0 },
            "queued",
            t(100),
            t(250),
            vec![("class", ArgValue::Text("default".into()))],
        );
        rec.span(Lane::Request { id: 0 }, "request", t(100), t(900), vec![]);
        rec.span(
            Lane::Device {
                device: 0,
                engine: LaneEngine::H2d,
            },
            "h2d",
            t(300),
            t(400),
            vec![("bytes", ArgValue::U64(1024))],
        );
        rec.instant(
            Lane::Control,
            "shed",
            t(500),
            vec![("request", ArgValue::U64(3))],
        );
        rec.span(
            Lane::Stage {
                name: "fingerprint".to_string(),
            },
            "service",
            t(600),
            t(700),
            vec![("queue_wait_ns", ArgValue::U64(42))],
        );
        rec.span(
            Lane::Node { node: 1 },
            "replicate",
            t(700),
            t(800),
            vec![("bytes", ArgValue::U64(4096))],
        );
        rec.finish_report().records
    }

    #[test]
    fn export_is_schema_valid_and_deterministic() {
        let records = sample_records();
        let json = chrome_trace_json(&records);
        assert_eq!(json, chrome_trace_json(&records));
        let check = validate_chrome_trace(&json).unwrap();
        assert_eq!(check.spans, 5);
        assert_eq!(check.instants, 1);
        assert!(check.metadata >= 5, "process + thread names expected");
        // All five lane categories present.
        for cat in ["request", "device", "stage", "control", "node"] {
            assert!(
                json.contains(&format!("\"cat\": \"{cat}\"")),
                "missing {cat}"
            );
        }
        // Node lanes render as their own process track.
        assert!(json.contains("\"nodes\""));
        assert!(json.contains("node 1"));
    }

    #[test]
    fn nested_and_sequential_spans_emit_matched_pairs() {
        let mut rec = TraceRecorder::new(&TelemetryConfig::enabled());
        let lane = Lane::Request { id: 7 };
        // Inner recorded before outer; zero-width span; back-to-back
        // boundary sharing — all must stay well-formed.
        rec.span(lane.clone(), "inner", t(20), t(30), vec![]);
        rec.span(lane.clone(), "outer", t(10), t(50), vec![]);
        rec.span(lane.clone(), "zero", t(50), t(50), vec![]);
        rec.span(lane.clone(), "next", t(50), t(60), vec![]);
        let json = chrome_trace_json(&rec.finish_report().records);
        let check = validate_chrome_trace(&json).unwrap();
        assert_eq!(check.spans, 4);
    }

    #[test]
    fn validator_rejects_broken_traces() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("[{\"ph\": \"B\"}]").is_err());
        // Backwards ts.
        let back = r#"[
          {"name": "a", "ph": "i", "s": "t", "ts": 5.0, "pid": 1, "tid": 1},
          {"name": "b", "ph": "i", "s": "t", "ts": 4.0, "pid": 1, "tid": 1}
        ]"#;
        assert!(validate_chrome_trace(back)
            .unwrap_err()
            .contains("backwards"));
        // Unmatched B.
        let open = r#"[{"name": "a", "ph": "B", "ts": 1.0, "pid": 1, "tid": 1, "args": {}}]"#;
        assert!(validate_chrome_trace(open)
            .unwrap_err()
            .contains("never ends"));
        // E without B.
        let stray = r#"[{"name": "a", "ph": "E", "ts": 1.0, "pid": 1, "tid": 1}]"#;
        assert!(validate_chrome_trace(stray)
            .unwrap_err()
            .contains("no open span"));
        // Mismatched names.
        let cross = r#"[
          {"name": "a", "ph": "B", "ts": 1.0, "pid": 1, "tid": 1, "args": {}},
          {"name": "b", "ph": "E", "ts": 2.0, "pid": 1, "tid": 1}
        ]"#;
        assert!(validate_chrome_trace(cross)
            .unwrap_err()
            .contains("does not match"));
    }

    #[test]
    fn dump_json_writes_when_env_set_and_skips_when_unset() {
        let var = "SHREDDER_TELEMETRY_TEST_DUMP";
        std::env::remove_var(var);
        assert_eq!(dump_json(var, "{}"), None);
        let path = std::env::temp_dir().join("shredder_telemetry_dump_test.json");
        let path_str = path.to_string_lossy().to_string();
        std::env::set_var(var, &path_str);
        assert_eq!(dump_json(var, "{\"ok\": true}"), Some(path_str.clone()));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"ok\": true}");
        std::env::remove_var(var);
        let _ = std::fs::remove_file(&path);
    }
}
