//! Exporters of the raw recording: JSONL event stream, Chrome
//! `trace_event` JSON (loadable in Perfetto / `chrome://tracing`) and the
//! decision journal as JSONL. The aggregate views (per-window metrics CSV,
//! the human decision log with its prediction-quality footer) read a
//! `wire-obs` snapshot and live there.

use crate::event::TelemetryEvent;
use crate::json::{self, obj, s, u, Json};
use crate::recorder::TelemetryBuffer;
use std::collections::{BTreeSet, HashMap};
use wire_dag::Millis;

/// Render the event stream as JSONL: one `{"at_ms":…,"kind":…,…}` per line.
pub fn events_to_jsonl(buffer: &TelemetryBuffer) -> String {
    let mut out = String::new();
    for (at, ev) in &buffer.events {
        let mut v = ev.to_json();
        if let Json::Obj(fields) = &mut v {
            fields.insert(0, ("at_ms".to_string(), json::u(at.as_ms())));
        }
        out.push_str(&v.render());
        out.push('\n');
    }
    out
}

/// Parse a JSONL event stream back; inverse of [`events_to_jsonl`].
pub fn parse_jsonl(text: &str) -> Result<Vec<(Millis, TelemetryEvent)>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let at = v
            .get("at_ms")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("line {}: missing at_ms", i + 1))?;
        let ev = TelemetryEvent::from_json(&v).map_err(|e| format!("line {}: {e}", i + 1))?;
        events.push((Millis::from_ms(at), ev));
    }
    Ok(events)
}

const PID: u64 = 1;

fn tid_for(instance: u32, slot: u32, slots_per_instance: u32) -> u64 {
    (instance as u64) * (slots_per_instance.max(1) as u64) + slot as u64 + 1
}

fn us(at: Millis) -> u64 {
    at.as_ms() * 1000
}

/// Export the run as Chrome `trace_event` JSON. Each instance slot becomes a
/// named track (`i3/s1`), each task occupancy a complete (`ph:"X"`) slice on
/// it, and the pool and task-queue gauges become counter tracks. Load the
/// file in [Perfetto](https://ui.perfetto.dev) or `chrome://tracing`.
pub fn chrome_trace(buffer: &TelemetryBuffer, slots_per_instance: u32) -> String {
    let mut trace: Vec<Json> = Vec::new();
    trace.push(obj(vec![
        ("name", s("process_name")),
        ("ph", s("M")),
        ("pid", u(PID)),
        ("args", obj(vec![("name", s("wire simcloud"))])),
    ]));

    let mut named_tracks: BTreeSet<u64> = BTreeSet::new();
    // open slice per (instance, slot): dispatch time, task, stage
    let mut open: HashMap<(u32, u32), (Millis, u32, u32)> = HashMap::new();
    let mut last_at = Millis::ZERO;

    let mut name_track = |trace: &mut Vec<Json>, instance: u32, slot: u32| {
        let tid = tid_for(instance, slot, slots_per_instance);
        if named_tracks.insert(tid) {
            trace.push(obj(vec![
                ("name", s("thread_name")),
                ("ph", s("M")),
                ("pid", u(PID)),
                ("tid", u(tid)),
                (
                    "args",
                    obj(vec![("name", s(&format!("i{instance}/s{slot}")))]),
                ),
            ]));
        }
        tid
    };

    let close_slice = |trace: &mut Vec<Json>,
                       tid: u64,
                       start: Millis,
                       end: Millis,
                       task: u32,
                       stage: u32,
                       cat: &str| {
        trace.push(obj(vec![
            ("name", s(&format!("task {task} (stage {stage})"))),
            ("cat", s(cat)),
            ("ph", s("X")),
            ("pid", u(PID)),
            ("tid", u(tid)),
            ("ts", u(us(start))),
            ("dur", u(us(end) - us(start))),
            (
                "args",
                obj(vec![("task", u(task as u64)), ("stage", u(stage as u64))]),
            ),
        ]));
    };

    for &(at, ev) in &buffer.events {
        last_at = at;
        match ev {
            TelemetryEvent::TaskDispatched {
                task,
                stage,
                instance,
                slot,
            } => {
                name_track(&mut trace, instance, slot);
                open.insert((instance, slot), (at, task, stage));
            }
            TelemetryEvent::TaskCompleted { instance, slot, .. } => {
                if let Some((start, task, stage)) = open.remove(&(instance, slot)) {
                    let tid = tid_for(instance, slot, slots_per_instance);
                    close_slice(&mut trace, tid, start, at, task, stage, "task");
                }
            }
            TelemetryEvent::TaskResubmitted { instance, slot, .. } => {
                if let Some((start, task, stage)) = open.remove(&(instance, slot)) {
                    let tid = tid_for(instance, slot, slots_per_instance);
                    close_slice(&mut trace, tid, start, at, task, stage, "resubmitted");
                }
            }
            TelemetryEvent::InstanceReady { instance } => {
                let tid = name_track(&mut trace, instance, 0);
                trace.push(obj(vec![
                    ("name", s("instance ready")),
                    ("cat", s("instance")),
                    ("ph", s("i")),
                    ("pid", u(PID)),
                    ("tid", u(tid)),
                    ("ts", u(us(at))),
                    ("s", s("t")),
                ]));
            }
            TelemetryEvent::InstanceTerminated { instance, units } => {
                let tid = name_track(&mut trace, instance, 0);
                trace.push(obj(vec![
                    ("name", s("instance terminated")),
                    ("cat", s("instance")),
                    ("ph", s("i")),
                    ("pid", u(PID)),
                    ("tid", u(tid)),
                    ("ts", u(us(at))),
                    ("s", s("t")),
                    ("args", obj(vec![("units", u(units))])),
                ]));
            }
            TelemetryEvent::MapeTick {
                pool,
                launching,
                ready,
                running,
                ..
            } => {
                trace.push(obj(vec![
                    ("name", s("pool")),
                    ("ph", s("C")),
                    ("pid", u(PID)),
                    ("ts", u(us(at))),
                    (
                        "args",
                        obj(vec![
                            ("pool", u(pool as u64)),
                            ("launching", u(launching as u64)),
                        ]),
                    ),
                ]));
                trace.push(obj(vec![
                    ("name", s("tasks")),
                    ("ph", s("C")),
                    ("pid", u(PID)),
                    ("ts", u(us(at))),
                    (
                        "args",
                        obj(vec![
                            ("ready", u(ready as u64)),
                            ("running", u(running as u64)),
                        ]),
                    ),
                ]));
            }
            _ => {}
        }
    }

    // Tasks still occupying a slot when recording stopped.
    for ((instance, slot), (start, task, stage)) in open {
        let tid = tid_for(instance, slot, slots_per_instance);
        close_slice(
            &mut trace,
            tid,
            start,
            last_at.max(start),
            task,
            stage,
            "unfinished",
        );
    }

    obj(vec![
        ("traceEvents", Json::Arr(trace)),
        ("displayTimeUnit", s("ms")),
    ])
    .render()
}

/// The MAPE decision journal as JSONL.
pub fn decisions_to_jsonl(buffer: &TelemetryBuffer) -> String {
    let mut out = String::new();
    for d in &buffer.decisions {
        out.push_str(&d.to_json().render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Recorder, TelemetryHandle, TickStats};

    fn sample_buffer() -> TelemetryBuffer {
        let mut h = TelemetryHandle::new();
        let evs = [
            (0, TelemetryEvent::InstanceRequested { instance: 0 }),
            (60_000, TelemetryEvent::InstanceReady { instance: 0 }),
            (
                60_000,
                TelemetryEvent::TaskDispatched {
                    task: 0,
                    stage: 0,
                    instance: 0,
                    slot: 0,
                },
            ),
            (
                61_000,
                TelemetryEvent::TaskDispatched {
                    task: 1,
                    stage: 0,
                    instance: 0,
                    slot: 1,
                },
            ),
            (
                300_000,
                TelemetryEvent::MapeTick {
                    pool: 1,
                    launching: 0,
                    draining: 0,
                    ready: 0,
                    running: 2,
                    done: 0,
                    plan_launch: 0,
                    plan_terminate: 0,
                },
            ),
            (
                400_000,
                TelemetryEvent::TaskCompleted {
                    task: 0,
                    stage: 0,
                    instance: 0,
                    slot: 0,
                    exec: Millis::from_ms(330_000),
                    transfer: Millis::from_ms(10_000),
                    restarts: 0,
                },
            ),
            (
                500_000,
                TelemetryEvent::TaskResubmitted {
                    task: 1,
                    instance: 0,
                    slot: 1,
                    sunk: Millis::from_ms(439_000),
                },
            ),
            (
                500_000,
                TelemetryEvent::InstanceTerminated {
                    instance: 0,
                    units: 1,
                },
            ),
        ];
        for (at, ev) in evs {
            h.record(Millis::from_ms(at), ev);
        }
        h.tick(
            Millis::from_ms(300_000),
            TickStats {
                controller_micros: 10,
                queue_depth: 1,
            },
        );
        h.take()
    }

    #[test]
    fn jsonl_round_trips() {
        let buffer = sample_buffer();
        let text = events_to_jsonl(&buffer);
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed, buffer.events);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_slices() {
        let buffer = sample_buffer();
        let text = chrome_trace(&buffer, 2);
        let v = json::parse(&text).unwrap();
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(!events.is_empty());
        // two task slices: one completed, one cut short by resubmission
        let slices: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(slices.len(), 2);
        // distinct tracks for the two slots
        let tids: BTreeSet<u64> = slices
            .iter()
            .map(|e| e.get("tid").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(tids.len(), 2);
        // first slice: dispatched at 60s, completed at 400s → dur 340s in µs
        let s0 = slices
            .iter()
            .find(|e| e.get("args").unwrap().get("task").unwrap().as_u64() == Some(0))
            .unwrap();
        assert_eq!(s0.get("ts").unwrap().as_u64(), Some(60_000_000));
        assert_eq!(s0.get("dur").unwrap().as_u64(), Some(340_000_000));
        // counter event present
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("C")));
        // thread names registered
        assert!(events.iter().any(|e| {
            e.get("name").and_then(Json::as_str) == Some("thread_name")
                && e.get("args").unwrap().get("name").and_then(Json::as_str) == Some("i0/s1")
        }));
    }
}
