//! Trace exporters.
//!
//! [`chrome_trace_json`] renders a drained [`Trace`] as Chrome
//! trace-event JSON (the `{"traceEvents": [...]}` object form), which
//! loads directly in Perfetto (<https://ui.perfetto.dev>) and
//! `chrome://tracing`. Spans become `B`/`E` duration pairs, and each
//! thread gets an `M` (`thread_name`) metadata record.
//!
//! Emission walks each thread's span tree (rebuilt from parent links)
//! depth-first, so `B`/`E` pairs are balanced and properly nested by
//! construction even though the buffers store spans in completion order.

use crate::trace::{Trace, TraceEvent};
use serde::Value;

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn attr_args(ev: &TraceEvent) -> Value {
    Value::Object(
        ev.attrs()
            .iter()
            .map(|(k, v)| (k.to_string(), Value::U64(*v)))
            .collect(),
    )
}

fn push_span_events(
    out: &mut Vec<Value>,
    spans: &[&TraceEvent],
    children: &[Vec<usize>],
    idx: usize,
) {
    let ev = spans[idx];
    let mut begin = vec![
        ("name", Value::Str(ev.name.to_string())),
        ("ph", Value::Str("B".into())),
        ("pid", Value::U64(1)),
        ("tid", Value::U64(ev.thread as u64)),
        ("ts", Value::U64(ev.start_us)),
    ];
    if !ev.attrs().is_empty() {
        begin.push(("args", attr_args(ev)));
    }
    out.push(obj(begin));
    for &child in &children[idx] {
        push_span_events(out, spans, children, child);
    }
    out.push(obj(vec![
        ("ph", Value::Str("E".into())),
        ("pid", Value::U64(1)),
        ("tid", Value::U64(ev.thread as u64)),
        ("ts", Value::U64(ev.end_us)),
    ]));
}

/// Render a trace as Chrome trace-event JSON.
pub fn chrome_trace_json(trace: &Trace) -> String {
    let mut events: Vec<Value> = Vec::new();
    for t in &trace.threads {
        let label = t
            .label
            .clone()
            .unwrap_or_else(|| format!("thread-{}", t.index));
        events.push(obj(vec![
            ("name", Value::Str("thread_name".into())),
            ("ph", Value::Str("M".into())),
            ("pid", Value::U64(1)),
            ("tid", Value::U64(t.index as u64)),
            ("args", obj(vec![("name", Value::Str(label))])),
        ]));
    }
    for thread in 0..trace.threads.len() {
        // Rebuild this thread's span forest from parent links.
        let spans: Vec<&TraceEvent> = trace.events.iter().filter(|e| e.thread == thread).collect();
        let index_of: std::collections::HashMap<u64, usize> =
            spans.iter().enumerate().map(|(i, e)| (e.id, i)).collect();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        let mut roots: Vec<usize> = Vec::new();
        for (i, e) in spans.iter().enumerate() {
            match index_of.get(&e.parent) {
                Some(&p) if e.parent != 0 => children[p].push(i),
                // Parent 0 (thread root) or a parent whose span closed in
                // a different trace generation: treat as a root.
                _ => roots.push(i),
            }
        }
        let by_start = |list: &mut Vec<usize>| {
            list.sort_by_key(|&i| (spans[i].start_us, spans[i].id));
        };
        by_start(&mut roots);
        for list in &mut children {
            by_start(list);
        }
        for &root in &roots {
            push_span_events(&mut events, &spans, &children, root);
        }
    }
    let doc = obj(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", Value::Str("ms".into())),
    ]);
    serde_json::to_string(&doc).expect("Value serialization is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{end_trace, start_trace, TraceConfig};

    #[test]
    fn chrome_export_is_balanced_and_parses() {
        let _guard = crate::test_lock();
        start_trace(TraceConfig::default());
        {
            let _a = crate::span("export.test.outer").attr("epoch", 1);
            {
                let _b = crate::span("export.test.inner");
            }
        }
        let trace = end_trace().unwrap();
        let json = chrome_trace_json(&trace);
        let v: Value = serde_json::from_str(&json).expect("export parses");
        let events = v
            .as_object()
            .and_then(|o| serde::obj_get(o, "traceEvents"))
            .and_then(|e| match e {
                Value::Array(a) => Some(a),
                _ => None,
            })
            .expect("traceEvents array");
        let ph = |e: &Value| {
            e.as_object()
                .and_then(|o| serde::obj_get(o, "ph"))
                .and_then(|p| p.as_str())
                .unwrap()
                .to_string()
        };
        let mut depth = 0i64;
        let mut begins = 0;
        for e in events {
            match ph(e).as_str() {
                "B" => {
                    depth += 1;
                    begins += 1;
                }
                "E" => {
                    depth -= 1;
                    assert!(depth >= 0, "E without matching B");
                }
                "M" => {}
                other => panic!("unexpected phase {other}"),
            }
        }
        assert_eq!(depth, 0, "unbalanced B/E pairs");
        assert_eq!(begins, 2);
    }
}
