//! Output formats: the `workload metric value unit` lines, the one-line
//! result object a harness parses, and the results files. JSON values are
//! `wire_telemetry::json`'s.

use wire_telemetry::json::{self, Json};

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
        }
    }

    /// The `workload metric value unit` line.
    pub fn line(&self, workload: &str) -> String {
        format!("{workload} {} {} {}", self.name, self.value, self.unit)
    }

    /// Parse a line written by [`Metric::line`] back into (workload, metric).
    pub fn parse_line(line: &str) -> Option<(String, Metric)> {
        let mut it = line.split_whitespace();
        let (w, name, value, unit) = (it.next()?, it.next()?, it.next()?, it.next()?);
        if it.next().is_some() {
            return None;
        }
        let value: f64 = value.parse().ok()?;
        Some((w.to_string(), Metric::new(name, value, unit)))
    }
}

/// `{"<name>": {"value": v, "unit": u}, ...}` in the metrics' order.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let entry = json::obj(vec![
                    ("value", json::num(m.value)),
                    ("unit", json::s(&m.unit)),
                ]);
                (m.name.clone(), entry)
            })
            .collect(),
    )
}

/// The last stdout line of a single-workload run: the verdict plus the
/// metrics a harness reads.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", json::u(attempted)),
        ("failed", json::u(failed)),
        ("metrics", metrics_json(metrics)),
    ])
    .render()
}

/// `(correct, attempted, failed)` of a [`result_line`].
pub fn parse_result(line: &str) -> Option<(bool, u64, u64)> {
    let v = json::parse(line).ok()?;
    let Json::Bool(correct) = *v.get("correct")? else {
        return None;
    };
    Some((
        correct,
        v.get("attempted")?.as_u64()?,
        v.get("failed")?.as_u64()?,
    ))
}

/// Indented rendering for the results files kept in the repository, one
/// field or element per line, so their diffs read line by line.
pub fn pretty(v: &Json) -> String {
    fn write(v: &Json, depth: usize, out: &mut String) {
        let (open, close, items): (char, char, Vec<(Option<&String>, &Json)>) = match v {
            Json::Arr(a) if !a.is_empty() => ('[', ']', a.iter().map(|x| (None, x)).collect()),
            Json::Obj(f) if !f.is_empty() => {
                ('{', '}', f.iter().map(|(k, x)| (Some(k), x)).collect())
            }
            scalar_or_empty => return out.push_str(&scalar_or_empty.render()),
        };
        out.push(open);
        for (i, (key, item)) in items.into_iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&"  ".repeat(depth + 1));
            if let Some(k) = key {
                out.push_str(&json::s(k).render());
                out.push_str(": ");
            }
            write(item, depth + 1, out);
        }
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
        out.push(close);
    }
    let mut out = String::new();
    write(v, 0, &mut out);
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_expected_shape_and_parses_back() {
        let line = result_line(
            true,
            1000,
            0,
            &[
                Metric::new("wall_s", 1.2034, "s"),
                Metric::new("setup_s", 0.000080344, "s"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":1000,\"failed\":0,\"metrics\":\
             {\"wall_s\":{\"value\":1.2034,\"unit\":\"s\"},\
             \"setup_s\":{\"value\":0.000080344,\"unit\":\"s\"}}}"
        );
        assert_eq!(parse_result(&line), Some((true, 1000, 0)));
        let failed = result_line(false, 12, 3, &[]);
        assert_eq!(parse_result(&failed), Some((false, 12, 3)));
        assert_eq!(parse_result("traffic wall_s 1 s"), None);
        assert_eq!(
            parse_result("{\"correct\":1,\"attempted\":1,\"failed\":0}"),
            None
        );
    }

    #[test]
    fn values_keep_every_digit() {
        let line = result_line(true, 1, 0, &[Metric::new("x", 0.1 + 0.2, "s")]);
        assert!(line.contains("0.30000000000000004"), "{line}");
    }

    #[test]
    fn pretty_rendering_nests_and_empty_containers_stay_compact() {
        let j = json::obj(vec![
            ("a", Json::Arr(vec![json::u(1), json::num(2.5)])),
            ("b", Json::Obj(vec![])),
            ("c", json::obj(vec![("d", json::s("e\"f"))])),
        ]);
        assert_eq!(
            pretty(&j),
            "{\n  \"a\": [\n    1,\n    2.5\n  ],\n  \"b\": {},\n  \
             \"c\": {\n    \"d\": \"e\\\"f\"\n  }\n}\n"
        );
        assert_eq!(json::parse(&pretty(&j)), Ok(j));
    }

    #[test]
    fn metric_lines_round_trip() {
        let m = Metric::new("events_per_s", 1_234_567.891, "1/s");
        let line = m.line("traffic");
        assert_eq!(line, "traffic events_per_s 1234567.891 1/s");
        assert_eq!(Metric::parse_line(&line), Some(("traffic".into(), m)));
        assert_eq!(Metric::parse_line("traffic x 1 s extra"), None);
        assert_eq!(Metric::parse_line("{\"correct\": true}"), None);
    }
}
