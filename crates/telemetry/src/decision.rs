//! The MAPE decision journal: a machine-readable record of every Plan step,
//! explaining *why* the pool grew, held or released, in terms of the inputs
//! to Algorithms 2–3 of the paper (`Q_task`, per-instance `r_j` and `c_j`,
//! the charging unit `u` and the waste threshold).

use crate::json::{obj, s, u, Json};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use wire_dag::Millis;

/// Names for the §III-C prediction-policy codes (1-indexed as in the paper).
pub fn policy_name(code: u8) -> &'static str {
    match code {
        1 => "no-observation",
        2 => "running-median",
        3 => "completed-median",
        4 => "group-median",
        5 => "ogd",
        _ => "unknown",
    }
}

/// What the Plan step decided for the pool as a whole.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DecisionAction {
    /// `p > m`: launch `p - m` instances (Algorithm 3 grow branch).
    Grow { launch: u32 },
    /// `p == m`: keep the pool as-is.
    Hold,
    /// The task queue was empty; pool floor of 1 applies.
    HoldEmptyQueue,
    /// `p < m`: release up to `m - p`; `released` of the `requested` excess
    /// passed the Algorithm 2 steering filters.
    Release { requested: u32, released: u32 },
}

impl DecisionAction {
    pub fn kind(&self) -> &'static str {
        match self {
            DecisionAction::Grow { .. } => "grow",
            DecisionAction::Hold => "hold",
            DecisionAction::HoldEmptyQueue => "hold_empty_queue",
            DecisionAction::Release { .. } => "release",
        }
    }
}

/// Why an individual running instance was or wasn't released (Algorithm 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JudgementOutcome {
    /// Passed every filter and was within the excess: marked for release at
    /// its charge boundary.
    Released,
    /// Passed the filters but the excess quota was already filled by cheaper
    /// candidates.
    KeptNeeded,
    /// `r_j > t`: its charge boundary is beyond the steering horizon.
    KeptBoundaryFar,
    /// `c_j > 0.2u`: restarting its tasks would waste too much paid time.
    KeptRestartCostly,
    /// Projected busy time exceeds the waste threshold: still doing useful
    /// work through the boundary.
    KeptBusy,
    /// Not in the Running state (launching or already draining); Algorithm 2
    /// only considers running instances.
    NotRunning,
}

impl JudgementOutcome {
    pub fn code(&self) -> &'static str {
        match self {
            JudgementOutcome::Released => "released",
            JudgementOutcome::KeptNeeded => "kept_needed",
            JudgementOutcome::KeptBoundaryFar => "kept_boundary_far",
            JudgementOutcome::KeptRestartCostly => "kept_restart_costly",
            JudgementOutcome::KeptBusy => "kept_busy",
            JudgementOutcome::NotRunning => "not_running",
        }
    }
}

/// The Algorithm 2 evidence for one pool instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstanceJudgement {
    pub instance: u32,
    /// `r_j`: time until the instance's next charge boundary.
    pub r_j: Millis,
    /// `c_j`: restart cost — sunk slot time lost if released now.
    pub c_j: Millis,
    /// Projected busy time within the steering horizon.
    pub projected_busy: Millis,
    pub outcome: JudgementOutcome,
}

/// The budget throttle's ground facts for one decision of a
/// budget-constrained run: what was spent, where the ceiling sits, and how
/// many launches Algorithm 3's verdict kept after damping. Absent (and
/// absent from the JSON) on unconstrained runs, so their journals stay
/// byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BudgetStamp {
    /// Committed spend at planning time, milli-dollars.
    pub spent_milli: u64,
    /// The configured ceiling, milli-dollars.
    pub ceiling_milli: u64,
    /// Launches Algorithm 3 wanted before the throttle.
    pub requested: u32,
    /// Launches that survived the throttle (what the plan carries).
    pub allowed: u32,
    /// Price of one charging unit on the default launch family (family 0),
    /// milli-dollars — the conservative per-launch commitment.
    pub unit_price_milli: u64,
}

/// One journal entry per MAPE Plan step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionRecord {
    /// Simulated time of the tick.
    pub at: Millis,
    /// Observed pool size `m` (running + launching).
    pub m: u32,
    /// Target pool size `p` from Algorithm 3.
    pub p: u32,
    /// Charging unit `u`.
    pub u: Millis,
    /// Steering horizon `t` (the MAPE interval).
    pub t: Millis,
    /// Waste threshold `0.2u` used by the Algorithm 2 filters.
    pub waste_threshold: Millis,
    /// Number of upcoming tasks in `Q_task`.
    pub q_len: u32,
    /// Sum of predicted occupancies over `Q_task`.
    pub q_total: Millis,
    /// Predicted occupancies of the first few `Q_task` entries, for the log.
    pub q_head: Vec<Millis>,
    pub action: DecisionAction,
    /// Algorithm 2 evidence; empty unless the shrink branch ran.
    pub judgements: Vec<InstanceJudgement>,
    /// Budget throttle evidence; `None` on unconstrained runs.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub budget: Option<BudgetStamp>,
}

impl DecisionRecord {
    /// JSON object for the JSONL decision stream.
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(&str, Json)> = vec![
            ("at_ms", u(self.at.as_ms())),
            ("m", u(self.m as u64)),
            ("p", u(self.p as u64)),
            ("u_ms", u(self.u.as_ms())),
            ("t_ms", u(self.t.as_ms())),
            ("waste_threshold_ms", u(self.waste_threshold.as_ms())),
            ("q_len", u(self.q_len as u64)),
            ("q_total_ms", u(self.q_total.as_ms())),
            (
                "q_head_ms",
                Json::Arr(self.q_head.iter().map(|m| u(m.as_ms())).collect()),
            ),
            ("action", s(self.action.kind())),
        ];
        match self.action {
            DecisionAction::Grow { launch } => fields.push(("launch", u(launch as u64))),
            DecisionAction::Release {
                requested,
                released,
            } => {
                fields.push(("requested", u(requested as u64)));
                fields.push(("released", u(released as u64)));
            }
            DecisionAction::Hold | DecisionAction::HoldEmptyQueue => {}
        }
        if let Some(b) = self.budget {
            fields.push(("budget_spent_milli", u(b.spent_milli)));
            fields.push(("budget_ceiling_milli", u(b.ceiling_milli)));
            fields.push(("budget_requested", u(b.requested as u64)));
            fields.push(("budget_allowed", u(b.allowed as u64)));
            fields.push(("budget_unit_price_milli", u(b.unit_price_milli)));
        }
        fields.push((
            "judgements",
            Json::Arr(
                self.judgements
                    .iter()
                    .map(|j| {
                        obj(vec![
                            ("instance", u(j.instance as u64)),
                            ("r_j_ms", u(j.r_j.as_ms())),
                            ("c_j_ms", u(j.c_j.as_ms())),
                            ("projected_busy_ms", u(j.projected_busy.as_ms())),
                            ("outcome", s(j.outcome.code())),
                        ])
                    })
                    .collect(),
            ),
        ));
        obj(fields)
    }

    /// One human-readable paragraph for the decision log.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "[{:>10.1}m] {:<16} m={} p={} | Q_task: {} tasks, {:.1}m total",
            self.at.as_mins_f64(),
            self.action.kind(),
            self.m,
            self.p,
            self.q_len,
            self.q_total.as_mins_f64(),
        );
        if !self.q_head.is_empty() {
            let head: Vec<String> = self
                .q_head
                .iter()
                .map(|m| format!("{:.1}m", m.as_mins_f64()))
                .collect();
            let _ = write!(out, " (head: {})", head.join(", "));
        }
        let _ = write!(
            out,
            " | u={:.0}m horizon={:.1}m waste_thr={:.1}m",
            self.u.as_mins_f64(),
            self.t.as_mins_f64(),
            self.waste_threshold.as_mins_f64(),
        );
        match self.action {
            DecisionAction::Grow { launch } => {
                let _ = write!(out, "\n    Algorithm 3: p > m, launch {launch}");
            }
            DecisionAction::Hold => {
                let _ = write!(out, "\n    Algorithm 3: p == m, keep pool");
            }
            DecisionAction::HoldEmptyQueue => {
                let _ = write!(out, "\n    Algorithm 3: Q_task empty, hold at pool floor");
            }
            DecisionAction::Release {
                requested,
                released,
            } => {
                let _ = write!(
                    out,
                    "\n    Algorithm 3: p < m, excess {requested}; Algorithm 2 released {released}"
                );
            }
        }
        if let Some(b) = self.budget {
            let _ = write!(
                out,
                "\n    budget: spent {}/{} milli, throttle {} -> {} launch(es)",
                b.spent_milli, b.ceiling_milli, b.requested, b.allowed
            );
        }
        for j in &self.judgements {
            let _ = write!(
                out,
                "\n      i{}: r_j={:.1}m c_j={:.1}m busy={:.1}m -> {}",
                j.instance,
                j.r_j.as_mins_f64(),
                j.c_j.as_mins_f64(),
                j.projected_busy.as_mins_f64(),
                j.outcome.code(),
            );
        }
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn record() -> DecisionRecord {
        DecisionRecord {
            at: Millis::from_mins(30),
            m: 6,
            p: 4,
            u: Millis::from_mins(60),
            t: Millis::from_mins(5),
            waste_threshold: Millis::from_mins(12),
            q_len: 3,
            q_total: Millis::from_mins(25),
            q_head: vec![Millis::from_mins(10), Millis::from_mins(9)],
            action: DecisionAction::Release {
                requested: 2,
                released: 1,
            },
            judgements: vec![
                InstanceJudgement {
                    instance: 2,
                    r_j: Millis::from_mins(3),
                    c_j: Millis::from_mins(1),
                    projected_busy: Millis::from_mins(2),
                    outcome: JudgementOutcome::Released,
                },
                InstanceJudgement {
                    instance: 5,
                    r_j: Millis::from_mins(40),
                    c_j: Millis::ZERO,
                    projected_busy: Millis::ZERO,
                    outcome: JudgementOutcome::KeptBoundaryFar,
                },
            ],
            budget: None,
        }
    }

    #[test]
    fn json_carries_algorithm_inputs() {
        let v = record().to_json();
        let text = v.render();
        let back = parse(&text).unwrap();
        assert_eq!(back.get("action").unwrap().as_str(), Some("release"));
        assert_eq!(back.get("q_len").unwrap().as_u64(), Some(3));
        assert_eq!(back.get("u_ms").unwrap().as_u64(), Some(3_600_000));
        let js = back.get("judgements").unwrap().as_arr().unwrap();
        assert_eq!(js.len(), 2);
        assert_eq!(js[0].get("r_j_ms").unwrap().as_u64(), Some(180_000));
        assert_eq!(
            js[1].get("outcome").unwrap().as_str(),
            Some("kept_boundary_far")
        );
    }

    #[test]
    fn human_rendering_mentions_all_inputs() {
        let text = record().render_human();
        for needle in ["release", "m=6", "p=4", "Q_task", "u=60m", "r_j", "c_j"] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn budget_stamp_is_absent_unless_set() {
        // the None stamp must leave the JSON byte-identical to the
        // pre-budget journal: no budget_* keys at all
        let text = record().to_json().render();
        assert!(!text.contains("budget"), "{text}");

        let mut rec = record();
        rec.budget = Some(BudgetStamp {
            spent_milli: 41_000,
            ceiling_milli: 60_000,
            requested: 3,
            allowed: 1,
            unit_price_milli: 1000,
        });
        let back = parse(&rec.to_json().render()).unwrap();
        assert_eq!(
            back.get("budget_spent_milli").unwrap().as_u64(),
            Some(41_000)
        );
        assert_eq!(back.get("budget_requested").unwrap().as_u64(), Some(3));
        assert_eq!(back.get("budget_allowed").unwrap().as_u64(), Some(1));
        let human = rec.render_human();
        assert!(human.contains("budget: spent 41000/60000"), "{human}");
    }

    #[test]
    fn action_kinds() {
        assert_eq!(DecisionAction::Grow { launch: 1 }.kind(), "grow");
        assert_eq!(DecisionAction::Hold.kind(), "hold");
        assert_eq!(DecisionAction::HoldEmptyQueue.kind(), "hold_empty_queue");
    }

    #[test]
    fn policy_names() {
        assert_eq!(policy_name(4), "group-median");
        assert_eq!(policy_name(9), "unknown");
    }
}
