//! `compare <a.json> <b.json>`: two result files of `run`, metric by
//! metric, against the bounds the benchmark declares.

use experiments::manifest::Json;

use crate::spec::{EndToEndDecl, END_TO_END};

/// How one metric moved from the base file to the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Better,
    /// Worse by more than the bound.
    Worse,
    /// Moved by no more than the bound.
    Within,
    /// The run-to-run spread is wider than the bound and the two files'
    /// repetitions overlap, so the medians decide nothing.
    Unresolved,
}

impl Verdict {
    /// The word printed in the table.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Within => "within",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The repetitions behind a median, as far as a result file keeps them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    /// Quartile distance over median.
    pub spread: f64,
    /// Smallest repetition.
    pub min: f64,
    /// Largest repetition.
    pub max: f64,
}

/// Judge one metric: `a` is the base.
pub fn verdict(m: &EndToEndDecl, a: f64, b: f64, dist: Option<(Dist, Dist)>) -> Verdict {
    if let Some((da, db)) = dist {
        let overlap = da.min <= db.max && db.min <= da.max;
        if da.spread.max(db.spread) > m.bound && overlap {
            return Verdict::Unresolved;
        }
    }
    let worsening = m.better.worsening(a, b);
    if worsening > 1.0 + m.bound {
        Verdict::Worse
    } else if worsening < 1.0 - m.bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// The summary in a workload's `detail` block that `metric` derives
/// from; `peak_rss_mb` is a single reading and has none.
fn dist_of(workload: &Json, metric: &str) -> Option<Dist> {
    let key = match metric {
        "wall_s" | "wall_s_best" | "events_per_s" => "wall_s",
        "cpu_s" => "cpu_s",
        "setup_s" => "setup_s",
        _ => return None,
    };
    let s = workload.get("detail")?.get(key)?;
    let f = |k: &str| s.get(k).and_then(Json::as_f64);
    let median = f("median")?;
    Some(Dist {
        spread: if median == 0.0 {
            0.0
        } else {
            (f("q3")? - f("q1")?) / median
        },
        min: f("min")?,
        max: f("max")?,
    })
}

fn workloads(file: &Json) -> Result<&[Json], String> {
    file.get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| "no \"workloads\" array: not a result file of `run`".to_string())
}

fn failed_share(workload: &Json) -> f64 {
    let n = |k: &str| workload.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    n("failed") / n("attempted").max(1.0)
}

/// Compare two parsed result files, printing one row per workload and
/// metric. Returns whether nothing got worse: no metric beyond its bound
/// and no rise in the share of failed operations.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let mut ok = true;
    println!(
        "{:<24} {:<13} {:>14} {:>14} {:>16}  verdict",
        "workload", "metric", "a", "b", "b/a (base a)"
    );
    for wa in workloads(a)? {
        let name = wa.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(wb) = workloads(b)?
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            println!("{name:<24} only in the first file");
            ok = false;
            continue;
        };
        for m in &END_TO_END {
            let value = |w: &Json| {
                w.get("end_to_end")?
                    .get(m.name)?
                    .get("value")
                    .and_then(Json::as_f64)
            };
            let (Some(va), Some(vb)) = (value(wa), value(wb)) else {
                println!("{name:<24} {:<13} missing in one file", m.name);
                ok = false;
                continue;
            };
            let dist = dist_of(wa, m.name).zip(dist_of(wb, m.name));
            let v = verdict(m, va, vb, dist);
            ok &= v != Verdict::Worse;
            println!(
                "{name:<24} {:<13} {va:>14.6} {vb:>14.6} {:>16.4}  {}",
                m.name,
                vb / va,
                v.as_str()
            );
        }
        let (fa, fb) = (failed_share(wa), failed_share(wb));
        if fb > fa {
            println!(
                "{name:<24} failed operations rose from {fa:.4} to {fb:.4} of those attempted"
            );
            ok = false;
        }
        let same_sim = wa.get("sim") == wb.get("sim");
        println!(
            "{name:<24} sim block {}",
            if same_sim {
                "identical"
            } else {
                "DIFFERS: the simulated behaviour changed"
            }
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Better;

    /// A time and a rate with a 10 % bound, whatever the benchmark
    /// declares today.
    const WALL: EndToEndDecl = EndToEndDecl {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
    };
    const RATE: EndToEndDecl = EndToEndDecl {
        name: "events_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    };

    fn tight(at: f64) -> Dist {
        Dist {
            spread: 0.01,
            min: at * 0.99,
            max: at * 1.01,
        }
    }

    #[test]
    fn medians_decide_when_the_spread_is_inside_the_bound() {
        let d = |a: f64, b: f64| Some((tight(a), tight(b)));
        assert_eq!(verdict(&WALL, 3.0, 3.1, d(3.0, 3.1)), Verdict::Within);
        assert_eq!(verdict(&WALL, 3.0, 3.5, d(3.0, 3.5)), Verdict::Worse);
        assert_eq!(verdict(&WALL, 3.0, 2.5, d(3.0, 2.5)), Verdict::Better);
        // Higher-is-better metrics worsen when they fall.
        assert_eq!(verdict(&RATE, 10e6, 8e6, None), Verdict::Worse);
        assert_eq!(verdict(&RATE, 10e6, 12e6, None), Verdict::Better);
    }

    fn result_file(wall: f64, failed: u64, digest: &str) -> Json {
        let metric = |v: f64| Json::obj(vec![("value", v.into()), ("unit", "s".into())]);
        let summary = Json::obj(vec![
            ("n", 7u64.into()),
            ("min", (wall * 0.99).into()),
            ("q1", (wall * 0.995).into()),
            ("median", wall.into()),
            ("q3", (wall * 1.005).into()),
            ("max", (wall * 1.01).into()),
        ]);
        let end_to_end = END_TO_END
            .iter()
            .map(|m| (m.name, metric(if m.name == "wall_s" { wall } else { 1.0 })))
            .collect();
        Json::obj(vec![(
            "workloads",
            Json::Arr(vec![Json::obj(vec![
                ("name", "fig7_case1_seq".into()),
                ("attempted", 7u64.into()),
                ("failed", failed.into()),
                ("end_to_end", Json::obj(end_to_end)),
                ("detail", Json::obj(vec![("wall_s", summary)])),
                ("sim", Json::obj(vec![("trace_digest", digest.into())])),
            ])]),
        )])
    }

    #[test]
    fn compare_fails_on_a_regression_or_a_new_failure_only() {
        // Relative to the declared bound, so the test survives a re-tuning.
        let bound = END_TO_END[0].bound;
        assert_eq!(END_TO_END[0].name, "wall_s");
        let base = result_file(3.0, 0, "aa");
        let slower = |by: f64| result_file(3.0 * (1.0 + by), 0, "aa");
        assert_eq!(compare(&base, &slower(bound / 2.0)), Ok(true));
        assert_eq!(compare(&base, &result_file(1.0, 0, "bb")), Ok(true));
        assert_eq!(compare(&base, &slower(bound * 1.5)), Ok(false));
        assert_eq!(compare(&base, &result_file(3.0, 1, "aa")), Ok(false));
        assert!(compare(&base, &Json::Null).is_err());
    }

    #[test]
    fn a_wide_overlapping_spread_is_unresolved_not_unchanged() {
        let noisy = |at: f64| Dist {
            spread: 0.3,
            min: at * 0.7,
            max: at * 1.4,
        };
        assert_eq!(
            verdict(&WALL, 3.0, 3.5, Some((noisy(3.0), noisy(3.5)))),
            Verdict::Unresolved
        );
        // Wide but disjoint: every run of one side beats the other.
        let apart = (
            Dist {
                spread: 0.3,
                min: 2.0,
                max: 3.0,
            },
            Dist {
                spread: 0.3,
                min: 4.0,
                max: 6.0,
            },
        );
        assert_eq!(verdict(&WALL, 2.5, 5.0, Some(apart)), Verdict::Worse);
    }
}
