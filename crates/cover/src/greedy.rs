//! Greedy maximum-coverage polling-point selection.
//!
//! Two implementations of the same selection rule live here:
//!
//! * [`greedy_cover_restricted`] — **lazy-greedy** (submodular)
//!   selection backed by a max-heap of stale marginal gains;
//!   [`greedy_cover`] runs it over every target and candidate.
//!   Because coverage gain is submodular (a candidate's gain never grows as
//!   the covered set grows), a heap entry's recorded gain is an upper bound
//!   on its true gain; entries are re-evaluated only when they surface at
//!   the top of the heap. This is the classic Minoux accelerated greedy:
//!   `O(candidates · log candidates)` heap traffic plus a handful of gain
//!   re-evaluations per selection, instead of a full candidate rescan per
//!   selection.
//! * `greedy_cover_reference` / `greedy_cover_restricted_reference` —
//!   the original full-rescan implementations, compiled for this module's
//!   tests only as the executable specification. The seeded equivalence
//!   suite there checks that the lazy versions reproduce their selection
//!   order **exactly**, tie-breaker included.
//!
//! The tie-breaking contract (shared by both): select the candidate with
//! the largest marginal gain; among equal gains the smallest
//! `tie_break(candidate)` wins; among equal `(gain, tie)` the smallest
//! candidate index wins. `tie_break` must be a pure function of the
//! candidate index for the duration of the call (both callers in this
//! workspace pass closures over immutable data); the lazy version memoizes
//! it and only evaluates it for candidates that are max-gain contenders,
//! which also makes expensive tie-breakers (e.g. tour-insertion probes)
//! cheap.

use crate::instance::CoverageInstance;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A heap entry: a candidate and its (possibly stale) marginal gain.
/// Ordered so the max-heap pops the largest gain first; equal gains pop in
/// ascending candidate order for determinism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GainEntry {
    gain: usize,
    cand: usize,
}

impl Ord for GainEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.gain
            .cmp(&other.gain)
            .then_with(|| other.cand.cmp(&self.cand))
    }
}

impl PartialOrd for GainEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Normalizes a tie value so `-0.0` and `0.0` compare equal under
/// `total_cmp`, matching the reference's `<` semantics.
#[inline]
fn norm_tie(t: f64) -> f64 {
    if t == 0.0 {
        0.0
    } else {
        t
    }
}

/// How many of `list`'s targets are not yet `covered`: a candidate's
/// marginal gain.
#[inline]
fn uncovered_in(list: &[u32], covered: &[bool]) -> usize {
    list.iter().filter(|&&t| !covered[t as usize]).count()
}

/// One lazy-greedy selection step. Pops heap entries, re-evaluating stale
/// gains, until the set of *verified* max-gain contenders is complete; then
/// picks the contender minimizing `(tie, index)` and pushes the rest back.
///
/// Returns `None` when no candidate has positive gain (uncovered targets
/// remain but nothing covers them).
fn lazy_select<F>(
    heap: &mut BinaryHeap<GainEntry>,
    covered: &[bool],
    inst: &CoverageInstance,
    ties: &mut [Option<f64>],
    tie_break: &F,
    reevals: &mut u64,
) -> Option<(usize, usize)>
where
    F: Fn(usize) -> f64,
{
    let mut contenders: Vec<usize> = Vec::new();
    let mut gmax = 0usize;
    while let Some(&top) = heap.peek() {
        if !contenders.is_empty() && top.gain < gmax {
            break;
        }
        heap.pop();
        *reevals += 1;
        let gain = uncovered_in(inst.covers(top.cand), covered);
        if gain == 0 {
            continue; // Fully covered already; drop the candidate for good.
        }
        if gain == top.gain {
            // Verified: the recorded gain is current. Since it topped the
            // heap, no other candidate's true gain can exceed it.
            gmax = gain;
            contenders.push(top.cand);
        } else {
            debug_assert!(gain < top.gain, "coverage gain is submodular");
            heap.push(GainEntry {
                gain,
                cand: top.cand,
            });
        }
    }
    let mut iter = contenders.iter().copied();
    let mut best = iter.next()?;
    let mut best_tie = norm_tie(*ties[best].get_or_insert_with(|| tie_break(best)));
    for c in iter {
        let t = norm_tie(*ties[c].get_or_insert_with(|| tie_break(c)));
        // Contenders were pushed in heap-pop order (ascending candidate
        // index among equal gains is NOT guaranteed across re-pushes), so
        // compare on (tie, index) explicitly.
        if t.total_cmp(&best_tie) == Ordering::Less
            || (t.total_cmp(&best_tie) == Ordering::Equal && c < best)
        {
            best = c;
            best_tie = t;
        }
    }
    // Losers keep their verified gain and go back on the heap.
    for &c in contenders.iter().filter(|&&c| c != best) {
        heap.push(GainEntry {
            gain: gmax,
            cand: c,
        });
    }
    Some((best, gmax))
}

/// Greedy set cover: repeatedly select the candidate covering the most
/// still-uncovered targets. Ties are broken by the *smallest* value of
/// `tie_break(candidate_index)` — the SHDG planner passes distance-to-sink
/// so the polling points pull toward the sink, and the tour-aware variant
/// passes the marginal tour-insertion cost.
///
/// Returns the selected candidate indices in selection order, or `None` if
/// the instance is infeasible (some target uncovered by every candidate).
///
/// This is [`greedy_cover_restricted`] over every target and candidate:
/// lazy greedy, which returns the exact same selection sequence as the
/// full-rescan reference for any pure, non-`NaN` tie-breaker, at a
/// fraction of the cost on large instances.
///
/// The classic `ln n + 1` approximation guarantee for minimum set cover
/// applies regardless of the tie-breaker.
///
/// ```
/// use mdg_cover::{greedy_cover, CoverageInstance};
/// use mdg_geom::Point;
///
/// // Three sensors in a 25 m row: the middle one covers all at R = 12.
/// let sensors = [Point::new(0.0, 0.0), Point::new(10.0, 0.0), Point::new(20.0, 0.0)];
/// let inst = CoverageInstance::sensor_sites(&sensors, 12.0);
/// let cover = greedy_cover(&inst, |_| 0.0).unwrap();
/// assert_eq!(cover, vec![1]);
/// assert!(inst.is_cover(&cover));
/// ```
pub fn greedy_cover<F>(inst: &CoverageInstance, tie_break: F) -> Option<Vec<usize>>
where
    F: Fn(usize) -> f64,
{
    let targets: Vec<usize> = (0..inst.n_targets()).collect();
    let allowed: Vec<usize> = (0..inst.n_candidates()).collect();
    greedy_cover_restricted(inst, &targets, &allowed, tie_break)
}

/// Greedy cover of a **subset** of targets using a **subset** of
/// candidates — the incremental-repair entry point. After node failures,
/// the runtime re-covers the orphaned sensors (`targets`) using only
/// candidates anchored at live nodes (`allowed`), leaving the rest of the
/// plan untouched.
///
/// Returns selected candidate indices (into `inst.candidates`, drawn from
/// `allowed`) in selection order, or `None` if some requested target is
/// covered by no allowed candidate. Targets outside `targets` are ignored
/// entirely: they neither need covering nor contribute to gains.
///
/// Lazy-greedy; selection-order-identical to the full-rescan reference.
///
/// ```
/// use mdg_cover::{greedy_cover_restricted, CoverageInstance};
/// use mdg_geom::Point;
///
/// let sensors = [Point::new(0.0, 0.0), Point::new(10.0, 0.0), Point::new(20.0, 0.0)];
/// let inst = CoverageInstance::sensor_sites(&sensors, 12.0);
/// // Re-cover sensor 0 without using candidate 1 (its anchor died).
/// let sel = greedy_cover_restricted(&inst, &[0], &[0, 2], |_| 0.0).unwrap();
/// assert_eq!(sel, vec![0]);
/// ```
pub fn greedy_cover_restricted<F>(
    inst: &CoverageInstance,
    targets: &[usize],
    allowed: &[usize],
    tie_break: F,
) -> Option<Vec<usize>>
where
    F: Fn(usize) -> f64,
{
    let mut sp = mdg_obs::span("lazy_greedy");
    sp.add_items(allowed.len() as u64);
    let mut reevals = 0u64;
    // Treat everything outside `targets` as pre-covered, then run the
    // standard lazy-greedy loop over the allowed candidates.
    let mut covered = vec![true; inst.n_targets()];
    let mut remaining = 0usize;
    for &t in targets {
        remaining += usize::from(std::mem::replace(&mut covered[t], false));
    }
    let mut selected = Vec::new();
    let mut ties: Vec<Option<f64>> = vec![None; inst.n_candidates()];
    // Seed the heap with initial gains computed in parallel. `GainEntry`'s
    // ordering is total (gain, then candidate index), so the heap's pop
    // sequence — and with it the whole selection — does not depend on the
    // order entries were produced in.
    let mut heap = BinaryHeap::from(mdg_par::par_map(allowed.len(), |k| {
        let c = allowed[k];
        GainEntry {
            gain: uncovered_in(inst.covers(c), &covered),
            cand: c,
        }
    }));

    while remaining > 0 {
        let Some((best, gain)) = lazy_select(
            &mut heap,
            &covered,
            inst,
            &mut ties,
            &tie_break,
            &mut reevals,
        ) else {
            mdg_obs::counter("lazy_greedy/reevals").add(reevals);
            return None; // Some requested target is unreachable.
        };
        for &t in inst.covers(best) {
            covered[t as usize] = true;
        }
        selected.push(best);
        remaining -= gain;
    }
    mdg_obs::counter("lazy_greedy/reevals").add(reevals);
    Some(selected)
}

/// Reference full-rescan greedy cover (the original implementation): every
/// selection step scans all candidates. `O(selections · pairs)`. Kept as
/// the executable specification that [`greedy_cover`] is verified
/// against.
#[cfg(test)]
fn greedy_cover_reference<F>(inst: &CoverageInstance, tie_break: F) -> Option<Vec<usize>>
where
    F: Fn(usize) -> f64,
{
    let n = inst.n_targets();
    let mut covered = vec![false; n];
    let mut selected = Vec::new();
    let mut remaining = n;

    while remaining > 0 {
        let mut best = usize::MAX;
        let mut best_gain = 0usize;
        let mut best_tie = f64::INFINITY;
        for c in 0..inst.n_candidates() {
            let gain = uncovered_in(inst.covers(c), &covered);
            if gain == 0 {
                continue;
            }
            if gain > best_gain {
                best = c;
                best_gain = gain;
                best_tie = tie_break(c);
            } else if gain == best_gain {
                let t = tie_break(c);
                if t < best_tie {
                    best = c;
                    best_tie = t;
                }
            }
        }
        if best == usize::MAX {
            return None; // Remaining targets are uncoverable.
        }
        for &t in inst.covers(best) {
            covered[t as usize] = true;
        }
        selected.push(best);
        remaining -= best_gain;
    }
    Some(selected)
}

/// Reference full-rescan restricted greedy cover; see
/// [`greedy_cover_reference`].
#[cfg(test)]
fn greedy_cover_restricted_reference<F>(
    inst: &CoverageInstance,
    targets: &[usize],
    allowed: &[usize],
    tie_break: F,
) -> Option<Vec<usize>>
where
    F: Fn(usize) -> f64,
{
    let mut covered = vec![true; inst.n_targets()];
    let mut remaining = 0usize;
    for &t in targets {
        remaining += usize::from(std::mem::replace(&mut covered[t], false));
    }
    let mut selected = Vec::new();

    while remaining > 0 {
        let mut best = usize::MAX;
        let mut best_gain = 0usize;
        let mut best_tie = f64::INFINITY;
        for &c in allowed {
            let gain = uncovered_in(inst.covers(c), &covered);
            if gain == 0 {
                continue;
            }
            if gain > best_gain {
                best = c;
                best_gain = gain;
                best_tie = tie_break(c);
            } else if gain == best_gain {
                let t = tie_break(c);
                if t < best_tie {
                    best = c;
                    best_tie = t;
                }
            }
        }
        if best == usize::MAX {
            return None; // Some requested target is unreachable.
        }
        for &t in inst.covers(best) {
            covered[t as usize] = true;
        }
        selected.push(best);
        remaining -= best_gain;
    }
    Some(selected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdg_geom::Point;
    use mdg_net::DeploymentConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn line(xs: &[f64]) -> Vec<Point> {
        xs.iter().map(|&x| Point::new(x, 0.0)).collect()
    }

    #[test]
    fn covers_all_targets() {
        let sensors = line(&[0.0, 10.0, 20.0, 30.0, 40.0, 100.0]);
        let inst = CoverageInstance::sensor_sites(&sensors, 12.0);
        let sel = greedy_cover(&inst, |_| 0.0).unwrap();
        assert!(inst.is_cover(&sel));
        // Greedy picks a middle sensor (covers 3) and then fills in:
        // strictly fewer polling points than sensors.
        assert!(sel.len() < sensors.len());
    }

    #[test]
    fn greedy_picks_max_gain_first() {
        // At R=12, candidates 1 (covers {0,1,2}) and 2 (covers {1,2,3})
        // are the two gain-3 picks; the first selection must be one of
        // them.
        let sensors = line(&[0.0, 10.0, 20.0, 30.0, 80.0]);
        let inst = CoverageInstance::sensor_sites(&sensors, 12.0);
        let sel = greedy_cover(&inst, |_| 0.0).unwrap();
        assert!(
            sel[0] == 1 || sel[0] == 2,
            "first selection must be a max-coverage candidate, got {}",
            sel[0]
        );
        assert_eq!(inst.covers(sel[0]).len(), 3);
    }

    #[test]
    fn tie_break_steers_selection() {
        // Sensors 0 and 3 each cover exactly {self, middle neighbor}:
        // symmetric pairs; tie-break decides.
        let sensors = line(&[0.0, 10.0, 30.0, 40.0]);
        let inst = CoverageInstance::sensor_sites(&sensors, 11.0);
        // Prefer high x.
        let sel_hi = greedy_cover(&inst, |c| -sensors[c].x).unwrap();
        // Prefer low x.
        let sel_lo = greedy_cover(&inst, |c| sensors[c].x).unwrap();
        assert_ne!(sel_hi[0], sel_lo[0], "tie-break must change the first pick");
        assert!(inst.is_cover(&sel_hi));
        assert!(inst.is_cover(&sel_lo));
    }

    #[test]
    fn infeasible_instance_returns_none() {
        // Grid candidates too coarse to reach the lone sensor.
        let sensors = vec![Point::new(33.0, 33.0)];
        let inst =
            CoverageInstance::grid_candidates(&sensors, &mdg_geom::Aabb::square(100.0), 50.0, 5.0);
        assert_eq!(greedy_cover(&inst, |_| 0.0), None);
        assert_eq!(greedy_cover_reference(&inst, |_| 0.0), None);
    }

    #[test]
    fn empty_instance_needs_nothing() {
        let inst = CoverageInstance::sensor_sites(&[], 10.0);
        assert_eq!(greedy_cover(&inst, |_| 0.0).unwrap(), Vec::<usize>::new());
    }

    #[test]
    fn isolated_sensors_are_their_own_polling_points() {
        let sensors = line(&[0.0, 100.0, 200.0]);
        let inst = CoverageInstance::sensor_sites(&sensors, 10.0);
        let mut sel = greedy_cover(&inst, |_| 0.0).unwrap();
        sel.sort_unstable();
        assert_eq!(sel, vec![0, 1, 2]);
    }

    #[test]
    fn restricted_cover_ignores_forbidden_candidates() {
        let sensors = line(&[0.0, 10.0, 20.0, 30.0]);
        let inst = CoverageInstance::sensor_sites(&sensors, 12.0);
        // Orphans {1, 2}; candidate 1 and 2 forbidden (anchors dead).
        let sel = greedy_cover_restricted(&inst, &[1, 2], &[0, 3], |_| 0.0).unwrap();
        let mut sorted = sel.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 3], "0 reaches 1, 3 reaches 2");
    }

    #[test]
    fn restricted_cover_reports_unreachable_targets() {
        let sensors = line(&[0.0, 10.0, 50.0]);
        let inst = CoverageInstance::sensor_sites(&sensors, 12.0);
        assert_eq!(
            greedy_cover_restricted(&inst, &[2], &[0, 1], |_| 0.0),
            None,
            "sensor 2 is out of range of every allowed candidate"
        );
    }

    #[test]
    fn restricted_with_no_targets_selects_nothing() {
        let sensors = line(&[0.0, 10.0]);
        let inst = CoverageInstance::sensor_sites(&sensors, 12.0);
        assert_eq!(
            greedy_cover_restricted(&inst, &[], &[0, 1], |_| 0.0).unwrap(),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn restricted_matches_full_greedy_when_unrestricted() {
        let sensors = line(&[0.0, 10.0, 20.0, 30.0, 40.0, 100.0]);
        let inst = CoverageInstance::sensor_sites(&sensors, 12.0);
        let all_targets: Vec<usize> = (0..sensors.len()).collect();
        let all_cands: Vec<usize> = (0..inst.n_candidates()).collect();
        let full = greedy_cover(&inst, |c| c as f64).unwrap();
        let restricted =
            greedy_cover_restricted(&inst, &all_targets, &all_cands, |c| c as f64).unwrap();
        assert_eq!(full, restricted);
    }

    #[test]
    fn selection_has_no_duplicates() {
        let sensors = line(&[0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]);
        let inst = CoverageInstance::sensor_sites(&sensors, 7.0);
        let sel = greedy_cover(&inst, |_| 0.0).unwrap();
        let mut dedup = sel.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), sel.len());
    }

    #[test]
    fn lazy_matches_reference_on_lines() {
        // Dense overlap with many exact gain ties; constant tie-breaker
        // forces the index tie-path.
        let sensors = line(&[0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 90.0]);
        let inst = CoverageInstance::sensor_sites(&sensors, 11.0);
        for tie in [0.0f64, 1.0] {
            let lazy = greedy_cover(&inst, |_| tie).unwrap();
            let slow = greedy_cover_reference(&inst, |_| tie).unwrap();
            assert_eq!(lazy, slow);
        }
        let lazy = greedy_cover(&inst, |c| sensors[c].x).unwrap();
        let slow = greedy_cover_reference(&inst, |c| sensors[c].x).unwrap();
        assert_eq!(lazy, slow);
    }

    #[test]
    fn negative_zero_tie_matches_reference() {
        // A -0.0 tie value must compare equal to 0.0, exactly as the
        // reference's `<` does — the earlier index must win.
        let sensors = line(&[0.0, 10.0, 30.0, 40.0]);
        let inst = CoverageInstance::sensor_sites(&sensors, 11.0);
        let tie = |c: usize| if c >= 2 { -0.0 } else { 0.0 };
        assert_eq!(
            greedy_cover(&inst, tie).unwrap(),
            greedy_cover_reference(&inst, tie).unwrap()
        );
    }

    // Seeded equivalence suite: the lazy-greedy (max-heap of stale gains)
    // cover must return the *exact same selections, in the same order* as
    // the naive full-rescan greedy it replaced, for any tie-breaker.
    //
    // The suite sweeps > 100 seeded instances across sizes, ranges and four
    // tie-breaker families chosen to stress the tie-resolution path: the
    // planner's real distance-to-sink breaker, a constant (every candidate
    // tied), a coarsely quantized distance (many multi-way ties, including
    // exact `-0.0` vs `0.0` bucket values), and a negated coordinate
    // (descending preference).

    /// Instance `i` of the sweep: uniform field whose size, density and range
    /// all vary with the index.
    fn instance(i: usize) -> (CoverageInstance, Vec<Point>, Point) {
        let n = 10 + (i * 7) % 151; // 10..=160 sensors
        let side = 60.0 + (i % 9) as f64 * 20.0; // 60..=220 m
        let range = 12.0 + (i % 11) as f64 * 4.0; // 12..=52 m
        let dep = DeploymentConfig::uniform(n, side).generate(1000 + i as u64);
        let inst = CoverageInstance::sensor_sites(&dep.sensors, range);
        (inst, dep.sensors, dep.sink)
    }

    /// The four tie-breaker families, by index.
    fn tie_break(mode: usize, sensors: &[Point], sink: Point, c: usize) -> f64 {
        match mode {
            0 => sensors[c].dist(sink),                  // the planner's breaker
            1 => 0.0,                                    // everything tied
            2 => (sensors[c].dist(sink) / 25.0).floor(), // coarse buckets
            _ => -sensors[c].x,                          // descending, signed zeros
        }
    }

    #[test]
    fn lazy_matches_reference_on_120_seeded_instances() {
        let mut checked = 0usize;
        for i in 0..120 {
            let (inst, sensors, sink) = instance(i);
            let mode = i % 4;
            let tb = |c: usize| tie_break(mode, &sensors, sink, c);
            let lazy = greedy_cover(&inst, tb);
            let naive = greedy_cover_reference(&inst, tb);
            assert_eq!(
                lazy,
                naive,
                "instance {i} (n = {}, mode {mode}): lazy-greedy diverged from reference",
                inst.n_targets()
            );
            assert!(inst.is_cover(&lazy.unwrap()));
            checked += 1;
        }
        assert!(checked >= 100, "suite must cover at least 100 instances");
    }

    #[test]
    fn restricted_lazy_matches_reference_on_seeded_instances() {
        let mut rng = StdRng::seed_from_u64(7);
        for i in 0..60 {
            let (inst, sensors, sink) = instance(i + 500);
            let n = inst.n_targets();
            // Random non-empty target subset; `allowed` is every candidate
            // covering at least one chosen target plus some random extras.
            let targets: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.4)).collect();
            if targets.is_empty() {
                continue;
            }
            let allowed: Vec<usize> = (0..inst.n_candidates())
                .filter(|&c| {
                    targets
                        .iter()
                        .any(|&t| inst.covers(c).contains(&(t as u32)))
                        || rng.gen_bool(0.2)
                })
                .collect();
            let mode = i % 4;
            let tb = |c: usize| tie_break(mode, &sensors, sink, c);
            let lazy = greedy_cover_restricted(&inst, &targets, &allowed, tb);
            let naive = greedy_cover_restricted_reference(&inst, &targets, &allowed, tb);
            assert_eq!(
                lazy, naive,
                "restricted instance {i} (n = {n}, mode {mode}): lazy diverged from reference"
            );
        }
    }

    #[test]
    fn restricted_infeasible_subsets_agree_on_none() {
        // `allowed` misses a target entirely: both variants must return None.
        let sensors = vec![
            Point::new(0.0, 0.0),
            Point::new(50.0, 0.0),
            Point::new(100.0, 0.0),
        ];
        let inst = CoverageInstance::sensor_sites(&sensors, 10.0);
        let lazy = greedy_cover_restricted(&inst, &[0, 2], &[0], |_| 0.0);
        let naive = greedy_cover_restricted_reference(&inst, &[0, 2], &[0], |_| 0.0);
        assert_eq!(lazy, None);
        assert_eq!(lazy, naive);
    }
}
