//! Tour-aware greedy covering.
//!
//! The plain greedy cover optimizes only the *number* of polling points;
//! the tour cost of visiting them is an afterthought. The tour-aware
//! variant grows the cover and the tour simultaneously: each step selects
//! the candidate maximizing
//!
//! ```text
//!     newly covered sensors / (ε + cheapest insertion cost into the
//!                                  current partial tour)
//! ```
//!
//! so a candidate that covers slightly fewer sensors but sits right next to
//! the evolving tour wins over a remote one. The A1 ablation compares it
//! with plain greedy covering (`CoveringStrategy::Greedy`).

use mdg_cover::{BitSet, CoverageInstance};
use mdg_geom::Point;

/// The rule's ε: meters added to the insertion cost in the denominator so
/// that zero-cost insertions do not dominate on gain-1 candidates.
const EPSILON: f64 = 1.0;

/// Cheapest-insertion delta of `p` into the closed tour `tour` (which
/// includes the sink). For a single-vertex "tour" this is the out-and-back
/// distance.
#[cfg(test)]
fn insertion_cost(tour: &[Point], p: Point) -> (usize, f64) {
    debug_assert!(!tour.is_empty());
    if tour.len() == 1 {
        return (1, 2.0 * tour[0].dist(p));
    }
    let mut best_pos = 1;
    let mut best = f64::INFINITY;
    for i in 0..tour.len() {
        let a = tour[i];
        let b = tour[(i + 1) % tour.len()];
        let delta = a.dist(p) + p.dist(b) - a.dist(b);
        if delta < best {
            best = delta;
            best_pos = i + 1;
        }
    }
    (best_pos, best)
}

/// Sentinel node id for the sink in the incremental tour bookkeeping.
const SINK: usize = usize::MAX;

/// Cheapest-insertion cache entry for one candidate: the delta and the
/// tour node (SINK or candidate id) the insertion edge starts at.
#[derive(Debug, Clone, Copy)]
struct InsEntry {
    delta: f64,
    after: usize,
}

/// A candidate whose gain is still above zero, with its position and
/// insertion cache entry side by side. The live array is compacted after
/// every selection, so the scan and the cache update never visit a
/// candidate that can no longer be chosen, and the cache update runs as
/// disjoint mutable slabs of it under `mdg_par::par_chunks_mut`.
#[derive(Debug, Clone, Copy)]
struct LiveCand {
    id: usize,
    pos: Point,
    ins: InsEntry,
}

/// Running argmax of the tour-aware selection rule. The fold over chunk
/// winners uses the exact strict-better predicate of the sequential scan,
/// so combining per-chunk results in chunk order reproduces the full
/// left-to-right scan bit-for-bit.
#[derive(Debug, Clone, Copy)]
struct BestCand {
    /// Index into the live array.
    slot: usize,
    score: f64,
    gain: usize,
    ins: f64,
}

impl BestCand {
    const NONE: BestCand = BestCand {
        slot: usize::MAX,
        score: f64::NEG_INFINITY,
        gain: 0,
        ins: 0.0,
    };

    /// The reference scan's replacement rule: strictly better score, or
    /// equal score with strictly more gain, or equal both with strictly
    /// cheaper insertion. Earlier index wins all exact ties, which is what
    /// makes the chunked fold order-equivalent to one sequential pass.
    #[inline]
    fn beats(&self, other: &BestCand) -> bool {
        self.score > other.score
            || (self.score == other.score && self.gain > other.gain)
            || (self.score == other.score && self.gain == other.gain && self.ins < other.ins)
    }
}

/// Fixed chunk sizes for the parallel stages. Chunk boundaries depend only
/// on the live candidate count, which the instance alone determines —
/// never on the thread count — so the work decomposition (and hence every
/// float and tie decision) is identical at any `MDG_THREADS`.
const SCAN_CHUNK: usize = 2048;
const CACHE_CHUNK: usize = 4096;

/// Cheapest insertion of `p` into the closed tour `pts`, whose edge `i`
/// runs from `pts[i]` to the next vertex and has length `edge_len[i]`.
/// Mirrors [`insertion_cost`] bit for bit with one square root per
/// vertex: `|pts[i] p|` serves both edges at vertex `i` (`Point::dist` is
/// symmetric to the bit), and each delta keeps the `(|ap| + |pb|) - |ab|`
/// evaluation order. Strict `<` in position order keeps the earliest
/// edge on ties, as the reference does.
fn rescan(p: Point, pts: &[Point], edge_len: &[f64], nodes: &[usize]) -> InsEntry {
    let first = pts[0].dist(p);
    let mut from = first;
    let mut best = InsEntry {
        delta: f64::INFINITY,
        after: SINK,
    };
    for ((q, &ab), &node) in pts[1..].iter().zip(edge_len).zip(nodes) {
        let to = q.dist(p);
        let delta = (from + to) - ab;
        if delta < best.delta {
            best = InsEntry { delta, after: node };
        }
        from = to;
    }
    let last = pts.len() - 1;
    let delta = (from + first) - edge_len[last];
    if delta < best.delta {
        best = InsEntry {
            delta,
            after: nodes[last],
        };
    }
    best
}

/// Runs tour-aware greedy covering: the selected candidates in selection
/// order, or `None` if the instance is infeasible.
///
/// Incremental implementation of the same selection rule as the original
/// full-rescan version, which this module's tests keep as the executable
/// specification:
///
/// * **Gains** are maintained through an inverted index (target → covering
///   candidates): selecting a candidate decrements the gain of every
///   candidate sharing one of its newly covered targets, instead of
///   recounting every candidate's bitset each step.
/// * **Live candidates** — those whose gain is still above zero — sit in
///   one contiguous array of (candidate id, position, cache entry), stably
///   compacted after each gain update. A candidate at zero gain never
///   regains any, so the selection scan and the cache update only ever
///   visit candidates that can still be chosen, in candidate-id order.
/// * **Insertion costs** are cached per candidate as `(edge, delta)`,
///   keyed by the tour node the edge starts at. Inserting a point splits
///   exactly one tour edge, and every candidate probes the two new edges.
///   A candidate cached elsewhere is settled by the probes, since its
///   cached minimum over surviving edges stays valid. One cached on the
///   split edge is settled by the cheaper probe when that is strictly
///   below its old delta — the old minimum bounds every surviving edge,
///   so this is exactly what a rescan would return — and is rescanned in
///   full otherwise. Tour edge lengths are kept beside the tour, so a
///   rescan takes one square root per tour vertex and a probe three.
///
/// Every cache delta reproduces the reference's arithmetic bit-for-bit
/// (see `rescan`), so the selections come out identical. The only divergence window is a candidate whose
/// cheapest insertion delta is *exactly* tied (to the last bit) across
/// distinct tour edges, where the reference keeps the earliest tour
/// position and the cache may keep the edge it found first;
/// non-degenerate geometry never produces such ties.
pub(crate) fn tour_aware_cover(inst: &CoverageInstance, sink: Point) -> Option<Vec<usize>> {
    let n = inst.n_targets();
    let n_cands = inst.n_candidates();
    let mut sp = mdg_obs::span("tour_aware");
    sp.add_items(n_cands as u64);
    // Cache-maintenance counters, bumped from mdg-par worker slabs (each
    // slab accumulates locally and flushes once — pure observation, so the
    // bit-identical-plan invariant is untouched).
    let ctr_rescans = mdg_obs::counter("tour_aware/cache_rescans");
    let ctr_probes = mdg_obs::counter("tour_aware/cache_probes");
    let mut covered = BitSet::new(n);
    let mut selected = Vec::new();
    let mut tour_pts: Vec<Point> = vec![sink];
    // Tour node ids parallel to `tour_pts`: `SINK`, then candidate ids in
    // tour order.
    let mut tour_nodes: Vec<usize> = vec![SINK];
    // `edge_len[i]` = |tour_pts[i] tour_pts[i + 1]|, closing at the sink.
    let mut edge_len: Vec<f64> = vec![0.0];
    let mut remaining = n;

    // Inverted index in CSR form: candidates covering each target.
    let mut inv_starts: Vec<u32> = vec![0; n + 1];
    for cand in &inst.candidates {
        for t in cand.covers.iter_ones() {
            inv_starts[t + 1] += 1;
        }
    }
    for t in 0..n {
        inv_starts[t + 1] += inv_starts[t];
    }
    let mut inv: Vec<u32> = vec![0; inv_starts[n] as usize];
    let mut cursor = inv_starts.clone();
    for (c, cand) in inst.candidates.iter().enumerate() {
        for t in cand.covers.iter_ones() {
            inv[cursor[t] as usize] = c as u32;
            cursor[t] += 1;
        }
    }

    let mut gain: Vec<usize> = inst.candidates.iter().map(|c| c.covers.count()).collect();
    // The cache entries are valid once the tour has ≥ 2 points.
    let mut live: Vec<LiveCand> = Vec::with_capacity(n_cands);
    live.extend(
        inst.candidates
            .iter()
            .enumerate()
            .filter(|&(c, _)| gain[c] > 0)
            .map(|(id, cand)| LiveCand {
                id,
                pos: cand.pos,
                ins: InsEntry {
                    delta: f64::INFINITY,
                    after: SINK,
                },
            }),
    );

    while remaining > 0 {
        let single = tour_pts.len() == 1;
        // Parallel selection scan: each fixed chunk computes its local
        // argmax with the sequential predicate, then the chunk winners
        // fold left-to-right with the same predicate (see [`BestCand`]).
        let best = mdg_par::par_reduce(
            live.len(),
            SCAN_CHUNK,
            |range| {
                let mut acc = BestCand::NONE;
                for slot in range {
                    let e = &live[slot];
                    let g = gain[e.id];
                    let ins = if single {
                        2.0 * sink.dist(e.pos)
                    } else {
                        e.ins.delta
                    };
                    let denom = EPSILON + ins;
                    let score = g as f64 / denom.max(f64::MIN_POSITIVE);
                    let contender = BestCand {
                        slot,
                        score,
                        gain: g,
                        ins,
                    };
                    if contender.beats(&acc) {
                        acc = contender;
                    }
                }
                acc
            },
            |a, b| if b.beats(&a) { b } else { a },
        )
        .unwrap_or(BestCand::NONE);
        if best.slot == usize::MAX {
            return None;
        }
        let LiveCand {
            id: w,
            pos: w_pt,
            ins: w_ins,
        } = live[best.slot];

        // Update gains through the inverted index before marking covered,
        // then drop every candidate left without gain (the winner among
        // them), keeping the survivors in candidate order.
        for t in inst.candidates[w].covers.iter_ones() {
            if !covered.get(t) {
                for &c2 in &inv[inv_starts[t] as usize..inv_starts[t + 1] as usize] {
                    gain[c2 as usize] -= 1;
                }
            }
        }
        live.retain(|e| gain[e.id] > 0);
        covered.union_with(&inst.candidates[w].covers);
        selected.push(w);
        remaining = n - covered.count();

        // Splice the winner into the tour after its cached edge start;
        // the split edge's length gives way to the two new ones.
        let after = if single { SINK } else { w_ins.after };
        let pos = tour_nodes
            .iter()
            .position(|&id| id == after)
            .expect("cached edge start is on the tour")
            + 1;
        tour_pts.insert(pos, w_pt);
        tour_nodes.insert(pos, w);
        let a_pt = tour_pts[pos - 1];
        let b_pt = tour_pts[(pos + 1) % tour_pts.len()];
        let aw = a_pt.dist(w_pt);
        let wb = w_pt.dist(b_pt);
        edge_len[pos - 1] = aw;
        edge_len.insert(pos, wb);

        if remaining == 0 {
            break;
        }
        if single {
            // 1 → 2 transition: both edges of the two-point tour have
            // bitwise-equal deltas, so the reference's strict `<` keeps
            // position 0 — the edge leaving the sink. Each cache entry is
            // a pure function of its own candidate, so the slabs run in
            // parallel.
            mdg_par::par_chunks_mut(&mut live, CACHE_CHUNK, |_, slab| {
                for e in slab {
                    e.ins = InsEntry {
                        delta: (sink.dist(e.pos) + e.pos.dist(w_pt)) - aw,
                        after: SINK,
                    };
                }
            });
        } else {
            // Edge (after, b) was split into (after, w) and (w, b); the
            // two probes cover the new edges, sharing |pw|. Cache
            // invariant: `ins.delta` is the true minimum over all tour
            // edges, so a candidate anchored elsewhere keeps a valid
            // value. One anchored on the split edge takes the cheaper
            // probe (the first new edge on an exact tie, as `rescan`
            // meets it first) when that is strictly below the old delta,
            // which bounds every surviving edge; otherwise it is
            // rescanned. Candidates update independently — parallel slabs.
            mdg_par::par_chunks_mut(&mut live, CACHE_CHUNK, |_, slab| {
                let mut rescans = 0u64;
                let mut probes = 0u64;
                for e in slab {
                    let p = e.pos;
                    let pw = p.dist(w_pt);
                    let d1 = (a_pt.dist(p) + pw) - aw;
                    let d2 = (pw + p.dist(b_pt)) - wb;
                    if e.ins.after == after {
                        let probe = if d2 < d1 {
                            InsEntry {
                                delta: d2,
                                after: w,
                            }
                        } else {
                            InsEntry { delta: d1, after }
                        };
                        if probe.delta < e.ins.delta {
                            probes += 1;
                            e.ins = probe;
                        } else {
                            rescans += 1;
                            e.ins = rescan(p, &tour_pts, &edge_len, &tour_nodes);
                        }
                    } else {
                        probes += 1;
                        if d1 < e.ins.delta {
                            e.ins = InsEntry { delta: d1, after };
                        }
                        if d2 < e.ins.delta {
                            e.ins = InsEntry {
                                delta: d2,
                                after: w,
                            };
                        }
                    }
                }
                ctr_rescans.add(rescans);
                ctr_probes.add(probes);
            });
        }
    }
    Some(selected)
}

/// The original full-rescan tour-aware covering: every step recounts every
/// candidate's gain and rescans the whole tour for its cheapest insertion
/// (`O(steps · candidates · (targets/64 + tour))`). Kept as the executable
/// specification for [`tour_aware_cover`] and the equivalence suite.
#[cfg(test)]
fn tour_aware_cover_reference(inst: &CoverageInstance, sink: Point) -> Option<Vec<usize>> {
    let n = inst.n_targets();
    let mut covered = BitSet::new(n);
    let mut selected = Vec::new();
    let mut tour_pts: Vec<Point> = vec![sink];
    let mut remaining = n;

    while remaining > 0 {
        let mut best_cand = usize::MAX;
        let mut best_score = f64::NEG_INFINITY;
        let mut best_gain = 0usize;
        let mut best_ins = (0usize, 0.0f64);
        for (c, cand) in inst.candidates.iter().enumerate() {
            let gain = cand.covers.count_and_not(&covered);
            if gain == 0 {
                continue;
            }
            let (pos, ins) = insertion_cost(&tour_pts, cand.pos);
            let denom = EPSILON + ins;
            let score = gain as f64 / denom.max(f64::MIN_POSITIVE);
            let better = score > best_score
                || (score == best_score && gain > best_gain)
                || (score == best_score && gain == best_gain && ins < best_ins.1);
            if better {
                best_score = score;
                best_cand = c;
                best_gain = gain;
                best_ins = (pos, ins);
            }
        }
        if best_cand == usize::MAX {
            return None;
        }
        covered.union_with(&inst.candidates[best_cand].covers);
        selected.push(best_cand);
        tour_pts.insert(best_ins.0, inst.candidates[best_cand].pos);
        remaining = n - covered.count();
    }
    Some(selected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdg_geom::closed_tour_length;

    fn line(xs: &[f64]) -> Vec<Point> {
        xs.iter().map(|&x| Point::new(x, 0.0)).collect()
    }

    #[test]
    fn produces_a_cover() {
        let sensors = line(&[0.0, 10.0, 20.0, 60.0, 70.0]);
        let inst = CoverageInstance::sensor_sites(&sensors, 12.0);
        let selected = tour_aware_cover(&inst, Point::new(35.0, 0.0)).unwrap();
        assert!(inst.is_cover(&selected));
    }

    #[test]
    fn insertion_cost_basics() {
        let sink = Point::ORIGIN;
        // Single-point tour: out and back.
        let (_, c) = insertion_cost(&[sink], Point::new(3.0, 4.0));
        assert!((c - 10.0).abs() < 1e-12);
        // Inserting a collinear midpoint costs nothing.
        let tour = vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)];
        let (_, c2) = insertion_cost(&tour, Point::new(5.0, 0.0));
        assert!(c2.abs() < 1e-9);
    }

    #[test]
    fn tour_awareness_prefers_on_route_candidates() {
        // Two gain-equivalent candidates: one on the way, one far off.
        // Sensors: a pair near (50, 0) coverable by candidate at (50, 0)
        // [on the sink—(100,0) axis] or by candidate at (50, 40) [off-axis,
        // also within range of both]. Plus an anchor sensor at (100, 0).
        let sensors = vec![
            Point::new(45.0, 0.0),
            Point::new(55.0, 0.0),
            Point::new(50.0, 35.0), // near the off-axis candidate
            Point::new(100.0, 0.0),
        ];
        let inst = CoverageInstance::sensor_sites(&sensors, 40.0);
        let sink = Point::ORIGIN;
        let aware = tour_aware_cover(&inst, sink).unwrap();
        // The blind side: greedy covering with ties broken toward the sink,
        // as the planner's `Greedy` strategy runs it.
        let blind =
            mdg_cover::greedy_cover(&inst, |c| inst.candidates[c].pos.dist_sq(sink)).unwrap();
        // Both must cover; the aware tour must be no longer than the blind
        // one on this construction. Each side is toured by cheapest
        // insertion in selection order, as the tour-aware rule builds its
        // tour.
        assert!(inst.is_cover(&aware));
        assert!(inst.is_cover(&blind));
        let tour_len = |selected: &[usize]| {
            let mut tour = vec![sink];
            for &c in selected {
                let p = inst.candidates[c].pos;
                let (at, _) = insertion_cost(&tour, p);
                tour.insert(at, p);
            }
            closed_tour_length(&tour)
        };
        assert!(tour_len(&aware) <= tour_len(&blind) + 1e-9);
    }

    #[test]
    fn incremental_matches_reference_on_random_fields() {
        use rand::{Rng, SeedableRng};
        for seed in 0..20u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.gen_range(20..120);
            let side = 150.0;
            let sensors: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
                .collect();
            let inst = CoverageInstance::sensor_sites(&sensors, rng.gen_range(15.0..40.0));
            let sink = Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
            let fast = tour_aware_cover(&inst, sink).unwrap();
            let slow = tour_aware_cover_reference(&inst, sink).unwrap();
            assert_eq!(fast, slow, "seed {seed}");
        }
    }

    #[test]
    fn infeasible_returns_none() {
        let sensors = vec![Point::new(33.0, 33.0)];
        let inst =
            CoverageInstance::grid_candidates(&sensors, &mdg_geom::Aabb::square(100.0), 50.0, 5.0);
        assert!(tour_aware_cover(&inst, Point::ORIGIN).is_none());
    }

    #[test]
    fn empty_instance_yields_empty_cover() {
        let inst = CoverageInstance::sensor_sites(&[], 10.0);
        assert!(tour_aware_cover(&inst, Point::ORIGIN).unwrap().is_empty());
    }
}
