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

use mdg_cover::CoverageInstance;
use mdg_geom::Point;

/// The rule's ε: meters added to the insertion cost in the denominator so
/// that zero-cost insertions do not dominate on gain-1 candidates.
const EPSILON: f64 = 1.0;

/// Relative rounding margin of the two cell bounds
/// ([`probes_cannot_improve`], [`holds_no_anchored`]). Each bound and the
/// kernel arithmetic it stands for round by a few ulps (about 1e-16) of
/// the lengths involved; the margin is 1e-9 of them.
const MARGIN: f64 = 1e-9;

/// Live candidates per grid cell that the cell grid is sized for.
const CELL_TARGET: usize = 16;

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
/// insertion cache entry side by side. The live array is cell-major: each
/// grid cell owns one run of it, in candidate-id order.
#[derive(Debug, Clone, Copy)]
struct LiveCand {
    id: usize,
    pos: Point,
    ins: InsEntry,
}

/// A live entry's standing under the selection rule.
#[derive(Debug, Clone, Copy)]
struct BestCand {
    /// Index into the live array.
    slot: usize,
    id: usize,
    score: f64,
    gain: usize,
    ins: f64,
}

impl BestCand {
    const NONE: BestCand = BestCand {
        slot: usize::MAX,
        id: usize::MAX,
        score: f64::NEG_INFINITY,
        gain: 0,
        ins: 0.0,
    };

    /// The selection order: higher score, then more gain, then cheaper
    /// insertion, then lower candidate id. The last key is the reference
    /// scan's earliest-index rule (it visits candidates in id order and
    /// replaces its best only on a strictly better entry), so the order is
    /// total and the best of the cell bests is the reference's winner.
    #[inline]
    fn beats(&self, other: &BestCand) -> bool {
        if self.score != other.score {
            return self.score > other.score;
        }
        if self.gain != other.gain {
            return self.gain > other.gain;
        }
        if self.ins != other.ins {
            return self.ins < other.ins;
        }
        self.id < other.id
    }
}

/// One cell of the grid over the live candidates.
#[derive(Debug, Clone, Copy)]
struct Cell {
    /// The members are `live[start..start + len]`.
    start: usize,
    len: usize,
    /// The members' exact bounding box.
    lo: Point,
    hi: Point,
    /// At least every member's cached insertion delta.
    max_delta: f64,
    /// The members' best entry.
    best: BestCand,
    /// A member lost gain in the current selection.
    marked: bool,
}

impl Cell {
    fn members<'a>(&self, live: &'a mut [LiveCand]) -> &'a mut [LiveCand] {
        &mut live[self.start..self.start + self.len]
    }

    /// Drops the members left without gain, keeping id order.
    fn compact(&mut self, live: &mut [LiveCand], gain: &[usize]) {
        let members = self.members(live);
        let mut kept = 0;
        for i in 0..members.len() {
            if gain[members[i].id] > 0 {
                members[kept] = members[i];
                kept += 1;
            }
        }
        self.len = kept;
    }

    /// Scores every member and refits the cell to them: `ins` brings a
    /// member's cache entry up to date and returns its insertion cost
    /// under the selection rule. A NaN delta (only non-finite geometry
    /// makes one) lifts the delta bound to infinity, so no bound ever
    /// skips the cell.
    fn visit(
        &mut self,
        live: &mut [LiveCand],
        gain: &[usize],
        mut ins: impl FnMut(&mut LiveCand) -> f64,
    ) {
        let mut best = BestCand::NONE;
        let mut max_delta = f64::NEG_INFINITY;
        let (mut lo, mut hi) = (
            Point::new(f64::MAX, f64::MAX),
            Point::new(f64::MIN, f64::MIN),
        );
        for (slot, e) in (self.start..).zip(self.members(live)) {
            let g = gain[e.id];
            let ins = ins(e);
            let denom = EPSILON + ins;
            let contender = BestCand {
                slot,
                id: e.id,
                score: g as f64 / denom.max(f64::MIN_POSITIVE),
                gain: g,
                ins,
            };
            if contender.beats(&best) {
                best = contender;
            }
            let d = e.ins.delta;
            max_delta = max_delta.max(if d.is_nan() { f64::INFINITY } else { d });
            lo = Point::new(lo.x.min(e.pos.x), lo.y.min(e.pos.y));
            hi = Point::new(hi.x.max(e.pos.x), hi.y.max(e.pos.y));
        }
        (self.best, self.max_delta, self.lo, self.hi) = (best, max_delta, lo, hi);
    }
}

/// Squared distance from `p` to the box `[lo, hi]`.
fn box_dist_sq(p: Point, lo: Point, hi: Point) -> f64 {
    let dx = (lo.x - p.x).max(p.x - hi.x).max(0.0);
    let dy = (lo.y - p.y).max(p.y - hi.y).max(0.0);
    dx * dx + dy * dy
}

/// True when no entry at a point of the box `[lo, hi]` whose cached delta
/// is at most `max_delta` can take a probe of the new edges (a, w) and
/// (w, b), where `reach` = max(|aw|, |wb|).
///
/// The triangle inequality gives |ap| ≥ |pw| − |aw|, so the first probe
/// (|ap| + |pw|) − |aw| is at least 2(|pw| − |aw|), and the second is at
/// least 2(|pw| − |wb|) likewise: neither undercuts a cached delta δ once
/// 2(|pw| − reach) ≥ δ. With d the box's distance from w, the test is
/// (2 − m)·d ≥ δ + m·|δ| + (2 + m)·reach, m = [`MARGIN`], taken in squared
/// distances. It leaves a slack of m·(|pw| + reach + |δ|) for every member
/// p, far above the rounding of the probes and of the test.
fn probes_cannot_improve(w: Point, reach: f64, lo: Point, hi: Point, max_delta: f64) -> bool {
    let r = (max_delta + MARGIN * max_delta.abs() + (2.0 + MARGIN) * reach) / (2.0 - MARGIN);
    r <= 0.0 || box_dist_sq(w, lo, hi) >= r * r
}

/// True when no entry at a point of the box `[lo, hi]` whose cached delta
/// is at most `max_delta` can be anchored on the split edge (a, b), of
/// computed length `ab`.
///
/// An entry anchored there caches δ = (|ap| + |pb|) − |ab|, and
/// |ap| + |pb| ≥ 2|pm| for the edge's midpoint m (the triangle inequality
/// on (p − a) + (p − b) = 2(p − m)). So the box holds none once twice its
/// distance from m exceeds |ab| + max_delta, with the margin taken on
/// |ab| + |max_delta|. The doubled offsets 2(p − m) = 2(p − a) − (b − a)
/// are formed from differences, so they round with the edge's scale, not
/// with the coordinates'.
fn holds_no_anchored(a: Point, b: Point, ab: f64, lo: Point, hi: Point, max_delta: f64) -> bool {
    let r = ab + max_delta + MARGIN * (ab + max_delta.abs());
    // Distance of 0 from the interval [2(lo − a) − h, 2(hi − a) − h].
    let gap = |lo: f64, hi: f64, a: f64, h: f64| {
        let (near, far) = (2.0 * (lo - a) - h, 2.0 * (hi - a) - h);
        near.max(-far).max(0.0)
    };
    let dx = gap(lo.x, hi.x, a.x, b.x - a.x);
    let dy = gap(lo.y, hi.y, a.y, b.y - a.y);
    r < 0.0 || dx * dx + dy * dy > r * r
}

/// The edge of the closed tour `pts` with the cheapest insertion of `p`,
/// and that delta; edge `i` runs from `pts[i]` to the next vertex and has
/// length `edge_len[i]`. Mirrors [`insertion_cost`] bit for bit with one
/// square root per vertex: `|pts[i] p|` serves both edges at vertex `i`
/// (`Point::dist` is symmetric to the bit), and each delta keeps the
/// `(|ap| + |pb|) - |ab|` evaluation order. Strict `<` in position order
/// keeps the earliest edge on ties, as the reference does.
fn cheapest_edge(p: Point, pts: &[Point], edge_len: &[f64]) -> (usize, f64) {
    let first = pts[0].dist(p);
    let mut from = first;
    let (mut best, mut best_delta) = (0, f64::INFINITY);
    for (i, (q, &ab)) in pts[1..].iter().zip(edge_len).enumerate() {
        let to = q.dist(p);
        let delta = (from + to) - ab;
        if delta < best_delta {
            (best, best_delta) = (i, delta);
        }
        from = to;
    }
    let last = pts.len() - 1;
    let delta = (from + first) - edge_len[last];
    if delta < best_delta {
        (best, best_delta) = (last, delta);
    }
    (best, best_delta)
}

/// Sorts the candidates with gain into the cells of a grid over their
/// bounding box, sized from the instance alone for about [`CELL_TARGET`]
/// per cell. Returns the cell-major live array, the occupied cells (not
/// yet visited) and each candidate's cell (`u32::MAX` without gain).
fn build_cells(inst: &CoverageInstance, gain: &[usize]) -> (Vec<LiveCand>, Vec<Cell>, Vec<u32>) {
    let ids = || (0..inst.n_candidates()).filter(|&c| gain[c] > 0);
    let (mut lo, mut hi) = (
        Point::new(f64::MAX, f64::MAX),
        Point::new(f64::MIN, f64::MIN),
    );
    let mut n_live = 0usize;
    for c in ids() {
        let p = inst.pos(c);
        lo = Point::new(lo.x.min(p.x), lo.y.min(p.y));
        hi = Point::new(hi.x.max(p.x), hi.y.max(p.y));
        n_live += 1;
    }
    // About n_live / CELL_TARGET square cells; a degenerate box is cut
    // into strips, and each axis has at most that many cells.
    let k = n_live.div_ceil(CELL_TARGET).max(1);
    let (w, h) = (hi.x - lo.x, hi.y - lo.y);
    let side = if w * h > 0.0 {
        (w * h / k as f64).sqrt()
    } else {
        w.max(h) / k as f64
    };
    let dim = |extent: f64| {
        if side > 0.0 {
            ((extent / side).ceil() as usize).clamp(1, k)
        } else {
            1
        }
    };
    let (cols, rows) = (dim(w), dim(h));
    let scale = |extent: f64, cells: usize| {
        if extent > 0.0 {
            cells as f64 / extent
        } else {
            0.0
        }
    };
    let (fx, fy) = (scale(w, cols), scale(h, rows));

    // Counting sort by cell; ids ascend within each cell.
    let mut cell_of = vec![u32::MAX; inst.n_candidates()];
    let mut counts = vec![0usize; cols * rows];
    for c in ids() {
        let p = inst.pos(c);
        let cx = (((p.x - lo.x) * fx) as usize).min(cols - 1);
        let cy = (((p.y - lo.y) * fy) as usize).min(rows - 1);
        cell_of[c] = (cy * cols + cx) as u32;
        counts[cy * cols + cx] += 1;
    }
    let mut cells = Vec::with_capacity(counts.iter().filter(|&&count| count > 0).count());
    let mut start = 0;
    for count in &mut counts {
        if *count > 0 {
            cells.push(Cell {
                start,
                len: 0,
                lo,
                hi,
                max_delta: f64::INFINITY,
                best: BestCand::NONE,
                marked: false,
            });
            start += *count;
            // From here on the grid cell's index into `cells`.
            *count = cells.len() - 1;
        }
    }
    let unset = LiveCand {
        id: usize::MAX,
        pos: Point::ORIGIN,
        ins: InsEntry {
            delta: f64::INFINITY,
            after: SINK,
        },
    };
    let mut live = vec![unset; n_live];
    for c in ids() {
        let ci = counts[cell_of[c] as usize];
        cell_of[c] = ci as u32;
        let cell = &mut cells[ci];
        live[cell.start + cell.len] = LiveCand {
            id: c,
            pos: inst.pos(c),
            ..unset
        };
        cell.len += 1;
    }
    (live, cells, cell_of)
}

/// Runs tour-aware greedy covering: the selected candidates in selection
/// order, or `None` if the instance is infeasible.
///
/// Incremental implementation of the same selection rule as the original
/// full-rescan version, which this module's tests keep as the executable
/// specification:
///
/// * **Gains** are maintained through an inverted index (target → covering
///   candidates), built as the transpose of the instance's per-candidate
///   target lists: selecting a candidate decrements the gain of every
///   candidate sharing one of its newly covered targets.
/// * **Live candidates** — those whose gain is still above zero — sit
///   cell-major on a grid over the instance. Each cell keeps its members'
///   bounding box, an upper bound on their cached insertion deltas and its
///   best entry under the selection order, so a selection folds the cell
///   bests instead of scanning every candidate.
/// * **Insertion costs** are cached per candidate as `(edge, delta)`,
///   keyed by the tour node the edge starts at. Inserting a point splits
///   one tour edge into two new ones. An entry cached elsewhere keeps a
///   valid minimum over the surviving edges and takes a cheaper probe of
///   the new edges. One cached on the split edge is settled by the cheaper
///   probe when that is strictly below its old delta — the old minimum
///   bounds every surviving edge — and is rescanned in full otherwise.
/// * **Only cells a selection can change are visited.** A cell is
///   compacted and rescored when a member lost gain. Its cache entries are
///   updated, and it is rescored, unless two bounds show that no member
///   can take a probe and none is cached on the split edge
///   ([`probes_cannot_improve`], [`holds_no_anchored`]).
///
/// Every cache delta reproduces the reference's arithmetic bit for bit,
/// and each winner is spliced at the first edge with its cheapest delta,
/// where the reference inserts it, so the selections are identical.
pub(crate) fn tour_aware_cover(inst: &CoverageInstance, sink: Point) -> Option<Vec<usize>> {
    let n = inst.n_targets();
    let n_cands = inst.n_candidates();
    let mut sp = mdg_obs::span("tour_aware");
    sp.add_items(n_cands as u64);

    // The instance's per-candidate target lists are the forward index;
    // their transpose, in CSR form, is the inverted one. `inv_starts`
    // counts each target's candidates, sums them to list ends and is
    // counted back down to list starts by the fill; the order within a
    // list does not matter. The instance holds fewer than 2^32 pairs, so
    // every prefix sum fits in u32.
    let mut gain: Vec<usize> = (0..n_cands).map(|c| inst.covers(c).len()).collect();
    let mut inv_starts: Vec<u32> = vec![0; n + 1];
    for c in 0..n_cands {
        for &t in inst.covers(c) {
            inv_starts[t as usize] += 1;
        }
    }
    for t in 1..=n {
        inv_starts[t] += inv_starts[t - 1];
    }
    let mut inv: Vec<u32> = vec![0; inv_starts[n] as usize];
    for c in 0..n_cands {
        for &t in inst.covers(c) {
            inv_starts[t as usize] -= 1;
            inv[inv_starts[t as usize] as usize] = c as u32;
        }
    }

    let (mut live, mut cells, cell_of) = build_cells(inst, &gain);
    for cell in &mut cells {
        cell.visit(&mut live, &gain, |e| 2.0 * sink.dist(e.pos));
    }
    let mut covered = vec![false; n];
    let mut remaining = n;
    let mut selected = Vec::new();
    let mut tour_pts: Vec<Point> = vec![sink];
    // Tour node ids parallel to `tour_pts`: `SINK`, then candidate ids in
    // tour order.
    let mut tour_nodes: Vec<usize> = vec![SINK];
    // `edge_len[i]` = |tour_pts[i] tour_pts[i + 1]|, closing at the sink.
    let mut edge_len: Vec<f64> = vec![0.0];
    let (mut probes, mut rescans) = (0u64, 0u64);

    let feasible = loop {
        if remaining == 0 {
            break true;
        }
        let best = cells.iter().fold(BestCand::NONE, |acc, cell| {
            if cell.best.beats(&acc) {
                cell.best
            } else {
                acc
            }
        });
        if best.slot == usize::MAX {
            break false;
        }
        let (w, w_pt) = (best.id, live[best.slot].pos);
        for &t in inst.covers(w) {
            let t = t as usize;
            if !covered[t] {
                covered[t] = true;
                remaining -= 1;
                for &c2 in &inv[inv_starts[t] as usize..inv_starts[t + 1] as usize] {
                    gain[c2 as usize] -= 1;
                    cells[cell_of[c2 as usize] as usize].marked = true;
                }
            }
        }
        selected.push(w);

        // Splice the winner in at the first edge with its cheapest delta,
        // where the reference inserts it. Its cache entry holds the same
        // delta but may name a later edge that ties it exactly.
        let single = tour_pts.len() == 1;
        let pos = if single {
            1
        } else {
            cheapest_edge(w_pt, &tour_pts, &edge_len).0 + 1
        };
        let split_len = edge_len[pos - 1];
        tour_pts.insert(pos, w_pt);
        tour_nodes.insert(pos, w);
        let after = tour_nodes[pos - 1];
        let a_pt = tour_pts[pos - 1];
        let b_pt = tour_pts[(pos + 1) % tour_pts.len()];
        let aw = a_pt.dist(w_pt);
        let wb = w_pt.dist(b_pt);
        edge_len[pos - 1] = aw;
        edge_len.insert(pos, wb);
        if remaining == 0 {
            break true;
        }

        let reach = aw.max(wb);
        for cell in &mut cells {
            let marked = std::mem::take(&mut cell.marked);
            if marked {
                cell.compact(&mut live, &gain);
            }
            if cell.len == 0 {
                cell.best = BestCand::NONE;
            } else if single {
                // 1 → 2 transition: both edges of the two-point tour have
                // bitwise-equal deltas, so the reference's strict `<`
                // keeps position 0, the edge leaving the sink.
                cell.visit(&mut live, &gain, |e| {
                    let delta = (sink.dist(e.pos) + e.pos.dist(w_pt)) - aw;
                    e.ins = InsEntry { delta, after: SINK };
                    delta
                });
            } else if !(probes_cannot_improve(w_pt, reach, cell.lo, cell.hi, cell.max_delta)
                && holds_no_anchored(a_pt, b_pt, split_len, cell.lo, cell.hi, cell.max_delta))
            {
                // The two probes cover the new edges (after, w) and
                // (w, b), sharing |pw|. The cheaper one wins for an entry
                // cached on the split edge (the first new edge on an exact
                // tie, as `cheapest_edge` meets it first) when strictly
                // below its old delta; otherwise that entry is rescanned.
                cell.visit(&mut live, &gain, |e| {
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
                            let (i, delta) = cheapest_edge(p, &tour_pts, &edge_len);
                            e.ins = InsEntry {
                                delta,
                                after: tour_nodes[i],
                            };
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
                    e.ins.delta
                });
            } else if marked {
                cell.visit(&mut live, &gain, |e| e.ins.delta);
            }
        }
    };
    mdg_obs::counter("tour_aware/cache_probes").add(probes);
    mdg_obs::counter("tour_aware/cache_rescans").add(rescans);
    feasible.then_some(selected)
}

/// The original full-rescan tour-aware covering: every step recounts every
/// candidate's gain and rescans the whole tour for its cheapest insertion
/// (`O(steps · (pairs + candidates · tour))`). Kept as the executable
/// specification for [`tour_aware_cover`] and the equivalence suite.
#[cfg(test)]
fn tour_aware_cover_reference(inst: &CoverageInstance, sink: Point) -> Option<Vec<usize>> {
    let n = inst.n_targets();
    let mut covered = vec![false; n];
    let mut selected = Vec::new();
    let mut tour_pts: Vec<Point> = vec![sink];
    let mut remaining = n;

    while remaining > 0 {
        let mut best_cand = usize::MAX;
        let mut best_score = f64::NEG_INFINITY;
        let mut best_gain = 0usize;
        let mut best_ins = (0usize, 0.0f64);
        for c in 0..inst.n_candidates() {
            let gain = inst
                .covers(c)
                .iter()
                .filter(|&&t| !covered[t as usize])
                .count();
            if gain == 0 {
                continue;
            }
            let (pos, ins) = insertion_cost(&tour_pts, inst.pos(c));
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
        for &t in inst.covers(best_cand) {
            covered[t as usize] = true;
        }
        selected.push(best_cand);
        tour_pts.insert(best_ins.0, inst.pos(best_cand));
        remaining -= best_gain;
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
        let blind = mdg_cover::greedy_cover(&inst, |c| inst.pos(c).dist_sq(sink)).unwrap();
        // Both must cover; the aware tour must be no longer than the blind
        // one on this construction. Each side is toured by cheapest
        // insertion in selection order, as the tour-aware rule builds its
        // tour.
        assert!(inst.is_cover(&aware));
        assert!(inst.is_cover(&blind));
        let tour_len = |selected: &[usize]| {
            let mut tour = vec![sink];
            for &c in selected {
                let p = inst.pos(c);
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

    /// Asserts the incremental cover selects exactly what the full-rescan
    /// reference selects on `inst` from `sink`.
    fn assert_matches_reference(inst: &CoverageInstance, sink: Point, label: &str) {
        let fast = tour_aware_cover(inst, sink);
        let slow = tour_aware_cover_reference(inst, sink);
        assert_eq!(fast, slow, "{label}");
    }

    #[test]
    fn incremental_matches_reference_on_integer_lattices() {
        // Exact ties everywhere: equal distances, equal gains and equal
        // scores between mirror-image candidates.
        for (k, spacing, range) in [
            (9, 1.0, 1.0),
            (12, 1.0, 2.0),
            (10, 3.0, 5.0),
            (15, 2.0, 4.0),
        ] {
            let sensors: Vec<Point> = (0..k * k)
                .map(|i| Point::new((i % k) as f64 * spacing, (i / k) as f64 * spacing))
                .collect();
            let inst = CoverageInstance::sensor_sites(&sensors, range);
            let mid = (k / 2) as f64 * spacing;
            for sink in [
                Point::ORIGIN,
                Point::new(mid, mid),
                Point::new(-spacing, mid),
            ] {
                assert_matches_reference(&inst, sink, &format!("lattice {k}x{k} sink {sink:?}"));
            }
        }
    }

    #[test]
    fn incremental_matches_reference_with_co_located_duplicates() {
        use rand::{Rng, SeedableRng};
        for seed in 0..8u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut sensors = Vec::new();
            for _ in 0..rng.gen_range(5..20) {
                let p = Point::new(rng.gen_range(0.0..120.0), rng.gen_range(0.0..120.0));
                for _ in 0..rng.gen_range(1..6) {
                    sensors.push(p);
                }
            }
            let inst = CoverageInstance::sensor_sites(&sensors, rng.gen_range(10.0..35.0));
            assert_matches_reference(&inst, Point::new(60.0, 60.0), &format!("stacks {seed}"));
        }
    }

    #[test]
    fn incremental_matches_reference_on_parallel_lines() {
        use rand::{Rng, SeedableRng};
        for lines in 1..=3usize {
            for seed in 0..4u64 {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let sensors: Vec<Point> = (0..lines * 40)
                    .map(|i| {
                        let y = (i % lines) as f64 * 12.0;
                        let x = if seed % 2 == 0 {
                            (i / lines) as f64 * 5.0
                        } else {
                            rng.gen_range(0.0..200.0)
                        };
                        Point::new(x, y)
                    })
                    .collect();
                let inst = CoverageInstance::sensor_sites(&sensors, 10.0 + seed as f64 * 5.0);
                for sink in [
                    Point::ORIGIN,
                    Point::new(100.0, 6.0),
                    Point::new(100.0, -50.0),
                ] {
                    assert_matches_reference(&inst, sink, &format!("{lines} lines seed {seed}"));
                }
            }
        }
    }

    #[test]
    fn incremental_matches_reference_on_a_blob_beside_a_sparse_field() {
        use rand::{Rng, SeedableRng};
        for seed in 0..6u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut sensors: Vec<Point> = (0..60)
                .map(|_| Point::new(rng.gen_range(0.0..400.0), rng.gen_range(0.0..400.0)))
                .collect();
            let c = Point::new(rng.gen_range(50.0..350.0), rng.gen_range(50.0..350.0));
            sensors.extend((0..120).map(|_| {
                Point::new(
                    c.x + rng.gen_range(-4.0..4.0),
                    c.y + rng.gen_range(-4.0..4.0),
                )
            }));
            let inst = CoverageInstance::sensor_sites(&sensors, rng.gen_range(20.0..60.0));
            assert_matches_reference(&inst, Point::new(200.0, 200.0), &format!("blob {seed}"));
        }
    }

    #[test]
    fn incremental_matches_reference_on_grid_candidates() {
        use rand::{Rng, SeedableRng};
        for seed in 0..8u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let side = 200.0;
            let sensors: Vec<Point> = (0..rng.gen_range(30..150))
                .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
                .collect();
            let field = mdg_geom::Aabb::square(side);
            let spacing = [5.0, 10.0, 20.0][seed as usize % 3];
            let inst = CoverageInstance::grid_candidates(&sensors, &field, spacing, 25.0);
            assert!(inst.is_feasible(), "seed {seed}");
            for sink in [Point::ORIGIN, Point::new(100.0, 100.0)] {
                assert_matches_reference(&inst, sink, &format!("grid {spacing} m seed {seed}"));
            }
        }
    }

    /// The next float above `x` (`f64::next_up`, newer than the
    /// workspace's minimum Rust version).
    fn next_up(x: f64) -> f64 {
        if x == 0.0 {
            f64::from_bits(1)
        } else if x > 0.0 {
            f64::from_bits(x.to_bits() + 1)
        } else {
            f64::from_bits(x.to_bits() - 1)
        }
    }

    /// Draws for each skip-bound test. Without [`MARGIN`] both bounds
    /// wrongly skip a large share of them.
    const BOUND_DRAWS: usize = 200_000;

    /// A random direction and its left normal.
    fn frame(rng: &mut impl rand::Rng) -> (Point, Point) {
        let angle = rng.gen_range(0.0..std::f64::consts::TAU);
        let (sin, cos) = angle.sin_cos();
        (Point::new(cos, sin), Point::new(-sin, cos))
    }

    /// A centre far from the origin and a length scale much smaller than
    /// its coordinates.
    fn place(rng: &mut impl rand::Rng) -> (Point, f64) {
        let centre = Point::new(rng.gen_range(-1e6..1e6), rng.gen_range(-1e6..1e6));
        (centre, 10f64.powf(rng.gen_range(-2.0..3.0)))
    }

    #[test]
    fn probe_bound_never_skips_an_entry_a_probe_would_change() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xB0_0D);
        for draw in 0..BOUND_DRAWS {
            // w, then one new edge's far end `near` and p beyond it on a
            // line through w, up to a sliver off it: the probe over that
            // edge meets its triangle bound 2(|pw| − |w near|). The other
            // end `other` is no farther from w.
            let (w, scale) = place(&mut rng);
            let (u, v) = frame(&mut rng);
            let t = scale * rng.gen_range(0.1..1.0);
            let s = t + scale * rng.gen_range(0.0..2.0);
            let near = w + u * t + v * (scale * 1e-12 * rng.gen_range(-1.0..1.0));
            let p = w + u * s + v * (scale * 1e-12 * rng.gen_range(-1.0..1.0));
            let other = w + frame(&mut rng).0 * (t * rng.gen_range(0.0..1.0));
            let (a, b) = if rng.gen() {
                (near, other)
            } else {
                (other, near)
            };
            // The kernel's probes, and a cached delta one ulp above the
            // cheaper: the update would take the probe.
            let (aw, wb) = (a.dist(w), w.dist(b));
            let pw = p.dist(w);
            let d1 = (a.dist(p) + pw) - aw;
            let d2 = (pw + p.dist(b)) - wb;
            let cached = next_up(d1.min(d2));
            assert!(
                !probes_cannot_improve(w, aw.max(wb), p, p, cached),
                "draw {draw}: skipped p = {p:?} with a probe below its delta {cached}"
            );
        }
        // The bound does skip a box well past the new edges.
        let (lo, hi) = (Point::new(100.0, 100.0), Point::new(101.0, 101.0));
        assert!(probes_cannot_improve(Point::ORIGIN, 1.0, lo, hi, 10.0));
        assert!(!probes_cannot_improve(Point::ORIGIN, 1.0, lo, hi, 400.0));
    }

    #[test]
    fn anchor_bound_never_excludes_an_entry_on_the_split_edge() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xED_6E);
        for draw in 0..BOUND_DRAWS {
            // p on the line through a and b, up to a sliver off it, often
            // past an end where |ap| + |pb| = 2|pm| for the midpoint m.
            let (a, scale) = place(&mut rng);
            let (u, v) = frame(&mut rng);
            let b = a + u * (scale * rng.gen_range(0.0..1.0));
            let s = match rng.gen_range(0..4) {
                0 => 0.0,
                1 => 1.0,
                _ => rng.gen_range(-1.0..2.0),
            };
            let p = a + (b - a) * s + v * (scale * 1e-12 * rng.gen_range(-1.0..1.0));
            // The kernel's delta for p cached on (a, b); it bounds the cell.
            let ab = a.dist(b);
            let delta = (a.dist(p) + p.dist(b)) - ab;
            assert!(
                !holds_no_anchored(a, b, ab, p, p, delta),
                "draw {draw}: excluded p = {p:?} cached on ({a:?}, {b:?}) at {delta}"
            );
        }
        // The bound does exclude a box well off the edge.
        let (a, b) = (Point::ORIGIN, Point::new(1.0, 0.0));
        let (lo, hi) = (Point::new(0.0, 5.0), Point::new(1.0, 6.0));
        assert!(holds_no_anchored(a, b, 1.0, lo, hi, 1.0));
        assert!(!holds_no_anchored(a, b, 1.0, lo, hi, 20.0));
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
