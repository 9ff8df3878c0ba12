//! Brute-force projection search (paper Fig. 2).
//!
//! Enumerates every k-dimensional cube — all `C(d, k) · φ^k` combinations of
//! k distinct dimensions with one grid range each — and keeps the m with the
//! most negative sparsity coefficients. The paper builds candidates
//! bottom-up (`R_i = R_{i−1} ⊕ Q_1`); both walkers here visit the same tree
//! depth-first, dimensions ascending and ranges ascending within a
//! dimension, so memory stays `O(k)` instead of materializing `R_i`.
//!
//! - [`brute_force_search`] asks any [`CubeCounter`] for every cube from
//!   scratch. It is the oracle the production walker is tested against.
//! - [`brute_force_search_incremental_parallel`] is the production walker
//!   behind the detector: one pooled task per first dimension over the
//!   posting bitmaps, byte-identical at any thread count.
//!
//! # Work model of the production walker
//!
//! With `W = ⌈N/64⌉` words per bitmap, each task owns one scratch row of `W`
//! words per depth, allocated once. An inner node at depth `j < k−1` costs
//! one fused pass over `W` words: `partial[j] & posting` is written into
//! `partial[j+1]` and popcounted in the same branch-free loop. A node at
//! depth `k−1` holds `(d−j−1)·φ` leaves (`j` its last dimension) and counts
//! them all before emitting any, by whichever of two kernels is cheaper:
//!
//! - **per leaf**: AND+popcount of the partial with each leaf's posting,
//!   `φ·W` words per later dimension;
//! - **histogram**: walk the partial's member rows once through a row-major
//!   table of one-byte grid cells and count every later dimension's ranges,
//!   `|partial|` cell reads per later dimension. The table is built from
//!   the postings by the first node that needs it and shared by all tasks.
//!
//! The node takes the histogram when `|partial| · ROW_COST_IN_WORDS < φ·W`
//! and `φ ≤ 255` (so a cell fits a byte). The constant is the measured cost
//! of one row visit per later dimension in AND+popcount words (DESIGN.md §6
//! gives the measurement). Either way the leaves are then emitted in DFS
//! order, so best-set ties, budget cutoffs and the `candidates`/`scored`
//! totals match the oracle exactly. A leaf builds its cube only when the
//! best set keeps it, in the buffer of the leaf it evicts.
//!
//! # Sound accelerations
//!
//! Results are identical to the naive sweep:
//!
//! - **Empty-subtree pruning**: occupancy is monotone (adding a constraint
//!   can only shrink a cube), so once a partial cube is empty every
//!   completion is empty too. Empty cubes can never enter a best-set
//!   restricted to non-empty projections (the paper's own quality metric is
//!   over "the best 20 *non-empty* projections"), so the subtree is skipped
//!   and its size added to the examined count.
//! - **Candidate budget**: an optional cap on examined candidates, which is
//!   how the harness reproduces the paper's observation that brute force
//!   "was unable to terminate in a reasonable amount of time" on the
//!   160-dimensional musk data.

use crate::fitness::SparsityFitness;
use crate::projection::Projection;
use crate::report::ScoredProjection;
use hdoutlier_index::{BitmapCounter, Cube, CubeCounter, GridIndex};
use hdoutlier_obs as obs;
use hdoutlier_stats::rank::BoundedBest;
use hdoutlier_stats::SparsityParams;
use std::sync::OnceLock;

/// Profiler frame target: these spans exist for `--profile-out` stack
/// attribution (one relaxed atomic load when profiling is off), not for
/// the event log — the per-node rate would swamp any sink.
const TARGET: &str = "hdoutlier.core";

/// Configuration for [`brute_force_search`].
#[derive(Debug, Clone)]
pub struct BruteForceConfig {
    /// Number of best projections to retain (`m` in Fig. 2).
    pub m: usize,
    /// Only retain projections covering at least one record. The paper
    /// reports quality over non-empty projections; empty ones identify no
    /// outlier. Disabling this also disables empty-subtree pruning.
    pub require_nonempty: bool,
    /// Stop after examining (or provably skipping) this many complete
    /// cubes; the outcome is then marked incomplete.
    pub max_candidates: Option<u64>,
}

impl Default for BruteForceConfig {
    fn default() -> Self {
        Self {
            m: 20,
            require_nonempty: true,
            max_candidates: None,
        }
    }
}

/// Result of a brute-force run.
#[derive(Debug, Clone)]
pub struct BruteForceOutcome {
    /// The best projections, most negative sparsity first.
    pub best: Vec<ScoredProjection>,
    /// Complete cubes accounted for (scored directly or covered by an
    /// empty-subtree skip).
    pub candidates: u64,
    /// Complete cubes whose sparsity was actually computed.
    pub scored: u64,
    /// Empty partial cubes whose completions were skipped.
    pub pruned_subtrees: u64,
    /// Last-level nodes whose leaves were counted by the histogram kernel
    /// (always 0 for [`brute_force_search`]).
    pub histogram_nodes: u64,
    /// Whether the whole space was covered (false if the budget tripped).
    pub completed: bool,
}

/// Runs the exhaustive search of Fig. 2.
pub fn brute_force_search<C: CubeCounter>(
    fitness: &SparsityFitness<'_, C>,
    config: &BruteForceConfig,
) -> BruteForceOutcome {
    let d = fitness.counter().n_dims();
    brute_force_over_first_dims(fitness, config, &(0..d).collect::<Vec<_>>())
}

/// Splits the candidate budget evenly across the per-dimension tasks, so an
/// interrupted run is a function of the task decomposition alone — never of
/// the worker count.
fn per_task_config(config: &BruteForceConfig, n_tasks: usize) -> BruteForceConfig {
    BruteForceConfig {
        max_candidates: config
            .max_candidates
            .map(|b| b.div_ceil(n_tasks.max(1) as u64)),
        ..config.clone()
    }
}

fn merge_outcomes(outcomes: Vec<BruteForceOutcome>, m: usize) -> BruteForceOutcome {
    let mut best: Vec<ScoredProjection> = Vec::new();
    let mut candidates = 0u64;
    let mut scored = 0u64;
    let mut pruned_subtrees = 0u64;
    let mut histogram_nodes = 0u64;
    let mut completed = true;
    for o in outcomes {
        best.extend(o.best);
        candidates = candidates.saturating_add(o.candidates);
        scored = scored.saturating_add(o.scored);
        pruned_subtrees += o.pruned_subtrees;
        histogram_nodes += o.histogram_nodes;
        completed &= o.completed;
    }
    best.sort_by(|a, b| {
        a.sparsity
            .partial_cmp(&b.sparsity)
            .expect("finite sparsity")
            .then_with(|| a.projection.genes().cmp(b.projection.genes()))
    });
    best.truncate(m);
    BruteForceOutcome {
        best,
        candidates,
        scored,
        pruned_subtrees,
        histogram_nodes,
        completed,
    }
}

/// Brute force restricted to cubes whose lowest dimension is in
/// `first_dims`; the full search is the union over all dimensions.
fn brute_force_over_first_dims<C: CubeCounter>(
    fitness: &SparsityFitness<'_, C>,
    config: &BruteForceConfig,
    first_dims: &[usize],
) -> BruteForceOutcome {
    let d = fitness.counter().n_dims();
    let phi = fitness.counter().phi() as u16;
    let k = fitness.k();
    let mut walker = Walker {
        fitness,
        config,
        d,
        phi,
        k,
        best: BoundedBest::new(config.m),
        candidates: 0,
        scored: 0,
        pruned_subtrees: 0,
        budget_hit: false,
    };
    let mut chosen = Vec::with_capacity(k);
    for &dim in first_dims {
        if dim + k > d {
            continue; // not enough higher dims to complete a cube
        }
        for range in 0..phi {
            chosen.push((dim as u32, range));
            if config.require_nonempty && k > 1 {
                let cube = Cube::new(chosen.iter().copied()).expect("distinct dims");
                if fitness.counter().count(&cube) == 0 {
                    walker.skip_subtree(1, dim);
                    chosen.pop();
                    if walker.budget_hit {
                        break;
                    }
                    continue;
                }
            }
            if k == 1 {
                walker.score_leaf(&chosen);
            } else {
                walker.descend(&mut chosen, dim + 1);
            }
            chosen.pop();
            if walker.budget_hit {
                break;
            }
        }
        if walker.budget_hit {
            break;
        }
    }
    let completed = !walker.budget_hit;
    let best = walker
        .best
        .into_sorted()
        .into_iter()
        .map(|(sparsity, (cube, count))| ScoredProjection {
            projection: Projection::from_cube(&cube, d),
            sparsity,
            count,
        })
        .collect();
    BruteForceOutcome {
        best,
        candidates: walker.candidates,
        scored: walker.scored,
        pruned_subtrees: walker.pruned_subtrees,
        histogram_nodes: 0,
        completed,
    }
}

struct Walker<'f, 'c, C: CubeCounter> {
    fitness: &'f SparsityFitness<'c, C>,
    config: &'f BruteForceConfig,
    d: usize,
    phi: u16,
    k: usize,
    best: BoundedBest<(Cube, usize)>,
    candidates: u64,
    scored: u64,
    pruned_subtrees: u64,
    budget_hit: bool,
}

impl<C: CubeCounter> Walker<'_, '_, C> {
    /// DFS over dimension choices (ascending) and range choices.
    fn descend(&mut self, chosen: &mut Vec<(u32, u16)>, next_dim: usize) {
        if self.budget_hit {
            return;
        }
        let depth = chosen.len();
        if depth == self.k {
            self.score_leaf(chosen);
            return;
        }
        // Enough dimensions must remain to reach depth k.
        let remaining_needed = self.k - depth;
        for dim in next_dim..=(self.d - remaining_needed) {
            for range in 0..self.phi {
                chosen.push((dim as u32, range));
                // Empty-subtree pruning: legal only when the best-set cannot
                // accept empty cubes anyway.
                if self.config.require_nonempty && chosen.len() < self.k {
                    let cube = Cube::new(chosen.iter().copied()).expect("distinct dims");
                    if self.fitness.counter().count(&cube) == 0 {
                        self.skip_subtree(chosen.len(), dim);
                        chosen.pop();
                        if self.budget_hit {
                            return;
                        }
                        continue;
                    }
                }
                self.descend(chosen, dim + 1);
                chosen.pop();
                if self.budget_hit {
                    return;
                }
            }
        }
    }

    fn score_leaf(&mut self, chosen: &[(u32, u16)]) {
        self.candidates += 1;
        let cube = Cube::new(chosen.iter().copied()).expect("distinct dims");
        let count = self.fitness.counter().count(&cube);
        self.scored += 1;
        if count > 0 || !self.config.require_nonempty {
            let sparsity = self.fitness.sparsity_of_cube(&cube);
            self.best.push(sparsity, (cube, count));
        }
        self.check_budget();
    }

    /// Accounts for all completions of an empty partial cube at `depth`
    /// whose last chosen dimension is `last_dim`.
    fn skip_subtree(&mut self, depth: usize, last_dim: usize) {
        self.pruned_subtrees += 1;
        let completions = subtree_size(self.d, self.phi as usize, self.k, depth, last_dim);
        self.candidates = self.candidates.saturating_add(completions);
        self.check_budget();
    }

    fn check_budget(&mut self) {
        if let Some(cap) = self.config.max_candidates {
            if self.candidates >= cap {
                self.budget_hit = true;
            }
        }
    }
}

/// Cost of one histogram row visit per later dimension, in AND+popcount
/// words: a last-level node takes the histogram kernel when
/// `|partial| · ROW_COST_IN_WORDS < φ·⌈N/64⌉` (and `φ ≤ 255`). Measured by
/// sweeping the constant over brute searches at φ^k from 9 to 1,000
/// (DESIGN.md §6).
const ROW_COST_IN_WORDS: usize = 2;

/// The production brute-force walker: the exhaustive search of Fig. 2 over
/// the posting bitmaps, fanned out on a [`hdoutlier_pool`] of `threads`
/// workers with one task per first (lowest) dimension. The module docs give
/// the kernel and its work model.
///
/// Subtrees are disjoint and each task is a pure function of its dimension,
/// so the merged result is **identical at every thread count** (tie ranks
/// at the m-th place are broken by projection genes).
/// `config.max_candidates` is split evenly across the *tasks* (not the
/// threads), so even an interrupted run covers the same candidate subset no
/// matter how many workers were live. The split means a budgeted run may
/// cover a different subset than [`brute_force_search`] with the same cap;
/// completed runs retain the same scores.
pub fn brute_force_search_incremental_parallel(
    counter: &BitmapCounter,
    k: usize,
    config: &BruteForceConfig,
    threads: usize,
) -> BruteForceOutcome {
    assert!(threads >= 1, "need at least one thread");
    assert!(k >= 1, "k must be at least 1");
    let d = counter.n_dims();
    let first_dims: Vec<usize> = (0..d).filter(|&dim| dim + k <= d).collect();
    let task_config = per_task_config(config, first_dims.len());
    let kernel = Kernel::new(counter.index(), k, &task_config);
    let outcomes = hdoutlier_pool::map(threads, &first_dims, |_, &dim| kernel.run(dim));
    merge_outcomes(outcomes, config.m)
}

/// What every task of one search reads.
struct Kernel<'a> {
    index: &'a GridIndex,
    /// `cells[row * d + dim]`: the range of `row` on `dim`, or `phi` when
    /// the value is missing (the histogram's spare slot). A byte a cell
    /// keeps more of the rows a histogram walks in cache, and is why the
    /// histogram needs `φ ≤ 255`. The first histogram node builds it, so a
    /// search that takes none never pays for it.
    cells: OnceLock<Vec<u8>>,
    config: &'a BruteForceConfig,
    params: SparsityParams,
    n_rows: usize,
    d: usize,
    phi: usize,
    k: usize,
    /// Words per bitmap, `⌈N/64⌉`.
    words: usize,
}

impl<'a> Kernel<'a> {
    fn new(index: &'a GridIndex, k: usize, config: &'a BruteForceConfig) -> Self {
        let (n_rows, d, phi) = (index.n_rows(), index.n_dims(), index.phi() as usize);
        assert!(
            u32::try_from(n_rows).is_ok(),
            "the brute walker numbers and counts rows in u32"
        );
        Self {
            index,
            cells: OnceLock::new(),
            config,
            params: SparsityParams::new(n_rows as u64, phi as u32, k as u32)
                .expect("validated k and phi"),
            n_rows,
            d,
            phi,
            k,
            words: n_rows.div_ceil(64),
        }
    }

    fn cells(&self) -> &[u8] {
        self.cells.get_or_init(|| {
            let mut cells = vec![self.phi as u8; self.n_rows * self.d];
            for dim in 0..self.d {
                for range in 0..self.phi {
                    for row in self.index.posting(dim as u32, range as u16).iter_ones() {
                        cells[row * self.d + dim] = range as u8;
                    }
                }
            }
            cells
        })
    }

    fn posting(&self, dim: usize, range: usize) -> &[u64] {
        self.index.posting(dim as u32, range as u16).words()
    }

    /// One task: every cube whose lowest dimension is `first_dim`.
    fn run(&self, first_dim: usize) -> BruteForceOutcome {
        let mut root = vec![!0u64; self.words];
        if let (Some(last), tail @ 1..) = (root.last_mut(), self.n_rows % 64) {
            *last = (1u64 << tail) - 1;
        }
        let mut partials = vec![root];
        partials.resize(self.k, vec![0; self.words]);
        let mut task = Task {
            kernel: self,
            partials,
            counts: vec![0; 2 * self.d * (self.phi + 1)],
            rows: vec![0; self.n_rows + 4],
            chosen: Vec::with_capacity(self.k),
            best: BoundedBest::new(self.config.m),
            candidates: 0,
            scored: 0,
            pruned_subtrees: 0,
            histogram_nodes: 0,
            budget_hit: false,
        };
        {
            let _enumerate = obs::profile_span(TARGET, "enumerate");
            task.visit(0, self.n_rows, first_dim, first_dim);
        }
        let best = task
            .best
            .into_sorted()
            .into_iter()
            .map(|(sparsity, (pairs, count))| ScoredProjection {
                projection: Projection::from_cube(
                    &Cube::new(pairs).expect("distinct dims"),
                    self.d,
                ),
                sparsity,
                count,
            })
            .collect();
        BruteForceOutcome {
            best,
            candidates: task.candidates,
            scored: task.scored,
            pruned_subtrees: task.pruned_subtrees,
            histogram_nodes: task.histogram_nodes,
            completed: !task.budget_hit,
        }
    }
}

/// The DFS state and preallocated scratch of one task.
struct Task<'k, 'a> {
    kernel: &'k Kernel<'a>,
    /// `partials[j]`: the rows matching the first `j` chosen pairs;
    /// `partials[0]` is every row.
    partials: Vec<Vec<u64>>,
    /// Leaf counts of the current last-level node, `φ + 1` slots per later
    /// dimension (the last slot absorbs missing cells), then as much again
    /// for the histogram's second bank.
    counts: Vec<u32>,
    /// The member rows of a partial the histogram walks.
    rows: Vec<u32>,
    chosen: Vec<(u32, u16)>,
    /// The best leaves as `(pairs, count)`; an evicted leaf's `pairs`
    /// buffer is reused by the leaf that evicts it.
    best: BoundedBest<(Vec<(u32, u16)>, usize)>,
    candidates: u64,
    scored: u64,
    pruned_subtrees: u64,
    histogram_nodes: u64,
    budget_hit: bool,
}

impl Task<'_, '_> {
    /// Extends the node at `depth` — its `size` rows in `partials[depth]` —
    /// by every range of every dimension in `lo..=hi`.
    fn visit(&mut self, depth: usize, size: usize, lo: usize, hi: usize) {
        let kernel = self.kernel;
        if depth + 1 == kernel.k {
            self.count_leaves(depth, size, lo, hi);
            self.emit_leaves(lo, hi);
            return;
        }
        for dim in lo..=hi {
            for range in 0..kernel.phi {
                let (above, below) = self.partials.split_at_mut(depth + 1);
                let child = {
                    let _intersect = obs::profile_span(TARGET, "intersect");
                    and_count_into(&above[depth], kernel.posting(dim, range), &mut below[0])
                };
                self.chosen.push((dim as u32, range as u16));
                if child == 0 && kernel.config.require_nonempty {
                    // Monotone occupancy: skip the empty subtree, account
                    // for its size.
                    self.pruned_subtrees += 1;
                    let completions = subtree_size(kernel.d, kernel.phi, kernel.k, depth + 1, dim);
                    self.candidates = self.candidates.saturating_add(completions);
                    self.check_budget();
                } else {
                    let next_hi = kernel.d - (kernel.k - depth - 1);
                    self.visit(depth + 1, child, dim + 1, next_hi);
                }
                self.chosen.pop();
                if self.budget_hit {
                    return;
                }
            }
        }
    }

    /// Fills `counts` with the occupancy of every leaf below the last-level
    /// node at `depth`, by the cheaper kernel for its `size`.
    fn count_leaves(&mut self, depth: usize, size: usize, lo: usize, hi: usize) {
        let kernel = self.kernel;
        let _intersect = obs::profile_span(TARGET, "intersect");
        let width = kernel.phi + 1;
        let span = (hi - lo + 1) * width;
        let partial = &self.partials[depth];
        if kernel.phi > usize::from(u8::MAX)
            || size * ROW_COST_IN_WORDS >= kernel.phi * kernel.words
        {
            for (dim, slot) in (lo..=hi).zip(self.counts.chunks_exact_mut(width)) {
                for (range, count) in slot[..kernel.phi].iter_mut().enumerate() {
                    *count = and_count(partial, kernel.posting(dim, range)) as u32;
                }
            }
            return;
        }
        self.histogram_nodes += 1;
        let len = members(partial, &mut self.rows);
        // Alternate rows feed two banks, so runs of rows in one cell (the
        // common case on correlated dimensions) increment two counters in
        // turn rather than wait on one.
        let (even, odd) = self.counts.split_at_mut(span);
        let odd = &mut odd[..span];
        even.fill(0);
        odd.fill(0);
        let cells = kernel.cells();
        let cells_of = |row: u32| &cells[row as usize * kernel.d + lo..][..hi - lo + 1];
        let mut pairs = self.rows[..len].chunks_exact(2);
        for pair in &mut pairs {
            let (a, b) = (cells_of(pair[0]), cells_of(pair[1]));
            for (at, (&x, &y)) in a.iter().zip(b).enumerate() {
                even[at * width + usize::from(x)] += 1;
                odd[at * width + usize::from(y)] += 1;
            }
        }
        if let [row] = pairs.remainder() {
            for (at, &x) in cells_of(*row).iter().enumerate() {
                even[at * width + usize::from(x)] += 1;
            }
        }
        for (e, &o) in even.iter_mut().zip(&*odd) {
            *e += o;
        }
    }

    /// Scores the leaves [`Task::count_leaves`] counted, in DFS order.
    fn emit_leaves(&mut self, lo: usize, hi: usize) {
        let kernel = self.kernel;
        let width = kernel.phi + 1;
        for dim in lo..=hi {
            for range in 0..kernel.phi {
                let count = self.counts[(dim - lo) * width + range] as usize;
                self.candidates += 1;
                self.scored += 1;
                if count > 0 || !kernel.config.require_nonempty {
                    let sparsity = kernel.params.sparsity(count as u64);
                    let chosen = &self.chosen;
                    self.best.push_with(sparsity, |evicted| {
                        let mut pairs = evicted.map_or_else(Vec::new, |(pairs, _)| pairs);
                        pairs.clear();
                        pairs.extend_from_slice(chosen);
                        pairs.push((dim as u32, range as u16));
                        (pairs, count)
                    });
                }
                self.check_budget();
                if self.budget_hit {
                    return;
                }
            }
        }
    }

    fn check_budget(&mut self) {
        if let Some(cap) = self.kernel.config.max_candidates {
            if self.candidates >= cap {
                self.budget_hit = true;
            }
        }
    }
}

/// Writes the positions of `partial`'s set bits, ascending, to the front
/// of `rows` (which needs four slots of slack) and returns how many there
/// are. Four bits per word are decoded unconditionally, so the sparse words
/// of a small partial cost no mispredicted loop exit.
fn members(partial: &[u64], rows: &mut [u32]) -> usize {
    let mut len = 0;
    for (at, &word) in partial.iter().enumerate() {
        let base = at as u32 * 64;
        let mut bits = word;
        for slot in &mut rows[len..len + 4] {
            *slot = base + bits.trailing_zeros();
            bits &= bits.wrapping_sub(1);
        }
        let mut end = len + 4;
        while bits != 0 {
            rows[end] = base + bits.trailing_zeros();
            bits &= bits - 1;
            end += 1;
        }
        len += word.count_ones() as usize;
    }
    len
}

/// `out = a & b`, returning its popcount, in one branch-free pass.
fn and_count_into(a: &[u64], b: &[u64], out: &mut [u64]) -> usize {
    let mut total = 0;
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        let word = x & y;
        *o = word;
        total += word.count_ones() as usize;
    }
    total
}

/// Popcount of `a & b`, in one branch-free pass.
fn and_count(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x & y).count_ones() as usize)
        .sum()
}

/// Complete cubes below a partial cube of `depth` pairs whose last chosen
/// dimension is `last_dim`: `C(d − last_dim − 1, k − depth) · φ^(k − depth)`.
fn subtree_size(d: usize, phi: usize, k: usize, depth: usize, last_dim: usize) -> u64 {
    let need = k - depth;
    binomial_u64((d - last_dim - 1) as u64, need as u64)
        .saturating_mul((phi as u64).saturating_pow(need as u32))
}

/// Exact binomial coefficient in u64 (saturating).
fn binomial_u64(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc.saturating_mul((n - i) as u128) / (i as u128 + 1);
        if acc > u64::MAX as u128 {
            return u64::MAX;
        }
    }
    acc as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdoutlier_data::discretize::{DiscretizeStrategy, Discretized};
    use hdoutlier_data::generators::{planted_outliers, uniform, PlantedConfig};
    use hdoutlier_data::Dataset;
    use hdoutlier_index::NaiveCounter;
    use hdoutlier_rng::rngs::StdRng;
    use hdoutlier_rng::{Rng, SeedableRng};

    fn fixture(n: usize, d: usize, phi: u32, seed: u64) -> BitmapCounter {
        let ds = uniform(n, d, seed);
        let disc = Discretized::new(&ds, phi, DiscretizeStrategy::EquiDepth).unwrap();
        BitmapCounter::new(&disc)
    }

    #[test]
    fn covers_whole_space_when_unbudgeted() {
        let counter = fixture(200, 5, 3, 1);
        let fitness = SparsityFitness::new(&counter, 2);
        let out = brute_force_search(&fitness, &BruteForceConfig::default());
        assert!(out.completed);
        // C(5,2)·3² = 90 complete cubes.
        assert_eq!(out.candidates, 90);
        assert_eq!(out.best.len(), 20);
        // Best list is sorted most-negative-first.
        for w in out.best.windows(2) {
            assert!(w[0].sparsity <= w[1].sparsity);
        }
        // Every retained projection is feasible and non-empty.
        for s in &out.best {
            assert!(s.projection.is_feasible(2));
            assert!(s.count > 0);
        }
    }

    #[test]
    fn matches_naive_double_loop() {
        // Independent full enumeration as the oracle.
        let counter = fixture(300, 4, 4, 2);
        let fitness = SparsityFitness::new(&counter, 2);
        let out = brute_force_search(
            &fitness,
            &BruteForceConfig {
                m: 5,
                ..BruteForceConfig::default()
            },
        );
        let mut oracle: Vec<(f64, usize)> = Vec::new();
        for d0 in 0..4u32 {
            for d1 in (d0 + 1)..4 {
                for r0 in 0..4u16 {
                    for r1 in 0..4u16 {
                        let cube = Cube::new([(d0, r0), (d1, r1)]).unwrap();
                        let count = counter.count(&cube);
                        if count > 0 {
                            oracle.push((fitness.sparsity_of_cube(&cube), count));
                        }
                    }
                }
            }
        }
        oracle.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        assert_eq!(out.best.len(), 5);
        for (got, want) in out.best.iter().zip(&oracle) {
            assert!((got.sparsity - want.0).abs() < 1e-12);
        }
    }

    #[test]
    fn budget_interrupts_and_flags_incomplete() {
        let counter = fixture(100, 8, 4, 3);
        let fitness = SparsityFitness::new(&counter, 3);
        let out = brute_force_search(
            &fitness,
            &BruteForceConfig {
                max_candidates: Some(500),
                ..BruteForceConfig::default()
            },
        );
        assert!(!out.completed);
        assert!(out.candidates >= 500);
        // Full space would be C(8,3)·4³ = 3584.
        assert!(out.candidates < 3584);
    }

    #[test]
    fn finds_planted_sparse_combination() {
        // Planted contrarian records live in near-empty cubes; brute force
        // must rank one of their cubes at the very top.
        let planted = planted_outliers(&PlantedConfig {
            n_rows: 2000,
            n_dims: 6,
            n_outliers: 4,
            seed: 5,
            ..PlantedConfig::default()
        });
        let disc = Discretized::new(&planted.dataset, 5, DiscretizeStrategy::EquiDepth).unwrap();
        let counter = BitmapCounter::new(&disc);
        let fitness = SparsityFitness::new(&counter, 2);
        let out = brute_force_search(
            &fitness,
            &BruteForceConfig {
                m: 10,
                ..BruteForceConfig::default()
            },
        );
        // The top projections must surface the planted outliers. (The exact
        // top-1 can be any singleton cube — all count-1 cubes tie on Eq. 1 —
        // so the assertion is over the union of the best set.)
        let covered: Vec<usize> = out
            .best
            .iter()
            .flat_map(|s| fitness.rows(&s.projection))
            .collect();
        assert!(
            covered.iter().any(|&r| planted.is_outlier(r)),
            "best projections cover {covered:?}, none planted"
        );
        // And the top sparsity must be decidedly negative.
        assert!(out.best[0].sparsity < -3.0, "{}", out.best[0].sparsity);
    }

    #[test]
    fn allows_empty_projections_when_configured() {
        // 50 rows, φ=5, k=3: expected occupancy 0.4 — most cubes are empty.
        let counter = fixture(50, 5, 5, 4);
        let fitness = SparsityFitness::new(&counter, 3);
        let out = brute_force_search(
            &fitness,
            &BruteForceConfig {
                m: 5,
                require_nonempty: false,
                max_candidates: None,
            },
        );
        assert!(out.completed);
        // With empties allowed, the most negative coefficient is the
        // empty-cube value and at least one retained cube is empty.
        assert!(out.best.iter().any(|s| s.count == 0));
        let empty = hdoutlier_stats::empty_cube_coefficient(50, 5, 3);
        assert!((out.best[0].sparsity - empty).abs() < 1e-9);
        // All candidates scored (no pruning allowed in this mode).
        assert_eq!(out.candidates, out.scored);
    }

    #[test]
    fn pruning_accounts_for_skipped_candidates_exactly() {
        // With pruning on, candidates (scored + skipped) must still equal
        // the full space size when the run completes.
        let counter = fixture(30, 6, 6, 6); // sparse: plenty of empty subtrees
        let fitness = SparsityFitness::new(&counter, 3);
        let out = brute_force_search(&fitness, &BruteForceConfig::default());
        assert!(out.completed);
        // C(6,3)·6³ = 4320.
        assert_eq!(out.candidates, 4320);
        assert!(out.scored < out.candidates, "pruning should have fired");
    }

    #[test]
    fn m_larger_than_space_returns_everything_nonempty() {
        let counter = fixture(100, 3, 2, 7);
        let fitness = SparsityFitness::new(&counter, 2);
        let out = brute_force_search(
            &fitness,
            &BruteForceConfig {
                m: 1000,
                ..BruteForceConfig::default()
            },
        );
        // C(3,2)·2² = 12 cubes, all non-empty on 100 uniform rows.
        assert_eq!(out.best.len(), 12);
    }

    #[test]
    fn production_matches_generic_exactly() {
        for &(n, d, phi, k, seed) in &[
            (400usize, 7usize, 4u32, 3usize, 9u64),
            (150, 5, 3, 2, 10),
            (60, 6, 5, 4, 11), // sparse regime: pruning fires constantly
            (200, 4, 2, 1, 12),
        ] {
            let counter = fixture(n, d, phi, seed);
            let fitness = SparsityFitness::new(&counter, k);
            let config = BruteForceConfig {
                m: 12,
                ..BruteForceConfig::default()
            };
            let generic = brute_force_search(&fitness, &config);
            let fast = brute_force_search_incremental_parallel(&counter, k, &config, 1);
            assert_eq!(fast.completed, generic.completed);
            assert_eq!(fast.candidates, generic.candidates, "({n},{d},{phi},{k})");
            assert_eq!(fast.scored, generic.scored, "({n},{d},{phi},{k})");
            assert_eq!(fast.pruned_subtrees, generic.pruned_subtrees);
            assert_eq!(fast.best.len(), generic.best.len());
            for (a, b) in fast.best.iter().zip(&generic.best) {
                assert_eq!(
                    a.sparsity.to_bits(),
                    b.sparsity.to_bits(),
                    "({n},{d},{phi},{k})"
                );
                assert_eq!(a.count, b.count);
            }
        }
    }

    #[test]
    fn production_budget_and_empty_mode() {
        let counter = fixture(100, 8, 4, 13);
        let out = brute_force_search_incremental_parallel(
            &counter,
            3,
            &BruteForceConfig {
                m: 10,
                require_nonempty: true,
                max_candidates: Some(500),
            },
            4,
        );
        // The cap is split across the six tasks, so the run stops short of
        // the full C(8,3)·4³ = 3584 cubes.
        assert!(!out.completed);
        assert!(out.candidates < 3584);
        // require_nonempty = false: everything scored, no pruning.
        let counter = fixture(50, 5, 5, 14);
        let out = brute_force_search_incremental_parallel(
            &counter,
            3,
            &BruteForceConfig {
                m: 5,
                require_nonempty: false,
                max_candidates: None,
            },
            1,
        );
        assert!(out.completed);
        assert_eq!(out.candidates, out.scored);
        assert_eq!(out.pruned_subtrees, 0);
        assert!(out.best.iter().any(|s| s.count == 0));
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn production_validates_k() {
        let counter = fixture(10, 3, 2, 15);
        brute_force_search_incremental_parallel(&counter, 0, &BruteForceConfig::default(), 1);
    }

    #[test]
    fn production_k1_and_thread_overflow() {
        // k = 1 and more threads than dimensions.
        let counter = fixture(100, 3, 4, 11);
        let config = BruteForceConfig {
            m: 20,
            ..BruteForceConfig::default()
        };
        let out = brute_force_search_incremental_parallel(&counter, 1, &config, 16);
        assert!(out.completed);
        assert_eq!(out.candidates, 12); // 3 dims × 4 ranges
        assert_eq!(out.best.len(), 12);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let counter = fixture(10, 3, 2, 13);
        brute_force_search_incremental_parallel(&counter, 1, &BruteForceConfig::default(), 0);
    }

    #[test]
    fn production_is_thread_count_invariant() {
        // The core determinism contract: identical outcome at any thread
        // count, with and without a budget.
        let counter = fixture(300, 8, 4, 21);
        for budget in [None, Some(600)] {
            let config = BruteForceConfig {
                m: 10,
                require_nonempty: true,
                max_candidates: budget,
            };
            let baseline = brute_force_search_incremental_parallel(&counter, 3, &config, 1);
            for threads in [2usize, 4, 8] {
                let got = brute_force_search_incremental_parallel(&counter, 3, &config, threads);
                assert_eq!(got.candidates, baseline.candidates, "budget {budget:?}");
                assert_eq!(got.scored, baseline.scored);
                assert_eq!(got.completed, baseline.completed);
                assert_eq!(
                    got.best
                        .iter()
                        .map(|s| s.projection.clone())
                        .collect::<Vec<_>>(),
                    baseline
                        .best
                        .iter()
                        .map(|s| s.projection.clone())
                        .collect::<Vec<_>>(),
                    "budget {budget:?}, threads {threads}"
                );
                for (a, b) in got.best.iter().zip(&baseline.best) {
                    assert_eq!(a.sparsity.to_bits(), b.sparsity.to_bits());
                    assert_eq!(a.count, b.count);
                }
            }
        }
    }

    /// The generic walker over the production walker's task split: one
    /// task per first dimension, the budget divided evenly among them.
    fn generic_over_tasks<C: CubeCounter>(
        counter: &C,
        k: usize,
        config: &BruteForceConfig,
    ) -> BruteForceOutcome {
        let d = counter.n_dims();
        let first_dims: Vec<usize> = (0..d).filter(|&dim| dim + k <= d).collect();
        let task_config = per_task_config(config, first_dims.len());
        let fitness = SparsityFitness::new(counter, k);
        let outcomes = first_dims
            .iter()
            .map(|&dim| brute_force_over_first_dims(&fitness, &task_config, &[dim]))
            .collect();
        merge_outcomes(outcomes, config.m)
    }

    /// A random `n`-row grid with one column per `(copies_first, missing)`
    /// entry: a column copying the first column's values shares its
    /// ranges, any other is independent, and each cell is missing with
    /// probability `missing`.
    fn grid(n: usize, phi: u32, seed: u64, columns: &[(bool, f64)]) -> Discretized {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut values = Vec::with_capacity(n * columns.len());
        for _ in 0..n {
            let first: f64 = rng.gen();
            for &(copies_first, missing) in columns {
                let value = if copies_first { first } else { rng.gen() };
                values.push(if rng.gen_bool(missing) {
                    f64::NAN
                } else {
                    value
                });
            }
        }
        let ds = Dataset::new(values, n, columns.len()).unwrap();
        Discretized::new(&ds, phi, DiscretizeStrategy::EquiDepth).unwrap()
    }

    /// A grid of `d` random columns: about a third copy the first one, and
    /// half miss up to 97 % of their cells. Partial cubes thus range from
    /// N/φ rows (a column and its copy in one range) to a handful.
    fn random_grid(n: usize, d: usize, phi: u32, seed: u64) -> Discretized {
        let mut rng = StdRng::seed_from_u64(seed);
        let columns: Vec<(bool, f64)> = (0..d)
            .map(|dim| {
                let copies_first = dim == 0 || rng.gen_bool(0.33);
                let missing = if rng.gen_bool(0.5) {
                    0.0
                } else {
                    rng.gen::<f64>() * 0.97
                };
                (copies_first, missing)
            })
            .collect();
        grid(n, phi, seed, &columns)
    }

    fn assert_same_outcome(got: &BruteForceOutcome, want: &BruteForceOutcome, case: &str) {
        assert_eq!(got.candidates, want.candidates, "{case}");
        assert_eq!(got.scored, want.scored, "{case}");
        assert_eq!(got.pruned_subtrees, want.pruned_subtrees, "{case}");
        assert_eq!(got.completed, want.completed, "{case}");
        assert_eq!(got.best.len(), want.best.len(), "{case}");
        for (a, b) in got.best.iter().zip(&want.best) {
            assert_eq!(a.projection.genes(), b.projection.genes(), "{case}");
            assert_eq!(a.sparsity.to_bits(), b.sparsity.to_bits(), "{case}");
            assert_eq!(a.count, b.count, "{case}");
        }
    }

    #[test]
    fn production_matches_naive_oracle_on_random_grids_with_missing_cells() {
        let mut seed = 100;
        for phi in [2u32, 3, 5, 8, 12] {
            for k in 1..=4usize {
                // Keep the naive oracle's C(d, k)·φ^k sweep small.
                let d = if phi.pow(k as u32) > 500 {
                    k + 1
                } else {
                    k + 2
                };
                seed += 1;
                let disc = random_grid(120, d, phi, seed);
                let naive = NaiveCounter::new(&disc);
                let bitmap = BitmapCounter::new(&disc);
                let fitness = SparsityFitness::new(&naive, k);
                for require_nonempty in [true, false] {
                    let full = BruteForceConfig {
                        m: 7,
                        require_nonempty,
                        max_candidates: None,
                    };
                    let space = full_space(d, phi, k);
                    for max_candidates in [None, Some(space / 3)] {
                        let config = BruteForceConfig {
                            max_candidates,
                            ..full.clone()
                        };
                        let oracle = generic_over_tasks(&naive, k, &config);
                        if max_candidates.is_none() {
                            // Unbudgeted, the task split is invisible: the
                            // single generic walker scores the same cubes.
                            let serial = brute_force_search(&fitness, &config);
                            assert_eq!(oracle.candidates, serial.candidates);
                            assert_eq!(oracle.scored, serial.scored);
                            let key = |o: &BruteForceOutcome| -> Vec<(u64, usize)> {
                                o.best
                                    .iter()
                                    .map(|s| (s.sparsity.to_bits(), s.count))
                                    .collect()
                            };
                            assert_eq!(key(&oracle), key(&serial));
                        }
                        for threads in [1usize, 2, 8] {
                            let got = brute_force_search_incremental_parallel(
                                &bitmap, k, &config, threads,
                            );
                            let case = format!(
                                "phi {phi}, k {k}, d {d}, nonempty {require_nonempty}, \
                                 budget {max_candidates:?}, threads {threads}"
                            );
                            assert_same_outcome(&got, &oracle, &case);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn one_search_takes_both_sides_of_the_kernel_switch() {
        // At φ = 5 a last-level partial goes to the histogram below
        // 5·⌈N/64⌉ / ROW_COST_IN_WORDS rows: 80 of 2,000 rows at k = 2, 235
        // of 6,000 at k = 3. The first two columns share their ranges, so a
        // partial on both holds about N/5 rows; a partial on the
        // 92 %-missing column holds about 0.08·N/5.
        let columns = [
            (true, 0.0),
            (true, 0.0),
            (false, 0.0),
            (false, 0.92),
            (true, 0.5),
            (false, 0.0),
        ];
        for (k, n, seed) in [(2usize, 2000usize, 7u64), (3, 6000, 8)] {
            let disc = grid(n, 5, seed, &columns);
            let naive = NaiveCounter::new(&disc);
            let bitmap = BitmapCounter::new(&disc);
            for require_nonempty in [true, false] {
                let config = BruteForceConfig {
                    m: 15,
                    require_nonempty,
                    max_candidates: None,
                };
                let got = brute_force_search_incremental_parallel(&bitmap, k, &config, 1);
                // Without pruning every last-level node is visited:
                // C(d−1, k−1)·φ^(k−1) of them.
                let last_level = full_space(5, 5, k - 1);
                assert!(got.histogram_nodes > 0, "k {k}: no histogram node");
                if !require_nonempty {
                    assert!(
                        got.histogram_nodes < last_level,
                        "k {k}: every node took the histogram"
                    );
                }
                let want = generic_over_tasks(&naive, k, &config);
                assert_same_outcome(&got, &want, &format!("k {k}, {require_nonempty}"));
            }
        }
    }

    #[test]
    fn phi_past_a_byte_counts_every_leaf_by_and_popcount() {
        // The cell table stores a byte per cell, so φ = 300 never takes the
        // histogram, however small the partials.
        let disc = random_grid(600, 3, 300, 31);
        let bitmap = BitmapCounter::new(&disc);
        let config = BruteForceConfig {
            m: 10,
            ..BruteForceConfig::default()
        };
        let got = brute_force_search_incremental_parallel(&bitmap, 2, &config, 2);
        assert_eq!(got.histogram_nodes, 0);
        assert_same_outcome(&got, &generic_over_tasks(&bitmap, 2, &config), "phi 300");
    }

    /// `C(d, k)·φ^k`.
    fn full_space(d: usize, phi: u32, k: usize) -> u64 {
        binomial_u64(d as u64, k as u64) * u64::from(phi).pow(k as u32)
    }

    #[test]
    fn binomial_helper() {
        assert_eq!(binomial_u64(5, 2), 10);
        assert_eq!(binomial_u64(160, 4), 26_294_360);
        assert_eq!(binomial_u64(3, 5), 0);
        assert_eq!(binomial_u64(0, 0), 1);
        assert_eq!(binomial_u64(200, 100), u64::MAX); // saturates
    }
}
