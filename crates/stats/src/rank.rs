//! Ranking and selection utilities.
//!
//! Rank-roulette selection (paper Fig. 4) weights a solution by `p − r(i)`
//! where `r(i)` is its rank with the most negative sparsity coefficient
//! first; reporting needs "the m most negative" repeatedly. Both primitives
//! live here so the GA and the reporting layer agree on tie handling.

use std::cmp::Ordering;

/// Indices of `values` sorted ascending (NaNs last, in stable order).
pub fn argsort(values: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| cmp_nan_last(values[a], values[b]));
    idx
}

/// Ascending ranks (0 = smallest). Ties broken by original position, so the
/// result is a permutation — exactly what roulette-wheel weighting needs.
pub fn ranks(values: &[f64]) -> Vec<usize> {
    let order = argsort(values);
    let mut r = vec![0usize; values.len()];
    for (rank, &i) in order.iter().enumerate() {
        r[i] = rank;
    }
    r
}

/// Average ranks (1-based, ties share the mean of their positions), the
/// convention of statistical rank tests. Exposed for baseline evaluation.
pub fn average_ranks(values: &[f64]) -> Vec<f64> {
    let order = argsort(values);
    let mut r = vec![0.0f64; values.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len()
            && cmp_nan_last(values[order[j + 1]], values[order[i]]) == Ordering::Equal
        {
            j += 1;
        }
        // positions i..=j (0-based) share mean 1-based rank.
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &order[i..=j] {
            r[k] = avg;
        }
        i = j + 1;
    }
    r
}

/// Indices of the `m` smallest values (ascending), i.e. "most negative
/// first" — the paper's ordering of sparsity coefficients.
///
/// `O(n log n)`; fine for reporting. For the streaming best-set kept during
/// search see [`BoundedBest`].
pub fn bottom_m(values: &[f64], m: usize) -> Vec<usize> {
    let mut idx = argsort(values);
    idx.truncate(m);
    idx
}

fn cmp_nan_last(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => a.partial_cmp(&b).expect("both non-NaN"),
    }
}

/// A bounded "best m" collection that keeps the items with the *smallest*
/// scores seen so far — the `BestSet` of paper Fig. 3.
///
/// Push is `O(log m)` via a max-heap of the current members; deduplication is
/// the caller's concern (the detector dedups by projection identity before
/// pushing).
#[derive(Debug, Clone)]
pub struct BoundedBest<T> {
    capacity: usize,
    // Max-heap on score: the root is the *worst* member, evicted first.
    heap: std::collections::BinaryHeap<Entry<T>>,
}

#[derive(Debug, Clone)]
struct Entry<T> {
    score: f64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on (score, seq); older entries win ties (evict newer).
        cmp_nan_last(self.score, other.score).then(self.seq.cmp(&other.seq))
    }
}

impl<T> BoundedBest<T> {
    /// Creates a collection that retains at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            heap: std::collections::BinaryHeap::with_capacity(capacity + 1),
        }
    }

    /// Offers an item with the given score (smaller is better). Returns
    /// `true` if the item was retained.
    ///
    /// NaN scores are rejected outright.
    pub fn push(&mut self, score: f64, item: T) -> bool {
        self.push_with(score, |_| item)
    }

    /// [`BoundedBest::push`] for an item that is costly to build: `make` runs
    /// only if the item will be retained, and receives the member it
    /// evicts, if any, so that member's allocations can be reused.
    pub fn push_with(&mut self, score: f64, make: impl FnOnce(Option<T>) -> T) -> bool {
        if score.is_nan() || self.capacity == 0 {
            return false;
        }
        let seq = self.heap.len() as u64;
        if self.heap.len() < self.capacity {
            self.heap.push(Entry {
                score,
                seq,
                item: make(None),
            });
            return true;
        }
        let worst = self.heap.peek().expect("non-empty at capacity");
        if score >= worst.score {
            return false;
        }
        let evicted = self.heap.pop().expect("non-empty at capacity").item;
        self.heap.push(Entry {
            score,
            seq,
            item: make(Some(evicted)),
        });
        true
    }

    /// Current number of retained items.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The worst retained score, i.e. the threshold a new item must beat
    /// once the collection is full.
    pub fn worst_score(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.score)
    }

    /// Consumes the collection, returning `(score, item)` pairs sorted
    /// ascending by score (best first).
    pub fn into_sorted(self) -> Vec<(f64, T)> {
        let mut v: Vec<(f64, T)> = self.heap.into_iter().map(|e| (e.score, e.item)).collect();
        v.sort_by(|a, b| cmp_nan_last(a.0, b.0));
        v
    }

    /// Iterates over retained items in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&f64, &T)> {
        self.heap.iter().map(|e| (&e.score, &e.item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argsort_basic() {
        assert_eq!(argsort(&[3.0, 1.0, 2.0]), vec![1, 2, 0]);
        assert_eq!(argsort(&[]), Vec::<usize>::new());
    }

    #[test]
    fn argsort_nan_last_stable() {
        let v = [f64::NAN, 1.0, f64::NAN, 0.0];
        assert_eq!(argsort(&v), vec![3, 1, 0, 2]);
    }

    #[test]
    fn ranks_are_a_permutation() {
        let v = [5.0, 5.0, 1.0, 9.0];
        let r = ranks(&v);
        let mut sorted = r.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        assert_eq!(r[2], 0); // smallest
        assert_eq!(r[3], 3); // largest
        assert!(r[0] < r[1]); // stable tie-break by position
    }

    #[test]
    fn average_ranks_share_ties() {
        let v = [10.0, 20.0, 20.0, 30.0];
        assert_eq!(average_ranks(&v), vec![1.0, 2.5, 2.5, 4.0]);
        let v = [7.0, 7.0, 7.0];
        assert_eq!(average_ranks(&v), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn bottom_m_takes_most_negative() {
        let v = [-1.0, -3.5, 0.0, -2.0];
        assert_eq!(bottom_m(&v, 2), vec![1, 3]);
        assert_eq!(bottom_m(&v, 10).len(), 4);
        assert_eq!(bottom_m(&v, 0), Vec::<usize>::new());
    }

    #[test]
    fn bounded_best_keeps_smallest() {
        let mut b = BoundedBest::new(3);
        for (i, s) in [5.0, 1.0, 4.0, 0.5, 3.0, 2.0].iter().enumerate() {
            b.push(*s, i);
        }
        let got = b.into_sorted();
        let scores: Vec<f64> = got.iter().map(|(s, _)| *s).collect();
        assert_eq!(scores, vec![0.5, 1.0, 2.0]);
        let items: Vec<usize> = got.iter().map(|(_, i)| *i).collect();
        assert_eq!(items, vec![3, 1, 5]);
    }

    #[test]
    fn bounded_best_rejects_when_full_and_worse() {
        let mut b = BoundedBest::new(2);
        assert!(b.push(1.0, "a"));
        assert!(b.push(2.0, "b"));
        assert_eq!(b.worst_score(), Some(2.0));
        assert!(!b.push(2.5, "c"));
        assert!(!b.push(2.0, "d")); // ties with worst do not displace
        assert!(b.push(1.5, "e"));
        assert_eq!(b.worst_score(), Some(1.5));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn bounded_best_push_with_builds_only_kept_items_from_the_evicted() {
        let mut b = BoundedBest::new(2);
        assert!(b.push_with(3.0, |evicted| {
            assert!(evicted.is_none());
            vec![3]
        }));
        assert!(b.push_with(1.0, |_| vec![1]));
        assert!(!b.push_with(3.0, |_| unreachable!("a tie is not kept")));
        assert!(b.push_with(2.0, |evicted| {
            let mut v = evicted.expect("full: the worst member is evicted");
            assert_eq!(v, vec![3]);
            v[0] = 2;
            v
        }));
        let got = b.into_sorted();
        assert_eq!(got, vec![(1.0, vec![1]), (2.0, vec![2])]);
    }

    #[test]
    fn bounded_best_edge_cases() {
        let mut b: BoundedBest<&str> = BoundedBest::new(0);
        assert!(!b.push(1.0, "x"));
        assert!(b.is_empty());
        let mut b = BoundedBest::new(2);
        assert!(!b.push(f64::NAN, "nan"));
        assert!(b.is_empty());
        assert_eq!(b.worst_score(), None);
    }
}
