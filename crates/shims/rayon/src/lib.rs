//! A minimal, API-compatible stand-in for rayon's parallel iterators.
//!
//! Implements the subset the workspace uses — `par_iter` / `into_par_iter`
//! over slices, vectors and ranges with `map`, `filter`, `filter_map`,
//! `flat_map`, `enumerate`, `for_each`, `sum` and `collect` — on top of
//! `std::thread::scope`. Work is split into contiguous index chunks, one per
//! available core, and results are concatenated in input order, so outputs
//! are **deterministic and identical to sequential evaluation** regardless of
//! scheduling (the same guarantee the workspace relies on from rayon).
//!
//! Nested parallel pipelines (a `collect` inside a worker of another
//! pipeline) run sequentially on the worker's thread instead of spawning a
//! second thread generation, which bounds the total thread count without
//! changing results.

use std::cell::Cell;
use std::sync::OnceLock;

/// Commonly imported items, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{
        FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator, ParallelIterator,
    };
}

thread_local! {
    static IS_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn worker_count(items: usize) -> usize {
    if items <= 1 || IS_WORKER.with(Cell::get) {
        return 1;
    }
    // `available_parallelism` reads the cgroup files on every call
    // (~12 µs each on a 2-vCPU Linux VM), so it is read once per process.
    static THREADS: OnceLock<usize> = OnceLock::new();
    let threads = *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    threads.min(items)
}

/// An indexed parallel pipeline: every source index can be evaluated
/// independently, feeding zero or more items to a sink.
pub trait ParallelIterator: Sized + Send + Sync {
    /// The element type produced by the pipeline.
    type Item: Send;

    /// Number of source indices.
    fn source_len(&self) -> usize;

    /// Evaluates source index `idx`, passing each produced item to `sink`.
    fn eval_with(&self, idx: usize, sink: &mut dyn FnMut(Self::Item));

    /// Maps each item through `f`.
    fn map<F, R>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> R + Send + Sync,
        R: Send,
    {
        Map { base: self, f }
    }

    /// Keeps only items for which `f` returns `true`.
    fn filter<F>(self, f: F) -> Filter<Self, F>
    where
        F: Fn(&Self::Item) -> bool + Send + Sync,
    {
        Filter { base: self, f }
    }

    /// Maps each item through `f`, keeping the `Some` results.
    fn filter_map<F, R>(self, f: F) -> FilterMap<Self, F>
    where
        F: Fn(Self::Item) -> Option<R> + Send + Sync,
        R: Send,
    {
        FilterMap { base: self, f }
    }

    /// Maps each item to an iterable and flattens the results in order.
    fn flat_map<F, I>(self, f: F) -> FlatMap<Self, F>
    where
        F: Fn(Self::Item) -> I + Send + Sync,
        I: IntoIterator,
        I::Item: Send,
    {
        FlatMap { base: self, f }
    }

    /// Pairs each item with its source index. Only meaningful directly on an
    /// indexed base (slice / vec / range), matching how the workspace uses it.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }

    /// Runs `f` for every item (in parallel, unordered side effects).
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Send + Sync,
    {
        let _: Vec<()> = Map {
            base: self,
            f: move |item| f(item),
        }
        .drive();
    }

    /// Sums all items.
    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item> + Send,
    {
        self.drive().into_iter().sum()
    }

    /// Counts all items.
    fn count(self) -> usize {
        self.drive().len()
    }

    /// Collects the pipeline's items, preserving input order.
    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
    {
        C::from_par_iter(self)
    }

    /// Evaluates the pipeline across worker threads and concatenates the
    /// per-chunk outputs in input order.
    fn drive(self) -> Vec<Self::Item> {
        let n = self.source_len();
        let workers = worker_count(n);
        if workers <= 1 {
            let mut out = Vec::with_capacity(n);
            for idx in 0..n {
                self.eval_with(idx, &mut |item| out.push(item));
            }
            return out;
        }
        let chunk = n.div_ceil(workers);
        let pipeline = &self;
        let mut chunks: Vec<Vec<Self::Item>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let lo = w * chunk;
                    let hi = ((w + 1) * chunk).min(n);
                    scope.spawn(move || {
                        IS_WORKER.with(|flag| flag.set(true));
                        let mut out = Vec::with_capacity(hi.saturating_sub(lo));
                        for idx in lo..hi {
                            pipeline.eval_with(idx, &mut |item| out.push(item));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rayon shim worker panicked"))
                .collect()
        });
        let total = chunks.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(total);
        for c in &mut chunks {
            out.append(c);
        }
        out
    }
}

/// Collection types a parallel pipeline can collect into.
pub trait FromParallelIterator<T: Send>: Sized {
    /// Builds the collection from the pipeline.
    fn from_par_iter<P: ParallelIterator<Item = T>>(p: P) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<P: ParallelIterator<Item = T>>(p: P) -> Self {
        p.drive()
    }
}

// ---- sources ---------------------------------------------------------------

/// Conversion into an owning parallel pipeline (`into_par_iter`).
pub trait IntoParallelIterator {
    /// Element type.
    type Item: Send;
    /// Pipeline type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Converts `self`.
    fn into_par_iter(self) -> Self::Iter;
}

/// Conversion into a borrowing parallel pipeline (`par_iter`).
pub trait IntoParallelRefIterator<'data> {
    /// Element type (a reference).
    type Item: Send;
    /// Pipeline type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Borrows `self`.
    fn par_iter(&'data self) -> Self::Iter;
}

/// Parallel pipeline over a borrowed slice.
pub struct SlicePar<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for SlicePar<'a, T> {
    type Item = &'a T;

    fn source_len(&self) -> usize {
        self.slice.len()
    }

    fn eval_with(&self, idx: usize, sink: &mut dyn FnMut(Self::Item)) {
        sink(&self.slice[idx]);
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = &'data T;
    type Iter = SlicePar<'data, T>;

    fn par_iter(&'data self) -> Self::Iter {
        SlicePar { slice: self }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = &'data T;
    type Iter = SlicePar<'data, T>;

    fn par_iter(&'data self) -> Self::Iter {
        SlicePar { slice: self }
    }
}

/// Parallel pipeline over an owned vector (elements cloned out per index;
/// the workspace only moves `Copy` ids through `into_par_iter`).
pub struct VecPar<T> {
    items: Vec<T>,
}

impl<T: Clone + Send + Sync> ParallelIterator for VecPar<T> {
    type Item = T;

    fn source_len(&self) -> usize {
        self.items.len()
    }

    fn eval_with(&self, idx: usize, sink: &mut dyn FnMut(Self::Item)) {
        sink(self.items[idx].clone());
    }
}

impl<T: Clone + Send + Sync> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = VecPar<T>;

    fn into_par_iter(self) -> Self::Iter {
        VecPar { items: self }
    }
}

/// Parallel pipeline over an integer range.
pub struct RangePar<T> {
    start: T,
    len: usize,
}

macro_rules! impl_range_par {
    ($($t:ty),*) => {$(
        impl ParallelIterator for RangePar<$t> {
            type Item = $t;

            fn source_len(&self) -> usize {
                self.len
            }

            fn eval_with(&self, idx: usize, sink: &mut dyn FnMut(Self::Item)) {
                sink(self.start + idx as $t);
            }
        }

        impl IntoParallelIterator for std::ops::Range<$t> {
            type Item = $t;
            type Iter = RangePar<$t>;

            fn into_par_iter(self) -> Self::Iter {
                let len = if self.end > self.start { (self.end - self.start) as usize } else { 0 };
                RangePar { start: self.start, len }
            }
        }
    )*};
}
impl_range_par!(u32, u64, usize, i32, i64);

// ---- adapters --------------------------------------------------------------

/// See [`ParallelIterator::map`].
pub struct Map<P, F> {
    base: P,
    f: F,
}

impl<P, F, R> ParallelIterator for Map<P, F>
where
    P: ParallelIterator,
    F: Fn(P::Item) -> R + Send + Sync,
    R: Send,
{
    type Item = R;

    fn source_len(&self) -> usize {
        self.base.source_len()
    }

    fn eval_with(&self, idx: usize, sink: &mut dyn FnMut(Self::Item)) {
        self.base.eval_with(idx, &mut |item| sink((self.f)(item)));
    }
}

/// See [`ParallelIterator::filter`].
pub struct Filter<P, F> {
    base: P,
    f: F,
}

impl<P, F> ParallelIterator for Filter<P, F>
where
    P: ParallelIterator,
    F: Fn(&P::Item) -> bool + Send + Sync,
{
    type Item = P::Item;

    fn source_len(&self) -> usize {
        self.base.source_len()
    }

    fn eval_with(&self, idx: usize, sink: &mut dyn FnMut(Self::Item)) {
        self.base.eval_with(idx, &mut |item| {
            if (self.f)(&item) {
                sink(item);
            }
        });
    }
}

/// See [`ParallelIterator::filter_map`].
pub struct FilterMap<P, F> {
    base: P,
    f: F,
}

impl<P, F, R> ParallelIterator for FilterMap<P, F>
where
    P: ParallelIterator,
    F: Fn(P::Item) -> Option<R> + Send + Sync,
    R: Send,
{
    type Item = R;

    fn source_len(&self) -> usize {
        self.base.source_len()
    }

    fn eval_with(&self, idx: usize, sink: &mut dyn FnMut(Self::Item)) {
        self.base.eval_with(idx, &mut |item| {
            if let Some(mapped) = (self.f)(item) {
                sink(mapped);
            }
        });
    }
}

/// See [`ParallelIterator::flat_map`].
pub struct FlatMap<P, F> {
    base: P,
    f: F,
}

impl<P, F, I> ParallelIterator for FlatMap<P, F>
where
    P: ParallelIterator,
    F: Fn(P::Item) -> I + Send + Sync,
    I: IntoIterator,
    I::Item: Send,
{
    type Item = I::Item;

    fn source_len(&self) -> usize {
        self.base.source_len()
    }

    fn eval_with(&self, idx: usize, sink: &mut dyn FnMut(Self::Item)) {
        self.base.eval_with(idx, &mut |item| {
            for mapped in (self.f)(item) {
                sink(mapped);
            }
        });
    }
}

/// See [`ParallelIterator::enumerate`].
pub struct Enumerate<P> {
    base: P,
}

impl<P> ParallelIterator for Enumerate<P>
where
    P: ParallelIterator,
{
    type Item = (usize, P::Item);

    fn source_len(&self) -> usize {
        self.base.source_len()
    }

    fn eval_with(&self, idx: usize, sink: &mut dyn FnMut(Self::Item)) {
        self.base.eval_with(idx, &mut |item| sink((idx, item)));
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn collect_preserves_order() {
        let doubled: Vec<usize> = (0..1000usize).into_par_iter().map(|x| x * 2).collect();
        let expected: Vec<usize> = (0..1000).map(|x| x * 2).collect();
        assert_eq!(doubled, expected);
    }

    #[test]
    fn par_iter_borrows_and_filter_maps() {
        let data: Vec<u32> = (0..100).collect();
        let odds: Vec<u32> = data
            .par_iter()
            .filter_map(|&x| if x % 2 == 1 { Some(x) } else { None })
            .collect();
        assert_eq!(odds.len(), 50);
        assert_eq!(odds[0], 1);
        assert_eq!(odds[49], 99);
    }

    #[test]
    fn flat_map_concatenates_in_order() {
        let out: Vec<usize> = (0..10usize)
            .into_par_iter()
            .flat_map(|i| vec![i; i])
            .collect();
        let expected: Vec<usize> = (0..10).flat_map(|i| std::iter::repeat_n(i, i)).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn nested_pipelines_match_sequential_results() {
        let out: Vec<usize> = (0..8usize)
            .into_par_iter()
            .flat_map(|i| {
                (0..4usize)
                    .into_par_iter()
                    .map(move |j| i * 10 + j)
                    .collect::<Vec<_>>()
            })
            .collect();
        let expected: Vec<usize> = (0..8)
            .flat_map(|i| (0..4).map(move |j| i * 10 + j))
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn enumerate_pairs_items_with_source_index() {
        let data = vec![10, 20, 30];
        let out: Vec<(usize, i32)> = data.par_iter().enumerate().map(|(i, &v)| (i, v)).collect();
        assert_eq!(out, vec![(0, 10), (1, 20), (2, 30)]);
    }
}
