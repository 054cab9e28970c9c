//! Persistent sharded worker pool with reusable batch buffers.
//!
//! [`parallel_map`](crate::parallel_map) pays a full thread-spawn/join
//! cycle and a fresh set of allocations per call — fine for a coarse
//! experiment grid, ruinous for a streaming engine that dispatches a
//! batch every few hundred samples. [`ShardPool`] amortises both costs:
//!
//! * **threads persist** — workers are spawned once and park on a job
//!   channel between rounds, so a round costs two channel hops instead
//!   of a spawn/join;
//! * **buffers cycle** — the shard `Vec`s that carry items out and
//!   results back are recycled round over round, so the steady state
//!   allocates nothing;
//! * **items return in input order** — each item travels tagged with
//!   its input index and is restored to its original position, so a
//!   caller that owns long-lived stateful items (the engine's session
//!   table) sees them permuted by *nothing*.
//!
//! # Per-shard finish hook and sorted runs
//!
//! A pool built with [`ShardPool::with_finish`] runs a caller-supplied
//! closure over each shard's result buffer *on the worker that filled
//! it*, before the shard travels back. The intended use is a per-shard
//! sort: with a comparison key that is globally unique, K pre-sorted
//! runs can be combined by a K-way merge instead of a monolithic
//! `sort` over the concatenation, moving `O(n log n)` work off the
//! single-threaded merge step and onto the workers. The runs
//! themselves are handed back by [`ShardPool::run_sharded_runs`],
//! which recycles the caller's run buffers round over round. Runs
//! arrive in shard-completion order, which is scheduling-dependent;
//! the engine's unique `(seq, sub)` key makes that order unobservable.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-shard post-processing hook, applied by the worker that produced
/// the shard's results (and by the inline fallbacks, so behaviour is
/// identical whether or not a thread was involved).
type FinishFn<R> = Arc<dyn Fn(&mut Vec<R>) + Send + Sync>;

/// One round-trip unit: a slice of the caller's items (tagged with
/// their input indices) and the results produced from them.
struct Shard<T, R> {
    items: Vec<(usize, T)>,
    out: Vec<R>,
}

impl<T, R> Shard<T, R> {
    fn new() -> Self {
        Shard { items: Vec::new(), out: Vec::new() }
    }
}

/// A persistent pool of workers that repeatedly runs a fixed `step`
/// function over the caller's owned items — see the module docs.
pub struct ShardPool<T, R> {
    txs: Vec<mpsc::Sender<Shard<T, R>>>,
    res_rx: mpsc::Receiver<Shard<T, R>>,
    handles: Vec<JoinHandle<()>>,
    /// Recycled shard buffers (both `Vec`s retain their capacity).
    spare: Vec<Shard<T, R>>,
    /// Recycled run buffers for [`run_sharded_runs`](Self::run_sharded_runs).
    spare_outs: Vec<Vec<R>>,
    /// Recycled order-restoration scratch.
    restore: Vec<Option<T>>,
    /// The caller's step function, kept for the inline fallback when a
    /// worker cannot accept a shard.
    step: Box<dyn Fn(&mut T, &mut Vec<R>) + Send + Sync>,
    /// Per-shard finish hook (see module docs).
    finish: FinishFn<R>,
}

impl<T, R> ShardPool<T, R>
where
    T: Send + 'static,
    R: Send + 'static,
{
    /// Spawns `workers` (floored at 1) persistent worker threads, each
    /// running `step` over every item of every shard it receives and
    /// then `finish` over the shard's result buffer. A sorting `finish`
    /// makes [`run_sharded_runs`](Self::run_sharded_runs) hand back
    /// pre-sorted runs for a downstream K-way merge.
    pub fn with_finish<F, G>(workers: usize, step: F, finish: G) -> Self
    where
        F: Fn(&mut T, &mut Vec<R>) + Send + Sync + Clone + 'static,
        G: Fn(&mut Vec<R>) + Send + Sync + 'static,
    {
        let finish: FinishFn<R> = Arc::new(finish);
        let workers = workers.max(1);
        let (res_tx, res_rx) = mpsc::channel::<Shard<T, R>>();
        let mut txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = mpsc::channel::<Shard<T, R>>();
            txs.push(tx);
            let res = res_tx.clone();
            let step = step.clone();
            let finish = finish.clone();
            handles.push(std::thread::spawn(move || {
                for mut shard in rx {
                    for (_, item) in shard.items.iter_mut() {
                        step(item, &mut shard.out);
                    }
                    finish(&mut shard.out);
                    // The pool dropping its receiver mid-round means the
                    // round's results are unwanted; exit quietly.
                    if res.send(shard).is_err() {
                        break;
                    }
                }
            }));
        }
        // Workers hold the only result senders, so `res_rx` disconnects
        // exactly when every worker has exited.
        drop(res_tx);
        ShardPool {
            txs,
            res_rx,
            handles,
            spare: Vec::new(),
            spare_outs: Vec::new(),
            restore: Vec::new(),
            step: Box::new(step),
            finish,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.txs.len()
    }

    /// Runs one round: every item of `items` is stepped exactly once
    /// (round-robin sharded across the workers), `items` comes back in
    /// its original order, and each shard's result buffer comes back
    /// whole, as one *run* in `runs`. With a sorting finish hook every
    /// run arrives pre-sorted and the caller can K-way merge.
    ///
    /// Buffers already in `runs` are recycled as this round's shard
    /// outputs (cleared first), so a caller that feeds its run vector
    /// back in each round allocates nothing in the steady state. Runs
    /// are pushed in shard-completion order and may be empty.
    pub fn run_sharded_runs(&mut self, items: &mut Vec<T>, runs: &mut Vec<Vec<R>>) {
        for mut run in runs.drain(..) {
            run.clear();
            self.spare_outs.push(run);
        }
        let n = items.len();
        if n == 0 {
            return;
        }
        let workers = self.txs.len().min(n);
        if workers <= 1 {
            let mut run = self.spare_outs.pop().unwrap_or_default();
            for item in items.iter_mut() {
                (self.step)(item, &mut run);
            }
            (self.finish)(&mut run);
            runs.push(run);
            return;
        }
        let mut done = self.dispatch_round(items, workers);
        for shard in done.iter_mut() {
            let fresh = self.spare_outs.pop().unwrap_or_default();
            runs.push(std::mem::replace(&mut shard.out, fresh));
        }
        self.restore_items(n, &mut done, items);
        self.spare.extend(done);
    }

    /// Shards `items` round-robin, ships the shards to the workers and
    /// collects them back (stepping inline if a worker is gone).
    /// Returned shards still carry their index-tagged items.
    fn dispatch_round(&mut self, items: &mut Vec<T>, workers: usize) -> Vec<Shard<T, R>> {
        let mut shards: Vec<Shard<T, R>> = Vec::with_capacity(workers);
        while shards.len() < workers {
            shards.push(self.spare.pop().unwrap_or_else(Shard::new));
        }
        for (i, item) in items.drain(..).enumerate() {
            if let Some(shard) = shards.get_mut(i % workers) {
                shard.items.push((i, item));
            }
        }
        let mut pending = 0usize;
        let mut done: Vec<Shard<T, R>> = Vec::with_capacity(workers);
        for (tx, shard) in self.txs.iter().zip(shards) {
            match tx.send(shard) {
                Ok(()) => pending += 1,
                Err(mpsc::SendError(mut shard)) => {
                    // The worker is gone (see the liveness note below);
                    // keep the round lossless by stepping inline.
                    for (_, item) in shard.items.iter_mut() {
                        (self.step)(item, &mut shard.out);
                    }
                    (self.finish)(&mut shard.out);
                    done.push(shard);
                }
            }
        }
        while pending > 0 {
            match self.res_rx.recv_timeout(Duration::from_millis(100)) {
                Ok(shard) => {
                    done.push(shard);
                    pending -= 1;
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    // Workers only exit when the pool closes their job
                    // channel — unless `step` panicked. That shard's
                    // items are unrecoverable, and continuing with a
                    // truncated item set would silently corrupt the
                    // caller's state; mirror the panic-propagation of
                    // `std::thread::scope` and die loudly. A merely
                    // *slow* step is fine: the timeout only re-arms the
                    // liveness check.
                    if self.handles.iter().any(|h| h.is_finished()) {
                        std::process::abort();
                    }
                }
                // Every worker exited mid-round: the same corruption
                // argument as above, with no survivors to wait for.
                Err(mpsc::RecvTimeoutError::Disconnected) => std::process::abort(),
            }
        }
        done
    }

    /// Restores `items` to input order from the index tags carried by
    /// `done`, reusing the restoration scratch.
    fn restore_items(&mut self, n: usize, done: &mut Vec<Shard<T, R>>, items: &mut Vec<T>) {
        self.restore.clear();
        self.restore.resize_with(n, || None);
        for shard in done.iter_mut() {
            for (i, item) in shard.items.drain(..) {
                if let Some(slot) = self.restore.get_mut(i) {
                    *slot = Some(item);
                }
            }
        }
        items.extend(self.restore.drain(..).flatten());
    }
}

impl<T, R> Drop for ShardPool<T, R> {
    fn drop(&mut self) {
        // Closing the job channels ends every worker's receive loop.
        self.txs.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<T, R> std::fmt::Debug for ShardPool<T, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPool")
            .field("workers", &self.txs.len())
            .field("spare", &self.spare.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pool whose finish hook leaves each run as produced.
    fn plain_pool<T, R, F>(workers: usize, step: F) -> ShardPool<T, R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(&mut T, &mut Vec<R>) + Send + Sync + Clone + 'static,
    {
        ShardPool::with_finish(workers, step, |_: &mut Vec<R>| {})
    }

    #[test]
    fn items_come_back_in_input_order() {
        let mut pool: ShardPool<u64, u64> = plain_pool(4, |item: &mut u64, out: &mut Vec<u64>| {
            out.push(*item * 10);
            *item += 1;
        });
        let mut items: Vec<u64> = (0..57).collect();
        let mut runs = Vec::new();
        pool.run_sharded_runs(&mut items, &mut runs);
        let expected: Vec<u64> = (1..58).collect();
        assert_eq!(items, expected, "items must return in input order, each stepped once");
        let mut all: Vec<u64> = runs.concat();
        all.sort_unstable();
        let want: Vec<u64> = (0..57).map(|i| i * 10).collect();
        assert_eq!(all, want, "every item produced its result exactly once");
    }

    #[test]
    fn rounds_reuse_the_pool_and_buffers() {
        let mut pool: ShardPool<u64, u64> =
            plain_pool(3, |item: &mut u64, out: &mut Vec<u64>| out.push(*item));
        let mut items: Vec<u64> = (0..16).collect();
        let mut runs = Vec::new();
        for round in 0..50u64 {
            pool.run_sharded_runs(&mut items, &mut runs);
            assert_eq!(runs.iter().map(Vec::len).sum::<usize>(), 16, "round {round}");
            assert_eq!(items.len(), 16, "round {round}");
        }
        // Shards were recycled: at most one shard set is parked.
        assert!(pool.spare.len() <= 3);
    }

    #[test]
    fn degenerate_shapes_work() {
        let mut pool: ShardPool<u64, u64> =
            plain_pool(8, |item: &mut u64, out: &mut Vec<u64>| out.push(*item));
        let mut empty: Vec<u64> = Vec::new();
        let mut runs = Vec::new();
        pool.run_sharded_runs(&mut empty, &mut runs);
        assert!(runs.is_empty());
        // More workers than items.
        let mut tiny = vec![7u64, 8];
        pool.run_sharded_runs(&mut tiny, &mut runs);
        assert_eq!(tiny, vec![7, 8]);
        let mut all = runs.concat();
        all.sort_unstable();
        assert_eq!(all, vec![7, 8]);
        // Zero workers floors to one.
        let mut single: ShardPool<u64, u64> =
            plain_pool(0, |item: &mut u64, out: &mut Vec<u64>| out.push(*item));
        assert_eq!(single.workers(), 1);
        let mut items = vec![1u64, 2, 3];
        single.run_sharded_runs(&mut items, &mut runs);
        assert_eq!(runs, vec![vec![1, 2, 3]], "single worker steps inline, in order");
    }

    #[test]
    fn stateful_items_accumulate_across_rounds() {
        // The engine's shape: long-lived stateful items (sessions)
        // stepped every round, with results merged downstream.
        struct Counter {
            id: usize,
            ticks: u64,
        }
        let mut pool: ShardPool<Counter, (usize, u64)> =
            plain_pool(4, |c: &mut Counter, out: &mut Vec<(usize, u64)>| {
                c.ticks += 1;
                out.push((c.id, c.ticks));
            });
        let mut items: Vec<Counter> =
            (0..10).map(|id| Counter { id, ticks: 0 }).collect();
        let mut runs = Vec::new();
        let mut results = 0;
        for _ in 0..20 {
            pool.run_sharded_runs(&mut items, &mut runs);
            results += runs.iter().map(Vec::len).sum::<usize>();
        }
        for (i, c) in items.iter().enumerate() {
            assert_eq!(c.id, i, "order preserved");
            assert_eq!(c.ticks, 20, "every round stepped every item once");
        }
        assert_eq!(results, 200);
    }

    #[test]
    fn a_gone_worker_is_stepped_inline_and_order_survives() {
        let mut pool: ShardPool<u64, u64> = ShardPool::with_finish(
            3,
            |item: &mut u64, out: &mut Vec<u64>| {
                out.push(*item * 2);
                *item += 1;
            },
            |run: &mut Vec<u64>| run.sort_unstable(),
        );
        // Cut the first worker off: its job channel closes, so the
        // thread exits (joined here, so the liveness check does not
        // mistake it for a panicked one), and its replacement has no
        // receiver, so every shard sent its way bounces back.
        let (dead_tx, dead_rx) = mpsc::channel();
        drop(dead_rx);
        if let Some(tx) = pool.txs.first_mut() {
            *tx = dead_tx;
        }
        assert!(pool.handles.remove(0).join().is_ok());
        let mut items: Vec<u64> = (0..31).collect();
        let mut runs = Vec::new();
        for _ in 0..3 {
            pool.run_sharded_runs(&mut items, &mut runs);
            assert!(runs.iter().all(|r| r.windows(2).all(|w| w[0] <= w[1])), "finish applied");
        }
        assert_eq!(items, (3..34).collect::<Vec<u64>>(), "input order, three steps each");
        let mut all = runs.concat();
        all.sort_unstable();
        assert_eq!(all, (2..33).map(|i| i * 2).collect::<Vec<u64>>(), "no result lost");
    }

    #[test]
    fn finish_hook_sorts_each_shard_run() {
        // Each item emits a tagged result; the finish hook sorts the
        // shard's buffer, so every returned run must be sorted even
        // though items hit the shard in round-robin order.
        let mut pool: ShardPool<u64, u64> = ShardPool::with_finish(
            4,
            |item: &mut u64, out: &mut Vec<u64>| out.push(1000 - *item),
            |run: &mut Vec<u64>| run.sort_unstable(),
        );
        let mut items: Vec<u64> = (0..97).collect();
        let mut runs: Vec<Vec<u64>> = Vec::new();
        pool.run_sharded_runs(&mut items, &mut runs);
        assert_eq!(items, (0..97).collect::<Vec<u64>>(), "input order preserved");
        assert!(!runs.is_empty() && runs.len() <= 4);
        let mut all = Vec::new();
        for run in &runs {
            assert!(run.windows(2).all(|w| w[0] <= w[1]), "each run pre-sorted");
            all.extend_from_slice(run);
        }
        all.sort_unstable();
        let want: Vec<u64> = (0..97).map(|i| 1000 - i).rev().collect();
        assert_eq!(all, want, "no result lost or duplicated across runs");
    }

    #[test]
    fn run_buffers_recycle_across_rounds() {
        let mut pool: ShardPool<u64, u64> = ShardPool::with_finish(
            3,
            |item: &mut u64, out: &mut Vec<u64>| out.push(*item),
            |run: &mut Vec<u64>| run.sort_unstable(),
        );
        let mut items: Vec<u64> = (0..24).collect();
        let mut runs: Vec<Vec<u64>> = Vec::new();
        for round in 0..40u64 {
            pool.run_sharded_runs(&mut items, &mut runs);
            let total: usize = runs.iter().map(Vec::len).sum();
            assert_eq!(total, 24, "round {round}");
        }
        // Feeding `runs` back each round caps the parked buffers.
        assert!(pool.spare_outs.len() <= 4);
    }

    #[test]
    fn single_worker_runs_path_matches_inline() {
        let mut pool: ShardPool<u64, u64> = ShardPool::with_finish(
            1,
            |item: &mut u64, out: &mut Vec<u64>| out.push(100 - *item),
            |run: &mut Vec<u64>| run.sort_unstable(),
        );
        let mut items: Vec<u64> = (0..9).collect();
        let mut runs: Vec<Vec<u64>> = Vec::new();
        pool.run_sharded_runs(&mut items, &mut runs);
        assert_eq!(runs.len(), 1, "one worker produces one run");
        let run = runs.first().cloned().unwrap_or_default();
        assert_eq!(run, (92..=100).collect::<Vec<u64>>(), "finish applied inline");
    }
}
