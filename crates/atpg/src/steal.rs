//! The one work-stealing fan-out every thread-parallel engine runs on.
//!
//! [`fan_out`] owns the threads: it cuts `n` items into fixed chunks,
//! runs them on at most `min(workers, chunk count)` scoped workers, and
//! hands back one result per chunk **in chunk order**. Each worker keeps
//! one private state (a fault-sim scratch, say) across the chunks it
//! claims; the first `Err` a chunk returns stops further claims.
//!
//! Chunks are dealt by a crate-private `WorkQueue`: chunked claiming plus
//! steal-half-on-exhaustion, so skewed fault universes (the csa16
//! all-pass class is the canonical example — its faults bail out of the
//! kernel immediately, while the first fault of a deep-cone stem pays a
//! stem pass of thousands of gate evaluations) do not leave workers idle
//! while others grind:
//!
//! * chunk boundaries are a pure function of the input, **not** of
//!   scheduling, which is what keeps merged output bit-identical to the
//!   single-worker engine no matter who processes what;
//! * each worker starts with a contiguous span of chunks, packed as
//!   `head:u32 | tail:u32` (half-open, in chunk units) in one
//!   `AtomicU64`, and claims from its own head by CAS;
//! * a worker whose span is empty scans the other spans and steals the
//!   **upper half** of the first non-empty one (CAS the victim's tail
//!   down), installs the remainder as its own span, and bumps the shared
//!   steal counter the scaling benches and the determinism test read.
//!
//! ABA cannot bite: a chunk index is claimed exactly once globally, so a
//! packed `(head, tail)` value can never recur with a different meaning —
//! any successful CAS is a valid transition. A worker retires when one
//! full scan finds every span empty; chunks already claimed but still in
//! flight belong to the worker that claimed them, so early retirement
//! never loses work.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Pack a half-open chunk span `[head, tail)` into one word.
const fn pack(head: u32, tail: u32) -> u64 {
    ((head as u64) << 32) | tail as u64
}

/// Unpack a span word into `(head, tail)`.
#[allow(clippy::cast_possible_truncation)]
const fn unpack(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

/// A chunked work-stealing queue over `n_items` items — the dealer
/// under [`fan_out`], whose effect the engines report as [`StealStats`].
pub(crate) struct WorkQueue {
    chunk_size: usize,
    n_items: usize,
    /// One packed `[head, tail)` span per worker.
    spans: Vec<AtomicU64>,
    /// Successful steals (for the benches and the determinism test).
    steals: AtomicUsize,
}

impl WorkQueue {
    /// Cut `n_items` into chunks of `chunk_size` and deal the chunks out
    /// as contiguous spans, one per worker.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` or `workers` is zero.
    pub fn new(n_items: usize, workers: usize, chunk_size: usize) -> Self {
        assert!(chunk_size >= 1, "chunk size must be positive");
        assert!(workers >= 1, "need at least one worker");
        let n_chunks = n_items.div_ceil(chunk_size);
        assert!(u32::try_from(n_chunks).is_ok(), "chunk count overflows u32");
        let per = n_chunks / workers;
        let rem = n_chunks % workers;
        let mut spans = Vec::with_capacity(workers);
        let mut lo = 0usize;
        for w in 0..workers {
            let len = per + usize::from(w < rem);
            #[allow(clippy::cast_possible_truncation)]
            spans.push(AtomicU64::new(pack(lo as u32, (lo + len) as u32)));
            lo += len;
        }
        debug_assert_eq!(lo, n_chunks);
        WorkQueue {
            chunk_size,
            n_items,
            spans,
            steals: AtomicUsize::new(0),
        }
    }

    /// Total number of chunks dealt out.
    #[cfg(test)]
    fn chunk_count(&self) -> usize {
        self.n_items.div_ceil(self.chunk_size)
    }

    /// Successful steals so far.
    pub fn steals(&self) -> usize {
        self.steals.load(Ordering::SeqCst)
    }

    /// The item range chunk `chunk` covers (the last chunk may be short).
    pub fn item_range(&self, chunk: usize) -> std::ops::Range<usize> {
        let lo = chunk * self.chunk_size;
        lo..((lo + self.chunk_size).min(self.n_items))
    }

    /// Claim the next chunk for `worker`: from its own span head, else by
    /// stealing the upper half of the first non-empty victim span. `None`
    /// after a full scan finds every span empty.
    pub fn pop(&self, worker: usize) -> Option<usize> {
        // Own span first.
        let own = &self.spans[worker];
        let mut v = own.load(Ordering::SeqCst);
        loop {
            let (h, t) = unpack(v);
            if h >= t {
                break;
            }
            match own.compare_exchange_weak(v, pack(h + 1, t), Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return Some(h as usize),
                Err(cur) => v = cur,
            }
        }
        // Exhausted: scan the other spans and steal half.
        let n = self.spans.len();
        for off in 1..n {
            let victim = &self.spans[(worker + off) % n];
            let mut vv = victim.load(Ordering::SeqCst);
            loop {
                let (h, t) = unpack(vv);
                if h >= t {
                    break;
                }
                let avail = t - h;
                let take = avail - avail / 2; // ceil(avail / 2), from the tail
                let new_tail = t - take;
                match victim.compare_exchange_weak(
                    vv,
                    pack(h, new_tail),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                ) {
                    Ok(_) => {
                        self.steals.fetch_add(1, Ordering::SeqCst);
                        // Process the first stolen chunk now; park the
                        // rest as our own (currently empty) span, where
                        // other thieves may in turn find it.
                        if take > 1 {
                            own.store(pack(new_tail + 1, t), Ordering::SeqCst);
                        }
                        return Some(new_tail as usize);
                    }
                    Err(cur) => vv = cur,
                }
            }
        }
        None
    }
}

/// How a [`fan_out`] distributed its work: the observability counters
/// [`simulate_faults_threaded_stats`](crate::simulate_faults_threaded_stats)
/// returns, the scaling benches record and the work-stealing determinism
/// test asserts on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StealStats {
    /// Workers actually run (after clamping to the chunk count).
    pub workers: usize,
    /// Chunks the item list was cut into.
    pub chunks: usize,
    /// Items per chunk (the last chunk may be short).
    pub chunk_size: usize,
    /// Successful steal operations across all workers.
    pub steals: usize,
}

/// Run `body` over `n_items` items cut into chunks of `chunk_size`, on at
/// most `min(workers, chunk count)` workers claiming chunks from a
/// `WorkQueue`, and return the per-chunk results in chunk order.
///
/// Worker `w` builds its private state once with `init(w)` and passes it
/// to `body` for every chunk it claims, together with the chunk's item
/// range. The first `Err` a chunk returns stops further claims. A lone
/// worker runs on the calling thread; more are scoped threads, and a
/// panicking body resumes its panic here.
///
/// `workers` and `chunk_size` are clamped to at least one; a chunk never
/// exceeds the item count.
///
/// # Errors
///
/// An error a chunk's `body` returned: with several failing workers,
/// the one of the lowest-numbered worker.
pub fn fan_out<S, T: Send, E: Send>(
    n_items: usize,
    workers: usize,
    chunk_size: usize,
    init: impl Fn(usize) -> S + Sync,
    body: impl Fn(&mut S, Range<usize>) -> Result<T, E> + Sync,
) -> Result<(Vec<T>, StealStats), E> {
    if n_items == 0 {
        return Ok((Vec::new(), StealStats::default()));
    }
    let chunk_size = chunk_size.clamp(1, n_items);
    let n_chunks = n_items.div_ceil(chunk_size);
    let workers = workers.clamp(1, n_chunks);
    let queue = WorkQueue::new(n_items, workers, chunk_size);
    let stop = AtomicBool::new(false);
    let run = |w: usize| {
        let mut state = init(w);
        let mut done = Vec::new();
        while !stop.load(Ordering::SeqCst) {
            let Some(chunk) = queue.pop(w) else { break };
            match body(&mut state, queue.item_range(chunk)) {
                Ok(t) => done.push((chunk, t)),
                Err(e) => {
                    stop.store(true, Ordering::SeqCst);
                    return Err(e);
                }
            }
        }
        Ok(done)
    };
    let per_worker: Vec<Result<Vec<(usize, T)>, E>> = if workers == 1 {
        vec![run(0)]
    } else {
        std::thread::scope(|s| {
            let run = &run;
            let handles: Vec<_> = (0..workers).map(|w| s.spawn(move || run(w))).collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
    };
    let mut claimed = Vec::with_capacity(n_chunks);
    for done in per_worker {
        claimed.extend(done?);
    }
    debug_assert_eq!(claimed.len(), n_chunks, "every chunk ran once");
    claimed.sort_unstable_by_key(|&(chunk, _)| chunk);
    let results = claimed.into_iter().map(|(_, t)| t).collect();
    let stats = StealStats {
        workers,
        chunks: n_chunks,
        chunk_size,
        steals: queue.steals(),
    };
    Ok((results, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn single_worker_drains_every_chunk_once_in_order() {
        let q = WorkQueue::new(103, 1, 10);
        assert_eq!(q.chunk_count(), 11);
        let claimed: Vec<usize> = std::iter::from_fn(|| q.pop(0)).collect();
        assert_eq!(claimed, (0..11).collect::<Vec<_>>());
        assert_eq!(q.steals(), 0);
        assert_eq!(q.item_range(10), 100..103);
        assert_eq!(q.item_range(0), 0..10);
    }

    #[test]
    fn idle_worker_spans_get_stolen() {
        // Worker 1 never pops; worker 0 must steal its whole span, half
        // at a time, and still see every chunk exactly once.
        let q = WorkQueue::new(64, 2, 4); // 16 chunks, 8 per worker
        let mut seen = vec![false; q.chunk_count()];
        while let Some(c) = q.pop(0) {
            assert!(!seen[c], "chunk {c} claimed twice");
            seen[c] = true;
        }
        assert!(seen.iter().all(|s| *s), "every chunk claimed");
        assert!(q.steals() > 0, "draining an idle peer requires steals");
    }

    #[test]
    fn concurrent_workers_claim_each_chunk_exactly_once() {
        for workers in [2usize, 4, 7] {
            let q = WorkQueue::new(999, workers, 3);
            let counts: Vec<AtomicUsize> =
                (0..q.chunk_count()).map(|_| AtomicUsize::new(0)).collect();
            std::thread::scope(|s| {
                for w in 0..workers {
                    let q = &q;
                    let counts = &counts;
                    s.spawn(move || {
                        while let Some(c) = q.pop(w) {
                            counts[c].fetch_add(1, Ordering::SeqCst);
                            std::thread::yield_now();
                        }
                    });
                }
            });
            for (c, n) in counts.iter().enumerate() {
                assert_eq!(
                    n.load(Ordering::SeqCst),
                    1,
                    "chunk {c} with {workers} workers"
                );
            }
        }
    }

    #[test]
    fn more_workers_than_chunks_leaves_some_spans_empty() {
        let q = WorkQueue::new(3, 8, 2); // 2 chunks, 8 workers
        let mut claimed = Vec::new();
        for w in 0..8 {
            while let Some(c) = q.pop(w) {
                claimed.push(c);
            }
        }
        claimed.sort_unstable();
        assert_eq!(claimed, vec![0, 1]);
    }

    #[test]
    fn fan_out_returns_results_in_chunk_order() {
        for workers in [1usize, 2, 4, 7] {
            let (results, stats) = fan_out(
                1000,
                workers,
                9,
                |_| (),
                |(), range| {
                    // Skewed cost: the first chunks are far heavier, so
                    // later ones finish (and get stolen) out of order.
                    if range.start < 50 {
                        std::thread::sleep(std::time::Duration::from_millis(3));
                    }
                    Ok::<_, ()>(range)
                },
            )
            .expect("no chunk fails");
            assert_eq!(stats.chunks, 112, "workers = {workers}");
            let expected: Vec<_> = (0..112).map(|c| c * 9..(c * 9 + 9).min(1000)).collect();
            assert_eq!(results, expected, "workers = {workers}");
        }
    }

    #[test]
    fn fan_out_stops_claiming_after_the_first_error() {
        let ran = AtomicUsize::new(0);
        let result = fan_out(
            100,
            1,
            10,
            |_| (),
            |(), range| {
                ran.fetch_add(1, Ordering::SeqCst);
                if range.start == 0 {
                    Err("chunk 0 failed")
                } else {
                    Ok(())
                }
            },
        );
        assert_eq!(result.unwrap_err(), "chunk 0 failed");
        assert_eq!(ran.load(Ordering::SeqCst), 1, "no chunk after chunk 0 ran");
    }

    #[test]
    fn fan_out_starts_no_more_workers_than_chunks() {
        // Every started worker builds its state once, so the distinct
        // indices `init` sees count the workers that ran.
        let seen = Mutex::new(std::collections::BTreeSet::new());
        let (results, stats) = fan_out(
            5,
            16,
            2,
            |w| seen.lock().unwrap().insert(w),
            |_, range| Ok::<_, ()>(range.len()),
        )
        .expect("no chunk fails");
        assert_eq!(results, vec![2, 2, 1]);
        assert_eq!(stats.workers, 3);
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen, (0..3).collect(), "16 workers asked, 3 chunks");
    }
}
