//! Order-preserving parallel map over scoped threads.
//!
//! This is the primitive under the experiment batch runner: a fixed pool
//! of `std::thread::scope` workers pulls item indices from a shared
//! atomic counter, writes each result into the slot matching its input
//! index, and the caller gets results back in input order — so a
//! parallel run is observationally identical to the sequential one as
//! long as `f` itself is a pure function of its item. No work stealing,
//! no channels, no dependencies beyond `std`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Map `f` over `items` on `workers` threads, preserving input order.
///
/// With `workers == 1` the items run on the calling thread in order —
/// the reference behaviour the parallel path is tested against. A panic
/// in `f` propagates to the caller (scoped threads join on scope exit).
pub fn par_map<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.max(1).min(items.len().max(1));
    if workers == 1 {
        return items.iter().map(&f).collect();
    }

    let n = items.len();
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // Buffer locally; take the lock once per worker, not per
                // item, so the pool never serializes on result stores.
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, f(&items[i])));
                }
                collected.lock().expect("a worker panicked").extend(local);
            });
        }
    });

    let mut collected = collected.into_inner().expect("a worker panicked");
    collected.sort_by_key(|&(i, _)| i);
    debug_assert!(collected.iter().enumerate().all(|(k, &(i, _))| k == i));
    collected.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map(items.clone(), 8, |&x| x * x);
        let expect: Vec<u64> = items.iter().map(|&x| x * x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn one_worker_equals_many() {
        let items: Vec<u64> = (0..57).collect();
        let seq = par_map(items.clone(), 1, |&x| {
            x.wrapping_mul(0x9E3779B9).rotate_left(7)
        });
        let par = par_map(items, 5, |&x| x.wrapping_mul(0x9E3779B9).rotate_left(7));
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_input() {
        let out: Vec<u64> = par_map(Vec::<u64>::new(), 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_items() {
        let out = par_map(vec![1u64, 2], 16, |&x| x + 1);
        assert_eq!(out, vec![2, 3]);
    }
}
