//! Offline stand-in for `scoped_threadpool`, covering the subset this
//! workspace uses: [`Pool::new`], [`Pool::scoped`] and [`Scope::execute`].
//!
//! The real crate keeps worker threads alive between `scoped` calls; this
//! stand-in spawns them per scope via [`std::thread::scope`] (std has had
//! sound scoped threads since 1.63, which is exactly what the real crate
//! predates). Closures queued with `execute` are distributed to `threads`
//! workers through a shared atomic cursor. Semantics relevant to callers
//! are identical: every closure runs to completion before `scoped`
//! returns, closures may borrow from the enclosing stack frame, and a
//! panicking closure propagates the panic out of `scoped`.
//!
//! Determinism note: closures run concurrently, so any shared-state
//! side effects are unordered — callers must write results into disjoint,
//! index-addressed slots, which makes the outcome independent of thread
//! interleaving.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A pool of `threads` scoped workers.
#[derive(Debug)]
pub struct Pool {
    threads: u32,
}

impl Pool {
    /// A pool that runs scoped jobs on `threads` worker threads. Zero is
    /// clamped to one.
    pub fn new(threads: u32) -> Pool {
        Pool {
            threads: threads.max(1),
        }
    }

    /// Number of worker threads.
    pub fn thread_count(&self) -> u32 {
        self.threads
    }

    /// Run `f` with a [`Scope`] that can queue borrowing closures; returns
    /// once every queued closure has finished. With one thread (or when
    /// nothing is queued) everything runs on the calling thread — no
    /// spawn overhead for the sequential case.
    pub fn scoped<'scope, F, R>(&mut self, f: F) -> R
    where
        F: FnOnce(&Scope<'scope>) -> R,
    {
        let scope = Scope {
            jobs: Mutex::new(Vec::new()),
        };
        let out = f(&scope);
        let jobs = scope.jobs.into_inner().unwrap();
        if jobs.is_empty() {
            return out;
        }
        if self.threads == 1 {
            for job in jobs {
                job();
            }
            return out;
        }
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Job<'scope>>>> =
            jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let workers = (self.threads as usize).min(slots.len());
        let panic = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let slot = slots.get(i)?;
                        let job = slot.lock().unwrap().take().expect("job taken once");
                        if let Err(p) = catch_unwind(AssertUnwindSafe(job)) {
                            return Some(p);
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .filter_map(|h| h.join().expect("worker thread panicked outside a job"))
                .next()
        });
        if let Some(p) = panic {
            resume_unwind(p);
        }
        out
    }
}

type Job<'scope> = Box<dyn FnOnce() + Send + 'scope>;

/// Handle for queueing closures inside [`Pool::scoped`].
pub struct Scope<'scope> {
    jobs: Mutex<Vec<Job<'scope>>>,
}

impl<'scope> Scope<'scope> {
    /// Queue `f` to run on a pool worker before `scoped` returns.
    pub fn execute<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.jobs.lock().unwrap().push(Box::new(f));
    }
}

/// Persistent-worker plumbing for long-lived coordinator/worker pipelines
/// (the sharded simulation engine): each [`plumbing::WorkerHandle`] owns
/// one named thread fed through an in-order channel and joined on drop.
/// Unlike [`Pool::scoped`], the worker thread *persists* across commands,
/// so it can own thread-affine state (e.g. protocol instances whose
/// interned paths live in a thread-local arena) for the whole run.
pub mod plumbing {
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::thread::JoinHandle;

    /// A persistent worker thread with an in-order command channel.
    ///
    /// Dropping the handle closes the channel (the worker's receive loop
    /// should then return) and joins the thread, propagating any panic.
    #[derive(Debug)]
    pub struct WorkerHandle<C> {
        tx: Option<Sender<C>>,
        handle: Option<JoinHandle<()>>,
    }

    impl<C: Send + 'static> WorkerHandle<C> {
        /// Spawn a named worker running `body` over its command receiver.
        /// `body` should loop on `recv()` and return when the channel
        /// disconnects.
        pub fn spawn<F>(name: String, body: F) -> WorkerHandle<C>
        where
            F: FnOnce(Receiver<C>) + Send + 'static,
        {
            let (tx, rx) = channel();
            let handle = std::thread::Builder::new()
                .name(name)
                .spawn(move || body(rx))
                .expect("spawning worker thread");
            WorkerHandle {
                tx: Some(tx),
                handle: Some(handle),
            }
        }

        /// Enqueue one command. Panics if the worker died (its loop exited
        /// or panicked) — the join on drop then surfaces the real cause.
        pub fn send(&self, cmd: C) {
            self.tx
                .as_ref()
                .expect("worker already shut down")
                .send(cmd)
                .expect("worker thread hung up");
        }
    }

    impl<C> Drop for WorkerHandle<C> {
        fn drop(&mut self) {
            drop(self.tx.take());
            if let Some(h) = self.handle.take() {
                if let Err(p) = h.join() {
                    std::panic::resume_unwind(p);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_processes_commands_in_order_and_joins_on_drop() {
        use std::sync::mpsc::channel;
        let (out_tx, out_rx) = channel();
        let w = plumbing::WorkerHandle::spawn("test-worker".into(), move |rx| {
            while let Ok(v) = rx.recv() {
                out_tx.send(v * 2).unwrap();
            }
        });
        for i in 0..10u64 {
            w.send(i);
        }
        drop(w);
        let got: Vec<u64> = out_rx.iter().collect();
        assert_eq!(got, (0..10).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn runs_all_jobs_and_borrows_stack() {
        let mut results = vec![0u64; 64];
        let mut pool = Pool::new(4);
        pool.scoped(|scope| {
            for (i, slot) in results.iter_mut().enumerate() {
                scope.execute(move || *slot = (i as u64) * 3);
            }
        });
        assert!(results
            .iter()
            .enumerate()
            .all(|(i, &v)| v == (i as u64) * 3));
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let mut hits = 0u32;
        Pool::new(1).scoped(|scope| {
            scope.execute(|| hits += 1);
        });
        assert_eq!(hits, 1);
        assert_eq!(Pool::new(0).thread_count(), 1);
    }

    #[test]
    fn returns_scope_closure_value() {
        let mut pool = Pool::new(2);
        let v = pool.scoped(|_| 42);
        assert_eq!(v, 42);
    }

    #[test]
    fn job_panic_propagates() {
        let mut pool = Pool::new(2);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scoped(|scope| {
                scope.execute(|| panic!("boom"));
                scope.execute(|| {});
            });
        }));
        assert!(caught.is_err());
    }
}
