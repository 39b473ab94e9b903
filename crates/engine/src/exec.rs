//! Parallel, resumable, cache-backed execution of experiment cells.
//!
//! Every figure in the paper averages 40 independent runs of one parameter
//! setting "to factor out randomness in the initial placements of the
//! agents". [`Executor::run_cells`] runs those replicates across worker
//! threads, and its central guarantee is that results come back indexed
//! by replicate, so output is bit-identical no matter how work was
//! scheduled. On top of that it provides:
//!
//! * **Global work gating.** All `run_cells` calls on one executor share a
//!   single permit pool of `jobs` slots, so a driver may run many
//!   experiments concurrently (one thread per experiment) and the flattened
//!   stream of (experiment × parameter × replicate) cells still occupies at
//!   most `jobs` cores at a time.
//! * **Persistent results.** With a [`ResultCache`] attached, every computed
//!   cell is written to disk; with resume reads enabled, cached cells are
//!   loaded instead of recomputed. Because cached values round-trip floats
//!   bit-exactly, a resumed run produces byte-identical reports.
//! * **Observability.** An optional event sink receives one
//!   [`RunEvent::CellFinished`] per cell, carrying whether it was a cache
//!   hit and how long it took — enough for live progress and a final
//!   metrics table without touching the report path.

use crate::cache::ResultCache;
use crate::rng::SeedSequence;
use crossbeam::channel;
use serde::{Deserialize, Serialize};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Structured trace event emitted by the executor.
#[derive(Clone, Debug)]
pub enum RunEvent {
    /// One replicate cell finished (computed or served from cache).
    CellFinished {
        /// Experiment the cell belongs to.
        experiment: String,
        /// Replicate index within its group.
        replicate: usize,
        /// The cell's derived RNG seed (its cache identity).
        seed: u64,
        /// `true` when the value came from the result cache.
        cached: bool,
        /// Wall-clock cost of producing the value, in microseconds.
        micros: u64,
        /// Of `micros`, how long the cell waited for a worker permit
        /// before computing (queue pressure; 0 for cache hits).
        wait_micros: u64,
    },
}

/// Counting semaphore over a std `Mutex` and `Condvar`, sized once at
/// executor construction.
struct Permits {
    available: Mutex<usize>,
    signal: Condvar,
}

impl Permits {
    fn new(count: usize) -> Self {
        Permits { available: Mutex::new(count.max(1)), signal: Condvar::new() }
    }

    fn acquire(&self) -> PermitGuard<'_> {
        let mut available = self.available.lock().expect("permit mutex poisoned");
        while *available == 0 {
            available = self.signal.wait(available).expect("permit mutex poisoned");
        }
        *available -= 1;
        PermitGuard { permits: self }
    }
}

/// Releases its permit on drop, including during unwinding, so a
/// panicking cell never starves the pool.
struct PermitGuard<'a> {
    permits: &'a Permits,
}

impl Drop for PermitGuard<'_> {
    fn drop(&mut self) {
        if let Ok(mut available) = self.permits.available.lock() {
            *available += 1;
            self.permits.signal.notify_one();
        }
    }
}

/// Schedules experiment cells across worker threads with an optional
/// persistent cache and event sink. Shared by reference between
/// experiment threads; all configuration happens up front via the
/// builder methods.
pub struct Executor {
    jobs: usize,
    cache: Option<ResultCache>,
    resume: bool,
    permits: Permits,
    sink: Option<channel::Sender<RunEvent>>,
}

impl Executor {
    /// Creates an executor running at most `jobs` cells concurrently
    /// across *all* of its `run_cells` calls. `jobs == 0` means "one
    /// per available core".
    pub fn new(jobs: usize) -> Self {
        let jobs = if jobs == 0 {
            std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
        } else {
            jobs
        };
        Executor { jobs, cache: None, resume: false, permits: Permits::new(jobs), sink: None }
    }

    /// A one-cell-at-a-time executor with no cache and no sink — the
    /// configuration whose output every other configuration must match.
    pub fn serial() -> Self {
        Executor::new(1)
    }

    /// Attaches a result cache. Computed cells are always stored;
    /// `resume` additionally enables reading existing entries instead
    /// of recomputing.
    pub fn with_cache(mut self, cache: ResultCache, resume: bool) -> Self {
        self.cache = Some(cache);
        self.resume = resume;
        self
    }

    /// Attaches an event sink; one [`RunEvent`] is sent per finished
    /// cell. Dropping the executor drops its sender, ending the
    /// receiver's iteration.
    pub fn with_event_sink(mut self, sink: channel::Sender<RunEvent>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// The concurrency limit this executor was built with.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    fn emit(
        &self,
        experiment: &str,
        replicate: usize,
        seed: u64,
        cached: bool,
        micros: u64,
        wait_micros: u64,
    ) {
        if let Some(sink) = &self.sink {
            let _ = sink.send(RunEvent::CellFinished {
                experiment: experiment.to_string(),
                replicate,
                seed,
                cached,
                micros,
                wait_micros,
            });
        }
    }

    /// Runs `runs` replicate cells of `job` and returns their results
    /// in replicate order.
    ///
    /// Each cell `i` receives `seeds.child(i)`, an independent random
    /// stream, so the returned vector is identical to a serial run for
    /// every `jobs` setting and cache state. `config_hash` (see
    /// [`crate::cache::hash_config`]) identifies the group's
    /// configuration for cache addressing.
    pub fn run_cells<T, F>(
        &self,
        experiment: &str,
        config_hash: u64,
        runs: usize,
        seeds: SeedSequence,
        job: F,
    ) -> Vec<T>
    where
        T: Serialize + Deserialize + Send,
        F: Fn(usize, SeedSequence) -> T + Sync,
    {
        let mut slots: Vec<Option<T>> = (0..runs).map(|_| None).collect();

        // Phase 1: serve what the cache already has.
        let mut misses: Vec<usize> = Vec::with_capacity(runs);
        for (i, slot) in slots.iter_mut().enumerate() {
            let key = ResultCache::key_for(experiment, config_hash, seeds, i);
            let hit = if self.resume {
                self.cache.as_ref().and_then(|c| c.load::<T>(&key))
            } else {
                None
            };
            match hit {
                Some(value) => {
                    self.emit(experiment, i, key.seed, true, 0, 0);
                    *slot = Some(value);
                }
                None => misses.push(i),
            }
        }

        // Phase 2: compute the misses, at most `jobs` at a time
        // globally. A single local worker still goes through the permit
        // pool so concurrent experiments cannot oversubscribe it.
        let compute = |i: usize| -> T {
            let key = ResultCache::key_for(experiment, config_hash, seeds, i);
            // Measures per-cell wall time for the stderr trace only; it
            // never enters results.
            // agentlint::allow(no-ambient-entropy)
            let started = Instant::now();
            let (value, wait_micros) = {
                let _permit = self.permits.acquire();
                let wait_micros = started.elapsed().as_micros() as u64;
                (job(i, seeds.child(i as u64)), wait_micros)
            };
            let micros = started.elapsed().as_micros() as u64;
            if let Some(cache) = &self.cache {
                if let Err(err) = cache.store(&key, &value) {
                    eprintln!("warning: cache write failed for {experiment}: {err}");
                }
            }
            self.emit(experiment, i, key.seed, false, micros, wait_micros);
            value
        };

        let workers = self.jobs.min(misses.len());
        if workers <= 1 {
            for i in misses {
                slots[i] = Some(compute(i));
            }
        } else {
            let next = AtomicUsize::new(0);
            let (tx, rx) = channel::unbounded::<(usize, T)>();
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    let tx = tx.clone();
                    let next = &next;
                    let misses = &misses;
                    let compute = &compute;
                    scope.spawn(move || loop {
                        // Ticket counter: only atomicity matters, the
                        // scope exit is the visibility barrier for the
                        // results. agentlint::allow(no-relaxed-atomics)
                        let slot = next.fetch_add(1, Ordering::Relaxed);
                        if slot >= misses.len() {
                            break;
                        }
                        let i = misses[slot];
                        if tx.send((i, compute(i))).is_err() {
                            break;
                        }
                    });
                }
                drop(tx);
                for (i, value) in rx {
                    slots[i] = Some(value);
                }
            });
        }

        slots.into_iter().map(|s| s.expect("executor worker dropped a cell")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("agentnet-exec-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_job(i: usize, seeds: SeedSequence) -> f64 {
        let mut rng = seeds.rng();
        (0..50).map(|_| rng.random_range(0.0..1.0)).sum::<f64>() + i as f64
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let seeds = SeedSequence::new(2010).child(77);
        for runs in [0, 1, 24] {
            let serial = Executor::serial().run_cells("t", 1, runs, seeds, sample_job);
            assert_eq!(serial.len(), runs);
            for jobs in [2, 4, 7] {
                let parallel = Executor::new(jobs).run_cells("t", 1, runs, seeds, sample_job);
                assert_eq!(parallel.len(), runs);
                let same = serial.iter().zip(&parallel).all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "runs={runs} jobs={jobs} diverged from serial");
            }
        }
    }

    #[test]
    fn second_run_is_all_cache_hits_and_identical() {
        let root = tmpdir("hits");
        let seeds = SeedSequence::new(1).child(1);

        let first = Executor::new(2)
            .with_cache(ResultCache::new(&root), true)
            .run_cells("exp", 4, 12, seeds, sample_job);

        let (tx, rx) = channel::unbounded();
        let exec = Executor::new(2).with_cache(ResultCache::new(&root), true).with_event_sink(tx);
        let second = exec.run_cells("exp", 4, 12, seeds, sample_job);
        drop(exec);

        assert_eq!(first, second);
        let events: Vec<RunEvent> = rx.iter().collect();
        assert_eq!(events.len(), 12);
        let hits = events.iter().filter(|RunEvent::CellFinished { cached, .. }| *cached).count();
        assert_eq!(hits, 12, "second run should be served entirely from cache");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn without_resume_cache_is_write_only() {
        let root = tmpdir("writeonly");
        let seeds = SeedSequence::new(1).child(2);
        Executor::serial()
            .with_cache(ResultCache::new(&root), false)
            .run_cells("exp", 4, 3, seeds, sample_job);

        let (tx, rx) = channel::unbounded();
        let exec =
            Executor::serial().with_cache(ResultCache::new(&root), false).with_event_sink(tx);
        exec.run_cells("exp", 4, 3, seeds, sample_job);
        drop(exec);
        let hits = rx.iter().filter(|RunEvent::CellFinished { cached, .. }| *cached).count();
        assert_eq!(hits, 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn resume_after_mid_run_kill_recomputes_only_the_tail() {
        let root = tmpdir("resume");
        let seeds = SeedSequence::new(6).child(4);
        let runs = 10;
        let die_at = 6usize;

        // Simulate a kill: the job panics after `die_at` cells have been
        // computed and persisted. Serial order makes the cut exact.
        let exec = Executor::serial().with_cache(ResultCache::new(&root), true);
        let interrupted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec.run_cells("exp", 2, runs, seeds, |i, s| {
                assert!(i < die_at, "simulated kill");
                sample_job(i, s)
            })
        }));
        assert!(interrupted.is_err());
        drop(exec);

        let (tx, rx) = channel::unbounded();
        let exec = Executor::new(3).with_cache(ResultCache::new(&root), true).with_event_sink(tx);
        let resumed = exec.run_cells("exp", 2, runs, seeds, sample_job);
        drop(exec);

        let hits = rx.iter().filter(|RunEvent::CellFinished { cached, .. }| *cached).count();
        assert_eq!(hits, die_at, "finished cells must not be recomputed");
        let fresh = Executor::serial().run_cells("exp", 2, runs, seeds, sample_job);
        assert_eq!(resumed, fresh);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupted_cache_entry_falls_back_to_recompute() {
        let root = tmpdir("corrupt");
        let seeds = SeedSequence::new(9).child(9);
        Executor::serial()
            .with_cache(ResultCache::new(&root), true)
            .run_cells("exp", 8, 4, seeds, sample_job);

        // Garble one entry on disk.
        let dir = root.join("exp");
        let victim = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        std::fs::write(&victim, "{not json").unwrap();

        let (tx, rx) = channel::unbounded();
        let exec = Executor::serial().with_cache(ResultCache::new(&root), true).with_event_sink(tx);
        let resumed = exec.run_cells("exp", 8, 4, seeds, sample_job);
        drop(exec);

        let hits = rx.iter().filter(|RunEvent::CellFinished { cached, .. }| *cached).count();
        assert_eq!(hits, 3, "three intact entries hit, one recomputes");
        let fresh = Executor::serial().run_cells("exp", 8, 4, seeds, sample_job);
        assert_eq!(resumed, fresh);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn global_permits_gate_concurrent_run_cells_calls() {
        // Two experiment threads share a jobs=1 executor; at no point
        // may two cells run simultaneously.
        let exec = Executor::new(1);
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..2u64 {
                let exec = &exec;
                let in_flight = &in_flight;
                let peak = &peak;
                scope.spawn(move || {
                    exec.run_cells("g", t, 6, SeedSequence::new(t).child(0), |_, _| {
                        let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(2));
                        in_flight.fetch_sub(1, Ordering::SeqCst);
                        0.0f64
                    });
                });
            }
        });
        assert_eq!(peak.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn events_carry_wait_within_total_micros() {
        let (tx, rx) = channel::unbounded();
        let exec = Executor::new(2).with_event_sink(tx);
        exec.run_cells("w", 0, 6, SeedSequence::new(3).child(0), sample_job);
        drop(exec);
        let events: Vec<RunEvent> = rx.iter().collect();
        assert_eq!(events.len(), 6);
        for RunEvent::CellFinished { cached, micros, wait_micros, .. } in &events {
            assert!(!cached, "no cache attached");
            assert!(wait_micros <= micros, "permit wait is part of the cell's wall time");
        }
    }

    #[test]
    fn zero_jobs_means_available_parallelism() {
        assert!(Executor::new(0).jobs() >= 1);
    }

    #[test]
    fn deterministic_across_invocations_with_random_payloads() {
        let job = |_: usize, seeds: SeedSequence| -> u64 { seeds.rng().random() };
        // u64 payloads exercise the non-f64 serialization path too.
        let a = Executor::new(3).run_cells("d", 0, 16, SeedSequence::new(5), job);
        let b = Executor::serial().run_cells("d", 0, 16, SeedSequence::new(5), job);
        assert_eq!(a, b);

        // Cell `i` runs on `child(i)` (a lone cell on `child(0)`), so
        // every replicate draws from a stream of its own.
        let root = SeedSequence::new(1);
        for runs in [1, 32] {
            let seeds = Executor::new(3).run_cells("d", 1, runs, root, |_, s| s.seed());
            let expected: Vec<u64> = (0..runs as u64).map(|i| root.child(i).seed()).collect();
            assert_eq!(seeds, expected);
            let mut distinct = seeds.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), runs);
        }
    }
}
