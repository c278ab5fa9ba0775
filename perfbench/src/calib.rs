//! Host-speed probe. On a shared machine the same build runs up to 3×
//! faster or slower from one few-minute stretch to the next, in CPU time
//! as well as wall time. The probe times a fixed task that uses no code of
//! the repository — float formatting and parsing over a cache-resident
//! buffer, then passes over a 2 MB buffer that does not stay in cache — on
//! every core at once, so a run can state its times at a reference host
//! speed, and a change to the service cannot move the probe. The probe
//! runs only while the service is idle: before each set-up, and during the
//! load while [`Quiesce`] holds every connection between two calls.

use std::hint::black_box;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// The probe's wall time, in ms, on the reference host: a typical median
/// reading on the shared 2-core machine the benchmark was built on. Only
/// ratios to it matter.
pub const REFERENCE_MS: f64 = 3.0;

/// The cache-resident half of the probe task.
fn compute() {
    let mut acc = 0.0f64;
    for i in 0..2_000u32 {
        let text = format!("{}", f64::from(i) * 1.000_000_7 + 0.1);
        acc += text.parse::<f64>().unwrap_or(0.0);
    }
    let mut buf = vec![0u64; 1 << 15];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..8 {
        for v in buf.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v = v.wrapping_add(x);
        }
    }
    black_box((acc, &buf));
}

/// Words of each core's memory buffer: 2 MB, the size of a few of the
/// 2^16-cell vectors a range release streams.
const MEMORY_WORDS: usize = 1 << 18;

/// The memory half of the probe task: the service's own work between two
/// probes evicts `buf` from the caches, so this half reads the memory
/// bandwidth the host leaves the guest.
fn memory(buf: &mut [u64]) {
    for _ in 0..4 {
        for v in buf.iter_mut() {
            *v = v.wrapping_mul(3).wrapping_add(1);
        }
        black_box(&buf);
    }
}

/// One probe: a copy of the task per core, run at once.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    /// Wall time of the whole probe, ms: the slowest core sets it, as it
    /// does for a request fanned out over the cores.
    pub wall_ms: f64,
    /// The slowest core's time in each half of the task, ms, so a run
    /// record shows which kind of host slowdown it met.
    pub compute_ms: f64,
    pub memory_ms: f64,
}

/// Wall time (ms) of one probe.
pub fn probe_ms() -> f64 {
    probe().wall_ms
}

/// Runs one probe.
pub fn probe() -> Reading {
    // Kept across probes, so the memory half never pays for page faults.
    static BUFFERS: Mutex<Vec<Vec<u64>>> = Mutex::new(Vec::new());
    let mut buffers = BUFFERS.lock().unwrap_or_else(PoisonError::into_inner);
    buffers.resize_with(rayon::current_num_threads(), || vec![1u64; MEMORY_WORDS]);
    let start = Instant::now();
    let parts: Vec<(f64, f64)> = std::thread::scope(|s| {
        let copies: Vec<_> = buffers
            .iter_mut()
            .map(|buf| {
                s.spawn(move || {
                    let t = Instant::now();
                    compute();
                    let c = t.elapsed().as_secs_f64() * 1e3;
                    let t = Instant::now();
                    memory(buf);
                    (c, t.elapsed().as_secs_f64() * 1e3)
                })
            })
            .collect();
        copies
            .into_iter()
            .map(|c| c.join().expect("probe runs"))
            .collect()
    });
    Reading {
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        compute_ms: parts.iter().map(|p| p.0).fold(0.0, f64::max),
        memory_ms: parts.iter().map(|p| p.1).fold(0.0, f64::max),
    }
}

/// CPU time (user + system, all threads) this process has used, in
/// seconds. Time the host steals from the guest is not counted.
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesized command name; utime and stime
            // are the 14th and 15th fields of the line, in ticks of
            // 1/100 s (Linux's USER_HZ).
            let rest = s.get(s.rfind(')')? + 2..)?;
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some((f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?) / 100.0)
        })
        .unwrap_or(0.0)
}

/// Lets the host probe run while every connection waits between calls.
pub struct Quiesce {
    state: Mutex<State>,
    changed: Condvar,
}

struct State {
    paused: bool,
    parked: usize,
    running: usize,
}

impl Quiesce {
    pub fn new(connections: usize) -> Quiesce {
        Quiesce {
            state: Mutex::new(State {
                paused: false,
                parked: 0,
                running: connections,
            }),
            changed: Condvar::new(),
        }
    }

    /// Every update of the state is a single field write, so a panic
    /// elsewhere never leaves it invalid and the guard is recovered.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, guard: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.changed
            .wait(guard)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Called by a connection between two calls: waits while a probe runs.
    pub fn checkpoint(&self) {
        let mut s = self.lock();
        if !s.paused {
            return;
        }
        s.parked += 1;
        self.changed.notify_all();
        while s.paused {
            s = self.wait(s);
        }
        s.parked -= 1;
    }

    /// Called once by a connection that sends no more calls.
    pub fn leave(&self) {
        self.lock().running -= 1;
        self.changed.notify_all();
    }

    /// Waits until every running connection is parked, runs `f`, then lets
    /// them go. Returns `None` once every connection has left.
    pub fn run<T>(&self, f: impl FnOnce() -> T) -> Option<T> {
        let mut s = self.lock();
        if s.running == 0 {
            return None;
        }
        s.paused = true;
        while s.parked < s.running {
            s = self.wait(s);
        }
        drop(s);
        let _resume = Resume(self);
        Some(f())
    }
}

/// Lets the connections go when dropped, even if the probe panicked.
struct Resume<'a>(&'a Quiesce);

impl Drop for Resume<'_> {
    fn drop(&mut self) {
        self.0.lock().paused = false;
        self.0.changed.notify_all();
    }
}

/// Leaves the [`Quiesce`] when dropped, so a connection that stops for any
/// reason never holds the probe up.
pub struct Member<'a>(pub &'a Quiesce);

impl Drop for Member<'_> {
    fn drop(&mut self) {
        self.0.leave();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn probe_runs_only_while_every_connection_is_parked() {
        let q = Quiesce::new(2);
        let in_call = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let probes = std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let _member = Member(&q);
                    while !stop.load(Ordering::SeqCst) {
                        q.checkpoint();
                        in_call.fetch_add(1, Ordering::SeqCst);
                        std::hint::black_box(probe_ms());
                        in_call.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
            let mut probes = 0;
            for _ in 0..20 {
                q.run(|| assert_eq!(in_call.load(Ordering::SeqCst), 0))
                    .expect("connections are running");
                probes += 1;
            }
            stop.store(true, Ordering::SeqCst);
            probes
        });
        assert_eq!(probes, 20);
        assert!(q.run(|| ()).is_none(), "no connection is left");
    }
}
