//! Thread placement. On the two-hardware-thread reference container
//! the kernel is free to run the load generator and the checking
//! threads on one CPU or on two, decides once per process, and the
//! choice moves the hand-off costs by a factor of two (events written
//! on one CPU and read on the other cross the cache hierarchy). Left
//! alone, every timing is bimodal run to run.
//!
//! So the benchmark fixes the placement the sharded backends are
//! built for: the **load generator** (application thread, producer
//! handle) on the first CPU the process may use, **workers** (checker
//! thread, shard workers, executor pools) on the remaining ones.
//! Threads a layer spawns inherit the mask of the thread that
//! constructs it, so construction runs [`on_workers`]. Threads spawned
//! inside a call the load generator itself makes
//! (`drive_fleet_distributed`'s two session threads) inherit its CPU
//! and are left there. Moved to the workers' CPU as they appeared (by
//! thread id, from a helper thread), `remote_durable` was no faster in
//! the median and bimodal by repetition — 345 or 455 ns per event,
//! frames then waking a reader across CPUs — against 385–395 on one
//! CPU.
//!
//! Pinning is best effort: where the kernel refuses, or off Linux,
//! the run proceeds unpinned and noisier.

use std::sync::OnceLock;

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on right now, ascending; none
/// where the kernel does not say.
fn current() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    #[cfg(target_os = "linux")]
    {
        // SAFETY: `set` is a live, writable 128-byte buffer and the size
        // passed is its size; pid 0 is the calling thread.
        let status = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        if status != 0 {
            set = [0; 16];
        }
    }
    (0..1024).filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1).collect()
}

/// The CPUs this process was allowed when it first asked.
fn allowed() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(current)
}

fn pin(cpus: &[usize]) {
    if cpus.is_empty() {
        return;
    }
    let mut set: CpuSet = [0; 16];
    for &cpu in cpus {
        set[cpu / 64] |= 1 << (cpu % 64);
    }
    #[cfg(target_os = "linux")]
    {
        // SAFETY: `set` is a live 128-byte buffer and the size passed
        // is its size; pid 0 is the calling thread. A refusal leaves
        // the thread's mask as it was.
        let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    }
}

/// Pins the calling thread to the load generator's CPU.
pub fn load_generator() {
    pin(&allowed()[..allowed().len().min(1)]);
}

/// Pins the calling thread to the workers' CPUs: every allowed CPU but
/// the load generator's, or that one when there is no other.
pub fn workers() {
    let allowed = allowed();
    pin(if allowed.len() > 1 { &allowed[1..] } else { allowed });
}

/// Runs `construct` with the workers' mask, so the threads it spawns
/// inherit it, then returns the calling thread to the load
/// generator's CPU.
pub fn on_workers<R>(construct: impl FnOnce() -> R) -> R {
    workers();
    let built = construct();
    load_generator();
    built
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn placement_partitions_the_allowed_cpus_and_spawned_threads_inherit() {
        // Own thread: the test harness's threads keep their masks.
        std::thread::spawn(|| {
            let all = allowed().to_vec();
            assert!(!all.is_empty());
            load_generator();
            assert_eq!(current(), all[..1]);
            let inherited = on_workers(|| std::thread::spawn(current).join().unwrap());
            assert_eq!(inherited, if all.len() > 1 { all[1..].to_vec() } else { all.clone() });
            assert_eq!(current(), all[..1], "back on the load generator's CPU");
        })
        .join()
        .unwrap();
    }
}
