//! One core per side. The load generator spins on a core of its own and the
//! system under test gets the others.
//!
//! Left to the scheduler, the spinning generator and the server worker it
//! keeps waking are often placed on the same core (wake affinity) and share it
//! until the balancer separates them — a second later, or not at all: the same
//! run then measures half the throughput and a p99 of one scheduler timeslice.
//! Threads and child processes inherit the mask of the thread that creates
//! them, so the benchmark restricts itself to the other side's cores while it
//! spawns that side, and returns to its own afterwards.

/// Which allowed CPUs each side runs on.
#[derive(Debug, Clone)]
pub struct Cores {
    /// The benchmark's own thread: the load generator and the embedded passes.
    pub own: Vec<usize>,
    /// `gsr serve`, and the echo socket that stands in for it.
    pub other: Vec<usize>,
}

impl Cores {
    /// Splits the CPUs this process may run on (`Cpus_allowed_list`): the
    /// first for the benchmark, the rest for the other side. With a single
    /// CPU both sides share it and nothing is pinned.
    pub fn detect() -> Cores {
        let allowed = allowed_cpus();
        match allowed.split_first() {
            Some((first, rest)) if !rest.is_empty() => Cores {
                own: vec![*first],
                other: rest.to_vec(),
            },
            _ => Cores {
                own: allowed.clone(),
                other: allowed,
            },
        }
    }

    /// Restricts the calling thread to its own side.
    pub fn pin_own(&self) {
        pin(&self.own);
    }

    /// Runs `spawn` with the calling thread on the other side's CPUs, so what
    /// it creates inherits them, then returns the thread to its own.
    pub fn spawn_other<T>(&self, spawn: impl FnOnce() -> T) -> T {
        pin(&self.other);
        let out = spawn();
        pin(&self.own);
        out
    }

    /// As [`Cores::spawn_other`], for a child that may use every CPU.
    pub fn spawn_anywhere<T>(&self, spawn: impl FnOnce() -> T) -> T {
        let all: Vec<usize> = self.own.iter().chain(&self.other).copied().collect();
        pin(&all);
        let out = spawn();
        pin(&self.own);
        out
    }
}

fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or("")
        .trim();
    let mut cpus = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

#[cfg(target_os = "linux")]
fn pin(cpus: &[usize]) {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    for &cpu in cpus.iter().filter(|&&c| c < 64 * 16) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    if mask.iter().all(|w| *w == 0) {
        return;
    }
    // SAFETY: `mask` is a live, properly aligned buffer of exactly the size
    // passed; the call only reads it. pid 0 names the calling thread. A
    // failure (a CPU outside the cgroup's set) leaves the mask as it was,
    // which is safe, only noisier.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}

#[cfg(not(target_os = "linux"))]
fn pin(_cpus: &[usize]) {}
