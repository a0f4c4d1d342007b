//! CPU placement. On a shared virtual machine one vCPU can run the same
//! code 20% slower than another (measured on a shared 2-vCPU x86-64
//! container), and the scheduler keeps a single-threaded
//! process on one CPU for a whole run. So rounds rotate over the CPUs the
//! process may use, and timings are summarized per CPU (see
//! [`balanced_median`]): a run measures every CPU equally instead of
//! whichever one it happened to land on.
//!
//! Pinning goes through the raw `sched_getaffinity`/`sched_setaffinity`
//! system calls, since no libc binding is available offline. Elsewhere,
//! or when a call fails, nothing is pinned and every sample counts as
//! CPU 0.

use std::collections::BTreeMap;

use crate::median;

/// Bytes of CPU mask passed to the kernel: room for 1024 CPUs.
const MASK_WORDS: usize = 16;

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn affinity_syscall(nr: usize, mask: &mut [u64; MASK_WORDS]) -> isize {
    let ret: isize;
    // SAFETY: sched_getaffinity (204) writes and sched_setaffinity (203)
    // reads at most `size_of_val(mask)` bytes at `mask`, which is a live,
    // exclusively borrowed buffer of exactly that size for the whole
    // call. Pid 0 names the calling thread; the calls touch no other
    // memory. `syscall` clobbers rcx and r11, declared below.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") nr => ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of_val(mask),
            in("rdx") mask.as_mut_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn affinity_syscall(_nr: usize, _mask: &mut [u64; MASK_WORDS]) -> isize {
    -1
}

/// The CPUs this thread may run on, ascending (empty when unknown).
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    if affinity_syscall(204, &mut mask) <= 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restrict the calling thread (and threads it creates later) to `cpu`.
/// Returns whether the kernel accepted it.
pub fn pin(cpu: usize) -> bool {
    restrict(&[cpu])
}

/// Restrict the calling thread (and threads it creates later) to `cpus`.
/// Returns whether the kernel accepted it.
pub fn restrict(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &c in cpus {
        if c >= MASK_WORDS * 64 {
            return false;
        }
        mask[c / 64] |= 1 << (c % 64);
    }
    !cpus.is_empty() && affinity_syscall(203, &mut mask) == 0
}

/// Median per CPU, then the mean of those medians: a figure that does not
/// depend on how many samples each CPU happened to take.
pub fn balanced_median(samples: &[(usize, f64)]) -> f64 {
    let mut by_cpu: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(cpu, x) in samples {
        by_cpu.entry(cpu).or_default().push(x);
    }
    if by_cpu.is_empty() {
        return 0.0;
    }
    by_cpu.values().map(|xs| median(xs)).sum::<f64>() / by_cpu.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_median_weighs_cpus_equally() {
        // Three fast samples on CPU 1 and one slow one on CPU 0.
        let s = [(1, 1.0), (1, 1.2), (0, 2.0), (1, 1.1)];
        assert!((balanced_median(&s) - 1.55).abs() < 1e-12);
        assert_eq!(balanced_median(&[]), 0.0);
    }

    #[test]
    fn pinning_round_trips_on_linux() {
        let cpus = allowed_cpus();
        if let Some(&last) = cpus.last() {
            assert!(pin(last));
            assert_eq!(allowed_cpus(), vec![last]);
            assert!(restrict(&cpus));
            assert_eq!(allowed_cpus(), cpus);
        }
    }
}
