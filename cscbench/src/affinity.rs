//! CPU pinning. A run keeps itself and the daemon it spawns on one CPU,
//! so that the host-load kernel (see `calib.rs`) runs on the CPU that
//! runs the work it corrects; the client and the daemon take turns, so
//! one CPU costs them nothing. Only the parallel rows of a traced run are
//! let out onto every CPU.

#[cfg(target_os = "linux")]
mod sys {
    /// Room for 1024 CPUs.
    pub type Mask = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The calling thread's CPU mask.
    pub fn get() -> Option<Mask> {
        let mut mask = [0u64; 16];
        // SAFETY: `mask` is writable for the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    /// Sets the calling thread's CPU mask; threads and processes it
    /// starts later inherit it.
    pub fn set(mask: &Mask) -> bool {
        // SAFETY: `mask` is readable for the size passed.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub type Mask = [u64; 16];

    pub fn get() -> Option<Mask> {
        None
    }

    pub fn set(_: &Mask) -> bool {
        false
    }
}

/// The CPUs the process may use and the one it is pinned to.
pub struct Pin {
    all: sys::Mask,
    one: sys::Mask,
}

impl Pin {
    /// Pins the calling thread to the lowest CPU it may use. `None` when
    /// the mask cannot be read or set; the run then goes unpinned.
    pub fn lowest() -> Option<Pin> {
        let all = sys::get()?;
        let word = all.iter().position(|&w| w != 0)?;
        let mut one = [0u64; 16];
        one[word] = 1 << all[word].trailing_zeros();
        sys::set(&one).then_some(Pin { all, one })
    }

    /// Runs `f` on every CPU the process may use, then pins again.
    pub fn widened<T>(&self, f: impl FnOnce() -> T) -> T {
        sys::set(&self.all);
        let out = f();
        sys::set(&self.one);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_to_one_cpu_and_widens_back() {
        let cpus = || std::thread::available_parallelism().map_or(1, |n| n.get());
        // A thread of its own, so the test harness's threads keep theirs.
        std::thread::spawn(move || {
            let before = cpus();
            let Some(pin) = Pin::lowest() else { return };
            assert_eq!(cpus(), 1);
            assert_eq!(pin.widened(cpus), before);
            assert_eq!(cpus(), 1);
        })
        .join()
        .unwrap();
    }
}
