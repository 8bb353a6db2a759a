//! Small measurement helpers: order statistics, process resource usage,
//! and JSON number formatting.

/// Median of `xs` (mean of the two middle values for even lengths);
/// `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `xs`; `0.0` when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; non-finite values (never expected) become `0`.
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0".into()
    }
}

/// `struct rusage` as Linux lays it out on 64-bit targets.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct RUsage {
    utime_sec: i64,
    utime_usec: i64,
    stime_sec: i64,
    stime_usec: i64,
    maxrss_kb: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage_self() -> RUsage {
    let mut ru = RUsage::default();
    // SAFETY: `ru` is a valid, writable `struct rusage` for the duration
    // of the call; getrusage(RUSAGE_SELF) only writes into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    ru
}

/// Whole-process CPU and scheduling counters (exited threads included).
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

impl Usage {
    pub fn now() -> Usage {
        let ru = rusage_self();
        Usage {
            user_s: ru.utime_sec as f64 + ru.utime_usec as f64 * 1e-6,
            sys_s: ru.stime_sec as f64 + ru.stime_usec as f64 * 1e-6,
            ctx_switches: (ru.nvcsw + ru.nivcsw) as u64,
        }
    }

    /// User plus system CPU seconds.
    pub fn cpu_s(self) -> f64 {
        self.user_s + self.sys_s
    }

    /// Counters accrued since `earlier`.
    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    rusage_self().maxrss_kb as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn rusage_reads_something() {
        let u = Usage::now();
        assert!(u.user_s + u.sys_s >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
