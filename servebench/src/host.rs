//! What the benchmark reads from `/proc`: the host fingerprint, the CPU
//! steal share over a run, and a process's CPU time and peak RSS.

use obase_ser::Json;
use std::fs;

/// Machine fingerprint plus `/proc/stat` counters at the start of a run.
pub struct Host {
    nproc: usize,
    cpu_model: String,
    kernel: String,
    start: Option<CpuTicks>,
}

/// Aggregate CPU counters from the first line of `/proc/stat`.
#[derive(Clone, Copy)]
pub struct CpuTicks {
    /// All CPU time, every state summed.
    pub total: u64,
    /// Time the hypervisor ran something else while a vCPU was runnable.
    pub steal: u64,
}

impl CpuTicks {
    /// The share of all CPU time between `self` and `later` that the
    /// hypervisor stole; `None` if no tick elapsed.
    pub fn steal_share_until(&self, later: &CpuTicks) -> Option<f64> {
        let total = later.total.checked_sub(self.total).filter(|&t| t > 0)?;
        Some(later.steal.saturating_sub(self.steal) as f64 / total as f64)
    }
}

/// Reads the aggregate CPU counters; `None` where `/proc/stat` is
/// unreadable.
pub fn cpu_ticks() -> Option<CpuTicks> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user, so sum the first eight.
    let total = fields.iter().take(8).sum();
    Some(CpuTicks {
        total,
        steal: *fields.get(7)?,
    })
}

impl Host {
    /// Fingerprints the machine and starts the steal counter.
    pub fn start() -> Host {
        let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map(|(_, m)| m.trim().to_owned())
            .unwrap_or_else(|| "unknown".into());
        let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|k| k.trim().to_owned())
            .unwrap_or_else(|_| "unknown".into());
        Host {
            nproc: std::thread::available_parallelism().map_or(0, usize::from),
            cpu_model,
            kernel,
            start: cpu_ticks(),
        }
    }

    /// The host record: fingerprint plus the share of CPU time stolen by
    /// the hypervisor since [`Host::start`] (`null` where `/proc/stat` is
    /// unreadable).
    pub fn record(&self) -> Json {
        let steal = match (self.start, cpu_ticks()) {
            (Some(a), Some(b)) => a.steal_share_until(&b).map_or(Json::Null, Json::Float),
            _ => Json::Null,
        };
        Json::object([
            ("nproc", Json::Int(self.nproc as i64)),
            ("cpu_model", Json::str(self.cpu_model.clone())),
            ("kernel", Json::str(self.kernel.clone())),
            ("steal_share", steal),
        ])
    }
}

/// Clock ticks per second of `/proc/<pid>/stat` CPU times, from the
/// `AT_CLKTCK` entry of this process's auxiliary vector (100 if absent).
fn clock_ticks_per_s() -> u64 {
    const AT_CLKTCK: u64 = 17;
    let auxv = fs::read("/proc/self/auxv").unwrap_or_default();
    auxv.chunks_exact(16)
        .map(|pair| {
            let word = |b: &[u8]| u64::from_ne_bytes(b.try_into().expect("8-byte word"));
            (word(&pair[..8]), word(&pair[8..]))
        })
        .find(|&(key, _)| key == AT_CLKTCK)
        .map_or(100, |(_, ticks)| ticks.max(1))
}

/// User plus system CPU time of process `pid` (all its threads, live and
/// exited), in microseconds.
pub fn process_cpu_us(pid: u32) -> Result<f64, String> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("cannot read /proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/<pid>/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("malformed /proc/{pid}/stat field {}", i + 3))
    };
    let ticks = tick(11)? + tick(12)?;
    Ok(ticks as f64 * 1e6 / clock_ticks_per_s() as f64)
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status = fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}
