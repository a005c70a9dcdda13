//! The host-speed calibration of the end-to-end run.
//!
//! On the shared virtual machine this benchmark was tuned on, a neighbour on
//! the host slows the guest's cache and memory accesses by about 1.6× for
//! seconds to minutes at a time, while a register-only loop keeps its
//! speed. How much of a run falls in the slow state changes from run to run;
//! in one stretch it spread ten runs of the same code by 38–47 % (quartile
//! distance over median) on `hot_join`'s `EVAL` and `LOAD` p50.
//!
//! The end-to-end run therefore times a fixed memory-bound kernel in the
//! client between requests, on the same CPU as `nevd` (see
//! [`pin_to_one_cpu`]), and divides every round trip by the kernel's
//! slowdown over the same half second: its median time there over
//! [`REFERENCE_US`]. The kernel uses nothing of the program, so a change to
//! the program moves the scaled times as much as the raw ones. It does not
//! slow exactly like every workload (`hot_join`'s round trips went as its
//! time to the power 1.44, `core_check`'s as the power 0.61), so scaling
//! takes out most of the host's drift, not all of it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// The kernel's time in the host's fast state on the machine the benchmark
/// was tuned on (a 2-vCPU Xeon KVM guest), in µs. Scaled times are round
/// trips at that speed.
pub const REFERENCE_US: f64 = 250.0;

/// Keys the kernel interns, looks up and renders per call.
const KEYS: usize = 2048;

/// Times the calibration kernel: interning, lookups and rendering of a fixed
/// key sequence into fresh allocations, the kind of work the server does
/// per request, in code of the benchmark's own.
pub fn kernel_us() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let keys: Vec<u64> = (0..KEYS).map(|_| next() % 100_000).collect();
    let mut ids: HashMap<u64, u32, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for &k in &keys {
        let id = ids.len() as u32;
        ids.entry(k).or_insert(id);
    }
    let hits = (0..KEYS)
        .filter(|_| ids.contains_key(&(next() % 100_000)))
        .count();
    let mut rendered: Vec<String> = keys.iter().step_by(4).map(|k| format!("c{k}")).collect();
    rendered.sort_unstable();
    black_box((hits, &rendered, &ids));
    start.elapsed().as_secs_f64() * 1e6
}

/// Pins this process to the first CPU it may run on; threads and processes
/// it starts afterwards, `nevd` among them, inherit the pin. The kernel then
/// measures the CPU the server runs on: unpinned, its slowdown tracked the
/// server's only loosely. Returns the CPU, or why pinning failed.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .ok_or("no Cpus_allowed_list in /proc/self/status")?;
    let cpu: usize = allowed
        .trim()
        .split([',', '-'])
        .next()
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("cannot read Cpus_allowed_list `{}`", allowed.trim()))?;
    let output = Command::new("taskset")
        .args(["-cp", &cpu.to_string(), &std::process::id().to_string()])
        .output()
        .map_err(|e| format!("cannot run taskset: {e}"))?;
    if output.status.success() {
        Ok(cpu)
    } else {
        Err(format!("taskset failed ({})", output.status))
    }
}
