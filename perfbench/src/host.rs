//! The host a measurement was taken on, recorded in every output.

use serde::Value;

#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu: String,
    pub kernel: String,
    pub rustc: String,
    pub git_head: String,
}

impl Host {
    pub fn detect() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
        let rustc = std::process::Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_string(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
            );
        Host {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            cpu,
            kernel,
            rustc,
            git_head: git_head().unwrap_or_else(|| "unknown".to_string()),
        }
    }

    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("nproc".to_string(), Value::UInt(self.nproc as u64)),
            ("cpu".to_string(), Value::Str(self.cpu.clone())),
            ("kernel".to_string(), Value::Str(self.kernel.clone())),
            ("rustc".to_string(), Value::Str(self.rustc.clone())),
            ("git_head".to_string(), Value::Str(self.git_head.clone())),
        ])
    }

    pub fn line(&self) -> String {
        format!(
            "host nproc={} cpu=\"{}\" kernel={} rustc=\"{}\" git={}",
            self.nproc, self.cpu, self.kernel, self.rustc, self.git_head
        )
    }
}

/// HEAD's commit, read from `.git` in the working directory without
/// running git (a benchmark checkout may be a plain copy with no `.git`).
fn git_head() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        l.split_once(' ')
            .filter(|(_, name)| *name == reference)
            .map(|(id, _)| id.to_string())
    })
}

/// `cpu_set_t`: one bit per CPU, for 1024 CPUs.
#[cfg(target_os = "linux")]
#[repr(C)]
struct CpuSet([u64; 16]);

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Pins the calling thread to the highest-numbered CPU it may run on and
/// returns that CPU; threads it spawns later inherit the pin. On a shared
/// VM the CPUs differ in speed (the first also takes device interrupts),
/// and an unpinned process keeps whichever CPU it starts on, which made
/// set-up times bimodal from run to run.
#[cfg(target_os = "linux")]
pub fn pin_to_last_cpu() -> Option<usize> {
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed = CpuSet([0; 16]);
    // SAFETY: `allowed` is a writable `cpu_set_t` of `size` bytes, and pid
    // 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return None;
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| allowed.0[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = CpuSet([0; 16]);
    one.0[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable `cpu_set_t` of `size` bytes naming one
    // CPU the thread may run on; pid 0 names the calling thread.
    (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_last_cpu() -> Option<usize> {
    None
}
