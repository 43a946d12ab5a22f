//! Helpers shared by the workloads: seeded inputs, percentiles, the
//! process's CPU time and peak memory, and the shipped configurations.

use std::time::Duration;

use blast_core::config::ProtocolConfig;
use blast_node::{Client, NodeConfig};

/// `splitmix64`: a seeded stream for blob bytes and loss-plan seeds.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `len` seeded bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// Nearest-rank percentile (`p` in 0–100) of unsorted samples; 0 for
/// none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// User + system CPU time of the whole process (every thread, node
/// reactors included), from `/proc/self/stat`.
pub fn cpu_time() -> Duration {
    // Linux reports these fields in USER_HZ ticks, fixed at 100/s.
    const TICKS_PER_SEC: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    Duration::from_secs_f64(ticks as f64 / TICKS_PER_SEC)
}

/// Peak resident set size of the process so far, in MB (10⁶ bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb * 1024.0 / 1e6
}

/// The configuration `Client` ships with, read back through
/// `Client::protocol()` (connecting a UDP socket sends nothing).
pub fn shipped_client_config() -> ProtocolConfig {
    Client::connect("127.0.0.1:9".parse().expect("literal addr"))
        .expect("bind a loopback client socket")
        .protocol()
        .clone()
}

/// The configuration a `NodeBuilder::new()` node runs its engines with.
pub fn shipped_node_config() -> ProtocolConfig {
    NodeConfig::default().protocol
}
