//! The repository benchmark.  One invocation runs one seeded workload
//! for a fixed number of seconds, checks every output, and prints as
//! its last line one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`).  A host stamp
//! line (`{"host": …}`) precedes it.  See README.md.
//!
//! ```text
//! cargo run --release --manifest-path lanbench/Cargo.toml -- \
//!     --workload replicate --seed 1 --seconds 10 --trace 0
//! ```

#![forbid(unsafe_code)]

mod cc;
mod layers;
mod nodes;
mod sys;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

use blast_core::PacingConfig;
use blast_counting_alloc::CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// End-to-end metrics and their units, printed by every `--trace 0`
/// run.  `BENCHMARK.json` declares the same names; `sweep.py` checks
/// that the two agree.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("goodput_MBps", "MB/s"),
    ("push_p50_ms", "ms"),
    ("pull_p50_ms", "ms"),
    ("copy_p50_ms", "ms"),
    ("peak_rss_MB", "MB"),
];

/// Each verb's median (end to end) and p90 (per layer), in the order
/// push, pull, copy.  The p90s moved by more than a tenth between runs
/// of the same code, so they carry no bound.
pub const VERB_METRICS: [(&str, &str); 3] = [
    ("push_p50_ms", "tail.push_p90_ms"),
    ("pull_p50_ms", "tail.pull_p90_ms"),
    ("copy_p50_ms", "tail.copy_p90_ms"),
];

/// Per-layer metrics and their units, printed by every `--trace 1`
/// run.  A counter of a layer the workload does not exercise reads 0
/// (README.md, "Per-layer metrics").
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wire.build_ns_per_pkt", "ns"),
    ("wire.parse_ns_per_pkt", "ns"),
    ("fcs.frame_ns_per_pkt", "ns"),
    ("fcs.unframe_ns_per_pkt", "ns"),
    ("engine.ns_per_pkt", "ns"),
    ("engine.allocs_per_pkt", "count"),
    ("netio.send_ns_per_dgram", "ns"),
    ("netio.recv_ns_per_dgram", "ns"),
    ("netio.dgrams_per_send_call", "count"),
    ("netio.dgrams_per_recv_call", "count"),
    ("netio.gso_segs_per_super", "count"),
    ("netio.gro_segs_per_super", "count"),
    ("netio.wakeups_per_op", "count"),
    ("netio.timeouts_per_op", "count"),
    ("netio.send_drops", "count"),
    ("timers.arm_pop_ns", "ns"),
    ("client.push_data_MBps", "MB/s"),
    ("client.pull_data_MBps", "MB/s"),
    ("client.push_overhead_ms_p50", "ms"),
    ("client.pull_overhead_ms_p50", "ms"),
    ("client.stats_p50_ms", "ms"),
    ("client.stats_reply_bytes", "bytes"),
    ("node.retx_rounds_p99", "count"),
    ("node.datagrams_per_op", "count"),
    ("node.sessions_failed", "count"),
    ("node.collisions", "count"),
    ("node.rejected_busy", "count"),
    ("node.dropped_datagrams", "count"),
    ("node.copy_handshake_retx", "count"),
    ("process.allocs_per_MB", "count"),
    ("process.cpu_ms_per_MB", "ms/MB"),
    ("cc.utilisation_clean", "ratio"),
    ("cc.utilisation_iid10", "ratio"),
    ("cc.utilisation_ge", "ratio"),
    ("cc.overflow_per_transfer", "count"),
    ("cc.retx_rounds_per_transfer", "count"),
    ("cc.retx_pkts_frac", "ratio"),
    ("cc.burst_final_mean", "count"),
    ("cc.rate_est_frac", "ratio"),
    ("cc.min_rtt_us", "us"),
    ("tail.push_p90_ms", "ms"),
    ("tail.pull_p90_ms", "ms"),
    ("tail.copy_p90_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("ledger.C_us", "us"),
    ("ledger.Ca_us", "us"),
    ("ledger.T_us", "us"),
    ("ledger.predicted_push_ms", "ms"),
    ("ledger.model_gap_frac", "ratio"),
];

/// Set-ups timed per untraced run; `setup_s` is their median.  The
/// first two or three node set-ups in a process take about twice the
/// steady time, and a median of eight still landed among them in some
/// runs and not in others.
pub const SETUPS: usize = 15;

/// Metric values by name, filled in by a workload.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one measured run hands back: operation counts, the metrics of
/// the requested kind, and the host facts for the stamp.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub netio_backend: String,
    pub netio_offload: String,
}

/// A wrong output.  The run stops and prints no result.
#[derive(Debug)]
pub struct Mismatch(pub String);

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: Duration::from_secs_f64(seconds),
        trace: trace.unwrap_or(false),
    })
}

/// The shipped pacing mode, named as the README's tuning section does.
pub fn pacing_mode(p: &PacingConfig) -> &'static str {
    if p.burst == 0 {
        "off"
    } else if p.rate_based {
        "rate"
    } else if p.growth > 0 {
        "aimd"
    } else {
        "fixed"
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lanbench: {e}");
            eprintln!(
                "usage: lanbench --workload replicate|small_ops|cc_bottleneck \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "replicate" => nodes::run(&nodes::REPLICATE, &args),
        "small_ops" => nodes::run(&nodes::SMALL_OPS, &args),
        "cc_bottleneck" => cc::run(&args),
        other => {
            eprintln!("lanbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let out = match result {
        Ok(out) => out,
        Err(Mismatch(why)) => {
            eprintln!("lanbench: wrong output: {why}");
            return ExitCode::FAILURE;
        }
    };
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    for name in out.metrics.keys() {
        assert!(
            declared.iter().any(|&(d, _)| d == *name),
            "workload reported undeclared metric {name}"
        );
    }
    let mut metrics = Vec::with_capacity(declared.len());
    for &(name, unit) in declared {
        // A per-layer metric of a layer the workload does not exercise
        // reads 0; every end-to-end metric must be measured.
        let value = match out.metrics.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => panic!("workload did not measure {name}"),
        };
        assert!(value.is_finite(), "{name} is not finite: {value}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let pacing = pacing_mode(&sys::shipped_client_config().pacing);
    println!(
        "{{\"host\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"loopback\": \"127.0.0.1\", \"netio_backend\": \"{}\", \
         \"netio_offload\": \"{}\", \"pacing\": \"{pacing}\"}}}}",
        args.workload,
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        out.netio_backend,
        out.netio_offload,
    );
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
