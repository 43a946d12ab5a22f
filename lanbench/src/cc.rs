//! The `cc_bottleneck` workload: the virtual-time `Harness` moves
//! 1 MiB through a single-server bottleneck (one packet per 20 µs,
//! 8 queued) with the shipped configurations, under three loss plans.
//! Wall clock only bounds how many trials a run makes; every reported
//! time is virtual.
//!
//! Each trial takes one of three roles — the sender/receiver pairing of
//! a `push` (client → node), a `pull` (node → client) or a `copy`
//! (node → node) — and one of the plans, in rotation, so every run
//! holds the same mix.

use std::sync::Arc;
use std::time::{Duration, Instant};

use blast_core::blast::{BlastReceiver, BlastSender};
use blast_core::config::ProtocolConfig;
use blast_core::harness::{Harness, LossPlan};
use blast_core::Engine;
use blast_counting_alloc::allocations;
use blast_telemetry::Recorder;

use crate::sys::{self, ms, percentile, ratio, Rng};
use crate::{layers, Args, Metrics, Mismatch, Outcome, SETUPS, VERB_METRICS};

const BYTES: usize = 1 << 20;
const BLOBS: usize = 8;
const SERVICE: Duration = Duration::from_micros(20);
const QUEUE_CAP: u32 = 8;
const TRACE_RING: usize = 1 << 14;

const ROLES: [&str; 3] = ["push", "pull", "copy"];
const PLANS: [&str; 3] = ["clean", "iid10", "ge"];

fn plan(index: usize, seed: u64) -> LossPlan {
    match index {
        0 => LossPlan::perfect(),
        1 => LossPlan::random(seed, 10, 100),
        // Enter the bad state with p = 2 %, leave with p = 25 %, lose
        // half the packets while bad.
        _ => LossPlan::gilbert_elliott(seed, 20_000, 250_000, 0, 500_000),
    }
}

struct Inputs {
    blobs: Vec<Arc<[u8]>>,
    client: ProtocolConfig,
    node: ProtocolConfig,
}

fn set_up(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed);
    let inputs = Inputs {
        blobs: (0..BLOBS).map(|_| rng.bytes(BYTES).into()).collect(),
        client: sys::shipped_client_config(),
        node: sys::shipped_node_config(),
    };
    // Enough buffers for a whole 1 MiB round in flight.
    let packets = BYTES.div_ceil(inputs.client.packet_payload) + 8;
    inputs.client.pool.warm(packets);
    inputs.node.pool.warm(packets);
    inputs
}

/// Per-role and per-plan accumulators of one slice.
#[derive(Default)]
struct Log {
    vt_ms: [Vec<f64>; 3],
    plan_bytes: [f64; 3],
    plan_vt_s: [f64; 3],
    trials: u64,
    failed: u64,
    overflow: u64,
    rounds: u64,
    data_sent: u64,
    data_retx: u64,
    burst_final: f64,
    rate_bps: f64,
    min_rtt_us: f64,
    wall: Duration,
    cpu: Duration,
    allocs: u64,
}

impl Log {
    fn bytes(&self) -> f64 {
        self.plan_bytes.iter().sum()
    }

    /// Payload over summed virtual time.
    fn goodput_mbps(&self) -> f64 {
        ratio(self.bytes() / 1e6, self.plan_vt_s.iter().sum())
    }

    /// Payload simulated per wall second: what tracing slows down.
    fn sim_rate(&self) -> f64 {
        ratio(self.bytes(), self.wall.as_secs_f64())
    }

    fn absorb(&mut self, o: Log) {
        for i in 0..3 {
            self.vt_ms[i].extend_from_slice(&o.vt_ms[i]);
            self.plan_bytes[i] += o.plan_bytes[i];
            self.plan_vt_s[i] += o.plan_vt_s[i];
        }
        self.trials += o.trials;
        self.failed += o.failed;
        self.overflow += o.overflow;
        self.rounds += o.rounds;
        self.data_sent += o.data_sent;
        self.data_retx += o.data_retx;
        self.burst_final += o.burst_final;
        self.rate_bps += o.rate_bps;
        self.min_rtt_us += o.min_rtt_us;
        self.wall += o.wall;
        self.cpu += o.cpu;
        self.allocs += o.allocs;
    }
}

/// How many trials a slice runs.
#[derive(Clone, Copy)]
enum Until {
    /// As many as fit in this wall time.
    Elapsed(Duration),
    /// Exactly this many.
    Trials(usize),
}

/// Run trials `first..` until `until`.  A transfer that fails counts
/// as a failed trial; one that delivers wrong bytes ends the run.
fn slice(
    inputs: &Inputs,
    seed: u64,
    first: usize,
    until: Until,
    traced: bool,
) -> Result<Log, Mismatch> {
    let mut log = Log::default();
    let (t0, cpu0, allocs0) = (Instant::now(), sys::cpu_time(), allocations());
    let mut trial = first;
    while match until {
        Until::Elapsed(length) => t0.elapsed() < length,
        Until::Trials(n) => trial < first + n,
    } {
        let role = trial % 3;
        let plan_index = (trial / 3) % 3;
        let blob = &inputs.blobs[(trial / 9) % BLOBS];
        let (send_cfg, recv_cfg) = match role {
            0 => (&inputs.client, &inputs.node),
            1 => (&inputs.node, &inputs.client),
            _ => (&inputs.node, &inputs.node),
        };
        let mut sender = BlastSender::new(1, blob.clone(), send_cfg);
        let mut receiver = BlastReceiver::new(1, blob.len(), recv_cfg);
        if traced {
            sender.set_recorder(Recorder::standalone(TRACE_RING));
            receiver.set_recorder(Recorder::standalone(TRACE_RING));
        }
        let plan_seed = Rng::new(seed ^ (trial as u64).wrapping_mul(0x9E37_79B9)).next_u64();
        let mut h = Harness::new(sender, receiver, plan(plan_index, plan_seed))
            .with_bottleneck(SERVICE, QUEUE_CAP);
        trial += 1;
        let outcome = match h.run() {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!(
                    "lanbench: {} under {} failed: {e}",
                    ROLES[role], PLANS[plan_index]
                );
                log.failed += 1;
                continue;
            }
        };
        if h.received_data() != &blob[..] {
            return Err(Mismatch(format!(
                "{} trial {} under {}: received bytes differ",
                ROLES[role],
                trial - 1,
                PLANS[plan_index]
            )));
        }
        let vt = h
            .sender_elapsed()
            .expect("a completed run has a sender finish");
        log.vt_ms[role].push(ms(vt));
        log.plan_bytes[plan_index] += blob.len() as f64;
        log.plan_vt_s[plan_index] += vt.as_secs_f64();
        log.trials += 1;
        log.overflow += h.overflow;
        log.rounds += outcome.sender.retransmission_rounds;
        log.data_sent += outcome.sender.data_packets_sent;
        log.data_retx += outcome.sender.data_packets_retransmitted;
        if let Some(p) = h.sender().pacing_snapshot() {
            log.burst_final += f64::from(p.burst);
            log.rate_bps += p.rate_bps;
            log.min_rtt_us += p.min_rtt_us;
        }
    }
    log.wall = t0.elapsed();
    log.cpu = sys::cpu_time() - cpu0;
    log.allocs = allocations() - allocs0;
    Ok(log)
}

pub fn run(args: &Args) -> Result<Outcome, Mismatch> {
    let (netio_backend, netio_offload) = layers::netio_probe();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut inputs = None;
    for _ in 0..SETUPS {
        // Drop the previous inputs first: their teardown stays out of
        // the timing, and every set-up faults in fresh pages alike.
        drop(inputs.take());
        let t = Instant::now();
        inputs = Some(set_up(args.seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");
    let capacity = inputs.client.packet_payload as f64 / SERVICE.as_secs_f64();

    let (log, metrics) = if args.trace {
        // Untraced–traced–traced–untraced.  The second slice of each
        // pair replays the first one's trials, so the pair differs only
        // in the recorder.
        let quarter = Until::Elapsed(args.seconds / 4);
        let (mut plain, mut log) = (Log::default(), Log::default());
        let mut first = 0;
        for traced in [false, true] {
            let timed = slice(&inputs, args.seed, first, quarter, traced)?;
            let n = (timed.trials + timed.failed) as usize;
            let replay = slice(&inputs, args.seed, first, Until::Trials(n), !traced)?;
            first += n;
            let (t, p) = if traced {
                (timed, replay)
            } else {
                (replay, timed)
            };
            log.absorb(t);
            plain.absorb(p);
        }
        // No node and no sockets: the node, NetIo-counter, timer-wheel
        // and client layers are not exercised and read 0.
        let mut m = layers::measure(BYTES, None, None);
        let n = log.trials as f64;
        m.insert(
            "process.allocs_per_MB",
            ratio(plain.allocs as f64, plain.bytes() / 1e6),
        );
        // CPU of the untraced slices per MB the engines moved,
        // retransmissions included: a trial's cost follows the packets
        // it sends, and per payload MB a seed whose loss draws need more
        // rounds would read as slower simulation.
        let moved_mb = (plain.data_sent as usize * inputs.client.packet_payload) as f64 / 1e6;
        m.insert("process.cpu_ms_per_MB", ratio(ms(plain.cpu), moved_mb));
        for (i, name) in [
            "cc.utilisation_clean",
            "cc.utilisation_iid10",
            "cc.utilisation_ge",
        ]
        .into_iter()
        .enumerate()
        {
            m.insert(
                name,
                ratio(ratio(log.plan_bytes[i], log.plan_vt_s[i]), capacity),
            );
        }
        m.insert("cc.overflow_per_transfer", ratio(log.overflow as f64, n));
        m.insert("cc.retx_rounds_per_transfer", ratio(log.rounds as f64, n));
        m.insert(
            "cc.retx_pkts_frac",
            ratio(log.data_retx as f64, log.data_sent as f64),
        );
        m.insert("cc.burst_final_mean", ratio(log.burst_final, n));
        m.insert("cc.rate_est_frac", ratio(ratio(log.rate_bps, n), capacity));
        m.insert("cc.min_rtt_us", ratio(log.min_rtt_us, n));
        for ((_, p90), vt) in VERB_METRICS.into_iter().zip(&plain.vt_ms) {
            m.insert(p90, percentile(vt, 90.0));
        }
        m.insert(
            "trace.overhead_frac",
            1.0 - ratio(log.sim_rate(), plain.sim_rate()),
        );
        log.trials += plain.trials;
        log.failed += plain.failed;
        (log, m)
    } else {
        let log = slice(&inputs, args.seed, 0, Until::Elapsed(args.seconds), false)?;
        let mut m = Metrics::new();
        m.insert("setup_s", percentile(&setups, 50.0));
        m.insert("goodput_MBps", log.goodput_mbps());
        for ((p50, _), vt) in VERB_METRICS.into_iter().zip(&log.vt_ms) {
            m.insert(p50, percentile(vt, 50.0));
        }
        m.insert("peak_rss_MB", sys::peak_rss_mb());
        (log, m)
    };
    Ok(Outcome {
        attempted: log.trials + log.failed,
        failed: log.failed,
        metrics,
        netio_backend,
        netio_offload,
    })
}
