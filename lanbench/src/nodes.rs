//! The wall-clock workloads, `replicate` and `small_ops`: closed-loop
//! client threads drive two 1-shard nodes, A and B, over loopback.
//! Every step is `push`→A, `copy_to`(A→B), `pull`, with the pulled
//! bytes compared to what was pushed.

use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use blast_counting_alloc::allocations;
use blast_node::{Client, NodeBuilder, NodeConfig, NodeHandle, NodeMetrics};
use blast_telemetry::Recorder;

use crate::sys::{self, ms, percentile, ratio, Rng};
use crate::{layers, Args, Metrics, Mismatch, Outcome, SETUPS, VERB_METRICS};

/// How a node workload loads the nodes.
pub struct Shape {
    /// Client threads, one closed loop each.
    threads: usize,
    blob_bytes: usize,
    /// Distinct seeded blobs each thread cycles through; consecutive
    /// steps push different bytes under one name, so a stale read
    /// fails the comparison.
    blobs: usize,
    /// Pull from B (the copy's target) on a second connection, or from
    /// A on the thread's only connection.
    pull_from_b: bool,
    /// One `stats()` query every this many operations (0 = none).
    stats_every: u64,
}

/// One client thread; 8 seeded 1 MiB blobs; the pull reads the replica
/// on B (connections: A and B).
pub const REPLICATE: Shape = Shape {
    threads: 1,
    blob_bytes: 1 << 20,
    blobs: 8,
    pull_from_b: true,
    stats_every: 0,
};

/// Two client threads, each with one connection to A; 8 KB blobs, so
/// per-transfer costs (handshake, admit/reap, linger, copy control)
/// dominate; a `stats()` every 16 operations.
pub const SMALL_OPS: Shape = Shape {
    threads: 2,
    blob_bytes: 8 * 1024,
    blobs: 8,
    pull_from_b: false,
    stats_every: 16,
};

/// Flight-recorder ring per node shard and per client in traced runs.
const TRACE_RING: usize = 1 << 16;

/// One verb's samples: call time, the data phase the library reports,
/// and payload bytes of each successful call.
#[derive(Default)]
struct Verb {
    call_ms: Vec<f64>,
    data_ms: Vec<f64>,
    bytes: u64,
}

impl Verb {
    fn ok(&mut self, call: Duration, data: Duration, bytes: usize) {
        self.call_ms.push(ms(call));
        self.data_ms.push(ms(data));
        self.bytes += bytes as u64;
    }

    fn absorb(&mut self, other: Verb) {
        self.call_ms.extend(other.call_ms);
        self.data_ms.extend(other.data_ms);
        self.bytes += other.bytes;
    }

    /// p50 of call time minus data phase: handshake, linger, copies.
    fn overhead_p50(&self) -> f64 {
        let over: Vec<f64> = self
            .call_ms
            .iter()
            .zip(&self.data_ms)
            .map(|(c, d)| c - d)
            .collect();
        percentile(&over, 50.0)
    }
}

/// Everything one measured slice observed.
#[derive(Default)]
struct Log {
    push: Verb,
    copy: Verb,
    pull: Verb,
    stats_ms: Vec<f64>,
    stats_bytes: u64,
    attempted: u64,
    failed: u64,
    /// Push sender-side engine counters (the client sends on a push).
    retx_rounds: u64,
    data_sent: u64,
    data_retx: u64,
    burst_final: Vec<f64>,
    min_rtt_us: Vec<f64>,
    wall: Duration,
    cpu: Duration,
    allocs: u64,
    /// Shutdown metrics of A and B merged, and of A alone.
    node: NodeMetrics,
    node_a: NodeMetrics,
}

impl Log {
    /// Push, pull and copy, in the order of [`VERB_METRICS`].
    fn verbs(&self) -> [&Verb; 3] {
        [&self.push, &self.pull, &self.copy]
    }

    fn payload_bytes(&self) -> u64 {
        self.push.bytes + self.copy.bytes + self.pull.bytes
    }

    fn goodput_mbps(&self) -> f64 {
        ratio(self.payload_bytes() as f64 / 1e6, self.wall.as_secs_f64())
    }

    fn absorb(&mut self, other: Log) {
        self.push.absorb(other.push);
        self.copy.absorb(other.copy);
        self.pull.absorb(other.pull);
        self.stats_ms.extend(other.stats_ms);
        self.stats_bytes += other.stats_bytes;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.retx_rounds += other.retx_rounds;
        self.data_sent += other.data_sent;
        self.data_retx += other.data_retx;
        self.burst_final.extend(other.burst_final);
        self.min_rtt_us.extend(other.min_rtt_us);
        self.wall += other.wall;
        self.cpu += other.cpu;
        self.allocs += other.allocs;
        self.node.merge_from(&other.node);
        self.node_a.merge_from(&other.node_a);
    }

    /// The load on A's session timer wheel, from A's admission rate
    /// over the slice (Little's law).  A session holds its give-up key
    /// and one engine timer while it runs, give-up and reap keys
    /// through the linger window; once reaped, its give-up entry stays
    /// in the heap, stale, until the session timeout passes.
    fn wheel_load(&self) -> layers::WheelLoad {
        let config = NodeConfig::default();
        let rate = ratio(
            self.node_a.sessions_accepted as f64,
            self.wall.as_secs_f64(),
        );
        let active = self.node_a.session_secs.mean();
        let linger = config.linger.as_secs_f64();
        let timeout = config.session_timeout.as_secs_f64();
        layers::WheelLoad {
            live: (rate * 2.0 * (active + linger)).round() as usize,
            stale: (rate * (timeout - active - linger)).max(0.0).round() as usize,
        }
    }
}

/// Nodes, connected clients and seeded blobs: everything a slice needs
/// before its clock starts.
struct Rig {
    a: NodeHandle,
    b: NodeHandle,
    threads: Vec<Lane>,
}

/// One client thread's connections and inputs.
struct Lane {
    name: String,
    to_a: Client,
    to_b: Option<Client>,
    blobs: Vec<Vec<u8>>,
    /// Operations since the last `stats()` query.
    ops: u64,
}

fn start_node(traced: bool) -> NodeHandle {
    let mut builder = NodeBuilder::new();
    if traced {
        builder = builder.telemetry(TRACE_RING);
    }
    builder.start().expect("start a loopback node")
}

fn connect(addr: SocketAddr, traced: bool) -> Client {
    let client = Client::connect(addr).expect("connect a loopback client");
    if traced {
        client.recorder(Recorder::standalone(TRACE_RING))
    } else {
        client
    }
}

fn set_up(shape: &Shape, seed: u64, traced: bool) -> Rig {
    let a = start_node(traced);
    let b = start_node(traced);
    let threads = (0..shape.threads)
        .map(|t| {
            let mut rng = Rng::new(seed ^ (t as u64).wrapping_mul(0xA24B_AED4_963E_E407));
            Lane {
                name: format!("t{t}"),
                to_a: connect(a.addr(), traced),
                to_b: shape.pull_from_b.then(|| connect(b.addr(), traced)),
                blobs: (0..shape.blobs)
                    .map(|_| rng.bytes(shape.blob_bytes))
                    .collect(),
                ops: 0,
            }
        })
        .collect();
    Rig { a, b, threads }
}

/// One step of one lane: push, copy, pull, compare.  An error counts
/// as a failed operation and ends the step; a wrong output ends the
/// run.
fn step(
    lane: &mut Lane,
    k: usize,
    b_addr: SocketAddr,
    stats_every: u64,
    log: &mut Log,
) -> Result<(), Mismatch> {
    let blob = &lane.blobs[k % lane.blobs.len()];
    let name = lane.name.as_str();

    log.attempted += 1;
    let t = Instant::now();
    match lane.to_a.push(name, blob) {
        Ok(r) => {
            log.push.ok(t.elapsed(), r.elapsed, blob.len());
            log.retx_rounds += r.stats.retransmission_rounds;
            log.data_sent += r.stats.data_packets_sent;
            log.data_retx += r.stats.data_packets_retransmitted;
            if let Some(p) = r.pacing {
                log.burst_final.push(f64::from(p.burst));
                log.min_rtt_us.push(p.min_rtt_us);
            }
        }
        Err(e) => {
            fail(log, "push", e);
            return Ok(());
        }
    }

    log.attempted += 1;
    let t = Instant::now();
    match lane.to_a.copy_to(name, b_addr) {
        Ok(r) if !r.verified || r.bytes != blob.len() as u64 => {
            return Err(Mismatch(format!(
                "copy of {name} step {k}: verified={} bytes={} want {}",
                r.verified,
                r.bytes,
                blob.len()
            )));
        }
        Ok(r) => log.copy.ok(t.elapsed(), r.elapsed, blob.len()),
        Err(e) => {
            fail(log, "copy", e);
            return Ok(());
        }
    }

    log.attempted += 1;
    let t = Instant::now();
    let puller = lane.to_b.as_mut().unwrap_or(&mut lane.to_a);
    match puller.pull(name) {
        Ok(r) if r.data != *blob => {
            return Err(Mismatch(format!(
                "pull of {name} step {k}: {} bytes differ from the {} pushed",
                r.data.len(),
                blob.len()
            )));
        }
        Ok(r) => log.pull.ok(t.elapsed(), r.elapsed, blob.len()),
        Err(e) => {
            fail(log, "pull", e);
            return Ok(());
        }
    }

    lane.ops += 3;
    if stats_every > 0 && lane.ops >= stats_every {
        lane.ops -= stats_every;
        log.attempted += 1;
        let t = Instant::now();
        match lane.to_a.stats() {
            Ok(text) if !text.starts_with("sessions: ") => {
                return Err(Mismatch(format!("stats reply is not a summary: {text:?}")));
            }
            Ok(text) => {
                log.stats_ms.push(ms(t.elapsed()));
                log.stats_bytes += text.len() as u64;
            }
            Err(e) => fail(log, "stats", e),
        }
    }
    Ok(())
}

fn fail(log: &mut Log, verb: &str, e: std::io::Error) {
    eprintln!("lanbench: {verb} failed: {e}");
    log.failed += 1;
}

/// Run one slice: set up, warm up, then every lane loops steps until
/// `length` has passed.  Returns the slice's log (node metrics from
/// shutdown included) and its set-up time.
fn slice(
    shape: &Shape,
    seed: u64,
    length: Duration,
    traced: bool,
) -> Result<(Log, Duration), Mismatch> {
    let t = Instant::now();
    let mut rig = set_up(shape, seed, traced);
    let setup = t.elapsed();
    let b_addr = rig.b.addr();
    let barrier = Barrier::new(shape.threads + 1);
    let stats_every = shape.stats_every;

    let (logs, wall, cpu, allocs) = std::thread::scope(|s| {
        let handles: Vec<_> = rig
            .threads
            .iter_mut()
            .map(|lane| {
                let barrier = &barrier;
                s.spawn(move || -> Result<Log, Mismatch> {
                    // Warm-up step: pools fill and first-use costs land
                    // before the clock starts.
                    step(lane, 0, b_addr, 0, &mut Log::default())?;
                    barrier.wait();
                    let deadline = Instant::now() + length;
                    let mut log = Log::default();
                    let mut k = 1;
                    while Instant::now() < deadline {
                        step(lane, k, b_addr, stats_every, &mut log)?;
                        k += 1;
                    }
                    Ok(log)
                })
            })
            .collect();
        barrier.wait();
        let (t0, cpu0, allocs0) = (Instant::now(), sys::cpu_time(), allocations());
        let logs: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (
            logs,
            t0.elapsed(),
            sys::cpu_time() - cpu0,
            allocations() - allocs0,
        )
    });

    let mut log = Log::default();
    for l in logs {
        log.absorb(l?);
    }
    log.wall = wall;
    log.cpu = cpu;
    log.allocs = allocs;
    let Rig { a, b, threads } = rig;
    drop(threads);
    for (i, node) in [a, b].into_iter().enumerate() {
        node.wait_idle(Duration::from_secs(5));
        let metrics = node.shutdown().expect("node shutdown");
        if i == 0 {
            log.node_a.merge_from(&metrics);
        }
        log.node.merge_from(&metrics);
    }
    Ok((log, setup))
}

pub fn run(shape: &Shape, args: &Args) -> Result<Outcome, Mismatch> {
    let (log, metrics) = if args.trace {
        traced(shape, args)?
    } else {
        untraced(shape, args)?
    };
    Ok(Outcome {
        attempted: log.attempted,
        failed: log.failed,
        metrics,
        netio_backend: log.node.netio_backend.clone(),
        netio_offload: log.node.netio_offload.clone(),
    })
}

/// Independent slices per untraced run, each on fresh nodes and fresh
/// client threads.  Every end-to-end metric is the median of its
/// per-slice values: how a fresh set of threads lands on the CPUs
/// moves small-transfer latency by tens of percent from one slice to
/// the next, and a median over eight draws holds still where one draw
/// does not.
const SLICES: u32 = 8;

fn untraced(shape: &Shape, args: &Args) -> Result<(Log, Metrics), Mismatch> {
    let mut per_slice: Vec<Metrics> = Vec::new();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut total = Log::default();
    for _ in 0..SLICES {
        let (log, setup) = slice(shape, args.seed, args.seconds / SLICES, false)?;
        setups.push(setup.as_secs_f64());
        let mut m = Metrics::new();
        m.insert("goodput_MBps", log.goodput_mbps());
        for ((p50, _), v) in VERB_METRICS.into_iter().zip(log.verbs()) {
            m.insert(p50, percentile(&v.call_ms, 50.0));
        }
        per_slice.push(m);
        total.absorb(log);
    }
    // The slices' set-ups and as many more as `setup_s` needs.
    while setups.len() < SETUPS {
        let t = Instant::now();
        let rig = set_up(shape, args.seed, false);
        setups.push(t.elapsed().as_secs_f64());
        drop(rig.threads);
        rig.a.shutdown().expect("node shutdown");
        rig.b.shutdown().expect("node shutdown");
    }
    let mut m = median_of(&per_slice);
    m.insert("setup_s", percentile(&setups, 50.0));
    m.insert("peak_rss_MB", sys::peak_rss_mb());
    Ok((total, m))
}

/// The per-metric median over slices.
fn median_of(slices: &[Metrics]) -> Metrics {
    slices[0]
        .keys()
        .map(|&name| {
            let vals: Vec<f64> = slices.iter().map(|m| m[name]).collect();
            (name, percentile(&vals, 50.0))
        })
        .collect()
}

/// Four slices, untraced–traced–traced–untraced, so drift over the run
/// cancels out of the tracing overhead; per-layer counters come from
/// the traced pair, followed by the micro-timed layers.
fn traced(shape: &Shape, args: &Args) -> Result<(Log, Metrics), Mismatch> {
    let quarter = args.seconds / 4;
    let mut plain = Log::default();
    let mut log = Log::default();
    for traced in [false, true, true, false] {
        let (l, _) = slice(shape, args.seed, quarter, traced)?;
        if traced {
            log.absorb(l);
        } else {
            plain.absorb(l);
        }
    }
    let ops = log.attempted as f64;
    let io = &log.node.io;
    let node = &log.node;

    // The model gap from the untraced slices: the recorder's cost is
    // not a gap in the model.
    let mut m = layers::measure(
        shape.blob_bytes,
        Some(percentile(&plain.push.data_ms, 50.0)),
        Some(log.wheel_load()),
    );
    m.insert(
        "netio.dgrams_per_send_call",
        ratio(io.datagrams_sent as f64, io.send_batches as f64),
    );
    m.insert(
        "netio.dgrams_per_recv_call",
        ratio(io.datagrams_received as f64, io.recv_batches as f64),
    );
    m.insert(
        "netio.gso_segs_per_super",
        ratio(io.gso_segments as f64, io.gso_super_datagrams as f64),
    );
    m.insert(
        "netio.gro_segs_per_super",
        ratio(io.gro_segments as f64, io.gro_super_datagrams as f64),
    );
    m.insert("netio.wakeups_per_op", ratio(io.wakeups as f64, ops));
    m.insert("netio.timeouts_per_op", ratio(io.timeouts as f64, ops));
    m.insert("netio.send_drops", io.send_drops as f64);
    m.insert(
        "client.push_data_MBps",
        ratio(
            log.push.bytes as f64 / 1e6,
            log.push.data_ms.iter().sum::<f64>() / 1e3,
        ),
    );
    m.insert(
        "client.pull_data_MBps",
        ratio(
            log.pull.bytes as f64 / 1e6,
            log.pull.data_ms.iter().sum::<f64>() / 1e3,
        ),
    );
    m.insert("client.push_overhead_ms_p50", log.push.overhead_p50());
    m.insert("client.pull_overhead_ms_p50", log.pull.overhead_p50());
    m.insert("client.stats_p50_ms", percentile(&log.stats_ms, 50.0));
    m.insert(
        "client.stats_reply_bytes",
        ratio(log.stats_bytes as f64, log.stats_ms.len() as f64),
    );
    m.insert("node.retx_rounds_p99", node.retx_rounds.0.percentile(99.0));
    m.insert(
        "node.datagrams_per_op",
        ratio((node.datagrams_received + node.datagrams_sent) as f64, ops),
    );
    m.insert("node.sessions_failed", node.sessions_failed as f64);
    m.insert("node.collisions", node.collisions as f64);
    m.insert("node.rejected_busy", node.rejected_busy as f64);
    m.insert(
        "node.dropped_datagrams",
        (node.malformed + node.fcs_drops + node.unroutable) as f64,
    );
    m.insert("node.copy_handshake_retx", node.copy_handshake_retx as f64);
    // Allocations and CPU from the untraced slices: the recorder stays
    // out of them.
    let plain_mb = plain.payload_bytes() as f64 / 1e6;
    m.insert(
        "process.allocs_per_MB",
        ratio(plain.allocs as f64, plain_mb),
    );
    m.insert("process.cpu_ms_per_MB", ratio(ms(plain.cpu), plain_mb));
    // Loopback has no bottleneck: utilisation, queue overflow and the
    // rate estimate have no capacity to refer to and read 0.
    let pushes = log.push.call_ms.len() as f64;
    m.insert(
        "cc.retx_rounds_per_transfer",
        ratio(log.retx_rounds as f64, pushes),
    );
    m.insert(
        "cc.retx_pkts_frac",
        ratio(log.data_retx as f64, log.data_sent as f64),
    );
    m.insert(
        "cc.burst_final_mean",
        ratio(log.burst_final.iter().sum(), log.burst_final.len() as f64),
    );
    m.insert(
        "cc.min_rtt_us",
        ratio(log.min_rtt_us.iter().sum(), log.min_rtt_us.len() as f64),
    );
    // Tails from the untraced slices: the recorder stays out of them.
    for ((_, p90), v) in VERB_METRICS.into_iter().zip(plain.verbs()) {
        m.insert(p90, percentile(&v.call_ms, 90.0));
    }
    m.insert(
        "trace.overhead_frac",
        1.0 - ratio(log.goodput_mbps(), plain.goodput_mbps()),
    );
    log.attempted += plain.attempted;
    log.failed += plain.failed;
    Ok((log, m))
}
