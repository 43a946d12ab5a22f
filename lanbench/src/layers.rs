//! Micro-timed layers and the paper's cost ledger.
//!
//! Each layer a datagram crosses is timed alone on workload-shaped
//! packets (a full `packet_payload` data packet and a whole-blast
//! positive ack), through the same public calls the node and client
//! make.  The ledger then books those costs as the paper's `C`, `Ca`,
//! `T` and `Ta` (Table 2) and predicts a push with
//! `ErrorFree::blast`, so the gap to the measured push is the cost no
//! layer explains.

use std::hint::black_box;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

use blast_analytic::cost::CostModel;
use blast_analytic::errorfree::ErrorFree;
use blast_core::api::TimerToken;
use blast_core::blast::{BlastReceiver, BlastSender};
use blast_core::harness::{Harness, LossPlan};
use blast_counting_alloc::allocations;
use blast_udp::fcs;
use blast_udp::netio::NetIo;
use blast_udp::timers::TimerWheel;
use blast_wire::packet::{Datagram, DatagramBuilder};
use blast_wire::{AckPayload, HEADER_LEN};

use crate::sys::{self, percentile, Rng};
use crate::Metrics;

/// Timed repetitions of each micro-benchmark; the median is reported.
const REPEATS: usize = 7;

/// Datagrams per NetIo batch, about one paced burst's worth.
const NETIO_BATCH: usize = 32;

/// Median over [`REPEATS`] of the ns per iteration of `f` run `iters`
/// times.
fn ns_per_iter(iters: u32, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(REPEATS);
    f();
    for _ in 0..REPEATS {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / f64::from(iters));
    }
    percentile(&samples, 50.0)
}

/// One data packet and one ack, built as a blast sender and receiver
/// build them.
fn packets(payload: usize) -> (Vec<u8>, Vec<u8>) {
    let body = Rng::new(payload as u64).bytes(payload);
    let b = DatagramBuilder::new(7);
    let mut data = vec![0u8; HEADER_LEN + payload];
    let n = b
        .build_data(&mut data, 3, 1024, 3 * payload as u32, &body, 0, false)
        .expect("data packet fits");
    data.truncate(n);
    let mut ack = vec![0u8; HEADER_LEN + AckPayload::MAX_ENCODED_LEN];
    let n = b
        .build_ack(&mut ack, 1024, &AckPayload::Positive { acked: 1023 })
        .expect("ack fits");
    ack.truncate(n);
    (data, ack)
}

/// `(build, parse, frame, unframe)` ns for one packet shaped like `pkt`.
fn wire_and_fcs(pkt: &[u8]) -> [f64; 4] {
    let parsed = Datagram::parse(pkt).expect("well-formed packet");
    let (kind, total, offset, payload) = (
        parsed.kind,
        parsed.total,
        parsed.offset,
        parsed.payload.to_vec(),
    );
    let b = DatagramBuilder::new(7);
    let mut buf = vec![0u8; pkt.len()];
    let build = ns_per_iter(20_000, || {
        let n = match kind {
            blast_wire::PacketKind::Ack => {
                b.build_ack(&mut buf, total, &AckPayload::Positive { acked: 1023 })
            }
            _ => b.build_data(&mut buf, 3, total, offset, black_box(&payload), 0, false),
        };
        black_box(n.expect("fits"));
    });
    let parse = ns_per_iter(20_000, || {
        black_box(Datagram::parse(black_box(pkt)).expect("parses"));
    });
    let mut framed = Vec::with_capacity(pkt.len() + 4);
    let frame = ns_per_iter(20_000, || {
        fcs::frame_into(black_box(pkt), &mut framed);
        black_box(&framed);
    });
    let unframe = ns_per_iter(20_000, || {
        black_box(fcs::unframe(black_box(&framed)).expect("intact frame"));
    });
    [build, parse, frame, unframe]
}

/// Wall ns per data packet and allocations per data packet of a clean
/// 1 MiB blast between the shipped client and node configurations.
fn engine() -> (f64, f64) {
    const BYTES: usize = 1 << 20;
    let data: std::sync::Arc<[u8]> = Rng::new(1).bytes(BYTES).into();
    let client = sys::shipped_client_config();
    let node = sys::shipped_node_config();
    let run = || {
        let mut h = Harness::new(
            BlastSender::new(1, data.clone(), &client),
            BlastReceiver::new(1, BYTES, &node),
            LossPlan::perfect(),
        );
        let outcome = h.run().expect("a clean transfer completes");
        assert!(
            h.received_data() == &data[..],
            "clean engine run corrupted data"
        );
        outcome.sender.data_packets_sent
    };
    run();
    let mut ns = Vec::with_capacity(REPEATS);
    let mut allocs = 0.0;
    for _ in 0..REPEATS {
        let (t, a0) = (Instant::now(), allocations());
        let packets = run() as f64;
        let a = (allocations() - a0) as f64;
        ns.push(t.elapsed().as_nanos() as f64 / packets);
        allocs = a / packets;
    }
    (percentile(&ns, 50.0), allocs)
}

fn loopback_pair() -> (UdpSocket, UdpSocket) {
    let bind = || UdpSocket::bind("127.0.0.1:0").expect("bind loopback socket");
    (bind(), bind())
}

/// `(send, recv)` ns per datagram through `NetIo` reactor backends on
/// a loopback pair: `queue_to` + `flush` a batch, then `fill` +
/// `pop_into` it on the far socket.
fn netio(frame: &[u8]) -> (f64, f64) {
    let (tx_sock, rx_sock) = loopback_pair();
    let to = rx_sock.local_addr().expect("bound address");
    let mut tx = NetIo::reactor(&tx_sock);
    let mut rx = NetIo::reactor(&rx_sock);
    let mut buf = vec![0u8; 64 * 1024];
    let mut batch = |send: &mut Duration, recv: &mut Duration| {
        let t = Instant::now();
        for _ in 0..NETIO_BATCH {
            tx.queue_to(&tx_sock, frame, Some(to))
                .expect("stage datagram");
        }
        tx.flush(&tx_sock).expect("flush batch");
        *send += t.elapsed();
        let t = Instant::now();
        let mut got = 0;
        let deadline = t + Duration::from_secs(1);
        while got < NETIO_BATCH && Instant::now() < deadline {
            while let Some((n, _)) = rx.pop_into(&mut buf) {
                assert_eq!(n, frame.len(), "loopback datagram changed size");
                got += 1;
            }
            if got < NETIO_BATCH {
                rx.fill(&rx_sock).expect("drain socket");
            }
        }
        assert_eq!(got, NETIO_BATCH, "loopback lost datagrams");
        *recv += t.elapsed();
    };
    let (mut warm_send, mut warm_recv) = (Duration::ZERO, Duration::ZERO);
    batch(&mut warm_send, &mut warm_recv);
    let (mut sends, mut recvs) = (Vec::new(), Vec::new());
    for _ in 0..REPEATS {
        let (mut send, mut recv) = (Duration::ZERO, Duration::ZERO);
        for _ in 0..64 {
            batch(&mut send, &mut recv);
        }
        let per = (64 * NETIO_BATCH) as f64;
        sends.push(send.as_nanos() as f64 / per);
        recvs.push(recv.as_nanos() as f64 / per);
    }
    (percentile(&sends, 50.0), percentile(&recvs, 50.0))
}

/// The load on a node's session timer wheel: keys armed, and heap
/// entries of forgotten keys that stay in the heap until their
/// deadline surfaces them.
pub struct WheelLoad {
    pub live: usize,
    pub stale: usize,
}

/// The node's give-up token; engine tokens count up from 0.
const GIVE_UP: TimerToken = TimerToken(u64::MAX - 1);

/// ns to arm one engine timer of a live session and pop it due, on a
/// wheel keyed as the node keys it, `(transfer_id, token)`, holding
/// `load`.
fn timers(load: &WheelLoad) -> f64 {
    let live = load.live.max(1) as u32;
    let mut wheel = TimerWheel::new();
    let later = Instant::now() + Duration::from_secs(3600);
    for id in 0..live + load.stale as u32 {
        wheel.arm_at((id, GIVE_UP), later);
    }
    // Reaped sessions: the node forgets their keys, the heap keeps
    // their entries.
    wheel.forget_where(|&(id, _)| id >= live);
    let due = Instant::now();
    let mut id = 0;
    let ns = ns_per_iter(50_000, || {
        id = (id + 1) % live;
        wheel.arm_at((black_box(id), TimerToken(0)), due);
        black_box(wheel.pop_due(due).expect("armed key is due"));
    });
    assert_eq!(wheel.len(), live as usize, "timer wheel leaked keys");
    ns
}

/// The backend and offload state a node's shard socket gets on this
/// host.
pub fn netio_probe() -> (String, String) {
    let (sock, _) = loopback_pair();
    let io = NetIo::reactor(&sock);
    (io.backend().name().into(), io.offload().name().into())
}

/// Every micro-timed layer plus the ledger.  `push_bytes` is the size
/// of the workload's push; `push_data_ms` its measured data phase
/// (p50), or `None` where the workload makes no wall-clock push;
/// `wheel` the load the workload put on a node's timer wheel, or
/// `None` where no node runs.
pub fn measure(push_bytes: usize, push_data_ms: Option<f64>, wheel: Option<WheelLoad>) -> Metrics {
    let packet_payload = sys::shipped_client_config().packet_payload;
    let (data, ack) = packets(packet_payload);
    let [build, parse, frame, unframe] = wire_and_fcs(&data);
    let [ack_build, _, ack_frame, _] = wire_and_fcs(&ack);
    let (engine_ns, engine_allocs) = engine();
    let (send, recv) = netio(&fcs::frame(&data));
    let (ack_send, ack_recv) = netio(&fcs::frame(&ack));

    let c = build + frame + engine_ns + send;
    let ca = ack_build + ack_frame + engine_ns + ack_send;
    let model = CostModel {
        c_data: c / 1e6,
        c_ack: ca / 1e6,
        t_data: recv / 1e6,
        t_ack: ack_recv / 1e6,
        tau: 0.0,
    };
    let predicted = ErrorFree::new(model).blast(push_bytes.div_ceil(packet_payload) as u64);

    let mut m = Metrics::new();
    m.insert("wire.build_ns_per_pkt", build);
    m.insert("wire.parse_ns_per_pkt", parse);
    m.insert("fcs.frame_ns_per_pkt", frame);
    m.insert("fcs.unframe_ns_per_pkt", unframe);
    m.insert("engine.ns_per_pkt", engine_ns);
    m.insert("engine.allocs_per_pkt", engine_allocs);
    m.insert("netio.send_ns_per_dgram", send);
    m.insert("netio.recv_ns_per_dgram", recv);
    if let Some(load) = wheel {
        m.insert("timers.arm_pop_ns", timers(&load));
    }
    m.insert("ledger.C_us", c / 1e3);
    m.insert("ledger.Ca_us", ca / 1e3);
    m.insert("ledger.T_us", recv / 1e3);
    m.insert("ledger.predicted_push_ms", predicted);
    m.insert(
        "ledger.model_gap_frac",
        push_data_ms.map_or(0.0, |measured| (measured - predicted) / measured),
    );
    m
}
