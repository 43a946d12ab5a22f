//! End-to-end third-party copy: a client instructs node A to move a
//! named blob directly to/from node B — the bytes never cross the
//! client — and a 1→3 fan-out replicates one source blob to three
//! nodes with per-replica reports.  Every replica is byte-verified by
//! pulling the blob back out, and both nodes' flight recorders must
//! show the transfer actually ran where the protocol says it did.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use blast_core::blast::BlastSender;
use blast_core::ProtocolConfig;
use blast_node::server::NodeBuilder;
use blast_node::{Client, NodeConfig, NodeHandle};
use blast_telemetry::{EventKind, Recorder};
use blast_udp::channel::{Channel, UdpChannel};
use blast_udp::copy::{errcode, CopyMode, CopyMsg, CopyState, CopyStatus, CopySubmit};
use blast_udp::driver::Driver;
use blast_udp::fcs::{self, FcsChannel};
use blast_udp::handshake::Request;
use blast_wire::checksum::crc32;
use blast_wire::header::PacketKind;
use blast_wire::packet::{Datagram, DatagramBuilder};

const TRACE_RING: usize = 1 << 14;

fn node() -> NodeHandle {
    NodeBuilder::new()
        .timeout(Duration::from_millis(20))
        .telemetry(TRACE_RING)
        .start()
        .expect("start node")
}

/// A multi-chunk payload: well past one packet_payload, with content
/// that catches reordering or truncation.
fn blob(len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i.wrapping_mul(2654435761) >> 7) as u8)
        .collect()
}

#[test]
fn push_copy_moves_blob_a_to_b() {
    let a = node();
    let b = node();
    let data = blob(150_000);

    let mut client = Client::connect(a.addr())
        .unwrap()
        .timeout(Duration::from_millis(20))
        .recorder(Recorder::standalone(TRACE_RING));
    client.push("blob", &data).unwrap();

    let report = client.copy_to("blob", b.addr()).unwrap();
    assert_eq!(report.state, CopyState::Done);
    assert_eq!(report.bytes, data.len() as u64);
    assert!(report.verified, "replica digest must match source");
    assert!(
        !report.progress.is_empty(),
        "per-copy progress reports observed"
    );
    assert!(report
        .progress
        .iter()
        .all(|st| st.bytes_done <= st.bytes_total));

    // Byte-verify at the replica: the blob must be pullable from B and
    // identical, even though the client never carried it there.
    let pulled = Client::connect(b.addr())
        .unwrap()
        .timeout(Duration::from_millis(20))
        .pull("blob")
        .unwrap();
    assert_eq!(pulled.data, data);

    // Node A admitted and completed the copy, anchored its clock to
    // the client's epoch, and ran blast rounds for the outbound leg;
    // node B ran blast rounds for the inbound session.  That is the
    // telemetry shape of a genuine node-to-node transfer.
    let trace_a = a.drain_trace();
    let trace_b = b.drain_trace();
    let has = |trace: &[blast_telemetry::TraceEvent], kind: EventKind| {
        trace.iter().any(|e| e.kind == kind)
    };
    assert!(has(&trace_a, EventKind::CopyAdmit), "A records copy-admit");
    assert!(has(&trace_a, EventKind::CopyDone), "A records copy-done");
    assert!(
        has(&trace_a, EventKind::ClockAnchor),
        "A anchors to the client's trace epoch"
    );
    assert!(has(&trace_a, EventKind::RoundStart), "A ran blast rounds");
    assert!(has(&trace_b, EventKind::RoundStart), "B ran blast rounds");
    assert!(has(&trace_b, EventKind::RoundEnd), "B finished its rounds");

    a.shutdown().unwrap();
    let mb = b.shutdown().unwrap();
    assert_eq!(mb.sessions_completed, 2, "copy leg + verification pull");
}

#[test]
fn pull_copy_fetches_blob_from_remote() {
    let a = node();
    let b = node();
    let data = blob(96_000);
    b.store().put("remote-blob", data.clone().into());

    // A starts empty; the client tells it to fetch from B.
    let mut client = Client::connect(a.addr())
        .unwrap()
        .timeout(Duration::from_millis(20));
    let report = client.copy_from("remote-blob", b.addr()).unwrap();
    assert_eq!(report.state, CopyState::Done);
    assert_eq!(report.bytes, data.len() as u64);
    assert!(report.verified);

    assert!(a.store().contains("remote-blob"));
    let pulled = client.pull("remote-blob").unwrap();
    assert_eq!(pulled.data, data);

    let ma = a.shutdown().unwrap();
    assert_eq!(ma.copies_completed, 1);
    b.shutdown().unwrap();
}

#[test]
fn fan_out_replicates_one_source_to_three() {
    let source = node();
    let replicas: Vec<NodeHandle> = (0..3).map(|_| node()).collect();
    let data = blob(120_000);
    source.store().put("gold", data.clone().into());

    let mut client = Client::connect(source.addr())
        .unwrap()
        .timeout(Duration::from_millis(20));
    let addrs: Vec<_> = replicas.iter().map(|r| r.addr()).collect();
    let reports = client.fan_out("gold", &addrs).unwrap();

    assert_eq!(reports.len(), 3, "one report per replica");
    for (report, addr) in reports.iter().zip(&addrs) {
        assert_eq!(report.remote, *addr);
        assert_eq!(report.state, CopyState::Done);
        assert_eq!(report.bytes, data.len() as u64);
        assert!(report.verified, "replica {addr} digest mismatch");
    }

    for replica in replicas {
        let pulled = Client::connect(replica.addr())
            .unwrap()
            .timeout(Duration::from_millis(20))
            .pull("gold")
            .unwrap();
        assert_eq!(pulled.data, data, "replica bytes identical to source");
        replica.shutdown().unwrap();
    }
    let m = source.shutdown().unwrap();
    assert_eq!(m.copies_requested, 3);
    assert_eq!(m.copies_completed, 3);
    assert_eq!(m.copy_bytes_moved, 3 * data.len() as u64);
}

#[test]
fn copy_of_missing_blob_reports_not_found() {
    let a = node();
    let b = node();
    let mut client = Client::connect(a.addr())
        .unwrap()
        .timeout(Duration::from_millis(20));
    let err = client.copy_to("no-such-blob", b.addr()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    let ma = a.shutdown().unwrap();
    assert_eq!(ma.copies_failed, 1);
    b.shutdown().unwrap();
}

/// A hand-driven copy control plane: `Copy` datagrams sent straight to
/// a node's socket, retransmitted until the reply echoing the request's
/// nonce arrives.
struct Control {
    socket: UdpSocket,
    nonce: u32,
}

impl Control {
    fn connect(node: SocketAddr) -> Control {
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        socket.connect(node).unwrap();
        socket
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        Control { socket, nonce: 0 }
    }

    fn status(&mut self, copy_id: u32, msg: &CopyMsg) -> CopyStatus {
        let payload = msg.encode();
        let mut out = vec![0u8; blast_wire::HEADER_LEN + payload.len()];
        let mut rx = [0u8; 2048];
        for _ in 0..40 {
            self.nonce += 1;
            let n = DatagramBuilder::new(copy_id)
                .build_copy(&mut out, self.nonce, &payload)
                .unwrap();
            self.socket.send(&fcs::frame(&out[..n])).unwrap();
            while let Ok(n) = self.socket.recv(&mut rx) {
                let Some(body) = fcs::unframe(&rx[..n]) else {
                    continue;
                };
                let dgram = Datagram::parse(&rx[..body]).unwrap();
                if dgram.kind != PacketKind::Copy || dgram.seq != self.nonce {
                    continue;
                }
                match CopyMsg::decode(dgram.payload) {
                    Some(CopyMsg::Status(st)) => return st,
                    other => panic!("status expected, got {other:?}"),
                }
            }
        }
        panic!("node never answered copy {copy_id}");
    }

    fn query(&mut self, copy_id: u32) -> CopyStatus {
        self.status(copy_id, &CopyMsg::Query)
    }
}

#[test]
fn finished_copies_do_not_count_toward_max_sessions() {
    // Two live legs at most; finished copies are status records only,
    // so back-to-back copies never see a full table.
    let a = NodeBuilder::new()
        .timeout(Duration::from_millis(20))
        .max_sessions(2)
        .start()
        .unwrap();
    let b = node();
    let data = blob(20_000);
    a.store().put("blob", data.clone().into());

    let mut client = Client::connect(a.addr())
        .unwrap()
        .timeout(Duration::from_millis(20));
    for i in 0..8 {
        let report = client.copy_to("blob", b.addr()).unwrap();
        assert_eq!(report.state, CopyState::Done, "copy {i}");
        assert!(report.verified, "copy {i} not verified");
    }
    let ma = a.shutdown().unwrap();
    assert_eq!(ma.rejected_busy, 0);
    assert_eq!(ma.copies_completed, 8);
    b.shutdown().unwrap();
}

#[test]
fn settled_copies_still_answer_queries() {
    let a = NodeBuilder::new()
        .timeout(Duration::from_millis(20))
        .linger(Duration::from_millis(20))
        .start()
        .unwrap();
    let b = node();
    let pushed = blob(70_000);
    let pulled = blob(33_000);
    a.store().put("out", pushed.clone().into());
    b.store().put("in", pulled.clone().into());

    let mut client = Client::connect(a.addr())
        .unwrap()
        .timeout(Duration::from_millis(20));
    let push = client.copy_to("out", b.addr()).unwrap();
    let pull = client.copy_from("in", b.addr()).unwrap();
    // Past the pull leg's linger window: both copies are status
    // records now, well inside the grace window.
    std::thread::sleep(Duration::from_millis(200));

    let mut control = Control::connect(a.addr());
    for (id, data) in [(push.copy_id, &pushed), (pull.copy_id, &pulled)] {
        let len = data.len() as u64;
        assert_eq!(
            control.query(id),
            CopyStatus {
                state: CopyState::Done,
                error: errcode::NONE,
                bytes_done: len,
                bytes_total: len,
                crc32: crc32(data),
            }
        );
    }
    a.shutdown().unwrap();
    b.shutdown().unwrap();
}

/// A channel that loses the first `Ack` it receives: a source whose
/// copy of the destination's final ack went missing.
struct LoseFirstAck<C: Channel> {
    inner: C,
    acks: u32,
}

impl<C: Channel> Channel for LoseFirstAck<C> {
    fn send(&mut self, buf: &[u8]) -> io::Result<()> {
        self.inner.send(buf)
    }

    fn stage(&mut self, buf: &[u8]) -> io::Result<()> {
        self.inner.stage(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }

    fn recv_timeout(&mut self, buf: &mut [u8], timeout: Duration) -> io::Result<Option<usize>> {
        let got = self.inner.recv_timeout(buf, timeout)?;
        if let Some(n) = got {
            if Datagram::parse(&buf[..n]).is_ok_and(|d| d.kind == PacketKind::Ack) {
                self.acks += 1;
                if self.acks == 1 {
                    return Ok(None);
                }
            }
        }
        Ok(got)
    }
}

#[test]
fn pull_copy_leg_lingers_to_reack_a_lost_final_ack() {
    const COPY_ID: u32 = 4242;
    let a = NodeBuilder::new()
        .timeout(Duration::from_millis(20))
        .start()
        .unwrap();
    let data = blob(16_000);

    // The far end is a hand-driven source: it answers the leg's pull
    // handshake, then blasts the blob over a channel that loses the
    // first ack it hears — the destination's final one.
    let source = UdpSocket::bind("127.0.0.1:0").unwrap();
    let source_addr = source.local_addr().unwrap();
    let payload = data.clone();
    let source = std::thread::spawn(move || {
        source
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = [0u8; 2048];
        let (n, leg) = source.recv_from(&mut buf).unwrap();
        let body = fcs::unframe(&buf[..n]).unwrap();
        let dgram = Datagram::parse(&buf[..body]).unwrap();
        let mut request = Request::decode(dgram.payload).expect("pull handshake");
        request.len = payload.len();
        let echo = request.build_datagram(dgram.transfer_id);
        let mut cfg = ProtocolConfig::default();
        cfg.timeout = Duration::from_millis(20).into();
        request.apply_to(&mut cfg);
        let mut engine = BlastSender::new(dgram.transfer_id, payload.into(), &cfg);

        source.connect(leg).unwrap();
        let mut channel = LoseFirstAck {
            inner: FcsChannel::new(UdpChannel::from_socket(source)),
            acks: 0,
        };
        channel.send(&echo).unwrap();
        let mut driver = Driver::new(channel).with_deadline(Duration::from_secs(5));
        driver.request_reply = Some(echo);
        let outcome = driver.run(&mut engine).unwrap();
        (outcome, driver.into_channel().acks)
    });

    let mut control = Control::connect(a.addr());
    let submit = CopyMsg::Submit(CopySubmit {
        mode: CopyMode::Pull,
        remote: source_addr,
        epoch_ns: 0,
        name: "lingered".into(),
    });
    assert!(!control.status(COPY_ID, &submit).state.is_terminal());
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let st = control.query(COPY_ID);
        if st.state == CopyState::Done {
            break;
        }
        assert!(!st.state.is_terminal(), "copy ended as {st:?}");
        assert!(Instant::now() < deadline, "copy never finished");
        std::thread::sleep(Duration::from_millis(1));
    }
    // The destination is done; its source is not until the re-ack
    // lands.  The status must read Done all along.
    while !source.is_finished() {
        assert_eq!(control.query(COPY_ID).state, CopyState::Done);
        std::thread::sleep(Duration::from_millis(1));
    }
    let (outcome, acks) = source.join().unwrap();
    assert!(
        outcome.completion.is_success(),
        "source never heard a final ack: {:?}",
        outcome.completion
    );
    assert!(
        acks >= 2,
        "the node re-acked the lost final ack ({acks} acks)"
    );

    // Past the linger window the leg is a status record, still Done.
    std::thread::sleep(NodeConfig::default().linger + Duration::from_millis(50));
    let st = control.query(COPY_ID);
    assert_eq!(st.state, CopyState::Done);
    assert_eq!(st.bytes_total, data.len() as u64);
    assert_eq!(st.crc32, crc32(&data));
    assert_eq!(a.store().get("lingered").as_deref(), Some(&data[..]));
    let ma = a.shutdown().unwrap();
    assert_eq!((ma.copies_completed, ma.copies_failed), (1, 0));
}
