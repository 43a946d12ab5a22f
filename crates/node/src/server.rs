//! The node: N reactor shards on one address, many concurrent
//! transfers.
//!
//! The paper's engines move one transfer at a time; a node multiplexes
//! many.  Each reactor shard is a thread that owns one non-blocking
//! `UdpSocket` and runs the classic cycle:
//!
//! 1. fire due timers from a [`TimerWheel`] keyed by
//!    `(transfer_id, TimerToken)` — each session's engine timers plus
//!    two node-owned timers per session (linger-reap and give-up);
//! 2. drain the socket, routing `Request` packets to the handshake
//!    logic and everything else through the [`Demux`] to the owning
//!    engine;
//! 3. execute whatever actions the engines emitted (transmissions go
//!    out `send_to` the session's peer, wrapped in the FCS trailer);
//! 4. if nothing happened, park briefly — `std` has no selector, and
//!    at the timescales the paper measures (1.35 ms of processor time
//!    *per packet*) sub-millisecond parking is invisible.
//!
//! [`NodeBuilder`] scales that cycle across cores: with `shards(n)` it
//! binds `n` `SO_REUSEPORT` sockets on one address and the kernel's
//! 4-tuple hash pins every remote endpoint — hence every session — to
//! exactly one shard.  Shards share nothing on the packet path: each
//! has its own [`NetIo`] backend, timer wheel, session table, buffer
//! pool, and a plain (unlocked) [`NodeMetrics`] accumulator that it
//! publishes into a shared snapshot slot once per tick; the
//! [`NodeHandle`] merges those snapshots on read.  Only the blob store
//! is shared, and it is touched only at session boundaries.
//!
//! Sessions are created by the `Request` pre-allocation handshake from
//! `blast-udp`: a push request allocates a [`BlastReceiver`] for the
//! announced length before any data arrives (the paper's premise), a
//! pull request looks the named blob up in the
//! [`Store`](crate::store::Store) and blasts it back with the strategy
//! the client asked for.  Finished engines linger briefly — a finished
//! receiver must keep re-acking duplicates or a lost final ack strands
//! its peer (§3.2.2's tail problem) — and are then reaped from the
//! demux table.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use blast_core::api::{Action, CompletionInfo, TimerToken};
use blast_core::blast::{BlastReceiver, BlastSender};
use blast_core::config::ProtocolConfig;
use blast_core::demux::Demux;
use blast_core::multiblast::MultiBlastSender;
use blast_core::pool::BufferPool;
use blast_core::{AdaptiveTimeout, Engine, PacingConfig};
use blast_telemetry::{EventKind, Recorder, Telemetry};
use blast_udp::copy::{errcode, BlobDigest, CopyMode, CopyMsg, CopyState, CopyStatus, CopySubmit};
use blast_udp::fcs;
use blast_udp::handshake::{Direction, Request};
use blast_udp::netio::NetIo;
use blast_udp::sockopt;
use blast_udp::timers::TimerWheel;
use blast_wire::checksum::crc32;
use blast_wire::header::PacketKind;
use blast_wire::packet::{Datagram, DatagramBuilder};

use crate::metrics::{NodeMetrics, SessionReport, ShardReport};
use crate::store::{shared_store, SharedStore};

/// Reap a finished session's engine after the linger period (on the
/// copy wheel: end a settled pull leg's linger window).
const REAP: TimerToken = TimerToken(u64::MAX);
/// Abandon a session whose peer went silent.
const GIVE_UP: TimerToken = TimerToken(u64::MAX - 1);
/// Retransmit the outbound handshake of a third-party copy.
const COPY_HS: TimerToken = TimerToken(u64::MAX - 2);

/// How long a terminal copy keeps answering status queries before it is
/// reaped — the control-plane twin of the data-plane linger window: the
/// orchestrating client must be able to read the final status even if
/// its first few polls are lost.
const COPY_GRACE: Duration = Duration::from_secs(5);

/// Most terminal copy statuses a shard keeps.  Live legs are bounded
/// by `max_sessions`; the records they leave behind are bounded here,
/// so a flood of refused submits cannot grow a shard without limit.
/// The oldest record goes early when a new one would exceed the cap.
const MAX_COPY_RECORDS: usize = 1 << 16;

/// The status of a copy id this shard has never seen (or has already
/// reaped), and the blank other statuses are built from.
const UNKNOWN_COPY: CopyStatus = CopyStatus {
    state: CopyState::Unknown,
    error: errcode::NONE,
    bytes_done: 0,
    bytes_total: 0,
    crc32: 0,
};

/// How long a shard may sit on counter-only metric changes before
/// republishing its snapshot.  Session events (accept, finish, reject)
/// publish immediately; pure datagram counters may lag by this much.
const PUBLISH_INTERVAL: Duration = Duration::from_millis(1);

/// Tunables for one node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Address to bind (use port 0 for an ephemeral port).
    pub bind: SocketAddr,
    /// Reactor shards.  `1` is the classic single-threaded node; more
    /// bind an `SO_REUSEPORT` socket group so the kernel spreads
    /// sessions across threads.  Platforms without reuseport groups
    /// (non-Linux) fall back to one shard.
    pub shards: usize,
    /// Base protocol parameters for server-side engines.  Packet size,
    /// strategy and multiblast chunk are overridden per session by the
    /// client's request; timeout and retry limits are the node's.
    pub protocol: ProtocolConfig,
    /// How long a finished engine keeps answering duplicates before it
    /// is reaped (the tail-ack insurance of §3.2.2).  This is a *quiet*
    /// window: traffic for the session restarts it, so a peer still
    /// retransmitting — its copy of our final ack was lost — keeps the
    /// engine alive until it converges (bounded by
    /// [`session_timeout`](NodeConfig::session_timeout)).  Must exceed
    /// the slowest client's retransmission interval.
    pub linger: Duration,
    /// Bound on a session's total lifetime: an engine that has not
    /// completed by then is failed (peer crashed mid-transfer), and a
    /// finished engine still lingering is reaped regardless.
    pub session_timeout: Duration,
    /// Maximum concurrent sessions per shard; requests beyond it are
    /// cancelled.  Live third-party copy legs are admitted against the
    /// same bound in a table of their own; finished copies, kept only
    /// as status records, do not count.
    pub max_sessions: usize,
    /// Largest transfer a push request may announce.  The handshake
    /// pre-allocates the whole receive buffer from the wire-supplied
    /// length (the paper's premise), so without a bound one spoofed
    /// datagram could demand a terabyte allocation.
    pub max_transfer_bytes: usize,
}

impl Default for NodeConfig {
    fn default() -> Self {
        let mut protocol = ProtocolConfig::default();
        // Server-side transmission control: loopback/LAN round trips are
        // far below the paper's 173 ms To(D), so let the Jacobson/Karn
        // estimator find the real RTT (seeded at 25 ms), and pace blast
        // rounds so a pull does not dump a whole round into the
        // client's receive buffer in one scheduler quantum.
        protocol.timeout = blast_core::AdaptiveTimeout::lan();
        protocol.pacing = blast_core::PacingConfig::lan();
        protocol.max_retries = 1000;
        NodeConfig {
            bind: "127.0.0.1:0".parse().expect("literal addr"),
            shards: 1,
            protocol,
            linger: Duration::from_millis(250),
            session_timeout: Duration::from_secs(30),
            max_sessions: 1024,
            max_transfer_bytes: 256 * 1024 * 1024,
        }
    }
}

/// Node-side state for one transfer (the engine itself lives in the
/// demux table under the same id).
#[derive(Debug)]
struct Session {
    peer: SocketAddr,
    direction: Direction,
    name: String,
    /// The echo datagram, re-sent verbatim for duplicate requests.
    echo: Vec<u8>,
    started: Instant,
    finished: bool,
}

/// One live third-party copy leg: the node acts as a *client* toward
/// another node, reusing the same engine machinery its own clients use,
/// driven from this shard's reactor loop (no blocking thread per copy).
///
/// The outbound leg runs over its own connected ephemeral-port socket
/// rather than the shard's `SO_REUSEPORT` socket: replies from the
/// remote node must come back to *this* shard, and the kernel's 4-tuple
/// hash over the shared address would happily deliver them to a
/// sibling.  A dedicated socket makes the 4-tuple unique, at the cost
/// of the reactor polling it each tick (bounded by the 1 ms tick cap
/// while legs are live); the engine's pace/RTO timers still ride the
/// shard's exact timer machinery.
///
/// A leg is live while it handshakes or moves data, and a settled pull
/// leg stays live through the linger window to re-ack its source.  Then
/// it shrinks to its [`CopyStatus`]: socket, engine and buffers go, and
/// only the status record answers queries until the grace window ends.
struct CopyLeg {
    /// The client-chosen copy id — also the transfer id of the
    /// outbound leg, so the client's id-uniqueness discipline extends
    /// to the remote node.
    copy_id: u32,
    mode: CopyMode,
    name: String,
    state: CopyState,
    /// One of [`errcode`]'s codes once `state` is `Failed`.
    error: u8,
    bytes_total: u64,
    /// CRC-32 of the moved blob: computed up front for pushes, on
    /// completion for pulls.
    crc32: u32,
    /// Payload bytes per data packet, for the running-progress
    /// estimate.
    packet_payload: u64,
    /// The outbound engine: `None` while handshaking; after the leg
    /// settles, kept only by a lingering pull leg.
    engine: Option<Box<dyn Engine>>,
    /// The leg's own connected socket.
    socket: UdpSocket,
    /// The source blob, held from submit until the handshake echo
    /// promotes it into a sender engine (push mode only).
    blob: Option<std::sync::Arc<[u8]>>,
    /// The framed handshake datagram, re-sent verbatim on `COPY_HS`.
    request_frame: Vec<u8>,
    started: Instant,
    retry_interval: Duration,
}

impl CopyLeg {
    /// The status this leg reports: exact when terminal, estimated from
    /// engine counters while the data phase runs.
    fn status(&self) -> CopyStatus {
        let bytes_done = match self.state {
            CopyState::Done => self.bytes_total,
            CopyState::Running => self
                .engine
                .as_ref()
                .map(|e| {
                    let st = e.stats();
                    let pkts = match self.mode {
                        CopyMode::Push => st
                            .data_packets_sent
                            .saturating_sub(st.data_packets_retransmitted),
                        CopyMode::Pull => st.data_packets_received,
                    };
                    (pkts * self.packet_payload).min(self.bytes_total)
                })
                .unwrap_or(0),
            _ => 0,
        };
        CopyStatus {
            state: self.state,
            error: self.error,
            bytes_done,
            bytes_total: self.bytes_total,
            crc32: self.crc32,
        }
    }
}

/// Bind and connect the dedicated outbound socket for one copy.
fn copy_socket(remote: SocketAddr) -> io::Result<UdpSocket> {
    let local: SocketAddr = if remote.is_ipv4() {
        "0.0.0.0:0".parse().expect("literal addr")
    } else {
        "[::]:0".parse().expect("literal addr")
    };
    let socket = UdpSocket::bind(local)?;
    socket.connect(remote)?;
    socket.set_nonblocking(true)?;
    sockopt::grow_buffers(&socket);
    Ok(socket)
}

/// One reactor shard: a socket, an event loop, and the sessions the
/// kernel's 4-tuple hash routed to it.
///
/// This is the pre-sharding `NodeServer`, unchanged in behaviour; a
/// single-shard node *is* one of these.  Construct it through
/// [`NodeBuilder`].
pub struct NodeServer {
    socket: UdpSocket,
    /// The syscall backend: batched `recvmmsg` drains and `sendmmsg`
    /// bursts with event-driven idle waits where available, the
    /// portable single-syscall fallback elsewhere.
    io: NetIo,
    config: NodeConfig,
    store: SharedStore,
    /// The shard's own accumulator: plain fields, no lock — only this
    /// reactor thread touches it, so per-datagram accounting is a bare
    /// integer increment.
    local: NodeMetrics,
    /// The published snapshot the owning [`NodeHandle`] reads.  Written
    /// by [`publish_metrics`](NodeServer::publish_metrics) at most once
    /// per tick — never from the per-datagram path.
    slot: Arc<Mutex<NodeMetrics>>,
    shutdown: Arc<AtomicBool>,
    demux: Demux,
    sessions: HashMap<u32, Session>,
    timers: TimerWheel<(u32, TimerToken)>,
    /// Live outbound third-party copy legs this shard is driving, by
    /// copy id.  Only these are polled, keep the park short and count
    /// toward `max_sessions`.
    copies: HashMap<u32, CopyLeg>,
    /// Terminal copies, by copy id: just the final status, kept for
    /// [`COPY_GRACE`] so the orchestrating client can read it.
    copy_records: HashMap<u32, CopyStatus>,
    /// When each status record expires, oldest first.  Every record
    /// gets the same grace, so insertion order is expiry order and a
    /// queue does what a timer per record would.
    copy_expiry: VecDeque<(Instant, u32)>,
    /// Timers for the live legs' engines plus the node-owned `COPY_HS`,
    /// `GIVE_UP` and `REAP` tokens.  A separate wheel: copy ids are
    /// client-chosen and may collide with local session ids.
    copy_timers: TimerWheel<(u32, TimerToken)>,
    /// Reused id scratch for the per-tick copy-socket poll.
    copy_scratch: Vec<u32>,
    /// Epoch for the engines' sans-I/O clock ([`Engine::set_now`]):
    /// every engine in the session table shares this zero point, so the
    /// adaptive RTO's round-trip samples are plain differences.
    epoch: Instant,
    /// Reused datagram receive buffer (one per shard, not one per tick).
    recv_buf: Vec<u8>,
    /// Reused FCS framing scratch for outgoing datagrams.
    frame_buf: Vec<u8>,
    /// Reused engine-action sink: taken for the duration of an engine
    /// call, drained by [`execute`](NodeServer::execute), put back.
    scratch: Vec<Action>,
    /// Session-event count (accepts, finishes, rejects) at the last
    /// publish: any change republishes immediately so waiters see
    /// session state without polling lag.
    published_events: u64,
    last_publish: Instant,
    /// The shard's flight recorder, when the node was built with
    /// telemetry.  Handed to every session engine on admission.
    recorder: Option<Recorder>,
    /// Every shard's snapshot slot (own included), so a `Stats` query
    /// landing on this shard can answer for the whole node.
    peer_slots: Vec<Arc<Mutex<NodeMetrics>>>,
}

impl NodeServer {
    /// Build a reactor shard around a bound, non-blocking socket.
    ///
    /// Runs on the shard's own thread, so the backend's rings, the
    /// receive buffer and the pool warm-up land in memory that thread
    /// uses, while the caller of [`NodeBuilder::start`] moves on.
    fn new(
        config: NodeConfig,
        store: SharedStore,
        socket: UdpSocket,
        shutdown: Arc<AtomicBool>,
        force_portable: bool,
        slot: Arc<Mutex<NodeMetrics>>,
        peer_slots: Vec<Arc<Mutex<NodeMetrics>>>,
    ) -> Self {
        // The syscall backend: one recvmmsg per reactor wakeup, one
        // sendmmsg per engine burst, epoll+timerfd idle waits.
        let io = if force_portable {
            NetIo::portable(true)
        } else {
            NetIo::reactor(&socket)
        };
        // Every session's engine on this shard clones `config.protocol`,
        // so they all share this pool; pre-warm it so the first blast
        // round is already allocation free.
        config.protocol.pool.warm(64);
        let mut local = NodeMetrics::default();
        local.netio_backend = io.backend().name().to_string();
        local.netio_offload = io.offload().name().to_string();
        NodeServer {
            socket,
            io,
            config,
            store,
            local,
            slot,
            shutdown,
            demux: Demux::new(),
            sessions: HashMap::new(),
            timers: TimerWheel::new(),
            copies: HashMap::new(),
            copy_records: HashMap::new(),
            copy_expiry: VecDeque::new(),
            copy_timers: TimerWheel::new(),
            copy_scratch: Vec::new(),
            epoch: Instant::now(),
            // Sized for the largest per-datagram view the backend can
            // pop: a GRO-coalesced read's segments never exceed one
            // framed datagram, but a 64 KB buffer keeps the shard
            // correct even if a peer sends jumbo datagrams, at the cost
            // of one buffer per shard.
            recv_buf: vec![0u8; 64 * 1024],
            frame_buf: Vec::new(),
            scratch: Vec::new(),
            published_events: 0,
            last_publish: Instant::now(),
            recorder: None,
            peer_slots,
        }
    }

    /// Attach the shard's flight recorder.  The recorder's epoch
    /// replaces the engine clock's zero point, so engine `record_at`
    /// stamps and the backend's wall-clock `record` stamps land on one
    /// consistent node-wide timeline.
    fn attach_recorder(&mut self, recorder: Recorder) {
        self.epoch = recorder.epoch();
        self.io.set_recorder(recorder.clone());
        self.recorder = Some(recorder);
    }

    /// Run the event loop until the shutdown flag is set.
    fn run(&mut self) -> io::Result<()> {
        // The backend names reach the handle before the first tick.
        self.publish_now();
        let mut result = Ok(());
        while result.is_ok() && !self.shutdown.load(Ordering::Relaxed) {
            result = self.tick();
        }
        // Whatever happened, leave the final state visible to the
        // handle before the thread exits.
        self.publish_now();
        result
    }

    /// One reactor cycle: timers, then a socket drain, then a flush of
    /// everything the engines queued, then (if idle) an event-driven
    /// wait — epoll + timerfd wakes on the first datagram or at the
    /// next timer deadline, whichever comes first (the portable
    /// fallback degrades to a bounded sleep).
    fn tick(&mut self) -> io::Result<()> {
        let now = Instant::now();
        let mut timers_fired = 0u64;
        while let Some((id, token)) = self.timers.pop_due(now) {
            timers_fired += 1;
            self.on_timer(id, token)?;
        }
        while let Some((id, token)) = self.copy_timers.pop_due(now) {
            timers_fired += 1;
            self.on_copy_timer(id, token);
        }
        self.expire_copy_records(now);
        let drained = self.drain_socket()?;
        let copied = self.poll_copies();
        // Only ticks that did work are traced — idle wakeups would
        // drown the ring without saying anything.
        if drained + copied > 0 || timers_fired > 0 {
            if let Some(rec) = &self.recorder {
                rec.record(
                    0,
                    EventKind::ShardTick,
                    (drained + copied) as u64,
                    timers_fired,
                );
            }
        }
        // Everything staged this tick goes out before any wait: one
        // sendmmsg carries the coalesced acks/bursts of all sessions.
        self.io.flush(&self.socket)?;
        self.sync_io_stats();
        self.publish_metrics();
        if drained == 0 && copied == 0 {
            let next = match (
                self.timers.next_deadline(),
                self.copy_timers.next_deadline(),
            ) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            let mut park = next
                .map(|d| d.saturating_duration_since(Instant::now()))
                .unwrap_or(Duration::from_millis(5))
                .clamp(PacingConfig::MIN_WAIT, Duration::from_millis(10));
            if !self.copies.is_empty() {
                // Live legs' sockets are polled, not in the event wait:
                // cap the park so an incoming ack on an outbound leg
                // waits at most a millisecond.
                park = park.min(Duration::from_millis(1));
            }
            self.io.wait(park)?;
        }
        Ok(())
    }

    /// Mirror the backend's syscall counters into the shard
    /// accumulator.  The backend is the authority on what actually
    /// reached the kernel: `datagrams_sent` counts flushed submissions
    /// only, so datagrams dropped at flush are never double-booked as
    /// sent.
    fn sync_io_stats(&mut self) {
        let io = self.io.stats;
        self.local.io = io;
        self.local.datagrams_sent = io.datagrams_sent;
        self.local.send_drops = io.send_drops;
    }

    /// Session events since birth: any change means session state moved
    /// and the snapshot must refresh immediately (waiters poll it).
    fn session_events(&self) -> u64 {
        self.local.sessions_accepted
            + self.local.sessions_completed
            + self.local.sessions_failed
            + self.local.rejected_busy
            + self.local.rejected_oversize
            + self.local.pull_misses
            + self.local.collisions
            + self.local.copies_requested
            + self.local.copies_completed
            + self.local.copies_failed
    }

    /// Refresh the published snapshot: immediately on session events,
    /// at most every [`PUBLISH_INTERVAL`] for counter-only drift.  Runs
    /// once per tick, never per datagram, and in steady state (no new
    /// finished sessions) the copy reuses the slot's allocations.
    fn publish_metrics(&mut self) {
        let events = self.session_events();
        if events != self.published_events || self.last_publish.elapsed() >= PUBLISH_INTERVAL {
            self.publish_now();
            self.published_events = events;
        }
    }

    fn publish_now(&mut self) {
        self.local
            .publish_into(&mut self.slot.lock().expect("metrics slot"));
        self.last_publish = Instant::now();
    }

    /// Receive until the socket is dry (or a batch limit, so timers are
    /// never starved by a firehose).  Returns datagrams processed.
    fn drain_socket(&mut self) -> io::Result<usize> {
        // Take/put-back so the shard recycles one receive buffer for
        // its whole lifetime (`on_datagram` needs `&mut self`).
        let mut buf = std::mem::take(&mut self.recv_buf);
        let result = self.drain_socket_into(&mut buf);
        self.recv_buf = buf;
        result
    }

    fn drain_socket_into(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut drained = 0;
        while drained < 128 {
            // Pop from the last recvmmsg batch; refill with one kernel
            // crossing when it runs dry.
            let Some((n, peer)) = self.io.pop_into(buf) else {
                if self.io.fill(&self.socket)? == 0 {
                    break;
                }
                continue;
            };
            let Some(peer) = peer else { continue };
            drained += 1;
            self.local.datagrams_received += 1;
            let Some(body) = fcs::unframe(&buf[..n]) else {
                self.local.fcs_drops += 1;
                continue;
            };
            self.on_datagram(&buf[..body], peer)?;
        }
        Ok(drained)
    }

    fn on_datagram(&mut self, raw: &[u8], peer: SocketAddr) -> io::Result<()> {
        let Ok(dgram) = Datagram::parse(raw) else {
            self.local.malformed += 1;
            return Ok(());
        };
        if dgram.kind == PacketKind::Request {
            return self.on_request(&dgram, raw, peer);
        }
        if dgram.kind == PacketKind::Stats {
            return self.on_stats(&dgram, peer);
        }
        if dgram.kind == PacketKind::Copy {
            return self.on_copy(&dgram, peer);
        }
        let id = dgram.transfer_id;
        match self.sessions.get(&id) {
            // Only the session's peer may drive its engine.
            Some(s) if s.peer == peer => {
                let now = self.epoch.elapsed();
                let mut sink = std::mem::take(&mut self.scratch);
                if let Some(engine) = self.demux.get_mut(id) {
                    engine.set_now(now);
                    engine.on_datagram(&dgram, &mut sink);
                }
                let executed = self.execute(id, &mut sink);
                sink.clear();
                self.scratch = sink;
                executed?;
                // Traffic for a finished session means the peer has not
                // heard our final ack yet: postpone the reap so the
                // engine stays to re-answer (the linger quiet window).
                if self.sessions.get(&id).is_some_and(|s| s.finished) {
                    self.timers.arm((id, REAP), self.config.linger);
                }
                Ok(())
            }
            _ => {
                self.local.unroutable += 1;
                Ok(())
            }
        }
    }

    fn on_request(&mut self, dgram: &Datagram<'_>, raw: &[u8], peer: SocketAddr) -> io::Result<()> {
        let id = dgram.transfer_id;
        let Some(request) = Request::decode(dgram.payload) else {
            self.local.malformed += 1;
            return Ok(());
        };
        if let Some(session) = self.sessions.get(&id) {
            if session.peer == peer {
                // Duplicate request: our echo was lost; re-send it.
                let echo = session.echo.clone();
                self.send_framed(peer, &echo)?;
            } else {
                // Someone else's id: refuse rather than cross wires.
                self.local.collisions += 1;
                self.send_cancel(id, peer)?;
            }
            return Ok(());
        }
        if self.sessions.len() >= self.config.max_sessions {
            self.local.rejected_busy += 1;
            return self.send_cancel(id, peer);
        }
        // The announced length becomes an eager allocation: bound it
        // before trusting a 24-byte datagram with a terabyte.
        if request.direction == Direction::Push && request.len > self.config.max_transfer_bytes {
            self.local.rejected_oversize += 1;
            return self.send_cancel(id, peer);
        }

        let mut engine_cfg = self.config.protocol.clone();
        request.apply_to(&mut engine_cfg);
        let (engine, echo, announced): (Box<dyn Engine>, Vec<u8>, usize) = match request.direction {
            Direction::Push => {
                // Pre-allocate the whole receive buffer from the
                // announced length — the paper's premise — and echo the
                // request verbatim.
                let engine = BlastReceiver::new(id, request.len, &engine_cfg);
                (Box::new(engine), raw.to_vec(), request.len)
            }
            Direction::Pull => {
                let blob = self.store.get(&request.name);
                let Some(blob) = blob else {
                    self.local.pull_misses += 1;
                    return self.send_cancel(id, peer);
                };
                // Fill the length in before echoing: the echo is the
                // client's size announcement.
                let mut advertised = request.clone();
                advertised.len = blob.len();
                let echo = advertised.build_datagram(id);
                let announced = blob.len();
                let engine: Box<dyn Engine> = if request.multiblast_chunk > 0 {
                    Box::new(MultiBlastSender::new(id, blob, &engine_cfg))
                } else {
                    Box::new(BlastSender::new(id, blob, &engine_cfg))
                };
                (engine, echo, announced)
            }
        };

        self.local.sessions_accepted += 1;
        match request.direction {
            Direction::Push => self.local.pushes += 1,
            Direction::Pull => self.local.pulls += 1,
        }
        self.sessions.insert(
            id,
            Session {
                peer,
                direction: request.direction,
                name: request.name.clone(),
                echo: echo.clone(),
                started: Instant::now(),
                finished: false,
            },
        );
        // Echo before starting the engine so that, in order-preserving
        // conditions, the size announcement precedes round-0 data.
        self.send_framed(peer, &echo)?;
        let mut engine = engine;
        if let Some(rec) = &self.recorder {
            engine.set_recorder(rec.clone());
            let direction = match request.direction {
                Direction::Push => 0,
                Direction::Pull => 1,
            };
            rec.record(id, EventKind::SessionAdmit, direction, announced as u64);
        }
        engine.set_now(self.epoch.elapsed());
        let mut sink = std::mem::take(&mut self.scratch);
        self.demux.register(engine, &mut sink);
        self.timers.arm((id, GIVE_UP), self.config.session_timeout);
        let executed = self.execute(id, &mut sink);
        sink.clear();
        self.scratch = sink;
        executed
    }

    fn on_timer(&mut self, id: u32, token: TimerToken) -> io::Result<()> {
        match token {
            REAP => {
                self.reap(id);
                Ok(())
            }
            GIVE_UP => {
                // The hard bound on session lifetime: fail an engine
                // that never completed, and evict even a finished one
                // whose peer keeps the linger window open forever.
                let timed_out = self.sessions.get(&id).is_some_and(|s| !s.finished);
                if timed_out {
                    let info = self.demux.get(id).map(|e| {
                        CompletionInfo::failure(
                            blast_core::CoreError::BadState {
                                what: "session timed out",
                            },
                            e.stats(),
                        )
                    });
                    if let Some(info) = info {
                        self.finish_session(id, &info);
                    }
                }
                self.reap(id);
                Ok(())
            }
            _ => {
                let now = self.epoch.elapsed();
                let mut sink = std::mem::take(&mut self.scratch);
                if let Some(engine) = self.demux.get_mut(id) {
                    engine.set_now(now);
                    engine.on_timer(token, &mut sink);
                }
                let executed = self.execute(id, &mut sink);
                sink.clear();
                self.scratch = sink;
                executed
            }
        }
    }

    /// Apply one session's engine actions to the world (draining
    /// `actions`, whose capacity the caller reuses).
    fn execute(&mut self, id: u32, actions: &mut Vec<Action>) -> io::Result<()> {
        let Some(peer) = self.sessions.get(&id).map(|s| s.peer) else {
            actions.clear();
            return Ok(());
        };
        let mut completion = None;
        for action in actions.drain(..) {
            match action {
                Action::Transmit(bytes) => self.send_framed(peer, &bytes)?,
                Action::SetTimer { token, after } => self.timers.arm((id, token), after),
                Action::CancelTimer { token } => self.timers.cancel((id, token)),
                Action::Complete(info) => completion = Some(*info),
            }
        }
        if let Some(info) = completion {
            self.finish_session(id, &info);
            // Keep the engine routable through the linger window, then
            // sweep it (completed-engine reaping).
            self.timers.arm((id, REAP), self.config.linger);
        }
        Ok(())
    }

    fn finish_session(&mut self, id: u32, info: &CompletionInfo) {
        let Some(session) = self.sessions.get_mut(&id) else {
            return;
        };
        if session.finished {
            return;
        }
        session.finished = true;
        // GIVE_UP stays armed: it now bounds the linger phase.
        let ok = info.is_success();
        let bytes = *info.result.as_ref().unwrap_or(&0);
        // A completed push becomes a named blob other clients can pull.
        if ok && session.direction == Direction::Push && !session.name.is_empty() {
            if let Some(data) = self.demux.get(id).and_then(Engine::received_data) {
                self.store.put(&session.name, data.to_vec().into());
            }
        }
        let report = SessionReport {
            transfer_id: id,
            direction: session.direction,
            name: session.name.clone(),
            bytes,
            elapsed: session.started.elapsed(),
            stats: info.stats,
            // The AIMD burst trajectory, for paced sender engines: how
            // far the burst grew (or shrank) by the end of the session.
            pacing: self.demux.get(id).and_then(Engine::pacing_snapshot),
            ok,
        };
        self.local.record(report);
        if let Some(rec) = &self.recorder {
            rec.record(id, EventKind::SessionReap, u64::from(ok), bytes as u64);
        }
    }

    /// Answer a control-plane `Stats` query with a whole-node snapshot:
    /// the merged [`NodeMetrics`] summary plus one line per shard.  The
    /// query lands on whichever shard the client's 4-tuple hashes to,
    /// so shards read each other's *published* snapshots (the same ones
    /// a local [`NodeHandle`] merges) rather than anything shared on
    /// the packet path.
    fn on_stats(&mut self, dgram: &Datagram<'_>, peer: SocketAddr) -> io::Result<()> {
        // Cap the reply comfortably inside one datagram.
        const MAX_STATS_PAYLOAD: usize = 8 * 1024;
        // Publish first so the reply reflects this very tick.
        self.publish_now();
        let mut merged = NodeMetrics::default();
        let mut shard_lines = String::new();
        for (i, slot) in self.peer_slots.iter().enumerate() {
            let m = slot.lock().expect("metrics slot");
            merged.merge_from(&m);
            shard_lines.push_str(&ShardReport::from_metrics(i, &m).summary());
            shard_lines.push('\n');
        }
        let mut text = merged.summary();
        text.push('\n');
        text.push_str(&shard_lines);
        if text.len() > MAX_STATS_PAYLOAD {
            let mut cut = MAX_STATS_PAYLOAD;
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            text.truncate(cut);
        }
        let mut buf = vec![0u8; blast_wire::HEADER_LEN + text.len()];
        let n = DatagramBuilder::new(dgram.transfer_id)
            .build_stats(&mut buf, dgram.seq, text.as_bytes())
            .expect("stats reply fits");
        self.send_framed(peer, &buf[..n])?;
        if let Some(rec) = &self.recorder {
            rec.record(0, EventKind::StatsServed, text.len() as u64, 0);
        }
        Ok(())
    }

    fn reap(&mut self, id: u32) {
        self.demux.remove(id);
        self.sessions.remove(&id);
        self.timers.forget_where(|&(session, _)| session == id);
    }

    fn send_framed(&mut self, peer: SocketAddr, datagram: &[u8]) -> io::Result<()> {
        // Frame into the shard's reused scratch, then stage into the
        // backend's batch: a whole engine burst goes out in one
        // sendmmsg when the queue fills or the tick flushes.  Loss-like
        // submission failures (peer's ICMP unreachable, full send
        // buffer) are counted as drops inside the backend — the
        // protocols recover by retransmission, so they are not server
        // failures.
        let mut framed = std::mem::take(&mut self.frame_buf);
        fcs::frame_into(datagram, &mut framed);
        let queued = self.io.queue_to(&self.socket, &framed, Some(peer));
        self.frame_buf = framed;
        queued
        // `datagrams_sent` is mirrored from the backend in
        // `sync_io_stats`: only datagrams that actually flushed count.
    }

    fn send_cancel(&mut self, id: u32, peer: SocketAddr) -> io::Result<()> {
        let mut buf = [0u8; blast_wire::HEADER_LEN];
        let n = DatagramBuilder::new(id)
            .build_cancel(&mut buf)
            .expect("cancel fits");
        self.send_framed(peer, &buf[..n])
    }

    /// Dispatch one `Copy` control datagram from an orchestrating
    /// client: submit a copy, answer a status query, or digest a blob.
    fn on_copy(&mut self, dgram: &Datagram<'_>, peer: SocketAddr) -> io::Result<()> {
        let Some(msg) = CopyMsg::decode(dgram.payload) else {
            self.local.malformed += 1;
            return Ok(());
        };
        let id = dgram.transfer_id;
        let nonce = dgram.seq;
        match msg {
            CopyMsg::Submit(submit) => self.on_copy_submit(id, nonce, submit, peer),
            CopyMsg::Query => {
                // An unknown id decodes to a terminal `Unknown` status:
                // never submitted, or already past the grace window.
                let status = self.copy_status(id).unwrap_or(UNKNOWN_COPY);
                self.send_copy_msg(id, nonce, &CopyMsg::Status(status), peer)
            }
            CopyMsg::Digest { name } => {
                let digest = match self.store.get(&name) {
                    Some(blob) => BlobDigest {
                        found: true,
                        len: blob.len() as u64,
                        crc32: crc32(&blob),
                    },
                    None => BlobDigest {
                        found: false,
                        len: 0,
                        crc32: 0,
                    },
                };
                self.send_copy_msg(id, nonce, &CopyMsg::DigestReply(digest), peer)
            }
            // Replies are node-to-client; one arriving *at* a node is
            // noise from a confused or malicious peer.
            CopyMsg::Status(_) | CopyMsg::DigestReply(_) => {
                self.local.unroutable += 1;
                Ok(())
            }
        }
    }

    /// The current status of copy `id`, live or terminal.
    fn copy_status(&self, id: u32) -> Option<CopyStatus> {
        match self.copies.get(&id) {
            Some(leg) => Some(leg.status()),
            None => self.copy_records.get(&id).copied(),
        }
    }

    /// Admit (or refuse) a copy order.  Idempotent: a duplicate submit
    /// for a known id — the client retransmitting because our reply was
    /// lost — just re-reports the current status.
    fn on_copy_submit(
        &mut self,
        id: u32,
        nonce: u32,
        submit: CopySubmit,
        peer: SocketAddr,
    ) -> io::Result<()> {
        if let Some(status) = self.copy_status(id) {
            return self.send_copy_msg(id, nonce, &CopyMsg::Status(status), peer);
        }
        if self.copies.len() >= self.config.max_sessions {
            self.local.rejected_busy += 1;
            let status = CopyStatus {
                state: CopyState::Failed,
                error: errcode::BUSY,
                ..UNKNOWN_COPY
            };
            return self.send_copy_msg(id, nonce, &CopyMsg::Status(status), peer);
        }
        self.local.copies_requested += 1;
        if let Some(rec) = &self.recorder {
            let direction = match submit.mode {
                CopyMode::Push => 0,
                CopyMode::Pull => 1,
            };
            rec.record(
                id,
                EventKind::CopyAdmit,
                direction,
                u64::from(submit.remote.port()),
            );
            if submit.epoch_ns != 0 {
                // The client shipped its trace epoch: anchor this
                // recorder's timeline to it so one Perfetto view lines
                // the hosts up.  Both epochs land as unix nanoseconds.
                let now_unix = std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_nanos() as u64)
                    .unwrap_or(0);
                let mine = now_unix.saturating_sub(self.epoch.elapsed().as_nanos() as u64);
                rec.record(id, EventKind::ClockAnchor, submit.epoch_ns, mine);
            }
        }
        let (request, blob) = match submit.mode {
            CopyMode::Push => {
                let Some(blob) = self.store.get(&submit.name) else {
                    return self.refuse_copy(id, nonce, errcode::NOT_FOUND, peer);
                };
                let req =
                    Request::push(blob.len(), &self.config.protocol, false).with_name(&submit.name);
                (req, Some(blob))
            }
            CopyMode::Pull => (Request::pull(&submit.name, &self.config.protocol), None),
        };
        let Ok(socket) = copy_socket(submit.remote) else {
            return self.refuse_copy(id, nonce, errcode::TRANSFER_FAILED, peer);
        };
        let request_frame = fcs::frame(&request.build_datagram(id));
        let _ = socket.send(&request_frame);
        let leg = CopyLeg {
            copy_id: id,
            mode: submit.mode,
            name: submit.name,
            state: CopyState::Handshaking,
            error: errcode::NONE,
            bytes_total: blob.as_ref().map_or(0, |b| b.len() as u64),
            crc32: blob.as_deref().map_or(0, crc32),
            packet_payload: self.config.protocol.packet_payload as u64,
            engine: None,
            socket,
            blob,
            request_frame,
            started: Instant::now(),
            // The client-side handshake cadence: the data-phase RTO,
            // capped so a long timeout does not slow the handshake.
            retry_interval: self
                .config
                .protocol
                .timeout
                .initial()
                .min(Duration::from_millis(200)),
        };
        self.copy_timers.arm((id, COPY_HS), leg.retry_interval);
        // The session-lifetime bound doubles as the copy's: an outbound
        // leg that has not settled by then is abandoned.
        self.copy_timers
            .arm((id, GIVE_UP), self.config.session_timeout);
        let status = leg.status();
        self.copies.insert(id, leg);
        self.send_copy_msg(id, nonce, &CopyMsg::Status(status), peer)
    }

    /// Record a copy that failed at submit time — queries during the
    /// grace window see `Failed` with the real error code, not an
    /// amnesiac `Unknown` — and report it to the client.
    fn refuse_copy(&mut self, id: u32, nonce: u32, error: u8, peer: SocketAddr) -> io::Result<()> {
        self.local.copies_failed += 1;
        if let Some(rec) = &self.recorder {
            rec.record(id, EventKind::CopyDone, 0, 0);
        }
        let status = CopyStatus {
            state: CopyState::Failed,
            error,
            ..UNKNOWN_COPY
        };
        self.record_copy(id, status);
        self.send_copy_msg(id, nonce, &CopyMsg::Status(status), peer)
    }

    /// Keep a terminal copy's status for the grace window.
    fn record_copy(&mut self, id: u32, status: CopyStatus) {
        if self.copy_records.len() >= MAX_COPY_RECORDS {
            if let Some((_, oldest)) = self.copy_expiry.pop_front() {
                self.copy_records.remove(&oldest);
            }
        }
        self.copy_records.insert(id, status);
        self.copy_expiry
            .push_back((Instant::now() + COPY_GRACE, id));
    }

    /// Forget the status records whose grace window has passed.
    fn expire_copy_records(&mut self, now: Instant) {
        while let Some(&(when, id)) = self.copy_expiry.front() {
            if when > now {
                break;
            }
            self.copy_expiry.pop_front();
            self.copy_records.remove(&id);
        }
    }

    /// Return a leg taken out of the live table: back in, or — once it
    /// has settled and is not lingering — shrunk to its status record,
    /// closing its socket.
    fn restore_copy(&mut self, leg: CopyLeg) {
        if leg.state.is_terminal() && leg.engine.is_none() {
            self.copy_timers.forget_where(|&(id, _)| id == leg.copy_id);
            self.record_copy(leg.copy_id, leg.status());
        } else {
            self.copies.insert(leg.copy_id, leg);
        }
    }

    /// Stage one `Copy` reply toward the orchestrating client, echoing
    /// its request nonce in `seq`.
    fn send_copy_msg(
        &mut self,
        id: u32,
        nonce: u32,
        msg: &CopyMsg,
        peer: SocketAddr,
    ) -> io::Result<()> {
        let payload = msg.encode();
        let mut buf = vec![0u8; blast_wire::HEADER_LEN + payload.len()];
        let n = DatagramBuilder::new(id)
            .build_copy(&mut buf, nonce, &payload)
            .expect("copy reply fits");
        self.send_framed(peer, &buf[..n])
    }

    /// Drain every live leg's socket.  Returns datagrams handled.
    fn poll_copies(&mut self) -> usize {
        if self.copies.is_empty() {
            return 0;
        }
        let mut ids = std::mem::take(&mut self.copy_scratch);
        ids.clear();
        ids.extend(self.copies.keys().copied());
        let mut buf = std::mem::take(&mut self.recv_buf);
        let mut handled = 0usize;
        for &id in &ids {
            // Take the leg out of the table for the duration of the
            // drain so its engine can borrow `self` mutably.
            let Some(mut leg) = self.copies.remove(&id) else {
                continue;
            };
            loop {
                let n = match leg.socket.recv(&mut buf) {
                    Ok(n) => n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    // Dry (`WouldBlock`), or an ICMP unreachable that a
                    // connected UDP socket surfaces as an error: the
                    // remote is not up (yet), and the handshake/RTO
                    // retransmissions keep probing.
                    Err(_) => break,
                };
                handled += 1;
                match fcs::unframe(&buf[..n]) {
                    Some(body) => self.on_copy_frame(&mut leg, &buf[..body]),
                    None => self.local.fcs_drops += 1,
                }
            }
            self.restore_copy(leg);
        }
        self.recv_buf = buf;
        self.copy_scratch = ids;
        handled
    }

    /// One verified frame off a leg's socket: the handshake echo while
    /// handshaking, engine traffic while running or lingering.
    fn on_copy_frame(&mut self, leg: &mut CopyLeg, raw: &[u8]) {
        let Ok(dgram) = Datagram::parse(raw) else {
            self.local.malformed += 1;
            return;
        };
        if dgram.transfer_id != leg.copy_id {
            return;
        }
        match leg.state {
            CopyState::Handshaking => match dgram.kind {
                PacketKind::Request => {
                    if let Some(echoed) = Request::decode(dgram.payload) {
                        self.promote_copy(leg, &echoed);
                    }
                }
                // The remote refused the handshake — for a pull, it
                // does not have the blob.
                PacketKind::Cancel => self.fail_copy(leg, errcode::NOT_FOUND),
                // Data racing ahead of a lost echo: the remote's
                // retransmission machinery re-elicits everything once
                // our handshake retry lands.
                _ => {}
            },
            // Duplicate echo; the engine must never see handshake
            // traffic.
            _ if dgram.kind == PacketKind::Request => {}
            CopyState::Running | CopyState::Done => {
                let Some(engine) = leg.engine.as_mut() else {
                    return;
                };
                let now = self.epoch.elapsed();
                let mut sink = std::mem::take(&mut self.scratch);
                engine.set_now(now);
                engine.on_datagram(&dgram, &mut sink);
                self.execute_copy(leg, &mut sink);
                self.scratch = sink;
                // Traffic for a settled pull leg means the source has
                // not heard our final ack: restart the linger window
                // so the engine stays to re-answer.
                if leg.state == CopyState::Done {
                    self.copy_timers
                        .arm((leg.copy_id, REAP), self.config.linger);
                }
            }
            // Failed: stragglers are the remote's linger machinery.
            _ => {}
        }
    }

    /// The handshake echo arrived: build the outbound engine and start
    /// the data phase.
    fn promote_copy(&mut self, leg: &mut CopyLeg, echoed: &Request) {
        let mut cfg = self.config.protocol.clone();
        echoed.apply_to(&mut cfg);
        leg.packet_payload = cfg.packet_payload as u64;
        let mut engine: Box<dyn Engine> = match leg.mode {
            CopyMode::Push => {
                let Some(blob) = leg.blob.take() else {
                    self.fail_copy(leg, errcode::TRANSFER_FAILED);
                    return;
                };
                Box::new(BlastSender::new(leg.copy_id, blob, &cfg))
            }
            CopyMode::Pull => {
                // The echo is the size announcement; bound the eager
                // allocation exactly as the push handshake does.
                if echoed.len > self.config.max_transfer_bytes {
                    self.fail_copy(leg, errcode::TRANSFER_FAILED);
                    return;
                }
                leg.bytes_total = echoed.len as u64;
                Box::new(BlastReceiver::new(leg.copy_id, echoed.len, &cfg))
            }
        };
        if let Some(rec) = &self.recorder {
            engine.set_recorder(rec.clone());
        }
        engine.set_now(self.epoch.elapsed());
        self.copy_timers.cancel((leg.copy_id, COPY_HS));
        leg.state = CopyState::Running;
        leg.request_frame = Vec::new();
        let mut sink = std::mem::take(&mut self.scratch);
        engine.start(&mut sink);
        leg.engine = Some(engine);
        self.execute_copy(leg, &mut sink);
        self.scratch = sink;
    }

    /// Apply one copy engine's actions: transmissions go out the leg's
    /// own socket, timers ride the copy wheel, completion settles.
    /// Drains `actions`, whose capacity the caller reuses.
    fn execute_copy(&mut self, leg: &mut CopyLeg, actions: &mut Vec<Action>) {
        let mut completion = None;
        for action in actions.drain(..) {
            match action {
                Action::Transmit(bytes) => {
                    let mut framed = std::mem::take(&mut self.frame_buf);
                    fcs::frame_into(&bytes, &mut framed);
                    // Loss-like submission failures are recovered by
                    // retransmission, same as the session path.
                    let _ = leg.socket.send(&framed);
                    self.frame_buf = framed;
                }
                Action::SetTimer { token, after } => {
                    self.copy_timers.arm((leg.copy_id, token), after)
                }
                Action::CancelTimer { token } => self.copy_timers.cancel((leg.copy_id, token)),
                Action::Complete(info) => completion = Some(*info),
            }
        }
        if let Some(info) = completion {
            self.settle_copy(leg, &info);
        }
    }

    /// The outbound engine completed: store pulled bytes, fix the
    /// digest and book the metrics.  A push leg is then spent; a pull
    /// leg lingers so a source that lost our final ack hears it again.
    fn settle_copy(&mut self, leg: &mut CopyLeg, info: &CompletionInfo) {
        if leg.state.is_terminal() {
            return;
        }
        let Ok(bytes) = info.result else {
            self.fail_copy(leg, errcode::TRANSFER_FAILED);
            return;
        };
        leg.state = CopyState::Done;
        self.local.copies_completed += 1;
        self.local.copy_bytes_moved += bytes as u64;
        if let Some(rec) = &self.recorder {
            rec.record(leg.copy_id, EventKind::CopyDone, 1, bytes as u64);
        }
        match leg.mode {
            CopyMode::Push => leg.engine = None,
            CopyMode::Pull => {
                if let Some(data) = leg.engine.as_deref().and_then(Engine::received_data) {
                    leg.crc32 = crc32(data);
                    leg.bytes_total = data.len() as u64;
                    if !leg.name.is_empty() {
                        self.store.put(&leg.name, data.to_vec().into());
                    }
                }
                self.copy_timers
                    .arm((leg.copy_id, REAP), self.config.linger);
            }
        }
    }

    /// Fail a copy outside normal engine completion (handshake timeout,
    /// refused handshake, lifetime bound).
    fn fail_copy(&mut self, leg: &mut CopyLeg, error: u8) {
        if leg.state.is_terminal() {
            return;
        }
        leg.state = CopyState::Failed;
        leg.error = error;
        leg.engine = None;
        self.local.copies_failed += 1;
        if let Some(rec) = &self.recorder {
            rec.record(leg.copy_id, EventKind::CopyDone, 0, 0);
        }
    }

    fn on_copy_timer(&mut self, id: u32, token: TimerToken) {
        let Some(mut leg) = self.copies.remove(&id) else {
            return;
        };
        match token {
            COPY_HS => {
                if leg.state == CopyState::Handshaking {
                    if leg.started.elapsed() >= self.config.session_timeout {
                        self.fail_copy(&mut leg, errcode::HANDSHAKE_TIMEOUT);
                    } else {
                        let _ = leg.socket.send(&leg.request_frame);
                        self.local.copy_handshake_retx += 1;
                        self.copy_timers.arm((id, COPY_HS), leg.retry_interval);
                    }
                }
            }
            // The lifetime bound fails a leg that never settled; it and
            // the end of the linger window both retire a settled one.
            GIVE_UP | REAP => {
                self.fail_copy(&mut leg, errcode::TRANSFER_FAILED);
                leg.engine = None;
            }
            _ => {
                let now = self.epoch.elapsed();
                let mut sink = std::mem::take(&mut self.scratch);
                if let Some(engine) = leg.engine.as_mut() {
                    engine.set_now(now);
                    engine.on_timer(token, &mut sink);
                }
                self.execute_copy(&mut leg, &mut sink);
                self.scratch = sink;
            }
        }
        self.restore_copy(leg);
    }
}

/// Fluent construction of a (possibly sharded) node.
///
/// The one front door to a running node: pick the address, shard
/// count, store and protocol tunables, then [`start`](NodeBuilder::start)
/// to get a [`NodeHandle`].
///
/// ```no_run
/// use blast_node::server::NodeBuilder;
///
/// let node = NodeBuilder::new()
///     .bind("127.0.0.1:0".parse().unwrap())
///     .shards(4)
///     .start()
///     .unwrap();
/// println!("listening on {} across {} shard(s)", node.addr(), node.shards());
/// # node.shutdown().unwrap();
/// ```
#[derive(Debug, Clone, Default)]
pub struct NodeBuilder {
    config: NodeConfig,
    store: Option<SharedStore>,
    portable_netio: bool,
    telemetry_capacity: Option<usize>,
}

impl NodeBuilder {
    /// A builder with [`NodeConfig::default`] settings: one shard on an
    /// ephemeral loopback port, LAN transmission control, a fresh
    /// in-memory store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Address to bind (port 0 for ephemeral).
    pub fn bind(mut self, addr: SocketAddr) -> Self {
        self.config.bind = addr;
        self
    }

    /// Reactor shards (clamped to at least 1).  More than one requires
    /// `SO_REUSEPORT` socket groups; on platforms without them the node
    /// silently falls back to a single shard — check
    /// [`NodeHandle::shards`] for the effective count.
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards.max(1);
        self
    }

    /// Serve (and fill) an existing store instead of a fresh one.
    pub fn store(mut self, store: SharedStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Replace the base protocol parameters for server-side engines.
    pub fn protocol(mut self, protocol: ProtocolConfig) -> Self {
        self.config.protocol = protocol;
        self
    }

    /// Retransmission-timeout policy for server-side engines.
    pub fn timeout(mut self, timeout: impl Into<AdaptiveTimeout>) -> Self {
        self.config.protocol.timeout = timeout.into();
        self
    }

    /// Blast-round pacing for server-side sender engines.
    pub fn pacing(mut self, pacing: PacingConfig) -> Self {
        self.config.protocol.pacing = pacing;
        self
    }

    /// Per-packet retry budget for server-side engines.
    pub fn max_retries(mut self, retries: u32) -> Self {
        self.config.protocol.max_retries = retries;
        self
    }

    /// Quiet window a finished engine keeps answering duplicates.
    pub fn linger(mut self, linger: Duration) -> Self {
        self.config.linger = linger;
        self
    }

    /// Hard bound on one session's lifetime.
    pub fn session_timeout(mut self, timeout: Duration) -> Self {
        self.config.session_timeout = timeout;
        self
    }

    /// Maximum concurrent sessions per shard.
    pub fn max_sessions(mut self, sessions: usize) -> Self {
        self.config.max_sessions = sessions;
        self
    }

    /// Largest transfer a push request may announce.
    pub fn max_transfer_bytes(mut self, bytes: usize) -> Self {
        self.config.max_transfer_bytes = bytes;
        self
    }

    /// Replace the whole [`NodeConfig`] (including the shard count).
    pub fn config(mut self, config: NodeConfig) -> Self {
        self.config = config;
        self
    }

    /// Force the portable single-syscall netio backend on every shard,
    /// regardless of platform support for the batched one.
    pub fn portable_netio(mut self) -> Self {
        self.portable_netio = true;
        self
    }

    /// Enable the flight recorder: one bounded ring of `capacity`
    /// events per shard, drained through
    /// [`NodeHandle::drain_trace`].  The record path is lock-free and
    /// allocation-free; on overflow events are dropped and counted
    /// ([`NodeHandle::telemetry_dropped`]), never blocked on.
    pub fn telemetry(mut self, capacity: usize) -> Self {
        self.telemetry_capacity = Some(capacity);
        self
    }

    /// Bind the socket(s), spawn one reactor thread per shard, and
    /// return the control handle.
    ///
    /// With `shards > 1` this binds an `SO_REUSEPORT` group: the first
    /// socket may take an ephemeral port, the rest join it, and the
    /// kernel's 4-tuple hash pins each remote endpoint to one member.
    /// Platforms without reuseport groups fall back to a single shard.
    ///
    /// Binding and socket options happen here, so their errors come
    /// back from `start`; each shard then builds its I/O backend and
    /// buffers on its own thread.
    pub fn start(self) -> io::Result<NodeHandle> {
        let NodeBuilder {
            config,
            store,
            portable_netio,
            telemetry_capacity,
        } = self;
        let store = store.unwrap_or_else(shared_store);
        let shutdown = Arc::new(AtomicBool::new(false));
        let sockets = bind_shard_sockets(config.bind, config.shards.max(1))?;
        let addr = sockets[0].local_addr()?;
        for socket in &sockets {
            socket.set_nonblocking(true)?;
            // Grow both socket queues (best effort): a node fans many
            // concurrent pushes into one socket (round-0 loss to a
            // default-sized SO_RCVBUF was the measured goodput ceiling),
            // and batched pull bursts submit whole rounds per sendmmsg.
            sockopt::grow_buffers(socket);
        }
        // Every slot exists before any shard runs: each shard learns
        // all of them, so a `Stats` query answers for the whole node.
        let mut node = NodeHandle {
            addr,
            store,
            slots: sockets
                .iter()
                .map(|_| Arc::new(Mutex::new(NodeMetrics::default())))
                .collect(),
            shutdown,
            threads: Vec::with_capacity(sockets.len()),
            telemetry: telemetry_capacity.map(|cap| Telemetry::new(sockets.len(), cap)),
        };
        for (shard, socket) in sockets.into_iter().enumerate() {
            let mut cfg = config.clone();
            if shard > 0 {
                // Every shard gets its own buffer pool: shard 0 keeps
                // the caller's (shared with whoever else holds it),
                // the rest stay thread-local so checkouts never cross
                // reactor threads.
                let pool = cfg.protocol.pool.clone();
                cfg.protocol = cfg
                    .protocol
                    .with_pool(BufferPool::new(pool.buf_capacity(), pool.max_free()));
            }
            let store = node.store();
            let shutdown = Arc::clone(&node.shutdown);
            let slot = Arc::clone(&node.slots[shard]);
            let peer_slots = node.slots.clone();
            let recorder = node.telemetry.as_ref().map(|tel| tel.recorder(shard));
            let spawned = std::thread::Builder::new()
                .name(format!("blast-node-{shard}"))
                .spawn(move || {
                    let mut server = NodeServer::new(
                        cfg,
                        store,
                        socket,
                        shutdown,
                        portable_netio,
                        slot,
                        peer_slots,
                    );
                    if let Some(recorder) = recorder {
                        server.attach_recorder(recorder);
                    }
                    server.run()
                });
            match spawned {
                Ok(thread) => node.threads.push(thread),
                Err(e) => {
                    // Stop and join the shards already running.
                    let _ = node.shutdown();
                    return Err(e);
                }
            }
        }
        Ok(node)
    }
}

/// Bind the socket group for `shards` reactors on `bind`.
///
/// One shard means one plain socket — byte-for-byte the pre-sharding
/// node.  More go through [`sockopt::bind_reuseport`]; if the platform
/// has no reuseport groups the node degrades to one plain socket
/// rather than failing, because a single-shard node is always correct,
/// just not parallel.
fn bind_shard_sockets(bind: SocketAddr, shards: usize) -> io::Result<Vec<UdpSocket>> {
    if shards == 1 {
        return Ok(vec![UdpSocket::bind(bind)?]);
    }
    let first = match sockopt::bind_reuseport(bind) {
        Ok(socket) => socket,
        Err(e) if e.kind() == io::ErrorKind::Unsupported => {
            return Ok(vec![UdpSocket::bind(bind)?]);
        }
        Err(e) => return Err(e),
    };
    // The first member resolves port 0; the rest must name its port.
    let group_addr = first.local_addr()?;
    let mut sockets = vec![first];
    for _ in 1..shards {
        sockets.push(sockopt::bind_reuseport(group_addr)?);
    }
    Ok(sockets)
}

/// A running node: the single control surface returned by
/// [`NodeBuilder::start`].
///
/// Reads merge the per-shard snapshots into one [`NodeMetrics`] (the
/// pre-sharding shape), with [`shard_reports`](NodeHandle::shard_reports)
/// exposing the per-shard breakdown.
pub struct NodeHandle {
    addr: SocketAddr,
    store: SharedStore,
    slots: Vec<Arc<Mutex<NodeMetrics>>>,
    shutdown: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<io::Result<()>>>,
    telemetry: Option<Telemetry>,
}

impl NodeHandle {
    /// The address clients should talk to (all shards share it).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The node's blob store.
    pub fn store(&self) -> SharedStore {
        Arc::clone(&self.store)
    }

    /// How many reactor shards are actually running (may be fewer than
    /// requested on platforms without `SO_REUSEPORT` groups).
    pub fn shards(&self) -> usize {
        self.slots.len()
    }

    /// The aggregate metrics: every shard's published snapshot, merged.
    pub fn metrics(&self) -> NodeMetrics {
        let mut merged = NodeMetrics::default();
        for slot in &self.slots {
            merged.merge_from(&slot.lock().expect("metrics slot"));
        }
        merged
    }

    /// The flight-recorder handle, when the node was built with
    /// [`NodeBuilder::telemetry`].
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    /// Drain every shard's trace ring into one time-ordered stream
    /// (ready for `blast_telemetry::export::{jsonl, chrome_trace}`).
    /// Empty when telemetry was not enabled.
    pub fn drain_trace(&self) -> Vec<blast_telemetry::TraceEvent> {
        self.telemetry
            .as_ref()
            .map(Telemetry::drain)
            .unwrap_or_default()
    }

    /// Trace events dropped on ring overflow so far (0 without
    /// telemetry).
    pub fn telemetry_dropped(&self) -> u64 {
        self.telemetry.as_ref().map(Telemetry::dropped).unwrap_or(0)
    }

    /// The per-shard breakdown of the same snapshots: did the kernel's
    /// hash actually spread the sessions?
    pub fn shard_reports(&self) -> Vec<ShardReport> {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, slot)| ShardReport::from_metrics(i, &slot.lock().expect("metrics slot")))
            .collect()
    }

    /// Block until no session is in flight on any shard (or `timeout`
    /// passes).
    ///
    /// A client can observe its transfer as complete while its final
    /// ack is still in flight to the node — the receiver side of any
    /// protocol finishes one packet before the sender side hears about
    /// it.  Callers that want every session accounted for (tests,
    /// fixed-workload examples) should drain before
    /// [`shutdown`](NodeHandle::shutdown).
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        self.wait_for(timeout, |m| m.sessions_in_flight() == 0)
    }

    /// Block until `n` sessions have finished (completed or failed)
    /// across all shards and none remain in flight, or `timeout`
    /// passes.  The "serve a fixed workload then report" mode.
    pub fn wait_sessions(&self, n: u64, timeout: Duration) -> bool {
        self.wait_for(timeout, |m| {
            m.sessions_completed + m.sessions_failed >= n && m.sessions_in_flight() == 0
        })
    }

    fn wait_for(&self, timeout: Duration, done: impl Fn(&NodeMetrics) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if done(&self.metrics()) {
                return true;
            }
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Stop every shard's event loop, join the threads, and return the
    /// final merged metrics.
    pub fn shutdown(self) -> io::Result<NodeMetrics> {
        self.shutdown.store(true, Ordering::Relaxed);
        let mut first_err = None;
        for thread in self.threads {
            if let Err(e) = thread.join().expect("node shard thread panicked") {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => {
                let mut merged = NodeMetrics::default();
                for slot in &self.slots {
                    merged.merge_from(&slot.lock().expect("metrics slot"));
                }
                Ok(merged)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    fn test_builder() -> NodeBuilder {
        NodeBuilder::new().timeout(Duration::from_millis(15))
    }

    fn client_cfg() -> ProtocolConfig {
        let mut c = ProtocolConfig::default();
        c.timeout = Duration::from_millis(15).into();
        c.max_retries = 1000;
        c
    }

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i.wrapping_mul(131) % 256) as u8).collect()
    }

    /// Shard snapshots refresh per reactor tick, so a client can react
    /// to a datagram a moment before the merged metrics show why it
    /// was sent; poll briefly instead of asserting on the first read.
    fn wait_metric(node: &NodeHandle, cond: impl Fn(&NodeMetrics) -> bool) -> NodeMetrics {
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let m = node.metrics();
            if cond(&m) || Instant::now() > deadline {
                return m;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn push_then_pull_roundtrip() {
        let node = test_builder().start().unwrap();
        assert_eq!(node.shards(), 1);
        let cfg = client_cfg();
        let data = payload(100_000);

        let mut client = Client::connect(node.addr()).unwrap().config(cfg);
        let push = client.push("hello", &data).unwrap();
        assert!(push.stats.data_packets_sent >= 98);

        let pull = client.pull("hello").unwrap();
        assert_eq!(pull.data, data);

        assert!(node.wait_idle(Duration::from_secs(5)), "tail ack drained");
        let m = node.shutdown().unwrap();
        assert_eq!(m.sessions_completed, 2);
        assert_eq!(m.pushes, 1);
        assert_eq!(m.pulls, 1);
        assert_eq!(m.bytes_received, 100_000);
        assert_eq!(m.bytes_sent, 100_000);
        assert!(m.session_goodput_mbps.mean() > 0.0);
    }

    #[test]
    fn pull_of_missing_blob_is_not_found() {
        let node = test_builder().start().unwrap();
        let cfg = client_cfg();
        let mut client = Client::connect(node.addr()).unwrap().config(cfg);
        let err = client.pull("nope").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        let m = wait_metric(&node, |m| m.pull_misses == 1);
        assert_eq!(m.pull_misses, 1);
        assert_eq!(m.sessions_accepted, 0);
        node.shutdown().unwrap();
    }

    #[test]
    fn pre_seeded_store_serves_pulls() {
        let store = shared_store();
        store.put("seeded", payload(30_000).into());
        let node = test_builder().store(store).start().unwrap();
        let cfg = client_cfg();
        let mut client = Client::connect(node.addr()).unwrap().config(cfg);
        let pull = client.pull("seeded").unwrap();
        assert_eq!(pull.data, payload(30_000));
        node.shutdown().unwrap();
    }

    #[test]
    fn colliding_transfer_id_from_other_peer_is_cancelled() {
        let store = shared_store();
        store.put("blob", payload(200_000).into());
        let node = test_builder().store(store).start().unwrap();
        let cfg = client_cfg();
        // First client opens session 5.
        let addr = node.addr();
        let cfg2 = cfg.clone();
        let t = std::thread::spawn(move || {
            let mut client = Client::connect(addr)
                .unwrap()
                .config(cfg2)
                .transfer_ids_from(5);
            client.pull("blob").unwrap()
        });
        // Wait until the node has actually accepted session 5 before
        // contending for the id from a different peer.
        while node.metrics().sessions_accepted == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // The contender is refused (Cancel → NotFound) while session 5
        // lives — or, if the first transfer already finished and was
        // reaped, it simply succeeds.  It must never hang or corrupt.
        let mut contender = Client::connect(addr)
            .unwrap()
            .config(cfg)
            .transfer_ids_from(5);
        match contender.pull("blob") {
            Ok(r) => assert_eq!(r.data, payload(200_000)),
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::NotFound),
        }
        let first = t.join().unwrap();
        assert_eq!(first.data, payload(200_000));
        node.shutdown().unwrap();
    }

    #[test]
    fn oversized_push_announcement_is_refused() {
        let node = test_builder()
            .max_transfer_bytes(64 * 1024)
            .start()
            .unwrap();
        let ccfg = client_cfg();
        let mut client = Client::connect(node.addr()).unwrap().config(ccfg);
        let err = client.push("big", &payload(65 * 1024)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound, "cancelled, not hung");
        let m = wait_metric(&node, |m| m.rejected_oversize == 1);
        assert_eq!(m.rejected_oversize, 1);
        assert_eq!(m.sessions_accepted, 0, "no buffer was allocated");
        node.shutdown().unwrap();
    }

    #[test]
    fn session_timeout_reaps_abandoned_push() {
        let node = NodeBuilder::new()
            .timeout(Duration::from_millis(15))
            .session_timeout(Duration::from_millis(80))
            .start()
            .unwrap();
        // Open a push session by hand, then walk away: no data phase.
        let req = Request::push(50_000, &client_cfg(), false).with_name("ghost");
        let dgram = req.build_datagram(77);
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        sock.send_to(&fcs::frame(&dgram), node.addr()).unwrap();
        // The reactor must fail and reap the abandoned session on its
        // own timer, with no further traffic from us.
        let m = wait_metric(&node, |m| m.sessions_failed == 1);
        assert_eq!(m.sessions_accepted, 1);
        assert_eq!(m.sessions_failed, 1, "abandoned session must fail");
        assert!(node.wait_idle(Duration::from_secs(5)), "engine reaped");
        assert!(
            !node.store().contains("ghost"),
            "no blob from a failed push"
        );
        node.shutdown().unwrap();
    }

    #[test]
    fn copy_records_are_capped_and_expire() {
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        let slot = Arc::new(Mutex::new(NodeMetrics::default()));
        let mut shard = NodeServer::new(
            NodeConfig::default(),
            shared_store(),
            socket,
            Arc::new(AtomicBool::new(false)),
            true,
            Arc::clone(&slot),
            vec![slot],
        );
        let done = CopyStatus {
            state: CopyState::Done,
            ..UNKNOWN_COPY
        };
        let n = MAX_COPY_RECORDS as u32 + 10;
        for id in 0..n {
            shard.record_copy(id, done);
        }
        assert_eq!(shard.copy_records.len(), MAX_COPY_RECORDS);
        assert_eq!(shard.copy_status(9), None, "oldest evicted first");
        assert_eq!(shard.copy_status(10), Some(done));
        assert_eq!(shard.copy_status(n - 1), Some(done));

        shard.expire_copy_records(Instant::now() + COPY_GRACE);
        assert!(shard.copy_records.is_empty());
        assert!(shard.copy_expiry.is_empty());
    }

    #[test]
    fn builder_defaults_match_node_config() {
        let b = NodeBuilder::new()
            .linger(Duration::from_millis(99))
            .max_sessions(7)
            .session_timeout(Duration::from_secs(3))
            .max_retries(42)
            .pacing(PacingConfig::lan());
        assert_eq!(b.config.linger, Duration::from_millis(99));
        assert_eq!(b.config.max_sessions, 7);
        assert_eq!(b.config.session_timeout, Duration::from_secs(3));
        assert_eq!(b.config.protocol.max_retries, 42);
        assert_eq!(b.config.shards, 1);
    }

    #[test]
    fn sharded_start_accepts_sessions_on_every_requested_shard_count() {
        // On Linux this runs 2 real shards; elsewhere it falls back to
        // one — either way the node must serve correctly.
        let node = test_builder().shards(2).start().unwrap();
        assert!(node.shards() == 2 || !sockopt::reuseport_supported());
        let cfg = client_cfg();
        let data = payload(60_000);
        // Two clients, two distinct 4-tuples: the kernel may hash them
        // to different shards.
        let mut pusher = Client::connect(node.addr()).unwrap().config(cfg.clone());
        pusher.push("sharded", &data).unwrap();
        let mut puller = Client::connect(node.addr()).unwrap().config(cfg);
        let pull = puller.pull("sharded").unwrap();
        assert_eq!(pull.data, data);
        assert!(node.wait_idle(Duration::from_secs(5)));
        let reports = node.shard_reports();
        assert_eq!(reports.len(), node.shards());
        let accepted: u64 = reports.iter().map(|r| r.sessions_accepted).sum();
        assert_eq!(accepted, 2);
        let m = node.shutdown().unwrap();
        assert_eq!(m.sessions_completed, 2);
        assert_eq!(m.bytes_received, 60_000);
        assert_eq!(m.bytes_sent, 60_000);
    }

    #[test]
    fn portable_netio_override_is_honoured() {
        let node = test_builder().portable_netio().start().unwrap();
        let cfg = client_cfg();
        let mut client = Client::connect(node.addr()).unwrap().config(cfg);
        client.push("p", &payload(10_000)).unwrap();
        assert!(node.wait_idle(Duration::from_secs(5)));
        let m = node.shutdown().unwrap();
        assert_eq!(m.netio_backend, "portable");
        assert_eq!(m.netio_offload, "portable", "no offload without batching");
        assert_eq!(m.sessions_completed, 1);
    }

    #[test]
    fn wait_sessions_counts_across_shards() {
        let node = test_builder().shards(2).start().unwrap();
        let cfg = client_cfg();
        let addr = node.addr();
        let threads: Vec<_> = (0..4u32)
            .map(|i| {
                let cfg = cfg.clone();
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).unwrap().config(cfg);
                    client.push(&format!("w{i}"), &payload(20_000)).unwrap()
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(node.wait_sessions(4, Duration::from_secs(10)));
        let m = node.shutdown().unwrap();
        assert_eq!(m.sessions_completed, 4);
        assert_eq!(m.bytes_received, 4 * 20_000);
    }
}
