//! The load generator: one thread driving N sessions in a closed loop
//! against the server process, over real TCP on loopback.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use menos_split::{
    ClientId, ClientMessage, ProtocolError, ServerMessage, SplitClient, TcpTransport, Transport,
};

use crate::json::Json;
use crate::server::ServerReport;
use crate::stats::Wave;
use crate::trace::{Clock, Tracer};
use crate::workloads::{out_dir, Inputs, Workload};

/// Untimed waves run for this long before the timed part, so the
/// buffer pool, the idle ladder and the allocator are in steady state.
const WARMUP_S: f64 = 1.0;

/// The server process and the pipes that tie its life to ours.
pub struct ServerProc {
    child: Child,
    /// Held open so the server can tell when the generator is gone.
    _stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    snapshot_dir: Option<PathBuf>,
    reaped: bool,
}

impl ServerProc {
    /// Starts the server for `workload` and waits until it listens.
    pub fn spawn(
        workload: &Workload,
        seed: u64,
        trace: bool,
        clock: &Clock,
    ) -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let snapshot_dir = workload
            .snapshots
            .then(|| out_dir().join(format!("snap-{}-{}", workload.name, std::process::id())));
        let mut cmd = Command::new(exe);
        cmd.args(["--role", "server", "--workload", workload.name])
            .args(["--seed", &seed.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .args(["--epoch-ns", &clock.epoch_unix_ns.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped());
        if let Some(dir) = &snapshot_dir {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            cmd.arg("--snapshot-dir").arg(dir);
        }
        let mut child = cmd.spawn().map_err(|e| format!("spawn server: {e}"))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut server = ServerProc {
            child,
            _stdin: stdin,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            snapshot_dir,
            reaped: false,
        };
        let mut line = String::new();
        server
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("read server address: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("addr ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("server did not announce an address, said {line:?}"))?;
        Ok(server)
    }

    /// Waits for the server to exit on its own (every session has
    /// disconnected) and returns its report.
    pub fn finish(mut self) -> Result<ServerReport, String> {
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .map_err(|e| format!("read server report: {e}"))?;
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        self.reaped = true;
        if !status.success() {
            return Err(format!("server process ended with {status}"));
        }
        ServerReport::from_json(&Json::parse(line.trim())?)
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(dir) = &self.snapshot_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// One tenant: a client, its socket, and what became of its steps.
pub struct Session {
    pub client: SplitClient,
    transport: TcpTransport<ClientMessage, ServerMessage>,
    /// Why the session stopped, if it did.
    pub failure: Option<String>,
    started: Instant,
}

impl Session {
    fn id(&self) -> ClientId {
        self.client.id()
    }
}

fn kind(msg: &ServerMessage) -> &'static str {
    match msg {
        ServerMessage::Ready { .. } => "Ready",
        ServerMessage::ServerActivations { .. } => "ServerActivations",
        ServerMessage::ServerGradients { .. } => "ServerGradients",
        ServerMessage::Resumed { .. } => "Resumed",
        ServerMessage::Evicted { .. } => "Evicted",
        ServerMessage::Busy { .. } => "Busy",
        ServerMessage::Redirect { .. } => "Redirect",
        ServerMessage::Pong { .. } => "Pong",
        ServerMessage::Imported { .. } => "Imported",
    }
}

/// A live server with every session connected and `Ready`.
pub struct Fleet {
    pub server: ServerProc,
    pub sessions: Vec<Session>,
}

impl Fleet {
    /// Everything between "generator start" and "every session has its
    /// `Ready`": inputs from the seed, the server process, N clients,
    /// N connects (the server profiles each at `Connect`).
    pub fn set_up(
        workload: &'static Workload,
        seed: u64,
        trace: bool,
        clock: &Clock,
    ) -> Result<(Inputs, Fleet), String> {
        let inputs = Inputs::from_seed(workload, seed);
        let server = ServerProc::spawn(workload, seed, trace, clock)?;
        let mut sessions = Vec::with_capacity(workload.sessions);
        for k in 0..workload.sessions {
            let mut client = inputs.client(k);
            let mut transport = TcpTransport::connect(server.addr)
                .map_err(|e| format!("session {k}: connect: {e}"))?;
            transport
                .send(&ClientMessage::Connect {
                    client: client.id(),
                    ft: client.ft_config().clone(),
                    split: client.split(),
                    epoch: client.epoch(),
                    codecs: client.advertised_codecs(),
                })
                .map_err(|e| format!("session {k}: send Connect: {e}"))?;
            match transport.recv() {
                Ok(ServerMessage::Ready { codec, .. }) if codec == workload.codec => {
                    client.adopt_codec(codec);
                }
                Ok(ServerMessage::Ready { codec, .. }) => {
                    return Err(format!(
                        "session {k}: server chose codec {codec}, workload needs {}",
                        workload.codec
                    ));
                }
                Ok(other) => {
                    return Err(format!("session {k}: expected Ready, got {}", kind(&other)))
                }
                Err(e) => return Err(format!("session {k}: waiting for Ready: {e}")),
            }
            sessions.push(Session {
                client,
                transport,
                failure: None,
                started: Instant::now(),
            });
        }
        Ok((inputs, Fleet { server, sessions }))
    }

    /// Says goodbye on every session, closes every socket and collects
    /// the server's report.
    pub fn shut_down(self) -> Result<(Vec<Finished>, ServerReport), String> {
        let Fleet { server, sessions } = self;
        let mut finished = Vec::with_capacity(sessions.len());
        for mut s in sessions {
            if s.failure.is_none() {
                let bye = ClientMessage::Disconnect { client: s.id() };
                s.transport
                    .send(&bye)
                    .map_err(|e| format!("{}: send Disconnect: {e}", s.id()))?;
            }
            // Dropping the transport closes the socket; for a failed
            // session that is what drains the server's accept budget.
            finished.push(Finished {
                client: s.client,
                failure: s.failure,
            });
        }
        Ok((finished, server.finish()?))
    }
}

/// A session after its socket is closed.
pub struct Finished {
    pub client: SplitClient,
    /// Why the session stopped early, if it did.
    pub failure: Option<String>,
}

/// What the timed part of a run measured, before any arithmetic.
#[derive(Debug, Default)]
pub struct Measured {
    /// Waves completed before the timed part began.
    pub warmup_waves: usize,
    /// The timed waves: how long each took and the steps it completed.
    pub waves: Vec<Wave>,
    /// Per-step latency of every timed step in ms, wave by wave.
    pub step_ms: Vec<Vec<f64>>,
    /// Wire bytes of the four tensor messages, summed over timed steps.
    pub wire_bytes: u64,
    /// Steps begun and steps that ended in an error, warm-up included.
    pub attempted: u64,
    pub failed: u64,
}

impl Measured {
    pub fn timed_steps(&self) -> u64 {
        self.waves.iter().map(|w| w.steps).sum()
    }
}

/// The reply a phase expects, or why the session is over.
fn expect_frame(
    reply: Result<ServerMessage, ProtocolError>,
    want_gradients: bool,
) -> Result<(bytes::Bytes, u64), String> {
    let msg = reply.map_err(|e| e.to_string())?;
    let bytes = msg.wire_bytes();
    match (msg, want_gradients) {
        (ServerMessage::ServerActivations { frame, .. }, false)
        | (ServerMessage::ServerGradients { frame, .. }, true) => Ok((frame, bytes)),
        (other, _) => Err(format!(
            "expected {}, got {}",
            if want_gradients {
                "ServerGradients"
            } else {
                "ServerActivations"
            },
            kind(&other)
        )),
    }
}

/// One wave: every live session takes one training step, the single
/// generator thread multiplexing them in three phases so that all N
/// steps are in flight at once. Returns the wire bytes moved and pushes
/// each finished step's latency.
fn wave(
    sessions: &mut [Session],
    tr: &mut Tracer,
    m: &mut Measured,
    step_ms: &mut Vec<f64>,
) -> u64 {
    let mut wire = 0;
    // A failed call ends the session: its step counts as failed and
    // later phases and waves skip it.
    macro_rules! try_step {
        ($s:expr, $what:expr, $r:expr) => {
            match $r {
                Ok(v) => v,
                Err(e) => {
                    $s.failure = Some(format!("{}: {}: {e}", $s.id(), $what));
                    m.failed += 1;
                    continue;
                }
            }
        };
    }
    for (k, s) in sessions.iter_mut().enumerate() {
        if s.failure.is_some() {
            continue;
        }
        m.attempted += 1;
        s.started = Instant::now();
        let x_c = tr.span("split.client.input_fwd", k, || s.client.start_step());
        let frame = tr.span("net.compress.encode", k, || {
            s.client.encode_activations(&x_c)
        });
        let msg = ClientMessage::Activations {
            client: s.id(),
            frame,
        };
        wire += msg.wire_bytes();
        let sent = tr.span("split.tcp.send", k, || s.transport.send(&msg));
        try_step!(s, "send Activations", sent);
    }
    for (k, s) in sessions.iter_mut().enumerate() {
        if s.failure.is_some() {
            continue;
        }
        let reply = tr.span("split.tcp.recv_wait", k, || s.transport.recv());
        let (frame, bytes) = try_step!(s, "recv", expect_frame(reply, false));
        wire += bytes;
        let x_s = tr.span("net.compress.decode", k, || s.client.decode_frame(&frame));
        let x_s = try_step!(s, "decode ServerActivations", x_s);
        let (_loss, g_c) = tr.span("split.client.head", k, || {
            s.client.receive_server_activations(&x_s)
        });
        let frame = tr.span("net.compress.encode", k, || s.client.encode_gradients(&g_c));
        let msg = ClientMessage::Gradients {
            client: s.id(),
            frame,
        };
        wire += msg.wire_bytes();
        let sent = tr.span("split.tcp.send", k, || s.transport.send(&msg));
        try_step!(s, "send Gradients", sent);
    }
    for (k, s) in sessions.iter_mut().enumerate() {
        if s.failure.is_some() {
            continue;
        }
        let reply = tr.span("split.tcp.recv_wait", k, || s.transport.recv());
        let (frame, bytes) = try_step!(s, "recv", expect_frame(reply, true));
        wire += bytes;
        let g_s = tr.span("net.compress.decode", k, || s.client.decode_frame(&frame));
        let g_s = try_step!(s, "decode ServerGradients", g_s);
        tr.span("split.client.input_bwd", k, || {
            s.client.receive_server_gradients(&g_s)
        });
        step_ms.push(s.started.elapsed().as_secs_f64() * 1e3);
    }
    wire
}

/// Warm-up waves, then timed waves for `seconds`.
pub fn drive(sessions: &mut [Session], seconds: f64, tr: &mut Tracer) -> Measured {
    let mut m = Measured::default();
    let mut wave_no = 0;
    let warm = Instant::now();
    while warm.elapsed().as_secs_f64() < WARMUP_S {
        tr.begin_wave(wave_no);
        wave(sessions, tr, &mut m, &mut Vec::new());
        tr.end_wave();
        wave_no += 1;
    }
    m.warmup_waves = wave_no;
    let timed = Instant::now();
    while timed.elapsed().as_secs_f64() < seconds {
        let mut step_ms = Vec::with_capacity(sessions.len());
        let began = Instant::now();
        tr.begin_wave(wave_no);
        let wire = wave(sessions, tr, &mut m, &mut step_ms);
        tr.end_wave();
        let wave_s = began.elapsed().as_secs_f64();
        wave_no += 1;
        if step_ms.is_empty() {
            break; // every session has failed; nothing left to measure
        }
        m.wire_bytes += wire;
        m.waves.push(Wave {
            seconds: wave_s,
            steps: step_ms.len() as u64,
        });
        m.step_ms.push(step_ms);
    }
    m
}
