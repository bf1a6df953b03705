//! The server process of a run: `TcpEventServer` with one loop thread
//! around a `MenosServer`, wrapped so that every call the event loop
//! makes into the handler can be timed from outside.

use std::io::{Read, Write};
use std::path::PathBuf;
use std::time::Duration;

use menos_core::MenosServer;
use menos_split::{
    BatchHandler, ClientId, ClientMessage, EventLoopOptions, EventLoopStats, MessageHandler,
    ProtocolError, ServerMessage, SnapshotPolicy, TcpEventServer, TcpOptions,
};
use menos_tensor::pool;

use crate::json::Json;
use crate::trace::Clock;
use crate::workloads::{hash_params, vm_hwm_mb, Inputs, Workload};

/// What the handler was asked to do during one span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `handle_batch` with this many `Activations` and `Gradients`.
    Batch { acts: usize, grads: usize },
    /// `snapshot_bytes` returning a blob of this size.
    Snapshot { bytes: usize },
}

/// One timed call into the handler, on the run's shared timeline, with
/// the buffer pool's running counters as they stood when it ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerSpan {
    pub call: Call,
    pub start_ns: u64,
    pub end_ns: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub pool_copied: u64,
}

impl ServerSpan {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn to_json(self) -> Json {
        let (kind, a, b) = match self.call {
            Call::Batch { acts, grads } => (0u64, acts, grads),
            Call::Snapshot { bytes } => (1, bytes, 0),
        };
        Json::Arr(
            [
                kind,
                a as u64,
                b as u64,
                self.start_ns,
                self.end_ns,
                self.pool_hits,
                self.pool_misses,
                self.pool_copied,
            ]
            .into_iter()
            .map(Json::from)
            .collect(),
        )
    }

    fn from_json(v: &Json) -> Result<ServerSpan, String> {
        let f: Vec<u64> = v
            .arr()
            .iter()
            .filter_map(|x| x.num().map(|n| n as u64))
            .collect();
        let [kind, a, b, start_ns, end_ns, pool_hits, pool_misses, pool_copied] = f[..] else {
            return Err(format!("server span has {} fields, expected 8", f.len()));
        };
        let call = match kind {
            0 => Call::Batch {
                acts: a as usize,
                grads: b as usize,
            },
            1 => Call::Snapshot { bytes: a as usize },
            other => return Err(format!("unknown server span kind {other}")),
        };
        Ok(ServerSpan {
            call,
            start_ns,
            end_ns,
            pool_hits,
            pool_misses,
            pool_copied,
        })
    }
}

/// `MenosServer` as the event loop sees it, with the clock read around
/// `handle_batch` and `snapshot_bytes` when tracing is on. Off, it
/// only forwards — plus the two observations the correctness gate
/// needs whichever way the run is traced: each session's adapter
/// weights hashed when its `Disconnect` arrives, and the Alg. 2
/// reservation after the last `Ready`.
pub struct TracedHandler {
    inner: MenosServer,
    trace: bool,
    clock: Clock,
    spans: Vec<ServerSpan>,
    adapter_hashes: Vec<(ClientId, u64)>,
    reserved_bytes: u64,
}

impl TracedHandler {
    pub fn new(inner: MenosServer, trace: bool, clock: Clock) -> TracedHandler {
        TracedHandler {
            inner,
            trace,
            clock,
            spans: Vec::new(),
            adapter_hashes: Vec::new(),
            reserved_bytes: 0,
        }
    }

    fn timed<T>(
        &mut self,
        f: impl FnOnce(&mut MenosServer) -> T,
        call: impl FnOnce(&T) -> Call,
    ) -> T {
        if !self.trace {
            return f(&mut self.inner);
        }
        let start_ns = self.clock.now_ns();
        let out = f(&mut self.inner);
        let end_ns = self.clock.now_ns();
        let p = pool::stats();
        self.spans.push(ServerSpan {
            call: call(&out),
            start_ns,
            end_ns,
            pool_hits: p.hits,
            pool_misses: p.misses,
            pool_copied: p.bytes_copied,
        });
        out
    }
}

impl MessageHandler for TracedHandler {
    fn handle(&mut self, msg: ClientMessage) -> Result<Option<ServerMessage>, ProtocolError> {
        if let ClientMessage::Disconnect { client } = msg {
            if let Some(adapters) = self.inner.session_adapters(client) {
                self.adapter_hashes.push((client, hash_params(adapters)));
            }
        }
        let is_connect = matches!(msg, ClientMessage::Connect { .. });
        let reply = self.inner.handle(msg);
        if is_connect && reply.is_ok() {
            self.reserved_bytes = self.inner.reserved_bytes();
        }
        reply
    }

    fn connection_lost(&mut self, client: ClientId) {
        self.inner.connection_lost(client);
    }

    fn expire_idle(&mut self, max_idle: Duration) -> Vec<ClientId> {
        MessageHandler::expire_idle(&mut self.inner, max_idle)
    }

    fn snapshot_bytes(&mut self) -> Option<Vec<u8>> {
        self.timed(
            |inner| inner.snapshot_bytes(),
            |blob| Call::Snapshot {
                bytes: blob.as_ref().map_or(0, Vec::len),
            },
        )
    }

    fn under_pressure(&mut self) -> bool {
        MessageHandler::under_pressure(&mut self.inner)
    }
}

impl BatchHandler for TracedHandler {
    fn handle_batch(
        &mut self,
        msgs: Vec<ClientMessage>,
    ) -> Vec<(ClientId, Result<Option<ServerMessage>, ProtocolError>)> {
        let count = |want_grads: bool| {
            msgs.iter()
                .filter(|m| match m {
                    ClientMessage::Activations { .. } => !want_grads,
                    ClientMessage::Gradients { .. } => want_grads,
                    _ => false,
                })
                .count()
        };
        let call = Call::Batch {
            acts: count(false),
            grads: count(true),
        };
        self.timed(|inner| inner.handle_batch(msgs), |_| call)
    }
}

/// What the server process tells the generator when it exits.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerReport {
    pub peak_rss_mb: f64,
    pub reserved_bytes: u64,
    pub adapter_hashes: Vec<(u64, u64)>,
    pub spans: Vec<ServerSpan>,
    pub conn_errors: u64,
    pub evicted: u64,
    pub shed: u64,
    pub snapshot_errors: u64,
    pub snapshots: u64,
    pub sweeps: u64,
    pub max_batch: u64,
    pub served: u64,
}

impl ServerReport {
    fn new(handler: TracedHandler, stats: EventLoopStats) -> Result<ServerReport, String> {
        Ok(ServerReport {
            peak_rss_mb: vm_hwm_mb().ok_or("cannot read VmHWM from /proc/self/status")?,
            reserved_bytes: handler.reserved_bytes,
            adapter_hashes: handler
                .adapter_hashes
                .iter()
                .map(|(c, h)| (c.0, *h))
                .collect(),
            spans: handler.spans,
            conn_errors: stats.conn_errors,
            evicted: stats.evicted,
            shed: stats.shed,
            snapshot_errors: stats.snapshot_errors,
            snapshots: stats.snapshots,
            sweeps: stats.sweeps,
            max_batch: stats.max_batch as u64,
            served: stats.served,
        })
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("peak_rss_mb", Json::from(self.peak_rss_mb)),
            ("reserved_bytes", Json::from(self.reserved_bytes)),
            (
                "adapter_hashes",
                // As hex strings: a u64 does not survive a JSON number.
                Json::Arr(
                    self.adapter_hashes
                        .iter()
                        .map(|(c, h)| {
                            Json::Arr(vec![Json::from(*c), Json::from(format!("{h:016x}"))])
                        })
                        .collect(),
                ),
            ),
            (
                "spans",
                Json::Arr(self.spans.iter().map(|s| s.to_json()).collect()),
            ),
            ("conn_errors", Json::from(self.conn_errors)),
            ("evicted", Json::from(self.evicted)),
            ("shed", Json::from(self.shed)),
            ("snapshot_errors", Json::from(self.snapshot_errors)),
            ("snapshots", Json::from(self.snapshots)),
            ("sweeps", Json::from(self.sweeps)),
            ("max_batch", Json::from(self.max_batch)),
            ("served", Json::from(self.served)),
        ])
    }

    pub fn from_json(v: &Json) -> Result<ServerReport, String> {
        let n = |key: &str| v.num_at(key).map(|x| x as u64);
        let adapter_hashes = v
            .get("adapter_hashes")
            .map(Json::arr)
            .unwrap_or_default()
            .iter()
            .map(|pair| {
                let client = pair.arr().first().and_then(Json::num);
                let hash = pair
                    .arr()
                    .get(1)
                    .and_then(Json::str)
                    .and_then(|h| u64::from_str_radix(h, 16).ok());
                match (client, hash) {
                    (Some(c), Some(h)) => Ok((c as u64, h)),
                    _ => Err(format!("bad adapter hash entry {pair}")),
                }
            })
            .collect::<Result<_, _>>()?;
        Ok(ServerReport {
            peak_rss_mb: v.num_at("peak_rss_mb")?,
            reserved_bytes: n("reserved_bytes")?,
            adapter_hashes,
            spans: v
                .get("spans")
                .map(Json::arr)
                .unwrap_or_default()
                .iter()
                .map(ServerSpan::from_json)
                .collect::<Result<_, _>>()?,
            conn_errors: n("conn_errors")?,
            evicted: n("evicted")?,
            shed: n("shed")?,
            snapshot_errors: n("snapshot_errors")?,
            snapshots: n("snapshots")?,
            sweeps: n("sweeps")?,
            max_batch: n("max_batch")?,
            served: n("served")?,
        })
    }
}

/// Arguments of the server role, as the generator passes them.
pub struct ServerArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub trace: bool,
    pub epoch_unix_ns: u128,
    pub snapshot_dir: Option<PathBuf>,
}

/// Runs the server process: prints `addr HOST:PORT` once it listens,
/// serves `workload.sessions` connections, then prints its report as
/// one JSON line and returns.
///
/// The generator holds this process's stdin open for as long as it
/// lives; if stdin closes the generator is gone and the server exits
/// rather than wait for connections that will never come.
pub fn run_server(args: &ServerArgs) -> Result<(), String> {
    menos_tensor::set_threads(1);
    std::thread::spawn(|| {
        let mut sink = [0u8; 64];
        while matches!(std::io::stdin().read(&mut sink), Ok(n) if n > 0) {}
        std::process::exit(3);
    });
    let inputs = Inputs::from_seed(args.workload, args.seed);
    let handler = TracedHandler::new(
        inputs.server(),
        args.trace,
        Clock::aligned(args.epoch_unix_ns),
    );
    let options = EventLoopOptions {
        accept_limit: args.workload.sessions,
        ..EventLoopOptions::default()
    };
    let tcp = TcpOptions::default();
    let addr = ("127.0.0.1", 0);
    let server = match &args.snapshot_dir {
        Some(dir) => TcpEventServer::spawn_with_snapshots(
            addr,
            handler,
            options,
            tcp,
            SnapshotPolicy::durable(dir),
        ),
        None => TcpEventServer::spawn(addr, handler, options, tcp),
    }
    .map_err(|e| format!("bind: {e}"))?;
    println!("addr {}", server.addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    let (handler, stats) = server.join().ok_or("event loop thread panicked")?;
    println!("{}", ServerReport::new(handler, stats)?.to_json());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_survives_the_pipe() {
        let span = |call| ServerSpan {
            call,
            start_ns: 5,
            end_ns: 9,
            pool_hits: 1,
            pool_misses: 2,
            pool_copied: 3,
        };
        let report = ServerReport {
            peak_rss_mb: 17.25,
            reserved_bytes: 1 << 33,
            adapter_hashes: vec![(0, u64::MAX), (7, 0x0123_4567_89ab_cdef)],
            spans: vec![
                span(Call::Batch { acts: 3, grads: 1 }),
                span(Call::Snapshot { bytes: 4096 }),
            ],
            conn_errors: 0,
            evicted: 0,
            shed: 0,
            snapshot_errors: 0,
            snapshots: 12,
            sweeps: 900,
            max_batch: 32,
            served: 8,
        };
        let line = report.to_json().to_string();
        assert!(!line.contains('\n'));
        let back = ServerReport::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, report);
    }
}
