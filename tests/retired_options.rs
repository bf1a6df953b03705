//! Every session fine-tunes with the paper's recipe: LoRA + Adam at one
//! optimizer step per batch. Prefix tuning, SGD and k-step gradient
//! accumulation are retired, but their encodings can still arrive — in
//! the Connect body of an older client, or inside a snapshot or an
//! `ImportSession` blob written before they went. Each is refused with
//! a typed error that names the option, and nothing of it is kept: the
//! connection closes without a session, and a restore or import
//! commits nothing.
//!
//! The same holds for the retired targets-per-block setting: its `u64`
//! slot now repeats the target count, and a body whose slot disagrees
//! with the target list is refused wherever it arrives.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use menos::adapters::FineTuneConfig;
use menos::core::{encode_session_record, MenosServer, ServerMode, ServerSpec, ServerState};
use menos::models::ModelConfig;
use menos::net::{encode_tensor, WireError};
use menos::split::{
    ClientId, ClientMessage, EventLoopOptions, ServerMessage, SplitSpec, TcpEventServer,
    TcpOptions, WireMessage,
};
use menos::tensor::{
    save_checkpoint, CheckpointError, ParamStore, Sealed, SectionReader, SectionWriter, Tensor,
};

const SEED: u64 = 5;

fn config() -> ModelConfig {
    ModelConfig::tiny_opt(17)
}

fn ft() -> FineTuneConfig {
    let mut ft = FineTuneConfig::paper(&config());
    ft.batch_size = 2;
    ft.seq_len = 8;
    ft
}

fn connect(client: u64) -> ClientMessage {
    ClientMessage::Connect {
        client: ClientId(client),
        ft: ft(),
        split: SplitSpec::paper(),
        epoch: 1,
        codecs: 0,
    }
}

fn fresh_server() -> MenosServer {
    MenosServer::new(config(), ServerSpec::v100(ServerMode::menos()), SEED)
}

/// A server holding sessions for clients 1 and 2, each two full steps
/// deep, so both records carry trained adapters and Adam moments.
fn server_with_sessions() -> MenosServer {
    let mut srv = fresh_server();
    for client in [1, 2] {
        let c = ClientId(client);
        srv.handle(connect(client)).expect("connect");
        for step in 0..2 {
            let x = 0.1 + step as f32 * 0.01;
            srv.handle(ClientMessage::Activations {
                client: c,
                frame: encode_tensor(&Tensor::full(x, [2, 8, 64])),
            })
            .expect("activations");
            let reply = srv
                .handle(ClientMessage::Gradients {
                    client: c,
                    frame: encode_tensor(&Tensor::full(x / 10.0, [2, 8, 64])),
                })
                .expect("gradients")
                .expect("reply");
            assert!(matches!(reply, ServerMessage::ServerGradients { .. }));
        }
    }
    srv
}

// Section tags of a `ServerSession::to_state` container.
const SESSION_META: u32 = 1;
const SESSION_CONFIG: u32 = 2;
const SESSION_OPTIM: u32 = 4;
const SESSION_ACCUM: u32 = 5;

/// A session container rebuilt with `edit` applied to its section list.
fn rewritten(session: &Sealed, edit: impl Fn(&mut Vec<(u32, Vec<u8>)>)) -> Sealed {
    let reader = SectionReader::parse(session).expect("pristine session");
    let mut sections: Vec<(u32, Vec<u8>)> =
        reader.sections().map(|(t, b)| (t, b.to_vec())).collect();
    edit(&mut sections);
    let mut w = SectionWriter::new();
    for (tag, body) in sections {
        w.section(tag, body);
    }
    w.finish()
}

/// The three retired encodings a session record can carry, each with
/// the words its refusal must contain.
fn retired_sessions(session: &Sealed) -> Vec<(&'static str, Sealed)> {
    let sgd = rewritten(session, |sections| {
        let optim = sections.iter_mut().find(|(t, _)| *t == SESSION_OPTIM);
        // Kind 0 (SGD), lr, momentum 0, an empty velocity list.
        let mut body = vec![0u8];
        body.extend(0.1f32.to_le_bytes());
        body.extend(0f32.to_le_bytes());
        body.extend(0u64.to_le_bytes());
        optim.expect("optimizer section").1 = body;
    });
    let micro = rewritten(session, |sections| {
        let meta = sections.iter_mut().find(|(t, _)| *t == SESSION_META);
        let meta = &mut meta.expect("meta section").1;
        // client, seed, steps, re-forwards, then the micro-step.
        let at = meta.len() - 8;
        meta[at..].copy_from_slice(&1u64.to_le_bytes());
    });
    let pending = rewritten(session, |sections| {
        sections.push((SESSION_ACCUM, save_checkpoint(&ParamStore::new())));
    });
    vec![
        ("SGD", sgd),
        ("gradient accumulation", micro),
        ("gradient accumulation", pending),
    ]
}

fn assert_names(result: Result<impl std::fmt::Debug, CheckpointError>, option: &str) {
    match result {
        Err(CheckpointError::Corrupt(why)) => assert!(why.contains(option), "{option}: {why}"),
        other => panic!("{option}: refused as {other:?}, expected Corrupt"),
    }
}

#[test]
fn a_snapshot_carrying_a_retired_option_restores_nothing() {
    let pristine = server_with_sessions().to_state();
    assert_eq!(pristine.sessions.len(), 2);
    // The pristine snapshot restores; the same with the second record
    // poisoned restores neither record.
    let mut target = fresh_server();
    let bytes = pristine.to_bytes();
    assert_eq!(
        target.restore(ServerState::from_bytes(&bytes).unwrap()),
        Ok(2)
    );

    for (option, session) in retired_sessions(&pristine.sessions[1].session) {
        let mut state = pristine.clone();
        state.sessions[1].session = session;
        let state = ServerState::from_bytes(&state.to_bytes()).expect("structurally valid");
        let mut target = fresh_server();
        assert_names(target.restore(state), option);
        assert_eq!(target.active_clients(), 0, "{option}");
        assert_eq!(target.quarantined_clients(), 0, "{option}");
        assert_eq!(target.reserved_bytes(), 0, "{option}");
    }
}

#[test]
fn an_import_carrying_a_retired_option_commits_nothing() {
    let source = server_with_sessions();
    let record = source
        .to_state()
        .sessions
        .into_iter()
        .find(|r| r.client == ClientId(2))
        .expect("client 2's record");
    let mut target = fresh_server();
    assert!(target
        .import_session(&encode_session_record(SEED, &record))
        .is_ok());

    for (option, session) in retired_sessions(&record.session) {
        let mut rec = record.clone();
        rec.session = session;
        let mut target = fresh_server();
        assert_names(
            target.import_session(&encode_session_record(SEED, &rec)),
            option,
        );
        assert_eq!(target.active_clients(), 0, "{option}");
        assert_eq!(target.quarantined_clients(), 0, "{option}");
        assert_eq!(target.reserved_bytes(), 0, "{option}");
    }
}

#[test]
fn a_connect_naming_a_retired_option_closes_its_connection_and_opens_no_session() {
    // Offsets into the paper config's Connect body (after the 18-byte
    // frame header): adapter kind at 0, optimizer kind at 24 (after
    // rank, alpha, targets-per-block and two targets), accumulation
    // factor at 45 (after lr, batch size and sequence length).
    let header = 18;
    let patches: [(&str, usize, &[u8]); 3] = [
        ("prefix tuning", header, &[1]),
        ("SGD", header + 24, &[1]),
        ("gradient accumulation", header + 45, &3u64.to_le_bytes()),
    ];
    let handler = Arc::new(Mutex::new(fresh_server()));
    let server = TcpEventServer::spawn(
        "127.0.0.1:0",
        handler.clone(),
        EventLoopOptions {
            accept_limit: patches.len(),
            ..EventLoopOptions::default()
        },
        TcpOptions::default(),
    )
    .expect("bind");
    let pristine = connect(9).to_wire();
    assert!(ClientMessage::from_wire(&pristine, 1 << 20).is_ok());
    for (option, at, bytes) in patches {
        let mut frame = pristine.to_vec();
        frame[at..at + bytes.len()].copy_from_slice(bytes);
        let mut s = TcpStream::connect(server.addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        s.write_all(&frame).expect("write Connect");
        // The server answers nothing and closes: end of stream (or a
        // reset), never a reply and never a hang.
        let mut reply = Vec::new();
        if let Err(e) = s.read_to_end(&mut reply) {
            let hung = matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut);
            assert!(!hung, "{option}: the connection stayed open");
        }
        assert!(
            reply.is_empty(),
            "{option}: got {} reply bytes",
            reply.len()
        );
        assert_eq!(handler.lock().unwrap().active_clients(), 0, "{option}");
    }
    let (_, stats) = server.join().expect("loop finished");
    assert_eq!(stats.conn_errors, 3, "{stats:?}");
    assert_eq!(handler.lock().unwrap().quarantined_clients(), 0);
}

#[test]
fn a_target_count_that_disagrees_with_the_target_list_is_refused_everywhere() {
    // The paper config lists two targets (Q, V); bytes 13..21 of its
    // config body, after adapter tag, rank and alpha, claim three.
    const SLOT: std::ops::Range<usize> = 13..21;
    let three = 3u64.to_le_bytes();
    let names = "target count 3 disagrees with the 2 targets";

    let mut frame = connect(9).to_wire().to_vec();
    let header = 18;
    frame[header + SLOT.start..header + SLOT.end].copy_from_slice(&three);
    match ClientMessage::from_wire(&frame.into(), 1 << 20) {
        Err(WireError::Malformed(why)) => assert!(why.contains(names), "{why}"),
        other => panic!("Connect decoded as {other:?}"),
    }

    let pristine = server_with_sessions().to_state();
    let mut record = pristine.sessions[1].clone();
    record.session = rewritten(&record.session, |sections| {
        let config = sections.iter_mut().find(|(t, _)| *t == SESSION_CONFIG);
        config.expect("config section").1[SLOT].copy_from_slice(&three);
    });
    let mut state = pristine.clone();
    state.sessions[1] = record.clone();
    let snapshot = ServerState::from_bytes(&state.to_bytes()).expect("structurally valid");
    let mut restored = fresh_server();
    assert_names(restored.restore(snapshot), names);
    let mut imported = fresh_server();
    assert_names(
        imported.import_session(&encode_session_record(SEED, &record)),
        names,
    );
    for target in [restored, imported] {
        assert_eq!(target.active_clients(), 0);
        assert_eq!(target.quarantined_clients(), 0);
        assert_eq!(target.reserved_bytes(), 0);
    }
}
