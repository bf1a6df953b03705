//! Adapter checkpointing across the full stack: train a session, save
//! its adapters, restore them into a fresh session over the same shared
//! base, and verify behavioural equivalence.

use menos::adapters::FineTuneConfig;
use menos::core::SharedBaseRegistry;
use menos::data::{wiki_corpus, TokenDataset, Vocab};
use menos::models::{CausalLm, ModelConfig};
use menos::split::{run_split_steps, ClientId, ForwardMode, ServerSession, SplitClient, SplitSpec};
use menos::tensor::{load_checkpoint, restore_into, save_checkpoint, Tensor};

fn setup() -> (
    Vocab,
    ModelConfig,
    SharedBaseRegistry,
    FineTuneConfig,
    String,
) {
    let text = wiki_corpus(88, 12_000);
    let vocab = Vocab::from_text(&text);
    let config = ModelConfig::tiny_llama(vocab.size());
    let registry = SharedBaseRegistry::initialize(config.clone(), 88);
    let mut ft = FineTuneConfig::paper(&config);
    ft.batch_size = 2;
    ft.seq_len = 16;
    (vocab, config, registry, ft, text)
}

#[test]
fn trained_adapters_survive_checkpoint_round_trip() {
    let (vocab, config, mut registry, ft, text) = setup();
    let split = SplitSpec::paper();
    let ds = TokenDataset::new(vocab.encode(&text), ft.seq_len, 1);
    let mut client = SplitClient::new(
        ClientId(0),
        CausalLm::bind(&config, registry.base_store()),
        split,
        ft.clone(),
        ds,
        1,
    );
    let mut session = ServerSession::new(ClientId(0), registry.new_instance(), split, &ft, 1);
    run_split_steps(&mut client, &mut session, ForwardMode::NoGradReforward, 8);

    // Save, then restore into a brand-new session (same adapter seed so
    // the *structure* matches; values come from the checkpoint).
    let bytes = save_checkpoint(session.adapter_params());
    let mut restored_session =
        ServerSession::new(ClientId(1), registry.new_instance(), split, &ft, 999);
    assert!(
        !restored_session
            .adapter_params()
            .shares_storage_with(session.adapter_params()),
        "fresh session has private adapters"
    );
    restore_into(
        restored_session.adapter_params(),
        &load_checkpoint(&bytes).expect("decode"),
    )
    .expect("restore");

    // Behavioural equivalence: identical forward outputs on a probe.
    let probe = Tensor::full(0.2, [1, 8, config.hidden]);
    let a = session.forward_nograd(&probe);
    let b = restored_session.forward_nograd(&probe);
    let bits = |t: &Tensor| t.to_vec().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&a),
        bits(&b),
        "restored session must compute identically"
    );
}

#[test]
fn corrupted_checkpoints_are_rejected_cleanly() {
    let (_vocab, _config, mut registry, ft, _text) = setup();
    let split = SplitSpec::paper();
    let session = ServerSession::new(ClientId(0), registry.new_instance(), split, &ft, 1);
    let bytes = save_checkpoint(session.adapter_params());
    // Flip bytes across the buffer: decode either fails cleanly or
    // yields a store that restore validates; it must never panic.
    for i in [0usize, 4, 9, bytes.len() / 2, bytes.len() - 1] {
        let mut bad = bytes.clone();
        bad[i] ^= 0xA5;
        match load_checkpoint(&bad) {
            Err(_) => {}
            Ok(store) => {
                // Structurally valid mutation: restoring is fine or
                // fails shape validation — both acceptable, no panic.
                let _ = restore_into(session.adapter_params(), &store);
            }
        }
    }
}

#[test]
fn checkpoint_is_adapter_sized_not_model_sized() {
    let (_vocab, config, mut registry, ft, _text) = setup();
    let session = ServerSession::new(
        ClientId(0),
        registry.new_instance(),
        SplitSpec::paper(),
        &ft,
        1,
    );
    let bytes = save_checkpoint(session.adapter_params());
    let base_bytes = config.total_params() * 4;
    assert!(
        (bytes.len() as u64) * 4 < base_bytes,
        "checkpoint {} should be far below base {}",
        bytes.len(),
        base_bytes
    );
}
