//! The paper's headline claims as executable integration tests.
//!
//! Each test cites the claim it checks; together they are the
//! regression suite for "does this repository still reproduce Menos".

use menos::adapters::FineTuneConfig;
use menos::core::{
    profile_client, run_experiment, MemoryPolicy, ServerMode, ServerSpec, WorkloadSpec,
};
use menos::models::{ModelConfig, ModelProfile};

/// Abstract §1: "reducing GPU memory consumption by up to 72%".
#[test]
fn claim_memory_reduction_up_to_72_percent() {
    let cfg = ModelConfig::llama2_7b();
    let profile = ModelProfile::new(cfg.clone(), 1);
    let ft = FineTuneConfig::paper(&cfg);
    let n = 4u64;
    let vanilla = n * profile.vanilla_persistent_bytes(&ft.lora, &ft.targets);
    let menos =
        profile.server_param_bytes() + n * profile.menos_per_client_bytes(&ft.lora, &ft.targets);
    let saving = 1.0 - menos as f64 / vanilla as f64;
    assert!(
        saving >= 0.70,
        "expected >= 70% persistent-memory saving at 4 Llama clients, got {:.1}%",
        saving * 100.0
    );
}

/// §2.3: "most high-end server GPUs ... can only support split
/// fine-tuning for a single client at a time" (Llama-2-7B on a 32 GB
/// V100 without sharing).
#[test]
fn claim_v100_fits_only_one_vanilla_llama_client() {
    let cfg = ModelConfig::llama2_7b();
    let profile = ModelProfile::new(cfg.clone(), 1);
    let ft = FineTuneConfig::paper(&cfg);
    let d = profile_client(&profile, &ft);
    let per_client = profile.server_param_bytes() + d.persistent + d.m_b;
    let v100 = 32u64 << 30;
    assert!(per_client <= v100, "one client must fit: {per_client}");
    assert!(
        2 * per_client > v100,
        "two must not fit: {}",
        2 * per_client
    );
}

/// §5.2: with Menos, "scaling the number of clients has a minor impact"
/// while vanilla degrades severely once memory is exhausted.
#[test]
fn claim_menos_scales_where_vanilla_collapses() {
    let w2 = WorkloadSpec::paper(ModelConfig::llama2_7b(), 2, 5);
    let menos = run_experiment(&ServerSpec::v100(ServerMode::menos()), &w2, 1);
    let vanilla = run_experiment(&ServerSpec::v100(ServerMode::VanillaSwapping), &w2, 1);
    assert!(menos.error.is_none() && vanilla.error.is_none());
    assert!(
        vanilla.avg_round_s > 10.0 * menos.avg_round_s,
        "vanilla {} should collapse vs menos {}",
        vanilla.avg_round_s,
        menos.avg_round_s
    );
}

/// §5.2: "the time overhead is negligible" — Menos' slowdown relative
/// to vanilla when vanilla has enough memory (OPT, ≤3 clients) stays
/// within ~20%.
#[test]
fn claim_menos_overhead_negligible_when_vanilla_fits() {
    let w = WorkloadSpec::paper(ModelConfig::opt_1_3b(), 3, 6);
    let menos = run_experiment(&ServerSpec::v100(ServerMode::menos()), &w, 1);
    let vanilla = run_experiment(&ServerSpec::v100(ServerMode::VanillaSwapping), &w, 1);
    let overhead = menos.avg_round_s / vanilla.avg_round_s - 1.0;
    assert!(
        overhead < 0.20,
        "Menos round overhead should be negligible, got {:.1}%",
        overhead * 100.0
    );
}

/// §5.2: "there is almost no waiting time for forward requests even for
/// Llama 2" — forwards backfill around heavy backwards.
#[test]
fn claim_forwards_never_wait() {
    let w = WorkloadSpec::paper(ModelConfig::llama2_7b(), 4, 6);
    let r = run_experiment(&ServerSpec::v100(ServerMode::menos()), &w, 1);
    // Total schedule wait per round (fwd + bwd) stays far below one
    // backward duration; backfills actually happen.
    assert!(r.avg_schedule_s < 1.0, "schedule {}", r.avg_schedule_s);
}

/// §3.2: the paper's trade — on-demand allocation "inevitably increases
/// computation" but "the benefit significantly outweighs the extra
/// computation overhead".
#[test]
fn claim_reforward_costs_compute_but_wins_overall() {
    let w = WorkloadSpec::paper(ModelConfig::llama2_7b(), 4, 6);
    let menos = run_experiment(&ServerSpec::v100(ServerMode::menos()), &w, 1);
    let preserve = run_experiment(
        &ServerSpec::v100(ServerMode::Menos {
            policy: MemoryPolicy::ReleaseAfterBackward,
            backfilling: true,
        }),
        &w,
        1,
    );
    // Compute is higher with re-forward...
    assert!(menos.avg_compute_s > preserve.avg_compute_s);
    // ...but the round completes sooner (no queueing on preserved memory).
    assert!(
        menos.avg_round_s < preserve.avg_round_s,
        "menos {} vs preserve {}",
        menos.avg_round_s,
        preserve.avg_round_s
    );
}

/// Fig. 3a at scale: preserving intermediates across iterations cannot
/// even be set up for multiple Llama clients on one V100.
#[test]
fn claim_preserve_all_is_infeasible_at_scale() {
    let w = WorkloadSpec::paper(ModelConfig::llama2_7b(), 4, 3);
    let r = run_experiment(
        &ServerSpec::v100(ServerMode::Menos {
            policy: MemoryPolicy::PreserveAll,
            backfilling: true,
        }),
        &w,
        1,
    );
    assert!(
        r.error.is_some(),
        "preserve-all must fail for 4 Llama clients"
    );
}

/// §4.2: backfilling "improves overall system throughput" without
/// starving the FCFS head.
#[test]
fn claim_backfilling_does_not_hurt_and_usually_helps() {
    let w = WorkloadSpec::paper(ModelConfig::llama2_7b(), 4, 6);
    let with = run_experiment(&ServerSpec::v100(ServerMode::menos()), &w, 1);
    let without = run_experiment(
        &ServerSpec::v100(ServerMode::Menos {
            policy: MemoryPolicy::menos(),
            backfilling: false,
        }),
        &w,
        1,
    );
    assert!(
        with.avg_schedule_s <= without.avg_schedule_s + 0.05,
        "backfilling made schedule worse: {} vs {}",
        with.avg_schedule_s,
        without.avg_schedule_s
    );
}

/// Table 1's premise: the evaluation transfer sizes match the paper's
/// reported 13.1 MB (OPT) and 6.4 MB (Llama).
#[test]
fn claim_transfer_sizes_match() {
    let opt = ModelProfile::new(ModelConfig::opt_1_3b(), 1).transfer_bytes(16, 100);
    assert!(
        (12_500_000..14_000_000).contains(&opt),
        "OPT transfer {opt}"
    );
    let llama = ModelProfile::new(ModelConfig::llama2_7b(), 1).transfer_bytes(4, 100);
    assert!(
        (6_000_000..7_000_000).contains(&llama),
        "Llama transfer {llama}"
    );
}
