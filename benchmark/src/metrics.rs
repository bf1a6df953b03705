//! The benchmark's metrics by name. `BENCHMARK.json` at the root of the
//! repository lists the same names, units, directions and bounds; a
//! test below holds the two together.

/// A metric a user of the system would see, with the share of the
/// parent's median by which it may worsen before it is a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "steps_per_s",
        unit: "steps/s",
        higher_is_better: true,
        bound: 0.20,
    },
    EndToEnd {
        name: "step_ms_p50",
        unit: "ms",
        higher_is_better: false,
        bound: 0.20,
    },
    EndToEnd {
        name: "step_ms_p90",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "server_peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "wire_bytes_per_step",
        unit: "bytes",
        higher_is_better: false,
        bound: 0.001,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// A metric of a single layer, from the traced run. No bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn ms(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "ms",
        higher_is_better: false,
    }
}

const fn of(name: &'static str, unit: &'static str, higher_is_better: bool) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better,
    }
}

pub const PER_LAYER: [PerLayer; 38] = [
    // Generator-side spans around public calls, per step.
    ms("split.client.input_fwd_ms"),
    ms("split.client.head_ms"),
    ms("split.client.input_bwd_ms"),
    ms("net.compress.encode_ms"),
    ms("net.compress.decode_ms"),
    ms("split.tcp.send_ms"),
    ms("split.tcp.recv_wait_ms"),
    of("trace.closure_pct", "%", true),
    of("trace.steps_per_s", "steps/s", true),
    // Server-side spans from the handler wrapper.
    ms("core.server.fwd_ms"),
    ms("core.server.bwd_ms"),
    ms("core.server.handler_ms"),
    of("core.server.batch_mean", "count", true),
    of("core.server.batch_max", "count", true),
    of("core.server.mixed_batch_share", "ratio", false),
    of("core.server.busy_share", "ratio", true),
    ms("core.state.snapshot_ms"),
    of("core.state.snapshot_kb", "KB", false),
    of("split.event_loop.snapshots_per_step", "count", false),
    of("split.event_loop.batches_per_step", "count", false),
    of("split.event_loop.sweeps_per_step", "count", false),
    of("core.scheduler.reserved_mb", "MB", false),
    of("tensor.pool.hit_rate", "ratio", true),
    of("tensor.pool.bytes_copied_per_step", "bytes", false),
    // Derived: blocked in recv while the handler was not running.
    ms("split.event_loop.wait_ms"),
    // Stepwise in-process drive of the same geometry, no sockets.
    ms("split.codec.frame_ms"),
    ms("split.codec.parse_ms"),
    ms("net.nonblocking.reassemble_ms"),
    ms("net.nonblocking.writeq_ms"),
    ms("core.state.snapshot_write_ms"),
    ms("split.server.fwd_nograd_ms"),
    ms("split.server.fwd_cached_ms"),
    ms("split.server.bwd_ms"),
    ms("split.server.reforward_ms"),
    of("core.server.stack_gain", "ratio", true),
    ms("adapters.optim.step_ms"),
    ms("models.blocks_fwd_ms"),
    of("tensor.matmul_gflops", "GFLOP/s", true),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn better(higher: bool) -> &'static str {
        if higher {
            "higher"
        } else {
            "lower"
        }
    }

    #[test]
    fn benchmark_json_lists_these_workloads() {
        let m = manifest();
        let listed = m.get("workloads").unwrap().arr();
        assert_eq!(listed.len(), WORKLOADS.len());
        for (w, l) in WORKLOADS.iter().zip(listed) {
            assert_eq!(l.get("name").and_then(Json::str), Some(w.name));
            assert_eq!(l.get("why").and_then(Json::str), Some(w.why));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn benchmark_json_lists_these_end_to_end_metrics() {
        let m = manifest();
        let listed = m.get("end_to_end").unwrap().arr();
        assert_eq!(listed.len(), END_TO_END.len());
        for (e, l) in END_TO_END.iter().zip(listed) {
            assert_eq!(l.get("name").and_then(Json::str), Some(e.name));
            assert_eq!(l.get("unit").and_then(Json::str), Some(e.unit));
            assert_eq!(
                l.get("better").and_then(Json::str),
                Some(better(e.higher_is_better))
            );
            assert_eq!(
                l.get("bound").and_then(Json::num),
                Some(e.bound),
                "{}",
                e.name
            );
            assert!(e.bound <= 0.25);
        }
    }

    #[test]
    fn benchmark_json_lists_these_per_layer_metrics() {
        let m = manifest();
        let listed = m.get("per_layer").unwrap().arr();
        assert_eq!(listed.len(), PER_LAYER.len());
        for (p, l) in PER_LAYER.iter().zip(listed) {
            assert_eq!(l.get("name").and_then(Json::str), Some(p.name));
            assert_eq!(l.get("unit").and_then(Json::str), Some(p.unit));
            assert_eq!(
                l.get("better").and_then(Json::str),
                Some(better(p.higher_is_better))
            );
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        let mut names: Vec<&str> = END_TO_END.iter().map(|e| e.name).collect();
        names.extend(PER_LAYER.iter().map(|p| p.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for n in &names {
            assert!(ok_name(n), "{n}");
        }
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for u in END_TO_END
            .iter()
            .map(|e| e.unit)
            .chain(PER_LAYER.iter().map(|p| p.unit))
        {
            assert!(ok_unit(u), "{u}");
        }
    }
}
