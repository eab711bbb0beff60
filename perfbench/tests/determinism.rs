//! The benchmark's own checks: modeled figures are a pure function of
//! the seed, tracing does not move them, the seed reaches the input
//! generator, and BENCHMARK.json names exactly the metrics the command
//! prints. Episodes run at the reduced `Scale::Smoke` size.

use msnap_perfbench::trace::Tracer;
use msnap_perfbench::{fingerprint, run_episode, Params, Scale, Workload, END_TO_END, PER_LAYER};

fn params(seed: u64) -> Params {
    Params {
        seed,
        scale: Scale::Smoke,
    }
}

fn episode(w: Workload, seed: u64, traced: bool) -> msnap_perfbench::Episode {
    let mut tracer = Tracer::new(traced);
    let ep = run_episode(w, &params(seed), &mut tracer);
    assert_eq!(
        ep.failed,
        0,
        "{} seed {seed}: {:?}",
        w.name(),
        ep.violations
    );
    assert!(ep.attempted > 0);
    if traced {
        assert!(!tracer.spans().is_empty(), "{}: no spans", w.name());
    }
    ep
}

#[test]
fn same_seed_gives_identical_modeled_metrics() {
    for w in Workload::ALL {
        let a = episode(w, 5, false);
        let b = episode(w, 5, false);
        assert_eq!(fingerprint(&a), fingerprint(&b), "{}", w.name());
    }
}

#[test]
fn traced_run_matches_untraced_run() {
    for w in Workload::ALL {
        let plain = episode(w, 6, false);
        let traced = episode(w, 6, true);
        assert_eq!(fingerprint(&plain), fingerprint(&traced), "{}", w.name());
    }
}

#[test]
fn another_seed_changes_the_generated_inputs() {
    for w in Workload::ALL {
        let a = episode(w, 7, false);
        let b = episode(w, 8, false);
        assert_ne!(
            a.inputs,
            b.inputs,
            "{}: seed did not reach the generator",
            w.name()
        );
        assert_ne!(fingerprint(&a), fingerprint(&b), "{}", w.name());
    }
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names = |section: &str| -> Vec<String> {
        let start = doc
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &doc[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    };
    let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
    let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names("end_to_end"), e2e);
    assert_eq!(names("per_layer"), layers);
    assert_eq!(names("workloads"), workloads);
}

#[test]
fn an_unmeasured_end_to_end_metric_fails_the_run() {
    // A smoke-sized replicate_wan acknowledges too few epochs for a p99.
    let r = msnap_perfbench::run(Workload::ReplicateWan, &params(3), 0.0, false);
    assert!(!r.correct);
    assert!(r.metrics.iter().all(|m| m.name != "put_p99_us"));
    assert!(r
        .notes
        .iter()
        .any(|n| n.contains("put_p99_us was not measured")));
}
