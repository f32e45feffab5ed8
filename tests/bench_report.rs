//! The BENCH report path end to end on the simulated backend: a small
//! lock-contended workload renders a byte-identical `BENCH_*.json` body run
//! to run, and its cluster-wide counters keep the transport identity
//! `frames == tx_flushes + frames_coalesced`.

use darray::NodeStatsSnapshot;
use darray_bench::operate::zipf_update;
use darray_bench::report::render_bench_json;

/// The WLock+Read+Write variant of the Figure-14 workload on 3 nodes: it
/// drives fills, invalidations, recalls and writebacks over the wire.
fn run() -> (String, NodeStatsSnapshot) {
    let traffic = zipf_update(3, 4_096, 200, false).protocol;
    let body = render_bench_json("tier1", &[("lock_3n".to_string(), traffic)]);
    (body, traffic)
}

#[test]
fn bench_body_is_deterministic_and_frames_balance() {
    let (first, traffic) = run();
    let (second, _) = run();
    assert_eq!(
        first, second,
        "BENCH body must be byte-identical run to run"
    );

    assert!(
        traffic.transitions > 0 && traffic.recalls > 0,
        "{traffic:?}"
    );
    assert!(traffic.frames > 0, "{traffic:?}");
    assert_eq!(
        traffic.frames,
        traffic.tx_flushes + traffic.frames_coalesced,
        "every frame either rings a doorbell or rides an open batch"
    );
}
