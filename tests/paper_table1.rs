//! The shape of the paper's Table 1, computed by the same function
//! `pipemap-bench-suite paper table1` prints from: MILP-map never needs
//! more registers than MILP-base, and the XORR and GFMUL kernels collapse
//! into one combinational stage. CLZ is in the set because the analyze
//! pre-pass rewrites it, so every row must be simulated against the graph
//! its flow scheduled.

use std::time::Duration;

use pipemap::bench_suite::by_name;
use pipemap::bench_suite::paper::table1_rows;
use pipemap::core::Flow;

#[test]
fn table1_shape_on_clz_xorr_gfmul() {
    for name in ["CLZ", "XORR", "GFMUL"] {
        let b = by_name(name).expect("exists");
        let rows = table1_rows(&b, Duration::from_secs(5)).expect("flows run");
        let flows: Vec<Flow> = rows.iter().map(|r| r.result.flow).collect();
        assert_eq!(flows, Flow::ALL);
        for r in &rows {
            assert!(
                r.functional,
                "{name}/{}: simulation diverged",
                r.result.flow
            );
        }
        let [hls, base, map] = [0, 1, 2].map(|i| &rows[i].result.qor);
        assert!(
            map.ffs <= base.ffs,
            "{name}: MILP-map FF {} > MILP-base FF {}",
            map.ffs,
            base.ffs
        );
        assert!(
            hls.ffs > 0,
            "{name}: baseline should have pipeline registers"
        );
        if name == "CLZ" {
            continue;
        }
        // Paper: these kernels become a single combinational stage.
        assert_eq!(map.ffs, 0, "{name}: MILP-map FFs");
        assert_eq!(map.depth, 1, "{name}: MILP-map depth");
        if name == "GFMUL" {
            assert!(
                map.luts <= hls.luts,
                "GFMUL: MILP-map LUT {} > HLS LUT {}",
                map.luts,
                hls.luts
            );
        }
    }
}
