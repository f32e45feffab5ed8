//! Table formatting, scalability helpers and the BENCH_*.json
//! protocol-traffic reports for the figure binaries.

use std::io::Write;
use std::path::PathBuf;

use darray::{Cluster, NodeStatsSnapshot, StatClass};

/// Print a markdown table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    println!("| {} |", header.join(" | "));
    println!(
        "|{}|",
        header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for r in rows {
        println!("| {} |", r.join(" | "));
    }
}

/// The paper's scalability ratio: `T(n_max) / (T(n_min) * n_max / n_min)`,
/// i.e. the fraction of perfect scaling retained at the largest node count.
pub fn scalability(points: &[(usize, f64)]) -> f64 {
    assert!(points.len() >= 2);
    let (n0, t0) = points[0];
    let (n1, t1) = *points.last().unwrap();
    (t1 / t0) / (n1 as f64 / n0 as f64)
}

/// Format a float to 3 significant-ish digits.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Cluster-wide counters of a run: every node's [`Cluster::stats`] merged
/// by each row's aggregation (call before shutdown). This is the coherence
/// cost behind a benchmark's headline number: a workload whose throughput
/// regresses while its `invalidations`/`recalls` climb is suffering
/// protocol ping-pong, not compute.
pub fn collect_traffic(cluster: &Cluster) -> NodeStatsSnapshot {
    let mut total = NodeStatsSnapshot::default();
    for n in 0..cluster.config().nodes {
        total.merge(&cluster.stats(n));
    }
    total
}

/// The JSON object for one BENCH_*.json section: every non-`Local` row,
/// in table order.
fn section_json(t: &NodeStatsSnapshot) -> String {
    let fields: Vec<String> = t
        .rows()
        .filter(|&(_, class, _)| class != StatClass::Local)
        .map(|(name, _, v)| format!("\"{name}\":{v}"))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Render the BENCH_*.json body: a `metrics` object of headline numbers
/// (throughput, running time, per-pool occupancy, …) and one
/// protocol-traffic section per labelled configuration. Virtual-time
/// determinism makes the floats — and hence the file — byte-identical
/// across runs, so `protocol_diff` compares every metric exactly against
/// its baseline. With no metrics, the `metrics` key is omitted entirely.
pub fn render_bench_json_with_metrics(
    name: &str,
    metrics: &[(String, f64)],
    sections: &[(String, NodeStatsSnapshot)],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"bench\": \"{name}\",\n"));
    if !metrics.is_empty() {
        s.push_str("  \"metrics\": {\n");
        for (i, (label, v)) in metrics.iter().enumerate() {
            let comma = if i + 1 < metrics.len() { "," } else { "" };
            s.push_str(&format!("    \"{label}\": {v:.6}{comma}\n"));
        }
        s.push_str("  },\n");
    }
    s.push_str("  \"protocol_traffic\": {\n");
    for (i, (label, t)) in sections.iter().enumerate() {
        let comma = if i + 1 < sections.len() { "," } else { "" };
        s.push_str(&format!("    \"{label}\": {}{comma}\n", section_json(t)));
    }
    s.push_str("  }\n}\n");
    s
}

/// Write `BENCH_<name>.json` (see [`render_bench_json_with_metrics`]) into
/// the current directory and return its path. Virtual-time determinism
/// makes the file byte-identical across runs of the same binary.
pub fn write_bench_json_with_metrics(
    name: &str,
    metrics: &[(String, f64)],
    sections: &[(String, NodeStatsSnapshot)],
) -> std::io::Result<PathBuf> {
    let path = PathBuf::from(format!("BENCH_{name}.json"));
    let mut f = std::fs::File::create(&path)?;
    f.write_all(render_bench_json_with_metrics(name, metrics, sections).as_bytes())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalability_of_perfect_scaling_is_one() {
        let pts = [(1, 10.0), (2, 20.0), (4, 40.0)];
        assert!((scalability(&pts) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scalability_of_flat_throughput_decays() {
        let pts = [(1, 10.0), (4, 10.0)];
        assert!((scalability(&pts) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(123.4), "123");
        assert_eq!(fmt(3.146), "3.15");
        assert_eq!(fmt(0.1234), "0.1234");
    }

    #[test]
    fn metrics_object_renders_and_empty_is_omitted() {
        let t = NodeStatsSnapshot::default();
        let body = render_bench_json_with_metrics(
            "unit",
            &[("read_rt2_mops".to_string(), 12.5)],
            &[("read_rt2".to_string(), t)],
        );
        assert!(body.contains("\"metrics\": {"));
        assert!(body.contains("\"read_rt2_mops\": 12.500000"));
        let bare = render_bench_json_with_metrics("unit", &[], &[("read_rt2".to_string(), t)]);
        assert!(!bare.contains("metrics"));
    }

    #[test]
    fn bench_json_body_shape() {
        let t = NodeStatsSnapshot {
            fills: 42,
            ..Default::default()
        };
        let body = render_bench_json_with_metrics(
            "unit",
            &[],
            &[
                ("seq_read".to_string(), t),
                ("seq_write".to_string(), NodeStatsSnapshot::default()),
            ],
        );
        assert!(body.contains("\"bench\": \"unit\""));
        assert!(body.contains("\"seq_read\""));
        assert!(body.contains("\"fills\":42"));
        assert!(body.trim_end().ends_with('}'));
        assert_eq!(
            body.matches("\"fills\"").count(),
            2,
            "one object per section"
        );
    }
}
