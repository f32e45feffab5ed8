//! Metrics derived from the repetitions of a run. End-to-end numbers come
//! from untraced repetitions; per-layer numbers from diffing the public
//! stats snapshots around the window and from the spans of traced ones.

use std::collections::HashMap;
use std::fmt;

use darray::NodeStatsSnapshot;

use crate::host::{median, percentile};
use crate::trace::{Span, NO_PARENT};
use crate::work::{Rep, Virtual};

pub struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// Sample count of a percentile, or why the value is a placeholder.
    note: String,
}

impl Metric {
    fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        if value.is_finite() {
            Metric {
                name,
                unit,
                value,
                note: String::new(),
            }
        } else {
            Metric {
                name,
                unit,
                value: 0.0,
                note: "undefined: no denominator; 0 in the JSON".into(),
            }
        }
    }

    /// Percentile `q` of ascending `sorted`; 0 when it is omitted because
    /// fewer than ten samples lie beyond it.
    fn percentile(name: &'static str, sorted: &[u64], q: f64) -> Self {
        let (value, why) = match percentile(sorted, q) {
            Some(v) => (v as f64, ""),
            None => (
                0.0,
                "; undefined: fewer than 10 samples beyond it; 0 in the JSON",
            ),
        };
        Metric {
            name,
            unit: "ns",
            value,
            note: format!("n={}{why}", sorted.len()),
        }
    }

    pub fn json(&self) -> String {
        format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            self.name, self.value, self.unit
        )
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:<36} {:>16.6} {}", self.name, self.value, self.unit)?;
        if !self.note.is_empty() {
            write!(f, "  ({})", self.note)?;
        }
        Ok(())
    }
}

fn v_mops(rep: &Rep) -> f64 {
    rep.ops as f64 / rep.virt.window_ns as f64 * 1e3
}

/// End-to-end metrics of untraced repetitions. Peak memory is the first
/// repetition's, which runs in a fresh process as a user's single run
/// would; later ones start from the heap their predecessors left, whose
/// growth [`rss_growth_mb_per_rep`] reports.
pub fn end_to_end(plain: &[Rep]) -> Vec<Metric> {
    vec![
        Metric::new("v_mops", "Mops/s", v_mops(&plain[0])),
        Metric::new(
            "setup_s",
            "s",
            host_median_of(plain, |r| r.setup.scaled_s()),
        ),
        Metric::new("peak_rss_mb", "MiB", plain[0].peak_rss_mb),
    ]
}

/// Median growth of resident memory from one untraced repetition to the
/// next, in MiB, from the second on. A leak across cluster bring-up and
/// shutdown shows here; one-time growth does not. Left out: the first
/// repetition, which grows a fresh process's heap once and precedes the
/// first traced repetition, whose spans are held until exit; and traced
/// repetitions, which still hold their spans when they end.
pub fn rss_growth_mb_per_rep(plain: &[Rep]) -> f64 {
    let after_first = plain.get(1..).unwrap_or_default();
    median_step(
        &after_first
            .iter()
            .map(|r| r.rss_after_mb)
            .collect::<Vec<_>>(),
    )
}

/// Median difference between consecutive `values`; NaN for fewer than two.
fn median_step(values: &[f64]) -> f64 {
    let steps: Vec<f64> = values.windows(2).map(|w| w[1] - w[0]).collect();
    if steps.is_empty() {
        f64::NAN
    } else {
        median(&steps)
    }
}

/// Sum over nodes of a counter's change across the window.
fn delta(v: &Virtual, field: impl Fn(&NodeStatsSnapshot) -> u64) -> f64 {
    v.stats
        .iter()
        .map(|(b, a)| field(a) - field(b))
        .sum::<u64>() as f64
}

/// What the spans of one traced repetition show.
#[derive(Default)]
pub struct SpanSummary {
    by_name: HashMap<&'static str, Vec<u64>>,
    /// Host ms of each root `Cluster::*` call.
    root_wall_ms: HashMap<&'static str, f64>,
    kv_ops: u64,
    kv_children: u64,
    kv_self_ns: u64,
    kv_self_wall_ns: u64,
}

impl SpanSummary {
    /// Free the per-call latencies, keeping the host costs.
    pub fn drop_latencies(&mut self) {
        self.by_name = HashMap::new();
    }
}

pub fn summarize(spans: &[Span]) -> SpanSummary {
    let mut s = SpanSummary::default();
    let kv_ops: HashMap<u64, &Span> = spans
        .iter()
        .filter(|sp| sp.name.starts_with("KvsView::"))
        .map(|sp| (sp.id, sp))
        .collect();
    s.kv_ops = kv_ops.len() as u64;
    s.kv_self_ns = kv_ops.values().map(|sp| sp.v_ns()).sum();
    s.kv_self_wall_ns = kv_ops.values().map(|sp| sp.wall_ns()).sum();
    for sp in spans {
        s.by_name.entry(sp.name).or_default().push(sp.v_ns());
        if sp.parent == NO_PARENT && sp.name.starts_with("Cluster::") {
            *s.root_wall_ms.entry(sp.name).or_default() += sp.wall_ns() as f64 / 1e6;
        }
        if kv_ops.contains_key(&sp.parent) {
            s.kv_children += 1;
            s.kv_self_ns -= sp.v_ns();
            s.kv_self_wall_ns -= sp.wall_ns();
        }
    }
    for v in s.by_name.values_mut() {
        v.sort_unstable();
    }
    s
}

fn host_median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// Per-layer metrics: counts from the stats diff of the window and virtual
/// latencies of `v`, the first repetition's; span latencies from the first
/// traced repetition; host costs as medians over repetitions.
pub fn per_layer(
    v: &Virtual,
    plain: &[Rep],
    traced: &[Rep],
    summaries: &[SpanSummary],
    unpinned: &Rep,
) -> Vec<Metric> {
    let ops = plain[0].ops as f64;
    let per_op = |field: fn(&NodeStatsSnapshot) -> u64| delta(v, field) / ops;
    let spans = &summaries[0];
    let named = |name: &str| spans.by_name.get(name).map(Vec::as_slice).unwrap_or(&[]);
    let wall_per_switch = |r: &Rep| r.window_s * 1e9 / r.virt.switches as f64;
    let root_ms = |name: &str| {
        host_median_of(summaries, |s| {
            s.root_wall_ms.get(name).copied().unwrap_or(0.0)
        })
    };
    let fast = delta(v, |s| s.fast_hits);
    let slow = delta(v, |s| s.slow_misses);
    let frames = delta(v, |s| s.frames);
    // The pools' high-water marks cover their whole life, set-up included.
    let peak = v
        .pool_peak
        .iter()
        .map(|&(peak, lines)| peak as f64 / lines as f64)
        .fold(0.0, f64::max);
    let ring_hwm = v.stats.iter().map(|(_, a)| a.ring_hwm).max().unwrap_or(0);
    vec![
        Metric::percentile("v_read_p50_ns", &v.reads, 0.50),
        Metric::percentile("v_read_p99_ns", &v.reads, 0.99),
        Metric::percentile("v_read_p999_ns", &v.reads, 0.999),
        Metric::percentile("v_update_p50_ns", &v.updates, 0.50),
        Metric::percentile("v_update_p99_ns", &v.updates, 0.99),
        Metric::percentile("v_update_p999_ns", &v.updates, 0.999),
        Metric::new(
            "failed_op_frac",
            "ratio",
            plain.iter().map(|r| r.failed).sum::<u64>() as f64
                / plain.iter().map(|r| r.ops).sum::<u64>() as f64,
        ),
        Metric::new(
            "host_ops_per_s",
            "ops/s",
            host_median_of(plain, |r| r.ops as f64 / r.window_s),
        ),
        Metric::new("dsim.switches_per_op", "count", v.switches as f64 / ops),
        Metric::new("dsim.events_per_op", "count", v.events as f64 / ops),
        Metric::new(
            "dsim.wall_ns_per_switch",
            "ns",
            host_median_of(plain, wall_per_switch),
        ),
        Metric::new(
            "dsim.unpinned_wall_ns_per_switch",
            "ns",
            wall_per_switch(unpinned),
        ),
        Metric::new("array.fast_hit_ratio", "ratio", fast / (fast + slow)),
        Metric::new("array.slow_misses_per_op", "count", slow / ops),
        Metric::percentile("array.get_v_p99_ns", named("DArray::get"), 0.99),
        Metric::percentile("array.set_v_p99_ns", named("DArray::set"), 0.99),
        Metric::percentile("array.apply_v_p99_ns", named("DArray::apply"), 0.99),
        Metric::new("cache.evictions_per_op", "count", per_op(|s| s.evictions)),
        Metric::new("cache.prefetches_per_op", "count", per_op(|s| s.prefetches)),
        Metric::new("cache.peak_occupancy_frac", "ratio", peak),
        Metric::new(
            "runtime.rpcs_handled_per_op",
            "count",
            per_op(|s| s.rpcs_handled),
        ),
        Metric::new(
            "runtime.local_handled_per_op",
            "count",
            per_op(|s| s.local_handled),
        ),
        Metric::new(
            "runtime.locks_granted_per_op",
            "count",
            per_op(|s| s.locks_granted),
        ),
        Metric::new("protocol.fills_per_op", "count", per_op(|s| s.fills)),
        Metric::new(
            "protocol.invalidations_per_op",
            "count",
            per_op(|s| s.invalidations),
        ),
        Metric::new("protocol.recalls_per_op", "count", per_op(|s| s.recalls)),
        Metric::new(
            "protocol.writebacks_per_op",
            "count",
            per_op(|s| s.writebacks),
        ),
        Metric::new(
            "protocol.transitions_per_op",
            "count",
            per_op(|s| s.transitions),
        ),
        Metric::new(
            "protocol.local_combines_per_op",
            "count",
            per_op(|s| s.local_combines),
        ),
        Metric::new(
            "protocol.operand_flushes_per_op",
            "count",
            per_op(|s| s.operand_flushes),
        ),
        Metric::new(
            "protocol.operated_reductions_per_op",
            "count",
            per_op(|s| s.operated_reductions),
        ),
        Metric::new("fabric.frames_per_op", "count", frames / ops),
        Metric::new("fabric.bytes_tx_per_op", "B", per_op(|s| s.bytes_tx)),
        Metric::new(
            "fabric.tx_flushes_per_op",
            "count",
            per_op(|s| s.tx_flushes),
        ),
        Metric::new(
            "fabric.coalesced_frac",
            "ratio",
            delta(v, |s| s.frames_coalesced) / frames,
        ),
        Metric::new("fabric.ring_hwm", "count", ring_hwm as f64),
        Metric::percentile("locks.wlock_v_p50_ns", named("DArray::wlock"), 0.50),
        Metric::percentile("locks.wlock_v_p99_ns", named("DArray::wlock"), 0.99),
        Metric::new(
            "kvs.self_v_ns_per_op",
            "ns",
            spans.kv_self_ns as f64 / spans.kv_ops as f64,
        ),
        Metric::new(
            "kvs.self_wall_ns_per_op",
            "ns",
            host_median_of(summaries, |s| s.kv_self_wall_ns as f64 / s.kv_ops as f64),
        ),
        Metric::new(
            "kvs.backend_calls_per_op",
            "count",
            spans.kv_children as f64 / spans.kv_ops as f64,
        ),
        Metric::new(
            "host.setup_wall_s",
            "s",
            host_median_of(plain, |r| r.setup.wall_s),
        ),
        Metric::new(
            "host.handoff_ns",
            "ns",
            host_median_of(plain, |r| r.setup.handoff_ns),
        ),
        Metric::new(
            "host.rss_growth_mb_per_rep",
            "MiB",
            rss_growth_mb_per_rep(plain),
        ),
        Metric::new("cluster.new_wall_ms", "ms", root_ms("Cluster::new")),
        Metric::new("cluster.alloc_wall_ms", "ms", root_ms("Cluster::alloc")),
        Metric::new(
            "cluster.shutdown_wall_ms",
            "ms",
            root_ms("Cluster::shutdown"),
        ),
        Metric::new(
            "trace.window_wall_ratio",
            "ratio",
            host_median_of(traced, |r| r.window_s) / host_median_of(plain, |r| r.window_s),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_step_ignores_one_time_steps() {
        assert_eq!(median_step(&[10.0, 30.0, 30.5, 31.0, 31.5]), 0.5);
        assert_eq!(median_step(&[10.0, 30.0, 30.0, 30.0]), 0.0);
        assert!(median_step(&[10.0]).is_nan());
    }
}
