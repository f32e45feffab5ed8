//! Protocol-traffic regression diff.
//!
//! Compares a checked-in baseline `BENCH_*.json` against a freshly
//! generated one and fails (exit code 1) when any protocol counter grew
//! beyond the allowed threshold or any headline metric changed. Because
//! every figure binary runs in deterministic virtual time, the JSON is
//! byte-identical run-to-run: the default threshold of 0% catches *any*
//! change in coherence traffic — an extra invalidation round, a lost
//! fast-path hit, a recall storm — and the exact metric comparison catches
//! any throughput or latency change, even one that moves no counter.
//!
//! ```text
//! protocol_diff <baseline.json> <current.json> [--threshold-pct <f>] [--abs-slack <n>]
//!               [--transport-pct <f>] [--update]
//! ```
//!
//! Rules:
//! - a protocol-counter increase beyond `baseline * (1 + pct/100) + slack`
//!   fails;
//! - the counters of class `Transport` in `darray`'s stats table (wire
//!   bytes, frames, completions and the doorbell-batching counters) carry
//!   backend framing and batching effects, so they diff under their own
//!   *symmetric* band (`--transport-pct`, default 10%): leaving the band
//!   in either direction fails, drift inside it is a note;
//! - a section or counter present in the baseline but missing from the
//!   current file fails (instrumentation was dropped);
//! - protocol-counter decreases and brand-new counters are reported but
//!   pass (improvements and schema growth are fine);
//! - the `metrics` object (virtual-time throughput, latency, occupancy) is
//!   compared exactly, key by key: a missing, extra or changed metric
//!   fails. A metric has no "better" direction the diff could know, and
//!   virtual time leaves no noise to forgive.
//!
//! `--update` replaces the baseline with the current file (after checking
//! both parse) and exits 0 — the blessed way to regenerate baselines after
//! an intentional protocol or performance change or a schema extension,
//! instead of hand-editing JSON.
//!
//! The parser is hand-rolled for the restricted JSON the report writer
//! emits (string keys, nested objects, unsigned integers, fixed-point
//! metrics) — the harness deliberately has no serde dependency.

use std::collections::BTreeMap;
use std::process::ExitCode;

use darray::StatClass;

/// `section label -> counter name -> value`, in file order (BTreeMap for
/// stable report ordering).
type Traffic = BTreeMap<String, BTreeMap<String, u64>>;

/// `metric name -> value`, kept as the writer's exact text so the
/// comparison is exact.
type Metrics = BTreeMap<String, String>;

/// The parts of a `BENCH_*.json` body the diff gates.
#[derive(Clone)]
struct Bench {
    metrics: Metrics,
    traffic: Traffic,
}

/// Minimal recursive-descent scanner over the report-writer's JSON shape.
struct Scanner<'a> {
    s: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn new(s: &'a str) -> Self {
        Self {
            s: s.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.s.len() && self.s[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.s.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            let found = self.peek().map(|c| c as char);
            Err(format!(
                "expected '{}' at byte {} (found {:?})",
                b as char, self.pos, found
            ))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        while self.pos < self.s.len() && self.s[self.pos] != b'"' {
            if self.s[self.pos] == b'\\' {
                return Err(format!("escape sequences unsupported at byte {}", self.pos));
            }
            self.pos += 1;
        }
        if self.pos >= self.s.len() {
            return Err("unterminated string".to_string());
        }
        let out = String::from_utf8_lossy(&self.s[start..self.pos]).into_owned();
        self.pos += 1; // closing quote
        Ok(out)
    }

    /// The text of one JSON number (the metrics are fixed-point floats).
    fn number_text(&mut self) -> Result<String, String> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.s.len()
            && matches!(
                self.s[self.pos],
                b'0'..=b'9' | b'.' | b'-' | b'+' | b'e' | b'E'
            )
        {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(format!("expected number at byte {start}"));
        }
        Ok(String::from_utf8_lossy(&self.s[start..self.pos]).into_owned())
    }

    fn number(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.s.len() && self.s[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(format!("expected number at byte {start}"));
        }
        String::from_utf8_lossy(&self.s[start..self.pos])
            .parse()
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }

    /// A flat `{"name": <value>, ...}` object, each value read by `value`.
    fn flat<T>(
        &mut self,
        mut value: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<BTreeMap<String, T>, String> {
        let mut out = BTreeMap::new();
        self.expect(b'{')?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            out.insert(key, value(self)?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(out);
                }
                other => return Err(format!("expected ',' or '}}' (found {other:?})")),
            }
        }
    }

    /// Skip a value we don't care about: a string, a number, or a nested
    /// object of such values. Every key other than `metrics` and
    /// `protocol_traffic` goes through here.
    fn skip_value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'"') => self.string().map(|_| ()),
            Some(b'{') => {
                self.pos += 1;
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(());
                }
                loop {
                    self.string()?;
                    self.expect(b':')?;
                    self.skip_value()?;
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(());
                        }
                        other => return Err(format!("expected ',' or '}}' (found {other:?})")),
                    }
                }
            }
            Some(c) if c.is_ascii_digit() || c == b'-' => self.number_text().map(|_| ()),
            other => Err(format!("unskippable value (found {other:?})")),
        }
    }
}

/// Parse one `BENCH_*.json` body into its `metrics` and its
/// `protocol_traffic` sections.
fn parse_bench(body: &str) -> Result<Bench, String> {
    let mut sc = Scanner::new(body);
    sc.expect(b'{')?;
    let mut metrics = Metrics::new();
    let mut traffic = Traffic::new();
    loop {
        match sc.peek() {
            Some(b'}') | None => break,
            _ => {}
        }
        let key = sc.string()?;
        sc.expect(b':')?;
        if key == "metrics" {
            metrics = sc.flat(Scanner::number_text)?;
        } else if key == "protocol_traffic" {
            traffic = sc.flat(|sc| sc.flat(Scanner::number))?;
        } else {
            sc.skip_value()?;
        }
        if sc.peek() == Some(b',') {
            sc.pos += 1;
        }
    }
    Ok(Bench { metrics, traffic })
}

/// One rule violation or informational note.
struct Finding {
    fatal: bool,
    msg: String,
}

/// Apply the diff rules; findings in deterministic (sorted) order.
fn diff(
    baseline: &Bench,
    current: &Bench,
    pct: f64,
    slack: u64,
    transport_pct: f64,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for (name, base) in &baseline.metrics {
        match current.metrics.get(name) {
            None => out.push(Finding {
                fatal: true,
                msg: format!("metric `{name}` missing from current run"),
            }),
            Some(cur) if cur != base => out.push(Finding {
                fatal: true,
                msg: format!("metric `{name}` changed {base} -> {cur}"),
            }),
            Some(_) => {}
        }
    }
    for name in current.metrics.keys() {
        if !baseline.metrics.contains_key(name) {
            out.push(Finding {
                fatal: true,
                msg: format!("new metric `{name}` (not in baseline)"),
            });
        }
    }
    let (baseline, current) = (&baseline.traffic, &current.traffic);
    for (label, base_counters) in baseline {
        let Some(cur_counters) = current.get(label) else {
            out.push(Finding {
                fatal: true,
                msg: format!("section `{label}` missing from current run"),
            });
            continue;
        };
        for (name, &base) in base_counters {
            let Some(&cur) = cur_counters.get(name) else {
                out.push(Finding {
                    fatal: true,
                    msg: format!("{label}: counter `{name}` missing from current run"),
                });
                continue;
            };
            // `Transport` rows measure wire traffic and egress mechanics
            // (payload + backend framing, doorbell batching), not protocol
            // transitions, so they get a symmetric band of their own.
            let transport = StatClass::of(name) == Some(StatClass::Transport);
            let band = if transport { transport_pct } else { pct };
            let limit = (base as f64 * (1.0 + band / 100.0)).floor() as u64 + slack;
            if cur > limit {
                let growth = if base == 0 {
                    "from zero".to_string()
                } else {
                    format!("+{:.1}%", (cur as f64 / base as f64 - 1.0) * 100.0)
                };
                out.push(Finding {
                    fatal: true,
                    msg: format!(
                        "{label}: `{name}` regressed {base} -> {cur} ({growth}, limit {limit})"
                    ),
                });
            } else if transport {
                // Symmetric band: a big byte/frame *drop* is not an
                // improvement, it means traffic went missing.
                let floor =
                    ((base as f64 * (1.0 - band / 100.0)).ceil() as u64).saturating_sub(slack);
                if cur < floor {
                    out.push(Finding {
                        fatal: true,
                        msg: format!(
                            "{label}: `{name}` left the -{band}% transport band: \
                             {base} -> {cur} (floor {floor})"
                        ),
                    });
                } else if cur != base {
                    out.push(Finding {
                        fatal: false,
                        msg: format!(
                            "{label}: `{name}` drifted {base} -> {cur} \
                             (within ±{band}% transport band)"
                        ),
                    });
                }
            } else if cur < base {
                out.push(Finding {
                    fatal: false,
                    msg: format!("{label}: `{name}` improved {base} -> {cur}"),
                });
            }
        }
        for name in cur_counters.keys() {
            if !base_counters.contains_key(name) {
                out.push(Finding {
                    fatal: false,
                    msg: format!("{label}: new counter `{name}` (not in baseline)"),
                });
            }
        }
    }
    for label in current.keys() {
        if !baseline.contains_key(label) {
            out.push(Finding {
                fatal: false,
                msg: format!("new section `{label}` (not in baseline)"),
            });
        }
    }
    out
}

fn usage() -> ! {
    eprintln!(
        "usage: protocol_diff <baseline.json> <current.json> \
         [--threshold-pct <float>] [--abs-slack <int>] \
         [--transport-pct <float>] [--update]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut pct = 0.0f64;
    let mut slack = 0u64;
    let mut transport_pct = 10.0f64;
    let mut update = false;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--threshold-pct" => {
                i += 1;
                pct = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--abs-slack" => {
                i += 1;
                slack = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--transport-pct" => {
                i += 1;
                transport_pct = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--update" => update = true,
            p if !p.starts_with("--") => paths.push(p.to_string()),
            _ => usage(),
        }
        i += 1;
    }
    if paths.len() != 2 {
        usage();
    }
    let read = |p: &str| -> String {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("protocol_diff: cannot read {p}: {e}");
            std::process::exit(2);
        })
    };
    let parse = |p: &str, body: &str| -> Bench {
        parse_bench(body).unwrap_or_else(|e| {
            eprintln!("protocol_diff: cannot parse {p}: {e}");
            std::process::exit(2);
        })
    };
    let (bp, cp) = (&paths[0], &paths[1]);
    if update {
        // Bless the current run as the new baseline. The current file must
        // parse (a malformed report should never be checked in); the old
        // baseline need not even exist.
        let body = read(cp);
        let sections = parse(cp, &body).traffic.len();
        if let Err(e) = std::fs::write(bp, &body) {
            eprintln!("protocol_diff: cannot write {bp}: {e}");
            return ExitCode::from(2);
        }
        println!("protocol_diff: baseline {bp} updated from {cp} ({sections} section(s))");
        return ExitCode::SUCCESS;
    }
    let baseline = parse(bp, &read(bp));
    let current = parse(cp, &read(cp));

    let findings = diff(&baseline, &current, pct, slack, transport_pct);
    let fatal = findings.iter().filter(|f| f.fatal).count();
    for f in &findings {
        println!("{} {}", if f.fatal { "FAIL" } else { "note" }, f.msg);
    }
    if fatal > 0 {
        println!(
            "protocol_diff: {fatal} regression(s) vs {bp} \
             (threshold {pct}% + {slack}, transport band ±{transport_pct}%)"
        );
        ExitCode::FAILURE
    } else {
        println!(
            "protocol_diff: OK — {} metric(s) unchanged, {} section(s), no counter above \
             threshold {pct}% + {slack} (transport band ±{transport_pct}%)",
            baseline.metrics.len(),
            baseline.traffic.len()
        );
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "bench": "unit",
  "protocol_traffic": {
    "a_1n": {"fills":10,"invalidations":0,"transitions":30},
    "b_2n": {"fills":5,"invalidations":2,"transitions":9}
  }
}
"#;

    #[test]
    fn parses_sections_and_counters() {
        let t = parse_bench(SAMPLE).unwrap().traffic;
        assert_eq!(t.len(), 2);
        assert_eq!(t["a_1n"]["fills"], 10);
        assert_eq!(t["b_2n"]["invalidations"], 2);
        assert_eq!(t["b_2n"]["transitions"], 9);
    }

    #[test]
    fn changed_missing_or_new_metric_fails() {
        let body = r#"{
  "bench": "fig12",
  "metrics": {
    "read_t4_rt1_mops": 12.345678,
    "read_t4_rt2_mops": 20.100000,
    "negative_exp": -1.5e-3
  },
  "protocol_traffic": {
    "read_t4_rt2": {"fills":7,"transitions":9}
  }
}
"#;
        let base = parse_bench(body).unwrap();
        assert_eq!(base.traffic.len(), 1, "metrics must not become sections");
        assert_eq!(base.traffic["read_t4_rt2"]["fills"], 7);
        assert_eq!(base.metrics["negative_exp"], "-1.5e-3");
        let fatal = |cur: &Bench| diff(&base, cur, 100.0, 99, 100.0).iter().any(|f| f.fatal);
        assert!(!fatal(&base));
        // A throughput change fails even at the loosest counter knobs, and
        // even when it is an improvement: no counter moved to flag it.
        let mut cur = base.clone();
        cur.metrics
            .insert("read_t4_rt1_mops".into(), "12.345679".into());
        assert!(fatal(&cur));
        let mut cur = base.clone();
        cur.metrics.remove("read_t4_rt2_mops");
        assert!(fatal(&cur));
        let mut cur = base.clone();
        cur.metrics
            .insert("write_t4_rt1_mops".into(), "1.000000".into());
        assert!(fatal(&cur));
    }

    #[test]
    fn writer_metrics_output_parses() {
        let body = darray_bench::report::render_bench_json_with_metrics(
            "m",
            &[("x_mops".to_string(), 1.25)],
            &[(
                "x".to_string(),
                darray::NodeStatsSnapshot {
                    fills: 4,
                    ..Default::default()
                },
            )],
        );
        let parsed = parse_bench(&body).unwrap();
        assert_eq!(parsed.metrics["x_mops"], "1.250000");
        assert_eq!(parsed.traffic.len(), 1);
        assert_eq!(parsed.traffic["x"]["fills"], 4);
    }

    #[test]
    fn parses_empty_traffic() {
        let t = parse_bench("{\"bench\": \"x\", \"protocol_traffic\": {}}").unwrap();
        assert!(t.traffic.is_empty() && t.metrics.is_empty());
    }

    #[test]
    fn identical_files_pass() {
        let t = parse_bench(SAMPLE).unwrap();
        let f = diff(&t, &t, 0.0, 0, 10.0);
        assert!(f.iter().all(|x| !x.fatal), "no fatal findings");
    }

    #[test]
    fn increase_beyond_threshold_fails() {
        let base = parse_bench(SAMPLE).unwrap();
        let mut cur = base.clone();
        *cur.traffic
            .get_mut("a_1n")
            .unwrap()
            .get_mut("fills")
            .unwrap() = 12;
        // 20% growth: fails at 0%, fails at 10%, passes at 25%.
        assert!(diff(&base, &cur, 0.0, 0, 10.0).iter().any(|f| f.fatal));
        assert!(diff(&base, &cur, 10.0, 0, 10.0).iter().any(|f| f.fatal));
        assert!(!diff(&base, &cur, 25.0, 0, 10.0).iter().any(|f| f.fatal));
        // An absolute slack of 2 also forgives it at 0%.
        assert!(!diff(&base, &cur, 0.0, 2, 10.0).iter().any(|f| f.fatal));
    }

    #[test]
    fn growth_from_zero_fails_without_slack() {
        let base = parse_bench(SAMPLE).unwrap();
        let mut cur = base.clone();
        *cur.traffic
            .get_mut("a_1n")
            .unwrap()
            .get_mut("invalidations")
            .unwrap() = 1;
        assert!(diff(&base, &cur, 50.0, 0, 10.0).iter().any(|f| f.fatal));
        assert!(!diff(&base, &cur, 0.0, 1, 10.0).iter().any(|f| f.fatal));
    }

    #[test]
    fn missing_section_or_counter_fails() {
        let base = parse_bench(SAMPLE).unwrap();
        let mut cur = base.clone();
        cur.traffic.remove("b_2n");
        assert!(diff(&base, &cur, 100.0, 99, 10.0).iter().any(|f| f.fatal));
        let mut cur2 = base.clone();
        cur2.traffic.get_mut("a_1n").unwrap().remove("transitions");
        assert!(diff(&base, &cur2, 100.0, 99, 10.0).iter().any(|f| f.fatal));
    }

    #[test]
    fn decreases_and_new_counters_are_notes() {
        let base = parse_bench(SAMPLE).unwrap();
        let mut cur = base.clone();
        *cur.traffic
            .get_mut("a_1n")
            .unwrap()
            .get_mut("fills")
            .unwrap() = 1;
        cur.traffic
            .get_mut("a_1n")
            .unwrap()
            .insert("epochs_aborted".into(), 0);
        cur.traffic.insert("c_3n".into(), BTreeMap::new());
        let f = diff(&base, &cur, 0.0, 0, 10.0);
        assert!(f.iter().all(|x| !x.fatal));
        assert_eq!(f.len(), 3, "improvement + new counter + new section noted");
    }

    #[test]
    fn transport_counters_diff_in_their_own_band() {
        let base = parse_bench(
            r#"{"bench":"t","protocol_traffic":{
                 "w_2n": {"transitions":100,"bytes_tx":1000,"frames":50}
               }}"#,
        )
        .unwrap();
        // +8% bytes_tx: inside the default ±10% band even at protocol
        // threshold 0 — a note, not a failure.
        let mut cur = base.clone();
        *cur.traffic
            .get_mut("w_2n")
            .unwrap()
            .get_mut("bytes_tx")
            .unwrap() = 1080;
        let f = diff(&base, &cur, 0.0, 0, 10.0);
        assert!(f.iter().all(|x| !x.fatal), "within band must pass");
        assert!(
            f.iter().any(|x| x.msg.contains("transport band")),
            "drift inside the band is still reported"
        );
        // +20% leaves the band upward.
        *cur.traffic
            .get_mut("w_2n")
            .unwrap()
            .get_mut("bytes_tx")
            .unwrap() = 1200;
        assert!(diff(&base, &cur, 0.0, 0, 10.0).iter().any(|f| f.fatal));
        // -20% leaves it downward: missing wire traffic is NOT an
        // improvement, unlike a protocol-counter decrease.
        *cur.traffic
            .get_mut("w_2n")
            .unwrap()
            .get_mut("bytes_tx")
            .unwrap() = 800;
        assert!(diff(&base, &cur, 0.0, 0, 10.0).iter().any(|f| f.fatal));
        // A wider band forgives the same drop.
        assert!(!diff(&base, &cur, 0.0, 0, 25.0).iter().any(|f| f.fatal));
    }

    #[test]
    fn transport_band_is_independent_of_protocol_threshold() {
        let base = parse_bench(
            r#"{"bench":"t","protocol_traffic":{
                 "w_2n": {"transitions":100,"frames":50}
               }}"#,
        )
        .unwrap();
        let mut cur = base.clone();
        // transitions +5% must still fail at the exact protocol threshold
        // even when the transport band would allow it.
        *cur.traffic
            .get_mut("w_2n")
            .unwrap()
            .get_mut("transitions")
            .unwrap() = 105;
        assert!(diff(&base, &cur, 0.0, 0, 10.0).iter().any(|f| f.fatal));
        // frames +5% rides the transport band and passes at the same knobs.
        let mut cur2 = base.clone();
        *cur2
            .traffic
            .get_mut("w_2n")
            .unwrap()
            .get_mut("frames")
            .unwrap() = 52;
        assert!(!diff(&base, &cur2, 0.0, 0, 10.0).iter().any(|f| f.fatal));
    }

    #[test]
    fn batching_counters_ride_the_transport_band() {
        let base = parse_bench(
            r#"{"bench":"t","protocol_traffic":{
                 "w_2n": {"transitions":100,"tx_flushes":40,
                          "doorbell_batches":10,"frames_coalesced":60,
                          "ring_hwm":20}
               }}"#,
        )
        .unwrap();
        // Small drift in either direction stays inside the ±10% band even
        // at protocol threshold 0.
        let mut cur = base.clone();
        *cur.traffic
            .get_mut("w_2n")
            .unwrap()
            .get_mut("tx_flushes")
            .unwrap() = 42;
        *cur.traffic
            .get_mut("w_2n")
            .unwrap()
            .get_mut("ring_hwm")
            .unwrap() = 19;
        assert!(!diff(&base, &cur, 0.0, 0, 10.0).iter().any(|f| f.fatal));
        // Doubling the batch count leaves the band and fails.
        *cur.traffic
            .get_mut("w_2n")
            .unwrap()
            .get_mut("doorbell_batches")
            .unwrap() = 20;
        assert!(diff(&base, &cur, 0.0, 0, 10.0).iter().any(|f| f.fatal));
    }

    #[test]
    fn real_report_roundtrip() {
        // The writer's own output must parse (guards format drift).
        let t = darray::NodeStatsSnapshot {
            fills: 3,
            epochs_aborted: 1,
            ..Default::default()
        };
        let body = darray_bench::report::render_bench_json_with_metrics(
            "rt",
            &[],
            &[("w_1n".to_string(), t)],
        );
        let parsed = parse_bench(&body).unwrap().traffic;
        assert_eq!(parsed["w_1n"]["fills"], 3);
        assert_eq!(parsed["w_1n"]["epochs_aborted"], 1);
        assert_eq!(parsed["w_1n"]["orphaned_locks_reclaimed"], 0);
        assert_eq!(parsed["w_1n"]["flush_persists"], 0);
        assert_eq!(parsed["w_1n"]["recovered_chunks"], 0);
    }

    #[test]
    fn section_writes_every_non_local_row_once_in_table_order() {
        let rows: Vec<(&str, StatClass)> = darray::NodeStatsSnapshot::default()
            .rows()
            .map(|(name, class, _)| (name, class))
            .collect();
        let names: std::collections::BTreeSet<&str> = rows.iter().map(|r| r.0).collect();
        assert_eq!(names.len(), rows.len(), "row names must be unique");

        // A distinct value per row, so a name paired with the wrong field
        // cannot round-trip.
        let value = |name: &str| 1000 + rows.iter().position(|r| r.0 == name).unwrap() as u64;
        let t = darray::NodeStatsSnapshot::from_fn(value);
        let body = darray_bench::report::render_bench_json_with_metrics(
            "rows",
            &[],
            &[("s".to_string(), t)],
        );
        let section = &parse_bench(&body).unwrap().traffic["s"];

        let mut last = 0;
        for &(name, class) in &rows {
            let key = format!("\"{name}\":");
            if class == StatClass::Local {
                assert!(!body.contains(&key), "Local row `{name}` written");
                assert!(!section.contains_key(name));
                continue;
            }
            assert_eq!(body.matches(&key).count(), 1, "`{name}` not written once");
            let at = body.find(&key).unwrap();
            assert!(at > last, "`{name}` out of table order");
            last = at;
            assert_eq!(section[name], value(name), "`{name}` did not round-trip");
        }
        let written = rows.iter().filter(|r| r.1 != StatClass::Local).count();
        assert_eq!(section.len(), written);
    }
}
