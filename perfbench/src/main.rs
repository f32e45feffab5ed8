//! perfbench: runs one workload on the DArray library through its public
//! API and prints every metric by name with its unit; the last line of
//! standard output is the JSON result. See README.md for the metrics, the
//! workloads and why the process confines itself to one CPU.
//!
//! ```text
//! perfbench --workload <graph_pagerank|array_thrash|kvs_ycsb> --seed <n>
//!           --seconds <s> --trace <0|1> [--trace-dir <dir>]
//! ```

mod host;
mod metrics;
mod trace;
mod work;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use host::CpuSet;
use work::{Rep, Virtual, Workload, WORKLOADS};

/// The seed used when none is given; claims are re-checked on
/// [`HELD_OUT_SEED`], which tuning never used.
const DEFAULT_SEED: u64 = 1;
const HELD_OUT_SEED: u64 = 20_230_807;

/// Untraced repetitions a run makes at least, so host medians have a middle.
const MIN_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        trace_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--trace-dir" => args.trace_dir = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Checks each repetition as it finishes. The first one's virtual results
/// are the reference every later one must reproduce exactly; later ones
/// then drop their per-call samples, so what the benchmark holds does not
/// grow with the run and resident-memory growth is the library's.
#[derive(Default)]
struct Checker {
    reference: Option<Virtual>,
    problems: Vec<String>,
}

impl Checker {
    fn settle(&mut self, rep: &mut Rep) {
        if let Err(e) = &rep.invariant {
            self.problems.push(e.clone());
        }
        match &self.reference {
            None => self.reference = Some(rep.virt.clone()),
            Some(r) if *r != rep.virt => self.problems.push(
                "virtual-clock metrics or counters differ between repetitions of one seed".into(),
            ),
            Some(_) => {}
        }
        rep.virt.reads = Vec::new();
        rep.virt.updates = Vec::new();
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = Workload::named(&args.workload) else {
        eprintln!(
            "perfbench: --workload must be one of {}",
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    if !host::fix_mmap_threshold() {
        eprintln!("perfbench: mallopt(M_MMAP_THRESHOLD) failed");
        return ExitCode::FAILURE;
    }
    // dsim runs one simulated thread at a time and hands a token between OS
    // threads; across cores each handoff costs a cross-core wake-up, which
    // makes host time swing by 2-3x. Confining the process to one CPU makes
    // it repeat.
    let all_cpus = match CpuSet::current() {
        Ok(set) => set,
        Err(e) => {
            eprintln!("perfbench: reading CPU affinity: {e}");
            return ExitCode::FAILURE;
        }
    };
    let start = Instant::now();
    // The traced run first measures one repetition without confinement, so
    // the cost of cross-core handoffs stays on record.
    let mut unpinned = args.trace.then(|| workload.run(args.seed, false));
    let cpu = *all_cpus.cpus().last().expect("affinity mask names a CPU");
    if let Err(e) = CpuSet::single(cpu).apply() {
        eprintln!("perfbench: confining to CPU {cpu}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "perfbench: workload {} seed {} (default {DEFAULT_SEED}, held-out {HELD_OUT_SEED}) \
         seconds {} trace {}; confined to CPU {cpu} of {:?}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        all_cpus.cpus()
    );

    let budget = Duration::from_secs(args.seconds);
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut summaries = Vec::new();
    let mut checker = Checker::default();
    if let Some(rep) = &mut unpinned {
        checker.settle(rep);
    }
    loop {
        let mut rep = workload.run(args.seed, false);
        checker.settle(&mut rep);
        plain.push(rep);
        if args.trace {
            let mut rep = workload.run(args.seed, true);
            checker.settle(&mut rep);
            let mut summary = metrics::summarize(&rep.spans);
            // Only the first traced repetition's spans and latencies are
            // reported; later ones give host costs.
            if !traced.is_empty() {
                rep.spans = Vec::new();
                summary.drop_latencies();
            }
            summaries.push(summary);
            traced.push(rep);
        }
        if start.elapsed() >= budget && plain.len() >= MIN_REPS {
            break;
        }
    }
    let Checker {
        reference,
        mut problems,
    } = checker;
    let reference = reference.expect("at least one repetition ran");
    problems.sort();
    problems.dedup();
    let attempted: u64 = plain.iter().map(|r| r.ops).sum();
    let failed: u64 = plain.iter().map(|r| r.failed).sum();

    let list = match &unpinned {
        None => metrics::end_to_end(&plain),
        Some(unpinned) => {
            if let Some(dir) = &args.trace_dir {
                let path = dir.join(format!("{}.spans.tsv", args.workload));
                match trace::write_tsv(&path, &traced[0].spans) {
                    Ok(()) => println!(
                        "spans: {} written to {}",
                        traced[0].spans.len(),
                        path.display()
                    ),
                    Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
                }
            }
            metrics::per_layer(&reference, &plain, &traced, &summaries, unpinned)
        }
    };
    println!(
        "repetitions: {} untraced, {} traced, {} unconfined; {:.1} s",
        plain.len(),
        traced.len(),
        unpinned.is_some() as u8,
        start.elapsed().as_secs_f64()
    );
    for (i, r) in plain.iter().enumerate() {
        println!(
            "untraced repetition {i}: {:.0} ops/s; setup {:.4} s scaled, {:.4} s CPU, \
             {:.4} s wall, hand-off {:.0} ns; peak RSS {:.2} MiB, RSS after {:.2} MiB",
            r.ops as f64 / r.window_s,
            r.setup.scaled_s(),
            r.setup.cpu_s,
            r.setup.wall_s,
            r.setup.handoff_ns,
            r.peak_rss_mb,
            r.rss_after_mb
        );
    }

    println!(
        "resident memory grows {:.3} MiB per repetition \
         (median step over untraced repetitions 1..{})",
        metrics::rss_growth_mb_per_rep(&plain),
        plain.len()
    );
    println!("checks: {attempted} calls checked, {failed} failed");
    for p in &problems {
        println!("FAILED: {p}");
    }
    for m in &list {
        println!("{m}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        problems.is_empty(),
        list.iter().map(|m| m.json()).collect::<Vec<_>>().join(", ")
    );
    ExitCode::SUCCESS
}
