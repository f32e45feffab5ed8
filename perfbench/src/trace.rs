//! Spans recorded from outside the library, around calls into its public
//! functions. A span reads the virtual clock with `Ctx::now` only and never
//! charges it, so a traced run follows the same virtual schedule as an
//! untraced one (the `tracing_is_pure_observation` test checks this).

use std::io::Write;
use std::sync::{Arc, Mutex};

use darray::{Ctx, DArray};
use darray_kvs::{DArrayBackend, KvBackend};

use crate::host::wall_ns;

/// `parent` of a span that has none.
pub const NO_PARENT: u64 = u64::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The public function called, e.g. `DArray::get`.
    pub name: &'static str,
    /// Unique in the run.
    pub id: u64,
    /// Id of the enclosing span, or [`NO_PARENT`].
    pub parent: u64,
    /// Id of the outermost enclosing span: the operation this call serves.
    pub op: u64,
    /// Virtual start and end, ns.
    pub v0: u64,
    pub v1: u64,
    /// Host wall start and end, ns since process start.
    pub w0: u64,
    pub w1: u64,
}

impl Span {
    /// Virtual duration in ns.
    pub fn v_ns(&self) -> u64 {
        self.v1 - self.v0
    }

    /// Host wall duration in ns.
    pub fn wall_ns(&self) -> u64 {
        self.w1 - self.w0
    }
}

/// Span buffer of one simulated thread.
struct Tracer {
    /// High bits of every span id this tracer issues.
    base: u64,
    spans: Vec<Span>,
    /// Indices into `spans` of the spans still open, innermost last.
    open: Vec<usize>,
}

/// Where a thread's spans go: nowhere when tracing is off.
#[derive(Clone)]
pub struct Probe(Option<Arc<Mutex<Tracer>>>);

impl Probe {
    /// A probe for the thread numbered `thread` (unique in the run); records
    /// only when `traced`.
    pub fn new(traced: bool, thread: u64) -> Self {
        Probe(traced.then(|| {
            Arc::new(Mutex::new(Tracer {
                base: thread << 40,
                spans: Vec::new(),
                open: Vec::new(),
            }))
        }))
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&self, ctx: &mut Ctx, name: &'static str, f: impl FnOnce(&mut Ctx) -> R) -> R {
        let Some(tracer) = &self.0 else {
            return f(ctx);
        };
        let at = {
            let mut t = tracer.lock().expect("tracer lock poisoned");
            let at = t.spans.len();
            let id = t.base | at as u64;
            let (parent, op) = match t.open.last() {
                Some(&p) => (t.spans[p].id, t.spans[p].op),
                None => (NO_PARENT, id),
            };
            t.spans.push(Span {
                name,
                id,
                parent,
                op,
                v0: ctx.now(),
                v1: 0,
                w0: wall_ns(),
                w1: 0,
            });
            t.open.push(at);
            at
        };
        let r = f(ctx);
        let mut t = tracer.lock().expect("tracer lock poisoned");
        assert_eq!(t.open.pop(), Some(at), "spans close innermost first");
        t.spans[at].v1 = ctx.now();
        t.spans[at].w1 = wall_ns();
        r
    }

    /// Move this probe's spans into `sink`.
    pub fn drain_into(&self, sink: &Mutex<Vec<Span>>) {
        if let Some(tracer) = &self.0 {
            let mut t = tracer.lock().expect("tracer lock poisoned");
            assert!(t.open.is_empty(), "span left open");
            sink.lock()
                .expect("span sink poisoned")
                .append(&mut t.spans);
        }
    }
}

/// The KVS backend the benchmark hands the store: [`DArrayBackend`] with a
/// span around every call, so a `kv.get`/`kv.put` span gets one child per
/// array access and lock.
#[derive(Clone)]
pub struct TracedBackend {
    inner: DArrayBackend,
    probe: Probe,
}

impl TracedBackend {
    pub fn new(array: DArray<u64>, probe: Probe) -> Self {
        Self {
            inner: DArrayBackend(array),
            probe,
        }
    }
}

impl KvBackend for TracedBackend {
    fn get(&self, ctx: &mut Ctx, i: usize) -> u64 {
        self.probe
            .span(ctx, "DArray::get", |ctx| self.inner.get(ctx, i))
    }
    fn set(&self, ctx: &mut Ctx, i: usize, v: u64) {
        self.probe
            .span(ctx, "DArray::set", |ctx| self.inner.set(ctx, i, v))
    }
    fn wlock(&self, ctx: &mut Ctx, i: usize) {
        self.probe
            .span(ctx, "DArray::wlock", |ctx| self.inner.wlock(ctx, i))
    }
    fn unlock(&self, ctx: &mut Ctx, i: usize) {
        self.probe
            .span(ctx, "DArray::unlock", |ctx| self.inner.unlock(ctx, i))
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
}

/// Write `spans` as tab-separated text, one span a line.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "name\tid\tparent\top\tv_start_ns\tv_end_ns\twall_start_ns\twall_end_ns"
    )?;
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.name, s.id, parent, s.op, s.v0, s.v1, s.w0, s.w1
        )?;
    }
    out.flush()
}
