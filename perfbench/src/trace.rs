//! The benchmark's own span recorder.
//!
//! Spans wrap the calls the benchmark makes into each crate's public
//! functions. Stages without a public entry point (presolve, structural
//! analysis, cut rounds, dives, decomposition) are taken from the
//! `pipemap_obs` events the program already emits: at the end of every
//! operation those events are drained and converted into spans on the
//! same clock. Spans stay in memory until the run ends.
//!
//! Parents are assigned after the fact by interval nesting within one
//! operation. That is exact for the benchmark's own spans and sound for
//! the imported ones because every solve runs with one worker thread:
//! no two spans of an operation run at the same time unless one
//! contains the other.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Benchmark span name (`flows.run`) or program span name (`presolve`).
    pub name: String,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Nanoseconds since the recorder started.
    pub end_ns: u64,
    /// Index of the enclosing span in the same slice, set by [`nest`].
    pub parent: Option<usize>,
    /// Operation this span belongs to.
    pub op: u64,
    /// Imported from the program's `pipemap_obs` events.
    pub program: bool,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    epoch: Instant,
    on: bool,
    /// Added to an obs timestamp (in ns) to land on this recorder's clock.
    obs_offset_ns: i64,
    spans: Vec<Span>,
    op: u64,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        on: false,
        obs_offset_ns: 0,
        spans: Vec::new(),
        op: 0,
    });
}

fn now_ns() -> u64 {
    REC.with(|r| r.borrow().epoch.elapsed().as_nanos() as u64)
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    REC.with(|r| r.borrow().on)
}

/// Start recording benchmark spans and program events. Spans recorded
/// earlier are kept.
pub fn start() {
    pipemap_obs::enable();
    // Align the obs clock with ours: bracket one marker event.
    let _ = pipemap_obs::take();
    let a = now_ns();
    pipemap_obs::instant("perfbench-sync");
    let b = now_ns();
    let sync_us = pipemap_obs::take()
        .events
        .iter()
        .find(|e| e.name == "perfbench-sync")
        .map_or(0, |e| e.ts_us);
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = true;
        r.obs_offset_ns = ((a + b) / 2) as i64 - (sync_us as i64 * 1000 + 500);
    });
}

/// Stop recording; the spans stay available.
pub fn stop() {
    pipemap_obs::disable();
    let _ = pipemap_obs::take();
    REC.with(|r| r.borrow_mut().on = false);
}

/// Number of spans recorded so far: a mark for [`spans_since`].
pub fn len() -> usize {
    REC.with(|r| r.borrow().spans.len())
}

/// The spans recorded since `mark`, in recording order.
pub fn spans_since(mark: usize) -> Vec<Span> {
    REC.with(|r| r.borrow().spans[mark..].to_vec())
}

fn push(name: String, start_ns: u64, end_ns: u64, program: bool) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let op = r.op;
        r.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            op,
            program,
        });
    });
}

/// Run `f` inside a span named `name` (free when not recording).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let t0 = now_ns();
    let out = f();
    let t1 = now_ns();
    push(name.to_string(), t0, t1, false);
    out
}

/// Run one operation: a fresh operation id, a root span `op`, and the
/// program's events of the operation imported when it ends.
pub fn op<T>(f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    REC.with(|r| r.borrow_mut().op += 1);
    let out = span("op", f);
    import_program_events();
    out
}

/// Drain `pipemap_obs` and convert its begin/end pairs into spans of the
/// current operation.
fn import_program_events() {
    let trace = pipemap_obs::take();
    let offset = REC.with(|r| r.borrow().obs_offset_ns);
    let to_ns = |us: u64| (us as i64 * 1000 + offset).max(0) as u64;
    let mut open: BTreeMap<u32, Vec<(String, u64)>> = BTreeMap::new();
    for e in &trace.events {
        match e.kind {
            pipemap_obs::EventKind::Begin => open
                .entry(e.lane)
                .or_default()
                .push((e.name.to_string(), e.ts_us)),
            pipemap_obs::EventKind::End => {
                if let Some((name, t0)) = open.get_mut(&e.lane).and_then(Vec::pop) {
                    push(name, to_ns(t0), to_ns(e.ts_us), true);
                }
            }
            _ => {}
        }
    }
}

/// Slack for nesting imported spans (microsecond timestamps) inside the
/// benchmark's own (nanosecond) ones.
const SLACK_NS: u64 = 5_000;

/// Assign parents by interval nesting within each operation and clamp
/// every child into its parent.
pub fn nest(spans: &mut [Span]) {
    let mut idx: Vec<usize> = (0..spans.len()).collect();
    idx.sort_by(|&a, &b| {
        let (sa, sb) = (&spans[a], &spans[b]);
        (sa.op, sa.start_ns, std::cmp::Reverse(sa.end_ns), sa.program).cmp(&(
            sb.op,
            sb.start_ns,
            std::cmp::Reverse(sb.end_ns),
            sb.program,
        ))
    });
    let mut stack: Vec<usize> = Vec::new();
    for &i in &idx {
        while let Some(&top) = stack.last() {
            let (t, s) = (&spans[top], &spans[i]);
            if t.op == s.op
                && s.start_ns + SLACK_NS >= t.start_ns
                && s.end_ns <= t.end_ns + SLACK_NS
            {
                break;
            }
            stack.pop();
        }
        if let Some(&top) = stack.last() {
            let (ts, te) = (spans[top].start_ns, spans[top].end_ns);
            let s = &mut spans[i];
            s.parent = Some(top);
            s.start_ns = s.start_ns.clamp(ts, te);
            s.end_ns = s.end_ns.clamp(s.start_ns, te);
        }
        stack.push(i);
    }
}

/// The layer a span's time belongs to.
pub fn layer_of(name: &str) -> &'static str {
    match name {
        "op" => "bench",
        n if n.starts_with("flow:") => "flows",
        "analyze-pre-pass" => "analyze",
        "cut-enum" | "priority-cuts" => "cuts",
        "baseline" | "remap" => "baseline",
        "milp-build" => "formulation",
        "decompose" | "partition-bound" => "decompose",
        "milp-solve"
        | "presolve"
        | "structural-analysis"
        | "cut-round"
        | "dive"
        | "node"
        | "sweep-cold-solve" => "milp",
        "resolve-solve" => "resolve",
        "verify" => "verify",
        "qor" => "netlist",
        "sweep" => "sweep",
        n => match n.split('.').next().unwrap_or(n) {
            "ir" => "ir",
            "analyze" => "analyze",
            "cuts" => "cuts",
            "baseline" => "baseline",
            "formulation" => "formulation",
            "flows" => "flows",
            "sweep" => "sweep",
            "milp" => "milp",
            "netlist" => "netlist",
            "verify" => "verify",
            _ => "other",
        },
    }
}

/// Every layer [`layer_of`] can return, in pipeline order.
pub const LAYERS: [&str; 14] = [
    "ir",
    "analyze",
    "cuts",
    "flows",
    "baseline",
    "formulation",
    "decompose",
    "sweep",
    "milp",
    "resolve",
    "netlist",
    "verify",
    "bench",
    "other",
];

/// Span names that mark one MILP solve, for [`root_phase`].
const SOLVE_SPANS: [&str; 4] = [
    "milp-solve",
    "milp.solve",
    "resolve-solve",
    "sweep-cold-solve",
];

/// Nanoseconds of each span covered by its direct children.
fn child_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.dur_ns();
        }
    }
    covered
}

fn own_s(spans: &[Span], covered: &[u64], i: usize) -> f64 {
    spans[i].dur_ns().saturating_sub(covered[i]) as f64 * 1e-9
}

fn has_ancestor(spans: &[Span], i: usize, pred: impl Fn(&Span) -> bool) -> Option<usize> {
    let mut p = spans[i].parent;
    while let Some(j) = p {
        if pred(&spans[j]) {
            return Some(j);
        }
        p = spans[j].parent;
    }
    None
}

/// Self time per layer, in seconds, of spans already passed through
/// [`nest`].
pub fn layer_self(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let covered = child_ns(spans);
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        *out.entry(layer_of(&s.name)).or_default() += own_s(spans, &covered, i);
    }
    out
}

/// Seconds inside spans named in `names`, counting a span only when no
/// ancestor is also named in `names` (nested same-stage spans are not
/// counted twice).
pub fn outer_total(spans: &[Span], names: &[&str]) -> f64 {
    (0..spans.len())
        .filter(|&i| names.contains(&spans[i].name.as_str()))
        .filter(|&i| has_ancestor(spans, i, |a| names.contains(&a.name.as_str())).is_none())
        .map(|i| spans[i].dur_ns() as f64 * 1e-9)
        .sum()
}

/// Seconds from the start of every outermost MILP solve to its first
/// branch-and-bound `node` (the whole solve when it never branches):
/// presolve, structural analysis, the root LP and the cut loop.
pub fn root_phase(spans: &[Span]) -> f64 {
    let is_solve = |s: &Span| SOLVE_SPANS.contains(&s.name.as_str());
    let mut first_node: BTreeMap<usize, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.name == "node") {
        if let Some(solve) = has_ancestor(spans, i, is_solve) {
            let e = first_node.entry(solve).or_insert(u64::MAX);
            *e = (*e).min(s.start_ns);
        }
    }
    spans
        .iter()
        .enumerate()
        .filter(|&(i, s)| is_solve(s) && has_ancestor(spans, i, is_solve).is_none())
        .map(|(i, s)| {
            let end = first_node.get(&i).copied().unwrap_or(s.end_ns);
            end.saturating_sub(s.start_ns) as f64 * 1e-9
        })
        .sum()
}

/// Chrome trace JSON ("X" complete events) of nested spans, with each
/// span's operation id and parent index in its arguments.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
             \"pid\": 1, \"tid\": 1, \"args\": {{\"id\": {i}, \"op\": {}, \"parent\": {}, \"layer\": \"{}\"}}}}",
            if i == 0 { "" } else { ",\n" },
            s.name.replace('"', "'"),
            if s.program { "program" } else { "bench" },
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.op,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            layer_of(&s.name),
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &str, op: u64, start: u64, end: u64) -> Span {
        Span {
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
            parent: None,
            op,
            program: false,
        }
    }

    #[test]
    fn self_time_subtracts_children_per_layer() {
        let mut s = vec![
            sp("presolve", 1, 20_000_000, 30_000_000),
            sp("op", 1, 0, 100_000_000),
            sp("milp.solve", 1, 10_000_000, 90_000_000),
            sp("node", 1, 40_000_000, 50_000_000),
            sp("op", 2, 100_000_000, 110_000_000),
            sp("decompose", 2, 101_000_000, 109_000_000),
            sp("decompose", 2, 102_000_000, 108_000_000),
        ];
        nest(&mut s);
        let layers = layer_self(&s);
        assert!((layers["bench"] - 0.022).abs() < 1e-9);
        assert!((layers["milp"] - 0.08).abs() < 1e-9);
        assert!((layers["decompose"] - 0.008).abs() < 1e-9);
        assert!((outer_total(&s, &["op"]) - 0.11).abs() < 1e-9);
        assert!((outer_total(&s, &["decompose"]) - 0.008).abs() < 1e-9);
        // Solve start to first node: 10 ms .. 40 ms.
        assert!((root_phase(&s) - 0.03).abs() < 1e-9);
    }
}
