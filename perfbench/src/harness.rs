//! The measurement loop shared by every workload: repeated set-up,
//! repeated measured runs for a fixed host time, the determinism
//! self-check, and the per-layer numbers derived from recorded spans.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::trace::{self_secs, Phase, Span, Tracer};

/// Parsed command line.
#[derive(Debug)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Seed for every generated input.
    pub seed: u64,
    /// Host seconds the measured phase runs for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Tiny inputs, one set-up, two runs: checks the plumbing only.
    pub smoke: bool,
}

impl Opts {
    /// Set-ups per run; `setup_s` is their median.
    pub fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// Measured repetitions run even when `seconds` is already spent. A
    /// traced run alternates untraced and traced repetitions, so it
    /// needs at least two of each.
    pub fn min_reps(&self) -> usize {
        match (self.smoke, self.trace) {
            (true, false) => 2,
            (true, true) | (false, false) => 4,
            (false, true) => 6,
        }
    }

    /// Picks the full-size or the smoke-size value.
    pub fn scale(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// One correctness check of the workload's outputs.
#[derive(Debug)]
pub struct Check {
    /// Short name.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// What was compared.
    pub detail: String,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name (units live in [`crate::metrics`]).
    pub values: BTreeMap<&'static str, f64>,
    /// Output checks; the run is correct only if all hold.
    pub checks: Vec<Check>,
    /// Operations submitted during the measured phase and checks.
    pub attempted: u64,
    /// Of which did not complete.
    pub failed: u64,
    /// Free-form lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a check.
    pub fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push(Check { name, ok, detail });
    }
}

/// A benchmark workload: what is set up once, what one measured
/// repetition runs, and how its outputs are checked.
pub trait Workload {
    /// The staged state measured repetitions run against.
    type Staged;
    /// Simulated output of one repetition.
    type Run;

    /// Generates inputs, builds and stages. Timed as `setup_s`.
    fn setup(&self, t: &Tracer) -> Self::Staged;

    /// Whether two set-ups produced identical state.
    fn same_setup(a: &Self::Staged, b: &Self::Staged) -> bool;

    /// One measured repetition. Returns the host seconds of the measured
    /// region only (`host_run_s`) and the simulated output. `first` is
    /// set on the repetition whose output gets checked.
    fn rep(&self, staged: &Self::Staged, t: &Tracer, first: bool) -> (f64, Self::Run);

    /// Whether two repetitions produced bit-identical simulated output.
    fn same_run(a: &Self::Run, b: &Self::Run) -> bool;

    /// Checks the first repetition's outputs and records its simulated
    /// metrics plus the workload's own per-layer host metrics (from
    /// `spans` when traced). Runs outside every timed region.
    fn check(&self, staged: &Self::Staged, run: &Self::Run, t: &Tracer, out: &mut Outcome);

    /// Per-layer host metrics derived from the spans of a traced run.
    fn layer_host_metrics(&self, staged: &Self::Staged, spans: &Spans, out: &mut Outcome);
}

/// Runs a workload end to end and fills the generic metrics.
pub fn run<W: Workload>(w: &W, opts: &Opts) -> Outcome {
    let tracer = Tracer::new(opts.trace);
    let mut out = Outcome::default();

    let mut setup_s = Vec::new();
    let mut staged: Option<W::Staged> = None;
    let mut setups_same = true;
    for i in 0..opts.setups() {
        tracer.set_phase(Phase::Setup(i));
        let speed = HostSpeed::before();
        let t0 = Instant::now();
        let s = w.setup(&tracer);
        setup_s.push(speed.normalize(t0.elapsed().as_secs_f64()));
        if let Some(prev) = &staged {
            setups_same &= W::same_setup(prev, &s);
        }
        staged = Some(s);
    }
    let staged = staged.expect("at least one set-up");
    out.check(
        "setup_deterministic",
        setups_same,
        format!("{} set-ups built identical state", opts.setups()),
    );

    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let (mut untraced, mut traced, mut raw) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<W::Run> = None;
    let mut runs_same = true;
    let mut i = 0;
    while i < opts.min_reps() || Instant::now() < deadline {
        let traced_rep = opts.trace && i % 2 == 1;
        tracer.set_enabled(traced_rep);
        tracer.set_phase(Phase::Rep(i));
        let speed = HostSpeed::before();
        let (secs, run) = w.rep(&staged, &tracer, i == 0);
        if !traced_rep {
            raw.push(secs);
        }
        let secs = speed.normalize(secs);
        if traced_rep {
            &mut traced
        } else {
            &mut untraced
        }
        .push(secs);
        match &first {
            None => first = Some(run),
            Some(f) => runs_same &= W::same_run(f, &run),
        }
        i += 1;
    }
    out.check(
        "runs_bit_identical",
        runs_same,
        format!("{i} repetitions gave bit-identical simulated output"),
    );
    out.notes.push(format!(
        "measured repetitions: {} untraced, {} traced; host_run_s samples {:?}; raw wall s {:?}",
        untraced.len(),
        traced.len(),
        untraced,
        raw
    ));

    tracer.set_enabled(opts.trace);
    tracer.set_phase(Phase::Check);
    let run = first.expect("at least one repetition");
    w.check(&staged, &run, &tracer, &mut out);

    out.set("setup_s", median(&setup_s));
    out.set("host_run_s", median(&untraced));
    out.set("host.run_raw_s", median(&raw));
    out.set("host.reference_ms", crate::calib::reference_secs() * 1e3);
    if opts.trace {
        out.set("trace.overhead_s", median(&traced) - median(&untraced));
        let spans = Spans::new(tracer.spans(), opts.setups(), traced.len());
        spans.generic_metrics(&mut out);
        w.layer_host_metrics(&staged, &spans, &mut out);
        spans.write_chrome(opts);
    }
    out.set("peak_rss_mb", peak_rss_mib());
    out
}

/// Host speed around a timed region: the reference workload's time
/// just before and just after it. Dividing by their mean turns a wall
/// time into seconds at the reference's nominal speed, which cancels
/// the host's speed drifts (co-tenants, frequency) shared by both.
struct HostSpeed {
    before: f64,
}

impl HostSpeed {
    fn before() -> Self {
        Self {
            before: crate::calib::reference_secs(),
        }
    }

    fn normalize(self, secs: f64) -> f64 {
        let reference = (self.before + crate::calib::reference_secs()) / 2.0;
        secs * crate::calib::NOMINAL_SECS / reference
    }
}

/// Median (mean of the middle two for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `xs`; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The spans of a traced run, with per-phase aggregation helpers.
pub struct Spans {
    spans: Vec<Span>,
    own: Vec<f64>,
    setups: usize,
    traced_reps: usize,
}

impl Spans {
    fn new(spans: Vec<Span>, setups: usize, traced_reps: usize) -> Self {
        let own = self_secs(&spans);
        Self {
            spans,
            own,
            setups,
            traced_reps,
        }
    }

    /// Every span named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Median over set-ups of the summed seconds of spans named `name`
    /// (self time when `own`).
    pub fn setup_median(&self, name: &str, own: bool) -> f64 {
        self.per_phase_median(name, own, |p| matches!(p, Phase::Setup(_)))
    }

    /// Median over traced repetitions of the summed seconds of spans
    /// named `name`.
    pub fn rep_median(&self, name: &str) -> f64 {
        self.per_phase_median(name, false, |p| matches!(p, Phase::Rep(_)))
    }

    /// Summed seconds of the spans named `name` in the check phase.
    pub fn check_secs(&self, name: &str) -> f64 {
        self.named(name)
            .filter(|s| s.phase == Phase::Check)
            .map(Span::secs)
            .sum()
    }

    fn per_phase_median(&self, name: &str, own: bool, keep: impl Fn(Phase) -> bool) -> f64 {
        let mut by_phase: BTreeMap<(u8, usize), f64> = BTreeMap::new();
        for (s, own_s) in self.spans.iter().zip(&self.own) {
            if s.name != name || !keep(s.phase) {
                continue;
            }
            let key = match s.phase {
                Phase::Setup(i) => (0, i),
                Phase::Rep(i) => (1, i),
                Phase::Check => (2, 0),
            };
            *by_phase.entry(key).or_default() += if own { *own_s } else { s.secs() };
        }
        median(&by_phase.into_values().collect::<Vec<_>>())
    }

    /// Metrics every workload derives the same way: set-up layer times
    /// and per-layer self time (one set-up plus one traced repetition
    /// plus the check phase).
    fn generic_metrics(&self, out: &mut Outcome) {
        out.set("vector.gen_s", self.setup_median("vector.gen", false));
        out.set("anns.build_s", self.setup_median("anns.build", false));
        out.set(
            "anns.trace_s",
            self.setup_median("anns.search_batch", false),
        );
        out.set("core.stage_s", self.setup_median("core.stage", true));
        for (layer, metric) in [
            ("vector", "layer.vector.self_s"),
            ("anns", "layer.anns.self_s"),
            ("core", "layer.core.self_s"),
            ("baselines", "layer.baselines.self_s"),
        ] {
            let mut total = 0.0;
            for (s, own) in self.spans.iter().zip(&self.own) {
                if s.layer() != layer {
                    continue;
                }
                total += match s.phase {
                    Phase::Setup(_) => own / self.setups as f64,
                    Phase::Rep(_) => own / self.traced_reps.max(1) as f64,
                    Phase::Check => *own,
                };
            }
            out.set(metric, total);
        }
    }

    fn write_chrome(&self, opts: &Opts) {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{}-seed{}.trace.json", opts.workload, opts.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, crate::trace::chrome_json(&self.spans)));
        match written {
            Ok(()) => eprintln!("trace: {} spans -> {}", self.spans.len(), path.display()),
            Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
        }
    }
}
