//! The five workloads. Each exists because it stresses a different
//! layer (see `README.md` for the full reasoning and the size choices):
//!
//! * `replay-rel`   — whole pipeline per op on the µ-RA backend: > 95 %
//!   of the time is `ra::exec`, so executor work shows and front-end
//!   work does not.
//! * `replay-graph` — the same op list on the graph backend: `ra` and
//!   `translate` do nothing, so a relational change must show *no*
//!   change here.
//! * `replay-dop`   — the heavy LDBC statements, plans prepared once, op
//!   = `execute_plan` at `dop = 2`: the morsel path of the same executor.
//! * `prepare-cold` — parse → rewrite → translate → optimise → plan and
//!   no execution: the mirror image of `replay-rel`.
//! * `serve-mixed`  — closed loop through `Service` at a size where the
//!   service layer (queue, plan cache, reply) is a visible share.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::layers::{self, Approach, Dataset, DatasetSpec, Digest, ExecMode, OP_KINDS};
use crate::spans::{self, Recorder, Span};
use crate::stats::{shuffle, zipf_deck};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ReplayRel,
    ReplayGraph,
    ReplayDop,
    PrepareCold,
    ServeMixed,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::ReplayRel,
        Kind::ReplayGraph,
        Kind::ReplayDop,
        Kind::PrepareCold,
        Kind::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ReplayRel => "replay-rel",
            Kind::ReplayGraph => "replay-graph",
            Kind::ReplayDop => "replay-dop",
            Kind::PrepareCold => "prepare-cold",
            Kind::ServeMixed => "serve-mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Dataset sizes. Chosen so that, on the 2-core box the baseline was
    /// taken on, one round is short enough for ≥ 15 timed rounds (and
    /// ≥ 200 timed ops) in a 15 s run while execution still dominates
    /// the replay ops; `serve-mixed` is deliberately smaller, so that
    /// the ~70 µs the service adds per op stays a visible share.
    pub fn datasets(self, smoke: bool) -> Vec<DatasetSpec> {
        let ldbc = |sf| DatasetSpec::Ldbc { sf };
        match (self, smoke) {
            (Kind::ReplayRel | Kind::ReplayGraph | Kind::PrepareCold, false) => {
                vec![ldbc(0.3), DatasetSpec::Yago { factor: 0.1 }]
            }
            (Kind::ReplayRel | Kind::ReplayGraph | Kind::PrepareCold, true) => {
                vec![ldbc(0.06), DatasetSpec::YagoTiny]
            }
            (Kind::ReplayDop, false) => vec![ldbc(0.4)],
            (Kind::ServeMixed, false) => vec![ldbc(0.1)],
            (Kind::ReplayDop | Kind::ServeMixed, true) => vec![ldbc(0.06)],
        }
    }

    /// Every dataset any workload uses — what `--write-expected` covers.
    pub fn all_datasets() -> Vec<DatasetSpec> {
        let mut all: Vec<DatasetSpec> = Vec::new();
        for kind in Kind::ALL {
            for spec in kind.datasets(false).into_iter().chain(kind.datasets(true)) {
                if !all.contains(&spec) {
                    all.push(spec);
                }
            }
        }
        all
    }
}

/// The heavy LDBC statements `replay-dop` replays.
const HEAVY: [&str; 10] = [
    "IC1", "IC6", "IC9", "IC11", "IC12", "IC13", "Y1", "Y2", "BI10", "LSQB6",
];

/// Threads that run queries: `min(nproc, 2)`, so runnable threads never
/// exceed the cores (`serve-mixed` clients block while a worker runs).
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// `serve-mixed`: plan-cache entries, fewer than its 60 statements, so
/// the steady state has hits *and* evictions with cold prepares.
const PLAN_CACHE_CAPACITY: usize = 32;
/// `serve-mixed`: one `bump_schema_version()` per this many ops of a
/// client — invalidation beside reads.
const BUMP_EVERY: u64 = 5000;
/// `serve-mixed`: size of the Zipf deck one client deals per round.
const SERVE_ROUND_OPS: usize = 500;

/// The two seeds of a run.
///
/// `ops` (`--seed`) draws the op stream: the order in which a replay
/// round runs its statements, and each `serve-mixed` client's Zipf
/// draw. `data` (`--data-seed`) seeds the dataset generators. They are
/// separate because a different graph moves every metric by 3–8 %
/// (and moves tail percentiles between statement clusters), which would
/// force every regression bound to its 25 % cap: runs that are compared
/// with each other share the data and differ in the op stream; a claim
/// is re-checked on other data by passing `--data-seed` by hand.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    pub ops: u64,
    pub data: u64,
}

/// One (query, approach) pair of a catalog.
#[derive(Debug, Clone)]
pub struct Stmt {
    pub ds: usize,
    pub dataset: String,
    pub query: usize,
    pub name: &'static str,
    pub text: &'static str,
    pub approach: Approach,
}

/// Which instrumentation is on during a slice of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mode {
    /// The benchmark's own span recorder.
    pub spans: bool,
    /// The program's tracer: `execute_plan_traced` / `set_tracing(true)`.
    pub program_trace: bool,
    /// `replay-dop` only: run the same ops at `dop = 1`.
    pub serial: bool,
}

impl Mode {
    pub const PLAIN: Mode = Mode {
        spans: false,
        program_trace: false,
        serial: false,
    };
    pub const SPANS: Mode = Mode {
        spans: true,
        ..Mode::PLAIN
    };
    pub const PROGRAM_TRACE: Mode = Mode {
        program_trace: true,
        ..Mode::SPANS
    };
    pub const SERIAL: Mode = Mode {
        serial: true,
        ..Mode::PLAIN
    };
}

/// Work counted over one round (replay) or one slice (`serve-mixed`).
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub rewrite: layers::RewriteCounts,
    pub plan_nodes: u64,
    pub exec: layers::ExecCounts,
    pub root_qerrors: Vec<f64>,
    pub op_kind_self_us: [u64; OP_KINDS.len()],
    pub op_kind_rows: [u64; OP_KINDS.len()],
    pub engine_pairs: u64,
    pub engine_tc_rounds: u64,
    pub engine_rows: u64,
}

impl Counts {
    fn add_rewrite(&mut self, c: layers::RewriteCounts) {
        let r = &mut self.rewrite;
        r.closures_eliminated += c.closures_eliminated;
        r.reverted += c.reverted;
        r.empty += c.empty;
        r.disjuncts_out += c.disjuncts_out;
        r.atoms_out += c.atoms_out;
    }

    fn add_exec(&mut self, out: &layers::ExecOutput) {
        let (e, c) = (&mut self.exec, &out.counts);
        e.rows_materialized += c.rows_materialized;
        e.hash_builds += c.hash_builds;
        e.fixpoint_rounds += c.fixpoint_rounds;
        e.fixpoint_cache_hits += c.fixpoint_cache_hits;
        e.scans += c.scans;
        e.replans += c.replans;
        e.morsels_executed += c.morsels_executed;
        self.root_qerrors.push(out.root_qerror);
        for op in &out.ops {
            let k = OP_KINDS
                .iter()
                .position(|&kind| kind == op.kind)
                .expect("PhysOp::kind() outside the 17 known names: update layers::OP_KINDS");
            self.op_kind_self_us[k] += op.self_us;
            self.op_kind_rows[k] += op.rows;
        }
    }
}

/// Span names of the front end ("optimisation time") and of execution.
pub const FRONT_END: [&str; 5] = [
    "algebra.parse",
    "core.rewrite",
    "translate.ucqt2rra",
    "ra.optimize",
    "ra.plan",
];
pub const EXECUTION: [&str; 3] = ["ra.exec", "engine.run", "service.execute"];

/// What the spans of one traced round (or slice) say.
#[derive(Debug, Clone, Default)]
pub struct RoundTrace {
    /// Self time per span name, µs.
    pub self_us: BTreeMap<&'static str, f64>,
    /// Per statement: front-end and execution self time, µs per op.
    pub stmt_opt_us: Vec<f64>,
    pub stmt_exec_us: Vec<f64>,
    /// Σ self time of program layers ÷ wall time of the round.
    pub layer_coverage: f64,
}

fn round_trace(tracks: &[&[Span]], stmts: usize, wall_s: f64) -> RoundTrace {
    let mut t = RoundTrace {
        stmt_opt_us: vec![0.0; stmts],
        stmt_exec_us: vec![0.0; stmts],
        ..Default::default()
    };
    let mut ops_run = vec![0u32; stmts];
    for spans in tracks {
        for (s, ns) in spans.iter().zip(spans::self_times(spans)) {
            let us = ns as f64 / 1e3;
            *t.self_us.entry(s.name).or_insert(0.0) += us;
            if FRONT_END.contains(&s.name) {
                t.stmt_opt_us[s.op as usize] += us;
            } else if EXECUTION.contains(&s.name) {
                t.stmt_exec_us[s.op as usize] += us;
            } else if s.name == "bench.op" {
                ops_run[s.op as usize] += 1;
            }
        }
    }
    for (i, &n) in ops_run.iter().enumerate() {
        if n > 1 {
            t.stmt_opt_us[i] /= f64::from(n);
            t.stmt_exec_us[i] /= f64::from(n);
        }
    }
    let layers: f64 = t
        .self_us
        .iter()
        .filter(|(name, _)| !name.starts_with("bench."))
        .map(|(_, us)| us)
        .sum();
    // Client tracks of `serve-mixed` run side by side.
    t.layer_coverage = layers / (wall_s * 1e6 * tracks.len() as f64);
    t
}

/// What `serve-mixed` clients learn from the replies of one slice.
#[derive(Debug, Clone, Default)]
pub struct ServiceSamples {
    pub queue_us: Vec<f64>,
    /// Cache misses only (a hit prepares nothing).
    pub prepare_us: Vec<f64>,
    pub exec_us: Vec<f64>,
    /// Client latency − queue − prepare − exec.
    pub overhead_us: Vec<f64>,
    pub replies: u64,
    pub cache_hits: u64,
    pub evictions: u64,
    pub invalidations: u64,
    pub rejected: u64,
    pub feedback_replans: u64,
}

/// Everything measured under one [`Mode`].
#[derive(Debug, Default)]
pub struct Pass {
    pub rounds_s: Vec<f64>,
    /// `(statement, latency ms)` of every successful op.
    pub samples: Vec<(u32, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages, for the report.
    pub failures: Vec<String>,
    pub wall_s: f64,
    pub counts: Vec<Counts>,
    pub traces: Vec<RoundTrace>,
    pub service: ServiceSamples,
    /// Spans of the last traced round, one track per thread.
    pub last_spans: Vec<Vec<Span>>,
}

impl Pass {
    fn fail(&mut self, stmt: &Stmt, why: &str) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(format!(
                "{} {} [{}]: {why}",
                stmt.dataset,
                stmt.name,
                stmt.approach.tag()
            ));
        }
    }
}

/// Set-up cost by layer, from the last set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupLayers {
    pub generate_ms: f64,
    pub load_ms: f64,
    pub nodes: u64,
    pub edges: u64,
}

pub trait Workload {
    fn stmts(&self) -> &[Stmt];
    fn datasets(&self) -> &[Dataset];
    fn setup_layers(&self) -> SetupLayers;
    /// The untimed warm-up round: every statement once.
    fn warm_up(&mut self, pass: &mut Pass);
    /// Measures under `mode` into `pass` for at least `budget` (replay:
    /// whole rounds, at least one; `serve-mixed`: exactly the budget).
    fn run_slice(&mut self, mode: Mode, budget: Duration, pass: &mut Pass);
    /// Checks the rows the latest round kept (and the warm-up's, once)
    /// against `expected[statement]`, counting mismatches into `pass`.
    fn verify(&mut self, expected: &[Digest], pass: &mut Pass);
    /// The modes a traced run cycles through, and whether it alternates
    /// them round by round (`true`) or runs one long slice of each.
    fn trace_modes(&self) -> (Vec<Mode>, bool);
    /// Stops every thread the workload started.
    fn shutdown(&mut self);
}

/// Generates, loads, prepares and runs one untimed warm-up round: the
/// interval `setup_s` measures.
pub fn setup(kind: Kind, seeds: Seeds, smoke: bool) -> (Box<dyn Workload>, Pass) {
    let mut setup = SetupLayers::default();
    let datasets: Vec<Dataset> = kind
        .datasets(smoke)
        .into_iter()
        .map(|spec| {
            let t = Instant::now();
            let ds = layers::generate(spec, seeds.data);
            setup.generate_ms += t.elapsed().as_secs_f64() * 1e3;
            setup.nodes += ds.nodes() as u64;
            setup.edges += ds.edges() as u64;
            ds
        })
        .collect();
    let mut stmts = Vec::new();
    for (d, ds) in datasets.iter().enumerate() {
        for (q, &(name, text)) in ds.queries.iter().enumerate() {
            if kind == Kind::ReplayDop && !HEAVY.contains(&name) {
                continue;
            }
            for approach in Approach::BOTH {
                stmts.push(Stmt {
                    ds: d,
                    dataset: ds.spec.tag(),
                    query: q,
                    name,
                    text,
                    approach,
                });
            }
        }
    }
    if kind == Kind::ServeMixed {
        // Zipf rank = position in this list. Popularity follows LDBC's own
        // mix — short reads hottest, then complex reads, then the analytic
        // families — and is the same for every seed: the seed draws which
        // statement comes next, not which statements are hot.
        let family = |name: &str| {
            ["IS", "IC", "LSQB", "BI", "Y"]
                .iter()
                .position(|f| name.starts_with(f))
                .expect("LDBC query family")
        };
        stmts.sort_by_key(|s| family(s.name));
    }
    let mut workload: Box<dyn Workload> = if kind == Kind::ServeMixed {
        Box::new(Serve::new(datasets, stmts, seeds.ops, setup))
    } else {
        Box::new(Replay::new(kind, datasets, stmts, seeds.ops, setup))
    };
    let mut warm_up = Pass::default();
    workload.warm_up(&mut warm_up);
    (workload, warm_up)
}

// ------------------------------------------------------------------ replay

/// What an op leaves behind for verification outside the timed section.
enum Kept {
    Nothing,
    Rel(layers::ExecOutput),
    Rows(layers::GraphOutput),
    /// `prepare-cold`: the plan (`None` = provably empty), executed once
    /// by [`Workload::verify`].
    Plan(Option<layers::PhysPlan>),
}

impl Kept {
    fn drop_span(&self) -> &'static str {
        match self {
            Kept::Rows(_) => "engine.drop_rows",
            _ => "ra.drop_rows",
        }
    }
}

struct Replay {
    kind: Kind,
    datasets: Vec<Dataset>,
    stores: Vec<layers::RelStore>,
    stmts: Vec<Stmt>,
    /// `replay-dop`: plans prepared once, untimed.
    plans: Vec<Option<layers::PhysPlan>>,
    pool: Option<layers::MorselPool>,
    /// The order a round runs the statements in, reshuffled from the
    /// seeded draw before every round: a statement's latency depends on
    /// what ran before it (allocator and cache state — in catalog order
    /// the schema variant always runs on the heels of its baseline, which
    /// flatters it by ~10 % on `replay-graph`), and reshuffling averages
    /// that over the rounds instead of baking one order into a run.
    order: Vec<usize>,
    draw: layers::Draw,
    setup: SetupLayers,
    epoch: Instant,
    kept: Vec<Kept>,
    /// Row count of each statement in the first round, to catch a later
    /// round that disagrees without hashing rows inside the timed loop.
    first_rows: Vec<Option<u64>>,
}

impl Replay {
    fn new(
        kind: Kind,
        datasets: Vec<Dataset>,
        stmts: Vec<Stmt>,
        seed: u64,
        mut setup: SetupLayers,
    ) -> Self {
        let stores: Vec<layers::RelStore> = if kind == Kind::ReplayGraph {
            Vec::new()
        } else {
            let t = Instant::now();
            let stores = datasets.iter().map(layers::load_store).collect();
            setup.load_ms = t.elapsed().as_secs_f64() * 1e3;
            stores
        };
        let mut replay = Replay {
            kind,
            stores,
            plans: Vec::new(),
            order: (0..stmts.len()).collect(),
            draw: layers::Draw::new(seed),
            pool: (kind == Kind::ReplayDop).then(|| layers::MorselPool::new(threads())),
            setup,
            epoch: Instant::now(),
            kept: stmts.iter().map(|_| Kept::Nothing).collect(),
            first_rows: vec![None; stmts.len()],
            datasets,
            stmts,
        };
        if kind == Kind::ReplayDop {
            let mut rec = Recorder::new(false, Instant::now());
            let mut counts = Counts::default();
            replay.plans = replay
                .stmts
                .iter()
                .map(|s| replay.prepare(s, &mut rec, &mut counts))
                .collect();
        }
        replay
    }

    /// parse → (rewrite) for one statement; `None` = provably empty.
    fn front_query(
        &self,
        stmt: &Stmt,
        rec: &mut Recorder,
        counts: &mut Counts,
    ) -> Option<layers::Ucqt> {
        let schema = &self.datasets[stmt.ds].schema;
        let expr = rec.span("algebra.parse", |_| layers::parse(stmt.text, schema));
        match stmt.approach {
            Approach::Baseline => Some(layers::baseline_query(&expr)),
            Approach::Schema => {
                let (query, c) = rec.span("core.rewrite", |_| layers::rewrite(schema, &expr));
                counts.add_rewrite(c);
                query
            }
        }
    }

    /// The whole front end: parse → rewrite → translate → optimise → plan.
    fn prepare(
        &self,
        stmt: &Stmt,
        rec: &mut Recorder,
        counts: &mut Counts,
    ) -> Option<layers::PhysPlan> {
        let store = &self.stores[stmt.ds];
        let query = self.front_query(stmt, rec, counts)?;
        let term = rec.span("translate.ucqt2rra", |_| layers::translate(&query, store));
        let term = rec.span("ra.optimize", |_| layers::optimize_term(&term, store));
        let plan = rec.span("ra.plan", |_| layers::plan_term(&term, store));
        counts.plan_nodes += layers::plan_nodes(&plan);
        Some(plan)
    }

    fn exec(
        &self,
        plan: &layers::PhysPlan,
        stmt: &Stmt,
        mode: Mode,
        rec: &mut Recorder,
        counts: &mut Counts,
    ) -> Result<layers::ExecOutput, String> {
        let exec_mode = ExecMode {
            pool: match &self.pool {
                Some(pool) if !mode.serial => Some((pool, threads())),
                _ => None,
            },
            traced: mode.program_trace,
        };
        let store = &self.stores[stmt.ds];
        let out = rec.span("ra.exec", |_| layers::execute(plan, store, exec_mode))?;
        counts.add_exec(&out);
        Ok(out)
    }

    /// One op, from text to rows by the workload's caller-visible path.
    /// Returns what to keep and the row count (`None`: no rows produced
    /// by design, `prepare-cold`).
    fn run_op(
        &self,
        i: usize,
        mode: Mode,
        warming: bool,
        rec: &mut Recorder,
        counts: &mut Counts,
    ) -> Result<(Kept, Option<u64>), String> {
        let stmt = &self.stmts[i];
        let rel = |out: layers::ExecOutput| {
            let rows = out.rel.len() as u64;
            (Kept::Rel(out), Some(rows))
        };
        Ok(match self.kind {
            Kind::ReplayDop => match &self.plans[i] {
                None => (Kept::Nothing, Some(0)),
                Some(plan) => rel(self.exec(plan, stmt, mode, rec, counts)?),
            },
            Kind::ReplayGraph => match self.front_query(stmt, rec, counts) {
                None => (Kept::Nothing, Some(0)),
                Some(query) => {
                    let db = &self.datasets[stmt.ds].db;
                    let out = rec.span("engine.run", |_| layers::graph_run(db, &query))?;
                    counts.engine_pairs += out.pairs_materialized;
                    counts.engine_tc_rounds += out.tc_rounds;
                    counts.engine_rows += out.rows.len() as u64;
                    let rows = out.rows.len() as u64;
                    (Kept::Rows(out), Some(rows))
                }
            },
            Kind::PrepareCold if !warming => (Kept::Plan(self.prepare(stmt, rec, counts)), None),
            // The warm-up of `prepare-cold` executes each plan once: that
            // checks its rows and fills the feedback memo planning reads.
            Kind::ReplayRel | Kind::PrepareCold => match self.prepare(stmt, rec, counts) {
                None => (Kept::Nothing, Some(0)),
                Some(plan) => rel(self.exec(&plan, stmt, mode, rec, counts)?),
            },
            Kind::ServeMixed => unreachable!("serve-mixed is not a replay workload"),
        })
    }

    fn round(&mut self, mode: Mode, warming: bool, pass: &mut Pass) {
        let mut rec = Recorder::new(mode.spans, self.epoch);
        shuffle(&mut self.order, &mut self.draw);
        let mut counts = Counts::default();
        let start = Instant::now();
        rec.span("bench.round", |rec| {
            for &i in &self.order {
                rec.set_op(i as u32);
                let t = Instant::now();
                let result = rec.span("bench.op", |rec| {
                    self.run_op(i, mode, warming, rec, &mut counts)
                });
                let ms = t.elapsed().as_secs_f64() * 1e3;
                pass.attempted += 1;
                match result {
                    Err(why) => pass.fail(&self.stmts[i], &why),
                    Ok((kept, rows)) => {
                        // Freeing the previous round's rows runs the
                        // layer's destructors: a span of its own.
                        let old = std::mem::replace(&mut self.kept[i], kept);
                        rec.span(old.drop_span(), |_| drop(old));
                        let first = *self.first_rows[i].get_or_insert(rows.unwrap_or(0));
                        if rows.is_some_and(|r| r != first) {
                            let why = format!("{rows:?} rows, first round had {first}");
                            pass.fail(&self.stmts[i], &why);
                        } else {
                            pass.samples.push((i as u32, ms));
                        }
                    }
                }
            }
        });
        let wall_s = start.elapsed().as_secs_f64();
        pass.rounds_s.push(wall_s);
        pass.wall_s += wall_s;
        pass.counts.push(counts);
        if mode.spans {
            pass.traces
                .push(round_trace(&[rec.spans()], self.stmts.len(), wall_s));
            pass.last_spans = vec![rec.into_spans()];
        }
    }
}

impl Workload for Replay {
    fn stmts(&self) -> &[Stmt] {
        &self.stmts
    }

    fn datasets(&self) -> &[Dataset] {
        &self.datasets
    }

    fn setup_layers(&self) -> SetupLayers {
        self.setup
    }

    fn warm_up(&mut self, pass: &mut Pass) {
        self.round(Mode::PLAIN, true, pass);
    }

    fn run_slice(&mut self, mode: Mode, budget: Duration, pass: &mut Pass) {
        let start = Instant::now();
        loop {
            self.round(mode, false, pass);
            if start.elapsed() >= budget {
                break;
            }
        }
    }

    fn verify(&mut self, expected: &[Digest], pass: &mut Pass) {
        for ((stmt, kept), want) in self.stmts.iter().zip(&mut self.kept).zip(expected) {
            let digest = match std::mem::replace(kept, Kept::Nothing) {
                Kept::Nothing | Kept::Plan(None) => Ok(Digest { rows: 0, hash: 0 }),
                Kept::Rel(out) => Ok(out.digest()),
                Kept::Rows(out) => Ok(out.digest()),
                Kept::Plan(Some(plan)) => {
                    layers::execute(&plan, &self.stores[stmt.ds], ExecMode::SERIAL)
                        .map(|out| out.digest())
                }
            };
            match digest {
                Ok(d) if d == *want => {}
                Ok(d) => pass.fail(
                    stmt,
                    &format!("rows differ from the oracle: {d:?} vs {want:?}"),
                ),
                Err(why) => pass.fail(stmt, &why),
            }
        }
    }

    fn trace_modes(&self) -> (Vec<Mode>, bool) {
        let modes = match self.kind {
            Kind::ReplayRel => vec![Mode::PLAIN, Mode::SPANS, Mode::PROGRAM_TRACE],
            Kind::ReplayDop => vec![Mode::PLAIN, Mode::SPANS, Mode::SERIAL],
            _ => vec![Mode::PLAIN, Mode::SPANS],
        };
        (modes, true)
    }

    fn shutdown(&mut self) {
        if let Some(pool) = &self.pool {
            pool.shutdown();
        }
    }
}

// ------------------------------------------------------------- serve-mixed

/// A client's position in its seeded op stream, kept across slices.
struct Client {
    draw: layers::Draw,
    ops_done: u64,
}

/// What one client measured in one slice.
struct ClientSlice {
    pass: Pass,
    rec: Recorder,
    client: Client,
}

struct Serve {
    datasets: Vec<Dataset>,
    stmts: Vec<Stmt>,
    service: layers::ServiceHandle,
    setup: SetupLayers,
    clients: Vec<Client>,
    /// Digest of each statement's reply in the warm-up round.
    warm_up: Vec<Option<Digest>>,
    /// Row count each statement's replies must have, once known.
    rows: Vec<Option<u64>>,
    epoch: Instant,
}

impl Serve {
    fn new(datasets: Vec<Dataset>, stmts: Vec<Stmt>, seed: u64, mut setup: SetupLayers) -> Self {
        let t = Instant::now();
        let service = layers::ServiceHandle::new(&datasets[0], threads(), PLAN_CACHE_CAPACITY);
        // `Service::new` loads the relational store.
        setup.load_ms = t.elapsed().as_secs_f64() * 1e3;
        Serve {
            warm_up: vec![None; stmts.len()],
            rows: vec![None; stmts.len()],
            clients: (0..threads() as u64)
                .map(|c| Client {
                    draw: layers::Draw::new(seed ^ ((c + 1) << 32)),
                    ops_done: 0,
                })
                .collect(),
            datasets,
            stmts,
            service,
            setup,
            epoch: Instant::now(),
        }
    }

    /// One client's closed loop until `deadline`. A round deals one
    /// shuffled Zipf(1) deck over the statements (rank = list position).
    fn client(&self, mut client: Client, mode: Mode, deadline: Instant) -> ClientSlice {
        let mut deck = zipf_deck(self.stmts.len(), 1.0, SERVE_ROUND_OPS);
        let session = self.service.session();
        let mut pass = Pass::default();
        let mut rec = Recorder::new(mode.spans, self.epoch);
        let mut round_start = Instant::now();
        let mut in_round = 0;
        while Instant::now() < deadline {
            if in_round == 0 {
                shuffle(&mut deck, &mut client.draw);
            }
            let i = deck[in_round];
            let stmt = &self.stmts[i];
            rec.set_op(i as u32);
            let t = Instant::now();
            let result = rec.span("bench.op", |rec| {
                rec.span("service.execute", |_| {
                    session.execute(stmt.text, stmt.approach)
                })
            });
            let us = t.elapsed().as_secs_f64() * 1e6;
            client.ops_done += 1;
            pass.attempted += 1;
            match result {
                Err(why) => pass.fail(stmt, &why),
                Ok(reply) if self.rows[i].is_some_and(|n| n != reply.rows.len() as u64) => {
                    let why = format!("{} rows, warm-up had {:?}", reply.rows.len(), self.rows[i]);
                    pass.fail(stmt, &why);
                }
                Ok(reply) => {
                    pass.samples.push((i as u32, us / 1e3));
                    let s = &mut pass.service;
                    s.replies += 1;
                    s.cache_hits += u64::from(reply.cache_hit);
                    s.queue_us.push(reply.queue_us as f64);
                    if !reply.cache_hit {
                        s.prepare_us.push(reply.prepare_us as f64);
                    }
                    s.exec_us.push(reply.exec_us as f64);
                    let inside = (reply.queue_us + reply.prepare_us + reply.exec_us) as f64;
                    s.overhead_us.push((us - inside).max(0.0));
                }
            }
            in_round += 1;
            if in_round == deck.len() {
                pass.rounds_s.push(round_start.elapsed().as_secs_f64());
                round_start = Instant::now();
                in_round = 0;
            }
            if client.ops_done.is_multiple_of(BUMP_EVERY) {
                self.service.bump_schema_version();
            }
        }
        if pass.rounds_s.is_empty() {
            // A slice shorter than one round (smoke): scale what ran.
            let scale = deck.len() as f64 / in_round.max(1) as f64;
            pass.rounds_s
                .push(round_start.elapsed().as_secs_f64() * scale);
        }
        ClientSlice { pass, rec, client }
    }
}

impl Workload for Serve {
    fn stmts(&self) -> &[Stmt] {
        &self.stmts
    }

    fn datasets(&self) -> &[Dataset] {
        &self.datasets
    }

    fn setup_layers(&self) -> SetupLayers {
        self.setup
    }

    /// Every statement once, in order, from one client.
    fn warm_up(&mut self, pass: &mut Pass) {
        let session = self.service.session();
        for (i, stmt) in self.stmts.iter().enumerate() {
            pass.attempted += 1;
            match session.execute(stmt.text, stmt.approach) {
                Ok(reply) => {
                    self.rows[i] = Some(reply.rows.len() as u64);
                    self.warm_up[i] = Some(reply.digest());
                }
                Err(why) => pass.fail(stmt, &why),
            }
        }
    }

    fn run_slice(&mut self, mode: Mode, budget: Duration, pass: &mut Pass) {
        self.service.set_tracing(mode.program_trace);
        let before = self.service.counts();
        let start = Instant::now();
        let deadline = start + budget;
        let clients = std::mem::take(&mut self.clients);
        let this = &*self;
        let slices: Vec<ClientSlice> = std::thread::scope(|scope| {
            let running: Vec<_> = clients
                .into_iter()
                .map(|client| scope.spawn(move || this.client(client, mode, deadline)))
                .collect();
            running
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall_s = start.elapsed().as_secs_f64();
        pass.wall_s += wall_s;
        let after = self.service.counts();
        let s = &mut pass.service;
        s.evictions += after.evictions - before.evictions;
        s.invalidations += after.invalidations - before.invalidations;
        s.rejected += after.rejected - before.rejected;
        s.feedback_replans += after.feedback_replans - before.feedback_replans;
        let mut tracks = Vec::new();
        for slice in slices {
            self.clients.push(slice.client);
            let p = slice.pass;
            pass.rounds_s.extend(p.rounds_s);
            pass.samples.extend(p.samples);
            pass.attempted += p.attempted;
            pass.failed += p.failed;
            pass.failures.extend(p.failures);
            let (s, c) = (&mut pass.service, p.service);
            s.queue_us.extend(c.queue_us);
            s.prepare_us.extend(c.prepare_us);
            s.exec_us.extend(c.exec_us);
            s.overhead_us.extend(c.overhead_us);
            s.replies += c.replies;
            s.cache_hits += c.cache_hits;
            tracks.push(slice.rec.into_spans());
        }
        if mode.spans {
            let refs: Vec<&[Span]> = tracks.iter().map(Vec::as_slice).collect();
            pass.traces
                .push(round_trace(&refs, self.stmts.len(), wall_s));
            pass.last_spans = tracks;
        }
    }

    fn verify(&mut self, expected: &[Digest], pass: &mut Pass) {
        // Timed replies were checked by row count against the warm-up's;
        // the warm-up's rows are checked in full here.
        for (i, stmt) in self.stmts.iter().enumerate() {
            if let Some(d) = self.warm_up[i].take() {
                if d != expected[i] {
                    let why = format!("rows differ from the oracle: {d:?} vs {:?}", expected[i]);
                    pass.fail(stmt, &why);
                }
            }
        }
    }

    fn trace_modes(&self) -> (Vec<Mode>, bool) {
        (vec![Mode::PLAIN, Mode::SPANS, Mode::PROGRAM_TRACE], false)
    }

    fn shutdown(&mut self) {
        self.service.shutdown();
    }
}
