//! `sgq-experiments` — regenerates every table and figure of the paper
//! and runs the replay-driven engine experiments.
//!
//! ```text
//! sgq-experiments [EXPERIMENTS...] [--timeout-ms N] [--reps N]
//!                 [--sf-max X] [--sf X] [--yago-scale X]
//!                 [--backend graph|relational] [--redundancy RULE]
//!                 [--out results.json] [--smoke]
//!                 [--serve-workers 1,2,4] [--serve-clients N]
//!                 [--serve-iters N] [--chaos-prob P] [--chaos-seeds a,b,c]
//!
//! EXPERIMENTS: all (default) | table3 | table5 | table6 | table7 | table8
//!              | fig12 | fig13 | fig14 | fig15 | fig17 | reverts
//!              | smoke | plans | estimates | serve | parallel | observe
//!              | chaos
//!              (the last seven run explicit only, not as part of `all`)
//! ```
//!
//! Everything that executes catalog queries is a client of the one
//! replay driver — a named reference variant, a list of variants, every
//! answer asserted bit-identical. The paper suite (`table*`, `fig*`,
//! `reverts`) replays every catalog query baseline vs schema-rewritten
//! under `--timeout-ms` (an infeasible cell per run over it), averaging
//! `--reps` executions; `--sf-max` caps the LDBC scale factors, `--out`
//! dumps the raw records.
//!
//! The last seven share one set of catalogs (`--sf`, `--yago-scale`,
//! `--timeout-ms`), generated once per process however many are named.
//! `smoke` replays a few paths on both backends over the tiny Fig. 2
//! database and `plans` prints the physical-plan showcase; the other five
//! are the gates (`sgq_harness::gates` documents each variant list and
//! gate). `--smoke` switches to the small CI scale and arms every gate,
//! so the whole CI gate is one process, chaos included (a fault plan is
//! a value owned by the service it is armed on):
//!
//! ```text
//! sgq-experiments smoke plans estimates serve parallel observe chaos --smoke
//! ```

use std::io::Write as _;

use sgq_core::RedundancyRule;
use sgq_harness::experiments::{self, ExperimentConfig};
use sgq_harness::gates::{self, GateParams};
use sgq_harness::replay::{Catalogs, Scale};
use sgq_harness::Backend;

fn num<T: std::str::FromStr>(v: &str, flag: &str) -> T {
    v.parse()
        .unwrap_or_else(|_| panic!("{flag} takes a number"))
}

fn list<T: std::str::FromStr>(v: &str, flag: &str) -> Vec<T> {
    v.split(',').map(|x| num(x, flag)).collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut wanted: Vec<String> = Vec::new();
    let mut cfg = ExperimentConfig::default();
    let mut scale = Scale::default();
    let mut params = GateParams::default();
    let mut smoke_variant = false;
    let mut out_path: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || {
            i += 1;
            args.get(i)
                .unwrap_or_else(|| panic!("{flag} takes a value"))
                .as_str()
        };
        match flag {
            "--timeout-ms" => {
                cfg.timeout_ms = num(value(), flag);
                scale.timeout_ms = cfg.timeout_ms;
            }
            "--reps" => cfg.repeats = num(value(), flag),
            "--sf-max" => {
                let max: f64 = num(value(), flag);
                cfg.ldbc_sfs.retain(|&sf| sf <= max);
            }
            "--sf" => scale.sf = num(value(), flag),
            "--yago-scale" => {
                cfg.yago_scale = num(value(), flag);
                scale.yago_scale = cfg.yago_scale;
            }
            "--redundancy" => {
                cfg.rewrite.redundancy = match value() {
                    "bothsides" => RedundancyRule::BothSides,
                    "eitherside" => RedundancyRule::EitherSide,
                    "never" => RedundancyRule::Never,
                    other => panic!("unknown redundancy rule {other}"),
                };
            }
            "--backend" => {
                cfg.backend = match value() {
                    "graph" => Backend::Graph,
                    "relational" => Backend::Relational,
                    other => panic!("unknown backend {other}"),
                };
            }
            "--out" => out_path = Some(value().to_string()),
            "--smoke" => smoke_variant = true,
            "--serve-workers" => params.worker_counts = list(value(), flag),
            "--serve-clients" => params.clients = num(value(), flag),
            "--serve-iters" => params.passes = num(value(), flag),
            "--chaos-prob" => params.probability = num(value(), flag),
            "--chaos-seeds" => params.seeds = list(value(), flag),
            other => wanted.push(other.to_string()),
        }
        i += 1;
    }
    if wanted.is_empty() {
        wanted.push("all".to_string());
    }
    let want = |name: &str| wanted.iter().any(|w| w == name || w == "all");

    // The engine experiments run only when asked for by name, so `all`
    // keeps its paper-suite meaning. They share one set of catalogs.
    if smoke_variant {
        (scale, params) = (Scale::smoke(), GateParams::smoke());
    }
    let named: Vec<&str> = (gates::GATES.into_iter())
        .filter(|name| wanted.iter().any(|w| w == name))
        .collect();
    if !named.is_empty() {
        let cats = Catalogs::new(scale);
        for name in named {
            let report = gates::run(name, &cats, &params, smoke_variant);
            println!("{}", report.expect("GATES lists known experiments"));
        }
    }

    let mut all_records = Vec::new();
    if want("table3") {
        println!("{}", experiments::table3(&cfg));
    }
    if want("table6") {
        println!("{}", experiments::table6(&cfg));
    }
    if want("reverts") {
        println!("{}", experiments::reverts(&cfg));
    }
    if want("fig12") {
        let records = experiments::yago_suite(&cfg);
        println!("{}", experiments::fig12(&records, cfg.timeout_ms));
        all_records.extend(records);
    }
    let need_ldbc = ["table5", "table7", "table8", "fig13"]
        .iter()
        .any(|e| want(e));
    if need_ldbc {
        eprintln!(
            "running the LDBC suite (30 queries x {} scale factors x 2 approaches, timeout {} ms)...",
            cfg.ldbc_sfs.len(),
            cfg.timeout_ms
        );
        let records = experiments::ldbc_suite(&cfg);
        if want("table5") {
            println!("{}", experiments::table5(&records, &cfg));
        }
        if want("table7") {
            println!("{}", experiments::table7(&records, cfg.timeout_ms));
        }
        if want("table8") {
            println!("{}", experiments::table8(&records, cfg.timeout_ms));
        }
        if want("fig13") {
            println!("{}", experiments::fig13(&records, &cfg));
        }
        all_records.extend(records);
    }
    if want("fig14") {
        let (records, report) = experiments::fig14(&cfg);
        println!("{report}");
        all_records.extend(records);
    }
    if want("fig15") || want("fig16") {
        println!("{}", experiments::fig15_16());
    }
    if want("fig17") {
        println!("{}", experiments::fig17(0.3));
    }

    if let Some(path) = out_path {
        let json = sgq_harness::records::to_json(&all_records);
        let mut f = std::fs::File::create(&path).expect("create --out file");
        f.write_all(json.as_bytes()).expect("write --out file");
        eprintln!("wrote {} records to {path}", all_records.len());
    }
}
