//! `wire` — command-line front end for the WIRE reproduction.
//!
//! ```text
//! wire list                                   catalog of Table I workloads
//! wire run <workload> [options]               simulate one run
//! wire compare <workload> [options]           all four settings side by side
//! wire sweep <workload> [options]             one setting across charging units
//! wire export <workload> [--seed N]           dump a replayable trace to stdout
//! wire replay <trace-file> [options]          run a trace file
//! wire dot <workload> [--seed N]              Graphviz DOT of the DAG
//! wire campaign <targets...> [options]        regenerate figures and tables (sharded + cached)
//! wire traffic [options]                      day-of-cloud-traffic simulation
//! wire report [snapshot.json]                 render the campaign observability snapshot
//!
//! options:
//!   --policy wire|oracle|full-site|pure-reactive|reactive-conserving
//!   --scheduler fifo-ff|fifo|heft|minmin|cpath|portfolio
//!   --u <minutes>        charging unit (default 15)
//!   --seed <n>           run seed (default 1)
//!   --family <spec>      add a priced family row (repeatable);
//!                        name:slots:speed:price_milli[:mem_mb][:spot:mtbe_mins:price_milli]
//!   --spot <floor>       steer launches spot-ward, keeping this fraction on-demand
//!   --budget <milli>     spend ceiling in milli-dollars; growth throttles as
//!                        committed spend approaches it (hard veto at 100%)
//!   --deadline <mins>    deadline-aware grow-ahead: spend budget early while
//!                        the projected finish overshoots this deadline
//!   --timeline           print the pool-size timeline
//!   --trace-out <path>   engine event stream as JSONL, one telemetry event
//!                        per line (not a `wire replay` input)
//!   --trace-chrome <p>   Chrome trace_event JSON (open in Perfetto)
//!   --decisions <path>   human-readable MAPE decision journal
//!   --metrics-csv <p>    per-MAPE-interval window rollups as CSV
//! ```

use std::process::ExitCode;
use wire::core::experiment::{cloud_config_for, Setting, CHARGING_UNITS_MINS};
use wire::obs::ObsConfig;
use wire::planner::OracleWirePolicy;
use wire::prelude::*;

#[derive(Clone)]
struct Opts {
    policy: String,
    scheduler: Option<SchedulerSpec>,
    u_mins: u64,
    seed: u64,
    timeline: bool,
    trace_out: Option<String>,
    trace_chrome: Option<String>,
    decisions: Option<String>,
    metrics_csv: Option<String>,
    /// Priced instance-family table rows (`--family`, repeatable). Empty
    /// runs the legacy homogeneous cloud.
    families: Vec<FamilySpec>,
    /// Fraction of planned launches kept on the on-demand family 0
    /// (`--spot`); the rest are steered onto the cheapest spot family the
    /// memory predictor vouches for.
    spot_floor: Option<f64>,
    /// Spend ceiling in milli-dollars (`--budget`); None = unconstrained.
    budget_milli: Option<u64>,
    /// Deadline in minutes (`--deadline`); switches the wire policy to the
    /// deadline-aware grow-ahead variant.
    deadline_mins: Option<u64>,
}

impl Opts {
    /// Any flag that needs the raw event stream or decision journal.
    fn wants_telemetry(&self) -> bool {
        self.trace_out.is_some() || self.trace_chrome.is_some() || self.decisions.is_some()
    }

    /// Any flag that reads the streaming recorder's snapshot (the metrics
    /// CSV, the decision log's prediction-quality footer).
    fn wants_obs(&self) -> bool {
        self.metrics_csv.is_some() || self.decisions.is_some()
    }
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        policy: "wire".into(),
        scheduler: None,
        u_mins: 15,
        seed: 1,
        timeline: false,
        trace_out: None,
        trace_chrome: None,
        decisions: None,
        metrics_csv: None,
        families: Vec::new(),
        spot_floor: None,
        budget_milli: None,
        deadline_mins: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--policy" => {
                o.policy = it.next().ok_or("--policy needs a value")?.clone();
            }
            "--scheduler" => {
                let tag = it.next().ok_or("--scheduler needs a value")?;
                o.scheduler = Some(SchedulerSpec::parse(tag).ok_or_else(|| {
                    format!(
                        "unknown scheduler '{tag}' (valid: {})",
                        SchedulerSpec::ALL.map(|s| s.tag()).join(", ")
                    )
                })?);
            }
            "--u" => {
                o.u_mins = it
                    .next()
                    .ok_or("--u needs minutes")?
                    .parse()
                    .map_err(|e| format!("--u: {e}"))?;
            }
            "--seed" => {
                o.seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--timeline" => o.timeline = true,
            "--trace-out" => {
                o.trace_out = Some(it.next().ok_or("--trace-out needs a path")?.clone());
            }
            "--trace-chrome" => {
                o.trace_chrome = Some(it.next().ok_or("--trace-chrome needs a path")?.clone());
            }
            "--decisions" => {
                o.decisions = Some(it.next().ok_or("--decisions needs a path")?.clone());
            }
            "--metrics-csv" => {
                o.metrics_csv = Some(it.next().ok_or("--metrics-csv needs a path")?.clone());
            }
            "--family" => {
                let spec = it.next().ok_or(
                    "--family needs name:slots:speed:price_milli[:mem_mb][:spot:mtbe_mins:price_milli]",
                )?;
                o.families.push(FamilySpec::parse(spec)?);
            }
            "--spot" => {
                let floor: f64 = it
                    .next()
                    .ok_or("--spot needs an on-demand floor in [0, 1]")?
                    .parse()
                    .map_err(|e| format!("--spot: {e}"))?;
                if !(0.0..=1.0).contains(&floor) {
                    return Err(format!("--spot: floor {floor} outside [0, 1]"));
                }
                o.spot_floor = Some(floor);
            }
            "--budget" => {
                let milli: u64 = it
                    .next()
                    .ok_or("--budget needs a ceiling in milli-dollars")?
                    .parse()
                    .map_err(|e| format!("--budget: {e}"))?;
                if milli == 0 {
                    return Err("--budget: ceiling must be positive".into());
                }
                o.budget_milli = Some(milli);
            }
            "--deadline" => {
                o.deadline_mins = Some(
                    it.next()
                        .ok_or("--deadline needs minutes")?
                        .parse()
                        .map_err(|e| format!("--deadline: {e}"))?,
                );
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(o)
}

fn find_spec(name: &str) -> Option<wire::workloads::WorkloadSpec> {
    let norm = name.to_lowercase().replace(['_', ' '], "-");
    let matches = |id: &WorkloadId, wanted: &str| {
        id.name().to_lowercase().replace(' ', "-") == wanted
            || id.spec().name.to_lowercase() == wanted
    };
    if let Some(id) = WorkloadId::ALL.into_iter().find(|id| matches(id, &norm)) {
        return Some(id.spec());
    }
    // a bare family name picks the small variant: `epigenomics` → epigenomics-S
    let small = format!("{norm}-s");
    if let Some(id) = WorkloadId::ALL.into_iter().find(|id| matches(id, &small)) {
        return Some(id.spec());
    }
    match norm.as_str() {
        "montage" | "montage-2deg" => Some(wire::workloads::extensions::montage_2deg()),
        "cybershake" | "cybershake-s" => Some(wire::workloads::extensions::cybershake_small()),
        _ => None,
    }
}

fn run_one(
    wf: &Workflow,
    prof: &ExecProfile,
    dataset_bytes: u64,
    opts: &Opts,
) -> Result<RunResult, String> {
    let u = Millis::from_mins(opts.u_mins);
    let setting = match opts.policy.as_str() {
        "wire" | "oracle" => Setting::Wire,
        "full-site" => Setting::FullSite,
        "pure-reactive" => Setting::PureReactive,
        "reactive-conserving" => Setting::ReactiveConserving,
        other => return Err(format!("unknown policy '{other}'")),
    };
    let mut cfg = cloud_config_for(setting, u, dataset_bytes);
    if let Some(spec) = opts.scheduler {
        cfg.scheduler = spec;
    }
    if !opts.families.is_empty() {
        cfg.families = opts.families.clone();
    }
    if opts.spot_floor.is_some() && !cfg.families.iter().any(|f| f.is_spot()) {
        return Err("--spot needs at least one spot --family row".into());
    }
    if let Some(milli) = opts.budget_milli {
        cfg = cfg.with_budget(milli);
    }
    if opts.deadline_mins.is_some() && opts.policy != "wire" {
        return Err("--deadline only applies to the wire policy".into());
    }
    let slots = cfg.slots_per_instance;
    let tm = TransferModel::default();
    let telemetry = opts.wants_telemetry().then(TelemetryHandle::new);
    let obs = opts
        .wants_obs()
        .then(|| StreamingRecorder::with_config(ObsConfig::per_interval(cfg.mape_interval)));
    // the oracle is a CLI-only extra; everything else uses the shared mapping
    let policy: Box<dyn ScalingPolicy> = if opts.policy == "oracle" {
        Box::new(OracleWirePolicy::new(prof.clone(), tm.clone()))
    } else if opts.policy == "wire" {
        if let Some(mins) = opts.deadline_mins {
            if opts.spot_floor.is_some() {
                return Err("--deadline and --spot cannot be combined".into());
            }
            let mut p = wire::planner::GrowAheadWirePolicy::new(Millis::from_mins(mins));
            if let Some(h) = &telemetry {
                p = p.with_telemetry(h.clone());
            }
            if let Some(o) = &obs {
                p = p.with_obs(o.clone());
            }
            Box::new(p)
        } else {
            let mut p = WirePolicy::default();
            if let Some(floor) = opts.spot_floor {
                p = p.with_family_steering(floor);
            }
            // the journal records Plan decisions; obs joins predictions
            if let Some(h) = &telemetry {
                p = p.with_telemetry(h.clone());
            }
            if let Some(o) = &obs {
                p = p.with_obs(o.clone());
            }
            Box::new(p)
        }
    } else {
        wire::core::experiment::build_policy(setting, &cfg)
    };

    let result = wire::simcloud::Session::new(cfg)
        .transfer(tm)
        .policy(policy)
        .seed(opts.seed)
        .recording(Tee(telemetry.clone(), obs.clone()))
        .submit(wf, prof)
        .run()
        .map_err(|e| e.to_string())?;

    let snapshot = obs.map(|o| o.snapshot());
    if let (Some(path), Some(snapshot)) = (&opts.metrics_csv, &snapshot) {
        std::fs::write(path, metrics_csv(snapshot)).map_err(|e| format!("write {path}: {e}"))?;
    }
    if let Some(handle) = &telemetry {
        let buffer = handle.take();
        if let Some(path) = &opts.trace_out {
            std::fs::write(path, events_to_jsonl(&buffer))
                .map_err(|e| format!("write {path}: {e}"))?;
            println!("[event stream: {path}]");
        }
        if let Some(path) = &opts.trace_chrome {
            std::fs::write(path, chrome_trace(&buffer, slots))
                .map_err(|e| format!("write {path}: {e}"))?;
        }
        if let (Some(path), Some(snapshot)) = (&opts.decisions, &snapshot) {
            std::fs::write(path, decision_log(&buffer, snapshot))
                .map_err(|e| format!("write {path}: {e}"))?;
        }
    }
    Ok(result)
}

fn print_result(r: &RunResult, opts: &Opts) {
    let u = Millis::from_mins(opts.u_mins);
    let slots = CloudConfig::default().slots_per_instance;
    println!("policy          : {}", r.policy);
    println!("workflow        : {}", r.workflow);
    println!("tasks           : {}", r.task_records.len());
    println!("makespan        : {}", r.makespan);
    println!("charging units  : {}", r.charging_units);
    println!("peak instances  : {}", r.peak_instances);
    println!("restarts        : {}", r.restarts);
    println!("bill            : ${:.3}", r.cost_milli as f64 / 1000.0);
    if r.evictions > 0 {
        println!("spot evictions  : {}", r.evictions);
    }
    if r.oom_restarts > 0 {
        println!("oom restarts    : {}", r.oom_restarts);
    }
    println!(
        "paid utilization: {:.1}%",
        100.0 * r.paid_utilization(u, slots)
    );
    if opts.timeline {
        println!("\npool timeline:");
        for &(t, c) in &r.pool_timeline {
            println!("  {t:>10}  {}", "#".repeat(c as usize));
        }
    }
}

fn real_main() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => {
            print_usage();
            return Ok(());
        }
    };
    match cmd {
        "list" => {
            println!(
                "{:<14} {:>7} {:>7} {:>10}",
                "workload", "tasks", "stages", "data"
            );
            let mut specs: Vec<wire::workloads::WorkloadSpec> =
                WorkloadId::ALL.into_iter().map(|id| id.spec()).collect();
            specs.push(wire::workloads::extensions::montage_2deg());
            specs.push(wire::workloads::extensions::cybershake_small());
            for spec in specs {
                println!(
                    "{:<14} {:>7} {:>7} {:>8.2}GB",
                    spec.name,
                    spec.num_tasks(),
                    spec.stages.len(),
                    spec.total_input_bytes as f64 / 1e9
                );
            }
            Ok(())
        }
        "run" | "compare" | "sweep" | "export" | "dot" => {
            let (name, rest) = rest
                .split_first()
                .ok_or_else(|| format!("{cmd} needs a workload name (try `wire list`)"))?;
            let spec = find_spec(name)
                .ok_or_else(|| format!("unknown workload '{name}' (try `wire list`)"))?;
            let opts = parse_opts(rest)?;
            let (wf, prof) = spec.generate(opts.seed);
            // `compare` and `sweep` print one row per run and write no files
            let quiet = Opts {
                timeline: false,
                trace_out: None,
                trace_chrome: None,
                decisions: None,
                metrics_csv: None,
                ..opts.clone()
            };
            match cmd {
                "run" => {
                    let r = run_one(&wf, &prof, spec.total_input_bytes, &opts)?;
                    print_result(&r, &opts);
                }
                "compare" => {
                    println!(
                        "{:<22} {:>8} {:>12} {:>8} {:>8}",
                        "policy", "units", "makespan", "peak", "restarts"
                    );
                    for policy in [
                        "full-site",
                        "pure-reactive",
                        "reactive-conserving",
                        "wire",
                        "oracle",
                    ] {
                        let o = Opts {
                            policy: policy.into(),
                            deadline_mins: None,
                            ..quiet.clone()
                        };
                        let r = run_one(&wf, &prof, spec.total_input_bytes, &o)?;
                        println!(
                            "{:<22} {:>8} {:>12} {:>8} {:>8}",
                            policy,
                            r.charging_units,
                            r.makespan.to_string(),
                            r.peak_instances,
                            r.restarts
                        );
                    }
                }
                "sweep" => {
                    println!(
                        "{:<8} {:>8} {:>12} {:>8}",
                        "u (min)", "units", "makespan", "peak"
                    );
                    for u in CHARGING_UNITS_MINS {
                        let o = Opts {
                            u_mins: u,
                            ..quiet.clone()
                        };
                        let r = run_one(&wf, &prof, spec.total_input_bytes, &o)?;
                        println!(
                            "{:<8} {:>8} {:>12} {:>8}",
                            u,
                            r.charging_units,
                            r.makespan.to_string(),
                            r.peak_instances
                        );
                    }
                }
                "export" => print!("{}", wire::workloads::export_trace(&wf, &prof)),
                "dot" => print!("{}", wire::dag::to_dot(&wf, Some(&prof))),
                _ => unreachable!(),
            }
            Ok(())
        }
        "replay" => {
            let (path, rest) = rest.split_first().ok_or("replay needs a trace file")?;
            let opts = parse_opts(rest)?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            let (wf, prof) =
                wire::workloads::parse_trace(path, &text).map_err(|e| e.to_string())?;
            // dataset ≈ what the run stages in: the root tasks' inputs
            let data: u64 = wf.roots().map(|t| wf.task(t).input_bytes).sum();
            let r = run_one(&wf, &prof, data, &opts)?;
            print_result(&r, &opts);
            Ok(())
        }
        "campaign" => run_campaign_cmd(rest),
        "traffic" => run_traffic_cmd(rest),
        "report" => run_report_cmd(rest),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown command '{other}' (try `wire help`)")),
    }
}

/// `wire campaign [targets...] [flags]` — regenerate the paper's figures
/// and tables, through the sharded, cached campaign runner
/// (`wire-campaign`) wherever a target runs simulation cells.
fn run_campaign_cmd(args: &[String]) -> Result<(), String> {
    // `all` runs these in order: `analyze` reads the campaign.csv `fig5`
    // writes
    const TARGETS: [&str; 15] = [
        "table1",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "analyze",
        "fig6",
        "timeline",
        "headline",
        "ablation",
        "policies",
        "overhead",
        "schedulers",
        "spot",
        "budget",
    ];
    let mut cfg = wire_campaign::CampaignConfig {
        progress: true,
        ..Default::default()
    };
    let mut quick = false;
    let mut scheduler = None;
    let mut targets: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => {
                cfg.threads = Some(
                    it.next()
                        .ok_or("--threads needs a count")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?,
                );
            }
            "--force" => cfg.mode = wire_campaign::CacheMode::Force,
            "--no-cache" => cfg.mode = wire_campaign::CacheMode::Off,
            "--check" => cfg.check = true,
            "--quick" => quick = true,
            "--scheduler" => {
                let tag = it.next().ok_or("--scheduler needs a value")?;
                scheduler = Some(SchedulerSpec::parse(tag).ok_or_else(|| {
                    format!(
                        "unknown scheduler '{tag}' (valid: {})",
                        SchedulerSpec::ALL.map(|s| s.tag()).join(", ")
                    )
                })?);
            }
            "all" => targets.extend(TARGETS.iter().map(|t| t.to_string())),
            t if TARGETS.contains(&t) => targets.push(t.to_string()),
            other => {
                return Err(format!(
                    "unknown campaign target/flag '{other}' (targets: {}, all)",
                    TARGETS.join(", ")
                ))
            }
        }
    }
    if targets.is_empty() {
        return Err(format!(
            "campaign needs at least one target ({}, all)",
            TARGETS.join(", ")
        ));
    }
    eprintln!(
        "campaign: {} worker thread(s), cache {} ({})",
        cfg.resolved_threads(),
        match cfg.mode {
            wire_campaign::CacheMode::Resume => "resume",
            wire_campaign::CacheMode::Force => "force",
            wire_campaign::CacheMode::Off => "off",
        },
        cfg.resolved_cache_dir().display()
    );
    let runner = wire_campaign::FigureRunner {
        cfg,
        quick,
        scheduler,
    };
    let mut bad = 0usize;
    let mut total = wire_campaign::FigureOutcome::default();
    for t in &targets {
        let outcome = match t.as_str() {
            "table1" => runner.table1(),
            "fig2" => runner.fig2(),
            "fig3" => runner.fig3(),
            "fig4" => runner.fig4(),
            "fig5" => runner.fig5(),
            "analyze" => runner.analyze()?,
            "fig6" => runner.fig6(),
            "timeline" => runner.timeline(),
            "headline" => runner.headline(),
            "ablation" => runner.ablation(),
            "policies" => runner.policies(),
            "overhead" => runner.overhead(),
            "schedulers" => runner.schedulers(),
            "spot" => runner.spot(),
            "budget" => runner.budget(),
            _ => unreachable!(),
        };
        eprintln!(
            "campaign {t}: {} cells ({} executed, {} cached, {} corrupt entries recomputed)",
            outcome.cells, outcome.executed, outcome.cache_hits, outcome.corrupt_entries
        );
        for v in &outcome.violations {
            eprintln!(
                "campaign {t}: INVARIANT VIOLATION in cell {} [{}]: {}",
                v.cell, v.label, v.message
            );
        }
        bad += outcome.violations.len();
        total.absorb_outcome(&outcome);
    }
    // the merged streaming-observability aggregate for everything the
    // campaign touched; canonical bytes, so reruns at any thread count or
    // cache state rewrite the identical file. Targets that ran no cells
    // (table1, fig4, timeline, analyze) have nothing to record, so they
    // leave the last snapshot alone.
    if total.cells > 0 {
        let path = wire_campaign::save_obs_snapshot(&total.obs);
        eprintln!(
            "campaign: observability snapshot → {} (render with `wire report`)",
            path.display()
        );
    }
    if bad > 0 {
        return Err(format!("{bad} invariant violation(s) — see above"));
    }
    Ok(())
}

/// `wire traffic [flags]` — the day-of-cloud-traffic simulation: many
/// tenant pools under Poisson workflow arrivals, WIRE steering per pool,
/// sharded across the thread pool with a tenant-order merge. Stdout is
/// byte-deterministic (digest included); wall-clock stats go to stderr.
fn run_traffic_cmd(args: &[String]) -> Result<(), String> {
    let mut spec = wire_campaign::TrafficSpec::with_total(10_000);
    let mut threads: Option<usize> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut take = |name: &str| -> Result<u64, String> {
            it.next()
                .ok_or(format!("{name} needs a value"))?
                .parse()
                .map_err(|e| format!("{name}: {e}"))
        };
        match a.as_str() {
            "--arrivals" => {
                spec = wire_campaign::TrafficSpec {
                    seed: spec.seed,
                    ..wire_campaign::TrafficSpec::with_total(take("--arrivals")? as usize)
                };
            }
            "--tenants" => spec.tenants = take("--tenants")? as usize,
            "--per-tenant" => spec.per_tenant = take("--per-tenant")? as usize,
            "--mean-gap-secs" => {
                spec.mean_gap = wire::dag::Millis::from_secs(take("--mean-gap-secs")?)
            }
            "--seed" => spec.seed = take("--seed")?,
            "--threads" => threads = Some(take("--threads")? as usize),
            other => {
                return Err(format!(
                    "unknown traffic flag '{other}' (--arrivals N, --tenants N, \
                     --per-tenant N, --mean-gap-secs S, --seed N, --threads N)"
                ))
            }
        }
    }
    if spec.tenants == 0 || spec.per_tenant == 0 {
        return Err("traffic needs at least one tenant and one workflow".into());
    }
    eprintln!(
        "traffic: {} arrivals across {} tenant pool(s), {} worker thread(s)",
        spec.total_arrivals(),
        spec.tenants,
        threads.unwrap_or_else(num_threads_default)
    );
    let report = wire_campaign::run_traffic(&spec, threads);
    print!("{}", report.render());
    let wall = report.wall.as_secs_f64();
    eprintln!(
        "traffic: {:.2}s wall, {:.0} arrivals/sec, {:.0} events/sec",
        wall,
        report.completed_workflows as f64 / wall.max(1e-9),
        report.events_total as f64 / wall.max(1e-9),
    );
    Ok(())
}

fn num_threads_default() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// `wire report [snapshot.json]` — render the campaign observability
/// snapshot written by `wire campaign` as a human-readable run report.
fn run_report_cmd(args: &[String]) -> Result<(), String> {
    let default_path = || {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("results/OBS_snapshot.json")
            .display()
            .to_string()
    };
    let path = match args {
        [] => default_path(),
        [p] if !p.starts_with('-') => p.clone(),
        _ => return Err("usage: wire report [snapshot.json]".to_string()),
    };
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!("read {path}: {e} (run `wire campaign <target>` first to produce the snapshot)")
    })?;
    let snapshot =
        wire::obs::ObsSnapshot::from_json_str(&text).map_err(|e| format!("parse {path}: {e}"))?;
    print!("{}", wire::obs::render_report(&snapshot));
    Ok(())
}

fn print_usage() {
    println!("wire — WIRE (CLUSTER 2021) reproduction CLI");
    println!();
    println!("  wire list");
    println!(
        "  wire run <workload> [--policy P] [--scheduler S] [--u MIN] [--seed N]
                      [--family name:slots:speed:price_milli[:mem_mb][:spot:mtbe:price]]...
                      [--spot FLOOR] [--budget MILLI] [--deadline MIN]
                      [--timeline] [--trace-out events.jsonl]
                      [--trace-chrome trace.json] [--decisions mape.log] [--metrics-csv ticks.csv]"
    );
    println!("  wire compare <workload> [--u MIN] [--seed N]");
    println!("  wire sweep <workload> [--policy P] [--seed N]");
    println!("  wire export <workload> [--seed N]      > trace.txt");
    println!("  wire replay <trace.txt> [--policy P] [--u MIN]");
    println!("  wire dot <workload> [--seed N]         > dag.dot");
    println!(
        "  wire campaign <table1|fig2|fig3|fig4|fig5|analyze|fig6|timeline|headline|ablation|
                 policies|overhead|schedulers|spot|budget|all>...
                      [--threads N] [--force] [--no-cache] [--check] [--quick] [--scheduler S]"
    );
    println!(
        "  wire traffic [--arrivals N] [--tenants N] [--per-tenant N]
                      [--mean-gap-secs S] [--seed N] [--threads N]"
    );
    println!("  wire report [snapshot.json]            render results/OBS_snapshot.json");
    println!();
    println!("policies: wire (default), oracle, full-site, pure-reactive,");
    println!("          reactive-conserving");
    println!("schedulers: fifo-ff (default), fifo, heft, minmin, cpath, portfolio");
    println!();
    println!("--trace-out writes the engine's event stream as JSONL, one telemetry");
    println!("event per line; `wire replay` reads only `wire export` traces.");
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
