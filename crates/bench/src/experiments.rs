//! Full-testbed experiments: the frequency/size/quantity sweeps behind
//! Fig. 11, Tables IV–VI, Figs. 12–14, plus the Fig. 2 feasibility replay.

use ape_appdag::DummyAppConfig;
use ape_proto::names;
use ape_simnet::SimDuration;
use ape_workload::{generate_trace, trace_stats, ScheduleConfig, TraceSpec};
use apecache::{
    paper_suite, parallel_map, replay_summary, replay_trace, router, run_system, RunResult,
    Summary, System, TestbedConfig,
};

/// Knobs shared by all repro experiments.
#[derive(Debug, Clone, Copy)]
pub struct ReproOptions {
    /// Simulated duration of each run, minutes (the paper runs one hour;
    /// 20 minutes reaches the same steady state far faster).
    pub minutes: u64,
    /// Samples for the Table I / Fig. 11b micro-measurements.
    pub micro_trials: usize,
    /// Worker threads runs are spread over; `0` = auto-detect.
    pub threads: usize,
    /// Root seed.
    pub seed: u64,
}

impl Default for ReproOptions {
    fn default() -> Self {
        ReproOptions {
            minutes: 20,
            micro_trials: 100,
            threads: 0,
            seed: 42,
        }
    }
}

impl ReproOptions {
    /// A faster configuration for smoke runs (`--quick`): shorter runs and
    /// fewer micro-measurement samples for the paper artifacts. The
    /// `bench-*` sweeps read neither, so they are the same either way.
    pub fn quick() -> Self {
        ReproOptions {
            minutes: 6,
            micro_trials: 25,
            threads: 0,
            seed: 42,
        }
    }

    pub(crate) fn duration(&self) -> SimDuration {
        SimDuration::from_mins(self.minutes)
    }

    /// The worker-pool size runs use: `threads`, or the machine's
    /// available parallelism when it is `0`.
    pub fn resolved_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads => threads,
        }
    }

    /// Runs every configuration once, `self.minutes` long, across
    /// [`resolved_threads`](Self::resolved_threads) workers and returns the
    /// results in input order.
    pub(crate) fn run(&self, configs: &[TestbedConfig]) -> Vec<RunResult> {
        let duration = self.duration();
        parallel_map(configs.len(), self.resolved_threads(), |i| {
            run_system(&configs[i], duration)
        })
    }
}

/// One sweep measurement (used by the figure/table builders and by the
/// integration tests that pin the qualitative shape).
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Sweep parameter rendered as text ("1–200 kb", "2.5", "15").
    pub param: String,
    /// Summaries per system, in [`System::ALL`] order (or a subset).
    pub summaries: Vec<(System, Summary)>,
}

pub(crate) fn base_config(
    system: System,
    opts: &ReproOptions,
    dummy: &DummyAppConfig,
    apps: usize,
) -> TestbedConfig {
    let mut suite = paper_suite(dummy, opts.seed);
    suite.truncate(apps.max(1));
    let mut config = TestbedConfig::new(system, suite);
    config.schedule = ScheduleConfig {
        apps,
        avg_per_minute: 3.0,
        zipf_exponent: 0.8,
        duration: opts.duration(),
    };
    config.seed = opts.seed;
    config
}

fn point_config(
    system: System,
    opts: &ReproOptions,
    dummy: &DummyAppConfig,
    apps: usize,
    frequency: f64,
) -> TestbedConfig {
    let mut config = base_config(system, opts, dummy, apps);
    config.schedule.avg_per_minute = frequency;
    config
}

/// Runs a batch of point configurations through the parallel runner and
/// returns one [`Summary`] per configuration, in input order.
fn run_batch(opts: &ReproOptions, configs: &[TestbedConfig]) -> Vec<Summary> {
    opts.run(configs)
        .iter_mut()
        .map(RunResult::summary)
        .collect()
}

/// Runs `systems` across `params`, producing one [`SweepRow`] per
/// parameter value. `configure` maps a parameter to (dummy config, app
/// count, frequency).
///
/// Every `(system × point)` run goes through one `ReproOptions::run`
/// call, so the whole sweep load-balances across the thread pool while
/// results stay in deterministic input order.
fn sweep<P: Copy>(
    opts: &ReproOptions,
    systems: &[System],
    params: &[(String, P)],
    configure: impl Fn(P) -> (DummyAppConfig, usize, f64),
) -> Vec<SweepRow> {
    let mut configs = Vec::with_capacity(params.len() * systems.len());
    for (_, p) in params {
        let (dummy, apps, freq) = configure(*p);
        for &system in systems {
            configs.push(point_config(system, opts, &dummy, apps, freq));
        }
    }
    let mut summaries = run_batch(opts, &configs).into_iter();
    params
        .iter()
        .map(|(label, _)| SweepRow {
            param: label.clone(),
            summaries: systems
                .iter()
                .map(|&system| (system, summaries.next().expect("one summary per point")))
                .collect(),
        })
        .collect()
}

// ---------------------------------------------------------------------
// Fig. 11a/11c + §V-B object-level summary
// ---------------------------------------------------------------------

/// The frequency sweep shared by Fig. 11a and Fig. 11c.
pub fn frequency_sweep(opts: &ReproOptions, systems: &[System]) -> Vec<SweepRow> {
    let freqs = [1.0, 1.5, 2.0, 2.5, 3.0];
    let params: Vec<(String, f64)> = freqs.iter().map(|f| (format!("{f}"), *f)).collect();
    sweep(opts, systems, &params, |f| {
        (DummyAppConfig::default(), 30, f)
    })
}

const FIG11_SYSTEMS: [System; 3] = [System::ApeCache, System::WiCache, System::EdgeCache];

/// Fig. 11a: cache-lookup latency vs app usage frequency.
pub fn fig11a(opts: &ReproOptions) -> String {
    let rows = frequency_sweep(opts, &FIG11_SYSTEMS);
    render_sweep(
        "Fig. 11a: Cache Lookup Latency (ms) vs App Usage Frequency",
        "freq/min",
        &rows,
        |s| s.lookup_ms,
    )
}

/// Fig. 11c: cache-retrieval latency vs app usage frequency (hit-path for
/// AP-caching systems, edge path for the Edge Cache baseline — exactly what
/// the paper measures "during a hit").
pub fn fig11c(opts: &ReproOptions) -> String {
    let rows = frequency_sweep(opts, &FIG11_SYSTEMS);
    render_sweep(
        "Fig. 11c: Cache Retrieval Latency (ms) vs App Usage Frequency",
        "freq/min",
        &rows,
        retrieval_for,
    )
}

/// §V-B summary: overall single-object latency per system at defaults.
pub fn object_level(opts: &ReproOptions) -> String {
    let mut out =
        String::from("Object-level caching latency at default parameters (§V-B summary)\n\n");
    out.push_str(&format!(
        "{:<14} {:>12} {:>14} {:>12}\n",
        "System", "Lookup (ms)", "Retrieval (ms)", "Overall (ms)"
    ));
    let configs: Vec<TestbedConfig> = FIG11_SYSTEMS
        .iter()
        .map(|&system| point_config(system, opts, &DummyAppConfig::default(), 30, 3.0))
        .collect();
    let mut overall = Vec::new();
    for (&system, summary) in FIG11_SYSTEMS.iter().zip(run_batch(opts, &configs)) {
        let retrieval = retrieval_for(&summary);
        out.push_str(&format!(
            "{:<14} {:>12.2} {:>14.2} {:>12.2}\n",
            summary.system,
            summary.lookup_ms,
            retrieval,
            summary.lookup_ms + retrieval
        ));
        overall.push((system, summary.lookup_ms + retrieval));
    }
    let ape = overall[0].1;
    out.push_str(&format!(
        "\nAPE-CACHE reduction: {:.1}% vs Wi-Cache, {:.1}% vs Edge Cache\n\
         (paper: 51.7% and 74.5%)\n",
        100.0 * (1.0 - ape / overall[1].1),
        100.0 * (1.0 - ape / overall[2].1),
    ));
    out
}

fn retrieval_for(s: &Summary) -> f64 {
    if s.retrieval_hit_ms > 0.0 {
        s.retrieval_hit_ms
    } else {
        s.retrieval_edge_ms
    }
}

// ---------------------------------------------------------------------
// Tables IV–VI (hit ratios) and Fig. 13 (app-level latency sweeps)
// ---------------------------------------------------------------------

const HIT_SYSTEMS: [System; 2] = [System::ApeCache, System::ApeCacheLru];

fn size_params() -> Vec<(String, u64)> {
    [100, 200, 300, 400, 500]
        .iter()
        .map(|&kb| (format!("1~{kb} kb"), kb * 1_000))
        .collect()
}

/// The object-size sweep shared by Table IV and Fig. 13a.
pub fn size_sweep(opts: &ReproOptions, systems: &[System]) -> Vec<SweepRow> {
    sweep(opts, systems, &size_params(), |hi| {
        (
            DummyAppConfig::default().with_size_range(1_000, hi),
            30,
            3.0,
        )
    })
}

/// The app-quantity sweep shared by Table VI and Fig. 13c.
pub fn quantity_sweep(opts: &ReproOptions, systems: &[System]) -> Vec<SweepRow> {
    let params: Vec<(String, usize)> = [5usize, 10, 15, 20, 25, 30]
        .iter()
        .map(|&n| (format!("{n}"), n))
        .collect();
    sweep(opts, systems, &params, |n| {
        (DummyAppConfig::default(), n, 3.0)
    })
}

fn render_hit_table(title: &str, param_name: &str, rows: &[SweepRow]) -> String {
    let mut out = format!("{title}\n\n");
    out.push_str(&format!(
        "{:<12} {:>10} {:>18} {:>8}\n",
        param_name, "PACM-Avg", "PACM-High Priority", "LRU"
    ));
    for row in rows {
        let pacm = &row.summaries[0].1;
        let lru = &row.summaries[1].1;
        out.push_str(&format!(
            "{:<12} {:>10.3} {:>18.3} {:>8.3}\n",
            row.param, pacm.hit_ratio, pacm.high_priority_hit_ratio, lru.hit_ratio
        ));
    }
    out
}

/// Table IV: cache hit ratio vs data object size.
pub fn table4(opts: &ReproOptions) -> String {
    let rows = size_sweep(opts, &HIT_SYSTEMS);
    render_hit_table(
        "Table IV: Cache Hit Ratio vs Data Object Size",
        "size",
        &rows,
    )
}

/// Table V: cache hit ratio vs average app usage frequency.
pub fn table5(opts: &ReproOptions) -> String {
    let rows = frequency_sweep(opts, &HIT_SYSTEMS);
    render_hit_table(
        "Table V: Cache Hit Ratio vs Avg. App Usage Frequency",
        "freq/min",
        &rows,
    )
}

/// Table VI: cache hit ratio vs app quantity.
pub fn table6(opts: &ReproOptions) -> String {
    let rows = quantity_sweep(opts, &HIT_SYSTEMS);
    render_hit_table("Table VI: Cache Hit Ratio vs App Quantity", "apps", &rows)
}

fn render_sweep(
    title: &str,
    param_name: &str,
    rows: &[SweepRow],
    value: impl Fn(&Summary) -> f64,
) -> String {
    let mut out = format!("{title}\n\n");
    out.push_str(&format!("{param_name:<12}"));
    for (system, _) in &rows[0].summaries {
        out.push_str(&format!(" {:>14}", system.label()));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&format!("{:<12}", row.param));
        for (_, summary) in &row.summaries {
            out.push_str(&format!(" {:>14.2}", value(summary)));
        }
        out.push('\n');
    }
    out
}

/// Fig. 13a: average app-level latency vs data object size (all systems).
pub fn fig13a(opts: &ReproOptions) -> String {
    let rows = size_sweep(opts, &System::ALL);
    render_sweep(
        "Fig. 13a: Avg App-Level Latency (ms) vs Data Object Size",
        "size",
        &rows,
        |s| s.app_latency_ms,
    )
}

/// Fig. 13b: average app-level latency vs app usage frequency.
pub fn fig13b(opts: &ReproOptions) -> String {
    let rows = frequency_sweep(opts, &System::ALL);
    render_sweep(
        "Fig. 13b: Avg App-Level Latency (ms) vs App Usage Frequency",
        "freq/min",
        &rows,
        |s| s.app_latency_ms,
    )
}

/// Fig. 13c: average app-level latency vs app quantity.
pub fn fig13c(opts: &ReproOptions) -> String {
    let rows = quantity_sweep(opts, &System::ALL);
    render_sweep(
        "Fig. 13c: Avg App-Level Latency (ms) vs App Quantity",
        "apps",
        &rows,
        |s| s.app_latency_ms,
    )
}

// ---------------------------------------------------------------------
// Fig. 12: real-app latency
// ---------------------------------------------------------------------

/// Fig. 12: average and tail (p95) latency of MovieTrailer and VirtualHome
/// under all four systems.
pub fn fig12(opts: &ReproOptions) -> String {
    let mut out = String::from("Fig. 12: Real-World Apps' Latency Performance (ms)\n\n");
    out.push_str(&format!(
        "{:<14} {:>16} {:>16} {:>16} {:>16}\n",
        "System", "MovieTrailer avg", "MovieTrailer p95", "VirtualHome avg", "VirtualHome p95"
    ));
    let configs: Vec<TestbedConfig> = System::ALL
        .iter()
        .map(|&system| point_config(system, opts, &DummyAppConfig::default(), 30, 3.0))
        .collect();
    for summary in run_batch(opts, &configs) {
        let movie = summary
            .per_app_latency_ms
            .get("MovieTrailer")
            .copied()
            .unwrap_or((0.0, 0.0));
        let home = summary
            .per_app_latency_ms
            .get("VirtualHome")
            .copied()
            .unwrap_or((0.0, 0.0));
        out.push_str(&format!(
            "{:<14} {:>16.1} {:>16.1} {:>16.1} {:>16.1}\n",
            summary.system, movie.0, movie.1, home.0, home.1
        ));
    }
    out
}

// ---------------------------------------------------------------------
// Table II + Fig. 2: traffic traces and router headroom
// ---------------------------------------------------------------------

/// Table II: statistics of the (synthesized) public-WiFi traffic traces.
pub fn table2(opts: &ReproOptions) -> String {
    let mut out = String::from("Table II: Statistics of Public WiFi Traffic Datasets\n\n");
    out.push_str(&format!(
        "{:<22} {:>14} {:>16}\n",
        "", "Low Traffic", "High Traffic"
    ));
    let mut rng_low = ape_simnet::SimRng::seed_from(opts.seed);
    let mut rng_high = ape_simnet::SimRng::seed_from(opts.seed + 1);
    let low_spec = TraceSpec::low_rate();
    let high_spec = TraceSpec::high_rate();
    let low = trace_stats(&generate_trace(&low_spec, &mut rng_low));
    let high = trace_stats(&generate_trace(&high_spec, &mut rng_high));
    let rows: [(&str, String, String); 6] = [
        (
            "Size",
            format!("{:.1} MB", low.total_bytes as f64 / 1e6),
            format!("{:.0} MB", high.total_bytes as f64 / 1e6),
        ),
        ("Packets", low.packets.to_string(), high.packets.to_string()),
        ("Flows", low.flows.to_string(), high.flows.to_string()),
        (
            "Average packet size",
            format!("{:.0} bytes", low.avg_packet_size),
            format!("{:.0} bytes", high.avg_packet_size),
        ),
        (
            "Duration",
            format!("{:.1} minutes", low.duration.as_secs_f64() / 60.0),
            format!("{:.1} minutes", high.duration.as_secs_f64() / 60.0),
        ),
        (
            "Number of apps",
            low_spec.apps.to_string(),
            high_spec.apps.to_string(),
        ),
    ];
    for (name, l, h) in rows {
        out.push_str(&format!("{name:<22} {l:>14} {h:>16}\n"));
    }
    out
}

/// Fig. 2: router CPU/memory while replaying the two traces.
pub fn fig2(opts: &ReproOptions) -> String {
    let mut out = String::from(
        "Fig. 2: CPU/Memory Usage of WiFi Router under Traffic Replay\n\
         (10-second samples; GL-MT1300-calibrated model)\n\n",
    );
    out.push_str(&format!(
        "{:>6} {:>10} {:>12} {:>11} {:>13}\n",
        "t (s)", "low CPU %", "low mem MB", "high CPU %", "high mem MB"
    ));
    let low = replay_trace(&TraceSpec::low_rate(), opts.seed);
    let high = replay_trace(&TraceSpec::high_rate(), opts.seed + 1);
    for i in (9..low.len()).step_by(30) {
        out.push_str(&format!(
            "{:>6.0} {:>10.1} {:>12.1} {:>11.1} {:>13.1}\n",
            low[i].at_secs,
            low[i].cpu * 100.0,
            low[i].mem_mb,
            high[i].cpu * 100.0,
            high[i].mem_mb
        ));
    }
    let (low_mean, low_max, low_mem) = replay_summary(&low);
    let (high_mean, high_max, high_mem) = replay_summary(&high);
    out.push_str(&format!(
        "\nlow:  mean CPU {:.1}%, max {:.1}%, final mem {:.1} MB\n\
         high: mean CPU {:.1}%, max {:.1}%, final mem {:.1} MB\n\
         (paper: high-rate CPU stays well below 50%, memory ~120 MB)\n",
        low_mean * 100.0,
        low_max * 100.0,
        low_mem,
        high_mean * 100.0,
        high_max * 100.0,
        high_mem
    ));
    out
}

// ---------------------------------------------------------------------
// Fig. 14: APE-CACHE overhead on the AP
// ---------------------------------------------------------------------

/// Fig. 14: AP CPU/memory with APE-CACHE-enabled apps vs regular apps.
///
/// The simulated AP charges CPU for the work APE-CACHE adds (DNS-Cache
/// handling, HTTP serving, PACM runs); baseline packet forwarding — which
/// both deployments perform identically — is estimated from each run's
/// carried bytes with the Fig. 2 router model and added to both columns.
pub fn fig14(opts: &ReproOptions) -> String {
    let baseline_mb = router::MEM_BASELINE as f64 / 1e6;
    let mut out = String::from("Fig. 14: CPU/Memory Usage on the WiFi AP\n\n");
    out.push_str(&format!(
        "{:<22} {:>10} {:>10} {:>12} {:>12}\n",
        "Deployment", "CPU avg %", "CPU max %", "mem avg MB", "mem max MB"
    ));
    let mut ape_extra_cpu = 0.0;
    let mut ape_extra_mem = 0.0;
    let deployments = [
        ("APE-CACHE-enabled", System::ApeCache),
        ("regular (edge only)", System::EdgeCache),
    ];
    let configs: Vec<TestbedConfig> = deployments
        .iter()
        .map(|&(_, system)| base_config(system, opts, &DummyAppConfig::default(), 30))
        .collect();
    for (&(label, system), mut result) in deployments.iter().zip(opts.run(&configs)) {
        let summary = result.summary();
        // Forwarding estimate shared by both deployments, over the run's
        // duration.
        let bytes = result.metrics.counter(names::NET_BYTES) as f64;
        let msgs = result.metrics.counter(names::NET_MESSAGES) as f64;
        let secs = opts.duration().as_secs_f64();
        let fwd = (bytes * router::PER_BYTE_CPU_NS / 1e9
            + msgs * router::PER_PACKET_CPU.as_secs_f64())
            / (secs * router::CORES as f64);
        let mem_series = result.metrics.time_series(names::AP_APE_MEM_MB);
        let (mem_avg, mem_max) = match (system, mem_series) {
            (System::ApeCache, Some(s)) => (s.time_weighted_mean(), s.max()),
            // The regular AP runs no APE components.
            _ => (0.0, 0.0),
        };
        let cpu_avg = summary.ap_cpu_mean + fwd;
        let cpu_max = summary.ap_cpu_max + fwd;
        if system == System::ApeCache {
            ape_extra_cpu = summary.ap_cpu_max;
            ape_extra_mem = mem_max;
        }
        out.push_str(&format!(
            "{:<22} {:>10.1} {:>10.1} {:>12.1} {:>12.1}\n",
            label,
            cpu_avg * 100.0,
            cpu_max * 100.0,
            baseline_mb + mem_avg,
            baseline_mb + mem_max
        ));
    }
    out.push_str(&format!(
        "\nAPE-CACHE overhead: +{:.1}% peak CPU, +{:.1} MB memory\n\
         (paper: at most +6% CPU and +13 MB)\n",
        ape_extra_cpu * 100.0,
        ape_extra_mem
    ));
    out
}

// ---------------------------------------------------------------------
// Design ablations (DESIGN.md §5)
// ---------------------------------------------------------------------

/// The `repro ablations` rows at `opts`: each label with its
/// configuration, the all-accommodations baseline first. Each variant
/// turns one thing off (or, for the extension, on) at default parameters.
pub fn ablation_configs(opts: &ReproOptions) -> Vec<(&'static str, TestbedConfig)> {
    type Variant = (&'static str, fn(&mut TestbedConfig));
    let variants: [Variant; 5] = [
        ("APE-CACHE (all accommodations)", |_| {}),
        ("  - fairness repair off", |c| {
            c.ap.policy = ape_nodes::ApPolicy::PacmNoFairness;
        }),
        ("  - short-circuit off", |c| {
            c.ap.short_circuit = false;
        }),
        ("  - LRU instead of PACM", |c| {
            c.ap.policy = ape_nodes::ApPolicy::Lru;
        }),
        ("  + dependency prefetching (ext.)", |c| {
            c.prefetch_hints = true;
        }),
    ];
    variants
        .into_iter()
        .map(|(label, mutate)| {
            let mut config = base_config(System::ApeCache, opts, &DummyAppConfig::default(), 30);
            mutate(&mut config);
            (label, config)
        })
        .collect()
}

/// Ablations: PACM fairness repair, the DNS short-circuit, LRU and the
/// prefetching extension, each toggled independently at default
/// parameters ([`ablation_configs`]).
pub fn ablations(opts: &ReproOptions) -> String {
    let mut out = String::from("Design ablations at default parameters\n\n");
    out.push_str(&format!(
        "{:<34} {:>10} {:>10} {:>12} {:>12}\n",
        "Variant", "hit", "high hit", "lookup ms", "app ms"
    ));
    let (labels, configs): (Vec<_>, Vec<_>) = ablation_configs(opts).into_iter().unzip();
    for (label, s) in labels.iter().zip(run_batch(opts, &configs)) {
        out.push_str(&format!(
            "{:<34} {:>10.3} {:>10.3} {:>12.2} {:>12.2}\n",
            label, s.hit_ratio, s.high_priority_hit_ratio, s.lookup_ms, s.app_latency_ms
        ));
    }
    out
}
