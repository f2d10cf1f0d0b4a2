//! One function per table/figure of the paper (plus the extension
//! experiments X1–X4 of DESIGN.md), each returning structured rows.

use autoplat_admission::app::{AppId, Application};
use autoplat_admission::e2e::{noc_path_curve, ResourceChain};
use autoplat_admission::modes::{rate_series, SymmetricPolicy, WeightedPolicy};
use autoplat_admission::rm::ResourceManager;
use autoplat_cache::ClusterPartCr;
use autoplat_core::platform::{Platform, PlatformConfig};
use autoplat_core::workload::Workload;
use autoplat_dram::request::MasterId;
use autoplat_dram::service_curve::rate_latency_abstraction;
use autoplat_dram::timing::presets::ddr3_1600;
use autoplat_dram::wcd::{bounds, WcdError, WcdParams};
use autoplat_dram::{
    adversarial_wcd_workload, validation_controller, ControllerConfig, FrFcfsController, Request,
    RequestKind,
};
use autoplat_mpam::control::CachePortionPartitioning;
use autoplat_mpam::PartId;
use autoplat_netcalc::arrival::gbps_bucket;
use autoplat_sim::metrics::MetricsRegistry;
use autoplat_sim::{SimDuration, SimTime};

/// The read-queue position `N` calibrated so the 4 Gbps point of Table II
/// lands in the paper's ~2 µs range (see EXPERIMENTS.md).
pub const TABLE2_QUEUE_POSITION: u32 = 16;

/// One row of Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Parameter name (e.g. `"tRCD"`).
    pub name: &'static str,
    /// Value in nanoseconds.
    pub ns: f64,
}

/// Table I: the DDR3-1600 timing parameters.
pub fn table1() -> Vec<Table1Row> {
    let t = ddr3_1600();
    vec![
        Table1Row {
            name: "tCK",
            ns: t.t_ck,
        },
        Table1Row {
            name: "tBurst",
            ns: t.t_burst,
        },
        Table1Row {
            name: "tRCD",
            ns: t.t_rcd,
        },
        Table1Row {
            name: "tCL",
            ns: t.t_cl,
        },
        Table1Row {
            name: "tRP",
            ns: t.t_rp,
        },
        Table1Row {
            name: "tRAS",
            ns: t.t_ras,
        },
        Table1Row {
            name: "tRRD",
            ns: t.t_rrd,
        },
        Table1Row {
            name: "tXAW",
            ns: t.t_xaw,
        },
        Table1Row {
            name: "tRFC",
            ns: t.t_rfc,
        },
        Table1Row {
            name: "tWR",
            ns: t.t_wr,
        },
        Table1Row {
            name: "tWTR",
            ns: t.t_wtr,
        },
        Table1Row {
            name: "tRTP",
            ns: t.t_rtp,
        },
        Table1Row {
            name: "tRTW",
            ns: t.t_rtw,
        },
        Table1Row {
            name: "tCS",
            ns: t.t_cs,
        },
        Table1Row {
            name: "tREFI",
            ns: t.t_refi,
        },
        Table1Row {
            name: "tXP",
            ns: t.t_xp,
        },
        Table1Row {
            name: "tXS",
            ns: t.t_xs,
        },
    ]
}

/// One row of Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Write arrival rate in Gbps.
    pub write_rate_gbps: f64,
    /// Lower bound on the WCD in ns.
    pub lower_ns: f64,
    /// Upper bound on the WCD in ns.
    pub upper_ns: f64,
}

/// Table II: upper and lower WCD bounds vs write rate, with the paper's
/// controller parameters (`W_high = 55`, `N_wd = 16`, `N_cap = 16`,
/// burst 8) on DDR3-1600.
///
/// # Panics
///
/// Panics if a rate in the paper's range unexpectedly saturates.
pub fn table2() -> Vec<Table2Row> {
    [4.0, 5.0, 6.0, 7.0]
        .iter()
        .map(|&gbps| {
            let params = WcdParams {
                timing: ddr3_1600(),
                config: ControllerConfig::paper(),
                writes: gbps_bucket(gbps, 8, 8),
                queue_position: TABLE2_QUEUE_POSITION,
            };
            let (lower, upper) = bounds(&params).expect("stable in the paper's range");
            Table2Row {
                write_rate_gbps: gbps,
                lower_ns: lower.delay_ns,
                upper_ns: upper.delay_ns,
            }
        })
        .collect()
}

/// One row of the Fig. 2 worked example.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Row {
    /// Partition group 0..=3.
    pub group: u8,
    /// Owning scheme ID, if private.
    pub owner: Option<u8>,
    /// The way mask of the owner in a 16-way L3.
    pub way_mask: u64,
}

/// Fig. 2: decodes the paper's `CLUSTERPARTCR = 0x8000_4201` example.
///
/// # Panics
///
/// Panics if the constant register value fails to decode (it does not).
pub fn fig2() -> (u32, Vec<Fig2Row>) {
    let reg = ClusterPartCr::from_bits(0x8000_4201).expect("paper example decodes");
    let rows = (0..4u8)
        .map(|g| {
            let group = autoplat_cache::PartitionGroup::new(g);
            let owner = reg.owner_of(group);
            Fig2Row {
                group: g,
                owner: owner.map(|s| s.value()),
                way_mask: owner.map_or(0, |s| reg.way_mask(s, 16) & group.way_mask(16)),
            }
        })
        .collect();
    (reg.bits(), rows)
}

/// One row of the Fig. 3 example.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Row {
    /// Cache portion index.
    pub portion: u32,
    /// Whether PARTID 0 may allocate.
    pub partid0: bool,
    /// Whether PARTID 1 may allocate.
    pub partid1: bool,
}

/// Fig. 3: an 8-portion cache apportioned between two PARTIDs with two
/// private portions each and one shared.
///
/// # Panics
///
/// Panics if the constant bitmaps fail validation (they do not).
pub fn fig3() -> Vec<Fig3Row> {
    let mut c = CachePortionPartitioning::new(8).expect("8 portions");
    c.set_bitmap(PartId(0), 0b0000_0111).expect("in range");
    c.set_bitmap(PartId(1), 0b0001_1100).expect("in range");
    (0..8)
        .map(|p| Fig3Row {
            portion: p,
            partid0: c.may_allocate(PartId(0), p),
            partid1: c.may_allocate(PartId(1), p),
        })
        .collect()
}

/// One mode switch from the Fig. 5 behavioural run.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Event {
    /// When the switch happened (ns).
    pub at_ns: f64,
    /// `"switch-to-write"` or `"switch-to-read"`.
    pub direction: String,
    /// Write-queue depth at the switch.
    pub write_queue_depth: i64,
}

/// Fig. 5: drives the FR-FCFS controller through watermark-triggered
/// read/write switches and returns the observed transitions, publishing
/// the controller's `dram.*` observability into `metrics`.
pub fn fig5(metrics: &mut MetricsRegistry) -> Vec<Fig5Event> {
    let cfg = ControllerConfig::paper().with_watermarks(8, 24);
    let ctrl = FrFcfsController::new(ddr3_1600(), cfg, 8);
    let mut reqs = Vec::new();
    let mut id = 0u64;
    // A steady read stream keeping the read queue busy.
    for i in 0..600u64 {
        reqs.push(Request::new(
            id,
            MasterId(0),
            RequestKind::Read,
            (i % 8) as u32,
            i,
            SimTime::from_ns(i as f64 * 12.0),
        ));
        id += 1;
    }
    // Write bursts that cross the high watermark periodically.
    for burst in 0..6u64 {
        for k in 0..30u64 {
            reqs.push(Request::new(
                id,
                MasterId(1),
                RequestKind::Write,
                ((burst + k) % 8) as u32,
                1000 + k,
                SimTime::from_ns(burst as f64 * 1000.0 + k as f64 * 2.0),
            ));
            id += 1;
        }
    }
    let out = ctrl.simulate_with_metrics(reqs, true, metrics);
    out.trace
        .entries()
        .iter()
        .filter(|e| e.tag.starts_with("switch"))
        .map(|e| Fig5Event {
            at_ns: e.at.as_ns(),
            direction: e.tag.to_string(),
            write_queue_depth: e.value.unwrap_or(0),
        })
        .collect()
}

/// One admitted flow of the Fig. 6 end-to-end scenario.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// The application.
    pub app: u32,
    /// Its RM-assigned injection rate (requests/ns).
    pub rate: f64,
    /// The end-to-end delay bound across NoC + DRAM (ns).
    pub e2e_bound_ns: f64,
    /// The looser hop-by-hop bound (ns), for contrast.
    pub hop_by_hop_ns: f64,
}

/// Fig. 6: the RM admits three applications, assigns rates, and the
/// end-to-end guarantee across the NoC + DRAM chain is computed per flow.
///
/// # Panics
///
/// Panics if the fixed scenario unexpectedly fails admission or bounds.
pub fn fig6() -> Vec<Fig6Row> {
    // Total capacity 0.02 requests/ns across the memory path.
    let policy = SymmetricPolicy::new(0.02, 4.0);
    let mut rm = ResourceManager::new(policy, 100.0);
    let apps = [
        Application::best_effort(AppId(0), 0),
        Application::best_effort(AppId(1), 5),
        Application::best_effort(AppId(2), 10),
    ];
    let mut last = None;
    for (i, app) in apps.iter().enumerate() {
        last = Some(rm.request_admission(*app, SimTime::from_ns(i as f64 * 1000.0)));
    }
    let outcome = last.expect("apps admitted");
    assert!(outcome.admitted, "symmetric policy admits all");

    let dram = rate_latency_abstraction(
        &WcdParams {
            timing: ddr3_1600(),
            config: ControllerConfig::paper(),
            writes: gbps_bucket(4.0, 8, 8),
            queue_position: 1,
        },
        32,
    )
    .expect("stable at 4 Gbps");
    let chain = ResourceChain::new()
        .stage("noc", noc_path_curve(6, 2, 1.0, 1.0))
        .stage("dram", dram);

    outcome
        .rates
        .iter()
        .map(|(app, tb)| {
            let e2e = chain.delay_bound(tb).expect("admitted rates are stable");
            let hbh = chain
                .delay_bound_hop_by_hop(tb)
                .expect("admitted rates are stable");
            Fig6Row {
                app: app.0,
                rate: tb.rate(),
                e2e_bound_ns: e2e,
                hop_by_hop_ns: hbh,
            }
        })
        .collect()
}

/// One point of the Fig. 7 series.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Row {
    /// System mode (number of active applications).
    pub mode: usize,
    /// Symmetric-policy rate of every application.
    pub symmetric_rate: f64,
    /// Weighted-policy rate of the critical application.
    pub critical_rate: f64,
    /// Weighted-policy rate of each best-effort application.
    pub best_effort_rate: f64,
}

/// Fig. 7: adaptive injection rates vs system mode, symmetric and
/// non-symmetric.
pub fn fig7(max_mode: usize) -> Vec<Fig7Row> {
    let template: Vec<Application> = std::iter::once(Application::critical(AppId(0), 0, 300))
        .chain((1..max_mode as u32).map(|i| Application::best_effort(AppId(i), i)))
        .collect();
    let sym = SymmetricPolicy::new(1.0, 8.0);
    let weighted = WeightedPolicy::new(1.0, 8.0, 0.0);
    let sym_series = rate_series(&sym, &template, max_mode);
    let w_series = rate_series(&weighted, &template, max_mode);
    sym_series
        .iter()
        .zip(&w_series)
        .map(|((mode, sym_rates), (_, w_rates))| Fig7Row {
            mode: mode.0,
            symmetric_rate: sym_rates[0].1,
            critical_rate: w_rates[0].1,
            best_effort_rate: w_rates.get(1).map_or(0.0, |(_, r)| *r),
        })
        .collect()
}

/// One row of the interference experiment (X1).
#[derive(Debug, Clone)]
pub struct InterferenceRow {
    /// Number of co-running bandwidth hogs.
    pub hogs: usize,
    /// Probe mean read latency (ns).
    pub mean_latency_ns: f64,
    /// Probe worst read latency (ns).
    pub max_latency_ns: f64,
    /// Inflation vs the solo run.
    pub slowdown: f64,
}

/// X1: read-latency inflation of a latency probe under 0..=3 co-running
/// bandwidth hogs (the \[2\]-style characterization).
pub fn interference() -> Vec<InterferenceRow> {
    let mut platform = Platform::new(PlatformConfig::tiny());
    let mut rows = Vec::new();
    let mut solo_mean = 0.0;
    for hogs in 0..=3usize {
        let mut load = vec![Workload::latency_probe(0, 3000)];
        for h in 0..hogs {
            load.push(Workload::bandwidth_hog(h + 1, 40_000));
        }
        let report = platform.run(&load);
        let mean = report.cores[0].mean_read_latency();
        let max = report.cores[0].read_latency.max().unwrap_or(0.0);
        if hogs == 0 {
            solo_mean = mean;
        }
        rows.push(InterferenceRow {
            hogs,
            mean_latency_ns: mean,
            max_latency_ns: max,
            slowdown: mean / solo_mean,
        });
    }
    rows
}

/// One row of the cache-partitioning ablation (X2).
#[derive(Debug, Clone)]
pub struct CacheAblationRow {
    /// Private ways granted to the critical core (0 = unpartitioned).
    pub critical_ways: u32,
    /// Critical probe L3 hit rate.
    pub critical_hit_rate: f64,
    /// Critical probe mean latency (ns).
    pub critical_mean_ns: f64,
    /// Best-effort hog L3 hit rate (shows the §II coupling: shrinking
    /// their share drives *their* DRAM traffic up).
    pub hog_hit_rate: f64,
    /// Total DRAM busy time (µs).
    pub dram_busy_us: f64,
}

/// X2: sweep of the way split between a critical probe and a hog.
pub fn ablation_cache() -> Vec<CacheAblationRow> {
    let mut rows = Vec::new();
    for critical_ways in [0u32, 2, 4, 8, 12, 14] {
        let mut platform = Platform::new(PlatformConfig::tiny());
        if critical_ways > 0 {
            let critical_mask = (1u64 << critical_ways) - 1;
            platform.set_core_way_mask(0, critical_mask);
            for hog in 1..4 {
                platform.set_core_way_mask(hog, 0xFFFF & !critical_mask);
            }
        }
        let report = platform.run(&[
            Workload::latency_probe(0, 4000),
            Workload::bandwidth_hog(1, 40_000),
            Workload::bandwidth_hog(2, 40_000),
            Workload::bandwidth_hog(3, 40_000),
        ]);
        rows.push(CacheAblationRow {
            critical_ways,
            critical_hit_rate: report.cores[0].l3_hit_rate(),
            critical_mean_ns: report.cores[0].mean_read_latency(),
            hog_hit_rate: report.cores[1].l3_hit_rate(),
            dram_busy_us: report.dram_busy.as_us(),
        });
    }
    rows
}

/// One row of the MemGuard ablation (X3).
#[derive(Debug, Clone)]
pub struct MemguardAblationRow {
    /// Hog budget in bytes per 10 µs period (`None` = unregulated).
    pub hog_budget: Option<u64>,
    /// Probe mean read latency (ns).
    pub probe_mean_ns: f64,
    /// Hog completion time (µs) — the utilization cost of throttling.
    pub hog_finish_us: f64,
    /// Time the hog spent throttled (µs).
    pub hog_throttled_us: f64,
}

/// X3: sweep of the hog's MemGuard budget.
pub fn ablation_memguard() -> Vec<MemguardAblationRow> {
    let load = [
        Workload::latency_probe(0, 3000),
        Workload::bandwidth_hog(1, 40_000),
    ];
    let mut rows = Vec::new();
    let mut platform = Platform::new(PlatformConfig::tiny());
    let base = platform.run(&load);
    rows.push(MemguardAblationRow {
        hog_budget: None,
        probe_mean_ns: base.cores[0].mean_read_latency(),
        hog_finish_us: base.cores[1].finished_at.as_us(),
        hog_throttled_us: 0.0,
    });
    for budget in [1u64 << 16, 16384, 4096, 1024, 256] {
        let cfg = PlatformConfig::tiny().with_memguard(
            SimDuration::from_us(10.0),
            vec![1 << 40, budget, 1 << 40, 1 << 40],
        );
        let mut platform = Platform::new(cfg);
        let report = platform.run(&load);
        rows.push(MemguardAblationRow {
            hog_budget: Some(budget),
            probe_mean_ns: report.cores[0].mean_read_latency(),
            hog_finish_us: report.cores[1].finished_at.as_us(),
            hog_throttled_us: report.cores[1].throttled.as_us(),
        });
    }
    rows
}

/// One row of the WCD validation sweep.
#[derive(Debug, Clone)]
pub struct ValidationRow {
    /// Read-queue position of the probe.
    pub queue_position: u32,
    /// Analytic lower bound (ns).
    pub lower_ns: f64,
    /// Simulated probe completion under an adversarial workload (ns).
    pub simulated_ns: f64,
    /// Analytic upper bound (ns).
    pub upper_ns: f64,
}

/// Validation: the FR-FCFS simulator driven by an adversarial workload
/// (N misses ahead of the probe, hot-row hits, saturating writes) must
/// complete the probe within the analytic bounds of §IV-A, for every
/// queue position. Publishes the controller's `dram.*` observability
/// (accumulated across all queue positions) plus sweep-level
/// `wcd.validation.*` metrics into `metrics`.
///
/// # Errors
///
/// Returns the first [`WcdError`] hit while sweeping queue positions
/// `1..=max_position` — [`WcdError::Saturated`] or
/// [`WcdError::NotConverged`] with its `iterations`/`write_batches`/
/// `refreshes` diagnostics — instead of swallowing non-convergence or
/// panicking mid-sweep.
pub fn validation_wcd(
    max_position: u32,
    gbps: f64,
    metrics: &mut MetricsRegistry,
) -> Result<Vec<ValidationRow>, WcdError> {
    let cfg = ControllerConfig::paper();
    let timing = ddr3_1600();
    let writes = gbps_bucket(gbps, 8, 8);
    let mut rows = Vec::with_capacity(max_position as usize);
    for n in 1..=max_position {
        let params = WcdParams {
            timing: timing.clone(),
            config: cfg,
            writes,
            queue_position: n,
        };
        let (lower, upper) = bounds(&params)?;

        // Adversarial simulation: N distinct-row misses on bank 0 (the
        // probe is the Nth), N_cap hot hits, writes batched at N_wd on
        // their own bank — the controller the analysis describes.
        let ctrl = validation_controller(&params);
        let reqs = adversarial_wcd_workload(&params, upper.delay_ns);
        let out = ctrl.simulate_with_metrics(reqs, false, metrics);
        let simulated_ns = out
            .completions
            .iter()
            .find(|c| c.request.id == n as u64 - 1)
            .expect("probe served")
            .finished
            .as_ns();
        rows.push(ValidationRow {
            queue_position: n,
            lower_ns: lower.delay_ns,
            simulated_ns,
            upper_ns: upper.delay_ns,
        });
    }
    metrics.counter_add("wcd.validation.rows", rows.len() as u64);
    for row in &rows {
        metrics.observe("wcd.validation.tightness", row.simulated_ns / row.upper_ns);
    }
    if let Some(last) = rows.last() {
        metrics.gauge_set("wcd.validation.upper_ns_at_max_n", last.upper_ns);
        metrics.gauge_set(
            "wcd.validation.tightness_at_max_n",
            last.simulated_ns / last.upper_ns,
        );
    }
    Ok(rows)
}

/// One row of the controller design-space ablation (X5).
#[derive(Debug, Clone)]
pub struct ControllerAblationRow {
    /// Write batch length.
    pub n_wd: u32,
    /// Hit promotion cap.
    pub n_cap: u32,
    /// WCD upper bound at 4 Gbps writes (ns), if finite.
    pub wcd_4gbps_ns: Option<f64>,
    /// Highest write rate (Gbps) admissible under a 3 µs WCD target.
    pub max_rate_for_3us: f64,
}

/// X5: the §IV-A closing claim — "one can design controllers with
/// appropriate parameter values so as to meet pre-specified guarantees".
/// Sweeps `(N_wd, N_cap)` and reports both the bound and the admissible
/// write-rate headroom of each configuration.
pub fn ablation_controller() -> Vec<ControllerAblationRow> {
    use autoplat_dram::design::{max_admissible_write_rate, sweep};
    let base = WcdParams {
        timing: ddr3_1600(),
        config: ControllerConfig::paper(),
        writes: gbps_bucket(4.0, 8, 8),
        queue_position: TABLE2_QUEUE_POSITION,
    };
    sweep(&base, &[8, 16, 32], &[4, 16, 32])
        .into_iter()
        .map(|p| {
            let cfg_params = WcdParams {
                config: base.config.with_n_wd(p.n_wd).with_n_cap(p.n_cap),
                ..base.clone()
            };
            ControllerAblationRow {
                n_wd: p.n_wd,
                n_cap: p.n_cap,
                wcd_4gbps_ns: p.wcd_ns,
                max_rate_for_3us: max_admissible_write_rate(&cfg_params, 3000.0, 12.0, 8),
            }
        })
        .collect()
}

/// One row of the NoC priority-partitioning ablation (X7).
#[derive(Debug, Clone)]
pub struct PriorityAblationRow {
    /// Priority of the critical flow (0 = no differentiation).
    pub critical_priority: u8,
    /// Mean latency of the critical flow (cycles).
    pub critical_mean_cycles: f64,
    /// Mean latency of the background traffic (cycles).
    pub background_mean_cycles: f64,
}

/// X7: MPAM-style priority partitioning in the NoC (§III-B.4): a critical
/// flow crossing a congested region, with and without elevated priority.
pub fn ablation_priority() -> Vec<PriorityAblationRow> {
    use autoplat_noc::{NocConfig, NocSim, NodeId, Packet};
    [0u8, 3, 7]
        .into_iter()
        .map(|prio| {
            let mut noc = NocSim::new(NocConfig::new(4, 4));
            let sink = NodeId::at(3, 1, 4);
            let mut id = 0u64;
            let mut background = Vec::new();
            for k in 0..60u64 {
                for src in [
                    NodeId::at(0, 0, 4),
                    NodeId::at(0, 2, 4),
                    NodeId::at(1, 3, 4),
                ] {
                    noc.inject(Packet::new(id, src, sink, 4), k * 3);
                    background.push(id);
                    id += 1;
                }
            }
            let mut critical = Vec::new();
            for k in 0..30u64 {
                noc.inject(
                    Packet::new(id, NodeId::at(0, 1, 4), sink, 4).with_priority(prio),
                    k * 10,
                );
                critical.push(id);
                id += 1;
            }
            assert!(noc.run_until_idle(5_000_000), "traffic must drain");
            let mean = |ids: &[u64]| -> f64 {
                noc.completed()
                    .iter()
                    .filter(|r| ids.contains(&r.packet.id))
                    .map(|r| r.latency_cycles() as f64)
                    .sum::<f64>()
                    / ids.len() as f64
            };
            PriorityAblationRow {
                critical_priority: prio,
                critical_mean_cycles: mean(&critical),
                background_mean_cycles: mean(&background),
            }
        })
        .collect()
}

/// One row of the cluster-L2 ablation (X8).
#[derive(Debug, Clone)]
pub struct ClusterL2Row {
    /// Configuration label.
    pub config: String,
    /// Probe L2 hit share (hits / accesses).
    pub probe_l2_hit_share: f64,
    /// Probe mean read latency (ns).
    pub probe_mean_ns: f64,
}

/// X8: §II's cluster observation — "pinning a process on one core of a
/// cluster still will not resolve the interference from the other core
/// … on the L2 cache". A probe and a hog share a cluster L2; L3
/// partitioning alone does not protect the probe's L2 locality, L2
/// partitioning does.
pub fn ablation_cluster_l2() -> Vec<ClusterL2Row> {
    use autoplat_cache::CacheConfig;
    let l2 = CacheConfig::new(128, 8, 64); // 64 KiB per-cluster L2
    let load = [
        Workload::latency_probe(0, 3000),
        Workload::bandwidth_hog(1, 30_000),
    ];
    let mut rows = Vec::new();
    let mut run = |label: &str, partition_l3: bool, partition_l2: bool| {
        let cfg = PlatformConfig::tiny().with_cluster_l2(2, l2, 10.0);
        let mut platform = Platform::new(cfg);
        if partition_l3 {
            platform.set_core_way_mask(0, 0x00FF);
            platform.set_core_way_mask(1, 0xFF00);
        }
        if partition_l2 {
            platform.set_core_l2_way_mask(0, 0x0F);
            platform.set_core_l2_way_mask(1, 0xF0);
        }
        let report = platform.run(&load);
        rows.push(ClusterL2Row {
            config: label.to_string(),
            probe_l2_hit_share: report.cores[0].l2_hits as f64 / report.cores[0].accesses as f64,
            probe_mean_ns: report.cores[0].mean_read_latency(),
        });
    };
    run("shared L2 + shared L3", false, false);
    run("shared L2 + partitioned L3", true, false);
    run("partitioned L2 + partitioned L3", true, true);
    rows
}

/// One row of the scheduling-policy ablation (X4).
#[derive(Debug, Clone)]
pub struct SchedAblationRow {
    /// Policy name.
    pub policy: String,
    /// Task sets (out of the trials) with zero deadline misses.
    pub schedulable_sets: usize,
    /// Trials evaluated.
    pub trials: usize,
}

/// X4: partitioned vs global fixed-priority scheduling over random task
/// sets at the given per-core utilization on 4 cores.
pub fn ablation_sched(trials: usize, util_per_core: f64) -> Vec<SchedAblationRow> {
    use autoplat_sched::partition::first_fit_decreasing;
    use autoplat_sched::simulate::{simulate_global_fp, simulate_partitioned_fp};
    use autoplat_sched::task::TaskSet;
    use autoplat_sim::SimRng;

    let cores = 4;
    let mut rng = SimRng::seed_from(2021);
    let mut global_ok = 0;
    let mut partitioned_ok = 0;
    let horizon = SimDuration::from_us(20_000.0);
    for _ in 0..trials {
        let ts = TaskSet::generate(
            12,
            util_per_core * cores as f64,
            SimDuration::from_us(100.0),
            SimDuration::from_us(2_000.0),
            &mut rng,
        )
        .rate_monotonic();
        if simulate_global_fp(ts.tasks(), cores, horizon).all_deadlines_met() {
            global_ok += 1;
        }
        if let Ok(partition) = first_fit_decreasing(ts.tasks(), cores) {
            if simulate_partitioned_fp(&partition, horizon).all_deadlines_met() {
                partitioned_ok += 1;
            }
        }
    }
    vec![
        SchedAblationRow {
            policy: "global-fp".to_string(),
            schedulable_sets: global_ok,
            trials,
        },
        SchedAblationRow {
            policy: "partitioned-fp".to_string(),
            schedulable_sets: partitioned_ok,
            trials,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_constants() {
        let rows = table1();
        assert_eq!(rows.len(), 17);
        assert_eq!(
            rows.iter().find(|r| r.name == "tRFC").expect("present").ns,
            260.0
        );
        assert_eq!(
            rows.iter().find(|r| r.name == "tCK").expect("present").ns,
            1.25
        );
    }

    #[test]
    fn table2_shape_holds() {
        let rows = table2();
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.lower_ns <= r.upper_ns, "{r:?}");
        }
        // Monotone in write rate; superlinear at the end; µs range.
        assert!(rows[0].upper_ns > 1500.0 && rows[0].upper_ns < 3000.0);
        assert!(rows.windows(2).all(|w| w[1].upper_ns > w[0].upper_ns));
        let d_last = rows[3].upper_ns - rows[2].upper_ns;
        let d_first = rows[1].upper_ns - rows[0].upper_ns;
        assert!(d_last > d_first, "growth must accelerate");
        // Gap widens towards saturation.
        let gap = |r: &Table2Row| r.upper_ns - r.lower_ns;
        assert!(gap(&rows[3]) > gap(&rows[0]));
    }

    #[test]
    fn fig2_decodes_paper_value() {
        let (bits, rows) = fig2();
        assert_eq!(bits, 0x8000_4201);
        assert_eq!(rows[3].owner, Some(7));
        assert_eq!(rows[3].way_mask, 0xF000);
        assert_eq!(rows[1].owner, Some(2));
    }

    #[test]
    fn fig3_shared_and_private_portions() {
        let rows = fig3();
        assert_eq!(rows.len(), 8);
        // Portion 2 shared, 0 private to PARTID0, 4 private to PARTID1.
        assert!(rows[2].partid0 && rows[2].partid1);
        assert!(rows[0].partid0 && !rows[0].partid1);
        assert!(!rows[4].partid0 && rows[4].partid1);
    }

    #[test]
    fn fig5_observes_both_switch_directions() {
        let events = fig5(&mut MetricsRegistry::new());
        assert!(events.iter().any(|e| e.direction == "switch-to-write"));
        assert!(events.iter().any(|e| e.direction == "switch-to-read"));
        // Write switches happen at/above the watermark.
        for e in events.iter().filter(|e| e.direction == "switch-to-write") {
            assert!(
                e.write_queue_depth >= 8,
                "depth {} below W_low",
                e.write_queue_depth
            );
        }
    }

    #[test]
    fn fig6_e2e_tighter_than_hop_by_hop() {
        let rows = fig6();
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.e2e_bound_ns <= r.hop_by_hop_ns);
            assert!(r.e2e_bound_ns > 0.0);
        }
    }

    #[test]
    fn fig7_series_shapes() {
        let rows = fig7(8);
        assert_eq!(rows.len(), 8);
        for w in rows.windows(2) {
            assert!(w[1].symmetric_rate < w[0].symmetric_rate);
        }
        // Best-effort rates fall monotonically once best-effort apps
        // exist (mode 1 is the critical app alone).
        for w in rows[1..].windows(2) {
            assert!(w[1].best_effort_rate <= w[0].best_effort_rate + 1e-12);
        }
        assert!(rows.iter().all(|r| (r.critical_rate - 0.3).abs() < 1e-12));
    }

    #[test]
    fn interference_monotone() {
        let rows = interference();
        assert_eq!(rows.len(), 4);
        assert!((rows[0].slowdown - 1.0).abs() < 1e-9);
        assert!(rows[3].slowdown > 1.5, "3 hogs: {:.2}x", rows[3].slowdown);
        assert!(rows[3].mean_latency_ns >= rows[1].mean_latency_ns);
    }

    #[test]
    fn cache_ablation_shows_isolation_and_coupling() {
        let rows = ablation_cache();
        let unpartitioned = &rows[0];
        let generous = rows.iter().find(|r| r.critical_ways == 8).expect("present");
        assert!(generous.critical_hit_rate > unpartitioned.critical_hit_rate);
        // Coupling: squeezing the hog into fewer ways cannot improve its
        // hit rate.
        let squeezed = rows.last().expect("non-empty");
        assert!(squeezed.hog_hit_rate <= unpartitioned.hog_hit_rate + 0.05);
    }

    #[test]
    fn memguard_ablation_tradeoff() {
        let rows = ablation_memguard();
        let base = &rows[0];
        let tightest = rows.last().expect("non-empty");
        assert!(tightest.probe_mean_ns <= base.probe_mean_ns + 1e-9);
        assert!(
            tightest.hog_finish_us > base.hog_finish_us,
            "throttling must cost hog throughput"
        );
        assert!(tightest.hog_throttled_us > 0.0);
    }

    #[test]
    fn simulated_probe_always_within_analytic_bounds() {
        for row in validation_wcd(16, 4.0, &mut MetricsRegistry::new()).expect("finite bound") {
            assert!(
                row.simulated_ns <= row.upper_ns + 1e-6,
                "N={}: simulated {} above upper bound {}",
                row.queue_position,
                row.simulated_ns,
                row.upper_ns
            );
            assert!(row.lower_ns <= row.upper_ns);
        }
        // The adversarial schedule tightens against the bound as N grows.
        let rows = validation_wcd(24, 4.0, &mut MetricsRegistry::new()).expect("finite bound");
        let first = &rows[0];
        let last = rows.last().expect("non-empty");
        assert!(
            last.simulated_ns / last.upper_ns > first.simulated_ns / first.upper_ns,
            "tightness must improve with N"
        );
        // Residual slack the simulation can never close: the bound charges
        // one potentially in-flight refresh (tRFC) the simulator does not
        // start with, and admits write batches over the bound's own
        // (longer) window rather than the probe's actual completion window
        // (DESIGN.md §9).
        assert!(last.simulated_ns / last.upper_ns > 0.75);
        let structural_slack_ns =
            ddr3_1600().t_rfc + 3.0 * ddr3_1600().write_batch_cost(ControllerConfig::paper().n_wd);
        assert!(last.upper_ns - last.simulated_ns <= structural_slack_ns + 1e-6);
    }

    #[test]
    fn validation_sweep_surfaces_non_convergence() {
        // A write rate a hair under saturation passes the rho < 1 guard
        // but puts the fixpoint beyond the iteration limit. The sweep
        // must hand back the NotConverged diagnostics, not swallow them
        // into a bogus row or panic mid-iteration.
        let t = ddr3_1600();
        let cfg = ControllerConfig::paper();
        let r_crit = (1.0 - t.t_rfc / t.t_refi) * cfg.n_wd as f64 / t.write_batch_cost(cfg.n_wd);
        let gbps = r_crit * (1.0 - 1e-10) * 8.0 * 8.0; // requests/ns -> Gbps
        let mut metrics = MetricsRegistry::new();
        match validation_wcd(4, gbps, &mut metrics) {
            Err(WcdError::NotConverged {
                iterations,
                write_batches,
                ..
            }) => {
                assert_eq!(iterations, 100_000);
                assert!(write_batches > 0);
            }
            other => panic!("expected NotConverged to surface, got {other:?}"),
        }
        // Nothing partial leaks into the sweep-level metrics.
        assert_eq!(metrics.counter("wcd.validation.rows"), 0);
    }

    #[test]
    fn controller_ablation_design_tradeoffs() {
        let rows = ablation_controller();
        assert_eq!(rows.len(), 9);
        // Larger batches admit more write bandwidth at the same target.
        let small = rows
            .iter()
            .find(|r| r.n_wd == 8 && r.n_cap == 16)
            .expect("present");
        let large = rows
            .iter()
            .find(|r| r.n_wd == 32 && r.n_cap == 16)
            .expect("present");
        assert!(large.max_rate_for_3us > small.max_rate_for_3us);
        // Larger hit caps worsen the WCD at fixed batch length.
        let low_cap = rows
            .iter()
            .find(|r| r.n_wd == 16 && r.n_cap == 4)
            .expect("present");
        let high_cap = rows
            .iter()
            .find(|r| r.n_wd == 16 && r.n_cap == 32)
            .expect("present");
        assert!(high_cap.wcd_4gbps_ns.expect("stable") > low_cap.wcd_4gbps_ns.expect("stable"));
    }

    #[test]
    fn priority_ablation_shields_critical_flow() {
        let rows = ablation_priority();
        assert_eq!(rows.len(), 3);
        let base = &rows[0];
        let high = rows.last().expect("non-empty");
        assert!(
            high.critical_mean_cycles < base.critical_mean_cycles,
            "priority must reduce critical latency: {} vs {}",
            high.critical_mean_cycles,
            base.critical_mean_cycles
        );
        // The background pays only marginally.
        assert!(high.background_mean_cycles < base.background_mean_cycles * 1.25);
    }

    #[test]
    fn cluster_l2_ablation_reproduces_pinning_caveat() {
        let rows = ablation_cluster_l2();
        assert_eq!(rows.len(), 3);
        // L3 partitioning alone does not rescue the probe's L2 locality…
        assert!(rows[1].probe_l2_hit_share < 0.2, "{:?}", rows[1]);
        // …but L2 partitioning does, and latency drops accordingly.
        assert!(rows[2].probe_l2_hit_share > 0.5, "{:?}", rows[2]);
        assert!(rows[2].probe_mean_ns < rows[1].probe_mean_ns);
    }

    #[test]
    fn sched_ablation_runs() {
        let rows = ablation_sched(10, 0.6);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.schedulable_sets <= r.trials);
        }
    }
}
