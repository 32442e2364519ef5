//! The experiment implementations. See DESIGN.md's experiment index:
//! E1 = Figure 1, E2 = Table 2, E3–E5 = the worked examples of §3.1–§3.3,
//! E6 = the eq. 4.1 worst case, E7 = the §3.2 approximation validation,
//! E8 = the §5 admission lookup tables, A1–A3 = ablations.

use mzd_bench::Budget;
use mzd_core::transfer::TransferTimeModel;
use mzd_core::{GuaranteeModel, RoundService, TransferTimeDensity, WorstCaseRate, ZoneHandling};
use mzd_disk::profiles;
use mzd_sim::{estimate_p_error, estimate_p_late, SeekPolicy, SimConfig};
use mzd_workload::SizeDistribution;

/// E1 — Figure 1: analytically predicted vs simulated `p_late(N, t=1s)`.
pub fn fig1(budget: Budget) {
    println!("E1 / Figure 1: analytic vs simulated p_late, t = 1 s, Table 1 disk");
    println!("(paper: analytic 1% knee at N = 26; simulated system sustains 28)\n");
    let model = GuaranteeModel::paper_reference().expect("reference model");
    let cfg = SimConfig::paper_reference().expect("reference sim");
    let rounds = budget.scale(20_000);
    let mut analytic = Vec::new();
    let mut simulated = Vec::new();
    println!("  N    analytic b_late    simulated p_late    95% CI");
    // Every N point keeps its historical seed (1000 + N) and the points
    // are independent, so fanning them out across the worker pool leaves
    // the printed table byte-identical to the serial run.
    let ns: Vec<u32> = (14..=34).collect();
    let points = mzd_par::par_map(&ns, |&n| {
        let a = model.p_late_bound(n, 1.0).expect("valid t");
        let s = estimate_p_late(&cfg, n, rounds, 1_000 + u64::from(n)).expect("valid sim");
        (n, a, s)
    });
    for (n, a, s) in &points {
        println!(
            "  {n:2}   {a:>13.5}      {:>13.5}    [{:.5}, {:.5}]",
            s.p_late, s.ci.lo, s.ci.hi
        );
        analytic.push((f64::from(*n), *a));
        simulated.push((f64::from(*n), s.p_late));
    }
    println!(
        "\n{}",
        mzd_bench::plot::log_chart(
            &[
                mzd_bench::plot::Series {
                    label: "analytic bound",
                    marker: 'a',
                    points: analytic
                },
                mzd_bench::plot::Series {
                    label: "simulated",
                    marker: 's',
                    points: simulated
                },
            ],
            64,
            18,
            5.0,
        )
    );
    println!("  rounds per point: {rounds}");
    println!("  expected shape: analytic >= simulated everywhere (conservative model),");
    println!("  both curves rising steeply past N ~ 28.");
}

/// E2 — Table 2: analytic vs simulated `p_error` for N = 28…32.
pub fn table2(budget: Budget) {
    println!("E2 / Table 2: p_error (>= 12 glitches in M = 1200 rounds), t = 1 s\n");
    let model = GuaranteeModel::paper_reference().expect("reference model");
    let cfg = SimConfig::paper_reference().expect("reference sim");
    let batches = budget.scale_batches(40);
    println!(
        "  N    analytic p_error    exact model    simulated p_error    samples    paper (analytic / sim)"
    );
    let paper: [(u32, &str, &str); 5] = [
        (28, "0.00014", "0"),
        (29, "0.318", "0"),
        (30, "1", "0"),
        (31, "1", "0.00678"),
        (32, "1", "0.454"),
    ];
    // As in fig1: independent N points with their historical seeds
    // (2000 + N), run concurrently, printed in order.
    let rows = mzd_par::par_map(&paper, |&(n, pa, ps)| {
        let a = model.p_error_bound(n, 1.0, 1200, 12).expect("valid t");
        let e = model.p_error_exact(n, 1.0, 1200, 12).expect("valid t");
        let s =
            estimate_p_error(&cfg, n, 1200, 12, batches, 2_000 + u64::from(n)).expect("valid sim");
        (n, pa, ps, a, e, s)
    });
    for (n, pa, ps, a, e, s) in &rows {
        println!(
            "  {n}   {a:>15.5}   {e:>11.5}     {:>15.5}     {:>6}     {pa} / {ps}",
            s.p_error, s.stream_samples
        );
    }
    println!("\n  windows per N: {batches} x 1200 rounds");
}

/// E3 — §3.1 worked example: single-zone disk, explicit transfer moments.
pub fn ex31() {
    println!("E3 / §3.1 example: conventional disk, E[T_trans] = 0.02174 s,");
    println!("Var = 0.00011815 s^2, ROT = 8.34 ms, CYL = 6720, t = 1 s\n");
    let curve = profiles::quantum_viking_2_1();
    let seek_curve = mzd_disk::SeekCurve::paper_form(
        curve.seek_sqrt_offset,
        curve.seek_sqrt_coeff,
        curve.seek_lin_offset,
        curve.seek_lin_coeff,
        curve.seek_threshold,
    )
    .expect("valid curve");
    let transfer = TransferTimeModel::from_moments(0.02174, 0.00011815).expect("valid moments");
    for (n, paper) in [(26u32, 0.00225), (27, 0.0103)] {
        let seek = mzd_disk::oyang::seek_bound(&seek_curve, 6720, n);
        let svc = RoundService::new(seek, 0.00834, transfer, n).expect("valid model");
        let b = svc.p_late_bound(1.0);
        println!(
            "  N = {n}: SEEK = {seek:.5} s, p_late <= {:.5}   (paper: {paper})",
            b.probability
        );
    }
    println!("\n  paper: SEEK = 0.10932 s at N = 27");
}

/// E4 — §3.2 worked example: multi-zone disk, Table 1 parameters.
pub fn ex32() {
    println!("E4 / §3.2 example: Table 1 multi-zone disk, t = 1 s\n");
    let model = GuaranteeModel::paper_reference().expect("reference model");
    let tm = model.transfer_model();
    println!(
        "  moment-matched transfer Gamma: E = {:.5} s, Var = {:.3e} s^2, alpha = {:.1}, beta = {:.3}\n",
        tm.mean(),
        tm.variance(),
        tm.alpha(),
        tm.beta()
    );
    for (n, paper) in [(26u32, 0.00324), (27, 0.0133)] {
        let p = model.p_late_bound(n, 1.0).expect("valid t");
        println!("  N = {n}: p_late <= {p:.5}   (paper: {paper})");
    }
    println!(
        "\n  N_max at delta = 1%: {}   (paper: 26)",
        model.n_max_late(1.0, 0.01).expect("valid search")
    );
}

/// E5 — §3.3 worked example + eq. 3.3.6 admission limit.
pub fn ex33() {
    println!("E5 / §3.3 example: per-stream glitch guarantee, M = 1200, g = 12\n");
    let model = GuaranteeModel::paper_reference().expect("reference model");
    let p28 = model.p_error_bound(28, 1.0, 1200, 12).expect("valid t");
    println!("  N = 28: p_error <= {p28:.6}   (paper: <= 0.14e-3)");
    let n_max = model
        .n_max_error(1.0, 1200, 12, 0.01)
        .expect("valid search");
    println!("  N_max at epsilon = 1%: {n_max}   (paper: 28; simulation sustains 31)");
    let pg = model.p_glitch_bound(28, 1.0).expect("valid t");
    println!("  per-round glitch bound b_glitch(28, 1s) = {pg:.6}");
}

/// E6 — eq. 4.1: deterministic worst-case admission limits.
pub fn worst_case() {
    println!("E6 / eq. 4.1: deterministic worst-case admission\n");
    let model = GuaranteeModel::paper_reference().expect("reference model");
    let n1 = model
        .n_max_worst_case(1.0, 0.99, WorstCaseRate::Innermost)
        .expect("valid");
    println!("  99-pct size over C_min/ROT:          N_max^wc = {n1}   (paper: 10)");
    let n2 = model
        .n_max_worst_case(1.0, 0.95, WorstCaseRate::MidRange)
        .expect("valid");
    println!("  95-pct size over (Cmin+Cmax)/2/ROT:  N_max^wc = {n2}   (paper: 14)");
    let stoch = model.n_max_error(1.0, 1200, 12, 0.01).expect("valid");
    println!(
        "\n  stochastic guarantee admits {stoch} streams: {:.1}x the worst case",
        f64::from(stoch) / f64::from(n1)
    );
}

/// E7 — §3.2 Gamma-approximation accuracy for the transfer-time density.
pub fn approx() {
    println!("E7 / §3.2: Gamma approximation of the transfer-time density");
    println!("(paper claim: < 2% relative error for t in [5 ms, 100 ms])\n");
    let disk = profiles::quantum_viking_2_1().build().expect("valid disk");
    let f = TransferTimeDensity::continuous(&disk, 200_000.0, 1e10).expect("valid density");
    let a = f.gamma_approximation().expect("valid approximation");
    println!("  t (ms)   exact f_trans   gamma f_apptrans   rel. error");
    for i in 0..20 {
        let t = 0.005 * f64::from(i + 1);
        let e = f.pdf(t);
        let g = a.pdf(t);
        println!(
            "  {:>5.0}    {e:>12.5}    {g:>14.5}    {:>+8.2}%",
            t * 1000.0,
            100.0 * (g - e) / e
        );
    }
    let bulk = f.max_relative_error(0.010, 0.055, 64).expect("valid");
    let full = f.max_relative_error(0.005, 0.100, 96).expect("valid");
    let tv = f.total_variation_error(0.25).expect("valid");
    println!(
        "\n  max relative error, 10-55 ms (97% of mass):  {:.2}%",
        bulk * 100.0
    );
    println!(
        "  max relative error, 5-100 ms (paper's range): {:.2}%",
        full * 100.0
    );
    println!(
        "  total-variation distance:                     {:.3}%",
        tv * 100.0
    );
    println!("\n  the paper's 2% figure holds on the bulk and in TV distance; the");
    println!("  pointwise error in the deep right tail (density < 0.1% of peak) grows.");
}

/// E8 — §5 admission lookup tables.
pub fn nmax_tables() {
    println!("E8 / §5: precomputed admission lookup tables, Table 1 disk, t = 1 s\n");
    let model = GuaranteeModel::paper_reference().expect("reference model");
    let thresholds = [0.0001, 0.001, 0.005, 0.01, 0.02, 0.05, 0.10, 0.25];
    println!("  per-round overrun target (eq. 3.1.7):");
    let table = model
        .admission_table_late(1.0, &thresholds)
        .expect("valid thresholds");
    println!("    delta      N_max");
    for (d, n) in table.rows() {
        println!("    {d:>7.4}    {n}");
    }
    println!("\n  per-stream glitch-rate target, M = 1200, g = 12 (eq. 3.3.6):");
    let table = model
        .admission_table_error(1.0, 1200, 12, &thresholds)
        .expect("valid thresholds");
    println!("    epsilon    N_max");
    for (e, n) in table.rows() {
        println!("    {e:>7.4}    {n}");
    }
}

/// A1 — ablation: zone handling (multi-zone vs flattenings), analytic and
/// simulated.
pub fn ablate_zone(budget: Budget) {
    println!("A1: zone-handling ablation, t = 1 s\n");
    let profile = profiles::quantum_viking_2_1();
    let multi = profile.build().expect("valid disk");
    let rounds = budget.scale(20_000);

    let exact =
        GuaranteeModel::new(multi.clone(), 200_000.0, 1e10, ZoneHandling::Discrete).expect("valid");
    let cont = GuaranteeModel::new(multi.clone(), 200_000.0, 1e10, ZoneHandling::Continuous)
        .expect("valid");
    let flat =
        GuaranteeModel::new(multi.clone(), 200_000.0, 1e10, ZoneHandling::MeanRate).expect("valid");
    let pess = GuaranteeModel::new(
        profile.pessimistic_single_zone().build().expect("valid"),
        200_000.0,
        1e10,
        ZoneHandling::Discrete,
    )
    .expect("valid");

    let cfg = SimConfig::paper_reference().expect("valid sim");
    println!("  N   discrete   continuous   mean-rate   innermost   simulated");
    for n in [24u32, 26, 28, 30] {
        let s = estimate_p_late(&cfg, n, rounds, 3_000 + u64::from(n)).expect("valid sim");
        println!(
            "  {n:2}  {:>9.5}  {:>10.5}  {:>10.5}  {:>10.5}  {:>9.5}",
            exact.p_late_bound(n, 1.0).expect("valid"),
            cont.p_late_bound(n, 1.0).expect("valid"),
            flat.p_late_bound(n, 1.0).expect("valid"),
            pess.p_late_bound(n, 1.0).expect("valid"),
            s.p_late
        );
    }
    println!("\n  N_max at 1%:");
    for (name, m) in [
        ("discrete  ", &exact),
        ("continuous", &cont),
        ("mean-rate ", &flat),
        ("innermost ", &pess),
    ] {
        println!("    {name}  {}", m.n_max_late(1.0, 0.01).expect("valid"));
    }
}

/// A2 — ablation: SCAN vs independent (FCFS) seeks, simulated.
pub fn ablate_scan(budget: Budget) {
    println!("A2: SCAN vs independent-seek (FCFS) scheduling, simulated, t = 1 s\n");
    let rounds = budget.scale(10_000);
    let mut scan_cfg = SimConfig::paper_reference().expect("valid sim");
    scan_cfg.seek_policy = SeekPolicy::Scan;
    let mut fcfs_cfg = scan_cfg.clone();
    fcfs_cfg.seek_policy = SeekPolicy::Fcfs;
    println!("  N    SCAN p_late   FCFS p_late   SCAN mean svc   FCFS mean svc");
    for n in [16u32, 20, 24, 26, 28] {
        let s = estimate_p_late(&scan_cfg, n, rounds, 4_000 + u64::from(n)).expect("valid");
        let f = estimate_p_late(&fcfs_cfg, n, rounds, 4_000 + u64::from(n)).expect("valid");
        println!(
            "  {n:2}   {:>10.5}   {:>10.5}   {:>10.4} s   {:>10.4} s",
            s.p_late, f.p_late, s.mean_service_time, f.mean_service_time
        );
    }
    println!("\n  expected: FCFS saturates at a much lower N — the reason the paper");
    println!("  models SCAN (via Oyang's bound) instead of independent seeks.");
}

/// A3 — ablation: fragment-size distribution family at matched moments.
pub fn ablate_dist(budget: Budget) {
    println!("A3: size-distribution ablation at matched moments (200 KB, sd 100 KB)\n");
    let rounds = budget.scale(20_000);
    let model = GuaranteeModel::paper_reference().expect("valid model");
    let dists = [
        ("gamma    ", SizeDistribution::paper_default()),
        (
            "lognormal",
            SizeDistribution::log_normal(200_000.0, 1e10).expect("valid"),
        ),
        (
            "pareto   ",
            SizeDistribution::pareto(200_000.0, 1e10).expect("valid"),
        ),
        (
            "constant ",
            SizeDistribution::constant(200_000.0).expect("valid"),
        ),
    ];
    println!("  (analytic bound assumes Gamma; simulation swaps the true law)\n");
    println!("  N   analytic(gamma)   sim gamma   sim lognormal   sim pareto   sim constant");
    for n in [26u32, 28, 30] {
        let a = model.p_late_bound(n, 1.0).expect("valid");
        let mut row = format!("  {n:2}   {a:>14.5}");
        for (_, d) in &dists {
            let mut cfg = SimConfig::paper_reference().expect("valid");
            cfg.sizes = d.clone();
            let s = estimate_p_late(&cfg, n, rounds, 5_000 + u64::from(n)).expect("valid");
            row.push_str(&format!("   {:>9.5}", s.p_late));
        }
        println!("{row}");
    }
    println!("\n  expected: constant sizes glitch least (no size variance); the heavy");
    println!("  tails (lognormal/pareto) glitch slightly more than gamma at equal moments.");
}

/// B3 — saddlepoint vs Chernoff vs simulation: where the conservatism
/// of the paper's admission limit comes from.
pub fn saddlepoint(budget: Budget) {
    println!("B3: the cost of rigor — Chernoff bound vs saddlepoint estimate vs sim\n");
    let model = GuaranteeModel::paper_reference().expect("valid model");
    let cfg = SimConfig::paper_reference().expect("valid sim");
    let rounds = budget.scale(20_000);
    println!("  N    chernoff bound   saddlepoint est.   exact (model)   simulated   (sim 95% CI)");
    for n in [25u32, 26, 27, 28, 29, 30, 31] {
        let ch = model.p_late_bound(n, 1.0).expect("valid");
        let sp = model.p_late_estimate(n, 1.0).expect("valid");
        let ex = model.p_late_exact(n, 1.0).expect("valid");
        let s = estimate_p_late(&cfg, n, rounds, 10_000 + u64::from(n)).expect("valid");
        println!(
            "  {n:2}   {ch:>12.5}   {sp:>14.5}   {ex:>12.5}   {:>9.5}   [{:.5}, {:.5}]",
            s.p_late, s.ci.lo, s.ci.hi
        );
    }
    let n_ch = model.n_max_late(1.0, 0.01).expect("valid");
    let n_sp = mzd_core::admission::n_max(|n| model.p_late_estimate(n, 1.0).expect("valid"), 0.01);
    let n_ex = mzd_core::admission::n_max(|n| model.p_late_exact(n, 1.0).expect("valid"), 0.01);
    println!(
        "\n  N_max at 1%: chernoff {n_ch} (guarantee), saddlepoint {n_sp}, exact model {n_ex}"
    );
    println!("  reading: the exact tail (Gil-Pelaez inversion of the model's");
    println!("  characteristic function) confirms the saddlepoint to ~10%; both say the");
    println!("  modeled system takes 28 streams at 1% — the simulated capacity. The");
    println!("  Chernoff prefactor costs 2 streams; the worst-case SEEK costs the");
    println!("  remaining sliver between the exact model and the simulation.");
}

/// B1 — baseline comparison: Chernoff+SCAN (the paper) vs the related
/// work's CLT/Chebyshev tails with independent seeks, vs simulation.
pub fn baselines(budget: Budget) {
    use mzd_core::baselines::{BaselineTail, SeekMoments, TailMethod};
    println!("B1: tail-method & seek-model baselines ([CZ94]/[CL96]) vs the paper\n");
    let model = GuaranteeModel::paper_reference().expect("valid model");
    let disk = model.disk().clone();
    let ind_seek = SeekMoments::independent_uniform(disk.seek_curve(), disk.cylinders())
        .expect("valid moments");
    println!(
        "  independent-seek moments: mean {:.2} ms, sd {:.2} ms (SCAN amortized at N=27: {:.2} ms)\n",
        ind_seek.mean * 1e3,
        ind_seek.variance.sqrt() * 1e3,
        model.seek_constant(27) / 27.0 * 1e3
    );
    let cfg = SimConfig::paper_reference().expect("valid sim");
    let rounds = budget.scale(20_000);
    println!("  N   chernoff+scan   clt+scan   clt+ind.seeks   cheb+ind.seeks   simulated(scan)");
    for n in [22u32, 24, 26, 28, 30] {
        let chern = model.p_late_bound(n, 1.0).expect("valid");
        let scan_seek = SeekMoments::scan_amortized(model.seek_constant(n), n);
        let clt_scan = BaselineTail::new(
            scan_seek,
            0.00834,
            model.transfer_model(),
            n,
            TailMethod::Normal,
        )
        .expect("valid")
        .p_late(1.0);
        let clt_ind = BaselineTail::new(
            ind_seek,
            0.00834,
            model.transfer_model(),
            n,
            TailMethod::Normal,
        )
        .expect("valid")
        .p_late(1.0);
        let cheb_ind = BaselineTail::new(
            ind_seek,
            0.00834,
            model.transfer_model(),
            n,
            TailMethod::Chebyshev,
        )
        .expect("valid")
        .p_late(1.0);
        let s = estimate_p_late(&cfg, n, rounds, 6_000 + u64::from(n)).expect("valid");
        println!(
            "  {n:2}   {chern:>11.5}   {clt_scan:>9.5}   {clt_ind:>12.5}   {cheb_ind:>12.5}   {:>11.5}",
            s.p_late
        );
    }
    println!("\n  reading: CLT+SCAN *undershoots* the simulation at small tail levels");
    println!("  (not a bound!), the independent-seek variants waste most of the disk,");
    println!("  and Chebyshev is orders of magnitude looser than Chernoff.");
}

/// B2 — mixed continuous/discrete workload (§6 outlook): analytic
/// discrete capacity vs simulated throughput and response times.
pub fn mixed(budget: Budget) {
    use mzd_core::mixed::discrete_capacity;
    use mzd_core::transfer::TransferTimeModel;
    use mzd_sim::{MixedConfig, MixedSimulator};
    println!("B2: mixed workload — discrete requests in the streams' slack (§6)\n");
    let model = GuaranteeModel::paper_reference().expect("valid model");
    let disk = model.disk().clone();
    let discrete_tm = TransferTimeModel::multi_zone(
        &disk,
        20_000.0,
        (20_000.0f64).powi(2),
        ZoneHandling::Discrete,
    )
    .expect("valid");
    let curve = disk.seek_curve().clone();
    let cyl = disk.cylinders();
    let rounds = budget.scale(3_000);
    println!("  discrete objects: 20 KB +- 20 KB; continuous: paper reference\n");
    println!("  N    analytic K_max(1%)   sim served/round   mean resp (rounds)   cont. p_late");
    for n in [12u32, 18, 22, 24, 26] {
        let k_max = discrete_capacity(
            *model.transfer_model(),
            discrete_tm,
            n,
            1.0,
            0.01,
            0.00834,
            |total| mzd_disk::oyang::seek_bound(&curve, cyl, total),
        )
        .expect("valid");
        // Offer arrivals at ~the analytic capacity to see the sim confirm it.
        let rate = f64::from(k_max.max(1)) as f64;
        let mcfg = MixedConfig::paper_reference(rate).expect("valid");
        let mut sim = MixedSimulator::new(mcfg, 7_000 + u64::from(n)).expect("valid");
        let stats = sim.run(n, rounds);
        println!(
            "  {n:2}   {k_max:>12}        {:>10.2}        {:>10.2}          {:>9.5}",
            stats.discrete_throughput(),
            stats.discrete_response_rounds.mean(),
            stats.p_late()
        );
    }
    println!("\n  reading: continuous p_late stays at its paper level because streams");
    println!("  keep strict priority. The analytic K_max assumes discrete requests");
    println!("  join the SCAN sweep; the simulated discipline serves them FCFS in the");
    println!("  slack, so at light continuous load (large K) the simulation serves");
    println!("  fewer per round than K_max — the gap is the price of not sorting");
    println!("  discrete requests into the sweep. At moderate N the two agree.");
}

/// A4 — placement ablation: uniform vs zone-restricted placements.
pub fn ablate_placement(budget: Budget) {
    use mzd_core::transfer::TransferTimeModel;
    use mzd_core::RoundService;
    use mzd_disk::PlacementPolicy;
    println!("A4: placement ablation — where the data lives changes the guarantee\n");
    let disk = profiles::quantum_viking_2_1().build().expect("valid disk");
    let rounds = budget.scale(20_000);
    let policies = [
        ("uniform-by-capacity", PlacementPolicy::UniformByCapacity),
        ("uniform-by-cylinder", PlacementPolicy::UniformByCylinder),
        (
            "outer 5 zones      ",
            PlacementPolicy::OuterZones { zones: 5 },
        ),
        (
            "inner 5 zones      ",
            PlacementPolicy::InnerZones { zones: 5 },
        ),
    ];
    println!(
        "  policy                 capacity   analytic p_late(26)   sim p_late(26)   N_max(1%)"
    );
    for (name, policy) in policies {
        let tm =
            TransferTimeModel::with_placement(&disk, policy, 200_000.0, 1e10).expect("valid model");
        let span = policy.cylinder_span(&disk).expect("valid");
        let p_late = |n: u32| {
            let seek = mzd_disk::oyang::seek_bound(disk.seek_curve(), span, n);
            RoundService::new(seek, disk.rotation_time(), tm, n)
                .expect("valid")
                .p_late_bound(1.0)
                .probability
        };
        let analytic = p_late(26);
        let n_max = mzd_core::admission::n_max(p_late, 0.01);
        let mut cfg = SimConfig::paper_reference().expect("valid");
        cfg.placement = policy;
        let s = estimate_p_late(&cfg, 26, rounds, 8_000).expect("valid");
        let cap = policy.capacity_fraction(&disk).expect("valid");
        println!(
            "  {name}   {:>6.1}%   {analytic:>15.5}   {:>12.5}   {n_max:>6}",
            cap * 100.0,
            s.p_late
        );
    }
    println!("\n  reading: outer-zone placement buys streams at the cost of capacity;");
    println!("  inner-zone placement is what you must assume if data can live anywhere");
    println!("  — which is why the paper's capacity-weighted mixture is the right");
    println!("  default for full-capacity servers.");
}

/// A5 — temporal-correlation ablation: i.i.d. fragments (the §3.3
/// assumption) vs scene-correlated GOP traces at matched marginals.
pub fn ablate_correlation(budget: Budget) {
    use mzd_sim::SimulationEngine;
    use mzd_workload::gop::GopModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    println!("A5: temporal correlation — does the §3.3 independence idealization hold?\n");
    let rounds = budget.scale(24_000);
    let n = 30u32;
    let g_per_window = 12u64;
    let window = 1200u64;

    // Correlated traces: MPEG GOP with strong, long scene modulation
    // (fragments aggregate 25 frames, so the scene factor — not the
    // frame-level noise — is what survives at round granularity), tuned
    // so the marginal sd lands near the paper's 100 KB. The control is
    // the SAME traces with each stream's fragments shuffled: identical
    // marginals by construction, temporal order destroyed.
    let correlated_traces: Vec<mzd_workload::Trace> = {
        let model = GopModel::mpeg2_default()
            .with_scene(0.65, 0.55, 300.0)
            .expect("valid")
            .with_bandwidth(4e6 * 200_000.0 / 500_000.0)
            .expect("valid");
        let mut rng = StdRng::seed_from_u64(11);
        (0..n)
            .map(|_| {
                model
                    .generate_trace(rounds as f64, 1.0, &mut rng)
                    .expect("valid")
            })
            .collect()
    };
    let shuffled_traces: Vec<mzd_workload::Trace> = {
        use rand::seq::SliceRandom as _;
        let mut rng = StdRng::seed_from_u64(12);
        correlated_traces
            .iter()
            .map(|t| {
                let mut sizes = t.sizes().to_vec();
                sizes.shuffle(&mut rng);
                mzd_workload::Trace::new(sizes, t.display_time()).expect("valid")
            })
            .collect()
    };

    println!("  variant        mean frag   sd frag   lag-1 corr    p_late   P[>= {g_per_window} glitches in {window}]");
    for (name, traces) in [
        ("shuffled  ", &shuffled_traces),
        ("correlated", &correlated_traces),
    ] {
        let traces = traces.as_slice();
        let lag1: f64 = traces
            .iter()
            .map(mzd_workload::Trace::lag1_autocorrelation)
            .sum::<f64>()
            / f64::from(n);
        let mean: f64 = traces.iter().map(mzd_workload::Trace::mean).sum::<f64>() / f64::from(n);
        let sd: f64 = (traces
            .iter()
            .map(mzd_workload::Trace::variance)
            .sum::<f64>()
            / f64::from(n))
        .sqrt();
        // Split the run into 1200-round windows: each window yields n
        // per-stream glitch-count samples for the p_error estimate.
        let windows = (rounds / window).max(1);
        let mut engine = SimulationEngine::new(SimConfig::paper_reference().expect("valid"), 9_000)
            .expect("valid");
        let mut failures = 0u64;
        let mut late_rounds = 0u64;
        for _ in 0..windows {
            let acc = engine.run_window_traced(traces, window);
            late_rounds += acc.late_rounds;
            failures += acc
                .glitches_per_stream
                .iter()
                .filter(|&&c| c >= g_per_window)
                .count() as u64;
        }
        let samples = windows * u64::from(n);
        println!(
            "  {name}   {:>8.0}   {:>8.0}   {:>8.3}   {:>7.5}   {:>7.5}",
            mean,
            sd,
            lag1,
            late_rounds as f64 / (windows * window) as f64,
            failures as f64 / samples as f64
        );
    }
    println!("\n  reading: scene correlation fattens the per-stream glitch-count tail");
    println!("  (glitches cluster in hot scenes), so the binomial model of eq. 3.3.4");
    println!("  is optimistic under strong correlation — quantifying the caveat the");
    println!("  paper handles by randomizing placement across disks.");
}

/// B4 — work-ahead buffering (§6 outlook): how much client buffer does
/// it take to absorb the overrun tail?
pub fn buffering(budget: Budget) {
    use mzd_sim::{WorkAheadConfig, WorkAheadSimulator};
    println!("B4: work-ahead prefetching — buying glitch immunity with client buffer\n");
    let rounds = budget.scale(12_000);
    println!("  N = 29 and 31 streams, paper workload, 1 s rounds, {rounds} rounds per cell\n");
    println!("  work-ahead   N=29 glitch rate   N=31 glitch rate   mean buffer (MB, N=29)");
    for wa in [0u32, 1, 2, 4, 8] {
        let mut row = format!("  {wa:>10}");
        let mut buffer_mb = 0.0;
        for n in [29u32, 31] {
            let cfg = WorkAheadConfig {
                base: SimConfig::paper_reference().expect("valid"),
                work_ahead: wa,
            };
            let mut sim = WorkAheadSimulator::new(cfg, 11_000 + u64::from(n)).expect("valid");
            let stats = sim.run(n, rounds);
            row.push_str(&format!("   {:>15.6}", stats.glitch_rate()));
            if n == 29 {
                buffer_mb = stats.buffer_bytes.mean() / 1e6;
            }
        }
        row.push_str(&format!("   {buffer_mb:>12.2}"));
        println!("{row}");
    }
    println!("\n  reading: a couple of prefetched fragments (a few hundred KB of client");
    println!("  buffer) absorb nearly all overruns at loads where the memoryless model");
    println!("  glitches steadily — the quantitative case for the paper's §6 buffering");
    println!("  direction. Note the diminishing returns: overruns cluster, so immunity");
    println!("  saturates once the buffer outlasts a typical overrun burst.");
}

/// B5 — fragment caching: glitch rate vs cache size vs Zipf skew on a
/// shared catalog (the mzd-cache layer's headline experiment).
pub fn cache(budget: Budget) {
    use mzd_sim::cache_sweep::{run_point, CacheSweepConfig};
    println!("B5: fragment cache — glitch rate vs cache size vs popularity skew\n");
    let mut base = CacheSweepConfig::reference().expect("valid config");
    base.streams = 40; // past the cacheless N_max = 28: glitches without help
    base.objects = 24;
    base.object_rounds = 600;
    base.rounds = budget.scale(2_000);
    let hot_set_mb = base.sizes.mean() * f64::from(base.object_rounds) / 1e6;
    println!(
        "  {} streams on one disk (cacheless N_max = 28), {}-object catalog,",
        base.streams, base.objects
    );
    println!(
        "  {:.0} MB per object, LRU cache, {} rounds per cell\n",
        hot_set_mb, base.rounds
    );
    println!("  cache (MB)   skew 0.0           skew 0.8           skew 1.2");
    println!("               glitch/hit         glitch/hit         glitch/hit");
    for (i, cache_mb) in [0.0f64, 60.0, 240.0, 960.0].iter().enumerate() {
        let mut row = format!("  {cache_mb:>9.0}");
        for (j, skew) in [0.0f64, 0.8, 1.2].iter().enumerate() {
            let mut cfg = base.clone();
            cfg.cache_bytes = cache_mb * 1e6;
            cfg.zipf_skew = *skew;
            let seed = 13_000 + (i as u64) * 16 + j as u64;
            let p = run_point(&cfg, seed).expect("valid point");
            row.push_str(&format!(
                "   {:>7.4}/{:>5.1}%",
                p.glitch_rate(),
                p.hit_ratio * 100.0
            ));
        }
        println!("{row}");
    }
    println!("\n  reading: at uniform popularity the cache barely helps (every object");
    println!("  is equally cold), while at video-store skew a cache holding a few");
    println!("  objects' worth of fragments absorbs most lookups and pulls an");
    println!("  over-admitted disk back under its glitch budget — the effect the");
    println!("  server's cache-aware admission mode converts into extra streams.");
}

/// B6 — drift injection: detection latency of the online conformance
/// checker when placement skews to the inner zones mid-run.
pub fn drift(budget: Budget) {
    use mzd_sim::{run_drift_scenario, DriftScenarioConfig};
    println!("B6: model drift — online conformance vs zone-skewed placement\n");
    let skew_at = 256u64;
    let rounds = budget.scale(4_096).max(skew_at + 512);
    println!("  scenario: 26 streams on the Table 1 disk; at round {skew_at} the");
    println!("  placement skews to the 4 innermost (slowest) zones while the");
    println!("  admission model keeps assuming capacity-uniform layout.");
    println!("  control: same seed, no skew ({rounds} rounds each)\n");
    println!("  run       raised at   latency   drifts   late rounds   tail>q95");
    for (label, skew) in [("skewed", Some(skew_at)), ("control", None)] {
        let cfg = DriftScenarioConfig::paper_default(rounds, skew);
        let r = run_drift_scenario(&cfg, 42).expect("valid scenario");
        let (raised, latency) = match r.drift_round {
            Some(round) => (
                format!("{round}"),
                format!("{}", round.saturating_sub(skew_at)),
            ),
            None => ("never".to_string(), "-".to_string()),
        };
        println!(
            "  {label:<8}  {raised:>9}   {latency:>7}   {:>6}   {:>11}   {:>7.1}%",
            r.drifts_raised,
            r.late_rounds,
            100.0 * r.final_tail_exceedance
        );
    }
    println!("\n  reading: the checker raises `slo.drift` within ~100 rounds of the");
    println!("  skew (the window must accumulate enough tail mass for the Wilson");
    println!("  bound to clear the tolerance), while the unskewed control never");
    println!("  alerts — the conservative seek model keeps its PIT tail below the");
    println!("  nominal 5%. This is the alarm that makes cache-aware");
    println!("  over-admission safe to run unattended.");
}

/// Machine-readable sweep outputs land under `out/` (gitignored), not
/// the repo root; CI diffs and uploads them from there.
fn out_path(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new("out");
    std::fs::create_dir_all(dir).expect("create out/");
    dir.join(name)
}

/// B7 — fault injection: the fault-priced admission limit vs the
/// observed glitch rate under a media-error sweep. Also writes the
/// machine-readable `out/FAULT_sweep.json` that CI diffs against a
/// golden copy: the sweep is a pure function of (seed, rounds), so any
/// drift in the injector, the retry policy, or the analytic inflation
/// shows up as a byte diff.
pub fn faults(budget: Budget) {
    use mzd_fault::{FaultConfig, FaultModel};
    use mzd_sim::RoundSimulator;

    println!("B7: fault injection — fault-priced admission vs observed glitch rate\n");
    let model = GuaranteeModel::paper_reference().expect("reference model");
    let rounds = budget.scale(4_000);
    let (m, g, eps, t) = (1_200u64, 12u64, 0.01, 1.0);
    let n_clean = model.n_max_error(t, m, g, eps).expect("clean n_max");
    println!("  Table 1 disk, paper workload, glitch guarantee (m = {m}, g = {g}, eps = {eps});");
    println!("  clean N_max = {n_clean}, {rounds} simulated rounds per cell\n");
    println!("  p_media   N_max(faulted)   glitch rate @ clean N   glitch rate @ faulted N");

    let media_rates = [0.0f64, 0.005, 0.01, 0.02, 0.05];
    let mut body = String::new();
    body.push_str(&format!(
        "{{\n  \"schema\": \"mzd-fault-sweep/v1\",\n  \"quick\": {},\n  \
         \"rounds\": {rounds},\n  \"n_max_clean\": {n_clean},\n  \"entries\": [\n",
        budget.quick
    ));
    for (i, p_media) in media_rates.iter().enumerate() {
        let fc = FaultConfig::parse(&format!("media={p_media}")).expect("valid spec");
        let n_faulted = model
            .with_faults(&FaultModel::from_config(&fc))
            .expect("valid fault model")
            .n_max_error(t, m, g, eps)
            .expect("faulted n_max");
        let glitch_rate = |n: u32| -> f64 {
            let cfg = SimConfig {
                faults: Some(fc.clone()),
                ..SimConfig::paper_reference().expect("reference sim")
            };
            let mut sim = RoundSimulator::new(cfg, 17_000 + i as u64).expect("valid sim");
            let mut glitches = 0u64;
            for _ in 0..rounds {
                glitches += sim.run_round(n).glitched_streams.len() as u64;
            }
            glitches as f64 / (u64::from(n) * rounds) as f64
        };
        let at_clean = glitch_rate(n_clean);
        let at_faulted = glitch_rate(n_faulted);
        println!("  {p_media:>7}   {n_faulted:>14}   {at_clean:>21.6}   {at_faulted:>23.6}");
        body.push_str(&format!(
            "    {{\"p_media\": {p_media}, \"n_max_faulted\": {n_faulted}, \
             \"glitch_rate_at_clean_n\": {at_clean:.6}, \
             \"glitch_rate_at_faulted_n\": {at_faulted:.6}}}{}\n",
            if i + 1 < media_rates.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");
    std::fs::write(out_path("FAULT_sweep.json"), body).expect("write fault sweep");
    println!("\n  wrote out/FAULT_sweep.json");
    println!("\n  reading: pricing media errors into the transfer-time LST shrinks the");
    println!("  admission limit by about one stream per percent of error rate; the");
    println!("  simulated glitch rate at the *clean* limit climbs with p_media while");
    println!("  the rate at the fault-priced limit stays pinned near the budget —");
    println!("  the analytic inflation buys back the guarantee the faults ate.");
}

/// B8: the sharded fleet at acceptance scale — 64 nodes x 8 disks with
/// 8-second rounds (~200 streams per disk at the paper's quality
/// target), ~100k admitted streams, a scripted node outage mid-run, and
/// the composed cluster-wide guarantee. The whole run repeats at
/// jobs = 8 and is asserted byte-identical to the jobs = 1 run.
pub fn fleet(budget: Budget) {
    use mzd_cluster::{Cluster, ClusterConfig, NodeOutage};
    use mzd_workload::ObjectSpec;

    let (nodes, disks) = if budget.quick {
        (8u32, 2u32)
    } else {
        (64u32, 8u32)
    };
    let rounds = if budget.quick { 16u64 } else { 40 };
    println!("B8: sharded fleet — {nodes} nodes x {disks} disks, composed stochastic guarantee\n");
    let run = || {
        let mut cfg = ClusterConfig::paper_reference(nodes, disks).expect("valid fleet config");
        cfg.node.round_length = 8.0; // longer rounds: ~200 streams per disk
        cfg.lease_rounds = 3;
        cfg.outages.push(NodeOutage {
            node: nodes - 1,
            start: 6,
            rounds: 10,
        });
        let mut fleet = Cluster::new(cfg, 97).expect("valid fleet");
        let object =
            ObjectSpec::new("fleet", SizeDistribution::paper_default(), 1_200).expect("valid");
        for _ in 0..fleet.guarantee().fleet_capacity {
            fleet.submit(object.clone()).expect("submit");
        }
        let mut reports = Vec::new();
        for _ in 0..rounds {
            reports.push(fleet.run_round());
        }
        (fleet.guarantee().clone(), fleet.status(), reports)
    };
    mzd_par::set_jobs(1);
    let (g, status, reports) = run();
    mzd_par::set_jobs(8);
    let replay = run();
    mzd_par::set_jobs(0);
    let identical = replay.0 == g && replay.1 == status && replay.2 == reports;

    let stream_rounds = status.active_streams as u64 * rounds;
    // Outage charges are priced by the deterministic lease debit, not by
    // the stochastic per-round bound — compare like with like.
    let glitch_rate =
        (status.total_glitches - status.outage_glitches) as f64 / stream_rounds.max(1) as f64;
    println!(
        "  per-disk admission cap n* = {} (single-node cap {})",
        g.n_star, g.n_max_single
    );
    println!(
        "  fleet capacity {} streams across {} serving nodes (+{} spare), {} admitted",
        g.fleet_capacity,
        status.nodes - g.spares,
        g.spares,
        status.active_streams
    );
    println!(
        "  composed guarantee: p_error/stream <= {:.3e}, any-of-fleet <= {:.3e}",
        g.p_error_stream, g.p_error_any
    );
    println!(
        "  lease debit: {} outage rounds charged, glitch budget g = {} -> {}",
        g.outage_rounds, g.g, g.g_effective
    );
    println!(
        "  {rounds} rounds served; observed host glitch rate {glitch_rate:.6} per \
         stream-round (bound {:.6})",
        g.p_glitch_round
    );
    println!(
        "  node outage: {} streams migrated, {} outage glitches charged",
        status.migrations, status.outage_glitches
    );
    assert!(identical, "jobs = 8 replay diverged from the jobs = 1 run");
    println!(
        "\n  determinism: jobs = 8 replay byte-identical to jobs = 1 ({} reports)",
        rounds
    );
    println!("  reading: the composed bound survives sharding — the per-disk cap drops by");
    println!("  a few streams to pay for the lease window, every admitted stream keeps a");
    println!("  p_error within the paper's 1% target, and the any-of-fleet union bound");
    println!("  prices what a guarantee over ~100k streams honestly costs.");
}

/// B9 — gray-failure health sweep: one node creeps toward a swept peak
/// service-time inflation factor, the health subsystem on its default
/// detector config, and three observations per cell — how many rounds
/// detection took (first probation / first ejection), what the hedging
/// ledger spent, and whether the composed glitch budget held
/// observationally. A creeping ramp (rather than a step) is the
/// interesting adversary: suspicion crosses the probation band
/// gradually, so hedged dispatch actually engages before ejection, and
/// the crossing round shifts with the ramp's slope. Writes the
/// machine-readable `out/HEALTH_sweep.json` that CI diffs against a
/// golden copy: the whole sweep is a pure function of its pinned seed,
/// so drift in the detector math, the hedge settlement, or the
/// re-composition shows up as a byte diff.
pub fn health(budget: Budget) {
    use mzd_cluster::{Cluster, ClusterConfig};
    use mzd_workload::ObjectSpec;

    println!("B9: gray-failure health — inflation factor vs detection latency vs budget\n");
    let (nodes, disks, gray_node) = (8u32, 1u32, 2u32);
    let (rounds, ramp_start, ramp_len) = if budget.quick {
        (200u64, 40u64, 120u64)
    } else {
        (640, 40, 240)
    };
    let factors = [1.5f64, 2.0, 2.5, 3.0];
    let warmup = mzd_health::HealthConfig::default().warmup_rounds;
    println!(
        "  {nodes}-node fleet x {disks} disk(s)/node, node {gray_node} creeping to the peak \
         factor\n  over rounds {ramp_start}..{}, {rounds} rounds per cell",
        ramp_start + ramp_len
    );
    println!("  default detector config (warmup {warmup} rounds, suspicion raise 6 / eject 12)\n");
    println!(
        "  peak     gray probation@   gray ejection@   hedges (won)   effective cap   \
         glitch rate   bound      held"
    );

    let mut body = String::new();
    body.push_str(&format!(
        "{{\n  \"schema\": \"mzd-health-sweep/v1\",\n  \"quick\": {},\n  \
         \"nodes\": {nodes},\n  \"disks\": {disks},\n  \"gray_node\": {gray_node},\n  \
         \"rounds\": {rounds},\n  \"ramp_start\": {ramp_start},\n  \
         \"ramp_len\": {ramp_len},\n  \"entries\": [\n",
        budget.quick
    ));
    for (i, factor) in factors.iter().enumerate() {
        let mut cfg = ClusterConfig::paper_reference(nodes, disks).expect("valid fleet config");
        cfg.node.faults = Some(
            mzd_fault::FaultConfig::parse(&format!("gray=creep:{ramp_start}:{ramp_len}:{factor}"))
                .expect("valid gray spec"),
        );
        cfg.gray_node = gray_node;
        let mut fleet = Cluster::new(cfg, 113).expect("valid fleet");
        fleet
            .enable_health(mzd_health::HealthConfig::default())
            .expect("health config");
        let guarantee = fleet.guarantee().clone();
        let object =
            ObjectSpec::new("gray", SizeDistribution::paper_default(), 1_200).expect("valid");
        for _ in 0..guarantee.fleet_capacity {
            fleet.submit(object.clone()).expect("submit");
        }
        let mut host_glitches = 0u64;
        let mut stream_rounds = 0u64;
        let mut probation_round: Option<u64> = None;
        let mut ejection_round: Option<u64> = None;
        for _ in 0..rounds {
            stream_rounds += fleet.active_streams() as u64;
            let report = fleet.run_round();
            host_glitches += report.glitched_streams;
            // Track the gray node specifically, and only from creep
            // onset: fleet-wide counters also tick for the warmup
            // transient that grazes probation on whichever node ran
            // hottest (hedging covers it, hysteresis clears it).
            let gray = fleet.node_health(gray_node).expect("health enabled");
            if probation_round.is_none()
                && report.round >= ramp_start
                && gray == mzd_health::NodeHealth::Probation
            {
                probation_round = Some(report.round);
            }
            if ejection_round.is_none() && gray == mzd_health::NodeHealth::Ejected {
                ejection_round = Some(report.round);
            }
        }
        let h = fleet.health_status().expect("health enabled");
        let glitch_rate = host_glitches as f64 / stream_rounds.max(1) as f64;
        // The composed per-round bound prices the host glitch rate the
        // admission level was chosen for; holding it observationally
        // through a gray episode is what ejection + re-composition buy.
        let held = glitch_rate <= guarantee.p_glitch_round;
        let fmt_round = |r: Option<u64>| r.map_or_else(|| "never".into(), |v| format!("r{v}"));
        println!(
            "  {factor:>6.2}   {:>15}   {:>14}   {:>6} ({})   {:>13}   {glitch_rate:>11.6}   \
             {:<8.6}   {held}",
            fmt_round(probation_round),
            fmt_round(ejection_round),
            h.hedges_issued,
            h.hedges_won,
            h.recomposed.effective_capacity,
            guarantee.p_glitch_round,
        );
        let json_round = |r: Option<u64>| r.map_or_else(|| "null".into(), |v| v.to_string());
        body.push_str(&format!(
            "    {{\"factor\": {factor}, \"gray_probation_round\": {}, \
             \"gray_ejection_round\": {}, \"probations\": {}, \"clears\": {}, \
             \"hedges_issued\": {}, \"hedges_won\": {}, \"hedge_slack_debited\": {:.6}, \
             \"effective_capacity\": {}, \"degrade_rung\": {}, \"frozen\": {}, \
             \"glitch_rate\": {glitch_rate:.6}, \"glitch_bound\": {:.6}, \
             \"budget_held\": {held}}}{}\n",
            json_round(probation_round),
            json_round(ejection_round),
            h.probations,
            h.clears,
            h.hedges_issued,
            h.hedges_won,
            h.hedge_slack_debited,
            h.recomposed.effective_capacity,
            h.recomposed.degrade_rung,
            h.recomposed.frozen,
            guarantee.p_glitch_round,
            if i + 1 < factors.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");
    std::fs::write(out_path("HEALTH_sweep.json"), body).expect("write health sweep");
    println!("\n  wrote out/HEALTH_sweep.json");
    println!("\n  reading: detection latency shrinks as the peak factor grows — a steep");
    println!("  ramp crosses the suspicion thresholds within a few rounds of onset,");
    println!("  while a shallow creeper hides near the detector's noise floor for");
    println!("  longer. Hedged dispatch covers the probation window in every cell, and");
    println!("  ejection lands while the creep is still mild — before the inflated");
    println!("  sweeps start overrunning rounds — so the observed host glitch rate");
    println!("  stays at or under the composed per-round bound the admission level");
    println!("  was priced for.");
}

/// Run everything in DESIGN.md order.
pub fn all(budget: Budget) {
    let line = "=".repeat(72);
    for (i, f) in [
        fig1 as fn(Budget),
        table2,
        |_| ex31(),
        |_| ex32(),
        |_| ex33(),
        |_| worst_case(),
        |_| approx(),
        |_| nmax_tables(),
        ablate_zone,
        ablate_scan,
        ablate_dist,
        ablate_placement,
        ablate_correlation,
        baselines,
        mixed,
        saddlepoint,
        buffering,
        cache,
        drift,
        faults,
        fleet,
        health,
    ]
    .iter()
    .enumerate()
    {
        if i > 0 {
            println!("\n{line}\n");
        }
        f(budget);
    }
}

// ---------------------------------------------------------------------------
// bench-summary: machine-readable perf numbers for CI artifacts.

/// One timed operation at one worker-pool width.
struct BenchEntry {
    name: &'static str,
    jobs: usize,
    ns_per_op: f64,
}

/// Median of several timed batches (one warmup batch first). The vendored
/// criterion shim has no JSON output, so the summary measures with plain
/// `Instant` loops — coarser than criterion, but stable enough for the
/// jobs=1 vs jobs=4 speedup ratios CI tracks.
fn median_ns_per_op(iters: u32, mut op: impl FnMut()) -> f64 {
    let iters = iters.max(1);
    for _ in 0..iters.div_ceil(4) {
        op();
    }
    let mut samples = Vec::with_capacity(5);
    for _ in 0..5 {
        let start = std::time::Instant::now();
        for _ in 0..iters {
            op();
        }
        samples.push(start.elapsed().as_nanos() as f64 / f64::from(iters));
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn write_summary(path: &str, suite: &str, entries: &[BenchEntry]) {
    // jobs = 4 speedups only materialize when the host actually has the
    // threads; record the hardware width so CI readers can interpret a
    // ~1x ratio on a single-core runner correctly.
    let host_threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut body = String::new();
    body.push_str(&format!(
        "{{\n  \"schema\": \"mzd-bench-summary/v1\",\n  \"suite\": \"{suite}\",\n  \
         \"host_threads\": {host_threads},\n  \"entries\": [\n"
    ));
    for (i, e) in entries.iter().enumerate() {
        let speedup = if e.jobs > 1 {
            entries
                .iter()
                .find(|base| base.name == e.name && base.jobs == 1)
                .map(|base| base.ns_per_op / e.ns_per_op)
        } else {
            None
        };
        body.push_str(&format!(
            "    {{\"name\": \"{}\", \"jobs\": {}, \"ns_per_op\": {:.1}",
            e.name, e.jobs, e.ns_per_op
        ));
        if let Some(s) = speedup {
            body.push_str(&format!(", \"speedup_vs_jobs1\": {s:.2}"));
        }
        body.push('}');
        body.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    body.push_str("  ]\n}\n");
    std::fs::write(path, body).expect("write bench summary");
    println!("  wrote {path}");
}

/// Run a named operation at jobs = 1 and jobs = 4 and push both timings.
fn timed_pair(entries: &mut Vec<BenchEntry>, name: &'static str, iters: u32, mut op: impl FnMut()) {
    for jobs in [1usize, 4] {
        mzd_par::set_jobs(jobs);
        entries.push(BenchEntry {
            name,
            jobs,
            ns_per_op: median_ns_per_op(iters, &mut op),
        });
    }
    mzd_par::set_jobs(0);
}

/// Measure every summary entry under `budget`. Shared by `bench-summary`
/// (artifact generation) and `bench-check` (regression gate) so the two
/// commands can never drift apart in what they time.
///
/// The first core entry is `calibration_p_late_bound` — a fixed, purely
/// CPU-bound Chernoff evaluation with no allocation or parallelism. Its
/// ratio against the committed baseline estimates how fast the current
/// host is relative to the baseline host, letting the regression gate
/// rescale thresholds instead of flagging slow CI runners as
/// regressions.
fn measure_entries(budget: Budget) -> (Vec<BenchEntry>, Vec<BenchEntry>) {
    use std::hint::black_box;
    let model = GuaranteeModel::paper_reference().expect("reference model");
    let thresholds = [0.0001, 0.001, 0.005, 0.01, 0.02, 0.05, 0.1, 0.25];
    let table_iters = if budget.quick { 2 } else { 8 };
    let cdf_iters = if budget.quick { 2 } else { 8 };

    let mut core = Vec::new();
    core.push(BenchEntry {
        name: "calibration_p_late_bound",
        jobs: 1,
        ns_per_op: median_ns_per_op(if budget.quick { 400 } else { 4000 }, || {
            black_box(
                model
                    .p_late_bound(black_box(27), black_box(1.0))
                    .expect("valid t"),
            );
        }),
    });
    // The admission tables are serial scans: jobs = 1 only.
    core.push(BenchEntry {
        name: "admission_table_late_8_thresholds",
        jobs: 1,
        ns_per_op: median_ns_per_op(table_iters, || {
            black_box(
                model
                    .admission_table_late(black_box(1.0), black_box(&thresholds))
                    .expect("valid"),
            );
        }),
    });
    core.push(BenchEntry {
        name: "admission_table_error_8_thresholds",
        jobs: 1,
        ns_per_op: median_ns_per_op(table_iters, || {
            black_box(
                model
                    .admission_table_error(1.0, 1200, 12, black_box(&thresholds))
                    .expect("valid"),
            );
        }),
    });
    timed_pair(&mut core, "cdf_build_n28_257pt", cdf_iters, || {
        black_box(
            mzd_core::ServiceTimeCdf::with_resolution(&model, black_box(28), 257).expect("builds"),
        );
    });

    let cfg = SimConfig::paper_reference().expect("reference sim");
    let rep_rounds = budget.scale(1600);
    let mut sim = Vec::new();
    timed_pair(&mut sim, "replicated_p_late_16_reps", 1, || {
        black_box(
            mzd_sim::estimate_p_late_par(&cfg, black_box(27), rep_rounds, 16, 42)
                .expect("valid sim"),
        );
    });
    {
        // Event-engine hot path: the N = 27 round with the request arena
        // preallocated to the round size
        // (`with_capacity`), so the steady state is allocation-free —
        // the contract asserted by crates/sim/tests/alloc_steady_state.rs.
        let mut one = mzd_sim::RoundSimulator::with_capacity(cfg.clone(), 7, 27).expect("valid");
        sim.push(BenchEntry {
            name: "engine_round_n27",
            jobs: 1,
            ns_per_op: median_ns_per_op(if budget.quick { 200 } else { 2000 }, || {
                black_box(one.run_round(27));
            }),
        });
    }
    {
        // One server round over stored content: the paper's 4-disk node
        // at its admission limit (4 x 28 streams) reading 16 titles, so
        // every fragment size comes from the titles' shared size tables
        // rather than the server RNG. Titles outlast the timed rounds,
        // and their tables are read through once up front, as a
        // catalog's are after its first viewers: the entry times the
        // steady-state table load, not first reads.
        const TITLE_ROUNDS: u32 = 1 << 14;
        let cfg = mzd_server::ServerConfig::paper_reference(4).expect("valid server config");
        let mut server = mzd_server::VideoServer::new(cfg, 13).expect("valid server");
        let titles: Vec<mzd_workload::ObjectSpec> = (0..16u64)
            .map(|i| {
                mzd_workload::ObjectSpec::new(
                    format!("title-{i}"),
                    SizeDistribution::paper_default(),
                    TITLE_ROUNDS,
                )
                .expect("valid object")
                .with_content_id(i + 1)
            })
            .collect();
        for title in &titles {
            for f in 0..TITLE_ROUNDS {
                black_box(title.stored_fragment_size(f));
            }
        }
        for k in 0..112 {
            server
                .open_stream(titles[k % titles.len()].clone())
                .expect("112 streams fit the 4 x 28 limit");
        }
        sim.push(BenchEntry {
            name: "server_round_stored_4x28",
            jobs: 1,
            ns_per_op: median_ns_per_op(if budget.quick { 200 } else { 2000 }, || {
                black_box(server.run_round());
            }),
        });
    }
    {
        use mzd_cache::{CacheConfig, CachePolicy, FragmentCache, FragmentKey};
        let mut cache = FragmentCache::new(CacheConfig {
            capacity_bytes: 4096.0 * 200_000.0,
            policy: CachePolicy::Lru,
        })
        .expect("valid config");
        for f in 0..4096u32 {
            cache.insert(
                FragmentKey {
                    object: u64::from(f % 32),
                    fragment: f / 32,
                },
                200_000.0,
                0.02,
            );
        }
        let mut f = 0u32;
        sim.push(BenchEntry {
            name: "cache_hit_lookup",
            jobs: 1,
            ns_per_op: median_ns_per_op(100_000, || {
                f = (f + 1) % 128;
                black_box(cache.lookup(FragmentKey {
                    object: u64::from(f % 32),
                    fragment: f / 32,
                }));
            }),
        });
    }
    {
        // One full fleet round — dispatch pulls, node steps, report
        // folding — on a 4-node fleet held at capacity with effectively
        // endless objects, so every iteration does the same work. The
        // round is serial, so jobs = 1 only.
        let cfg = mzd_cluster::ClusterConfig::paper_reference(4, 1).expect("valid fleet config");
        let mut fleet = mzd_cluster::Cluster::new(cfg, 11).expect("valid fleet");
        let object =
            mzd_workload::ObjectSpec::new("bench", SizeDistribution::paper_default(), 1_000_000)
                .expect("valid object");
        for _ in 0..fleet.guarantee().fleet_capacity {
            fleet.submit(object.clone()).expect("submit");
        }
        sim.push(BenchEntry {
            name: "engine_fleet_dispatch_4n",
            jobs: 1,
            ns_per_op: median_ns_per_op(if budget.quick { 200 } else { 2000 }, || {
                black_box(fleet.run_round());
            }),
        });
    }
    (core, sim)
}

/// Machine-readable micro-benchmark summary: writes `BENCH_core.json`
/// (solver-side costs), `BENCH_sim.json` (simulator-side costs) and a
/// combined `BENCH_baseline.json` into the current directory, each entry
/// in ns/op with jobs = 1 vs jobs = 4 speedups for the parallelized
/// paths. To refresh the regression-gate baseline, copy the combined
/// file over `crates/bench/golden/BENCH_baseline.json` — the committed
/// golden is generated with `--quick`, and `bench-check` always measures
/// with the quick protocol so the two stay comparable.
pub fn bench_summary(budget: Budget) {
    println!("bench-summary: ns/op at jobs = 1 vs jobs = 4\n");
    let (core, sim) = measure_entries(budget);
    write_summary("BENCH_core.json", "core", &core);
    write_summary("BENCH_sim.json", "sim", &sim);
    let combined: Vec<BenchEntry> = core
        .iter()
        .chain(&sim)
        .map(|e| BenchEntry {
            name: e.name,
            jobs: e.jobs,
            ns_per_op: e.ns_per_op,
        })
        .collect();
    write_summary("BENCH_baseline.json", "baseline", &combined);

    for e in &combined {
        println!(
            "  {:<38} jobs={}  {:>14.1} ns/op",
            e.name, e.jobs, e.ns_per_op
        );
    }

    // Pre-rewrite round cost, pinned from the committed golden at the
    // last per-request-loop commit, with its calibration entry from the
    // same run. Scaling the legacy number by this host's calibration
    // ratio (same clamp as bench-check) turns the pin into an estimate
    // of what the old loop would cost *here*, so the reported speedup
    // compares like with like instead of two different machines.
    const LEGACY_ROUND_NS: f64 = 2789.6;
    const LEGACY_CAL_NS: f64 = 1837.4;
    let at_jobs1 = |name: &str| {
        combined
            .iter()
            .find(|e| e.name == name && e.jobs == 1)
            .map(|e| e.ns_per_op)
    };
    if let (Some(cal), Some(engine)) = (
        at_jobs1("calibration_p_late_bound"),
        at_jobs1("engine_round_n27"),
    ) {
        let scaled_legacy = LEGACY_ROUND_NS * (cal / LEGACY_CAL_NS).clamp(0.25, 4.0);
        println!(
            "\n  event-engine round (N=27): {engine:.1} ns/op vs {scaled_legacy:.1} ns/op \
             legacy loop (host-scaled) -> {:.2}x rounds/sec",
            scaled_legacy / engine
        );
    }
}

/// Perf-regression gate: re-measure every summary entry with the quick
/// protocol and compare against the committed
/// `crates/bench/golden/BENCH_baseline.json`.
///
/// Host-speed normalization: the baseline's thresholds are scaled by the
/// calibration ratio (fresh / baseline time of the fixed
/// `calibration_p_late_bound` op), clamped to `[0.25, 4]` so a wildly
/// mis-measured calibration cannot silence the gate entirely. An entry
/// fails when `fresh > scaled_baseline * 1.25 + 500 ns` — 25% headroom
/// for measurement noise plus an absolute slack that keeps sub-µs ops
/// from tripping on scheduler jitter. Exits non-zero on any regression
/// or on a catalog mismatch (entry measured but absent from the golden).
///
/// Only `jobs = 1` entries gate. Multi-worker timings on a host with
/// fewer free cores than workers measure the OS scheduler, not the
/// code (observed 2x swings run-to-run on a 1-CPU container), so
/// `jobs = 4` rows are printed for the artifact trail but never fail
/// the build — the jobs=1 row of the same operation catches any real
/// code regression.
pub fn bench_check(_: Budget) {
    // The committed golden is generated with --quick; always measure the
    // same protocol, whatever flag the caller passed. (budget.scale
    // changes the per-op *work* of replicated_p_late, so quick and full
    // runs time different operations and are not comparable.)
    let budget = Budget { quick: true };
    println!("bench-check: fresh --quick measurement vs committed baseline\n");

    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/BENCH_baseline.json");
    let text = std::fs::read_to_string(golden_path)
        .unwrap_or_else(|e| panic!("cannot read {golden_path}: {e}"));
    let doc = mzd_telemetry::json::parse(&text).expect("baseline parses as JSON");
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some("mzd-bench-summary/v1"),
        "unexpected baseline schema in {golden_path}"
    );
    // (name, jobs) -> baseline ns/op.
    let mut baseline: Vec<(String, usize, f64)> = Vec::new();
    for e in doc
        .get("entries")
        .and_then(mzd_telemetry::json::Value::as_array)
        .expect("baseline has entries")
    {
        let name = e.get("name").and_then(|v| v.as_str()).expect("entry name");
        let jobs = e.get("jobs").and_then(|v| v.as_f64()).expect("entry jobs") as usize;
        let ns = e
            .get("ns_per_op")
            .and_then(|v| v.as_f64())
            .expect("entry ns_per_op");
        baseline.push((name.to_string(), jobs, ns));
    }
    let lookup = |name: &str, jobs: usize| {
        baseline
            .iter()
            .find(|(n, j, _)| n == name && *j == jobs)
            .map(|(_, _, ns)| *ns)
    };

    let (core, sim) = measure_entries(budget);
    let fresh: Vec<&BenchEntry> = core.iter().chain(&sim).collect();

    // These entries are load-bearing: the event-engine rounds are the
    // only timings of the post-rewrite hot path, and the stored-content
    // server round the only timing of the memoised fragment sizes, so
    // the catalog must always measure them at jobs = 1 (and the golden
    // must carry them — a missing golden row fails below as MISSING).
    for required in [
        "engine_round_n27",
        "server_round_stored_4x28",
        "engine_fleet_dispatch_4n",
    ] {
        assert!(
            fresh.iter().any(|e| e.name == required && e.jobs == 1),
            "bench catalog no longer measures {required} at jobs = 1"
        );
    }

    let cal_fresh = fresh
        .iter()
        .find(|e| e.name == "calibration_p_late_bound")
        .expect("calibration entry measured")
        .ns_per_op;
    let cal_base = lookup("calibration_p_late_bound", 1)
        .expect("baseline has calibration_p_late_bound — refresh the golden with bench-summary");
    let ratio = (cal_fresh / cal_base).clamp(0.25, 4.0);
    println!(
        "  host calibration: fresh {cal_fresh:.0} ns vs baseline {cal_base:.0} ns \
         -> threshold scale {ratio:.2}x\n"
    );

    println!(
        "  {:<38} jobs {:>12} {:>12} {:>12}  status",
        "entry", "baseline", "allowed", "fresh"
    );
    let mut failures = 0u32;
    for e in &fresh {
        if e.name == "calibration_p_late_bound" {
            continue;
        }
        let gated = e.jobs == 1;
        let Some(base) = lookup(e.name, e.jobs) else {
            println!(
                "  {:<38}    {}  {:>12} {:>12} {:>12.0}  MISSING from golden",
                e.name, e.jobs, "-", "-", e.ns_per_op
            );
            if gated {
                failures += 1;
            }
            continue;
        };
        let allowed = base * ratio * 1.25 + 500.0;
        let regressed = gated && e.ns_per_op > allowed;
        if regressed {
            failures += 1;
        }
        println!(
            "  {:<38}    {}  {:>12.0} {:>12.0} {:>12.0}  {}",
            e.name,
            e.jobs,
            base,
            allowed,
            e.ns_per_op,
            if regressed {
                "REGRESSED"
            } else if gated {
                "ok"
            } else {
                "info (jobs>1 not gated)"
            }
        );
    }
    if failures > 0 {
        eprintln!(
            "\nbench-check FAILED: {failures} entr{} regressed beyond 25% (+500 ns) of the \
             host-scaled baseline.\nIf the slowdown is intended, refresh the golden:\n  \
             cargo run --release -p mzd-bench --bin experiments -- bench-summary --quick\n  \
             cp BENCH_baseline.json crates/bench/golden/BENCH_baseline.json",
            if failures == 1 { "y" } else { "ies" }
        );
        std::process::exit(1);
    }
    println!("\nbench-check passed: no entry beyond the noise-adjusted threshold.");
}
