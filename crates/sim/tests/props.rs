//! Property tests for the simulator: conservation laws and policy
//! dominance relations on randomized closed-loop traces, and the
//! shared-pool engine's queueing against a brute-force model.

use proptest::prelude::*;
use sdpm_disk::{service_time_secs, ultrastar36z15, RpmLadder, ServiceRequest};
use sdpm_layout::{DiskId, DiskPool};
use sdpm_sim::{simulate, simulate_mix, DrpmConfig, MixPolicy, Policy, TpmConfig};
use sdpm_trace::{merge_tenants, AppEvent, IoRequest, ReqKind, TenantStream, TimedEvent, Trace};

/// Random alternating compute/IO traces over a small pool.
fn trace_strategy() -> impl Strategy<Value = Trace> {
    let pool = 3u32;
    proptest::collection::vec(
        (
            0.0f64..20.0, // compute gap
            0..pool,      // disk
            1u64..512 * 1024,
            any::<bool>(),
        ),
        1..30,
    )
    .prop_map(move |items| {
        let mut events = Vec::new();
        for (i, (gap, disk, size, seq)) in items.into_iter().enumerate() {
            events.push(AppEvent::Compute {
                nest: 0,
                first_iter: i as u64 * 2,
                iters: 1,
                secs: gap,
            });
            events.push(AppEvent::Io(IoRequest {
                disk: DiskId(disk),
                start_block: i as u64 * 1000,
                size_bytes: size,
                kind: ReqKind::Read,
                sequential: seq,
                nest: 0,
                iter: i as u64 * 2 + 1,
            }));
        }
        Trace {
            name: "prop".into(),
            pool_size: pool,
            events,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Per-disk accounted seconds equal the run length; gaps are sorted
    /// and within the run; requests are all serviced.
    #[test]
    fn base_run_conservation(trace in trace_strategy()) {
        let pool = DiskPool::new(trace.pool_size);
        let r = simulate(&trace, &ultrastar36z15(), pool, &Policy::Base);
        prop_assert_eq!(r.requests, trace.stats().requests);
        for d in &r.per_disk {
            prop_assert!((d.energy.total_secs() - r.exec_secs).abs() < 1e-6,
                "disk accounted {} vs exec {}", d.energy.total_secs(), r.exec_secs);
            for w in d.gaps.windows(2) {
                prop_assert!(w[0].end <= w[1].start + 1e-12);
            }
            for g in &d.gaps {
                prop_assert!(g.start >= -1e-12 && g.end <= r.exec_secs + 1e-9);
            }
        }
        prop_assert!(r.stall_secs.abs() < 1e-9, "base run never stalls");
    }

    /// The oracle policies never lose to Base on energy and never extend
    /// execution.
    #[test]
    fn oracles_dominate_base(trace in trace_strategy()) {
        let p = ultrastar36z15();
        let pool = DiskPool::new(trace.pool_size);
        let base = simulate(&trace, &p, pool, &Policy::Base);
        for policy in [Policy::IdealTpm, Policy::IdealDrpm] {
            let r = simulate(&trace, &p, pool, &policy);
            prop_assert!(r.total_energy_j() <= base.total_energy_j() + 1e-6,
                "{} lost energy: {} vs {}", r.policy, r.total_energy_j(), base.total_energy_j());
            prop_assert!(r.exec_secs <= base.exec_secs + 1e-6,
                "{} slowed down", r.policy);
        }
    }

    /// Reactive policies may trade time for energy but never corrupt the
    /// ledger, and TPM with an infinite threshold degenerates to Base.
    #[test]
    fn reactive_runs_are_consistent(trace in trace_strategy()) {
        let p = ultrastar36z15();
        let pool = DiskPool::new(trace.pool_size);
        let base = simulate(&trace, &p, pool, &Policy::Base);
        let drpm = simulate(&trace, &p, pool, &Policy::Drpm(DrpmConfig::default()));
        prop_assert!(drpm.exec_secs + 1e-9 >= base.exec_secs,
            "reactive DRPM cannot run faster than base");
        for d in &drpm.per_disk {
            prop_assert!((d.energy.total_secs() - drpm.exec_secs).abs() < 1e-6);
        }
        let inf = simulate(
            &trace,
            &p,
            pool,
            &Policy::Tpm(TpmConfig {
                threshold_secs: Some(f64::INFINITY),
            }),
        );
        prop_assert!((inf.total_energy_j() - base.total_energy_j()).abs() < 1e-6);
        prop_assert!((inf.exec_secs - base.exec_secs).abs() < 1e-12);
    }

    /// Determinism: the same trace and policy give bit-identical reports.
    #[test]
    fn simulation_is_deterministic(trace in trace_strategy()) {
        let p = ultrastar36z15();
        let pool = DiskPool::new(trace.pool_size);
        for policy in [
            Policy::Base,
            Policy::Tpm(TpmConfig::default()),
            Policy::Drpm(DrpmConfig::default()),
            Policy::IdealDrpm,
        ] {
            let a = simulate(&trace, &p, pool, &policy);
            let b = simulate(&trace, &p, pool, &policy);
            prop_assert_eq!(a.total_energy_j().to_bits(), b.total_energy_j().to_bits());
            prop_assert_eq!(a.exec_secs.to_bits(), b.exec_secs.to_bits());
        }
    }
}

/// Random open-loop tenants: a pool of 1–3 disks and 1–4 tenants, each
/// with 0–400 `Io` requests as `(time quantum, disk, size class,
/// sequential)`. Forty 20 ms quanta hold up to 1,600 requests, so
/// bursts queue hundreds deep and times tie across tenants.
type Tenants = (u32, Vec<Vec<(u32, u32, usize, bool)>>);

fn tenants_strategy() -> impl Strategy<Value = Tenants> {
    (
        1u32..4,
        proptest::collection::vec(
            proptest::collection::vec((0u32..40, 0u32..3, 0usize..3, any::<bool>()), 0..401),
            1..5,
        ),
    )
}

/// Nearest-rank 99th percentile of a full sort: the first element whose
/// 1-based rank `k` covers 99% of the values (`100 k >= 99 n`).
fn p99_by_sort(v: &[f64]) -> f64 {
    let mut sorted = v.to_vec();
    sorted.sort_by(f64::total_cmp);
    (1..=v.len())
        .find(|k| 100 * k >= 99 * v.len())
        .map_or(0.0, |k| sorted[k - 1])
}

fn max_of(v: &[f64]) -> f64 {
    v.iter().copied().fold(0.0, f64::max)
}

fn assert_mean_close(got: f64, resp: &[f64]) {
    let want = resp.iter().sum::<f64>() / resp.len().max(1) as f64;
    assert!(
        (got - want).abs() <= 1e-12 * want.abs(),
        "mean {got} vs {want}"
    );
}

proptest! {
    /// The shared-pool engine under `MixPolicy::Base` against a model
    /// written here: each disk serves its requests in merge order, with
    /// `start = max(arrival, previous completion)` and `completion =
    /// start + service time` at full speed; the queue depth at an
    /// arrival counts the earlier requests on its disk still in flight;
    /// p99 is the nearest rank of a full sort. Per-disk counts, busy
    /// time and depth, the makespan, and every p99 and max match bit for
    /// bit; means match to 1e-12 relative.
    #[test]
    fn mix_queueing_and_percentiles_match_brute_force(tenants in tenants_strategy()) {
        let (disks, raw) = tenants;
        let p = ultrastar36z15();
        let ladder = RpmLadder::new(&p);
        let streams: Vec<TenantStream> = raw
            .iter()
            .zip(0u32..)
            .map(|(reqs, tenant)| {
                let mut reqs = reqs.clone();
                reqs.sort_by_key(|r| r.0);
                let events = reqs
                    .iter()
                    .zip(0u64..)
                    .map(|(&(q, disk, size, sequential), seq)| TimedEvent {
                        at_secs: f64::from(q) * 0.02,
                        seq,
                        event: AppEvent::Io(IoRequest {
                            disk: DiskId(disk % disks),
                            start_block: seq * 128,
                            size_bytes: [4096, 64 * 1024, 512 * 1024][size],
                            kind: ReqKind::Read,
                            sequential,
                            nest: 0,
                            iter: seq,
                        }),
                    })
                    .collect();
                TenantStream { tenant, events }
            })
            .collect();
        let merged = merge_tenants(&streams);
        let names: Vec<String> = (0..streams.len()).map(|t| format!("t{t}")).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let r = simulate_mix(&merged, &names, &p, DiskPool::new(disks), &MixPolicy::Base)
            .expect("valid mix");

        let mut completions: Vec<Vec<f64>> = vec![Vec::new(); disks as usize];
        let mut busy = vec![0.0f64; disks as usize];
        let mut depth = vec![0usize; disks as usize];
        let mut resp: Vec<Vec<f64>> = vec![Vec::new(); streams.len()];
        let mut makespan = 0.0f64;
        for e in &merged {
            let AppEvent::Io(req) = &e.event else {
                unreachable!("the streams hold only Io events")
            };
            let d = req.disk.0 as usize;
            let a = e.at_secs;
            let start = completions[d].last().map_or(a, |&c| a.max(c));
            let st = service_time_secs(&ladder,
                ladder.max_level(),
                ServiceRequest {
                    size_bytes: req.size_bytes,
                    sequential: req.sequential,
                },
            );
            let completion = start + st;
            let in_flight = completions[d].iter().filter(|&&c| c > a).count();
            depth[d] = depth[d].max(in_flight + 1);
            completions[d].push(completion);
            busy[d] += st;
            resp[e.tenant as usize].push(completion - a);
            makespan = makespan.max(completion);
        }

        for (d, got) in r.per_disk.iter().enumerate() {
            prop_assert_eq!(got.requests, completions[d].len() as u64);
            prop_assert_eq!(got.busy_secs.to_bits(), busy[d].to_bits());
            prop_assert_eq!(got.max_queue_depth, depth[d], "disk {}", d);
        }
        prop_assert_eq!(r.makespan_secs.to_bits(), makespan.to_bits());
        for (t, got) in r.per_tenant.iter().enumerate() {
            prop_assert_eq!(got.requests, resp[t].len() as u64);
            prop_assert_eq!(got.p99_response_secs.to_bits(), p99_by_sort(&resp[t]).to_bits());
            prop_assert_eq!(got.max_response_secs.to_bits(), max_of(&resp[t]).to_bits());
            assert_mean_close(got.mean_response_secs, &resp[t]);
        }
        let all: Vec<f64> = resp.concat();
        prop_assert_eq!(r.requests, all.len() as u64);
        prop_assert_eq!(r.p99_response_secs.to_bits(), p99_by_sort(&all).to_bits());
        prop_assert_eq!(r.max_response_secs.to_bits(), max_of(&all).to_bits());
        assert_mean_close(r.mean_response_secs, &all);
    }
}
