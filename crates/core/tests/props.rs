//! Property tests for the instrumentation pass.

#[path = "../../trace/tests/support/mod.rs"]
mod support;
#[path = "support/weave.rs"]
mod weave;

use proptest::prelude::*;
use sdpm_core::{insert_directives, plan_directives, CmMode, NoiseModel};
use sdpm_disk::{ultrastar36z15, RpmLadder, RpmLevel};
use sdpm_layout::{DiskId, DiskPool};
use sdpm_trace::{generate, AppEvent, IoRequest, PowerAction, ReqKind, Trace};
use support::random_program;
use weave::reference_weave;

/// Random alternating compute/IO traces (valid by construction).
fn trace_strategy() -> impl Strategy<Value = Trace> {
    let pool = 4u32;
    proptest::collection::vec(
        (0.0f64..20.0, 0..pool, 1u64..256 * 1024, any::<bool>()),
        1..40,
    )
    .prop_map(move |items| {
        let mut events = Vec::new();
        for (i, (gap, disk, size, write)) in items.into_iter().enumerate() {
            events.push(AppEvent::Compute {
                nest: 0,
                first_iter: i as u64 * 10,
                iters: 10,
                secs: gap,
            });
            events.push(AppEvent::Io(IoRequest {
                disk: DiskId(disk),
                start_block: i as u64 * 64,
                size_bytes: size,
                kind: if write { ReqKind::Write } else { ReqKind::Read },
                sequential: false,
                nest: 0,
                iter: i as u64 * 10 + 9,
            }));
        }
        Trace {
            name: "prop".into(),
            pool_size: pool,
            events,
        }
    })
}

fn io_multiset(t: &Trace) -> Vec<(u32, u64, u64)> {
    let mut v: Vec<_> = t
        .requests()
        .map(|r| (r.disk.0, r.start_block, r.size_bytes))
        .collect();
    v.sort_unstable();
    v
}

/// Per disk, the woven calls alternate slow-down then restore: a restore
/// (`SpinUp` or `SetRpm(max)`) never comes without an unrestored
/// slow-down before it, and no slow-down follows an unrestored one.
fn check_alternation(trace: &Trace, max: RpmLevel) {
    let mut lowered = vec![false; trace.pool_size as usize];
    for e in &trace.events {
        if let AppEvent::Power { disk, action } = e {
            let d = disk.0 as usize;
            let restore = match action {
                PowerAction::SpinUp => true,
                PowerAction::SpinDown => false,
                PowerAction::SetRpm(l) => *l == max,
            };
            if restore {
                assert!(lowered[d], "restore without slow-down on disk {d}");
            } else {
                assert!(!lowered[d], "double slow-down on disk {d}");
            }
            lowered[d] = !restore;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Instrumentation preserves the I/O multiset and total compute time,
    /// yields a valid trace, and every inserted call targets an in-pool
    /// disk.
    #[test]
    fn insertion_conserves_the_application(
        trace in trace_strategy(),
        mode_drpm in any::<bool>(),
        spread in 0.0f64..0.3,
        jitter in 0.0f64..0.3,
        seed in 0u64..1000,
    ) {
        let params = ultrastar36z15();
        let mode = if mode_drpm { CmMode::Drpm } else { CmMode::Tpm };
        let out = insert_directives(
            &trace,
            &params,
            &NoiseModel { spread, gap_jitter: jitter, seed },
            mode,
            50e-6,
        );
        prop_assert_eq!(out.trace.validate(), Ok(()));
        prop_assert_eq!(io_multiset(&out.trace), io_multiset(&trace));
        let c0 = trace.stats().compute_secs;
        let c1 = out.trace.stats().compute_secs;
        prop_assert!((c0 - c1).abs() < 1e-6);
        prop_assert_eq!(out.trace.stats().power_calls, out.inserted as u64);
        for e in &out.trace.events {
            if let AppEvent::Power { disk, .. } = e {
                prop_assert!(disk.0 < trace.pool_size);
            }
        }
    }

    /// Per disk, the call stream alternates slow-down / restore: a
    /// restore (SetRpm to max or SpinUp) never appears without a
    /// preceding un-restored slow-down.
    #[test]
    fn calls_alternate_per_disk(trace in trace_strategy(), seed in 0u64..200) {
        let params = ultrastar36z15();
        let max = RpmLadder::new(&params).max_level();
        let out = insert_directives(
            &trace,
            &params,
            &NoiseModel { spread: 0.1, gap_jitter: 0.1, seed },
            CmMode::Drpm,
            50e-6,
        );
        check_alternation(&out.trace, max);
    }

    /// The same alternation on the traces of random programs, in both
    /// modes. Nests run at 1 µs, 0.1 s or 10 s per iteration, so gaps
    /// open on one-iteration compute spans and on other disks' requests
    /// as well as inside long spans.
    #[test]
    fn woven_calls_alternate_on_random_programs(
        seed in any::<u64>(),
        speeds in proptest::collection::vec(0usize..3, 3),
        noise_seed in 0u64..200,
    ) {
        let (mut program, gen) = random_program(seed);
        for (nest, &speed) in program.nests.iter_mut().zip(&speeds) {
            nest.cycles_per_iter = [750.0, 7.5e7, 7.5e9][speed];
        }
        let trace = generate(&program, DiskPool::new(4), gen);
        let params = ultrastar36z15();
        let max = RpmLadder::new(&params).max_level();
        for mode in [CmMode::Tpm, CmMode::Drpm] {
            let out = insert_directives(
                &trace,
                &params,
                &NoiseModel { spread: 0.1, gap_jitter: 0.1, seed: noise_seed },
                mode,
                50e-6,
            );
            check_alternation(&out.trace, max);
        }
    }

    /// The woven trace is the reference weave of the plan's pins, on
    /// random traces and on the traces of random programs, in both modes.
    #[test]
    fn weave_matches_the_reference_weave(
        trace in trace_strategy(),
        seed in any::<u64>(),
        speeds in proptest::collection::vec(0usize..3, 3),
        noise_seed in 0u64..200,
    ) {
        let (mut program, gen) = random_program(seed);
        for (nest, &speed) in program.nests.iter_mut().zip(&speeds) {
            nest.cycles_per_iter = [750.0, 7.5e7, 7.5e9][speed];
        }
        let generated = generate(&program, DiskPool::new(4), gen);
        let params = ultrastar36z15();
        let max = RpmLadder::new(&params).max_level();
        let noise = NoiseModel { spread: 0.1, gap_jitter: 0.1, seed: noise_seed };
        for base in [&trace, &generated] {
            for mode in [CmMode::Tpm, CmMode::Drpm] {
                let out = insert_directives(base, &params, &noise, mode, 50e-6);
                let plan = plan_directives(base, &params, &noise, mode, 50e-6);
                prop_assert_eq!(out.inserted, plan.pins().len());
                prop_assert_eq!(&out.trace.events, &reference_weave(base, plan.pins(), max));
                // Calls pinned past the end of the trace being woven go
                // at its end: the plan woven into a prefix of its trace.
                let prefix = Trace {
                    events: base.events[..base.events.len() / 2].to_vec(),
                    ..base.clone()
                };
                let mut woven = Vec::new();
                let _ = plan.weave(&prefix, |e| {
                    woven.push(*e);
                    Ok::<(), ()>(())
                });
                prop_assert_eq!(woven, reference_weave(&prefix, plan.pins(), max));
            }
        }
    }

    /// The decision list covers every positive-length gap of every disk
    /// that appears in the trace: #decisions == #requests-per-disk sums
    /// (+1 trailing each) minus zero-length gaps.
    #[test]
    fn decisions_cover_disks(trace in trace_strategy()) {
        let params = ultrastar36z15();
        let out = insert_directives(
            &trace,
            &params,
            &NoiseModel::exact(),
            CmMode::Drpm,
            50e-6,
        );
        let mut per_disk = vec![0u64; trace.pool_size as usize];
        for r in trace.requests() {
            per_disk[r.disk.0 as usize] += 1;
        }
        // Each disk contributes at most one gap per request plus the
        // trailing gap — including request-free disks, whose single
        // whole-program gap still gets a decision.
        let upper: u64 = per_disk.iter().map(|&n| n + 1).sum();
        prop_assert!(out.decisions.len() as u64 <= upper);
    }
}

/// The weave checks each call and split half it synthesizes, as
/// `Trace::validate` would in the woven trace: a plan woven into a trace
/// of a smaller pool names a disk outside it.
#[test]
#[should_panic(expected = "instrumented trace must be valid")]
fn weave_rejects_a_call_outside_the_pool() {
    let (mut program, gen) = random_program(7);
    for nest in &mut program.nests {
        nest.cycles_per_iter = 7.5e9;
    }
    let mut trace = generate(&program, DiskPool::new(4), gen);
    let params = ultrastar36z15();
    let plan = plan_directives(&trace, &params, &NoiseModel::exact(), CmMode::Drpm, 50e-6);
    let last = plan.pins().iter().map(|p| p.disk().0).max();
    trace.pool_size = last.expect("the plan pins a call");
    let _ = plan.weave(&trace, |_| Ok::<(), ()>(()));
}
