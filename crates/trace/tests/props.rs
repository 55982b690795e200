//! Property tests for traces: generator conservation laws, lossless
//! run compression, tenant merging, and the generator against a spec
//! walk.

mod support;

use proptest::prelude::*;
use proptest::strategy::ValueTree;
use sdpm_disk::RpmLevel;
use sdpm_ir::conform::linearized_ref;
use sdpm_ir::{AffineExpr, ArrayRef, LoopDim, LoopNest, Program, Statement};
use sdpm_layout::{ArrayFile, DiskId, DiskPool, StorageOrder, Striping};
use sdpm_trace::{
    compress, generate, merge_tenants, tenant_timeline, AppEvent, IoRequest, PowerAction, REvent,
    ReqKind, TenantCursor, TenantEvent, TenantMerge, TenantStream, TimedEvent, Trace,
    TraceGenConfig,
};
use support::{random_program, spec_walk};

fn event_strategy(pool: u32, nest: usize) -> impl Strategy<Value = AppEvent> {
    prop_oneof![
        (0u64..1000, 1u64..100, 0.0f64..10.0).prop_map(move |(first, iters, secs)| {
            AppEvent::Compute {
                nest,
                first_iter: first,
                iters,
                secs,
            }
        }),
        (
            0..pool,
            0u64..1_000_000,
            1u64..1_000_000,
            any::<bool>(),
            any::<bool>(),
            0u64..10_000
        )
            .prop_map(move |(d, block, size, write, seq, iter)| {
                AppEvent::Io(IoRequest {
                    disk: DiskId(d),
                    start_block: block,
                    size_bytes: size,
                    kind: if write { ReqKind::Write } else { ReqKind::Read },
                    sequential: seq,
                    nest,
                    iter,
                })
            }),
        (0..pool, 0u8..3, 0u8..11).prop_map(move |(d, a, l)| AppEvent::Power {
            disk: DiskId(d),
            action: match a {
                0 => PowerAction::SpinDown,
                1 => PowerAction::SpinUp,
                _ => PowerAction::SetRpm(RpmLevel(l)),
            },
        }),
    ]
}

proptest! {
    /// Trace generation conserves compute time, covers each scanned byte
    /// exactly once per cold sweep, and yields only valid traces.
    #[test]
    fn generation_conservation(
        elems in 64u64..4096,
        chunk_pow in 7u32..14,
        factor in 1u32..8,
        cycles in 1.0f64..2000.0,
    ) {
        let chunk = 1u64 << chunk_pow;
        let pool = DiskPool::new(8);
        let file = ArrayFile {
            name: "A".into(),
            dims: vec![elems],
            element_bytes: 8,
            order: StorageOrder::RowMajor,
            striping: Striping {
                start_disk: DiskId(0),
                stripe_factor: factor,
                stripe_bytes: 4096,
            },
            base_block: 0,
        };
        let p = Program {
            name: "scan".into(),
            arrays: vec![file],
            nests: vec![LoopNest {
                label: "n".into(),
                loops: vec![LoopDim::simple(elems)],
                stmts: vec![Statement {
                    label: "S".into(),
                    refs: vec![ArrayRef::read(0, vec![AffineExpr::var(1, 0)])],
                }],
                cycles_per_iter: cycles,
            }],
            clock_hz: Program::PAPER_CLOCK_HZ,
        };
        p.validate(pool).unwrap();
        let t = generate(&p, pool, TraceGenConfig {
            io_chunk_bytes: chunk,
            detect_sequential: false,
        });
        prop_assert_eq!(t.validate(), Ok(()));
        let stats = t.stats();
        // Cold sequential scan: every byte fetched exactly once.
        prop_assert_eq!(stats.bytes, elems * 8);
        // Compute fully accounted.
        let expected = elems as f64 * cycles / Program::PAPER_CLOCK_HZ;
        prop_assert!((stats.compute_secs - expected).abs() < 1e-9);
        // Requests equal the chunk count (split across stripes).
        let chunks = (elems * 8).div_ceil(chunk);
        prop_assert!(stats.requests >= chunks);
    }

    /// Run compression is lossless on arbitrary event sequences: lowering
    /// the compressed form reproduces exactly the events it was fed,
    /// whatever mix of compute spans, requests, and power directives.
    #[test]
    fn compression_round_trips_arbitrary_event_sequences(
        pool in 1u32..16,
        events in proptest::collection::vec((0usize..4, 0u32..1000), 0..80),
    ) {
        let mut evs = Vec::new();
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let mut last_nest = 0usize;
        for (nest_inc, _) in events {
            last_nest += nest_inc % 2;
            let e = event_strategy(pool, last_nest)
                .new_tree(&mut runner)
                .unwrap()
                .current();
            evs.push(e);
        }
        let t = Trace { name: "arb".into(), pool_size: pool, events: evs };
        let rt = compress(&t);
        prop_assert_eq!(rt.lower(), t);
    }

    /// Rotating periodic traces (the striped-layout shape) compress into
    /// genuine runs that lower back exactly; a single perturbed request
    /// anywhere still round-trips.
    #[test]
    fn compression_recovers_rotating_periodic_structure(
        n in 4u64..48,
        m in 1u64..7,
        q in 1u64..4,
        perturb_seed in 0usize..1200,
    ) {
        // The vendored proptest has no `option` module; low seeds mean
        // "leave the trace clean".
        let perturb = (perturb_seed >= 200).then_some(perturb_seed);
        let pool = 8u32;
        let mut evs = Vec::new();
        for k in 0..n {
            evs.push(AppEvent::Compute { nest: 0, first_iter: k * 4, iters: 4, secs: 1.0e-6 });
            for j in 0..q {
                evs.push(AppEvent::Io(IoRequest {
                    disk: DiskId((((k % m) + j) % u64::from(pool)) as u32),
                    start_block: (k / m) * 64 + j * 100_000,
                    size_bytes: 4096,
                    kind: ReqKind::Read,
                    sequential: false,
                    nest: 0,
                    iter: (k + 1) * 4,
                }));
            }
        }
        let perturbed = perturb.map(|seed| {
            let idx = seed % evs.len();
            if let AppEvent::Io(r) = &mut evs[idx] {
                r.start_block += 7;
            }
            idx
        });
        let t = Trace { name: "rot".into(), pool_size: pool, events: evs };
        let rt = compress(&t);
        prop_assert_eq!(rt.lower(), t.clone());
        let fused = rt.events.iter().any(|e| matches!(e, REvent::Run(_)));
        if perturbed.is_none() && n >= 4 * m {
            prop_assert!(fused, "a clean rotation-{} trace of {} periods must fuse", m, n);
            prop_assert!((rt.events.len() as u64) < t.events.len() as u64);
        }
    }

    /// Nominal arrivals are non-decreasing and one per request.
    #[test]
    fn nominal_arrivals_monotone(
        elems in 64u64..2048,
        chunk_pow in 7u32..12,
    ) {
        let chunk = 1u64 << chunk_pow;
        let pool = DiskPool::new(4);
        let file = ArrayFile {
            name: "A".into(),
            dims: vec![elems],
            element_bytes: 8,
            order: StorageOrder::RowMajor,
            striping: Striping {
                start_disk: DiskId(0),
                stripe_factor: 4,
                stripe_bytes: 2048,
            },
            base_block: 0,
        };
        let p = Program {
            name: "scan".into(),
            arrays: vec![file],
            nests: vec![LoopNest {
                label: "n".into(),
                loops: vec![LoopDim::simple(elems)],
                stmts: vec![Statement {
                    label: "S".into(),
                    refs: vec![ArrayRef::read(0, vec![AffineExpr::var(1, 0)])],
                }],
                cycles_per_iter: 100.0,
            }],
            clock_hz: Program::PAPER_CLOCK_HZ,
        };
        let t = generate(&p, pool, TraceGenConfig {
            io_chunk_bytes: chunk,
            detect_sequential: true,
        });
        let arrivals = t.nominal_arrivals();
        prop_assert_eq!(arrivals.len() as u64, t.stats().requests);
        for w in arrivals.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
        }
    }
}

/// The merge's specification: concatenate every tenant's events and
/// stable-sort them by `(time, tenant, seq)`.
fn spec_merge(streams: &[TenantStream]) -> Vec<TenantEvent> {
    let mut out: Vec<TenantEvent> = streams
        .iter()
        .flat_map(|s| {
            s.events.iter().map(|e| TenantEvent {
                at_secs: e.at_secs,
                tenant: s.tenant,
                seq: e.seq,
                event: e.event,
            })
        })
        .collect();
    out.sort_by(|a, b| {
        a.at_secs
            .total_cmp(&b.at_secs)
            .then(a.tenant.cmp(&b.tenant))
            .then(a.seq.cmp(&b.seq))
    });
    out
}

proptest! {
    /// Multi-tenant merge determinism (the scenario layer's contract):
    /// K interleaved tenant streams, merged in a random tenant ordering,
    /// equal the concatenate-and-sort spec event for event.
    #[test]
    fn tenant_merge_is_chunk_and_order_invariant(
        raw in proptest::collection::vec(proptest::collection::vec(0u32..40, 0..30), 1..5),
        seed in any::<u64>(),
    ) {
        // Quantized timestamps force plenty of cross-tenant ties, the
        // case the tenant tiebreak exists for.
        let streams: Vec<TenantStream> = raw
            .iter()
            .enumerate()
            .map(|(tenant, times)| {
                let mut ts = times.clone();
                ts.sort_unstable();
                TenantStream {
                    tenant: tenant as u32,
                    events: ts
                        .iter()
                        .enumerate()
                        .map(|(i, &q)| TimedEvent {
                            at_secs: f64::from(q) * 0.25,
                            seq: i as u64,
                            event: AppEvent::Io(IoRequest {
                                disk: DiskId(q % 2),
                                start_block: u64::from(q),
                                size_bytes: 4096,
                                kind: ReqKind::Read,
                                sequential: false,
                                nest: 0,
                                iter: i as u64,
                            }),
                        })
                        .collect(),
                }
            })
            .collect();
        let reference = spec_merge(&streams);
        // Seeded Fisher-Yates permutation of the input slice order; the
        // merge keys on tenant ids, so the order must not matter.
        let mut order: Vec<usize> = (0..streams.len()).collect();
        let mut s = seed;
        for i in (1..order.len()).rev() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = ((s >> 33) as usize) % (i + 1);
            order.swap(i, j);
        }
        let shuffled: Vec<TenantStream> = order.iter().map(|&i| streams[i].clone()).collect();
        let merged = merge_tenants(&shuffled);
        prop_assert_eq!(merged.len(), reference.len());
        for (a, b) in merged.iter().zip(&reference) {
            prop_assert_eq!(a.at_secs.to_bits(), b.at_secs.to_bits(), "timestamps drifted");
            prop_assert_eq!(a.tenant, b.tenant);
            prop_assert_eq!(a.seq, b.seq);
            prop_assert_eq!(&a.event, &b.event);
        }
    }
}

proptest! {
    /// A cursor yields the hand-walked timeline of a random trace (each
    /// `Io`/`Power` event at `offset + t / load` with the compute before
    /// it in `t`, its trace index as `seq`), and the lazy merge of such
    /// cursors yields, by reference, exactly what `merge_tenants` of the
    /// collected timelines copies.
    #[test]
    fn cursors_and_lazy_merge_match_the_materialized_timelines(
        tenants in proptest::collection::vec(
            (
                proptest::collection::vec((0usize..3, 0u32..40), 0..40),
                0u32..4,
                0.25f64..4.0,
            ),
            1..5,
        ),
    ) {
        let traces: Vec<(Trace, f64, f64)> = tenants
            .iter()
            .map(|(events, offset, load)| {
                let events = events
                    .iter()
                    .map(|&(kind, q)| match kind {
                        // Zero-length and quantized spans force ties.
                        0 => AppEvent::Compute {
                            nest: 0,
                            first_iter: 0,
                            iters: 1,
                            secs: f64::from(q % 4) * 0.5,
                        },
                        1 => AppEvent::Io(IoRequest {
                            disk: DiskId(q % 2),
                            start_block: u64::from(q),
                            size_bytes: 4096,
                            kind: ReqKind::Read,
                            sequential: false,
                            nest: 0,
                            iter: 0,
                        }),
                        _ => AppEvent::Power {
                            disk: DiskId(q % 2),
                            action: PowerAction::SpinDown,
                        },
                    })
                    .collect();
                let trace = Trace { name: "t".into(), pool_size: 2, events };
                (trace, f64::from(*offset), *load)
            })
            .collect();
        let streams: Vec<TenantStream> = (traces.iter().zip(0u32..))
            .map(|((trace, offset, load), tenant)| tenant_timeline(trace, tenant, *offset, *load))
            .collect();
        for (s, (trace, offset, load)) in streams.iter().zip(&traces) {
            let mut t = 0.0f64;
            let mut want = Vec::new();
            for (seq, event) in trace.events.iter().enumerate() {
                match event {
                    AppEvent::Compute { secs, .. } => t += secs,
                    _ => want.push((offset + t / load, seq as u64, *event)),
                }
            }
            let got: Vec<(f64, u64, AppEvent)> =
                s.events.iter().map(|e| (e.at_secs, e.seq, e.event)).collect();
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!((g.0.to_bits(), g.1, &g.2), (w.0.to_bits(), w.1, &w.2));
            }
        }
        let lazy: Vec<TenantEvent> = TenantMerge::new(
            (traces.iter().zip(0u32..))
                .map(|((trace, offset, load), tenant)| (tenant, TenantCursor::new(trace, *offset, *load))),
        )
        .map(|(at_secs, tenant, seq, event)| TenantEvent { at_secs, tenant, seq, event: *event })
        .collect();
        let merged = merge_tenants(&streams);
        prop_assert_eq!(lazy.len(), merged.len());
        for (a, b) in lazy.iter().zip(&merged) {
            prop_assert_eq!(
                (a.at_secs.to_bits(), a.tenant, a.seq, &a.event),
                (b.at_secs.to_bits(), b.tenant, b.seq, &b.event)
            );
        }
        prop_assert_eq!(&merged, &spec_merge(&streams));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The generated trace reproduces the spec walk event for event on
    /// random programs, including nests the generator must step one
    /// outer segment at a time.
    #[test]
    fn analytic_generation_matches_the_walk(seed in any::<u64>()) {
        let (p, config) = random_program(seed);
        let pool = DiskPool::new(4);
        prop_assert_eq!(p.validate(pool), Ok(()));
        let t = generate(&p, pool, config);
        prop_assert_eq!((t.name.as_str(), t.pool_size), (p.name.as_str(), 4));
        prop_assert_eq!(&t.events, &spec_walk(&p, pool, config));
    }
}

/// The random programs above reach the shapes the generator must segment:
/// nests whose references are affine only inside an inner suffix of the
/// loops.
#[test]
fn random_programs_include_nests_that_need_outer_segments() {
    let segmented = (0..256u64)
        .filter(|&seed| {
            let (p, _) = random_program(seed);
            p.nests.iter().any(|n| {
                n.stmts[0].refs.iter().any(|r| {
                    let file = &p.arrays[r.array];
                    let lin = linearized_ref(r, file, file.order);
                    n.affine_in_flat(&lin, 0).is_none()
                })
            })
        })
        .count();
    assert!(
        segmented >= 64,
        "{segmented} of 256 programs need outer segments"
    );
}

/// `generate` equals the spec walk under both `detect_sequential`
/// values.
fn assert_walk_matches_spec(p: &Program, pool: DiskPool, io_chunk_bytes: u64) {
    assert_eq!(p.validate(pool), Ok(()), "{}", p.name);
    for detect_sequential in [false, true] {
        let config = TraceGenConfig {
            io_chunk_bytes,
            detect_sequential,
        };
        assert_eq!(
            generate(p, pool, config).events,
            spec_walk(p, pool, config),
            "{} chunk {io_chunk_bytes} seq {detect_sequential}",
            p.name
        );
    }
}

fn file(name: &str, dims: Vec<u64>, element_bytes: u64, order: StorageOrder) -> ArrayFile {
    ArrayFile {
        name: name.into(),
        dims,
        element_bytes,
        order,
        striping: Striping {
            start_disk: DiskId(1),
            stripe_factor: 3,
            stripe_bytes: 512,
        },
        base_block: 0,
    }
}

fn affine(coeffs: &[i64], constant: i64) -> AffineExpr {
    AffineExpr {
        coeffs: coeffs.to_vec(),
        constant,
    }
}

/// A one-statement nest at 1 µs per iteration.
fn one_stmt_nest(label: &str, loops: Vec<LoopDim>, refs: Vec<ArrayRef>) -> LoopNest {
    LoopNest {
        label: label.into(),
        loops,
        stmts: vec![Statement {
            label: "S".into(),
            refs,
        }],
        cycles_per_iter: 750.0,
    }
}

fn program(name: &str, arrays: Vec<ArrayFile>, nests: Vec<LoopNest>) -> Program {
    Program {
        name: name.into(),
        arrays,
        nests,
        clock_hz: Program::PAPER_CLOCK_HZ,
    }
}

/// A program that reaches the generator's corners: a depth-0 nest, a
/// zero-trip loop, and two 70,000-iteration nests whose transposed
/// references are affine only inside the 1,000-trip inner loop (so the
/// generator steps 70 outer segments), with negative steps and
/// coefficients, arrays read through several strides in one iteration
/// (one reference's fetch moves the chunk another one tests), and 6 and
/// 11 references.
fn corner_program() -> Program {
    let arrays = vec![
        file("A", vec![140_000], 8, StorageOrder::RowMajor),
        file("B", vec![70, 1000], 8, StorageOrder::ColMajor),
        file("C", vec![1000, 70], 4, StorageOrder::RowMajor),
        file("D", vec![2000], 4, StorageOrder::RowMajor),
    ];
    // i0 runs 69 down to 0, i1 runs 0 to 999.
    let loops = vec![
        LoopDim {
            lower: 69,
            count: 70,
            step: -1,
        },
        LoopDim::simple(1000),
    ];
    let wide = vec![
        ArrayRef::read(0, vec![affine(&[1000, 1], 0)]),
        ArrayRef::read(3, vec![affine(&[0, 2], 0)]),
        ArrayRef::write(0, vec![affine(&[-1000, -1], 139_999)]),
        ArrayRef::read(1, vec![affine(&[1, 0], 0), affine(&[0, 1], 0)]),
        ArrayRef::read(2, vec![affine(&[0, 1], 0), affine(&[1, 0], 0)]),
        ArrayRef::write(1, vec![affine(&[-1, 0], 69), affine(&[0, -1], 999)]),
        ArrayRef::read(0, vec![affine(&[0, 2], 70_000)]),
        ArrayRef::read(3, vec![affine(&[0, 1], 1000)]),
        ArrayRef::write(2, vec![affine(&[0, -1], 999), affine(&[-1, 0], 69)]),
        ArrayRef::read(3, vec![affine(&[0, -2], 1999)]),
        ArrayRef::read(0, vec![affine(&[1000, 1], 0)]),
    ];
    program(
        "corners",
        arrays,
        vec![
            one_stmt_nest(
                "depth0",
                vec![],
                vec![
                    ArrayRef::read(0, vec![affine(&[], 5)]),
                    ArrayRef::write(1, vec![affine(&[], 3), affine(&[], 7)]),
                ],
            ),
            one_stmt_nest(
                "zero-trip",
                vec![
                    LoopDim::simple(5),
                    LoopDim {
                        lower: 3,
                        count: 0,
                        step: 1,
                    },
                ],
                vec![ArrayRef::read(0, vec![affine(&[1, 1], 0)])],
            ),
            one_stmt_nest("wide", loops.clone(), wide.clone()),
            one_stmt_nest("narrow", loops, wide[..6].to_vec()),
        ],
    )
}

/// A one-trip loop may carry a coefficient whose byte step overflows
/// `i64` (`2^61·8`): `validate` accepts it, since that step is never
/// taken, and generation must still be exact.
fn huge_coefficient_program() -> Program {
    program(
        "huge-coefficient",
        vec![file("H", vec![4096], 8, StorageOrder::RowMajor)],
        vec![one_stmt_nest(
            "n",
            vec![
                LoopDim {
                    lower: 0,
                    count: 1,
                    step: 1,
                },
                LoopDim::simple(4096),
            ],
            vec![ArrayRef::read(0, vec![affine(&[1 << 61, 1], 0)])],
        )],
    )
}

#[test]
fn walk_matches_the_spec_walk_at_every_corner() {
    let pool = DiskPool::new(4);
    for chunk in [64, 4096] {
        assert_walk_matches_spec(&corner_program(), pool, chunk);
        assert_walk_matches_spec(&huge_coefficient_program(), pool, chunk);
    }
}

/// A program at the edges of the generator's 64-bit arithmetic: byte
/// offsets within 16 bytes of `i64::MAX`, scanned up and down (negative
/// slopes, one of them −3); a transposed walk whose 2^32-byte steps and
/// segment carries of about −2^39 elements sit inside a 2^62-byte array; and a
/// 4 KiB array that the largest chunk sizes exceed.
fn magnitude_program() -> Program {
    let huge = |name: &str, dims: Vec<u64>| ArrayFile {
        striping: Striping {
            start_disk: DiskId(0),
            stripe_factor: 3,
            stripe_bytes: 1 << 58,
        },
        ..file(name, dims, 8, StorageOrder::RowMajor)
    };
    let top = (1i64 << 60) - 2;
    let scan = |lower: i64| {
        vec![LoopDim {
            lower,
            count: 5000,
            step: 1,
        }]
    };
    program(
        "magnitudes",
        vec![
            huge("T", vec![(1 << 60) - 1]),
            huge("M", vec![1 << 30, 1 << 29]),
            file("S", vec![512], 8, StorageOrder::RowMajor),
        ],
        vec![
            one_stmt_nest(
                "up",
                scan(0),
                vec![
                    ArrayRef::read(0, vec![affine(&[1], top - 4999)]),
                    ArrayRef::read(2, vec![affine(&[0], 7)]),
                ],
            ),
            one_stmt_nest(
                "down",
                scan(0),
                vec![
                    ArrayRef::write(0, vec![affine(&[-1], top)]),
                    ArrayRef::read(0, vec![affine(&[-3], top)]),
                ],
            ),
            one_stmt_nest(
                "transposed",
                vec![
                    LoopDim {
                        lower: (1 << 29) - 3,
                        count: 3,
                        step: 1,
                    },
                    LoopDim {
                        lower: (1 << 30) - 1000,
                        count: 1000,
                        step: 1,
                    },
                ],
                vec![ArrayRef::read(
                    1,
                    vec![affine(&[0, 1], 0), affine(&[1, 0], 0)],
                )],
            ),
            one_stmt_nest(
                "small",
                vec![LoopDim::simple(512)],
                vec![
                    ArrayRef::read(2, vec![affine(&[1], 0)]),
                    ArrayRef::write(2, vec![affine(&[-1], 511)]),
                ],
            ),
        ],
    )
}

#[test]
fn walk_matches_the_spec_walk_at_64_bit_magnitudes() {
    let pool = DiskPool::new(4);
    for chunk in [4096, 3000, 1 << 62, u64::MAX] {
        assert_walk_matches_spec(&magnitude_program(), pool, chunk);
    }
}

/// A row-major array of 8-byte elements striped in 16 KiB units over 4
/// disks, its blocks starting at `base_block`.
fn striped(name: &str, dims: Vec<u64>, base_block: u64) -> ArrayFile {
    ArrayFile {
        name: name.into(),
        dims,
        element_bytes: 8,
        order: StorageOrder::RowMajor,
        striping: Striping {
            start_disk: DiskId(0),
            stripe_factor: 4,
            stripe_bytes: 16 * 1024,
        },
        base_block,
    }
}

#[test]
fn forward_scan_matches_walk() {
    let p = program(
        "scan",
        vec![striped("A", vec![8192], 0)],
        vec![one_stmt_nest(
            "n",
            vec![LoopDim::simple(8192)],
            vec![ArrayRef::read(0, vec![AffineExpr::var(1, 0)])],
        )],
    );
    let pool = DiskPool::new(4);
    assert_walk_matches_spec(&p, pool, 8 * 1024);
    assert_walk_matches_spec(&p, pool, 32 * 1024);
}

#[test]
fn two_d_row_major_scan_matches_walk() {
    // elem = 128·i + j over a 64×128 array: affine in flat with slope 1.
    let p = program(
        "scan2d",
        vec![striped("A", vec![64, 128], 0)],
        vec![one_stmt_nest(
            "n",
            vec![LoopDim::simple(64), LoopDim::simple(128)],
            vec![ArrayRef::read(
                0,
                vec![AffineExpr::var(2, 0), AffineExpr::var(2, 1)],
            )],
        )],
    );
    assert_walk_matches_spec(&p, DiskPool::new(4), 4 * 1024);
}

#[test]
fn strided_and_offset_refs_match_walk() {
    // A[2i + 5]: slope 2 with a base offset.
    let p = program(
        "stride2",
        vec![striped("A", vec![8192], 0)],
        vec![one_stmt_nest(
            "n",
            vec![LoopDim::simple(4000)],
            vec![ArrayRef::read(0, vec![AffineExpr::scaled_var(1, 0, 2, 5)])],
        )],
    );
    assert_walk_matches_spec(&p, DiskPool::new(4), 4 * 1024);
}

#[test]
fn negative_step_scan_matches_walk() {
    // for i = 8191 downto 0: A[i] — negative slope in flat.
    let p = program(
        "revscan",
        vec![striped("A", vec![8192], 0)],
        vec![one_stmt_nest(
            "n",
            vec![LoopDim {
                lower: 8191,
                count: 8192,
                step: -1,
            }],
            vec![ArrayRef::read(0, vec![AffineExpr::var(1, 0)])],
        )],
    );
    assert_walk_matches_spec(&p, DiskPool::new(4), 8 * 1024);
}

#[test]
fn multiple_arrays_and_shared_arrays_match_walk() {
    // Two arrays plus a second ref to the first (cache interaction
    // between refs sharing an array).
    let p = program(
        "multi",
        vec![
            striped("A", vec![8192], 0),
            striped("B", vec![8192], 1 << 20),
        ],
        vec![one_stmt_nest(
            "n",
            vec![LoopDim::simple(8192)],
            vec![
                ArrayRef::read(0, vec![AffineExpr::var(1, 0)]),
                ArrayRef::read(1, vec![AffineExpr::var(1, 0)]),
                ArrayRef::write(0, vec![AffineExpr::var(1, 0)]),
            ],
        )],
    );
    assert_walk_matches_spec(&p, DiskPool::new(4), 8 * 1024);
}

#[test]
fn column_scan_steps_the_outer_loop_and_matches() {
    // A[j][i] with i outer, j inner over a row-major array: elem =
    // 64·j + i is not affine in flat, only inside the inner loop.
    let p = program(
        "colscan",
        vec![striped("A", vec![128, 64], 0)],
        vec![one_stmt_nest(
            "n",
            vec![LoopDim::simple(64), LoopDim::simple(128)],
            vec![ArrayRef::read(
                0,
                vec![AffineExpr::var(2, 1), AffineExpr::var(2, 0)],
            )],
        )],
    );
    let nest = &p.nests[0];
    let lin = linearized_ref(&nest.stmts[0].refs[0], &p.arrays[0], StorageOrder::RowMajor);
    assert!(nest.affine_in_flat(&lin, 0).is_none());
    assert!(nest.affine_in_flat(&lin, 1).is_some());
    assert_walk_matches_spec(&p, DiskPool::new(4), 4 * 1024);
}

#[test]
fn multi_nest_programs_match_walk_across_boundaries() {
    let scan_nest = one_stmt_nest(
        "n",
        vec![LoopDim::simple(8192)],
        vec![ArrayRef::read(0, vec![AffineExpr::var(1, 0)])],
    );
    let col_nest = LoopNest {
        cycles_per_iter: 500.0,
        ..one_stmt_nest(
            "c",
            vec![LoopDim::simple(64), LoopDim::simple(128)],
            vec![ArrayRef::read(
                1,
                vec![AffineExpr::var(2, 1), AffineExpr::var(2, 0)],
            )],
        )
    };
    let p = program(
        "mixed",
        vec![
            striped("A", vec![8192], 0),
            striped("B", vec![128, 64], 1 << 20),
        ],
        vec![scan_nest.clone(), col_nest, scan_nest],
    );
    assert_walk_matches_spec(&p, DiskPool::new(4), 8 * 1024);
}
