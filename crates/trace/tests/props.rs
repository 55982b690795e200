//! Property tests for traces: codec round-trips, generator
//! conservation laws, and the walk against a spec walk.

use proptest::prelude::*;
use proptest::strategy::ValueTree;
use sdpm_disk::RpmLevel;
use sdpm_ir::conform::linearized_ref;
use sdpm_ir::{walk_nest, AffineExpr, ArrayRef, LoopDim, LoopNest, Program, RefKind, Statement};
use sdpm_layout::{ArrayFile, DiskId, DiskPool, StorageOrder, Striping, BLOCK_BYTES};
use sdpm_trace::codec::{decode, decode_runs, encode, encode_runs, CodecError};
use sdpm_trace::{
    compress, generate, generate_runs, merge_tenants, AppEvent, IoRequest, PowerAction, REvent,
    ReqKind, TenantEvent, TenantStream, TimedEvent, Trace, TraceGenConfig,
};

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
    /// encode/decode round-trips arbitrary traces exactly.
    #[test]
    fn codec_round_trips(
        pool in 1u32..16,
        name in "[a-z0-9.]{0,20}",
        events in proptest::collection::vec((0usize..4, 0u32..1000), 0..60),
    ) {
        // Build events with non-decreasing nest ids (validity not needed
        // for the codec, but keeps things tidy).
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
        let t = Trace {
            name,
            pool_size: pool,
            events: evs,
        };
        let bytes = encode(&t);
        let back = decode(&bytes).unwrap();
        prop_assert_eq!(back, t);
    }

    /// The wire format can be written event at a time: a header ending
    /// in the event count, then one record per event that depends on no
    /// neighbour. So the records of a trace split anywhere, spliced
    /// behind the whole trace's header, are byte-identical to the
    /// one-shot encoding and decode back to the trace.
    #[test]
    fn streaming_codec_round_trips(
        pool in 1u32..16,
        name in "[a-z0-9.]{0,20}",
        split_seed in 0usize..64,
        events in proptest::collection::vec((0usize..4, 0u32..1000), 0..60),
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
        let t = Trace { name, pool_size: pool, events: evs };
        let split = split_seed % (t.events.len() + 1);

        let part = |evs: &[AppEvent]| {
            encode(&Trace { name: t.name.clone(), pool_size: pool, events: evs.to_vec() })
        };
        let header = part(&[]);
        let (head, count) = header.split_at(header.len() - 8);
        prop_assert_eq!(count, &0u64.to_le_bytes()[..]);
        let records = |evs: &[AppEvent]| part(evs)[header.len()..].to_vec();

        let mut spliced = head.to_vec();
        spliced.extend_from_slice(&(t.events.len() as u64).to_le_bytes());
        spliced.extend(records(&t.events[..split]));
        spliced.extend(records(&t.events[split..]));
        prop_assert_eq!(&spliced, &encode(&t));
        prop_assert_eq!(decode(&spliced).unwrap(), t);
    }

    /// Cutting an encoded trace anywhere short of its full length makes
    /// the decoder report `Truncated` — never a partial success, never a
    /// panic.
    #[test]
    fn codec_rejects_truncation_anywhere(
        pool in 1u32..8,
        cut_seed in 0usize..10_000,
        events in proptest::collection::vec(0u32..1000, 1..40),
    ) {
        let mut evs = Vec::new();
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        for _ in events {
            let e = event_strategy(pool, 0)
                .new_tree(&mut runner)
                .unwrap()
                .current();
            evs.push(e);
        }
        let t = Trace { name: "cut".into(), pool_size: pool, events: evs };
        let bytes = encode(&t);
        let cut = cut_seed % (bytes.len() - 1).max(1);
        prop_assert_eq!(decode(&bytes[..cut]), Err(CodecError::Truncated));
    }

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

    /// The v2 codec round-trips run-compressed traces exactly, and the
    /// per-event decoder lowers the same bytes back to the original
    /// per-event sequence (legacy consumers read v2 unchanged).
    #[test]
    fn run_codec_round_trips(
        pool in 1u32..16,
        events in proptest::collection::vec((0usize..4, 0u32..1000), 0..60),
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
        let t = Trace { name: "v2".into(), pool_size: pool, events: evs };
        let rt = compress(&t);
        let bytes = encode_runs(&rt).unwrap();
        prop_assert_eq!(decode_runs(&bytes).unwrap(), rt);
        // The event-level decoder lowers v2 runs.
        prop_assert_eq!(decode(&bytes).unwrap(), t);
    }

    /// Cutting a v2 encoding anywhere short of its full length makes both
    /// decoders report `Truncated` — never a partial success, never a
    /// panic — even when the cut lands inside a run record.
    #[test]
    fn run_codec_rejects_truncation_anywhere(
        n in 4u64..24,
        m in 1u64..5,
        cut_seed in 0usize..10_000,
    ) {
        let pool = 8u32;
        let mut evs = Vec::new();
        for k in 0..n {
            evs.push(AppEvent::Compute { nest: 0, first_iter: k * 2, iters: 2, secs: 5.0e-7 });
            evs.push(AppEvent::Io(IoRequest {
                disk: DiskId((k % m) as u32),
                start_block: (k / m) * 32,
                size_bytes: 2048,
                kind: ReqKind::Read,
                sequential: false,
                nest: 0,
                iter: (k + 1) * 2,
            }));
        }
        let t = Trace { name: "cutv2".into(), pool_size: pool, events: evs };
        let rt = compress(&t);
        let bytes = encode_runs(&rt).unwrap();
        let cut = cut_seed % (bytes.len() - 1).max(1);
        prop_assert_eq!(decode_runs(&bytes[..cut]), Err(CodecError::Truncated));
        prop_assert_eq!(decode(&bytes[..cut]), Err(CodecError::Truncated));
    }

    /// Fuzz: arbitrary byte strings fed to every decoder entry point
    /// produce an error or a trace — never a panic. Covers garbage that
    /// is not just a truncation of a valid encoding.
    #[test]
    fn arbitrary_bytes_never_panic_the_decoders(
        bytes in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        let _ = decode(&bytes);
        let _ = decode_runs(&bytes);
    }

    /// Fuzz: a valid header followed by arbitrary garbage exercises the
    /// record readers (not just header rejection); still error-not-panic.
    #[test]
    fn valid_header_with_garbage_tail_never_panics(
        version_v2 in any::<bool>(),
        pool in 1u32..16,
        count in 0u64..10_000,
        tail in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"SDPM");
        bytes.extend_from_slice(&(if version_v2 { 2u16 } else { 1u16 }).to_le_bytes());
        bytes.extend_from_slice(&pool.to_le_bytes());
        bytes.extend_from_slice(&2u16.to_le_bytes());
        bytes.extend_from_slice(b"fz");
        bytes.extend_from_slice(&count.to_le_bytes());
        bytes.extend_from_slice(&tail);
        let _ = decode(&bytes);
        let _ = decode_runs(&bytes);
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

/// An attacker-controlled count of `u64::MAX` in the header must not
/// drive a pre-allocation: the decoders cap their reservations by the
/// buffer length, so the hostile count surfaces as `Truncated` long
/// before memory is at risk.
#[test]
fn hostile_length_prefix_does_not_preallocate() {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"SDPM");
    bytes.extend_from_slice(&1u16.to_le_bytes());
    bytes.extend_from_slice(&4u32.to_le_bytes());
    bytes.extend_from_slice(&0u16.to_le_bytes());
    bytes.extend_from_slice(&u64::MAX.to_le_bytes());
    assert_eq!(decode(&bytes), Err(CodecError::Truncated));
    assert_eq!(decode_runs(&bytes).unwrap_err(), CodecError::Truncated);

    // Same for a v2 run record claiming u32::MAX request templates.
    let mut v2 = Vec::new();
    v2.extend_from_slice(b"SDPM");
    v2.extend_from_slice(&2u16.to_le_bytes());
    v2.extend_from_slice(&4u32.to_le_bytes());
    v2.extend_from_slice(&0u16.to_le_bytes());
    v2.extend_from_slice(&1u64.to_le_bytes()); // one record
    v2.push(3); // tag: Run
    v2.extend_from_slice(&1u64.to_le_bytes()); // count
    v2.extend_from_slice(&0u32.to_le_bytes()); // nest
    v2.extend_from_slice(&0u64.to_le_bytes()); // first_iter
    v2.extend_from_slice(&1u64.to_le_bytes()); // iters_per_rep
    v2.extend_from_slice(&1.0f64.to_le_bytes()); // secs_per_rep
    v2.extend_from_slice(&1u32.to_le_bytes()); // rotation
    v2.extend_from_slice(&u32::MAX.to_le_bytes()); // nreqs: hostile
    assert_eq!(decode_runs(&v2).unwrap_err(), CodecError::Truncated);
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

/// A splitmix64 stream over one drawn seed. Random programs are built
/// procedurally: their subscripts and extents depend on the loops drawn
/// before them.
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// A random valid program with its generator configuration: 1–3 nests
/// of depth 0–3 (trip counts include 0 and 1, lower bounds are nonzero,
/// steps negative) with 1–4 references over 1–2 arrays of rank 1–2 in
/// either storage order. Subscript coefficients are drawn first, on
/// inner and outer loops alike, so transposed walks and outer-loop terms
/// occur. Then each subscript's constant is set to −min over the
/// iteration box, plus an offset that keeps it inside the extent, and
/// each extent to the widest max − min + 1 among the array's references.
fn random_program(seed: u64) -> (Program, TraceGenConfig) {
    let mut g = Draw(seed);
    let ranks: Vec<usize> = (0..1 + g.below(2))
        .map(|_| 1 + g.below(2) as usize)
        .collect();
    let mut nests = Vec::new();
    for _ in 0..1 + g.below(3) {
        let loops: Vec<LoopDim> = (0..g.below(4))
            .map(|_| LoopDim {
                lower: g.pick(&[0, 0, -3, 2, 5]),
                count: g.pick(&[0, 1, 2, 3, 5, 8, 13, 24]),
                step: g.pick(&[1, 1, 2, 3, -1, -2]),
            })
            .collect();
        let refs: Vec<ArrayRef> = (0..1 + g.below(4))
            .map(|_| {
                let array = g.below(ranks.len() as u64) as usize;
                let subscripts = (0..ranks[array])
                    .map(|_| AffineExpr {
                        coeffs: loops
                            .iter()
                            .map(|_| g.pick(&[0, 0, 1, 1, 2, 3, -1]))
                            .collect(),
                        constant: 0,
                    })
                    .collect();
                let read = g.below(2) == 0;
                if read {
                    ArrayRef::read(array, subscripts)
                } else {
                    ArrayRef::write(array, subscripts)
                }
            })
            .collect();
        nests.push((loops, refs));
    }
    // Each subscript's range over the box; zero-trip loops sit at `lower`,
    // as `Program::validate` checks them.
    let range = |e: &AffineExpr, loops: &[LoopDim]| {
        e.coeffs
            .iter()
            .zip(loops)
            .fold((0i64, 0i64), |(lo, hi), (&c, l)| {
                let first = c * l.lower;
                let last = c * l.value(l.count.saturating_sub(1));
                (lo + first.min(last), hi + first.max(last))
            })
    };
    let mut dims: Vec<Vec<u64>> = ranks.iter().map(|&r| vec![1; r]).collect();
    for (loops, refs) in &nests {
        for r in refs {
            for (k, e) in r.subscripts.iter().enumerate() {
                let (lo, hi) = range(e, loops);
                dims[r.array][k] = dims[r.array][k].max((hi - lo + 1) as u64);
            }
        }
    }
    for (loops, refs) in &mut nests {
        for r in refs.iter_mut() {
            for (k, e) in r.subscripts.iter_mut().enumerate() {
                let (lo, hi) = range(e, loops);
                let spare = dims[r.array][k] - (hi - lo + 1) as u64;
                e.constant = -lo + g.below(spare + 1) as i64;
            }
        }
    }
    let arrays = dims
        .into_iter()
        .enumerate()
        .map(|(i, dims)| ArrayFile {
            name: format!("A{i}"),
            dims,
            element_bytes: g.pick(&[4, 8]),
            order: g.pick(&[StorageOrder::RowMajor, StorageOrder::ColMajor]),
            striping: Striping {
                start_disk: DiskId(g.below(4) as u32),
                stripe_factor: 1 + g.below(4) as u32,
                stripe_bytes: g.pick(&[128, 512]),
            },
            base_block: 1_000_000 * i as u64,
        })
        .collect();
    let nests = nests
        .into_iter()
        .enumerate()
        .map(|(i, (loops, refs))| LoopNest {
            label: format!("n{i}"),
            loops,
            stmts: vec![Statement {
                label: "S".into(),
                refs,
            }],
            cycles_per_iter: g.pick(&[1.0, 750.0, 1234.5]),
        })
        .collect();
    let program = Program {
        name: format!("random{seed}"),
        arrays,
        nests,
        clock_hz: Program::PAPER_CLOCK_HZ,
    };
    let config = TraceGenConfig {
        io_chunk_bytes: g.pick(&[32, 64, 256, 1024, 4096]),
        detect_sequential: g.below(2) == 0,
    };
    (program, config)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The per-iteration walk equals the spec walk, and the analytic
    /// generator's run-compressed trace, lowered, reproduces the walk
    /// event for event on random programs, including nests it must step
    /// one outer segment at a time.
    #[test]
    fn analytic_generation_matches_the_walk(seed in any::<u64>()) {
        let (p, config) = random_program(seed);
        let pool = DiskPool::new(4);
        prop_assert_eq!(p.validate(pool), Ok(()));
        let walked = generate(&p, pool, config);
        prop_assert_eq!(&walked.events, &spec_walk(&p, pool, config));
        prop_assert_eq!(&generate_runs(&p, pool, config).lower(), &walked);
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

/// The walk as specified, written apart from `sdpm_trace::gen`: every
/// iteration in odometer order ([`walk_nest`]), each reference's element
/// from its subscripts evaluated at the induction variables, its chunk
/// by division of the byte offset, and one `Option` cached chunk per
/// array, tested in statement order.
fn spec_walk(p: &Program, pool: DiskPool, config: TraceGenConfig) -> Vec<AppEvent> {
    let cb = config.io_chunk_bytes;
    let mut events = Vec::new();
    let mut cached: Vec<Option<u64>> = vec![None; p.arrays.len()];
    let mut next_block: Vec<Option<u64>> = vec![None; pool.count() as usize];
    for (ni, nest) in p.nests.iter().enumerate() {
        let iter_secs = p.iter_secs(ni);
        let mut pending = 0u64;
        let flush = |events: &mut Vec<AppEvent>, pending: &mut u64, flat: u64| {
            if flat > *pending {
                events.push(AppEvent::Compute {
                    nest: ni,
                    first_iter: *pending,
                    iters: flat - *pending,
                    secs: (flat - *pending) as f64 * iter_secs,
                });
                *pending = flat;
            }
        };
        walk_nest(nest, |flat, ivars| {
            for r in nest.stmts.iter().flat_map(|s| &s.refs) {
                let file = &p.arrays[r.array];
                let idx: Vec<u64> = r
                    .subscripts
                    .iter()
                    .map(|e| u64::try_from(e.eval(ivars)).expect("validated subscript"))
                    .collect();
                let chunk = file.byte_offset_of(&idx) / cb;
                if cached[r.array] == Some(chunk) {
                    continue;
                }
                cached[r.array] = Some(chunk);
                flush(&mut events, &mut pending, flat);
                let start = chunk * cb;
                for ext in file.map_bytes(pool, start, cb.min(file.total_bytes() - start)) {
                    let d = ext.disk.0 as usize;
                    let sequential =
                        config.detect_sequential && next_block[d] == Some(ext.start_block);
                    next_block[d] =
                        Some(ext.start_block + (ext.block_offset + ext.len).div_ceil(BLOCK_BYTES));
                    events.push(AppEvent::Io(IoRequest {
                        disk: ext.disk,
                        start_block: ext.start_block,
                        size_bytes: ext.len,
                        kind: match r.kind {
                            RefKind::Read => ReqKind::Read,
                            RefKind::Write => ReqKind::Write,
                        },
                        sequential,
                        nest: ni,
                        iter: flat,
                    }));
                }
            }
        });
        flush(&mut events, &mut pending, nest.iter_count());
    }
    events
}

/// `generate` equals the spec walk under both `detect_sequential` values.
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

/// A program that reaches every corner of the walk: a depth-0 nest, a
/// zero-trip loop, and two 70,000-iteration nests whose inner loop of
/// 1,000 trips does not divide the 65,536-iteration segment (so a
/// segment resumes mid-sweep), with negative steps and coefficients,
/// arrays read through several strides in one iteration, and 6 and 11
/// references (the exact-width and the slice-backed lane sets).
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
    let nest = |label: &str, loops: Vec<LoopDim>, refs: Vec<ArrayRef>| LoopNest {
        label: label.into(),
        loops,
        stmts: vec![Statement {
            label: "S".into(),
            refs,
        }],
        cycles_per_iter: 750.0,
    };
    Program {
        name: "corners".into(),
        arrays,
        nests: vec![
            nest(
                "depth0",
                vec![],
                vec![
                    ArrayRef::read(0, vec![affine(&[], 5)]),
                    ArrayRef::write(1, vec![affine(&[], 3), affine(&[], 7)]),
                ],
            ),
            nest(
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
            nest("wide", loops.clone(), wide.clone()),
            nest("narrow", loops, wide[..6].to_vec()),
        ],
        clock_hz: Program::PAPER_CLOCK_HZ,
    }
}

/// A one-trip loop may carry a coefficient whose byte step overflows
/// `i64` (`2^61·8`): `validate` accepts it, since that step is never
/// taken, and the walk must still be exact.
fn huge_coefficient_program() -> Program {
    Program {
        name: "huge-coefficient".into(),
        arrays: vec![file("H", vec![4096], 8, StorageOrder::RowMajor)],
        nests: vec![LoopNest {
            label: "n".into(),
            loops: vec![
                LoopDim {
                    lower: 0,
                    count: 1,
                    step: 1,
                },
                LoopDim::simple(4096),
            ],
            stmts: vec![Statement {
                label: "S".into(),
                refs: vec![ArrayRef::read(0, vec![affine(&[1 << 61, 1], 0)])],
            }],
            cycles_per_iter: 750.0,
        }],
        clock_hz: Program::PAPER_CLOCK_HZ,
    }
}

#[test]
fn walk_matches_the_spec_walk_at_every_corner() {
    let pool = DiskPool::new(4);
    for chunk in [64, 4096] {
        assert_walk_matches_spec(&corner_program(), pool, chunk);
        assert_walk_matches_spec(&huge_coefficient_program(), pool, chunk);
    }
}
