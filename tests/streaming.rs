//! Run compression is lossless on the pipeline's own traces: every
//! scheme's trace of every Table 2 kernel, base and directive-carrying,
//! lowers back from its compression event for event, and the shared
//! pipeline session generates each benchmark's trace exactly once.

use sdpm_bench::{config_for, parallel_map, suite};
use sdpm_core::{CmMode, Scheme, Session};
use sdpm_sim::SimReport;
use sdpm_trace::compress;

fn assert_identical(reference: &SimReport, candidate: &SimReport, what: &str) {
    assert_eq!(
        reference.exec_secs.to_bits(),
        candidate.exec_secs.to_bits(),
        "{what}: exec time drifted"
    );
    assert_eq!(
        reference.total_energy_j().to_bits(),
        candidate.total_energy_j().to_bits(),
        "{what}: energy drifted"
    );
    assert_eq!(reference, candidate, "{what}: reports differ");
}

#[test]
fn compression_is_lossless_on_every_scheme_and_kernel() {
    let benches = suite();
    assert_eq!(benches.len(), 6, "the Table 2 kernel suite");
    parallel_map(&benches, |bench| {
        let cfg = config_for(bench);
        let mut session = Session::new(&bench.program, &cfg);
        for scheme in Scheme::all() {
            let trace = match scheme {
                Scheme::CmTpm => &session.instrumented(CmMode::Tpm).trace,
                Scheme::CmDrpm => &session.instrumented(CmMode::Drpm).trace,
                _ => session.base_trace(),
            };
            // The CM schemes' traces carry Power directives, which
            // compression passes through raw between runs.
            assert!(
                compress(trace).lower() == *trace,
                "{} {}: compression lost an event",
                bench.name,
                scheme.label()
            );
        }

        assert_eq!(
            session.generations(),
            1,
            "{}: every scheme must reuse one generated trace",
            bench.name
        );
    });
}

#[test]
fn run_all_schemes_generates_exactly_once() {
    let bench = sdpm_workloads::swim();
    let cfg = config_for(&bench);
    // `run_all_schemes` shares one session internally; probe the same
    // code path it uses and check the session-level counter.
    let mut session = Session::new(&bench.program, &cfg);
    let all: Vec<_> = Scheme::all()
        .into_iter()
        .map(|s| (s, session.run(s)))
        .collect();
    assert_eq!(all.len(), 7);
    assert_eq!(session.generations(), 1);

    // And the free function is bit-identical to the probed session.
    let free = sdpm_core::run_all_schemes(&bench.program, &cfg);
    for ((s_a, a), (s_b, b)) in all.iter().zip(&free) {
        assert_eq!(s_a, s_b);
        assert_identical(a, b, &format!("run_all_schemes {}", s_a.label()));
    }
}
