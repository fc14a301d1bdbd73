/**
 * @file
 * Fast-forward A/B benchmark: the exact same fig7-shaped load sweep run
 * twice on the Equinox_500us hbfp8 preset -- once cycle-accurate
 * (RunSpec::fast_forward off), once with the steady-state fast-forward
 * engine inlining analytically-next events (the default). The two
 * sweeps must produce bit-identical result digests (a free differential
 * check on top of the fastpath test suite); the figure of merit is the
 * events/s ratio, recorded in BENCH_fast_forward.json.
 *
 * Events/s is honest on both sides: inlined dispatches count in
 * events_dispatched exactly like heap-popped ones, so the ratio
 * measures time saved per event, not a change in what "event" means.
 */

#include <chrono>
#include <cstdint>
#include <vector>

#include "bench_common.hh"
#include "core/equinox.hh"
#include "sim/result_digest.hh"

using namespace equinox;

namespace
{

struct SweepScore
{
    double wall_s = 0.0;
    std::uint64_t events = 0;
    std::uint64_t inlined = 0;
    std::uint64_t digest = 0;
    std::vector<core::LoadPointResult> results;
    double eventsPerSecond() const
    {
        return wall_s > 0.0 ? static_cast<double>(events) / wall_s : 0.0;
    }
};

SweepScore
runSweep(const sim::AcceleratorConfig &cfg,
         const core::CompiledWorkload &compiled, bool fast_forward,
         bool training_only, std::size_t reps, std::size_t jobs)
{
    core::ExperimentOptions opts;
    opts.warmup_requests = 300;
    opts.measure_requests = 2500;
    opts.fast_forward = fast_forward;
    opts.jobs = 1; // per-point timing; the points fan out below

    std::vector<double> loads = {0.1, 0.25, 0.4, 0.55, 0.7,
                                 0.85, 0.95, 1.0, 1.04};
    if (training_only) {
        opts.train_model = workload::DnnModel::lstm2048();
        opts.measure_iterations = 60;
        loads = {0.0};
    }
    SweepScore score;
    auto t0 = std::chrono::steady_clock::now();
    for (std::size_t rep = 0; rep < reps; ++rep) {
        score.results = parallelMap(jobs, loads, [&](double load) {
            auto o = opts;
            if (load >= 0.9) {
                o.min_measure_s = 0.2; // fig7: steady-state queuing
                o.warmup_s = 0.02;
            }
            return core::runAtLoad(cfg, load, o, compiled);
        });
        for (const auto &r : score.results) {
            score.events += r.sim.events_dispatched;
            score.inlined += r.sim.events_inlined;
        }
    }
    auto t1 = std::chrono::steady_clock::now();
    score.wall_s = std::chrono::duration<double>(t1 - t0).count();

    sim::ResultDigest dg;
    dg.u64(score.results.size());
    for (const auto &r : score.results)
        sim::foldSimResult(dg, r.sim);
    score.digest = dg.value();
    return score;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuietLogging(true);
    bench::Harness harness(
        argc, argv, "fast_forward", "fast-forward A/B",
        "steady-state fast-forward engine vs the cycle-accurate event "
        "loop on the fig7 load sweep (bit-identical results required)");

    auto cfg = core::presetConfig(core::Preset::Us500,
                                  arith::Encoding::Hbfp8,
                                  harness.jobs());
    core::ExperimentOptions inf_opts;
    inf_opts.warmup_requests = 300;
    inf_opts.measure_requests = 2500;
    auto inf_compiled = core::compileWorkload(cfg, inf_opts);
    core::ExperimentOptions mix_opts = inf_opts;
    mix_opts.train_model = workload::DnnModel::lstm2048();
    auto mix_compiled = core::compileWorkload(cfg, mix_opts);

    const std::size_t reps = 3;

    // Warm-up sweeps: first-touch page faults, DSE cache fill, and
    // allocator growth happen off the clock (and symmetrically for both
    // timed sweeps).
    (void)runSweep(cfg, inf_compiled, true, false, 1, harness.jobs());
    (void)runSweep(cfg, mix_compiled, true, true, 1, harness.jobs());

    // (a) The fig7 inference load sweep: arrivals constantly interleave
    // with chunk completions, so only the completion/wake tail inlines.
    SweepScore ca = runSweep(cfg, inf_compiled, false, false, reps,
                             harness.jobs());
    SweepScore ff = runSweep(cfg, inf_compiled, true, false, reps,
                             harness.jobs());

    // (b) Training-only: the steady state is a pure compute/prefetch
    // loop whose next event is almost always analytically known.
    SweepScore tca = runSweep(cfg, mix_compiled, false, true, reps,
                              harness.jobs());
    SweepScore tff = runSweep(cfg, mix_compiled, true, true, reps,
                              harness.jobs());

    EQX_ASSERT(ca.digest == ff.digest,
               "fast-forward divergence: sweep digests differ (",
               ff.digest, " vs ", ca.digest, ")");
    EQX_ASSERT(ca.events == ff.events,
               "fast-forward divergence: dispatch counts differ (",
               ff.events, " vs ", ca.events, ")");
    EQX_ASSERT(tca.digest == tff.digest,
               "fast-forward divergence: training digests differ (",
               tff.digest, " vs ", tca.digest, ")");
    EQX_ASSERT(ca.inlined == 0 && tca.inlined == 0,
               "cycle-accurate sweep inlined events");

    auto ratio = [](const SweepScore &num, const SweepScore &den) {
        return den.eventsPerSecond() > 0.0
                   ? num.eventsPerSecond() / den.eventsPerSecond()
                   : 0.0;
    };
    auto frac = [](const SweepScore &s) {
        return s.events > 0 ? static_cast<double>(s.inlined) /
                                  static_cast<double>(s.events)
                            : 0.0;
    };
    double inf_speedup = ratio(ff, ca);
    double train_speedup = ratio(tff, tca);

    bench::section("results");
    std::printf("(a) fig7 load sweep, Equinox_500us hbfp8, %llu events "
                "(%zu reps)\n",
                static_cast<unsigned long long>(ff.events), reps);
    std::printf("    cycle-accurate: %.3f s, %.3g events/s\n", ca.wall_s,
                ca.eventsPerSecond());
    std::printf("    fast-forward:   %.3f s, %.3g events/s (%.1f%% "
                "inlined)  ->  %.2fx\n",
                ff.wall_s, ff.eventsPerSecond(), 100.0 * frac(ff),
                inf_speedup);
    std::printf("(b) training-only (LSTM-2048, 60 iterations), %llu "
                "events\n",
                static_cast<unsigned long long>(tff.events));
    std::printf("    cycle-accurate: %.3f s, %.3g events/s\n",
                tca.wall_s, tca.eventsPerSecond());
    std::printf("    fast-forward:   %.3f s, %.3g events/s (%.1f%% "
                "inlined)  ->  %.2fx\n",
                tff.wall_s, tff.eventsPerSecond(), 100.0 * frac(tff),
                train_speedup);
    std::printf("digests identical on both workloads: yes\n");

    // No addGlobalDispatchedEvents here: every run above went through
    // Accelerator::run, which already feeds the process tally the
    // harness reads.
    for (const auto &r : ff.results)
        harness.recordPoint(r);
    harness.note("cycle_accurate_events_per_second",
                 ca.eventsPerSecond());
    harness.note("fast_forward_events_per_second", ff.eventsPerSecond());
    harness.note("fast_forward_speedup", inf_speedup);
    harness.note("inlined_fraction", frac(ff));
    harness.note("training_fast_forward_speedup", train_speedup);
    harness.note("training_inlined_fraction", frac(tff));
    harness.note("sweep_events", ff.events);
    harness.finish();
    return 0;
}
