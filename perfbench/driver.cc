/**
 * @file
 * The benchmark driver: one workload, one seed, one process, one
 * thread.
 *
 *   perfbench_driver --workload <name> --seed <n> --seconds <s>
 *                    --trace <0|1> [--spans-out <path>]
 *
 * Rounds (every operation of the workload once) repeat until the next
 * one would overrun --seconds. Set-up runs again before every round,
 * so its median samples the same stretch of host time as the rounds.
 * Times are normalized by the reference kernel timed around each
 * round (reference.hh). With --trace 0 the last line holds the
 * end-to-end metrics; with --trace 1 untraced and traced rounds
 * alternate, and the last line holds the per-layer metrics, the
 * tracing overhead among them.
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>

#include "common/logging.hh"
#include "reference.hh"
#include "report.hh"
#include "trace.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

/** Set-ups before each round; set-up time is the median of all. */
constexpr int kSetupsPerRound = 3;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string spans_out;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver --workload "
                 "<name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--spans-out <path>]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                a.workload = value;
            } else if (flag == "--seed") {
                a.seed = std::stoull(value);
                have_seed = true;
            } else if (flag == "--seconds") {
                a.seconds = std::stod(value);
            } else if (flag == "--trace") {
                a.trace = std::stoi(value);
            } else if (flag == "--spans-out") {
                a.spans_out = value;
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::exception &) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (a.workload.empty() || !have_seed || !(a.seconds > 0.0) ||
        (a.trace != 0 && a.trace != 1))
        usage("--workload, --seed, --seconds > 0 and --trace 0|1 are "
              "required");
    return a;
}

double
peakRssMiB()
{
    struct rusage ru
    {
    };
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** One round as the driver saw it. */
struct RoundRecord
{
    bool traced = false;
    Round r;
};

int
run(const Args &args)
{
    auto workload = makeWorkload(args.workload, args.seed);
    if (!workload)
        usage("unknown workload " + args.workload);
    const bool traced_run = args.trace == 1;
    Tracer tracer(traced_run);
    Tracer untraced(false);

    Checks checks;
    Layers layers;
    // refs[i] is the reference kernel timed just before round i's
    // set-ups; one more follows the last round, so every round sits
    // between two of them.
    std::vector<double> refs, setup_norm_s, walls[2];
    std::vector<RoundRecord> rounds;
    std::optional<std::uint64_t> digest;
    const auto start = Clock::now();
    for (std::size_t i = 0;; ++i) {
        const bool traced = traced_run && i % 2 == 1;
        auto w0 = Clock::now();
        refs.push_back(referenceSeconds());
        for (int k = 0; k < kSetupsPerRound; ++k) {
            auto t0 = Clock::now();
            workload->setup(tracer);
            setup_norm_s.push_back(secondsSince(t0) * kReferenceNominalS /
                                   refs.back());
        }
        Round r = workload->round(traced ? tracer : untraced,
                                  traced ? &layers : nullptr, i == 0,
                                  checks);
        walls[traced].push_back(secondsSince(w0));
        rounds.push_back({traced, r});
        if (!digest) {
            digest = r.digest;
        } else {
            checks.op("round " + std::to_string(i),
                      r.digest == *digest
                          ? std::vector<std::string>{}
                          : std::vector<std::string>{
                                "result digest differs from round 0"});
        }
        // Stop before a round that would overrun the measuring time;
        // a traced run needs at least one round of each kind.
        const bool next_traced = traced_run && !traced;
        const auto &next_walls =
            walls[next_traced].empty() ? walls[traced] : walls[next_traced];
        const bool enough = !traced_run || !walls[1].empty();
        if (enough &&
            secondsSince(start) + median(next_walls) > args.seconds)
            break;
    }
    refs.push_back(referenceSeconds());

    // Normalized seconds: host seconds on a host where the reference
    // kernel takes kReferenceNominalS (see reference.hh).
    std::vector<double> raw_rates, norm_rates, norm_timed[2];
    for (std::size_t i = 0; i < rounds.size(); ++i) {
        const Round &r = rounds[i].r;
        double norm_s =
            r.timed_s * kReferenceNominalS / (0.5 * (refs[i] + refs[i + 1]));
        norm_timed[rounds[i].traced].push_back(norm_s);
        if (!rounds[i].traced && r.timed_s > 0.0) {
            raw_rates.push_back(r.work / r.timed_s);
            norm_rates.push_back(r.work / norm_s);
        }
    }

    std::printf("perfbench workload=%s seed=%llu trace=%d rounds=%zu "
                "traced_rounds=%zu setups=%zu\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.trace,
                rounds.size(), walls[1].size(), setup_norm_s.size());
    std::printf("digest %s %016llx\n", args.workload.c_str(),
                static_cast<unsigned long long>(*digest));
    std::printf("reference_s %.17g s (median; nominal %g s)\n",
                median(refs), kReferenceNominalS);
    for (const std::string &m : checks.messages())
        std::printf("FAILED %s\n", m.c_str());

    Report report;
    if (traced_run) {
        double overhead =
            median(norm_timed[1]) / median(norm_timed[0]) - 1.0;
        addLayerMetrics(report, layers, tracer.spans(), setup_norm_s.size(),
                        walls[1].size(), overhead, median(refs));
        if (!args.spans_out.empty() &&
            !tracer.writeJsonLines(args.spans_out))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         args.spans_out.c_str());
    } else {
        const double failed_frac =
            static_cast<double>(checks.failed()) /
            static_cast<double>(checks.attempted());
        std::printf("%s %.17g %s (raw host seconds)\n",
                    workload->rateName(), median(raw_rates),
                    workload->rateUnit());
        std::printf("round_rates");
        for (double r : raw_rates)
            std::printf(" %.4g", r);
        std::printf("\n");
        std::printf("failed_frac %.17g ratio\n", failed_frac);
        report.add("setup_s", median(setup_norm_s), "s");
        report.add("work_per_norm_s", median(norm_rates), "1/s");
        report.add("peak_rss_mb", peakRssMiB(), "MiB");
        report.add("ok_frac", 1.0 - failed_frac, "ratio");
    }
    report.print(stdout, checks.failed() == 0, checks.attempted(),
                 checks.failed());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    equinox::setQuietLogging(true);
    try {
        return run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
