/**
 * @file
 * The benchmark's own tests: span self-time arithmetic, the metric-name
 * grammar, the result object's guards, and the scratchpad-starvation
 * check the colocated_lstm_mem workload is sized around. Prints every
 * failed check and exits 1 if there was one.
 *
 *   perfbench_selftest
 */

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/logging.hh"
#include "common/units.hh"
#include "core/experiment.hh"
#include "report.hh"
#include "trace.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        ++failures;
        std::printf("FAIL %s\n", what.c_str());
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-12;
}

Span
span(const char *name, double start, double end, std::ptrdiff_t parent)
{
    Span s;
    s.name = name;
    s.start = start;
    s.end = end;
    s.parent = parent;
    return s;
}

void
testCoveredLength()
{
    expect(near(coveredLength({}, 0.0, 1.0), 0.0), "empty union");
    expect(near(coveredLength({{0.0, 1.0}, {0.5, 2.0}}, 0.0, 3.0), 2.0),
           "overlapping intervals count once");
    expect(near(coveredLength({{0.0, 1.0}, {2.0, 3.0}}, 0.0, 3.0), 2.0),
           "disjoint intervals add");
    expect(near(coveredLength({{1.0, 2.0}, {1.2, 1.5}}, 0.0, 3.0), 1.0),
           "a contained interval adds nothing");
    expect(near(coveredLength({{-1.0, 1.0}, {2.5, 4.0}}, 0.0, 3.0), 1.5),
           "parts outside the window are clipped");
    expect(near(coveredLength({{1.0, 1.0}, {2.0, 1.5}}, 0.0, 3.0), 0.0),
           "empty and reversed intervals cover nothing");
}

void
testSelfTimes()
{
    // root [0,10] > a [1,4] > a.child [2,3]; root > b [3,6] overlaps a.
    std::vector<Span> spans = {
        span("root", 0.0, 10.0, -1), span("a", 1.0, 4.0, 0),
        span("a.child", 2.0, 3.0, 1), span("b", 3.0, 6.0, 0),
        span("lone", 20.0, 21.5, -1)};
    std::vector<double> self = selfTimes(spans);
    expect(near(self[0], 5.0),
           "overlapping children [1,4] and [3,6] cover 5 of root's 10");
    expect(near(self[1], 2.0), "nested child covers 1 of a's 3");
    expect(near(self[2], 1.0), "a leaf's self time is its duration");
    expect(near(self[3], 3.0), "b has no children");
    expect(near(self[4], 1.5), "a lone root keeps its duration");
    expect(near(totalDuration(spans, "a"), 3.0), "totalDuration by name");
    expect(near(totalSelf(spans, self, "root"), 5.0), "totalSelf by name");

    // A child running past its parent's end is clipped to the parent.
    std::vector<Span> clipped = {span("p", 0.0, 2.0, -1),
                                 span("c", 1.5, 3.0, 0)};
    expect(near(selfTimes(clipped)[0], 1.5), "child clipped to parent");
}

void
testTracer()
{
    Tracer off(false);
    {
        auto s = off.span("x");
    }
    expect(off.spans().empty(), "a disabled tracer records nothing");

    Tracer on(true);
    on.beginRun();
    {
        auto outer = on.span("outer");
        auto inner = on.span("inner");
    }
    on.beginRun();
    {
        auto next = on.span("next");
    }
    const auto &s = on.spans();
    expect(s.size() == 3, "three spans recorded");
    if (s.size() == 3) {
        expect(s[0].parent == -1 && s[1].parent == 0 && s[2].parent == -1,
               "parents follow nesting");
        expect(s[0].run == s[1].run && s[2].run != s[0].run,
               "spans of one run share its id");
        expect(s[0].start <= s[1].start && s[1].end <= s[0].end,
               "a child lies inside its parent");
    }
}

void
testMetricNames()
{
    for (const char *ok : {"setup_s", "sim.ns_per_event", "a", "9-x",
                           "cluster.route_s.control_plane"})
        expect(validMetricName(ok), std::string("valid name ") + ok);
    for (const char *bad : {"", "_lead", ".lead", "has space", "slash/x",
                            "uni\xc3\xa9", "quote\""})
        expect(!validMetricName(bad), std::string("invalid name ") + bad);
    expect(validMetricName(std::string(64, 'a')), "64 characters pass");
    expect(!validMetricName(std::string(65, 'a')), "65 characters fail");

    auto throws = [](auto fn) {
        try {
            fn();
        } catch (const std::logic_error &) {
            return true;
        }
        return false;
    };
    Report r;
    r.add("x", 1.0, "s");
    expect(throws([&] { r.add("x", 2.0, "s"); }), "duplicate name rejected");
    expect(throws([&] { r.add("bad name", 1.0, "s"); }),
           "bad name rejected");
    expect(throws([&] {
               r.add("nan", std::numeric_limits<double>::quiet_NaN(), "s");
           }),
           "non-finite value rejected");
}

/**
 * Equinox_500us with a banked scratchpad of 64 KiB banks makes no
 * training progress: the training-progress check must fail there, and
 * pass on the colocated_lstm_mem workload's own hierarchy.
 */
void
testScratchpadStarvation()
{
    using namespace equinox;
    // colocated_lstm_mem's point: load 0.4 over an 8 ms window.
    const double window_s = 0.008;
    const double load = 0.4;
    auto opts = colocatedOptions(window_s, 1);
    auto progressFails = [&](const sim::AcceleratorConfig &cfg) {
        auto r = core::runAtLoad(cfg, load, opts,
                                 core::compileWorkload(cfg, opts));
        for (const auto &p : checkColocatedPoint(r.sim)) {
            if (p.find("no training progress") != std::string::npos)
                return true;
        }
        return false;
    };
    for (unsigned banks : {2u, 3u}) {
        auto cfg = equinox500us();
        cfg.mem.scratchpad.enabled = true;
        cfg.mem.scratchpad.banks = banks;
        cfg.mem.scratchpad.bank_bytes = units::KiB(64);
        expect(progressFails(cfg),
               std::to_string(banks) +
                   "x64 KiB banks fail the training-progress check");
    }
    auto cfg = equinox500us();
    applyHierarchy(cfg);
    expect(!progressFails(cfg),
           "the workload's hierarchy passes the training-progress check");
}

} // namespace

int
main()
{
    equinox::setQuietLogging(true);
    testCoveredLength();
    testSelfTimes();
    testTracer();
    testMetricNames();
    testScratchpadStarvation();
    std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "ok",
                failures);
    return failures ? 1 : 0;
}
