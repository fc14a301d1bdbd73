/**
 * @file
 * Span recording for the benchmark's traced run. Spans are opened
 * around calls into each library layer from the benchmark's own code,
 * kept in memory, and written out once the run ends. A disabled
 * tracer records nothing and never reads the clock.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** One timed interval at a layer boundary. */
struct Span
{
    std::string name;
    double start = 0.0; //!< seconds since the tracer was created
    double end = 0.0;
    /** Index of the enclosing span in the same recording, or -1. */
    std::ptrdiff_t parent = -1;
    /** Shared by every span of one operation (load point, cluster
     *  point, training run, set-up repetition). */
    std::uint64_t run = 0;
};

class Tracer
{
  public:
    explicit Tracer(bool enabled);
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool enabled() const { return enabled_; }

    /** Start a new operation: later spans carry a fresh run id. */
    void beginRun() { ++run_; }

    /** Closes its span on destruction; inert when tracing is off. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, std::size_t index)
            : tracer_(tracer), index_(index)
        {
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        ~Scope();

      private:
        Tracer *tracer_;
        std::size_t index_;
    };

    /** Open a span named @p name under the innermost open span. */
    [[nodiscard]] Scope span(std::string name);

    const std::vector<Span> &spans() const { return spans_; }

    /** Spans as JSON lines; false when @p path cannot be written. */
    bool writeJsonLines(const std::string &path) const;

  private:
    void close(std::size_t index);

    bool enabled_;
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
    std::uint64_t run_ = 0;
};

/**
 * Length of [@p lo, @p hi] covered by the union of @p intervals
 * (overlaps count once; parts outside the window do not count).
 */
double coveredLength(std::vector<std::pair<double, double>> intervals,
                     double lo, double hi);

/**
 * Self time of every span: its duration minus the part of its interval
 * that its direct children cover. Overlapping children are merged
 * first, so concurrent children are not subtracted twice.
 */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/** Summed duration of the spans named @p name. */
double totalDuration(const std::vector<Span> &spans, std::string_view name);

/** Summed self time (from selfTimes) of the spans named @p name. */
double totalSelf(const std::vector<Span> &spans,
                 const std::vector<double> &self, std::string_view name);

/**
 * The metric-name grammar of BENCHMARK.json: 1 to 64
 * characters from [A-Za-z0-9_.-], starting with a letter or digit.
 */
bool validMetricName(std::string_view name);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
