/**
 * @file
 * The benchmark's result: named metrics with units, printed as
 * readable lines and then as the one-line JSON object that ends every
 * run's standard output.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench
{

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

class Report
{
  public:
    /**
     * Add a metric. Throws std::logic_error on a name outside the
     * metric grammar, a repeated name, or a non-finite value: each is a
     * benchmark bug, and the run must then print no result.
     */
    void add(const std::string &name, double value,
             const std::string &unit);

    const std::vector<Metric> &metrics() const { return metrics_; }

    /** `metric <name> <value> <unit>` lines, then the JSON line. */
    void print(std::FILE *out, bool correct, std::uint64_t attempted,
               std::uint64_t failed) const;

  private:
    std::vector<Metric> metrics_;
};

/** Median of @p v (0 for an empty vector). */
double median(std::vector<double> v);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
