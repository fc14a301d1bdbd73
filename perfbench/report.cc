#include "report.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "trace.hh"

namespace perfbench
{

void
Report::add(const std::string &name, double value, const std::string &unit)
{
    if (!validMetricName(name))
        throw std::logic_error("metric name outside the grammar: " + name);
    for (const Metric &m : metrics_) {
        if (m.name == name)
            throw std::logic_error("metric reported twice: " + name);
    }
    if (!std::isfinite(value))
        throw std::logic_error("metric is not finite: " + name);
    metrics_.push_back({name, value, unit});
}

void
Report::print(std::FILE *out, bool correct, std::uint64_t attempted,
              std::uint64_t failed) const
{
    for (const Metric &m : metrics_)
        std::fprintf(out, "metric %s %.17g %s\n", m.name.c_str(), m.value,
                     m.unit.c_str());
    std::fprintf(out, "{\"correct\": %s, \"attempted\": %llu, "
                      "\"failed\": %llu, \"metrics\": {",
                 correct ? "true" : "false",
                 static_cast<unsigned long long>(attempted),
                 static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        // Names and units are benchmark-chosen identifiers: no escaping.
        std::fprintf(out, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     i ? ", " : "", m.name.c_str(), m.value,
                     m.unit.c_str());
    }
    std::fprintf(out, "}}\n");
    std::fflush(out);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

} // namespace perfbench
