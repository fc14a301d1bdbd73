#include "obs/metrics_snapshot.hh"

#include <fstream>

#include "common/logging.hh"
#include "stats/histogram.hh"

namespace equinox
{
namespace obs
{

MetricsSnapshot::MetricsSnapshot()
{
    root_["schema_version"] = kSchemaVersion;
}

void
MetricsSnapshot::addLatency(const std::string &name,
                            const stats::LatencyTracker &t, double scale)
{
    Json j = Json::object();
    j["count"] = static_cast<std::uint64_t>(t.count());
    j["mean"] = t.mean() * scale;
    j["p50"] = t.percentile(0.50) * scale;
    j["p90"] = t.percentile(0.90) * scale;
    j["p99"] = t.percentile(0.99) * scale;
    j["max"] = t.max() * scale;
    root_["latency"][name] = std::move(j);
}

bool
MetricsSnapshot::writeTo(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        EQX_WARN("cannot write metrics file ", path);
        return false;
    }
    out << toJson();
    return static_cast<bool>(out);
}

std::optional<MetricsSnapshot>
MetricsSnapshot::parse(const std::string &text, std::string *error)
{
    auto doc = Json::parse(text, error);
    if (!doc)
        return std::nullopt;
    const Json *version = doc->find("schema_version");
    if (!version || !version->isNumber() ||
        version->asInt() != kSchemaVersion) {
        if (error)
            *error = "missing or unsupported schema_version";
        return std::nullopt;
    }
    MetricsSnapshot snap;
    snap.root_ = std::move(*doc);
    return snap;
}

} // namespace obs
} // namespace equinox
