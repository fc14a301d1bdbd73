/**
 * @file
 * MetricsSnapshot: a machine-readable export of everything the stats
 * layer measures, as one stable, versioned JSON document.
 *
 * The document layout (schema version 1):
 *
 *   {
 *     "schema_version": 1,
 *     "latency": { "<name>": {count, mean, p50, p90, p99, max} },
 *     ...free-form sections added via section() -- the sweep
 *        exporters (core::addLoadPoint, cluster::add*Point) and the
 *        bench harness write theirs this way...
 *   }
 *
 * Serialization is deterministic -- objects sorted by key, shortest
 * round-trip numbers -- so byte-identical experiment results produce
 * byte-identical documents (the jobs=1 vs jobs=N conformance check in
 * tests/test_obs.cc depends on this). parse() round-trips any document
 * toJson() produced and validates the schema version.
 */

#ifndef EQUINOX_OBS_METRICS_SNAPSHOT_HH
#define EQUINOX_OBS_METRICS_SNAPSHOT_HH

#include <optional>
#include <string>

#include "obs/json.hh"

namespace equinox
{
namespace stats
{
class LatencyTracker;
}

namespace obs
{

/** Versioned JSON snapshot of counters, percentiles, and breakdowns. */
class MetricsSnapshot
{
  public:
    static constexpr std::int64_t kSchemaVersion = 1;

    MetricsSnapshot();

    /** Exact percentile summary of @p t under "latency.<name>". */
    void addLatency(const std::string &name,
                    const stats::LatencyTracker &t,
                    double scale = 1.0);

    /** Free-form top-level section (created on first access). */
    Json &section(const std::string &name) { return root_[name]; }

    const Json &root() const { return root_; }

    /** The full document, deterministically serialized. */
    std::string toJson() const { return root_.dump(2); }

    /** Write toJson() to @p path; false + warning when unwritable. */
    bool writeTo(const std::string &path) const;

    /**
     * Parse a document toJson() produced; nullopt (with a reason in
     * @p error when given) on malformed input or a schema-version
     * mismatch.
     */
    static std::optional<MetricsSnapshot>
    parse(const std::string &text, std::string *error = nullptr);

  private:
    Json root_;
};

} // namespace obs
} // namespace equinox

#endif // EQUINOX_OBS_METRICS_SNAPSHOT_HH
