#include "fault/chaos_plan.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"
#include "common/random.hh"

namespace equinox
{
namespace fault
{

namespace
{

// Per-component seed decorrelation: each stochastic chaos process forks
// its own Rng stream from plan.seed and a distinct odd constant, so
// zeroing one policy never shifts the event draws of another, and
// per-replica / per-rack streams decorrelate via a further odd stride.
constexpr std::uint64_t kCrashStream = 0x9E3779B97F4A7C15ull;
constexpr std::uint64_t kRackStream = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kStormStream = 0x165667B19E3779F9ull;
constexpr std::uint64_t kCrowdStream = 0x27D4EB2F165667C5ull;

Rng
streamRng(std::uint64_t seed, std::uint64_t stream, std::uint64_t lane)
{
    return Rng(seed * 6364136223846793005ull + stream + lane * 7919ull);
}

} // namespace

bool
ChaosPlan::enabled() const
{
    return crash.rate_per_replica_s > 0.0 ||
           (rack.rack_size > 0 && rack.rate_per_s > 0.0) ||
           storm.rate_per_s > 0.0 || crowd.rate_per_s > 0.0 ||
           !scheduled_outages.empty() || !scheduled_surges.empty();
}

std::vector<std::string>
ChaosPlan::validate() const
{
    std::vector<std::string> errors;
    auto complain = [&errors](auto &&...parts) {
        std::ostringstream oss;
        (oss << ... << parts);
        errors.push_back(oss.str());
    };
    // Bounds are written so that NaN fails them.
    auto atLeast0 = [&complain](const char *field, double v) {
        if (!(v >= 0.0))
            complain("chaos ", field, " must be >= 0 (got ", v, ")");
    };

    if (!(crash.rate_per_replica_s >= 0.0)) {
        complain("chaos crash.rate_per_replica_s must be >= 0 (got ",
                 crash.rate_per_replica_s,
                 "); it is crash events per replica-second");
    }
    if (crash.rate_per_replica_s > 0.0 && !(crash.mttr_s > 0.0)) {
        complain("chaos crash.mttr_s must be positive when churn is "
                 "enabled (got ", crash.mttr_s,
                 "); a zero repair time makes crashes invisible");
    }
    atLeast0("rack.rate_per_s", rack.rate_per_s);
    if (rack.rate_per_s > 0.0 && rack.rack_size == 0) {
        complain("chaos rack.rack_size must be >= 1 when rack outages "
                 "are enabled; 0 racks cannot fail");
    }
    if (rack.rate_per_s > 0.0 && !(rack.outage_s > 0.0)) {
        complain("chaos rack.outage_s must be positive when rack "
                 "outages are enabled (got ", rack.outage_s, ")");
    }
    atLeast0("storm.rate_per_s", storm.rate_per_s);
    if (storm.rate_per_s > 0.0 && !(storm.duration_s > 0.0)) {
        complain("chaos storm.duration_s must be positive when latency "
                 "storms are enabled (got ", storm.duration_s, ")");
    }
    if (storm.rate_per_s > 0.0 && storm.hangs_per_storm == 0) {
        complain("chaos storm.hangs_per_storm must be >= 1 when latency "
                 "storms are enabled, else a storm injects nothing");
    }
    atLeast0("crowd.rate_per_s", crowd.rate_per_s);
    if (crowd.rate_per_s > 0.0 && !(crowd.duration_s > 0.0)) {
        complain("chaos crowd.duration_s must be positive when flash "
                 "crowds are enabled (got ", crowd.duration_s, ")");
    }
    if (crowd.rate_per_s > 0.0 && !(crowd.factor > 1.0)) {
        complain("chaos crowd.factor must be > 1 (got ", crowd.factor,
                 "); a surge that does not raise the rate is not a "
                 "surge");
    }
    for (const auto &o : scheduled_outages) {
        if (!(o.from_s >= 0.0 && o.to_s > o.from_s)) {
            complain("chaos scheduled outage of replica ",
                     o.replica == kEveryReplica
                         ? std::string("<all>")
                         : std::to_string(o.replica),
                     " needs 0 <= from_s < to_s (got [", o.from_s, ", ",
                     o.to_s, "))");
        }
    }
    for (const auto &s : scheduled_surges) {
        if (!(s.from_s >= 0.0 && s.to_s > s.from_s)) {
            complain("chaos scheduled surge needs 0 <= from_s < to_s "
                     "(got [", s.from_s, ", ", s.to_s, "))");
        }
        if (!(s.factor > 1.0)) {
            complain("chaos scheduled surge factor must be > 1 (got ",
                     s.factor, ")");
        }
    }
    return errors;
}

MaterializedChaos
materializeChaos(const ChaosPlan &plan, std::size_t replicas,
                 double horizon_s)
{
    EQX_ASSERT(replicas > 0, "chaos needs at least one replica");
    MaterializedChaos mat;
    mat.replica_faults.resize(replicas);

    // Explicitly scheduled outages first, with the fleet-wide sentinel
    // expanded in replica order so downstream consumers never see it.
    for (const auto &o : plan.scheduled_outages) {
        if (o.replica == kEveryReplica) {
            for (std::size_t r = 0; r < replicas; ++r)
                mat.outages.push_back({r, o.from_s, o.to_s});
        } else {
            mat.outages.push_back(o);
        }
    }
    mat.surges = plan.scheduled_surges;

    // Replica churn: an independent Poisson crash process per replica.
    if (plan.crash.rate_per_replica_s > 0.0) {
        for (std::size_t r = 0; r < replicas; ++r) {
            Rng rng = streamRng(plan.seed, kCrashStream, r);
            double t = rng.exponential(plan.crash.rate_per_replica_s);
            while (t < horizon_s) {
                double up = std::min(t + plan.crash.mttr_s, horizon_s);
                mat.outages.push_back({r, t, up});
                t = up + rng.exponential(plan.crash.rate_per_replica_s);
            }
        }
    }

    // Correlated rack outages: one Poisson process per rack; a rack
    // event darkens every replica in the rack over the same window.
    if (plan.rack.rack_size > 0 && plan.rack.rate_per_s > 0.0) {
        std::size_t racks =
            (replicas + plan.rack.rack_size - 1) / plan.rack.rack_size;
        for (std::size_t k = 0; k < racks; ++k) {
            Rng rng = streamRng(plan.seed, kRackStream, k);
            double t = rng.exponential(plan.rack.rate_per_s);
            while (t < horizon_s) {
                double up = std::min(t + plan.rack.outage_s, horizon_s);
                std::size_t lo = k * plan.rack.rack_size;
                std::size_t hi =
                    std::min(lo + plan.rack.rack_size, replicas);
                for (std::size_t r = lo; r < hi; ++r)
                    mat.outages.push_back({r, t, up});
                t = up + rng.exponential(plan.rack.rate_per_s);
            }
        }
    }

    // Latency storms: each event picks one replica and sprinkles
    // scheduled MmuHang faults evenly across the storm window, letting
    // the per-replica watchdog/reset machinery turn them into latency
    // spikes instead of formal downtime.
    if (plan.storm.rate_per_s > 0.0) {
        Rng rng = streamRng(plan.seed, kStormStream, 0);
        double t = rng.exponential(plan.storm.rate_per_s);
        while (t < horizon_s) {
            std::size_t victim = static_cast<std::size_t>(
                rng.uniformInt(0, replicas - 1));
            double step =
                plan.storm.duration_s / plan.storm.hangs_per_storm;
            for (unsigned h = 0; h < plan.storm.hangs_per_storm; ++h) {
                double at = t + h * step;
                if (at >= horizon_s)
                    break;
                mat.replica_faults[victim].push_back(
                    {at, FaultKind::MmuHang});
            }
            t += plan.storm.duration_s +
                 rng.exponential(plan.storm.rate_per_s);
        }
    }

    // Flash crowds: arrival-rate surge windows, drawn back-to-back so
    // windows never overlap (overlap would multiply factors).
    if (plan.crowd.rate_per_s > 0.0) {
        Rng rng = streamRng(plan.seed, kCrowdStream, 0);
        double t = rng.exponential(plan.crowd.rate_per_s);
        while (t < horizon_s) {
            double up = std::min(t + plan.crowd.duration_s, horizon_s);
            mat.surges.push_back({t, up, plan.crowd.factor});
            t = up + rng.exponential(plan.crowd.rate_per_s);
        }
    }

    // Deterministic canonical order, independent of draw order.
    std::sort(mat.outages.begin(), mat.outages.end(),
              [](const ChaosOutageWindow &a, const ChaosOutageWindow &b) {
                  if (a.from_s != b.from_s)
                      return a.from_s < b.from_s;
                  if (a.replica != b.replica)
                      return a.replica < b.replica;
                  return a.to_s < b.to_s;
              });
    std::sort(mat.surges.begin(), mat.surges.end(),
              [](const SurgeWindow &a, const SurgeWindow &b) {
                  if (a.from_s != b.from_s)
                      return a.from_s < b.from_s;
                  return a.to_s < b.to_s;
              });
    for (auto &faults : mat.replica_faults) {
        std::sort(faults.begin(), faults.end(),
                  [](const ScheduledFault &a, const ScheduledFault &b) {
                      return a.at_s < b.at_s;
                  });
    }
    return mat;
}

std::vector<std::string>
chaosScenarioNames()
{
    return {"replica_churn", "rack_blackout", "latency_storm",
            "flash_crowd", "flash_crowd_outage"};
}

ChaosPlan
chaosScenario(const std::string &name, double horizon_s,
              std::uint64_t seed)
{
    EQX_ASSERT(horizon_s > 0.0, "chaos scenario horizon must be positive");
    ChaosPlan plan;
    plan.seed = seed;
    if (name == "replica_churn") {
        plan.crash.rate_per_replica_s = 2.0 / horizon_s;
        plan.crash.mttr_s = 0.05 * horizon_s;
    } else if (name == "rack_blackout") {
        plan.scheduled_outages.push_back(
            {kEveryReplica, 0.40 * horizon_s, 0.46 * horizon_s});
    } else if (name == "latency_storm") {
        plan.storm.rate_per_s = 6.0 / horizon_s;
        plan.storm.duration_s = 0.05 * horizon_s;
        plan.storm.hangs_per_storm = 3;
    } else if (name == "flash_crowd") {
        plan.scheduled_surges.push_back(
            {0.25 * horizon_s, 0.50 * horizon_s, 3.0});
        plan.scheduled_surges.push_back(
            {0.70 * horizon_s, 0.80 * horizon_s, 4.0});
    } else if (name == "flash_crowd_outage") {
        // Transient crowds the fleet can drain between windows, plus a
        // fleet-wide blackout in the lull: the acceptance scenario.
        // Sustained-infeasible surges would reward queue-everything on
        // availability; these are sized so shedding background and
        // retrying through the blackout is strictly better on both
        // availability and goodput.
        plan.scheduled_surges.push_back(
            {0.25 * horizon_s, 0.35 * horizon_s, 2.0});
        plan.scheduled_surges.push_back(
            {0.70 * horizon_s, 0.75 * horizon_s, 2.5});
        plan.scheduled_outages.push_back(
            {kEveryReplica, 0.45 * horizon_s, 0.51 * horizon_s});
        plan.storm.rate_per_s = 4.0 / horizon_s;
        plan.storm.duration_s = 0.04 * horizon_s;
        plan.storm.hangs_per_storm = 2;
    } else {
        EQX_FATAL("unknown chaos scenario '", name,
                  "'; valid names are replica_churn, rack_blackout, "
                  "latency_storm, flash_crowd, flash_crowd_outage");
    }
    return plan;
}

} // namespace fault
} // namespace equinox
