#include "cluster/router.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/arrival_stream.hh"

namespace equinox
{
namespace cluster
{

std::vector<Tick>
generateCandidateTicks(double rate_per_cycle, std::uint64_t seed,
                       Tick max_ticks,
                       const std::vector<RouterSurge> &surges)
{
    std::vector<Tick> ticks;
    if (rate_per_cycle <= 0.0)
        return ticks;

    // Flash crowds: draw at the peak rate and thin each candidate
    // against the instantaneous rate (Lewis-Shedler thinning), so the
    // accepted stream runs `factor` times denser inside each surge
    // window and at the base rate outside. The acceptance draws come
    // from the stream's own Rng, and only when surges exist, so the
    // stream is a pure function of (rate, seed, surges) and without
    // surges it is exactly service 0's accelerator stream.
    double peak_factor = 1.0;
    for (const auto &s : surges) {
        EQX_ASSERT(s.factor >= 1.0, "surge factor must be >= 1");
        peak_factor = std::max(peak_factor, s.factor);
    }
    auto factor_at = [&surges](Tick t) {
        double factor = 1.0;
        for (const auto &s : surges) {
            if (t >= s.from && t < s.to)
                factor = std::max(factor, s.factor);
        }
        return factor;
    };
    sim::ArrivalStream stream(seed, 0, rate_per_cycle * peak_factor);
    while (true) {
        Tick t = stream.next();
        if (t > max_ticks) {
            // Include the first candidate beyond the horizon, always
            // accepted: the replica event loop dispatches one event
            // past max_ticks, so every trace must cover it.
            ticks.push_back(t);
            break;
        }
        if (surges.empty() ||
            stream.uniform() * peak_factor < factor_at(t))
            ticks.push_back(t);
    }
    return ticks;
}

Router::Router(RoutingPolicy policy, std::size_t replicas,
               double service_rate_per_cycle, std::size_t latency_window,
               std::vector<RouterOutage> outages)
    : policy_(policy), replicas_(replicas), outages_(std::move(outages))
{
    EQX_ASSERT(replicas >= 1, "router needs at least one replica");
    estimators_.reserve(replicas);
    for (std::size_t r = 0; r < replicas; ++r)
        estimators_.emplace_back(service_rate_per_cycle, latency_window);
    for (const auto &o : outages_) {
        EQX_ASSERT(o.replica < replicas,
                   "outage names replica ", o.replica, " of ", replicas);
        EQX_ASSERT(o.from <= o.to, "outage window runs backwards");
    }
}

bool
Router::alive(std::size_t replica, Tick t) const
{
    for (const auto &o : outages_) {
        if (o.replica == replica && t >= o.from && t < o.to)
            return false;
    }
    return true;
}

bool
Router::available(std::size_t replica, Tick t) const
{
    return alive(replica, t) && (!filter_ || filter_(replica, t));
}

void
Router::drainAll(Tick t)
{
    for (auto &e : estimators_)
        e.drainTo(t);
}

std::size_t
Router::pickAlternate(Tick t, std::size_t exclude) const
{
    // Round-robin has no metric of its own: its hedge alternates rank
    // by backlog like JSQ.
    RoutingPolicy by = policy_ == RoutingPolicy::RoundRobin
                           ? RoutingPolicy::JoinShortestQueue
                           : policy_;
    return rankReplicas(by, estimators_, rr_next_,
                        [&](std::size_t r) {
                            return r != exclude && available(r, t);
                        })
        .pick;
}

void
Router::assignTo(std::size_t r, Tick t)
{
    EQX_ASSERT(r < replicas_, "assignTo names replica ", r, " of ",
               replicas_);
    estimators_[r].assign(t);
}

std::size_t
Router::pick(Tick t)
{
    drainAll(t);

    RankedPick rp = rankReplicas(
        policy_, estimators_, rr_next_,
        [&](std::size_t r) { return available(r, t); });
    rr_next_ = rp.cursor;
    if (rp.rerouted())
        ++rerouted_;
    if (rp.pick == kNoReplica) {
        ++shed_;
        return kNoReplica;
    }
    estimators_[rp.pick].assign(t);
    return rp.pick;
}

RouterResult
Router::route(double rate_per_cycle, std::uint64_t seed, Tick max_ticks,
              const std::vector<RouterSurge> &surges)
{
    RouterResult res =
        routeCandidates(replicas_, rate_per_cycle, seed, max_ticks,
                        surges, [this](Tick t) { return pick(t); });
    res.shed = shed_;
    res.rerouted = rerouted_;
    return res;
}

} // namespace cluster
} // namespace equinox
