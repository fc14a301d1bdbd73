#include "workloads.hh"

#include <array>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "arith/gemm.hh"
#include "cluster/cluster.hh"
#include "cluster/control_plane.hh"
#include "cluster/fleet.hh"
#include "cluster/router.hh"
#include "cluster/sweep.hh"
#include "common/units.hh"
#include "core/presets.hh"
#include "fault/chaos_plan.hh"
#include "fault/traffic_mix.hh"
#include "model/dse.hh"
#include "model/tech_params.hh"
#include "nn/datasets.hh"
#include "nn/trainer.hh"
#include "obs/metrics_snapshot.hh"
#include "sim/accelerator.hh"
#include "sim/blocks/trace.hh"
#include "sim/result_digest.hh"
#include "stats/histogram.hh"

namespace perfbench
{

using namespace equinox;

void
Checks::op(const std::string &what, const std::vector<std::string> &problems)
{
    ++attempted_;
    if (problems.empty())
        return;
    ++failed_;
    for (const std::string &p : problems) {
        if (messages_.size() < 32)
            messages_.push_back(what + ": " + p);
    }
}

namespace
{

std::string
fmt(const char *format, double a, double b = 0.0)
{
    char buf[160];
    std::snprintf(buf, sizeof buf, format, a, b);
    return buf;
}

std::string
conservation(const char *who, std::uint64_t admitted,
             std::uint64_t retired, std::uint64_t inflight)
{
    return std::string(who) + ": admitted " + std::to_string(admitted) +
           " != retired " + std::to_string(retired) + " + inflight " +
           std::to_string(inflight);
}

model::DesignPoint
coldDesign()
{
    model::DseConfig dse;
    dse.jobs = 1;
    auto sweep = model::exploreDesignSpace(model::defaultTechParams(),
                                           arith::Encoding::Hbfp8, dse);
    auto point = model::bestUnderLatency(sweep, 500e-6);
    if (!point)
        throw std::runtime_error("no Equinox_500us design in the sweep");
    return *point;
}

sim::AcceleratorConfig
equinox500usConfig(const model::DesignPoint &design)
{
    return model::toAcceleratorConfig(
        design, core::presetName(core::Preset::Us500));
}

bool
sameDesign(const model::DesignPoint &a, const model::DesignPoint &b)
{
    return a.n == b.n && a.m == b.m && a.w == b.w &&
           a.frequency_hz == b.frequency_hz && a.encoding == b.encoding &&
           a.area_mm2 == b.area_mm2 && a.power_w == b.power_w &&
           a.throughput_ops == b.throughput_ops &&
           a.service_time_s == b.service_time_s;
}

/** Set-up check shared by the simulator workloads: the uncached sweep
 *  the benchmark times must select what core::presetDesign selects. */
std::vector<std::string>
checkPresetDesign(const model::DesignPoint &cold)
{
    if (sameDesign(cold, core::presetDesign(core::Preset::Us500,
                                            arith::Encoding::Hbfp8)))
        return {};
    return {"uncached design sweep differs from core::presetDesign"};
}

void
foldMem(sim::ResultDigest &dg, const mem::MemStats &m)
{
    for (std::uint64_t v :
         {m.reads, m.writes, m.read_bytes, m.write_bytes, m.dram_transfers,
          m.llc_hits, m.llc_misses, m.llc_evictions, m.prefetch_issued,
          m.prefetch_useful, m.prefetch_unused, m.sp_fills, m.sp_drains,
          m.sp_bank_switches, m.sp_fill_stalls, m.sp_bytes_filled,
          m.sp_bytes_drained, m.sp_high_water, m.wb_writes, m.wb_combines,
          m.wb_drains, m.wb_bytes_in, m.wb_bytes_drained})
        dg.u64(v);
}

/** Counts the simulator's trace records by type. */
class CountingSink : public sim::TraceSink
{
  public:
    void
    record(const sim::TraceEvent &ev) override
    {
        ++counts_[static_cast<std::size_t>(ev.type)];
    }

    /** The count of @p t since the last take, then zero it. */
    std::uint64_t
    take(sim::TraceEventType t)
    {
        std::uint64_t v = counts_[static_cast<std::size_t>(t)];
        counts_[static_cast<std::size_t>(t)] = 0;
        return v;
    }

  private:
    std::array<std::uint64_t,
               static_cast<std::size_t>(sim::TraceEventType::NumTypes)>
        counts_{};
};

// ---------------------------------------------------------------------
// colocated_lstm, colocated_lstm_mem
// ---------------------------------------------------------------------

struct ColocatedSpec
{
    const char *name;
    std::vector<double> loads;
    double window_s;
    bool hierarchy;
};

/**
 * One load point through the sim layer's public API, as
 * core::runAtLoad builds it, with spans around construction and run.
 */
core::LoadPointResult
runPoint(const sim::AcceleratorConfig &cfg,
         const core::CompiledWorkload &compiled,
         const core::ExperimentOptions &opts, double load, Tracer &tracer,
         sim::TraceSink *sink)
{
    std::unique_ptr<sim::Accelerator> accel;
    {
        auto s = tracer.span("sim.build");
        accel = std::make_unique<sim::Accelerator>(cfg);
        accel->installInference(compiled.inference);
        if (compiled.training)
            accel->installTraining(*compiled.training);
        if (sink)
            accel->setTraceSink(sink);
    }
    sim::RunSpec spec;
    spec.arrival_rate_per_s = load * accel->maxRequestRate();
    spec.warmup_requests = opts.warmup_requests;
    spec.warmup_s = opts.warmup_s;
    spec.measure_requests = opts.measure_requests;
    spec.min_measure_s = opts.min_measure_s;
    spec.measure_iterations = opts.measure_iterations;
    spec.max_sim_s = opts.max_sim_s;
    spec.seed = opts.seed;
    spec.fast_forward = opts.fast_forward;
    spec.faults = opts.fault_plan;

    core::LoadPointResult res;
    res.load = load;
    {
        auto s = tracer.span("sim.run");
        res.sim = accel->run(spec);
    }
    res.inference_tops = res.sim.inference_throughput_ops / 1e12;
    res.training_tops = res.sim.training_throughput_ops / 1e12;
    res.p99_ms = res.sim.p99_latency_s * 1e3;
    res.mean_ms = res.sim.mean_latency_s * 1e3;
    res.max_inference_tops = accel->maxInferenceOpRate() / 1e12;
    res.service_time_ms = compiled.inference.service_time_s * 1e3;
    return res;
}

std::uint64_t
pointDigest(const core::LoadPointResult &r)
{
    sim::ResultDigest dg;
    sim::foldSimResult(dg, r.sim);
    foldMem(dg, r.sim.mem);
    return dg.value();
}

class Colocated : public Workload
{
  public:
    Colocated(ColocatedSpec spec, std::uint64_t seed)
        : spec_(std::move(spec)), seed_(seed)
    {
    }

    void
    setup(Tracer &tracer) override
    {
        tracer.beginRun();
        {
            auto s = tracer.span("model.dse");
            design_ = coldDesign();
            cfg_ = equinox500usConfig(design_);
        }
        passthrough_cfg_ = cfg_;
        if (spec_.hierarchy)
            applyHierarchy(cfg_);
        opts_ = colocatedOptions(spec_.window_s, seed_);
        auto s = tracer.span("workload.compile");
        compiled_ = core::compileWorkload(cfg_, opts_);
        if (spec_.hierarchy)
            passthrough_ = core::compileWorkload(passthrough_cfg_, opts_);
    }

    Round
    round(Tracer &tracer, Layers *probe, bool first, Checks &checks) override
    {
        Round out;
        sim::ResultDigest dg;
        std::vector<core::LoadPointResult> results;
        Tracer untraced(false);
        for (double load : spec_.loads) {
            tracer.beginRun();
            auto t0 = Clock::now();
            core::LoadPointResult r =
                runPoint(cfg_, compiled_, opts_, load, tracer,
                         probe ? &sink_ : nullptr);
            double host_s = secondsSince(t0);
            out.timed_s += host_s;
            out.work += r.sim.sim_seconds;
            dg.u64(pointDigest(r));

            std::vector<std::string> problems = checkColocatedPoint(r.sim);
            if (first && load == spec_.loads.front()) {
                // The benchmark's own sim-layer calls must reproduce the
                // library's load-point entry point exactly.
                auto lib = core::runAtLoad(cfg_, load, opts_, compiled_);
                if (pointDigest(lib) != pointDigest(r))
                    problems.push_back("digest differs from core::runAtLoad");
                auto preset = checkPresetDesign(design_);
                problems.insert(problems.end(), preset.begin(),
                                preset.end());
            }
            checks.op(std::string(spec_.name) + " load " +
                          fmt("%.2f", load),
                      problems);

            if (probe) {
                tally(*probe, r);
                if (spec_.hierarchy) {
                    // Host cost of the hierarchy: the same point with
                    // passthrough memory, the difference taken.
                    auto p0 = Clock::now();
                    runPoint(passthrough_cfg_, passthrough_, opts_, load,
                             untraced, nullptr);
                    probe->mem_extra_host_s += host_s - secondsSince(p0);
                }
            }
            results.push_back(std::move(r));
        }
        auto t0 = Clock::now();
        std::size_t bytes = 0;
        {
            auto s = tracer.span("obs.export");
            obs::MetricsSnapshot snap;
            core::addLoadSweep(snap, spec_.name, results);
            bytes = snap.toJson().size();
        }
        out.timed_s += secondsSince(t0);
        if (probe)
            probe->export_bytes += bytes;
        out.digest = dg.value();
        return out;
    }

    const char *rateName() const override { return "sim_s_per_host_s"; }
    const char *rateUnit() const override { return "sim-s/host-s"; }

  private:
    void
    tally(Layers &l, const core::LoadPointResult &r)
    {
        const sim::SimResult &s = r.sim;
        l.events += s.events_dispatched;
        l.events_inlined += s.events_inlined;
        l.batches += sink_.take(sim::TraceEventType::BatchFormed);
        l.infer_chunks +=
            sink_.take(sim::TraceEventType::InferenceChunkIssue);
        l.train_chunks += sink_.take(sim::TraceEventType::TrainChunkIssue);
        l.train_iterations +=
            sink_.take(sim::TraceEventType::TrainIteration);
        l.mmu_busy_cycles += s.mmu_busy_cycles;
        l.measured_cycles += s.sim_seconds * cfg_.frequency_hz;
        l.dram_util_sum += s.dram_utilization;
        ++l.points;
        const mem::MemStats &m = s.mem;
        l.mem_reads += m.reads;
        l.mem_writes += m.writes;
        l.llc_hits += m.llc_hits;
        l.llc_accesses += m.llc_hits + m.llc_misses;
        l.prefetch_issued += m.prefetch_issued;
        l.prefetch_useful += m.prefetch_useful;
        l.dram_transfers += m.dram_transfers;
        l.sp_fill_stalls += m.sp_fill_stalls;
        l.wb_combines += m.wb_combines;
    }

    ColocatedSpec spec_;
    std::uint64_t seed_;
    model::DesignPoint design_;
    sim::AcceleratorConfig cfg_;
    sim::AcceleratorConfig passthrough_cfg_;
    core::ExperimentOptions opts_;
    core::CompiledWorkload compiled_;
    core::CompiledWorkload passthrough_;
    CountingSink sink_;
};

// ---------------------------------------------------------------------
// cluster_routing
// ---------------------------------------------------------------------

/** Simulated horizon of every cluster point. */
constexpr double kClusterHorizonS = 0.02;

const char *const kFrontEndNames[kFrontEnds] = {"flat", "control_plane",
                                                "fleet"};

struct FrontEndCase
{
    cluster::ClusterSpec spec;
    double load = 0.0;
};

/** The overload-resilience control plane: priority-shed admission, a
 *  retry budget, hedging and circuit breakers. */
cluster::ResilienceSpec
resilience(double frequency_hz)
{
    cluster::ResilienceSpec rs;
    rs.admission.policy = cluster::AdmissionPolicy::PriorityShed;
    rs.admission.background_fraction = 0.3;
    rs.admission.deadline_cycles = static_cast<Tick>(8e-3 * frequency_hz);
    rs.admission.background_watermark = 2.0;
    rs.admission.inference_watermark = 1e6;
    rs.retry.enabled = true;
    rs.retry.max_attempts = 6;
    rs.retry.max_budget = 65536.0;
    rs.retry.budget_ratio = 0.2;
    rs.retry.base_backoff_cycles = static_cast<Tick>(1e-3 * frequency_hz);
    rs.hedge.enabled = true;
    rs.hedge.latency_factor = 1.0;
    rs.hedge.window = 256;
    rs.hedge.min_samples = 64;
    rs.hedge.max_hedge_fraction = 0.01;
    rs.breaker.enabled = true;
    rs.breaker.trip_failures = 4;
    rs.breaker.probe_interval_cycles =
        static_cast<Tick>(0.2e-3 * frequency_hz);
    rs.breaker.cooldown_cycles = static_cast<Tick>(0.5e-3 * frequency_hz);
    rs.breaker.halfopen_probes = 2;
    return rs;
}

/**
 * The front-end's route() called on its own, with the inputs
 * Cluster::run derives for it (src/cluster/cluster.cc). Its assignment
 * must match the cluster's per-replica assigned_candidates exactly.
 */
cluster::RouterResult
routeStandalone(FrontEnd fe, const sim::AcceleratorConfig &cfg,
                const FrontEndCase &c, const core::ExperimentOptions &opts,
                const core::CompiledWorkload &compiled)
{
    const cluster::ClusterSpec &spec = c.spec;
    const std::size_t n = spec.replicas;
    const double f = cfg.frequency_hz;
    const isa::CompiledProgram &prog = compiled.inference.program;
    double op_rate = static_cast<double>(prog.totalRealOps()) /
                     static_cast<double>(prog.mmuBusyCycles()) * f;
    double mu_req = op_rate / prog.opsPerRequest();
    double rate_cycle = c.load * mu_req * static_cast<double>(n) / f;
    Tick max_ticks = units::secondsToCycles(opts.max_sim_s, f);

    fault::MaterializedChaos chaos;
    if (spec.chaos.enabled())
        chaos = fault::materializeChaos(spec.chaos, n, opts.max_sim_s);
    std::vector<cluster::RouterOutage> outages;
    for (const auto &o : chaos.outages) {
        outages.push_back({o.replica, units::secondsToCycles(o.from_s, f),
                           units::secondsToCycles(o.to_s, f)});
    }
    std::vector<cluster::RouterSurge> surges;
    for (const auto &s : chaos.surges) {
        surges.push_back({units::secondsToCycles(s.from_s, f),
                          units::secondsToCycles(s.to_s, f), s.factor});
    }
    if (spec.fleet.traffic.enabled()) {
        for (const auto &s :
             fault::materializeTraffic(spec.fleet.traffic, opts.max_sim_s))
            surges.push_back({units::secondsToCycles(s.from_s, f),
                              units::secondsToCycles(s.to_s, f),
                              s.factor});
    }

    switch (fe) {
      case kControlPlane: {
        cluster::ControlPlane cp(spec.resilience, spec.policy, n,
                                 mu_req / f, spec.latency_window, outages);
        return cp.route(rate_cycle, opts.seed, max_ticks, surges);
      }
      case kFleet: {
        cluster::FleetRouter::Config fc;
        fc.replica_policy = spec.policy;
        fc.shard_policy = spec.fleet.shard_policy;
        fc.replicas = n;
        fc.shards = std::max<std::size_t>(spec.fleet.shards, 1);
        fc.service_rate_per_cycle = mu_req / f;
        fc.latency_window = spec.latency_window;
        const cluster::AutoscalerSpec &as = spec.fleet.autoscaler;
        if (as.enabled) {
            fc.autoscale = true;
            fc.min_active = as.min_replicas;
            fc.max_active = as.max_replicas;
            fc.initial_active = as.initial_replicas;
            fc.target_p99_cycles = as.target_p99_s * f;
            fc.low_watermark = as.low_watermark;
            fc.target_utilization = as.target_utilization;
            fc.decision_interval = std::max<Tick>(
                units::secondsToCycles(as.decision_interval_s, f), 1);
            fc.cooldown = units::secondsToCycles(as.cooldown_s, f);
            fc.warmup = units::secondsToCycles(as.warmup_s, f);
            fc.estimate_window = as.estimate_window;
            fc.min_samples = as.min_samples;
        }
        cluster::FleetRouter router(fc, outages);
        return router.route(rate_cycle, opts.seed, max_ticks, surges);
      }
      default: {
        cluster::Router router(spec.policy, n, mu_req / f,
                               spec.latency_window, outages);
        return router.route(rate_cycle, opts.seed, max_ticks, surges);
      }
    }
}

std::uint64_t
clusterDigest(const cluster::ClusterPointResult &r)
{
    sim::ResultDigest dg;
    for (std::uint64_t v :
         {r.generated_candidates, r.router_shed, r.rerouted,
          r.shard_rerouted, r.completed_requests, r.admitted_requests,
          r.retired_requests, r.inflight_requests, r.shed_requests,
          r.deadline_met, r.resilience.totalShed(),
          r.resilience.retry_attempts, r.resilience.hedges_issued,
          r.resilience.breaker_opens, r.autoscaler.scale_ups,
          r.autoscaler.scale_downs})
        dg.u64(v);
    dg.d(r.p99_latency_s);
    dg.d(r.aggregate_inference_ops);
    for (const auto &o : r.per_replica) {
        dg.u64(o.assigned_candidates);
        sim::foldSimResult(dg, o.sim);
    }
    return dg.value();
}

class ClusterRouting : public Workload
{
  public:
    explicit ClusterRouting(std::uint64_t seed) : seed_(seed) {}

    void
    setup(Tracer &tracer) override
    {
        tracer.beginRun();
        {
            auto s = tracer.span("model.dse");
            design_ = coldDesign();
            cfg_ = equinox500usConfig(design_);
        }
        opts_ = core::ExperimentOptions{};
        opts_.warmup_requests = 100;
        // Measure the whole horizon: chaos windows sit mid-run.
        opts_.measure_requests = 1u << 30;
        opts_.min_measure_s = kClusterHorizonS;
        opts_.max_sim_s = kClusterHorizonS;
        opts_.seed = seed_;
        double target_p99_s = 0.0;
        {
            auto s = tracer.span("workload.compile");
            compiled_ = core::compileWorkload(cfg_, opts_);
            target_p99_s = core::latencyTargetSeconds(cfg_, opts_.model);
        }

        FrontEndCase &flat = cases_[kFlat];
        flat.spec = cluster::ClusterSpec{};
        flat.spec.replicas = 8;
        flat.spec.policy = cluster::RoutingPolicy::LatencyAware;
        flat.load = 0.7;

        FrontEndCase &cp = cases_[kControlPlane];
        cp.spec = cluster::ClusterSpec{};
        cp.spec.replicas = 8;
        cp.spec.policy = cluster::RoutingPolicy::JoinShortestQueue;
        cp.spec.resilience = resilience(cfg_.frequency_hz);
        cp.spec.chaos = fault::chaosScenario("flash_crowd_outage",
                                             kClusterHorizonS, seed_);
        cp.load = 0.8;

        FrontEndCase &fleet = cases_[kFleet];
        fleet.spec = cluster::ClusterSpec{};
        fleet.spec.replicas = 64;
        fleet.spec.policy = cluster::RoutingPolicy::JoinShortestQueue;
        fleet.spec.fleet.shards = 4;
        fleet.spec.fleet.traffic =
            fault::trafficScenario("diurnal", kClusterHorizonS);
        cluster::AutoscalerSpec &as = fleet.spec.fleet.autoscaler;
        as.enabled = true;
        as.min_replicas = 8;
        as.initial_replicas = 32;
        as.target_p99_s = target_p99_s;
        as.decision_interval_s = kClusterHorizonS / 100.0;
        as.cooldown_s = kClusterHorizonS / 50.0;
        as.warmup_s = kClusterHorizonS / 200.0;
        fleet.load = 0.5;
    }

    Round
    round(Tracer &tracer, Layers *probe, bool first, Checks &checks) override
    {
        Round out;
        sim::ResultDigest dg;
        std::array<cluster::ClusterPointResult, kFrontEnds> results;
        for (int fe = 0; fe < kFrontEnds; ++fe) {
            const FrontEndCase &c = cases_[fe];
            const std::string name = kFrontEndNames[fe];
            tracer.beginRun();
            auto t0 = Clock::now();
            cluster::ClusterPointResult r;
            {
                auto s = tracer.span("cluster.run." + name);
                r = cluster::Cluster(cfg_, c.spec).run(c.load, opts_,
                                                       compiled_);
            }
            out.timed_s += secondsSince(t0);
            out.work += static_cast<double>(r.generated_candidates);
            dg.u64(clusterDigest(r));

            std::vector<std::string> problems = check(r);
            if (first || probe)
                reproduce(static_cast<FrontEnd>(fe), r, tracer, probe,
                          problems);
            if (first && fe == kFlat) {
                auto preset = checkPresetDesign(design_);
                problems.insert(problems.end(), preset.begin(),
                                preset.end());
            }
            checks.op("cluster_routing " + name, problems);
            if (probe)
                tally(*probe, r);
            results[fe] = std::move(r);
        }
        auto t0 = Clock::now();
        std::size_t bytes = 0;
        {
            auto s = tracer.span("obs.export");
            obs::MetricsSnapshot snap;
            core::addClusterPoint(snap, "flat", results[kFlat]);
            core::addResiliencePoint(snap, "control_plane",
                                     results[kControlPlane]);
            core::addFleetPoint(snap, "fleet", results[kFleet]);
            bytes = snap.toJson().size();
        }
        out.timed_s += secondsSince(t0);
        if (probe)
            probe->export_bytes += bytes;
        out.digest = dg.value();
        return out;
    }

    const char *rateName() const override { return "candidates_per_host_s"; }
    const char *rateUnit() const override { return "1/s"; }

  private:
    static std::vector<std::string>
    check(const cluster::ClusterPointResult &r)
    {
        std::vector<std::string> problems;
        if (r.generated_candidates == 0 || r.completed_requests == 0)
            problems.push_back("no traffic generated or completed");
        if (r.admitted_requests != r.retired_requests + r.inflight_requests)
            problems.push_back(conservation("cluster", r.admitted_requests,
                                            r.retired_requests,
                                            r.inflight_requests));
        for (const auto &o : r.per_replica) {
            const sim::SimResult &s = o.sim;
            if (s.admitted_requests !=
                s.retired_requests + s.inflight_requests)
                problems.push_back(conservation(
                    ("replica " + std::to_string(o.replica)).c_str(),
                    s.admitted_requests, s.retired_requests,
                    s.inflight_requests));
        }
        return problems;
    }

    /**
     * The routing and merge layers on their own: the front-end's
     * route() and a replay of the per-replica latency merge, checked
     * against the cluster result and, when tracing, tallied into
     * @p probe.
     */
    void
    reproduce(FrontEnd fe, const cluster::ClusterPointResult &r,
              Tracer &tracer, Layers *probe,
              std::vector<std::string> &problems)
    {
        cluster::RouterResult routed;
        {
            auto s = tracer.span(std::string("cluster.route.") +
                                 kFrontEndNames[fe]);
            routed = routeStandalone(fe, cfg_, cases_[fe], opts_,
                                     compiled_);
        }
        stats::LatencyTracker merged;
        double p99_s = 0.0;
        {
            auto s = tracer.span("stats.merge");
            for (const auto &o : r.per_replica)
                merged.merge(o.sim.latency_cycles);
            if (merged.count() > 0)
                p99_s = merged.percentile(0.99) * (1.0 / cfg_.frequency_hz);
        }
        if (probe) {
            probe->route_candidates[fe] += routed.generated;
            probe->merge_samples += merged.count();
        }
        bool same = routed.generated == r.generated_candidates &&
                    routed.assigned.size() == r.per_replica.size();
        for (std::size_t i = 0; same && i < routed.assigned.size(); ++i)
            same = routed.assigned[i] ==
                   r.per_replica[i].assigned_candidates;
        if (!same)
            problems.push_back("standalone route() assignment differs "
                               "from Cluster::run");
        if (p99_s != r.p99_latency_s)
            problems.push_back("replayed latency merge p99 differs from "
                               "Cluster::run");
    }

    static void
    tally(Layers &l, const cluster::ClusterPointResult &r)
    {
        for (const auto &o : r.per_replica)
            l.replica_events += o.sim.events_dispatched;
        l.rerouted += r.rerouted + r.shard_rerouted;
        l.shed += r.router_shed + r.resilience.totalShed();
        l.retries += r.resilience.retry_attempts;
        l.hedges += r.resilience.hedges_issued;
        l.scale_events += r.autoscaler.scale_ups + r.autoscaler.scale_downs;
    }

    std::uint64_t seed_;
    model::DesignPoint design_;
    sim::AcceleratorConfig cfg_;
    core::ExperimentOptions opts_;
    core::CompiledWorkload compiled_;
    std::array<FrontEndCase, kFrontEnds> cases_;
};

// ---------------------------------------------------------------------
// hbfp_sgd
// ---------------------------------------------------------------------

/** hbfp8's final validation error may exceed fp32's by this ratio... */
constexpr double kHbfpErrorRatio = 1.25;
/** ...plus this absolute slack (about ten of 1024 validation samples). */
constexpr double kHbfpErrorSlack = 0.01;
/** fp32 must beat chance (7/8 for eight classes) by a wide margin. */
constexpr double kFp32MaxError = 0.5;

/** Times and counts every multiply of the engine it wraps. */
class TimedGemm : public arith::GemmEngine
{
  public:
    TimedGemm(const arith::GemmEngine &inner, Tracer &tracer,
              Layers &layers)
        : inner_(inner), tracer_(tracer), layers_(layers),
          span_name_(std::string("arith.gemm.") + inner.name())
    {
    }

    void
    multiply(const arith::Matrix &a, const arith::Matrix &b,
             arith::Matrix &c, bool accumulate) const override
    {
        {
            auto s = tracer_.span(span_name_);
            inner_.multiply(a, b, c, accumulate);
        }
        ++layers_.gemm_calls;
        double macs = static_cast<double>(a.rows()) *
                      static_cast<double>(a.cols()) *
                      static_cast<double>(b.cols());
        if (inner_.encoding() == arith::Encoding::Hbfp8)
            layers_.macs_hbfp8 += macs;
        else
            layers_.macs_fp32 += macs;
    }

    arith::Encoding encoding() const override { return inner_.encoding(); }

  private:
    const arith::GemmEngine &inner_;
    Tracer &tracer_;
    Layers &layers_;
    std::string span_name_;
};

class HbfpSgd : public Workload
{
  public:
    explicit HbfpSgd(std::uint64_t seed) : seed_(seed)
    {
        // The fig2(a) MLP at a learning rate that converges on every
        // seed tried (0.08 diverges on some datasets).
        cfg_.epochs = 8;
        cfg_.batch_size = 64;
        cfg_.hidden_dims = {96, 48};
        cfg_.sgd.learning_rate = 0.03;
        cfg_.sgd.decay_epochs = {5, 7};
        cfg_.init_seed = seed;
        engines_[0] = arith::makeGemmEngine(arith::Encoding::Fp32);
        engines_[1] = arith::makeGemmEngine(arith::Encoding::Hbfp8);
    }

    void
    setup(Tracer &tracer) override
    {
        tracer.beginRun();
        auto s = tracer.span("nn.dataset");
        data_.emplace(8, 24, 2048, 1024, 0.35, seed_);
    }

    Round
    round(Tracer &tracer, Layers *probe, bool, Checks &checks) override
    {
        Round out;
        sim::ResultDigest dg;
        double final_error[2] = {0.0, 0.0};
        for (int i = 0; i < 2; ++i) {
            const arith::GemmEngine &plain = *engines_[i];
            std::optional<TimedGemm> timed;
            if (probe)
                timed.emplace(plain, tracer, *probe);
            const arith::GemmEngine &engine =
                timed ? static_cast<const arith::GemmEngine &>(*timed)
                      : plain;
            tracer.beginRun();
            auto t0 = Clock::now();
            nn::TrainHistory history;
            {
                auto s = tracer.span("nn.train");
                history = nn::trainClassifier(*data_, engine, cfg_);
            }
            out.timed_s += secondsSince(t0);
            out.work += static_cast<double>(cfg_.epochs) *
                        static_cast<double>(data_->trainSize());

            std::vector<std::string> problems;
            if (history.size() != cfg_.epochs)
                problems.push_back("trainer returned " +
                                   std::to_string(history.size()) +
                                   " epochs");
            for (const auto &e : history) {
                dg.d(e.train_loss);
                dg.d(e.valid_loss);
                dg.d(e.valid_error);
                if (!std::isfinite(e.train_loss) ||
                    !std::isfinite(e.valid_loss))
                    problems.push_back("non-finite loss");
            }
            final_error[i] = history.empty() ? 1.0
                                             : history.back().valid_error;
            if (i == 0 && final_error[0] > kFp32MaxError)
                problems.push_back(fmt("fp32 did not learn: final "
                                       "validation error %.4f",
                                       final_error[0]));
            if (i == 1 && final_error[1] > kHbfpErrorRatio *
                                                   final_error[0] +
                                               kHbfpErrorSlack)
                problems.push_back(fmt("hbfp8 final validation error "
                                       "%.4f against fp32 %.4f",
                                       final_error[1], final_error[0]));
            checks.op(std::string("hbfp_sgd ") + plain.name(), problems);
        }
        out.digest = dg.value();
        return out;
    }

    const char *rateName() const override { return "samples_per_host_s"; }
    const char *rateUnit() const override { return "1/s"; }

  private:
    std::uint64_t seed_;
    nn::TrainConfig cfg_;
    std::unique_ptr<arith::GemmEngine> engines_[2];
    std::optional<nn::ClusterDataset> data_;
};

} // namespace

// ---------------------------------------------------------------------

sim::AcceleratorConfig
equinox500us()
{
    return equinox500usConfig(coldDesign());
}

core::ExperimentOptions
colocatedOptions(double window_s, std::uint64_t seed)
{
    core::ExperimentOptions opts;
    opts.train_model = workload::DnnModel::lstm2048();
    opts.warmup_requests = 100;
    // A fixed simulated window per point: the measure quota never
    // closes the window early.
    opts.measure_requests = 1u << 30;
    opts.min_measure_s = window_s;
    opts.max_sim_s = window_s;
    opts.seed = seed;
    return opts;
}

void
applyHierarchy(sim::AcceleratorConfig &cfg)
{
    // Two banks of 512 KiB: each holds a whole 256 KiB training
    // prefetch chunk with room to spare. Banks of 64 KiB or 256 KiB
    // starve training silently (see README.md).
    cfg.mem.scratchpad.enabled = true;
    cfg.mem.scratchpad.banks = 2;
    cfg.mem.scratchpad.bank_bytes = units::KiB(512);
    cfg.mem.llc.enabled = true;
    cfg.mem.write_buffer.enabled = true;
    cfg.mem.prefetch.kind = mem::PrefetchKind::Dcpt;
}

std::vector<std::string>
checkColocatedPoint(const sim::SimResult &r)
{
    std::vector<std::string> problems;
    if (r.admitted_requests != r.retired_requests + r.inflight_requests)
        problems.push_back(conservation("point", r.admitted_requests,
                                        r.retired_requests,
                                        r.inflight_requests));
    if (r.completed_requests == 0)
        problems.push_back("no inference request completed");
    if (r.committed_training_iterations == 0)
        problems.push_back("no training progress: 0 committed iterations");
    return problems;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "colocated_lstm")
        return std::make_unique<Colocated>(
            ColocatedSpec{"colocated_lstm", {0.2, 0.4, 0.6, 0.8, 0.95},
                          0.5, false},
            seed);
    if (name == "colocated_lstm_mem")
        return std::make_unique<Colocated>(
            ColocatedSpec{"colocated_lstm_mem", {0.4}, 0.008, true},
            seed);
    if (name == "cluster_routing")
        return std::make_unique<ClusterRouting>(seed);
    if (name == "hbfp_sgd")
        return std::make_unique<HbfpSgd>(seed);
    return nullptr;
}

void
addLayerMetrics(Report &rep, const Layers &l, const std::vector<Span> &spans,
                std::size_t setups, std::size_t traced_rounds,
                double overhead_frac, double reference_s)
{
    const double per_setup = setups ? 1.0 / static_cast<double>(setups)
                                    : 0.0;
    const double per_round =
        traced_rounds ? 1.0 / static_cast<double>(traced_rounds) : 0.0;
    auto count = [&](std::uint64_t v) {
        return static_cast<double>(v) * per_round;
    };
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const std::vector<double> self = selfTimes(spans);
    auto dur = [&](std::string_view name) {
        return totalDuration(spans, name);
    };

    rep.add("model.dse_s", dur("model.dse") * per_setup, "s");
    rep.add("workload.compile_s", dur("workload.compile") * per_setup, "s");

    const double run_s = dur("sim.run");
    rep.add("sim.build_s", dur("sim.build") * per_round, "s");
    rep.add("sim.run_s", run_s * per_round, "s");
    rep.add("sim.events", count(l.events), "count");
    rep.add("sim.events_inlined", count(l.events_inlined), "count");
    rep.add("sim.ns_per_event",
            ratio(run_s * 1e9, static_cast<double>(l.events)), "ns");
    rep.add("sim.batches", count(l.batches), "count");
    rep.add("sim.infer_chunks", count(l.infer_chunks), "count");
    rep.add("sim.train_chunks", count(l.train_chunks), "count");
    rep.add("sim.train_iterations", count(l.train_iterations), "count");
    rep.add("sim.mmu_busy_frac", ratio(l.mmu_busy_cycles, l.measured_cycles),
            "ratio");
    rep.add("sim.dram_util",
            ratio(l.dram_util_sum, static_cast<double>(l.points)), "ratio");

    rep.add("mem.reads", count(l.mem_reads), "count");
    rep.add("mem.writes", count(l.mem_writes), "count");
    rep.add("mem.llc_accesses", count(l.llc_accesses), "count");
    rep.add("mem.llc_hit_rate",
            ratio(static_cast<double>(l.llc_hits),
                  static_cast<double>(l.llc_accesses)),
            "ratio");
    rep.add("mem.prefetch_issued", count(l.prefetch_issued), "count");
    rep.add("mem.prefetch_accuracy",
            ratio(static_cast<double>(l.prefetch_useful),
                  static_cast<double>(l.prefetch_issued)),
            "ratio");
    rep.add("mem.dram_transfers", count(l.dram_transfers), "count");
    rep.add("mem.sp_fill_stalls", count(l.sp_fill_stalls), "count");
    rep.add("mem.wb_combines", count(l.wb_combines), "count");
    rep.add("mem.extra_host_s", l.mem_extra_host_s * per_round, "s");
    rep.add("mem.ns_per_llc_access",
            ratio(l.mem_extra_host_s * 1e9,
                  static_cast<double>(l.llc_accesses)),
            "ns");

    double cluster_run_s = 0.0;
    for (const char *fe : kFrontEndNames)
        cluster_run_s += dur(std::string("cluster.run.") + fe);
    rep.add("cluster.run_s", cluster_run_s * per_round, "s");
    for (int fe = 0; fe < kFrontEnds; ++fe) {
        const std::string name = kFrontEndNames[fe];
        double route_s = dur("cluster.route." + name);
        rep.add("cluster.route_s." + name, route_s * per_round, "s");
        rep.add("cluster.route_candidates_per_s." + name,
                ratio(static_cast<double>(l.route_candidates[fe]), route_s),
                "1/s");
        rep.add("cluster.route_share." + name,
                ratio(route_s, dur("cluster.run." + name)), "ratio");
    }
    rep.add("cluster.replica_events", count(l.replica_events), "count");
    rep.add("cluster.rerouted", count(l.rerouted), "count");
    rep.add("cluster.shed", count(l.shed), "count");
    rep.add("cluster.retries", count(l.retries), "count");
    rep.add("cluster.hedges", count(l.hedges), "count");
    rep.add("cluster.scale_events", count(l.scale_events), "count");

    rep.add("stats.merge_s", dur("stats.merge") * per_round, "s");
    rep.add("stats.merge_samples", count(l.merge_samples), "count");
    rep.add("obs.export_s", dur("obs.export") * per_round, "s");
    rep.add("obs.export_bytes", count(l.export_bytes), "B");

    const double gemm_fp32_s = dur("arith.gemm.fp32");
    const double gemm_hbfp8_s = dur("arith.gemm.hbfp8");
    rep.add("arith.gemm_s.fp32", gemm_fp32_s * per_round, "s");
    rep.add("arith.gemm_s.hbfp8", gemm_hbfp8_s * per_round, "s");
    rep.add("arith.gemm_calls", count(l.gemm_calls), "count");
    rep.add("arith.macs_per_s.fp32", ratio(l.macs_fp32, gemm_fp32_s), "1/s");
    rep.add("arith.macs_per_s.hbfp8", ratio(l.macs_hbfp8, gemm_hbfp8_s),
            "1/s");
    rep.add("nn.self_s", totalSelf(spans, self, "nn.train") * per_round,
            "s");

    rep.add("trace.overhead_frac", overhead_frac, "ratio");
    rep.add("trace.spans", static_cast<double>(spans.size()), "count");
    rep.add("trace.reference_s", reference_s, "s");
}

} // namespace perfbench
