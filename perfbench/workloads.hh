/**
 * @file
 * The benchmark's four workloads and the per-layer tallies of its
 * traced run. Every call into a library layer goes through a span
 * opened here, so the traced run times each layer from outside the
 * library; nothing under src/ is instrumented.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "report.hh"
#include "sim/accelerator_types.hh"
#include "sim/config.hh"
#include "trace.hh"

namespace perfbench
{

/** Output checks, counted per operation. */
class Checks
{
  public:
    /** Record one operation and the checks it failed (none = passed). */
    void op(const std::string &what,
            const std::vector<std::string> &problems);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    /** The first failures, one line each. */
    const std::vector<std::string> &messages() const { return messages_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> messages_;
};

/** Front-ends of the cluster_routing workload, in report order. */
enum FrontEnd
{
    kFlat,
    kControlPlane,
    kFleet,
    kFrontEnds,
};

/**
 * Tallies of the traced rounds. Every field is reported on every
 * workload, as zero where the workload does not run that layer.
 */
struct Layers
{
    // -- sim: SimResult diagnostics and the benchmark's trace sink ------
    std::uint64_t events = 0;
    std::uint64_t events_inlined = 0;
    std::uint64_t batches = 0;
    std::uint64_t infer_chunks = 0;
    std::uint64_t train_chunks = 0;
    std::uint64_t train_iterations = 0;
    double mmu_busy_cycles = 0.0;
    double measured_cycles = 0.0;
    double dram_util_sum = 0.0;
    std::uint64_t points = 0;

    // -- mem: SimResult::mem, plus the passthrough re-run ----------------
    std::uint64_t mem_reads = 0;
    std::uint64_t mem_writes = 0;
    std::uint64_t llc_hits = 0;
    std::uint64_t llc_accesses = 0;
    std::uint64_t prefetch_issued = 0;
    std::uint64_t prefetch_useful = 0;
    std::uint64_t dram_transfers = 0;
    std::uint64_t sp_fill_stalls = 0;
    std::uint64_t wb_combines = 0;
    double mem_extra_host_s = 0.0;

    // -- cluster: standalone route() calls and ClusterPointResult --------
    std::uint64_t route_candidates[kFrontEnds] = {};
    std::uint64_t replica_events = 0;
    std::uint64_t rerouted = 0;
    std::uint64_t shed = 0;
    std::uint64_t retries = 0;
    std::uint64_t hedges = 0;
    std::uint64_t scale_events = 0;

    // -- stats / obs -------------------------------------------------------
    std::uint64_t merge_samples = 0;
    std::uint64_t export_bytes = 0;

    // -- arith: the timing decorator around GemmEngine::multiply ---------
    std::uint64_t gemm_calls = 0;
    double macs_fp32 = 0.0;
    double macs_hbfp8 = 0.0;
};

/** What one round (every operation of the workload once) measured. */
struct Round
{
    /** Host seconds of the operations the end-to-end rate counts. */
    double timed_s = 0.0;
    /** Work done in timed_s, in the workload's unit of work. */
    double work = 0.0;
    /** FNV-1a digest of the round's simulated or trained results. */
    std::uint64_t digest = 0;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build every input of the rounds from the seed (repeatable). */
    virtual void setup(Tracer &tracer) = 0;

    /**
     * Run every operation once. With @p probe set, also take the
     * traced run's per-layer measurements, outside Round::timed_s.
     * @p first adds the one-off checks against the library's own
     * entry points.
     */
    virtual Round round(Tracer &tracer, Layers *probe, bool first,
                        Checks &checks) = 0;

    /** The workload's own name and unit for its rate (raw host time). */
    virtual const char *rateName() const = 0;
    virtual const char *rateUnit() const = 0;
};

/** @p name seeded with @p seed; nullptr for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

/**
 * Every per-layer metric, from the traced rounds' tallies and spans.
 * Times (raw host seconds) and counts are per traced round; set-up
 * times per set-up. @p reference_s is the run's median reference
 * kernel time, reported so the times can be normalized.
 */
void addLayerMetrics(Report &report, const Layers &layers,
                     const std::vector<Span> &spans, std::size_t setups,
                     std::size_t traced_rounds, double overhead_frac,
                     double reference_s);

// -- pieces the self-tests drive directly ------------------------------

/** Equinox_500us (hbfp8) from a fresh, uncached design-space sweep:
 *  the cold path of core::presetConfig. */
equinox::sim::AcceleratorConfig equinox500us();

/** Options of one colocated load point over a @p window_s window. */
equinox::core::ExperimentOptions colocatedOptions(double window_s,
                                                  std::uint64_t seed);

/** The memory hierarchy of the colocated_lstm_mem workload. */
void applyHierarchy(equinox::sim::AcceleratorConfig &cfg);

/** Output checks of one colocated load point (empty = passed). */
std::vector<std::string>
checkColocatedPoint(const equinox::sim::SimResult &r);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
