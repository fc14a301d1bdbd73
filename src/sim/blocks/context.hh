/**
 * @file
 * SimContext: the shared simulation core every block is wired to.
 *
 * It owns the infrastructure no single block can claim -- the event
 * queue, the per-run spec, the DRAM/host interface models, the
 * installed service/training state, the batch queue port, and the
 * run/measurement control flags. Blocks hold a reference to it and
 * communicate data through it; control flows through explicit block
 * ports (see the connect() calls in the Accelerator composition root).
 */

#ifndef EQUINOX_SIM_BLOCKS_CONTEXT_HH
#define EQUINOX_SIM_BLOCKS_CONTEXT_HH

#include <memory>
#include <vector>

#include "common/types.hh"
#include "dram/hbm.hh"
#include "dram/host_link.hh"
#include "mem/memory_hierarchy.hh"
#include "sim/accelerator_types.hh"
#include "sim/blocks/inf_types.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"

namespace equinox
{
namespace sim
{

class SimBlock;
class TraceSink;

/** The shared core the composition root wires every block to. */
struct SimContext
{
    explicit SimContext(const AcceleratorConfig &config) : cfg(config) {}

    SimContext(const SimContext &) = delete;
    SimContext &operator=(const SimContext &) = delete;

    const AcceleratorConfig &cfg;
    EventQueue events;
    RunSpec spec;

    /** Off-chip interfaces (rebuilt per run). */
    std::unique_ptr<dram::HbmModel> hbm;
    std::unique_ptr<dram::HostLink> host;
    /**
     * The memory hierarchy in front of the HBM link (rebuilt per run,
     * right after the link it fronts). Passthrough by default; the
     * Datapath/TrainPrefetcher memory seams route every HBM access
     * through it.
     */
    std::unique_ptr<mem::MemoryHierarchy> mem;

    /** Observability seam; null = tracing off (the default). */
    TraceSink *trace = nullptr;

    /** Blocks in composition order (for measurement-window resets). */
    std::vector<SimBlock *> blocks;

    // -- run control ----------------------------------------------------
    bool inference_load = false; //!< any service has a nonzero rate
    bool stopping = false;
    bool measuring = false;
    Tick measure_start = 0;
    std::uint64_t completed_total = 0;
    std::uint64_t completed_measured = 0;

    // -- measured-window tallies shared by more than one block ----------
    ByteCount host_bytes_measured = 0;
    std::uint64_t train_iterations_measured = 0;
    ByteCount dram_lp_snapshot = 0;

    // -- incremental scheduling predicates -------------------------------
    // Maintained by the request dispatcher (arrival/batch-forming) and
    // the datapath (first issue) so the per-round spike/queue-low
    // policy checks are O(1) instead of rescanning every service and
    // queued batch. Invariants:
    //   full_pending_services == #services with pending.size() >=
    //                            batch_rows
    //   unstarted_batches     == #queued batches never issued
    //                            (first_issue still kTickMax)
    std::uint32_t full_pending_services = 0;
    std::uint32_t unstarted_batches = 0;

    // -- installed services (shared across blocks) ----------------------
    std::vector<std::unique_ptr<InfService>> services;
    std::unique_ptr<TrainState> train;
    /**
     * Typed port: batch former -> instruction dispatcher/datapath; owns
     * every batch in flight.
     */
    BatchQueue batch_queue;

    Tick now() const { return events.now(); }

    /**
     * Open the measurement window at the current tick: zero every
     * shared tally and ask each block to drop its measured-window
     * accumulators. Schedules nothing and draws no randomness, so the
     * call is invisible to simulated behaviour.
     */
    void resetMeasurement();

    /** Open the window once the warmup request/time thresholds pass. */
    void maybeFinishWarmup();
};

} // namespace sim
} // namespace equinox

#endif // EQUINOX_SIM_BLOCKS_CONTEXT_HH
