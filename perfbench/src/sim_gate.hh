/**
 * @file
 * The simulator gate: YCSB-A (zipfian 0.99) driven straight into
 * KvStore<SimEnv> on the scaled paper machine, once per persistency
 * backend, by the repository's own store::runStoreYcsb. NVMM write
 * counts and simulated cycles are exact for a given seed, so this is
 * the deterministic regression gate for the paper's write-efficiency
 * claim.
 */

#ifndef PERFBENCH_SIM_GATE_HH
#define PERFBENCH_SIM_GATE_HH

#include <cstdint>
#include <vector>

#include "perfbench/src/common.hh"
#include "store/driver.hh"

namespace perfbench
{

/** What the per-call replay of one backend's gate mix measured. */
struct Replay
{
    /// Simulated cycles summed over the mix's KvStore puts, and of its
    /// closing checkpoint.
    std::uint64_t putCycles = 0;
    std::uint64_t puts = 0;
    std::uint64_t checkpointCycles = 0;

    /** NVMM writes per mutation over the last whole fold window. */
    double lastWindowWritesPerMut = 0.0;

    /// Mix totals, which must equal the gate run's.
    std::uint64_t nvmmWrites = 0;
    double execCycles = 0.0;
};

/** What one backend's gate produced. */
struct SimRun
{
    /** The gate's mix, as runStoreYcsb ran and verified it. */
    lp::store::StoreRunResult run;

    /** The same mix replayed call by call (traced runs only). */
    Replay calls;
};

/**
 * Add the gate's end-to-end metrics (writes per mutation and
 * simulated throughput per backend) to @p r; with @p perLayer, the
 * per-layer sim/store/engine breakdown instead. @p runs is indexed
 * like bench::kStoreBackends.
 */
void reportSimGate(const std::vector<SimRun> &runs, bool perLayer,
                   Report &r);

/**
 * Run the gate for every backend (bench::kStoreBackends order) with
 * inputs from the run's seed, fail @p r unless each matches its golden
 * map, and check that a rerun of the LP gate reproduces it exactly.
 * With opt.trace, each backend's mix is also replayed one KvStore call
 * at a time for the per-call figures; the replay must reproduce the
 * gate's NVMM writes and cycles exactly.
 */
std::vector<SimRun> runSimGates(const Options &opt, Report &r);

} // namespace perfbench

#endif // PERFBENCH_SIM_GATE_HH
