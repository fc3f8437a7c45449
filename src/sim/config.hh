/**
 * @file
 * Configuration structures for the simulated machine.
 *
 * Defaults mirror Table II of the paper: 8 worker cores (the paper uses
 * 9 cores = 8 workers + 1 master; the master does no kernel work, so we
 * model the 8 workers), 2GHz, 64KB 8-way L1s with 2-cycle latency, a
 * shared 512KB 8-way L2 with 11-cycle latency, and NVMM latencies of
 * 150ns read / 300ns write.
 */

#ifndef LP_SIM_CONFIG_HH
#define LP_SIM_CONFIG_HH

#include "base/types.hh"

namespace lp::sim
{

/// @name Fixed Table II parameters
/// The core and memory-controller parameters no experiment varies.
/// @{

/** Core clock in GHz; converts NVMM nanoseconds to cycles. */
inline constexpr double kClockGhz = 2.0;

/**
 * Minimum spacing in cycles between NVMM writes accepted by the
 * memory controller write port; models write bandwidth and creates
 * the back-pressure eager flushing suffers from.
 */
inline constexpr Cycles kMcWritePortCycles = 16;

/** Memory controller write queue entries (ADR domain, Table II). */
inline constexpr unsigned kMcWriteQueue = 64;

/** Load/store queue entries per core (Table II: 48). */
inline constexpr unsigned kLsqEntries = 48;

/** Miss status holding registers per core. */
inline constexpr unsigned kMshrsPerCore = 16;

/** Issue width of the modelled core (Table II: 4). */
inline constexpr unsigned kIssueWidth = 4;
/// @}

/** Geometry and latency of one cache level. */
struct CacheGeometry
{
    /** Total capacity in bytes; must be a power of two. */
    unsigned sizeBytes;
    /** Ways per set. */
    unsigned assoc;
    /** Access latency in core cycles. */
    Cycles latency;

    /** Number of sets implied by the geometry. */
    unsigned
    numSets() const
    {
        return sizeBytes / (assoc * blockBytes);
    }
};

/**
 * The machine parameters an experiment may vary (Table II defaults);
 * the rest are the fixed constants above.
 */
struct MachineConfig
{
    /** Number of cores; each runs one software thread. */
    int numCores = 8;

    /** Per-core private L1 data cache. */
    CacheGeometry l1 = {64 * 1024, 8, 2};

    /** Shared inclusive L2 (the LLC in the paper's two-level Ruby). */
    CacheGeometry l2 = {512 * 1024, 8, 11};

    /** NVMM read latency in nanoseconds (60-150 in the paper). */
    double nvmmReadNs = 150.0;

    /** NVMM write latency in nanoseconds (150-300 in the paper). */
    double nvmmWriteNs = 300.0;

    /**
     * Period, in cycles, of the background cache cleaner that writes
     * back (without evicting) all dirty blocks; 0 disables it. This is
     * the hardware support of Section VI-A.
     */
    Cycles cleanerPeriodCycles = 0;

    /**
     * Alternative cleaner: write back only blocks that have been
     * dirty for at least this many cycles (checked every
     * cleanerPeriodCycles). 0 selects the paper's clean-everything
     * sweep. Decay cleaning bounds the volatility duration directly
     * -- and therefore the recovery window -- while leaving
     * recently-written (still coalescing) blocks alone, trading a
     * slightly weaker bound for fewer NVMM writes on write-hot
     * blocks. An extension beyond the paper; see
     * bench_cleaner_policies.
     */
    Cycles cleanerDecayCycles = 0;

    /** Convert a latency in nanoseconds to core cycles. */
    Cycles
    nsToCycles(double ns) const
    {
        return static_cast<Cycles>(ns * kClockGhz + 0.5);
    }

    Cycles nvmmReadCycles() const { return nsToCycles(nvmmReadNs); }
    Cycles nvmmWriteCycles() const { return nsToCycles(nvmmWriteNs); }
};

} // namespace lp::sim

#endif // LP_SIM_CONFIG_HH
