/**
 * @file
 * Shared configuration for the bench harness.
 *
 * The paper simulates 1024-4096-square inputs against a 512KB L2
 * (Table II); a functional simulator cannot afford those sizes, so
 * every bench scales the problem and the cache together, preserving
 * the working-set : LLC ratio that drives all of the paper's effects
 * (natural eviction rates, flush-induced anti-coalescing, checksum
 * footprint). EXPERIMENTS.md records the mapping per experiment.
 */

#ifndef LP_BENCH_COMMON_HH
#define LP_BENCH_COMMON_HH

#include <cstdio>
#include <string>

#include "kernels/harness.hh"
#include "kernels/workload.hh"
#include "sim/config.hh"
#include "stats/json.hh"
#include "stats/table.hh"
#include "store/layout.hh"
#include "store/ycsb.hh"

namespace lp::bench
{

/**
 * The backend and mix grids every store-facing bench sweeps, in
 * report order: the paper's scheme (LP) first, then the two
 * baselines it is judged against.
 */
inline constexpr store::Backend kStoreBackends[] = {
    store::Backend::Lp, store::Backend::EagerPerOp,
    store::Backend::Wal};

/** YCSB mixes A (50/50), B (95/5), C (read-only). */
inline constexpr store::YcsbMix kYcsbMixes[] = {
    store::YcsbMix::A, store::YcsbMix::B, store::YcsbMix::C};

/**
 * The scaled Table II machine: 8 worker cores, 16KB L1s, 128KB
 * shared L2, NVMM 150/300ns. The L2 is 1/4 of the paper's so that a
 * 256-square working set (1.5MB) oversubscribes it by ~12x, in the
 * spirit of the paper's 24MB working set vs. 512KB L2.
 */
inline sim::MachineConfig
paperMachine(int cores = 8)
{
    sim::MachineConfig cfg;
    cfg.numCores = cores;
    cfg.l1 = {16 * 1024, 8, 2};
    cfg.l2 = {128 * 1024, 8, 11};
    cfg.nvmmReadNs = 150.0;
    cfg.nvmmWriteNs = 300.0;
    return cfg;
}

/** Scaled Table V inputs, tile size 16 as in Table IV. */
inline kernels::KernelParams
paperParams(kernels::KernelId id, int threads = 8)
{
    kernels::KernelParams p;
    p.threads = threads;
    p.bsize = 16;
    switch (id) {
      case kernels::KernelId::Fft:
        p.n = 16384;
        break;
      case kernels::KernelId::Conv2d:
        p.n = 256;
        p.iterations = 4;
        break;
      default:
        p.n = 256;
        break;
    }
    return p;
}

/** a / b with a guard against an empty denominator. */
inline double
ratio(double a, double b)
{
    return b == 0.0 ? 0.0 : a / b;
}

/** Print the standard bench banner. */
inline void
banner(const std::string &title, const std::string &paper_ref)
{
    std::printf("\n=== %s ===\n", title.c_str());
    std::printf("reproduces: %s\n\n", paper_ref.c_str());
}

/** Value of a `--name=value` flag anywhere in argv, or "". */
inline std::string
argFlag(int argc, char **argv, const std::string &name)
{
    const std::string prefix = "--" + name + "=";
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a.compare(0, prefix.size(), prefix) == 0)
            return a.substr(prefix.size());
    }
    return "";
}

/**
 * Write a bench's JSON report to the @p nth (0-based) non-flag
 * argument (or @p defaultPath), the shared tail of every bench
 * main(). Returns false (after printing to stderr) when the file
 * cannot be written, so callers can `return ok ? 0 : 1`.
 */
inline bool
writeJsonReport(int argc, char **argv, const char *defaultPath,
                const stats::JsonValue::Object &root, int nth = 0)
{
    const char *path = defaultPath;
    for (int i = 1; i < argc; ++i) {
        if (argv[i][0] != '-' && nth-- == 0) {
            path = argv[i];
            break;
        }
    }
    std::FILE *f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return false;
    }
    const std::string text = stats::JsonValue(root).render();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s\n", path);
    return true;
}

/** Record @p out's cycles and NVMM writes under "<prefix>.". */
inline void
recordRun(stats::Snapshot &metrics, const std::string &prefix,
          const kernels::RunOutcome &out)
{
    metrics[prefix + ".exec_cycles"] = out.execCycles;
    metrics[prefix + ".nvmm_writes"] = out.nvmmWrites;
}

/**
 * The report of a deterministic bench, in the shape perfbench
 * prints: `{"bench", "correct", "metrics": {name: {"value": v}}}`.
 * tools/check_sim_gate.py compares its metrics exactly with a golden
 * file, so a simulator change that moves a paper figure is caught.
 */
inline stats::JsonValue::Object
gateReport(const std::string &bench, bool correct,
           const stats::Snapshot &metrics)
{
    stats::JsonValue::Object m;
    for (const auto &[name, v] : metrics)
        m[name] = stats::JsonValue::Object{{"value", v}};
    return {{"bench", bench},
            {"correct", stats::JsonValue::raw(correct ? "true"
                                                      : "false")},
            {"metrics", std::move(m)}};
}

} // namespace lp::bench

#endif // LP_BENCH_COMMON_HH
