/**
 * @file
 * YCSB-style workload generation for the KV store bench: the core
 * A/B/C mixes over a zipfian or uniform key popularity distribution.
 *
 * The zipfian generator is the standard Gray et al. rejection-free
 * algorithm YCSB itself uses (theta 0.99 by default), with ranks
 * scrambled through a 64-bit bijective mixer so popular keys are
 * spread across the table instead of clustered at low ids.
 */

#ifndef LP_STORE_YCSB_HH
#define LP_STORE_YCSB_HH

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "base/logging.hh"
#include "base/rng.hh"
#include "store/layout.hh"

namespace lp::store
{

/** The YCSB core mixes used by the bench. */
enum class YcsbMix
{
    A,  ///< 50% read / 50% update
    B,  ///< 95% read /  5% update
    C,  ///< 100% read
    E,  ///< 95% scan / 5% insert (short ranges, growing key space)
};

inline double
readFraction(YcsbMix m)
{
    switch (m) {
      case YcsbMix::A: return 0.50;
      case YcsbMix::B: return 0.95;
      case YcsbMix::C: return 1.00;
      case YcsbMix::E: return 0.00;  // E has scans, not point reads
    }
    return 1.0;
}

/** Fraction of SCAN ops in a mix (only E has any). */
inline double
scanFraction(YcsbMix m)
{
    return m == YcsbMix::E ? 0.95 : 0.0;
}

inline std::string
mixName(YcsbMix m)
{
    switch (m) {
      case YcsbMix::A: return "A";
      case YcsbMix::B: return "B";
      case YcsbMix::C: return "C";
      case YcsbMix::E: return "E";
    }
    return "?";
}

inline YcsbMix
parseMix(const std::string &s)
{
    if (s == "a" || s == "A")
        return YcsbMix::A;
    if (s == "b" || s == "B")
        return YcsbMix::B;
    if (s == "c" || s == "C")
        return YcsbMix::C;
    if (s == "e" || s == "E")
        return YcsbMix::E;
    fatal("unknown YCSB mix '" + s + "' (a | b | c | e)");
}

/**
 * Bijective 64-bit mix (splitmix64 finalizer) turning a dense record
 * id into a store key. Bijectivity guarantees distinct ids map to
 * distinct keys; the reserved-sentinel guard can only trigger if an
 * id happens to be a preimage of the three top keys, which for dense
 * ids is beyond astronomically unlikely.
 */
inline std::uint64_t
keyOfRecord(std::uint64_t id, std::uint64_t seed)
{
    std::uint64_t z = id + seed * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    if (z > maxUserKey)
        z ^= 0x5555555555555555ull;
    return z;
}

/** Gray et al. zipfian rank generator over [0, n). */
class ZipfianGen
{
  public:
    ZipfianGen(std::uint64_t n, double theta)
        : n_(n), theta_(theta)
    {
        LP_ASSERT(n >= 2, "zipfian needs at least two items");
        LP_ASSERT(theta > 0.0 && theta < 1.0,
                  "zipfian theta must be in (0, 1)");
        zetan_ = zeta(n, theta);
        alpha_ = 1.0 / (1.0 - theta);
        eta_ = (1.0 - std::pow(2.0 / double(n), 1.0 - theta)) /
               (1.0 - zeta(2, theta) / zetan_);
    }

    /** Next rank; rank 0 is the most popular item. */
    std::uint64_t
    next(Rng &rng)
    {
        const double u = rng.uniform();
        const double uz = u * zetan_;
        if (uz < 1.0)
            return 0;
        if (uz < 1.0 + std::pow(0.5, theta_))
            return 1;
        const auto r = static_cast<std::uint64_t>(
            double(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
        return r >= n_ ? n_ - 1 : r;
    }

  private:
    static double
    zeta(std::uint64_t n, double theta)
    {
        double sum = 0.0;
        for (std::uint64_t i = 1; i <= n; ++i)
            sum += 1.0 / std::pow(double(i), theta);
        return sum;
    }

    std::uint64_t n_;
    double theta_;
    double zetan_;
    double alpha_;
    double eta_;
};

/** Parameters of one YCSB bench run. */
struct YcsbParams
{
    std::size_t records = 4096;   ///< keys loaded before the mix
    std::size_t ops = 16384;      ///< operations in the measured mix
    YcsbMix mix = YcsbMix::A;
    bool zipfian = true;          ///< false: uniform key popularity
    double theta = 0.99;          ///< zipfian skew (YCSB default)
    std::size_t maxScanLen = 100; ///< E: scan lengths uniform [1, this]
    std::uint64_t seed = 42;

    /**
     * Interleave one online scrub step (scrubRegions regions, shards
     * round-robin) every this many mix ops; 0 disables. Models the
     * server's background media patrol inside the measured window so
     * its overhead is a number, not a hope.
     */
    std::size_t scrubEveryOps = 0;
    std::size_t scrubRegions = 32;  ///< regions per interleaved step
};

/** Deterministic stream of mix operations. */
class YcsbStream
{
  public:
    struct Op
    {
        enum class Kind
        {
            Read,    ///< point GET of key
            Update,  ///< PUT of key
            Scan,    ///< range scan from key, scanLen records (E)
            Insert,  ///< PUT of a fresh key beyond the loaded set (E)
        };

        Kind kind;
        std::uint64_t key;
        std::size_t scanLen = 0;  ///< Scan only

        bool read() const { return kind == Kind::Read; }
    };

    explicit YcsbStream(const YcsbParams &p)
        : p_(p), rng_(p.seed * 0x2545f4914f6cdd1dull + 1),
          zipf_(p.records < 2 ? 2 : p.records, p.theta),
          nextInsertId_(p.records)
    {
    }

    Op
    next()
    {
        if (p_.mix == YcsbMix::E) {
            if (!rng_.chance(scanFraction(p_.mix))) {
                // Insert: a fresh record id, so the key space grows
                // through the run like YCSB-E specifies.
                return Op{Op::Kind::Insert,
                          keyOfRecord(nextInsertId_++, p_.seed), 0};
            }
            const std::size_t len =
                1 + std::size_t(rng_.below(p_.maxScanLen));
            return Op{Op::Kind::Scan, pickKey(), len};
        }
        const bool read = rng_.chance(readFraction(p_.mix));
        return Op{read ? Op::Kind::Read : Op::Kind::Update,
                  pickKey(), 0};
    }

  private:
    /** A loaded key under the configured popularity distribution. */
    std::uint64_t
    pickKey()
    {
        const std::uint64_t rank =
            p_.zipfian ? zipf_.next(rng_) : rng_.below(p_.records);
        return keyOfRecord(rank % p_.records, p_.seed);
    }

    YcsbParams p_;
    Rng rng_;
    ZipfianGen zipf_;
    std::uint64_t nextInsertId_;  ///< E: next fresh record id
};

} // namespace lp::store

#endif // LP_STORE_YCSB_HH
