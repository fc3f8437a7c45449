/**
 * @file
 * Software error-detection codes for Lazy Persistency (Section III-D).
 *
 * Four checksum kinds are provided, matching the paper's study:
 *
 *  - Parity:  XOR-fold of all protected words. Cheapest, weakest.
 *  - Modular: 32-bit modular sum of all protected words. The paper's
 *    default (accuracy comparable to Adler-32, far cheaper).
 *  - Adler32: the zlib checksum, byte-serial over each word.
 *  - ModularParity: modular and parity computed in parallel and packed
 *    into one 64-bit digest (the paper's "combined" variant).
 *
 * Each kind reports an instruction cost per update; the simulated
 * environment charges that cost so Figure 15(b)'s overhead differences
 * reproduce.
 */

#ifndef LP_LP_CHECKSUM_HH
#define LP_LP_CHECKSUM_HH

#include <bit>
#include <cstdint>
#include <string>

namespace lp::core
{

/** Which error-detection code an LP region uses. */
enum class ChecksumKind
{
    Parity,
    Modular,
    Adler32,
    ModularParity,
    Crc32,   ///< zlib-polynomial CRC: the "stronger checksum" option
             ///< Section III-D offers the cautious user
};

/** Human-readable name of a checksum kind. */
std::string checksumKindName(ChecksumKind kind);

/** One step of a byte-wise CRC-32 (polynomial 0xEDB88320). */
std::uint32_t crc32Byte(std::uint32_t crc, std::uint8_t byte);

/**
 * Sentinel digest meaning "this region's checksum was never written".
 * Table entries are initialized to this value; a region whose entry
 * still holds it had not committed before the failure (Section IV's
 * NaN/-1 discussion). 32-bit kinds can never produce it (their high
 * word is zero); ModularParity avoids it by construction (see
 * finalize()).
 */
inline constexpr std::uint64_t invalidDigest = ~0ull;

/**
 * Incremental checksum accumulator. Values are added word-by-word;
 * value() yields a 64-bit digest suitable for a ChecksumTable entry.
 */
class ChecksumAcc
{
  public:
    explicit ChecksumAcc(ChecksumKind k = ChecksumKind::Modular)
        : kind_(k)
    {
        reset();
    }

    /** Restart the accumulation (ResetCheckSum in Figure 8). */
    void
    reset()
    {
        mod = 0;
        par = 0;
        adlerA = 1;
        adlerB = 0;
        crc = 0xffffffffu;
    }

    /** Add one 64-bit word to the running checksum. */
    void
    addWord(std::uint64_t w)
    {
        switch (kind_) {
          case ChecksumKind::Parity:
            par ^= fold32(w);
            break;
          case ChecksumKind::Modular:
            mod += fold32(w);
            break;
          case ChecksumKind::Adler32:
            for (int i = 0; i < 8; ++i) {
                adlerA = (adlerA + ((w >> (8 * i)) & 0xff)) % 65521u;
                adlerB = (adlerB + adlerA) % 65521u;
            }
            break;
          case ChecksumKind::ModularParity:
            mod += fold32(w);
            par ^= fold32(w);
            break;
          case ChecksumKind::Crc32:
            for (int i = 0; i < 8; ++i) {
                crc = crc32Byte(
                    crc,
                    static_cast<std::uint8_t>(w >> (8 * i)));
            }
            break;
        }
    }

    /** Add a double (UpdateCheckSum in Figure 8). */
    void
    add(double v)
    {
        addWord(std::bit_cast<std::uint64_t>(v));
    }

    /** Finalized 64-bit digest; never equals invalidDigest. */
    std::uint64_t
    value() const
    {
        std::uint64_t d;
        switch (kind_) {
          case ChecksumKind::Parity:
            d = par;
            break;
          case ChecksumKind::Modular:
            d = mod;
            break;
          case ChecksumKind::Adler32:
            d = (static_cast<std::uint64_t>(adlerB) << 16) | adlerA;
            break;
          case ChecksumKind::Crc32:
            d = crc ^ 0xffffffffu;
            break;
          case ChecksumKind::ModularParity:
          default:
            d = (static_cast<std::uint64_t>(par) << 32) | mod;
            break;
        }
        // Reserve the sentinel: remap the (astronomically unlikely)
        // colliding digest.
        return d == invalidDigest ? invalidDigest - 1 : d;
    }

    ChecksumKind kind() const { return kind_; }

    /**
     * Approximate instruction count of one addWord() for this kind;
     * the simulated environment charges this per update so checksum
     * choice shows up in execution time (Figure 15(b)).
     */
    static constexpr std::uint64_t
    updateCost(ChecksumKind k)
    {
        switch (k) {
          case ChecksumKind::Parity:        return 2;
          case ChecksumKind::Modular:       return 3;
          case ChecksumKind::Adler32:       return 40;
          case ChecksumKind::ModularParity: return 5;
          case ChecksumKind::Crc32:         return 24;
        }
        return 3;
    }

  private:
    static std::uint32_t
    fold32(std::uint64_t w)
    {
        return static_cast<std::uint32_t>(w) ^
               static_cast<std::uint32_t>(w >> 32);
    }

    ChecksumKind kind_;
    std::uint32_t mod;
    std::uint32_t par;
    std::uint32_t adlerA;
    std::uint32_t adlerB;
    std::uint32_t crc;
};

} // namespace lp::core

#endif // LP_LP_CHECKSUM_HH
