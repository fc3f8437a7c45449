/**
 * @file
 * The persistent memory arena: the functional half of the NVMM model.
 *
 * The arena owns two equally-sized buffers:
 *
 *  - the volatile view: what program loads return. Kernels hold real
 *    host pointers into this buffer and compute on it directly.
 *  - the durable shadow: the bytes that have actually reached NVMM.
 *
 * The simulated Machine calls persistBlock() whenever a dirty block
 * reaches the persistence domain (eviction, flush, cleaner, drain);
 * the arena then copies those 64 bytes volatile -> shadow. On a crash,
 * crashRestore() copies shadow -> volatile, so the program observes
 * exactly the state that survived: persisted blocks keep their values,
 * unpersisted blocks revert.
 *
 * Simulated addresses are offsets into the buffers, so translating
 * between a host pointer and its Addr is a subtraction.
 */

#ifndef LP_PMEM_ARENA_HH
#define LP_PMEM_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

#include "base/types.hh"
#include "sim/machine.hh"

namespace lp::pmem
{

/**
 * A cache-block-aligned byte buffer. Alignment guarantees that host
 * pointer arithmetic and simulated-address arithmetic agree on block
 * boundaries, so Env::clflushopt(host_ptr) flushes the block the
 * program actually wrote.
 *
 * Two storage modes: plain heap memory (zero-initialized), or a
 * shared mapping of a backing file. The file mode creates the file if
 * absent (ftruncate zero-fills it) and maps an existing file's bytes
 * unchanged, which is how a restarted process re-attaches to state a
 * previous incarnation left behind. mmap returns page-aligned memory,
 * which satisfies the block alignment requirement.
 */
class AlignedBuffer
{
  public:
    explicit AlignedBuffer(std::size_t n)
        : size_(n),
          data_(static_cast<std::uint8_t *>(
              ::operator new[](n, std::align_val_t{blockBytes})))
    {
        std::memset(data_, 0, n);
    }

    /**
     * Map @p path (created and zero-extended to @p n bytes if needed)
     * as shared, writable memory. An existing file of a different
     * size is a configuration mismatch and fatal()s.
     */
    AlignedBuffer(std::size_t n, const std::string &path);

    ~AlignedBuffer();

    AlignedBuffer(const AlignedBuffer &) = delete;
    AlignedBuffer &operator=(const AlignedBuffer &) = delete;

    std::uint8_t *data() { return data_; }
    const std::uint8_t *data() const { return data_; }
    std::size_t size() const { return size_; }
    bool fileBacked() const { return mapped_; }

    /** File mode: msync the mapping so the file matches memory. */
    void syncToFile();

  private:
    std::size_t size_;
    std::uint8_t *data_;
    bool mapped_ = false;
};

/**
 * A byte-addressable persistent heap. Two durability models:
 *
 *  - Simulated (default): a heap volatile view plus a durable shadow
 *    of identical layout; the simulated Machine's persistBlock()
 *    copies blocks volatile -> shadow, and crashRestore() reverts
 *    the view to exactly what persisted.
 *
 *  - File-backed: the "volatile" view is a shared mmap of a backing
 *    file, so every plain store lands in the OS page cache and
 *    survives *process* death (SIGKILL included) -- the page cache is
 *    the persistence domain, the durable analog of NVMM under the
 *    paper's ADR crash model with a process-crash (not power-loss)
 *    failure envelope. A restarted process re-attaches by rebuilding
 *    the identical allocation sequence over the same file. There is
 *    no shadow; persistAll() msyncs. This mode backs the native
 *    lp::server shards (docs/server_design.md).
 */
class PersistentArena : public sim::PersistBackend
{
  public:
    /** Create a simulated arena with @p capacity usable bytes. */
    explicit PersistentArena(std::size_t capacity);

    /**
     * Create a file-backed arena over @p backingFile (created and
     * zero-filled if absent, re-attached byte-for-byte if present).
     */
    PersistentArena(std::size_t capacity, const std::string &backingFile);

    /// @name Allocation
    /// @{

    /**
     * Allocate @p count objects of type T, 64B-aligned so distinct
     * allocations never share a cache block. Returns a host pointer
     * into the volatile view. Allocations are never freed (arena
     * style); fatal() on exhaustion.
     */
    template <typename T>
    T *
    alloc(std::size_t count)
    {
        return static_cast<T *>(allocRaw(count * sizeof(T)));
    }

    /** Raw 64B-aligned allocation of @p bytes. */
    void *allocRaw(std::size_t bytes);
    /// @}

    /// @name Address translation
    /// @{

    /** Simulated address of a host pointer into the volatile view. */
    Addr
    addrOf(const void *p) const
    {
        return static_cast<Addr>(
            static_cast<const std::uint8_t *>(p) - volatileView.data());
    }

    /** Host pointer (volatile view) for a simulated address. */
    template <typename T>
    T *
    ptr(Addr a)
    {
        return reinterpret_cast<T *>(volatileView.data() + a);
    }
    /// @}

    /// @name Durability
    /// @{

    /** sim::PersistBackend: copy one block volatile -> shadow. */
    void persistBlock(Addr block_addr) override;

    /**
     * sim::PersistBackend: revert the volatile view to the durable
     * shadow (on Machine::powerFail(), or directly without a machine).
     */
    void crashRestore() override;

    /**
     * Make the entire current volatile view durable. Used to establish
     * the initial durable image after input initialization (the paper
     * assumes inputs are already persistent when the kernel starts).
     */
    void persistAll();

    /**
     * Read the *durable* value behind a volatile-view pointer. In
     * file-backed mode every store is already in the persistence
     * domain, so this reads the view itself.
     */
    template <typename T>
    T
    peekDurable(const T *p) const
    {
        T out;
        const std::uint8_t *base =
            shadow ? shadow->data() : volatileView.data();
        std::memcpy(&out, base + addrOf(p), sizeof(T));
        return out;
    }

    /** True iff this arena persists through a backing file. */
    bool fileBacked() const { return volatileView.fileBacked(); }

    /**
     * Inject a media fault: XOR the byte at @p a with @p mask in the
     * volatile view AND the durable shadow (when one exists). Unlike
     * a program store, the corruption is invisible to the cache
     * simulation -- no dirty bit, no eventual persist -- exactly a
     * bit rot / media error underneath the running program. In
     * file-backed mode the single mapping is both view and medium.
     * Testing/tooling only (pmem/fault.hh is the ergonomic wrapper).
     */
    void injectFault(Addr a, std::uint8_t mask);
    /// @}

    std::size_t bytesAllocated() const { return nextFree - baseOffset; }
    std::size_t capacity() const { return volatileView.size(); }

    /** Number of persistBlock calls (functional persist count). */
    std::uint64_t persistedBlocks() const { return persistCount; }

  private:
    /// First byte handed out; address 0 stays invalid.
    static constexpr std::size_t baseOffset = blockBytes;

    AlignedBuffer volatileView;
    /// Durable shadow; absent in file-backed mode (the view itself
    /// is the durable medium there).
    std::unique_ptr<AlignedBuffer> shadow;
    std::size_t nextFree;
    std::uint64_t persistCount = 0;
};

} // namespace lp::pmem

#endif // LP_PMEM_ARENA_HH
