#include "lp/keyed_table.hh"

#include <bit>

#include "base/intmath.hh"

namespace lp::core
{

KeyedChecksumTable::KeyedChecksumTable(pmem::PersistentArena &arena,
                                       std::size_t num_slots, bool attach)
{
    slots = std::bit_ceil(num_slots < 2 ? 2 : num_slots);
    data = arena.alloc<Slot>(slots);
    if (attach) {
        // Existing durable image: keep the committed digests; the
        // volatile claim counter resyncs lazily via occupancy().
        claimed = occupancy();
        return;
    }
    for (std::size_t i = 0; i < slots; ++i) {
        data[i].key = emptyKey;
        data[i].digest = invalidDigest;
    }
}

std::size_t
KeyedChecksumTable::occupancy() const
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < slots; ++i)
        if (data[i].key != emptyKey)
            ++n;
    return n;
}

std::size_t
KeyedChecksumTable::claimSlot(std::uint64_t key)
{
    LP_ASSERT(key != emptyKey, "reserved key");
    const std::size_t limit = slots * maxLoadNum / maxLoadDen;
    std::size_t i = bucketOf(key);
    for (std::size_t probes = 0; probes < slots; ++probes) {
        if (data[i].key == key)
            return i;
        if (data[i].key == emptyKey) {
            if (claimed + 1 > limit) {
                // The volatile counter can overcount after a crash
                // restore reverted unpersisted claims; resync from
                // the table before refusing.
                claimed = occupancy();
            }
            if (claimed + 1 > limit) {
                fatal("KeyedChecksumTable over load-factor limit: " +
                      std::to_string(claimed) + "/" +
                      std::to_string(slots) + " slots claimed (max " +
                      std::to_string(limit) +
                      " = 7/8); size the table larger -- it cannot "
                      "grow in place because committed digests "
                      "reference fixed persistent slots");
            }
            data[i].key = key;
            ++claimed;
            return i;
        }
        i = (i + 1) & (slots - 1);
    }
    panic("KeyedChecksumTable probe loop exhausted below the "
          "load-factor limit");
}

std::size_t
KeyedChecksumTable::findSlot(std::uint64_t key) const
{
    std::size_t i = bucketOf(key);
    for (std::size_t probes = 0; probes < slots; ++probes) {
        if (data[i].key == key)
            return i;
        if (data[i].key == emptyKey)
            return npos;
        i = (i + 1) & (slots - 1);
    }
    return npos;
}

std::uint64_t *
KeyedChecksumTable::keyPtr(std::size_t slot)
{
    LP_ASSERT(slot < slots, "slot out of range");
    return &data[slot].key;
}

std::uint64_t *
KeyedChecksumTable::digestPtr(std::size_t slot)
{
    LP_ASSERT(slot < slots, "slot out of range");
    return &data[slot].digest;
}

std::uint64_t
KeyedChecksumTable::storedKey(std::size_t slot) const
{
    LP_ASSERT(slot < slots, "slot out of range");
    return data[slot].key;
}

std::uint64_t
KeyedChecksumTable::storedDigest(std::size_t slot) const
{
    LP_ASSERT(slot < slots, "slot out of range");
    return data[slot].digest;
}

} // namespace lp::core
