#include "index/ordered_index.hh"

#include <algorithm>

namespace lp::index
{

std::size_t
OrderedIndex::leafFor(std::uint64_t key) const
{
    const auto it = std::upper_bound(
        refs_.begin() + 1, refs_.end(), key,
        [](std::uint64_t k, const LeafRef &r) { return k < r.min; });
    return std::size_t(it - refs_.begin()) - 1;
}

void
OrderedIndex::account()
{
    bytes_.store(refs_.size() * leafKeys * sizeof(std::uint64_t) +
                     refs_.capacity() * sizeof(LeafRef),
                 std::memory_order_relaxed);
}

void
OrderedIndex::insert(std::uint64_t key)
{
    if (refs_.empty())
        refs_.push_back({0, 0, std::make_unique<std::uint64_t[]>(leafKeys)});
    std::size_t i = leafFor(key);
    std::uint64_t *keys = refs_[i].keys.get();
    auto pos = std::uint32_t(
        std::lower_bound(keys, keys + refs_[i].size, key) - keys);
    if (pos < refs_[i].size && keys[pos] == key)
        return;
    if (refs_[i].size == leafKeys) {
        // A key past the last leaf's end starts a fresh leaf, so an
        // ascending load packs leaves full; any other split moves the
        // upper half out.
        const bool append = pos == leafKeys && i + 1 == refs_.size();
        const std::uint32_t keep = append ? leafKeys : leafKeys / 2;
        auto fresh = std::make_unique<std::uint64_t[]>(leafKeys);
        std::copy(keys + keep, keys + leafKeys, fresh.get());
        refs_[i].size = keep;
        refs_.insert(refs_.begin() + std::ptrdiff_t(i) + 1,
                     {append ? key : keys[keep], leafKeys - keep,
                      std::move(fresh)});
        if (pos > keep || append) {
            keys = refs_[++i].keys.get();
            pos -= keep;
        }
    }
    std::copy_backward(keys + pos, keys + refs_[i].size,
                       keys + refs_[i].size + 1);
    keys[pos] = key;
    ++refs_[i].size;
    entries_.fetch_add(1, std::memory_order_relaxed);
    account();
}

void
OrderedIndex::erase(std::uint64_t key)
{
    if (refs_.empty())
        return;
    const std::size_t i = leafFor(key);
    std::uint64_t *keys = refs_[i].keys.get();
    std::uint64_t *at = std::lower_bound(keys, keys + refs_[i].size, key);
    if (at == keys + refs_[i].size || *at != key)
        return;
    std::copy(at + 1, keys + refs_[i].size--, at);
    entries_.fetch_sub(1, std::memory_order_relaxed);
    // Drop an emptied leaf, or fold a leaf into its left neighbour
    // when the two fit in half a leaf. Any two neighbours then hold
    // more than half a leaf, so n keys take at most ~n / 16 leaves.
    const auto fits = [this](std::size_t right) {
        return refs_[right - 1].size + refs_[right].size <= leafKeys / 2;
    };
    std::size_t gone = i;
    if (refs_[i].size > 0) {
        if (i + 1 < refs_.size() && fits(i + 1))
            gone = i + 1;
        else if (i == 0 || !fits(i))
            return;
        LeafRef &into = refs_[gone - 1], &from = refs_[gone];
        std::copy_n(from.keys.get(), from.size, into.keys.get() + into.size);
        into.size += from.size;
    }
    refs_.erase(refs_.begin() + std::ptrdiff_t(gone));
    if (refs_.empty())
        return clear();  // releases the reference array too
    refs_[0].min = 0;
    account();
}

void
OrderedIndex::clear()
{
    refs_ = std::vector<LeafRef>();
    entries_.store(0, std::memory_order_relaxed);
    account();
}

OrderedIndex::Cursor
OrderedIndex::lowerBound(std::uint64_t key) const
{
    const LeafRef *end = refs_.data() + refs_.size();
    if (refs_.empty())
        return Cursor(end, end, 0);
    const LeafRef *r = refs_.data() + leafFor(key);
    const std::uint64_t *keys = r->keys.get();
    const auto pos =
        std::uint32_t(std::lower_bound(keys, keys + r->size, key) - keys);
    return pos == r->size ? Cursor(r + 1, end, 0) : Cursor(r, end, pos);
}

} // namespace lp::index
