#include "index/ordered_index.hh"

namespace lp::index
{

namespace
{

OrderedIndexNode *
makeNode(std::uint64_t key, int height)
{
    auto *n = new OrderedIndexNode;
    n->key = key;
    n->height = height;
    for (OrderedIndexNode *&p : n->next)
        p = nullptr;
    return n;
}

} // namespace

OrderedIndex::OrderedIndex()
    : head_(makeNode(0, maxHeight)), rngState_(0x9e3779b97f4a7c15ull)
{
}

OrderedIndex::~OrderedIndex()
{
    clear();
    delete head_;
}

int
OrderedIndex::randomHeight()
{
    // xorshift64; deterministic per instance, so tower shapes (and
    // the sim bench's work) are reproducible run to run.
    std::uint64_t x = rngState_;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    rngState_ = x;
    int h = 1;
    while (h < maxHeight && (x & 3) == 0) {
        ++h;
        x >>= 2;
    }
    return h;
}

OrderedIndexNode *
OrderedIndex::findFrom(std::uint64_t key,
                       OrderedIndexNode **preds) const
{
    OrderedIndexNode *x = head_;
    for (int lvl = maxHeight - 1; lvl >= 0; --lvl) {
        while (x->next[lvl] != nullptr && x->next[lvl]->key < key)
            x = x->next[lvl];
        if (preds != nullptr)
            preds[lvl] = x;
    }
    return x->next[0];
}

void
OrderedIndex::insert(std::uint64_t key)
{
    OrderedIndexNode *preds[maxHeight];
    OrderedIndexNode *hit = findFrom(key, preds);
    if (hit != nullptr && hit->key == key)
        return;
    const int h = randomHeight();
    OrderedIndexNode *n = makeNode(key, h);
    for (int lvl = 0; lvl < h; ++lvl) {
        n->next[lvl] = preds[lvl]->next[lvl];
        preds[lvl]->next[lvl] = n;
    }
    entries_.fetch_add(1, std::memory_order_relaxed);
}

void
OrderedIndex::erase(std::uint64_t key)
{
    OrderedIndexNode *preds[maxHeight];
    OrderedIndexNode *hit = findFrom(key, preds);
    if (hit == nullptr || hit->key != key)
        return;
    for (int lvl = 0; lvl < hit->height; ++lvl)
        preds[lvl]->next[lvl] = hit->next[lvl];
    delete hit;
    entries_.fetch_sub(1, std::memory_order_relaxed);
}

void
OrderedIndex::clear()
{
    OrderedIndexNode *n = head_->next[0];
    while (n != nullptr) {
        OrderedIndexNode *nxt = n->next[0];
        delete n;
        n = nxt;
    }
    for (OrderedIndexNode *&p : head_->next)
        p = nullptr;
    entries_.store(0, std::memory_order_relaxed);
}

bool
OrderedIndex::contains(std::uint64_t key) const
{
    const OrderedIndexNode *hit = findFrom(key, nullptr);
    return hit != nullptr && hit->key == key;
}

OrderedIndex::Cursor
OrderedIndex::lowerBound(std::uint64_t key) const
{
    return Cursor(findFrom(key, nullptr));
}

} // namespace lp::index
