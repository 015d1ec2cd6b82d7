#include "iommu/iotlb.hpp"

#include "sim/logging.hpp"
#include "sim/random.hpp"

namespace bpd::iommu {

TranslationCache::TranslationCache(unsigned entries, unsigned ways)
    : ways_(ways)
{
    sim::panicIf(ways == 0 || entries == 0, "bad cache geometry");
    sets_ = entries / ways;
    if (sets_ == 0)
        sets_ = 1;
    // Round sets to a power of two for cheap indexing.
    unsigned p2 = 1;
    while (p2 < sets_)
        p2 <<= 1;
    sets_ = p2;
    entries_.resize(static_cast<std::size_t>(sets_) * ways_);
}

unsigned
TranslationCache::setOf(std::uint64_t key) const
{
    return static_cast<unsigned>(sim::hash64(key) & (sets_ - 1));
}

bool
TranslationCache::lookup(std::uint64_t key, std::uint64_t &value)
{
    Entry *set = &entries_[static_cast<std::size_t>(setOf(key)) * ways_];
    for (unsigned w = 0; w < ways_; w++) {
        if (set[w].valid && set[w].key == key) {
            set[w].lastUse = ++tick_;
            value = set[w].value;
            hits_++;
            return true;
        }
    }
    misses_++;
    return false;
}

void
TranslationCache::insert(std::uint64_t key, std::uint64_t value)
{
    Entry *set = &entries_[static_cast<std::size_t>(setOf(key)) * ways_];
    Entry *victim = &set[0];
    for (unsigned w = 0; w < ways_; w++) {
        if (set[w].valid && set[w].key == key) {
            set[w].value = value;
            set[w].lastUse = ++tick_;
            return;
        }
        if (!set[w].valid) {
            victim = &set[w];
            break;
        }
        if (set[w].lastUse < victim->lastUse)
            victim = &set[w];
    }
    victim->key = key;
    victim->value = value;
    victim->lastUse = ++tick_;
    victim->valid = true;
}

bool
TranslationCache::invalidate(std::uint64_t key)
{
    Entry *set = &entries_[static_cast<std::size_t>(setOf(key)) * ways_];
    for (unsigned w = 0; w < ways_; w++) {
        if (set[w].valid && set[w].key == key) {
            set[w].valid = false;
            return true;
        }
    }
    return false;
}

void
TranslationCache::invalidateIf(
    const std::function<bool(std::uint64_t)> &pred)
{
    for (auto &e : entries_) {
        if (e.valid && pred(e.key))
            e.valid = false;
    }
}

void
TranslationCache::clear()
{
    for (auto &e : entries_)
        e.valid = false;
}

} // namespace bpd::iommu
