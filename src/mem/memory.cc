#include "mem/memory.hh"

#include "sim/logging.hh"

namespace fh::mem
{

void
Memory::addSegment(Addr base, u64 size)
{
    fh_assert(size > 0, "empty segment");
    fh_assert(base % 8 == 0 && size % 8 == 0, "unaligned segment");
    for (const auto &b : backings_) {
        bool disjoint = base + size <= b.seg.base ||
                        b.seg.base + b.seg.size <= base;
        fh_assert(disjoint, "overlapping segments");
    }
    // Every fresh page is the one zero page; it is never written in
    // place, since this reference keeps it shared.
    static const auto zero = std::make_shared<Page>();
    Backing b;
    b.seg = {base, size};
    b.pages = std::make_shared<PageTable>(
        (size / 8 + kPageWords - 1) / kPageWords, zero);
    backings_.push_back(std::move(b));
}

std::vector<Segment>
Memory::segments() const
{
    std::vector<Segment> out;
    out.reserve(backings_.size());
    for (const auto &b : backings_)
        out.push_back(b.seg);
    return out;
}

const Memory::Backing *
Memory::find(Addr a) const
{
    if (lastHit_ < backings_.size() &&
        backings_[lastHit_].seg.contains(a)) {
        return &backings_[lastHit_];
    }
    for (unsigned i = 0; i < backings_.size(); ++i) {
        if (backings_[i].seg.contains(a)) {
            lastHit_ = i;
            return &backings_[i];
        }
    }
    return nullptr;
}

Memory::Backing *
Memory::find(Addr a)
{
    return const_cast<Backing *>(
        static_cast<const Memory *>(this)->find(a));
}

AccessResult
Memory::check(Addr a) const
{
    if (a % 8 != 0)
        return AccessResult::Misaligned;
    return find(a) ? AccessResult::Ok : AccessResult::Unmapped;
}

AccessResult
Memory::read(Addr a, u64 &value) const
{
    if (a % 8 != 0)
        return AccessResult::Misaligned;
    const Backing *b = find(a);
    if (!b)
        return AccessResult::Unmapped;
    const u64 w = (a - b->seg.base) / 8;
    value = (*(*b->pages)[w / kPageWords])[w % kPageWords];
    return AccessResult::Ok;
}

AccessResult
Memory::write(Addr a, u64 value)
{
    if (a % 8 != 0)
        return AccessResult::Misaligned;
    Backing *b = find(a);
    if (!b)
        return AccessResult::Unmapped;
    const u64 w = (a - b->seg.base) / 8;
    PageTable &table = exclusive(b->pages);
    u64 &word = exclusive(table[w / kPageWords])[w % kPageWords];
    b->digest ^= wordHash(a, word) ^ wordHash(a, value);
    word = value;
    return AccessResult::Ok;
}

size_t
Memory::footprintWords() const
{
    size_t n = 0;
    for (const auto &b : backings_)
        n += b.seg.size / 8;
    return n;
}

} // namespace fh::mem
