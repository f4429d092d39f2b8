#include "mem/tlb.hh"

#include "sim/logging.hh"

namespace fh::mem
{

Tlb::Tlb(const TlbParams &params) : params_(params)
{
    fh_assert(params_.entries > 0 && params_.pageBytes > 0,
              "bad TLB params");
    entries_.resize(params_.entries);
}

bool
Tlb::access(Addr addr)
{
    const u64 page = addr / params_.pageBytes;
    ++useClock_;

    Entry &hint = entries_[mru_];
    if (hint.valid && hint.page == page) {
        hint.lastUse = useClock_;
        ++hits_;
        return true;
    }

    Entry *victim = &entries_[0];
    for (auto &entry : entries_) {
        if (entry.valid && entry.page == page) {
            entry.lastUse = useClock_;
            ++hits_;
            mru_ = static_cast<unsigned>(&entry - entries_.data());
            return true;
        }
        if (!entry.valid) {
            victim = &entry;
        } else if (victim->valid && entry.lastUse < victim->lastUse) {
            victim = &entry;
        }
    }

    victim->valid = true;
    victim->page = page;
    victim->lastUse = useClock_;
    mru_ = static_cast<unsigned>(victim - entries_.data());
    ++misses_;
    return false;
}

} // namespace fh::mem
