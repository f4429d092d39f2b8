#include "pipeline/rob.hh"

#include <cstdint>

#include "sim/logging.hh"

namespace fh::pipeline
{

Rob::Rob(unsigned capacity)
{
    fh_assert(capacity > 0, "ROB needs capacity");
    own_.resize(capacity * (sizeof(RobHot) + sizeof(RobCold)) +
                alignof(RobCold));
    const auto base = reinterpret_cast<std::uintptr_t>(own_.data());
    const std::uintptr_t aligned =
        (base + alignof(RobCold) - 1) & ~(alignof(RobCold) - 1);
    auto *cold = reinterpret_cast<RobCold *>(aligned);
    auto *hot = reinterpret_cast<RobHot *>(cold + capacity);
    bind(hot, cold, capacity);
    reset();
}

Rob &
Rob::operator=(const Rob &other)
{
    if (this == &other)
        return *this;
    head_ = other.head_;
    count_ = other.count_;
    cap_ = other.cap_;
    if (other.own_.empty()) {
        // Arena mode: adopt the source pointers; the owning Core
        // shifts them onto its own arena right after the member copy.
        hot_ = other.hot_;
        cold_ = other.cold_;
        own_.clear();
        return *this;
    }
    // Standalone mode: deep-copy the private backing.
    own_ = other.own_;
    const std::ptrdiff_t delta = own_.data() - other.own_.data();
    hot_ = shiftPtr(other.hot_, delta);
    cold_ = shiftPtr(other.cold_, delta);
    return *this;
}

void
Rob::reset()
{
    for (unsigned i = 0; i < cap_; ++i) {
        hot_[i] = RobHot{};
        cold_[i] = RobCold{};
    }
    head_ = 0;
    count_ = 0;
}

unsigned
Rob::allocate()
{
    fh_assert(!full(), "allocate on full ROB");
    unsigned slot = slotAt(count_);
    ++count_;
    hot_[slot] = RobHot{};
    cold_[slot] = RobCold{};
    hot_[slot].valid = true;
    return slot;
}

void
Rob::popHead()
{
    fh_assert(!empty(), "popHead on empty ROB");
    hot_[head_].valid = false;
    head_ = (head_ + 1) % cap_;
    --count_;
}

void
Rob::popTail()
{
    fh_assert(!empty(), "popTail on empty ROB");
    hot_[tailSlot()].valid = false;
    --count_;
}

} // namespace fh::pipeline
