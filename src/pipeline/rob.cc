#include "pipeline/rob.hh"

#include "sim/logging.hh"

namespace fh::pipeline
{

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
