#include "filters/state_machine.hh"

namespace fh::filters
{

bool
BiasedNState::record(bool event)
{
    if (event) {
        bool alarm = quiet();
        arm();
        return alarm;
    }
    if (count_ > 0)
        --count_;
    return false;
}

} // namespace fh::filters
