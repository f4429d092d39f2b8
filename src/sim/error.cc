#include "sim/error.hh"

#include "sim/config.hh"

namespace fh
{

namespace
{

/** Nesting depth of PanicScopes on this thread. */
thread_local int t_panicScopeDepth = 0;

} // namespace

SimError::SimError(const char *file, int line, const std::string &msg)
    : std::runtime_error(std::string(file) + ":" + std::to_string(line) +
                         ": " + msg),
      file_(file), line_(line), message_(msg)
{
}

PanicScope::PanicScope() { ++t_panicScopeDepth; }

PanicScope::~PanicScope() { --t_panicScopeDepth; }

bool
PanicScope::active()
{
    return t_panicScopeDepth > 0;
}

bool
strictMode()
{
    // Read per call, not cached: tests flip the knob with setenv, and
    // the lookup only happens on the (cold) panic path.
    return envBool("FH_STRICT", false);
}

} // namespace fh
