/**
 * @file
 * Structured simulator errors and the scoped panic guard behind the
 * campaign's trial fault isolation.
 *
 * fh_panic / fh_assert normally abort the process: an internal
 * invariant broke and no state can be trusted. A statistical
 * fault-injection campaign is the one place that policy is wrong — a
 * pathological fork is *expected* occasionally (the whole point is to
 * corrupt machine state), and aborting throws away hours of otherwise
 * valid trials. Inside a PanicScope, panics instead throw a SimError
 * carrying the file/line/message, which the campaign catches per
 * trial, counts in CampaignResult::trialErrors, and logs with the
 * injection plan for offline reproduction.
 *
 * Scoping rules (see DESIGN.md "Trial fault isolation"):
 *  - The guard is thread-local, so only the worker running the faulty
 *    fork is affected; the producer thread's master — whose state the
 *    whole campaign depends on — still aborts on panic.
 *  - FH_STRICT=1 (the CI default) disarms every guard: panics abort
 *    exactly as before, so a latent simulator bug cannot hide inside
 *    the trialErrors bucket.
 *  - fh_fatal (user/configuration errors) is never converted: a bad
 *    config is wrong on every trial, not just an unlucky one.
 */

#ifndef FH_SIM_ERROR_HH
#define FH_SIM_ERROR_HH

#include <stdexcept>
#include <string>

namespace fh
{

/** A panic converted into an exception (inside a PanicScope). */
class SimError : public std::runtime_error
{
  public:
    SimError(const char *file, int line, const std::string &msg);

    const std::string &file() const { return file_; }
    int line() const { return line_; }
    /** The panic message alone, without the file:line prefix. */
    const std::string &message() const { return message_; }

  private:
    std::string file_;
    int line_ = 0;
    std::string message_;
};

/**
 * RAII guard: while any PanicScope is alive on this thread (and
 * strictMode() is off), fh_panic/fh_assert throw SimError instead of
 * aborting. Nests; never copied across threads.
 */
class PanicScope
{
  public:
    PanicScope();
    ~PanicScope();

    PanicScope(const PanicScope &) = delete;
    PanicScope &operator=(const PanicScope &) = delete;

    /** True when the calling thread is inside at least one scope. */
    static bool active();
};

/** FH_STRICT environment knob: panics always abort, guard or not. */
bool strictMode();

} // namespace fh

#endif // FH_SIM_ERROR_HH
