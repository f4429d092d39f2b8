/**
 * @file
 * The campaign equivalence oracles as test parameters. Production runs
 * one configuration — producer-indexed wakeup issue, bare forks ended
 * early on provable fault erasure — and two slower paths stay compiled
 * in only so tests can prove that it classifies exactly as they do:
 *
 *  - scan: the retired per-cycle issue scan (CoreParams::scanIssue);
 *  - full_window: every bare fork runs its whole window
 *    (CampaignConfig::earlyStop = false).
 *
 * Suites that pin classification take a mode through testing::Combine
 * with oracleModes(), so every oracle runs wherever ctest runs, the
 * sanitizer builds included, and every case checks that its mode took
 * effect: a mode that silently failed to switch would only rerun wake.
 */

#ifndef FH_TESTS_ORACLE_MODES_HH
#define FH_TESTS_ORACLE_MODES_HH

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>

#include "fault/campaign.hh"
#include "pipeline/params.hh"

namespace fh::test
{

enum class OracleMode
{
    Wake,       ///< production: wakeup issue, early stop on
    Scan,       ///< per-cycle issue scan, early stop on
    FullWindow, ///< wakeup issue, early stop off
};

inline const char *
oracleModeName(OracleMode m)
{
    switch (m) {
      case OracleMode::Wake:
        return "wake";
      case OracleMode::Scan:
        return "scan";
      case OracleMode::FullWindow:
        return "full_window";
    }
    return "unknown";
}

/** Name the mode in gtest failure messages instead of raw bytes. */
inline void
PrintTo(OracleMode m, std::ostream *os)
{
    *os << oracleModeName(m);
}

inline auto
oracleModes()
{
    return testing::Values(OracleMode::Wake, OracleMode::Scan,
                           OracleMode::FullWindow);
}

inline void
applyOracleMode(OracleMode m, pipeline::CoreParams &params)
{
    params.scanIssue = m == OracleMode::Scan;
}

inline void
applyOracleMode(OracleMode m, fault::CampaignConfig &cfg)
{
    cfg.earlyStop = m != OracleMode::FullWindow;
}

/**
 * The scan leaves the wake rows idle, so no consumer is ever woken;
 * only early stop ends bare forks early. Each counter must be zero in
 * exactly its own mode.
 */
inline void
expectOracleModeTookEffect(OracleMode m, const fault::CampaignResult &r)
{
    EXPECT_EQ(r.sched.wakeupHits == 0, m == OracleMode::Scan)
        << "wakeup hits " << r.sched.wakeupHits;
    EXPECT_EQ(r.earlyTerminated == 0, m == OracleMode::FullWindow)
        << "early-terminated forks " << r.earlyTerminated;
}

/** gtest case name for a (case, mode) parameter: "<label>_<mode>". */
template <class Case>
std::string
oracleCaseName(
    const testing::TestParamInfo<std::tuple<Case, OracleMode>> &pinfo)
{
    return std::string(std::get<0>(pinfo.param).label) + "_" +
           oracleModeName(std::get<1>(pinfo.param));
}

} // namespace fh::test

#endif // FH_TESTS_ORACLE_MODES_HH
