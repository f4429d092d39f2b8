/**
 * @file
 * The fabric suites' shared campaign: a small but
 * classification-diverse spec (the shrunken-footprint ocean the
 * resilience suite uses), its single-process reference run, and the
 * journal files they compare.
 */

#ifndef FH_TESTS_FABRIC_CAMPAIGN_HH
#define FH_TESTS_FABRIC_CAMPAIGN_HH

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "dist/spec.hh"
#include "fault/campaign.hh"

namespace fh::test
{

/** The test campaign: 24 ocean trials on a 2-thread FaultHound core. */
inline dist::CampaignSpec
testSpec()
{
    dist::CampaignSpec spec;
    spec.bench = "ocean";
    spec.scheme = "faulthound";
    spec.coreThreads = 2;
    spec.workload.maxThreads = 2;
    spec.workload.footprintDivider = 64;
    spec.campaign.injections = 24;
    spec.campaign.window = 300;
    spec.campaign.seed = 77;
    spec.campaign.threads = 1;
    return spec;
}

/** spec run in this process on one fork thread, journaled to journal
 *  unless it is empty. */
inline fault::CampaignResult
singleProcess(const dist::CampaignSpec &spec,
              const std::string &journal = "")
{
    isa::Program prog = spec.buildProgram();
    fault::CampaignConfig cfg = spec.campaign;
    cfg.threads = 1;
    cfg.journalPath = journal;
    return fault::runCampaign(spec.buildParams(), &prog, cfg);
}

/** `<TempDir>/<name>`, with any file of that name removed. */
inline std::string
tempPath(const std::string &name)
{
    const std::string path = testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

inline std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace fh::test

#endif // FH_TESTS_FABRIC_CAMPAIGN_HH
