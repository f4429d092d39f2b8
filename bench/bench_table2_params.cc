/**
 * @file
 * Table 2: hardware parameters of the simulated core, as configured
 * by default in pipeline::CoreParams / mem::HierarchyParams /
 * filters::DetectorParams.
 */

#include <iostream>

#include "harness.hh"

using namespace fh;

int
main(int argc, char **argv)
{
    bench::parseOptions(argc, argv, {.cells = false});
    pipeline::CoreParams p =
        bench::coreParams(filters::DetectorParams::faultHound());

    TextTable table({"parameter", "value"});
    auto row = [&](const std::string &k, const std::string &v) {
        table.addRow({k, v});
    };

    row("SMT contexts per core", std::to_string(p.threads));
    row("fetch/decode/issue/commit width",
        std::to_string(p.fetchWidth));
    row("ALU / Mul units", std::to_string(p.numAlu) + " / " +
                               std::to_string(p.numMul));
    row("issue queue", std::to_string(p.iqSize));
    row("re-order buffer", std::to_string(p.robSize));
    row("physical registers", std::to_string(p.physRegs));
    row("LSQ", std::to_string(p.lsqSize));
    row("delay buffer", std::to_string(p.delayBufferSize));
    row("L1 I/D", std::to_string(p.memory.l1i.sizeBytes / 1024) +
                      " KB, " + std::to_string(p.memory.l1i.ways) +
                      "-way, " +
                      std::to_string(p.memory.l1d.hitLatency) +
                      " cycles");
    row("L2", std::to_string(p.memory.l2.sizeBytes / (1024 * 1024)) +
                  " MB, " + std::to_string(p.memory.l2.ways) +
                  "-way, " + std::to_string(p.memory.l2.hitLatency) +
                  " cycles");
    row("ITLB/DTLB entries", std::to_string(p.memory.itlb.entries));
    row("memory latency",
        std::to_string(p.memory.memoryLatency) + " cycles");
    row("FaultHound TCAMs",
        "2 x " + std::to_string(p.detector.tcam.entries) +
            "-entry, 64-bit (loosen threshold " +
            std::to_string(p.detector.tcam.loosenThreshold) + ")");
    row("second-level filter",
        std::to_string(p.detector.secondLevelStates) +
            "-state per bit, one per TCAM");
    row("squash state machines",
        std::to_string(p.detector.squashStates) +
            "-state per TCAM entry");

    std::cout << "Table 2: hardware parameters\n\n";
    table.print(std::cout);
    return 0;
}
