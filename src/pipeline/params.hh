/**
 * @file
 * Core configuration (Table 2 of the paper). One Core models one
 * SMT-enabled out-of-order processor; the multicore experiments run
 * independent cores (the workloads have disjoint footprints).
 */

#ifndef FH_PIPELINE_PARAMS_HH
#define FH_PIPELINE_PARAMS_HH

#include "filters/detector.hh"
#include "mem/hierarchy.hh"
#include "sim/types.hh"

namespace fh::pipeline
{

struct CoreParams
{
    /** SMT hardware contexts (2 normally; 4 for SRT's extra copies). */
    unsigned threads = 2;

    unsigned fetchWidth = 4;
    unsigned dispatchWidth = 4;
    unsigned issueWidth = 4;
    unsigned commitWidth = 4;

    unsigned numAlu = 4;
    unsigned numMul = 2;
    unsigned memPorts = 2;

    unsigned iqSize = 40;
    /** Shared ROB capacity; partitioned evenly across threads. */
    unsigned robSize = 250;
    unsigned lsqSize = 64;
    /** Shared physical integer registers: sized so renaming never
     *  binds (arch state of up to 4 contexts + a full ROB), keeping
     *  baseline and SRT configurations comparable. */
    unsigned physRegs = 400;

    /** Recently-completed instructions held for predecessor replay.
     *  The paper uses 7; our completion stream is burstier (4-wide
     *  single-cycle back-end), so the default is slightly deeper to
     *  give the same produce-to-consume reach (see EXPERIMENTS.md). */
    unsigned delayBufferSize = 16;

    /** Cycles from fetch to dispatch (front-end depth; GEMS/Opal-like
     *  deep pipeline). */
    Cycle frontEndDepth = 10;
    /** Extra redirect penalty on a branch mispredict or rollback. */
    Cycle redirectPenalty = 5;
    /** Cycles a singleton re-execute steals from instruction issue. */
    Cycle reexecPenalty = 2;
    /**
     * Cycles between an instruction's completion and its earliest
     * commit (retirement-pipeline depth). The paper's machine has
     * complete-to-commit times of several tens of cycles (Section
     * 3.5); this keeps recently-completed producers in the ROB long
     * enough to be replayable when a consumer's check triggers.
     */
    Cycle commitDelay = 25;

    unsigned predictorEntries = 4096;

    /**
     * Issue-stage mode. False (default): producer-indexed wakeup — a
     * per-preg wake matrix plus per-thread ready pools feed the issue
     * stage. True: the legacy per-cycle readiness scan over the whole
     * issue queue, kept compiled in as the equivalence oracle — candidate
     * sets are produced in identical seq order either way, so every
     * architectural outcome and classification is bit-identical
     * (tests/test_fuzz_equivalence.cc pins it). Defaults from the
     * FH_SCAN_ISSUE environment variable (1/true/yes/on = scan).
     */
    bool scanIssue = envScanIssue();
    static bool envScanIssue();

    mem::HierarchyParams memory{};
    filters::DetectorParams detector{};
};

} // namespace fh::pipeline

#endif // FH_PIPELINE_PARAMS_HH
