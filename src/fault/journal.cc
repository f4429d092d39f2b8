#include "fault/journal.hh"

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <type_traits>

#include "sim/crc32c.hh"
#include "sim/logging.hh"

namespace fh::fault
{

namespace
{

/** Call fn on each of r's per-trial counters in record-array order. */
template <class R, class Fn>
void
forEachTrialCounter(R &r, Fn &&fn)
{
    constexpr size_t kBinsAt = 10; // after hung_protected
    const auto counters = CampaignResult::fields();
    for (size_t i = 0; i < counters.size(); ++i) {
        if (i == kBinsAt)
            for (const auto &b : SdcBins::fields())
                fn(r.bins.*b.member);
        fn(r.*counters[i].member);
    }
}

/**
 * The header pins everything the trial outcomes are a function of:
 * the seed (gap schedule + per-trial streams), the trial count and
 * window, the schedule bounds, the fork cycle budget, the injection
 * mix, and the detector scheme. Matching is exact string equality of
 * this line, so any config drift — including a float formatting
 * change — refuses to resume rather than resuming wrong.
 */
std::string
headerLine(const CampaignConfig &cfg, const std::string &scheme)
{
    return csprintf(
        "{\"fh_trial_journal\": 3, \"scheme\": \"%s\", \"seed\": %llu, "
        "\"injections\": %llu, \"window\": %llu, \"warmup\": %llu, "
        "\"min_gap\": %llu, \"max_gap\": %llu, "
        "\"fork_max_cycles\": %llu, \"rename_frac\": %.17g, "
        "\"lsq_frac\": %.17g, \"inflight_frac\": %.17g, "
        "\"ci_target\": %.17g, \"ci_wave\": %llu}",
        scheme.c_str(), static_cast<unsigned long long>(cfg.seed),
        static_cast<unsigned long long>(cfg.injections),
        static_cast<unsigned long long>(cfg.window),
        static_cast<unsigned long long>(cfg.warmupInsts),
        static_cast<unsigned long long>(cfg.minGap),
        static_cast<unsigned long long>(cfg.maxGap),
        static_cast<unsigned long long>(cfg.forkMaxCycles),
        cfg.mix.renameFrac, cfg.mix.lsqFrac, cfg.mix.inflightFrac,
        cfg.ciTarget, static_cast<unsigned long long>(cfg.ciWave));
}

/**
 * CRC32C over the record's *values* (trial index, counters, metadata —
 * 27 u64s packed little-endian), not its JSON text: two textual
 * spellings of the same numbers are the same record, and it is the
 * values the resumed campaign depends on. Journal v3 stores this as
 * the record's "c" field, catching mid-file bit rot that still parses
 * as valid JSON — the case the torn-tail heuristic can never see.
 */
u32
recordCrc(u64 trial, const u64 (&d)[kTrialCounters],
          const u64 (&m)[kTrialMetaFields])
{
    u8 buf[8 * (1 + kTrialCounters + kTrialMetaFields)];
    size_t o = 0;
    auto put = [&](u64 v) {
        for (int i = 0; i < 8; ++i)
            buf[o++] = static_cast<u8>(v >> (8 * i));
    };
    put(trial);
    for (size_t i = 0; i < kTrialCounters; ++i)
        put(d[i]);
    for (size_t i = 0; i < kTrialMetaFields; ++i)
        put(m[i]);
    return crc32c(buf, o);
}

/** Parse `{"t": N, "d": [c0, ..., c18], "m": [m0, ..., m6], "c": C}`;
 *  false on any malformation (a crash-truncated tail line must not be
 *  trusted). The stored checksum is returned for the caller to verify
 *  against recordCrc — shape and integrity are separate diagnoses. */
bool
parseRecord(const std::string &line, u64 &trial, u64 (&d)[kTrialCounters],
            u64 (&m)[kTrialMetaFields], u64 &crc)
{
    const char *p = line.c_str();
    auto expect = [&](const char *tok) {
        while (std::isspace(static_cast<unsigned char>(*p)))
            ++p;
        const size_t n = std::strlen(tok);
        if (std::strncmp(p, tok, n) != 0)
            return false;
        p += n;
        return true;
    };
    auto number = [&](u64 &out) {
        while (std::isspace(static_cast<unsigned char>(*p)))
            ++p;
        if (!std::isdigit(static_cast<unsigned char>(*p)))
            return false;
        char *end = nullptr;
        out = std::strtoull(p, &end, 10);
        p = end;
        return true;
    };
    if (!expect("{") || !expect("\"t\":") || !number(trial) ||
        !expect(",") || !expect("\"d\":") || !expect("[")) {
        return false;
    }
    for (size_t i = 0; i < kTrialCounters; ++i) {
        if (!number(d[i]))
            return false;
        if (i + 1 < kTrialCounters && !expect(","))
            return false;
    }
    if (!expect("]") || !expect(",") || !expect("\"m\":") ||
        !expect("[")) {
        return false;
    }
    for (size_t i = 0; i < kTrialMetaFields; ++i) {
        if (!number(m[i]))
            return false;
        if (i + 1 < kTrialMetaFields && !expect(","))
            return false;
    }
    return expect("]") && expect(",") && expect("\"c\":") &&
           number(crc) && crc <= ~u32{0} && expect("}");
}

/** Write one record line (shared by the prefix rewrite and record). */
void
writeRecord(std::FILE *out, u64 trial, const u64 (&d)[kTrialCounters],
            const u64 (&m)[kTrialMetaFields])
{
    std::fprintf(out, "{\"t\": %llu, \"d\": [",
                 static_cast<unsigned long long>(trial));
    for (size_t i = 0; i < kTrialCounters; ++i)
        std::fprintf(out, "%s%llu", i ? ", " : "",
                     static_cast<unsigned long long>(d[i]));
    std::fprintf(out, "], \"m\": [");
    for (size_t i = 0; i < kTrialMetaFields; ++i)
        std::fprintf(out, "%s%llu", i ? ", " : "",
                     static_cast<unsigned long long>(m[i]));
    std::fprintf(out, "], \"c\": %lu}\n",
                 static_cast<unsigned long>(recordCrc(trial, d, m)));
}

} // namespace

void
packTrialCounters(const CampaignResult &r, u64 (&d)[kTrialCounters])
{
    size_t i = 0;
    forEachTrialCounter(r, [&](u64 v) { d[i++] = v; });
}

CampaignResult
unpackTrialCounters(const u64 (&d)[kTrialCounters])
{
    CampaignResult r;
    size_t i = 0;
    forEachTrialCounter(r, [&](u64 &v) { v = d[i++]; });
    return r;
}

void
packTrialMeta(const TrialMeta &m, u64 (&v)[kTrialMetaFields])
{
    size_t i = 0;
    forEachField(TrialMeta::fields(),
                 [&](const auto &f) { v[i++] = m.*f.member; });
}

TrialMeta
unpackTrialMeta(const u64 (&v)[kTrialMetaFields])
{
    TrialMeta m;
    size_t i = 0;
    forEachField(TrialMeta::fields(), [&](const auto &f) {
        using T = std::remove_reference_t<decltype(m.*f.member)>;
        m.*f.member = static_cast<T>(v[i++]);
    });
    return m;
}

TrialJournal::TrialJournal(const std::string &path,
                           const CampaignConfig &cfg,
                           const std::string &scheme)
    : path_(path)
{
    const std::string header = headerLine(cfg, scheme);

    std::ifstream in(path_);
    if (in) {
        std::string line;
        if (std::getline(in, line) && !line.empty()) {
            if (line != header) {
                fh_fatal("journal '%s' was written by a different "
                         "campaign configuration; delete it or point "
                         "journal= elsewhere\n  file: %s\n  want: %s",
                         path_.c_str(), line.c_str(), header.c_str());
            }
            Record rec;
            u64 trial = 0;
            u64 crc = 0;
            u64 lineNo = 1; // the header
            std::string badWhy;
            u64 badLine = 0;
            while (std::getline(in, line)) {
                ++lineNo;
                if (!parseRecord(line, trial, rec.d, rec.m, crc)) {
                    badWhy = "malformed record";
                    badLine = lineNo;
                    break;
                }
                if (static_cast<u32>(crc) != recordCrc(trial, rec.d, rec.m)) {
                    badWhy = csprintf(
                        "record checksum mismatch (trial %llu: stored "
                        "%llu, computed %lu)",
                        static_cast<unsigned long long>(trial),
                        static_cast<unsigned long long>(crc),
                        static_cast<unsigned long>(
                            recordCrc(trial, rec.d, rec.m)));
                    badLine = lineNo;
                    break;
                }
                if (trial != replayed_.size()) {
                    badWhy = csprintf(
                        "trial out of order (got %llu, expected %llu)",
                        static_cast<unsigned long long>(trial),
                        static_cast<unsigned long long>(
                            replayed_.size()));
                    badLine = lineNo;
                    break;
                }
                replayed_.push_back(rec);
            }
            if (badLine != 0) {
                // Torn tail or corrupt body? A crash truncates the
                // *last* line; it cannot leave intact records after
                // the damage. If any later line still checks out, the
                // file was corrupted in place — refuse, loudly, with
                // the exact record: silently resuming would fork the
                // campaign's history.
                bool laterValid = false;
                while (std::getline(in, line)) {
                    if (parseRecord(line, trial, rec.d, rec.m, crc) &&
                        static_cast<u32>(crc) ==
                            recordCrc(trial, rec.d, rec.m)) {
                        laterValid = true;
                        break;
                    }
                }
                if (laterValid) {
                    fh_fatal(
                        "journal '%s': %s at line %llu, but valid "
                        "records follow — mid-file corruption, not a "
                        "torn tail; refusing to resume (delete the "
                        "journal or restore it to re-run)",
                        path_.c_str(), badWhy.c_str(),
                        static_cast<unsigned long long>(badLine));
                }
                // Torn tail: keep the clean prefix, drop the rest
                // (it re-executes).
            }
        }
        in.close();
    }
    nextTrial_ = replayed_.size();
    if (nextTrial_ > 0)
        fh_inform("journal '%s': replaying %llu completed trial(s)",
                  path_.c_str(), static_cast<unsigned long long>(nextTrial_));

    // Rewrite header + the validated prefix rather than appending
    // after a possibly torn tail line, so the file is always
    // well-formed from here on.
    out_ = std::fopen(path_.c_str(), "w");
    if (!out_)
        fh_fatal("cannot open journal '%s' for writing", path_.c_str());
    std::fprintf(out_, "%s\n", header.c_str());
    for (u64 t = 0; t < replayed_.size(); ++t)
        writeRecord(out_, t, replayed_[t].d, replayed_[t].m);
    std::fflush(out_);
}

TrialJournal::~TrialJournal()
{
    if (out_)
        std::fclose(out_);
}

void
TrialJournal::record(u64 trial, const CampaignResult &delta,
                     const TrialMeta &meta)
{
    fh_assert(trial == nextTrial_,
              "journal records must arrive in trial order (got %llu, "
              "expected %llu)",
              static_cast<unsigned long long>(trial),
              static_cast<unsigned long long>(nextTrial_));
    ++nextTrial_;
    u64 d[kTrialCounters];
    u64 m[kTrialMetaFields];
    packTrialCounters(delta, d);
    packTrialMeta(meta, m);
    writeRecord(out_, trial, d, m);
    // One flush per completed trial: at campaign throughput (~500
    // trials/s) this is noise, and it is exactly the durability the
    // journal exists for.
    std::fflush(out_);
}

} // namespace fh::fault
