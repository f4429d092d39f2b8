/**
 * @file
 * Tiny key=value configuration parser for the CLI drivers (fhsim and
 * the paper harnesses): lines of `section.key = value` with '#'
 * comments, plus typed accessors with defaults, and the argv parser,
 * unknown-key refusal and help printer the drivers share.
 * Intentionally minimal — enough to configure CoreParams and campaign
 * settings from a file or command-line overrides without pulling in a
 * dependency. The same full-token parsers back envBool (FH_STRICT), so
 * a key and the variable fail alike when malformed.
 */

#ifndef FH_SIM_CONFIG_HH
#define FH_SIM_CONFIG_HH

#include <map>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace fh
{

class Config
{
  public:
    Config() = default;

    /** Parse `key = value` lines; later keys override earlier ones.
     *  Returns false (with an error message) on malformed input. */
    bool parse(const std::string &text, std::string &error);

    /** Parse a file; missing files are user errors (returns false). */
    bool parseFile(const std::string &path, std::string &error);

    /** Apply a single `key=value` override (e.g. from argv). */
    bool set(const std::string &assignment);

    bool has(const std::string &key) const;

    /** Typed accessors: a missing key gives def; a malformed value
     *  is fatal, naming the key. */
    std::string getString(const std::string &key,
                          const std::string &def = "") const;
    u64 getU64(const std::string &key, u64 def = 0) const;
    /** getU64 whose value must also lie in [lo, hi]; one outside it
     *  is fatal, naming the key and the range. */
    u64 getU64(const std::string &key, u64 def, u64 lo, u64 hi) const;
    double getDouble(const std::string &key, double def = 0.0) const;
    /** getDouble whose value must also lie in [lo, hi] (NaN never
     *  does); one outside it is fatal, naming the key and the range. */
    double getDouble(const std::string &key, double def, double lo,
                     double hi) const;
    bool getBool(const std::string &key, bool def = false) const;

    /**
     * Register a key a driver understands without reading it yet
     * (e.g. `injections`, consulted only when `campaign=true`). Every
     * typed accessor registers its key automatically, so drivers only
     * declare keys they read conditionally. A description feeds
     * keyDocs(), from which a driver generates its help text — the
     * registry that powers the typo check doubles as the single
     * source of truth for what the driver understands, so help can
     * never drift from the accepted option set.
     */
    void declareKey(const std::string &key,
                    const std::string &desc = "") const;

    /**
     * Every declared key with its description (empty for keys
     * registered without one), sorted by key.
     */
    std::vector<std::pair<std::string, std::string>> keyDocs() const;

    /**
     * Keys that were set but never declared or read — in a CLI
     * driver, almost certainly typos (`injectons=5000` silently
     * running the default campaign is the motivating bug). Call after
     * all options are consumed and fh_fatal on a non-empty result.
     */
    std::vector<std::string> unknownKeys() const;

  private:
    std::map<std::string, std::string> values_;
    /** Keys consumed by accessors or declareKey, with their help
     *  descriptions (the recognition set for unknownKeys); mutable
     *  because reading a value is logically const. */
    mutable std::map<std::string, std::string> declared_;
};

/**
 * Full-token value parsers: false unless the whole text is one value
 * (out is then unspecified). u64 is base 0, so `0x5eed` is valid, and
 * takes no sign; bool is 1/true/yes/on or 0/false/no/off, any case.
 */
bool parseU64(const std::string &text, u64 &out);
bool parseDouble(const std::string &text, double &out);
bool parseBool(const std::string &text, bool &out);

/** A boolean environment variable (FH_STRICT): unset or empty gives
 *  def; a malformed value is fatal, naming the variable. */
bool envBool(const char *name, bool def);

/**
 * Parse a driver's arguments into cfg: `key=value` overrides, and
 * `--config FILE` for a file of them; `--help` and `-h` set help=1.
 * False, after a message naming prog on stderr, on a bad argument.
 */
bool parseArgs(Config &cfg, int argc, char **argv, const std::string &prog);

/** Print prog's usage line and every declared key with its help. */
void printHelp(const Config &cfg, const std::string &prog);

/** Refuse to run with unrecognised keys (a misspelt key silently
 *  running a default campaign wastes hours): false, after naming each
 *  on stderr. Call once every key is declared or read. */
bool rejectUnknown(const Config &cfg, const std::string &prog);

} // namespace fh

#endif // FH_SIM_CONFIG_HH
