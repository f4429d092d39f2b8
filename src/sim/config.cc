#include "sim/config.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "sim/logging.hh"

namespace fh
{

namespace
{

std::string
strip(const std::string &s)
{
    size_t a = 0;
    size_t b = s.size();
    while (a < b && std::isspace(static_cast<unsigned char>(s[a])))
        ++a;
    while (b > a && std::isspace(static_cast<unsigned char>(s[b - 1])))
        --b;
    return s.substr(a, b - a);
}

/** Parse text with parse, or fail naming what (a key or variable). */
template <typename T>
T
parseOrDie(const std::string &text,
           bool (*parse)(const std::string &, T &),
           const std::string &what)
{
    T out{};
    if (!parse(text, out))
        fh_fatal("malformed value %s='%s'", what.c_str(), text.c_str());
    return out;
}

/** v, or fail naming the key and the range. */
u64
inRange(u64 v, const std::string &key, u64 lo, u64 hi)
{
    if (v < lo || v > hi)
        fh_fatal("%s=%llu is out of range [%llu, %llu]", key.c_str(),
                 static_cast<unsigned long long>(v),
                 static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi));
    return v;
}

double
inRange(double v, const std::string &key, double lo, double hi)
{
    if (!(v >= lo && v <= hi)) // NaN never is
        fh_fatal("%s=%g is out of range [%g, %g]", key.c_str(), v, lo,
                 hi);
    return v;
}

} // namespace

bool
parseU64(const std::string &text, u64 &out)
{
    // The leading digit refuses the space and sign strtoull would skip.
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(text.c_str(), &end, 0);
    return std::isdigit(static_cast<unsigned char>(text[0])) &&
           errno != ERANGE && *end == '\0';
}

bool
parseDouble(const std::string &text, double &out)
{
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return !text.empty() &&
           !std::isspace(static_cast<unsigned char>(text[0])) &&
           *end == '\0';
}

bool
parseBool(const std::string &text, bool &out)
{
    std::string v = text;
    std::transform(v.begin(), v.end(), v.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    out = v == "1" || v == "true" || v == "yes" || v == "on";
    return out || v == "0" || v == "false" || v == "no" || v == "off";
}

bool
envBool(const char *name, bool def)
{
    const char *v = std::getenv(name);
    return v && *v ? parseOrDie(std::string(v), parseBool, name) : def;
}

bool
parseArgs(Config &cfg, int argc, char **argv, const std::string &prog)
{
    std::string error;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            cfg.set("help=1");
            continue;
        }
        if (arg == "--config") {
            if (i + 1 >= argc || !cfg.parseFile(argv[++i], error)) {
                std::fprintf(stderr, "%s: %s\n", prog.c_str(),
                             error.c_str());
                return false;
            }
            continue;
        }
        if (!cfg.set(arg)) {
            std::fprintf(stderr, "%s: bad option '%s'\n", prog.c_str(),
                         arg.c_str());
            return false;
        }
    }
    return true;
}

void
printHelp(const Config &cfg, const std::string &prog)
{
    std::printf("usage: %s [--config FILE] [key=value ...]\n"
                "\noptions:\n",
                prog.c_str());
    for (const auto &[key, desc] : cfg.keyDocs())
        std::printf("  %-18s%s\n", key.c_str(), desc.c_str());
}

bool
rejectUnknown(const Config &cfg, const std::string &prog)
{
    const auto unknown = cfg.unknownKeys();
    if (unknown.empty())
        return true;
    for (const auto &key : unknown)
        std::fprintf(stderr, "%s: unknown option '%s'\n", prog.c_str(),
                     key.c_str());
    std::fprintf(stderr,
                 "%s: refusing to run with unrecognised options; run "
                 "`%s help=1` for the list\n",
                 prog.c_str(), prog.c_str());
    return false;
}

bool
Config::parse(const std::string &text, std::string &error)
{
    std::istringstream in(text);
    std::string line;
    unsigned lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        auto hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        line = strip(line);
        if (line.empty())
            continue;
        auto eq = line.find('=');
        if (eq == std::string::npos) {
            error = "line " + std::to_string(lineno) +
                    ": expected key = value";
            return false;
        }
        std::string key = strip(line.substr(0, eq));
        std::string value = strip(line.substr(eq + 1));
        if (key.empty()) {
            error = "line " + std::to_string(lineno) + ": empty key";
            return false;
        }
        values_[key] = value;
    }
    return true;
}

bool
Config::parseFile(const std::string &path, std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot open '" + path + "'";
        return false;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    return parse(ss.str(), error);
}

bool
Config::set(const std::string &assignment)
{
    std::string error;
    return parse(assignment, error);
}

bool
Config::has(const std::string &key) const
{
    declareKey(key);
    return values_.count(key) != 0;
}

std::string
Config::getString(const std::string &key, const std::string &def) const
{
    declareKey(key);
    auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
}

u64
Config::getU64(const std::string &key, u64 def) const
{
    return has(key) ? parseOrDie(getString(key), parseU64, key) : def;
}

u64
Config::getU64(const std::string &key, u64 def, u64 lo, u64 hi) const
{
    return inRange(getU64(key, def), key, lo, hi);
}

double
Config::getDouble(const std::string &key, double def) const
{
    return has(key) ? parseOrDie(getString(key), parseDouble, key) : def;
}

double
Config::getDouble(const std::string &key, double def, double lo,
                  double hi) const
{
    return inRange(getDouble(key, def), key, lo, hi);
}

bool
Config::getBool(const std::string &key, bool def) const
{
    return has(key) ? parseOrDie(getString(key), parseBool, key) : def;
}

void
Config::declareKey(const std::string &key,
                   const std::string &desc) const
{
    std::string &doc = declared_[key];
    if (!desc.empty())
        doc = desc;
}

std::vector<std::pair<std::string, std::string>>
Config::keyDocs() const
{
    return {declared_.begin(), declared_.end()};
}

std::vector<std::string>
Config::unknownKeys() const
{
    std::vector<std::string> out;
    for (const auto &[key, value] : values_) {
        (void)value;
        if (declared_.count(key) == 0)
            out.push_back(key);
    }
    return out;
}

} // namespace fh
