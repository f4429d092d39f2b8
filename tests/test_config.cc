/**
 * @file
 * Config: the key=value parser behind fhsim and the paper harnesses,
 * and the strict value parsers it shares with FH_STRICT's reader; the
 * harness options read through it (bench/harness.hh), each key with
 * the range of its fhsim key, and the schedule keys every driver reads
 * through fault::readSchedule.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "../bench/harness.hh"
#include "fault/campaign.hh"
#include "sim/config.hh"
#include "sim/error.hh"

using namespace fh;

namespace
{

/** A variable nothing in the simulator or the harnesses reads, so
 *  setting it in this process changes no other behavior. */
constexpr const char *kUnreadVar = "FH_TEST_UNREAD";

/** Scoped environment override restoring the previous value on exit
 *  (the readers under test see the real process environment). */
class EnvOverride
{
  public:
    EnvOverride(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        had_ = old != nullptr;
        if (had_)
            old_ = old;
        set(value);
    }

    ~EnvOverride()
    {
        if (had_)
            setenv(name_, old_.c_str(), 1);
        else
            unsetenv(name_);
    }

    void set(const char *value) { setenv(name_, value, 1); }

  private:
    const char *name_;
    bool had_ = false;
    std::string old_;
};

/** The keys of a harness that reads them all (fig8's). */
constexpr bench::Keys kEveryKey{.insts = 120000, .campaign = true};

/** bench::parseOptions over a command line of args. */
bench::Options
harnessOptions(std::vector<std::string> args,
               const bench::Keys &keys = kEveryKey)
{
    std::vector<char *> argv{const_cast<char *>("bench_test")};
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return bench::parseOptions(static_cast<int>(argv.size()), argv.data(),
                               keys);
}

} // namespace

TEST(ConfigDeathTest, MalformedValueIsFatalNamingTheKey)
{
    Config cfg;
    cfg.set("injections=2O");
    cfg.set("ci_target=0.o1");
    cfg.set("campaign=maybe");
    cfg.set("window=abc");
    EXPECT_EXIT(cfg.getU64("injections"), testing::ExitedWithCode(1),
                "injections='2O'");
    EXPECT_EXIT(cfg.getDouble("ci_target"), testing::ExitedWithCode(1),
                "ci_target='0.o1'");
    EXPECT_EXIT(cfg.getBool("campaign"), testing::ExitedWithCode(1),
                "campaign='maybe'");
    EXPECT_EXIT(cfg.getU64("window", 1000), testing::ExitedWithCode(1),
                "window='abc'");
}

TEST(ConfigDeathTest, BelowRangeValueIsFatalNamingTheKeyAndRange)
{
    Config cfg;
    cfg.set("threads=0");
    EXPECT_EXIT(cfg.getU64("threads", 2, 1, 8), testing::ExitedWithCode(1),
                "threads=0 is out of range \\[1, 8\\]");
}

TEST(ConfigDeathTest, AboveRangeValueIsFatalNamingTheKeyAndRange)
{
    Config cfg;
    cfg.set("jobs=100000");
    EXPECT_EXIT(cfg.getU64("jobs", 0, 0, 1024), testing::ExitedWithCode(1),
                "jobs=100000 is out of range \\[0, 1024\\]");
}

TEST(ConfigDeathTest, OutOfRangeDoubleIsFatalNamingTheKeyAndRange)
{
    Config cfg;
    cfg.set("ci_target=7");
    cfg.set("below=-0.25");
    cfg.set("nan=nan");
    EXPECT_EXIT(cfg.getDouble("ci_target", 0.0, 0.0, 0.5),
                testing::ExitedWithCode(1),
                "ci_target=7 is out of range \\[0, 0.5\\]");
    EXPECT_EXIT(cfg.getDouble("below", 0.0, 0.0, 0.5),
                testing::ExitedWithCode(1),
                "below=-0.25 is out of range \\[0, 0.5\\]");
    // NaN compares false against both bounds; it must not slip through.
    EXPECT_EXIT(cfg.getDouble("nan", 0.0, 0.0, 0.5),
                testing::ExitedWithCode(1), "nan=nan is out of range");
}

TEST(ConfigDeathTest, MalformedHarnessKeyIsFatalNamingTheKey)
{
    EXPECT_EXIT(harnessOptions({"injections=2O"}),
                testing::ExitedWithCode(1), "injections='2O'");
    EXPECT_EXIT(harnessOptions({"ci_target=0.o1"}),
                testing::ExitedWithCode(1), "ci_target='0.o1'");
    EXPECT_EXIT(harnessOptions({"jobs=abc"}), testing::ExitedWithCode(1),
                "jobs='abc'");
    EXPECT_EXIT(harnessOptions({"seed=-1"}), testing::ExitedWithCode(1),
                "seed='-1'");
    EXPECT_EXIT(harnessOptions({"bench=oceann"}),
                testing::ExitedWithCode(1), "unknown bench 'oceann'");
    EXPECT_EXIT(harnessOptions({"injections"}), testing::ExitedWithCode(1),
                "bad option 'injections'");
}

TEST(ConfigDeathTest, MalformedStrictValueIsFatalNamingTheVariable)
{
    EXPECT_EXIT(
        {
            setenv(kUnreadVar, "maybe", 1);
            envBool(kUnreadVar, true);
        },
        testing::ExitedWithCode(1), "FH_TEST_UNREAD='maybe'");
}

TEST(ConfigDeathTest, HarnessKeysKeepTheirFhsimRanges)
{
    // Each key fails before a harness builds anything: `jobs` in
    // particular is refused before any stream exists.
    EXPECT_EXIT(harnessOptions({"window=0"}), testing::ExitedWithCode(1),
                "window=0 is out of range");
    EXPECT_EXIT(harnessOptions({"injections=0"}),
                testing::ExitedWithCode(1), "injections=0 is out of range");
    EXPECT_EXIT(harnessOptions({"ci_wave=0"}), testing::ExitedWithCode(1),
                "ci_wave=0 is out of range");
    EXPECT_EXIT(harnessOptions({"ci_target=7"}),
                testing::ExitedWithCode(1),
                "ci_target=7 is out of range \\[0, 0.5\\]");
    EXPECT_EXIT(harnessOptions({"jobs=100000"}),
                testing::ExitedWithCode(1),
                "jobs=100000 is out of range \\[0, 1024\\]");
    EXPECT_EXIT(harnessOptions({"insts=0"}), testing::ExitedWithCode(1),
                "insts=0 is out of range");
}

TEST(ConfigDeathTest, HarnessRefusesAKeyItDoesNotRead)
{
    // fig9 reads no schedule key; table2 reads no key at all.
    EXPECT_EXIT(harnessOptions({"injections=8"}, {.insts = 150000}),
                testing::ExitedWithCode(1),
                "unknown option 'injections'");
    EXPECT_EXIT(harnessOptions({"insts=20000"}, {.campaign = true}),
                testing::ExitedWithCode(1), "unknown option 'insts'");
    EXPECT_EXIT(harnessOptions({"bench=ocean"}, {.cells = false}),
                testing::ExitedWithCode(1), "unknown option 'bench'");
}

TEST(ConfigDeathTest, HarnessRefusesARetiredVariable)
{
    // Each variable names the key that replaced it, even when its
    // harness would not read that key.
    for (const auto &[var, key] : bench::kRetiredVariables) {
        EXPECT_EXIT(
            {
                setenv(var, "20", 1);
                harnessOptions({}, {.cells = false});
            },
            testing::ExitedWithCode(1),
            std::string(var) + " is retired; pass " + key + "=VALUE")
            << var;
    }
}

TEST(HarnessOptions, UnsetKeysGiveTheDefaults)
{
    const bench::Options o = harnessOptions({});
    EXPECT_EQ(o.benchmarks.size(), workload::all().size());
    EXPECT_EQ(o.seed, 0x5eedu);
    EXPECT_EQ(o.jobs, 0u);
    EXPECT_EQ(o.insts, 120000u);
    EXPECT_EQ(o.campaign.injections, 120u);
    EXPECT_EQ(o.campaign.window, 1000u);
    EXPECT_EQ(o.campaign.seed, 1u);
    EXPECT_EQ(o.campaign.ciTarget, 0.0);
    EXPECT_EQ(o.campaign.ciWave, 64u);
}

TEST(HarnessOptions, KeysParseTheFullToken)
{
    // `seed` sets the workload and the campaign seed alike.
    const bench::Options o = harnessOptions(
        {"bench=ocean", "seed=0x5eee", "jobs=3", "insts=20000",
         "injections=8", "window=300", "ci_target=0.013", "ci_wave=32"});
    ASSERT_EQ(o.benchmarks.size(), 1u);
    EXPECT_EQ(o.benchmarks[0].name, "ocean");
    EXPECT_EQ(o.seed, 0x5eeeu);
    EXPECT_EQ(o.campaign.seed, 0x5eeeu);
    EXPECT_EQ(o.jobs, 3u);
    EXPECT_EQ(o.insts, 20000u);
    EXPECT_EQ(o.campaign.injections, 8u);
    EXPECT_EQ(o.campaign.window, 300u);
    EXPECT_DOUBLE_EQ(o.campaign.ciTarget, 0.013);
    EXPECT_EQ(o.campaign.ciWave, 32u);
}

TEST(ScheduleKeys, DefaultToTheCallersValuesAndDeclareTheirHelp)
{
    // fhsim defaults to 300 injections and the harnesses to 120; the
    // reader keeps whatever the caller set for a key not given.
    Config cfg;
    cfg.set("window=500");
    fault::CampaignConfig c;
    c.injections = 120;
    c.seed = 9;
    fault::readSchedule(cfg, c);
    EXPECT_EQ(c.injections, 120u);
    EXPECT_EQ(c.window, 500u);
    EXPECT_EQ(c.seed, 9u);
    EXPECT_TRUE(cfg.unknownKeys().empty());
    std::vector<std::string> keys;
    for (const auto &[key, desc] : cfg.keyDocs()) {
        keys.push_back(key);
        EXPECT_FALSE(desc.empty()) << key;
    }
    EXPECT_EQ(keys, (std::vector<std::string>{"ci_target", "ci_wave",
                                              "injections", "seed",
                                              "window"}));
    EXPECT_NE(cfg.keyDocs()[2].second.find("(default 120)"),
              std::string::npos);
}

TEST(ConfigParse, NumbersMustBeTheWholeToken)
{
    u64 n = 0;
    EXPECT_TRUE(parseU64("0x5eed", n));
    EXPECT_EQ(n, 0x5eedu);
    EXPECT_TRUE(parseU64("18446744073709551615", n));
    EXPECT_EQ(n, ~u64{0});
    EXPECT_TRUE(parseU64("010", n)); // base 0: leading 0 is octal
    EXPECT_EQ(n, 8u);
    for (const char *bad : {"", "2O", "abc", "-1", "+1", " 1", "1 ", "0x",
                            "18446744073709551616"})
        EXPECT_FALSE(parseU64(bad, n)) << "'" << bad << "'";

    double d = 0.0;
    EXPECT_TRUE(parseDouble("0.01", d));
    EXPECT_DOUBLE_EQ(d, 0.01);
    EXPECT_TRUE(parseDouble("-2.5e-1", d));
    EXPECT_DOUBLE_EQ(d, -0.25);
    for (const char *bad : {"", "0.o1", "abc", " 1", "1 ", "1.5x"})
        EXPECT_FALSE(parseDouble(bad, d)) << "'" << bad << "'";
}

TEST(ConfigEnv, BoolReaderTakesTheConfigWords)
{
    // FH_STRICT, the one variable the simulator reads, goes through
    // envBool, so each word means what it means in a boolean key.
    EnvOverride env(kUnreadVar, "false");
    for (const char *word : {"false", "no", "off", "0", "FALSE", "Off"}) {
        env.set(word);
        EXPECT_FALSE(envBool(kUnreadVar, true)) << word;
    }
    for (const char *word : {"true", "yes", "on", "1", "TRUE", "Yes"}) {
        env.set(word);
        EXPECT_TRUE(envBool(kUnreadVar, false)) << word;
    }
    bool b = false;
    for (const char *bad : {"", "maybe", "2", "truee", " on"})
        EXPECT_FALSE(parseBool(bad, b)) << "'" << bad << "'";
}

TEST(ConfigEnv, StrictModeReadsFalseAsOff)
{
    EnvOverride env("FH_STRICT", "false");
    EXPECT_FALSE(strictMode());
    env.set("off");
    EXPECT_FALSE(strictMode());
    env.set("yes");
    EXPECT_TRUE(strictMode());
    env.set("");
    EXPECT_FALSE(strictMode());
}

TEST(Config, ParsesKeysValuesAndComments)
{
    Config cfg;
    std::string err;
    ASSERT_TRUE(cfg.parse("a = 1\n"
                          "# full-line comment\n"
                          "b.c = hello   # trailing comment\n"
                          "\n"
                          "  spaced.key   =   42  \n",
                          err))
        << err;
    EXPECT_EQ(cfg.getU64("a"), 1u);
    EXPECT_EQ(cfg.getString("b.c"), "hello");
    EXPECT_EQ(cfg.getU64("spaced.key"), 42u);
}

TEST(Config, LaterKeysOverride)
{
    Config cfg;
    std::string err;
    ASSERT_TRUE(cfg.parse("x = 1\nx = 2\n", err));
    EXPECT_EQ(cfg.getU64("x"), 2u);
    cfg.set("x=3");
    EXPECT_EQ(cfg.getU64("x"), 3u);
}

TEST(Config, MalformedLineFails)
{
    Config cfg;
    std::string err;
    EXPECT_FALSE(cfg.parse("just-a-token\n", err));
    EXPECT_NE(err.find("line 1"), std::string::npos);
    EXPECT_FALSE(cfg.parse("= value\n", err));
}

TEST(Config, TypedAccessorsAndDefaults)
{
    Config cfg;
    std::string err;
    ASSERT_TRUE(cfg.parse("n = 0x20\nf = 2.5\n"
                          "t1 = true\nt2 = on\nt3 = 1\n"
                          "f1 = false\nf2 = off\n",
                          err));
    EXPECT_EQ(cfg.getU64("n"), 0x20u);
    EXPECT_DOUBLE_EQ(cfg.getDouble("f"), 2.5);
    EXPECT_TRUE(cfg.getBool("t1"));
    EXPECT_TRUE(cfg.getBool("t2"));
    EXPECT_TRUE(cfg.getBool("t3"));
    EXPECT_FALSE(cfg.getBool("f1"));
    EXPECT_FALSE(cfg.getBool("f2"));
    // Defaults for missing keys.
    EXPECT_EQ(cfg.getU64("missing", 7), 7u);
    EXPECT_EQ(cfg.getString("missing", "d"), "d");
    EXPECT_TRUE(cfg.getBool("missing", true));
    EXPECT_FALSE(cfg.has("missing"));
}

TEST(Config, RangedAccessorTakesBoundsAndDefaults)
{
    Config cfg;
    cfg.set("threads=8");
    cfg.set("jobs=0");
    EXPECT_EQ(cfg.getU64("threads", 2, 1, 8), 8u);
    EXPECT_EQ(cfg.getU64("jobs", 1, 0, 1024), 0u);
    EXPECT_EQ(cfg.getU64("worker_jobs", 1, 0, 1024), 1u);
    cfg.set("ci_target=0.5");
    EXPECT_EQ(cfg.getDouble("ci_target", 0.0, 0.0, 0.5), 0.5);
    EXPECT_EQ(cfg.getDouble("missing_target", 0.125, 0.0, 0.5), 0.125);
}

TEST(Config, UnknownKeysTracksUndeclaredUnreadKeys)
{
    Config cfg;
    std::string err;
    ASSERT_TRUE(cfg.parse("injections = 5000\n"
                          "injectons = 5000\n"
                          "jobs = 8\n",
                          err));
    // Nothing consumed yet: everything is unknown.
    EXPECT_EQ(cfg.unknownKeys().size(), 3u);
    // Reading a key (even via has()) recognises it; declareKey covers
    // keys a driver reads only conditionally.
    EXPECT_EQ(cfg.getU64("injections", 0), 5000u);
    cfg.declareKey("jobs");
    const auto unknown = cfg.unknownKeys();
    ASSERT_EQ(unknown.size(), 1u);
    EXPECT_EQ(unknown[0], "injectons");
    // Declaring a key that was never set is fine (optional options).
    cfg.declareKey("window");
    EXPECT_EQ(cfg.unknownKeys().size(), 1u);
}

TEST(Config, MissingFileIsAnError)
{
    Config cfg;
    std::string err;
    EXPECT_FALSE(cfg.parseFile("/nonexistent/path.conf", err));
    EXPECT_FALSE(err.empty());
}
