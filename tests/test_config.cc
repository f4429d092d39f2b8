/**
 * @file
 * Config: the key=value parser behind the fhsim CLI, and the strict
 * value parsers and FH_* environment readers it shares with the
 * harnesses and FH_STRICT.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

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

TEST(ConfigDeathTest, MalformedEnvValueIsFatalNamingTheVariable)
{
    EXPECT_EXIT(
        {
            setenv("FH_INJECTIONS", "2O", 1);
            envU64("FH_INJECTIONS", 120);
        },
        testing::ExitedWithCode(1), "FH_INJECTIONS='2O'");
    EXPECT_EXIT(
        {
            setenv("FH_CI_TARGET", "0.o1", 1);
            envDouble("FH_CI_TARGET", 0.0);
        },
        testing::ExitedWithCode(1), "FH_CI_TARGET='0.o1'");
    EXPECT_EXIT(
        {
            setenv(kUnreadVar, "maybe", 1);
            envBool(kUnreadVar, true);
        },
        testing::ExitedWithCode(1), "FH_TEST_UNREAD='maybe'");
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

TEST(ConfigEnv, UnsetOrEmptyGivesTheDefault)
{
    EnvOverride env("FH_SEED", "");
    EXPECT_EQ(envU64("FH_SEED", 7), 7u);
    EXPECT_DOUBLE_EQ(envDouble("FH_SEED", 0.5), 0.5);
    EXPECT_TRUE(envBool("FH_SEED", true));
    EXPECT_EQ(envString("FH_SEED"), "");
    unsetenv("FH_SEED");
    EXPECT_EQ(envU64("FH_SEED", 7), 7u);
    EXPECT_FALSE(envBool("FH_SEED", false));
}

TEST(ConfigEnv, ReadersParseTheFullToken)
{
    EnvOverride env("FH_SEED", "0x5eed");
    EXPECT_EQ(envU64("FH_SEED", 1), 0x5eedu);
    EXPECT_EQ(envString("FH_SEED"), "0x5eed");
    env.set("0.013");
    EXPECT_DOUBLE_EQ(envDouble("FH_SEED", 0.0), 0.013);
}

TEST(ConfigEnv, BoolReaderTakesTheConfigWords)
{
    // Every boolean FH_* variable (FH_STRICT today) reads through
    // envBool, so each word means what it means in a boolean fhsim key.
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
