#include "util/cli.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace adc::util {
namespace {

bool run(CliParser& cli, std::vector<const char*> argv, std::string* error = nullptr) {
  argv.insert(argv.begin(), "prog");
  return cli.parse(static_cast<int>(argv.size()), argv.data(), error);
}

enum class Color { kRed, kGreen, kBlue };

TEST(Cli, DefaultsApplyWithoutFlags) {
  int n = 5;
  CliParser cli("test");
  cli.bind("n", &n, "a number");
  ASSERT_TRUE(run(cli, {}));
  EXPECT_EQ(n, 5);
}

TEST(Cli, SpaceSeparatedValue) {
  int n = 5;
  CliParser cli("test");
  cli.bind("n", &n, "a number");
  ASSERT_TRUE(run(cli, {"--n", "9"}));
  EXPECT_EQ(n, 9);
}

TEST(Cli, EqualsValue) {
  int n = 5;
  CliParser cli("test");
  cli.bind("n", &n, "a number");
  ASSERT_TRUE(run(cli, {"--n=12"}));
  EXPECT_EQ(n, 12);
}

TEST(Cli, NegativeValues) {
  int n = 5;
  double x = 1.0;
  CliParser cli("test");
  cli.bind("n", &n, "a number").bind("x", &x, "a real");
  ASSERT_TRUE(run(cli, {"--n", "-1", "--x", "-0.5"}));
  EXPECT_EQ(n, -1);
  EXPECT_DOUBLE_EQ(x, -0.5);
}

TEST(Cli, BooleanFlag) {
  bool verbose = false;
  CliParser cli("test");
  cli.bind("verbose", &verbose, "talk more");
  ASSERT_TRUE(run(cli, {"--verbose"}));
  EXPECT_TRUE(verbose);
}

TEST(Cli, FlagWithExplicitValue) {
  bool verbose = true;
  CliParser cli("test");
  cli.bind("verbose", &verbose, "talk more");
  ASSERT_TRUE(run(cli, {"--verbose=false"}));
  EXPECT_FALSE(verbose);
}

TEST(Cli, BoolAcceptsFourSpellings) {
  const std::vector<std::pair<const char*, bool>> cases = {
      {"0", false}, {"1", true}, {"false", false}, {"true", true}};
  for (const auto& [text, expected] : cases) {
    bool flag = !expected;
    CliParser cli("test");
    cli.bind("payload", &flag, "payload store");
    ASSERT_TRUE(run(cli, {"--payload", text})) << text;
    EXPECT_EQ(flag, expected) << text;
  }
  bool flag = false;
  CliParser cli("test");
  cli.bind("payload", &flag, "payload store");
  std::string error;
  EXPECT_FALSE(run(cli, {"--payload", "2"}, &error));
  EXPECT_EQ(error, "--payload expects 0, 1, true or false, got 2");
}

TEST(Cli, BareFlagBeforeAnotherFlag) {
  bool series = false;
  bool faithful = false;
  CliParser cli("test");
  cli.bind("series", &series, "print the series").bind("faithful", &faithful, "faithful");
  ASSERT_TRUE(run(cli, {"--series", "--faithful"}));
  EXPECT_TRUE(series);
  EXPECT_TRUE(faithful);
}

TEST(Cli, StringAndDoubleBinds) {
  std::string path = "none";
  double scale = 0.1;
  CliParser cli("test");
  cli.bind("json", &path, "output").bind("scale", &scale, "scale");
  ASSERT_TRUE(run(cli, {"--json", "out.json", "--scale=0.02"}));
  EXPECT_EQ(path, "out.json");
  EXPECT_DOUBLE_EQ(scale, 0.02);
}

TEST(Cli, RejectsPartialTokens) {
  for (const char* bad : {"3x", "x3", "1.5", "", " ", "0x10"}) {
    int n = 5;
    CliParser cli("test");
    cli.bind("id", &n, "node id");
    std::string error;
    EXPECT_FALSE(run(cli, {"--id", bad}, &error)) << "'" << bad << "'";
    EXPECT_EQ(error, std::string("--id expects an integer, got ") + bad);
    EXPECT_EQ(n, 5);  // a rejected value never lands in the field
  }
  double x = 0.5;
  CliParser cli("test");
  cli.bind("x", &x, "a real");
  std::string error;
  EXPECT_FALSE(run(cli, {"--x", "0.5abc"}, &error));
  EXPECT_EQ(error, "--x expects a number, got 0.5abc");
  EXPECT_FALSE(run(cli, {"--x", "nan"}, &error));
}

TEST(Cli, RangeErrorNamesFlagBoundsAndValue) {
  int k = 3;
  CliParser cli("test");
  cli.bind("erasure-k", &k, "data chunks", {2, 62});
  std::string error;
  EXPECT_FALSE(run(cli, {"--erasure-k", "1"}, &error));
  EXPECT_EQ(error, "--erasure-k must be in [2, 62], got 1");
  EXPECT_FALSE(run(cli, {"--erasure-k=65"}, &error));
  EXPECT_EQ(error, "--erasure-k must be in [2, 62], got 65");
  EXPECT_EQ(k, 3);
  ASSERT_TRUE(run(cli, {"--erasure-k", "62"}));
  EXPECT_EQ(k, 62);

  double fraction = 0.5;
  CliParser reals("test");
  reals.bind("fraction", &fraction, "a share", {0.0, 1.0});
  EXPECT_FALSE(run(reals, {"--fraction", "1.5"}, &error));
  EXPECT_EQ(error, "--fraction must be in [0, 1], got 1.5");
}

TEST(Cli, Uint16Overflow) {
  std::uint16_t port = 0;
  CliParser cli("test");
  cli.bind("port", &port, "listen port");
  std::string error;
  EXPECT_FALSE(run(cli, {"--port", "70000"}, &error));
  EXPECT_EQ(error, "--port must be in [0, 65535], got 70000");
  EXPECT_FALSE(run(cli, {"--port", "-1"}, &error));
  EXPECT_EQ(error, "--port expects a non-negative integer, got -1");
  EXPECT_EQ(port, 0);
  ASSERT_TRUE(run(cli, {"--port", "65535"}));
  EXPECT_EQ(port, 65535);
}

TEST(Cli, Int32Overflow) {
  int n = 0;
  CliParser cli("test");
  cli.bind("n", &n, "a number");
  std::string error;
  EXPECT_FALSE(run(cli, {"--n", "4294967296"}, &error));
  EXPECT_EQ(error, "--n must be in [-2147483648, 2147483647], got 4294967296");
}

TEST(Cli, SizeSupportsSuffixes) {
  std::size_t table = 0;
  std::uint64_t budget = 0;
  CliParser cli("test");
  cli.bind("table", &table, "entries").bind("budget", &budget, "bytes");
  ASSERT_TRUE(run(cli, {"--table", "20k", "--budget", "3m"}));
  EXPECT_EQ(table, 20000u);
  EXPECT_EQ(budget, 3000000u);
  std::string error;
  EXPECT_FALSE(run(cli, {"--table", "20x"}, &error));
  EXPECT_FALSE(run(cli, {"--table", "99999999999999999999g"}, &error));
  EXPECT_EQ(table, 20000u);
}

TEST(Cli, ChoiceStoresTheNamedValue) {
  Color color = Color::kRed;
  CliParser cli("test");
  cli.choice("color", &color, {{"red", Color::kRed}, {"green", Color::kGreen},
                               {"blue", Color::kBlue}}, "paint");
  ASSERT_TRUE(run(cli, {"--color", "blue"}));
  EXPECT_EQ(color, Color::kBlue);
}

TEST(Cli, UnknownChoiceListsItsNames) {
  Color color = Color::kRed;
  CliParser cli("test");
  cli.choice("color", &color, {{"red", Color::kRed}, {"green", Color::kGreen},
                               {"blue", Color::kBlue}}, "paint");
  std::string error;
  EXPECT_FALSE(run(cli, {"--color", "bleu"}, &error));
  EXPECT_EQ(error, "--color must be one of red | green | blue, got bleu");
  EXPECT_EQ(color, Color::kRed);
}

TEST(Cli, ChoiceMatchesAliasesCaseInsensitively) {
  Color color = Color::kRed;
  CliParser cli("test");
  cli.choice("color", &color, {{"green", Color::kGreen}, {"verde", Color::kGreen},
                               {"blue", Color::kBlue}}, "paint");
  ASSERT_TRUE(run(cli, {"--color", "VERDE"}));
  EXPECT_EQ(color, Color::kGreen);
  ASSERT_TRUE(run(cli, {"--color=Blue"}));
  EXPECT_EQ(color, Color::kBlue);
  std::string error;
  EXPECT_FALSE(run(cli, {"--color", "blu"}, &error));
  EXPECT_FALSE(run(cli, {"--color", "bluee"}, &error));
}

TEST(Cli, UnknownOptionFails) {
  CliParser cli("test");
  std::string error;
  EXPECT_FALSE(run(cli, {"--nope"}, &error));
  EXPECT_NE(error.find("--nope"), std::string::npos);
}

TEST(Cli, MissingValueFails) {
  int n = 5;
  CliParser cli("test");
  cli.bind("n", &n, "a number");
  std::string error;
  EXPECT_FALSE(run(cli, {"--n"}, &error));
  EXPECT_NE(error.find("expects a value"), std::string::npos);
  // The next flag is never swallowed as a value.
  bool verbose = false;
  cli.bind("verbose", &verbose, "talk more");
  EXPECT_FALSE(run(cli, {"--n", "--verbose"}, &error));
  EXPECT_EQ(error, "option --n expects a value");
}

TEST(Cli, PositionalArguments) {
  int n = 5;
  CliParser cli("test");
  cli.bind("n", &n, "a number");
  ASSERT_TRUE(run(cli, {"file1", "--n", "2", "file2"}));
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "file1");
  EXPECT_EQ(cli.positional()[1], "file2");
  EXPECT_EQ(n, 2);
}

TEST(Cli, HelpRequested) {
  int n = 5;
  CliParser cli("test");
  cli.bind("n", &n, "a number");
  ASSERT_TRUE(run(cli, {"--help"}));
  EXPECT_TRUE(cli.help_requested());
}

TEST(Cli, HelpTextMentionsOptionsAndDefaults) {
  int count = 3;
  CliParser cli("my program");
  cli.bind("count", &count, "how many");
  const std::string help = cli.help_text();
  EXPECT_NE(help.find("my program"), std::string::npos);
  EXPECT_NE(help.find("--count"), std::string::npos);
  EXPECT_NE(help.find("default: 3"), std::string::npos);
  EXPECT_NE(help.find("how many"), std::string::npos);
}

TEST(Cli, HelpShowsTheFieldValueAtBindTime) {
  struct Settings {
    double scale = 0.02;
    std::string host = "127.0.0.1";
    bool payload = false;
    Color color = Color::kGreen;
    std::string json;
  } settings;
  CliParser cli("test");
  cli.bind("scale", &settings.scale, "scale")
      .bind("host", &settings.host, "address")
      .bind("payload", &settings.payload, "payload store")
      .choice("color", &settings.color, {{"red", Color::kRed}, {"green", Color::kGreen}},
              "paint")
      .bind("json", &settings.json, "output path");
  const std::string help = cli.help_text();
  EXPECT_NE(help.find("--scale <value>\n      scale (default: 0.02)"), std::string::npos)
      << help;
  EXPECT_NE(help.find("(default: 127.0.0.1)"), std::string::npos) << help;
  EXPECT_NE(help.find("--payload [0|1]\n      payload store (default: false)"),
            std::string::npos)
      << help;
  EXPECT_NE(help.find("--color <red | green>\n      paint (default: green)"),
            std::string::npos)
      << help;
  // An empty string shows no default at all.
  EXPECT_NE(help.find("--json <value>\n      output path\n"), std::string::npos) << help;
}

TEST(Cli, LastFlagWins) {
  int n = 5;
  CliParser cli("test");
  cli.bind("n", &n, "a number");
  ASSERT_TRUE(run(cli, {"--n", "1", "--n", "2"}));
  EXPECT_EQ(n, 2);
}

TEST(Cli, MultiOptionAccumulatesInArgvOrder) {
  CliParser cli("test");
  cli.multi_option("peer", "cluster member id=host:port");
  ASSERT_TRUE(run(cli, {"--peer", "0=127.0.0.1:7000", "--peer=1=127.0.0.1:7001", "--peer",
                        "2=127.0.0.1:7002"}));
  ASSERT_EQ(cli.values("peer").size(), 3u);
  EXPECT_EQ(cli.values("peer")[0], "0=127.0.0.1:7000");
  EXPECT_EQ(cli.values("peer")[1], "1=127.0.0.1:7001");
  EXPECT_EQ(cli.values("peer")[2], "2=127.0.0.1:7002");
}

TEST(Cli, MultiOptionNeverGivenIsEmpty) {
  CliParser cli("test");
  cli.multi_option("peer", "cluster member");
  ASSERT_TRUE(run(cli, {}));
  EXPECT_TRUE(cli.values("peer").empty());
  EXPECT_TRUE(cli.values("unregistered").empty());
}

TEST(Cli, MultiOptionMissingValueFails) {
  CliParser cli("test");
  cli.multi_option("peer", "cluster member");
  std::string error;
  EXPECT_FALSE(run(cli, {"--peer"}, &error));
  EXPECT_NE(error.find("--peer"), std::string::npos);
  EXPECT_NE(error.find("expects a value"), std::string::npos);
}

TEST(Cli, MultiOptionDoesNotLeakIntoConfig) {
  // Repeated values stay in values(); no bound config field sees them.
  std::string peer = "unset";
  CliParser cli("test");
  cli.bind("peer-name", &peer, "a scalar neighbour").multi_option("peer", "cluster member");
  ASSERT_TRUE(run(cli, {"--peer", "0=h:1"}));
  EXPECT_EQ(peer, "unset");
  EXPECT_FALSE(cli.given("peer-name"));
}

TEST(Cli, MultiOptionMixesWithScalarOptions) {
  int n = 5;
  CliParser cli("test");
  cli.bind("n", &n, "a number");
  cli.multi_option("peer", "cluster member");
  ASSERT_TRUE(run(cli, {"--peer", "a", "--n", "7", "--peer", "b"}));
  EXPECT_EQ(n, 7);
  ASSERT_EQ(cli.values("peer").size(), 2u);
  EXPECT_EQ(cli.values("peer")[0], "a");
  EXPECT_EQ(cli.values("peer")[1], "b");
}

TEST(Cli, HelpTextMarksRepeatableOptions) {
  CliParser cli("test");
  cli.multi_option("peer", "cluster member");
  EXPECT_NE(cli.help_text().find("(repeatable)"), std::string::npos);
}

TEST(Cli, GivenDistinguishesExplicitFlagsFromDefaults) {
  int n = 5;
  int m = 7;
  CliParser cli("test");
  cli.bind("n", &n, "a number").bind("m", &m, "another number");
  ASSERT_TRUE(run(cli, {"--n", "5"}));
  // --n was typed (even with its default value); --m rests on its default.
  EXPECT_TRUE(cli.given("n"));
  EXPECT_FALSE(cli.given("m"));
  EXPECT_FALSE(cli.given("nonexistent"));
}

TEST(Cli, GivenCoversEveryFlagForm) {
  int n = 5;
  bool verbose = false;
  Color color = Color::kRed;
  CliParser cli("test");
  cli.bind("n", &n, "a number")
      .bind("verbose", &verbose, "talk more")
      .choice("color", &color, {{"red", Color::kRed}, {"blue", Color::kBlue}}, "paint")
      .multi_option("peer", "cluster member");
  ASSERT_TRUE(run(cli, {"--n=9", "--verbose", "--color", "red", "--peer", "0=h:1", "--peer",
                        "1=h:2"}));
  EXPECT_TRUE(cli.given("n"));
  EXPECT_TRUE(cli.given("verbose"));
  EXPECT_TRUE(cli.given("color"));  // given, even though it names the default
  EXPECT_TRUE(cli.given("peer"));   // recorded once despite repetition
}

}  // namespace
}  // namespace adc::util
