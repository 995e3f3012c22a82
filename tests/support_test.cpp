#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "linalg/vec.h"
#include "polyhedra/box.h"
#include "support/checked.h"
#include "support/cli.h"
#include "support/error.h"
#include "support/text.h"

namespace lmre {
namespace {

TEST(Checked, AddBasics) {
  EXPECT_EQ(checked_add(2, 3), 5);
  EXPECT_EQ(checked_add(-2, 3), 1);
  EXPECT_EQ(checked_add(0, 0), 0);
}

TEST(Checked, AddOverflowThrows) {
  Int big = std::numeric_limits<Int>::max();
  EXPECT_THROW(checked_add(big, 1), OverflowError);
  EXPECT_THROW(checked_add(std::numeric_limits<Int>::min(), -1), OverflowError);
  EXPECT_EQ(checked_add(big, 0), big);
}

TEST(Checked, SubOverflowThrows) {
  EXPECT_EQ(checked_sub(5, 9), -4);
  EXPECT_THROW(checked_sub(std::numeric_limits<Int>::min(), 1), OverflowError);
}

TEST(Checked, MulOverflowThrows) {
  EXPECT_EQ(checked_mul(-7, 6), -42);
  Int big = std::numeric_limits<Int>::max();
  EXPECT_THROW(checked_mul(big, 2), OverflowError);
  EXPECT_EQ(checked_mul(big, 1), big);
}

TEST(Checked, NegAndAbs) {
  EXPECT_EQ(checked_neg(5), -5);
  EXPECT_EQ(checked_abs(-5), 5);
  EXPECT_EQ(checked_abs(0), 0);
  EXPECT_THROW(checked_neg(std::numeric_limits<Int>::min()), OverflowError);
  EXPECT_THROW(checked_abs(std::numeric_limits<Int>::min()), OverflowError);
}

TEST(Checked, Gcd) {
  EXPECT_EQ(gcd(12, 18), 6);
  EXPECT_EQ(gcd(-12, 18), 6);
  EXPECT_EQ(gcd(0, 0), 0);
  EXPECT_EQ(gcd(0, 7), 7);
  EXPECT_EQ(gcd(13, 7), 1);
}

TEST(Checked, Lcm) {
  EXPECT_EQ(lcm(4, 6), 12);
  EXPECT_EQ(lcm(0, 5), 0);
  EXPECT_EQ(lcm(-4, 6), 12);
}

TEST(Checked, ExtendedGcdIdentity) {
  for (Int a : {3, -3, 0, 7, 25, -40}) {
    for (Int b : {0, 2, 5, -9, 13}) {
      if (a == 0 && b == 0) continue;
      Int x, y;
      Int g = extended_gcd(a, b, x, y);
      EXPECT_EQ(g, gcd(a, b));
      EXPECT_EQ(a * x + b * y, g) << "a=" << a << " b=" << b;
    }
  }
}

TEST(Checked, FloorCeilDiv) {
  EXPECT_EQ(floor_div(7, 2), 3);
  EXPECT_EQ(floor_div(-7, 2), -4);
  EXPECT_EQ(floor_div(7, -2), -4);
  EXPECT_EQ(floor_div(-7, -2), 3);
  EXPECT_EQ(ceil_div(7, 2), 4);
  EXPECT_EQ(ceil_div(-7, 2), -3);
  EXPECT_EQ(ceil_div(7, -2), -3);
  EXPECT_EQ(ceil_div(-7, -2), 4);
  EXPECT_THROW(floor_div(1, 0), InvalidArgument);
  EXPECT_THROW(ceil_div(1, 0), InvalidArgument);
}

TEST(Checked, ModFloorAlwaysNonNegative) {
  for (Int a = -10; a <= 10; ++a) {
    for (Int b : {2, 3, -3, 7}) {
      Int m = mod_floor(a, b);
      EXPECT_GE(m, 0);
      EXPECT_LT(m, checked_abs(b));
      EXPECT_EQ((a - m) % b, 0);  // m is a residue of a mod |b|
    }
  }
}

TEST(Checked, Sign) {
  EXPECT_EQ(sign(-3), -1);
  EXPECT_EQ(sign(0), 0);
  EXPECT_EQ(sign(9), 1);
}

TEST(Error, RequireAndEnsure) {
  EXPECT_NO_THROW(require(true, "ok"));
  EXPECT_THROW(require(false, "bad"), InvalidArgument);
  EXPECT_NO_THROW(ensure(true, "ok"));
  EXPECT_THROW(ensure(false, "bug"), InternalError);
}

// Runs `fn` and expects it to throw exactly `E` carrying `what`.
template <typename E, typename Fn>
void expect_throw_what(Fn fn, const std::string& what) {
  try {
    fn();
    ADD_FAILURE() << "no exception; expected: " << what;
  } catch (const E& e) {
    EXPECT_EQ(std::string(e.what()), what);
  }
}

TEST(Error, BothOverloadsKeepTypeAndMessage) {
  // A literal picks the const char* overload, a std::string the other one;
  // both must throw the same type with the message verbatim.
  const std::string built = std::string("built at run time: ") + "42";
  expect_throw_what<InvalidArgument>(
      [] { require(false, "a literal longer than fifteen chars"); },
      "a literal longer than fifteen chars");
  expect_throw_what<InvalidArgument>([&] { require(false, built); }, built);
  expect_throw_what<InternalError>(
      [] { ensure(false, "transformed scan left the iteration space"); },
      "transformed scan left the iteration space");
  expect_throw_what<InternalError>([&] { ensure(false, built); }, built);
  EXPECT_NO_THROW(require(true, built));
  EXPECT_NO_THROW(ensure(true, built));
}

TEST(Checked, OverflowMessages) {
  const Int max = std::numeric_limits<Int>::max();
  const Int min = std::numeric_limits<Int>::min();
  expect_throw_what<OverflowError>([&] { (void)checked_add(max, 1); },
                                   "checked_add overflow");
  expect_throw_what<OverflowError>([&] { (void)checked_sub(min, 1); },
                                   "checked_sub overflow");
  expect_throw_what<OverflowError>([&] { (void)checked_mul(max, 2); },
                                   "checked_mul overflow");
  expect_throw_what<OverflowError>([&] { (void)checked_neg(min); },
                                   "checked_neg overflow");
  expect_throw_what<OverflowError>([&] { (void)checked_abs(min); },
                                   "checked_neg overflow");
}

TEST(Error, BoundsCheckedAccessorsKeepTheirMessages) {
  const IntVec v{1, 2, 3};
  const IntBox box = IntBox::from_upper_bounds({4, 5});
  EXPECT_EQ(v.at(2), 3);
  EXPECT_EQ(box.range(1).hi, 5);
  expect_throw_what<InvalidArgument>([&] { (void)v.at(3); },
                                     "IntVec index out of range");
  expect_throw_what<InvalidArgument>([&] { (void)box.range(2); },
                                     "IntBox::range out of range");
}

TEST(Text, Join) {
  std::vector<std::string> v{"a", "b", "c"};
  EXPECT_EQ(join(v, ", "), "a, b, c");
  EXPECT_EQ(join(std::vector<std::string>{}, ","), "");
}

TEST(Text, Pad) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcd", 2), "abcd");
}

TEST(Text, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(5152), "5,152");
  EXPECT_EQ(with_commas(1234567), "1,234,567");
  EXPECT_EQ(with_commas(-5152), "-5,152");
}

TEST(Text, Percent) {
  EXPECT_EQ(percent(0.819), "81.9%");
  EXPECT_EQ(percent(1.0), "100.0%");
}

TEST(Text, TableRendersAligned) {
  TextTable t;
  t.header({"name", "value"});
  t.row({"a", "1"});
  t.row({"long-name", "22"});
  std::string s = t.render();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("long-name"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Text, TableRejectsMismatchedRows) {
  TextTable t;
  t.header({"a", "b"});
  EXPECT_THROW(t.row({"only-one"}), InvalidArgument);
}

TEST(Cli, ParsesFlagsInAllForms) {
  Int n = 5;
  bool verbose = false;
  std::string name = "x";
  Cli cli("prog");
  cli.flag("n", &n, "count");
  cli.flag("verbose", &verbose, "talk more");
  cli.flag("name", &name, "label");
  Cli::Parsed p = cli.parse({"--n=7", "--verbose", "--name=hello"});
  EXPECT_EQ(p.error, "");
  EXPECT_TRUE(p.positional.empty());
  EXPECT_EQ(n, 7);
  EXPECT_TRUE(verbose);
  EXPECT_EQ(name, "hello");
}

TEST(Cli, DefaultsApply) {
  Int n = 5;
  bool verbose = false;
  Cli cli("prog");
  cli.flag("n", &n, "count");
  cli.flag("verbose", &verbose, "talk");
  EXPECT_EQ(cli.parse({}).error, "");
  EXPECT_EQ(n, 5);
  EXPECT_FALSE(verbose);
  EXPECT_NE(cli.usage().find("(default: 5)"), std::string::npos) << cli.usage();
}

TEST(Cli, UnknownFlagIsRefused) {
  Int n = 5;
  Cli cli("prog");
  cli.flag("n", &n, "count");
  // An undeclared name, and a declared one in a spelling it does not take.
  for (const char* arg : {"--bogus=1", "--n", "-n", "--"}) {
    Cli::Parsed p = cli.parse({arg});
    EXPECT_EQ(p.error, std::string("prog: unknown flag '") + arg + "'");
    EXPECT_EQ(p.unknown, arg);
  }
  bool quiet = false;
  cli.flag("quiet", &quiet);
  EXPECT_EQ(cli.parse({"--quiet=1"}).error, "prog: unknown flag '--quiet=1'");
  EXPECT_FALSE(quiet);
}

TEST(Cli, NumbersParseWholeValuesOnly) {
  Int n = 5;
  Cli cli("prog");
  cli.flag("n", &n);
  for (const char* value : {"4x", "", " 4", "4.0", "99999999999999999999"}) {
    Cli::Parsed p = cli.parse({std::string("--n=") + value});
    EXPECT_EQ(p.error, std::string("bad --n value: --n=") + value);
    EXPECT_EQ(p.unknown, "");
  }
  EXPECT_EQ(n, 5);
  EXPECT_EQ(cli.parse({"--n=-12"}).error, "");
  EXPECT_EQ(n, -12);
}

TEST(Cli, NonFiniteDoublesAreRefused) {
  for (const char* value : {"inf", "-inf", "INF", "nan", "-nan", "infinity", "1e400"}) {
    EXPECT_FALSE(parse_number<double>(value).has_value()) << value;
  }
  EXPECT_EQ(parse_number<double>("1e300"), 1e300);
  EXPECT_EQ(parse_number<double>("-0.5"), -0.5);
}

TEST(Cli, NumberRangeAndFirstErrorWins) {
  int workers = 1;
  Cli cli("prog");
  cli.number<int>("workers", &workers, [](int v) { return v >= 1; },
                  "--workers must be >= 1");
  EXPECT_EQ(cli.parse({"--workers=0", "--workers=x"}).error, "--workers must be >= 1");
  EXPECT_EQ(cli.parse({"--workers=3"}).error, "");
  EXPECT_EQ(workers, 3);
}

TEST(Cli, OptionalValueFlag) {
  std::string plan = "none";
  Cli cli("prog");
  cli.flag("plan", Cli::Takes::kOptional, [&plan](const std::optional<std::string>& v) {
    plan = v ? *v : "auto";
    return plan == "bad" ? std::string("bad --plan spec") : std::string();
  });
  EXPECT_EQ(cli.parse({"--plan"}).error, "");
  EXPECT_EQ(plan, "auto");
  EXPECT_EQ(cli.parse({"--plan=0 1; 1 0"}).error, "");
  EXPECT_EQ(plan, "0 1; 1 0");
  EXPECT_EQ(cli.parse({"--plan="}).error, "");
  EXPECT_EQ(plan, "");
  EXPECT_EQ(cli.parse({"--plan=bad"}).error, "bad --plan spec");
}

TEST(Cli, PositionalArgumentsKeepTheirOrder) {
  bool json = false;
  Cli cli("prog");
  cli.flag("json", &json);
  Cli::Parsed p = cli.parse({"a.loop", "--json", "-", "b"});
  EXPECT_EQ(p.error, "");
  EXPECT_EQ(p.positional, (std::vector<std::string>{"a.loop", "-", "b"}));
  EXPECT_TRUE(json);
}

}  // namespace
}  // namespace lmre
