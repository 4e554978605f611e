// Locale regression suite: every user-visible number path (JSON protocol
// frames, CSV tables, Prometheus export, PEPA rate printing) must keep its
// C-locale bytes when an embedding application installs a comma-decimal
// locale — both the C++ global locale (ostream formatting, numpunct
// grouping) and the C locale (strtod/snprintf, which the code no longer
// uses). The fixture installs an aggressive "3,14 / 1.234.567" locale for
// every test and restores the previous state afterwards.
#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <locale>
#include <optional>
#include <sstream>
#include <string>

#include "core/table.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/numio.hpp"
#include "pepa/printer.hpp"
#include "serve/jsonv.hpp"
#include "store/store.hpp"

namespace {

using namespace tags;

/// Comma decimal point, dot thousands separator, groups of three — the
/// worst case for both parsing ("3.14" stops at the dot) and rendering
/// ("1234567" gains separators).
struct CommaNumpunct : std::numpunct<char> {
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

class LocaleIo : public ::testing::Test {
 protected:
  void SetUp() override {
    previous_global_ = std::locale();
    if (const char* c = std::setlocale(LC_ALL, nullptr)) previous_c_ = c;
    std::locale::global(std::locale(std::locale::classic(), new CommaNumpunct));
    // Best effort for the C locale too: the container may not ship de_DE,
    // but the C++ global locale above already breaks unprotected ostreams.
    if (std::setlocale(LC_ALL, "de_DE.UTF-8") == nullptr) {
      (void)std::setlocale(LC_ALL, "de_DE");
    }
  }

  void TearDown() override {
    std::locale::global(previous_global_);
    (void)std::setlocale(LC_ALL, previous_c_.c_str());
  }

 private:
  std::locale previous_global_;
  std::string previous_c_ = "C";
};

/// Sanity: the fixture's locale really does corrupt naive iostream output.
TEST_F(LocaleIo, FixtureLocaleIsHostile) {
  std::ostringstream os;
  os << 1234567;
  EXPECT_EQ(os.str(), "1.234.567");
}

TEST_F(LocaleIo, JsonNumbersParseUnderCommaLocale) {
  const auto doc =
      serve::parse_json(R"({"x":3.14,"e":-1.5e-3,"big":1e999,"i":42})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->find("x")->as_number(), 3.14);
  EXPECT_EQ(doc->find("e")->as_number(), -1.5e-3);
  EXPECT_EQ(doc->find("big")->as_number(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(doc->find("i")->as_number(), 42.0);
  // The comma stays a structural separator, never a decimal point.
  const auto arr = serve::parse_json("[3,14]");
  ASSERT_TRUE(arr.has_value());
  ASSERT_TRUE(arr->is_array());
}

TEST_F(LocaleIo, JsonWriterBytesUnderCommaLocale) {
  obs::JsonWriter w;
  w.begin_object();
  w.field("v", 1234567.890625);
  w.field("n", std::int64_t{1234567});
  w.field("half", 0.5);
  w.end_object();
  EXPECT_EQ(std::move(w).str(),
            R"({"v":1234567.890625,"n":1234567,"half":0.5})");
}

TEST_F(LocaleIo, TableCsvBytesUnderCommaLocale) {
  core::Table table({"t", "value", "count"});
  table.add_row({1234567.5, 0.125, 42.0});
  std::ostringstream os;
  table.write_csv(os);
  // %.6g bytes of the C locale, exactly as the golden CSVs were recorded.
  EXPECT_EQ(os.str(), "t,value,count\n1.23457e+06,0.125,42\n");
}

TEST_F(LocaleIo, PepaRateBytesUnderCommaLocale) {
  EXPECT_EQ(pepa::format_rate(0.125), "0.125");
  EXPECT_EQ(pepa::format_rate(3.0), "3");
  // %.17g bytes, exactly as the golden PEPA sources were recorded.
  EXPECT_EQ(pepa::format_rate(19.9), "19.899999999999999");
}

TEST_F(LocaleIo, PrometheusExportUnderCommaLocale) {
  obs::gauge_set("locale.test.gauge", 2.5);
  const std::string text = obs::prometheus_text();
  EXPECT_NE(text.find("locale_test_gauge 2.5\n"), std::string::npos) << text;
  EXPECT_EQ(text.find("2,5"), std::string::npos);
}

TEST_F(LocaleIo, ParseDoubleKeepsStrtodRangeSemantics) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(numio::parse_double("1e999"), inf);
  EXPECT_EQ(numio::parse_double("-1e999"), -inf);
  EXPECT_EQ(numio::parse_double("123456789e999"), inf);
  EXPECT_EQ(numio::parse_double("0.0001e99999"), inf);
  const auto under = numio::parse_double("1e-999");
  ASSERT_TRUE(under.has_value());
  EXPECT_EQ(*under, 0.0);
  EXPECT_FALSE(std::signbit(*under));
  const auto nunder = numio::parse_double("-1e-999");
  ASSERT_TRUE(nunder.has_value());
  EXPECT_EQ(*nunder, 0.0);
  EXPECT_TRUE(std::signbit(*nunder));
  // Whole-token discipline: trailing garbage and empty input are rejected.
  EXPECT_FALSE(numio::parse_double("1.5x").has_value());
  EXPECT_FALSE(numio::parse_double("").has_value());
  EXPECT_FALSE(numio::parse_double("1.5e").has_value());
  EXPECT_FALSE(numio::parse_double("3,14").has_value());
}

TEST_F(LocaleIo, RoundTripExactUnderCommaLocale) {
  const double values[] = {0.1,
                           1.0 / 3.0,
                           6.02214076e23,
                           5e-324,  // smallest denormal
                           std::numeric_limits<double>::max(),
                           -0.0,
                           19.9};
  for (const double v : values) {
    const std::string text = numio::format_roundtrip(v);
    const auto back = numio::parse_double(text);
    ASSERT_TRUE(back.has_value()) << text;
    EXPECT_EQ(std::memcmp(&*back, &v, sizeof v), 0) << text;
  }
}

TEST_F(LocaleIo, EnvIntRejectsTrailingGarbage) {
  const auto dir =
      std::filesystem::path(testing::TempDir()) / "tags_locale_env_int";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // "8GB" used to atoi to 8 and arm the crash hook; strict parsing keeps
  // the fallback (disabled) and bumps the parse-error counter instead.
  const auto counter = [] {
    for (const auto& c : obs::counter_snapshots()) {
      if (c.name == "store.env_parse_errors") return c.value;
    }
    return std::uint64_t{0};
  };
  const std::uint64_t before = counter();
  ASSERT_EQ(setenv("TAGS_STORE_CRASH_AFTER_COMMITS", "8GB", 1), 0);
  { store::SolveStore store(dir.string()); }
  ASSERT_EQ(unsetenv("TAGS_STORE_CRASH_AFTER_COMMITS"), 0);
  EXPECT_GE(counter(), before + 1);
}

}  // namespace
