// Core experiment layer: tables, sweeps, scenarios.
#include <gtest/gtest.h>

#include <sstream>

#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"
#include "core/table.hpp"

namespace {

using namespace tags;
using namespace tags::core;

TEST(Linspace, EndpointsAndSpacing) {
  const auto v = linspace(1.0, 3.0, 5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_DOUBLE_EQ(v.front(), 1.0);
  EXPECT_DOUBLE_EQ(v.back(), 3.0);
  EXPECT_DOUBLE_EQ(v[1], 1.5);
}

TEST(Linspace, SinglePoint) {
  const auto v = linspace(2.0, 9.0, 1);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_DOUBLE_EQ(v[0], 2.0);
}

TEST(Table, AlignedPrintAndCsv) {
  Table t({"x", "value"});
  t.set_title("demo");
  t.add_row({1.0, 0.123456});
  t.add_row_text({"two", "n/a"});
  std::ostringstream oss;
  t.print(oss);
  const std::string printed = oss.str();
  EXPECT_NE(printed.find("demo"), std::string::npos);
  EXPECT_NE(printed.find("0.123456"), std::string::npos);

  std::ostringstream csv;
  t.write_csv(csv);
  EXPECT_EQ(csv.str(), "x,value\n1,0.123456\ntwo,n/a\n");
}

TEST(Table, RejectsWrongArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({1.0}), std::invalid_argument);
  EXPECT_THROW(t.add_row_text({"only"}), std::invalid_argument);
}

TEST(Scenarios, PaperParameterValues) {
  const auto f6 = Fig6Scenario::make();
  EXPECT_FALSE(f6.t_values.empty());
  const auto p = f6.tags_at(50.0);
  EXPECT_DOUBLE_EQ(p.lambda, 5.0);
  EXPECT_DOUBLE_EQ(p.mu, 10.0);
  EXPECT_EQ(p.n, 6u);
  EXPECT_EQ(p.k1, 10u);

  const auto f9 = Fig9Scenario::make();
  const auto h2 = f9.tags_at(50.0);
  EXPECT_NEAR(h2.mu1, 19.9, 1e-9);
  EXPECT_NEAR(h2.mu2, 0.199, 1e-9);
  EXPECT_NEAR(h2.mean_demand(), 0.1, 1e-12);

  const auto f11 = Fig11Scenario::make();
  EXPECT_DOUBLE_EQ(f11.alphas.front(), 0.89);
  EXPECT_DOUBLE_EQ(f11.alphas.back(), 0.99);
  const auto h2b = f11.tags_at(0.95, 40.0);
  EXPECT_NEAR(h2b.mean_demand(), 0.1, 1e-12);
  EXPECT_NEAR(h2b.mu1 / h2b.mu2, 10.0, 1e-9);
}

TEST(Experiment, ComparePoliciesExpConsistent) {
  models::TagsParams p;
  p.lambda = 5.0;
  p.mu = 10.0;
  p.t = 50.0;
  p.n = 3;
  p.k1 = p.k2 = 4;
  const auto c = compare_policies_exp(p);
  // Direct calls must agree with the bundled comparison.
  EXPECT_NEAR(c.tags.mean_total, models::TagsModel(p).metrics().mean_total, 1e-9);
  EXPECT_NEAR(c.random.mean_total,
              models::random_alloc_exp({.lambda = 5.0, .mu = 10.0, .k = 4}).mean_total,
              1e-12);
  // Paper: with exponential demands SQ < random < TAGS on queue length.
  EXPECT_LT(c.shortest_queue.mean_total, c.random.mean_total);
  EXPECT_LT(c.random.mean_total, c.tags.mean_total);
}

TEST(Experiment, TagsSweepMatchesPointSolves) {
  models::TagsParams base;
  base.lambda = 5.0;
  base.mu = 10.0;
  base.n = 3;
  base.k1 = base.k2 = 4;
  const std::vector<double> ts{20.0, 40.0, 80.0};
  const auto sweep = tags_t_sweep(base, ts);
  ASSERT_EQ(sweep.size(), 3u);
  for (std::size_t i = 0; i < ts.size(); ++i) {
    models::TagsParams p = base;
    p.t = ts[i];
    EXPECT_NEAR(sweep[i].mean_total, models::TagsModel(p).metrics().mean_total, 1e-7);
  }
}

}  // namespace
