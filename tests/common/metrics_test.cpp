#include "common/metrics.hpp"

#include <gtest/gtest.h>

namespace now {
namespace {

TEST(MetricsTest, TotalsAccumulate) {
  Metrics m;
  m.add_messages(10);
  m.add_rounds(2);
  m.add_messages(5);
  EXPECT_EQ(m.total().messages, 15u);
  EXPECT_EQ(m.total().rounds, 2u);
}

TEST(MetricsTest, ScopeAttributesCosts) {
  Metrics m;
  {
    OpScope scope(m, "join");
    m.add_messages(7);
    m.add_rounds(3);
    EXPECT_EQ(scope.cost().messages, 7u);
    EXPECT_EQ(scope.cost().rounds, 3u);
  }
  EXPECT_EQ(m.operation_count(m.find("join")), 1u);
  EXPECT_EQ(m.operation_total(m.find("join")).messages, 7u);
  EXPECT_EQ(m.operation_total(m.find("join")).rounds, 3u);
}

TEST(MetricsTest, NestedScopesChargeAncestors) {
  Metrics m;
  {
    OpScope outer(m, "leave");
    m.add_messages(1);
    {
      OpScope inner(m, "exchange");
      m.add_messages(10);
    }
    EXPECT_EQ(outer.cost().messages, 11u);
  }
  EXPECT_EQ(m.operation_total(m.find("leave")).messages, 11u);
  EXPECT_EQ(m.operation_total(m.find("exchange")).messages, 10u);
  EXPECT_EQ(m.total().messages, 11u);  // global total counted once
}

TEST(MetricsTest, SamplesKeepPerOperationCosts) {
  Metrics m;
  for (int i = 1; i <= 3; ++i) {
    OpScope scope(m, "op");
    m.add_messages(static_cast<std::uint64_t>(i));
  }
  const auto samples = m.operation_samples(m.find("op"));
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].messages, 1u);
  EXPECT_EQ(samples[1].messages, 2u);
  EXPECT_EQ(samples[2].messages, 3u);
}

TEST(MetricsTest, UnknownLabelIsEmpty) {
  Metrics m;
  EXPECT_EQ(m.operation_count(m.find("nope")), 0u);
  EXPECT_EQ(m.operation_total(m.find("nope")), Cost{});
  EXPECT_TRUE(m.operation_samples(m.find("nope")).empty());
}

TEST(MetricsTest, LabelsAreSorted) {
  Metrics m;
  { OpScope s(m, "b"); }
  { OpScope s(m, "a"); }
  const auto labels = m.labels();
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_EQ(labels[0], "a");
  EXPECT_EQ(labels[1], "b");
}

TEST(MetricsTest, ResetClearsEverything) {
  Metrics m;
  { OpScope s(m, "x"); m.add_messages(4); }
  m.reset();
  EXPECT_EQ(m.total().messages, 0u);
  EXPECT_EQ(m.operation_count(m.find("x")), 0u);
}

TEST(MetricsInternTest, FindResolvesInternedLabelsOnly) {
  Metrics m;
  const OperationId join = m.intern("join");
  EXPECT_EQ(m.find("join"), join);
  EXPECT_EQ(m.find("never-interned"), kNoOperation);
  // The sentinel routes through every accessor as "no such operation".
  EXPECT_EQ(m.operation_count(kNoOperation), 0u);
  EXPECT_EQ(m.operation_total(kNoOperation), Cost{});
  EXPECT_TRUE(m.operation_samples(kNoOperation).empty());
}

TEST(MetricsInternTest, SameLabelAlwaysGetsSameId) {
  Metrics m;
  const OperationId join = m.intern("join");
  const OperationId leave = m.intern("leave");
  EXPECT_NE(join, leave);
  EXPECT_EQ(m.intern("join"), join);
  EXPECT_EQ(m.intern(std::string("join")), join);  // no literal aliasing
  m.reset();
  EXPECT_EQ(m.intern("join"), join);  // ids survive reset
}

TEST(MetricsInternTest, DeeplyNestedScopesAttributeToEveryAncestor) {
  // The join -> exchange -> randCl nesting of the real protocol, with the
  // same label re-entered at two different depths (rejoin inside merge).
  Metrics m;
  {
    OpScope join(m, "join");
    m.add_messages(1);
    {
      OpScope exchange(m, "exchange");
      m.add_messages(10);
      {
        OpScope randcl(m, "randcl");
        m.add_messages(100);
        m.add_rounds(2);
      }
      {
        OpScope randcl(m, "randcl");
        m.add_messages(100);
      }
      EXPECT_EQ(exchange.cost().messages, 210u);
    }
    EXPECT_EQ(join.cost().messages, 211u);
  }
  EXPECT_EQ(m.operation_count(m.find("randcl")), 2u);
  EXPECT_EQ(m.operation_total(m.find("randcl")).messages, 200u);
  EXPECT_EQ(m.operation_total(m.find("exchange")).messages, 210u);
  EXPECT_EQ(m.operation_total(m.find("join")).messages, 211u);
  EXPECT_EQ(m.operation_total(m.find("join")).rounds, 2u);
  EXPECT_EQ(m.total().messages, 211u);  // global total counted once

  // Same label nested inside a *different* operation accumulates into the
  // same interned bucket.
  {
    OpScope merge(m, "merge");
    OpScope rejoin(m, "join");
    m.add_messages(5);
  }
  EXPECT_EQ(m.operation_count(m.find("join")), 2u);
  EXPECT_EQ(m.operation_total(m.find("join")).messages, 216u);
  EXPECT_EQ(m.operation_total(m.find("merge")).messages, 5u);
}

TEST(MetricsInternTest, LabelsReflectOnlyCompletedOperations) {
  Metrics m;
  m.intern("never-run");  // interned but never completed
  { OpScope s(m, "ran"); }
  const auto labels = m.labels();
  ASSERT_EQ(labels.size(), 1u);
  EXPECT_EQ(labels[0], "ran");
}

TEST(MetricsMergeTest, MergeFoldsTotalsAndSamples) {
  Metrics shard;
  {
    OpScope s(shard, "join");
    shard.add_messages(40);
    shard.add_rounds(4);
  }
  {
    OpScope s(shard, "exchange");
    shard.add_messages(2);
  }

  Metrics main;
  { OpScope s(main, "join"); main.add_messages(1); }
  {
    OpScope batch(main, "batch");
    main.merge(shard);
    // The merged total is charged into the open scope...
    EXPECT_EQ(batch.cost().messages, 42u);
    EXPECT_EQ(batch.cost().rounds, 4u);
  }
  // ... and the shard's completed samples land under the same labels,
  // after the samples main already had.
  EXPECT_EQ(main.operation_count(main.find("join")), 2u);
  EXPECT_EQ(main.operation_count(main.find("exchange")), 1u);
  EXPECT_EQ(main.operation_total(main.find("join")).messages, 41u);
  EXPECT_EQ(main.total().messages, 43u);
  EXPECT_EQ(main.total().rounds, 4u);
}

TEST(CostTest, Arithmetic) {
  const Cost a{3, 1};
  const Cost b{4, 2};
  const Cost c = a + b;
  EXPECT_EQ(c.messages, 7u);
  EXPECT_EQ(c.rounds, 3u);
  EXPECT_EQ(a, (Cost{3, 1}));
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace now
