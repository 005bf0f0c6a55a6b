// Tests for tertio_query: expressions, sink operators, and end-to-end
// queries pipelined from a tertiary join.

#include <gtest/gtest.h>

#include "exec/experiment.h"
#include "join/reference_join.h"
#include "query/query.h"
#include "relation/generator.h"
#include "whole_site.h"

namespace tertio::query {
namespace {

Row MakeRow(std::initializer_list<Value> values) {
  Row row;
  row.values = values;
  return row;
}

TEST(ExprTest, ColumnAndLiteral) {
  Row row = MakeRow({std::int64_t{7}, 2.5, std::string("abc")});
  EXPECT_EQ(std::get<std::int64_t>(Col(0)->Eval(row).value()), 7);
  EXPECT_DOUBLE_EQ(std::get<double>(Col(1)->Eval(row).value()), 2.5);
  EXPECT_EQ(std::get<std::string>(Col(2)->Eval(row).value()), "abc");
  EXPECT_EQ(std::get<std::int64_t>(Lit(std::int64_t{3})->Eval(row).value()), 3);
  EXPECT_FALSE(Col(9)->Eval(row).ok());
}

TEST(ExprTest, Comparisons) {
  Row row = MakeRow({std::int64_t{7}, 2.5});
  auto truthy = [&](ExprPtr e) { return std::get<std::int64_t>(e->Eval(row).value()) != 0; };
  EXPECT_TRUE(truthy(Eq(Col(0), Lit(std::int64_t{7}))));
  EXPECT_TRUE(truthy(Ne(Col(0), Lit(std::int64_t{8}))));
  EXPECT_TRUE(truthy(Lt(Col(1), Lit(3.0))));
  EXPECT_TRUE(truthy(Ge(Col(0), Lit(std::int64_t{7}))));
  // Mixed int/double comparison promotes.
  EXPECT_TRUE(truthy(Gt(Col(0), Lit(6.5))));
  // Strings compare lexicographically; string-vs-number errors.
  Row srow = MakeRow({std::string("abc"), std::string("abd")});
  EXPECT_TRUE(std::get<std::int64_t>(Lt(Col(0), Col(1))->Eval(srow).value()) != 0);
  EXPECT_FALSE(Eq(Col(0), Lit(std::int64_t{1}))->Eval(srow).ok());
}

TEST(ExprTest, BooleanShortCircuit) {
  Row row = MakeRow({std::int64_t{1}});
  // RHS would error (string in boolean context) but is short-circuited away.
  Row srow = MakeRow({std::int64_t{0}, std::string("x")});
  auto and_expr = And(Col(0), Col(1));
  EXPECT_EQ(std::get<std::int64_t>(and_expr->Eval(srow).value()), 0);
  auto or_expr = Or(Lit(std::int64_t{1}), Col(1));
  EXPECT_EQ(std::get<std::int64_t>(or_expr->Eval(srow).value()), 1);
  EXPECT_EQ(std::get<std::int64_t>(Not(Col(0))->Eval(row).value()), 0);
}

TEST(ExprTest, Arithmetic) {
  Row row = MakeRow({std::int64_t{6}, 2.5});
  EXPECT_EQ(std::get<std::int64_t>(Add(Col(0), Lit(std::int64_t{4}))->Eval(row).value()), 10);
  EXPECT_EQ(std::get<std::int64_t>(Mul(Col(0), Lit(std::int64_t{3}))->Eval(row).value()), 18);
  EXPECT_DOUBLE_EQ(std::get<double>(Sub(Col(1), Lit(0.5))->Eval(row).value()), 2.0);
  // int op double promotes to double.
  EXPECT_DOUBLE_EQ(std::get<double>(Add(Col(0), Col(1))->Eval(row).value()), 8.5);
  Row srow = MakeRow({std::string("x")});
  EXPECT_FALSE(Add(Col(0), Lit(std::int64_t{1}))->Eval(srow).ok());
}

TEST(SinkTest, FilterForwardsMatchesOnly) {
  CollectSink collect;
  FilterSink filter(Gt(Col(0), Lit(std::int64_t{5})), &collect);
  for (std::int64_t v : {3, 7, 5, 9}) {
    ASSERT_TRUE(filter.Consume(MakeRow({v})).ok());
  }
  ASSERT_TRUE(filter.Finish().ok());
  ASSERT_EQ(collect.rows().size(), 2u);
  EXPECT_EQ(filter.rows_in(), 4u);
  EXPECT_EQ(filter.rows_out(), 2u);
  EXPECT_EQ(std::get<std::int64_t>(collect.rows()[0].values[0]), 7);
}

TEST(SinkTest, ProjectMapsExpressions) {
  CollectSink collect;
  std::vector<ExprPtr> exprs;
  exprs.push_back(Mul(Col(0), Lit(std::int64_t{2})));
  exprs.push_back(Lit(std::string("tag")));
  ProjectSink project(std::move(exprs), &collect);
  ASSERT_TRUE(project.Consume(MakeRow({std::int64_t{21}})).ok());
  ASSERT_TRUE(project.Finish().ok());
  ASSERT_EQ(collect.rows().size(), 1u);
  EXPECT_EQ(std::get<std::int64_t>(collect.rows()[0].values[0]), 42);
  EXPECT_EQ(std::get<std::string>(collect.rows()[0].values[1]), "tag");
}

TEST(SinkTest, AggregateGroupsAndFolds) {
  CollectSink collect;
  std::vector<ExprPtr> group;
  group.push_back(Col(0));
  std::vector<AggSpec> aggs;
  aggs.push_back(AggSpec{AggKind::kCount, nullptr});
  aggs.push_back(AggSpec{AggKind::kSum, Col(1)});
  aggs.push_back(AggSpec{AggKind::kMin, Col(1)});
  aggs.push_back(AggSpec{AggKind::kMax, Col(1)});
  aggs.push_back(AggSpec{AggKind::kAvg, Col(1)});
  AggregateSink agg(std::move(group), std::move(aggs), &collect);
  // Two groups: "a" -> {1.0, 3.0}, "b" -> {10.0}.
  ASSERT_TRUE(agg.Consume(MakeRow({std::string("a"), 1.0})).ok());
  ASSERT_TRUE(agg.Consume(MakeRow({std::string("b"), 10.0})).ok());
  ASSERT_TRUE(agg.Consume(MakeRow({std::string("a"), 3.0})).ok());
  ASSERT_TRUE(agg.Finish().ok());
  ASSERT_EQ(collect.rows().size(), 2u);
  const Row& a = collect.rows()[0];
  EXPECT_EQ(std::get<std::string>(a.values[0]), "a");
  EXPECT_EQ(std::get<std::int64_t>(a.values[1]), 2);
  EXPECT_DOUBLE_EQ(std::get<double>(a.values[2]), 4.0);
  EXPECT_DOUBLE_EQ(std::get<double>(a.values[3]), 1.0);
  EXPECT_DOUBLE_EQ(std::get<double>(a.values[4]), 3.0);
  EXPECT_DOUBLE_EQ(std::get<double>(a.values[5]), 2.0);
  const Row& b = collect.rows()[1];
  EXPECT_EQ(std::get<std::string>(b.values[0]), "b");
  EXPECT_EQ(std::get<std::int64_t>(b.values[1]), 1);
}

TEST(SinkTest, LimitStopsForwarding) {
  CollectSink collect;
  LimitSink limit(2, &collect);
  for (std::int64_t v = 0; v < 10; ++v) {
    ASSERT_TRUE(limit.Consume(MakeRow({v})).ok());
  }
  ASSERT_TRUE(limit.Finish().ok());
  EXPECT_EQ(collect.rows().size(), 2u);
}

TEST(RowTest, JoinedSchemaAndValues) {
  rel::Schema schema = rel::Schema::KeyPayload(32);
  RowSchema joined = RowSchema::Joined(schema, "r", schema, "s");
  ASSERT_EQ(joined.columns.size(), 4u);
  EXPECT_EQ(joined.columns[0].name, "r.key");
  EXPECT_EQ(joined.columns[3].name, "s.payload");
  EXPECT_EQ(joined.Find("s.key").value(), 2u);
  EXPECT_FALSE(joined.Find("nope").ok());
}

// ---- End-to-end: query over a simulated tertiary join. -------------------

class QueryEndToEndTest : public ::testing::Test {
 protected:
  QueryEndToEndTest() {
    exec::SiteConfig config;
    config.block_bytes = 1024;
    config.memory_bytes = 24 * 1024;
    config.disk_space_bytes = 96 * 1024;
    config.stripe_unit = 4;
    site_ = std::make_unique<exec::Site>(config);
    session_ = test::WholeSiteSession(*site_);
    rel::GeneratorConfig r_config;
    r_config.name = "R";
    r_config.tuple_count = 200;
    r_config.keys = rel::KeySequence::kSequentialUnique;
    rel::GeneratorConfig s_config;
    s_config.name = "S";
    s_config.tuple_count = 1000;
    s_config.keys = rel::KeySequence::kForeignKeyUniform;
    s_config.key_domain = 200;
    s_config.seed = 77;
    prepared_ = exec::PrepareWorkload(session_.get(), r_config, s_config).value();
  }

  std::unique_ptr<exec::Site> site_;
  std::unique_ptr<exec::QuerySession> session_;
  exec::PreparedWorkload prepared_;
};

TEST_F(QueryEndToEndTest, CountStarEqualsJoinCardinality) {
  CountSink count;
  TertiaryQuery query;
  query.r = &prepared_.r;
  query.s = &prepared_.s;
  query.pipeline = &count;
  join::JoinContext ctx = session_->context();
  auto stats = ExecuteQuery(query, ctx);
  ASSERT_TRUE(stats.ok()) << stats.status();
  auto reference = join::ReferenceJoin(prepared_.r, prepared_.s, 0, 0);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(count.count(), reference->tuples());
  EXPECT_EQ(stats->join.output_tuples, reference->tuples());
}

TEST_F(QueryEndToEndTest, FilteredCountMatchesPredicateSemantics) {
  // Joined row layout: [r.key, r.payload, s.key, s.payload]; keep r.key < 50.
  CountSink count;
  FilterSink filter(Lt(Col(0), Lit(std::int64_t{50})), &count);
  TertiaryQuery query;
  query.r = &prepared_.r;
  query.s = &prepared_.s;
  query.pipeline = &filter;
  join::JoinContext ctx = session_->context();
  auto stats = ExecuteQuery(query, ctx);
  ASSERT_TRUE(stats.ok()) << stats.status();
  // FK-uniform keys over [0,200): about a quarter of the 1000 matches.
  EXPECT_GT(count.count(), 150u);
  EXPECT_LT(count.count(), 350u);
  EXPECT_EQ(filter.rows_in(), stats->join.output_tuples);
}

TEST_F(QueryEndToEndTest, GroupByBucketOfKeys) {
  // SELECT r.key % ... no modulo expr; group by a coarse predicate value:
  // group on (r.key < 100), count rows per group.
  CollectSink collect;
  std::vector<ExprPtr> group;
  group.push_back(Lt(Col(0), Lit(std::int64_t{100})));
  std::vector<AggSpec> aggs;
  aggs.push_back(AggSpec{AggKind::kCount, nullptr});
  AggregateSink agg(std::move(group), std::move(aggs), &collect);
  TertiaryQuery query;
  query.r = &prepared_.r;
  query.s = &prepared_.s;
  query.pipeline = &agg;
  join::JoinContext ctx = session_->context();
  auto stats = ExecuteQuery(query, ctx);
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_EQ(collect.rows().size(), 2u);
  std::int64_t total = std::get<std::int64_t>(collect.rows()[0].values[1]) +
                       std::get<std::int64_t>(collect.rows()[1].values[1]);
  EXPECT_EQ(static_cast<std::uint64_t>(total), stats->join.output_tuples);
}

TEST_F(QueryEndToEndTest, SameResultUnderEveryJoinMethod) {
  // The pipeline is order-insensitive (count), so every method must deliver
  // the same result through it.
  std::uint64_t expected = join::ReferenceJoin(prepared_.r, prepared_.s, 0, 0)->tuples();
  for (JoinMethodId method : kAllJoinMethods) {
    CountSink count;
    TertiaryQuery query;
    query.r = &prepared_.r;
    query.s = &prepared_.s;
    query.pipeline = &count;
    query.method = method;
    join::JoinContext ctx = session_->context();
    auto stats = ExecuteQuery(query, ctx);
    ASSERT_TRUE(stats.ok()) << JoinMethodName(method) << ": " << stats.status();
    EXPECT_EQ(count.count(), expected) << JoinMethodName(method);
  }
}

TEST_F(QueryEndToEndTest, AdvisorPicksWhenMethodUnset) {
  CountSink count;
  TertiaryQuery query;
  query.r = &prepared_.r;
  query.s = &prepared_.s;
  query.pipeline = &count;
  join::JoinContext ctx = session_->context();
  auto stats = ExecuteQuery(query, ctx);
  ASSERT_TRUE(stats.ok());
  // Some method ran and reported itself.
  EXPECT_FALSE(stats->join.method.empty());
}

TEST_F(QueryEndToEndTest, PhantomRelationsRejected) {
  exec::SiteConfig config;
  config.block_bytes = 1024;
  exec::Site site(config);
  std::unique_ptr<exec::QuerySession> session = test::WholeSiteSession(site);
  rel::GeneratorConfig g;
  g.tuple_count = 100;
  g.phantom = true;
  auto prepared = exec::PrepareWorkload(session.get(), g, g);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  CountSink count;
  TertiaryQuery query;
  query.r = &prepared->r;
  query.s = &prepared->s;
  query.pipeline = &count;
  join::JoinContext ctx = session->context();
  EXPECT_FALSE(ExecuteQuery(query, ctx).ok());
}

TEST_F(QueryEndToEndTest, SinkErrorsPropagate) {
  // A pipeline stage with a type error (string compared to int) aborts the
  // query with InvalidArgument.
  CountSink count;
  FilterSink filter(Lt(Col(1), Lit(std::int64_t{5})), &count);  // payload is a string
  TertiaryQuery query;
  query.r = &prepared_.r;
  query.s = &prepared_.s;
  query.pipeline = &filter;
  join::JoinContext ctx = session_->context();
  auto stats = ExecuteQuery(query, ctx);
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tertio::query
