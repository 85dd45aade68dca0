// End-to-end tests of the public pipeline facade.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_common/queries.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "run_util.h"
#include "xml/events.h"
#include "xml/sax_parser.h"
#include "xquery/evaluator.h"

namespace xqmft {
namespace {

TEST(PipelineTest, CompileStreamsAndEvaluatesConsistently) {
  auto cq = std::move(
      CompiledPlan::Compile("<out>{$input//a}</out>").ValueOrDie());
  const char* xml = "<r><a>1</a><b><a>2</a></b></r>";

  StringSink sink;
  ASSERT_TRUE(RunXml(*cq, xml, &sink).ok());

  Forest doc = std::move(ParseXmlForest(xml).ValueOrDie());
  Forest expected = std::move(cq->Evaluate(doc)).ValueOrDie();
  StringSink expected_sink;
  EmitForest(expected, &expected_sink);
  EXPECT_EQ(sink.str(), expected_sink.str());
}

TEST(PipelineTest, CompileErrorsSurface) {
  EXPECT_FALSE(CompiledPlan::Compile("<out>").ok());
  EXPECT_FALSE(CompiledPlan::Compile("<out>{$nope}</out>").ok());
  // Join-like query violates the variable restriction.
  EXPECT_FALSE(CompiledPlan::Compile(
                   "for $x in $input/a return for $y in $x/b "
                   "return <r>{$x/c}</r>")
                   .ok());
}

TEST(PipelineTest, OptimizeToggle) {
  PipelineOptions no_opt;
  no_opt.optimize = false;
  auto raw = std::move(
      CompiledPlan::Compile(kPersonQuery, no_opt).ValueOrDie());
  auto opt = std::move(CompiledPlan::Compile(kPersonQuery).ValueOrDie());
  EXPECT_GT(raw->mft().TotalParams(), opt->mft().TotalParams());
  EXPECT_EQ(raw->mft().ToString(), raw->unoptimized_mft().ToString());
  EXPECT_GT(opt->optimize_report().unused_params_removed, 0);
}

TEST(PipelineTest, RunsAFileInput) {
  Result<std::string> path = EnsureDataset(DatasetKind::kXmark, 32 * 1024, 3);
  ASSERT_TRUE(path.ok());
  auto cq = std::move(
      CompiledPlan::Compile(QueryById("q01").text).ValueOrDie());
  CountingSink sink;
  RunResult result;
  ASSERT_TRUE(xqmft::Run({cq.get()}, {ParallelInput::XmlFile(path.value())},
                         {&sink}, {}, &result)
                  .ok());
  EXPECT_GT(result.plans[0].total.bytes_in, 30000u);
  EXPECT_GT(sink.elements(), 0u);  // at least <query01>
}

TEST(PipelineTest, MissingFileIsAnError) {
  auto cq = std::move(
      CompiledPlan::Compile("<out>{$input/a}</out>").ValueOrDie());
  StringSink sink;
  RunResult result;
  Status st = xqmft::Run({cq.get()},
                         {ParallelInput::XmlFile("/nonexistent/file.xml")},
                         {&sink}, {}, &result);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(result.plans[0].status.ToString(), st.ToString());
}

TEST(PipelineTest, AllBenchmarkQueriesCompile) {
  for (const BenchQuery& bq : Figure3Queries()) {
    auto cq = CompiledPlan::Compile(bq.text);
    ASSERT_TRUE(cq.ok()) << bq.id << ": " << cq.status().ToString();
    EXPECT_LE(cq.value()->mft().Size(), cq.value()->unoptimized_mft().Size())
        << bq.id;
  }
}

// Theorem 2: queries with no predicates whose output variables are used
// only in their own for scope optimize to parameterless transducers (FTs).
TEST(PipelineTest, Theorem2QualifyingQueriesBecomeFTs) {
  const char* qualifying[] = {
      // Q2: nested loops, no predicates ("the optimized MFT is in FT").
      QueryById("q02").text,
      // Q13: reconstruction ("the optimized MFT is an FT").
      QueryById("q13").text,
      "<out>{$input//a}</out>",
      "for $v in $input/r/a return <m>{$v/text()}</m>",
  };
  for (const char* text : qualifying) {
    auto cq = std::move(CompiledPlan::Compile(text).ValueOrDie());
    EXPECT_TRUE(cq->mft().IsForestTransducer())
        << text << "\n"
        << cq->mft().ToString();
  }
}

// Queries with predicates genuinely need parameters (the if-then-else
// encoding), so they must *not* collapse to FTs.
TEST(PipelineTest, PredicateQueriesKeepParameters) {
  auto cq = std::move(
      CompiledPlan::Compile(QueryById("q01").text).ValueOrDie());
  EXPECT_FALSE(cq->mft().IsForestTransducer());
}

// ---------------------------------------------------------------------------
// Run: the one streaming entry point

std::string HitsDoc(int n) {
  std::string xml = "<doc>";
  for (int i = 0; i < n; ++i) xml += "<item>" + std::to_string(i) + "</item>";
  return xml + "</doc>";
}

constexpr const char* kHits =
    "<out>{ for $x in $input/doc/item return <hit>{$x/text()}</hit> }</out>";

TEST(RunTest, OneItemStreamsStraightIntoTheSink) {
  auto plan = std::move(CompiledPlan::Compile(kHits).ValueOrDie());
  TrickleSource src(HitsDoc(200));
  FirstEventProbe sink(&src);
  ASSERT_TRUE(
      xqmft::Run({plan.get()}, {ParallelInput::Bytes(&src)}, {&sink}).ok());
  ASSERT_TRUE(sink.saw_output());
  EXPECT_FALSE(sink.exhausted_at_first_event());
  EXPECT_TRUE(src.exhausted());
}

TEST(RunTest, SeveralPlansStreamABorrowedSource) {
  // The multi-query CLI path over stdin: a borrowed byte source is read
  // once, incrementally, for every plan — never slurped up front.
  auto hits = std::move(CompiledPlan::Compile(kHits).ValueOrDie());
  auto all = std::move(CompiledPlan::Compile("<o>{$input//item}</o>")
                           .ValueOrDie());
  TrickleSource src(HitsDoc(200));
  FirstEventProbe s_hits(&src), s_all(&src);
  ASSERT_TRUE(xqmft::Run({hits.get(), all.get()}, {ParallelInput::Bytes(&src)},
                         {&s_hits, &s_all})
                  .ok());
  EXPECT_FALSE(s_hits.exhausted_at_first_event());
  EXPECT_FALSE(s_all.exhausted_at_first_event());
  EXPECT_TRUE(src.exhausted());
}

TEST(RunTest, BorrowedSourcesMatchOwnedInputs) {
  auto plan = std::move(CompiledPlan::Compile(kHits).ValueOrDie());
  const std::string xml = HitsDoc(20);
  StringSink want;
  ASSERT_TRUE(RunXml(*plan, xml, &want).ok());

  StringSource bytes(xml);
  StringSink from_bytes;
  ASSERT_TRUE(xqmft::Run({plan.get()}, {ParallelInput::Bytes(&bytes)},
                         {&from_bytes})
                  .ok());
  EXPECT_EQ(from_bytes.str(), want.str());

  StringSource text(xml);
  SaxParser parser(&text, plan->options().stream.sax);
  StringSink from_events;
  ASSERT_TRUE(
      xqmft::Run({plan.get()}, {ParallelInput::Events(&parser)}, {&from_events})
          .ok());
  EXPECT_EQ(from_events.str(), want.str());
}

TEST(RunTest, SeveralPlansOverSeveralInputsConcatenatePerPlan) {
  auto hits = std::move(CompiledPlan::Compile(kHits).ValueOrDie());
  auto all = std::move(CompiledPlan::Compile("<o>{$input//item}</o>")
                           .ValueOrDie());
  const std::vector<std::string> docs = {HitsDoc(3), HitsDoc(5)};
  std::vector<ParallelInput> inputs;
  std::string want_hits, want_all;
  for (const std::string& d : docs) {
    inputs.push_back(ParallelInput::XmlText(d));
    StringSink h, a;
    ASSERT_TRUE(RunXml(*hits, d, &h).ok());
    ASSERT_TRUE(RunXml(*all, d, &a).ok());
    want_hits += h.str();
    want_all += a.str();
  }
  StringSink s_hits, s_all;
  RunResult result;
  ASSERT_TRUE(xqmft::Run({hits.get(), all.get()}, inputs, {&s_hits, &s_all}, {},
                  &result)
                  .ok());
  EXPECT_EQ(s_hits.str(), want_hits);
  EXPECT_EQ(s_all.str(), want_all);
  EXPECT_EQ(result.documents, 2u);
  ASSERT_EQ(result.plans.size(), 2u);
  EXPECT_EQ(result.plans[0].per_input.size(), 2u);
  // Each document is tokenized once for both plans.
  EXPECT_EQ(result.pass.bytes_in, docs[0].size() + docs[1].size());
}

TEST(RunTest, AFailedPlanIsNotFedLaterInputs) {
  PipelineOptions tiny;
  tiny.stream.max_steps = 5;
  auto failing = std::move(CompiledPlan::Compile(kHits, tiny).ValueOrDie());
  auto ok = std::move(CompiledPlan::Compile(kHits).ValueOrDie());
  const std::vector<ParallelInput> inputs = {
      ParallelInput::XmlText(HitsDoc(50)), ParallelInput::XmlText(HitsDoc(2))};
  StringSink s_fail, s_ok;
  RunResult result;
  ASSERT_TRUE(xqmft::Run({failing.get(), ok.get()}, inputs, {&s_fail, &s_ok},
                         {}, &result)
                  .ok());
  EXPECT_EQ(result.plans[0].status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(result.plans[0].per_input.size(), 1u);
  EXPECT_TRUE(result.plans[1].status.ok());
  EXPECT_EQ(result.plans[1].per_input.size(), 2u);
  // Without a result to carry per-plan outcomes the failure is the status.
  StringSink a, b;
  EXPECT_EQ(xqmft::Run({failing.get(), ok.get()}, inputs, {&a, &b}).code(),
            StatusCode::kResourceExhausted);
}

TEST(RunTest, RejectsMalformedRuns) {
  auto plan = std::move(CompiledPlan::Compile(kHits).ValueOrDie());
  const ParallelInput doc = ParallelInput::XmlText(HitsDoc(1));
  StringSink s1, s2;
  EXPECT_EQ(xqmft::Run({}, {doc}, {}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(xqmft::Run({plan.get()}, {doc}, {&s1, &s2}).code(),
            StatusCode::kInvalidArgument);
  RunOptions threads;
  threads.threads = 2;
  RunResult result;
  Status st = xqmft::Run({plan.get(), plan.get()}, {doc}, {&s1, &s2}, threads,
                  &result);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  // Setup errors fail every plan.
  ASSERT_EQ(result.plans.size(), 2u);
  EXPECT_EQ(result.plans[1].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s1.str(), "");
}

}  // namespace
}  // namespace xqmft
