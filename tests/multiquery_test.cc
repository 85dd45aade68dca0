// Tests for single-pass multi-query streaming (src/multiquery/ and Run
// above it): the push-mode Engine contract, the differential property that
// every pass — one plan or many, source projection on or off — is
// byte-identical to an independent in-memory oracle (the reference XQuery
// evaluator; per query, also the plan's transducer interpreted by
// mft/interp; Figure 3 corpus, text and pretok sources, every refill chunk
// size 1..64), the single-parse
// property (the shared source is scanned exactly once regardless of
// query-set size), union projection soundness (kept ancestor spines — the
// reparenting counterexample), and per-plan failure isolation.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common/queries.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "event_trace_util.h"
#include "run_util.h"
#include "multiquery/multi_run.h"
#include "multiquery/projection.h"
#include "multiquery/union_projection.h"
#include "stream/engine.h"
#include "util/cancel.h"
#include "xml/events.h"
#include "xml/forest.h"
#include "xml/pretok.h"
#include "xml/sax_parser.h"
#include "xquery/ast.h"
#include "xquery/evaluator.h"

namespace xqmft {
namespace {

using Plans = std::vector<std::shared_ptr<const CompiledPlan>>;

Plans CompileSet(const std::vector<std::string>& texts) {
  Plans plans;
  for (const std::string& t : texts) {
    auto plan = CompiledPlan::Compile(t);
    EXPECT_TRUE(plan.ok()) << t << ": " << plan.status().ToString();
    plans.push_back(plan.value());
  }
  return plans;
}

std::vector<const CompiledPlan*> Raw(const Plans& plans) {
  std::vector<const CompiledPlan*> raw;
  for (const auto& p : plans) raw.push_back(p.get());
  return raw;
}

// The independent oracle: each query evaluated over the whole document in
// memory by the reference XQuery evaluator (xquery/evaluator.h, the [[P]]
// side of Theorem 1) — no transducer, no streaming engine, no source
// projection. (The transducer interpreter behind CompiledPlan::Evaluate is
// call-by-value and takes seconds per predicate query at 16 KB, so the
// per-query differential below uses it at 8 KB only.)
std::vector<std::string> OracleOutputs(const std::vector<std::string>& texts,
                                       const std::string& xml) {
  Result<Forest> doc = ParseXmlForest(xml);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  std::vector<std::string> out;
  for (const std::string& text : texts) {
    Result<std::unique_ptr<QueryExpr>> query = ParseQuery(text);
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    StringSink sink;
    if (query.ok() && doc.ok()) {
      Result<Forest> result = EvaluateQuery(*query.value(), doc.value());
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      if (result.ok()) EmitForest(result.value(), &sink);
    }
    out.push_back(sink.str());
  }
  return out;
}

// One run of `plans` over `input`, each plan into its own StringSink.
Status RunSet(const Plans& plans, ParallelInput input,
              std::vector<StringSink>* sinks, RunResult* result,
              const RunOptions& options = {}) {
  sinks->assign(plans.size(), StringSink());
  std::vector<OutputSink*> sink_ptrs;
  for (StringSink& s : *sinks) sink_ptrs.push_back(&s);
  return Run(Raw(plans), {std::move(input)}, sink_ptrs, options, result);
}

// The first `n` Figure 3 queries: n=1,2 are fully projectable; n>=3 include
// q04 (following-sibling), which disables the union automaton — both sides
// of the projection switch are exercised by the {1,2,4,8} ladder.
std::vector<std::string> Fig3Set(std::size_t n) {
  const auto& corpus = Figure3Queries();
  std::vector<std::string> texts;
  for (std::size_t i = 0; i < n; ++i) {
    texts.push_back(corpus[i % corpus.size()].text);
  }
  return texts;
}

std::string XmarkDoc(std::size_t bytes, std::uint64_t seed = 7) {
  auto doc = GenerateDatasetString(DatasetKind::kXmark, bytes, seed);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return doc.value();
}

// Counts bytes handed out via Read and never exposes Contents, so every
// byte the run consumes is observable — the single-parse property check.
class CountingSource : public ByteSource {
 public:
  explicit CountingSource(std::string_view s) : s_(s) {}
  std::size_t Read(char* buf, std::size_t n) override {
    std::size_t take = std::min(n, s_.size() - pos_);
    std::memcpy(buf, s_.data() + pos_, take);
    pos_ += take;
    bytes_read_ += take;
    return take;
  }
  std::size_t bytes_read() const { return bytes_read_; }

 private:
  std::string_view s_;
  std::size_t pos_ = 0;
  std::size_t bytes_read_ = 0;
};

// ---------------------------------------------------------------------------
// Push-mode Engine contract

TEST(PushEngine, ManualFeedMatchesPullPump) {
  auto plan = CompiledPlan::Compile(
      "<out>{ for $x in $input/doc/a return <hit>{$x/text()}</hit> }</out>");
  ASSERT_TRUE(plan.ok());
  const std::string xml = "<doc><a>1</a><b>skip</b><a>2</a></doc>";

  StringSink serial;
  ASSERT_TRUE(RunXml(*plan.value(), xml, &serial).ok());

  StringSink pushed;
  Engine engine(plan.value()->mft(), &pushed,
                plan.value()->options().stream);
  StringSource src(xml);
  SaxParser parser(&src, {});
  parser.BindSymbols(engine.symbols());
  ASSERT_TRUE(engine.Prime().ok());
  XmlEvent ev;
  while (!engine.done()) {
    ASSERT_TRUE(parser.Next(&ev).ok());
    ASSERT_TRUE(engine.Feed(ev).ok());
    if (ev.type == XmlEventType::kEndOfDocument) break;
  }
  StreamStats stats;
  ASSERT_TRUE(engine.Finish(&stats).ok());
  EXPECT_EQ(pushed.str(), serial.str());
  EXPECT_GT(stats.output_events, 0u);
  // Finish is idempotent.
  EXPECT_TRUE(engine.Finish().ok());
}

TEST(PushEngine, FinishSuppliesEndOfDocument) {
  // A constant query needs no input at all: Prime + Finish must produce the
  // full output without the driver ever feeding an event.
  auto plan = CompiledPlan::Compile("<out>done</out>");
  ASSERT_TRUE(plan.ok());
  StringSink sink;
  Engine engine(plan.value()->mft(), &sink,
                plan.value()->options().stream);
  EXPECT_TRUE(engine.Finish().ok());
  EXPECT_EQ(sink.str(), "<out>done</out>");
}

TEST(PushEngine, ErrorsAreSticky) {
  auto plan = CompiledPlan::Compile(
      "<out>{ for $x in $input//a return <h>{$x}</h> }</out>");
  ASSERT_TRUE(plan.ok());
  StreamOptions options = plan.value()->options().stream;
  options.max_steps = 1;  // the step budget trips immediately
  // Pin the table machine: the ops engine charges one step per consumer
  // per event, so this budget would only trip at the end element there.
  options.engine = EngineChoice::kTable;
  StringSink sink;
  Engine engine(plan.value()->mft(), &sink, options);
  XmlEvent ev;
  ev.type = XmlEventType::kStartElement;
  ev.name = "a";
  Status first = engine.Feed(ev);
  ASSERT_FALSE(first.ok());
  ev.type = XmlEventType::kEndElement;
  Status second = engine.Feed(ev);
  EXPECT_EQ(second.ToString(), first.ToString());
  EXPECT_EQ(engine.Finish().ToString(), first.ToString());
}

// ---------------------------------------------------------------------------
// Differential: every pass vs the in-memory oracles

TEST(MultiQuery, EveryFig3QueryProjectedMatchesTheOracle) {
  // One-plan runs take the union projection like any pass; this pins each
  // Figure 3 query's own projection (not just the multi-query unions, where
  // q04 switches it off) against the interpreter.
  const std::string xml = XmarkDoc(8 * 1024);
  Result<Forest> doc = ParseXmlForest(xml);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  StringSource src(xml);
  std::string pretok;
  ASSERT_TRUE(PretokenizeXml(&src, {}, &pretok).ok());
  std::size_t skipping = 0;
  for (const BenchQuery& q : Figure3Queries()) {
    Plans plans = CompileSet({q.text});
    Result<Forest> evaluated = plans[0]->Evaluate(doc.value());
    ASSERT_TRUE(evaluated.ok())
        << q.id << ": " << evaluated.status().ToString();
    StringSink oracle;
    EmitForest(evaluated.value(), &oracle);
    const std::string& want = oracle.str();
    const bool projectable = !plans[0]->projection().whole_document;
    std::vector<StringSink> sinks;
    RunResult result;
    for (std::size_t chunk = 1; chunk <= 64; ++chunk) {
      ChunkedSource source(xml, chunk);
      Status st =
          RunSet(plans, ParallelInput::Bytes(&source), &sinks, &result);
      ASSERT_TRUE(st.ok()) << q.id << " chunk=" << chunk << ": "
                           << st.ToString();
      ASSERT_EQ(sinks[0].str(), want) << q.id << " chunk=" << chunk;
      EXPECT_EQ(result.pass.projection_enabled, projectable) << q.id;
    }
    ASSERT_TRUE(
        RunSet(plans, ParallelInput::PretokBytes(pretok), &sinks, &result)
            .ok())
        << q.id;
    EXPECT_EQ(sinks[0].str(), want) << q.id << " pretok";
    if (result.pass.events_skipped > 0) ++skipping;
  }
  // The selective queries really do skip at the source.
  EXPECT_GT(skipping, 0u);
}

TEST(MultiQuery, Fig3DifferentialTextAllChunkSizes) {
  const std::string xml = XmarkDoc(4 * 1024);
  for (std::size_t n : {1u, 2u, 4u, 8u}) {
    Plans plans = CompileSet(Fig3Set(n));
    std::vector<std::string> want = OracleOutputs(Fig3Set(n), xml);
    for (std::size_t chunk = 1; chunk <= 64; ++chunk) {
      ChunkedSource source(xml, chunk);
      std::vector<StringSink> sinks;
      RunResult result;
      Status st =
          RunSet(plans, ParallelInput::Bytes(&source), &sinks, &result);
      ASSERT_TRUE(st.ok()) << "n=" << n << " chunk=" << chunk << ": "
                           << st.ToString();
      ASSERT_EQ(result.plans.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(result.plans[i].status.ok())
            << result.plans[i].status.ToString();
        EXPECT_EQ(sinks[i].str(), want[i])
            << "n=" << n << " chunk=" << chunk << " plan=" << i;
      }
    }
  }
}

TEST(MultiQuery, Fig3DifferentialPretok) {
  const std::string xml = XmarkDoc(16 * 1024);
  StringSource src(xml);
  std::string pretok;
  ASSERT_TRUE(PretokenizeXml(&src, {}, &pretok).ok());
  for (std::size_t n : {1u, 2u, 4u, 8u}) {
    Plans plans = CompileSet(Fig3Set(n));
    std::vector<std::string> want = OracleOutputs(Fig3Set(n), xml);
    std::vector<StringSink> sinks;
    RunResult result;
    Status st =
        RunSet(plans, ParallelInput::PretokBytes(pretok), &sinks, &result);
    ASSERT_TRUE(st.ok()) << st.ToString();
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(result.plans[i].status.ok())
          << result.plans[i].status.ToString();
      EXPECT_EQ(sinks[i].str(), want[i]) << "n=" << n << " plan=" << i;
    }
  }
}

TEST(MultiQuery, DifferentialHoldsWithProjectionOff) {
  const std::string xml = XmarkDoc(16 * 1024);
  Plans plans = CompileSet(Fig3Set(4));
  std::vector<std::string> want = OracleOutputs(Fig3Set(4), xml);
  RunOptions options;
  options.union_projection = false;
  std::vector<StringSink> sinks;
  RunResult result;
  ASSERT_TRUE(
      RunSet(plans, ParallelInput::XmlText(xml), &sinks, &result, options)
          .ok());
  EXPECT_FALSE(result.pass.projection_enabled);
  EXPECT_EQ(result.pass.events_skipped, 0u);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    EXPECT_EQ(sinks[i].str(), want[i]);
  }
}

// ---------------------------------------------------------------------------
// Single-parse property: the shared source is scanned exactly once,
// regardless of how many plans ride the pass.

TEST(MultiQuery, SharedSourceScannedExactlyOnce) {
  const std::string xml = XmarkDoc(16 * 1024);
  std::size_t one_pass = 0;
  for (std::size_t n : {1u, 2u, 4u, 8u}) {
    Plans plans = CompileSet(Fig3Set(n));
    CountingSource source(xml);
    std::vector<StringSink> sinks;
    RunResult result;
    ASSERT_TRUE(
        RunSet(plans, ParallelInput::Bytes(&source), &sinks, &result).ok());
    // Bytes leaving the source equal one full scan — not n scans. (All
    // Figure 3 streams read to the end of the document, so the count is the
    // same across n; the first iteration pins it.)
    if (one_pass == 0) one_pass = source.bytes_read();
    EXPECT_EQ(source.bytes_read(), one_pass) << "n=" << n;
    EXPECT_EQ(source.bytes_read(), xml.size()) << "n=" << n;
    EXPECT_EQ(result.pass.bytes_in, xml.size()) << "n=" << n;
  }
}

// ---------------------------------------------------------------------------
// Union projection

TEST(MultiQuery, ProjectionSkipsEventsWithoutChangingOutput) {
  const std::string xml = XmarkDoc(32 * 1024);
  // Two projectable queries (Q1, Q2): people and open-auction subtrees are
  // kept, everything else (regions, catgraph, closed auctions) is skipped.
  Plans plans = CompileSet(Fig3Set(2));
  std::vector<std::string> want = OracleOutputs(Fig3Set(2), xml);
  std::vector<StringSink> sinks;
  RunResult result;
  ASSERT_TRUE(RunSet(plans, ParallelInput::XmlText(xml), &sinks, &result).ok());
  const MultiQueryStats& pass = result.pass;
  EXPECT_TRUE(pass.projection_enabled);
  EXPECT_GT(pass.events_skipped, 0u);
  EXPECT_GT(pass.events_total, pass.events_skipped);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    EXPECT_EQ(sinks[i].str(), want[i]);
    // Engines see only the surviving events.
    EXPECT_EQ(result.plans[i].events_fed,
              pass.events_total - pass.events_skipped);
  }
}

TEST(MultiQuery, ProjectionKeepsAncestorSpines) {
  // The reparenting counterexample: //c/d and //d/e over a document where
  // the real //d/e match sits under a c, separated by an x. A projection
  // that flattened kept nodes under their nearest kept ancestor would
  // reparent d directly under c, manufacturing a //c/d match that does not
  // exist in the document. The automaton must keep the x spine (or skip
  // nothing) so both queries see the truth.
  const std::vector<std::string> texts = {
      "<out>{ for $v in $input//c/d return <cd></cd> }</out>",
      "<out>{ for $v in $input//d/e return <de></de> }</out>"};
  const std::string xml = "<r><c><x><d><e/></d></x></c></r>";
  Plans plans = CompileSet(texts);
  std::vector<std::string> want = OracleOutputs(texts, xml);
  EXPECT_EQ(want[0], "<out></out>");    // no //c/d in the document
  EXPECT_EQ(want[1], "<out><de></de></out>");
  std::vector<StringSink> sinks;
  RunResult result;
  ASSERT_TRUE(RunSet(plans, ParallelInput::XmlText(xml), &sinks, &result).ok());
  EXPECT_TRUE(result.pass.projection_enabled);
  EXPECT_EQ(sinks[0].str(), want[0]);
  EXPECT_EQ(sinks[1].str(), want[1]);
}

TEST(MultiQuery, ConstantQueriesSkipTheWholeDocument) {
  Plans plans = CompileSet({"<a>x</a>", "<b>y</b>"});
  const std::string xml = "<doc><p>1</p><q><r>2</r></q></doc>";
  std::vector<StringSink> sinks;
  RunResult result;
  ASSERT_TRUE(RunSet(plans, ParallelInput::XmlText(xml), &sinks, &result).ok());
  EXPECT_EQ(sinks[0].str(), "<a>x</a>");
  EXPECT_EQ(sinks[1].str(), "<b>y</b>");
  EXPECT_TRUE(result.pass.projection_enabled);
  // A query set that reads nothing skips every element of the document.
  EXPECT_EQ(result.pass.events_skipped, result.pass.events_total);
}

TEST(MultiQuery, SkipCountersArePinnedOnAFixedDocument) {
  // The projection rejects <regions> (one subtree: its bytes after the
  // start tag) and the expanded id attribute of each <person> (skipped from
  // the parser's pending queue: no input bytes).
  const std::string skipped = "<item>x&amp;y</item><item>z</item></regions>";
  const std::string xml = "<site><regions>" + skipped +
                          "<people><person id=\"p0\"><name>A</name></person>"
                          "<person id=\"p1\"><name>B</name></person></people>"
                          "</site>";
  Plans plans = CompileSet(
      {"<out>{ for $p in $input/site/people/person return "
       "<n>{$p/name/text()}</n> }</out>"});
  std::vector<StringSink> sinks;
  RunResult result;
  ASSERT_TRUE(RunSet(plans, ParallelInput::XmlText(xml), &sinks, &result).ok());
  EXPECT_EQ(sinks[0].str(), "<out><n>A</n><n>B</n></out>");
  const MultiQueryStats& pass = result.pass;
  EXPECT_TRUE(pass.projection_enabled);
  EXPECT_EQ(pass.subtrees_skipped, 3u);
  EXPECT_EQ(pass.bytes_skipped, skipped.size());
  // Produced: site, regions, people, 2 x (person, id, name, "A"/"B",
  // </name>, </person>), </people>, </site>; dropped: regions and the two
  // id starts.
  EXPECT_EQ(pass.events_total, 17u);
  EXPECT_EQ(pass.events_skipped, 3u);
  EXPECT_EQ(pass.bytes_in, xml.size());
  EXPECT_EQ(result.plans[0].events_fed, 14u);

  // A pretok replay skips the same subtrees.
  std::string pretok;
  StringSource src(xml);
  ASSERT_TRUE(PretokenizeXml(&src, {}, &pretok).ok());
  PretokSource events(pretok);
  ASSERT_TRUE(
      RunSet(plans, ParallelInput::Events(&events), &sinks, &result).ok());
  EXPECT_EQ(sinks[0].str(), "<out><n>A</n><n>B</n></out>");
  EXPECT_EQ(result.pass.subtrees_skipped, 3u);
  EXPECT_EQ(result.pass.events_total, 17u);

  // No projection, no skips.
  RunOptions off;
  off.union_projection = false;
  ASSERT_TRUE(
      RunSet(plans, ParallelInput::XmlText(xml), &sinks, &result, off).ok());
  EXPECT_EQ(result.pass.subtrees_skipped, 0u);
  EXPECT_EQ(result.pass.bytes_skipped, 0u);
}

// A source that trips `token` once it has handed out `trip_after` bytes: a
// client cancelling while the run is deep inside one projected-out subtree.
class CancellingSource : public ByteSource {
 public:
  CancellingSource(std::string_view s, std::size_t trip_after,
                   CancelToken* token)
      : s_(s), trip_after_(trip_after), token_(token) {}
  std::size_t Read(char* buf, std::size_t n) override {
    std::size_t take = std::min(n, s_.size() - pos_);
    std::memcpy(buf, s_.data() + pos_, take);
    pos_ += take;
    if (pos_ >= trip_after_) token_->Cancel();
    return take;
  }
  std::size_t bytes_read() const { return pos_; }

 private:
  std::string_view s_;
  std::size_t pos_ = 0;
  std::size_t trip_after_;
  CancelToken* token_;
};

TEST(MultiQuery, CancellationIsObservedInsideASkippedSubtree) {
  // 4 MiB of <regions> that no plan reads: one skip, no events — only the
  // skip's own polling can notice the token.
  std::string xml = "<site><regions>";
  const std::size_t skip_begin = xml.size();
  while (xml.size() < skip_begin + (std::size_t{4} << 20)) {
    xml += "<item><name>n</name><text>some item text</text></item>\n";
  }
  xml += "</regions><people><person><name>A</name></person></people></site>";
  Plans plans = CompileSet(
      {"<out>{ for $p in $input/site/people/person return "
       "<n>{$p/name/text()}</n> }</out>"});
  CancelToken token;
  CancellingSource source(xml, skip_begin + (std::size_t{1} << 20), &token);
  RunOptions options;
  options.cancel = &token;
  std::vector<StringSink> sinks;
  RunResult result;
  Status st = RunSet(plans, ParallelInput::Bytes(&source), &sinks, &result,
                     options);
  EXPECT_EQ(st.code(), StatusCode::kCancelled) << st.ToString();
  EXPECT_EQ(result.plans[0].status.code(), StatusCode::kCancelled);
  // Caught within a poll stride plus a refill window of the trip point,
  // long before the end of the input.
  EXPECT_LT(result.pass.bytes_in,
            skip_begin + (std::size_t{1} << 20) + (std::size_t{256} << 10));
  EXPECT_LT(source.bytes_read(), xml.size());
  EXPECT_EQ(result.pass.events_total, 2u);  // <site>, <regions>
}

TEST(MultiQuery, UnprojectablePlanDisablesProjection) {
  // q04 uses following-sibling: its projection is whole_document, which
  // must switch skipping off for the entire run.
  Plans plans = CompileSet({Fig3Set(3)[2], Fig3Set(1)[0]});
  EXPECT_TRUE(plans[0]->projection().whole_document);
  EXPECT_FALSE(plans[1]->projection().whole_document);
  std::vector<StringSink> sinks;
  RunResult result;
  ASSERT_TRUE(RunSet(plans, ParallelInput::XmlText(XmarkDoc(8 * 1024)),
                     &sinks, &result)
                  .ok());
  EXPECT_FALSE(result.pass.projection_enabled);
  EXPECT_EQ(result.pass.events_skipped, 0u);
}

// ---------------------------------------------------------------------------
// Failure isolation

TEST(MultiQuery, PlanFailureLeavesSiblingsIntact) {
  const std::string xml = XmarkDoc(8 * 1024);
  Plans plans = CompileSet(Fig3Set(3));
  std::vector<std::string> want = OracleOutputs(Fig3Set(3), xml);
  // Recompile the middle plan with a step budget it must blow mid-stream.
  PipelineOptions tiny;
  tiny.stream.max_steps = 50;
  auto failing = CompiledPlan::Compile(Fig3Set(3)[1], tiny);
  ASSERT_TRUE(failing.ok());
  plans[1] = failing.value();

  std::vector<StringSink> sinks;
  RunResult result;
  Status st = RunSet(plans, ParallelInput::XmlText(xml), &sinks, &result);
  // With a result requested and surviving siblings, the run itself is OK.
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(result.plans[0].status.ok());
  EXPECT_FALSE(result.plans[1].status.ok());
  EXPECT_TRUE(result.plans[2].status.ok());
  EXPECT_EQ(sinks[0].str(), want[0]);
  EXPECT_EQ(sinks[2].str(), want[2]);
}

TEST(MultiQuery, AllPlansFailingFailsTheRun) {
  PipelineOptions tiny;
  tiny.stream.max_steps = 1;
  auto plan = CompiledPlan::Compile(Fig3Set(1)[0], tiny);
  ASSERT_TRUE(plan.ok());
  std::vector<StringSink> sinks;
  RunResult result;
  Status st = RunSet({plan.value()}, ParallelInput::XmlText(XmarkDoc(4 * 1024)),
                     &sinks, &result);
  EXPECT_FALSE(st.ok());
  ASSERT_EQ(result.plans.size(), 1u);
  EXPECT_FALSE(result.plans[0].status.ok());
}

TEST(MultiQuery, MixedTokenizationRejected) {
  auto a = CompiledPlan::Compile(Fig3Set(1)[0]);
  PipelineOptions keep_ws;
  keep_ws.stream.sax.skip_whitespace_text = false;
  auto b = CompiledPlan::Compile(Fig3Set(2)[1], keep_ws);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  std::vector<StringSink> sinks;
  Status st = RunSet({a.value(), b.value()}, ParallelInput::XmlText("<doc/>"),
                     &sinks, nullptr);
  EXPECT_FALSE(st.ok());
}

// ---------------------------------------------------------------------------
// Projection derivation

TEST(Projection, DerivesKeepNodeAndKeepSubtreePaths) {
  auto plan = CompiledPlan::Compile(
      "<out>{ for $p in $input/site/people/person return "
      "<n>{$p/name/text()}</n> }</out>");
  ASSERT_TRUE(plan.ok());
  const QueryProjection& proj = plan.value()->projection();
  EXPECT_FALSE(proj.whole_document);
  bool saw_binding = false, saw_copy = false;
  for (const ProjectionPath& p : proj.paths) {
    if (!p.keep_subtree && p.steps.size() == 3) saw_binding = true;
    if (p.keep_subtree && p.steps.size() == 5) saw_copy = true;
  }
  EXPECT_TRUE(saw_binding);  // site/people/person
  EXPECT_TRUE(saw_copy);     // site/people/person/name/text()
}

TEST(Projection, BareInputIsUnprojectable) {
  auto plan = CompiledPlan::Compile("<out>{$input}</out>");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan.value()->projection().whole_document);
}

TEST(Projection, PredicatePathsBecomeKeepSubtree) {
  auto plan = CompiledPlan::Compile(
      "<out>{ for $p in $input//person[./id/text()=\"p0\"] return <h></h> "
      "}</out>");
  ASSERT_TRUE(plan.ok());
  const QueryProjection& proj = plan.value()->projection();
  EXPECT_FALSE(proj.whole_document);
  bool saw_pred = false;
  for (const ProjectionPath& p : proj.paths) {
    if (p.keep_subtree && p.steps.size() >= 2) saw_pred = true;
  }
  EXPECT_TRUE(saw_pred);  // //person/id/text() keeps the compared text
}

}  // namespace
}  // namespace xqmft
