// The execution-lowering stage (lower/): lowerability classification, the
// lowered opcode engine's differential equivalence against the table
// machine, and the ops engine's runtime contract (stats accounting, step
// budget, schema validation, sticky errors, done short-circuit).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common/queries.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "event_trace_util.h"
#include "lower/lower.h"
#include "mft/interp.h"
#include "mft/mft.h"
#include "multiquery/multi_run.h"
#include "run_util.h"
#include "schema/schema.h"
#include "stream/engine.h"
#include "xml/events.h"
#include "xml/forest.h"
#include "xml/sax_parser.h"

namespace xqmft {
namespace {

Mft MustParseMft(const std::string& text) {
  Result<Mft> r = ParseMft(text);
  if (!r.ok()) {
    ADD_FAILURE() << "ParseMft failed: " << r.status().ToString();
  }
  return std::move(r).ValueOrDie();
}

// Compiles query text through the full pipeline (so the plan is warmed the
// way serving paths see it) and returns the shared plan.
std::shared_ptr<const CompiledPlan> MustCompile(const std::string& text) {
  auto plan = CompiledPlan::Compile(text);
  EXPECT_TRUE(plan.ok()) << text << "\n" << plan.status().ToString();
  return plan.value();
}

std::string XmarkDoc(std::size_t bytes) {
  auto doc = GenerateDatasetString(DatasetKind::kXmark, bytes, /*seed=*/11);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return doc.value();
}

// ---------------------------------------------------------------------------
// Lowerability classification

TEST(Lowerability, ParameterFreeCopyLowers) {
  Mft m = MustParseMft(
      "qcopy(%t(x1)x2) -> %t(qcopy(x1)) qcopy(x2)\nqcopy(eps) -> eps\n");
  ASSERT_TRUE(m.Validate().ok());
  m.dispatch();  // compile the tables the lowering reads
  std::string why;
  const lower::LoweredPlan* plan = lower::GetLoweredPlan(m, &why);
  ASSERT_NE(plan, nullptr) << why;
  EXPECT_FALSE(plan->code.empty());
  EXPECT_EQ(plan->states.size(), static_cast<std::size_t>(m.num_states()));
  // The verdict is cached on the transducer: same pointer on re-query.
  EXPECT_EQ(lower::GetLoweredPlan(m), plan);
}

TEST(Lowerability, PredicateQueriesCompileToSelects) {
  // q01's predicate is a selector cluster: it compiles to a select plus
  // selector programs, so the plan lowers fully, with no table bridge.
  auto plan = MustCompile(QueryById("q01").text);
  std::string why;
  const lower::LoweredPlan* lp = lower::GetLoweredPlan(plan->mft(), &why);
  ASSERT_NE(lp, nullptr) << why;
  EXPECT_EQ(why, "full");
  EXPECT_FALSE(lp->hybrid);
  EXPECT_EQ(lp->bridge_mft, nullptr);
  EXPECT_TRUE(lp->bridge_sites.empty());
  EXPECT_EQ(lp->selects.size(), 1u);
}

TEST(Lowerability, CopyingParameterLowersHybrid) {
  // The Section 2.1 query hands copies of subtrees to a parameter state
  // that is not a selector: the call stays a table-machine bridge.
  auto plan = MustCompile(kSection21Query);
  std::string why;
  const lower::LoweredPlan* lp = lower::GetLoweredPlan(plan->mft(), &why);
  ASSERT_NE(lp, nullptr) << why;
  EXPECT_TRUE(lp->hybrid);
  EXPECT_NE(lp->bridge_mft, nullptr);
  EXPECT_FALSE(lp->bridge_sites.empty());
  EXPECT_EQ(why, "hybrid: 1 table-bridge site(s) through 'q1'");
}

TEST(Lowerability, TextContentMatchDoesNotLower) {
  // A rule keyed on text content ("hit") needs the event's character data
  // for dispatch; the opcode programs are resolved per element id only.
  Mft m = MustParseMft(
      "q(\"hit\"(x1)x2) -> mark(eps) q(x2)\n"
      "q(%t(x1)x2) -> q(x2)\n"
      "q(eps) -> eps\n");
  ASSERT_TRUE(m.Validate().ok());
  m.dispatch();
  std::string why;
  EXPECT_EQ(lower::GetLoweredPlan(m, &why), nullptr);
  EXPECT_NE(why.find("matches on text content"), std::string::npos) << why;
}

TEST(Lowerability, X0CallCycleDoesNotLower) {
  // q(eps) -> q(x0) never terminates; x0 inlining must detect the cycle
  // instead of recursing forever.
  Mft m = MustParseMft(
      "q(%t(x1)x2) -> q(x2)\n"
      "q(eps) -> q(x0)\n");
  ASSERT_TRUE(m.Validate().ok());
  m.dispatch();
  std::string why;
  EXPECT_EQ(lower::GetLoweredPlan(m, &why), nullptr);
  EXPECT_NE(why.find("x0-call cycle"), std::string::npos) << why;
}

TEST(Lowerability, DoublingSelectorChainHitsTheSizeLimit) {
  // Each x0-inlined rule passes both parameters twice, so the selector
  // values double per state while the calls grow only linearly: the
  // reduction must charge every copied node and end at the size cap
  // instead of building 2^40-node trees.
  constexpr int kStates = 40;
  std::string text =
      "main(%t(x1)x2) -> q0(x0, a(eps), b(eps)) main(x2)\n"
      "main(eps) -> eps\n"
      "s(%t(x1)x2, y1, y2) -> s(x2, y1, y2)\n"
      "s(eps, y1, y2) -> y1\n";
  for (int k = 0; k < kStates; ++k) {
    const std::string q = "q" + std::to_string(k);
    const std::string next = "q" + std::to_string(k + 1);
    text += q + "(%t(x1)x2, y1, y2) -> " + next +
            "(x0, s(x1, y1, y2), s(x1, y2, y1))\n" + q +
            "(eps, y1, y2) -> y1\n";
  }
  const std::string last = "q" + std::to_string(kStates);
  text += last + "(%t(x1)x2, y1, y2) -> y1\n" + last + "(eps, y1, y2) -> y2\n";
  Mft m = MustParseMft(text);
  ASSERT_TRUE(m.Validate().ok());
  m.dispatch();
  std::string why;
  EXPECT_EQ(lower::GetLoweredPlan(m, &why), nullptr);
  EXPECT_NE(why.find("lowered program exceeds the size limit"),
            std::string::npos)
      << why;
}

TEST(Lowerability, Fig3CorpusClassification) {
  // The whole Figure 3 corpus lowers fully: parameter-free queries as plain
  // programs, each predicate query's selector cluster as one select.
  const std::map<std::string, std::size_t> kSelects = {
      {"q01", 1}, {"q02", 0}, {"q04", 1}, {"q13", 0},      {"q16", 1},
      {"q17", 1}, {"double", 0}, {"fourstar", 0}, {"deepdup", 0},
  };
  std::size_t seen = 0;
  for (const BenchQuery& q : Figure3Queries()) {
    auto plan = MustCompile(q.text);
    std::string why;
    const lower::LoweredPlan* lp = lower::GetLoweredPlan(plan->mft(), &why);
    ASSERT_NE(lp, nullptr) << q.id << ": " << why;
    ASSERT_EQ(kSelects.count(q.id), 1u) << q.id;
    EXPECT_EQ(why, "full") << q.id;
    EXPECT_FALSE(lp->hybrid) << q.id;
    EXPECT_EQ(lp->selects.size(), kSelects.at(q.id)) << q.id;
    ++seen;
  }
  EXPECT_EQ(seen, kSelects.size());
}

// ---------------------------------------------------------------------------
// Differential: ops engine vs table engine over the Figure 3 corpus

// The reference interpreter's output for `xml`.
std::string InterpOutput(const Mft& mft, const std::string& xml) {
  auto doc = ParseXmlForest(xml);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  auto out = xqmft::RunMft(mft, doc.value());
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  StringSink sink;
  if (out.ok()) EmitForest(out.value(), &sink);
  return sink.str();
}

// The opcode engine at every refill size against the table engine and, on
// documents small enough for its eager evaluation, the reference
// interpreter; returns the last run's stats.
StreamStats ExpectEnginesAgree(const Mft& mft, const std::string& xml,
                               const std::string& label,
                               bool with_interp = true) {
  StreamOptions table_opts;
  table_opts.engine = EngineChoice::kTable;
  StringSink want;
  EXPECT_TRUE(RunMftXml(mft, xml, &want, table_opts).ok()) << label;
  if (with_interp) {
    EXPECT_EQ(want.str(), InterpOutput(mft, xml)) << label;
  }
  StreamStats stats;
  // Chunked refill: the lowered engine must be insensitive to how the
  // parser's buffer boundaries slice tags and text runs.
  for (std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                            std::size_t{64}, std::size_t{4096}}) {
    ChunkedSource source(xml, chunk);
    StringSink got;
    Status st = RunMft(mft, ParallelInput::Bytes(&source), &got, {}, &stats);
    EXPECT_TRUE(st.ok()) << label << " chunk=" << chunk << ": "
                         << st.ToString();
    EXPECT_EQ(got.str(), want.str()) << label << " chunk=" << chunk;
    EXPECT_TRUE(stats.used_ops_engine) << label;
  }
  return stats;
}

TEST(LoweredDifferential, Fig3CorpusChunkedRefill) {
  const std::string xml = XmarkDoc(16 * 1024);
  const std::string small = XmarkDoc(2 * 1024);
  for (const BenchQuery& q : Figure3Queries()) {
    auto plan = MustCompile(q.text);
    ASSERT_NE(lower::GetLoweredPlan(plan->mft()), nullptr) << q.id;
    ExpectEnginesAgree(plan->mft(), small, std::string(q.id) + " (2 KB)");
    StreamStats stats =
        ExpectEnginesAgree(plan->mft(), xml, q.id, /*with_interp=*/false);
    // Fully lowered, predicates included: arena-served consumers, no
    // refcounted cells, no thunks, no table sub-runs.
    EXPECT_GT(stats.cells_arena, 0u) << q.id;
    EXPECT_EQ(stats.cells_created, 0u) << q.id;
    EXPECT_EQ(stats.exprs_created, 0u) << q.id;
    EXPECT_EQ(stats.bridge_runs, 0u) << q.id;
    EXPECT_FALSE(stats.hybrid_plan) << q.id;
    EXPECT_GT(stats.rule_applications, 0u) << q.id;
    EXPECT_GT(stats.peak_bytes, 0u) << q.id;
  }
}

TEST(LoweredDifferential, PredicateQueriesRunWithoutTableSubRuns) {
  // q01, q16 and q17 over a fixed generated XMark document: the selector
  // clusters run on the opcode core alone.
  const std::string xml = XmarkDoc(256 * 1024);
  for (const char* id : {"q01", "q16", "q17"}) {
    auto plan = MustCompile(QueryById(id).text);
    std::string why;
    ASSERT_NE(lower::GetLoweredPlan(plan->mft(), &why), nullptr) << id;
    EXPECT_EQ(why, "full") << id;
    StringSink got;
    StreamStats stats;
    ASSERT_TRUE(RunXml(*plan, xml, &got, &stats).ok()) << id;
    EXPECT_TRUE(stats.used_ops_engine) << id;
    EXPECT_EQ(stats.bridge_runs, 0u) << id;
    EXPECT_EQ(stats.cells_created, 0u) << id;
    EXPECT_EQ(stats.exprs_created, 0u) << id;
    StreamOptions table_opts;
    table_opts.engine = EngineChoice::kTable;
    StringSink want;
    ASSERT_TRUE(RunMftXml(plan->mft(), xml, &want, table_opts).ok()) << id;
    EXPECT_EQ(got.str(), want.str()) << id;
  }
}

TEST(LoweredDifferential, SelectorShapes) {
  // Predicates of every kind the translation produces, over documents that
  // decide them early, late and not at all: nested predicates (q04's
  // following-sibling one among them), empty(), text (in)equality, and
  // predicates anchored at text nodes and at node() tests.
  const char* const kQueries[] = {
      kPersonQuery,
      R"(<out>{ for $x in $input//a[./b/text()="x"] return <hit>{$x/c}</hit> }</out>)",
      R"(<out>{ for $x in $input//a[./b[./c/text()="x"]/d] return $x/e }</out>)",
      R"(<out>{ for $x in $input//a[empty(./b)] return <hit>{$x/text()}</hit> }</out>)",
      R"(<out>{ for $x in $input//a[./b/text()!="x"] return <hit>y</hit> }</out>)",
      R"(<out>{ for $x in $input//a[./b/following-sibling::c/text()="y"] return <hit>{$x}</hit> }</out>)",
      R"(<out>{$input/text()[./following-sibling::text()/text()="x"]}</out>)",
      R"(<out>{$input//node()[./b][empty(./c)]/text()}</out>)",
      R"(<out>{ for $x in $input//a[./b] return (for $y in $x/b[./text()="x"] return <p>{$y}</p>, $x/c[./d]) }</out>)",
      // The outer select loses inside a <c> whose own select is pending:
      // the inner select is abandoned with the region that holds it.
      R"(<out>{ for $x in $input/a[empty(.//b)] return $x/c[./d] }</out>)",
  };
  const char* const kDocs[] = {
      "<person><p_id>person1</p_id><name>n1</name></person>"
      "<person><name>n0</name><p_id>x</p_id><p_id>person0</p_id></person>"
      "<person><p_id>person0</p_id><name>a</name><name>b</name></person>",
      "<r><a><b>x</b><c>1</c><e>e1</e></a><a><c>2</c><b>y</b></a>"
      "<a>t<b><c>x</c><d/></b><e>e2</e></a><a><b>x</b><b>y</b></a></r>",
      "x<a><b><c>x</c></b><d/><c>y</c></a>x<a><b>z</b><c><d/></c>y</a>"
      "<a><b>x</b>x<a><b>x</b><c>y</c><c/></a></a>y",
      "<a/><a>t</a><a><b></b></a>text",
      "<a><c><e/><b/><d/></c><c><d/></c></a><a><c><d/></c><c>x</c></a>",
  };
  int doc_index = 0;
  for (const char* text : kQueries) {
    auto plan = MustCompile(text);
    std::string why;
    const lower::LoweredPlan* lp = lower::GetLoweredPlan(plan->mft(), &why);
    ASSERT_NE(lp, nullptr) << text << ": " << why;
    EXPECT_EQ(why, "full") << text;
    for (const char* doc : kDocs) {
      StreamStats stats = ExpectEnginesAgree(
          plan->mft(), doc,
          std::string(text) + " doc " + std::to_string(doc_index++));
      EXPECT_EQ(stats.bridge_runs, 0u) << text;
    }
  }
}

TEST(LoweredDifferential, MultiTreeForestInput) {
  // The document-as-forest contract: multiple top-level trees stream
  // through the ops engine identically to the table machine.
  auto plan = MustCompile("<out>{ for $x in $input/a return <h>{$x}</h> }</out>");
  ASSERT_NE(lower::GetLoweredPlan(plan->mft()), nullptr);
  const std::string xml = "<a><b>1</b></a><c>skip</c><a>2</a>";
  StreamOptions table_opts;
  table_opts.engine = EngineChoice::kTable;
  StringSink want;
  ASSERT_TRUE(RunMftXml(plan->mft(), xml, &want, table_opts).ok());
  StreamOptions ops_opts;
  StringSink got;
  StreamStats stats;
  ASSERT_TRUE(
      RunMftXml(plan->mft(), xml, &got, ops_opts, &stats).ok());
  EXPECT_TRUE(stats.used_ops_engine);
  EXPECT_EQ(got.str(), want.str());
}

// ---------------------------------------------------------------------------
// Runtime contract

TEST(OpsEngine, UnlowerablePlanFallsBackToTheTableEngine) {
  // Every Figure 3 query lowers, so the fallback path needs a handwritten
  // transducer: a parameter-carrying call over the children does not lower,
  // and the default engine choice must silently run the table machine.
  Mft m = MustParseMft(
      "q(a(x1)x2) -> q2(x1, m(eps)) q(x2)\n"
      "q(%t(x1)x2) -> q(x2)\n"
      "q(eps) -> eps\n"
      "q2(a(x1)x2, y1) -> y1 y1\n"
      "q2(%t(x1)x2, y1) -> y1\n"
      "q2(eps, y1) -> y1\n");
  ASSERT_TRUE(m.Validate().ok());
  const std::string xml = "<a><a>inner</a></a>";
  StreamOptions table_opts;
  table_opts.engine = EngineChoice::kTable;
  StringSink want;
  ASSERT_TRUE(RunMftXml(m, xml, &want, table_opts).ok());

  StreamOptions ops_opts;
  StringSink got;
  StreamStats stats;
  ASSERT_TRUE(RunMftXml(m, xml, &got, ops_opts, &stats).ok());
  EXPECT_FALSE(stats.used_ops_engine);
  EXPECT_EQ(stats.cells_arena, 0u);
  EXPECT_GT(stats.cells_created, 0u);
  EXPECT_EQ(got.str(), want.str());
}

TEST(OpsEngine, StepBudgetTrips) {
  auto plan = MustCompile("<out>{$input//a}</out>");
  ASSERT_NE(lower::GetLoweredPlan(plan->mft()), nullptr);
  StreamOptions options;
  options.max_steps = 2;  // the //a scan charges per consumer per event
  std::string xml = "<doc>";
  for (int i = 0; i < 64; ++i) xml += "<a>x</a>";
  xml += "</doc>";
  // Stats are only populated by a successful Finish, so the status is the
  // whole observable here.
  StringSink sink;
  Status st = RunMftXml(plan->mft(), xml, &sink, options);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
}

// One <person> whose predicate stays undecided until it closes: its
// person_id is not "person0", so q01's select waits on the children that
// follow (one could still be a matching person_id).
std::string PendingPersonDoc() {
  std::string xml =
      "<site><people><person><person_id>person1</person_id><name>n</name>";
  for (int i = 0; i < 200; ++i) xml += "<x>t</x>";
  return xml + "</person></people></site>";
}

TEST(OpsEngine, StepBudgetTripsWhileASelectionIsPending) {
  auto plan = MustCompile(QueryById("q01").text);
  ASSERT_NE(lower::GetLoweredPlan(plan->mft()), nullptr);
  StreamOptions options;
  options.max_steps = 60;  // runs out among the 200 <x> children
  StringSink sink;
  Status st = RunMftXml(plan->mft(), PendingPersonDoc(), &sink, options);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  // The held alternatives never reached the sink.
  EXPECT_EQ(sink.str().find("<name>"), std::string::npos);
}

TEST(OpsEngine, CancelTripWhileASelectionIsPending) {
  // Cancelled inside the person's children: the sink keeps the committed
  // prefix, the held alternatives are dropped, and tearing the run down
  // releases the select, its choice records and its segments (the asan
  // rerun checks the latter).
  auto plan = MustCompile(QueryById("q01").text);
  StreamOptions options;
  CancelToken token;
  options.cancel = &token;
  options.cancel_check_events = 1;
  StringSink sink;
  Engine engine(plan->mft(), &sink, options);
  const std::string doc = PendingPersonDoc();
  StringSource source(doc);
  SaxParser parser(&source, {});
  parser.BindSymbols(engine.symbols());
  ASSERT_TRUE(engine.Prime().ok());
  XmlEvent event;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(parser.Next(&event).ok());
    ASSERT_TRUE(engine.Feed(event).ok());
  }
  const std::string committed = sink.str();
  EXPECT_EQ(committed, "<query01>");
  token.Cancel();
  ASSERT_TRUE(parser.Next(&event).ok());
  EXPECT_EQ(engine.Feed(event).code(), StatusCode::kCancelled);
  StreamStats stats;
  EXPECT_EQ(engine.Finish(&stats).code(), StatusCode::kCancelled);
  EXPECT_EQ(sink.str(), committed);
  EXPECT_TRUE(stats.used_ops_engine);
  EXPECT_GT(stats.segments_peak, 0u);
}

TEST(OpsEngine, ValidatorRunsUnderOpsEngine) {
  auto plan = MustCompile("<out>{$input//b}</out>");
  ASSERT_NE(lower::GetLoweredPlan(plan->mft()), nullptr);
  auto schema = Schema::Parse("a -> b*\nb -> \n");
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();

  StreamOptions ok_opts;
  SchemaValidator ok_validator(schema.value());
  ok_opts.validator = &ok_validator;
  StringSink ok_sink;
  StreamStats ok_stats;
  Status ok_st = RunMftXml(plan->mft(), "<a><b/><b/></a>",
                           &ok_sink, ok_opts, &ok_stats);
  EXPECT_TRUE(ok_st.ok()) << ok_st.ToString();
  EXPECT_TRUE(ok_stats.used_ops_engine);
  EXPECT_EQ(ok_sink.str(), "<out><b></b><b></b></out>");

  StreamOptions bad_opts;
  SchemaValidator bad_validator(schema.value());
  bad_opts.validator = &bad_validator;
  StringSink bad_sink;
  Status bad_st = RunMftXml(plan->mft(), "<a><c/></a>",
                            &bad_sink, bad_opts);
  EXPECT_FALSE(bad_st.ok());
}

TEST(OpsEngine, UnbalancedEndElementIsStickyError) {
  auto plan = MustCompile("<out>{$input//a}</out>");
  StreamOptions options = plan->options().stream;
  StringSink sink;
  Engine engine(plan->mft(), &sink, options);
  XmlEvent ev;
  ev.type = XmlEventType::kEndElement;
  ev.name = "a";
  Status first = engine.Feed(ev);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.code(), StatusCode::kInvalidArgument);
  // Sticky: the same status again on every later call.
  ev.type = XmlEventType::kStartElement;
  EXPECT_EQ(engine.Feed(ev).ToString(), first.ToString());
  EXPECT_EQ(engine.Finish().ToString(), first.ToString());
}

TEST(OpsEngine, DoneAfterEndOfDocumentIgnoresLaterEvents) {
  auto plan = MustCompile("<out>{$input//a}</out>");
  StreamOptions options = plan->options().stream;
  StringSink sink;
  Engine engine(plan->mft(), &sink, options);
  ASSERT_TRUE(engine.Prime().ok());
  XmlEvent ev;
  ev.type = XmlEventType::kStartElement;
  ev.name = "a";
  ASSERT_TRUE(engine.Feed(ev).ok());
  ev.type = XmlEventType::kEndElement;
  ASSERT_TRUE(engine.Feed(ev).ok());
  ev.type = XmlEventType::kEndOfDocument;
  ASSERT_TRUE(engine.Feed(ev).ok());
  EXPECT_TRUE(engine.done());
  const std::string after_done = sink.str();
  // Feeding past done is a no-op (the same short-circuit the table machine
  // applies, before any validation).
  ev.type = XmlEventType::kStartElement;
  ev.name = "zzz";
  EXPECT_TRUE(engine.Feed(ev).ok());
  EXPECT_EQ(sink.str(), after_done);
  StreamStats stats;
  ASSERT_TRUE(engine.Finish(&stats).ok());
  EXPECT_TRUE(stats.used_ops_engine);
  EXPECT_EQ(sink.str(), "<out><a></a></out>");
}

TEST(OpsEngine, FinishSuppliesEndOfDocument) {
  // Constant output without a single input event: Prime + Finish.
  auto plan = MustCompile("<out>done</out>");
  ASSERT_NE(lower::GetLoweredPlan(plan->mft()), nullptr);
  StreamOptions options = plan->options().stream;
  StringSink sink;
  Engine engine(plan->mft(), &sink, options);
  EXPECT_TRUE(engine.Finish().ok());
  EXPECT_EQ(sink.str(), "<out>done</out>");
}

// ---------------------------------------------------------------------------
// Lowering cache invalidation: every Mft mutator must drop the cached
// verdict, not just the rule setters.

TEST(Lowerability, MutatorsDropTheLoweringCache) {
  Mft m = MustParseMft(
      "qa(%t(x1)x2) -> a(eps) qa(x2)\n"
      "qa(eps) -> eps\n"
      "qb(%t(x1)x2) -> b(eps) qb(x2)\n"
      "qb(eps) -> eps\n");
  ASSERT_TRUE(m.Validate().ok());
  m.dispatch();
  ASSERT_NE(lower::GetLoweredPlan(m), nullptr);
  ASSERT_NE(m.lowering_cache(), nullptr);

  // Renaming a state bakes into the plan's diagnostics; the cached verdict
  // must go with the dispatch.
  m.set_state_name(0, "qa_renamed");
  EXPECT_EQ(m.lowering_cache(), nullptr);
  ASSERT_NE(lower::GetLoweredPlan(m), nullptr);
  ASSERT_NE(m.lowering_cache(), nullptr);

  // Moving the initial state changes the program semantically: a stale
  // cached plan would keep emitting <a> from the old start state.
  StateId qb = -1;
  for (StateId q = 0; q < m.num_states(); ++q) {
    if (m.state_name(q) == "qb") qb = q;
  }
  ASSERT_GE(qb, 0);
  // Streams `m` itself through the shared pump — a plan wrapping it would
  // hold a copy, and copies never carry the lowering cache.
  auto stream_m = [&m](StringSink* sink, StreamStats* stats) {
    MultiPlanSpec spec;
    spec.mft = &m;
    spec.sink = sink;
    MultiQueryRun run({spec});
    StringSource bytes("<x/>");
    SaxParser events(&bytes);
    Status st = run.Run(&events);
    *stats = run.results()[0].stats;
    return st.ok() ? run.results()[0].status : st;
  };
  StringSink before;
  StreamStats sb;
  ASSERT_TRUE(stream_m(&before, &sb).ok());
  EXPECT_TRUE(sb.used_ops_engine);
  EXPECT_EQ(before.str(), "<a></a>");
  ASSERT_NE(m.lowering_cache(), nullptr);

  m.set_initial_state(qb);
  EXPECT_EQ(m.lowering_cache(), nullptr);
  StringSink after;
  StreamStats sa;
  ASSERT_TRUE(stream_m(&after, &sa).ok());
  EXPECT_TRUE(sa.used_ops_engine);
  EXPECT_EQ(after.str(), "<b></b>");
}

// ---------------------------------------------------------------------------
// Accumulating parameters: hand-written transducers the table engine serves

// Collects the <b> children of each <a> into an accumulating parameter and
// emits the collection when the subtree closes.
const char kCollectMft[] =
    "q(a(x1)x2) -> p(x1, eps) q(x2)\n"
    "q(%t(x1)x2) -> q(x2)\n"
    "q(eps) -> eps\n"
    "p(b(x1)x2, y1) -> p(x2, y1 b(eps))\n"
    "p(%t(x1)x2, y1) -> p(x2, y1)\n"
    "p(eps, y1) -> y1\n";

// Duplicates the parameter (y1 y1) at the end of each <a> child list.
const char kNonlinearMft[] =
    "q(a(x1)x2) -> q2(x1, m(eps)) q(x2)\n"
    "q(%t(x1)x2) -> q(x2)\n"
    "q(eps) -> eps\n"
    "q2(a(x1)x2, y1) -> y1 y1\n"
    "q2(%t(x1)x2, y1) -> y1\n"
    "q2(eps, y1) -> y1\n";

// Concatenates every text node under <a> into the parameter.
const char kTextAccumMft[] =
    "q(a(x1)x2) -> p(x1, eps) q(x2)\n"
    "q(%t(x1)x2) -> q(x2)\n"
    "q(eps) -> eps\n"
    "p(%ttext(x1)x2, y1) -> p(x2, y1 %t)\n"
    "p(%t(x1)x2, y1) -> p(x2, y1)\n"
    "p(eps, y1) -> y1\n";

TEST(Lowerability, AccumulatingParametersRunOnTheTableEngine) {
  // Each of these threads its parameter through a call over the children,
  // which cannot bridge (the callee reads x1, not the anchor subtree) and
  // which no other lowering class covers, whatever the callee does with the
  // parameter: the plan reports why and streams on the table machine,
  // byte-identical to the reference interpreter at every refill size.
  const std::string xml =
      "<a><b/>one<c>two</c><b>x</b>three</a>t<a/><a>four<b/></a>";
  auto doc = ParseXmlForest(xml);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  for (const char* text : {kCollectMft, kNonlinearMft, kTextAccumMft}) {
    Mft m = MustParseMft(text);
    ASSERT_TRUE(m.Validate().ok());
    m.dispatch();
    std::string why;
    EXPECT_EQ(lower::GetLoweredPlan(m, &why), nullptr);
    EXPECT_EQ(why,
              "not lowerable: parameter-carrying call over children does not "
              "lower");

    auto expected = xqmft::RunMft(m, doc.value());
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    StringSink want;
    EmitForest(expected.value(), &want);
    EXPECT_FALSE(want.str().empty());
    for (std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                              std::size_t{64}}) {
      ChunkedSource source(xml, chunk);
      StringSink got;
      StreamStats stats;
      Status st = RunMft(m, ParallelInput::Bytes(&source), &got, {}, &stats);
      ASSERT_TRUE(st.ok()) << "chunk=" << chunk << ": " << st.ToString();
      EXPECT_FALSE(stats.used_ops_engine);
      EXPECT_GT(stats.cells_created, 0u);
      EXPECT_EQ(got.str(), want.str()) << "chunk=" << chunk;
    }
  }
}

// ---------------------------------------------------------------------------
// Hybrid differential: the paper's section 2.1 example crosses the bridge

TEST(LoweredDifferential, Section21HybridChunkedRefill) {
  auto plan = MustCompile(kSection21Query);
  std::string why;
  const lower::LoweredPlan* lp = lower::GetLoweredPlan(plan->mft(), &why);
  ASSERT_NE(lp, nullptr) << why;
  EXPECT_TRUE(lp->hybrid) << why;
  const std::string xml =
      "<r><a><b><c>1</c><d>2</d><b><c>3</c></b></b></a>"
      "<a>t<b><d>4</d></b></a></r>";
  StreamStats stats = ExpectEnginesAgree(plan->mft(), xml, "section 2.1");
  EXPECT_TRUE(stats.hybrid_plan);
  EXPECT_GT(stats.bridge_runs, 0u);
}

// ---------------------------------------------------------------------------
// Output segments: pooled chunk chains, coalesced once closed

std::string TreebankDoc(std::size_t bytes) {
  auto doc = GenerateDatasetString(DatasetKind::kTreebank, bytes, /*seed=*/5);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return doc.value();
}

const char* const kCopyQueries[] = {"double", "deepdup", "fourstar"};

TEST(OpsSegments, SegmentsPeakDoesNotGrowWithDocumentSize) {
  // Closed neighbours merge at every event end, so the segments alive at
  // once are bounded by the open writers (consumers on the current input
  // path), not by how much output is buffered. Both documents reach the
  // generator's full depth, so the bound is the same number.
  const std::string small = TreebankDoc(64 << 10);
  const std::string large = TreebankDoc(1 << 20);
  for (const char* id : kCopyQueries) {
    auto plan = MustCompile(QueryById(id).text);
    CountingSink small_sink, large_sink;
    StreamStats small_stats, large_stats;
    ASSERT_TRUE(RunXml(*plan, small, &small_sink, &small_stats).ok());
    ASSERT_TRUE(RunXml(*plan, large, &large_sink, &large_stats).ok());
    ASSERT_TRUE(large_stats.used_ops_engine) << id;
    EXPECT_GT(small_stats.segments_peak, 0u) << id;
    EXPECT_EQ(large_stats.segments_peak, small_stats.segments_peak) << id;
  }
}

TEST(OpsSegments, DoublePeakStaysWithinTwiceTheInput) {
  // `double` buffers its whole second copy while the first streams: the
  // peak is that copy's packed records, not per-element bookkeeping.
  const std::string doc = TreebankDoc(1 << 20);
  auto plan = MustCompile(QueryById("double").text);
  CountingSink sink;
  StreamStats stats;
  ASSERT_TRUE(RunXml(*plan, doc, &sink, &stats).ok());
  EXPECT_GT(stats.peak_bytes, doc.size() / 2);  // the copy is buffered
  EXPECT_LE(stats.peak_bytes, 2 * doc.size());
}

TEST(OpsSegments, CopyQueriesMatchTheTableEngineAtEveryChunkSize) {
  const std::string xml = TreebankDoc(48 << 10);
  for (const char* id : kCopyQueries) {
    auto plan = MustCompile(QueryById(id).text);
    StreamOptions table_opts;
    table_opts.engine = EngineChoice::kTable;
    StringSink want;
    ASSERT_TRUE(
        RunMftXml(plan->mft(), xml, &want, table_opts).ok())
        << id;
    for (std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                              std::size_t{64}, std::size_t{4096}}) {
      StreamOptions ops_opts;
      ChunkedSource source(xml, chunk);
      StringSink got;
      StreamStats stats;
      Status st =
          RunMft(plan->mft(), ParallelInput::Bytes(&source), &got, ops_opts,
                 &stats);
      ASSERT_TRUE(st.ok()) << id << " chunk=" << chunk << ": "
                           << st.ToString();
      EXPECT_TRUE(stats.used_ops_engine) << id;
      ASSERT_TRUE(got.str() == want.str()) << id << " chunk=" << chunk;
    }
  }
}

TEST(OpsSegments, CancelTripWhileALargeRegionIsBuffered) {
  // Trip `double` halfway through its live first copy, with the whole
  // second copy so far sitting in coalesced chains: the sink keeps exactly
  // the committed prefix, nothing buffered is drained, and tearing the run
  // down releases every chunk (the asan rerun checks the latter).
  const std::string doc = TreebankDoc(256 << 10);
  auto plan = MustCompile(QueryById("double").text);
  StringSink want;
  ASSERT_TRUE(RunXml(*plan, doc, &want).ok());

  StreamOptions options;
  CancelToken token;
  options.cancel = &token;
  options.cancel_check_events = 1;
  StringSink sink;
  Engine engine(plan->mft(), &sink, options);
  StringSource source(doc);
  SaxParser parser(&source, {});
  parser.BindSymbols(engine.symbols());
  ASSERT_TRUE(engine.Prime().ok());
  XmlEvent event;
  while (sink.str().size() < want.str().size() / 4) {
    ASSERT_TRUE(parser.Next(&event).ok());
    ASSERT_NE(event.type, XmlEventType::kEndOfDocument);
    ASSERT_TRUE(engine.Feed(event).ok());
  }
  const std::string committed = sink.str();

  token.Cancel();
  ASSERT_TRUE(parser.Next(&event).ok());
  EXPECT_EQ(engine.Feed(event).code(), StatusCode::kCancelled);
  StreamStats stats;
  EXPECT_EQ(engine.Finish(&stats).code(), StatusCode::kCancelled);
  EXPECT_EQ(sink.str(), committed);
  EXPECT_EQ(want.str().compare(0, committed.size(), committed), 0);
  EXPECT_TRUE(stats.used_ops_engine);
  // About as much of the second copy is buffered as the first committed.
  EXPECT_GT(stats.peak_bytes, committed.size() / 4);
  EXPECT_GT(stats.segments_peak, 0u);
}

}  // namespace
}  // namespace xqmft
