// Tests for streaming schema validation (the Section 1 "validate the input
// during transformation" feature): the hedge-grammar parser, content-model
// regexes, the event-driven validator, and the one-pass integration with
// the streaming engine.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "mft/mft.h"
#include "run_util.h"
#include "schema/schema.h"
#include "stream/engine.h"
#include "xml/events.h"
#include "xml/sax_parser.h"

namespace xqmft {
namespace {

std::shared_ptr<const Schema> MustParseSchema(const std::string& text,
                                              bool strict = false) {
  Result<std::shared_ptr<const Schema>> r = Schema::Parse(text, strict);
  if (!r.ok()) ADD_FAILURE() << "Schema::Parse: " << r.status().ToString();
  return std::move(r).ValueOrDie();
}

Status Validate(const std::string& schema_text, const std::string& xml,
                bool strict = false) {
  auto schema = MustParseSchema(schema_text, strict);
  Forest doc = std::move(ParseXmlForest(xml).ValueOrDie());
  return ValidateForest(*schema, doc);
}

TEST(SchemaParseTest, RejectsMalformedRules) {
  EXPECT_FALSE(Schema::Parse("person name text").ok());    // no ->
  EXPECT_FALSE(Schema::Parse("a -> (b").ok());             // missing )
  EXPECT_FALSE(Schema::Parse("a -> b**)").ok());           // trailing junk
  EXPECT_FALSE(Schema::Parse("a -> b\na -> c").ok());      // duplicate
  EXPECT_FALSE(Schema::Parse(" -> b").ok());               // no name
}

TEST(SchemaParseTest, CommentsAndBlankLines) {
  EXPECT_TRUE(Schema::Parse("# comment\n\na -> b*\n").ok());
}

TEST(SchemaValidateTest, SequenceModel) {
  const char* schema = "person -> id name email?";
  EXPECT_TRUE(Validate(schema, "<person><id/><name/><email/></person>").ok());
  EXPECT_TRUE(Validate(schema, "<person><id/><name/></person>").ok());
  EXPECT_FALSE(Validate(schema, "<person><name/><id/></person>").ok());
  EXPECT_FALSE(Validate(schema, "<person><id/></person>").ok());
  EXPECT_FALSE(
      Validate(schema, "<person><id/><name/><email/><email/></person>").ok());
}

TEST(SchemaValidateTest, StarPlusOptional) {
  const char* schema = "list -> item+\nitem -> text?";
  EXPECT_TRUE(Validate(schema, "<list><item>x</item><item/></list>").ok());
  EXPECT_FALSE(Validate(schema, "<list/>").ok());  // + requires one
  const char* star = "list -> item*";
  EXPECT_TRUE(Validate(star, "<list/>").ok());
}

TEST(SchemaValidateTest, Alternation) {
  const char* schema = "doc -> (a | b)* c";
  EXPECT_TRUE(Validate(schema, "<doc><a/><b/><a/><c/></doc>").ok());
  EXPECT_TRUE(Validate(schema, "<doc><c/></doc>").ok());
  EXPECT_FALSE(Validate(schema, "<doc><a/><c/><a/></doc>").ok());
}

TEST(SchemaValidateTest, TextAndAnyAtoms) {
  EXPECT_TRUE(Validate("name -> text", "<name>Jim</name>").ok());
  EXPECT_FALSE(Validate("name -> text", "<name><x/></name>").ok());
  EXPECT_FALSE(Validate("name -> text", "<name/>").ok());
  EXPECT_TRUE(Validate("wrap -> any*", "<wrap>x<a/><b>t</b></wrap>").ok());
}

TEST(SchemaValidateTest, UnconstrainedElementsPassByDefault) {
  EXPECT_TRUE(Validate("a -> b", "<a><b><zzz/></b></a>").ok());
}

TEST(SchemaValidateTest, StrictModeRejectsUnknownElements) {
  EXPECT_FALSE(Validate("a -> b", "<a><b><zzz/></b></a>", true).ok());
  EXPECT_TRUE(Validate("a -> b\nb -> zzz?\nzzz -> \n",
                       "<a><b><zzz/></b></a>", true)
                  .ok());
}

TEST(SchemaValidateTest, NestedModels) {
  const char* schema =
      "site -> people\n"
      "people -> person*\n"
      "person -> id name\n"
      "id -> text\n"
      "name -> text\n";
  EXPECT_TRUE(Validate(schema,
                       "<site><people>"
                       "<person><id>1</id><name>A</name></person>"
                       "<person><id>2</id><name>B</name></person>"
                       "</people></site>")
                  .ok());
  EXPECT_FALSE(Validate(schema,
                        "<site><people><person><name>A</name><id>1</id>"
                        "</person></people></site>")
                   .ok());
}

TEST(SchemaValidateTest, ValidatorReportsCompletion) {
  auto schema = MustParseSchema("a -> b*");
  SchemaValidator v(schema);
  XmlEvent ev;
  ev.type = XmlEventType::kStartElement;
  ev.name = "a";
  ASSERT_TRUE(v.Feed(ev).ok());
  EXPECT_FALSE(v.complete());
  ev.type = XmlEventType::kEndElement;
  ASSERT_TRUE(v.Feed(ev).ok());
  ev.type = XmlEventType::kEndOfDocument;
  ASSERT_TRUE(v.Feed(ev).ok());
  EXPECT_TRUE(v.complete());
}

// One pass: transformation and validation share the same event stream.
TEST(SchemaStreamTest, ValidationDuringTransformation) {
  Mft copy = std::move(ParseMft("qcopy(%t(x1)x2) -> %t(qcopy(x1)) qcopy(x2)\n"
                                "qcopy(eps) -> eps\n")
                           .ValueOrDie());
  auto schema = MustParseSchema("r -> a* b");

  {
    SchemaValidator v(schema);
    StreamOptions opts;
    opts.validator = &v;
    StringSink sink;
    Status st = RunMftXml(copy, "<r><a/><a/><b/></r>", &sink, opts);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(sink.str(), "<r><a></a><a></a><b></b></r>");
  }
  {
    SchemaValidator v(schema);
    StreamOptions opts;
    opts.validator = &v;
    StringSink sink;
    Status st = RunMftXml(copy, "<r><b/><a/></r>", &sink, opts);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  }
}

// A validator must see every event, so a run with one switches the source
// projection off — derived from the run, not from a flag. The query only
// reads r/a; the violation sits inside r/z, a subtree the projection skips.
TEST(SchemaStreamTest, ValidatorSeesSubtreesTheQueryNeverReads) {
  auto plan = CompiledPlan::Compile(
      "<out>{ for $x in $input/r/a return <hit></hit> }</out>");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_FALSE(plan.value()->projection().whole_document);
  auto schema = MustParseSchema("r -> a* z?\nz -> y*");
  const std::vector<ParallelInput> bad = {
      ParallelInput::XmlText("<r><a/><z><w/></z></r>")};

  // Without a validator the projection skips z's subtree: no violation is
  // visible, and the run succeeds.
  StringSink plain;
  RunResult result;
  ASSERT_TRUE(
      xqmft::Run({plan.value().get()}, bad, {&plain}, {}, &result).ok());
  EXPECT_TRUE(result.pass.projection_enabled);
  EXPECT_GT(result.pass.events_skipped, 0u);
  EXPECT_EQ(plain.str(), "<out><hit></hit></out>");

  SchemaValidator v(schema);
  RunOptions run;
  run.validator = &v;
  StringSink sink;
  Status st = xqmft::Run({plan.value().get()}, bad, {&sink}, run, &result);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_FALSE(result.pass.projection_enabled);
  EXPECT_EQ(result.pass.events_skipped, 0u);
}

// A validator is per-run state over one document: a run of several plans,
// or of several inputs, rejects it up front.
TEST(SchemaStreamTest, ValidatorNeedsOnePlanOverOneInput) {
  auto a = CompiledPlan::Compile("<out>{$input/r/a}</out>");
  auto b = CompiledPlan::Compile("<out>{$input/r/z}</out>");
  ASSERT_TRUE(a.ok() && b.ok());
  SchemaValidator v(MustParseSchema("r -> a* z?"));
  RunOptions run;
  run.validator = &v;
  const ParallelInput doc = ParallelInput::XmlText("<r><a/></r>");
  StringSink s1, s2;
  EXPECT_EQ(xqmft::Run({a.value().get(), b.value().get()}, {doc},
                       {&s1, &s2}, run)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(xqmft::Run({a.value().get()}, {doc, doc}, {&s1}, run).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(s1.str(), "");
  EXPECT_EQ(s2.str(), "");
}

}  // namespace
}  // namespace xqmft
