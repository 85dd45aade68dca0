// Tests for the XML substrate: forest model, term notation, SAX parser,
// attribute encoding, sinks, parse/serialize round-trips (including a
// randomized property sweep), and the projection skip's differential
// well-formedness contract (SkipElement against Next()).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "event_trace_util.h"
#include "util/rng.h"
#include "xml/char_class.h"
#include "xml/events.h"
#include "xml/forest.h"
#include "xml/sax_parser.h"

namespace xqmft {
namespace {

TEST(ForestTest, SizeAndDepth) {
  Forest f = std::move(ParseTerm("a(b(c) d) e").ValueOrDie());
  EXPECT_EQ(ForestSize(f), 5u);
  EXPECT_EQ(ForestDepth(f), 3u);
  EXPECT_EQ(ForestSize({}), 0u);
  EXPECT_EQ(ForestDepth({}), 0u);
}

TEST(ForestTest, TermRoundTrip) {
  const std::string term = "a(b(\"x y\") c) \"top\" d";
  Forest f = std::move(ParseTerm(term).ValueOrDie());
  EXPECT_EQ(ForestToTerm(f), term);
}

TEST(ForestTest, TermParseErrors) {
  EXPECT_FALSE(ParseTerm("a(").ok());
  EXPECT_FALSE(ParseTerm("a)").ok());
  EXPECT_FALSE(ParseTerm("\"unterminated").ok());
  EXPECT_FALSE(ParseTerm("a((b)").ok());
}

TEST(ForestTest, TermQuotedEscapes) {
  Forest f = std::move(ParseTerm(R"( "a\"b\\c" )").ValueOrDie());
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].label, "a\"b\\c");
  // Round-trips through printing.
  Forest g = std::move(ParseTerm(ForestToTerm(f)).ValueOrDie());
  EXPECT_EQ(f, g);
}

TEST(ForestTest, XmlSerialization) {
  Forest f = std::move(ParseTerm("book(isbn(\"123\") title(\"A&B\"))").ValueOrDie());
  EXPECT_EQ(ForestToXml(f),
            "<book><isbn>123</isbn><title>A&amp;B</title></book>");
}

TEST(ForestTest, EmptyElementSerializesSelfClosing) {
  Forest f = std::move(ParseTerm("a(b c(d))").ValueOrDie());
  EXPECT_EQ(ForestToXml(f), "<a><b/><c><d/></c></a>");
}

TEST(SaxTest, PaperBookExample) {
  // The Section 2 example: attributes become leading child elements with a
  // text child (Figure 1's forest).
  const char* xml =
      "<book isbn=\"123\" price=\"$99\"><author>Knuth</author>"
      "<title>Art of Programming</title></book>";
  Forest f = std::move(ParseXmlForest(xml).ValueOrDie());
  EXPECT_EQ(ForestToTerm(f),
            "book(isbn(\"123\") price(\"$99\") author(\"Knuth\") "
            "title(\"Art of Programming\"))");
}

TEST(SaxTest, SelfClosingAndNesting) {
  Forest f = std::move(
      ParseXmlForest("<doc><a><b/><b/></a><c/></doc>").ValueOrDie());
  EXPECT_EQ(ForestToTerm(f), "doc(a(b b) c)");
}

TEST(SaxTest, EntityDecoding) {
  Forest f = std::move(ParseXmlForest(
      "<t>&lt;x&gt; &amp; &quot;q&quot; &apos;a&apos; &#65;&#x42;</t>")
                           .ValueOrDie());
  ASSERT_EQ(f.size(), 1u);
  ASSERT_EQ(f[0].children.size(), 1u);
  EXPECT_EQ(f[0].children[0].label, "<x> & \"q\" 'a' AB");
}

TEST(SaxTest, CommentsAndPIsAndDoctypeSkipped) {
  const char* xml =
      "<?xml version=\"1.0\"?><!DOCTYPE doc [<!ELEMENT doc ANY>]>"
      "<!-- a comment --><doc><!-- inner --><a/></doc>";
  Forest f = std::move(ParseXmlForest(xml).ValueOrDie());
  EXPECT_EQ(ForestToTerm(f), "doc(a)");
}

TEST(SaxTest, CdataBecomesText) {
  Forest f = std::move(
      ParseXmlForest("<t><![CDATA[a<b&c]]></t>").ValueOrDie());
  EXPECT_EQ(f[0].children[0].label, "a<b&c");
}

TEST(SaxTest, CdataMergesWithAdjacentText) {
  Forest f = std::move(
      ParseXmlForest("<t>pre<![CDATA[mid]]>post</t>").ValueOrDie());
  ASSERT_EQ(f[0].children.size(), 1u);
  EXPECT_EQ(f[0].children[0].label, "premidpost");
}

TEST(SaxTest, WhitespaceSkippingByDefault) {
  Forest f = std::move(
      ParseXmlForest("<a>\n  <b> x </b>\n</a>").ValueOrDie());
  EXPECT_EQ(ForestToTerm(f), "a(b(\" x \"))");
}

TEST(SaxTest, WhitespaceKeptWhenConfigured) {
  SaxOptions opts;
  opts.skip_whitespace_text = false;
  Forest f = std::move(ParseXmlForest("<a> <b/></a>", opts).ValueOrDie());
  ASSERT_EQ(f[0].children.size(), 2u);
  EXPECT_EQ(f[0].children[0].kind, NodeKind::kText);
}

TEST(SaxTest, AttributeExpansionCanBeDisabled) {
  SaxOptions opts;
  opts.expand_attributes = false;
  StringSource src("<a x=\"1\" y='two'><b/></a>");
  SaxParser p(&src, opts);
  XmlEvent ev;
  ASSERT_TRUE(p.Next(&ev).ok());
  EXPECT_EQ(ev.type, XmlEventType::kStartElement);
  ASSERT_EQ(ev.attr_count, 2u);
  EXPECT_EQ(ev.attrs[0].name, "x");
  EXPECT_EQ(ev.attrs[0].value, "1");
  EXPECT_EQ(ev.attrs[1].name, "y");
  EXPECT_EQ(ev.attrs[1].value, "two");
  // Attribute-free events do not carry a span.
  ASSERT_TRUE(p.Next(&ev).ok());  // <b/>
  EXPECT_EQ(ev.type, XmlEventType::kStartElement);
  EXPECT_EQ(ev.attr_count, 0u);
  EXPECT_EQ(ev.attrs, nullptr);
}

TEST(SaxTest, ErrorMismatchedTags) {
  EXPECT_FALSE(ParseXmlForest("<a><b></a></b>").ok());
  EXPECT_FALSE(ParseXmlForest("<a>").ok());
  EXPECT_FALSE(ParseXmlForest("</a>").ok());
}

TEST(SaxTest, ErrorMalformedMarkup) {
  EXPECT_FALSE(ParseXmlForest("<a b></a>").ok());        // attr without value
  EXPECT_FALSE(ParseXmlForest("<a b=c></a>").ok());      // unquoted value
  EXPECT_FALSE(ParseXmlForest("<a>&unknown;</a>").ok()); // unknown entity
  EXPECT_FALSE(ParseXmlForest("<1a/>").ok());            // bad name start
}

TEST(SaxTest, ErrorsReportLineAndColumn) {
  // The mismatched end tag starts on line 3. Its "</b>" begins at column 4
  // ("  x" precedes it); the parser reports the position after reading the
  // tag, column 8 — the regression this guards is the offset being lost
  // entirely, so the assertion pins the exact line and column.
  Status st = ParseXmlForest("<a>\n<c></c>\n  x</b>\n</a>").status();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("line 3, column 8"), std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("byte 19"), std::string::npos) << st.message();

  // Errors on the first line: column counts from 1.
  Status first = ParseXmlForest("<1a/>").status();
  ASSERT_FALSE(first.ok());
  EXPECT_NE(first.message().find("line 1, column 2"), std::string::npos)
      << first.message();
}

TEST(SaxTest, ParserTracksPosition) {
  StringSource src("<a>\nhi</a>");
  SaxParser p(&src);
  EXPECT_EQ(p.line(), 1u);
  EXPECT_EQ(p.column(), 1u);
  XmlEvent ev;
  ASSERT_TRUE(p.Next(&ev).ok());  // <a>
  EXPECT_EQ(p.line(), 1u);
  EXPECT_EQ(p.column(), 4u);
  ASSERT_TRUE(p.Next(&ev).ok());  // text "hi" (reads up to '<')
  EXPECT_EQ(p.line(), 2u);
  EXPECT_EQ(p.column(), 3u);
}

TEST(SaxTest, MultipleTopLevelTreesFormAForest) {
  Forest f = std::move(ParseXmlForest("<a/><b/><c>t</c>").ValueOrDie());
  EXPECT_EQ(ForestToTerm(f), "a b c(\"t\")");
}

TEST(SaxTest, SingleQuotedAttributes) {
  Forest f = std::move(ParseXmlForest("<a x='v'/>").ValueOrDie());
  EXPECT_EQ(ForestToTerm(f), "a(x(\"v\"))");
}

TEST(SaxTest, EmptyAttributeValueYieldsEmptyElement) {
  Forest f = std::move(ParseXmlForest("<a x=\"\"/>").ValueOrDie());
  EXPECT_EQ(ForestToTerm(f), "a(x)");
}

// ---- Chunk-boundary robustness: every construct split at every offset. ----

// TracedEvent / Trace() / ChunkedSource live in event_trace_util.h, shared
// with the pretok suite so both differential tests compare the same trace.

// The conformance corpus: every lexer state (tags, attributes + expansion,
// entities in text and attr values, CDATA with ]]-lookahead, comments, PIs,
// DOCTYPE with internal subset, long names/runs) so the refill sweep splits
// each of them at every possible byte offset.
const char* const kConformanceCorpus[] = {
    "<a><b/><b/></a>",
    "<book isbn=\"123\" price=\"$99\"><author>Knuth</author></book>",
    "<t>&lt;x&gt; &amp; &quot;q&quot; &apos;a&apos; &#65;&#x42;</t>",
    "<t>pre<![CDATA[mid ]] >]]]>post</t>",
    "<?xml version=\"1.0\"?><!DOCTYPE d [<!ELEMENT d ANY>]><d><!-- c --><a/>"
    "</d>",
    "<a x='v &amp; w' y=\"\"/>",
    "<longer_element_name_than_any_refill_window_is_wide_in_this_sweep>"
    "text that also runs longer than the smallest windows do"
    "</longer_element_name_than_any_refill_window_is_wide_in_this_sweep>",
    "<a>\n  <b> x </b>\n</a>",
    "<a/><b/><c>t</c>",
    "<m><!-- dashes -- - ---><p></p><?pi with ? marks ?></m>",
};

TEST(SaxChunkTest, CorpusIdenticalAtEveryRefillSize) {
  for (const char* xml : kConformanceCorpus) {
    StringSource whole(xml);
    auto expected = std::move(Trace(&whole).ValueOrDie());
    for (std::size_t chunk = 1; chunk <= 64; ++chunk) {
      ChunkedSource src(xml, chunk);
      Result<std::vector<TracedEvent>> got = Trace(&src);
      ASSERT_TRUE(got.ok()) << xml << " chunk=" << chunk << ": "
                            << got.status().ToString();
      EXPECT_EQ(got.value(), expected) << xml << " chunk=" << chunk;
    }
  }
}

TEST(SaxChunkTest, ErrorsStillDetectedAtEveryRefillSize) {
  const char* bad[] = {"<a><b></a></b>", "<a>&unknown;</a>", "<a x=1/>",
                       "<a><![CDATA[never closed", "<a>unclosed"};
  for (const char* xml : bad) {
    for (std::size_t chunk : {std::size_t(1), std::size_t(3), std::size_t(7)}) {
      ChunkedSource src(xml, chunk);
      SaxParser parser(&src);
      XmlEvent ev;
      Status st;
      do {
        st = parser.Next(&ev);
      } while (st.ok() && ev.type != XmlEventType::kEndOfDocument);
      EXPECT_FALSE(st.ok()) << xml << " chunk=" << chunk;
    }
  }
}

// ---- The zero-copy event contract. ----

bool ViewWithin(std::string_view view, std::string_view region) {
  return view.data() >= region.data() &&
         view.data() + view.size() <= region.data() + region.size();
}

TEST(SaxViewTest, MappedTextIsZeroCopy) {
  // Over an in-memory (Contents-capable) source, a plain text run must alias
  // the input bytes — no copy on the fast path.
  const std::string xml = "<a>hello world</a>";
  StringSource src(xml);
  SaxParser p(&src);
  XmlEvent ev;
  ASSERT_TRUE(p.Next(&ev).ok());  // <a>
  ASSERT_TRUE(p.Next(&ev).ok());  // text
  ASSERT_EQ(ev.type, XmlEventType::kText);
  EXPECT_EQ(ev.text, "hello world");
  EXPECT_TRUE(ViewWithin(ev.text, xml)) << "text was copied";
}

TEST(SaxViewTest, EntityTextSpillsOutOfTheInput) {
  const std::string xml = "<a>x&amp;y</a>";
  StringSource src(xml);
  SaxParser p(&src);
  XmlEvent ev;
  ASSERT_TRUE(p.Next(&ev).ok());  // <a>
  ASSERT_TRUE(p.Next(&ev).ok());  // text
  ASSERT_EQ(ev.type, XmlEventType::kText);
  EXPECT_EQ(ev.text, "x&y");
  EXPECT_FALSE(ViewWithin(ev.text, xml)) << "decoded text cannot alias input";
}

TEST(SaxViewTest, NamesAliasTheSymbolTable) {
  // Name views point into the parser's symbol table, so they stay valid for
  // the parser's lifetime even across refills.
  ChunkedSource src("<abc><d/></abc>", 2);
  SaxParser p(&src);
  XmlEvent ev;
  ASSERT_TRUE(p.Next(&ev).ok());
  std::string_view abc = ev.name;
  EXPECT_EQ(abc, "abc");
  ASSERT_TRUE(p.Next(&ev).ok());  // <d/> — a refill happened meanwhile
  EXPECT_EQ(ev.name, "d");
  EXPECT_EQ(abc, "abc");  // still valid: table-backed
  EXPECT_EQ(p.symbols().name(p.symbols().Find(NodeKind::kElement, "abc")),
            abc);
}

TEST(SaxViewTest, ViewsStableUntilNextAndReplacedAfter) {
  // The contract: an event's views are valid until the next Next() call.
  // Copies taken before the next pull must equal the reference trace even
  // at the smallest window size, where every run spills.
  const char* xml = "<r><p>one</p><p a=\"v\">two&amp;2</p></r>";
  StringSource whole(xml);
  auto expected = std::move(Trace(&whole).ValueOrDie());
  ChunkedSource src(xml, 1);
  Result<std::vector<TracedEvent>> got = Trace(&src);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), expected);
}

TEST(SaxViewTest, AttrValueViewsSurviveUntilDrained) {
  // Attribute values live in the parser's tag arena: the synthetic
  // attribute events of one tag must all be readable as they drain, not
  // just the last one.
  StringSource src("<a x=\"1\" y=\"22\" z=\"333\"/>");
  SaxParser p(&src);
  std::vector<std::string> texts;
  XmlEvent ev;
  do {
    ASSERT_TRUE(p.Next(&ev).ok());
    if (ev.type == XmlEventType::kText) texts.emplace_back(ev.text);
  } while (ev.type != XmlEventType::kEndOfDocument);
  EXPECT_EQ(texts, (std::vector<std::string>{"1", "22", "333"}));
}

// ---- MmapSource ----

TEST(MmapSourceTest, ParsesLikeInMemory) {
  const std::string xml = "<doc><a k=\"v\">text</a><b/></doc>";
  std::string path = ::testing::TempDir() + "/xqmft_mmap_test.xml";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(xml.data(), 1, xml.size(), f);
  std::fclose(f);

  Forest from_file = std::move(ParseXmlFile(path).ValueOrDie());
  Forest from_mem = std::move(ParseXmlForest(xml).ValueOrDie());
  EXPECT_EQ(from_file, from_mem);

  // The source reports a stable whole-input region (the mapping).
  auto src = std::move(MmapSource::Open(path).ValueOrDie());
  std::string_view all;
  ASSERT_TRUE(src->Contents(&all));
  EXPECT_EQ(all, xml);
  std::remove(path.c_str());
}

TEST(MmapSourceTest, MissingFileFails) {
  EXPECT_FALSE(MmapSource::Open("/nonexistent/xqmft/nope.xml").ok());
}

TEST(SinkTest, StringSinkSerializes) {
  StringSink sink;
  sink.StartElement("a");
  sink.Text("x<y");
  sink.StartElement("b");
  sink.EndElement("b");
  sink.EndElement("a");
  EXPECT_EQ(sink.str(), "<a>x&lt;y<b></b></a>");
}

TEST(SinkTest, CountingSinkCounts) {
  CountingSink sink;
  sink.StartElement("a");
  sink.Text("hello");
  sink.EndElement("a");
  EXPECT_EQ(sink.elements(), 1u);
  EXPECT_EQ(sink.texts(), 1u);
  EXPECT_GT(sink.bytes(), 5u);
}

TEST(SinkTest, CountingSinkMatchesStringSinkBytes) {
  // Regression: CountingSink used to charge raw text sizes while
  // StringSink/FileSink serialize *escaped* text — the two must agree on
  // every balanced stream, including content that needs escaping.
  CountingSink counting;
  StringSink str;
  for (OutputSink* sink : {static_cast<OutputSink*>(&counting),
                           static_cast<OutputSink*>(&str)}) {
    sink->StartElement("r");
    sink->Text("a & b < c > d");
    sink->StartElement("item");
    sink->Text("plain");
    sink->EndElement("item");
    sink->Text("&&&");
    sink->EndElement("r");
  }
  EXPECT_EQ(counting.bytes(), str.str().size());
}

// ---- Property sweep: parse(serialize(f)) == f for random forests. ----

Forest RandomForest(Rng* rng, int depth, int max_width) {
  Forest f;
  int width = static_cast<int>(rng->Below(static_cast<std::uint64_t>(max_width) + 1));
  for (int i = 0; i < width; ++i) {
    if (depth > 0 && rng->Chance(3, 5)) {
      std::string name(1, static_cast<char>('a' + rng->Below(6)));
      f.push_back(Tree::Element(name, RandomForest(rng, depth - 1, max_width)));
    } else {
      // Text content avoiding pure whitespace and adjacent-merge ambiguity:
      // never generate two adjacent text nodes.
      if (!f.empty() && f.back().kind == NodeKind::kText) continue;
      std::string content = "t" + std::to_string(rng->Below(100));
      f.push_back(Tree::Text(content));
    }
  }
  return f;
}

class XmlRoundTripProperty : public ::testing::TestWithParam<int> {};

TEST_P(XmlRoundTripProperty, ParseSerializeIdentity) {
  Rng rng(GetParam());
  Forest f = RandomForest(&rng, 4, 4);
  // Wrap in a root so the XML is a single document.
  Forest doc;
  doc.push_back(Tree::Element("root", f));
  std::string xml = ForestToXml(doc);
  Forest parsed = std::move(ParseXmlForest(xml).ValueOrDie());
  EXPECT_EQ(parsed, doc) << "xml: " << xml;
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlRoundTripProperty,
                         ::testing::Range(0, 50));

// ---- SIMD char-class scanning parity. ----

TEST(SimdScanTest, SimdAndScalarTracesAgree) {
  // A document stressing every bulk-scan state: long text runs (longer than
  // one SIMD vector), long names, attribute values, whitespace runs, and
  // stop bytes at every offset within a vector. Parsed with the SIMD fast
  // path on and off, the event traces must be identical — including with a
  // 1-byte refill window, where every scan crosses a buffer boundary.
  std::string xml = "<root>";
  std::string longtext(100, 'x');
  for (int i = 0; i < 40; ++i) {
    std::string name = "elem" + std::string(static_cast<std::size_t>(i % 20), 'n');
    xml += "<" + name + " attr=\"" + longtext.substr(0, 3 + i) + "\">";
    xml += longtext.substr(0, 1 + 2 * i) + "&amp;tail";
    xml += std::string(1 + i % 7, ' ');
    xml += "</" + name + ">";
  }
  xml += "</root>";

  const bool was_enabled = SimdScanEnabled();
  SetSimdScanEnabled(true);
  StringSource simd_src(xml);
  auto simd_trace = Trace(&simd_src);
  ASSERT_TRUE(simd_trace.ok()) << simd_trace.status().ToString();

  SetSimdScanEnabled(false);
  StringSource scalar_src(xml);
  auto scalar_trace = Trace(&scalar_src);
  ASSERT_TRUE(scalar_trace.ok()) << scalar_trace.status().ToString();
  EXPECT_EQ(simd_trace.value(), scalar_trace.value());

  // Chunked refill with the fast path on: identical to the whole-buffer
  // scalar trace.
  SetSimdScanEnabled(true);
  ChunkedSource chunked(xml, 1);
  auto chunked_trace = Trace(&chunked);
  ASSERT_TRUE(chunked_trace.ok()) << chunked_trace.status().ToString();
  EXPECT_EQ(chunked_trace.value(), scalar_trace.value());

  SetSimdScanEnabled(was_enabled);
}

// The skip kernel against its scalar definition: a stop byte ('<' or '&')
// at every offset within (and past) a vector, with '\n' at every offset
// before, at and after it, plus random mixes — same length, same newline
// count, same offset past the last newline.
TEST(SimdScanTest, SkipKernelMatchesScalarAtEveryOffset) {
  struct Scan {
    std::size_t take, newlines, line_end;
    bool operator==(const Scan& o) const {
      return take == o.take && newlines == o.newlines &&
             line_end == o.line_end;
    }
  };
  auto scan = [](const std::string& buf, bool simd) {
    SetSimdScanEnabled(simd);
    Scan s{};
    s.take = ScanSkipRun(buf.data(), buf.size(), &s.newlines, &s.line_end);
    return s;
  };
  auto scalar_reference = [](const std::string& buf) {
    Scan s{};
    for (; s.take < buf.size(); ++s.take) {
      const char c = buf[s.take];
      if (c == '<' || c == '&') break;
      if (c == '\n') {
        ++s.newlines;
        s.line_end = s.take + 1;
      }
    }
    return s;
  };
  const bool was_enabled = SimdScanEnabled();
  for (char stop : {'<', '&'}) {
    for (std::size_t at = 0; at <= 48; ++at) {
      for (std::size_t nl = 0; nl <= 49; ++nl) {
        std::string buf(48, 'x');
        if (nl < buf.size()) buf[nl] = '\n';
        if (nl + 17 < buf.size()) buf[nl + 17] = '\n';  // a second vector
        if (at < buf.size()) buf[at] = stop;
        const Scan want = scalar_reference(buf);
        EXPECT_EQ(scan(buf, false), want) << "at=" << at << " nl=" << nl;
        EXPECT_EQ(scan(buf, true), want) << "at=" << at << " nl=" << nl;
      }
    }
  }
  Rng rng(11);
  const char alphabet[] = {'a', ' ', '\n', '\n', '<', '&', '>', '\r'};
  for (int round = 0; round < 2000; ++round) {
    std::string buf(rng.Below(80), 'a');
    for (char& c : buf) {
      c = alphabet[rng.Below(rng.Chance(1, 2) ? 4 : sizeof alphabet)];
    }
    const Scan want = scalar_reference(buf);
    EXPECT_EQ(scan(buf, false), want) << buf;
    EXPECT_EQ(scan(buf, true), want) << buf;
  }
  SetSimdScanEnabled(was_enabled);
}

// XQMFT_SIMD=off selects the scalar scanners for the whole process (ctest
// runs this suite a second time under it, as xml_test_simd_off).
TEST(SimdScanTest, EnvironmentSelectsThePath) {
  const char* env = std::getenv("XQMFT_SIMD");
  const bool off = env != nullptr &&
                   (std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0);
  EXPECT_EQ(SimdScanEnabled(), SimdScanAvailable() && !off);
}

// ---- Projection skip: SkipElement accepts and rejects what Next() does. ----

// Malformed documents whose fault sits inside some element, so a skip of an
// enclosing element must find it: one per lexer error.
const char* const kMalformedCorpus[] = {
    "<r><a><b></a></b></r>",
    "<r><a>\n<b>\n x</c></a></r>",
    "<r><a>&unknown;</a></r>",
    "<r><a>&#0;</a></r>",
    "<r><a>&#x110000;</a></r>",
    "<r><a>&waytoolongname;</a></r>",
    "<r><a>&amp</a></r>",
    "<r><a>&amp",
    "<r><a x=1/></r>",
    "<r><a x></a></r>",
    "<r><a x='v\"/></r>",
    "<r><a x='&bogus;'/></r>",
    "<r><a x = \"v\" y='w' / ></a></r>",
    "<r><a><1b/></a></r>",
    "<r><a></ a></r>",
    "<r><a><</a></r>",
    "<r><a></a",
    "<r><a></a x></r>",
    "<r><a><b",
    "<r><a><b x=",
    "<r><a><",
    "<r><a><![CDATA[never closed",
    "<r><a><![CDAT[x]]></a></r>",
    "<r><a><!-- unterminated",
    "<r><a><!- x --></a></r>",
    "<r><a><?pi unterminated",
    "<r><a><!DOCTYPE x [ <!ELEMENT x ANY> ",
    "<r><a>unclosed",
    "<r><a><b>\n\n</b>\n",
    "<r><a></b></a></r>",
    "<r><a><b></B></a></r>",
    "<r><abc></ab></abc></r>",
    "<r><ab></abc></ab></r>",
};

// Valid documents touching every construct a skip walks through, nested so
// each start tag has a different subtree below it.
const char* const kSkipSeeds[] = {
    "<r><a x=\"1\" y='&lt;2&gt;'><b>t&amp;u</b><c/>\n<!-- c -->"
    "<?p i?><![CDATA[<x>]]></a><d>v</d></r>",
    "<site><people><person id=\"p0\"><name>A\nB</name></person>"
    "<person id='p1'><name>C</name><age>3</age></person></people>"
    "<regions><item><text>x y\nz</text></item></regions></site>",
    "<a><a><a>deep</a></a><a/></a>",
};

// Byte mutants of the seeds: each replaces, drops or duplicates one byte,
// drawing replacements from the bytes the lexer branches on.
std::vector<std::string> MutatedDocuments() {
  const char interesting[] = {'<', '>', '/', '&', ';', '"', '\'', '=',
                              '!', '?', '-', '[', ']', ' ', '\n', 'a',
                              '1', '#', 'x'};
  std::vector<std::string> docs;
  Rng rng(29);
  for (const char* seed : kSkipSeeds) {
    const std::string base = seed;
    for (int m = 0; m < 48; ++m) {
      std::string doc = base;
      const std::size_t at = rng.Below(doc.size());
      switch (rng.Below(3)) {
        case 0:
          doc[at] = interesting[rng.Below(sizeof interesting)];
          break;
        case 1:
          doc.erase(at, 1);
          break;
        default:
          doc.insert(at, 1, doc[at]);
          break;
      }
      docs.push_back(doc);
    }
  }
  return docs;
}

// For every start tag of `xml`, skipping it and pulling it through Next()
// must agree — on the whole input (mapped) and at every refill size 1..64.
void ExpectSkipMatchesFullLex(const std::string& xml) {
  for (std::size_t k = 0;; ++k) {
    StringSource full_src(xml);
    SaxParser full(&full_src);
    const SkipOutcome want = ConsumeElement(&full, k, /*skip=*/false);
    StringSource skip_src(xml);
    SaxParser skipper(&skip_src);
    EXPECT_EQ(ConsumeElement(&skipper, k, /*skip=*/true), want)
        << "mapped, start " << k << " of " << xml;
    for (std::size_t chunk = 1; chunk <= 64; ++chunk) {
      ChunkedSource chunked_full(xml, chunk);
      SaxParser full_parser(&chunked_full);
      ChunkedSource chunked_skip(xml, chunk);
      SaxParser skip_parser(&chunked_skip);
      // Refill boundaries change nothing either way.
      ASSERT_EQ(ConsumeElement(&full_parser, k, false), want)
          << "chunk " << chunk << ", start " << k << " of " << xml;
      ASSERT_EQ(ConsumeElement(&skip_parser, k, true), want)
          << "chunk " << chunk << ", start " << k << " of " << xml;
    }
    if (!want.reached) return;
  }
}

TEST(SaxSkipTest, ConformanceCorpusSkipsLikeFullLex) {
  for (const char* xml : kConformanceCorpus) ExpectSkipMatchesFullLex(xml);
  for (const char* xml : kSkipSeeds) ExpectSkipMatchesFullLex(xml);
}

TEST(SaxSkipTest, MalformedCorpusFailsLikeFullLex) {
  for (const char* xml : kMalformedCorpus) {
    // Skipping the outer <r> must fail exactly as lexing it does.
    StringSource src(xml);
    SaxParser parser(&src);
    SkipOutcome got = ConsumeElement(&parser, 0, /*skip=*/true);
    EXPECT_NE(got.status, "OK") << xml;
    ExpectSkipMatchesFullLex(xml);
  }
}

TEST(SaxSkipTest, MutatedDocumentsSkipLikeFullLex) {
  for (const std::string& xml : MutatedDocuments()) {
    ExpectSkipMatchesFullLex(xml);
  }
}

TEST(SaxSkipTest, SkipDropsQueuedAttributeAndSelfCloseEvents) {
  StringSource src("<r><a x=\"1\" y=\"2\"/><b>t</b></r>");
  SaxParser parser(&src);
  XmlEvent ev;
  ASSERT_TRUE(parser.Next(&ev).ok());  // <r>
  ASSERT_TRUE(parser.Next(&ev).ok());  // <a ...> (self-closing)
  ASSERT_EQ(ev.name, "a");
  ASSERT_TRUE(parser.SkipElement(nullptr).ok());
  ASSERT_TRUE(parser.Next(&ev).ok());
  EXPECT_EQ(ev.type, XmlEventType::kStartElement);
  EXPECT_EQ(ev.name, "b");
}

TEST(SaxSkipTest, SkipOfAnExpandedAttributeDropsOnlyThatAttribute) {
  StringSource src("<r><a x=\"1\" y=\"2\"/></r>");
  SaxParser parser(&src);
  XmlEvent ev;
  ASSERT_TRUE(parser.Next(&ev).ok());  // <r>
  ASSERT_TRUE(parser.Next(&ev).ok());  // <a>
  ASSERT_TRUE(parser.Next(&ev).ok());  // <x>, from the pending queue
  ASSERT_EQ(ev.name, "x");
  ASSERT_TRUE(parser.SkipElement(nullptr).ok());
  auto rest = Trace(static_cast<EventSource*>(&parser));
  ASSERT_TRUE(rest.ok()) << rest.status().ToString();
  const std::vector<TracedEvent> want = {
      {XmlEventType::kStartElement, "y", ""},
      {XmlEventType::kText, "", "2"},
      {XmlEventType::kEndElement, "y", ""},
      {XmlEventType::kEndElement, "a", ""},
      {XmlEventType::kEndElement, "r", ""},
      {XmlEventType::kEndOfDocument, "", ""}};
  EXPECT_EQ(rest.value(), want);
}

TEST(SaxSkipTest, SkipNeedsAStartTag) {
  StringSource src("<r>t<a/></r>");
  SaxParser parser(&src);
  XmlEvent ev;
  EXPECT_EQ(parser.SkipElement(nullptr).code(), StatusCode::kInternal);
  ASSERT_TRUE(parser.Next(&ev).ok());  // <r>
  ASSERT_TRUE(parser.Next(&ev).ok());  // "t"
  EXPECT_EQ(parser.SkipElement(nullptr).code(), StatusCode::kInternal);
  ASSERT_TRUE(parser.Next(&ev).ok());  // <a/>
  ASSERT_TRUE(parser.SkipElement(nullptr).ok());
  // One skip per start tag.
  EXPECT_EQ(parser.SkipElement(nullptr).code(), StatusCode::kInternal);
}

TEST(SaxSkipTest, SkipInternsNoNames) {
  SymbolTable symbols;
  StringSource src("<r><a><never_seen x='1'/></a><b/></r>");
  SaxParser parser(&src, {}, &symbols);
  XmlEvent ev;
  ASSERT_TRUE(parser.Next(&ev).ok());  // <r>
  ASSERT_TRUE(parser.Next(&ev).ok());  // <a>
  const std::size_t before = symbols.size();
  ASSERT_TRUE(parser.SkipElement(nullptr).ok());
  EXPECT_EQ(symbols.size(), before);
  ASSERT_TRUE(parser.Next(&ev).ok());
  EXPECT_EQ(ev.name, "b");
}

}  // namespace
}  // namespace xqmft
