// Parser front-end microbenchmarks: raw scan throughput (MB/s) and event
// rates for the three input paths —
//
//   sax/*          bulk-scanning lexer over an in-memory (mapped) region
//   sax_chunked/*  same lexer behind a Read()-only source (refill path,
//                  what stdin/pipe input pays)
//   pretok/*       pre-tokenized binary events, zero scanning
//
// and the projection skip (EventSource::SkipElement) over each Table 1
// document, skipping everything below the root element — the ceiling of
// what a projected-out subtree costs per byte:
//
//   sax_skip/<doc>/mapped    SaxParser::SkipElement over the whole region
//   sax_skip/<doc>/chunked   same behind 64 KiB Read() refills (stdin)
//   pretok_skip/<doc>        PretokSource::SkipElement over the records
//
// plus a text-heavy document isolating the memchr text scan and a
// markup-heavy one isolating name/attr scanning. items_per_second = events/s
// and bytes_per_second = input MB/s in the JSON report; the BENCH_pr3
// acceptance bar is pretok >= 2x sax on events/s over XMark.
#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <string>

#include "data/generators.h"
#include "xml/events.h"
#include "xml/pretok.h"
#include "xml/sax_parser.h"

namespace xqmft {
namespace {

std::size_t EnvMb(const char* name, std::size_t def_mb) {
  const char* v = std::getenv(name);
  if (v == nullptr) return def_mb * 1024 * 1024;
  return static_cast<std::size_t>(std::atoll(v)) * 1024 * 1024;
}

const std::string& XmarkDoc() {
  static const std::string doc = [] {
    auto r = GenerateDatasetString(DatasetKind::kXmark,
                                   EnvMb("XQMFT_BENCH_PARSER_MB", 4), 7);
    return r.ok() ? std::move(r).value() : std::string();
  }();
  return doc;
}

// A document whose bytes are almost all character data: the text-until-'<'
// scan dominates, giving the raw bulk-scan MB/s ceiling.
const std::string& TextHeavyDoc() {
  static const std::string doc = [] {
    std::string d = "<doc>";
    std::string line = "The quick brown fox jumps over the lazy dog; ";
    std::string para;
    for (int i = 0; i < 80; ++i) para += line;
    for (int i = 0; i < 200; ++i) {
      d += "<p>";
      d += para;
      d += "</p>";
    }
    d += "</doc>";
    return d;
  }();
  return doc;
}

// A document that is almost all tags and attributes: names and attr values
// dominate, exercising the class-table and quote scans.
const std::string& MarkupHeavyDoc() {
  static const std::string doc = [] {
    std::string d = "<doc>";
    for (int i = 0; i < 40000; ++i) {
      d += "<item id=\"00000000\" cat=\"tools\"><v/><v/></item>";
    }
    d += "</doc>";
    return d;
  }();
  return doc;
}

// Read()-only wrapper: hides Contents() so the parser takes the refill path.
class OpaqueSource : public ByteSource {
 public:
  explicit OpaqueSource(std::string_view s) : s_(s) {}
  std::size_t Read(char* buf, std::size_t n) override {
    std::size_t avail = s_.size() - pos_;
    std::size_t take = n < avail ? n : avail;
    std::memcpy(buf, s_.data() + pos_, take);
    pos_ += take;
    return take;
  }

 private:
  std::string_view s_;
  std::size_t pos_ = 0;
};

template <typename MakeSource>
void DrainParser(benchmark::State& state, const std::string& doc,
                 const MakeSource& make) {
  if (doc.empty()) {
    state.SkipWithError("document generation failed");
    return;
  }
  std::size_t events = 0;
  for (auto _ : state) {
    auto source = make(doc);
    SaxParser parser(&*source);
    XmlEvent ev;
    events = 0;
    while (true) {
      Status st = parser.Next(&ev);
      if (!st.ok()) {
        state.SkipWithError(st.ToString().c_str());
        return;
      }
      if (ev.type == XmlEventType::kEndOfDocument) break;
      ++events;
      benchmark::DoNotOptimize(ev.text.data());
    }
  }
  state.counters["events"] = static_cast<double>(events);
  state.SetItemsProcessed(static_cast<int64_t>(events * state.iterations()));
  state.SetBytesProcessed(
      static_cast<int64_t>(doc.size() * state.iterations()));
}

void BenchSax(benchmark::State& state, const std::string& doc) {
  DrainParser(state, doc, [](const std::string& d) {
    return std::make_unique<StringSource>(d);
  });
}

void BenchSaxChunked(benchmark::State& state, const std::string& doc) {
  DrainParser(state, doc, [](const std::string& d) {
    return std::make_unique<OpaqueSource>(d);
  });
}

void BenchPretok(benchmark::State& state, const std::string& doc) {
  if (doc.empty()) {
    state.SkipWithError("document generation failed");
    return;
  }
  std::string pretok;
  {
    StringSource src(doc);
    Status st = PretokenizeXml(&src, {}, &pretok);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  std::size_t events = 0;
  for (auto _ : state) {
    PretokSource src(pretok);
    XmlEvent ev;
    events = 0;
    while (true) {
      Status st = src.Next(&ev);
      if (!st.ok()) {
        state.SkipWithError(st.ToString().c_str());
        return;
      }
      if (ev.type == XmlEventType::kEndOfDocument) break;
      ++events;
      benchmark::DoNotOptimize(ev.text.data());
    }
  }
  state.counters["events"] = static_cast<double>(events);
  state.counters["pretok_bytes"] = static_cast<double>(pretok.size());
  state.SetItemsProcessed(static_cast<int64_t>(events * state.iterations()));
  // Bytes are the *XML* bytes this pass replaced, so MB/s columns compare
  // like for like across the three series.
  state.SetBytesProcessed(
      static_cast<int64_t>(doc.size() * state.iterations()));
}

const std::string& Table1Doc(DatasetKind kind) {
  static std::string docs[4];
  static bool made[4] = {};
  const int i = static_cast<int>(kind);
  if (!made[i]) {
    auto r = GenerateDatasetString(kind, EnvMb("XQMFT_BENCH_PARSER_MB", 4), 7);
    if (r.ok()) docs[i] = std::move(r).value();
    made[i] = true;
  }
  return docs[i];
}

// Next() to the root's start, SkipElement() through its end, Next() to the
// end of the document; reports the bytes the skip consumed.
Status SkipRoot(EventSource* events, std::size_t* bytes_skipped) {
  XmlEvent ev;
  XQMFT_RETURN_NOT_OK(events->Next(&ev));
  if (ev.type != XmlEventType::kStartElement) {
    return Status::InvalidArgument("document has no root element");
  }
  const std::size_t before = events->bytes_consumed();
  XQMFT_RETURN_NOT_OK(events->SkipElement(nullptr));
  *bytes_skipped = events->bytes_consumed() - before;
  XQMFT_RETURN_NOT_OK(events->Next(&ev));
  if (ev.type != XmlEventType::kEndOfDocument) {
    return Status::InvalidArgument("expected one root element");
  }
  return Status::OK();
}

template <typename MakeEvents>
void BenchSkip(benchmark::State& state, const std::string& doc,
               const MakeEvents& make) {
  if (doc.empty()) {
    state.SkipWithError("document generation failed");
    return;
  }
  std::size_t bytes_skipped = 0;
  for (auto _ : state) {
    Status st = make([&](EventSource* events) {
      return SkipRoot(events, &bytes_skipped);
    });
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  state.counters["bytes_skipped"] = static_cast<double>(bytes_skipped);
  state.SetBytesProcessed(
      static_cast<int64_t>(doc.size() * state.iterations()));
}

void BenchSaxSkip(benchmark::State& state, const std::string& doc,
                  bool chunked) {
  BenchSkip(state, doc, [&](const auto& skip) {
    std::unique_ptr<ByteSource> source;
    if (chunked) {
      source = std::make_unique<OpaqueSource>(doc);
    } else {
      source = std::make_unique<StringSource>(doc);
    }
    SaxParser parser(source.get());
    return skip(&parser);
  });
}

void BenchPretokSkip(benchmark::State& state, const std::string& doc) {
  std::string pretok;
  if (!doc.empty()) {
    StringSource src(doc);
    Status st = PretokenizeXml(&src, {}, &pretok);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  BenchSkip(state, doc, [&](const auto& skip) {
    PretokSource source(pretok);
    return skip(&source);
  });
  // Bytes are the XML bytes the skipped records stand for, as in pretok/*.
  state.counters["pretok_bytes"] = static_cast<double>(pretok.size());
}

void Register() {
  struct Doc {
    const char* name;
    const std::string& (*get)();
  };
  const Doc docs[] = {
      {"xmark", XmarkDoc},
      {"text_heavy", TextHeavyDoc},
      {"markup_heavy", MarkupHeavyDoc},
  };
  for (const Doc& d : docs) {
    benchmark::RegisterBenchmark(
        (std::string("sax/") + d.name).c_str(),
        [get = d.get](benchmark::State& st) { BenchSax(st, get()); })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        (std::string("sax_chunked/") + d.name).c_str(),
        [get = d.get](benchmark::State& st) { BenchSaxChunked(st, get()); })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        (std::string("pretok/") + d.name).c_str(),
        [get = d.get](benchmark::State& st) { BenchPretok(st, get()); })
        ->Unit(benchmark::kMillisecond);
  }
  for (DatasetKind kind : {DatasetKind::kXmark, DatasetKind::kTreebank,
                           DatasetKind::kMedline, DatasetKind::kProtein}) {
    const std::string name = DatasetName(kind);
    for (bool chunked : {false, true}) {
      benchmark::RegisterBenchmark(
          ("sax_skip/" + name + (chunked ? "/chunked" : "/mapped")).c_str(),
          [kind, chunked](benchmark::State& st) {
            BenchSaxSkip(st, Table1Doc(kind), chunked);
          })
          ->Unit(benchmark::kMillisecond);
    }
    benchmark::RegisterBenchmark(
        ("pretok_skip/" + name).c_str(),
        [kind](benchmark::State& st) {
          BenchPretokSkip(st, Table1Doc(kind));
        })
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace
}  // namespace xqmft

int main(int argc, char** argv) {
  xqmft::Register();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
