// perfbench_probe: the benchmark's in-process helper. It never measures the
// end-to-end numbers (those come from `xqmft` child processes); it prepares
// inputs, computes the GCX oracle digests, and runs the traced per-layer pass.
//
//   perfbench_probe queries
//       JSON object {id: {"text": ..., "gcx": bool}} of the Figure 3 corpus.
//   perfbench_probe gen <xmark|treebank> <bytes> <seed> <out.xml>
//       Writes one seeded generated document.
//   perfbench_probe oracle  < JSON lines {"key","query","doc"}
//       Runs GcxQuery::Run per line and prints {"key","doc","bytes","crc"}:
//       the length and CRC-32 of the serialized output plus the trailing
//       newline `xqmft run` prints, i.e. exactly the bytes a correct run
//       writes. Queries are compiled once per distinct text.
//   perfbench_probe calibrate
//       Fixed reference work whose wall time measures the host's current
//       speed (see CmdCalibrate).
//   perfbench_probe trace  < JSON lines {"op","query","doc","ptk","repeat"}
//       For each operation, times calls into each layer's public entry
//       points (the compile layers once, the stream layers `repeat` times)
//       and prints one JSON span per line:
//       {"id","parent","op","name","start_ns","end_ns","attrs":{...}}.
//       "ptk" names the operation's pretok input ("" for XML operations).
//
// Digests use the zlib CRC-32 polynomial so run.py can compare
// them with Python's zlib.crc32 over child output.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common/queries.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "gcx/gcx_engine.h"
#include "lower/lower.h"
#include "mft/optimize.h"
#include "service/json.h"
#include "translate/translate.h"
#include "util/strings.h"
#include "xml/pretok.h"
#include "xml/sax_parser.h"
#include "xquery/ast.h"

namespace xqmft {
namespace {

// ---- CRC-32 (reflected 0xEDB88320, as zlib) ----

struct Crc32 {
  std::uint32_t table[8][256];
  Crc32() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      table[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      for (int t = 1; t < 8; ++t) {
        table[t][i] = (table[t - 1][i] >> 8) ^ table[0][table[t - 1][i] & 0xFF];
      }
    }
  }
  // Slicing-by-8 update of a running (pre-inverted) crc.
  std::uint32_t Update(std::uint32_t crc, const char* p, std::size_t n) const {
    crc = ~crc;
    const auto* b = reinterpret_cast<const unsigned char*>(p);
    while (n >= 8) {
      std::uint32_t lo = crc ^ (b[0] | b[1] << 8 | b[2] << 16 |
                                static_cast<std::uint32_t>(b[3]) << 24);
      crc = table[7][lo & 0xFF] ^ table[6][(lo >> 8) & 0xFF] ^
            table[5][(lo >> 16) & 0xFF] ^ table[4][lo >> 24] ^
            table[3][b[4]] ^ table[2][b[5]] ^ table[1][b[6]] ^ table[0][b[7]];
      b += 8;
      n -= 8;
    }
    while (n-- > 0) crc = (crc >> 8) ^ table[0][(crc ^ *b++) & 0xFF];
    return ~crc;
  }
};

const Crc32& Crc() {
  static const Crc32 kCrc;
  return kCrc;
}

// Serializes exactly like FileSink, but into a buffer that is either folded
// into a digest (oracle) or dropped (timing the serialization work alone).
class SerializingSink : public OutputSink {
 public:
  explicit SerializingSink(bool digest) : digest_(digest) {
    buf_.reserve(kFlushAt * 2);
  }
  void StartElement(std::string_view name) override {
    buf_ += '<';
    buf_ += name;
    buf_ += '>';
    MaybeFlush();
  }
  void EndElement(std::string_view name) override {
    buf_ += "</";
    buf_ += name;
    buf_ += '>';
    MaybeFlush();
  }
  void Text(std::string_view content) override {
    buf_ += XmlEscape(content);
    MaybeFlush();
  }
  void Flush() {
    bytes_ += buf_.size();
    if (digest_) crc_ = Crc().Update(crc_, buf_.data(), buf_.size());
    buf_.clear();
  }
  std::uint64_t bytes() const { return bytes_; }
  std::uint32_t crc() const { return crc_; }

 private:
  static constexpr std::size_t kFlushAt = 1 << 16;
  void MaybeFlush() {
    if (buf_.size() >= kFlushAt) Flush();
  }
  bool digest_;
  std::string buf_;
  std::uint64_t bytes_ = 0;
  std::uint32_t crc_ = 0;
};

int Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench_probe: %s\n", what.c_str());
  return 1;
}

std::string JsonStr(std::string_view s) {
  std::string out;
  AppendJsonString(&out, s);
  return out;
}

const std::string& Field(const JsonValue& v, const char* key) {
  static const std::string kEmpty;
  const JsonValue* f = v.Find(key);
  return f != nullptr && f->is_string() ? f->string : kEmpty;
}

Result<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::InvalidArgument("cannot open " + path);
  std::string out;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

// ---- queries / gen ----

int CmdQueries() {
  std::string out = "{";
  for (const BenchQuery& q : Figure3Queries()) {
    if (out.size() > 1) out += ",";
    out += JsonStr(q.id) + ":{\"text\":" + JsonStr(q.text) +
           ",\"gcx\":" + (q.gcx_supported ? "true" : "false") + "}";
  }
  out += "}";
  std::printf("%s\n", out.c_str());
  return 0;
}

int CmdGen(int argc, char** argv) {
  if (argc != 6) {
    return Fail("usage: gen <xmark|treebank> <bytes> <seed> <out>");
  }
  std::string kind_name = argv[2];
  DatasetKind kind;
  if (kind_name == "xmark") {
    kind = DatasetKind::kXmark;
  } else if (kind_name == "treebank") {
    kind = DatasetKind::kTreebank;
  } else {
    return Fail("unknown dataset kind " + kind_name);
  }
  std::size_t bytes = std::strtoull(argv[3], nullptr, 10);
  std::uint64_t seed = std::strtoull(argv[4], nullptr, 10);
  std::FILE* f = std::fopen(argv[5], "wb");
  if (f == nullptr) return Fail(std::string("cannot create ") + argv[5]);
  Status st = GenerateDataset(kind, bytes, seed, f);
  if (std::fclose(f) != 0 && st.ok()) st = Status::Internal("write failed");
  return st.ok() ? 0 : Fail(st.ToString());
}

// ---- calibrate ----

// The host-speed reference: fixed work in code that belongs to the
// benchmark, not to xqmft, so no change to the program can move it. It
// builds a fixed pseudo-markup buffer from a linear congruential generator
// and scans it the way a tokenizer touches bytes (byte classes, tag-name
// hashing). Prints a checksum so the work cannot be optimized away.
int CmdCalibrate() {
  static const char* const kNames[] = {"site", "item", "name", "description",
                                       "person", "bidder", "increase", "text"};
  constexpr std::size_t kBytes = 4u << 20;
  std::string buf;
  buf.reserve(kBytes + 64);
  std::uint64_t lcg = 88172645463325252ull;
  while (buf.size() < kBytes) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const char* name = kNames[(lcg >> 33) & 7];
    buf += '<';
    buf += name;
    buf += '>';
    for (std::uint64_t n = (lcg >> 40) & 31; n > 0; --n) {
      buf += static_cast<char>('a' + ((lcg >> (n % 24)) % 26));
    }
    buf += "</";
    buf += name;
    buf += '>';
  }
  std::uint64_t hash = 1469598103934665603ull;
  std::uint64_t tags = 0;
  std::uint64_t text = 0;
  for (int pass = 0; pass < 3; ++pass) {
    bool in_tag = false;
    for (char c : buf) {
      if (c == '<') {
        in_tag = true;
        ++tags;
      } else if (c == '>') {
        in_tag = false;
      } else if (in_tag) {
        hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ull;
      } else {
        ++text;
      }
    }
  }
  std::printf("%llu %llu %016llx\n", static_cast<unsigned long long>(tags),
              static_cast<unsigned long long>(text),
              static_cast<unsigned long long>(hash));
  return 0;
}

// ---- oracle ----

int CmdOracle() {
  // The compiled GCX query refers into its parsed expression, so both live
  // for the whole command.
  struct Oracle {
    std::unique_ptr<QueryExpr> expr;
    std::unique_ptr<GcxQuery> gcx;
  };
  std::map<std::string, Oracle> compiled;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    Result<JsonValue> req = ParseJson(line);
    if (!req.ok()) return Fail("bad oracle line: " + req.status().ToString());
    const std::string& key = Field(req.value(), "key");
    const std::string& text = Field(req.value(), "query");
    const std::string& doc = Field(req.value(), "doc");
    auto it = compiled.find(text);
    if (it == compiled.end()) {
      Result<std::unique_ptr<QueryExpr>> q = ParseQuery(text);
      if (!q.ok()) return Fail(key + ": " + q.status().ToString());
      Result<std::unique_ptr<GcxQuery>> g = GcxQuery::Compile(*q.value());
      if (!g.ok()) return Fail(key + ": GCX: " + g.status().ToString());
      Oracle oracle{std::move(q).value(), std::move(g).value()};
      it = compiled.emplace(text, std::move(oracle)).first;
    }
    Result<std::unique_ptr<ByteSource>> src = MmapSource::Open(doc);
    if (!src.ok()) return Fail(src.status().ToString());
    SerializingSink sink(/*digest=*/true);
    Status st = it->second.gcx->Run(src.value().get(), &sink);
    if (!st.ok()) return Fail(key + " over " + doc + ": " + st.ToString());
    sink.Text("\n");  // the newline `xqmft run` prints after the output
    sink.Flush();
    std::printf("{\"key\":%s,\"doc\":%s,\"bytes\":%llu,\"crc\":%u}\n",
                JsonStr(key).c_str(), JsonStr(doc).c_str(),
                static_cast<unsigned long long>(sink.bytes()), sink.crc());
    std::fflush(stdout);
  }
  return 0;
}

// ---- trace ----

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// In-memory span recorder: spans are kept until the pass ends, then printed.
class Tracer {
 public:
  struct Span {
    int id;
    int parent;
    std::string op;
    std::string name;
    std::uint64_t start_ns;
    std::uint64_t end_ns = 0;
    std::string attrs;  // comma-joined "key":value pairs
  };

  int Begin(const std::string& op, const std::string& name, int parent) {
    spans_.push_back(Span{static_cast<int>(spans_.size()) + 1, parent, op,
                          name, NowNs()});
    return spans_.back().id;
  }
  void End(int id) { spans_[id - 1].end_ns = NowNs(); }
  void Attr(int id, const char* key, double value) {
    std::string& a = spans_[id - 1].attrs;
    if (!a.empty()) a += ",";
    a += JsonStr(key) + ":" + StrFormat("%.17g", value);
  }
  void Print() const {
    for (const Span& s : spans_) {
      std::printf(
          "{\"id\":%d,\"parent\":%d,\"op\":%s,\"name\":%s,\"start_ns\":%llu,"
          "\"end_ns\":%llu,\"attrs\":{%s}}\n",
          s.id, s.parent, JsonStr(s.op).c_str(), JsonStr(s.name).c_str(),
          static_cast<unsigned long long>(s.start_ns),
          static_cast<unsigned long long>(s.end_ns), s.attrs.c_str());
    }
  }

 private:
  std::vector<Span> spans_;
};

void StatsAttrs(Tracer* t, int span, const StreamStats& s) {
  t->Attr(span, "rule_applications", static_cast<double>(s.rule_applications));
  t->Attr(span, "cells_created", static_cast<double>(s.cells_created));
  t->Attr(span, "cells_arena", static_cast<double>(s.cells_arena));
  t->Attr(span, "exprs_created", static_cast<double>(s.exprs_created));
  t->Attr(span, "bridge_runs", static_cast<double>(s.bridge_runs));
  t->Attr(span, "output_events", static_cast<double>(s.output_events));
  t->Attr(span, "peak_bytes", static_cast<double>(s.peak_bytes));
  t->Attr(span, "bytes_in", static_cast<double>(s.bytes_in));
}

// Drains an event source to the end; returns the event count.
Result<std::uint64_t> Drain(EventSource* events) {
  std::uint64_t n = 0;
  XmlEvent ev;
  while (true) {
    XQMFT_RETURN_NOT_OK(events->Next(&ev));
    if (ev.type == XmlEventType::kEndOfDocument) return n;
    ++n;
  }
}

Status TraceOp(Tracer* t, const JsonValue& req) {
  const std::string& op = Field(req, "op");
  const std::string& text = Field(req, "query");
  const std::string& doc = Field(req, "doc");
  const std::string& ptk = Field(req, "ptk");
  const JsonValue* repeat_field = req.Find("repeat");
  const int repeat = repeat_field != nullptr && repeat_field->is_number()
                         ? static_cast<int>(repeat_field->number)
                         : 1;
  const int root = t->Begin(op, "op", 0);

  // Compile layers, one call each into the module entry points.
  int s = t->Begin(op, "xquery.parse", root);
  XQMFT_ASSIGN_OR_RETURN(std::unique_ptr<QueryExpr> query, ParseQuery(text));
  XQMFT_RETURN_NOT_OK(ValidateQuery(*query));
  t->End(s);
  s = t->Begin(op, "translate", root);
  XQMFT_ASSIGN_OR_RETURN(Mft raw, TranslateQuery(*query));
  t->End(s);
  s = t->Begin(op, "mft.optimize", root);
  OptimizeReport report;
  Mft optimized = OptimizeMft(raw, OptimizeOptions{}, &report);
  t->End(s);
  t->Attr(s, "rules_after", static_cast<double>(report.after.rules));
  t->Attr(s, "states_after", static_cast<double>(report.after.states));
  s = t->Begin(op, "lower", root);
  Result<lower::LoweredPlan> lowered = lower::LowerMft(optimized);
  t->End(s);
  if (lowered.ok()) {
    t->Attr(s, "code_insns", static_cast<double>(lowered.value().code.size()));
    t->Attr(s, "bridge_sites",
            static_cast<double>(lowered.value().bridge_sites.size()));
  }
  s = t->Begin(op, "core.compile", root);
  XQMFT_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledPlan> plan,
                         CompiledPlan::Compile(text));
  t->End(s);

  // Pretok bytes in memory: the operation's cache file, or built here.
  std::string pretok;
  if (!ptk.empty()) {
    XQMFT_ASSIGN_OR_RETURN(pretok, ReadFile(ptk));
  } else {
    XQMFT_ASSIGN_OR_RETURN(std::unique_ptr<ByteSource> src,
                           MmapSource::Open(doc));
    XQMFT_RETURN_NOT_OK(PretokenizeXml(src.get(), SaxOptions{}, &pretok));
  }
  // The stream layers, each timed `repeat` times (the pass reports medians).
  for (int rep = 0; rep < repeat; ++rep) {
    // Tokenizer: SaxParser::Next drained over the mapped XML document.
    {
      XQMFT_ASSIGN_OR_RETURN(std::unique_ptr<ByteSource> src,
                             MmapSource::Open(doc));
      SaxParser parser(src.get());
      s = t->Begin(op, "xml.tokenize", root);
      XQMFT_ASSIGN_OR_RETURN(std::uint64_t n, Drain(&parser));
      t->End(s);
      t->Attr(s, "events", static_cast<double>(n));
      t->Attr(s, "bytes", static_cast<double>(parser.bytes_consumed()));
    }

    {
      PretokSource events(pretok);
      s = t->Begin(op, "xml.pretok_decode", root);
      XQMFT_ASSIGN_OR_RETURN(std::uint64_t n, Drain(&events));
      t->End(s);
      t->Attr(s, "events", static_cast<double>(n));
    }

    // Engine core: StreamEvents over in-memory pretok, counting sink.
    {
      PretokSource events(pretok);
      CountingSink sink;
      StreamStats stats;
      s = t->Begin(op, "stream.events", root);
      XQMFT_RETURN_NOT_OK(plan->StreamEvents(&events, &sink, &stats));
      t->End(s);
      StatsAttrs(t, s, stats);
    }

    // In-process XML path (StreamFile), counting sink.
    {
      CountingSink sink;
      StreamStats stats;
      s = t->Begin(op, "stream.file", root);
      XQMFT_RETURN_NOT_OK(plan->StreamFile(doc, &sink, &stats));
      t->End(s);
      t->Attr(s, "bytes_in", static_cast<double>(stats.bytes_in));
    }

    // The operation's own input path with a counting and with a serializing
    // sink: the difference is what serialization costs.
    for (bool serialize : {false, true}) {
      CountingSink counting;
      SerializingSink serializing(/*digest=*/false);
      OutputSink* sink = serialize ? static_cast<OutputSink*>(&serializing)
                                   : static_cast<OutputSink*>(&counting);
      s = t->Begin(op, serialize ? "path.serialize" : "path.count", root);
      Status st;
      if (ptk.empty()) {
        st = plan->StreamFile(doc, sink);
      } else {
        XQMFT_ASSIGN_OR_RETURN(std::unique_ptr<PretokSource> events,
                               PretokSource::OpenFile(ptk));
        st = plan->StreamEvents(events.get(), sink);
      }
      if (serialize) serializing.Flush();
      t->End(s);
      XQMFT_RETURN_NOT_OK(st);
      if (serialize) {
        t->Attr(s, "output_bytes", static_cast<double>(serializing.bytes()));
      }
    }
  }
  t->End(root);
  return Status::OK();
}

int CmdTrace() {
  Tracer tracer;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    Result<JsonValue> req = ParseJson(line);
    if (!req.ok()) return Fail("bad trace line: " + req.status().ToString());
    Status st = TraceOp(&tracer, req.value());
    if (!st.ok()) return Fail(Field(req.value(), "op") + ": " + st.ToString());
  }
  tracer.Print();
  return 0;
}

}  // namespace
}  // namespace xqmft

int main(int argc, char** argv) {
  if (argc < 2) {
    return xqmft::Fail("usage: queries|gen|calibrate|oracle|trace");
  }
  const std::string cmd = argv[1];
  if (cmd == "queries") return xqmft::CmdQueries();
  if (cmd == "gen") return xqmft::CmdGen(argc, argv);
  if (cmd == "oracle") return xqmft::CmdOracle();
  if (cmd == "calibrate") return xqmft::CmdCalibrate();
  if (cmd == "trace") return xqmft::CmdTrace();
  return xqmft::Fail("unknown command " + cmd);
}
