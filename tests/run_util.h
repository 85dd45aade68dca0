// Test shorthands over Run (core/pipeline.h), the one streaming entry point:
// one plan (or one bare transducer) over one in-memory document, plus a
// byte source and sink pair that observe whether output is streamed or
// staged.
#ifndef XQMFT_TESTS_RUN_UTIL_H_
#define XQMFT_TESTS_RUN_UTIL_H_

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "core/pipeline.h"
#include "mft/mft.h"
#include "stream/engine.h"
#include "util/status.h"
#include "xml/events.h"
#include "xml/sax_parser.h"

namespace xqmft {

/// Streams `xml` through `plan`; `stats`, when given, receives the run's
/// statistics (filled on failure too).
inline Status RunXml(const CompiledPlan& plan, const std::string& xml,
                     OutputSink* sink, StreamStats* stats = nullptr,
                     const RunOptions& options = {}) {
  RunResult result;
  Status st = Run({&plan}, {ParallelInput::XmlText(xml)}, {sink}, options,
                  &result);
  if (stats != nullptr) *stats = result.plans[0].total;
  return st;
}

/// Streams `input` through a bare transducer under `options`: the
/// transducer is wrapped as a plan (FromMft, so nothing is projected away)
/// and the per-run pieces of `options` (validator, cancel token) travel in
/// RunOptions.
inline Status RunMft(const Mft& mft, ParallelInput input, OutputSink* sink,
                     StreamOptions options = {},
                     StreamStats* stats = nullptr) {
  RunOptions run;
  run.validator = options.validator;
  run.cancel = options.cancel;
  options.validator = nullptr;
  options.cancel = nullptr;
  PipelineOptions po;
  po.stream = options;
  XQMFT_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledPlan> plan,
                         CompiledPlan::FromMft(mft, po));
  RunResult result;
  Status st = Run({plan.get()}, {std::move(input)}, {sink}, run, &result);
  if (stats != nullptr) *stats = result.plans[0].total;
  return st;
}

inline Status RunMftXml(const Mft& mft, const std::string& xml,
                        OutputSink* sink, StreamOptions options = {},
                        StreamStats* stats = nullptr) {
  return RunMft(mft, ParallelInput::XmlText(xml), sink, options, stats);
}

// Hands out the document a few bytes at a time (never as one region), so a
// sink can observe how far the run had read when output arrived.
class TrickleSource : public ByteSource {
 public:
  explicit TrickleSource(std::string s) : s_(std::move(s)) {}
  std::size_t Read(char* buf, std::size_t n) override {
    std::size_t take = std::min({n, s_.size() - pos_, std::size_t{8}});
    std::memcpy(buf, s_.data() + pos_, take);
    pos_ += take;
    return take;
  }
  bool exhausted() const { return pos_ == s_.size(); }

 private:
  std::string s_;
  std::size_t pos_ = 0;
};

// Records whether the source was already drained at the first output event.
class FirstEventProbe : public StringSink {
 public:
  explicit FirstEventProbe(const TrickleSource* src) : src_(src) {}
  void StartElement(std::string_view name) override {
    Note();
    StringSink::StartElement(name);
  }
  void Text(std::string_view content) override {
    Note();
    StringSink::Text(content);
  }
  bool saw_output() const { return seen_; }
  bool exhausted_at_first_event() const { return exhausted_at_first_; }

 private:
  void Note() {
    if (seen_) return;
    seen_ = true;
    exhausted_at_first_ = src_->exhausted();
  }
  const TrickleSource* src_;
  bool seen_ = false;
  bool exhausted_at_first_ = false;
};

}  // namespace xqmft

#endif  // XQMFT_TESTS_RUN_UTIL_H_
