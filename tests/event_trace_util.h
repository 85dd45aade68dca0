// Shared event-trace scaffolding for the parser and pretok suites. The
// differential tests in xml_test.cc and pretok_test.cc must compare the
// *same* notion of an event trace, so it lives here once: an owned-string
// event record (independent of view lifetimes), Trace() over any
// EventSource or raw bytes, a Read()-only source that forces the refill
// path, and the skip differential's ConsumeElement().

#ifndef XQMFT_TESTS_EVENT_TRACE_UTIL_H_
#define XQMFT_TESTS_EVENT_TRACE_UTIL_H_

#include <algorithm>
#include <cstring>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "xml/event_source.h"
#include "xml/events.h"
#include "xml/sax_parser.h"

namespace xqmft {

// One event with owned strings: the trace a parse produces, independent of
// view lifetimes.
struct TracedEvent {
  XmlEventType type;
  std::string name;
  std::string text;

  bool operator==(const TracedEvent& o) const {
    return type == o.type && name == o.name && text == o.text;
  }
};

inline Result<std::vector<TracedEvent>> Trace(EventSource* src) {
  std::vector<TracedEvent> out;
  XmlEvent ev;
  do {
    XQMFT_RETURN_NOT_OK(src->Next(&ev));
    out.push_back({ev.type, std::string(ev.name), std::string(ev.text)});
  } while (ev.type != XmlEventType::kEndOfDocument);
  return out;
}

inline Result<std::vector<TracedEvent>> Trace(ByteSource* src,
                                              SaxOptions opts = {}) {
  SaxParser parser(src, opts);
  return Trace(static_cast<EventSource*>(&parser));
}

// Read()-only source that hands out at most `chunk` bytes per call and never
// exposes Contents(), so the parser refills — with chunk = 1 every scan
// state crosses a window boundary.
class ChunkedSource : public ByteSource {
 public:
  ChunkedSource(std::string_view s, std::size_t chunk)
      : s_(s), chunk_(chunk) {}
  std::size_t Read(char* buf, std::size_t n) override {
    std::size_t take = std::min({n, chunk_, s_.size() - pos_});
    std::memcpy(buf, s_.data() + pos_, take);
    pos_ += take;
    return take;
  }

 private:
  std::string_view s_;
  std::size_t chunk_;
  std::size_t pos_ = 0;
};

// What a source does from its k-th start element (0-based) on, when that
// element is either pulled through its matching end with Next() or skipped
// with SkipElement(): how consuming it ended, where the source stood after
// it, and every event after it up to the end or the first error. The skip
// contract (xml/event_source.h) is that both ways give equal outcomes.
struct SkipOutcome {
  bool reached = false;  // the source produced a k-th start element
  std::string status;    // how consuming the element ended
  std::size_t bytes = 0;  // bytes_consumed() right after it
  std::string rest_status;
  std::vector<TracedEvent> rest;

  bool operator==(const SkipOutcome& o) const {
    return reached == o.reached && status == o.status && bytes == o.bytes &&
           rest_status == o.rest_status && rest == o.rest;
  }
};

inline SkipOutcome ConsumeElement(EventSource* src, std::size_t k, bool skip) {
  SkipOutcome out;
  XmlEvent ev;
  std::size_t starts = 0;
  while (true) {
    if (!src->Next(&ev).ok() || ev.type == XmlEventType::kEndOfDocument) {
      return out;
    }
    if (ev.type == XmlEventType::kStartElement && starts++ == k) break;
  }
  out.reached = true;
  Status st;
  if (skip) {
    st = src->SkipElement(nullptr);
  } else {
    for (std::size_t depth = 1; depth > 0;) {
      st = src->Next(&ev);
      if (!st.ok() || ev.type == XmlEventType::kEndOfDocument) break;
      if (ev.type == XmlEventType::kStartElement) ++depth;
      if (ev.type == XmlEventType::kEndElement) --depth;
    }
  }
  out.status = st.ToString();
  out.bytes = src->bytes_consumed();
  if (!st.ok()) return out;
  do {
    st = src->Next(&ev);
    if (!st.ok()) break;
    out.rest.push_back({ev.type, std::string(ev.name), std::string(ev.text)});
  } while (ev.type != XmlEventType::kEndOfDocument);
  out.rest_status = st.ToString();
  return out;
}

inline std::ostream& operator<<(std::ostream& os, const SkipOutcome& o) {
  os << "{reached=" << o.reached << " status=" << o.status
     << " bytes=" << o.bytes << " rest_status=" << o.rest_status
     << " rest_events=" << o.rest.size() << "}";
  return os;
}

}  // namespace xqmft

#endif  // XQMFT_TESTS_EVENT_TRACE_UTIL_H_
