// Abstract producer of XML stream events.
//
// The streaming engine consumes events, not bytes: anything that can produce
// the kStartElement/kText/kEndElement/kEndOfDocument sequence can drive it.
// Implementations: SaxParser (text XML, xml/sax_parser.h) and PretokSource
// (the pre-tokenized binary event format, xml/pretok.h).
//
// Skipping. When the union projection (multiquery/union_projection.h) rules
// an element out, the pump calls SkipElement() right after Next() returned
// that element's kStartElement: the source consumes input through the
// matching end and produces no events for it. A skip accepts or rejects
// exactly what pulling Next() through the matching end would — same Status
// text, same bytes_consumed() — and leaves the source where that pull would
// have left it, so the events after a skipped element are the same either
// way (symbol ids excepted: names met only inside a skipped element may
// never be interned). The default pulls Next(); SaxParser and PretokSource
// override it with loops that build no events.
#ifndef XQMFT_XML_EVENT_SOURCE_H_
#define XQMFT_XML_EVENT_SOURCE_H_

#include <cstddef>

#include "util/cancel.h"
#include "util/status.h"
#include "xml/events.h"
#include "xml/symbol_table.h"

namespace xqmft {

/// \brief Pull interface over an event stream.
class EventSource {
 public:
  virtual ~EventSource() = default;

  /// Produces the next event. After kEndOfDocument, keeps returning it.
  /// Views in `*event` are valid until the next call (events.h contract).
  virtual Status Next(XmlEvent* event) = 0;

  /// Consumes the rest of the element whose kStartElement the last Next()
  /// returned — its attribute and self-close events included — through the
  /// matching end, producing no events. Call only directly after that
  /// Next(). `cancel` (may be null) is polled each time the skip has
  /// consumed another 64 KiB, checked between events, markup constructs or
  /// 64 KiB stretches of character data (one comment, CDATA section or
  /// attribute value is not interrupted), since a skipped subtree can be
  /// arbitrarily long and no engine sees events meanwhile; a trip returns
  /// the token's status.
  /// An end of document before the matching end (a truncating source)
  /// ends the skip with OK, and the next Next() returns kEndOfDocument.
  /// After a failed skip, as after a failed Next(), the source is spent.
  virtual Status SkipElement(const CancelToken* cancel) {
    XmlEvent event;
    std::size_t depth = 1;
    std::size_t next_poll = bytes_consumed() + kSkipPollBytes;
    while (depth > 0) {
      XQMFT_RETURN_NOT_OK(Next(&event));
      switch (event.type) {
        case XmlEventType::kStartElement:
          ++depth;
          break;
        case XmlEventType::kEndElement:
          --depth;
          break;
        case XmlEventType::kEndOfDocument:
          return Status::OK();
        case XmlEventType::kText:
          break;
      }
      if (cancel != nullptr && bytes_consumed() >= next_poll) {
        next_poll = bytes_consumed() + kSkipPollBytes;
        XQMFT_RETURN_NOT_OK(cancel->Check());
      }
    }
    return Status::OK();
  }

  /// Bytes of underlying input consumed so far (text XML bytes for the
  /// parser, pretok file bytes for a pre-tokenized source).
  virtual std::size_t bytes_consumed() const = 0;

  /// Re-points the source at the consumer's symbol table so event ids share
  /// its id space (the engine binds its per-run table copy before pulling).
  /// Must be called before the first Next().
  virtual void BindSymbols(SymbolTable* symbols) = 0;

 protected:
  /// Input a skip may consume between two polls of its cancel token.
  static constexpr std::size_t kSkipPollBytes = std::size_t{64} << 10;
};

}  // namespace xqmft

#endif  // XQMFT_XML_EVENT_SOURCE_H_
