// The union projection automaton: one position-set NFA over the merged
// projection paths of every plan in a multi-query run, deciding per input
// event whether *any* plan could observe it. Subtrees no plan can match are
// skipped exactly once, at the shared source, instead of once per engine —
// and, since the event source skips them itself (EventSource::SkipElement),
// never tokenized into events at all.
//
// Soundness rule (see projection.h for why this is stricter than GCX's
// in-buffer projection): an element is forwarded iff it advanced some path
// position or some position stays live for its descendants — so every kept
// node keeps its full ancestor spine, and a dropped element drops its whole
// subtree. A completed keep-subtree path switches its subtree into
// forward-everything mode; text is forwarded only where a live position's
// step matches text nodes (or inside a kept subtree).
//
// Skip contract: a start element Feed() rejects gets no frame, so the
// caller must not feed any event of its subtree, its end included — the
// pump (multiquery/multi_run.h) calls SkipElement() on the source instead.
// The skip validates the subtree exactly as the full lexer would (see
// xml/sax_parser.h), and MultiQueryStats counts it in subtrees_skipped and
// bytes_skipped.
#ifndef XQMFT_MULTIQUERY_UNION_PROJECTION_H_
#define XQMFT_MULTIQUERY_UNION_PROJECTION_H_

#include <cstdint>
#include <vector>

#include "multiquery/projection.h"
#include "xml/events.h"
#include "xml/symbol_table.h"

namespace xqmft {

class UnionProjection {
 public:
  /// Merges `projections`, interning name tests into `symbols` — which must
  /// be the table the shared event source binds to, so element events carry
  /// directly comparable ids. Any null or whole_document projection
  /// disables the automaton (every event is forwarded). A query set that
  /// reads nothing (all-constant queries) yields an *empty* union, which
  /// correctly skips every element.
  UnionProjection(const std::vector<const QueryProjection*>& projections,
                  SymbolTable* symbols);

  bool enabled() const { return enabled_; }

  /// Decides whether this event must reach the engines. Call once per event
  /// in document order; kEndOfDocument is always forwarded. When disabled,
  /// always true. A rejected kStartElement's subtree must then be skipped
  /// at the source, not fed (the skip contract above).
  bool Feed(const XmlEvent& event);

 private:
  struct Step {
    Axis axis = Axis::kChild;
    NodeTestKind kind = NodeTestKind::kName;
    SymbolId id = kInvalidSymbol;  ///< interned name (kName tests)
    bool last = false;
    bool keep_subtree = false;  ///< owning path's kind; meaningful on last
  };
  struct Pos {
    std::uint32_t path;
    std::uint32_t step;
  };
  // Every open element the engines see owns one frame: tracked (a position
  // set on the sets stack) or kept (inside a completed keep-subtree match;
  // needs no set — depth alone suffices). Rejected elements are skipped at
  // the source and own no frame.
  enum class FrameKind : unsigned char { kTrack, kKeep };

  void PushNext(Pos p);

  bool enabled_ = false;
  std::vector<std::vector<Step>> paths_;
  std::vector<FrameKind> frames_;
  // Stack of position sets for tracked frames; sets_[0] is the document
  // level. Grown but never shrunk so set storage is reused across siblings.
  std::vector<std::vector<Pos>> sets_;
  std::size_t sets_top_ = 0;
  std::vector<Pos> next_;  ///< scratch for the set under construction
};

}  // namespace xqmft

#endif  // XQMFT_MULTIQUERY_UNION_PROJECTION_H_
