// Execution lowering: compiles a RuleDispatch into per-state opcode programs.
//
// The table engine (stream/engine.cc) interprets rules one thunk at a time:
// every rule application allocates Call/Cons/Cat expressions, and every
// input event re-enters the graph reducer. For the transducers the XQuery
// translation actually produces, most of that machinery is overhead: rule
// selection per node is a single dense-table index and every call site's
// output lands at a fixed position in the output stream.
//
// Lowering turns each (state, input-label) rule into a flat program of
// packed instructions executed straight-line per input event:
//
//   kOpenLit s   emit <s>                  kTextLit s   emit text literal s
//   kCloseLit s  emit </s>                 kTextCur     emit the node's text
//   kOpenCur     emit <current-label>      kChild q     run q over children
//   kCloseCur    emit </current-label>     kSib q       run q over siblings
//
// Stay moves (x0 calls) are inlined at compile time — a program is the whole
// x0-closure of a rule, so the runtime never "applies a rule" at all; it
// executes one program per (consumer, event). Programs are deduplicated and
// memoized per (state, context); an x0 cycle (which the lazy engine would
// grind through its step budget) makes the plan unlowerable instead.
//
// Parameter-carrying states run on the opcode core only as *selector*
// clusters — the shape the Section 4.1 optimizations leave predicates in:
// every rule is a bare parameter y_i or a single call into the cluster whose
// arguments are bare parameters or nested cluster calls, and the epsilon
// rule selects a parameter. Such a cluster's output is exactly one of the
// original call's arguments, unchanged, so a call to it is a *select*
// between those arguments:
//
//   * Call sites factor the arguments' common suffix first (the
//     translation's `q(x0, A·C, B·C)` shape, where C is the sibling-scan
//     continuation): C runs once as ordinary caller code after the select.
//   * The select (kSelBegin, kSelAlt, kSelEnd) runs every residual
//     alternative (A, B) as ordinary opcode code into its own held region
//     of the output at the call position, then starts the cluster. The first
//     resolution keeps the winning region in place and discards the others;
//     the losing alternatives' consumers stop at their next event.
//   * Selector programs (kSelCall, kSelArg, kPick) run in *selector
//     consumers*, which carry a choice record instead of an output segment:
//     one value per local parameter, each either a caller alternative or
//     the pending result of a nested cluster call. A bare-parameter rule
//     compiles to kPick i; a rule that calls into the cluster spawns the
//     callee (and its nested calls, each with a fresh pending result) over
//     x1 or x2. x0 calls inline at compile time by substituting arguments;
//     rules on text content dispatch through a per-state content table; and
//     at text and end-of-forest anchors a select whose outcome is already
//     determined folds to its winning alternative.
//
// The one remaining hybrid shape is a call to a non-selector parameter
// state (a copying parameter, as in the Section 2.1 query): an x0 call
// whose arguments are free of x2 lowers to kBridge — a sub-run of the lazy
// table machine over exactly the anchor subtree, spliced into the output at
// the call position. The caller keeps running on the opcode core; the plan
// is *hybrid*. Any other parameter-carrying call (over x1 or x2), and any
// call to a plain state that matches on text content, makes the plan
// unlowerable.
//
// A plan is lowerable iff every reachable call site lands in one of those
// classes, x0-call inlining terminates, and the generated code stays under
// the size cap. Unlowerable plans keep the table engine; lowering is a
// strict fast path, never a semantics change (asserted wholesale by the
// differential suites).
#ifndef XQMFT_LOWER_LOWER_H_
#define XQMFT_LOWER_LOWER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mft/mft.h"
#include "util/status.h"
#include "xml/events.h"
#include "xml/symbol_table.h"

namespace xqmft {
namespace lower {

enum class LowerOp : unsigned char {
  kOpenLit = 0,  ///< StartElement(arg), arg an interned element symbol
  kCloseLit,     ///< EndElement(arg)
  kOpenCur,      ///< StartElement(current event's symbol)
  kCloseCur,     ///< EndElement(current event's symbol)
  kTextLit,      ///< Text(name of arg), arg an interned text-kind symbol
  kTextCur,      ///< Text(current text event's content)
  kChild,        ///< spawn a consumer in state arg over the node's children
  kSib,          ///< continue in state arg over the node's following siblings
  // A select at a selector-cluster call site (arg = LoweredPlan::selects
  // index): kSelBegin [alt 0] kSelAlt [alt 1] ... kSelEnd [continuation].
  kSelBegin,     ///< open the held region, write alternative 0
  kSelAlt,       ///< close the current alternative, write the next one
  kSelEnd,       ///< close the last alternative and start the cluster
  // Selector programs (run by selector consumers; kChild/kSib there retarget
  // the consumer with its choice record unchanged).
  kSelCall,      ///< arg = callee << 2 | tail << 1 | over-x2; spawn a selector
                 ///< consumer, one kSelArg per callee parameter follows
  kSelArg,       ///< kSelCall operand: parameter index, or kSelArgNested | n
                 ///< for the pending result of this program's n-th nested call
  kPick,         ///< resolve the consumer's result to parameter arg
  // Hybrid execution: a table-machine sub-run over the anchor subtree.
  kBridge,       ///< arg = (BridgeCtx << kBridgeCtxShift) | site index
};

/// Number of LowerOp values.
inline constexpr int kNumLowerOps = static_cast<int>(LowerOp::kBridge) + 1;

/// kSelCall argument layout and the kSelArg nested-result tag.
inline constexpr std::uint32_t kSelCallX2 = 1u;
inline constexpr std::uint32_t kSelCallTail = 2u;
inline constexpr std::uint32_t kSelCallStateShift = 2;
inline constexpr std::uint32_t kSelArgNested = 1u << 31;

/// The input context a kBridge site anchors to, packed into the high bits
/// of the instruction argument (the low bits are the site index).
enum class BridgeCtx : std::uint32_t {
  kElement = 0,  ///< anchored at an element: sub-run over the whole subtree
  kText = 1,     ///< x0 over a text node: one-event sub-run, inline
  kEps = 2,      ///< x0 at end of forest: empty sub-run, inline
};
inline constexpr std::uint32_t kBridgeCtxShift = 24;
inline constexpr std::uint32_t kBridgeSiteMask = (1u << kBridgeCtxShift) - 1;

struct LoweredInsn {
  LowerOp op;
  std::uint32_t arg = 0;
};

/// \brief One program: a [off, off+len) slice of LoweredPlan::code, plus the
/// facts the runtime wants without scanning it.
struct LoweredProgramRef {
  std::uint32_t off = 0;
  std::uint32_t len = 0;
  std::uint32_t n_child = 0;  ///< number of kChild instructions
  std::uint32_t n_sib = 0;    ///< number of kSib instructions
  /// Last instruction is kChild/kSib: the spawned consumer inherits the
  /// writer's output segment instead of splitting it (the program writes
  /// nothing after the spawn). Collapses scan states to zero segment churn.
  bool tail_spawn = false;
  /// The program is exactly [kSib q]: the consumer just retargets to q and
  /// skips the subtree — no allocation, no segment work.
  bool simple_sib = false;
  /// A selector program: the consumer carries a choice record, not a
  /// segment (set on the copies held by selector states).
  bool selector = false;
  /// A text program whose state tests text literals: the event's content
  /// picks the program through LoweredState::text_content first.
  bool content_switch = false;
};

/// Programs keyed on a text node's content (rules such as q("person0"(x1)x2,
/// ...)); contents not listed take the generic text program.
using ContentTable = std::vector<std::pair<std::string, LoweredProgramRef>>;

/// Looks `content` up in `table`; null when no entry matches.
inline const LoweredProgramRef* FindContent(const ContentTable& table,
                                            std::string_view content) {
  for (const auto& [key, ref] : table) {
    if (key == content) return &ref;
  }
  return nullptr;
}

/// \brief All programs of one state, indexed the same way RuleDispatch
/// resolves rules: dense per-symbol for ids below the alphabet width,
/// fallbacks for everything else.
struct LoweredState {
  std::vector<LoweredProgramRef> element;  ///< by SymbolId, size = width
  LoweredProgramRef element_default;       ///< element ids >= width
  LoweredProgramRef text;                  ///< any text node
  LoweredProgramRef eps;                   ///< end of the consumed forest
  ContentTable text_content;  ///< selector states that test text literals
};

/// \brief One select: the cluster program that starts at the call site. Its
/// parameters are the alternatives (kPick i selects alternative i).
struct LoweredSelect {
  std::uint32_t n_alts = 0;
  LoweredProgramRef cluster;
  ContentTable content;  ///< text anchors whose outcome depends on content
  /// Most consumers the cluster spawns over children / siblings (counted
  /// into the calling program's n_child / n_sib).
  std::uint32_t n_child = 0;
  std::uint32_t n_sib = 0;
};

/// \brief The lowered form of a transducer. Immutable once built; shared by
/// every concurrent run of the plan (same contract as RuleDispatch).
/// Move-only: hybrid plans own the bridge transducer.
struct LoweredPlan {
  LoweredPlan() = default;
  LoweredPlan(LoweredPlan&&) = default;
  LoweredPlan& operator=(LoweredPlan&&) = default;

  std::vector<LoweredInsn> code;
  std::vector<LoweredState> states;  ///< by StateId
  SymbolId width = 0;                ///< dense-table width (= dispatch width)
  StateId initial = 0;
  std::vector<LoweredSelect> selects;  ///< by kSelBegin/kSelEnd argument

  /// Hybrid support: a clone of the source transducer extended with one
  /// synthetic root state per bridge site (rules `root -> callee(x0, ...)`
  /// for element/text/eps), dispatch pre-compiled so concurrent runs never
  /// race a lazy fill. Null for fully lowered plans.
  std::unique_ptr<const Mft> bridge_mft;
  /// Per-site synthetic root state in `bridge_mft`, indexed by the site
  /// half of a kBridge instruction argument.
  std::vector<StateId> bridge_sites;
  /// True when the plan contains at least one kBridge site (some states
  /// execute on the table engine under the opcode core).
  bool hybrid = false;
  /// Human-readable summary of how the plan lowered ("full", or
  /// "hybrid: ..." naming what bridges), surfaced by --stats and serving.
  std::string lowering_note;
};

/// \brief One table-machine sub-run behind a kBridge site. Constructed by
/// the BridgeFactory when the opcode engine reaches the site's anchor; fed
/// exactly the anchor subtree's events (start, interior, end — or a single
/// text event, or nothing for an eps site); finished once to flush and
/// verify. Output lands in the sink the factory was given.
class BridgeRun {
 public:
  virtual ~BridgeRun() = default;
  virtual Status Feed(const XmlEvent& event) = 0;
  virtual Status Finish() = 0;
};

/// Supplied by the engine facade (stream/engine.cc), which owns the run
/// context the sub-runs share: builds the BridgeRun for `site` writing into
/// `sink`. The factory outlives the OpsEngine it is handed to.
using BridgeFactory =
    std::function<std::unique_ptr<BridgeRun>(std::uint32_t site,
                                             OutputSink* sink)>;

/// Compiles `mft` to a LoweredPlan. The dispatch is compiled as a side
/// effect (lowering translates its tables). Fails with InvalidArgument and a
/// human-readable reason when the transducer is not lowerable.
Result<LoweredPlan> LowerMft(const Mft& mft);

/// The cached lowering of `mft`: compiles on first call and parks the result
/// (or the not-lowerable reason) in the transducer's lowering-cache slot.
/// Returns null when the plan is not lowerable, with the reason in `*why`;
/// on success `*why` carries the lowering note ("full" / "hybrid: ...").
/// Same thread contract as Mft::dispatch(): the first call is
/// single-threaded; afterwards the plan is immutable and safe to share
/// (CompiledPlan forces the fill before a plan can be shared).
const LoweredPlan* GetLoweredPlan(const Mft& mft, std::string* why = nullptr);

}  // namespace lower
}  // namespace xqmft

#endif  // XQMFT_LOWER_LOWER_H_
