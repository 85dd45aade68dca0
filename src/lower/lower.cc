#include "lower/lower.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "mft/dispatch.h"

namespace xqmft {
namespace lower {

namespace {

// Hard cap on generated code: x0 inlining is exponential in the worst case
// (a chain of states each calling the previous twice), so a runaway blowup
// must degrade to "not lowerable", not to an OOM.
constexpr std::size_t kMaxCodeSize = std::size_t{1} << 20;

// How a state executes under the lowered plan.
enum class StateClass : unsigned char {
  kPlain,        ///< parameter-free, compiles to opcode programs
  kTextMatcher,  ///< parameter-free but matches on text content: no programs
  kParams,       ///< carries parameters: a selector program or a kBridge
};

// Compilation context of a program: which input the state is being applied
// to, which determines how %t and x1 resolve.
//   [0, width)   element node with that interned symbol (%t is a literal)
//   width        element node with an id outside the alphabet (%t is kOpenCur)
//   width + 1    text node (%t is kTextCur; x1 is the empty forest)
//   width + 2    end of forest (epsilon rule; emission only)
class Compiler {
 public:
  explicit Compiler(const Mft& mft)
      : mft_(mft), dispatch_(mft.dispatch()), width_(dispatch_.width()) {}

  Result<LoweredPlan> Run() {
    Classify();

    const StateId q0 = mft_.initial_state();
    if (mft_.num_params(q0) > 0) {
      return Fail("initial state carries parameters");
    }
    if (class_[static_cast<std::size_t>(q0)] == StateClass::kTextMatcher) {
      return Fail("state '" + mft_.state_name(q0) +
                  "' matches on text content");
    }

    const std::size_t n_ctx = static_cast<std::size_t>(width_) + 3;
    memo_.assign(static_cast<std::size_t>(mft_.num_states()) * n_ctx, -1);

    plan_.width = width_;
    plan_.initial = q0;
    plan_.states.resize(static_cast<std::size_t>(mft_.num_states()));
    sel_compiled_.assign(static_cast<std::size_t>(mft_.num_states()), false);
    for (StateId q = 0; q < mft_.num_states(); ++q) {
      // Parameter states compile below (selectors) or run inside a
      // table-machine bridge; text-content matchers have no programs.
      if (class_[static_cast<std::size_t>(q)] != StateClass::kPlain) continue;
      LoweredState& st = plan_.states[static_cast<std::size_t>(q)];
      st.element.resize(width_);
      for (SymbolId id = 0; id < width_; ++id) {
        int p = CompileProgram(q, id);
        if (p < 0) return Fail(error_);
        st.element[id] = finished_[static_cast<std::size_t>(p)];
      }
      int p = CompileProgram(q, CtxDefault());
      if (p < 0) return Fail(error_);
      st.element_default = finished_[static_cast<std::size_t>(p)];
      p = CompileProgram(q, CtxText());
      if (p < 0) return Fail(error_);
      st.text = finished_[static_cast<std::size_t>(p)];
      p = CompileProgram(q, CtxEps());
      if (p < 0) return Fail(error_);
      st.eps = finished_[static_cast<std::size_t>(p)];
    }
    // Selector states get programs once some select can spawn them.
    while (!sel_worklist_.empty()) {
      const StateId q = sel_worklist_.back();
      sel_worklist_.pop_back();
      if (!CompileSelectorState(q)) return Fail(error_);
    }

    if (!sites_.empty()) {
      BuildBridgeMft();
      plan_.hybrid = true;
      std::string states;
      for (StateId q : site_states_) {
        if (!states.empty()) states += ", ";
        states += "'" + mft_.state_name(q) + "'";
      }
      plan_.lowering_note = "hybrid: " + std::to_string(sites_.size()) +
                            " table-bridge site(s) through " + states;
    } else {
      plan_.lowering_note = "full";
    }
    return std::move(plan_);
  }

 private:
  std::uint32_t CtxDefault() const { return width_; }
  std::uint32_t CtxText() const { return width_ + 1; }
  std::uint32_t CtxEps() const { return width_ + 2; }

  static Status Fail(std::string why) {
    return Status::InvalidArgument("not lowerable: " + std::move(why));
  }

  bool HasTextContentRules(StateId q) const {
    for (const auto& [symbol, rhs] : mft_.rules(q).symbol_rules) {
      (void)rhs;
      if (symbol.kind == NodeKind::kText) return true;
    }
    return false;
  }

  // ---------------------------------------------------------------- analysis

  // Classifies every state (see StateClass) and computes the escape set:
  // escapes_[q] is true when running q at a node can read that node's
  // *following siblings* (an x2 call in q's x0-closure, including call
  // arguments, which are evaluated at the caller's position). A bridged
  // sub-run feeds only the anchor subtree, so only non-escaping states (and
  // non-escaping argument forests) may cross the bridge.
  void Classify() {
    const std::size_t n = static_cast<std::size_t>(mft_.num_states());
    class_.assign(n, StateClass::kParams);
    sel_.assign(n, false);
    escapes_.assign(n, false);

    for (StateId q = 0; q < mft_.num_states(); ++q) {
      if (mft_.num_params(q) == 0) {
        class_[static_cast<std::size_t>(q)] = HasTextContentRules(q)
                                                  ? StateClass::kTextMatcher
                                                  : StateClass::kPlain;
      } else {
        sel_[static_cast<std::size_t>(q)] = true;
      }
    }

    // Demotion fixpoint: a shape may reference other parameter states, so
    // iterate until no state loses its flag.
    for (bool changed = true; changed;) {
      changed = false;
      for (StateId q = 0; q < mft_.num_states(); ++q) {
        if (sel_[static_cast<std::size_t>(q)] && !SelectorShape(q)) {
          sel_[static_cast<std::size_t>(q)] = false;
          changed = true;
        }
      }
    }
    // Least fixpoint: escaping requires an actual x2 somewhere, so growing
    // from "nothing escapes" is exact even through x0 cycles.
    for (bool changed = true; changed;) {
      changed = false;
      for (StateId q = 0; q < mft_.num_states(); ++q) {
        if (escapes_[static_cast<std::size_t>(q)]) continue;
        if (StateEscapes(q)) {
          escapes_[static_cast<std::size_t>(q)] = true;
          changed = true;
        }
      }
    }
  }

  bool StateEscapes(StateId q) const {
    const StateRules& r = mft_.rules(q);
    for (const auto& [symbol, rhs] : r.symbol_rules) {
      (void)symbol;
      if (RhsEscapes(rhs)) return true;
    }
    if (r.text_rule && RhsEscapes(*r.text_rule)) return true;
    if (r.default_rule && RhsEscapes(*r.default_rule)) return true;
    // Epsilon rules cannot reference x2 (no input); x0 calls in them are
    // epsilon-recursion and cannot reach siblings either.
    return false;
  }

  bool RhsEscapes(const Rhs& rhs) const {
    for (const RhsNode& item : rhs) {
      switch (item.kind) {
        case RhsKind::kLabel:
          if (RhsEscapes(item.children)) return true;
          break;
        case RhsKind::kParam:
          break;
        case RhsKind::kCall: {
          if (item.input == InputVar::kX2) return true;
          if (item.input == InputVar::kX0 &&
              escapes_[static_cast<std::size_t>(item.state)]) {
            return true;
          }
          // Arguments are evaluated at the caller's position, whatever the
          // call's input variable — x2 inside them reads the same siblings.
          for (const Rhs& arg : item.args) {
            if (RhsEscapes(arg)) return true;
          }
          break;
        }
      }
    }
    return false;
  }

  // A *selector* cluster passes parameters through verbatim: every rule is
  // a single bare parameter or a single call into the cluster whose
  // arguments are themselves bare parameters or cluster calls, and the
  // epsilon rule selects a parameter. By induction the cluster's output is
  // exactly one of the original call's arguments, unchanged — the property
  // that licenses common-suffix factoring at the call site.
  bool SelectorShape(StateId q) const {
    const StateRules& r = mft_.rules(q);
    auto rule_ok = [&](const Rhs& rhs) {
      if (rhs.size() != 1) return false;
      const RhsNode& n0 = rhs[0];
      if (n0.kind == RhsKind::kParam) return true;
      if (n0.kind != RhsKind::kCall) return false;
      if (n0.state < 0 || mft_.num_params(n0.state) == 0) return false;
      if (!sel_[static_cast<std::size_t>(n0.state)]) return false;
      if (static_cast<int>(n0.args.size()) != mft_.num_params(n0.state)) {
        return false;
      }
      for (const Rhs& arg : n0.args) {
        if (!SelectorArg(arg)) return false;
      }
      return true;
    };
    for (const auto& [symbol, rhs] : r.symbol_rules) {
      (void)symbol;
      if (!rule_ok(rhs)) return false;
    }
    if (r.text_rule && !rule_ok(*r.text_rule)) return false;
    if (r.default_rule && !rule_ok(*r.default_rule)) return false;
    if (!r.epsilon_rule || r.epsilon_rule->size() != 1 ||
        (*r.epsilon_rule)[0].kind != RhsKind::kParam) {
      return false;
    }
    return true;
  }

  bool SelectorArg(const Rhs& arg) const {
    if (arg.size() != 1) return false;
    const RhsNode& n0 = arg[0];
    if (n0.kind == RhsKind::kParam) return true;
    if (n0.kind != RhsKind::kCall) return false;
    if (n0.state < 0 || mft_.num_params(n0.state) == 0) return false;
    if (!sel_[static_cast<std::size_t>(n0.state)]) return false;
    for (const Rhs& a : n0.args) {
      if (!SelectorArg(a)) return false;
    }
    return true;
  }

  // Every state a bridged sub-run can reach must be able to fire: missing
  // default/epsilon rules would turn a table-engine error into silently
  // different lowered output, so the drop-the-call optimization (all
  // arguments identical) is gated on cluster totality.
  bool ClusterTotal(StateId q0) const {
    std::vector<StateId> stack{q0};
    std::set<StateId> seen{q0};
    auto visit = [&](const Rhs& rhs, auto&& self) -> void {
      for (const RhsNode& item : rhs) {
        if (item.kind == RhsKind::kLabel) {
          self(item.children, self);
        } else if (item.kind == RhsKind::kCall) {
          if (item.state >= 0 && seen.insert(item.state).second) {
            stack.push_back(item.state);
          }
          for (const Rhs& arg : item.args) self(arg, self);
        }
      }
    };
    while (!stack.empty()) {
      const StateId q = stack.back();
      stack.pop_back();
      const StateRules& r = mft_.rules(q);
      if (!r.default_rule || !r.epsilon_rule) return false;
      for (const auto& [symbol, rhs] : r.symbol_rules) {
        (void)symbol;
        visit(rhs, visit);
      }
      if (r.text_rule) visit(*r.text_rule, visit);
      visit(*r.default_rule, visit);
      visit(*r.epsilon_rule, visit);
    }
    return true;
  }

  // Whether a forest may cross a bridge as a call argument: evaluated at
  // the anchor with the sibling stream truncated, so it must not reference
  // x2 and every x0 call in it must be non-escaping.
  bool ArgBridgeable(const Rhs& rhs) {
    for (const RhsNode& item : rhs) {
      switch (item.kind) {
        case RhsKind::kLabel:
          if (!ArgBridgeable(item.children)) return false;
          break;
        case RhsKind::kParam:
          error_ = "parameter reference in a bridged argument";
          return false;
        case RhsKind::kCall: {
          if (item.input == InputVar::kX2) {
            error_ = "bridged arguments reference following siblings";
            return false;
          }
          if (item.input == InputVar::kX0 &&
              escapes_[static_cast<std::size_t>(item.state)]) {
            error_ = "bridged state '" + mft_.state_name(item.state) +
                     "' reads past the anchor subtree";
            return false;
          }
          for (const Rhs& arg : item.args) {
            if (!ArgBridgeable(arg)) return false;
          }
          break;
        }
      }
    }
    return true;
  }

  // ----------------------------------------------------------- compilation

  // Compiles the program for (q, ctx); returns its index in finished_, or -1
  // with error_ set. Memoized; a cycle through the memo means the x0-call
  // closure of some rule revisits (q, ctx) before emitting anything that
  // consumes input — the lazy engine would spin on it too.
  int CompileProgram(StateId q, std::uint32_t ctx) {
    const std::size_t n_ctx = static_cast<std::size_t>(width_) + 3;
    std::int32_t& slot = memo_[static_cast<std::size_t>(q) * n_ctx + ctx];
    if (slot >= 0) return slot;
    if (slot == kInProgress) {
      error_ = "x0-call cycle through state '" + mft_.state_name(q) + "'";
      return -1;
    }
    slot = kInProgress;

    const Rhs* rhs;
    if (ctx < width_) {
      rhs = dispatch_.ForElement(q, ctx);
      if (rhs == nullptr) {
        // A text-kind id: no element event can carry it, but the dense table
        // must stay rectangular — alias the generic-element program.
        int p = CompileProgram(q, CtxDefault());
        slot = p;
        return p;
      }
    } else if (ctx == CtxDefault()) {
      rhs = dispatch_.ForElement(q, width_);
    } else if (ctx == CtxText()) {
      // Safe without content: states with text-content rules are never
      // compiled, so ForText never takes its content-keyed probe path here.
      rhs = dispatch_.ForText(q, std::string_view());
    } else {
      rhs = dispatch_.Epsilon(q);
    }
    if (rhs == nullptr) {
      error_ = "state '" + mft_.state_name(q) + "' has no applicable rule";
      return -1;
    }

    std::vector<LoweredInsn> tmp;
    if (!EmitRhs(*rhs, ctx, &tmp)) return -1;

    int ref = Intern(std::move(tmp));
    if (ref < 0) return -1;
    slot = ref;
    return ref;
  }

  // Appends the instructions for one RHS forest in context `ctx` to *out.
  // Only parameter-free states compile, so a parameter reference fails.
  bool EmitRhs(const Rhs& rhs, std::uint32_t ctx,
               std::vector<LoweredInsn>* out) {
    for (const RhsNode& item : rhs) {
      switch (item.kind) {
        case RhsKind::kLabel: {
          if (item.current_label) {
            if (ctx < width_) {
              // %t over a known element symbol folds to a literal.
              out->push_back({LowerOp::kOpenLit, ctx});
              if (!EmitRhs(item.children, ctx, out)) return false;
              out->push_back({LowerOp::kCloseLit, ctx});
            } else if (ctx == CtxDefault()) {
              out->push_back({LowerOp::kOpenCur, 0});
              if (!EmitRhs(item.children, ctx, out)) return false;
              out->push_back({LowerOp::kCloseCur, 0});
            } else if (ctx == CtxText()) {
              // %t over a text node copies its content; an output text node
              // has no children to emit (the lazy engine never forces them).
              out->push_back({LowerOp::kTextCur, 0});
            } else {
              error_ = "%t in an epsilon rule";  // excluded by Validate()
              return false;
            }
          } else if (item.symbol.kind == NodeKind::kText) {
            out->push_back({LowerOp::kTextLit, item.symbol_id});
          } else {
            out->push_back({LowerOp::kOpenLit, item.symbol_id});
            if (!EmitRhs(item.children, ctx, out)) return false;
            out->push_back({LowerOp::kCloseLit, item.symbol_id});
          }
          break;
        }
        case RhsKind::kCall: {
          if (!item.args.empty()) {
            if (!EmitParamCall(item, ctx, out)) return false;
            break;
          }
          if (!EmitPlainCall(item, ctx, out)) return false;
          break;
        }
        case RhsKind::kParam:
          error_ = "parameter reference in rhs";
          return false;
      }
      if (out->size() > kMaxCodeSize) {
        error_ = "lowered program exceeds the size limit";
        return false;
      }
    }
    return true;
  }

  // An argument-free state call: the parameter-free fast path. States that
  // match on text content do not lower in any position.
  bool EmitPlainCall(const RhsNode& item, std::uint32_t ctx,
                     std::vector<LoweredInsn>* out) {
    const StateId callee = item.state;
    const StateClass cls = class_[static_cast<std::size_t>(callee)];
    if (mft_.num_params(callee) > 0) {
      error_ = "call to state '" + mft_.state_name(callee) +
               "' is missing its arguments";
      return false;
    }
    switch (item.input) {
      case InputVar::kX0: {
        if (cls != StateClass::kPlain) {
          error_ = "state '" + mft_.state_name(callee) +
                   "' matches on text content";
          return false;
        }
        return Splice(callee, ctx, out);
      }
      case InputVar::kX1: {
        if (ctx == CtxText()) {
          // A text node's child forest is empty: running q over it is
          // exactly q's epsilon program (safe even for text-content
          // matchers — epsilon has no content to probe).
          return Splice(callee, CtxEps(), out);
        }
        if (ctx == CtxEps()) {
          error_ = "x1 in an epsilon rule";  // excluded by Validate()
          return false;
        }
        if (cls != StateClass::kPlain) {
          error_ = "state '" + mft_.state_name(callee) +
                   "' matches on text content";
          return false;
        }
        out->push_back(
            {LowerOp::kChild, static_cast<std::uint32_t>(callee)});
        return true;
      }
      case InputVar::kX2: {
        if (ctx == CtxEps()) {
          error_ = "x2 in an epsilon rule";  // excluded by Validate()
          return false;
        }
        if (cls != StateClass::kPlain) {
          error_ = "state '" + mft_.state_name(callee) +
                   "' matches on text content";
          return false;
        }
        out->push_back({LowerOp::kSib, static_cast<std::uint32_t>(callee)});
        return true;
      }
    }
    error_ = "unknown input variable";
    return false;
  }

  // A parameter-carrying call: a select when the callee is a selector
  // cluster, else a direct table bridge over the anchor subtree.
  bool EmitParamCall(const RhsNode& item, std::uint32_t ctx,
                     std::vector<LoweredInsn>* out) {
    const StateId callee = item.state;
    const int cn = mft_.num_params(callee);
    if (cn == 0 || static_cast<int>(item.args.size()) != cn) {
      error_ = "call to state '" + mft_.state_name(callee) +
               "' has the wrong arity";
      return false;
    }
    if (ctx == CtxEps() && item.input != InputVar::kX0) {
      error_ = item.input == InputVar::kX1 ? "x1 in an epsilon rule"
                                           : "x2 in an epsilon rule";
      return false;
    }

    if (sel_[static_cast<std::size_t>(callee)]) {
      // The cluster's output is one argument, unchanged: with arguments
      // A_i = A'_i · C it is A'_w · C for the winner w, so only the
      // residuals A'_i are alternatives and C runs once after the select.
      std::size_t min_len = item.args[0].size();
      for (const Rhs& arg : item.args) min_len = std::min(min_len, arg.size());
      std::size_t suffix = 0;
      while (suffix < min_len) {
        const RhsNode& probe =
            item.args[0][item.args[0].size() - 1 - suffix];
        bool all = true;
        for (const Rhs& arg : item.args) {
          if (!(arg[arg.size() - 1 - suffix] == probe)) {
            all = false;
            break;
          }
        }
        if (!all) break;
        ++suffix;
      }
      bool all_empty = true;
      for (const Rhs& arg : item.args) {
        if (arg.size() != suffix) {
          all_empty = false;
          break;
        }
      }
      if (all_empty && ClusterTotal(callee)) {
        // Identical arguments: whichever the cluster selects, the output is
        // the shared forest — drop the call entirely.
        return EmitRhs(item.args[0], ctx, out);
      }
      return EmitSelect(item, suffix, ctx, out);
    }

    // Direct bridge: x0, non-escaping callee, anchor-local arguments.
    if (item.input == InputVar::kX0) {
      if (escapes_[static_cast<std::size_t>(callee)]) {
        error_ = "bridged state '" + mft_.state_name(callee) +
                 "' reads past the anchor subtree";
        return false;
      }
      for (const Rhs& arg : item.args) {
        if (!ArgBridgeable(arg)) return false;
      }
      RhsNode call = item;  // deep copy, arguments included
      return EmitBridge(std::move(call), ctx, out);
    }
    error_ = item.input == InputVar::kX1
                 ? "parameter-carrying call over children does not lower"
                 : "parameter-carrying call over following siblings";
    return false;
  }

  bool EmitBridge(RhsNode call, std::uint32_t ctx,
                  std::vector<LoweredInsn>* out) {
    if (call.input == InputVar::kX0 &&
        escapes_[static_cast<std::size_t>(call.state)]) {
      error_ = "bridged state '" + mft_.state_name(call.state) +
               "' reads past the anchor subtree";
      return false;
    }
    int site = -1;
    for (std::size_t i = 0; i < sites_.size(); ++i) {
      if (sites_[i] == call) {
        site = static_cast<int>(i);
        break;
      }
    }
    if (site < 0) {
      if (sites_.size() >= kBridgeSiteMask) {
        error_ = "too many bridge sites";
        return false;
      }
      site = static_cast<int>(sites_.size());
      site_states_.insert(call.state);
      sites_.push_back(std::move(call));
    }
    BridgeCtx kind = BridgeCtx::kElement;
    if (ctx == CtxText()) kind = BridgeCtx::kText;
    if (ctx == CtxEps()) kind = BridgeCtx::kEps;
    out->push_back(
        {LowerOp::kBridge,
         (static_cast<std::uint32_t>(kind) << kBridgeCtxShift) |
             static_cast<std::uint32_t>(site)});
    return true;
  }

  // ------------------------------------------------------ selector clusters

  // The compile-time value of a selector rule: a parameter of the record the
  // program runs with, or a spawn of a cluster state over x1/x2 whose
  // arguments are values again.
  struct SelExpr {
    int param = -1;  ///< >= 0: 0-based parameter index
    StateId state = -1;
    bool x2 = false;
    std::vector<SelExpr> args;
    std::size_t size = 1;  ///< nodes in this tree
  };

  // Charges `n` reduction nodes against the size cap. Every node a
  // reduction creates or copies is charged, so a cluster whose rules pass a
  // parameter twice ends as "not lowerable" rather than doubling its trees
  // until memory runs out.
  bool ChargeSel(std::size_t n) {
    sel_nodes_ += n;
    if (sel_nodes_ <= kMaxCodeSize) return true;
    error_ = "lowered program exceeds the size limit";
    return false;
  }

  // The text node a reduction runs at: `content` when the program is being
  // specialized for one content, null for the generic text program. Every
  // literal a consulted state tests lands in *keys.
  struct TextProbe {
    const std::string* content = nullptr;
    std::set<std::string>* keys = nullptr;
  };

  const Rhs* SelRule(StateId q, std::uint32_t ctx, const TextProbe& probe) {
    if (ctx < width_) {
      const Rhs* rhs = dispatch_.ForElement(q, ctx);
      return rhs != nullptr ? rhs : dispatch_.ForElement(q, width_);
    }
    if (ctx == CtxDefault()) return dispatch_.ForElement(q, width_);
    if (ctx == CtxEps()) return dispatch_.Epsilon(q);
    const StateRules& r = mft_.rules(q);
    if (probe.keys != nullptr) {
      for (const auto& [symbol, rhs] : r.symbol_rules) {
        (void)rhs;
        if (symbol.kind == NodeKind::kText) probe.keys->insert(symbol.name);
      }
    }
    if (probe.content != nullptr) {
      return mft_.LookupRule(q, NodeKind::kText, *probe.content);
    }
    if (r.text_rule) return &*r.text_rule;
    return r.default_rule ? &*r.default_rule : nullptr;
  }

  // Reduces a call of cluster state q over `in` with argument values `args`
  // at context ctx: x0 calls inline the callee's rule, x1 over a text node
  // is the callee's epsilon rule, anything else is a spawn. `depth` counts
  // inlined x0 calls; more than the states can chain without repeating is
  // a cycle.
  bool ReduceCall(StateId q, InputVar in, std::vector<SelExpr> args,
                  std::uint32_t ctx, const TextProbe& probe, int depth,
                  SelExpr* out) {
    if (depth > 2 * mft_.num_states() + 2) {
      error_ = "x0-call cycle through state '" + mft_.state_name(q) + "'";
      return false;
    }
    if (!ChargeSel(1)) return false;
    const Rhs* rhs = nullptr;
    std::uint32_t at = ctx;
    TextProbe p = probe;
    if (in == InputVar::kX0) {
      rhs = SelRule(q, ctx, probe);
    } else if (ctx == CtxEps()) {
      error_ = in == InputVar::kX1 ? "x1 in an epsilon rule"
                                   : "x2 in an epsilon rule";
      return false;
    } else if (in == InputVar::kX1 && ctx == CtxText()) {
      // A text node's child forest is empty.
      rhs = dispatch_.Epsilon(q);
      at = CtxEps();
      p = TextProbe{};
    } else {
      out->param = -1;
      out->state = q;
      out->x2 = in == InputVar::kX2;
      out->args = std::move(args);
      out->size = 1;
      for (const SelExpr& a : out->args) out->size += a.size;
      return true;
    }
    if (rhs == nullptr) {
      error_ = "state '" + mft_.state_name(q) + "' has no applicable rule";
      return false;
    }
    return ReduceNode((*rhs)[0], at, p, args, depth + 1, out);
  }

  // Reduces one selector rule node (SelectorShape: a bare parameter or a
  // cluster call) under `env`, the values of the enclosing rule's
  // parameters.
  bool ReduceNode(const RhsNode& node, std::uint32_t ctx,
                  const TextProbe& probe, const std::vector<SelExpr>& env,
                  int depth, SelExpr* out) {
    if (node.kind == RhsKind::kParam) {
      const SelExpr& value = env[static_cast<std::size_t>(node.param - 1)];
      if (!ChargeSel(value.size)) return false;
      *out = value;
      return true;
    }
    std::vector<SelExpr> args(node.args.size());
    for (std::size_t i = 0; i < node.args.size(); ++i) {
      if (!ReduceNode(node.args[i][0], ctx, probe, env, depth, &args[i])) {
        return false;
      }
    }
    return ReduceCall(node.state, node.input, std::move(args), ctx, probe,
                      depth, out);
  }

  // Emits the selector program for value `e`: nested spawns first (each
  // creating the pending result its kSelArg operands refer to), then the
  // tail — a pick, or the spawn that inherits the consumer's result. With a
  // record of `arity` parameters (a selector state's program) a tail spawn
  // that passes them through unchanged retargets the consumer instead.
  void EmitSel(const SelExpr& e, bool has_record, int arity,
               std::vector<LoweredInsn>* out) {
    if (e.param >= 0) {
      out->push_back({LowerOp::kPick, static_cast<std::uint32_t>(e.param)});
      return;
    }
    std::uint32_t nested = 0;
    std::vector<std::uint32_t> codes;
    for (const SelExpr& a : e.args) codes.push_back(EmitSelArg(a, &nested, out));
    RequireSelector(e.state);
    bool identity = has_record && static_cast<int>(e.args.size()) == arity;
    for (std::size_t j = 0; identity && j < e.args.size(); ++j) {
      identity = e.args[j].param == static_cast<int>(j);
    }
    if (identity) {
      out->push_back({e.x2 ? LowerOp::kSib : LowerOp::kChild,
                      static_cast<std::uint32_t>(e.state)});
      return;
    }
    EmitSelCall(e, kSelCallTail, codes, out);
  }

  std::uint32_t EmitSelArg(const SelExpr& a, std::uint32_t* nested,
                           std::vector<LoweredInsn>* out) {
    if (a.param >= 0) return static_cast<std::uint32_t>(a.param);
    std::vector<std::uint32_t> codes;
    for (const SelExpr& b : a.args) codes.push_back(EmitSelArg(b, nested, out));
    RequireSelector(a.state);
    EmitSelCall(a, 0, codes, out);
    return kSelArgNested | (*nested)++;
  }

  static void EmitSelCall(const SelExpr& e, std::uint32_t flags,
                          const std::vector<std::uint32_t>& codes,
                          std::vector<LoweredInsn>* out) {
    out->push_back({LowerOp::kSelCall,
                    (static_cast<std::uint32_t>(e.state)
                     << kSelCallStateShift) |
                        flags | (e.x2 ? kSelCallX2 : 0u)});
    for (std::uint32_t c : codes) out->push_back({LowerOp::kSelArg, c});
  }

  void RequireSelector(StateId q) {
    if (sel_compiled_[static_cast<std::size_t>(q)]) return;
    sel_compiled_[static_cast<std::size_t>(q)] = true;
    sel_worklist_.push_back(q);
  }

  // Compiles the selector program of rule `rhs` at ctx, its parameters
  // bound to `env`; returns the finished_ index or -1.
  int CompileSel(const Rhs* rhs, std::uint32_t ctx, const TextProbe& probe,
                 const std::vector<SelExpr>& env, bool has_record,
                 StateId q) {
    if (rhs == nullptr) {
      error_ = "state '" + mft_.state_name(q) + "' has no applicable rule";
      return -1;
    }
    SelExpr e;
    if (!ReduceNode((*rhs)[0], ctx, probe, env, 0, &e)) return -1;
    std::vector<LoweredInsn> tmp;
    EmitSel(e, has_record, static_cast<int>(env.size()), &tmp);
    return Intern(std::move(tmp));
  }

  // The generic text program plus one program per text literal the
  // reduction consulted whose program differs (`compile` builds one for a
  // probe). False on failure.
  template <typename CompileFn>
  bool CompileTextPrograms(CompileFn compile, int* generic,
                           ContentTable* table) {
    std::set<std::string> keys;
    *generic = compile(TextProbe{nullptr, &keys});
    if (*generic < 0) return false;
    std::set<std::string> done;
    for (bool grew = true; grew;) {
      grew = false;
      const std::set<std::string> pending = keys;
      for (const std::string& key : pending) {
        if (!done.insert(key).second) continue;
        grew = true;
        const int p = compile(TextProbe{&key, &keys});
        if (p < 0) return false;
        if (p != *generic) {
          table->emplace_back(key, finished_[static_cast<std::size_t>(p)]);
        }
      }
    }
    return true;
  }

  bool CompileSelectorState(StateId q) {
    const int k = mft_.num_params(q);
    std::vector<SelExpr> env(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) env[static_cast<std::size_t>(i)].param = i;
    auto at = [&](std::uint32_t ctx, const TextProbe& probe) {
      return CompileSel(SelRule(q, ctx, probe), ctx, probe, env, true, q);
    };
    LoweredState st;
    int p = at(CtxDefault(), TextProbe{});
    if (p < 0) return false;
    st.element_default = finished_[static_cast<std::size_t>(p)];
    st.element.assign(width_, st.element_default);
    for (SymbolId id = 0; id < width_; ++id) {
      // Text-kind ids alias the generic-element program (see CompileProgram).
      if (dispatch_.ForElement(q, id) == nullptr) continue;
      p = at(id, TextProbe{});
      if (p < 0) return false;
      st.element[id] = finished_[static_cast<std::size_t>(p)];
    }
    p = at(CtxEps(), TextProbe{});
    if (p < 0) return false;
    st.eps = finished_[static_cast<std::size_t>(p)];
    if (!CompileTextPrograms(
            [&](const TextProbe& probe) { return at(CtxText(), probe); }, &p,
            &st.text_content)) {
      return false;
    }
    st.text = finished_[static_cast<std::size_t>(p)];
    st.text.content_switch = !st.text_content.empty();
    for (LoweredProgramRef& r : st.element) r.selector = true;
    st.element_default.selector = true;
    st.text.selector = true;
    st.eps.selector = true;
    for (auto& entry : st.text_content) entry.second.selector = true;
    plan_.states[static_cast<std::size_t>(q)] = std::move(st);
    return true;
  }

  // A call to selector cluster `item.state` whose arguments share a
  // `suffix`-node common suffix: kSelBegin, each residual alternative as
  // ordinary code, kSelEnd, then the suffix. When the anchor alone decides
  // (text and end-of-forest anchors, rules that pick at once) the winning
  // argument is emitted as plain code instead.
  bool EmitSelect(const RhsNode& item, std::size_t suffix, std::uint32_t ctx,
                  std::vector<LoweredInsn>* out) {
    const std::size_t n = item.args.size();
    std::vector<SelExpr> alts(n);
    for (std::size_t i = 0; i < n; ++i) alts[i].param = static_cast<int>(i);
    auto reduce = [&](const TextProbe& probe, SelExpr* e) {
      return ReduceCall(item.state, item.input, alts, ctx, probe, 0, e);
    };

    LoweredSelect ls;
    ls.n_alts = static_cast<std::uint32_t>(n);
    auto compile = [&](const TextProbe& probe) -> int {
      SelExpr e;
      if (!reduce(probe, &e)) return -1;
      std::vector<LoweredInsn> tmp;
      EmitSel(e, /*has_record=*/false, 0, &tmp);
      return Intern(std::move(tmp));
    };
    int p;
    if (ctx == CtxText()) {
      if (!CompileTextPrograms(compile, &p, &ls.content)) return false;
    } else {
      p = compile(TextProbe{});
      if (p < 0) return false;
    }
    ls.cluster = finished_[static_cast<std::size_t>(p)];
    if (ls.content.empty() && ls.cluster.len == 1 &&
        plan_.code[ls.cluster.off].op == LowerOp::kPick) {
      // The anchor alone decides: the winning argument is plain code.
      return EmitRhs(item.args[plan_.code[ls.cluster.off].arg], ctx, out);
    }
    ls.n_child = ls.cluster.n_child;
    ls.n_sib = ls.cluster.n_sib;
    for (const auto& [content, ref] : ls.content) {
      (void)content;
      ls.n_child = std::max(ls.n_child, ref.n_child);
      ls.n_sib = std::max(ls.n_sib, ref.n_sib);
    }
    const auto idx = static_cast<std::uint32_t>(plan_.selects.size());
    plan_.selects.push_back(std::move(ls));

    out->push_back({LowerOp::kSelBegin, idx});
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0) out->push_back({LowerOp::kSelAlt, idx});
      const Rhs& arg = item.args[i];
      Rhs residual(arg.begin(),
                   arg.end() - static_cast<std::ptrdiff_t>(suffix));
      if (!EmitRhs(residual, ctx, out)) return false;
    }
    out->push_back({LowerOp::kSelEnd, idx});
    const Rhs& a0 = item.args[0];
    Rhs c(a0.end() - static_cast<std::ptrdiff_t>(suffix), a0.end());
    return EmitRhs(c, ctx, out);
  }

  void BuildBridgeMft() {
    auto bm = std::make_unique<Mft>(mft_);
    for (std::size_t i = 0; i < sites_.size(); ++i) {
      StateId root =
          bm->AddState("bridge#" + std::to_string(i), /*num_params=*/0);
      Rhs rhs{sites_[i]};
      // One synthetic root covers all three anchor kinds: the default rule
      // fires on an element anchor, the text rule on a text anchor, and the
      // epsilon rule on an empty sub-run (x0 at end of forest — the table
      // machine resolves the x0 call against the epsilon cell).
      bm->SetDefaultRule(root, rhs);
      bm->SetTextRule(root, rhs);
      bm->SetEpsilonRule(root, rhs);
      plan_.bridge_sites.push_back(root);
    }
    // Force-compile now: sub-runs may start on concurrent engine threads,
    // and the lazy dispatch fill is single-threaded by contract.
    bm->dispatch();
    plan_.bridge_mft = std::move(bm);
  }

  bool Splice(StateId q, std::uint32_t ctx, std::vector<LoweredInsn>* out) {
    int p = CompileProgram(q, ctx);
    if (p < 0) return false;
    const LoweredProgramRef& ref = finished_[static_cast<std::size_t>(p)];
    out->insert(out->end(), plan_.code.begin() + ref.off,
                plan_.code.begin() + ref.off + ref.len);
    return true;
  }

  // Deduplicates and appends a finished program; returns its finished_
  // index, or -1 when the code store would exceed the cap.
  int Intern(std::vector<LoweredInsn> tmp) {
    std::vector<std::uint64_t> key;
    key.reserve(tmp.size());
    for (const LoweredInsn& insn : tmp) {
      key.push_back((static_cast<std::uint64_t>(insn.op) << 32) | insn.arg);
    }
    auto it = dedupe_.find(key);
    if (it != dedupe_.end()) return it->second;

    if (plan_.code.size() + tmp.size() > kMaxCodeSize) {
      error_ = "lowered program exceeds the size limit";
      return -1;
    }
    LoweredProgramRef ref;
    ref.off = static_cast<std::uint32_t>(plan_.code.size());
    ref.len = static_cast<std::uint32_t>(tmp.size());
    for (const LoweredInsn& insn : tmp) {
      switch (insn.op) {
        case LowerOp::kChild:
          ++ref.n_child;
          break;
        case LowerOp::kSib:
          ++ref.n_sib;
          break;
        case LowerOp::kSelCall:
          ++((insn.arg & kSelCallX2) != 0 ? ref.n_sib : ref.n_child);
          break;
        case LowerOp::kSelEnd:
          ref.n_child += plan_.selects[insn.arg].n_child;
          ref.n_sib += plan_.selects[insn.arg].n_sib;
          break;
        default:
          break;
      }
    }
    if (!tmp.empty()) {
      const LowerOp last = tmp.back().op;
      ref.tail_spawn = last == LowerOp::kChild || last == LowerOp::kSib;
    }
    ref.simple_sib = tmp.size() == 1 && tmp[0].op == LowerOp::kSib;
    plan_.code.insert(plan_.code.end(), tmp.begin(), tmp.end());

    int idx = static_cast<int>(finished_.size());
    finished_.push_back(ref);
    dedupe_.emplace(std::move(key), idx);
    return idx;
  }

  static constexpr std::int32_t kInProgress = -2;

  const Mft& mft_;
  const RuleDispatch& dispatch_;
  const SymbolId width_;
  LoweredPlan plan_;
  std::vector<StateClass> class_;
  std::vector<bool> sel_;      // selector-cluster shape (compiles to selects)
  std::vector<bool> escapes_;  // x0-closure can read following siblings
  std::vector<RhsNode> sites_;        // bridge call sites, deduplicated
  std::set<StateId> site_states_;     // bridged callee states (for the note)
  std::vector<std::int32_t> memo_;  // (state, ctx) -> finished_ index
  std::vector<LoweredProgramRef> finished_;
  std::map<std::vector<std::uint64_t>, int> dedupe_;
  std::vector<bool> sel_compiled_;     // selector state queued or compiled
  std::vector<StateId> sel_worklist_;  // selector states awaiting programs
  std::size_t sel_nodes_ = 0;          // reduction size, against the cap
  std::string error_;
};

// What the Mft's type-erased lowering-cache slot actually holds: the plan,
// or the reason there is none. Negative results are cached too — an
// unlowerable transducer should not re-run the analysis per engine.
struct LoweredCacheEntry {
  std::unique_ptr<const LoweredPlan> plan;
  std::string reason;
};

}  // namespace

Result<LoweredPlan> LowerMft(const Mft& mft) { return Compiler(mft).Run(); }

const LoweredPlan* GetLoweredPlan(const Mft& mft, std::string* why) {
  auto cached =
      std::static_pointer_cast<const LoweredCacheEntry>(mft.lowering_cache());
  if (cached == nullptr) {
    auto entry = std::make_shared<LoweredCacheEntry>();
    Result<LoweredPlan> r = LowerMft(mft);
    if (r.ok()) {
      entry->plan =
          std::make_unique<const LoweredPlan>(std::move(r).value());
    } else {
      entry->reason = r.status().message();
    }
    cached = std::move(entry);
    mft.set_lowering_cache(
        std::static_pointer_cast<const void>(cached));
  }
  if (why != nullptr) {
    *why = cached->plan != nullptr ? cached->plan->lowering_note
                                   : cached->reason;
  }
  return cached->plan.get();
}

}  // namespace lower
}  // namespace xqmft
