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
  kParams,       ///< carries parameters: reachable only through a kBridge
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
    for (StateId q = 0; q < mft_.num_states(); ++q) {
      // Parameter states and text-content matchers have no programs: they
      // only ever run inside a table-machine bridge.
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

  // A parameter-carrying call. Tries, in order:
  //   1. common-suffix factoring against a selector cluster, bridging the
  //      residual arguments and emitting the suffix as caller code;
  //   2. a direct table bridge over the anchor subtree.
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

    // 1) Common-suffix factoring against a selector cluster: with
    //    arguments A_i = A'_i · C the cluster's output is A'_w · C for the
    //    winner w the input selects, so bridging the residuals A'_i and
    //    emitting C as ordinary caller code is exact.
    if (sel_[static_cast<std::size_t>(callee)]) {
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
      if (item.input == InputVar::kX0 &&
          !escapes_[static_cast<std::size_t>(callee)]) {
        std::vector<Rhs> residuals;
        residuals.reserve(item.args.size());
        bool ok = true;
        for (const Rhs& arg : item.args) {
          Rhs res(arg.begin(), arg.end() - static_cast<std::ptrdiff_t>(suffix));
          if (!ArgBridgeable(res)) {
            ok = false;
            break;
          }
          residuals.push_back(std::move(res));
        }
        if (ok) {
          if (!EmitBridge(
                  RhsNode::Call(callee, InputVar::kX0, std::move(residuals)),
                  ctx, out)) {
            return false;
          }
          const Rhs& a0 = item.args[0];
          Rhs c(a0.end() - static_cast<std::ptrdiff_t>(suffix), a0.end());
          return EmitRhs(c, ctx, out);
        }
        // error_ set by ArgBridgeable; keep the more specific message.
        return false;
      }
    }

    // 2) Direct bridge: x0, non-escaping callee, anchor-local arguments.
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
      if (insn.op == LowerOp::kChild) ++ref.n_child;
      if (insn.op == LowerOp::kSib) ++ref.n_sib;
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
  std::vector<bool> sel_;      // selector-cluster shape (factoring license)
  std::vector<bool> escapes_;  // x0-closure can read following siblings
  std::vector<RhsNode> sites_;        // bridge call sites, deduplicated
  std::set<StateId> site_states_;     // bridged callee states (for the note)
  std::vector<std::int32_t> memo_;  // (state, ctx) -> finished_ index
  std::vector<LoweredProgramRef> finished_;
  std::map<std::vector<std::uint64_t>, int> dedupe_;
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
