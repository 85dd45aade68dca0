#include "core/pipeline.h"

#include <deque>
#include <limits>
#include <utility>

#include "lower/lower.h"
#include "mft/dispatch.h"
#include "mft/interp.h"
#include "parallel/pretok_split.h"
#include "parallel/sharded_executor.h"
#include "translate/translate.h"
#include "xml/pretok.h"
#include "xml/sax_parser.h"

namespace xqmft {

namespace {

// A pretok stream tokenized under different SAX options replays different
// events; runs check before handing a source to an engine.
Status CheckPretokOptions(SaxOptions declared, SaxOptions expected,
                          const std::string& what) {
  if (!SameTokenization(declared, expected)) {
    return Status::InvalidArgument(
        "pretok stream " + what +
        " was tokenized under different SAX options than this pipeline");
  }
  return Status::OK();
}

// Shared tail of both builders: reject per-run state in the immutable
// artifact and force every lazily-compiled piece of the Mft (dispatch
// tables, RHS symbol ids, the base symbol table) before the plan escapes —
// from here on the plan is read-only by construction.
Status FinishPlan(const Mft& mft, const PipelineOptions& options) {
  if (options.stream.validator != nullptr) {
    return Status::InvalidArgument(
        "a schema validator is per-run mutable state and cannot be baked "
        "into an immutable CompiledPlan; pass it per run via RunOptions "
        "instead");
  }
  if (options.stream.cancel != nullptr) {
    return Status::InvalidArgument(
        "a cancel token is per-request state and cannot be baked into an "
        "immutable CompiledPlan; pass it per run via RunOptions instead");
  }
  XQMFT_RETURN_NOT_OK(mft.Validate());
  mft.dispatch();  // compile-once: warm before the plan is shareable
  // Warm the execution lowering too (or cache the not-lowerable verdict):
  // engine construction then only ever reads the immutable cached result,
  // keeping concurrent runs of a shared plan race-free.
  lower::GetLoweredPlan(mft);
  return Status::OK();
}

}  // namespace

Result<std::shared_ptr<const CompiledPlan>> CompiledPlan::Compile(
    const std::string& query_text, PipelineOptions options) {
  std::shared_ptr<CompiledPlan> plan(new CompiledPlan());
  plan->options_ = options;
  XQMFT_ASSIGN_OR_RETURN(plan->query_, ParseQuery(query_text));
  XQMFT_RETURN_NOT_OK(ValidateQuery(*plan->query_));
  XQMFT_ASSIGN_OR_RETURN(plan->raw_mft_, TranslateQuery(*plan->query_));
  if (options.optimize) {
    plan->mft_ = OptimizeMft(plan->raw_mft_, options.optimizer,
                             &plan->report_);
  } else {
    plan->mft_ = plan->raw_mft_;
    plan->report_.before = ComputeStats(plan->raw_mft_);
    plan->report_.after = plan->report_.before;
  }
  plan->projection_ = DeriveProjection(plan->query_.get());
  XQMFT_RETURN_NOT_OK(FinishPlan(plan->mft_, options));
  return std::shared_ptr<const CompiledPlan>(std::move(plan));
}

Result<std::shared_ptr<const CompiledPlan>> CompiledPlan::FromMft(
    Mft mft, PipelineOptions options) {
  std::shared_ptr<CompiledPlan> plan(new CompiledPlan());
  plan->options_ = options;
  plan->mft_ = std::move(mft);
  plan->projection_ = DeriveProjection(nullptr);
  XQMFT_RETURN_NOT_OK(FinishPlan(plan->mft_, options));
  return std::shared_ptr<const CompiledPlan>(std::move(plan));
}

std::size_t CompiledPlan::ApproxBytes() const {
  // Rule storage dominated by RhsNodes; dispatch rows are width pointers per
  // state; symbols cost their entry plus name bytes. An estimate for cache
  // accounting, not an allocator measurement.
  const RuleDispatch& dispatch = mft_.dispatch();
  const SymbolTable& symbols = mft_.symbols();
  std::size_t bytes = sizeof(CompiledPlan);
  bytes += mft_.Size() * sizeof(RhsNode);
  if (has_query()) bytes += raw_mft_.Size() * sizeof(RhsNode);
  bytes += static_cast<std::size_t>(mft_.num_states()) *
           static_cast<std::size_t>(dispatch.width()) * sizeof(void*);
  for (std::size_t id = 0; id < symbols.size(); ++id) {
    bytes += sizeof(SymbolId) + 2 * sizeof(void*) +
             symbols.name(static_cast<SymbolId>(id)).size();
  }
  return bytes;
}

namespace {

// An input opened for one pass: the event source the pass reads and
// whatever backs it.
struct OpenedInput {
  std::unique_ptr<ByteSource> bytes;   // mapping or view of a text input
  std::unique_ptr<EventSource> owned;  // parser, pretok or shard reader
  PretokSource* pretok = nullptr;      // pretok kinds: sharding reads it
  EventSource* events = nullptr;
};

// The one switch over input kinds. A pretok stream tokenized under other SAX
// options would replay different events, so it is rejected here.
Status OpenInput(const ParallelInput& in, const SaxOptions& sax,
                 OpenedInput* out) {
  ByteSource* text = nullptr;
  switch (in.kind) {
    case ParallelInput::Kind::kXmlFile: {
      // mmap when available: the parser scans the mapping in place and file
      // input pays no stdio copy.
      XQMFT_ASSIGN_OR_RETURN(out->bytes, MmapSource::Open(in.value));
      text = out->bytes.get();
      break;
    }
    case ParallelInput::Kind::kXmlText:
      out->bytes = std::make_unique<StringSource>(in.value);
      text = out->bytes.get();
      break;
    case ParallelInput::Kind::kByteSource:
      text = in.bytes;
      if (text == nullptr) {
        return Status::InvalidArgument("run input has a null byte source");
      }
      break;
    case ParallelInput::Kind::kPretokFile: {
      XQMFT_ASSIGN_OR_RETURN(std::unique_ptr<PretokSource> src,
                             PretokSource::OpenFile(in.value));
      XQMFT_RETURN_NOT_OK(
          CheckPretokOptions(src->declared_options(), sax, in.value));
      out->pretok = src.get();
      out->owned = std::move(src);
      break;
    }
    case ParallelInput::Kind::kPretokBytes: {
      auto src = std::make_unique<PretokSource>(in.value);
      if (src->header_ok()) {
        XQMFT_RETURN_NOT_OK(
            CheckPretokOptions(src->declared_options(), sax, "(in-memory)"));
      }
      out->pretok = src.get();
      out->owned = std::move(src);
      break;
    }
    case ParallelInput::Kind::kEventSource:
      if (in.events == nullptr) {
        return Status::InvalidArgument("run input has a null event source");
      }
      out->events = in.events;
      return Status::OK();
  }
  if (text != nullptr) out->owned = std::make_unique<SaxParser>(text, sax);
  out->events = out->owned.get();
  return Status::OK();
}

// The token plan `i`'s engine polls: its own member token, else the run's.
const CancelToken* CancelFor(const RunOptions& options, std::size_t i) {
  if (i < options.per_plan_cancel.size() &&
      options.per_plan_cancel[i] != nullptr) {
    return options.per_plan_cancel[i];
  }
  return options.cancel;
}

// One shared pass of `plans` over `events` through MultiQueryRun, the one
// loop that feeds engines. `ids` names each plan's index in the run (for its
// cancel token). Per-plan outcomes land in `results`.
void Pass(const std::vector<const CompiledPlan*>& plans,
          const std::vector<OutputSink*>& sinks,
          const std::vector<std::size_t>& ids, EventSource* events,
          const RunOptions& options, std::vector<MultiPlanResult>* results,
          MultiQueryStats* stats) {
  std::vector<MultiPlanSpec> specs(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    specs[i].mft = &plans[i]->mft();
    specs[i].projection = &plans[i]->projection();
    specs[i].options = plans[i]->options().stream;
    specs[i].options.cancel = CancelFor(options, ids[i]);
    specs[i].options.validator = options.validator;
    specs[i].sink = sinks[i];
  }
  MultiQueryRun run(std::move(specs), options.union_projection,
                    options.cancel);
  run.Run(events);  // source errors also land in the per-plan results
  *results = run.results();
  *stats = run.stats();
}

void AddPass(const MultiQueryStats& pass, MultiQueryStats* total) {
  total->events_total += pass.events_total;
  total->events_skipped += pass.events_skipped;
  total->subtrees_skipped += pass.subtrees_skipped;
  total->bytes_skipped += pass.bytes_skipped;
  total->bytes_in += pass.bytes_in;
  total->projection_enabled =
      total->projection_enabled || pass.projection_enabled;
}

Status CheckRun(const std::vector<const CompiledPlan*>& plans,
                const std::vector<ParallelInput>& inputs,
                const std::vector<OutputSink*>& sinks,
                const RunOptions& options) {
  if (plans.empty()) {
    return Status::InvalidArgument("a run needs at least one plan");
  }
  if (plans.size() != sinks.size()) {
    return Status::InvalidArgument("a run needs exactly one sink per plan");
  }
  for (std::size_t i = 0; i < plans.size(); ++i) {
    if (plans[i] == nullptr || sinks[i] == nullptr) {
      return Status::InvalidArgument("run plan or sink is null");
    }
  }
  if (plans.size() > 1 && (options.threads != 1 || options.shards != 1)) {
    return Status::InvalidArgument(
        "threads and shards cannot combine with several plans: a "
        "multi-query run is serial per document (sharding it is future "
        "work)");
  }
  if (options.validator != nullptr &&
      (plans.size() > 1 || inputs.size() != 1 || options.shards != 1)) {
    return Status::InvalidArgument(
        "schema validation is per-run stateful: it needs one plan over one "
        "unsharded input");
  }
  return Status::OK();
}

// One plan: every input (or every shard of a pretok input) is a work item
// fanned across the sharded executor with ordered merge.
Status RunOnePlan(const CompiledPlan& plan,
                  const std::vector<ParallelInput>& inputs, OutputSink* sink,
                  const RunOptions& options, RunResult* r) {
  const SaxOptions& sax = plan.options().stream.sax;
  struct Item {
    std::size_t input;
    const PretokShardPlan* split;  // null: the whole input
    std::size_t shard;
  };
  std::deque<OpenedInput> split_inputs;  // stable: shard plans view them
  std::deque<PretokShardPlan> splits;
  std::vector<Item> items;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const ParallelInput::Kind kind = inputs[i].kind;
    if (options.shards == 1 || (kind != ParallelInput::Kind::kPretokFile &&
                                kind != ParallelInput::Kind::kPretokBytes)) {
      items.push_back({i, nullptr, 0});
      continue;
    }
    OpenedInput& opened = split_inputs.emplace_back();
    XQMFT_RETURN_NOT_OK(OpenInput(inputs[i], sax, &opened));
    // shards == 0 splits at every top-level forest boundary (the splitter
    // clamps to the tree count). Deliberately NOT the worker count: on a
    // multi-tree forest the decomposition shapes the output, so deriving it
    // from the machine would make identical commands print different bytes.
    XQMFT_ASSIGN_OR_RETURN(
        PretokShardPlan split,
        PlanPretokShards(opened.pretok->data(),
                         options.shards == 0
                             ? std::numeric_limits<std::size_t>::max()
                             : options.shards));
    XQMFT_RETURN_NOT_OK(CheckPretokOptions(split.declared, sax, "(sharded)"));
    splits.push_back(std::move(split));
    for (std::size_t s = 0; s < splits.back().shards.size(); ++s) {
      items.push_back({i, &splits.back(), s});
    }
  }

  std::vector<MultiPlanResult> item_results(items.size());
  std::vector<MultiQueryStats> item_passes(items.size());
  std::vector<char> ran(items.size(), 0);
  auto item = [&](std::size_t k, OutputSink* item_sink) -> Status {
    ran[k] = 1;
    OpenedInput opened;
    if (items[k].split != nullptr) {
      opened.owned =
          std::make_unique<PretokShardSource>(items[k].split, items[k].shard);
      opened.events = opened.owned.get();
    } else {
      XQMFT_RETURN_NOT_OK(OpenInput(inputs[items[k].input], sax, &opened));
    }
    std::vector<MultiPlanResult> results;
    Pass({&plan}, {item_sink}, {0}, opened.events, options, &results,
         &item_passes[k]);
    item_results[k] = std::move(results[0]);
    return item_results[k].status;
  };
  RunResult::Plan& out = r->plans[0];
  out.status = ShardedExecutor::Run(items.size(), item, sink, options.threads);
  for (std::size_t k = 0; k < items.size(); ++k) {
    out.per_input.push_back(item_results[k].stats);
    out.events_fed += item_results[k].events_fed;
    AddPass(item_passes[k], &r->pass);
    r->documents += ran[k];
  }
  return Status::OK();
}

// Several plans: each input is tokenized once and feeds every plan still
// live; a plan that failed on an earlier input is not fed later ones.
void RunPlans(const std::vector<const CompiledPlan*>& plans,
              const std::vector<ParallelInput>& inputs,
              const std::vector<OutputSink*>& sinks, const RunOptions& options,
              RunResult* r) {
  const SaxOptions& sax = plans.front()->options().stream.sax;
  for (const ParallelInput& input : inputs) {
    std::vector<const CompiledPlan*> live_plans;
    std::vector<OutputSink*> live_sinks;
    std::vector<std::size_t> live;
    for (std::size_t i = 0; i < plans.size(); ++i) {
      if (!r->plans[i].status.ok()) continue;
      live_plans.push_back(plans[i]);
      live_sinks.push_back(sinks[i]);
      live.push_back(i);
    }
    if (live.empty()) return;
    ++r->documents;
    OpenedInput opened;
    Status st = OpenInput(input, sax, &opened);
    std::vector<MultiPlanResult> results;
    if (st.ok()) {
      MultiQueryStats pass;
      Pass(live_plans, live_sinks, live, opened.events, options, &results,
           &pass);
      AddPass(pass, &r->pass);
    }
    for (std::size_t k = 0; k < live.size(); ++k) {
      RunResult::Plan& p = r->plans[live[k]];
      if (!st.ok()) {
        p.status = st;
        continue;
      }
      p.status = results[k].status;
      p.per_input.push_back(results[k].stats);
      p.events_fed += results[k].events_fed;
    }
  }
}

StreamStats AggregateStreamStats(const std::vector<StreamStats>& per_input) {
  if (per_input.size() == 1) return per_input.front();
  StreamStats out;
  for (const StreamStats& s : per_input) {
    if (s.peak_bytes > out.peak_bytes) out.peak_bytes = s.peak_bytes;
    if (s.segments_peak > out.segments_peak) {
      out.segments_peak = s.segments_peak;
    }
    out.final_bytes += s.final_bytes;
    out.rule_applications += s.rule_applications;
    out.cells_created += s.cells_created;
    out.cells_arena += s.cells_arena;
    out.exprs_created += s.exprs_created;
    out.bytes_in += s.bytes_in;
    out.output_events += s.output_events;
    out.used_ops_engine = out.used_ops_engine || s.used_ops_engine;
    out.bridge_runs += s.bridge_runs;
    out.hybrid_plan = out.hybrid_plan || s.hybrid_plan;
  }
  return out;
}

// Run over one input for one plan, for the one-plan shorthands.
Status RunOne(const CompiledPlan& plan, ParallelInput input, OutputSink* sink,
              StreamStats* stats) {
  RunResult result;
  Status st = Run({&plan}, {std::move(input)}, {sink}, {}, &result);
  if (stats != nullptr) *stats = result.plans[0].total;
  return st;
}

}  // namespace

Status Run(const std::vector<const CompiledPlan*>& plans,
           const std::vector<ParallelInput>& inputs,
           const std::vector<OutputSink*>& sinks, const RunOptions& options,
           RunResult* result) {
  RunResult local;
  RunResult* r = result != nullptr ? result : &local;
  *r = RunResult{};
  r->plans.resize(plans.size());
  Status setup = CheckRun(plans, inputs, sinks, options);
  if (setup.ok()) {
    if (plans.size() == 1) {
      setup = RunOnePlan(*plans[0], inputs, sinks[0], options, r);
    } else {
      RunPlans(plans, inputs, sinks, options, r);
    }
  }
  if (!setup.ok()) {
    for (RunResult::Plan& p : r->plans) p.status = setup;
    return setup;
  }
  Status first_failure;
  std::size_t failed = 0;
  for (RunResult::Plan& p : r->plans) {
    p.total = AggregateStreamStats(p.per_input);
    if (p.status.ok()) continue;
    if (first_failure.ok()) first_failure = p.status;
    ++failed;
  }
  if (result == nullptr || failed == plans.size()) return first_failure;
  return Status::OK();
}

Status CompiledPlan::StreamFile(const std::string& path, OutputSink* sink,
                                StreamStats* stats) const {
  return RunOne(*this, ParallelInput::XmlFile(path), sink, stats);
}

Status CompiledPlan::StreamEvents(EventSource* events, OutputSink* sink,
                                  StreamStats* stats) const {
  return RunOne(*this, ParallelInput::Events(events), sink, stats);
}

Result<Forest> CompiledPlan::Evaluate(const Forest& input) const {
  return RunMft(mft_, input);
}

}  // namespace xqmft
