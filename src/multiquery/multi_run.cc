#include "multiquery/multi_run.h"

#include <utility>

#include "xml/sax_parser.h"

namespace xqmft {

MultiQueryRun::MultiQueryRun(std::vector<MultiPlanSpec> plans,
                             bool union_projection, const CancelToken* cancel)
    : plans_(std::move(plans)),
      union_projection_(union_projection),
      cancel_(cancel) {}

MultiQueryRun::~MultiQueryRun() = default;

SymbolId MultiQueryRun::SymbolRemap::Map(const XmlEvent& event) {
  // Events without a master id (hand-built) fall back to the engine's
  // by-name interning in CellBuilder.
  if (event.symbol == kInvalidSymbol) return kInvalidSymbol;
  const std::size_t i = event.symbol;
  if (i >= ids.size()) ids.resize(i + 1, kInvalidSymbol);
  if (ids[i] == kInvalidSymbol) {
    ids[i] = dst->Intern(NodeKind::kElement, event.name);
  }
  return ids[i];
}

Status MultiQueryRun::CheckPlans() const {
  if (plans_.empty()) {
    return Status::InvalidArgument("multi-query run needs at least one plan");
  }
  for (const MultiPlanSpec& p : plans_) {
    if (p.mft == nullptr || p.sink == nullptr) {
      return Status::InvalidArgument(
          "multi-query plan needs a transducer and a sink");
    }
    if (p.options.validator != nullptr && plans_.size() > 1) {
      return Status::InvalidArgument(
          "a schema validator needs a one-plan run: it is per-run stateful");
    }
    if (!SameTokenization(plans_.front().options.sax, p.options.sax)) {
      return Status::InvalidArgument(
          "multi-query plans disagree on tokenization options; they must "
          "share one event stream");
    }
  }
  return Status::OK();
}

Status MultiQueryRun::Run(EventSource* events) {
  if (ran_) {
    return Status::InvalidArgument("MultiQueryRun may only run once");
  }
  ran_ = true;
  results_.resize(plans_.size());
  Status setup = CheckPlans();
  if (!setup.ok()) {
    for (MultiPlanResult& r : results_) r.status = setup;
    return setup;
  }

  const std::size_t n = plans_.size();
  first_output_bytes_.assign(n, 0);
  engines_.reserve(n);
  // A validator must see every event, so it keeps the projection off.
  bool project = union_projection_;
  for (const MultiPlanSpec& p : plans_) {
    // A plan's own token tripping makes its engine's Feed fail, which the
    // loop below isolates like any per-plan failure.
    engines_.push_back(std::make_unique<Engine>(*p.mft, p.sink, p.options));
    if (p.options.validator != nullptr) project = false;
  }
  remaps_.resize(n);
  for (std::size_t i = 0; i < n; ++i) remaps_[i].dst = engines_[i]->symbols();
  std::unique_ptr<UnionProjection> projection;
  if (project) {
    std::vector<const QueryProjection*> projections;
    projections.reserve(n);
    for (const MultiPlanSpec& p : plans_) projections.push_back(p.projection);
    projection = std::make_unique<UnionProjection>(projections, &master_);
    if (!projection->enabled()) projection.reset();
  }
  stats_.projection_enabled = projection != nullptr;
  events->BindSymbols(&master_);

  std::vector<char> saw_output(n, 0);
  auto settle = [&](std::size_t i, const Status& st) {
    if (!st.ok()) {
      results_[i].status = st;  // isolated: siblings keep going
    } else if (saw_output[i] == 0 && engines_[i]->output_events() > 0) {
      saw_output[i] = 1;
      first_output_bytes_[i] = events->bytes_consumed();
    }
  };
  // Engine i can still change its output: neither failed nor done.
  auto live = [&](std::size_t i) {
    return results_[i].status.ok() && !engines_[i]->done();
  };
  for (std::size_t i = 0; i < n; ++i) settle(i, engines_[i]->Prime());

  XmlEvent event;
  XmlEvent remapped;
  for (;;) {
    // Stop reading as soon as no engine is live.
    bool any_live = false;
    for (std::size_t i = 0; i < n && !any_live; ++i) any_live = live(i);
    if (!any_live) break;
    Status st = events->Next(&event);
    if (!st.ok()) return Abort(events, std::move(st));
    if (event.type == XmlEventType::kEndOfDocument) break;
    ++stats_.events_total;
    // Run-level cancellation, polled here as well as inside the engines:
    // under the union projection a long unmatchable stretch feeds no engine
    // at all, so only the shared pump can observe a deadline during it.
    if (cancel_ != nullptr && (stats_.events_total & 255u) == 0) {
      Status cst = cancel_->Check();
      if (!cst.ok()) return Abort(events, std::move(cst));
    }
    if (projection != nullptr && !projection->Feed(event)) {
      ++stats_.events_skipped;
      if (event.type == XmlEventType::kStartElement) {
        // The rest of the element never becomes events: the source skips
        // it, polling the run-level token as it goes.
        const std::size_t before = events->bytes_consumed();
        Status sst = events->SkipElement(cancel_);
        if (!sst.ok()) return Abort(events, std::move(sst));
        ++stats_.subtrees_skipped;
        stats_.bytes_skipped += events->bytes_consumed() - before;
      }
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!live(i)) continue;
      remapped = event;
      remapped.symbol = event.type == XmlEventType::kStartElement
                            ? remaps_[i].Map(event)
                            : kInvalidSymbol;
      const Status fst = engines_[i]->Feed(remapped);
      if (fst.ok()) ++results_[i].events_fed;
      settle(i, fst);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    // Engine::Finish supplies the synthetic end-of-document to live
    // engines, is a stats-only no-op on failed (sticky) ones, and fills
    // stats either way.
    FinishPlan(i, events);
  }
  stats_.bytes_in = events->bytes_consumed();
  return Status::OK();
}

void MultiQueryRun::FinishPlan(std::size_t i, EventSource* events) {
  Status fst = engines_[i]->Finish(&results_[i].stats);
  if (results_[i].status.ok() && !fst.ok()) results_[i].status = fst;
  results_[i].stats.bytes_in = events->bytes_consumed();
  results_[i].stats.bytes_in_at_first_output = first_output_bytes_[i];
}

Status MultiQueryRun::Abort(EventSource* events, Status st) {
  // Plans whose output completed keep their results, exactly as their
  // one-plan runs (which stop reading early) would. Unfinished plans get
  // the status only: Finish would synthesize end-of-document and emit
  // output for a run being abandoned.
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    if (!results_[i].status.ok()) continue;
    if (engines_[i]->done()) {
      FinishPlan(i, events);
    } else {
      results_[i].status = st;
    }
  }
  stats_.bytes_in = events->bytes_consumed();
  return st;
}

}  // namespace xqmft
