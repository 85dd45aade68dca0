#include "service/wire.h"

#include <chrono>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "service/fault.h"
#include "stream/engine.h"
#include "util/strings.h"
#include "xml/pretok.h"
#include "xml/sax_parser.h"

namespace xqmft {

namespace {

// The "lowered" response field: how much of the plan the run executed on the
// opcode engine ("full", "hybrid"), or "no" for a table-engine run.
const char* LoweredField(const StreamStats& s) {
  if (!s.used_ops_engine) return "no";
  return s.hybrid_plan ? "hybrid" : "full";
}

}  // namespace

void AppendJsonValue(std::string* out, const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::kNull:
      *out += "null";
      return;
    case JsonValue::Kind::kBool:
      *out += v.boolean ? "true" : "false";
      return;
    case JsonValue::Kind::kNumber: {
      // Integers (the common id shape) print without an exponent.
      if (v.number == std::floor(v.number) && std::fabs(v.number) < 1e15) {
        *out += StrFormat("%lld", static_cast<long long>(v.number));
      } else {
        *out += StrFormat("%g", v.number);
      }
      return;
    }
    case JsonValue::Kind::kString:
      AppendJsonString(out, v.string);
      return;
    case JsonValue::Kind::kArray:
      out->push_back('[');
      for (std::size_t i = 0; i < v.items.size(); ++i) {
        if (i != 0) out->push_back(',');
        AppendJsonValue(out, v.items[i]);
      }
      out->push_back(']');
      return;
    case JsonValue::Kind::kObject:
      out->push_back('{');
      for (std::size_t i = 0; i < v.fields.size(); ++i) {
        if (i != 0) out->push_back(',');
        AppendJsonString(out, v.fields[i].first);
        out->push_back(':');
        AppendJsonValue(out, v.fields[i].second);
      }
      out->push_back('}');
      return;
  }
}

const char* WireStatusString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid_argument";
    case StatusCode::kNotSupported: return "not_supported";
    case StatusCode::kOutOfRange: return "out_of_range";
    case StatusCode::kResourceExhausted: return "resource_exhausted";
    case StatusCode::kInternal: return "internal";
    case StatusCode::kCancelled: return "cancelled";
    case StatusCode::kDeadlineExceeded: return "deadline_exceeded";
    case StatusCode::kUnavailable: return "unavailable";
  }
  return "internal";
}

void AppendErrorResponse(std::string* out, const JsonValue* id,
                         std::string_view message, StatusCode code) {
  ResponseWriter w(id);
  w.Raw("ok", "false");
  w.Field("error", message);
  w.Field("status", WireStatusString(code));
  *out += w.Finish();
  *out += "\n";
}

StatusCode AppendBadRequestResponse(std::string* out, const JsonValue* id,
                                    std::string_view message) {
  ResponseWriter w(id);
  w.Raw("ok", "false");
  w.Field("error", message);
  w.Field("status", "bad_request");
  *out += w.Finish();
  *out += "\n";
  return StatusCode::kInvalidArgument;
}

std::string CoalesceKey(const JsonValue& json) {
  if (!json.is_object()) return std::string();
  // Forms with their own execution paths (cmd, batch), per-request source
  // wrapping (fault), or request-level execution knobs the shared pass
  // ignores (threads) stay on the single-request path.
  if (json.Find("cmd") != nullptr || json.Find("queries") != nullptr ||
      json.Find("fault") != nullptr || json.Find("threads") != nullptr) {
    return std::string();
  }
  const JsonValue* query = json.Find("query");
  if (query == nullptr || !query->is_string()) return std::string();
  const JsonValue* inputs = json.Find("inputs");
  const JsonValue* xml = json.Find("xml");
  auto strings_only = [](const JsonValue* v) {
    if (v == nullptr) return true;
    if (!v->is_array()) return false;
    for (const JsonValue& item : v->items) {
      if (!item.is_string()) return false;
    }
    return true;
  };
  if (!strings_only(inputs) || !strings_only(xml)) return std::string();
  if ((inputs == nullptr || inputs->items.empty()) &&
      (xml == nullptr || xml->items.empty())) {
    return std::string();  // no documents: the single path owns the error
  }
  // JSON-serialized field lists: two requests with equal keys parse into
  // identical ParallelInput lists, i.e. the same ExecuteBatch InputsKey.
  std::string key = "i";
  if (inputs != nullptr) AppendJsonValue(&key, *inputs);
  key += "x";
  if (xml != nullptr) AppendJsonValue(&key, *xml);
  return key;
}

namespace {

void AppendError(std::string* out, const JsonValue* id, const Status& st) {
  AppendErrorResponse(out, id, st.ToString(), st.code());
}

void AppendStatsResponse(std::string* out, const JsonValue* id,
                         const QueryCacheStats& stats) {
  ResponseWriter w(id);
  w.Raw("ok", "true");
  w.Raw("stats",
        StrFormat("{\"hits\":%llu,\"misses\":%llu,\"compiles\":%llu,"
                  "\"failures\":%llu,\"evictions\":%llu,\"entries\":%zu,"
                  "\"bytes\":%zu,\"compile_ms_total\":%.3f}",
                  static_cast<unsigned long long>(stats.hits),
                  static_cast<unsigned long long>(stats.misses),
                  static_cast<unsigned long long>(stats.compiles),
                  static_cast<unsigned long long>(stats.failures),
                  static_cast<unsigned long long>(stats.evictions),
                  stats.entries, stats.bytes, stats.compile_ms_total));
  *out += w.Finish();
  *out += "\n";
}

// Reads a non-negative integer field into *value; false (with an error
// appended to *err) on a malformed one, true otherwise (absent = untouched).
bool ParseCount(const JsonValue& json, std::string_view key,
                std::uint64_t* value, std::string* err) {
  const JsonValue* v = json.Find(key);
  if (v == nullptr) return true;
  if (!v->is_number() || v->number < 0 ||
      v->number != std::floor(v->number)) {
    *err = StrFormat("\"%.*s\" must be a non-negative integer",
                     static_cast<int>(key.size()), key.data());
    return false;
  }
  *value = static_cast<std::uint64_t>(v->number);
  return true;
}

// Parses the shared "inputs" (file paths) and "xml" (inline documents)
// fields into ParallelInputs; used by single and batch requests alike.
// `limits` caps the total inline document bytes a request may carry.
Status ParseInputs(const JsonValue& json, const RequestLimits& limits,
                   std::vector<ParallelInput>* out) {
  if (const JsonValue* inputs = json.Find("inputs")) {
    if (!inputs->is_array()) {
      return Status::InvalidArgument("\"inputs\" must be an array of paths");
    }
    for (const JsonValue& item : inputs->items) {
      if (!item.is_string()) {
        return Status::InvalidArgument("\"inputs\" must be an array of paths");
      }
      // Same sniff as the CLI's positional inputs: a pretok cache replays
      // as events, anything else parses as text XML.
      out->push_back(IsPretokFile(item.string)
                         ? ParallelInput::PretokFile(item.string)
                         : ParallelInput::XmlFile(item.string));
    }
  }
  if (const JsonValue* xml = json.Find("xml")) {
    if (!xml->is_array()) {
      return Status::InvalidArgument(
          "\"xml\" must be an array of inline documents");
    }
    std::size_t inline_bytes = 0;
    for (const JsonValue& item : xml->items) {
      if (!item.is_string()) {
        return Status::InvalidArgument(
            "\"xml\" must be an array of inline documents");
      }
      inline_bytes += item.string.size();
      if (limits.max_inline_xml_bytes != 0 &&
          inline_bytes > limits.max_inline_xml_bytes) {
        return Status::InvalidArgument(
            StrFormat("inline \"xml\" documents exceed the %zu-byte limit",
                      limits.max_inline_xml_bytes));
      }
      out->push_back(ParallelInput::XmlText(item.string));
    }
  }
  return Status::OK();
}

// A single request plus its optional fault directive (which is wire-layer
// state, not part of the service request).
struct WireRequest {
  ServiceRequest req;
  FaultSpec fault;
};

// Builds the request from its parsed JSON; error strings are user-facing.
Result<WireRequest> BuildRequest(const JsonValue& json,
                                 const WireOptions& options) {
  WireRequest out;
  ServiceRequest& req = out.req;
  req.threads = options.default_threads;
  const JsonValue* query = json.Find("query");
  if (query == nullptr || !query->is_string()) {
    return Status::InvalidArgument("request needs a string \"query\" field");
  }
  req.query = query->string;
  XQMFT_RETURN_NOT_OK(ParseInputs(json, options.limits, &req.inputs));
  if (const JsonValue* threads = json.Find("threads")) {
    if (!threads->is_number() || threads->number < 0 ||
        threads->number != std::floor(threads->number)) {
      return Status::InvalidArgument("\"threads\" must be a count >= 0");
    }
    req.threads = static_cast<std::size_t>(threads->number);
  }
  if (const JsonValue* no_opt = json.Find("no_opt")) {
    if (!no_opt->is_bool()) {
      return Status::InvalidArgument("\"no_opt\" must be a boolean");
    }
    req.no_opt = no_opt->boolean;
  }
  std::string err;
  if (!ParseCount(json, "deadline_ms", &req.deadline_ms, &err)) {
    return Status::InvalidArgument(err);
  }
  if (const JsonValue* fault = json.Find("fault")) {
    if (!options.allow_fault_injection) {
      return Status::InvalidArgument(
          "fault injection is disabled on this server");
    }
    if (!fault->is_object()) {
      return Status::InvalidArgument("\"fault\" must be an object");
    }
    const JsonValue* kind = fault->Find("kind");
    if (kind == nullptr || !kind->is_string() ||
        !ParseFaultKind(kind->string, &out.fault.kind)) {
      return Status::InvalidArgument(
          "\"fault.kind\" must be \"none\", \"truncate\", \"error\" or "
          "\"stall\"");
    }
    if (!ParseCount(*fault, "at_event", &out.fault.at_event, &err) ||
        !ParseCount(*fault, "stall_ms", &out.fault.stall_ms, &err)) {
      return Status::InvalidArgument(err);
    }
  }
  if (req.inputs.empty()) {
    return Status::InvalidArgument(
        "request has no documents (give \"inputs\" paths or inline \"xml\")");
  }
  return out;
}

// Resolves the run's cancel token: the transport's token if given (arming
// the request deadline on it unless the transport armed one from admission
// time already), a request-local token when only a deadline needs carrying,
// null when the request is not cancellable at all.
CancelToken* ResolveToken(CancelToken* transport, std::uint64_t deadline_ms,
                          CancelToken* local) {
  CancelToken* token = transport;
  if (deadline_ms > 0) {
    if (token == nullptr) token = local;
    if (!token->has_deadline()) token->SetDeadlineAfterMs(deadline_ms);
  }
  return token;
}

// Streams a fault-injected request: the single input document is wrapped in
// a FaultInjectingSource between the parser and the engine, then runs
// through the same compiled plan (from the service's cache) a normal
// request would use.
Status ExecuteWithFault(QueryService* service, const ServiceRequest& req,
                        const FaultSpec& fault, CancelToken* cancel,
                        OutputSink* sink, ServiceRequestStats* stats) {
  if (req.inputs.size() != 1) {
    return Status::InvalidArgument(
        "fault injection supports exactly one input document");
  }
  const ParallelInput& in = req.inputs[0];
  if (in.kind != ParallelInput::Kind::kXmlText &&
      in.kind != ParallelInput::Kind::kXmlFile) {
    return Status::InvalidArgument(
        "fault injection supports text XML inputs only");
  }
  PipelineOptions popts = service->base_options();
  if (req.no_opt) popts.optimize = false;
  XQMFT_ASSIGN_OR_RETURN(QueryCacheLookup lookup,
                         service->cache()->Lookup(req.query, popts));
  stats->cache_hit = lookup.hit;
  stats->compile_ms = lookup.compile_ms;

  std::unique_ptr<ByteSource> owned;
  if (in.kind == ParallelInput::Kind::kXmlFile) {
    XQMFT_ASSIGN_OR_RETURN(owned, MmapSource::Open(in.value));
  } else {
    owned = std::make_unique<StringSource>(in.value);
  }
  SaxParser parser(owned.get(), lookup.plan->options().stream.sax);
  FaultInjectingSource events(&parser, fault);

  RunOptions run;
  run.cancel = cancel;
  RunResult result;
  auto t0 = std::chrono::steady_clock::now();
  Status st = Run({lookup.plan.get()}, {ParallelInput::Events(&events)},
                  {sink}, run, &result);
  stats->stream_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  stats->total = result.plans[0].total;
  stats->per_input = std::move(result.plans[0].per_input);
  return st;
}

}  // namespace

StatusCode RequestHandler::HandleLine(std::string_view line,
                                      CancelToken* cancel, std::string* out) {
  if (options_.limits.max_line_bytes != 0 &&
      line.size() > options_.limits.max_line_bytes) {
    Status st = Status::InvalidArgument(
        StrFormat("request line exceeds the %zu-byte limit",
                  options_.limits.max_line_bytes));
    AppendError(out, nullptr, st);
    return st.code();
  }
  Result<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok()) {
    AppendError(out, nullptr, parsed.status());
    return parsed.status().code();
  }
  return HandleParsed(parsed.value(), cancel, out);
}

StatusCode RequestHandler::HandleParsed(const JsonValue& json,
                                        CancelToken* cancel,
                                        std::string* out) {
  if (!json.is_object()) {
    Status st = Status::InvalidArgument("request must be a JSON object");
    AppendError(out, nullptr, st);
    return st.code();
  }
  const JsonValue* id = json.Find("id");

  if (const JsonValue* cmd = json.Find("cmd")) {
    if (!cmd->is_string()) {
      AppendErrorResponse(out, id, "unknown \"cmd\"",
                          StatusCode::kInvalidArgument);
      return StatusCode::kInvalidArgument;
    }
    if (options_.cmd_hook && options_.cmd_hook(cmd->string, id, out)) {
      return StatusCode::kOk;
    }
    if (cmd->string == "stats") {
      AppendStatsResponse(out, id, service_->cache()->stats());
      return StatusCode::kOk;
    }
    AppendErrorResponse(out, id, "unknown \"cmd\"",
                        StatusCode::kInvalidArgument);
    return StatusCode::kInvalidArgument;
  }

  if (json.Find("queries") != nullptr) {
    return HandleBatch(json, id, cancel, out);
  }

  Result<WireRequest> request = BuildRequest(json, options_);
  if (!request.ok()) {
    AppendError(out, id, request.status());
    return request.status().code();
  }
  WireRequest& wire = request.value();
  wire.req.cancel = cancel;

  StringSink sink;
  ServiceRequestStats stats;
  Status st;
  if (wire.fault.kind != FaultSpec::Kind::kNone) {
    CancelToken local;
    CancelToken* token = ResolveToken(cancel, wire.req.deadline_ms, &local);
    st = ExecuteWithFault(service_, wire.req, wire.fault, token, &sink,
                          &stats);
  } else {
    st = service_->Execute(wire.req, &sink, &stats);
  }
  if (!st.ok()) {
    AppendError(out, id, st);
    return st.code();
  }

  if (options_.run_observer) options_.run_observer(stats.total);
  QueryCacheStats cache = service_->cache()->stats();
  ResponseWriter w(id);
  w.Raw("ok", "true");
  w.Raw("bytes", std::to_string(sink.str().size()));
  w.Field("cache", stats.cache_hit ? "hit" : "miss");
  w.Raw("compile_ms", StrFormat("%.3f", stats.compile_ms));
  w.Raw("stream_ms", StrFormat("%.3f", stats.stream_ms));
  w.Raw("bytes_in", std::to_string(stats.total.bytes_in));
  w.Raw("output_events", std::to_string(stats.total.output_events));
  w.Raw("peak_mem_bytes", std::to_string(stats.total.peak_bytes));
  w.Field("engine", stats.total.used_ops_engine ? "ops" : "table");
  w.Field("lowered", LoweredField(stats.total));
  w.Raw("cache_hits", std::to_string(cache.hits));
  w.Raw("cache_misses", std::to_string(cache.misses));
  w.Raw("cache_entries", std::to_string(cache.entries));
  *out += w.Finish();
  *out += "\n";
  *out += sink.str();
  *out += "\n";
  return StatusCode::kOk;
}

std::uint64_t RequestHandler::HandleCoalesced(std::vector<CoalescedJob>* group,
                                              std::size_t* shared_members) {
  if (shared_members != nullptr) *shared_members = 0;
  std::vector<std::size_t> live;       // group indices that reach the pass
  std::vector<const JsonValue*> ids(group->size(), nullptr);
  std::vector<ServiceRequest> requests;
  for (std::size_t m = 0; m < group->size(); ++m) {
    CoalescedJob& job = (*group)[m];
    ids[m] = job.json->Find("id");
    // Expired or disconnected members are excluded before the shared run
    // starts — same contract as the worker's pre-execution check.
    if (job.cancel != nullptr) {
      Status pre = job.cancel->Check();
      if (!pre.ok()) {
        AppendErrorResponse(job.out, ids[m], pre.ToString(), pre.code());
        job.code = pre.code();
        continue;
      }
    }
    Result<WireRequest> request = BuildRequest(*job.json, options_);
    if (!request.ok()) {
      AppendError(job.out, ids[m], request.status());
      job.code = request.status().code();
      continue;
    }
    WireRequest& wire = request.value();
    wire.req.cancel = job.cancel;
    // Transports arm deadlines at admission; arm here only when one did not
    // (matching ResolveToken on the single path).
    if (wire.req.deadline_ms > 0 && job.cancel != nullptr &&
        !job.cancel->has_deadline()) {
      job.cancel->SetDeadlineAfterMs(wire.req.deadline_ms);
    }
    live.push_back(m);
    requests.push_back(std::move(wire.req));
  }
  if (live.empty()) return 0;

  std::vector<StringSink> sinks(requests.size());
  std::vector<OutputSink*> sink_ptrs;
  sink_ptrs.reserve(sinks.size());
  for (StringSink& sink : sinks) sink_ptrs.push_back(&sink);
  ServiceBatchStats stats;
  Status st = service_->ExecuteBatch(requests, sink_ptrs, &stats);
  if (stats.per_request.size() != requests.size()) {
    // Batch-level rejection: nothing ran; every member gets the error.
    for (std::size_t m : live) {
      AppendError((*group)[m].out, ids[m], st);
      (*group)[m].code = st.code();
    }
    return 0;
  }

  QueryCacheStats cache = service_->cache()->stats();
  for (std::size_t k = 0; k < live.size(); ++k) {
    CoalescedJob& job = (*group)[live[k]];
    const ServiceRequestStats& rs = stats.per_request[k];
    if (!rs.status.ok()) {
      AppendError(job.out, ids[live[k]], rs.status);
      job.code = rs.status.code();
      continue;
    }
    // The single-request response shape plus "coalesced": clients written
    // against the single path keep parsing, and can see the sharing.
    if (options_.run_observer) options_.run_observer(rs.total);
    ResponseWriter w(ids[live[k]]);
    w.Raw("ok", "true");
    w.Raw("bytes", std::to_string(sinks[k].str().size()));
    w.Field("cache", rs.cache_hit ? "hit" : "miss");
    w.Raw("compile_ms", StrFormat("%.3f", rs.compile_ms));
    w.Raw("stream_ms", StrFormat("%.3f", rs.stream_ms));
    w.Raw("bytes_in", std::to_string(rs.total.bytes_in));
    w.Raw("output_events", std::to_string(rs.total.output_events));
    w.Raw("peak_mem_bytes", std::to_string(rs.total.peak_bytes));
    w.Field("engine", rs.total.used_ops_engine ? "ops" : "table");
    w.Field("lowered", LoweredField(rs.total));
    w.Raw("coalesced", std::to_string(live.size()));
    w.Raw("cache_hits", std::to_string(cache.hits));
    w.Raw("cache_misses", std::to_string(cache.misses));
    w.Raw("cache_entries", std::to_string(cache.entries));
    *job.out += w.Finish();
    *job.out += "\n";
    *job.out += sinks[k].str();
    *job.out += "\n";
    job.code = StatusCode::kOk;
  }

  if (live.size() < 2) return 0;
  if (shared_members != nullptr) *shared_members = live.size();
  // Each document was tokenized once for the whole group instead of once
  // per member.
  return static_cast<std::uint64_t>(stats.documents) *
         static_cast<std::uint64_t>(live.size() - 1);
}

StatusCode RequestHandler::HandleBatch(const JsonValue& json,
                                       const JsonValue* id,
                                       CancelToken* cancel, std::string* out) {
  auto reject = [&](const Status& st) {
    AppendError(out, id, st);
    return st.code();
  };
  const JsonValue* queries = json.Find("queries");
  if (!queries->is_array() || queries->items.empty()) {
    return reject(
        Status::InvalidArgument("\"queries\" must be a non-empty array"));
  }
  std::vector<ParallelInput> inputs;
  Status in_st = ParseInputs(json, options_.limits, &inputs);
  if (!in_st.ok()) return reject(in_st);
  if (inputs.empty()) {
    return reject(Status::InvalidArgument(
        "batch has no documents (give \"inputs\" paths or inline \"xml\")"));
  }
  RunOptions multi;
  if (const JsonValue* up = json.Find("union_projection")) {
    if (!up->is_bool()) {
      return reject(
          Status::InvalidArgument("\"union_projection\" must be a boolean"));
    }
    multi.union_projection = up->boolean;
  }
  std::uint64_t deadline_ms = 0;
  std::string err;
  if (!ParseCount(json, "deadline_ms", &deadline_ms, &err)) {
    return reject(Status::InvalidArgument(err));
  }
  // The batch shares one pass per document, so the deadline is batch-wide:
  // a trip aborts every query still streaming.
  CancelToken local;
  multi.cancel = ResolveToken(cancel, deadline_ms, &local);

  std::vector<ServiceRequest> requests;
  std::vector<const JsonValue*> ids;
  for (const JsonValue& item : queries->items) {
    const JsonValue* query = item.is_object() ? item.Find("query") : nullptr;
    if (query == nullptr || !query->is_string()) {
      return reject(Status::InvalidArgument(
          "every \"queries\" entry needs an object with a string \"query\""));
    }
    ServiceRequest req;
    req.query = query->string;
    req.inputs = inputs;
    if (const JsonValue* no_opt = item.Find("no_opt")) {
      if (!no_opt->is_bool()) {
        return reject(Status::InvalidArgument("\"no_opt\" must be a boolean"));
      }
      req.no_opt = no_opt->boolean;
    }
    ids.push_back(item.Find("id"));
    requests.push_back(std::move(req));
  }

  std::vector<StringSink> sinks(requests.size());
  std::vector<OutputSink*> sink_ptrs;
  sink_ptrs.reserve(sinks.size());
  for (StringSink& sink : sinks) sink_ptrs.push_back(&sink);
  ServiceBatchStats stats;
  Status st = service_->ExecuteBatch(requests, sink_ptrs, &stats, multi);
  if (stats.per_request.size() != requests.size()) {
    // Batch-level rejection: nothing ran, one error response.
    return reject(st);
  }

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const ServiceRequestStats& rs = stats.per_request[i];
    if (!rs.status.ok()) {
      AppendError(out, ids[i], rs.status);
      continue;
    }
    if (options_.run_observer) options_.run_observer(rs.total);
    ResponseWriter w(ids[i]);
    w.Raw("ok", "true");
    w.Raw("bytes", std::to_string(sinks[i].str().size()));
    w.Field("cache", rs.cache_hit ? "hit" : "miss");
    w.Raw("compile_ms", StrFormat("%.3f", rs.compile_ms));
    w.Raw("stream_ms", StrFormat("%.3f", rs.stream_ms));
    w.Raw("deduped", rs.deduped ? "true" : "false");
    w.Raw("events_fed", std::to_string(rs.events_fed));
    w.Raw("events_skipped", std::to_string(rs.events_skipped));
    w.Raw("subtrees_skipped", std::to_string(rs.subtrees_skipped));
    w.Raw("bytes_skipped", std::to_string(rs.bytes_skipped));
    w.Raw("output_events", std::to_string(rs.total.output_events));
    w.Raw("peak_mem_bytes", std::to_string(rs.total.peak_bytes));
    w.Field("engine", rs.total.used_ops_engine ? "ops" : "table");
    w.Field("lowered", LoweredField(rs.total));
    *out += w.Finish();
    *out += "\n";
    *out += sinks[i].str();
    *out += "\n";
  }

  ResponseWriter w(id);
  w.Raw("ok", st.ok() ? "true" : "false");
  w.Raw("batch", "true");
  w.Raw("requests", std::to_string(requests.size()));
  w.Raw("documents", std::to_string(stats.documents));
  w.Raw("parsed_bytes", std::to_string(stats.parsed_bytes));
  w.Raw("unique_plans", std::to_string(stats.unique_plans));
  w.Raw("deduped_requests", std::to_string(stats.deduped_requests));
  w.Raw("stream_ms", StrFormat("%.3f", stats.stream_ms));
  *out += w.Finish();
  *out += "\n";
  return st.code();
}

}  // namespace xqmft
