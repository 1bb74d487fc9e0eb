#include "src/baseline/logging_baseline.h"

#include <algorithm>

#include "src/event/wire.h"
#include "src/query/parser.h"
#include "src/plan/plan.h"

namespace scrub {

LoggingPipeline::LoggingPipeline(Scheduler* scheduler, Transport* transport,
                                 HostRegistry* registry,
                                 const SchemaRegistry* schemas,
                                 HostId warehouse_host,
                                 BaselineConfig config)
    : scheduler_(scheduler),
      transport_(transport),
      registry_(registry),
      schemas_(schemas),
      warehouse_host_(warehouse_host),
      config_(config) {}

EventLoggerFn LoggingPipeline::Logger() {
  return [this](HostId host, const Event& event) -> int64_t {
    // Full-fidelity logging: the host pays to serialize every field of
    // every event — no projection, no selection, no sampling.
    const int64_t ns =
        config_.costs.log_fixed_ns +
        config_.costs.log_per_field_ns *
            static_cast<int64_t>(event.field_count()) +
        static_cast<int64_t>(event.WireSize()) *
            config_.costs.serialize_per_byte_ns +
        config_.costs.enqueue_ns;
    registry_->meter(host).ChargeScrub(ns);
    staged_[host].push_back(event);
    return ns;
  };
}

void LoggingPipeline::PumpFlushes() {
  for (auto& [host, events] : staged_) {
    size_t offset = 0;
    while (offset < events.size()) {
      const size_t n =
          std::min(config_.max_batch_events, events.size() - offset);
      std::vector<Event> chunk(events.begin() + static_cast<long>(offset),
                               events.begin() + static_cast<long>(offset + n));
      offset += n;
      // Warehouse log format: a u32 record count, then one record per event.
      size_t bytes = 4;
      for (const Event& e : chunk) {
        bytes += e.WireSize();
      }
      transport_->Send(host, warehouse_host_, bytes,
                       TrafficCategory::kBaselineLog,
                       [this, host = host, chunk = std::move(chunk), bytes] {
                         for (const Event& e : chunk) {
                           stored_.push_back(StoredEvent{host, e});
                         }
                         bytes_stored_ += bytes;
                         last_arrival_ =
                             std::max(last_arrival_, scheduler_->Now());
                       });
    }
    events.clear();
  }
}

Result<LoggingPipeline::BatchAnswer> LoggingPipeline::RunQuery(
    std::string_view query_text, const AnalyzerOptions& options) {
  Result<Query> parsed = ParseQuery(query_text);
  if (!parsed.ok()) {
    return parsed.status();
  }
  // Batch queries look backwards over stored history: anchor the span at
  // the epoch and widen it to cover the whole log (and at least one window)
  // before analysis, which enforces window <= duration. The widened span is
  // rounded up to the slide grid, since the analyzer refuses an explicit
  // duration off it.
  Query query = parsed->Clone();
  query.start_offset_micros = 0;
  const TimeMicros window = query.window_micros > 0
                                ? query.window_micros
                                : options.default_window_micros;
  const TimeMicros slide =
      query.slide_micros > 0 ? query.slide_micros : window;
  const TimeMicros span =
      std::max({query.duration_micros, window, last_arrival_ + 1});
  query.duration_micros = (span + slide - 1) / slide * slide;
  AnalyzerOptions opts = options;
  opts.max_duration_micros =
      std::max(opts.max_duration_micros, query.duration_micros);
  Result<AnalyzedQuery> analyzed = Analyze(query, *schemas_, opts);
  if (!analyzed.ok()) {
    return analyzed.status();
  }
  const AnalyzedQuery& aq = *analyzed;
  Result<QueryPlan> plan = PlanQuery(aq, next_query_id_++, /*submit_time=*/0);
  if (!plan.ok()) {
    return plan.status();
  }

  BatchAnswer answer;
  // Offline execution reuses ScrubCentral: install the central plan, then
  // replay the warehouse through host-side selection/projection.
  ScrubCentral engine(schemas_);
  CentralPlan central_plan = plan->central;
  central_plan.hosts_targeted = 1;
  central_plan.hosts_sampled = 1;
  std::vector<ResultRow>* rows = &answer.rows;
  Status s = engine.InstallQuery(central_plan,
                                 [rows](const ResultRow& row) {
                                   rows->push_back(row);
                                 });
  if (!s.ok()) {
    return s;
  }

  int64_t ns = 0;
  std::unordered_map<HostId, std::vector<Event>> matched;
  for (const StoredEvent& se : stored_) {
    ++answer.events_scanned;
    ns += config_.scan_cost_ns;
    const HostSourcePlan* sp = plan->host.FindSource(se.event.type_name());
    if (sp == nullptr) {
      continue;
    }
    int64_t insts = 0;
    const bool pass = sp->Selects(se.event, &insts);
    ns += config_.costs.predicate_term_ns * insts;
    if (pass) {
      matched[se.host].push_back(se.event);
    }
  }
  for (auto& [host, events] : matched) {
    EventBatch batch;
    batch.query_id = central_plan.query_id;
    batch.host = host;
    batch.event_count = events.size();
    std::string encoded;
    batch.format = EncodeEvents(events, &encoded);
    batch.payload = BatchPayload(std::move(encoded));
    s = engine.IngestBatch(batch, last_arrival_);
    if (!s.ok()) {
      return s;
    }
    ns += static_cast<int64_t>(events.size()) *
          config_.costs.central_ingest_ns;
  }
  // Close everything.
  engine.OnTick(central_plan.end_time + 10 * kMicrosPerSecond);

  answer.processing_ns = ns + engine.meter().scrub_ns();
  answer.answer_at = last_arrival_ + answer.processing_ns / 1000;
  return answer;
}

}  // namespace scrub
