// Fleet-scaling experiment: central ingress bytes and central-node CPU,
// flat vs hierarchical (regional combiner) topology, at a bidsim fleet ~10x
// the test configurations (4 DCs, 8*scale + 1 hosts).
//
// The paper's scaling argument is that the central link and the coordinator
// are the bottlenecks at fleet scale: every agent ships raw event batches
// straight at one node. The combiner tier folds each DC's batches into
// per-group WindowPartials, so central receives one compact envelope stream
// per region instead of one raw stream per host. This harness measures
// exactly those two axes on identical workloads:
//
//   central_link_bytes   simulated bytes arriving at the central host on
//                        the data plane (raw event batches + partial
//                        envelopes; control/ack traffic is identical across
//                        topologies and excluded),
//   central_cpu_seconds  modeled Scrub ns charged at the central node
//                        (ScrubCentral's meter, plus the PartialCoordinator
//                        merge meter when hierarchical),
//   combiner_cpu_seconds the tier's own cost, honestly reported: the work
//                        did not vanish, it moved off the bottleneck node.
//
// The flat/hierarchical byte ratio at the default scale is the
// "fleet bytes_reduction" gate in tools/bench_compare.py (floor 5x).
//
// Usage: bench_fleet [scale] > BENCH_scrub.json   (default scale 10)

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/strings.h"
#include "src/scrub/scrub_system.h"

namespace scrub {
namespace {

constexpr TimeMicros kLoadDuration = 4 * kMicrosPerSecond;

struct TopoResult {
  std::string topology;
  size_t regions = 0;
  uint64_t central_link_bytes = 0;
  uint64_t event_bytes = 0;    // raw event batches reaching central
  uint64_t partial_bytes = 0;  // combiner envelopes reaching central
  double central_cpu_seconds = 0.0;
  double combiner_cpu_seconds = 0.0;
  uint64_t rows = 0;
  int64_t total_count = 0;  // sum of the COUNT(*) column: the exactness check
  uint64_t events = 0;      // platform bid events generated
};

TopoResult RunOne(size_t scale, size_t regions) {
  SystemConfig config;
  config.seed = 7;
  config.platform.seed = 7;
  config.platform.datacenters = 4;
  config.platform.bidservers_per_dc = static_cast<int>(scale);
  config.platform.adservers_per_dc = static_cast<int>(scale / 2);
  config.platform.presentation_per_dc = static_cast<int>(scale / 2);
  config.platform.num_campaigns = 8;
  config.platform.line_items_per_campaign = 3;
  config.combiner_regions = regions;

  ScrubSystem system(config);
  PoissonLoadConfig load;
  load.requests_per_second = 50.0 * static_cast<double>(scale);
  load.duration = kLoadDuration;
  system.workload().SchedulePoissonLoad(load);

  TopoResult r;
  r.regions = regions;
  auto submitted = system.Submit(
      "SELECT bid.campaign_id, COUNT(*), SUM(bid.bid_price) FROM bid "
      "GROUP BY bid.campaign_id WINDOW 1 s DURATION 4 s;",
      [&r](const ResultRow& row) {
        ++r.rows;
        r.total_count += row.values[1].AsInt();  // the COUNT(*) column
      });
  if (!submitted.ok()) {
    std::fprintf(stderr, "submit failed: %s\n",
                 submitted.status().ToString().c_str());
    std::abort();
  }
  system.RunUntil(kLoadDuration + kMicrosPerSecond);
  system.Drain();

  const HostId central = system.central_host();
  r.event_bytes =
      system.transport().bytes_to(central, TrafficCategory::kScrubEvents);
  r.partial_bytes =
      system.transport().bytes_to(central, TrafficCategory::kScrubPartials);
  r.central_link_bytes = r.event_bytes + r.partial_bytes;
  double central_ns =
      static_cast<double>(system.central().meter().scrub_ns());
  if (system.hierarchical()) {
    central_ns += static_cast<double>(system.coordinator()->meter().scrub_ns());
  }
  r.central_cpu_seconds = central_ns / 1e9;
  for (const HostId chost : system.combiner_hosts()) {
    r.combiner_cpu_seconds +=
        static_cast<double>(system.combiner(chost)->inner().meter().scrub_ns()) /
        1e9;
  }
  r.events = system.platform().stats().bids;
  r.topology = regions > 0 ? "hierarchical" : "flat";
  if (r.rows == 0) {
    std::abort();  // the run must actually compute something
  }
  return r;
}

int Main(int argc, char** argv) {
  const size_t scale =
      argc > 1 ? static_cast<size_t>(std::atoi(argv[1])) : 10;
  const size_t regions = 4;  // one combiner per DC

  std::vector<TopoResult> results;
  results.push_back(RunOne(scale, 0));
  results.push_back(RunOne(scale, regions));

  // COUNT(*) is exact under any merge association: both topologies must
  // report the identical windows and total. A mismatch is a correctness bug,
  // not a measurement artifact.
  for (const TopoResult& r : results) {
    if (r.rows != results[0].rows || r.total_count != results[0].total_count) {
      std::fprintf(stderr,
                   "topology %s diverged: rows %llu vs %llu, count %lld vs "
                   "%lld\n",
                   r.topology.c_str(),
                   static_cast<unsigned long long>(r.rows),
                   static_cast<unsigned long long>(results[0].rows),
                   static_cast<long long>(r.total_count),
                   static_cast<long long>(results[0].total_count));
      std::abort();
    }
  }

  const double bytes_reduction =
      results[1].central_link_bytes > 0
          ? static_cast<double>(results[0].central_link_bytes) /
                static_cast<double>(results[1].central_link_bytes)
          : 0.0;
  const double cpu_reduction =
      results[1].central_cpu_seconds > 0
          ? results[0].central_cpu_seconds / results[1].central_cpu_seconds
          : 0.0;

  const size_t hosts = 4 * (scale + 2 * (scale / 2)) + 1;
  std::string out = "{\n";
  out += "  \"bench\": \"fleet\",\n";
  out += StrFormat("  \"scale\": %zu,\n", scale);
  out += StrFormat("  \"hosts\": %zu,\n", hosts);
  out += StrFormat("  \"regions\": %zu,\n", regions);
  out += StrFormat("  \"bytes_reduction\": %.2f,\n", bytes_reduction);
  out += StrFormat("  \"central_cpu_reduction\": %.2f,\n", cpu_reduction);
  out += "  \"runs\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const TopoResult& r = results[i];
    out += StrFormat(
        "    {\"topology\": \"%s\", \"regions\": %zu, "
        "\"central_link_bytes\": %llu, \"event_bytes\": %llu, "
        "\"partial_bytes\": %llu, \"central_cpu_seconds\": %.6f, "
        "\"combiner_cpu_seconds\": %.6f, \"rows\": %llu, "
        "\"total_count\": %lld, \"events\": %llu}%s\n",
        r.topology.c_str(), r.regions,
        static_cast<unsigned long long>(r.central_link_bytes),
        static_cast<unsigned long long>(r.event_bytes),
        static_cast<unsigned long long>(r.partial_bytes),
        r.central_cpu_seconds, r.combiner_cpu_seconds,
        static_cast<unsigned long long>(r.rows),
        static_cast<long long>(r.total_count),
        static_cast<unsigned long long>(r.events),
        i + 1 < results.size() ? "," : "");
  }
  out += "  ]\n}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}

}  // namespace
}  // namespace scrub

int main(int argc, char** argv) { return scrub::Main(argc, argv); }
