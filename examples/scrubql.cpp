// scrubql: run ad-hoc Scrub queries against a simulated bidding platform.
//
//   ./scrubql "SELECT bid.user_id, COUNT(*) FROM bid
//              GROUP BY bid.user_id WINDOW 5 s DURATION 20 s;"
//   ./scrubql --explain "SELECT COUNT(*) FROM bid SAMPLE EVENTS 10%;"
//   ./scrubql --lint "SELECT COUNT(*) FROM bid SAMPLE HOSTS 1%;"
//   ./scrubql --seconds 60 --qps 2000 "SELECT ... ;"
//   ./scrubql            # no args: interactive prompt, one query per line
//                        # (:lint <query> lints without running)
//
// Each invocation brings up the simulated cluster, generates traffic, runs
// the query live, prints the rows as windows close, and finishes with the
// query's diagnostics and the host-overhead bill — the workflow a
// troubleshooter has at the real system's console.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "src/common/strings.h"
#include "src/lint/lint.h"
#include "src/scrub/scrub_system.h"

using namespace scrub;

namespace {

struct Options {
  double qps = 1000;
  long seconds = 20;
  uint64_t seed = 42;
  bool explain_only = false;
  bool lint_only = false;
  bool analyze = false;
  std::string query;
};

// Distinct-value profile of the bidsim fields, standing in for the field
// statistics a production deployment would pull from its metadata service.
// Bare field names match any event type carrying that field.
LintOptions BidsimLintOptions(const ScrubSystem& system) {
  LintOptions options = system.LintConfig();
  options.field_cardinality = {
      {"user_id", 50'000},   // matches RunQuery's user_population
      {"exchange_id", 4},    {"campaign_id", 10}, {"line_item_id", 60},
      {"publisher_id", 50},  {"country", 8},      {"city", 8},
  };
  return options;
}

void PrintUsage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--qps N] [--seconds N] [--seed N] [--explain] [--lint] "
      "[--analyze] [query]\n"
      "  runs the Scrub query against a simulated ad-bidding platform.\n"
      "  --lint checks the query statically and prints diagnostics only.\n"
      "  --analyze runs the query and finishes with EXPLAIN ANALYZE: the\n"
      "  physical pipeline annotated with per-operator rows/selectivity/CPU\n"
      "  and the memory-pressure ledger.\n"
      "  with no query argument, reads one query per line from stdin;\n"
      "  ':lint <query>' lints a query without running it;\n"
      "  ':explain <query>' prints the plan, typed IR and lint findings;\n"
      "  ':analyze <query>' runs it and prints EXPLAIN ANALYZE.\n",
      argv0);
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](double* out) {
      if (i + 1 >= argc) {
        return false;
      }
      *out = std::atof(argv[++i]);
      return true;
    };
    if (arg == "--explain") {
      options->explain_only = true;
    } else if (arg == "--lint") {
      options->lint_only = true;
    } else if (arg == "--analyze") {
      options->analyze = true;
    } else if (arg == "--qps") {
      double v;
      if (!next(&v) || v <= 0) {
        return false;
      }
      options->qps = v;
    } else if (arg == "--seconds") {
      double v;
      if (!next(&v) || v <= 0) {
        return false;
      }
      options->seconds = static_cast<long>(v);
    } else if (arg == "--seed") {
      double v;
      if (!next(&v)) {
        return false;
      }
      options->seed = static_cast<uint64_t>(v);
    } else if (arg == "--help" || arg == "-h") {
      return false;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    } else {
      options->query += options->query.empty() ? arg : " " + arg;
    }
  }
  return true;
}

int RunQuery(const Options& options, const std::string& query) {
  SystemConfig config;
  config.seed = options.seed;
  config.platform.seed = options.seed;
  ScrubSystem system(config);

  if (options.lint_only) {
    Result<std::vector<Diagnostic>> diags = LintQueryText(
        query, system.schemas(), config.server.analyzer,
        BidsimLintOptions(system));
    if (!diags.ok()) {
      std::fprintf(stderr, "error: %s\n", diags.status().ToString().c_str());
      return 1;
    }
    if (diags->empty()) {
      std::printf("lint: clean\n");
      return 0;
    }
    std::printf("%s", RenderDiagnostics(*diags, query).c_str());
    return HasLintErrors(*diags) ? 1 : 0;
  }

  if (options.explain_only) {
    std::printf("%s", system.Explain(query).c_str());
    return 0;
  }

  PoissonLoadConfig load;
  load.requests_per_second = options.qps;
  load.duration = options.seconds * kMicrosPerSecond;
  load.user_population = 50000;
  system.workload().SchedulePoissonLoad(load);

  size_t rows = 0;
  Result<SubmittedQuery> submitted =
      system.Submit(query, [&rows](const ResultRow& row) {
        ++rows;
        std::printf("%s\n", row.ToString().c_str());
      });
  if (!submitted.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 submitted.status().ToString().c_str());
    return 1;
  }
  for (const Diagnostic& d : submitted->lint_warnings) {
    std::printf("%s\n", RenderDiagnostic(d, query).c_str());
  }
  std::printf("-- query %llu on %zu/%zu hosts; trace %lds @ %.0f req/s --\n",
              static_cast<unsigned long long>(submitted->id),
              submitted->hosts_installed, submitted->hosts_targeted,
              options.seconds, options.qps);

  // EXPLAIN ANALYZE needs the query still installed to render its pipeline,
  // so snapshot it just before the span expires.
  std::string analyze_out;
  if (options.analyze && submitted->end_time > 0) {
    system.RunUntil(submitted->end_time - 1);
    analyze_out = system.ExplainAnalyze(submitted->id);
  }
  system.RunUntil(std::max<TimeMicros>(
      submitted->end_time, options.seconds * kMicrosPerSecond));
  system.Drain();

  std::printf("-- %zu rows --\n%s", rows,
              options.analyze ? analyze_out.c_str()
                              : system.DescribeQuery(submitted->id).c_str());
  const OverheadReport report = system.TotalOverhead();
  std::printf("host overhead: %.3f%% of application CPU went to Scrub\n",
              report.scrub_fraction * 100.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    PrintUsage(argv[0]);
    return 2;
  }
  if (!options.query.empty()) {
    return RunQuery(options, options.query);
  }
  // Interactive: one query per line.
  std::printf("scrubql> ");
  std::fflush(stdout);
  std::string line;
  int status = 0;
  while (std::getline(std::cin, line)) {
    const std::string query(StripWhitespace(line));
    if (query == "quit" || query == "exit") {
      break;
    }
    if (query.rfind(":lint", 0) == 0) {
      Options lint_options = options;
      lint_options.lint_only = true;
      status = RunQuery(lint_options,
                        std::string(StripWhitespace(query.substr(5))));
    } else if (query.rfind(":explain", 0) == 0) {
      Options explain_options = options;
      explain_options.explain_only = true;
      status = RunQuery(explain_options,
                        std::string(StripWhitespace(query.substr(8))));
    } else if (query.rfind(":analyze", 0) == 0) {
      Options analyze_options = options;
      analyze_options.analyze = true;
      status = RunQuery(analyze_options,
                        std::string(StripWhitespace(query.substr(8))));
    } else if (!query.empty()) {
      status = RunQuery(options, query);
    }
    std::printf("scrubql> ");
    std::fflush(stdout);
  }
  std::printf("\n");
  return status;
}
