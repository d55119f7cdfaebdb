// sealdl-bench: one workload, one process, one sample.
//
//   sealdl-bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                [--trace-out FILE] [--out FILE]
//
// Set-up runs several times and reports its median. The timed phase
// then runs whole passes of the workload until the next pass would end past
// --seconds (at least one pass) and reports the median pass. Untraced runs
// (--trace 0) emit the end-to-end metrics; traced runs (--trace 1) add one
// traced set-up and one traced pass after an untraced one, re-run the
// simulations through the per-layer calls, emit the per-layer metrics, and
// write the spans to --trace-out as Chrome-trace JSON. Every metric is
// printed by name with its unit; the last line of stdout is the result as
// one JSON object. Failed output checks are printed and counted; the exit
// code is non-zero only for usage errors (2) and crashes (1).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <set>
#include <string>
#include <vector>

#include "catalog.hpp"
#include "telemetry/report.hpp"
#include "util/cli.hpp"
#include "workload.hpp"

namespace sealdl::perfbench {
namespace {

constexpr std::size_t kSetupBuilds = 3;
constexpr std::size_t kMaxSetupBuilds = 100;

const std::vector<std::string> kWorkloads = {"fig7-sweep", "serve-capacity",
                                             "scheme-audit", "profiled-serial"};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string trace_out;
  std::string out;
};

int usage(const std::string& problem) {
  std::fprintf(stderr, "error: %s\n", problem.c_str());
  std::fprintf(stderr,
               "usage: sealdl-bench --workload {fig7-sweep|serve-capacity|"
               "scheme-audit|profiled-serial} [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-out FILE] [--out FILE]\n");
  return 2;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Prints each metric of `catalog` by name with its unit and returns them as
/// one JSON object. A metric the workload did not set is 0 (a module it
/// does not run).
std::string render(const std::vector<MetricSpec>& catalog, Metrics metrics,
                   Checks& checks) {
  std::set<std::string> declared;
  for (const MetricSpec& spec : catalog) declared.insert(spec.name);
  for (const auto& [name, value] : metrics) {
    if (!declared.count(name)) {
      throw std::logic_error("metric " + name + " is not in the catalog");
    }
  }
  std::string json = "{";
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const MetricSpec& spec = catalog[i];
    double value = metrics[spec.name];
    checks.cross(std::isfinite(value), spec.name + " is finite");
    if (!std::isfinite(value)) value = 0.0;
    std::printf("  %-32s %.6g %s\n", spec.name.c_str(), value, spec.unit.c_str());
    json += (i ? ", \"" : "\"") + spec.name + "\": {\"value\": " + number(value) +
            ", \"unit\": \"" + spec.unit + "\"}";
  }
  json += "}";
  return json;
}

int run(const Args& args) {
  auto workload = args.workload == "serve-capacity"
                      ? make_serve_workload(args.seed)
                      : make_sweep_workload(args.workload);
  Tracer tracer;
  Tracer* traced = args.traced ? &tracer : nullptr;

  // Set-up repeats at least kSetupBuilds times, and while the builds so far
  // took under a second, so a cheap set-up still yields a steady median.
  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  while (setup_s.size() < kSetupBuilds ||
         (setup_total_s < 1.0 && setup_s.size() < kMaxSetupBuilds)) {
    const Clock::time_point start = Clock::now();
    workload->setup(nullptr);
    setup_s.push_back(seconds_between(start, Clock::now()));
    setup_total_s += setup_s.back();
  }
  if (traced) {
    const auto phase = tracer.open(kSetupPhase, -1);
    workload->setup(traced);
  }

  Checks checks;
  std::vector<double> pass_s;
  const Clock::time_point timed = Clock::now();
  do {
    const Clock::time_point start = Clock::now();
    workload->pass(nullptr, checks);
    pass_s.push_back(seconds_between(start, Clock::now()));
    std::fprintf(stderr, "pass %zu: %.3f s\n", pass_s.size(), pass_s.back());
  } while (!traced &&
           seconds_between(timed, Clock::now()) + pass_s.back() <= args.seconds);

  Metrics metrics;
  if (traced) {
    double traced_s = 0.0;
    {
      const auto phase = tracer.open(kTracedPhase, -1);
      const Clock::time_point start = Clock::now();
      workload->pass(&tracer, checks);
      traced_s = seconds_between(start, Clock::now());
    }
    workload->layer_metrics(tracer, checks, metrics);
    metrics["trace_overhead_frac"] = traced_s / median(pass_s) - 1.0;
  } else {
    metrics = workload->fidelity();
    metrics["wall_s"] = median(pass_s);
    metrics["setup_s"] = median(setup_s);
    const double sim_s =
        workload->simulates_in_setup() ? metrics["setup_s"] : metrics["wall_s"];
    metrics["sim_mips"] = workload->warp_instructions() / sim_s / 1e6;
    metrics["peak_rss_mb"] = peak_rss_mb();
  }

  std::printf("%s, seed %llu, %zu set-up(s), %zu pass(es)%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              setup_s.size(), pass_s.size(), traced ? " + 1 traced" : "");
  const std::string rendered = render(
      traced ? per_layer_metrics() : end_to_end_metrics(), metrics, checks);
  const std::uint64_t failed = std::min(checks.failed, checks.attempted);
  const std::string result =
      "{\"correct\": " + std::string(failed == 0 ? "true" : "false") +
      ", \"attempted\": " + std::to_string(checks.attempted) +
      ", \"failed\": " + std::to_string(failed) +
      ", \"metrics\": " + rendered + "}";
  if (traced && !args.trace_out.empty()) {
    telemetry::write_text_file(args.trace_out, tracer.chrome_trace_json());
  }
  if (!args.out.empty()) telemetry::write_text_file(args.out, result + "\n");
  std::printf("%s\n", result.c_str());
  return 0;
}

}  // namespace
}  // namespace sealdl::perfbench

int main(int argc, char** argv) {
  using namespace sealdl::perfbench;
  Args args;
  try {
    sealdl::util::CliFlags flags(argc, argv);
    args.workload = flags.get("workload", "");
    const std::int64_t seed = flags.get_int("seed", 1);
    args.seconds = flags.get_double("seconds", 10.0);
    const std::int64_t trace = flags.get_int("trace", 0);
    args.trace_out = flags.get("trace-out", "");
    args.out = flags.get("out", "");
    if (!flags.unused().empty()) return usage("unknown flag --" + flags.unused()[0]);
    if (!flags.positional().empty()) {
      return usage("unexpected argument " + flags.positional()[0]);
    }
    if (std::find(kWorkloads.begin(), kWorkloads.end(), args.workload) ==
        kWorkloads.end()) {
      return usage("unknown --workload '" + args.workload + "'");
    }
    if (seed < 0) return usage("--seed must be >= 0");
    if (!(args.seconds > 0.0)) return usage("--seconds must be > 0");
    if (trace != 0 && trace != 1) return usage("--trace must be 0 or 1");
    args.seed = static_cast<std::uint64_t>(seed);
    args.traced = trace == 1;
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
