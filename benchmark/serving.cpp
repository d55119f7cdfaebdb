// serve-capacity: the fleet capacity search of bench/bench_serving over a
// mixed {VGG-16, ResNet-18} model, for the paper's five schemes.
//
// Setup profiles one serve::ServiceModel per scheme, four at a time, which
// is where the simulator runs. The timed phase is pure event loop: for
// fleets of 1, 4 and 16 devices (least-loaded router, queue 16, batch 4,
// drop policy) it brackets and bisects the highest integer rate each scheme
// sustains over 120 s of simulated time with p99 <= 250 ms and no request
// lost, then runs SEAL-D on 16 devices at a fixed 560 req/s. Load is open-loop Poisson,
// seeded by --seed; the clock is simulated, so the generator is never late.
// Mixing a ~40 ms network with a ~7 ms one exercises per-network batching.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <future>

#include "serve/fleet.hpp"
#include "util/thread_pool.hpp"
#include "verify/fleet_checkers.hpp"
#include "workload.hpp"

namespace sealdl::perfbench {
namespace {

constexpr std::array<int, 3> kFleetSizes = {1, 4, 16};
constexpr double kSloMs = 250.0;
constexpr double kHorizonS = 120.0;
constexpr int kMaxBatch = 4;
constexpr double kFixedRateRps = 560.0;

class ServeWorkload final : public Workload {
 public:
  explicit ServeWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup(Tracer* tracer) override {
    networks_ = {serve::named_network("vgg16"), serve::named_network("resnet18")};
    schemes_ = bench::five_schemes();
    models_.clear();
    models_.resize(schemes_.size());
    runs_.clear();
    // One model per scheme, built concurrently; each profiles its networks
    // serially on its pool thread.
    struct Built {
      std::unique_ptr<serve::ServiceModel> model;
      Clock::time_point start;
      Clock::time_point end;
    };
    const Clock::time_point start = Clock::now();
    {
      util::ThreadPool pool(kJobs);
      std::vector<std::future<Built>> futures;
      for (const bench::SchemeConfig& scheme : schemes_) {
        futures.push_back(pool.submit([this, &scheme] {
          Built built;
          built.start = Clock::now();
          built.model = std::make_unique<serve::ServiceModel>(
              networks_, bench::configure(scheme), run_options(scheme, 1),
              kMaxBatch, 1, nullptr);
          built.end = Clock::now();
          return built;
        }));
      }
      for (std::size_t s = 0; s < futures.size(); ++s) {
        Built built = futures[s].get();
        if (tracer) {
          tracer->record("serve.ServiceModel", static_cast<int>(s), built.start,
                         built.end, static_cast<int>(s) + 1);
        }
        models_[s] = std::move(built.model);
      }
    }
    profile_wall_s_ = seconds_between(start, Clock::now());
    for (std::size_t s = 0; s < schemes_.size(); ++s) {
      for (std::size_t n = 0; n < networks_.size(); ++n) {
        runs_.push_back({&networks_[n], schemes_[s],
                         models_[s]->profile(static_cast<int>(n))});
      }
    }
  }

  void pass(Tracer* tracer, Checks& checks) override {
    probes_ = 0;
    requests_ = 0;
    capacity_.assign(schemes_.size(), {});
    for (std::size_t s = 0; s < schemes_.size(); ++s) {
      for (std::size_t f = 0; f < kFleetSizes.size(); ++f) {
        capacity_[s][f] = find_capacity(s, kFleetSizes[f], tracer, checks);
      }
    }
    const std::size_t base = index_of("baseline");
    const std::size_t direct = index_of("direct");
    const std::size_t counter = index_of("counter");
    const std::size_t seal_d = index_of("seal-d");
    const std::size_t seal_c = index_of("seal-c");
    for (std::size_t f = 0; f < kFleetSizes.size(); ++f) {
      const auto cap = [&](std::size_t s) { return capacity_[s][f]; };
      const std::string at = " capacity at " + std::to_string(kFleetSizes[f]) +
                             " device(s)";
      checks.cross(cap(direct) < cap(seal_d) && cap(seal_d) < cap(base),
                   "direct < seal-d < baseline" + at);
      checks.cross(cap(counter) < cap(seal_c) && cap(seal_c) < cap(base),
                   "counter < seal-c < baseline" + at);
    }
    fixed_ = run_fleet(seal_d, kFleetSizes.back(), kFixedRateRps, tracer,
                       checks);
    checks.cross(fixed_.generated > 0 && fixed_.completed == fixed_.generated,
                 "seal-d serves every request at the fixed rate");
  }

  [[nodiscard]] double warp_instructions() const override {
    return perfbench::warp_instructions(runs_);
  }
  [[nodiscard]] bool simulates_in_setup() const override { return true; }

  [[nodiscard]] Metrics fidelity() const override {
    return fidelity_metrics(runs_);
  }

  void layer_metrics(Tracer& tracer, Checks& checks, Metrics& out) override {
    decompose_runs(runs_, tracer, checks, profile_wall_s_, kJobs, out);
    scheme_metrics(runs_, out);
    const double fleet_s = tracer.total_s("serve.run_fleet", kTracedPhase);
    out["serve.profile_s"] =
        tracer.total_s("serve.ServiceModel", kSetupPhase);
    out["serve.fleet_s"] = fleet_s;
    out["serve.probes"] = static_cast<double>(probes_);
    out["serve.requests"] = static_cast<double>(requests_);
    out["serve.us_per_request"] =
        requests_ ? fleet_s * 1e6 / static_cast<double>(requests_) : 0.0;
    for (std::size_t s = 0; s < schemes_.size(); ++s) {
      for (std::size_t f = 0; f < kFleetSizes.size(); ++f) {
        out["serve." + scheme_key(schemes_[s]) + ".cap_d" +
            std::to_string(kFleetSizes[f])] = capacity_[s][f];
      }
    }
    out["serve.mean_batch"] = fixed_.mean_batch;
    out["serve.queue_p99_ms"] = fixed_.stage_queue.p99_ms;
    out["serve.execute_p99_ms"] = fixed_.stage_execute.p99_ms;
    out["serve.p50_ms"] = fixed_.p50_ms;
    out["serve.p99_ms"] = fixed_.p99_ms;
  }

 private:
  std::size_t index_of(const char* key) const {
    for (std::size_t s = 0; s < schemes_.size(); ++s) {
      if (scheme_key(schemes_[s]) == key) return s;
    }
    throw std::logic_error(std::string("serve-capacity lacks scheme ") + key);
  }

  /// One run_fleet call; every report must reconcile (fleet.* rules).
  serve::ServeReport run_fleet(std::size_t scheme, int devices, double rate,
                               Tracer* tracer, Checks& checks) {
    serve::ServeOptions options;
    options.rate_rps = rate;
    options.duration_s = kHorizonS;
    options.queue_depth = 16;
    options.max_batch = kMaxBatch;
    options.policy = serve::OverloadPolicy::kDrop;
    options.seed = seed_;
    serve::FleetOptions fleet;
    fleet.devices = devices;
    fleet.router = serve::RouterPolicy::kLeastLoaded;
    serve::FleetReport report;
    {
      const auto s = span(tracer, "serve.run_fleet", static_cast<int>(probes_));
      report = serve::run_fleet(*models_[scheme], options, fleet,
                                bench::configure(schemes_[scheme]), nullptr);
    }
    ++probes_;
    requests_ += report.totals.generated;
    const verify::Report check = verify::run_fleet_report_check(fleet, report);
    if (check.error_count() > 0) std::fputs(check.to_text().c_str(), stderr);
    checks.op(check.error_count() == 0,
              scheme_key(schemes_[scheme]) + " fleet of " +
                  std::to_string(devices) + " at " +
                  std::to_string(static_cast<long>(rate)) +
                  " req/s reconciles");
    return report.totals;
  }

  /// Largest integer rate sustained within the SLO with nothing lost:
  /// exponential bracket from the analytic batch-1 bound, then bisection.
  double find_capacity(std::size_t scheme, int devices, Tracer* tracer,
                       Checks& checks) {
    const auto sustains = [&](double rate) {
      const serve::ServeReport report =
          run_fleet(scheme, devices, rate, tracer, checks);
      return report.generated > 0 && report.completed == report.generated &&
             report.p99_ms <= kSloMs;
    };
    if (!sustains(1.0)) return 0.0;
    const serve::ServiceModel& model = *models_[scheme];
    const sim::GpuConfig config = bench::configure(schemes_[scheme]);
    double service_ms = 0.0;
    for (int n = 0; n < model.count(); ++n) {
      service_ms += model.service_cycles(n, 1) / (config.core_mhz * 1e3);
    }
    service_ms /= model.count();
    double lo = 1.0;
    double hi = std::max(2.0, std::ceil(devices * 1000.0 / service_ms));
    while (hi <= 1e6 && sustains(hi)) {
      lo = hi;
      hi *= 2.0;
    }
    while (hi - lo > 1.0) {
      const double mid = std::floor((lo + hi) / 2.0);
      (sustains(mid) ? lo : hi) = mid;
    }
    return lo;
  }

  const std::uint64_t seed_;
  std::vector<serve::NamedNetwork> networks_;
  std::vector<bench::SchemeConfig> schemes_;
  std::vector<std::unique_ptr<serve::ServiceModel>> models_;
  std::vector<NetRun> runs_;  ///< the models' batch-1 profiles
  double profile_wall_s_ = 0.0;  ///< host time of the last setup's builds

  // Results of the last pass.
  std::vector<std::array<double, kFleetSizes.size()>> capacity_;
  serve::ServeReport fixed_;
  std::uint64_t probes_ = 0;
  std::uint64_t requests_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_workload(std::uint64_t seed) {
  return std::make_unique<ServeWorkload>(seed);
}

}  // namespace sealdl::perfbench
