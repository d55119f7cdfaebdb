// The three network-sweep workloads. Each op is one run_network call over a
// (network, scheme) pair at tiles 120, ratio 0.5 and the paper's plan:
//
//   fig7-sweep       VGG-16, ResNet-18, ResNet-34 x all 7 schemes, jobs 4,
//                    nothing attached: the paper's headline sweep, where
//                    trace generation, the simulator and the per-layer
//                    fan-out do nearly all the work.
//   scheme-audit     VGG-16, ResNet-18 x all 7 schemes, jobs 4, a
//                    verify::TaintAuditor on every bus transfer, then
//                    verify::run_scheme_conformance.
//   profiled-serial  ResNet-18, ResNet-34 x the paper's 5 schemes, jobs 1,
//                    telemetry with the cycle profiler and 1000-cycle
//                    sampling, both reports rendered to memory. The serial
//                    path bypasses util::ThreadPool.
#include <cstdio>
#include <span>

#include "sim/bus_probe.hpp"
#include "telemetry/report.hpp"
#include "telemetry/trace.hpp"
#include "verify/analysis.hpp"
#include "verify/profile_checkers.hpp"
#include "verify/scheme_checkers.hpp"
#include "verify/taint.hpp"
#include "workload.hpp"

namespace sealdl::perfbench {
namespace {

enum class Mode { kPlain, kAudit, kProfiled };

/// Counts the transfers an auditor's probe sees, forwarding each one.
class CountingProbe final : public sim::BusProbe {
 public:
  explicit CountingProbe(std::unique_ptr<sim::BusProbe> inner)
      : inner_(std::move(inner)) {}

  void on_transfer(sim::Addr line_addr, std::uint32_t bytes, bool is_write,
                   bool encrypted) override {
    ++transfers_;
    bytes_ += bytes;
    inner_->on_transfer(line_addr, bytes, is_write, encrypted);
  }
  void on_data(sim::Addr line_addr, std::span<const std::uint8_t> wire_bytes,
               bool is_write, bool encrypted) override {
    inner_->on_data(line_addr, wire_bytes, is_write, encrypted);
  }

  [[nodiscard]] std::uint64_t transfers() const { return transfers_; }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  std::unique_ptr<sim::BusProbe> release() { return std::move(inner_); }

 private:
  std::unique_ptr<sim::BusProbe> inner_;
  std::uint64_t transfers_ = 0;
  std::uint64_t bytes_ = 0;
};

/// Wraps an auditor's hook to count its traffic and time merge_probe. It
/// hands the auditor back the exact probe the auditor made, because
/// TaintAuditor::merge_probe static-casts it.
class CountingHook final : public workload::BusProbeHook {
 public:
  CountingHook(workload::BusProbeHook& inner, Tracer& tracer, int op)
      : inner_(inner), tracer_(tracer), op_(op) {}

  std::unique_ptr<sim::BusProbe> make_probe(std::size_t spec_index) override {
    return std::make_unique<CountingProbe>(inner_.make_probe(spec_index));
  }
  void merge_probe(std::unique_ptr<sim::BusProbe> probe,
                   std::size_t spec_index) override {
    auto& counting = static_cast<CountingProbe&>(*probe);
    transfers_ += counting.transfers();
    bytes_ += counting.bytes();
    const auto s = tracer_.open("verify.TaintAuditor::merge_probe", op_);
    inner_.merge_probe(counting.release(), spec_index);
  }

  [[nodiscard]] std::uint64_t transfers() const { return transfers_; }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

 private:
  workload::BusProbeHook& inner_;
  Tracer& tracer_;
  int op_;
  std::uint64_t transfers_ = 0;
  std::uint64_t bytes_ = 0;
};

std::string display_name(const std::string& network) {
  if (network == "vgg16") return "VGG-16";
  if (network == "resnet18") return "ResNet-18";
  return "ResNet-34";
}

class SweepWorkload final : public Workload {
 public:
  SweepWorkload(Mode mode, std::vector<std::string> networks,
                std::vector<bench::SchemeConfig> schemes, int jobs)
      : mode_(mode),
        names_(std::move(networks)),
        schemes_(std::move(schemes)),
        jobs_(jobs),
        run_span_("workload.run_network.jobs" + std::to_string(jobs)) {}

  void setup(Tracer* tracer) override {
    networks_.clear();
    runs_.clear();
    inputs_.clear();
    networks_.reserve(names_.size());
    for (const std::string& name : names_) {
      networks_.push_back(serve::named_network(name));
    }
    for (const bench::SchemeConfig& scheme : schemes_) {
      for (const serve::NamedNetwork& network : networks_) {
        runs_.push_back({&network, scheme, {}});
      }
    }
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      const NetRun& run = runs_[i];
      const int op = static_cast<int>(i);
      if (mode_ == Mode::kAudit) {
        // The auditor classifies live bus addresses against this model,
        // which reproduces the runner's layout bit for bit.
        verify::BuildOptions build;
        build.plan = bench::default_plan();
        build.selective = run.scheme.info->scope == sim::ProtectionScope::kPlanRows;
        const auto s = span(tracer, "verify.build_input", op);
        inputs_.push_back(std::make_unique<verify::AnalysisInput>(
            verify::build_input(run.network->specs, build)));
      } else {
        // run_network lays out its own copy; this measures what laying out
        // the sweep costs.
        (void)build_layout(run.network->specs, run.scheme, tracer, op);
      }
    }
  }

  void pass(Tracer* tracer, Checks& checks) override {
    counts_ = {};
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      switch (mode_) {
        case Mode::kPlain: run_plain(i, tracer, checks); break;
        case Mode::kAudit: run_audited(i, tracer, checks); break;
        case Mode::kProfiled: run_profiled(i, tracer, checks); break;
      }
    }
    if (mode_ == Mode::kPlain) check_ordering(checks);
  }

  [[nodiscard]] double warp_instructions() const override {
    return perfbench::warp_instructions(runs_);
  }

  [[nodiscard]] Metrics fidelity() const override {
    return fidelity_metrics(runs_);
  }

  void layer_metrics(Tracer& tracer, Checks& checks, Metrics& out) override {
    double plain_wall_s = tracer.total_s(run_span_, kTracedPhase);
    if (mode_ != Mode::kPlain) {
      // The same runs with nothing attached, at the same jobs: the base the
      // auditor's or the telemetry's cost is measured against.
      {
        const auto phase = tracer.open(kReferencePhase, -1);
        for (std::size_t i = 0; i < runs_.size(); ++i) {
          const NetRun& run = runs_[i];
          const workload::NetworkResult plain =
              simulate(i, &tracer, run_options(run.scheme, jobs_));
          bool equal = plain.layers.size() == run.result.layers.size();
          for (std::size_t l = 0; equal && l < plain.layers.size(); ++l) {
            equal = same_stats(plain.layers[l].stats, run.result.layers[l].stats);
          }
          checks.cross(equal, op_name(run) + " stats unchanged by what is attached");
        }
      }
      plain_wall_s = tracer.total_s(run_span_, kReferencePhase);
    }
    decompose_runs(runs_, tracer, checks, plain_wall_s, jobs_, out);
    scheme_metrics(runs_, out);

    const double attached_s = tracer.total_s(run_span_, kTracedPhase);
    if (mode_ == Mode::kAudit) {
      const double overhead_s = attached_s - plain_wall_s;
      out["verify.build_input_s"] =
          tracer.total_s("verify.build_input", kSetupPhase);
      out["verify.plain_run_s"] = plain_wall_s;
      out["verify.audited_run_s"] = attached_s;
      out["verify.taint_overhead_s"] = overhead_s;
      out["verify.merge_s"] =
          tracer.total_s("verify.TaintAuditor::merge_probe", kTracedPhase);
      out["verify.transfers"] = static_cast<double>(counts_.transfers);
      out["verify.bus_mb"] = static_cast<double>(counts_.bus_bytes) / 1e6;
      out["verify.ledger_lines"] = static_cast<double>(counts_.ledger_lines);
      out["verify.ns_per_transfer"] =
          counts_.transfers
              ? overhead_s * 1e9 / static_cast<double>(counts_.transfers)
              : 0.0;
      out["verify.conformance_s"] =
          tracer.total_s("verify.run_scheme_conformance", kTracedPhase);
    } else if (mode_ == Mode::kProfiled) {
      out["telemetry.plain_run_s"] = plain_wall_s;
      out["telemetry.collect_run_s"] = attached_s;
      out["telemetry.collect_overhead_s"] = attached_s - plain_wall_s;
      out["telemetry.report_s"] =
          tracer.total_s("telemetry.run_report_json", kTracedPhase);
      out["telemetry.trace_s"] =
          tracer.total_s("telemetry.chrome_trace_json", kTracedPhase);
      out["telemetry.report_mb"] = static_cast<double>(counts_.report_bytes) / 1e6;
      out["telemetry.trace_mb"] = static_cast<double>(counts_.trace_bytes) / 1e6;
      out["telemetry.layer_records"] = static_cast<double>(counts_.layer_records);
      out["telemetry.samples"] = static_cast<double>(counts_.samples);
    }
  }

 private:
  static std::string op_name(const NetRun& run) {
    return run.network->name + "/" + scheme_key(run.scheme);
  }

  /// One layer record per spec and a positive IPC.
  static bool well_formed(const NetRun& run) {
    return run.result.layers.size() == run.network->specs.size() &&
           run.result.overall_ipc() > 0.0;
  }

  workload::NetworkResult simulate(std::size_t i, Tracer* tracer,
                                   const workload::RunOptions& options) {
    const NetRun& run = runs_[i];
    const auto s = span(tracer, run_span_, static_cast<int>(i));
    return workload::run_network(run.network->specs,
                                 bench::configure(run.scheme), options);
  }

  void run_plain(std::size_t i, Tracer* tracer, Checks& checks) {
    NetRun& run = runs_[i];
    run.result = simulate(i, tracer, run_options(run.scheme, jobs_));
    checks.op(well_formed(run), op_name(run) + " completes every layer");
  }

  void run_audited(std::size_t i, Tracer* tracer, Checks& checks) {
    NetRun& run = runs_[i];
    const int op = static_cast<int>(i);
    verify::TaintAuditor auditor(inputs_[i].get());
    std::optional<CountingHook> counting;
    workload::RunOptions options = run_options(run.scheme, jobs_);
    options.probe_hook = &auditor;
    if (tracer) {
      counting.emplace(auditor, *tracer, op);
      options.probe_hook = &*counting;
    }
    run.result = simulate(i, tracer, options);
    verify::SchemeRunEvidence evidence;
    evidence.input = inputs_[i].get();
    evidence.ledger = &auditor.ledger();
    evidence.stats = total_stats(run.result);
    evidence.config = bench::configure(run.scheme);
    verify::Report report;
    {
      const auto s = span(tracer, "verify.run_scheme_conformance", op);
      report = verify::run_scheme_conformance(*run.scheme.info, evidence);
    }
    if (report.error_count() > 0) std::fputs(report.to_text().c_str(), stderr);
    checks.op(well_formed(run) && report.error_count() == 0,
              op_name(run) + " conforms to its scheme contract");
    counts_.ledger_lines += auditor.ledger().lines().size();
    if (counting) {
      counts_.transfers += counting->transfers();
      counts_.bus_bytes += counting->bytes();
    }
  }

  void run_profiled(std::size_t i, Tracer* tracer, Checks& checks) {
    NetRun& run = runs_[i];
    const int op = static_cast<int>(i);
    telemetry::TelemetryOptions topts;
    topts.sample_interval = 1000;
    topts.profile = true;
    telemetry::RunTelemetry collect(topts);
    workload::RunOptions options = run_options(run.scheme, jobs_);
    options.telemetry = &collect;
    run.result = simulate(i, tracer, options);

    const sim::GpuConfig config = bench::configure(run.scheme);
    telemetry::RunInfo info;
    info.tool = "sealdl-bench";
    info.workload = run.network->name;
    info.scheme = scheme_key(run.scheme);
    info.provenance =
        telemetry::make_provenance(config, jobs_, {run.scheme.name});
    {
      const auto s = span(tracer, "telemetry.run_report_json", op);
      counts_.report_bytes +=
          telemetry::run_report_json(info, config, collect).size();
    }
    {
      const auto s = span(tracer, "telemetry.chrome_trace_json", op);
      counts_.trace_bytes +=
          telemetry::chrome_trace_json(info, config, collect).size();
    }
    counts_.layer_records += collect.layers().size();
    if (collect.sampler()) counts_.samples += collect.sampler()->samples().size();

    const verify::Report report = verify::run_profile_check(collect.profile());
    if (report.error_count() > 0) std::fputs(report.to_text().c_str(), stderr);
    checks.op(well_formed(run) && report.error_count() == 0 &&
                  collect.layers().size() == run.network->specs.size(),
              op_name(run) + " profile is conserved, one record per layer");
  }

  /// Per network: Baseline > SEAL-D > Direct and Baseline > SEAL-C > Counter
  /// in IPC. Prints the normalized-IPC table the first time, in the layout
  /// of bench/fig7_overall_ipc.
  void check_ordering(Checks& checks) {
    std::map<std::string, double> ipc;
    for (const NetRun& run : runs_) {
      ipc[op_name(run)] = run.result.overall_ipc();
    }
    for (const serve::NamedNetwork& network : networks_) {
      const auto at = [&](const char* scheme) {
        return ipc.at(network.name + "/" + scheme);
      };
      checks.cross(at("baseline") > at("seal-d") && at("seal-d") > at("direct"),
                   network.name + " IPC: baseline > seal-d > direct");
      checks.cross(at("baseline") > at("seal-c") && at("seal-c") > at("counter"),
                   network.name + " IPC: baseline > seal-c > counter");
    }
    if (printed_table_) return;
    printed_table_ = true;
    std::vector<std::string> header{"scheme"};
    for (const serve::NamedNetwork& network : networks_) {
      header.push_back(display_name(network.name));
    }
    util::Table table(header);
    for (const bench::SchemeConfig& scheme : schemes_) {
      std::vector<std::string> row{scheme.name};
      for (const serve::NamedNetwork& network : networks_) {
        row.push_back(util::Table::fmt(
            ipc.at(network.name + "/" + scheme_key(scheme)) /
                ipc.at(network.name + "/baseline"),
            2));
      }
      table.add_row(std::move(row));
    }
    std::printf("overall IPC normalized to Baseline (tiles %llu)\n",
                static_cast<unsigned long long>(kTiles));
    table.print();
  }

  const Mode mode_;
  const std::vector<std::string> names_;
  const std::vector<bench::SchemeConfig> schemes_;
  const int jobs_;
  const std::string run_span_;

  std::vector<serve::NamedNetwork> networks_;
  std::vector<NetRun> runs_;  ///< scheme-major, as fig7 sweeps
  std::vector<std::unique_ptr<verify::AnalysisInput>> inputs_;  ///< audit only
  bool printed_table_ = false;

  /// Counted over the last pass.
  struct Counts {
    std::uint64_t transfers = 0;  ///< traced passes only
    std::uint64_t bus_bytes = 0;  ///< traced passes only
    std::uint64_t ledger_lines = 0;
    std::uint64_t layer_records = 0;
    std::uint64_t samples = 0;
    std::uint64_t report_bytes = 0;
    std::uint64_t trace_bytes = 0;
  } counts_;
};

}  // namespace

std::unique_ptr<Workload> make_sweep_workload(const std::string& name) {
  if (name == "fig7-sweep") {
    return std::make_unique<SweepWorkload>(
        Mode::kPlain, std::vector<std::string>{"vgg16", "resnet18", "resnet34"},
        bench::all_schemes(), kJobs);
  }
  if (name == "scheme-audit") {
    return std::make_unique<SweepWorkload>(
        Mode::kAudit, std::vector<std::string>{"vgg16", "resnet18"},
        bench::all_schemes(), kJobs);
  }
  if (name == "profiled-serial") {
    return std::make_unique<SweepWorkload>(
        Mode::kProfiled, std::vector<std::string>{"resnet18", "resnet34"},
        bench::five_schemes(), 1);
  }
  return nullptr;
}

}  // namespace sealdl::perfbench
