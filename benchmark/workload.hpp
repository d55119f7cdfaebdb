// The benchmark's workloads and the pieces they share.
//
// A workload builds its inputs in setup(), which main() repeats to take a
// median, then runs whole passes over its ops. Every op's output is
// checked; a failed check is printed by name and counted, never fatal.
// Traced runs additionally call layer_metrics(), which re-runs the
// workload's simulations through the per-layer public calls with spans
// around each one.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/model_layout.hpp"
#include "core/secure_heap.hpp"
#include "serve/service_model.hpp"
#include "tracer.hpp"
#include "workload/network_runner.hpp"

namespace sealdl::perfbench {

/// Paper-scale settings every workload shares.
inline constexpr std::uint64_t kTiles = 120;
inline constexpr int kJobs = 4;

/// Root spans of a traced run's phases; per-layer metrics sum the spans
/// under one of them.
inline constexpr const char* kSetupPhase = "bench.setup";
inline constexpr const char* kTracedPhase = "bench.traced_pass";
inline constexpr const char* kReferencePhase = "bench.reference_pass";
inline constexpr const char* kLayerPhase = "bench.layer_pass";

/// Metric name -> value, in the unit the catalog (catalog.hpp) declares.
using Metrics = std::map<std::string, double>;

/// Output-check accounting: `attempted` counts ops, `failed` counts ops
/// whose own check failed plus one per failed cross-op check.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Counts one op, failing it unless `ok`.
  void op(bool ok, const std::string& what);
  /// A check across several ops' outputs (an ordering, an equality).
  void cross(bool ok, const std::string& what);
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds everything the timed phase reads; passes use the last build.
  virtual void setup(Tracer* tracer) = 0;

  /// One full pass over the workload's ops, checking every output.
  virtual void pass(Tracer* tracer, Checks& checks) = 0;

  /// Warp instructions actually simulated (not scaled up) by one pass, or by
  /// one setup when the simulator runs there.
  [[nodiscard]] virtual double warp_instructions() const = 0;
  [[nodiscard]] virtual bool simulates_in_setup() const { return false; }

  /// The paper-fidelity metrics (ipc_err_*, lat_err_*) of the last pass.
  [[nodiscard]] virtual Metrics fidelity() const = 0;

  /// Traced runs only, after a traced pass: re-runs the simulations through
  /// the per-layer calls, checks the reassembled stats, and adds the
  /// per-layer metrics this workload measures.
  virtual void layer_metrics(Tracer& tracer, Checks& checks, Metrics& out) = 0;
};

/// fig7-sweep, scheme-audit or profiled-serial (sweep.cpp); null for any
/// other name.
[[nodiscard]] std::unique_ptr<Workload> make_sweep_workload(
    const std::string& name);

/// serve-capacity (serving.cpp), its Poisson arrivals seeded by `seed`.
[[nodiscard]] std::unique_ptr<Workload> make_serve_workload(std::uint64_t seed);

// ----------------------------------------------------------------- helpers --

/// One simulated (network, scheme) pair and its last result.
struct NetRun {
  const serve::NamedNetwork* network = nullptr;  ///< owned by the workload
  bench::SchemeConfig scheme;
  workload::NetworkResult result;
};

/// The address space run_network lays out for one (network, scheme) pair.
struct Layout {
  core::SecureHeap heap;
  std::optional<core::EncryptionPlan> plan;
  std::optional<core::ModelLayout> layout;
};

/// Builds the plan and layout exactly as run_network does, with spans around
/// EncryptionPlan::for_specs and the ModelLayout constructor.
[[nodiscard]] std::unique_ptr<Layout> build_layout(
    const std::vector<models::LayerSpec>& specs,
    const bench::SchemeConfig& scheme, Tracer* tracer, int op);

/// Run options of one scheme at the benchmark's tiles, ratio and plan.
[[nodiscard]] workload::RunOptions run_options(const bench::SchemeConfig& scheme,
                                               int jobs);

/// Registry CLI name of a scheme ("seal-d"), used in metric names.
[[nodiscard]] std::string scheme_key(const bench::SchemeConfig& scheme);

/// Summed raw warp instructions of every layer of every run.
[[nodiscard]] double warp_instructions(const std::vector<NetRun>& runs);

/// |ratio / paper - 1| for the paper's two IPC and two latency claims, over
/// the networks in `runs` (which must hold the paper's five schemes).
[[nodiscard]] Metrics fidelity_metrics(const std::vector<NetRun>& runs);

/// sim.<scheme>.{norm_ipc,dram_util,l2_hit_rate}, plus aes_util for
/// encrypting schemes and counter_hit_rate for counter-mode ones, for every
/// scheme present in `runs`.
void scheme_metrics(const std::vector<NetRun>& runs, Metrics& out);

/// Field-for-field equality of two SimStats.
[[nodiscard]] bool same_stats(const sim::SimStats& a, const sim::SimStats& b);

/// Sum of a network result's per-layer stats.
[[nodiscard]] sim::SimStats total_stats(const workload::NetworkResult& result);

/// Re-runs `runs` layer by layer through the public calls run_network makes
/// (plan, layout, trace generation, simulator construction, load, run,
/// stats), each under a span, and checks every layer's stats against the
/// run's. Adds the core.*, workload.* and sim.* per-layer metrics;
/// `parallel_wall_s` is the host time the same runs took through
/// run_network on `workers` threads.
void decompose_runs(const std::vector<NetRun>& runs, Tracer& tracer,
                    Checks& checks, double parallel_wall_s, int workers,
                    Metrics& out);

}  // namespace sealdl::perfbench
