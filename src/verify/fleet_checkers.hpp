// Fleet configuration validation and report reconciliation — the `fleet.*`
// rule family.
//
// Two halves, mirroring how serve.options.* and profile.serve.stages split
// static configuration checks from post-run accounting proofs:
//
//   Static (checked before profiling, exit code 2 on violation):
//   fleet.options.devices  device count is >= 1
//   fleet.options.router   router policy is a declared enumerator
//   fleet.options.shard    1 <= shard_stages <= devices, devices divisible
//                          by shard_stages, microbatch >= 1
//   fleet.options.link     link latency finite >= 0 cycles; link bandwidth
//                          a positive finite bytes/cycle
//
//   Post-run (a failure is a scheduler accounting bug, exit code 1):
//   fleet.devices   the report carries exactly `devices` device entries,
//                   indexed 0..N-1 with consistent pipeline/stage mapping,
//                   and no device is busy longer than the run lasted
//   fleet.requests  per-device admission outcomes sum to the fleet totals:
//                   sum(routed) == generated, sum(completed/dropped/shed/
//                   blocked) == the matching total, and generated ==
//                   completed + dropped + shed (block never loses requests)
//   fleet.batches   sum of per-device batches == total batches; per-device
//                   stage runs sum to microbatches x stages
//   fleet.stages    per-request lifecycle stages still sum to the measured
//                   end-to-end latency under sharding (the fleet-level twin
//                   of profile.serve.stages)
//
// All checks are pure functions of (FleetOptions, FleetReport) — nothing is
// re-simulated. sealdl-serve runs both halves on every invocation; its
// `--inject fleet-*` rows corrupt a healthy report to prove each rule fires.
#pragma once

#include <string>
#include <vector>

#include "serve/fleet.hpp"
#include "verify/diagnostics.hpp"

namespace sealdl::verify {

/// Rule ids the family can emit, in catalog order (for --list-rules).
std::vector<std::string> fleet_rules();

/// Appends one error diagnostic per violated static-configuration rule.
void check_fleet_options(const serve::FleetOptions& options, Report& report);

/// Appends one error diagnostic per violated reconciliation rule over a
/// finished fleet run.
void check_fleet_report(const serve::FleetOptions& options,
                        const serve::FleetReport& fleet, Report& report);

/// Convenience wrappers returning fresh reports.
[[nodiscard]] Report run_fleet_options_check(const serve::FleetOptions& options);
[[nodiscard]] Report run_fleet_report_check(const serve::FleetOptions& options,
                                            const serve::FleetReport& fleet);

}  // namespace sealdl::verify
