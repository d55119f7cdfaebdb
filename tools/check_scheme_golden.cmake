# ctest gate: every registry entry — the five paper schemes, captured before
# the secure-path timing moved behind the scheme registry, and the Seculator
# and GuardNN rivals, captured before the layer directory moved into
# core::ModelLayout — must stay byte-identical to its golden. Each scheme
# re-runs the golden command and compares both artifacts — the profiled JSON
# run report (cycle counts, per-layer stats, cycle profile) and the
# scheme-audit ledger (byte provenance + digest + findings) — against
# tests/golden/.
#
# The report's provenance block records the generating host's core count,
# which is the one legitimately host-dependent byte; it is neutralized on
# both sides before the comparison so the gate pins simulation results, not
# the machine the golden was captured on.
#
# Invoked as:
#   cmake -DSIM_BIN=<path> -DGOLDEN_DIR=<tests/golden> -DOUT_DIR=<dir>
#         -P check_scheme_golden.cmake
if(NOT DEFINED SIM_BIN OR NOT DEFINED GOLDEN_DIR OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR "usage: cmake -DSIM_BIN=... -DGOLDEN_DIR=... -DOUT_DIR=... -P check_scheme_golden.cmake")
endif()

function(neutralize_host_cores path out_var)
  file(READ ${path} contents)
  string(REGEX REPLACE "\"host_cores\":[0-9]+" "\"host_cores\":0" contents "${contents}")
  set(${out_var} "${contents}" PARENT_SCOPE)
endfunction()

foreach(scheme baseline direct counter seal-d seal-c seculator guardnn)
  execute_process(
    COMMAND ${SIM_BIN} --workload resnet18 --input 96 --scheme ${scheme}
            --ratio 0.5 --tiles 48 --profile
            --json ${OUT_DIR}/golden_${scheme}.report.json
            --scheme-audit-json ${OUT_DIR}/golden_${scheme}.ledger.json
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "sealdl-sim --scheme ${scheme} failed (rc=${rc})")
  endif()

  neutralize_host_cores(${GOLDEN_DIR}/scheme_${scheme}.report.json want_report)
  neutralize_host_cores(${OUT_DIR}/golden_${scheme}.report.json got_report)
  if(NOT want_report STREQUAL got_report)
    message(FATAL_ERROR "scheme ${scheme}: run report drifted from ${GOLDEN_DIR}/scheme_${scheme}.report.json — a refactor changed simulation results")
  endif()

  # Ledgers carry no provenance; they must match byte for byte.
  file(READ ${GOLDEN_DIR}/scheme_${scheme}.ledger.json want_ledger)
  file(READ ${OUT_DIR}/golden_${scheme}.ledger.json got_ledger)
  if(NOT want_ledger STREQUAL got_ledger)
    message(FATAL_ERROR "scheme ${scheme}: taint ledger drifted from ${GOLDEN_DIR}/scheme_${scheme}.ledger.json")
  endif()
  message(STATUS "golden ${scheme} OK (report + ledger byte-identical)")
endforeach()

message(STATUS "scheme goldens OK: 7 schemes byte-identical pre/post refactor")
