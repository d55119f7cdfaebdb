# ctest gate: every tool's `--inject all --json` ledger must account for
# exactly that tool's rows of the injection table — total == rows,
# exercised + skipped == total, nothing missed — and skip exactly the pinned
# rows, so no injection can silently fall out of a self-test loop. The table
# is read from `sealdl-check --list-rules --json`.
# Invoked as:
#   cmake -DCHECK_BIN=<path> -DSIM_BIN=<path> -DSERVE_BIN=<path> -DOUT_DIR=<dir>
#         -P check_inject_ledger.cmake
cmake_minimum_required(VERSION 3.19)
foreach(var CHECK_BIN SIM_BIN SERVE_BIN OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "usage: cmake -DCHECK_BIN=... -DSIM_BIN=... -DSERVE_BIN=... -DOUT_DIR=... -P check_inject_ledger.cmake")
  endif()
endforeach()

execute_process(
  COMMAND ${CHECK_BIN} --list-rules --json ${OUT_DIR}/inject_catalog.json
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sealdl-check --list-rules --json failed (rc=${rc})")
endif()
file(READ ${OUT_DIR}/inject_catalog.json catalog)
string(JSON table_rows LENGTH "${catalog}" injections)

# check_ledger(<tool> <ledger name> <pinned skips> <command...>)
function(check_ledger tool name pinned_skips)
  set(rows 0)
  math(EXPR last "${table_rows} - 1")
  foreach(i RANGE ${last})
    string(JSON row_tool GET "${catalog}" injections ${i} tool)
    if(row_tool STREQUAL tool)
      math(EXPR rows "${rows} + 1")
    endif()
  endforeach()

  set(ledger_path ${OUT_DIR}/inject_ledger_${name}.json)
  execute_process(
    COMMAND ${ARGN} --inject all --json ${ledger_path}
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${tool} --inject all failed (rc=${rc})")
  endif()
  file(READ ${ledger_path} ledger)
  foreach(field total exercised skipped missed)
    string(JSON ${field} GET "${ledger}" ${field})
  endforeach()

  if(NOT total EQUAL rows)
    message(FATAL_ERROR "${tool}: ledger total ${total} != ${rows} table rows")
  endif()
  math(EXPR accounted "${exercised} + ${skipped}")
  if(NOT accounted EQUAL total)
    message(FATAL_ERROR "${tool}: ${exercised} exercised + ${skipped} skipped != ${total} total")
  endif()
  if(NOT missed EQUAL 0)
    message(FATAL_ERROR "${tool}: ${missed} injection(s) missed")
  endif()

  set(skipped_names "")
  math(EXPR last "${total} - 1")
  foreach(i RANGE ${last})
    string(JSON status GET "${ledger}" injections ${i} status)
    if(status STREQUAL "skipped")
      string(JSON row_name GET "${ledger}" injections ${i} name)
      string(JSON reason GET "${ledger}" injections ${i} reason)
      if(reason STREQUAL "")
        message(FATAL_ERROR "${tool}: ${row_name} skipped without a reason")
      endif()
      list(APPEND skipped_names ${row_name})
    endif()
  endforeach()
  if(NOT "${skipped_names}" STREQUAL "${pinned_skips}")
    message(FATAL_ERROR "${tool}: skipped [${skipped_names}], expected exactly [${pinned_skips}]")
  endif()
  message(STATUS "${tool} inject ledger OK: ${exercised} exercised + ${skipped} skipped == ${total} rows, 0 missed")
endfunction()

# VGG-16 declares no identity skip: exactly plan-residual has nothing to
# corrupt. Baseline's scope none has no must-cipher line: exactly
# scheme-wire and scheme-boundary are skipped. No other ledger skips a row.
check_ledger(sealdl-check check "plan-residual"
             ${CHECK_BIN} --workload vgg16)
foreach(net resnet18 resnet34)
  check_ledger(sealdl-check check_${net} "" ${CHECK_BIN} --workload ${net})
endforeach()
check_ledger(sealdl-sim sim "scheme-wire;scheme-boundary"
             ${SIM_BIN} --workload resnet18 --input 64 --tiles 24
             --scheme baseline)
check_ledger(sealdl-sim sim_seal-c ""
             ${SIM_BIN} --workload resnet18 --input 64 --tiles 24
             --scheme seal-c)
check_ledger(sealdl-serve serve ""
             ${SERVE_BIN} --networks vgg16 --rate 40 --duration 0.05
             --tiles 32 --devices 2)
