# ctest gate: a command's output files must stay byte-identical to the
# goldens in tests/golden/. Each case re-runs the command that captured its
# goldens and compares every artifact it writes:
#
#   * scheme_<scheme>: all seven registry entries — the five paper schemes,
#     captured before the secure-path timing moved behind the scheme
#     registry, and the Seculator and GuardNN rivals, captured before the
#     layer directory moved into core::ModelLayout. Artifacts: the profiled
#     sealdl-sim run report (cycle counts, per-layer stats, cycle profile)
#     and the scheme-audit ledger (byte provenance + digest + findings).
#   * serve_<policy>_d<devices>: sealdl-serve over three fleet shapes and the
#     three overload policies, captured before the fleet event loop became
#     lock-free and streamed its arrivals. Artifacts: the run report (batch
#     phase records, serve/* and fleet/d<i>/* instruments), and for one case
#     the Perfetto trace and the per-request lifecycle NDJSON.
#
# A report's provenance block records the generating host's core count,
# which is the one legitimately host-dependent byte; it is neutralized on
# both sides before the comparison so the gate pins results, not the machine
# a golden was captured on.
#
# Invoked as:
#   cmake -DBIN=<path> -DGOLDEN_DIR=<tests/golden> -DOUT_DIR=<dir>
#         -P check_golden.cmake -- "<name>|<args>" ...
# In <args>, @OUT@ stands for OUT_DIR/<name>; every argument that starts
# with @OUT@ names an artifact, compared against GOLDEN_DIR/<name><suffix>.
if(NOT DEFINED BIN OR NOT DEFINED GOLDEN_DIR OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR "usage: cmake -DBIN=... -DGOLDEN_DIR=... -DOUT_DIR=... -P check_golden.cmake -- \"<name>|<args>\" ...")
endif()

set(cases "")
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND cases "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
if(NOT cases)
  message(FATAL_ERROR "no cases given after --")
endif()
file(MAKE_DIRECTORY ${OUT_DIR})

function(neutralize_host_cores path out_var)
  file(READ ${path} contents)
  string(REGEX REPLACE "\"host_cores\":[0-9]+" "\"host_cores\":0" contents "${contents}")
  set(${out_var} "${contents}" PARENT_SCOPE)
endfunction()

foreach(case IN LISTS cases)
  string(FIND "${case}" "|" bar)
  string(SUBSTRING "${case}" 0 ${bar} name)
  math(EXPR args_at "${bar} + 1")
  string(SUBSTRING "${case}" ${args_at} -1 args)
  separate_arguments(args UNIX_COMMAND "${args}")

  set(command ${BIN})
  set(artifacts "")
  foreach(arg IN LISTS args)
    if(arg MATCHES "^@OUT@(.*)$")
      list(APPEND artifacts "${name}${CMAKE_MATCH_1}")
      set(arg "${OUT_DIR}/${name}${CMAKE_MATCH_1}")
    endif()
    list(APPEND command "${arg}")
  endforeach()
  if(NOT artifacts)
    message(FATAL_ERROR "${name}: the case writes no @OUT@ artifact")
  endif()

  execute_process(COMMAND ${command} RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name}: command failed (rc=${rc})")
  endif()

  foreach(artifact IN LISTS artifacts)
    neutralize_host_cores(${GOLDEN_DIR}/${artifact} want)
    neutralize_host_cores(${OUT_DIR}/${artifact} got)
    if(NOT want STREQUAL got)
      message(FATAL_ERROR "${name}: ${artifact} drifted from ${GOLDEN_DIR}/${artifact} — a refactor changed results")
    endif()
  endforeach()
  message(STATUS "golden ${name} OK (${artifacts} byte-identical)")
endforeach()

list(LENGTH cases count)
message(STATUS "goldens OK: ${count} case(s) byte-identical")
