# ctest gate: a tool's report must be byte-identical for --jobs 1 and
# --jobs 4 — parallelism must never leak into results. For each variant the
# binary runs once per jobs value with the shared arguments, writes its
# report through REPORT_FLAG, and the two reports are byte-compared. The
# provenance block legitimately differs across job counts (it records
# --jobs); it is a flat object emitted on the single-line report, so a
# non-greedy brace match strips it exactly.
# Invoked as:
#   cmake -DBIN=<path> -DOUT_DIR=<dir> -DNAME=<tag> -DARGS="<shared args>"
#         -DREPORT_FLAG=<--json|--scheme-audit-json>
#         [-DVARIANTS="<extra args>|<extra args>|..."]
#         -P check_jobs_determinism.cmake
foreach(var BIN OUT_DIR NAME ARGS REPORT_FLAG)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "usage: cmake -DBIN=... -DOUT_DIR=... -DNAME=... -DARGS=... -DREPORT_FLAG=... [-DVARIANTS=...] -P check_jobs_determinism.cmake")
  endif()
endforeach()

separate_arguments(shared_args UNIX_COMMAND "${ARGS}")
if(NOT DEFINED VARIANTS OR VARIANTS STREQUAL "")
  set(variants "none")
else()
  string(REPLACE "|" ";" variants "${VARIANTS}")
endif()

set(index 0)
foreach(variant IN LISTS variants)
  if(variant STREQUAL "none")
    set(variant_args "")
  else()
    separate_arguments(variant_args UNIX_COMMAND "${variant}")
  endif()
  foreach(jobs 1 4)
    set(report ${OUT_DIR}/${NAME}_v${index}_j${jobs}.json)
    execute_process(
      COMMAND ${BIN} ${shared_args} ${variant_args} --jobs ${jobs}
              ${REPORT_FLAG} ${report}
      RESULT_VARIABLE rc
      OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${NAME} [${variant}] --jobs ${jobs} failed (rc=${rc})")
    endif()
    file(READ ${report} contents)
    string(REGEX REPLACE "\"provenance\":{[^}]*}," "" report_j${jobs} "${contents}")
  endforeach()
  if(NOT report_j1 STREQUAL report_j4)
    message(FATAL_ERROR "${NAME} [${variant}]: reports differ between --jobs 1 and --jobs 4")
  endif()
  message(STATUS "${NAME} determinism OK [${variant}]: --jobs 1 == --jobs 4")
  math(EXPR index "${index} + 1")
endforeach()
