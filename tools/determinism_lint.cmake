# ctest gate: the byte-determinism contract of the telemetry / verify / serve
# stacks ("same flags => byte-identical output, for any --jobs"), and of the
# core layout whose directory the taint ledger classifies against, is easiest to
# break by accident — one wall-clock read or one iterated hash container. This
# lint greps those directories for the known nondeterminism sources and fails
# on any hit not carried by the audited allowlist
# (tools/determinism_lint_allowlist.txt).
#
# Invoked as:
#   cmake -DREPO_ROOT=<repo> -P determinism_lint.cmake
if(NOT DEFINED REPO_ROOT)
  message(FATAL_ERROR "usage: cmake -DREPO_ROOT=... -P determinism_lint.cmake")
endif()

set(lint_dirs src/core src/telemetry src/verify src/serve)
# Each entry: a fixed substring whose presence needs justification.
set(banned_patterns
  std::random_device
  system_clock
  steady_clock
  high_resolution_clock
  gettimeofday
  std::time\(
  unordered_map
  unordered_set
)

# Load the allowlist: "path:pattern" entries, '#' comments.
set(allowlist "")
file(STRINGS ${REPO_ROOT}/tools/determinism_lint_allowlist.txt allow_lines)
foreach(line IN LISTS allow_lines)
  string(STRIP "${line}" line)
  if(line STREQUAL "" OR line MATCHES "^#")
    continue()
  endif()
  list(APPEND allowlist "${line}")
endforeach()

set(violations "")
set(scanned 0)
foreach(dir IN LISTS lint_dirs)
  file(GLOB_RECURSE sources
       ${REPO_ROOT}/${dir}/*.cpp ${REPO_ROOT}/${dir}/*.hpp)
  foreach(source IN LISTS sources)
    math(EXPR scanned "${scanned} + 1")
    file(READ ${source} content)
    file(RELATIVE_PATH rel ${REPO_ROOT} ${source})
    foreach(pattern IN LISTS banned_patterns)
      string(FIND "${content}" "${pattern}" pos)
      if(NOT pos EQUAL -1)
        list(FIND allowlist "${rel}:${pattern}" allowed)
        if(allowed EQUAL -1)
          list(APPEND violations "${rel}: ${pattern}")
        endif()
      endif()
    endforeach()
  endforeach()
endforeach()

if(scanned EQUAL 0)
  message(FATAL_ERROR "determinism lint scanned zero files — wrong REPO_ROOT?")
endif()

# Stale allowlist entries are themselves findings: an exception whose code is
# gone should be deleted, not silently kept as a blanket waiver.
foreach(entry IN LISTS allowlist)
  # Split at the FIRST colon: paths never contain one, patterns may ("std::").
  string(FIND "${entry}" ":" colon)
  string(SUBSTRING "${entry}" 0 ${colon} rel)
  math(EXPR after "${colon} + 1")
  string(SUBSTRING "${entry}" ${after} -1 pattern)
  if(NOT EXISTS ${REPO_ROOT}/${rel})
    list(APPEND violations "allowlist entry for missing file: ${entry}")
  else()
    file(READ ${REPO_ROOT}/${rel} content)
    string(FIND "${content}" "${pattern}" pos)
    if(pos EQUAL -1)
      list(APPEND violations "stale allowlist entry (pattern no longer present): ${entry}")
    endif()
  endif()
endforeach()

if(violations)
  string(REPLACE ";" "\n  " pretty "${violations}")
  message(FATAL_ERROR "determinism lint findings (add to "
          "tools/determinism_lint_allowlist.txt only with a justification):\n"
          "  ${pretty}")
endif()
message(STATUS "determinism lint OK: ${scanned} files clean in ${lint_dirs}")
