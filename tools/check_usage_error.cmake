# ctest gate: a command must refuse its input as a usage error — exit code
# exactly 2 — and print a diagnostic matching EXPECT. A crash, a runtime
# failure (exit 1) or a silent diagnostic all fail the gate.
# Invoked as:
#   cmake -DEXPECT=<regex> -P check_usage_error.cmake -- <binary> <args...>
if(NOT DEFINED EXPECT)
  message(FATAL_ERROR "usage: cmake -DEXPECT=<regex> -P check_usage_error.cmake -- <binary> <args...>")
endif()

set(command "")
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "no command given after --")
endif()

execute_process(
  COMMAND ${command}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "expected exit code 2, got ${rc}\nstdout: ${out}\nstderr: ${err}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT}")
  message(FATAL_ERROR "exit code 2 but no diagnostic matching \"${EXPECT}\"\nstdout: ${out}\nstderr: ${err}")
endif()
message(STATUS "usage error OK (exit 2): ${err}")
