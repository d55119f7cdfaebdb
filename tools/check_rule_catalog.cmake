# ctest gate: the rule catalog exported by `sealdl-check --list-rules --json`
# and the one documented in docs/ANALYSIS.md must not drift apart.
#
#   forward: every rule id in the machine-readable catalog appears in the
#            document;
#   reverse: every backticked dotted rule id in the document's tables is one
#            the binary knows.
#
# The catalog is consumed as JSON (string(JSON), cmake >= 3.19) rather than
# scraped from the human listing, so reformatting --list-rules output can
# never silently break the gate.
#
# Invoked as:
#   cmake -DCHECK_BIN=<path> -DDOC=<path/to/ANALYSIS.md> -DOUT_DIR=<dir>
#         -P check_rule_catalog.cmake
cmake_minimum_required(VERSION 3.19)
if(NOT DEFINED CHECK_BIN OR NOT DEFINED DOC OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR "usage: cmake -DCHECK_BIN=... -DDOC=... -DOUT_DIR=... -P check_rule_catalog.cmake")
endif()

execute_process(
  COMMAND ${CHECK_BIN} --list-rules --json ${OUT_DIR}/rule_catalog.json
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sealdl-check --list-rules --json failed (rc=${rc})")
endif()
file(READ ${OUT_DIR}/rule_catalog.json catalog)
file(READ ${DOC} doc)

string(JSON mode GET "${catalog}" mode)
if(NOT mode STREQUAL "rule-catalog")
  message(FATAL_ERROR "unexpected catalog mode \"${mode}\"")
endif()
string(JSON rule_count LENGTH "${catalog}" rules)
if(rule_count LESS 20)
  message(FATAL_ERROR "catalog JSON carries only ${rule_count} rule ids — export broke?")
endif()

set(listed_rules "")
math(EXPR last "${rule_count} - 1")
foreach(i RANGE ${last})
  string(JSON rule GET "${catalog}" rules ${i} id)
  list(APPEND listed_rules ${rule})
endforeach()
list(REMOVE_DUPLICATES listed_rules)

set(missing_in_doc "")
foreach(rule IN LISTS listed_rules)
  string(FIND "${doc}" "`${rule}`" pos)
  if(pos EQUAL -1)
    list(APPEND missing_in_doc ${rule})
  endif()
endforeach()
if(missing_in_doc)
  message(FATAL_ERROR "rules exported by --list-rules but undocumented in ${DOC}: ${missing_in_doc}")
endif()

# Reverse direction: backticked dotted ids in the document. Restrict to the
# known rule-family prefixes so prose mentioning e.g. `docs/ANALYSIS.md` or
# flag names never false-positives.
string(REGEX MATCHALL "`(plan|layout|trace|scheme|lock|serve|profile|fleet)\\.[a-z0-9.-]+`"
       doc_rules "${doc}")
list(REMOVE_DUPLICATES doc_rules)
set(missing_in_binary "")
foreach(backticked IN LISTS doc_rules)
  string(REPLACE "`" "" rule "${backticked}")
  # The doc may name a family ("profile.*"); only exact ids are checked.
  if(rule MATCHES "\\*")
    continue()
  endif()
  list(FIND listed_rules "${rule}" idx)
  if(idx EQUAL -1)
    list(APPEND missing_in_binary ${rule})
  endif()
endforeach()
if(missing_in_binary)
  message(FATAL_ERROR "rules documented in ${DOC} but unknown to --list-rules: ${missing_in_binary}")
endif()

# Injection table: names are unique, each row names one of the three tools
# that stage injections, and declares at least one rule it fires, which must
# itself be in the catalog.
string(JSON inject_count LENGTH "${catalog}" injections)
set(inject_names "")
math(EXPR last "${inject_count} - 1")
foreach(i RANGE ${last})
  string(JSON name GET "${catalog}" injections ${i} name)
  if(name IN_LIST inject_names)
    message(FATAL_ERROR "injection name ${name} appears twice in the table")
  endif()
  list(APPEND inject_names ${name})
  string(JSON tool GET "${catalog}" injections ${i} tool)
  if(NOT tool MATCHES "^sealdl-(check|sim|serve)$")
    message(FATAL_ERROR "injection ${name} names no known tool (\"${tool}\")")
  endif()
  string(JSON fire_count LENGTH "${catalog}" injections ${i} fires)
  if(fire_count LESS 1)
    message(FATAL_ERROR "injection ${name} declares no rules it fires")
  endif()
  math(EXPR fire_last "${fire_count} - 1")
  foreach(j RANGE ${fire_last})
    string(JSON fired GET "${catalog}" injections ${i} fires ${j})
    list(FIND listed_rules "${fired}" idx)
    if(idx EQUAL -1)
      message(FATAL_ERROR "injection ${name} fires unknown rule ${fired}")
    endif()
  endforeach()
endforeach()

message(STATUS "rule catalog OK: ${rule_count} rules, ${inject_count} injections, binary and ${DOC} agree")
