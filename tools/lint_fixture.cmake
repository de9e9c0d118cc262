# One lint_detects_* check (see tools/CMakeLists.txt): run bgpsim-lint over
# a deliberate violation fixture and require that it failed for the right
# reason — exit 1 (not 0: the rule is dead; not 2: the linter broke or the
# fixture is unreadable) with the --json findings coming from exactly the
# expected rule ids, no more and no fewer.
# Uses cmake's string(JSON) so the check needs no interpreter beyond cmake.
#
# Expected -D inputs: BGPSIM_LINT (linter binary), REPO_ROOT, FIXTURE (path
# relative to REPO_ROOT), RULES (comma-separated rule ids), WORK_DIR.
cmake_minimum_required(VERSION 3.20)  # string(JSON) in script mode
if(NOT BGPSIM_LINT OR NOT REPO_ROOT OR NOT FIXTURE OR NOT RULES OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DBGPSIM_LINT=... -DREPO_ROOT=... -DFIXTURE=... -DRULES=rule[,rule...] -DWORK_DIR=... -P lint_fixture.cmake")
endif()

get_filename_component(fixture_name "${FIXTURE}" NAME_WE)
set(json_file "${WORK_DIR}/lint_fixture_${fixture_name}.json")
file(REMOVE "${json_file}")

execute_process(
  COMMAND "${BGPSIM_LINT}" --root "${REPO_ROOT}" --json "${json_file}"
          "${REPO_ROOT}/${FIXTURE}"
  RESULT_VARIABLE lint_rc
  OUTPUT_VARIABLE lint_out
  ERROR_VARIABLE lint_err)
if(NOT lint_rc EQUAL 1)
  message(FATAL_ERROR "expected exit 1 on ${FIXTURE}, got ${lint_rc}\n${lint_out}${lint_err}")
endif()

# Exit 1 means at least one non-suppressed finding, so the array is non-empty.
file(READ "${json_file}" lint_json)
string(JSON count LENGTH "${lint_json}" "findings")
math(EXPR last "${count} - 1")
set(seen "")
foreach(i RANGE ${last})
  string(JSON rule GET "${lint_json}" "findings" ${i} "rule")
  list(APPEND seen "${rule}")
endforeach()
list(REMOVE_DUPLICATES seen)
list(SORT seen)
string(REPLACE "," ";" expected "${RULES}")
list(SORT expected)
if(NOT seen STREQUAL expected)
  message(FATAL_ERROR "${FIXTURE}: expected findings from [${expected}], got [${seen}]\n${lint_out}")
endif()

message(STATUS "${FIXTURE}: ${count} finding(s), rules ${RULES}")
