# One cli_rejects_* or audit_runner_rejects_* check (see
# tools/CMakeLists.txt): run the bgpsim CLI or audit_runner with a bad
# numeric option and require that it failed for that reason — exit 1 (a
# ConfigError, not a crash or a silent default) with the option named on
# stderr.
#
# Expected -D inputs: BGPSIM_CLI (the binary), ARGS (the arguments,
# comma-separated), OPTION (the option name without its dashes).
cmake_minimum_required(VERSION 3.20)
if(NOT BGPSIM_CLI OR NOT ARGS OR NOT OPTION)
  message(FATAL_ERROR "usage: cmake -DBGPSIM_CLI=... -DARGS=a,b,... -DOPTION=... -P cli_rejects.cmake")
endif()

string(REPLACE "," ";" args "${ARGS}")
execute_process(
  COMMAND "${BGPSIM_CLI}" ${args}
  RESULT_VARIABLE cli_rc
  OUTPUT_VARIABLE cli_out
  ERROR_VARIABLE cli_err)
if(NOT cli_rc EQUAL 1)
  message(FATAL_ERROR "expected exit 1 from ${BGPSIM_CLI} ${args}, got ${cli_rc}\n${cli_out}${cli_err}")
endif()
string(FIND "${cli_err}" "--${OPTION}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "expected the error to name --${OPTION}, got:\n${cli_err}")
endif()
message(STATUS "${BGPSIM_CLI} ${args}: ${cli_err}")
