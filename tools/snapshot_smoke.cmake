# CTest script for the snapshot CLI lifecycle: save -> info -> load/verify
# (the generation seeds against a fresh generation-engine run, the first
# baseline against a cold convergence).
# Invoked as: cmake -DBGPSIM_CLI=<path> -DWORK_DIR=<dir> -P snapshot_smoke.cmake
set(snap "${WORK_DIR}/snapshot_smoke.snap")

execute_process(
  COMMAND ${BGPSIM_CLI} snapshot save --ases 800 --seed 7 --out ${snap}
  RESULT_VARIABLE save_status OUTPUT_VARIABLE save_out)
if(NOT save_status EQUAL 0)
  message(FATAL_ERROR "snapshot save failed (${save_status}): ${save_out}")
endif()
if(NOT save_out MATCHES "baseline targets")
  message(FATAL_ERROR "snapshot save output missing summary: ${save_out}")
endif()

execute_process(
  COMMAND ${BGPSIM_CLI} snapshot info --file ${snap}
  RESULT_VARIABLE info_status OUTPUT_VARIABLE info_out)
if(NOT info_status EQUAL 0)
  message(FATAL_ERROR "snapshot info failed (${info_status}): ${info_out}")
endif()
if(NOT info_out MATCHES "format version: 1" OR NOT info_out MATCHES "ases: 800")
  message(FATAL_ERROR "snapshot info output unexpected: ${info_out}")
endif()

execute_process(
  COMMAND ${BGPSIM_CLI} snapshot info --file ${snap} --json
  RESULT_VARIABLE json_status OUTPUT_VARIABLE json_out)
if(NOT json_status EQUAL 0 OR NOT json_out MATCHES "\"baseline_targets\":")
  message(FATAL_ERROR "snapshot info --json unexpected: ${json_out}")
endif()

execute_process(
  COMMAND ${BGPSIM_CLI} snapshot load --file ${snap}
  RESULT_VARIABLE load_status OUTPUT_VARIABLE load_out)
if(NOT load_status EQUAL 0)
  message(FATAL_ERROR "snapshot load failed (${load_status}): ${load_out}")
endif()
if(NOT load_out MATCHES "verified against a cold convergence"
   OR NOT load_out MATCHES "[1-9][0-9]* generation seeds, one checked against a fresh generation-engine run")
  message(FATAL_ERROR "snapshot load output missing verification: ${load_out}")
endif()

file(REMOVE ${snap})
message(STATUS "snapshot lifecycle ok")
