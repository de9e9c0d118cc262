# Thread-count independence of the Fig. 7 detector tables (ctest
# bench_fig7_thread_determinism, see bench/CMakeLists.txt): run
# bench_fig7_detectors at BGPSIM_THREADS=1 and =4 on the same small world and
# require byte-identical stdout and fig7_detectors.csv. Both runs write into
# the same outdir, so the "wrote <path>" line matches too.
#
# Expected -D inputs: BENCH (the bench_fig7_detectors binary), WORK_DIR.
cmake_minimum_required(VERSION 3.20)
if(NOT BENCH OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DBENCH=... -DWORK_DIR=... -P fig7_determinism.cmake")
endif()

set(outdir "${WORK_DIR}/fig7_determinism")
foreach(threads 1 4)
  file(REMOVE_RECURSE "${outdir}")
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E env BGPSIM_SCALE=1000 BGPSIM_SEED=2014
            BGPSIM_OBS_REPORT=0 BGPSIM_THREADS=${threads}
            "BGPSIM_OUTDIR=${outdir}" "${BENCH}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout_${threads}
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "BGPSIM_THREADS=${threads}: exit ${rc}\n${stdout_${threads}}${stderr}")
  endif()
  file(READ "${outdir}/fig7_detectors.csv" csv_${threads})
endforeach()

if(NOT stdout_1 STREQUAL stdout_4)
  message(FATAL_ERROR "stdout differs between BGPSIM_THREADS=1 and 4\n"
                      "--- 1 thread:\n${stdout_1}\n--- 4 threads:\n${stdout_4}")
endif()
if(NOT csv_1 STREQUAL csv_4)
  message(FATAL_ERROR "fig7_detectors.csv differs between BGPSIM_THREADS=1 and 4\n"
                      "--- 1 thread:\n${csv_1}\n--- 4 threads:\n${csv_4}")
endif()
message(STATUS "fig7 stdout and csv identical at 1 and 4 threads")
