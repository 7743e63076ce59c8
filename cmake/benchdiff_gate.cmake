# ctest perf gate: run a bench binary, take its BENCH_*.json (last stdout
# line), and diff it against the checked-in baseline with tools/benchdiff.
# Fails when a compared metric regresses past TOLERANCE.
#
# Invoked as:
#   cmake -DBENCH=<bench_binary> -DBENCHDIFF=<benchdiff>
#         -DBASELINE=<BENCH_x.json> [-DMETRIC=<substr>] [-DTOLERANCE=<T>]
#         [-DBENCH_ARGS=<semicolon-list>] -P benchdiff_gate.cmake
foreach(var IN ITEMS BENCH BENCHDIFF BASELINE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "benchdiff_gate: pass -D${var}=...")
  endif()
endforeach()
if(NOT DEFINED METRIC)
  # Default gate: the dimensionless speedup ratios (absolute ns/sample
  # shifts with the host).
  set(METRIC speedup)
endif()
if(NOT DEFINED TOLERANCE)
  # Speedup ratios are dimensionless but still noisy on a loaded or
  # differently-shaped host; the gate exists to catch real collapses
  # (pipeline falls back to the row path, vectorization lost), not 10%
  # jitter.
  set(TOLERANCE 0.75)
endif()
if(NOT DEFINED BENCH_ARGS)
  set(BENCH_ARGS "")
endif()

execute_process(
  COMMAND ${BENCH} ${BENCH_ARGS}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "bench exited ${status}:\n${err}")
endif()

# The bench prints tables first and the JSON document as the last line.
string(STRIP "${out}" out)
string(REGEX REPLACE ".*\n" "" candidate_json "${out}")
if(candidate_json STREQUAL "")
  message(FATAL_ERROR "bench produced no JSON document")
endif()
# One candidate file per baseline, so gates never overwrite each other.
get_filename_component(baseline_name "${BASELINE}" NAME_WE)
set(candidate_file
    "${CMAKE_CURRENT_BINARY_DIR}/${baseline_name}_candidate.json")
file(WRITE "${candidate_file}" "${candidate_json}\n")

execute_process(
  COMMAND ${BENCHDIFF} ${BASELINE} ${candidate_file}
          --metric ${METRIC} --tolerance ${TOLERANCE}
  OUTPUT_VARIABLE diff_out
  ERROR_VARIABLE diff_err
  RESULT_VARIABLE diff_status)
message(STATUS "benchdiff report:\n${diff_out}")
if(NOT diff_status EQUAL 0)
  message(FATAL_ERROR
    "benchdiff gate failed (exit ${diff_status}):\n${diff_out}${diff_err}")
endif()

message(STATUS "benchdiff gate ok (tolerance ${TOLERANCE})")
