# Runs one paper-table bench and compares its stdout with its golden copy.
#
#   cmake -DBENCH=<binary> -DGOLDEN=<file.txt> -DOUT=<file.txt> -P golden_test.cmake
#
# Writes the bench's stdout to OUT and fails (printing a unified diff when
# `diff` is available) unless it equals GOLDEN byte for byte.
execute_process(COMMAND "${BENCH}" OUTPUT_FILE "${OUT}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
file(READ "${GOLDEN}" want)
file(READ "${OUT}" got)
if(NOT got STREQUAL want)
  execute_process(COMMAND diff -u "${GOLDEN}" "${OUT}")
  message(FATAL_ERROR "stdout of ${BENCH} differs from ${GOLDEN}")
endif()
