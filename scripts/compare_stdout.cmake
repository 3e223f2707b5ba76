# Runs a program and fails unless its stdout equals a golden file, byte for
# byte. On a mismatch the actual stdout is written to ACTUAL for a diff.
#
#   cmake -DPROGRAM=<exe> -DARGS=<arg;arg> -DGOLDEN=<file> -DACTUAL=<file>
#         -P scripts/compare_stdout.cmake
foreach(var PROGRAM GOLDEN ACTUAL)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare_stdout.cmake: -D${var}= is required")
  endif()
endforeach()

execute_process(COMMAND ${PROGRAM} ${ARGS}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with status ${status}")
endif()
file(READ ${GOLDEN} golden)
if(NOT actual STREQUAL golden)
  file(WRITE ${ACTUAL} "${actual}")
  message(FATAL_ERROR "stdout of ${PROGRAM} ${ARGS} differs from ${GOLDEN}\n"
                      "actual output: ${ACTUAL}")
endif()
