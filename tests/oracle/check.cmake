# One EXPERIMENTS.md oracle check: runs a timing-free bench or example
# binary and compares its stdout with the golden file byte for byte.
#
#   cmake -DBIN=<binary> [-DARGS=<arg>] -DGOLDEN=<file> -DOUT=<file> \
#         -P check.cmake
#
# It fails when the binary exits nonzero or its stdout differs, and prints
# a unified diff where `diff` exists. A change that moves a golden line
# updates the file and EXPERIMENTS.md together and states its reason.
execute_process(COMMAND "${BIN}" ${ARGS}
                OUTPUT_FILE "${OUT}"
                RESULT_VARIABLE rc)
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${OUT}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  find_program(DIFF_TOOL diff)
  if(DIFF_TOOL)
    execute_process(COMMAND "${DIFF_TOOL}" -u "${GOLDEN}" "${OUT}")
  endif()
  message(FATAL_ERROR "stdout of ${BIN} differs from ${GOLDEN}")
endif()
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with '${rc}'")
endif()
