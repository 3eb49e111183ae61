# Runs EXE with the single argument ARG and passes only when it exits
# with status 1, the examples' error exit. An abort or a crash yields a
# signal description ("Subprocess aborted") instead of a status, and
# fails.
#
#   cmake -DEXE=build/examples/quickstart -DARG=--mesh=abc \
#         -P examples/expect_error_exit.cmake
execute_process(COMMAND "${EXE}" "${ARG}" RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR "${EXE} ${ARG}: expected exit status 1, got "
                      "'${status}'\n${out}${err}")
endif()
message(STATUS "${EXE} ${ARG}: exit 1: ${err}")
