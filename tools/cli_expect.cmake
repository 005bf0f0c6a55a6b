# Runs one tertio_cli invocation and checks its exit code and output:
#
#   cmake -DCLI=<tertio_cli> "-DARGS=<arguments>" -DEXPECT_EXIT=<code>
#         [-DEXPECT_OUTPUT=<regex>] -P cli_expect.cmake
#
# A process killed by a signal (an abort, an uncaught std::bad_alloc) has no
# numeric exit code, so it fails the check whatever it printed.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CLI}" ${args}
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code STREQUAL EXPECT_EXIT)
  message(FATAL_ERROR "tertio_cli ${ARGS}: exit '${code}', expected ${EXPECT_EXIT}\n${out}${err}")
endif()
if(DEFINED EXPECT_OUTPUT AND NOT "${out}${err}" MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR "tertio_cli ${ARGS}: output does not match '${EXPECT_OUTPUT}'\n${out}${err}")
endif()
