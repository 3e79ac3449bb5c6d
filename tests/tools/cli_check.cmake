# Run one command line and check its exit status and stderr.
#   cmake -DCMD=<exe;arg;...> -DEXPECT_EXIT=<code> [-DEXPECT_STDERR=<regex>]
#         -P cli_check.cmake
execute_process(COMMAND ${CMD}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "exit ${rc}, expected ${EXPECT_EXIT}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT "${EXPECT_STDERR}" STREQUAL "" AND NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}':\n${err}")
endif()
