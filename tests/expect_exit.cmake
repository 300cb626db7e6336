# Runs `PROG ARG` and fails unless it exits with code EXPECT and prints a
# usage line on stderr. Usage:
#   cmake -DPROG=/path/to/bin -DARG=--flag -DEXPECT=2 -P expect_exit.cmake
execute_process(COMMAND "${PROG}" "${ARG}"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL EXPECT)
  message(FATAL_ERROR "${PROG} ${ARG}: expected exit ${EXPECT}, got ${rc}\n${err}")
endif()
if(NOT err MATCHES "usage:")
  message(FATAL_ERROR "${PROG} ${ARG}: no usage line on stderr\n${err}")
endif()
