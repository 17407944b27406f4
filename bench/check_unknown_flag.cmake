# Runs BENCH with an unknown flag in an empty WORK_DIR and checks that it
# prints usage, exits with status 2 and writes no file (a mistyped flag
# must neither run the bench nor become a report path).
#
#   cmake -DBENCH=<bench binary> -DWORK_DIR=<scratch dir> \
#         -P check_unknown_flag.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(
  COMMAND "${BENCH}" --help
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
file(GLOB left LIST_DIRECTORIES true "${WORK_DIR}/*" "${WORK_DIR}/.*")
file(REMOVE_RECURSE "${WORK_DIR}")
if(NOT status EQUAL 2)
  message(FATAL_ERROR "expected exit status 2, got '${status}'\n${out}${err}")
endif()
if(NOT err MATCHES "usage:")
  message(FATAL_ERROR "expected a usage line on stderr, got '${err}'")
endif()
if(left)
  message(FATAL_ERROR "the bench wrote files: ${left}")
endif()
