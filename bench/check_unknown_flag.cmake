# Runs each bench with an unknown flag in an empty WORK_DIR and checks
# that it prints usage, exits with status 2 and writes no file (a
# mistyped flag must neither run the bench nor become a report path).
#
#   cmake -DWORK_DIR=<scratch dir> -P check_unknown_flag.cmake \
#         -- <bench binary>...

set(benches)
set(after_separator FALSE)
math(EXPR last_arg "${CMAKE_ARGC} - 1")
foreach(index RANGE ${last_arg})
  if(after_separator)
    list(APPEND benches "${CMAKE_ARGV${index}}")
  elseif(CMAKE_ARGV${index} STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
if(NOT benches)
  message(FATAL_ERROR "no bench binaries given after --")
endif()

foreach(bench IN LISTS benches)
  file(REMOVE_RECURSE "${WORK_DIR}")
  file(MAKE_DIRECTORY "${WORK_DIR}")
  execute_process(
    COMMAND "${bench}" --help
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  file(GLOB left LIST_DIRECTORIES true "${WORK_DIR}/*" "${WORK_DIR}/.*")
  file(REMOVE_RECURSE "${WORK_DIR}")
  if(NOT status EQUAL 2)
    message(FATAL_ERROR
      "${bench}: expected exit status 2, got '${status}'\n${out}${err}")
  endif()
  if(NOT err MATCHES "usage:")
    message(FATAL_ERROR
      "${bench}: expected a usage line on stderr, got '${err}'")
  endif()
  if(left)
    message(FATAL_ERROR "${bench}: the bench wrote files: ${left}")
  endif()
endforeach()
