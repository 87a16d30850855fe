# Runs PROGRAM with the space-separated ARGS and fails unless it exits
# with status EXIT and, when MATCH is set, its stderr (its stdout when
# STREAM is stdout) matches MATCH:
#
#   cmake -DPROGRAM=ppstress "-DARGS=--workers 0" -DEXIT=2 \
#         "-DMATCH=--workers must be" -P ExpectExit.cmake
#
# With EMPTY_DIR set, PROGRAM runs in that directory, made empty first,
# and the test fails unless it is still empty afterwards.
separate_arguments(Args UNIX_COMMAND "${ARGS}")
set(Dir "")
if(EMPTY_DIR)
  file(REMOVE_RECURSE "${EMPTY_DIR}")
  file(MAKE_DIRECTORY "${EMPTY_DIR}")
  set(Dir WORKING_DIRECTORY "${EMPTY_DIR}")
endif()
execute_process(COMMAND "${PROGRAM}" ${Args} ${Dir}
                RESULT_VARIABLE Rc OUTPUT_VARIABLE Out ERROR_VARIABLE Err)
if(NOT Rc STREQUAL "${EXIT}")
  message(FATAL_ERROR
          "${PROGRAM} ${ARGS}: exit ${Rc}, expected ${EXIT}\n${Out}${Err}")
endif()
if(EMPTY_DIR)
  file(GLOB_RECURSE Left LIST_DIRECTORIES true "${EMPTY_DIR}/*")
  if(Left)
    message(FATAL_ERROR "${PROGRAM} ${ARGS}: wrote ${Left}")
  endif()
endif()
if(STREAM STREQUAL "stdout")
  set(Err "${Out}")
else()
  set(STREAM stderr)
endif()
if(MATCH AND NOT Err MATCHES "${MATCH}")
  message(FATAL_ERROR
          "${PROGRAM} ${ARGS}: ${STREAM} does not match '${MATCH}'\n${Err}")
endif()
