# Runs PROGRAM with the space-separated ARGS and fails unless it exits
# with status EXIT and, when MATCH is set, its stderr matches MATCH:
#
#   cmake -DPROGRAM=ppstress "-DARGS=--workers 0" -DEXIT=2 \
#         "-DMATCH=--workers must be" -P ExpectExit.cmake
separate_arguments(Args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${Args}
                RESULT_VARIABLE Rc OUTPUT_VARIABLE Out ERROR_VARIABLE Err)
if(NOT Rc STREQUAL "${EXIT}")
  message(FATAL_ERROR
          "${PROGRAM} ${ARGS}: exit ${Rc}, expected ${EXIT}\n${Out}${Err}")
endif()
if(MATCH AND NOT Err MATCHES "${MATCH}")
  message(FATAL_ERROR
          "${PROGRAM} ${ARGS}: stderr does not match '${MATCH}'\n${Err}")
endif()
