# Runs `sato_cli <SUBCOMMAND> <BUNDLE>` on a file that is not a bundle and
# requires exit code 1 with exactly one stderr line naming the bundle.
#
#   cmake -DCLI=path/to/sato_cli -DSUBCOMMAND=eval -DBUNDLE=some/file \
#         -P expect_bad_bundle.cmake
set(args ${SUBCOMMAND} ${BUNDLE})
if(SUBCOMMAND STREQUAL "predict")
  # predict needs a CSV argument; the bundle is rejected before it is read.
  list(APPEND args ${BUNDLE})
endif()
execute_process(COMMAND ${CLI} ${args}
                RESULT_VARIABLE result
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT result STREQUAL "1")
  message(FATAL_ERROR "sato_cli ${SUBCOMMAND}: expected exit code 1, got "
                      "'${result}'\nstderr:\n${err}")
endif()
if(NOT err MATCHES "^bad bundle [^\n]+: [^\n]+\n$")
  message(FATAL_ERROR "sato_cli ${SUBCOMMAND}: expected one 'bad bundle' "
                      "line on stderr, got:\n${err}")
endif()
