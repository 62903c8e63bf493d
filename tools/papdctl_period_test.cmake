# A non-positive --period is a usage error: papdctl exits 2 with a message
# instead of simulating (a zero period used to spin forever).  The timeout
# turns a regression into a failure rather than a hung test.
#
#   cmake -DPAPDCTL=<papdctl binary> -P papdctl_period_test.cmake
foreach(period 0 -1)
  execute_process(
    COMMAND ${PAPDCTL} --period ${period} --app gcc --duration 2
    RESULT_VARIABLE rc
    ERROR_VARIABLE err
    OUTPUT_QUIET
    TIMEOUT 20)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "--period ${period}: expected exit 2, got '${rc}'")
  endif()
  if(NOT err MATCHES "--period must be positive")
    message(FATAL_ERROR "--period ${period}: no usage error on stderr: ${err}")
  endif()
endforeach()
