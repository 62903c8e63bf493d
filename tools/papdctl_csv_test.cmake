# Runs a 20 s papdctl session with --csv and checks the per-period trace:
# the header, then one row per 1 s control period, in order (row N is
# stamped at N s, give or take a tick).
#
#   cmake -DPAPDCTL=<papdctl binary> -DCSV=<output file> -P papdctl_csv_test.cmake
file(REMOVE ${CSV})
execute_process(
  COMMAND ${PAPDCTL} --policy freq-shares --limit 40 --duration 20
          --app leela:shares=90 --app cpuburn:shares=10 --csv ${CSV}
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "papdctl exited with ${rc}")
endif()
file(STRINGS ${CSV} lines)
list(LENGTH lines n)
if(NOT n EQUAL 21)
  message(FATAL_ERROR "expected a header and 20 rows, got ${n} lines")
endif()
list(GET lines 0 header)
if(NOT header STREQUAL "t,pkg_w,leela_mhz,leela_ips,cpuburn_mhz,cpuburn_ips")
  message(FATAL_ERROR "unexpected header: ${header}")
endif()
set(num "[0-9.e+-]+")
foreach(period RANGE 1 20)
  list(GET lines ${period} row)
  if(NOT row MATCHES "^${period}(\\.[0-9]+)?,${num},${num},${num},${num},${num}$")
    message(FATAL_ERROR "row ${period} is not that period's sample: ${row}")
  endif()
endforeach()
