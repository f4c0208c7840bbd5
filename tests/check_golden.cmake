# Exactness canary: runs a driver at its defaults and byte-diffs its stdout
# and its --report JSON against committed golden files. Any change to the
# goldens is a change to the driver's answers and must be justified where
# the change is recorded.
# Invoked by ctest with -DDRIVER=<binary> -DEXPECTED_STDOUT=<file>
# -DEXPECTED_REPORT=<file>.
foreach(var DRIVER EXPECTED_STDOUT EXPECTED_REPORT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} not set")
  endif()
endforeach()

get_filename_component(driver_name ${DRIVER} NAME)
set(stdout_file ${CMAKE_CURRENT_BINARY_DIR}/${driver_name}_golden_stdout.txt)
set(report_file ${CMAKE_CURRENT_BINARY_DIR}/${driver_name}_golden_report.json)

execute_process(
  COMMAND ${DRIVER} --report=${report_file}
  OUTPUT_FILE ${stdout_file}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${DRIVER} exited with ${rc}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${EXPECTED_STDOUT} ${stdout_file}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "${driver_name} stdout differs from ${EXPECTED_STDOUT}; see ${stdout_file}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${EXPECTED_REPORT} ${report_file}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "${driver_name} --report differs from ${EXPECTED_REPORT}; see ${report_file}")
endif()
message(STATUS "${driver_name} matches its goldens")
