# Runs flow_tool on a .mig holding a buffer run too long to simulate and
# requires a clean failure: the library's error on stderr, prefixed with
# "flow_tool: ", and exit status 1 rather than an abort.
#
# Usage: cmake -DFLOW_TOOL=<flow_tool binary> -DWORK_DIR=<scratch dir>
#              -P flow_tool_fails_cleanly.cmake
set(input "${WORK_DIR}/flow_tool_long_run.mig")
file(WRITE "${input}" ".inputs a\nn1 = BUF(a, 2147483645)\n.output f = n1\n")
execute_process(
  COMMAND "${FLOW_TOOL}" --in "${input}" --simulate 4
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR "flow_tool exited with '${status}', expected 1\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "^flow_tool: expand_buffer_runs: [^\n]+\n$")
  message(FATAL_ERROR "flow_tool did not report the error as 'flow_tool: <what>'\nstderr:\n${err}")
endif()
