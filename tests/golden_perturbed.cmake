# The negative half of the golden gate (tests/CMakeLists.txt): reruns one
# scenario with a seed its golden was not recorded at and passes only when
# the gate catches it — exit code 1 plus the "[baseline] <name>: FAIL" line.
# A crash, a usage error (exit 2) or a silent pass all fail the test.
#
#   cmake -DRUN=<nestsim_run> -DSCENARIO=<file> -DBASELINES=<dir>
#         -DVERDICT=<path> -P golden_perturbed.cmake
execute_process(
  COMMAND ${RUN} --check-baseline --no-table --base-seed 99 --baseline-dir ${BASELINES}
          --verdict ${VERDICT} ${SCENARIO}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE out)
if(NOT rc EQUAL 1 OR NOT out MATCHES "\\[baseline\\] [a-z0-9_-]+: FAIL")
  message(FATAL_ERROR "a perturbed seed must fail the golden gate with exit 1 "
                      "(got exit ${rc}):\n${out}")
endif()
