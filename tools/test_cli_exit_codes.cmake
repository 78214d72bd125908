# Usage-error contract of tvarak-trace and tvarak-fault: malformed
# numbers, values under a flag's floor and unknown workload names exit
# 2 before anything runs. Driven by ctest (cli_exit_codes); needs
# -DTRACE= and -DFAULT=.

function(expect_exit code)
    execute_process(COMMAND ${ARGN}
                    RESULT_VARIABLE rc
                    OUTPUT_QUIET ERROR_QUIET)
    if(NOT rc EQUAL ${code})
        message(FATAL_ERROR "${ARGN}: expected exit ${code}, got ${rc}")
    endif()
endfunction()

expect_exit(2 ${FAULT} map --seed abc)
expect_exit(2 ${FAULT} map --seed 1 --ops 10)
expect_exit(2 ${FAULT} multi --seed 1 --ops 0)
expect_exit(2 ${TRACE} record stream t.trace --scale abc)
expect_exit(2 ${TRACE} record nosuch t.trace)
# Signs and overflow are malformed too, not wrapped into a huge value.
expect_exit(2 ${FAULT} multi --seed -1 --ops 0)
expect_exit(2 ${FAULT} multi --seed 18446744073709551616 --ops 0)
