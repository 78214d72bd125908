# CLI exit-code contract: 0 clean, 1 findings, 2 usage/IO error.
# Driven by ctest (lint_exit_codes); needs -DLINT= and -DFIXTURES=.

function(expect_exit code)
    execute_process(COMMAND ${LINT} ${ARGN}
                    RESULT_VARIABLE rc
                    OUTPUT_QUIET ERROR_QUIET)
    if(NOT rc EQUAL ${code})
        message(FATAL_ERROR
                "tvarak-lint ${ARGN}: expected exit ${code}, got ${rc}")
    endif()
endfunction()

expect_exit(0 --root ${FIXTURES}/goodroot)
expect_exit(1 --root ${FIXTURES}/badroot)
# Explicitly named path that does not exist: I/O error, not "clean".
expect_exit(2 --root ${FIXTURES}/goodroot no_such_dir)
# Unreadable baseline file: I/O error.
expect_exit(2 --root ${FIXTURES}/goodroot --baseline ${FIXTURES}/absent)
# Unknown flag / missing operand: usage error.
expect_exit(2 --bogus-flag)
expect_exit(2 --root)
# A sign or an overflow is a usage error, not a wrapped thread count.
expect_exit(2 --jobs -1 --root ${FIXTURES}/goodroot)
expect_exit(2 --jobs 18446744073709551616 --root ${FIXTURES}/goodroot)
