# Golden JSON of bench_service's default sweep and its two fault
# modes: each run below must exit 0 and write
# results/bench_service.json byte-identical to
# tests/golden/service/<name>.json. Driven by ctest
# (service_fault_reports); needs -DSERVICE= and -DSRC=. Each run works
# in its own directory, because the bench writes a fixed relative
# path. On a mismatch the failure message holds the command that
# regenerates the golden; regenerate only when a report is meant to
# change.

set(golden ${SRC}/tests/golden/service)
set(failures "")

function(expect_service_json name)
    set(dir ${CMAKE_CURRENT_BINARY_DIR}/service_report_${name})
    set(got ${dir}/results/bench_service.json)
    set(want ${golden}/${name}.json)
    list(JOIN ARGN " " args)
    file(REMOVE_RECURSE ${dir})
    file(MAKE_DIRECTORY ${dir})
    execute_process(COMMAND ${SERVICE} ${ARGN} --json
                    WORKING_DIRECTORY ${dir}
                    RESULT_VARIABLE rc
                    OUTPUT_QUIET ERROR_QUIET)
    if(NOT rc EQUAL 0)
        set(why "exit ${rc}, want 0")
    else()
        execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                                ${got} ${want}
                        RESULT_VARIABLE differs)
        if(NOT differs)
            return()
        endif()
        set(why "JSON differs from ${want}")
    endif()
    string(APPEND failures "\n${name}: ${why}\n  regenerate: "
                           "${SERVICE} ${args} --json && "
                           "cp results/bench_service.json ${want}")
    set(failures "${failures}" PARENT_SCOPE)
endfunction()

# CI's default sweep across every registered design.
expect_service_json(sweep_s5 --jobs 2 --requests 256 --seed 5)
# The two fault modes of CI's service-smoke job.
expect_service_json(fail_dimm_bursty --jobs 2 --requests 256
                    --arrival bursty --design tvarak --design vilamb
                    --fail-dimm)
expect_service_json(fail_dimms_rs4+2 --jobs 2 --requests 256
                    --design tvarak-rs4+2 --fail-dimms 0,1)

if(failures)
    message(FATAL_ERROR "service reports differ from their goldens:"
                        "${failures}")
endif()
