# Golden reports of tvarak-fault: each campaign below must exit 0 and
# write a report byte-identical to tests/golden/fault/<name>.json.
# Driven by ctest (fault_reports); needs -DFAULT= and -DSRC=. On a
# mismatch the failure message holds the command that regenerates
# the golden; regenerate only when a report is meant to change.

set(golden ${SRC}/tests/golden/fault)
set(trace ${SRC}/tests/golden/ctree.trace)
set(failures "")

function(expect_report name)
    set(got ${CMAKE_CURRENT_BINARY_DIR}/fault_report_${name}.json)
    set(want ${golden}/${name}.json)
    list(JOIN ARGN " " args)
    file(REMOVE ${got})
    execute_process(COMMAND ${FAULT} ${ARGN} --out ${got}
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
        set(why "report differs from ${want}")
    endif()
    string(APPEND failures "\n${name}: ${why}\n  regenerate: "
                           "${FAULT} ${args} --out ${want}")
    set(failures "${failures}" PARENT_SCOPE)
endfunction()

foreach(d Baseline Tvarak TxB-Object-Csums TxB-Page-Csums vilamb
          tvarak-naive tvarak-no-red-cache tvarak-no-diffs tvarak-rs4+2
          tvarak-rs6+2)
    expect_report(map_s1_${d} map --seed 1 --design ${d})
endforeach()
expect_report(map_s7_Tvarak map --seed 7 --design Tvarak)
expect_report(replay_ctree_s3 replay ${trace} --seed 3)
expect_report(replay_ctree_s3_tvarak-naive replay ${trace} --seed 3
              --design tvarak-naive)
expect_report(multi_s1_rs4+2 multi --seed 1 --design tvarak-rs4+2
              --fail-dimms 0,1 --ops 96)
expect_report(multi_s1_rs4+2_refail multi --seed 1
              --design tvarak-rs4+2 --fail-dimms 0 --refail --ops 96)
# Single-parity negative control; 32 keys keep the per-key cold
# probes of the lost values short.
expect_report(multi_s1_xor_control multi --seed 1 --design tvarak
              --fail-dimms 0,1 --keys 32)

if(failures)
    message(FATAL_ERROR "fault reports differ from their goldens:"
                        "${failures}")
endif()
