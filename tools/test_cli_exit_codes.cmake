# Usage-error contract of tvarak-trace, tvarak-fault and the benches
# (src/harness/cli.hh): malformed numbers, values outside a flag's
# range, unknown names and flags, a second copy of a flag, hostile
# trace files and unwritable reports exit 2, before any simulation
# starts; --help exits 0. Driven by ctest (cli_exit_codes); needs
# -DTRACE=, -DFAULT=, -DBENCH= (the bench binary directory) and -DSRC=.

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
# A second copy of a flag that is not repeatable.
expect_exit(2 ${FAULT} map --seed 1 --seed 7)
# --help prints the usage on stdout, in every tool.
expect_exit(0 ${TRACE} --help)
expect_exit(0 ${FAULT} --help)
# The 4 MiB campaign pool holds at most 26214 keys.
expect_exit(2 ${FAULT} map --seed 1 --keys 26215)
expect_exit(2 ${FAULT} multi --seed 1 --keys 26215)
# A report that cannot be written is an I/O error, not a verdict.
expect_exit(2 ${FAULT} map --seed 1 --out /dev/full)

# Hostile trace input: garbage, a header cut short, a missing file.
set(ctree ${SRC}/tests/golden/ctree.trace)
set(garbage ${CMAKE_CURRENT_BINARY_DIR}/garbage.trace)
set(truncated ${CMAKE_CURRENT_BINARY_DIR}/truncated.trace)
set(missing ${CMAKE_CURRENT_BINARY_DIR}/missing.trace)
file(WRITE ${garbage} "not a trace at all")
execute_process(COMMAND head -c 16 ${ctree} OUTPUT_FILE ${truncated}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cannot truncate ${ctree}")
endif()
file(REMOVE ${missing})
expect_exit(2 ${TRACE} info ${garbage})
expect_exit(2 ${TRACE} info ${truncated})
expect_exit(2 ${TRACE} replay ${garbage})
# --verify rebuilds a canned workload from the trace's name; this
# trace's name ("stream") names none, so exit before replaying.
expect_exit(2 ${TRACE} replay ${SRC}/tests/golden/stream.trace
            --design Tvarak --verify)
expect_exit(2 ${FAULT} replay ${garbage} --seed 1)
expect_exit(2 ${FAULT} replay ${missing} --seed 1)
# Designs that cannot keep writing through a DIMM loss, unknown or
# malformed designs, and fault schedules the machine cannot take.
expect_exit(2 ${FAULT} replay ${ctree} --seed 1 --design Baseline)
expect_exit(2 ${FAULT} replay ${ctree} --seed 1 --design vilamb)
expect_exit(2 ${FAULT} map --seed 1 --design no-such)
expect_exit(2 ${FAULT} multi --seed 1 --design tvarak-rs1+9)
expect_exit(2 ${FAULT} multi --seed 1 --design tvarak-rs4+2
            --fail-dimms 0,9)
expect_exit(2 ${FAULT} multi --seed 1 --design tvarak-rs4+2
            --fail-dimms 0,0)
expect_exit(2 ${FAULT} multi --seed 1 --design TxB-Page-Csums)

# Benches: no trace flags, and --design only where a bench reads it.
set(f ${CMAKE_CURRENT_BINARY_DIR}/bench.trace)
foreach(bench bench_fig10_sensitivity bench_fig8_fio bench_fig8_kvstructs
        bench_fig8_nstore bench_fig8_redis bench_fig8_stream
        bench_fig9_ablation bench_kernels bench_sec4h_dimms bench_service
        bench_table1 bench_table3 bench_vilamb)
    expect_exit(2 ${BENCH}/${bench} --trace-record ${f})
    expect_exit(2 ${BENCH}/${bench} --trace-replay ${f})
endforeach()
foreach(bench bench_fig9_ablation bench_fig10_sensitivity bench_vilamb
        bench_table3)
    expect_exit(2 ${BENCH}/${bench} --design vilamb)
endforeach()
expect_exit(2 ${BENCH}/bench_table1 --design no-such)
expect_exit(2 ${BENCH}/bench_table1 --scale 0)
expect_exit(2 ${BENCH}/bench_table1 --jobs abc)
# A leading space or a sign is malformed, not a wrapped 2^64-1.
expect_exit(2 ${BENCH}/bench_table3 --scale " -1")
expect_exit(2 ${BENCH}/bench_table3 --jobs " -1")
expect_exit(2 ${BENCH}/bench_table3 --scale +3)
# Every value flag takes --flag=v as well as --flag v.
expect_exit(0 ${BENCH}/bench_table3 --scale=2)
# bench_service: unknown names and fault schedules it cannot run.
set(service ${BENCH}/bench_service)
expect_exit(2 ${service} --design no-such)
expect_exit(2 ${service} --workload no-such)
expect_exit(2 ${service} --design tvarak-rs1+9)
expect_exit(2 ${service} --design tvarak-rs4+2 --fail-dimms 0,9)
expect_exit(2 ${service} --design tvarak-rs4+2 --fail-dimms 0,0)
expect_exit(2 ${service} --design tvarak-rs4+2 --fail-dimms 0,x)
expect_exit(2 ${service} --design tvarak-rs4+2 --fail-dimm
            --fail-dimms 0,1)
