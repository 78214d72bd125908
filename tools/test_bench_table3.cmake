# bench_table3 prints one line per SimConfig knob and the §III-E area
# accounting; its stdout must stay byte-identical to the committed
# results/bench_table3.txt. Driven by ctest (bench_table3_output);
# needs -DTABLE3= and -DSRC=. Regenerate the file only when a knob,
# its default or its doc is meant to change.

set(want_file ${SRC}/results/bench_table3.txt)
execute_process(COMMAND ${TABLE3}
                OUTPUT_VARIABLE got
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_table3 exited ${rc}, want 0")
endif()
file(READ ${want_file} want)
if(NOT got STREQUAL want)
    message(FATAL_ERROR "bench_table3 output differs from ${want_file}\n"
                        "  regenerate: ${TABLE3} > ${want_file}")
endif()
