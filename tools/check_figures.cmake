# Runs the paper-figure path, `smartref_sweep --figures`, over a small
# grid ({2gb, 3d64-32ms} x {mummer, gcc}, short windows) in a fresh DIR
# and checks the CSVs it writes: exactly fig06-fig08 (2gb) and
# fig15-fig18 (3d64-32ms), each a header, one row per benchmark and a
# GMEAN row.
#
#   cmake -DTOOL=<smartref_sweep> -DDIR=<work dir> -P check_figures.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
file(WRITE "${DIR}/grid.json"
    "{\"name\": \"figures-check\", \"configs\": [\"2gb\", \"3d64-32ms\"],"
    " \"benchmarks\": [\"mummer\", \"gcc\"]}\n")
execute_process(
    COMMAND "${TOOL}" --grid-file grid.json --seed-mode fixed --figures
            --warmup-ms 2 --measure-ms 4 --out-dir out
    WORKING_DIRECTORY "${DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 300)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${TOOL} --figures exited with '${rc}': ${err}")
endif()

set(ids fig06 fig07 fig08 fig15 fig16 fig17 fig18)
set(expected "")
foreach(id ${ids})
    list(APPEND expected "${id}.csv")
endforeach()
file(GLOB written RELATIVE "${DIR}/out" "${DIR}/out/fig[0-9][0-9].csv")
list(SORT written)
if(NOT written STREQUAL expected)
    message(FATAL_ERROR "figure CSVs '${written}', expected '${expected}'")
endif()

foreach(id ${ids})
    file(STRINGS "${DIR}/out/${id}.csv" lines)
    list(LENGTH lines n)
    if(NOT n EQUAL 4)
        message(FATAL_ERROR "${id}.csv has ${n} lines, expected a header,"
                            " mummer, gcc and GMEAN:\n${lines}")
    endif()
    list(GET lines 0 header)
    list(GET lines 1 rowA)
    list(GET lines 2 rowB)
    list(GET lines 3 gmean)
    if(NOT header MATCHES "^benchmark,suite,"
       OR NOT gmean MATCHES "^GMEAN,,"
       OR NOT "${rowA}\n${rowB}" MATCHES "^mummer,[^\n]*\ngcc,")
        message(FATAL_ERROR "${id}.csv is not header/mummer/gcc/GMEAN:\n"
                            "${header}\n${rowA}\n${rowB}\n${gmean}")
    endif()
endforeach()
