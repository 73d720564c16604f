# Runs `TOOL --help` and `TOOL -h` in a fresh, empty DIR. Each must print
# the usage generated from the tool's flag table, exit 0, and leave DIR
# empty: asking for help must not start a run or write any output file.
#
#   cmake -DTOOL=<binary> -DDIR=<work dir> -P check_help.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
foreach(flag --help -h)
    execute_process(COMMAND "${TOOL}" ${flag}
        WORKING_DIRECTORY "${DIR}"
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        TIMEOUT 30)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${TOOL} ${flag} exited with '${rc}': ${err}")
    endif()
    if(NOT out MATCHES "^usage:" OR NOT out MATCHES "\n  --help, -h ")
        message(FATAL_ERROR "${TOOL} ${flag} printed no usage:\n${out}")
    endif()
    file(GLOB left "${DIR}/*")
    if(left)
        message(FATAL_ERROR "${TOOL} ${flag} wrote files: ${left}")
    endif()
endforeach()
