# Runs `TOOL --help` and takes every flag it lists. A one-letter typo of
# each (its last letter changed) must be a user error: exit 2, one
# "error: " line naming the typo with a did-you-mean, and no file
# written. A typo that is itself a listed flag is skipped.
#
#   cmake -DTOOL=<binary> -DDIR=<work dir> -P check_typos.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
execute_process(COMMAND "${TOOL}" --help
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE help
    TIMEOUT 30)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${TOOL} --help exited with '${rc}'")
endif()
string(REGEX MATCHALL "\n  -[-a-z0-9]+" rows "${help}")
set(flags "")
foreach(row IN LISTS rows)
    string(STRIP "${row}" flag)
    list(APPEND flags "${flag}")
endforeach()
list(LENGTH flags count)
if(count LESS 3)
    message(FATAL_ERROR "${TOOL} --help lists only ${count} flags:\n${help}")
endif()
foreach(flag IN LISTS flags)
    string(LENGTH "${flag}" len)
    math(EXPR last "${len} - 1")
    string(SUBSTRING "${flag}" 0 ${last} stem)
    string(SUBSTRING "${flag}" ${last} 1 letter)
    if(letter STREQUAL "x")
        set(typo "${stem}q")
    else()
        set(typo "${stem}x")
    endif()
    list(FIND flags "${typo}" known)
    if(NOT known EQUAL -1)
        continue()
    endif()
    execute_process(COMMAND "${TOOL}" ${typo}
        WORKING_DIRECTORY "${DIR}"
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        TIMEOUT 30)
    if(NOT rc STREQUAL "2")
        message(FATAL_ERROR "${TOOL} ${typo} exited with '${rc}', want 2:"
                            "\n${out}${err}")
    endif()
    string(REGEX MATCHALL "error: " errors "${err}")
    list(LENGTH errors lines)
    string(FIND "${err}" "unknown flag '${typo}' (did you mean '" at)
    if(NOT lines EQUAL 1 OR at EQUAL -1)
        message(FATAL_ERROR "${TOOL} ${typo} printed no single did-you-mean "
                            "error:\n${err}")
    endif()
    file(GLOB left "${DIR}/*")
    if(left)
        message(FATAL_ERROR "${TOOL} ${typo} wrote files: ${left}")
    endif()
endforeach()
