# smartref_inspect's view of a result-cache entry. A short smoke sweep
# fills a fresh cache in DIR, and inspect reads one of its entries: it must
# exit 0 with one row per member of the entry's runs, so a field added to
# the result list shows up with no edit here. Then a copy of the entry with
# one number of the smart run made a string must exit 2 with an empty
# stdout and one error line naming the file, the run and the member.
#
#   cmake -DSWEEP=<smartref_sweep> -DINSPECT=<smartref_inspect> -DDIR=<dir>
#         -P check_inspect_entry.cmake
cmake_minimum_required(VERSION 3.19) # string(JSON)
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
execute_process(COMMAND "${SWEEP}" --grid smoke --warmup-ms 1 --measure-ms 1
                        --cache-dir cache
    WORKING_DIRECTORY "${DIR}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err
    TIMEOUT 120)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "smoke sweep exited with '${rc}':\n${err}")
endif()
file(GLOB_RECURSE entries "${DIR}/cache/*.json")
list(GET entries 0 entry)

execute_process(COMMAND "${INSPECT}" "${entry}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "inspect ${entry} exited with '${rc}':\n${err}")
endif()
file(READ "${entry}" text)
string(JSON fields LENGTH "${text}" comparison baseline)
if(fields EQUAL 0)
    message(FATAL_ERROR "${entry} has an empty baseline run")
endif()
math(EXPR last "${fields} - 1")
set(number "")
foreach(i RANGE ${last})
    string(JSON name MEMBER "${text}" comparison baseline ${i})
    if(NOT out MATCHES "\n${name} +[^ \n]+ +[^ \n]+\n")
        message(FATAL_ERROR "inspect printed no baseline/smart row for "
                            "'${name}':\n${out}")
    endif()
    string(JSON type TYPE "${text}" comparison smart ${name})
    if(NOT number AND type STREQUAL "NUMBER")
        set(number "${name}")
    endif()
endforeach()

string(JSON bad SET "${text}" comparison smart ${number} "\"fast\"")
file(WRITE "${DIR}/mistyped.json" "${bad}")
execute_process(COMMAND "${INSPECT}" "${DIR}/mistyped.json"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
set(want "error: fatal: '${DIR}/mistyped.json': smart: member '${number}' "
         "is not a number\n")
string(JOIN "" want ${want})
if(NOT rc EQUAL 2 OR NOT out STREQUAL "" OR NOT err STREQUAL want)
    message(FATAL_ERROR "inspect of a mistyped entry exited with '${rc}', "
                        "want 2 and only '${want}':\n${out}${err}")
endif()
