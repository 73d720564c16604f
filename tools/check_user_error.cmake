# Runs `TOOL ARGS...` in a fresh, empty DIR and expects a user error: exit
# code 2 (not an abort), nothing on stdout, and MESSAGE after
# "error: fatal: " on stderr's one line. A user error is found before any
# work, so no summary, result or progress line may precede it. With
# -DMKDIR=<name>, DIR/<name> is made a directory first (an output path
# that cannot be opened as a file).
#
#   cmake -DTOOL=<binary> "-DARGS=<args>" "-DMESSAGE=<text>" -DDIR=<dir>
#         [-DMKDIR=<name>] -P check_user_error.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
if(MKDIR)
    file(MAKE_DIRECTORY "${DIR}/${MKDIR}")
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
    WORKING_DIRECTORY "${DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 30)
if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "${TOOL} ${ARGS} exited with '${rc}', want 2: ${err}")
endif()
if(NOT out STREQUAL "")
    message(FATAL_ERROR "${TOOL} ${ARGS} printed to stdout before its "
                        "error:\n${out}")
endif()
string(FIND "${err}" "error: fatal: ${MESSAGE}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "${TOOL} ${ARGS} printed no 'error: fatal: "
                        "${MESSAGE}':\n${err}")
endif()
string(FIND "${err}" "${MESSAGE}" first)
string(FIND "${err}" "${MESSAGE}" last REVERSE)
if(NOT first EQUAL last)
    message(FATAL_ERROR "${TOOL} ${ARGS} printed '${MESSAGE}' more than "
                        "once:\n${err}")
endif()
string(REGEX MATCHALL "error: " errors "${err}")
list(LENGTH errors lines)
if(NOT lines EQUAL 1)
    message(FATAL_ERROR "${TOOL} ${ARGS} printed ${lines} 'error: ' lines:"
                        "\n${err}")
endif()
string(REGEX MATCHALL "\n" newlines "${err}")
list(LENGTH newlines lines)
if(NOT lines EQUAL 1 OR NOT err MATCHES "^error: ")
    message(FATAL_ERROR "${TOOL} ${ARGS} printed more than its error line "
                        "to stderr:\n${err}")
endif()
