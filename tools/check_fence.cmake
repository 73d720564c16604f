# The byte fence. Runs a fixed set of short smartref_sim, smartref_sweep
# and smartref_inspect runs, each in its own directory under a fresh DIR,
# and checks the size and SHA-256 of every file a run writes (its stdout
# included) against the committed manifest MANIFEST (ci/fence.txt). In
# JSON files the four build fields of the meta block (gitSha, compiler,
# compilerFlags, buildType) are blanked first; every other byte counts.
# A run's files are deleted once hashed.
#
# A moved, missing or extra file fails the test and is named. DIR/fence.txt
# always holds the actual manifest: copying it over ci/fence.txt accepts
# the new bytes, and the diff of that file says which artifacts moved.
# Runs given twice (-j1 and -j4) must match the same manifest lines. RUNS,
# when set, restricts both the runs and the manifest to those run names.
#
#   cmake -DSIM=<smartref_sim> -DSWEEP=<smartref_sweep>
#         -DINSPECT=<smartref_inspect> -DMANIFEST=<ci/fence.txt>
#         -DDIR=<work dir> [-DRUNS=<name;...>] -P check_fence.cmake
cmake_minimum_required(VERSION 3.16) # IN_LIST
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")

# want_<path> = "<size> <sha256>" for every manifest line of a chosen run.
set(wanted "")
file(STRINGS "${MANIFEST}" lines REGEX "^[^#]")
foreach(line IN LISTS lines)
    string(REPLACE " " ";" fields "${line}")
    list(GET fields 0 path)
    string(REGEX REPLACE "/.*" "" run "${path}")
    if(NOT RUNS OR run IN_LIST RUNS)
        list(GET fields 1 2 digest)
        string(REPLACE ";" " " "want_${path}" "${digest}")
        list(APPEND wanted "${path}")
    endif()
endforeach()

set(actual "")   # manifest lines, first variant of each run
set(produced "") # paths some run wrote
set(failures "") # one line per moved, missing or extra file

# fence_exec(<run> <stdout file> <command>...): runs the command in
# DIR/<run>, its stdout into <stdout file>; a non-zero exit is fatal.
function(fence_exec run out)
    if(RUNS AND NOT run IN_LIST RUNS)
        return()
    endif()
    file(MAKE_DIRECTORY "${DIR}/${run}")
    execute_process(COMMAND ${ARGN}
        WORKING_DIRECTORY "${DIR}/${run}"
        OUTPUT_FILE "${DIR}/${run}/${out}"
        ERROR_VARIABLE err
        RESULT_VARIABLE rc
        TIMEOUT 600)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "fence run '${run}' exited with '${rc}': "
                            "${ARGN}\n${err}")
    endif()
endfunction()

# fence_hash(<run> <variant> [<unhashed file>...]): deletes the unhashed
# files, which must exist, then hashes and deletes every other file in
# DIR/<run> and checks each against the manifest.
function(fence_hash run variant)
    if(RUNS AND NOT run IN_LIST RUNS)
        return()
    endif()
    foreach(file IN LISTS ARGN)
        if(NOT EXISTS "${DIR}/${run}/${file}")
            message(FATAL_ERROR "fence run '${run}'${variant} wrote no "
                                "${file}")
        endif()
        file(REMOVE "${DIR}/${run}/${file}")
    endforeach()
    file(GLOB_RECURSE files LIST_DIRECTORIES false RELATIVE "${DIR}/${run}"
         "${DIR}/${run}/*")
    list(SORT files)
    foreach(file IN LISTS files)
        set(full "${DIR}/${run}/${file}")
        set(at -1)
        if(file MATCHES "\\.json$")
            file(READ "${full}" text)
            string(FIND "${text}" "\"gitSha\":" at)
        endif()
        if(at EQUAL -1)
            file(SIZE "${full}" size)
            file(SHA256 "${full}" sha)
        else()
            string(REGEX REPLACE
                "\"(gitSha|compiler|compilerFlags|buildType)\":\"[^\"]*\""
                "\"\\1\":\"\"" text "${text}")
            string(LENGTH "${text}" size)
            string(SHA256 sha "${text}")
        endif()
        set(path "${run}/${file}")
        if(NOT DEFINED "want_${path}")
            list(APPEND failures
                 "extra    ${path}${variant} (not in the manifest)")
        elseif(NOT "${size} ${sha}" STREQUAL "${want_${path}}")
            string(REGEX REPLACE " .*" "" was "${want_${path}}")
            list(APPEND failures
                 "moved    ${path}${variant} (${size} bytes, was ${was})")
        endif()
        if(NOT path IN_LIST produced)
            list(APPEND produced "${path}")
            list(APPEND actual "${path} ${size} ${sha}")
        endif()
    endforeach()
    file(REMOVE_RECURSE "${DIR}/${run}")
    set(actual "${actual}" PARENT_SCOPE)
    set(produced "${produced}" PARENT_SCOPE)
    set(failures "${failures}" PARENT_SCOPE)
endfunction()

# 2 GB, every observer: stdout, stats text and JSON, interval CSV,
# heatmap, audit (binary and NDJSON), ledger (JSON, CSV, check), Chrome
# and CSV traces, and smartref_inspect on the audit and the ledger.
fence_exec(2gb-full stdout.txt "${SIM}" --config 2gb --policy smart
    --benchmark mummer --warmup-ms 2 --measure-ms 8 --check-conservation
    --stats-out stats.txt --stats-json stats.json
    --stats-interval-ms 1 --stats-interval-out intervals.csv
    --interval-cols system.dram.ddr2-2GB.refreshesPerBank
    --heatmap-out heatmap.json --audit-out audit.bin
    --audit-json audit.ndjson --ledger-out ledger.json
    --ledger-csv ledger.csv --ledger-check ledger_check.json
    --trace-out trace.json --trace-csv trace.csv)
fence_exec(2gb-full inspect_audit.txt "${INSPECT}" audit.bin)
fence_exec(2gb-full inspect_deferred.txt "${INSPECT}" audit.bin
    --outcome deferred --top 5)
fence_exec(2gb-full inspect_ledger.txt "${INSPECT}" ledger.json)
fence_hash(2gb-full "")

# Assemblies, parallelism modes and policies the full run does not take.
foreach(variant
        "3d64-smart: --config 3d64 --policy smart"
        "3d64-cbr: --config 3d64 --policy cbr"
        "3d64-classes: --config 3d64 --policy retention-aware --classes --scheme rank-bank-row"
        "2gb-darp: --parallelism darp"
        "2gb-sarp: --parallelism sarp"
        "2gb-per-bank: --policy per-bank"
        "2gb-classes: --policy retention-aware --classes"
        "2gb-idle: --idle")
    string(REGEX REPLACE ":.*" "" run "${variant}")
    string(REGEX REPLACE "^[^:]*:" "" args "${variant}")
    separate_arguments(args UNIX_COMMAND "${args}")
    fence_exec(${run} stdout.txt "${SIM}" ${args} --warmup-ms 2
        --measure-ms 4 --stats-json stats.json --heatmap-out heatmap.json
        --audit-out audit.bin --ledger-out ledger.json)
    fence_hash(${run} "")
endforeach()

# 128 GB, 8 channels, sparse counters: -j1 and -j4 write the same bytes.
foreach(j 1 4)
    fence_exec(128gb stdout.txt "${SIM}" --config 128gb --sparse-counters
        --policy smart --benchmark mummer --warmup-ms 2 --measure-ms 4
        -j${j} --check-conservation --heatmap-out heatmap.json
        --ledger-out ledger.json --audit-out audit.bin)
    fence_hash(128gb " at -j${j}")
endforeach()

# Sweeps. Their stderr carries wall time, and timing and telemetry are
# not deterministic: none of them is hashed.
foreach(j 1 4)
    set(extra "")
    set(unhashed "")
    if(j EQUAL 4)
        set(extra --timing timing.json --telemetry-out telemetry.ndjson
                  --check-conservation)
        set(unhashed timing.json telemetry.ndjson)
    endif()
    fence_exec(smoke stdout.txt "${SWEEP}" --grid smoke -j${j}
        --warmup-ms 2 --measure-ms 8 --out-dir . --heatmap-out heatmap.json
        ${extra})
    fence_hash(smoke " at -j${j}" ${unhashed})
endforeach()
fence_exec(policy-grid stdout.txt "${SWEEP}" --grid policy-grid -j4
    --warmup-ms 2 --measure-ms 4 --out-dir . --heatmap-out heatmap.json)
fence_hash(policy-grid "")

foreach(path IN LISTS wanted)
    if(NOT path IN_LIST produced)
        list(APPEND failures "missing  ${path} (no run writes it)")
    endif()
endforeach()

list(JOIN actual "\n" body)
file(WRITE "${DIR}/fence.txt"
    "# Byte fence: size and SHA-256 of every file tools/check_fence.cmake\n"
    "# writes, with the build fields of JSON meta blocks blanked. To accept\n"
    "# new bytes, copy <build>/tools/fence/fence.txt over this file.\n"
    "${body}\n")
list(LENGTH failures nfail)
list(LENGTH produced nfiles)
if(nfail GREATER 0)
    list(JOIN failures "\n  " report)
    message(FATAL_ERROR "fence: ${nfail} difference(s) over ${nfiles} "
        "file(s) against ${MANIFEST}:\n  ${report}\nThe actual manifest is "
        "${DIR}/fence.txt; copy it over ${MANIFEST} to accept the change.")
endif()
message(STATUS "fence: ${nfiles} files match ${MANIFEST}")
