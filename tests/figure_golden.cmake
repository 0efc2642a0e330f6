# Runs one figure bench at short windows in a fresh working directory
# and compares its stdout byte for byte with the archived golden:
#
#   cmake -DBENCH=<bench binary> -DGOLDEN=<golden .txt>
#         -DWORKDIR=<scratch dir> [-DEXTRA_ARGS="<flags>"]
#         [-DRESUME_ARGS="<flags>"] -P figure_golden.cmake
#
# EXTRA_ARGS (space-separated) are appended to the bench's command
# line.  With RESUME_ARGS the bench then runs a second time with those
# flags instead (say --resume=DIR on the sweep directory the first run
# journaled into); that run must print the same golden and leave every
# journal under WORKDIR as it found it, i.e. re-simulate nothing.
#
# The goldens under tests/data/figures/ were printed by these settings;
# regenerate one by running the same command line and saving stdout.
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

function(run_and_compare flags)
    separate_arguments(extra UNIX_COMMAND "${flags}")
    execute_process(
        COMMAND "${BENCH}" --mixes=2 --warmup=300000 --measure=1200000
                --jobs=2 ${extra}
        WORKING_DIRECTORY "${WORKDIR}"
        OUTPUT_FILE "${WORKDIR}/stdout.txt"
        RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
        message(FATAL_ERROR "${BENCH} ${flags} exited with status ${status}")
    endif()
    execute_process(
        COMMAND "${CMAKE_COMMAND}" -E compare_files "${WORKDIR}/stdout.txt"
                "${GOLDEN}"
        RESULT_VARIABLE differs)
    if(differs)
        file(READ "${WORKDIR}/stdout.txt" actual)
        message(FATAL_ERROR
                "${BENCH} ${flags}: stdout differs from ${GOLDEN}; it "
                "was:\n${actual}")
    endif()
endfunction()

# Every journal under WORKDIR, concatenated.
function(read_journals out)
    file(GLOB_RECURSE journals "${WORKDIR}/*.journal")
    set(text "")
    foreach(j IN LISTS journals)
        file(READ "${j}" body)
        string(APPEND text "${j}:\n${body}")
    endforeach()
    set(${out} "${text}" PARENT_SCOPE)
endfunction()

run_and_compare("${EXTRA_ARGS}")
if(DEFINED RESUME_ARGS)
    read_journals(before)
    if(before STREQUAL "")
        message(FATAL_ERROR "${BENCH} ${EXTRA_ARGS} wrote no journal")
    endif()
    run_and_compare("${RESUME_ARGS}")
    read_journals(after)
    if(NOT after STREQUAL before)
        message(FATAL_ERROR
                "${BENCH} ${RESUME_ARGS} re-simulated: the journal went "
                "from\n${before}\nto\n${after}")
    endif()
endif()
