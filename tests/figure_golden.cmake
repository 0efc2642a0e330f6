# Runs one figure bench at short windows in a fresh working directory
# and compares its stdout byte for byte with the archived golden:
#
#   cmake -DBENCH=<bench binary> -DGOLDEN=<golden .txt>
#         -DWORKDIR=<scratch dir> -P figure_golden.cmake
#
# The goldens under tests/data/figures/ were printed by these settings;
# regenerate one by running the same command line and saving stdout.
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(
    COMMAND "${BENCH}" --mixes=2 --warmup=300000 --measure=1200000
            --jobs=2
    WORKING_DIRECTORY "${WORKDIR}"
    OUTPUT_FILE "${WORKDIR}/stdout.txt"
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with status ${status}")
endif()
execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${WORKDIR}/stdout.txt"
            "${GOLDEN}"
    RESULT_VARIABLE differs)
if(differs)
    file(READ "${WORKDIR}/stdout.txt" actual)
    message(FATAL_ERROR
            "stdout differs from ${GOLDEN}; it was:\n${actual}")
endif()
